//! MSB-first bit-level packing primitives.
//!
//! These back the compressed-beamforming-report packing in [`crate::feedback`]
//! and are exported so other wire formats (e.g. SplitBeam's bottleneck payload
//! codec) can share the exact same bit layout: values are written most
//! significant bit first, and the final partial byte is zero-padded on the
//! right.

/// Minimal MSB-first bit writer.
///
/// Values are appended in byte-sized chunks rather than bit by bit; the
/// resulting stream is identical to a bit-at-a-time writer.
pub struct BitWriter {
    buf: Vec<u8>,
    current: u8,
    filled: u32,
}

impl BitWriter {
    /// Creates a writer with capacity for `bits` bits.
    pub fn with_capacity_bits(bits: usize) -> Self {
        Self {
            buf: Vec::with_capacity(bits.div_ceil(8)),
            current: 0,
            filled: 0,
        }
    }

    /// Appends the `bits` least significant bits of `value`, MSB first.
    ///
    /// # Panics
    /// When `bits > 32` — the request is malformed in every build, and a
    /// silent shift-overflow in release would corrupt the wire stream.
    pub fn push(&mut self, value: u32, bits: u32) {
        assert!(bits <= 32, "BitWriter::push of {bits} bits (max 32)");
        let mut remaining = bits;
        while remaining > 0 {
            let take = (8 - self.filled).min(remaining);
            let shift = remaining - take;
            let chunk = ((value >> shift) & ((1u32 << take) - 1)) as u8;
            // take == 8 only happens on an empty byte (filled == 0).
            self.current = if take == 8 {
                chunk
            } else {
                (self.current << take) | chunk
            };
            self.filled += take;
            remaining -= take;
            if self.filled == 8 {
                self.buf.push(self.current);
                self.current = 0;
                self.filled = 0;
            }
        }
    }

    /// Flushes the trailing partial byte (zero-padded) and returns the stream.
    pub fn finish(mut self) -> Vec<u8> {
        if self.filled > 0 {
            self.current <<= 8 - self.filled;
            self.buf.push(self.current);
        }
        self.buf
    }
}

/// Minimal MSB-first bit reader.
pub struct BitReader<'a> {
    data: &'a [u8],
    bit_pos: usize,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `data`, starting at the first bit.
    pub fn new(data: &'a [u8]) -> Self {
        Self { data, bit_pos: 0 }
    }

    /// Reads the next `bits` bits as an unsigned value, or `None` when the
    /// stream is exhausted.
    ///
    /// Bits are consumed in byte-sized chunks (at most `ceil(bits / 8) + 1`
    /// iterations), not one at a time — this is on the AP's per-frame decode
    /// hot path.
    ///
    /// # Panics
    /// When `bits > 32` — enforced in release builds too, since a
    /// shift-overflow here would silently mis-decode frames on the AP's
    /// ingest path.
    pub fn pull(&mut self, bits: u32) -> Option<u32> {
        assert!(bits <= 32, "BitReader::pull of {bits} bits (max 32)");
        if self.bit_pos + bits as usize > self.data.len() * 8 {
            return None;
        }
        let mut value = 0u32;
        let mut remaining = bits;
        while remaining > 0 {
            let byte = self.data[self.bit_pos / 8];
            let avail = 8 - (self.bit_pos % 8) as u32;
            let take = avail.min(remaining);
            let chunk = (u32::from(byte) >> (avail - take)) & ((1u32 << take) - 1);
            value = (value << take) | chunk;
            self.bit_pos += take as usize;
            remaining -= take;
        }
        Some(value)
    }

    /// Bulk form of [`BitReader::pull`] for runs of equal-width codes: reads
    /// `count` values of `bits` bits each and appends them to `out`, or
    /// returns `None` (consuming nothing) when the stream holds fewer than
    /// `bits * count` remaining bits.
    ///
    /// A width that divides a byte (1, 2, 4, 8), read from a byte boundary,
    /// splits whole bytes in a loop of independent shifts the compiler
    /// vectorises — every SplitBeam frame: a 14-byte header, then 4-bit
    /// codes. Every other width, a start inside a byte and the codes of a
    /// ragged last byte decode eight bytes at a time: one big-endian load
    /// yields every code sure to end inside it (14 at 4 bits) by rotates
    /// alone, stored by index into a destination grown once up front —
    /// against [`BitReader::pull`]'s per-call bounds check and chunk loop.
    /// This is the AP's per-frame payload decode: hundreds of codes per
    /// frame, every frame, so the per-code constant dominates ingest cost.
    /// Produces exactly the values the equivalent `pull` sequence would.
    ///
    /// # Panics
    /// When `bits` lies outside `1..=16` — wider codes don't fit the `u16`
    /// output, and zero-width codes are malformed in every caller.
    pub fn pull_u16s_into(&mut self, bits: u32, count: usize, out: &mut Vec<u16>) -> Option<()> {
        assert!(
            (1..=16).contains(&bits),
            "BitReader::pull_u16s_into of {bits}-bit codes (supported: 1..=16)"
        );
        let bits = bits as usize;
        if self.bit_pos + bits * count > self.data.len() * 8 {
            return None;
        }
        let start = out.len();
        out.resize(start + count, 0);
        let mut codes = &mut out[start..];
        if self.bit_pos.is_multiple_of(8) && 8 % bits == 0 {
            let per_byte = 8 / bits;
            let bytes = &self.data[self.bit_pos / 8..][..count / per_byte];
            let (whole, ragged) = codes.split_at_mut(bytes.len() * per_byte);
            match bits {
                1 => split_bytes::<1>(bytes, whole),
                2 => split_bytes::<2>(bytes, whole),
                4 => split_bytes::<4>(bytes, whole),
                _ => split_bytes::<8>(bytes, whole),
            }
            self.bit_pos += 8 * bytes.len();
            codes = ragged;
        }
        let mask = (1u64 << bits) - 1;
        // The codes that end inside a window whatever bit of its first byte
        // they start at: a constant, where the exact count would cost a
        // division a window.
        let per_window = (64 - 7) / bits;
        while !codes.is_empty() {
            let (byte, offset) = (self.bit_pos / 8, self.bit_pos % 8);
            let window = match self.data.get(byte..byte + 8) {
                Some(window) => window.try_into().expect("an 8-byte slice"),
                // The stream's last seven bytes or fewer, zero-extended: the
                // length check above keeps every code inside the real ones.
                None => {
                    let mut window = [0u8; 8];
                    window[..self.data.len() - byte].copy_from_slice(&self.data[byte..]);
                    window
                }
            };
            let mut word = u64::from_be_bytes(window) << offset;
            let whole = per_window.min(codes.len());
            let (now, later) = codes.split_at_mut(whole);
            for code in now {
                // Rotating the next code down to bit 0 is one variable-count
                // instruction a code; shifting it out and down would be two.
                word = word.rotate_left(bits as u32);
                *code = (word & mask) as u16;
            }
            self.bit_pos += whole * bits;
            codes = later;
        }
        Some(())
    }

    /// Number of bits consumed so far.
    #[cfg(test)]
    pub fn bits_read(&self) -> usize {
        self.bit_pos
    }
}

/// Splits each byte into its `8 / BITS` codes, most significant first:
/// `codes` holds exactly that many per byte of `bytes`. The width is a
/// constant so that every shift is one and the loop vectorises.
fn split_bytes<const BITS: usize>(bytes: &[u8], codes: &mut [u16]) {
    let mask = (1u16 << BITS) - 1;
    for (&byte, codes) in bytes.iter().zip(codes.chunks_exact_mut(8 / BITS)) {
        for (i, code) in codes.iter_mut().enumerate() {
            *code = (u16::from(byte) >> (8 - BITS * (i + 1))) & mask;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn writer_reader_roundtrip() {
        let mut w = BitWriter::with_capacity_bits(12);
        w.push(0b101, 3);
        w.push(0b11110000, 8);
        w.push(0b1, 1);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.pull(3), Some(0b101));
        assert_eq!(r.pull(8), Some(0b11110000));
        assert_eq!(r.pull(1), Some(1));
        assert_eq!(r.bits_read(), 12);
    }

    #[test]
    fn reader_detects_exhaustion() {
        let mut r = BitReader::new(&[0xFF]);
        assert_eq!(r.pull(8), Some(0xFF));
        assert_eq!(r.pull(1), None);
    }

    #[test]
    fn partial_byte_is_right_zero_padded() {
        let mut w = BitWriter::with_capacity_bits(3);
        w.push(0b111, 3);
        assert_eq!(w.finish(), vec![0b1110_0000]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Every width from every starting bit offset — so the byte-split
        /// path (a width dividing 8 from offset 0), its ragged last byte and
        /// the window path each run in every case — from empty runs to ones
        /// longer than a frame's, ending flush with the stream or any number
        /// of bytes before its end (so both the 8-byte window and the
        /// zero-extended tail are crossed at every phase): bit-equal to the
        /// `pull` sequence, and leaving the reader where it leaves it.
        #[test]
        fn bulk_pull_matches_single_pulls(
            count in 0usize..=600,
            trailing in 0usize..=9,
            seed in 0u64..u64::MAX,
        ) {
            for bits in 1u32..=16 {
                for lead in 0u32..=7 {
                    let len = (lead as usize + bits as usize * count).div_ceil(8) + trailing;
                    let data: Vec<u8> = (0..len as u64)
                        .map(|i| {
                            (i.wrapping_add(seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8
                        })
                        .collect();
                    let mut reference = BitReader::new(&data);
                    reference.pull(lead).unwrap();
                    let expect: Vec<u16> = (0..count)
                        .map(|_| reference.pull(bits).unwrap() as u16)
                        .collect();
                    let mut bulk = BitReader::new(&data);
                    bulk.pull(lead).unwrap();
                    let mut got = vec![0xBEEF];
                    bulk.pull_u16s_into(bits, count, &mut got).unwrap();
                    prop_assert_eq!(got[0], 0xBEEF, "a bulk pull appends");
                    prop_assert_eq!(&got[1..], &expect[..], "{} bits from bit {}", bits, lead);
                    prop_assert_eq!(bulk.bits_read(), reference.bits_read());
                }
            }
        }
    }

    #[test]
    fn byte_split_codes_come_out_most_significant_first() {
        // One byte a width: the split path's order, stated rather than
        // derived from `pull`, and its ragged tail (3 of the 4 crumbs, 5 of
        // the 8 bits) handed on to the window path.
        let mut out = Vec::new();
        BitReader::new(&[0xA7, 0x1E]).pull_u16s_into(4, 4, &mut out);
        assert_eq!(out, [0xA, 0x7, 0x1, 0xE]);
        out.clear();
        BitReader::new(&[0b11_01_00_10, 0b10_00_11_01]).pull_u16s_into(2, 7, &mut out);
        assert_eq!(out, [3, 1, 0, 2, 2, 0, 3]);
        out.clear();
        BitReader::new(&[0b1011_0001, 0b0110_1000]).pull_u16s_into(1, 13, &mut out);
        assert_eq!(out, [1, 0, 1, 1, 0, 0, 0, 1, 0, 1, 1, 0, 1]);
        out.clear();
        BitReader::new(&[0xFE, 0x01]).pull_u16s_into(8, 2, &mut out);
        assert_eq!(out, [0xFE, 0x01]);
    }

    #[test]
    fn bulk_pull_rejects_exhaustion_without_consuming() {
        let mut r = BitReader::new(&[0xAB, 0xCD]);
        let mut out = vec![7u16];
        assert_eq!(r.pull_u16s_into(5, 4, &mut out), None);
        assert_eq!(out, vec![7], "failed bulk pull must not append");
        assert_eq!(r.bits_read(), 0, "failed bulk pull must not consume");
        assert_eq!(r.pull_u16s_into(5, 3, &mut out), Some(()));
        assert_eq!(out.len(), 4);
        // The same on the byte-split path: five nibbles of a four-nibble
        // stream are refused whole, four are served.
        let mut r = BitReader::new(&[0xAB, 0xCD]);
        let mut out = vec![7u16];
        assert_eq!(r.pull_u16s_into(4, 5, &mut out), None);
        assert_eq!((out.as_slice(), r.bits_read()), (&[7u16][..], 0));
        assert_eq!(r.pull_u16s_into(4, 4, &mut out), Some(()));
        assert_eq!(out, [7, 0xA, 0xB, 0xC, 0xD]);
        assert_eq!(r.pull_u16s_into(4, 1, &mut out), None);
    }

    #[test]
    fn wide_values_cross_byte_boundaries() {
        let mut w = BitWriter::with_capacity_bits(64);
        w.push(0xDEAD_BEEF, 32);
        w.push(0x1234, 16);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.pull(32), Some(0xDEAD_BEEF));
        assert_eq!(r.pull(16), Some(0x1234));
    }
}
