//! MSB-first bit-level packing primitives.
//!
//! These back the compressed-beamforming-report packing in [`crate::feedback`]
//! and are exported so other wire formats (e.g. SplitBeam's bottleneck payload
//! codec) can share the exact same bit layout: values are written most
//! significant bit first, and the final partial byte is zero-padded on the
//! right.

use mimo_math::{kernel, Backend};

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
    /// returns `None` (consuming nothing, appending nothing) when the stream
    /// holds fewer than `bits * count` remaining bits. The codes are made
    /// room for, then [`unpack_u16s`] writes them: the same values the
    /// equivalent `pull` sequence would produce.
    ///
    /// # Panics
    /// When `bits` lies outside `1..=16` — wider codes don't fit the `u16`
    /// output, and zero-width codes are malformed in every caller.
    pub fn pull_u16s_into(&mut self, bits: u32, count: usize, out: &mut Vec<u16>) -> Option<()> {
        assert!(
            (1..=16).contains(&bits),
            "unpack of {bits}-bit codes (supported: 1..=16)"
        );
        // Refused before `out` grows, so a short stream costs no memory
        // whatever `count` it is asked for (and no product can overflow).
        if count > (self.data.len() * 8 - self.bit_pos) / bits as usize {
            return None;
        }
        let start = out.len();
        out.resize(start + count, 0);
        unpack_u16s(self.data, self.bit_pos, bits, &mut out[start..])?;
        self.bit_pos += bits as usize * count;
        Some(())
    }

    /// Number of bits consumed so far.
    #[cfg(test)]
    pub fn bits_read(&self) -> usize {
        self.bit_pos
    }
}

/// Unpacks `codes.len()` codes of `bits` bits each, most significant bit
/// first, from `data` starting at bit `start`, into `codes` — straight into
/// where the caller uses them, so a decoder needs no staging buffer. Returns
/// `None`, writing nothing, when `data` holds fewer than
/// `start + bits * codes.len()` bits. Produces exactly the values the
/// equivalent [`BitReader::pull`] sequence would.
///
/// This is the AP's per-frame payload decode: hundreds of codes a frame,
/// every frame. A width that divides a byte (1, 2, 4, 8), read from a byte
/// boundary — every SplitBeam frame: a 14-byte header, then 4-bit codes —
/// splits bytes, a loop of shifts a byte. On the baseline target that loop
/// reads ≈ 1.8 GB/s (a 545-code frame in ≈ 55–95 ns). From
/// [`Backend::Avx512`] up ([`kernel::selected_backend`]; not under
/// `SPLITBEAM_KERNEL=scalar`) 4-bit codes split 32 a step, zero-extended
/// into `avx512f` lanes and shifted apart (≈ 27–58 ns), and 1-bit codes run
/// the loop compiled for `avx512f`. Every other width,
/// and a start inside a byte, decodes eight bytes at a time: one big-endian
/// load yields every code sure to end inside it (14 at 4 bits) by rotates
/// alone.
///
/// # Panics
/// When `bits` lies outside `1..=16`.
pub fn unpack_u16s(data: &[u8], start: usize, bits: u32, codes: &mut [u16]) -> Option<()> {
    unpack_u16s_on(kernel::selected_backend(), data, start, bits, codes)
}

/// [`unpack_u16s`] on the arm `level` selects (the tests walk every level).
fn unpack_u16s_on(
    level: Backend,
    data: &[u8],
    start: usize,
    bits: u32,
    codes: &mut [u16],
) -> Option<()> {
    assert!(
        (1..=16).contains(&bits),
        "unpack of {bits}-bit codes (supported: 1..=16)"
    );
    let bits = bits as usize;
    if start + bits * codes.len() > data.len() * 8 {
        return None;
    }
    let bytes = &data[start / 8..];
    match bits {
        1 if start.is_multiple_of(8) => split::<1>(level, bytes, codes),
        2 if start.is_multiple_of(8) => split::<2>(level, bytes, codes),
        4 if start.is_multiple_of(8) => split::<4>(level, bytes, codes),
        8 if start.is_multiple_of(8) => split::<8>(level, bytes, codes),
        _ => unpack_windows(data, start, bits, codes),
    }
    Some(())
}

/// Unpacks `codes` from bit `bit_pos` of `data`, which holds them all,
/// eight bytes a window.
fn unpack_windows(data: &[u8], mut bit_pos: usize, bits: usize, mut codes: &mut [u16]) {
    let mask = (1u64 << bits) - 1;
    // The codes that end inside a window whatever bit of its first byte
    // they start at: a constant, where the exact count would cost a
    // division a window.
    let per_window = (64 - 7) / bits;
    while !codes.is_empty() {
        let (byte, offset) = (bit_pos / 8, bit_pos % 8);
        let window = match data.get(byte..byte + 8) {
            Some(window) => window.try_into().expect("an 8-byte slice"),
            // The stream's last seven bytes or fewer, zero-extended: the
            // caller's length check keeps every code inside the real ones.
            None => {
                let mut window = [0u8; 8];
                window[..data.len() - byte].copy_from_slice(&data[byte..]);
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
        bit_pos += whole * bits;
        codes = later;
    }
}

/// Splits the bytes at the front of `data` into `codes`, `8 / BITS` codes
/// a byte, on the arm `level` selects: the whole bytes, then the leading
/// codes of a ragged last one. The width is a constant, so every division
/// is a shift. From [`Backend::Avx512`] up, one bit and four bits take a
/// vector arm; at two and eight bits the loop compiled for `avx512f` did
/// not beat the baseline one in alternating pairs (at eight it read
/// slower), so they keep it.
fn split<const BITS: usize>(level: Backend, data: &[u8], codes: &mut [u16]) {
    let whole = codes.len() / (8 / BITS);
    let (codes, ragged) = codes.split_at_mut(whole * (8 / BITS));
    if !ragged.is_empty() {
        split_byte::<BITS>(data[whole], ragged);
    }
    let bytes = &data[..whole];
    #[cfg(target_arch = "x86_64")]
    if level.min(Backend::host()) >= Backend::Avx512 {
        match BITS {
            // SAFETY: the host runs `avx512f` from this level up.
            1 => unsafe { split_zmm::<1>(bytes, codes) },
            // SAFETY: as above.
            4 => unsafe { split_nibbles_zmm(bytes, codes) },
            _ => split_bytes::<BITS>(bytes, codes),
        }
        return;
    }
    split_bytes::<BITS>(bytes, codes);
}

/// Splits each byte into its `8 / BITS` codes: `codes` holds exactly that
/// many per byte of `bytes`. The scalar arm, and the tail of the vector
/// one.
fn split_bytes<const BITS: usize>(bytes: &[u8], codes: &mut [u16]) {
    for (&byte, codes) in bytes.iter().zip(codes.chunks_exact_mut(8 / BITS)) {
        split_byte::<BITS>(byte, codes);
    }
}

/// The leading `codes.len()` codes of `byte`, most significant first.
#[inline(always)]
fn split_byte<const BITS: usize>(byte: u8, codes: &mut [u16]) {
    let mask = (1u16 << BITS) - 1;
    for (i, code) in codes.iter_mut().enumerate() {
        *code = (u16::from(byte) >> (8 - BITS * (i + 1))) & mask;
    }
}

/// [`split_bytes`] compiled for `avx512f`.
///
/// # Safety
/// Requires `avx512f`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn split_zmm<const BITS: usize>(bytes: &[u8], codes: &mut [u16]) {
    split_bytes::<BITS>(bytes, codes);
}

/// [`split_bytes`] at four bits, 32 codes — one 64-byte line — a step:
/// each of 16 bytes is zero-extended into a dword, whose copy shifted up
/// 16 bits lands its low nibble in the upper word, and one mask keeps both
/// codes. SplitBeam frames are 4-bit, and this beat the loop compiled for
/// `avx512f` in all but one of 90 alternating pairs (27–58 against 56–76
/// ns a 545-code frame). The bytes no whole step takes run the scalar
/// loop.
///
/// # Safety
/// Requires `avx512f`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn split_nibbles_zmm(bytes: &[u8], codes: &mut [u16]) {
    use core::arch::x86_64::{
        _mm512_and_si512, _mm512_cvtepu8_epi32, _mm512_or_si512, _mm512_set1_epi32,
        _mm512_slli_epi32, _mm512_srli_epi32, _mm512_storeu_si512, _mm_loadu_si128,
    };
    let whole = bytes.len() / 16 * 16;
    for (chunk, out) in bytes[..whole]
        .chunks_exact(16)
        .zip(codes.chunks_exact_mut(32))
    {
        // SAFETY: the load reads the 16 bytes of `chunk` and the store
        // writes the 32 codes (64 bytes) of `out`, both unaligned.
        unsafe {
            let x = _mm512_cvtepu8_epi32(_mm_loadu_si128(chunk.as_ptr().cast()));
            let lanes = _mm512_or_si512(_mm512_srli_epi32::<4>(x), _mm512_slli_epi32::<16>(x));
            let codes = _mm512_and_si512(lanes, _mm512_set1_epi32(0x000F_000F));
            _mm512_storeu_si512(out.as_mut_ptr().cast(), codes);
        }
    }
    split_bytes::<4>(&bytes[whole..], &mut codes[whole * 2..]);
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

    /// The `pull` sequence: `count` codes of `bits` bits from bit `lead`.
    fn pulled(data: &[u8], lead: u32, bits: u32, count: usize) -> Vec<u16> {
        let mut reader = BitReader::new(data);
        reader.pull(lead).unwrap();
        (0..count)
            .map(|_| reader.pull(bits).unwrap() as u16)
            .collect()
    }

    /// Both arms of the slice unpack — `unpack_u16s_on` at every level the
    /// host has: `Scalar` splits bytes with `split_bytes`, `Avx512` 4-bit
    /// codes with `split_nibbles_zmm` and 1-bit ones with `split_zmm` —
    /// against the `pull` sequence, bit for bit: at each width dividing a
    /// byte, for every byte length up to 67 (every tail of the 16-byte
    /// vector step, past four whole steps) with a ragged
    /// last byte or none, from every start offset inside a byte (offset 0
    /// splits bytes, every other one decodes windows).
    #[test]
    fn every_unpack_arm_matches_single_pulls() {
        let levels = Backend::arms(|level| level.min(Backend::Avx512));
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for bits in [1u32, 2, 4, 8] {
            let per_byte = 8 / bits as usize;
            for len in 0..=67usize {
                let data: Vec<u8> = (0..len + 3)
                    .map(|_| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        state as u8
                    })
                    .collect();
                for lead in 0..8u32 {
                    for count in [len * per_byte, (len + 1) * per_byte - 1] {
                        let want = pulled(&data, lead, bits, count);
                        for &level in &levels {
                            let mut got = vec![0xBEEF; count];
                            unpack_u16s_on(level, &data, lead as usize, bits, &mut got).unwrap();
                            let case = format!("{bits} bits from bit {lead}, {count} codes");
                            assert_eq!(got, want, "{level:?}, {case}");
                        }
                    }
                }
            }
        }
        eprintln!("unpack parity ran on {levels:?}");
    }

    /// The slice form against the `Vec` form at every width 1..=16 and
    /// every start offset inside a byte: the same codes, and a short stream
    /// refused by both, the slice left as it was.
    #[test]
    fn slice_unpack_matches_the_vec_form() {
        let data: Vec<u8> = (0..200u32)
            .map(|i| (i.wrapping_mul(0x9E37_79B9) >> 24) as u8)
            .collect();
        for bits in 1u32..=16 {
            for lead in 0..8usize {
                let count = (data.len() * 8 - lead) / bits as usize;
                let mut reader = BitReader::new(&data);
                reader.pull(lead as u32).unwrap();
                let mut vec_form = Vec::new();
                reader.pull_u16s_into(bits, count, &mut vec_form).unwrap();
                let mut slice_form = vec![0; count];
                unpack_u16s(&data, lead, bits, &mut slice_form).unwrap();
                assert_eq!(slice_form, vec_form, "{bits} bits from bit {lead}");
                let mut short = vec![7u16; count + 1];
                assert_eq!(unpack_u16s(&data, lead, bits, &mut short), None);
                assert!(
                    short.iter().all(|&c| c == 7),
                    "a refused unpack writes nothing"
                );
                assert_eq!(reader.pull_u16s_into(bits, 1, &mut vec_form), None);
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
    fn refused_bulk_pull_does_not_grow_the_buffer() {
        let mut out = Vec::with_capacity(4);
        let mut r = BitReader::new(&[0xAB, 0xCD]);
        for count in [5, 1 << 20, usize::MAX] {
            assert_eq!(r.pull_u16s_into(4, count, &mut out), None);
            assert_eq!((out.len(), out.capacity()), (0, 4), "{count} codes");
        }
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
