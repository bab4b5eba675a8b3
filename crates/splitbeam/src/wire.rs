//! Bit-packed over-the-air wire format for [`QuantizedFeedback`].
//!
//! The in-memory payload keeps one `u16` per code for fast arithmetic, but a
//! real feedback frame must carry each code at its true width — a 4-bit
//! bottleneck occupies 4 bits per value on the air, not 16. This module is the
//! boundary between the two representations. The frame layout is:
//!
//! ```text
//! +---------+---------------+---------+-------------+-----------+-----------+------------------+-----------+
//! | version | bits_per_value|   seq   |  code count |    min    |    max    |   packed codes   |  CRC-32   |
//! |  0xB5   |     u8        |   u16   |     u16     | f32 (BE)  | f32 (BE)  | bpv bits/code,   | u32 (BE)  |
//! |   u8    |               | big-    | big-endian  |  IEEE 754 |  IEEE 754 | MSB first, zero- | over all  |
//! |         |               | endian  |             |           |           | padded to a byte | prior     |
//! |         |               |         |             |           |           |                  | bytes     |
//! +---------+---------------+---------+-------------+-----------+-----------+------------------+-----------+
//! ```
//!
//! This is the only layout the decoder accepts: a frame opening with any
//! other octet is rejected as an unknown version, so no frame decodes without
//! passing the CRC. The CRC-32 (IEEE 802.3, reflected polynomial
//! `0xEDB88320`) covers every byte before the trailer, so a corrupted frame is
//! *detected* and rejected as [`SplitBeamError::CorruptFrame`] instead of
//! being decoded into plausible garbage. [`crc32`] computes it one of two
//! ways, the same checksum either way: frames of 64 bytes or more fold with
//! carry-less multiplies (`pclmulqdq`) from [`Backend::Avx2`] up, with their
//! last `len % 16` bytes and every shorter frame — and everything under
//! `SPLITBEAM_KERNEL=scalar` — on a slicing-by-8 table loop, whose bytewise
//! form is the tests' oracle. The 16-bit sequence number feeds the
//! serving layer's duplicate suppression and retransmission accounting;
//! `seq == 0` marks an unsequenced frame (last-write-wins at the AP).
//!
//! The body reuses the exact MSB-first packing primitives of
//! [`dot11_bfi::bits`], so the SplitBeam payload and the 802.11 compressed
//! beamforming report share one bit-level convention. An explicit code count
//! is carried because the zero-padding of the final byte would otherwise make
//! the number of codes ambiguous for widths that do not divide 8.
//!
//! Decoding is two steps, so that a receiver can decide where the codes go
//! between them: [`check_frame`] checks the whole frame (version and length
//! floor, CRC, then width, range and length) and reads the header at its
//! fixed offsets into a [`FrameHeader`]; [`unpack_codes`] then unpacks the
//! codes straight into a buffer of the caller's — the serving layer's
//! pending-payload row, after it has matched the header against the
//! station's session. [`decode_feedback`] and [`decode_feedback_into`] are
//! the two composed into a [`QuantizedFeedback`].

use crate::quantization::QuantizedFeedback;
use crate::{Refusal, SplitBeamError};
use dot11_bfi::bits::BitWriter;
use mimo_math::kernel;
use mimo_math::Backend;

/// Version octet opening every frame.
pub const WIRE_VERSION: u8 = 0xB5;

/// Size of the fixed v2 frame header in bits: version (8) + `bits_per_value`
/// (8) + sequence number (16) + code count (16) + `min` (32) + `max` (32).
pub const WIRE_HEADER_BITS: usize = 8 + 8 + 16 + 16 + 32 + 32;

/// Size of the fixed v2 frame header in bytes.
pub const WIRE_HEADER_BYTES: usize = WIRE_HEADER_BITS / 8;

/// Size of the CRC-32 frame trailer in bits.
pub const WIRE_TRAILER_BITS: usize = 32;

/// Size of the CRC-32 frame trailer in bytes.
pub const WIRE_TRAILER_BYTES: usize = WIRE_TRAILER_BITS / 8;

const CRC32_POLY: u32 = 0xEDB8_8320;

/// The slicing-by-8 tables: `tables[0]` is the classic byte-at-a-time table,
/// and `tables[k][b]` is the CRC state after byte `b` followed by `k` zero
/// bytes, so eight table loads advance the checksum by eight message bytes.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                CRC32_POLY ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

/// Advances the (pre-inverted) CRC state `c` over `data` one byte at a time:
/// the tail of the slicing loop, and the reference the tests compare every
/// path against.
fn crc32_bytewise(mut c: u32, data: &[u8]) -> u32 {
    for &b in data {
        c = CRC32_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// Advances the CRC state `c` over `data` by slicing-by-8: eight bytes per
/// step, the last `len % 8` bytewise.
fn crc32_sliced(mut c: u32, data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = c ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    crc32_bytewise(c, chunks.remainder())
}

/// The shortest input the carry-less fold takes: one step of its four
/// 16-byte lanes.
const FOLD_MIN_BYTES: usize = 64;

/// CRC-32 (IEEE 802.3) over `data` — the same checksum that seals every v2
/// frame. Exposed so tests and fault tooling can re-seal deliberately mutated
/// frames.
///
/// Which path runs depends on the length and on the kernel backend in force
/// ([`kernel::selected_backend`]); every path computes the same checksum:
/// - **From [`Backend::Avx2`] up, 64 bytes or more** (the 3x3 / 80 MHz frame
///   seals 287): the whole 16-byte blocks fold with `pclmulqdq` — four
///   128-bit lanes 64 bytes a step, folded into one lane that takes the
///   remaining blocks 16 bytes a step — and a Barrett reduction leaves the
///   32-bit state (the folding of Gopal et al., Intel, 2009). The ragged last
///   `len % 16` bytes run slicing-by-8.
/// - **Under 64 bytes** (the 2x2 / 20 MHz frame seals 42), **or under
///   `SPLITBEAM_KERNEL=scalar`**: slicing-by-8 — eight bytes a table step, the
///   last `len % 8` bytewise.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_on(kernel::selected_backend(), data)
}

/// [`crc32`] on the arm `level` selects (the tests walk every level).
fn crc32_on(level: Backend, data: &[u8]) -> u32 {
    let (mut c, mut rest) = (u32::MAX, data);
    #[cfg(target_arch = "x86_64")]
    if data.len() >= FOLD_MIN_BYTES && level.min(Backend::host()) >= Backend::Avx2 {
        let whole = data.len() / 16 * 16;
        // SAFETY: the host runs `pclmulqdq` (`Backend::host` probes it at
        // `Avx2`), and `whole` is a multiple of 16 of at least 64 bytes.
        c = unsafe { clmul::fold(c, &data[..whole]) };
        rest = &data[whole..];
    }
    !crc32_sliced(c, rest)
}

/// The carry-less-multiply fold of the reflected CRC-32.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use core::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi128_si32, _mm_cvtsi32_si128,
        _mm_loadu_si128, _mm_set_epi64x, _mm_setr_epi32, _mm_srli_si128, _mm_xor_si128,
    };

    /// The bit-reflected constants of the IEEE polynomial `P`, as `(low,
    /// high)` qwords: `x^(4*128+32)` and `x^(4*128-32)` mod `P` move a lane
    /// 64 bytes on, `x^(128+32)` and `x^(128-32)` mod `P` 16 bytes,
    /// `x^64` mod `P` folds 64 bits to 32, and `P` with `x^64 / P` is the
    /// Barrett pair.
    const FOLD_64: (i64, i64) = (0x1_5444_2bd4, 0x1_c6e4_1596);
    const FOLD_16: (i64, i64) = (0x1_7519_97d0, 0x0_ccaa_009e);
    const FOLD_32: i64 = 0x1_63cd_6124;
    const BARRETT: (i64, i64) = (0x1_db71_0641, 0x1_f701_1641);

    /// `x` carried `k`'s distance on: its low qword times `k`'s low, its
    /// high times `k`'s high, summed.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    unsafe fn carry(x: __m128i, k: __m128i) -> __m128i {
        _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(x, k),
            _mm_clmulepi64_si128::<0x11>(x, k),
        )
    }

    /// Advances the CRC state `crc` over `data`.
    ///
    /// # Safety
    /// Requires `pclmulqdq`; `data.len()` must be a multiple of 16 and at
    /// least 64.
    #[target_feature(enable = "pclmulqdq")]
    pub(super) unsafe fn fold(crc: u32, data: &[u8]) -> u32 {
        let pair = |(low, high): (i64, i64)| _mm_set_epi64x(high, low);
        // SAFETY: every block read is 16 bytes at a multiple of 16 below
        // `data.len()`, which the caller made a multiple of 16.
        let block = |i: usize| unsafe { _mm_loadu_si128(data.as_ptr().add(i).cast()) };
        let mut lanes = [block(0), block(16), block(32), block(48)];
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(crc as i32));
        let mut at = 64;
        // SAFETY: `carry` needs `pclmulqdq`, which the caller vouches for.
        unsafe {
            let k = pair(FOLD_64);
            while at + 64 <= data.len() {
                for (i, lane) in lanes.iter_mut().enumerate() {
                    *lane = _mm_xor_si128(carry(*lane, k), block(at + 16 * i));
                }
                at += 64;
            }
            let k = pair(FOLD_16);
            let mut x = lanes[0];
            for &lane in &lanes[1..] {
                x = _mm_xor_si128(carry(x, k), lane);
            }
            while at < data.len() {
                x = _mm_xor_si128(carry(x, k), block(at));
                at += 16;
            }
            // 128 bits to 64, to 32, then the Barrett reduction.
            let low32 = _mm_setr_epi32(-1, 0, -1, 0);
            x = _mm_xor_si128(_mm_srli_si128::<8>(x), _mm_clmulepi64_si128::<0x10>(x, k));
            let k = _mm_set_epi64x(0, FOLD_32);
            x = _mm_xor_si128(
                _mm_srli_si128::<4>(x),
                _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), k),
            );
            let k = pair(BARRETT);
            let q = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), k);
            let r = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(q, low32), k);
            _mm_cvtsi128_si32(_mm_srli_si128::<4>(_mm_xor_si128(x, r))) as u32
        }
    }
}

/// Encodes a quantized payload into its v2 wire representation with an
/// unsequenced (`seq == 0`) header. Equivalent to
/// [`encode_feedback_with_seq`]`(payload, 0)`.
///
/// # Errors
/// Returns [`SplitBeamError::DimensionMismatch`] when `bits_per_value` lies
/// outside `1..=16`, when the payload carries more codes than the 16-bit count
/// field can describe, or when a code does not fit the declared bit width (all
/// indicate a corrupted payload, not a capacity limit of the format per se).
pub fn encode_feedback(payload: &QuantizedFeedback) -> Result<Vec<u8>, SplitBeamError> {
    encode_feedback_with_seq(payload, 0)
}

/// Encodes a quantized payload into a v2 frame carrying the given sequence
/// number (the retransmission layer stamps the attempt index here; `0` means
/// unsequenced).
///
/// # Errors
/// Same contract as [`encode_feedback`].
pub fn encode_feedback_with_seq(
    payload: &QuantizedFeedback,
    seq: u16,
) -> Result<Vec<u8>, SplitBeamError> {
    let bits = payload.bits_per_value;
    if !(1..=16).contains(&bits) {
        return Err(Refusal::BitWidth(bits).into());
    }
    let (got, want) = (payload.codes.len(), usize::from(u16::MAX));
    if got > want {
        return Err(Refusal::Shape { got, want }.into());
    }
    let max_code = ((1u32 << bits) - 1) as u16;
    let mut writer = BitWriter::with_capacity_bits(
        WIRE_HEADER_BITS + got * usize::from(bits) + WIRE_TRAILER_BITS,
    );
    writer.push(u32::from(WIRE_VERSION), 8);
    writer.push(u32::from(bits), 8);
    writer.push(u32::from(seq), 16);
    writer.push(got as u32, 16);
    writer.push(payload.min.to_bits(), 32);
    writer.push(payload.max.to_bits(), 32);
    for &code in &payload.codes {
        if code > max_code {
            return Err(Refusal::Code { code, bits }.into());
        }
        writer.push(u32::from(code), u32::from(bits));
    }
    let mut frame = writer.finish();
    let crc = crc32(&frame);
    frame.extend_from_slice(&crc.to_be_bytes());
    Ok(frame)
}

/// The header of a frame [`check_frame`] accepted: every field read at its
/// fixed offset, checked against the frame it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameHeader {
    /// Bits a code, in `1..=16`.
    pub bits_per_value: u8,
    /// The sequence number: `0` marks an unsequenced frame.
    pub seq: u16,
    /// Codes the frame carries; its length is exactly
    /// [`encoded_len`]`(count, bits_per_value)`.
    pub count: usize,
    /// Minimum of the quantization range, finite.
    pub min: f32,
    /// Maximum of the quantization range, finite.
    pub max: f32,
}

/// Checks a whole frame and reads its header, refusing in this order: an
/// empty frame or a v2 frame below the header + trailer floor is
/// truncated, any other opening octet is an unknown version, then the
/// CRC-32 — checked before any field is trusted, so a corrupted frame is
/// [`SplitBeamError::CorruptFrame`] and never a misleading field-level
/// error — then the bit width, the range floats and the length the code
/// count implies. No code is read: [`unpack_codes`] does that, into
/// whatever buffer the caller has made ready.
///
/// # Errors
/// [`SplitBeamError::CorruptFrame`] on a CRC mismatch, and
/// [`SplitBeamError::DimensionMismatch`] for a truncated frame, an unknown
/// version octet, a width outside `1..=16`, non-finite range floats or a
/// length other than the declared code count's.
pub fn check_frame(frame: &[u8]) -> Result<FrameHeader, SplitBeamError> {
    let floor = WIRE_HEADER_BYTES + WIRE_TRAILER_BYTES;
    let len = frame.len();
    match frame.first() {
        Some(&WIRE_VERSION) if len >= floor => {}
        Some(&WIRE_VERSION) | None => return Err(Refusal::Truncated { len, floor }.into()),
        Some(&octet) => return Err(Refusal::Version(octet).into()),
    }
    let (body, trailer) = frame.split_at(len - WIRE_TRAILER_BYTES);
    let stored = u32::from_be_bytes(trailer.try_into().expect("a four-byte trailer"));
    let computed = crc32(body);
    if stored != computed {
        return Err(SplitBeamError::CorruptFrame(Refusal::Crc {
            stored,
            computed,
        }));
    }
    let field = |at: usize| u32::from_be_bytes(frame[at..at + 4].try_into().expect("four bytes"));
    let bits = frame[1];
    let header = FrameHeader {
        bits_per_value: bits,
        seq: u16::from_be_bytes([frame[2], frame[3]]),
        count: usize::from(u16::from_be_bytes([frame[4], frame[5]])),
        min: f32::from_bits(field(6)),
        max: f32::from_bits(field(10)),
    };
    let (count, min, max) = (header.count, header.min, header.max);
    if !(1..=16).contains(&bits) {
        Err(Refusal::BitWidth(bits).into())
    } else if !min.is_finite() || !max.is_finite() {
        Err(Refusal::Range { min, max }.into())
    } else if len != encoded_len(count, bits) {
        Err(Refusal::Length { len, count, bits }.into())
    } else {
        Ok(header)
    }
}

/// Unpacks the codes of a frame [`check_frame`] accepted into `codes`,
/// which holds exactly `header.count` of them — the caller's own buffer, so
/// nothing is staged or copied on the way. The bytes split a vector at a
/// time where the host has one ([`dot11_bfi::bits::unpack_u16s`]).
///
/// # Panics
/// When `codes.len()` is not `header.count`, or `frame` is shorter than the
/// frame `header` was read from.
pub fn unpack_codes(frame: &[u8], header: &FrameHeader, codes: &mut [u16]) {
    assert_eq!(codes.len(), header.count, "unpack buffer length mismatch");
    let bits = u32::from(header.bits_per_value);
    dot11_bfi::bits::unpack_u16s(frame, WIRE_HEADER_BITS, bits, codes)
        .expect("check_frame validated the length against the code count");
}

/// Decodes a wire frame back into the quantized payload: [`check_frame`],
/// then [`unpack_codes`].
///
/// Decoding is exact: the codes and the two range floats are recovered
/// bit-for-bit, so dequantizing the decoded payload yields byte-identical
/// results to dequantizing the original.
///
/// # Errors
/// Returns [`SplitBeamError::CorruptFrame`] when a v2 frame's CRC-32 trailer
/// does not match its contents, and [`SplitBeamError::DimensionMismatch`] when
/// the frame is truncated, opens with an unknown version octet, declares an
/// invalid bit width, carries non-finite range floats, or has trailing bytes
/// beyond the declared code count.
pub fn decode_feedback(frame: &[u8]) -> Result<QuantizedFeedback, SplitBeamError> {
    let mut payload = QuantizedFeedback {
        bits_per_value: 1,
        min: 0.0,
        max: 0.0,
        codes: Vec::new(),
    };
    decode_feedback_into(frame, &mut payload)?;
    Ok(payload)
}

/// Decodes a wire frame into a caller-owned payload, reusing its `codes`
/// buffer (no allocation after the buffer reaches its high-water
/// capacity): [`check_frame`], then [`unpack_codes`] into the buffer sized
/// to the header's count.
///
/// On error the payload is always left **cleared**: `bits_per_value == 1`,
/// `min == max == 0.0`, and `codes` empty (its capacity is retained for
/// reuse). A failed decode therefore can never leave stale or partially
/// decoded feedback behind.
///
/// # Errors
/// Same contract as [`decode_feedback`].
pub fn decode_feedback_into(
    frame: &[u8],
    payload: &mut QuantizedFeedback,
) -> Result<(), SplitBeamError> {
    match check_frame(frame) {
        Ok(header) => {
            (payload.bits_per_value, payload.min, payload.max) =
                (header.bits_per_value, header.min, header.max);
            // Every code is overwritten, so a buffer already holding
            // `count` codes is not zero-filled first.
            payload.codes.truncate(header.count);
            payload.codes.resize(header.count, 0);
            unpack_codes(frame, &header, &mut payload.codes);
            Ok(())
        }
        Err(e) => {
            payload.codes.clear();
            (payload.bits_per_value, payload.min, payload.max) = (1, 0.0, 0.0);
            Err(e)
        }
    }
}

/// Rewrites the sequence number of a v2 frame in place and re-seals its
/// CRC-32 trailer. Returns `false` (leaving the frame untouched) for
/// anything that is not a whole v2 frame.
pub fn set_frame_seq(frame: &mut [u8], seq: u16) -> bool {
    if frame.len() < WIRE_HEADER_BYTES + WIRE_TRAILER_BYTES || frame[0] != WIRE_VERSION {
        return false;
    }
    frame[2..4].copy_from_slice(&seq.to_be_bytes());
    refresh_crc(frame);
    true
}

/// Recomputes and stores the CRC-32 trailer of a v2 frame after an in-place
/// mutation. Returns `false` (no-op) when the frame is not a v2 frame. Tests
/// and fault tooling use this to craft *validly sealed* hostile frames.
pub fn refresh_crc(frame: &mut [u8]) -> bool {
    if frame.len() < WIRE_HEADER_BYTES + WIRE_TRAILER_BYTES || frame[0] != WIRE_VERSION {
        return false;
    }
    let crc = crc32(&frame[..frame.len() - WIRE_TRAILER_BYTES]);
    let at = frame.len() - WIRE_TRAILER_BYTES;
    frame[at..].copy_from_slice(&crc.to_be_bytes());
    true
}

/// Exact v2 wire frame length in bytes for `count` codes at `bits_per_value`
/// bits, including the CRC-32 trailer.
pub fn encoded_len(count: usize, bits_per_value: u8) -> usize {
    WIRE_HEADER_BYTES + (count * bits_per_value as usize).div_ceil(8) + WIRE_TRAILER_BYTES
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantization::{dequantize_bottleneck, quantize_bottleneck};
    use proptest::prelude::*;

    fn sample_values(n: usize) -> Vec<f32> {
        (0..n).map(|i| ((i as f32) * 0.217).sin() * 2.5).collect()
    }

    #[test]
    fn crc32_known_vector() {
        // IEEE 802.3 check value for the standard "123456789" test string.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// Every path equals the bytewise loop: every length 0..=1100 — both
    /// sides of the fold's 64-byte floor, every ragged tail of the 16-byte
    /// blocks and of the slicing steps, the 287 bytes a 3x3/80 MHz frame
    /// seals — at every start offset inside a cache line, under every level
    /// this host runs (`Scalar` slices, `Avx2` and up fold with
    /// `clmul::fold` and its `clmul::carry`).
    #[test]
    fn every_crc32_path_matches_the_bytewise_reference() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let data: Vec<u8> = (0..1100 + 63)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 56) as u8
            })
            .collect();
        let levels = Backend::arms(|level| level);
        eprintln!("crc32 parity ran on {levels:?}");
        for len in 0..=1100 {
            for start in 0..64 {
                let slice = &data[start..start + len];
                let want = !crc32_bytewise(u32::MAX, slice);
                for &level in &levels {
                    assert_eq!(
                        crc32_on(level, slice),
                        want,
                        "{level:?} len={len} start={start}"
                    );
                }
            }
        }
        assert_eq!(crc32(&data), !crc32_bytewise(u32::MAX, &data));
    }

    #[test]
    fn roundtrip_is_bit_exact_for_all_widths() {
        let values = sample_values(77);
        for bits in 1..=16u8 {
            let payload = quantize_bottleneck(&values, bits);
            let frame = encode_feedback(&payload).unwrap();
            assert_eq!(frame.len(), encoded_len(payload.codes.len(), bits));
            let decoded = decode_feedback(&frame).unwrap();
            assert_eq!(decoded, payload, "bits={bits}");
            assert_eq!(
                dequantize_bottleneck(&decoded),
                dequantize_bottleneck(&payload)
            );
        }
    }

    /// The two halves of the decoder composed by hand — the header checked,
    /// the codes unpacked into a buffer of the caller's — equal the whole
    /// decode at every width, on the round trip's payload.
    #[test]
    fn check_then_unpack_is_the_decode() {
        let values = sample_values(77);
        for bits in 1..=16u8 {
            let frame = encode_feedback_with_seq(&quantize_bottleneck(&values, bits), 9).unwrap();
            let decoded = decode_feedback(&frame).unwrap();
            let header = check_frame(&frame).unwrap();
            let (min, max, count) = (decoded.min, decoded.max, decoded.codes.len());
            let want = FrameHeader {
                bits_per_value: bits,
                seq: 9,
                count,
                min,
                max,
            };
            assert_eq!(header, want, "bits={bits}");
            let mut codes = vec![0xBEEF; header.count];
            unpack_codes(&frame, &header, &mut codes);
            assert_eq!(codes, decoded.codes, "bits={bits}");
        }
    }

    #[test]
    fn four_bit_codes_occupy_four_bits() {
        let payload = quantize_bottleneck(&sample_values(100), 4);
        let frame = encode_feedback(&payload).unwrap();
        assert_eq!(frame.len(), WIRE_HEADER_BYTES + 50 + WIRE_TRAILER_BYTES);
        // Header and trailer included, under 40 % of one `u16` a code.
        assert!(frame.len() * 10 < 2 * 100 * 4);
    }

    #[test]
    fn empty_payload_encodes_to_header_and_trailer_only() {
        let payload = quantize_bottleneck(&[], 8);
        let frame = encode_feedback(&payload).unwrap();
        assert_eq!(frame.len(), WIRE_HEADER_BYTES + WIRE_TRAILER_BYTES);
        assert_eq!(decode_feedback(&frame).unwrap(), payload);
    }

    #[test]
    fn truncated_frames_rejected() {
        let payload = quantize_bottleneck(&sample_values(10), 6);
        let frame = encode_feedback(&payload).unwrap();
        for cut in [0, 3, WIRE_HEADER_BYTES, frame.len() - 1] {
            assert!(
                decode_feedback(&frame[..cut]).is_err(),
                "truncation to {cut} bytes must be rejected"
            );
        }
        let mut padded = frame.clone();
        padded.push(0);
        assert!(decode_feedback(&padded).is_err(), "trailing bytes rejected");
    }

    /// On a frame the slicing loop seals alone and on the 291-byte frame of
    /// the 3x3/80 MHz model (545 codes at 4 bits), which the fold seals.
    #[test]
    fn every_single_bit_flip_is_detected() {
        for (codes, bits, len) in [(24, 7, 39), (545, 4, 291)] {
            let payload = quantize_bottleneck(&sample_values(codes), bits);
            let frame = encode_feedback(&payload).unwrap();
            assert_eq!(frame.len(), len);
            for byte in 0..frame.len() {
                for bit in 0..8 {
                    let mut hostile = frame.clone();
                    hostile[byte] ^= 1 << bit;
                    let err = decode_feedback(&hostile).expect_err("bit flip must be rejected");
                    // A flipped version octet is an unknown version; anything
                    // after it leaves a v2 frame whose CRC no longer matches.
                    assert_eq!(
                        matches!(err, SplitBeamError::CorruptFrame(_)),
                        byte > 0,
                        "{len}-byte frame: flip at byte {byte} bit {bit}: {err}"
                    );
                }
            }
        }
    }

    #[test]
    fn crafted_invalid_header_fields_rejected() {
        // A hostile sender can seal arbitrary header fields behind a valid
        // CRC; field validation must still catch them, each as its own
        // field (the frame is intact — just inconsistent).
        let payload = quantize_bottleneck(&sample_values(4), 8);
        let sealed = |edit: &dyn Fn(&mut Vec<u8>)| {
            let mut frame = encode_feedback(&payload).unwrap();
            edit(&mut frame);
            refresh_crc(&mut frame);
            decode_feedback(&frame)
        };
        let refused = |why| Err(SplitBeamError::DimensionMismatch(why));
        assert_eq!(sealed(&|f| f[1] = 0), refused(Refusal::BitWidth(0)));
        assert_eq!(sealed(&|f| f[1] = 17), refused(Refusal::BitWidth(17)));
        let nan = sealed(&|f| f[6..10].copy_from_slice(&f32::NAN.to_bits().to_be_bytes()));
        assert!(
            matches!(
                nan,
                Err(SplitBeamError::DimensionMismatch(Refusal::Range { min, max }))
                    if min.is_nan() && max == payload.max
            ),
            "{nan:?}"
        );
        let (len, bits) = (encoded_len(4, 8), 8);
        let count = 5;
        assert_eq!(
            sealed(&|f| f[4..6].copy_from_slice(&5u16.to_be_bytes())),
            refused(Refusal::Length { len, count, bits })
        );
        // Any version octet other than 0xB5 — a width the CRC-less
        // pre-versioned layout opened with included — is unknown, however
        // well-formed the rest of the frame.
        for version in [0x42, 8] {
            let mut bad_version = encode_feedback(&payload).unwrap();
            bad_version[0] = version;
            assert_eq!(
                decode_feedback(&bad_version),
                Err(SplitBeamError::DimensionMismatch(Refusal::Version(version)))
            );
        }
    }

    /// The sequence number a frame's header carries; `0` for a frame
    /// [`check_frame`] refuses.
    fn frame_seq(frame: &[u8]) -> u16 {
        check_frame(frame).map_or(0, |header| header.seq)
    }

    #[test]
    fn sequence_number_roundtrips_and_reseals() {
        let payload = quantize_bottleneck(&sample_values(16), 5);
        let frame = encode_feedback_with_seq(&payload, 3).unwrap();
        assert_eq!(frame_seq(&frame), 3);
        assert_eq!(decode_feedback(&frame).unwrap(), payload);

        let mut patched = encode_feedback(&payload).unwrap();
        assert_eq!(frame_seq(&patched), 0);
        assert!(set_frame_seq(&mut patched, 7));
        assert_eq!(frame_seq(&patched), 7);
        assert_eq!(patched, encode_feedback_with_seq(&payload, 7).unwrap());
        assert_eq!(decode_feedback(&patched).unwrap(), payload);

        // Not a v2 frame: left alone, and it carries no sequence number.
        let mut foreign = patched.clone();
        foreign[0] = 8;
        let untouched = foreign.clone();
        assert!(!set_frame_seq(&mut foreign, 9) && !refresh_crc(&mut foreign));
        assert_eq!(foreign, untouched);
        assert_eq!(frame_seq(&foreign), 0);
    }

    #[test]
    fn encode_rejects_out_of_range_bit_width() {
        // Satellite: hand-built payloads with an invalid width must fail with
        // a real error in release builds, not silently mis-pack.
        for bpv in [0u8, 17, 255] {
            let payload = QuantizedFeedback {
                bits_per_value: bpv,
                min: 0.0,
                max: 1.0,
                codes: vec![0, 1],
            };
            assert!(
                matches!(
                    encode_feedback(&payload),
                    Err(SplitBeamError::DimensionMismatch(_))
                ),
                "bpv={bpv}"
            );
        }
    }

    #[test]
    fn failed_decode_clears_payload() {
        // Satellite: every error path must leave the reused payload cleared,
        // never holding stale or partially decoded feedback.
        let good = quantize_bottleneck(&sample_values(12), 9);
        let cleared = QuantizedFeedback {
            bits_per_value: 1,
            min: 0.0,
            max: 0.0,
            codes: Vec::new(),
        };
        let frame = encode_feedback(&good).unwrap();
        let mut corrupt = frame.clone();
        *corrupt.last_mut().unwrap() ^= 0xFF;
        let bad_frames: Vec<Vec<u8>> = vec![
            Vec::new(),                                  // empty
            frame[..5].to_vec(),                         // truncated mid-header
            frame[..frame.len() - 1].to_vec(),           // truncated trailer
            corrupt,                                     // CRC mismatch
            vec![0x42; 40],                              // unknown version
            vec![8, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0xAB], // the pre-versioned layout
        ];
        for (i, bad) in bad_frames.iter().enumerate() {
            let mut payload = good.clone();
            let capacity = payload.codes.capacity();
            assert!(decode_feedback_into(bad, &mut payload).is_err(), "case {i}");
            assert_eq!(payload, cleared, "case {i}: payload must be cleared");
            assert_eq!(
                payload.codes.capacity(),
                capacity,
                "case {i}: capacity is retained for reuse"
            );
        }
        // And a successful decode into a previously failed buffer still works.
        let mut payload = cleared.clone();
        decode_feedback_into(&frame, &mut payload).unwrap();
        assert_eq!(payload, good);
    }

    #[test]
    fn decode_into_a_used_buffer_is_the_fresh_decode() {
        // A reused buffer is not zero-filled first: whether it holds more,
        // fewer or as many stale codes, every code is overwritten.
        let frames: Vec<Vec<u8>> = [(40, 4), (12, 9), (40, 4), (40, 4), (77, 2)]
            .iter()
            .map(|&(n, bits)| {
                encode_feedback(&quantize_bottleneck(&sample_values(n), bits)).unwrap()
            })
            .collect();
        let mut payload = decode_feedback(&frames[4]).unwrap();
        payload.codes.iter_mut().for_each(|c| *c = 0xBEEF);
        for (i, frame) in frames.iter().enumerate() {
            decode_feedback_into(frame, &mut payload).unwrap();
            assert_eq!(payload, decode_feedback(frame).unwrap(), "frame {i}");
        }
    }

    #[test]
    fn oversized_code_rejected_at_encode() {
        let mut payload = quantize_bottleneck(&sample_values(4), 4);
        payload.codes[2] = 16; // does not fit in 4 bits
        assert!(encode_feedback(&payload).is_err());
    }

    #[test]
    fn header_constants_consistent() {
        assert_eq!(WIRE_HEADER_BITS, 112);
        assert_eq!(WIRE_HEADER_BYTES, 14);
        assert_eq!(WIRE_TRAILER_BITS, 32);
        assert_eq!(WIRE_TRAILER_BYTES, 4);
        assert_eq!(encoded_len(0, 16), WIRE_HEADER_BYTES + WIRE_TRAILER_BYTES);
    }

    proptest! {
        /// Satellite: quantize → wire-encode → wire-decode → dequantize is
        /// bit-exact with the unencoded path for every width 1..=16.
        #[test]
        fn prop_wire_roundtrip_bit_exact(
            values in proptest::collection::vec(-25.0f32..25.0, 0..96),
            bits in 1u8..17,
            seq in 0u16..=u16::MAX,
        ) {
            let payload = quantize_bottleneck(&values, bits);
            let frame = encode_feedback_with_seq(&payload, seq).unwrap();
            prop_assert_eq!(frame.len(), encoded_len(values.len(), bits));
            prop_assert_eq!(frame_seq(&frame), seq);
            let decoded = decode_feedback(&frame).unwrap();
            prop_assert_eq!(&decoded, &payload);
            let direct = dequantize_bottleneck(&payload);
            let via_wire = dequantize_bottleneck(&decoded);
            prop_assert_eq!(direct.len(), via_wire.len());
            for (a, b) in direct.iter().zip(via_wire.iter()) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "wire path must be bit-exact");
            }
        }
    }
}
