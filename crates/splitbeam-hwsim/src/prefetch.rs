//! Software prefetch: what a walk over memory in an order the hardware
//! prefetcher cannot guess issues a few steps ahead of itself (Mowry, Lam &
//! Gupta, ASPLOS 1992).

/// Bytes in a cache line.
const LINE: usize = 64;

/// Offsets into a `len`-byte value that starts at address `addr`, one in
/// each cache line the value touches: its first byte, then the first byte of
/// every later line through the one holding its last byte. None for an
/// empty value. Stepping 64 bytes from the first byte instead misses the
/// last line of any value that crosses a line boundary at its tail.
fn line_offsets(addr: usize, len: usize) -> impl Iterator<Item = usize> {
    let to_next_line = LINE - addr % LINE;
    let first = (len > 0).then_some(0);
    first.into_iter().chain((to_next_line..len).step_by(LINE))
}

/// Hints the cache hierarchy to start loading `value` — every line it
/// touches, from the one holding its first byte to the one holding its last
/// — without waiting for it. A hint only: it never faults, reads nothing the
/// program can observe, and is a no-op off x86_64.
#[inline]
pub fn prefetch_read<T: ?Sized>(value: &T) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let first = (value as *const T).cast::<i8>();
        for offset in line_offsets(first as usize, std::mem::size_of_val(value)) {
            // SAFETY: `offset` is inside the live `value` the reference
            // vouches for, so the pointer stays in bounds of its allocation;
            // `_mm_prefetch` is a cache hint that never dereferences, faults
            // or alters program state, and SSE is x86_64's baseline.
            unsafe { _mm_prefetch(first.add(offset), _MM_HINT_T0) };
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = value;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The lines `line_offsets` requests for a `len`-byte value `at` bytes
    /// into a cache line, as line numbers relative to the first.
    fn lines(at: usize, len: usize) -> Vec<usize> {
        let addr = 10 * LINE + at;
        line_offsets(addr, len)
            .inspect(|&offset| assert!(offset < len, "offset {offset} past a {len}-byte value"))
            .map(|offset| (addr + offset) / LINE - 10)
            .collect()
    }

    /// Every line from the first byte's to the last byte's, once each.
    #[test]
    fn a_value_requests_every_line_it_spans() {
        // A fleet frame that crosses a line, a payload buffer across three.
        assert_eq!(lines(40, 46), [0, 1]);
        assert_eq!(lines(20, 112), [0, 1, 2]);
        assert_eq!(lines(0, 64), [0]);
        assert_eq!(lines(17, 0), Vec::<usize>::new());
        for at in 0..LINE {
            for len in 1..4 * LINE {
                let last = (at + len - 1) / LINE;
                assert_eq!(
                    lines(at, len),
                    (0..=last).collect::<Vec<_>>(),
                    "{len} at {at}"
                );
            }
        }
    }

    /// The wrapper takes what a caller has a reference to — sized, unsized,
    /// zero-sized, longer than a line — and leaves it as it was.
    #[test]
    fn prefetch_read_accepts_any_referent_and_changes_none() {
        let values = vec![7u64; 100];
        prefetch_read(&values[3]);
        prefetch_read(values.as_slice());
        prefetch_read(&values[..0]);
        prefetch_read(&());
        prefetch_read("a str");
        assert!(values.iter().all(|&v| v == 7));
    }
}
