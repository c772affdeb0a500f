//! Whitespace padding for lane alignment (paper §4.3.2).
//!
//! When a warp of lanes generates HTML in lockstep, data-dependent field
//! widths (account balances, names) desynchronize the lanes' write
//! pointers and destroy coalescing. Rhythm exploits the HTML grammar —
//! any number of linear whitespace characters may follow a newline — to
//! re-align: after each dynamic fragment, every lane pads its line with
//! spaces up to the warp-wide maximum width (computed with a butterfly
//! max-reduction on the device).
//!
//! This module is the host-side mirror of that mechanism: given the
//! per-lane dynamic fragment widths, it computes the padding each lane
//! must emit, and provides the check the validator uses to compare padded
//! content with plain content.

/// Padding a lane must emit so its fragment reaches the cohort maximum.
///
/// # Panics
///
/// Panics if `len > max` (the "maximum" was not actually the maximum).
pub fn align_pad(len: usize, max: usize) -> usize {
    assert!(
        len <= max,
        "fragment ({len}) longer than cohort max ({max})"
    );
    max - len
}

/// Compute per-lane padding for a set of fragment widths, i.e. the result
/// of a warp max-reduction followed by [`align_pad`] on each lane.
///
/// Returns `(max_width, paddings)`.
///
/// # Example
///
/// ```
/// use rhythm_http::padding::cohort_padding;
///
/// let (max, pads) = cohort_padding(&[3, 7, 5]);
/// assert_eq!(max, 7);
/// assert_eq!(pads, vec![4, 0, 2]);
/// ```
pub fn cohort_padding(widths: &[usize]) -> (usize, Vec<usize>) {
    let max = widths.iter().copied().max().unwrap_or(0);
    let pads = widths.iter().map(|&w| max - w).collect();
    (max, pads)
}

/// Check that `content` ignoring trailing spaces on each line equals
/// `expected` ignoring trailing spaces on each line. This is how padded
/// (cohort) output is validated against unpadded (scalar) output: HTML
/// semantics are unchanged by the padding.
pub fn eq_modulo_padding(a: &[u8], b: &[u8]) -> bool {
    let norm = |s: &[u8]| -> Vec<Vec<u8>> {
        s.split(|&c| c == b'\n')
            .map(|line| {
                let mut l = line.to_vec();
                while l.last() == Some(&b' ') {
                    l.pop();
                }
                l
            })
            .collect()
    };
    norm(a) == norm(b)
}

/// Round a byte size up to the next power of two — Rhythm's response
/// buffers use power-of-two sizes so the transpose divides evenly across
/// hardware (paper §5.1). Sizes of 0 round to 1.
pub fn next_pow2(n: usize) -> usize {
    n.max(1).next_power_of_two()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn align_pad_basic() {
        assert_eq!(align_pad(3, 10), 7);
        assert_eq!(align_pad(10, 10), 0);
    }

    #[test]
    #[should_panic(expected = "longer than cohort max")]
    fn align_pad_rejects_bad_max() {
        align_pad(11, 10);
    }

    #[test]
    fn cohort_padding_empty() {
        let (max, pads) = cohort_padding(&[]);
        assert_eq!(max, 0);
        assert!(pads.is_empty());
    }

    #[test]
    fn cohort_padding_uniform_needs_none() {
        let (max, pads) = cohort_padding(&[4, 4, 4]);
        assert_eq!(max, 4);
        assert!(pads.iter().all(|&p| p == 0));
    }

    #[test]
    fn padded_output_equals_unpadded_modulo_padding() {
        let padded = b"balance: 7      \n<hr>\n";
        let plain = b"balance: 7\n<hr>\n";
        assert!(eq_modulo_padding(padded, plain));
        assert!(!eq_modulo_padding(padded, b"balance: 8\n<hr>\n"));
    }

    #[test]
    fn pow2_rounding() {
        assert_eq!(next_pow2(0), 1);
        assert_eq!(next_pow2(1), 1);
        assert_eq!(next_pow2(4096), 4096);
        assert_eq!(next_pow2(4097), 8192);
        assert_eq!(next_pow2(17 * 1024), 32 * 1024);
    }
}
