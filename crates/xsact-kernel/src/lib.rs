//! The CPU kernels under the XSACT hot loops: three plain, safe loops.
//!
//! * [`and2_count`] — `popcount(a ∧ b)` over `u64` rows (the DoD pair and
//!   upper-bound kernels and the table renderer in `xsact-core`);
//! * [`and3_count`] — `popcount(a ∧ b ∧ c)` (the `sel_i ∧ sel_j ∧ diff_ij`
//!   DoD kernel);
//! * [`count_in_range_u32`] — how many values of a slice fall in
//!   `[lo, hi)` (the scorer's subtree range-count over decoded posting
//!   frames in `xsact-index`).
//!
//! The inputs are tiny: a DoD row is `⌈m/64⌉` words for `m` feature types
//! (one word for the 20 types of the 400-movie dataset), and a range count
//! reads at most one 128-entry posting frame. Hand-written vector arms
//! measured no end-to-end difference on these sizes, so there are none;
//! LLVM vectorises the range count at the baseline target by itself.

#![forbid(unsafe_code)]

/// Which implementation the kernels run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelLevel {
    /// Plain `u64`/`u32` loops, on every target.
    Scalar,
}

impl KernelLevel {
    /// Human-readable name (benches print it so numbers self-explain).
    pub fn name(self) -> &'static str {
        match self {
            KernelLevel::Scalar => "scalar",
        }
    }
}

/// The implementation this process runs on.
pub fn active_level() -> KernelLevel {
    KernelLevel::Scalar
}

/// `popcount(a ∧ b)`. Slices must have equal length.
#[inline]
pub fn and2_count(a: &[u64], b: &[u64]) -> u32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(&x, &y)| (x & y).count_ones()).sum()
}

/// `popcount(a ∧ b ∧ c)`. Slices must have equal length.
#[inline]
pub fn and3_count(a: &[u64], b: &[u64], c: &[u64]) -> u32 {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), c.len());
    a.iter().zip(b).zip(c).map(|((&x, &y), &z)| (x & y & z).count_ones()).sum()
}

/// Number of values `v` in `vals` with `lo <= v < hi` (zero when
/// `lo >= hi`).
#[inline]
pub fn count_in_range_u32(vals: &[u32], lo: u32, hi: u32) -> u32 {
    // A `u32` sum keeps four values per 128-bit lane when LLVM vectorises
    // the loop; `filter().count()` would widen every lane to `usize`.
    vals.iter().map(|&v| (lo <= v && v < hi) as u32).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cheap deterministic xorshift so the tests need no external crates.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    const LENGTHS: [usize; 9] = [0, 1, 7, 8, 15, 16, 127, 128, 129];

    /// The popcount of the AND of `rows`, one bit position at a time.
    fn bitwise_and_count(rows: &[&[u64]]) -> u32 {
        let len = rows[0].len();
        let mut count = 0;
        for w in 0..len {
            for bit in 0..64 {
                if rows.iter().all(|row| (row[w] >> bit) & 1 == 1) {
                    count += 1;
                }
            }
        }
        count
    }

    #[test]
    fn and_counts_match_a_bitwise_count_across_lengths() {
        let mut state = 0x9e3779b97f4a7c15u64;
        for len in LENGTHS {
            let mut row = || (0..len).map(|_| xorshift(&mut state)).collect::<Vec<u64>>();
            let (a, b, c) = (row(), row(), row());
            assert_eq!(and2_count(&a, &b), bitwise_and_count(&[&a, &b]), "len {len}");
            assert_eq!(and3_count(&a, &b, &c), bitwise_and_count(&[&a, &b, &c]), "len {len}");
        }
    }

    #[test]
    fn and_counts_handle_all_zero_and_all_one() {
        for len in LENGTHS {
            let zeros = vec![0u64; len];
            let ones = vec![u64::MAX; len];
            let all = 64 * len as u32;
            assert_eq!(and2_count(&zeros, &zeros), 0, "len {len}");
            assert_eq!(and2_count(&zeros, &ones), 0, "len {len}");
            assert_eq!(and2_count(&ones, &ones), all, "len {len}");
            assert_eq!(and3_count(&ones, &ones, &zeros), 0, "len {len}");
            assert_eq!(and3_count(&ones, &ones, &ones), all, "len {len}");
        }
    }

    #[test]
    fn range_count_matches_a_per_value_check_across_lengths_and_bounds() {
        let mut state = 0x51ed270b227c6109u64;
        for len in LENGTHS {
            // Random values plus both ends of the `u32` range.
            let mut vals: Vec<u32> = (0..len).map(|_| xorshift(&mut state) as u32).collect();
            if let [first, .., last] = vals.as_mut_slice() {
                (*first, *last) = (0, u32::MAX);
            }
            for (lo, hi) in [
                (0u32, u32::MAX),
                (u32::MAX - 1, u32::MAX),
                (1 << 30, 3 << 30),
                (0, 0),
                (5, 5),
                (7, 6),
                (u32::MAX, 0),
            ] {
                let mut expected = 0;
                for &v in &vals {
                    if lo <= v && v < hi {
                        expected += 1;
                    }
                }
                assert_eq!(
                    count_in_range_u32(&vals, lo, hi),
                    expected,
                    "len {len} range [{lo}, {hi})"
                );
            }
        }
    }

    #[test]
    fn range_count_boundary_semantics() {
        let vals: Vec<u32> = (0..100).collect();
        assert_eq!(count_in_range_u32(&vals, 10, 20), 10, "lo inclusive, hi exclusive");
        assert_eq!(count_in_range_u32(&vals, 0, 100), 100);
        assert_eq!(count_in_range_u32(&vals, 99, 100), 1);
        assert_eq!(count_in_range_u32(&vals, 100, 200), 0);
        let top = [u32::MAX - 1, u32::MAX, u32::MAX];
        assert_eq!(count_in_range_u32(&top, u32::MAX - 1, u32::MAX), 1);
        assert_eq!(count_in_range_u32(&top, 0, u32::MAX), 1, "u32::MAX is never below hi");
    }
}
