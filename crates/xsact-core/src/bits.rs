//! Word-parallel bitset primitives for the DoD kernel.
//!
//! The differentiability matrix and the per-result selection masks are both
//! sets over the instance's type universe (`m` types), stored as flat `u64`
//! arenas with `⌈m/64⌉` words per row. Every DoD quantity then reduces to
//! AND + popcount over two or three word slices (`xsact_kernel::and2_count`
//! and `and3_count`) — one CPU word processes 64 feature types at a time,
//! and the helpers below are the only place the bit layout is spelled out.

/// Number of `u64` words needed for a bitset over `bits` positions.
#[inline]
pub fn words_for(bits: usize) -> usize {
    bits.div_ceil(64)
}

/// Tests bit `t` of a row.
#[inline]
pub fn test_bit(row: &[u64], t: usize) -> bool {
    (row[t / 64] >> (t % 64)) & 1 != 0
}

/// Sets bit `t` of a row.
#[inline]
pub fn set_bit(row: &mut [u64], t: usize) {
    row[t / 64] |= 1u64 << (t % 64);
}

/// Clears bit `t` of a row.
#[inline]
pub fn clear_bit(row: &mut [u64], t: usize) {
    row[t / 64] &= !(1u64 << (t % 64));
}

/// Calls `f(t)` for every set bit of a row, in ascending bit order.
#[inline]
pub fn for_each_bit(row: &[u64], mut f: impl FnMut(usize)) {
    for (w, &word) in row.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            let t = w * 64 + bits.trailing_zeros() as usize;
            f(t);
            bits &= bits - 1;
        }
    }
}

/// Calls `f(t)` for every set bit of `a ∧ b`, in ascending bit order.
#[inline]
pub fn for_each_and2(a: &[u64], b: &[u64], mut f: impl FnMut(usize)) {
    debug_assert_eq!(a.len(), b.len());
    for (w, (&x, &y)) in a.iter().zip(b).enumerate() {
        let mut bits = x & y;
        while bits != 0 {
            let t = w * 64 + bits.trailing_zeros() as usize;
            f(t);
            bits &= bits - 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_for_rounds_up() {
        assert_eq!(words_for(0), 0);
        assert_eq!(words_for(1), 1);
        assert_eq!(words_for(64), 1);
        assert_eq!(words_for(65), 2);
        assert_eq!(words_for(128), 2);
        assert_eq!(words_for(129), 3);
    }

    #[test]
    fn set_test_clear_round_trip() {
        let mut row = vec![0u64; words_for(130)];
        for t in [0, 1, 63, 64, 65, 127, 128, 129] {
            assert!(!test_bit(&row, t));
            set_bit(&mut row, t);
            assert!(test_bit(&row, t));
        }
        clear_bit(&mut row, 64);
        assert!(!test_bit(&row, 64));
        assert!(test_bit(&row, 63));
        assert!(test_bit(&row, 65));
    }

    #[test]
    fn and_counts_match_scalar() {
        let m = 150;
        let mut a = vec![0u64; words_for(m)];
        let mut b = vec![0u64; words_for(m)];
        let mut c = vec![0u64; words_for(m)];
        for t in 0..m {
            if t % 2 == 0 {
                set_bit(&mut a, t);
            }
            if t % 3 == 0 {
                set_bit(&mut b, t);
            }
            if t % 5 == 0 {
                set_bit(&mut c, t);
            }
        }
        let s2 = (0..m).filter(|t| t % 2 == 0 && t % 3 == 0).count() as u32;
        let s3 = (0..m).filter(|t| t % 2 == 0 && t % 3 == 0 && t % 5 == 0).count() as u32;
        assert_eq!(xsact_kernel::and2_count(&a, &b), s2);
        assert_eq!(xsact_kernel::and3_count(&a, &b, &c), s3);
    }

    #[test]
    fn for_each_visits_ascending() {
        let m = 200;
        let mut a = vec![0u64; words_for(m)];
        let mut b = vec![0u64; words_for(m)];
        for t in 0..m {
            if t % 7 == 0 {
                set_bit(&mut a, t);
            }
            if t % 7 == 0 || t % 11 == 0 {
                set_bit(&mut b, t);
            }
        }
        let mut seen = Vec::new();
        for_each_and2(&a, &b, |t| seen.push(t));
        let expected: Vec<usize> = (0..m).filter(|t| t % 7 == 0).collect();
        assert_eq!(seen, expected);
    }
}
