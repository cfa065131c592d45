//! Runtime-dispatched CPU kernels for the XSACT hot loops.
//!
//! Three primitives sit on the floor of every profile of the system:
//!
//! * [`and2_count`] — `popcount(a ∧ b)` over `u64` rows (the DoD pair and
//!   upper-bound kernels in `xsact-core`);
//! * [`and3_count`] — `popcount(a ∧ b ∧ c)` (the `sel_i ∧ sel_j ∧ diff_ij`
//!   DoD kernel);
//! * [`count_in_range_u32`] — how many values of a slice fall in
//!   `[lo, hi)` (the scorer's subtree range-count over decoded posting
//!   frames in `xsact-index`).
//!
//! Each primitive has three arms: AVX2, SSE2 and scalar. The arm is chosen
//! **once per process** with `is_x86_feature_detected!` and cached in a
//! [`OnceLock`]; setting `XSACT_FORCE_SCALAR` (to anything but `0`/empty)
//! pins the scalar arm, which is how CI proves both dispatch paths produce
//! identical bytes on any hardware. On non-x86 targets only the scalar arm
//! exists and dispatch is a no-op.
//!
//! The scalar implementations are public under [`scalar`] and are the
//! correctness oracles: `tests/properties.rs` pins every SIMD arm to them
//! over random masks, including all-zero, all-one and tail-word edge
//! cases. All arms are exact — they must (and do) return bit-identical
//! counts, so swapping arms can never change result bytes anywhere in the
//! stack.

use std::sync::OnceLock;

/// Which instruction-set arm the process selected at first use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelLevel {
    /// 256-bit AVX2 arm (nibble-LUT popcount, 8-lane range compare).
    Avx2,
    /// 128-bit SSE2 arm (bit-parallel popcount, 4-lane range compare).
    Sse2,
    /// Plain `u64`/`u32` loops — the oracle, and the only arm off x86.
    Scalar,
}

impl KernelLevel {
    /// Human-readable arm name (benches print it so numbers self-explain).
    pub fn name(self) -> &'static str {
        match self {
            KernelLevel::Avx2 => "avx2",
            KernelLevel::Sse2 => "sse2",
            KernelLevel::Scalar => "scalar",
        }
    }
}

/// The dispatch table: one function pointer per primitive, selected once.
struct Kernels {
    level: KernelLevel,
    and2: fn(&[u64], &[u64]) -> u32,
    and3: fn(&[u64], &[u64], &[u64]) -> u32,
    range: fn(&[u32], u32, u32) -> u32,
}

static KERNELS: OnceLock<Kernels> = OnceLock::new();

fn force_scalar() -> bool {
    std::env::var_os("XSACT_FORCE_SCALAR").is_some_and(|v| !v.is_empty() && v != "0")
}

fn kernels() -> &'static Kernels {
    KERNELS.get_or_init(|| {
        if force_scalar() {
            return Kernels {
                level: KernelLevel::Scalar,
                and2: scalar::and2_count,
                and3: scalar::and3_count,
                range: scalar::count_in_range_u32,
            };
        }
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                return Kernels {
                    level: KernelLevel::Avx2,
                    and2: x86::and2_count_avx2,
                    and3: x86::and3_count_avx2,
                    range: x86::count_in_range_u32_avx2,
                };
            }
            if std::arch::is_x86_feature_detected!("sse2") {
                return Kernels {
                    level: KernelLevel::Sse2,
                    and2: x86::and2_count_sse2,
                    and3: x86::and3_count_sse2,
                    range: x86::count_in_range_u32_sse2,
                };
            }
        }
        Kernels {
            level: KernelLevel::Scalar,
            and2: scalar::and2_count,
            and3: scalar::and3_count,
            range: scalar::count_in_range_u32,
        }
    })
}

/// The arm this process runs on (after the `XSACT_FORCE_SCALAR` override).
pub fn active_level() -> KernelLevel {
    kernels().level
}

/// `popcount(a ∧ b)`. Slices must have equal length.
#[inline]
pub fn and2_count(a: &[u64], b: &[u64]) -> u32 {
    debug_assert_eq!(a.len(), b.len());
    // Row widths in the DoD kernel are usually 1–4 words; vector setup
    // costs more than it saves below a couple of registers' worth.
    if a.len() < 8 {
        return scalar::and2_count(a, b);
    }
    (kernels().and2)(a, b)
}

/// `popcount(a ∧ b ∧ c)`. Slices must have equal length.
#[inline]
pub fn and3_count(a: &[u64], b: &[u64], c: &[u64]) -> u32 {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), c.len());
    if a.len() < 8 {
        return scalar::and3_count(a, b, c);
    }
    (kernels().and3)(a, b, c)
}

/// Number of values `v` in `vals` with `lo <= v < hi`.
#[inline]
pub fn count_in_range_u32(vals: &[u32], lo: u32, hi: u32) -> u32 {
    if vals.len() < 16 {
        return scalar::count_in_range_u32(vals, lo, hi);
    }
    (kernels().range)(vals, lo, hi)
}

/// The scalar arms — public because they are the oracles the property
/// suite pins the SIMD arms against, and the permanent fallback.
pub mod scalar {
    /// `popcount(a ∧ b)`, one word at a time.
    pub fn and2_count(a: &[u64], b: &[u64]) -> u32 {
        a.iter().zip(b).map(|(&x, &y)| (x & y).count_ones()).sum()
    }

    /// `popcount(a ∧ b ∧ c)`, one word at a time.
    pub fn and3_count(a: &[u64], b: &[u64], c: &[u64]) -> u32 {
        a.iter().zip(b).zip(c).map(|((&x, &y), &z)| (x & y & z).count_ones()).sum()
    }

    /// Count of `lo <= v < hi`, one value at a time.
    pub fn count_in_range_u32(vals: &[u32], lo: u32, hi: u32) -> u32 {
        vals.iter().filter(|&&v| lo <= v && v < hi).count() as u32
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    // ------------------------------------------------------------- AVX2 arm

    pub(super) fn and2_count_avx2(a: &[u64], b: &[u64]) -> u32 {
        // Safety: selected only after `is_x86_feature_detected!("avx2")`.
        unsafe { and2_count_avx2_impl(a, b) }
    }

    pub(super) fn and3_count_avx2(a: &[u64], b: &[u64], c: &[u64]) -> u32 {
        unsafe { and3_count_avx2_impl(a, b, c) }
    }

    pub(super) fn count_in_range_u32_avx2(vals: &[u32], lo: u32, hi: u32) -> u32 {
        unsafe { count_in_range_u32_avx2_impl(vals, lo, hi) }
    }

    /// Popcount of each byte of `v` via the Muła nibble lookup, summed into
    /// four `u64` lanes with `_mm256_sad_epu8`.
    #[target_feature(enable = "avx2")]
    unsafe fn popcount_epi8_sad(v: __m256i) -> __m256i {
        let lut = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, // low lane
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, // high lane
        );
        let low_mask = _mm256_set1_epi8(0x0f);
        let lo = _mm256_and_si256(v, low_mask);
        let hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
        let cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi));
        _mm256_sad_epu8(cnt, _mm256_setzero_si256())
    }

    #[target_feature(enable = "avx2")]
    unsafe fn and2_count_avx2_impl(a: &[u64], b: &[u64]) -> u32 {
        let n = a.len().min(b.len());
        let chunks = n / 4;
        let mut acc = _mm256_setzero_si256();
        for i in 0..chunks {
            let va = _mm256_loadu_si256(a.as_ptr().add(i * 4) as *const __m256i);
            let vb = _mm256_loadu_si256(b.as_ptr().add(i * 4) as *const __m256i);
            acc = _mm256_add_epi64(acc, popcount_epi8_sad(_mm256_and_si256(va, vb)));
        }
        let mut total = hsum_epi64(acc);
        for i in chunks * 4..n {
            total += (a[i] & b[i]).count_ones();
        }
        total
    }

    #[target_feature(enable = "avx2")]
    unsafe fn and3_count_avx2_impl(a: &[u64], b: &[u64], c: &[u64]) -> u32 {
        let n = a.len().min(b.len()).min(c.len());
        let chunks = n / 4;
        let mut acc = _mm256_setzero_si256();
        for i in 0..chunks {
            let va = _mm256_loadu_si256(a.as_ptr().add(i * 4) as *const __m256i);
            let vb = _mm256_loadu_si256(b.as_ptr().add(i * 4) as *const __m256i);
            let vc = _mm256_loadu_si256(c.as_ptr().add(i * 4) as *const __m256i);
            let and = _mm256_and_si256(_mm256_and_si256(va, vb), vc);
            acc = _mm256_add_epi64(acc, popcount_epi8_sad(and));
        }
        let mut total = hsum_epi64(acc);
        for i in chunks * 4..n {
            total += (a[i] & b[i] & c[i]).count_ones();
        }
        total
    }

    #[target_feature(enable = "avx2")]
    unsafe fn hsum_epi64(v: __m256i) -> u32 {
        let mut lanes = [0u64; 4];
        _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, v);
        (lanes[0] + lanes[1] + lanes[2] + lanes[3]) as u32
    }

    #[target_feature(enable = "avx2")]
    unsafe fn count_in_range_u32_avx2_impl(vals: &[u32], lo: u32, hi: u32) -> u32 {
        if lo >= hi {
            return 0;
        }
        // Unsigned compare via the sign-bias trick: x <u y ⟺
        // (x ^ MIN) <s (y ^ MIN) over i32 lanes.
        let bias = _mm256_set1_epi32(i32::MIN);
        let vlo = _mm256_xor_si256(_mm256_set1_epi32(lo as i32), bias);
        let vhi = _mm256_xor_si256(_mm256_set1_epi32(hi as i32), bias);
        let chunks = vals.len() / 8;
        let mut count = 0u32;
        for i in 0..chunks {
            let v = _mm256_loadu_si256(vals.as_ptr().add(i * 8) as *const __m256i);
            let vb = _mm256_xor_si256(v, bias);
            // in-range ⟺ !(v < lo) ∧ (v < hi)
            let lt_lo = _mm256_cmpgt_epi32(vlo, vb);
            let lt_hi = _mm256_cmpgt_epi32(vhi, vb);
            let inside = _mm256_andnot_si256(lt_lo, lt_hi);
            count += (_mm256_movemask_epi8(inside).count_ones()) / 4;
        }
        for &v in &vals[chunks * 8..] {
            if lo <= v && v < hi {
                count += 1;
            }
        }
        count
    }

    // ------------------------------------------------------------- SSE2 arm

    pub(super) fn and2_count_sse2(a: &[u64], b: &[u64]) -> u32 {
        unsafe { and2_count_sse2_impl(a, b) }
    }

    pub(super) fn and3_count_sse2(a: &[u64], b: &[u64], c: &[u64]) -> u32 {
        unsafe { and3_count_sse2_impl(a, b, c) }
    }

    pub(super) fn count_in_range_u32_sse2(vals: &[u32], lo: u32, hi: u32) -> u32 {
        unsafe { count_in_range_u32_sse2_impl(vals, lo, hi) }
    }

    /// Classic bit-parallel byte popcount (0x55/0x33/0x0f ladder), summed
    /// into two `u64` lanes with `_mm_sad_epu8`.
    #[target_feature(enable = "sse2")]
    unsafe fn popcount_epi8_sad_sse2(v: __m128i) -> __m128i {
        let m55 = _mm_set1_epi8(0x55);
        let m33 = _mm_set1_epi8(0x33);
        let m0f = _mm_set1_epi8(0x0f);
        let v = _mm_sub_epi8(v, _mm_and_si128(_mm_srli_epi64(v, 1), m55));
        let v = _mm_add_epi8(_mm_and_si128(v, m33), _mm_and_si128(_mm_srli_epi64(v, 2), m33));
        let v = _mm_and_si128(_mm_add_epi8(v, _mm_srli_epi64(v, 4)), m0f);
        _mm_sad_epu8(v, _mm_setzero_si128())
    }

    #[target_feature(enable = "sse2")]
    unsafe fn and2_count_sse2_impl(a: &[u64], b: &[u64]) -> u32 {
        let n = a.len().min(b.len());
        let chunks = n / 2;
        let mut acc = _mm_setzero_si128();
        for i in 0..chunks {
            let va = _mm_loadu_si128(a.as_ptr().add(i * 2) as *const __m128i);
            let vb = _mm_loadu_si128(b.as_ptr().add(i * 2) as *const __m128i);
            acc = _mm_add_epi64(acc, popcount_epi8_sad_sse2(_mm_and_si128(va, vb)));
        }
        let mut total = hsum_epi64_sse2(acc);
        for i in chunks * 2..n {
            total += (a[i] & b[i]).count_ones();
        }
        total
    }

    #[target_feature(enable = "sse2")]
    unsafe fn and3_count_sse2_impl(a: &[u64], b: &[u64], c: &[u64]) -> u32 {
        let n = a.len().min(b.len()).min(c.len());
        let chunks = n / 2;
        let mut acc = _mm_setzero_si128();
        for i in 0..chunks {
            let va = _mm_loadu_si128(a.as_ptr().add(i * 2) as *const __m128i);
            let vb = _mm_loadu_si128(b.as_ptr().add(i * 2) as *const __m128i);
            let vc = _mm_loadu_si128(c.as_ptr().add(i * 2) as *const __m128i);
            let and = _mm_and_si128(_mm_and_si128(va, vb), vc);
            acc = _mm_add_epi64(acc, popcount_epi8_sad_sse2(and));
        }
        let mut total = hsum_epi64_sse2(acc);
        for i in chunks * 2..n {
            total += (a[i] & b[i] & c[i]).count_ones();
        }
        total
    }

    #[target_feature(enable = "sse2")]
    unsafe fn hsum_epi64_sse2(v: __m128i) -> u32 {
        let mut lanes = [0u64; 2];
        _mm_storeu_si128(lanes.as_mut_ptr() as *mut __m128i, v);
        (lanes[0] + lanes[1]) as u32
    }

    #[target_feature(enable = "sse2")]
    unsafe fn count_in_range_u32_sse2_impl(vals: &[u32], lo: u32, hi: u32) -> u32 {
        if lo >= hi {
            return 0;
        }
        let bias = _mm_set1_epi32(i32::MIN);
        let vlo = _mm_xor_si128(_mm_set1_epi32(lo as i32), bias);
        let vhi = _mm_xor_si128(_mm_set1_epi32(hi as i32), bias);
        let chunks = vals.len() / 4;
        let mut count = 0u32;
        for i in 0..chunks {
            let v = _mm_loadu_si128(vals.as_ptr().add(i * 4) as *const __m128i);
            let vb = _mm_xor_si128(v, bias);
            let lt_lo = _mm_cmpgt_epi32(vlo, vb);
            let lt_hi = _mm_cmpgt_epi32(vhi, vb);
            let inside = _mm_andnot_si128(lt_lo, lt_hi);
            count += (_mm_movemask_epi8(inside).count_ones()) / 4;
        }
        for &v in &vals[chunks * 4..] {
            if lo <= v && v < hi {
                count += 1;
            }
        }
        count
    }
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

    #[test]
    fn dispatch_selects_an_arm_once() {
        let level = active_level();
        assert_eq!(level, active_level(), "selection is cached");
        // Whatever the arm, it must agree with the oracle (checked below);
        // here just exercise the name mapping.
        assert!(["avx2", "sse2", "scalar"].contains(&level.name()));
    }

    #[test]
    fn and_counts_match_scalar_across_lengths() {
        let mut state = 0x9e3779b97f4a7c15u64;
        for len in [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 64, 100] {
            let a: Vec<u64> = (0..len).map(|_| xorshift(&mut state)).collect();
            let b: Vec<u64> = (0..len).map(|_| xorshift(&mut state)).collect();
            let c: Vec<u64> = (0..len).map(|_| xorshift(&mut state)).collect();
            assert_eq!(and2_count(&a, &b), scalar::and2_count(&a, &b), "len {len}");
            assert_eq!(and3_count(&a, &b, &c), scalar::and3_count(&a, &b, &c), "len {len}");
        }
    }

    #[test]
    fn and_counts_handle_all_zero_and_all_one() {
        for len in [1usize, 8, 33] {
            let zeros = vec![0u64; len];
            let ones = vec![u64::MAX; len];
            assert_eq!(and2_count(&zeros, &ones), 0);
            assert_eq!(and2_count(&ones, &ones), 64 * len as u32);
            assert_eq!(and3_count(&ones, &ones, &zeros), 0);
            assert_eq!(and3_count(&ones, &ones, &ones), 64 * len as u32);
        }
    }

    #[test]
    fn range_count_matches_scalar_across_lengths_and_bounds() {
        let mut state = 0x51ed270b227c6109u64;
        for len in [0usize, 1, 3, 4, 7, 8, 9, 16, 17, 40, 127, 128, 129] {
            let vals: Vec<u32> = (0..len).map(|_| xorshift(&mut state) as u32).collect();
            for (lo, hi) in [
                (0u32, u32::MAX),
                (0, 0),
                (5, 5),
                (1 << 30, 3 << 30),
                (u32::MAX - 1, u32::MAX),
                (7, 6), // inverted: empty range
            ] {
                assert_eq!(
                    count_in_range_u32(&vals, lo, hi),
                    scalar::count_in_range_u32(&vals, lo, hi),
                    "len {len} range [{lo}, {hi})"
                );
            }
        }
    }

    #[test]
    fn range_count_boundary_semantics() {
        let vals: Vec<u32> = (0..100).collect();
        assert_eq!(count_in_range_u32(&vals, 10, 20), 10, "lo inclusive, hi exclusive");
        assert_eq!(scalar::count_in_range_u32(&vals, 10, 20), 10);
        assert_eq!(count_in_range_u32(&vals, 0, 100), 100);
        assert_eq!(count_in_range_u32(&vals, 99, 100), 1);
        assert_eq!(count_in_range_u32(&vals, 100, 200), 0);
    }
}
