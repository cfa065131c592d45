//! The benchmark's own generator: SplitMix64 plus a Zipf sampler. Kept
//! inside the benchmark so a seed names the same op stream whatever the
//! product's vendored `rand` does.

/// SplitMix64 (Steele, Lea, Flood 2014): one `u64` of state, full period.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`), by 128-bit multiply-shift.
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

/// Zipf over ranks `0..n`: rank `r` is drawn with weight `1 / (r+1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut cdf: Vec<f64> = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn below_stays_in_range_and_covers_it() {
        let mut rng = Rng::new(7);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            seen[rng.below(5)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn zipf_is_skewed_towards_low_ranks_and_sums_to_one() {
        let zipf = Zipf::new(256, 1.1);
        assert!((zipf.cdf[255] - 1.0).abs() < 1e-12);
        let mut rng = Rng::new(1);
        let mut counts = vec![0u32; 256];
        for _ in 0..100_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        // Rank 0 carries 1/H(256, 1.1) ≈ 0.21 of the mass.
        assert!((19_000..23_000).contains(&counts[0]), "rank 0 drawn {} times", counts[0]);
        assert!(counts[0] > counts[1] && counts[1] > counts[4] && counts[4] > counts[64]);
        assert!(counts.iter().all(|&c| c > 0), "every rank is reachable");
    }
}
