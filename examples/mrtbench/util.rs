//! Seeded randomness, hashing and order statistics shared by the
//! benchmark's modules. The generator is the benchmark's own, so the
//! inputs for a seed stay the same whatever the program under test
//! does to its random-number stand-ins.

/// SplitMix64: small, fast, and fully determined by its seed.
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

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A 64-bit content hash, eight bytes per step. Used for digests and
/// payload fingerprints, where equality is all that matters.
#[derive(Clone, Copy)]
pub struct Hash(u64);

impl Default for Hash {
    fn default() -> Hash {
        Hash(0xCBF2_9CE4_8422_2325)
    }
}

impl Hash {
    pub fn bytes(mut self, data: &[u8]) -> Hash {
        let mut chunks = data.chunks_exact(8);
        for c in &mut chunks {
            let word = u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]);
            self.0 = (self.0 ^ word)
                .wrapping_mul(0x0000_0100_0000_01B3)
                .rotate_left(29);
        }
        for &b in chunks.remainder() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        // The length keeps "ab" + "c" apart from "a" + "bc".
        self.u64(data.len() as u64)
    }

    pub fn u64(mut self, v: u64) -> Hash {
        self.0 = (self.0 ^ v)
            .wrapping_mul(0x0000_0100_0000_01B3)
            .rotate_left(29);
        self
    }

    pub fn finish(self) -> u64 {
        let mut z = self.0;
        z = (z ^ (z >> 33)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        z ^ (z >> 33)
    }
}

/// Nearest-rank `q`-quantile of an ascending slice (0 when empty).
pub fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Mean of the middle half of an ascending slice (0 when empty): as
/// robust to outliers as the median, but not rounded to one sample, so
/// two runs do not tie by the clock's resolution.
pub fn mid_mean(sorted: &[u64]) -> f64 {
    let cut = sorted.len() / 4;
    let mid = &sorted[cut..sorted.len() - cut];
    if mid.is_empty() {
        return 0.0;
    }
    mid.iter().sum::<u64>() as f64 / mid.len() as f64
}

/// Median, as Python's `statistics.median` gives it.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => f64::midpoint(v[n / 2 - 1], v[n / 2]),
    }
}

/// First and third quartile, as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method)
/// gives them, so spreads here match the ones computed from the JSON
/// results with Python.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let m = ld + 1;
    let at = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn nearest_rank_picks_the_ranked_sample() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&v, 0.5), 50);
        assert_eq!(nearest_rank(&v, 0.99), 99);
        assert_eq!(nearest_rank(&[], 0.5), 0);
    }

    #[test]
    fn mid_mean_drops_the_outer_quarters() {
        assert_eq!(mid_mean(&[1, 2, 3, 1000]), 2.5);
        assert_eq!(mid_mean(&[7]), 7.0);
        assert_eq!(mid_mean(&[]), 0.0);
    }
}
