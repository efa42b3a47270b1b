//! Summary statistics over experiment repetitions.
//!
//! "The same experiment is repeated 50 times and the average of the 50
//! mean response times is taken in plotting our curves … the standard
//! deviation over the 50 repetitions is only between 1% to 5% of the
//! mean" (§5/§5.1). [`Summary`] reports exactly those quantities plus a
//! 95% confidence interval.

/// Mean, spread and confidence interval of a set of repetitions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of repetitions.
    pub n: usize,
    /// Mean of the repetition values.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator).
    pub std_dev: f64,
    /// Half-width of the 95% confidence interval (normal approximation).
    pub ci95: f64,
}

impl Summary {
    /// Summarizes a slice of repetition values.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "cannot summarize zero repetitions");
        let n = values.len();
        let mean = values.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        let std_dev = var.sqrt();
        let ci95 = 1.96 * std_dev / (n as f64).sqrt();
        Summary {
            n,
            mean,
            std_dev,
            ci95,
        }
    }

    /// Standard deviation as a fraction of the mean (the paper quotes
    /// 1–5%); 0 when the mean is 0.
    pub fn relative_std(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.std_dev / self.mean
        }
    }
}

/// The `q`-th percentile (0–100) of a sample, by linear interpolation
/// between closest ranks.
///
/// # Panics
///
/// Panics on an empty slice or `q` outside `[0, 100]`.
///
/// # Example
///
/// ```
/// use mrtweb_sim::stats::percentile;
///
/// let xs = [4.0, 1.0, 3.0, 2.0];
/// assert_eq!(percentile(&xs, 0.0), 1.0);
/// assert_eq!(percentile(&xs, 100.0), 4.0);
/// assert_eq!(percentile(&xs, 50.0), 2.5);
/// ```
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "cannot take a percentile of no data");
    assert!((0.0..=100.0).contains(&q), "percentile must be in [0, 100]");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = q / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_values() {
        let s = Summary::of(&[2.0, 2.0, 2.0, 2.0]);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.ci95, 0.0);
        assert_eq!(s.relative_std(), 0.0);
    }

    #[test]
    fn known_sample() {
        // values 1..5: mean 3, sample variance 2.5.
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.mean, 3.0);
        assert!((s.std_dev - 2.5f64.sqrt()).abs() < 1e-12);
        assert!((s.ci95 - 1.96 * 2.5f64.sqrt() / 5f64.sqrt()).abs() < 1e-12);
        assert!((s.relative_std() - 2.5f64.sqrt() / 3.0).abs() < 1e-12);
    }

    #[test]
    fn single_value() {
        let s = Summary::of(&[7.0]);
        assert_eq!(s.n, 1);
        assert_eq!(s.mean, 7.0);
        assert_eq!(s.std_dev, 0.0);
    }

    #[test]
    #[should_panic(expected = "zero repetitions")]
    fn empty_panics() {
        let _ = Summary::of(&[]);
    }

    #[test]
    fn percentiles_interpolate() {
        let xs = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&xs, 0.0), 10.0);
        assert_eq!(percentile(&xs, 25.0), 20.0);
        assert_eq!(percentile(&xs, 50.0), 30.0);
        assert_eq!(percentile(&xs, 90.0), 46.0);
        assert_eq!(percentile(&xs, 100.0), 50.0);
    }

    #[test]
    fn percentile_single_value() {
        assert_eq!(percentile(&[7.5], 50.0), 7.5);
    }

    #[test]
    fn percentile_is_order_insensitive() {
        let a = [3.0, 1.0, 2.0];
        let b = [1.0, 2.0, 3.0];
        assert_eq!(percentile(&a, 75.0), percentile(&b, 75.0));
    }

    #[test]
    #[should_panic(expected = "percentile must be in")]
    fn percentile_range_checked() {
        let _ = percentile(&[1.0], 101.0);
    }
}
