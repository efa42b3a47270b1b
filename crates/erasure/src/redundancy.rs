//! Redundancy planning: how many cooked packets to send.
//!
//! With per-packet corruption probability `α` and independent corruption
//! events, the number of packets `P` a client must *receive* before
//! collecting `M` intact ones follows a negative binomial distribution
//! (paper §4.1):
//!
//! ```text
//! Pr(P = x) = C(x−1, M−1) · α^(x−M) · (1−α)^M ,  x ≥ M
//! ```
//!
//! with expectation `E(P) = M / (1−α)`. To guarantee a download succeeds
//! with probability at least `S`, the server picks the smallest `N` with
//! `Pr(P ≤ N) ≥ S` and transmits `N` cooked packets. The ratio
//! `γ = N / M` is the *redundancy ratio*; the paper's Figures 2 and 3
//! plot `N` against `M` and `γ` against `α`, which the helpers here
//! regenerate.

use crate::Error;

/// Validates that `alpha` is a corruption probability in `[0, 1)`.
fn check_alpha(alpha: f64) -> Result<(), Error> {
    if !(0.0..1.0).contains(&alpha) || alpha.is_nan() {
        return Err(Error::BadProbability(alpha));
    }
    Ok(())
}

/// Validates that `s` is a target success probability in `(0, 1)`.
fn check_success(s: f64) -> Result<(), Error> {
    if !(s > 0.0 && s < 1.0) {
        return Err(Error::BadProbability(s));
    }
    Ok(())
}

/// Probability mass `Pr(P = x)` of needing exactly `x` received packets
/// to collect `m` intact ones, at corruption probability `alpha`.
///
/// Returns 0 for `x < m`.
///
/// # Errors
///
/// [`Error::BadProbability`] if `alpha ∉ [0, 1)`.
///
/// # Example
///
/// ```
/// use mrtweb_erasure::redundancy::pmf;
/// // With a perfect channel every packet is intact: Pr(P = M) = 1.
/// assert!((pmf(10, 0.0, 10).unwrap() - 1.0).abs() < 1e-12);
/// ```
pub fn pmf(m: usize, alpha: f64, x: usize) -> Result<f64, Error> {
    check_alpha(alpha)?;
    assert!(m > 0, "m must be positive");
    if x < m {
        return Ok(0.0);
    }
    // Iterate the recurrence t_{x+1} = t_x * α * x / (x+1−M) from t_M.
    let mut t = (1.0 - alpha).powi(i32::try_from(m).unwrap_or(i32::MAX));
    for k in m..x {
        t *= alpha * k as f64 / (k + 1 - m) as f64;
    }
    Ok(t)
}

/// Cumulative probability `Pr(P ≤ n)` that `n` transmitted packets
/// suffice to deliver `m` intact ones.
///
/// # Errors
///
/// [`Error::BadProbability`] if `alpha ∉ [0, 1)`.
pub fn success_probability(m: usize, n: usize, alpha: f64) -> Result<f64, Error> {
    check_alpha(alpha)?;
    assert!(m > 0, "m must be positive");
    if n < m {
        return Ok(0.0);
    }
    let mut t = (1.0 - alpha).powi(i32::try_from(m).unwrap_or(i32::MAX));
    let mut cdf = t;
    for k in m..n {
        t *= alpha * k as f64 / (k + 1 - m) as f64;
        cdf += t;
    }
    Ok(cdf.min(1.0))
}

/// Expected number of packets to receive before reconstruction:
/// `E(P) = M / (1 − α)`.
///
/// # Errors
///
/// [`Error::BadProbability`] if `alpha ∉ [0, 1)`.
pub fn expected_packets(m: usize, alpha: f64) -> Result<f64, Error> {
    check_alpha(alpha)?;
    assert!(m > 0, "m must be positive");
    Ok(m as f64 / (1.0 - alpha))
}

/// The smallest `N` such that `Pr(P ≤ N) ≥ s` — the optimal number of
/// cooked packets for target success probability `s` (paper Figure 2).
///
/// The search is unbounded in principle; it is capped at `64 × M / (1−α)`
/// which exceeds any practically meaningful redundancy (the probability
/// left in the tail there is astronomically small).
///
/// # Errors
///
/// [`Error::BadProbability`] if `alpha ∉ [0, 1)` or `s ∉ (0, 1)`.
///
/// # Example
///
/// ```
/// use mrtweb_erasure::redundancy::min_cooked_packets;
/// // Perfectly reliable channel: no redundancy needed.
/// assert_eq!(min_cooked_packets(40, 0.0, 0.95).unwrap(), 40);
/// // A lossy channel needs extra packets.
/// assert!(min_cooked_packets(40, 0.3, 0.95).unwrap() > 40);
/// ```
pub fn min_cooked_packets(m: usize, alpha: f64, s: f64) -> Result<usize, Error> {
    check_alpha(alpha)?;
    check_success(s)?;
    assert!(m > 0, "m must be positive");
    let cap = ((64.0 * m as f64 / (1.0 - alpha)).ceil() as usize).max(m + 64);
    let mut t = (1.0 - alpha).powi(i32::try_from(m).unwrap_or(i32::MAX));
    let mut cdf = t;
    let mut n = m;
    while cdf < s && n < cap {
        t *= alpha * n as f64 / (n + 1 - m) as f64;
        cdf += t;
        n += 1;
    }
    Ok(n)
}

/// Redundancy ratio `γ = N / M` for the optimal `N` (paper Figure 3).
///
/// # Errors
///
/// Same as [`min_cooked_packets`].
pub fn redundancy_ratio(m: usize, alpha: f64, s: f64) -> Result<f64, Error> {
    Ok(min_cooked_packets(m, alpha, s)? as f64 / m as f64)
}

/// The cooked packet count `N` for `m` raw packets at redundancy ratio
/// `gamma`: `γ · M` rounded to the nearest packet, never below `M`.
/// Every transmission path sizes its code with this one rule.
///
/// ```
/// use mrtweb_erasure::redundancy::cooked_packets;
/// assert_eq!(cooked_packets(40, 1.5), 60);
/// assert_eq!(cooked_packets(3, 1.1), 3);
/// ```
#[must_use]
pub fn cooked_packets(m: usize, gamma: f64) -> usize {
    ((m as f64 * gamma).round() as usize).max(m)
}

/// A planned code: chosen `N` for the given `(M, α, S)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Plan {
    /// Raw packets `M`.
    pub raw: usize,
    /// Chosen cooked packets `N`.
    pub cooked: usize,
    /// Channel corruption probability the plan assumed.
    pub alpha: f64,
    /// Target success probability.
    pub success: f64,
}

impl Plan {
    /// Plans the minimal code for `(m, alpha, s)`.
    ///
    /// # Errors
    ///
    /// Same as [`min_cooked_packets`].
    pub fn optimal(m: usize, alpha: f64, s: f64) -> Result<Plan, Error> {
        Ok(Plan {
            raw: m,
            cooked: min_cooked_packets(m, alpha, s)?,
            alpha,
            success: s,
        })
    }

    /// Plans a code from a fixed redundancy ratio `γ` (how the paper's
    /// simulation operates: `N` = [`cooked_packets`]`(M, γ)`).
    pub fn from_ratio(m: usize, gamma: f64, alpha: f64) -> Plan {
        assert!(gamma >= 1.0, "redundancy ratio must be at least 1");
        Plan {
            raw: m,
            cooked: cooked_packets(m, gamma),
            alpha,
            success: f64::NAN,
        }
    }

    /// Redundancy ratio `γ = N / M` of this plan.
    pub fn ratio(&self) -> f64 {
        self.cooked as f64 / self.raw as f64
    }

    /// Actual `Pr(P ≤ N)` this plan achieves.
    ///
    /// # Errors
    ///
    /// [`Error::BadProbability`] if the stored `alpha` is invalid.
    pub fn achieved_probability(&self) -> Result<f64, Error> {
        success_probability(self.raw, self.cooked, self.alpha)
    }
}

/// One point of the Figure 2 data: `(M, α, N)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Figure2Point {
    /// Raw packet count `M`.
    pub m: usize,
    /// Corruption probability `α`.
    pub alpha: f64,
    /// Minimal cooked packet count `N`.
    pub n: usize,
}

/// Regenerates a Figure 2 panel: minimal `N` against `M ∈ {10..=100}`
/// for each `α ∈ {0.1, 0.2, 0.3, 0.4, 0.5}` at success probability `s`.
///
/// # Errors
///
/// Propagates [`min_cooked_packets`] errors (none for these inputs).
pub fn figure2(s: f64) -> Result<Vec<Figure2Point>, Error> {
    let mut out = Vec::new();
    for &alpha in &[0.1, 0.2, 0.3, 0.4, 0.5] {
        for m in (10..=100).step_by(10) {
            out.push(Figure2Point {
                m,
                alpha,
                n: min_cooked_packets(m, alpha, s)?,
            });
        }
    }
    Ok(out)
}

/// One point of the Figure 3 data: `(α, M, γ)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Figure3Point {
    /// Corruption probability `α`.
    pub alpha: f64,
    /// Raw packet count `M`.
    pub m: usize,
    /// Redundancy ratio `γ = N/M`.
    pub gamma: f64,
}

/// Regenerates the Figure 3 data: `γ` against `α ∈ {0.1..0.5}` for
/// `M ∈ {10, 50, 100}` at success probability `s`.
///
/// # Errors
///
/// Propagates [`redundancy_ratio`] errors (none for these inputs).
pub fn figure3(s: f64) -> Result<Vec<Figure3Point>, Error> {
    let mut out = Vec::new();
    for &m in &[10usize, 50, 100] {
        for i in 1..=5 {
            let alpha = i as f64 / 10.0;
            out.push(Figure3Point {
                alpha,
                m,
                gamma: redundancy_ratio(m, alpha, s)?,
            });
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pmf_sums_to_one() {
        for &alpha in &[0.05, 0.1, 0.3, 0.5] {
            for &m in &[1usize, 5, 40] {
                let mut sum = 0.0;
                let mut x = m;
                // Sum until the tail is negligible.
                loop {
                    sum += pmf(m, alpha, x).unwrap();
                    if sum > 1.0 - 1e-12 || x > m * 50 + 1000 {
                        break;
                    }
                    x += 1;
                }
                assert!(
                    sum > 1.0 - 1e-9,
                    "pmf sums to {sum} for m={m}, alpha={alpha}"
                );
            }
        }
    }

    #[test]
    fn pmf_matches_closed_form_small() {
        // m=2, alpha=0.5: Pr(P=3) = C(2,1) * 0.5 * 0.25 = 0.25
        let p = pmf(2, 0.5, 3).unwrap();
        assert!((p - 0.25).abs() < 1e-12);
        // Pr(P=2) = 0.25
        assert!((pmf(2, 0.5, 2).unwrap() - 0.25).abs() < 1e-12);
        // Pr(P < m) = 0
        assert_eq!(pmf(2, 0.5, 1).unwrap(), 0.0);
    }

    #[test]
    fn cdf_is_monotone_in_n() {
        let mut prev = 0.0;
        for n in 40..120 {
            let c = success_probability(40, n, 0.3).unwrap();
            assert!(c >= prev - 1e-15, "cdf decreased at n={n}");
            prev = c;
        }
        assert!(prev > 0.99);
    }

    #[test]
    fn min_cooked_is_minimal() {
        for &alpha in &[0.1, 0.3, 0.5] {
            for &m in &[10usize, 40, 100] {
                for &s in &[0.95, 0.99] {
                    let n = min_cooked_packets(m, alpha, s).unwrap();
                    assert!(success_probability(m, n, alpha).unwrap() >= s);
                    if n > m {
                        assert!(
                            success_probability(m, n - 1, alpha).unwrap() < s,
                            "N not minimal for m={m}, alpha={alpha}, s={s}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn perfect_channel_needs_no_redundancy() {
        assert_eq!(min_cooked_packets(40, 0.0, 0.95).unwrap(), 40);
        assert!((redundancy_ratio(40, 0.0, 0.99).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn expected_packets_formula() {
        assert!((expected_packets(40, 0.5).unwrap() - 80.0).abs() < 1e-12);
        assert!((expected_packets(10, 0.0).unwrap() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn n_grows_with_alpha_and_s() {
        let n1 = min_cooked_packets(50, 0.1, 0.95).unwrap();
        let n2 = min_cooked_packets(50, 0.3, 0.95).unwrap();
        let n3 = min_cooked_packets(50, 0.3, 0.99).unwrap();
        assert!(n1 < n2, "N should grow with alpha");
        assert!(n2 <= n3, "N should grow with S");
    }

    #[test]
    fn figure2_shape_is_roughly_linear_in_m() {
        // Paper: "the number of cooked packets required is pretty much of
        // a linear relationship with the number of raw packets".
        let pts = figure2(0.95).unwrap();
        let at = |m: usize, alpha: f64| {
            pts.iter()
                .find(|p| p.m == m && (p.alpha - alpha).abs() < 1e-9)
                .unwrap()
                .n as f64
        };
        for &alpha in &[0.1, 0.3, 0.5] {
            let slope_lo = (at(50, alpha) - at(10, alpha)) / 40.0;
            let slope_hi = (at(100, alpha) - at(50, alpha)) / 50.0;
            // Slopes over the two halves agree within 20%.
            assert!(
                (slope_lo - slope_hi).abs() / slope_hi < 0.2,
                "nonlinear N(M) at alpha={alpha}: {slope_lo} vs {slope_hi}"
            );
        }
    }

    #[test]
    fn figure3_gamma_range_matches_paper() {
        // Paper Figure 3: at M=50, gamma stays below ~3.5 for S=99% and
        // exceeds 1/(1-alpha). Also gamma varies little with M.
        let pts = figure3(0.99).unwrap();
        for p in &pts {
            assert!(
                p.gamma >= 1.0 / (1.0 - p.alpha) - 0.05,
                "gamma below mean requirement: {p:?}"
            );
            assert!(p.gamma < 3.5, "gamma unexpectedly large: {p:?}");
        }
        // Range across M at fixed alpha is modest ("does not change too much").
        for i in 1..=5 {
            let alpha = i as f64 / 10.0;
            let gs: Vec<f64> = pts
                .iter()
                .filter(|p| (p.alpha - alpha).abs() < 1e-9)
                .map(|p| p.gamma)
                .collect();
            let maxg = gs.iter().copied().fold(f64::MIN, f64::max);
            let ming = gs.iter().copied().fold(f64::MAX, f64::min);
            assert!(maxg - ming < 1.0, "gamma spread too wide at alpha={alpha}");
        }
    }

    #[test]
    fn plan_from_ratio_matches_table2() {
        // Table 2: M=40, gamma=1.5 -> N=60.
        let plan = Plan::from_ratio(40, 1.5, 0.1);
        assert_eq!(plan.cooked, 60);
        assert!((plan.ratio() - 1.5).abs() < 1e-12);
        // At alpha=0.1 the plan succeeds nearly always.
        assert!(plan.achieved_probability().unwrap() > 0.999);
    }

    #[test]
    fn invalid_probabilities_rejected() {
        assert!(pmf(10, 1.0, 10).is_err());
        assert!(pmf(10, -0.1, 10).is_err());
        assert!(min_cooked_packets(10, 0.1, 0.0).is_err());
        assert!(min_cooked_packets(10, 0.1, 1.0).is_err());
        assert!(expected_packets(10, f64::NAN).is_err());
    }
}
