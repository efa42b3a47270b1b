//! Adaptive redundancy.
//!
//! "To balance the amount of redundancy with successful transmission
//! probability, the value of γ could be defined as an adaptive function
//! of the observed summarized value of α, using perhaps a kind of EWMA
//! measure" (§4.2). [`AdaptiveRedundancy`] closes that loop: the client
//! feeds per-packet outcomes into an EWMA estimate of α, and the server
//! plans each document's `N` from the current estimate and the target
//! success probability.

use mrtweb_channel::ewma::EwmaEstimator;
use mrtweb_erasure::redundancy::{min_cooked_packets, Plan};
use mrtweb_erasure::Error;

/// An EWMA-driven redundancy controller.
///
/// # Example
///
/// ```
/// use mrtweb_transport::adaptive::AdaptiveRedundancy;
///
/// # fn main() -> Result<(), mrtweb_erasure::Error> {
/// let mut ctl = AdaptiveRedundancy::new(0.95, 0.05, 0.1);
/// let calm = ctl.plan(40)?.cooked;
/// // The channel degrades badly; the controller reacts.
/// for _ in 0..500 { ctl.observe(true); }
/// let stormy = ctl.plan(40)?.cooked;
/// assert!(stormy > calm);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveRedundancy {
    estimator: EwmaEstimator,
    target_success: f64,
}

impl AdaptiveRedundancy {
    /// Creates a controller targeting success probability
    /// `target_success`, with EWMA gain `gain` and initial α estimate
    /// `initial_alpha`.
    ///
    /// # Panics
    ///
    /// Panics unless `target_success ∈ (0, 1)` (and per
    /// [`EwmaEstimator::new`] for the other arguments).
    pub fn new(target_success: f64, gain: f64, initial_alpha: f64) -> Self {
        assert!(
            target_success > 0.0 && target_success < 1.0,
            "target success probability must be in (0, 1)"
        );
        AdaptiveRedundancy {
            estimator: EwmaEstimator::new(gain, initial_alpha),
            target_success,
        }
    }

    /// Records one packet outcome (`true` = corrupted).
    pub fn observe(&mut self, corrupted: bool) {
        self.estimator.observe(corrupted);
    }

    /// Records a round summary: `corrupted` of `total` packets.
    ///
    /// # Panics
    ///
    /// Panics if `corrupted > total`.
    pub fn observe_round(&mut self, corrupted: usize, total: usize) {
        self.estimator.observe_batch(corrupted, total);
    }

    /// The current α estimate.
    pub fn estimated_alpha(&self) -> f64 {
        self.estimator.estimate()
    }

    /// The success probability the controller plans for.
    pub fn target_success(&self) -> f64 {
        self.target_success
    }

    /// Plans the minimal code for `m` raw packets at the current α
    /// estimate.
    ///
    /// The estimate is clamped to `[0, 0.95]` before planning: an EWMA
    /// that momentarily saturates at 1.0 must not demand infinite
    /// redundancy.
    ///
    /// # Errors
    ///
    /// Propagates [`min_cooked_packets`] errors (none for clamped
    /// inputs).
    pub fn plan(&self, m: usize) -> Result<Plan, Error> {
        let alpha = self.estimated_alpha().clamp(0.0, 0.95);
        let cooked = min_cooked_packets(m, alpha, self.target_success)?;
        Ok(Plan {
            raw: m,
            cooked,
            alpha,
            success: self.target_success,
        })
    }

    /// The redundancy ratio γ the controller would use right now.
    ///
    /// # Errors
    ///
    /// Propagates [`AdaptiveRedundancy::plan`] errors.
    pub fn gamma(&self, m: usize) -> Result<f64, Error> {
        Ok(self.plan(m)?.ratio())
    }
}

impl Default for AdaptiveRedundancy {
    /// Target S = 95%, gain 0.05, initial α = 0.1 (Table 2 defaults).
    fn default() -> Self {
        AdaptiveRedundancy::new(0.95, 0.05, 0.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_grows_with_observed_corruption() {
        let mut ctl = AdaptiveRedundancy::default();
        let before = ctl.plan(40).unwrap().cooked;
        for _ in 0..1000 {
            ctl.observe(true);
        }
        let after = ctl.plan(40).unwrap().cooked;
        assert!(after > before, "cooked {after} should exceed {before}");
    }

    #[test]
    fn plan_shrinks_on_clean_channel() {
        let mut ctl = AdaptiveRedundancy::default();
        for _ in 0..1000 {
            ctl.observe(false);
        }
        let plan = ctl.plan(40).unwrap();
        assert_eq!(plan.cooked, 40, "clean channel needs no redundancy");
        assert!(ctl.estimated_alpha() < 1e-6);
    }

    #[test]
    fn saturated_estimator_is_clamped() {
        let mut ctl = AdaptiveRedundancy::new(0.95, 1.0, 0.0);
        ctl.observe(true); // estimate jumps to 1.0
        assert_eq!(ctl.estimated_alpha(), 1.0);
        // Planning still terminates thanks to the clamp.
        let plan = ctl.plan(10).unwrap();
        assert!(plan.cooked >= 10);
    }

    #[test]
    fn converges_near_oracle_plan() {
        let mut ctl = AdaptiveRedundancy::new(0.95, 0.02, 0.5);
        // Deterministic 30% corruption stream.
        for i in 0..5000 {
            ctl.observe(i % 10 < 3);
        }
        let adaptive = ctl.plan(50).unwrap().cooked;
        let oracle = min_cooked_packets(50, 0.3, 0.95).unwrap();
        let diff = adaptive.abs_diff(oracle);
        assert!(diff <= 3, "adaptive N={adaptive} vs oracle N={oracle}");
    }

    #[test]
    fn round_observation_moves_estimate() {
        let mut ctl = AdaptiveRedundancy::new(0.95, 0.1, 0.0);
        ctl.observe_round(30, 60);
        assert!(ctl.estimated_alpha() > 0.2);
    }

    #[test]
    #[should_panic(expected = "target success")]
    fn invalid_target_panics() {
        let _ = AdaptiveRedundancy::new(1.0, 0.1, 0.1);
    }
}
