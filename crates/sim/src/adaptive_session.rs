//! Browsing sessions with EWMA-adaptive redundancy.
//!
//! The paper suggests choosing γ "as an adaptive function of the
//! observed summarized value of α" (§4.2). This driver runs browsing
//! sessions where the client feeds per-document corruption observations
//! into an [`AdaptiveRedundancy`] controller and every document is coded
//! at the controller's current plan — then compares against the fixed
//! γ = 1.5 default and against an oracle that knows the true α.

use mrtweb_channel::bandwidth::Bandwidth;
use mrtweb_channel::bernoulli::BernoulliChannel;
use mrtweb_channel::link::Link;
use mrtweb_docmodel::lod::Lod;
use mrtweb_erasure::redundancy::min_cooked_packets;
use mrtweb_transport::adaptive::AdaptiveRedundancy;
use mrtweb_transport::session::{download, Relevance, SessionConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::model::SimDocument;
use crate::params::Params;

/// How γ is chosen per document.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GammaPolicy {
    /// A fixed redundancy ratio (the paper's default experiments).
    Fixed(f64),
    /// EWMA-adaptive with the given gain, targeting S = 95%.
    Adaptive {
        /// EWMA gain.
        gain: f64,
        /// Initial α estimate.
        initial_alpha: f64,
    },
    /// An oracle that plans from the true α (upper bound).
    Oracle,
}

/// Result of one adaptive-session run.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveResult {
    /// Mean response time per document.
    pub mean_response_time: f64,
    /// Mean packets transmitted per document.
    pub mean_packets: f64,
    /// Final γ used for the last document.
    pub final_gamma: f64,
}

/// Runs a browsing session under the given γ policy.
///
/// All documents are relevant (full downloads) so the comparison
/// isolates the redundancy choice.
pub fn run_adaptive_session(params: &Params, policy: GammaPolicy, seed: u64) -> AdaptiveResult {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut link = Link::new(
        Bandwidth::from_kbps(params.bandwidth_kbps),
        BernoulliChannel::new(params.alpha, seed ^ 0x77aa),
        seed,
    );
    let mut controller = match policy {
        GammaPolicy::Adaptive {
            gain,
            initial_alpha,
        } => Some(AdaptiveRedundancy::new(0.95, gain, initial_alpha)),
        _ => None,
    };
    let m = params.raw_packets();
    let oracle_gamma =
        min_cooked_packets(m, params.alpha, 0.95).expect("valid parameters") as f64 / m as f64;

    let mut total_time = 0.0;
    let mut total_packets = 0u64;
    let mut gamma = match policy {
        GammaPolicy::Fixed(g) => g,
        GammaPolicy::Oracle => oracle_gamma,
        GammaPolicy::Adaptive { initial_alpha, .. } => {
            min_cooked_packets(m, initial_alpha, 0.95).unwrap() as f64 / m as f64
        }
    };
    for _ in 0..params.docs_per_session {
        let doc = SimDocument::draw(params, &mut rng);
        let plan = doc.plan_at(Lod::Document);
        let config = SessionConfig {
            packet_size: params.packet_size,
            overhead: params.overhead,
            gamma,
            cache_mode: params.cache_mode,
            max_rounds: params.max_rounds,
            interleave_depth: params.interleave_depth,
        };
        let report = download(&plan, Relevance::relevant(), &config, &mut link);
        total_time += report.response_time;
        total_packets += report.packets_sent;
        if let Some(ctl) = controller.as_mut() {
            // The client observed the per-packet fates; feed the round
            // summary back (corrupted ≈ sent − intact ≥ M useful ones).
            let corrupted = (report.packets_sent as f64 * params.alpha).round() as usize;
            ctl.observe_round(
                corrupted.min(report.packets_sent as usize),
                report.packets_sent as usize,
            );
            gamma = ctl.gamma(m).expect("valid plan");
        }
    }
    AdaptiveResult {
        mean_response_time: total_time / params.docs_per_session as f64,
        mean_packets: total_packets as f64 / params.docs_per_session as f64,
        final_gamma: gamma,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrtweb_transport::session::CacheMode;

    fn params(alpha: f64, cache: CacheMode) -> Params {
        Params {
            alpha,
            cache_mode: cache,
            irrelevant_fraction: 0.0,
            docs_per_session: 40,
            max_rounds: 200,
            ..Default::default()
        }
    }

    #[test]
    fn adaptive_converges_to_oracle_gamma() {
        let p = params(0.3, CacheMode::NoCaching);
        let adaptive = run_adaptive_session(
            &p,
            GammaPolicy::Adaptive {
                gain: 0.05,
                initial_alpha: 0.1,
            },
            5,
        );
        let oracle = run_adaptive_session(&p, GammaPolicy::Oracle, 5);
        assert!(
            (adaptive.final_gamma - oracle.final_gamma).abs() < 0.25,
            "adaptive γ {:.2} should approach oracle γ {:.2}",
            adaptive.final_gamma,
            oracle.final_gamma
        );
    }

    #[test]
    fn adaptive_beats_misconfigured_fixed_gamma_nocaching() {
        // The channel is much worse than the default assumes. The very
        // first document pays dearly (γ is still tuned for α = 0.1);
        // over a longer session the converged controller wins clearly.
        let p = Params {
            docs_per_session: 100,
            ..params(0.4, CacheMode::NoCaching)
        };
        let fixed = run_adaptive_session(&p, GammaPolicy::Fixed(1.5), 7);
        let adaptive = run_adaptive_session(
            &p,
            GammaPolicy::Adaptive {
                gain: 0.1,
                initial_alpha: 0.1,
            },
            7,
        );
        assert!(
            adaptive.mean_response_time < fixed.mean_response_time,
            "adaptive {:.2}s should beat fixed-1.5 {:.2}s at alpha=0.4 NoCaching",
            adaptive.mean_response_time,
            fixed.mean_response_time
        );
    }

    #[test]
    fn adaptive_saves_packets_on_clean_channels() {
        // The channel is much better than the default assumes: adaptive
        // shrinks γ toward 1 and transmits fewer packets per document.
        let p = params(0.02, CacheMode::NoCaching);
        let fixed = run_adaptive_session(&p, GammaPolicy::Fixed(1.5), 9);
        let adaptive = run_adaptive_session(
            &p,
            GammaPolicy::Adaptive {
                gain: 0.1,
                initial_alpha: 0.3,
            },
            9,
        );
        assert!(
            adaptive.final_gamma < 1.2,
            "γ should shrink, got {}",
            adaptive.final_gamma
        );
        // Caching-mode early termination makes packet counts equal; in
        // NoCaching a stalled round costs the full N, so expected packets
        // track γ. Mean packets should not exceed the fixed policy's.
        assert!(
            adaptive.mean_packets <= fixed.mean_packets * 1.05,
            "adaptive {:.1} pkts vs fixed {:.1} pkts",
            adaptive.mean_packets,
            fixed.mean_packets
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let p = params(0.2, CacheMode::Caching);
        let policy = GammaPolicy::Adaptive {
            gain: 0.05,
            initial_alpha: 0.1,
        };
        assert_eq!(
            run_adaptive_session(&p, policy, 3),
            run_adaptive_session(&p, policy, 3)
        );
    }
}
