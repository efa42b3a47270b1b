//! Browsing sessions: the unit of measurement of §5.
//!
//! "Each simulated browsing session will visit 200 random documents,
//! with a certain percentage of documents, I, defined to be irrelevant.
//! Each irrelevant document will be discovered to be irrelevant by a
//! client after a total information content of F has been received. …
//! The mean response time taken to visit a document in a session is
//! measured."

use mrtweb_channel::bandwidth::Bandwidth;
use mrtweb_channel::bernoulli::BernoulliChannel;
use mrtweb_channel::link::Link;
use mrtweb_docmodel::lod::Lod;
use mrtweb_transport::session::{download, Outcome, Relevance, SessionConfig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::model::SimDocument;
use crate::params::Params;
use crate::stats::Summary;

/// What one browsing session measured.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionResult {
    /// Mean response time per document (seconds).
    pub mean_response_time: f64,
    /// Documents visited.
    pub docs: usize,
    /// Documents that exhausted the retry budget.
    pub failed: usize,
    /// Total packets pushed onto the wire.
    pub packets_sent: u64,
}

/// Runs one browsing session at the given LOD and parameters.
///
/// The session visits `params.docs_per_session` documents over a single
/// persistent lossy link; `⌊I·docs⌋` of them (at shuffled positions)
/// are irrelevant and judged so at content `F`.
pub fn run_session(params: &Params, lod: Lod, seed: u64) -> SessionResult {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut link = Link::new(
        Bandwidth::from_kbps(params.bandwidth_kbps),
        BernoulliChannel::new(params.alpha, seed ^ 0x9e37_79b9_7f4a_7c15),
        seed ^ 0x5851_f42d_4c95_7f2d,
    );
    let config = SessionConfig {
        packet_size: params.packet_size,
        overhead: params.overhead,
        gamma: params.gamma,
        cache_mode: params.cache_mode,
        max_rounds: params.max_rounds,
        interleave_depth: params.interleave_depth,
    };

    // Exactly ⌊I·docs⌋ irrelevant documents at shuffled positions.
    let docs = params.docs_per_session;
    let irrelevant_count = ((params.irrelevant_fraction * docs as f64).round() as usize).min(docs);
    let mut flags = vec![false; docs];
    for f in flags.iter_mut().take(irrelevant_count) {
        *f = true;
    }
    flags.shuffle(&mut rng);

    let mut total_time = 0.0;
    let mut failed = 0usize;
    let mut packets = 0u64;
    for &irrelevant in &flags {
        let doc = SimDocument::draw(params, &mut rng);
        let plan = doc.plan_at(lod);
        let relevance = if irrelevant {
            Relevance::irrelevant(params.threshold)
        } else {
            Relevance::relevant()
        };
        let report = download(&plan, relevance, &config, &mut link);
        total_time += report.response_time;
        packets += report.packets_sent;
        if report.outcome == Outcome::Failed {
            failed += 1;
        }
    }
    SessionResult {
        mean_response_time: total_time / docs as f64,
        docs,
        failed,
        packets_sent: packets,
    }
}

/// Repeats [`run_session`] `reps` times with distinct seeds and
/// summarizes the per-session mean response times — the quantity the
/// paper plots.
pub fn replicate(params: &Params, lod: Lod, reps: usize, base_seed: u64) -> Summary {
    let means: Vec<f64> = (0..reps)
        .map(|r| {
            run_session(params, lod, base_seed.wrapping_add(r as u64 * 7919)).mean_response_time
        })
        .collect();
    Summary::of(&means)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrtweb_transport::session::CacheMode;

    fn quick_params() -> Params {
        Params {
            docs_per_session: 30,
            max_rounds: 100,
            ..Default::default()
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let p = quick_params();
        let a = run_session(&p, Lod::Document, 11);
        let b = run_session(&p, Lod::Document, 11);
        assert_eq!(a, b);
        let c = run_session(&p, Lod::Document, 12);
        assert_ne!(a.mean_response_time, c.mean_response_time);
    }

    #[test]
    fn perfect_channel_matches_hand_math() {
        // α = 0, all relevant: every document needs exactly M = 40
        // packets of 260 bytes at 2400 B/s → 4.333 s.
        let p = Params {
            alpha: 0.0,
            irrelevant_fraction: 0.0,
            docs_per_session: 10,
            ..Default::default()
        };
        let r = run_session(&p, Lod::Document, 5);
        assert!((r.mean_response_time - 40.0 * 260.0 / 2400.0).abs() < 1e-9);
        assert_eq!(r.failed, 0);
        assert_eq!(r.packets_sent, 400);
    }

    #[test]
    fn irrelevant_docs_cut_response_time() {
        let base = Params {
            alpha: 0.0,
            docs_per_session: 40,
            ..Default::default()
        };
        let all_relevant = run_session(
            &Params {
                irrelevant_fraction: 0.0,
                ..base.clone()
            },
            Lod::Document,
            3,
        );
        let half_irrelevant = run_session(
            &Params {
                irrelevant_fraction: 0.5,
                ..base.clone()
            },
            Lod::Document,
            3,
        );
        assert!(
            half_irrelevant.mean_response_time < all_relevant.mean_response_time,
            "early termination must reduce mean response time"
        );
    }

    #[test]
    fn caching_never_slower_at_high_alpha() {
        let base = Params {
            alpha: 0.4,
            docs_per_session: 20,
            irrelevant_fraction: 0.0,
            ..Default::default()
        };
        let nc = replicate(
            &Params {
                cache_mode: CacheMode::NoCaching,
                ..base.clone()
            },
            Lod::Document,
            5,
            77,
        );
        let c = replicate(
            &Params {
                cache_mode: CacheMode::Caching,
                ..base.clone()
            },
            Lod::Document,
            5,
            77,
        );
        assert!(
            c.mean < nc.mean,
            "caching {:.2}s vs nocaching {:.2}s",
            c.mean,
            nc.mean
        );
    }

    #[test]
    fn finer_lod_speeds_up_irrelevant_browsing() {
        let p = Params {
            irrelevant_fraction: 1.0,
            threshold: 0.2,
            cache_mode: CacheMode::Caching,
            docs_per_session: 40,
            ..Default::default()
        };
        let doc_lod = replicate(&p, Lod::Document, 5, 13);
        let para_lod = replicate(&p, Lod::Paragraph, 5, 13);
        assert!(
            para_lod.mean < doc_lod.mean,
            "paragraph LOD {:.3}s should beat document LOD {:.3}s",
            para_lod.mean,
            doc_lod.mean
        );
    }

    #[test]
    fn replicate_reports_tight_spread() {
        // The paper observes 1–5% relative std; allow a looser bound for
        // our shorter sessions.
        let p = quick_params();
        let s = replicate(&p, Lod::Document, 10, 1);
        assert!(
            s.relative_std() < 0.25,
            "relative std {:.3}",
            s.relative_std()
        );
        assert_eq!(s.n, 10);
    }
}
