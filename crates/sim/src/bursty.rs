//! Extension experiment: bursty corruption and block interleaving.
//!
//! The paper's channel corrupts packets independently; real fades come
//! in bursts. For the MDS dispersal code a burst cannot change *whether*
//! a document reconstructs — any `M` survivors suffice — so one might
//! reach for block interleaving, the classic burst remedy. The ablation
//! here shows interleaving is **counterproductive** for multi-resolution
//! transmission: early termination depends on the highest-content clear
//! packets arriving *first*, and interleaving defers them behind
//! low-content and redundancy packets. Protecting against the burst that
//! might hit the hot prefix costs more than the burst does in
//! expectation — content-descending order is load-bearing, which is
//! precisely the paper's point.

use mrtweb_channel::bandwidth::Bandwidth;
use mrtweb_channel::gilbert::GilbertElliott;
use mrtweb_channel::link::Link;
use mrtweb_docmodel::lod::Lod;
use mrtweb_transport::session::{download, Relevance, SessionConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::model::SimDocument;
use crate::params::Params;
use crate::stats::Summary;

/// One measured cell of the bursty/interleaving comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct BurstyPoint {
    /// Mean burst length (packets) of the Gilbert–Elliott channel.
    pub burst_len: f64,
    /// First-round interleaving depth (1 = off).
    pub interleave_depth: usize,
    /// Mean response time per (irrelevant) document.
    pub summary: Summary,
}

/// Runs one all-irrelevant browsing session over a bursty channel,
/// returning the mean response time.
pub fn run_bursty_session(params: &Params, burst_len: f64, lod: Lod, seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let loss = GilbertElliott::matched(params.alpha, burst_len, seed ^ 0xb00b);
    let mut link = Link::new(Bandwidth::from_kbps(params.bandwidth_kbps), loss, seed);
    let config = SessionConfig {
        packet_size: params.packet_size,
        overhead: params.overhead,
        gamma: params.gamma,
        cache_mode: params.cache_mode,
        max_rounds: params.max_rounds,
        interleave_depth: params.interleave_depth,
    };
    let mut total = 0.0;
    for _ in 0..params.docs_per_session {
        let doc = SimDocument::draw(params, &mut rng);
        let plan = doc.plan_at(lod);
        let report = download(
            &plan,
            Relevance::irrelevant(params.threshold),
            &config,
            &mut link,
        );
        total += report.response_time;
    }
    total / params.docs_per_session as f64
}

/// Sweeps burst length × interleaving depth at paragraph LOD.
pub fn bursty_comparison(params: &Params, reps: usize, base_seed: u64) -> Vec<BurstyPoint> {
    let mut out = Vec::new();
    for &burst_len in &[1.5, 8.0, 20.0] {
        for &depth in &[1usize, 12] {
            let p = Params {
                interleave_depth: depth,
                ..params.clone()
            };
            let means: Vec<f64> = (0..reps)
                .map(|r| {
                    run_bursty_session(
                        &p,
                        burst_len,
                        Lod::Paragraph,
                        base_seed.wrapping_add(r as u64 * 7907),
                    )
                })
                .collect();
            out.push(BurstyPoint {
                burst_len,
                interleave_depth: depth,
                summary: Summary::of(&means),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrtweb_transport::session::CacheMode;

    fn params() -> Params {
        Params {
            alpha: 0.2,
            cache_mode: CacheMode::Caching,
            irrelevant_fraction: 1.0,
            threshold: 0.3,
            docs_per_session: 40,
            max_rounds: 200,
            ..Default::default()
        }
    }

    #[test]
    fn comparison_produces_full_grid() {
        let p = Params {
            docs_per_session: 8,
            ..params()
        };
        let pts = bursty_comparison(&p, 2, 1);
        assert_eq!(pts.len(), 6);
        assert!(pts.iter().all(|pt| pt.summary.mean > 0.0));
    }

    #[test]
    fn interleaving_is_counterproductive_for_content_ordering() {
        // The pinned negative result: even under 20-packet bursts,
        // deferring the hot clear-text packets costs early termination
        // more than burst protection saves.
        let base = params();
        let mean = |depth: usize, reps: usize| {
            let p = Params {
                interleave_depth: depth,
                ..base.clone()
            };
            let vals: Vec<f64> = (0..reps)
                .map(|r| run_bursty_session(&p, 20.0, Lod::Paragraph, 100 + r as u64))
                .collect();
            vals.iter().sum::<f64>() / vals.len() as f64
        };
        let plain = mean(1, 6);
        let interleaved = mean(12, 6);
        assert!(
            plain < interleaved,
            "content-descending order should beat interleaved order \
             ({plain:.3}s vs {interleaved:.3}s)"
        );
    }

    #[test]
    fn bursts_do_not_change_reconstruction_time_much() {
        // For relevant documents (full reconstruction) the MDS property
        // makes burst length nearly irrelevant at equal long-run rate.
        let p = Params {
            irrelevant_fraction: 0.0,
            ..params()
        };
        let mean = |burst: f64| {
            let vals: Vec<f64> = (0..6)
                .map(|r| {
                    let rng_seed = 500 + r as u64;
                    let loss = GilbertElliott::matched(p.alpha, burst, rng_seed ^ 0xb00b);
                    let mut link =
                        Link::new(Bandwidth::from_kbps(p.bandwidth_kbps), loss, rng_seed);
                    let config = SessionConfig {
                        packet_size: p.packet_size,
                        overhead: p.overhead,
                        gamma: p.gamma,
                        cache_mode: p.cache_mode,
                        max_rounds: p.max_rounds,
                        interleave_depth: 1,
                    };
                    let mut rng = StdRng::seed_from_u64(rng_seed);
                    let mut total = 0.0;
                    for _ in 0..20 {
                        let doc = SimDocument::draw(&p, &mut rng);
                        let plan = doc.plan_at(Lod::Document);
                        total += download(&plan, Relevance::relevant(), &config, &mut link)
                            .response_time;
                    }
                    total / 20.0
                })
                .collect();
            vals.iter().sum::<f64>() / vals.len() as f64
        };
        let short = mean(1.5);
        let long = mean(20.0);
        assert!(
            (short - long).abs() / short < 0.25,
            "reconstruction time should be burst-insensitive ({short:.2}s vs {long:.2}s)"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let p = params();
        let a = run_bursty_session(&p, 8.0, Lod::Paragraph, 5);
        let b = run_bursty_session(&p, 8.0, Lod::Paragraph, 5);
        assert_eq!(a, b);
    }
}
