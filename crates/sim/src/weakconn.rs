//! Extension experiment: browsing through disconnection windows.
//!
//! The paper's channel model is pure per-packet corruption; its title
//! phenomenon — *weak connectivity* — also includes whole outage
//! windows. This extension experiment reruns the Caching/NoCaching
//! comparison over an [`OutageChannel`] layered on the Bernoulli base,
//! quantifying how the client packet cache fares when losses arrive in
//! disconnection bursts rather than independently.

use mrtweb_channel::bandwidth::Bandwidth;
use mrtweb_channel::bernoulli::BernoulliChannel;
use mrtweb_channel::link::Link;
use mrtweb_channel::outage::OutageChannel;
use mrtweb_docmodel::lod::Lod;
use mrtweb_transport::session::{download, Outcome, Relevance, SessionConfig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::model::SimDocument;
use crate::params::Params;
use crate::stats::Summary;

/// Outage configuration layered on the base channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutageSpec {
    /// P(connected → disconnected) per packet.
    pub p_drop: f64,
    /// P(disconnected → connected) per packet.
    pub p_recover: f64,
}

impl OutageSpec {
    /// Mean outage length in packets.
    pub fn mean_outage(&self) -> f64 {
        1.0 / self.p_recover
    }

    /// Stationary fraction of packets inside outages.
    pub fn outage_fraction(&self) -> f64 {
        self.p_drop / (self.p_drop + self.p_recover)
    }
}

/// One browsing session over the outage channel; mirrors
/// [`crate::browsing::run_session`] with the composite loss model.
pub fn run_outage_session(
    params: &Params,
    outage: &OutageSpec,
    lod: Lod,
    seed: u64,
) -> (f64, usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let base = BernoulliChannel::new(params.alpha, seed ^ 0xfeed);
    let loss = OutageChannel::new(base, outage.p_drop, outage.p_recover, seed ^ 0xbeef);
    let mut link = Link::new(Bandwidth::from_kbps(params.bandwidth_kbps), loss, seed);
    let config = SessionConfig {
        packet_size: params.packet_size,
        overhead: params.overhead,
        gamma: params.gamma,
        cache_mode: params.cache_mode,
        max_rounds: params.max_rounds,
        interleave_depth: params.interleave_depth,
    };
    let docs = params.docs_per_session;
    let irrelevant_count = ((params.irrelevant_fraction * docs as f64).round() as usize).min(docs);
    let mut flags = vec![false; docs];
    for f in flags.iter_mut().take(irrelevant_count) {
        *f = true;
    }
    flags.shuffle(&mut rng);

    let mut total = 0.0;
    let mut failed = 0usize;
    for &irrelevant in &flags {
        let doc = SimDocument::draw(params, &mut rng);
        let plan = doc.plan_at(lod);
        let relevance = if irrelevant {
            Relevance::irrelevant(params.threshold)
        } else {
            Relevance::relevant()
        };
        let report = download(&plan, relevance, &config, &mut link);
        total += report.response_time;
        if report.outcome == Outcome::Failed {
            failed += 1;
        }
    }
    (total / docs as f64, failed)
}

/// Summarizes outage-session response times over repetitions.
pub fn replicate_outage(
    params: &Params,
    outage: &OutageSpec,
    lod: Lod,
    reps: usize,
    base_seed: u64,
) -> Summary {
    let means: Vec<f64> = (0..reps)
        .map(|r| {
            run_outage_session(
                params,
                outage,
                lod,
                base_seed.wrapping_add(r as u64 * 104729),
            )
            .0
        })
        .collect();
    Summary::of(&means)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrtweb_transport::session::CacheMode;

    fn params(cache: CacheMode) -> Params {
        Params {
            alpha: 0.05,
            cache_mode: cache,
            irrelevant_fraction: 0.0,
            docs_per_session: 20,
            max_rounds: 200,
            ..Default::default()
        }
    }

    #[test]
    fn outage_spec_derived_quantities() {
        let o = OutageSpec {
            p_drop: 0.01,
            p_recover: 0.04,
        };
        assert!((o.mean_outage() - 25.0).abs() < 1e-12);
        assert!((o.outage_fraction() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn outages_slow_sessions_down() {
        let o_none = OutageSpec {
            p_drop: 1e-12,
            p_recover: 1.0,
        };
        let o_heavy = OutageSpec {
            p_drop: 0.02,
            p_recover: 0.05,
        };
        let p = params(CacheMode::Caching);
        let clean = replicate_outage(&p, &o_none, Lod::Document, 3, 5);
        let stormy = replicate_outage(&p, &o_heavy, Lod::Document, 3, 5);
        assert!(
            stormy.mean > clean.mean * 1.1,
            "outages should slow sessions ({:.2} vs {:.2})",
            stormy.mean,
            clean.mean
        );
    }

    #[test]
    fn caching_helps_under_outages_too() {
        let o = OutageSpec {
            p_drop: 0.02,
            p_recover: 0.05,
        };
        let nc = replicate_outage(&params(CacheMode::NoCaching), &o, Lod::Document, 3, 9);
        let c = replicate_outage(&params(CacheMode::Caching), &o, Lod::Document, 3, 9);
        assert!(
            c.mean < nc.mean,
            "caching {:.2}s vs nocaching {:.2}s",
            c.mean,
            nc.mean
        );
    }

    #[test]
    fn sessions_are_deterministic() {
        let o = OutageSpec {
            p_drop: 0.01,
            p_recover: 0.1,
        };
        let p = params(CacheMode::Caching);
        let a = run_outage_session(&p, &o, Lod::Paragraph, 42);
        let b = run_outage_session(&p, &o, Lod::Paragraph, 42);
        assert_eq!(a, b);
    }
}
