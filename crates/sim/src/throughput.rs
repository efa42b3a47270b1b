//! Throughput of multi-resolution browsing vs the traditional paradigm.
//!
//! The paper's discussion section (§6) says the authors "are also
//! conducting experiments to measure the throughput of our system in
//! browsing web documents when compared with traditional web browsing
//! paradigm". This module runs that experiment: *goodput* is defined as
//! information content usefully delivered per second of channel time —
//! for a relevant document, the whole unit of content; for an
//! irrelevant one, only the content the user had seen when they hit
//! stop (the rest of the bytes were wasted either way, but MRT stops
//! paying for them sooner).

use mrtweb_channel::bandwidth::Bandwidth;
use mrtweb_channel::bernoulli::BernoulliChannel;
use mrtweb_channel::link::Link;
use mrtweb_docmodel::lod::Lod;
use mrtweb_transport::session::{download, Relevance, SessionConfig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::model::SimDocument;
use crate::params::Params;
use crate::stats::Summary;

/// Throughput measurements for one configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThroughputResult {
    /// Useful content units delivered per second of channel time.
    pub goodput: f64,
    /// Raw content bytes delivered (relevant docs) per second.
    pub byte_goodput: f64,
    /// Fraction of transmitted packets that ended up useful.
    pub efficiency: f64,
}

/// Measures session goodput at the given LOD.
pub fn measure_throughput(params: &Params, lod: Lod, seed: u64) -> ThroughputResult {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut link = Link::new(
        Bandwidth::from_kbps(params.bandwidth_kbps),
        BernoulliChannel::new(params.alpha, seed ^ 0xabcdef),
        seed,
    );
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

    let mut useful_content = 0.0;
    let mut useful_bytes = 0.0;
    let mut total_time = 0.0;
    let mut useful_packets = 0u64;
    let mut total_packets = 0u64;
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
        total_packets += report.packets_sent;
        useful_content += report.content;
        if irrelevant {
            // Clear-text packets that contributed to the judgement.
            useful_packets += ((report.content * report.m as f64).round()) as u64;
        } else {
            useful_bytes += plan.total_bytes() as f64;
            useful_packets += report.m as u64;
        }
    }
    ThroughputResult {
        goodput: useful_content / total_time,
        byte_goodput: useful_bytes / total_time,
        efficiency: useful_packets as f64 / total_packets.max(1) as f64,
    }
}

/// Summarizes goodput over repetitions.
pub fn replicate_throughput(
    params: &Params,
    lod: Lod,
    reps: usize,
    base_seed: u64,
) -> (Summary, Summary) {
    let mut goodputs = Vec::with_capacity(reps);
    let mut efficiencies = Vec::with_capacity(reps);
    for r in 0..reps {
        let t = measure_throughput(params, lod, base_seed.wrapping_add(r as u64 * 6271));
        goodputs.push(t.goodput);
        efficiencies.push(t.efficiency);
    }
    (Summary::of(&goodputs), Summary::of(&efficiencies))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrtweb_transport::session::CacheMode;

    fn params() -> Params {
        Params {
            docs_per_session: 30,
            cache_mode: CacheMode::Caching,
            max_rounds: 80,
            ..Default::default()
        }
    }

    #[test]
    fn mrt_beats_traditional_goodput_with_irrelevant_docs() {
        let p = Params {
            irrelevant_fraction: 0.7,
            threshold: 0.3,
            ..params()
        };
        let (doc_g, _) = replicate_throughput(&p, Lod::Document, 5, 3);
        let (para_g, _) = replicate_throughput(&p, Lod::Paragraph, 5, 3);
        assert!(
            para_g.mean > doc_g.mean,
            "paragraph goodput {:.4} should beat document goodput {:.4}",
            para_g.mean,
            doc_g.mean
        );
    }

    #[test]
    fn all_relevant_docs_show_no_ordering_advantage() {
        let p = Params {
            irrelevant_fraction: 0.0,
            ..params()
        };
        let (doc_g, _) = replicate_throughput(&p, Lod::Document, 4, 5);
        let (para_g, _) = replicate_throughput(&p, Lod::Paragraph, 4, 5);
        // Full downloads need M intact packets regardless of order.
        assert!(
            (doc_g.mean - para_g.mean).abs() / doc_g.mean < 0.05,
            "ordering should not matter for full downloads ({:.4} vs {:.4})",
            doc_g.mean,
            para_g.mean
        );
    }

    #[test]
    fn goodput_falls_with_alpha() {
        let lo = measure_throughput(
            &Params {
                alpha: 0.1,
                ..params()
            },
            Lod::Paragraph,
            9,
        );
        let hi = measure_throughput(
            &Params {
                alpha: 0.5,
                ..params()
            },
            Lod::Paragraph,
            9,
        );
        assert!(lo.goodput > hi.goodput);
        assert!(lo.efficiency > hi.efficiency);
    }

    #[test]
    fn efficiency_is_a_fraction() {
        let t = measure_throughput(&params(), Lod::Section, 11);
        assert!(t.efficiency > 0.0 && t.efficiency <= 1.0);
        assert!(t.goodput > 0.0);
        assert!(t.byte_goodput > 0.0);
    }
}
