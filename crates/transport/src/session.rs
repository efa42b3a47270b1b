//! A complete document download over a lossy link.
//!
//! Orchestrates the §4.2 protocol: send `N = max(M, round(γ·M))`
//! cooked packets ([`cooked_packets`]) in QIC order, let the client
//! discard corrupted ones, terminate when (1) `M` distinct intact
//! packets allow reconstruction, (2) the user
//! judges the document irrelevant after accruing content `F` and hits
//! "stop", or (3) the round ends *stalled* — in which case the document
//! is retransmitted from scratch (**NoCaching**, the default HTTP
//! behaviour) or topped up from the client's packet cache (**Caching**).

use mrtweb_channel::link::Link;
use mrtweb_channel::loss::LossModel;
use mrtweb_erasure::redundancy::cooked_packets;
use serde::{Deserialize, Serialize};

use crate::plan::TransmissionPlan;
use crate::receiver::ReceiverState;

/// Whether the client caches intact cooked packets across stalls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CacheMode {
    /// Stall → reload from scratch (the paper's *NoCaching*).
    NoCaching,
    /// Stall → keep intact packets, request only missing ones
    /// (the paper's *Caching*).
    Caching,
}

/// How the download ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Outcome {
    /// `M` distinct intact packets arrived; the document reconstructs.
    Completed,
    /// The user judged the document irrelevant (content ≥ F) and hit
    /// "stop".
    StoppedIrrelevant,
    /// The retry budget was exhausted without completing.
    Failed,
}

/// The user-relevance model of the paper's simulation: a document is
/// either relevant (downloaded to its entirety) or irrelevant
/// (discarded once accrued content reaches the threshold `F`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Relevance {
    /// Whether the user will discard this document.
    pub irrelevant: bool,
    /// Information content `F` needed to make the judgement.
    pub threshold: f64,
}

impl Relevance {
    /// A relevant document (downloaded in full).
    pub fn relevant() -> Self {
        Relevance {
            irrelevant: false,
            threshold: 0.0,
        }
    }

    /// An irrelevant document discarded at content `threshold`.
    pub fn irrelevant(threshold: f64) -> Self {
        Relevance {
            irrelevant: true,
            threshold,
        }
    }
}

/// Protocol parameters (defaults are the paper's Table 2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionConfig {
    /// Raw bytes per packet (`s_p`, default 256).
    pub packet_size: usize,
    /// Per-packet overhead on the wire (`O`, CRC + sequence, default 4).
    pub overhead: usize,
    /// Redundancy ratio `γ = N/M` (default 1.5).
    pub gamma: f64,
    /// Client caching behaviour across stalled rounds.
    pub cache_mode: CacheMode,
    /// Retry budget: maximum transmission rounds before giving up.
    pub max_rounds: usize,
    /// Block-interleaving depth for the first round (1 = off). For an
    /// MDS dispersal code interleaving cannot change *reconstruction*
    /// time — any `M` survivors suffice — but it protects progressive
    /// content accrual (and thus early termination) against loss
    /// bursts, at the cost of delaying the high-content clear packets.
    pub interleave_depth: usize,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            packet_size: 256,
            overhead: 4,
            gamma: 1.5,
            cache_mode: CacheMode::NoCaching,
            max_rounds: 100_000,
            interleave_depth: 1,
        }
    }
}

impl SessionConfig {
    /// Cooked packets `N = round(γ·M)`, at least `M`.
    pub fn cooked_packets(&self, m: usize) -> usize {
        cooked_packets(m, self.gamma)
    }

    /// Bytes of one frame on the wire.
    pub fn frame_bytes(&self) -> usize {
        self.packet_size + self.overhead
    }
}

/// What a finished download looked like.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DownloadReport {
    /// How the download ended.
    pub outcome: Outcome,
    /// Seconds from first packet to termination.
    pub response_time: f64,
    /// Transmission rounds used (1 = no stall).
    pub rounds: usize,
    /// Total packets pushed onto the wire.
    pub packets_sent: u64,
    /// Information content available at termination.
    pub content: f64,
    /// Raw packets `M`.
    pub m: usize,
    /// Cooked packets `N`.
    pub n: usize,
}

/// Downloads one document described by `plan` over `link`.
///
/// The link's clock keeps running across calls, modelling a browsing
/// session; the report's `response_time` is relative to the call start.
///
/// # Example
///
/// ```
/// use mrtweb_channel::bandwidth::Bandwidth;
/// use mrtweb_channel::link::Link;
/// use mrtweb_channel::loss::MaskLoss;
/// use mrtweb_transport::plan::{TransmissionPlan, UnitSlice};
/// use mrtweb_transport::session::{download, Relevance, SessionConfig};
///
/// let plan = TransmissionPlan::sequential(vec![UnitSlice::new("doc", 10240, 1.0)]);
/// let mut link = Link::new(Bandwidth::from_kbps(19.2), MaskLoss::perfect(), 0);
/// let report = download(&plan, Relevance::relevant(), &SessionConfig::default(), &mut link);
/// // Perfect channel: exactly M = 40 packets, ~4.33 s at 19.2 kbps.
/// assert_eq!(report.packets_sent, 40);
/// assert!((report.response_time - 40.0 * 260.0 / 2400.0).abs() < 1e-9);
/// ```
pub fn download<L: LossModel>(
    plan: &TransmissionPlan,
    relevance: Relevance,
    config: &SessionConfig,
    link: &mut Link<L>,
) -> DownloadReport {
    let start = link.now();
    let m = plan.raw_packets(config.packet_size);
    let n = config.cooked_packets(m);
    let mut state = ReceiverState::new(m, n, plan.packet_contents(config.packet_size));

    let finish = |state: &ReceiverState, outcome, rounds, link: &Link<L>| DownloadReport {
        outcome,
        response_time: link.now() - start,
        rounds,
        packets_sent: state.observed(),
        content: state.content(),
        m,
        n,
    };

    // The F = 0 point is artificial: the document is "not downloaded at
    // all" (paper §5.2).
    if relevance.irrelevant && relevance.threshold <= 0.0 {
        return finish(&state, Outcome::StoppedIrrelevant, 0, link);
    }

    let mut rounds = 0usize;
    loop {
        rounds += 1;
        if rounds > config.max_rounds {
            return finish(&state, Outcome::Failed, rounds - 1, link);
        }
        // Which cooked packets this round carries.
        let indices: Vec<usize> = if rounds == 1 {
            if config.interleave_depth > 1 {
                mrtweb_erasure::interleave::Interleaver::new(n, config.interleave_depth)
                    .into_order()
            } else {
                (0..n).collect()
            }
        } else {
            match config.cache_mode {
                CacheMode::NoCaching => {
                    state.reset_packets();
                    (0..n).collect()
                }
                CacheMode::Caching => state.missing(),
            }
        };
        for idx in indices {
            let delivery = link.send(config.frame_bytes());
            state.on_packet(idx, delivery.corrupted);
            if relevance.irrelevant && state.content() >= relevance.threshold {
                return finish(&state, Outcome::StoppedIrrelevant, rounds, link);
            }
            if state.is_complete() {
                return finish(&state, Outcome::Completed, rounds, link);
            }
        }
        // Round over without termination: stalled; loop retransmits.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::UnitSlice;
    use mrtweb_channel::bandwidth::Bandwidth;
    use mrtweb_channel::bernoulli::BernoulliChannel;
    use mrtweb_channel::loss::MaskLoss;

    fn doc_plan() -> TransmissionPlan {
        TransmissionPlan::sequential(vec![UnitSlice::new("doc", 10240, 1.0)])
    }

    fn link_with_mask(mask: Vec<bool>) -> Link<MaskLoss> {
        Link::new(Bandwidth::from_kbps(19.2), MaskLoss::new(mask), 0)
    }

    #[test]
    fn perfect_channel_takes_exactly_m_packets() {
        let mut link = link_with_mask(Vec::new());
        let r = download(
            &doc_plan(),
            Relevance::relevant(),
            &SessionConfig::default(),
            &mut link,
        );
        assert_eq!(r.outcome, Outcome::Completed);
        assert_eq!(r.packets_sent, 40);
        assert_eq!(r.rounds, 1);
        assert_eq!(r.m, 40);
        assert_eq!(r.n, 60);
        assert_eq!(r.content, 1.0);
    }

    #[test]
    fn corruption_delays_completion_via_redundancy() {
        // Corrupt the first 5 packets; completion needs 45 packets.
        let mut link = link_with_mask(vec![true; 5]);
        let r = download(
            &doc_plan(),
            Relevance::relevant(),
            &SessionConfig::default(),
            &mut link,
        );
        assert_eq!(r.outcome, Outcome::Completed);
        assert_eq!(r.packets_sent, 45);
        assert_eq!(r.rounds, 1);
    }

    #[test]
    fn irrelevant_doc_stops_early() {
        let mut link = link_with_mask(Vec::new());
        let r = download(
            &doc_plan(),
            Relevance::irrelevant(0.5),
            &SessionConfig::default(),
            &mut link,
        );
        assert_eq!(r.outcome, Outcome::StoppedIrrelevant);
        // Uniform content: half the clear packets suffice.
        assert_eq!(r.packets_sent, 20);
        assert!(r.content >= 0.5);
    }

    #[test]
    fn f_zero_is_free() {
        let mut link = link_with_mask(Vec::new());
        let r = download(
            &doc_plan(),
            Relevance::irrelevant(0.0),
            &SessionConfig::default(),
            &mut link,
        );
        assert_eq!(r.packets_sent, 0);
        assert_eq!(r.response_time, 0.0);
        assert_eq!(r.rounds, 0);
    }

    #[test]
    fn stall_then_nocaching_restarts_from_scratch() {
        // Round 1: corrupt 21 of 60 packets -> only 39 intact, stalled.
        // Round 2: clean -> completes after 40 packets of round 2.
        let mut mask = vec![false; 60];
        for slot in mask.iter_mut().take(21) {
            *slot = true;
        }
        let mut link = link_with_mask(mask);
        let r = download(
            &doc_plan(),
            Relevance::relevant(),
            &SessionConfig::default(),
            &mut link,
        );
        assert_eq!(r.outcome, Outcome::Completed);
        assert_eq!(r.rounds, 2);
        // 60 (stalled round) + 40 (fresh round, needs M intact).
        assert_eq!(r.packets_sent, 100);
    }

    #[test]
    fn stall_then_caching_tops_up() {
        let mut mask = vec![false; 60];
        for slot in mask.iter_mut().take(21) {
            *slot = true;
        }
        let mut link = link_with_mask(mask);
        let config = SessionConfig {
            cache_mode: CacheMode::Caching,
            ..Default::default()
        };
        let r = download(&doc_plan(), Relevance::relevant(), &config, &mut link);
        assert_eq!(r.outcome, Outcome::Completed);
        assert_eq!(r.rounds, 2);
        // Round 1: 60 packets, 39 intact. Round 2 resends the 21
        // missing; the first intact one completes.
        assert_eq!(r.packets_sent, 61);
    }

    #[test]
    fn caching_beats_nocaching_on_bad_channels() {
        let plan = doc_plan();
        let mk = |mode| SessionConfig {
            cache_mode: mode,
            ..Default::default()
        };
        let mut sum_nocache = 0.0;
        let mut sum_cache = 0.0;
        for seed in 0..20 {
            let mut link = Link::new(
                Bandwidth::from_kbps(19.2),
                BernoulliChannel::new(0.4, seed),
                0,
            );
            sum_nocache += download(
                &plan,
                Relevance::relevant(),
                &mk(CacheMode::NoCaching),
                &mut link,
            )
            .response_time;
            let mut link = Link::new(
                Bandwidth::from_kbps(19.2),
                BernoulliChannel::new(0.4, seed),
                0,
            );
            sum_cache += download(
                &plan,
                Relevance::relevant(),
                &mk(CacheMode::Caching),
                &mut link,
            )
            .response_time;
        }
        assert!(
            sum_cache < sum_nocache,
            "caching ({sum_cache:.1}s) should beat nocaching ({sum_nocache:.1}s) at alpha=0.4"
        );
    }

    #[test]
    fn ranked_plan_reaches_threshold_faster() {
        // 20 paragraphs, content skewed toward a few units.
        let mut slices = Vec::new();
        for i in 0..20 {
            let content = if i < 4 { 0.2 } else { 0.2 / 16.0 };
            slices.push(UnitSlice::new(format!("p{i}"), 512, content));
        }
        // Sequential leaves hot units scattered; put them at the END to
        // model the worst case for conventional transmission.
        let seq = TransmissionPlan::sequential({
            let mut v = slices.clone();
            v.reverse();
            v
        });
        let ranked = TransmissionPlan::ranked(slices);
        let cfg = SessionConfig::default();
        let mut link = link_with_mask(Vec::new());
        let t_seq = download(&seq, Relevance::irrelevant(0.5), &cfg, &mut link).response_time;
        let mut link = link_with_mask(Vec::new());
        let t_ranked = download(&ranked, Relevance::irrelevant(0.5), &cfg, &mut link).response_time;
        assert!(
            t_ranked < t_seq,
            "ranked ({t_ranked:.2}s) must beat sequential ({t_seq:.2}s)"
        );
    }

    #[test]
    fn interleaving_preserves_completion_semantics() {
        // For relevant documents, interleaving must not change whether
        // or when reconstruction happens on a perfect channel (exactly
        // M packets either way).
        let cfg = SessionConfig {
            interleave_depth: 10,
            ..Default::default()
        };
        let mut link = link_with_mask(Vec::new());
        let r = download(&doc_plan(), Relevance::relevant(), &cfg, &mut link);
        assert_eq!(r.outcome, Outcome::Completed);
        assert_eq!(r.packets_sent, 40);
    }

    #[test]
    fn interleaving_softens_burst_damage_to_early_content() {
        // A burst wiping the first 12 transmission slots: without
        // interleaving that is exactly the highest-content clear
        // packets; with depth-12 interleaving the burst lands on
        // packets spread across the sequence space.
        let ranked: Vec<UnitSlice> = (0..20)
            .map(|i| {
                let content = if i < 4 { 0.2 } else { 0.2 / 16.0 };
                UnitSlice::new(format!("p{i}"), 512, content)
            })
            .collect();
        let plan = TransmissionPlan::ranked(ranked);
        let mask: Vec<bool> = (0..60).map(|t| t < 12).collect();

        let run = |depth: usize| {
            let cfg = SessionConfig {
                interleave_depth: depth,
                cache_mode: CacheMode::Caching,
                ..Default::default()
            };
            let mut link = link_with_mask(mask.clone());
            download(&plan, Relevance::irrelevant(0.35), &cfg, &mut link).response_time
        };
        let serial = run(1);
        let interleaved = run(12);
        assert!(
            interleaved < serial,
            "interleaving should reach F sooner under a front burst \
             ({interleaved:.2}s vs {serial:.2}s)"
        );
    }

    #[test]
    fn always_corrupting_channel_fails_at_budget() {
        let mut link = link_with_mask(vec![true; 1_000_000]);
        let config = SessionConfig {
            max_rounds: 3,
            ..Default::default()
        };
        let r = download(&doc_plan(), Relevance::relevant(), &config, &mut link);
        assert_eq!(r.outcome, Outcome::Failed);
        assert_eq!(r.rounds, 3);
        assert_eq!(r.packets_sent, 180);
    }

    #[test]
    fn response_time_is_relative_to_call() {
        let mut link = link_with_mask(Vec::new());
        let cfg = SessionConfig::default();
        let r1 = download(&doc_plan(), Relevance::relevant(), &cfg, &mut link);
        let r2 = download(&doc_plan(), Relevance::relevant(), &cfg, &mut link);
        assert!((r1.response_time - r2.response_time).abs() < 1e-9);
        assert!(
            link.now() > r1.response_time,
            "link clock accumulates across documents"
        );
    }

    #[test]
    fn cooked_packet_rounding() {
        let cfg = SessionConfig {
            gamma: 1.1,
            ..Default::default()
        };
        assert_eq!(cfg.cooked_packets(40), 44);
        let cfg = SessionConfig {
            gamma: 1.0,
            ..Default::default()
        };
        assert_eq!(cfg.cooked_packets(40), 40);
        let cfg = SessionConfig {
            gamma: 2.5,
            ..Default::default()
        };
        assert_eq!(cfg.cooked_packets(40), 100);
    }
}
