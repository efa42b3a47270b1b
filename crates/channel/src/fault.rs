//! Deterministic fault injection for the transport stack.
//!
//! The paper's channel model (§4.1) reduces weak connectivity to
//! independent per-packet corruption; the systems it motivates must
//! survive much uglier behaviour — bit flips, burst damage, whole-frame
//! garbling, silent drops, duplication, reordering, truncation, and
//! timed outage windows. This module provides a *seed-driven fault
//! scheduler* that draws one [`FaultKind`] per transmitted packet from
//! a [`FaultConfig`] mix, logs every decision to a replayable trace,
//! and applies the fault to real wire bytes via [`FaultyLink`] (or
//! abstractly, as a [`LossModel`], via [`ScheduledLoss`]).
//!
//! Determinism is the whole point: `(config, seed)` fixes the complete
//! fault schedule, so any failure a randomized sweep finds reproduces
//! with one command (`mrtweb faultrun --seed <s> --scenario <name>`),
//! and a recorded trace replays exactly via
//! [`FaultScheduler::from_events`].

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::link::Link;
use crate::loss::LossModel;

/// The fate drawn for one transmitted packet.
///
/// Variants carry the concrete parameters drawn at decision time, so a
/// logged trace contains everything needed to replay the exact same
/// mutation on the exact same bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The packet goes through untouched.
    Deliver,
    /// A single bit at absolute offset `bit` is flipped.
    FlipBit {
        /// Bit offset within the frame (`byte * 8 + bit_in_byte`).
        bit: usize,
    },
    /// A contiguous burst of bytes is XOR-damaged.
    Burst {
        /// First damaged byte.
        offset: usize,
        /// Number of damaged bytes.
        len: usize,
    },
    /// The whole frame is rewritten with pseudo-random bytes.
    Garble {
        /// Seed of the garbling stream (so replay regenerates the same
        /// garbage).
        seed: u64,
    },
    /// The frame is cut short.
    Truncate {
        /// Bytes that survive.
        len: usize,
    },
    /// The frame never arrives.
    Drop,
    /// The frame arrives twice.
    Duplicate,
    /// The frame is held back and delivered after `delay` later frames.
    Reorder {
        /// Packets that overtake this one.
        delay: usize,
    },
    /// The frame was swallowed by a disconnection window.
    Outage,
}

impl FaultKind {
    /// Whether this fault damages or destroys the packet (as opposed to
    /// merely delaying or repeating it).
    pub fn corrupts(&self) -> bool {
        !matches!(
            self,
            FaultKind::Deliver | FaultKind::Duplicate | FaultKind::Reorder { .. }
        )
    }

    /// Stable small integer for observability payloads (0 = deliver;
    /// the numbering matches the `fault-injected` trace event schema).
    pub fn code(&self) -> u8 {
        match self {
            FaultKind::Deliver => 0,
            FaultKind::FlipBit { .. } => 1,
            FaultKind::Burst { .. } => 2,
            FaultKind::Garble { .. } => 3,
            FaultKind::Truncate { .. } => 4,
            FaultKind::Drop => 5,
            FaultKind::Duplicate => 6,
            FaultKind::Reorder { .. } => 7,
            FaultKind::Outage => 8,
        }
    }

    /// Short stable name for traces and scenario output.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::Deliver => "deliver",
            FaultKind::FlipBit { .. } => "flip-bit",
            FaultKind::Burst { .. } => "burst",
            FaultKind::Garble { .. } => "garble",
            FaultKind::Truncate { .. } => "truncate",
            FaultKind::Drop => "drop",
            FaultKind::Duplicate => "duplicate",
            FaultKind::Reorder { .. } => "reorder",
            FaultKind::Outage => "outage",
        }
    }
}

/// One logged scheduler decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Zero-based index of the packet on the wire.
    pub packet: u64,
    /// The fate that was drawn.
    pub kind: FaultKind,
}

/// The fault mix: per-packet probabilities of each fault family plus
/// the outage process.
///
/// Probabilities are evaluated in a fixed order (flip, burst, garble,
/// truncate, drop, duplicate, reorder) against one uniform draw, so
/// their sum must stay ≤ 1; the remainder is a clean delivery. An
/// active outage window overrides the mix: every packet inside one is
/// [`FaultKind::Outage`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// P(single-bit flip).
    pub p_flip: f64,
    /// P(multi-byte burst damage).
    pub p_burst: f64,
    /// P(whole-frame garble).
    pub p_garble: f64,
    /// P(truncation).
    pub p_truncate: f64,
    /// P(silent drop).
    pub p_drop: f64,
    /// P(duplication).
    pub p_duplicate: f64,
    /// P(reordering).
    pub p_reorder: f64,
    /// Longest burst in bytes (clamped to the frame).
    pub max_burst_bytes: usize,
    /// Longest reorder delay in packets.
    pub max_reorder_delay: usize,
    /// P(connected → outage) per packet.
    pub p_outage_start: f64,
    /// P(outage → connected) per packet.
    pub p_outage_end: f64,
}

impl FaultConfig {
    /// No faults at all (the control arm).
    pub fn clean() -> Self {
        FaultConfig {
            p_flip: 0.0,
            p_burst: 0.0,
            p_garble: 0.0,
            p_truncate: 0.0,
            p_drop: 0.0,
            p_duplicate: 0.0,
            p_reorder: 0.0,
            max_burst_bytes: 8,
            max_reorder_delay: 4,
            p_outage_start: 0.0,
            p_outage_end: 1.0,
        }
    }

    /// Pure detectable corruption (bit flips) at rate `p` — the
    /// fault-schedule analogue of the paper's Bernoulli channel.
    ///
    /// # Panics
    ///
    /// Panics unless `p ∈ [0, 1]`.
    pub fn corrupting(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "p must be in [0, 1], got {p}");
        FaultConfig {
            p_flip: p,
            ..FaultConfig::clean()
        }
    }

    /// Burst-heavy damage: frequent multi-byte bursts plus occasional
    /// garbles, the wire-level picture of a fading channel.
    pub fn bursty() -> Self {
        FaultConfig {
            p_burst: 0.2,
            p_garble: 0.05,
            max_burst_bytes: 48,
            ..FaultConfig::clean()
        }
    }

    /// Light background corruption plus outage windows averaging
    /// `1 / p_outage_end` packets — the paper's "occasional
    /// disconnection during transmission".
    pub fn outage_heavy() -> Self {
        FaultConfig {
            p_flip: 0.05,
            p_outage_start: 0.02,
            p_outage_end: 0.08,
            ..FaultConfig::clean()
        }
    }

    /// Everything at once at moderate rates: the adversarial mix for
    /// robustness sweeps.
    pub fn mixed() -> Self {
        FaultConfig {
            p_flip: 0.08,
            p_burst: 0.05,
            p_garble: 0.03,
            p_truncate: 0.04,
            p_drop: 0.08,
            p_duplicate: 0.05,
            p_reorder: 0.05,
            max_burst_bytes: 32,
            max_reorder_delay: 6,
            p_outage_start: 0.004,
            p_outage_end: 0.2,
        }
    }

    /// Garble/truncate-heavy: stress for CRC detection and framing.
    pub fn garbling() -> Self {
        FaultConfig {
            p_garble: 0.2,
            p_truncate: 0.1,
            ..FaultConfig::clean()
        }
    }

    /// Drop-storm: heavy silent loss, the worst case for ARQ repair.
    pub fn dropping(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "p must be in [0, 1], got {p}");
        FaultConfig {
            p_drop: p,
            ..FaultConfig::clean()
        }
    }

    /// Sum of the per-packet fault probabilities (outside outages).
    pub fn fault_mass(&self) -> f64 {
        self.p_flip
            + self.p_burst
            + self.p_garble
            + self.p_truncate
            + self.p_drop
            + self.p_duplicate
            + self.p_reorder
    }

    /// Validates the mix.
    ///
    /// # Panics
    ///
    /// Panics if any probability is outside `[0, 1]`, the fault mass
    /// exceeds 1, or an outage can start but never end.
    pub fn validate(&self) {
        for (name, p) in [
            ("p_flip", self.p_flip),
            ("p_burst", self.p_burst),
            ("p_garble", self.p_garble),
            ("p_truncate", self.p_truncate),
            ("p_drop", self.p_drop),
            ("p_duplicate", self.p_duplicate),
            ("p_reorder", self.p_reorder),
            ("p_outage_start", self.p_outage_start),
            ("p_outage_end", self.p_outage_end),
        ] {
            assert!(
                (0.0..=1.0).contains(&p),
                "{name} must be in [0, 1], got {p}"
            );
        }
        assert!(
            self.fault_mass() <= 1.0 + 1e-12,
            "fault probabilities sum to {} > 1",
            self.fault_mass()
        );
        assert!(
            self.p_outage_start == 0.0 || self.p_outage_end > 0.0,
            "an outage that can start must be able to end"
        );
    }

    /// Long-run fraction of packets that are corrupted or lost — the
    /// effective `α` this schedule presents to redundancy planning.
    pub fn long_run_rate(&self) -> f64 {
        let p_out = if self.p_outage_start == 0.0 {
            0.0
        } else {
            self.p_outage_start / (self.p_outage_start + self.p_outage_end)
        };
        let damaging = self.p_flip + self.p_burst + self.p_garble + self.p_truncate + self.p_drop;
        p_out + (1.0 - p_out) * damaging
    }
}

/// Seed-driven per-packet fault scheduler with a replayable trace.
///
/// # Example
///
/// ```
/// use mrtweb_channel::fault::{FaultConfig, FaultKind, FaultScheduler};
///
/// let mut sched = FaultScheduler::new(FaultConfig::mixed(), 7);
/// let fates: Vec<FaultKind> = (0..100).map(|_| sched.next_kind(260)).collect();
///
/// // The trace replays the identical schedule.
/// let mut replay = FaultScheduler::from_events(sched.trace());
/// let again: Vec<FaultKind> = (0..100).map(|_| replay.next_kind(260)).collect();
/// assert_eq!(fates, again);
/// ```
#[derive(Debug, Clone)]
pub struct FaultScheduler {
    cfg: FaultConfig,
    rng: StdRng,
    in_outage: bool,
    next_packet: u64,
    trace: Vec<FaultEvent>,
    /// When replaying, the scripted fates (sparse: packet → kind).
    script: Option<Vec<FaultEvent>>,
}

impl FaultScheduler {
    /// Creates a scheduler drawing from `cfg` with a deterministic seed.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`FaultConfig::validate`].
    pub fn new(cfg: FaultConfig, seed: u64) -> Self {
        cfg.validate();
        FaultScheduler {
            cfg,
            rng: StdRng::seed_from_u64(seed ^ 0xFA01_7FA0_17FA_017F),
            in_outage: false,
            next_packet: 0,
            trace: Vec::new(),
            script: None,
        }
    }

    /// Creates a scheduler that replays a recorded trace verbatim:
    /// packets present in `events` get the logged fate, all others are
    /// delivered clean.
    pub fn from_events(events: &[FaultEvent]) -> Self {
        let mut script: Vec<FaultEvent> = events
            .iter()
            .copied()
            .filter(|e| e.kind != FaultKind::Deliver)
            .collect();
        script.sort_by_key(|e| e.packet);
        FaultScheduler {
            cfg: FaultConfig::clean(),
            rng: StdRng::seed_from_u64(0),
            in_outage: false,
            next_packet: 0,
            trace: Vec::new(),
            script: Some(script),
        }
    }

    /// The configured mix.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// The log of every non-clean decision, in packet order.
    pub fn trace(&self) -> &[FaultEvent] {
        &self.trace
    }

    /// Consumes the scheduler, returning its trace.
    pub fn into_trace(self) -> Vec<FaultEvent> {
        self.trace
    }

    /// Draws the fate of the next packet of `frame_len` bytes, logging
    /// any non-clean decision.
    pub fn next_kind(&mut self, frame_len: usize) -> FaultKind {
        let packet = self.next_packet;
        self.next_packet += 1;
        let kind = if let Some(script) = &self.script {
            match script.binary_search_by_key(&packet, |e| e.packet) {
                Ok(i) => script[i].kind,
                Err(_) => FaultKind::Deliver,
            }
        } else {
            self.draw_kind(frame_len)
        };
        if kind != FaultKind::Deliver {
            self.trace.push(FaultEvent { packet, kind });
        }
        kind
    }

    fn draw_kind(&mut self, frame_len: usize) -> FaultKind {
        // Outage state machine first: inside a window every packet dies.
        if self.cfg.p_outage_start > 0.0 {
            let flip = if self.in_outage {
                self.rng.random_bool(self.cfg.p_outage_end)
            } else {
                self.rng.random_bool(self.cfg.p_outage_start)
            };
            if flip {
                self.in_outage = !self.in_outage;
            }
            if self.in_outage {
                return FaultKind::Outage;
            }
        }
        if self.cfg.fault_mass() == 0.0 {
            return FaultKind::Deliver;
        }
        let u: f64 = self.rng.random_range(0.0..1.0);
        let mut edge = self.cfg.p_flip;
        if u < edge {
            let bits = (frame_len * 8).max(1);
            return FaultKind::FlipBit {
                bit: self.rng.random_range(0..bits),
            };
        }
        edge += self.cfg.p_burst;
        if u < edge {
            let max_len = self.cfg.max_burst_bytes.clamp(1, frame_len.max(1));
            let len = self.rng.random_range(1..=max_len);
            let offset = self
                .rng
                .random_range(0..frame_len.max(1).saturating_sub(len - 1));
            return FaultKind::Burst { offset, len };
        }
        edge += self.cfg.p_garble;
        if u < edge {
            return FaultKind::Garble {
                seed: self.rng.random_range(0..u64::MAX),
            };
        }
        edge += self.cfg.p_truncate;
        if u < edge {
            return FaultKind::Truncate {
                len: self.rng.random_range(0..frame_len.max(1)),
            };
        }
        edge += self.cfg.p_drop;
        if u < edge {
            return FaultKind::Drop;
        }
        edge += self.cfg.p_duplicate;
        if u < edge {
            return FaultKind::Duplicate;
        }
        edge += self.cfg.p_reorder;
        if u < edge {
            return FaultKind::Reorder {
                delay: self.rng.random_range(1..=self.cfg.max_reorder_delay.max(1)),
            };
        }
        FaultKind::Deliver
    }
}

/// Applies a drawn fault to a wire buffer in place.
///
/// [`FaultKind::Drop`], [`FaultKind::Outage`], [`FaultKind::Duplicate`]
/// and [`FaultKind::Reorder`] do not change bytes (the caller handles
/// delivery multiplicity); the corrupting kinds mutate deterministically
/// from the parameters recorded in the kind itself.
pub fn apply_fault(kind: FaultKind, data: &mut Vec<u8>) {
    match kind {
        FaultKind::Deliver
        | FaultKind::Drop
        | FaultKind::Outage
        | FaultKind::Duplicate
        | FaultKind::Reorder { .. } => {}
        FaultKind::FlipBit { bit } => {
            if !data.is_empty() {
                let byte = (bit / 8) % data.len();
                data[byte] ^= 1u8 << (bit % 8);
            }
        }
        FaultKind::Burst { offset, len } => {
            if !data.is_empty() {
                let start = offset.min(data.len() - 1);
                let end = (start + len.max(1)).min(data.len());
                // XOR with a fixed pattern: guaranteed to change every
                // byte in the burst (0x5A has no zero byte).
                for b in &mut data[start..end] {
                    *b ^= 0x5A;
                }
            }
        }
        FaultKind::Garble { seed } => {
            let mut rng = StdRng::seed_from_u64(seed);
            for b in data.iter_mut() {
                *b = rng.random_range(0..=255u32) as u8;
            }
        }
        FaultKind::Truncate { len } => {
            data.truncate(len.min(data.len()));
        }
    }
}

/// Renders a trace for humans: one line per fault plus a summary.
pub fn render_trace(events: &[FaultEvent]) -> String {
    use std::collections::BTreeMap;
    use std::fmt::Write as _;
    let mut out = String::new();
    let mut counts: BTreeMap<&'static str, usize> = BTreeMap::new();
    for e in events {
        *counts.entry(e.kind.label()).or_insert(0) += 1;
        let _ = writeln!(out, "  packet {:>6}: {:?}", e.packet, e.kind);
    }
    let _ = write!(out, "  total {} fault(s):", events.len());
    for (label, n) in counts {
        let _ = write!(out, " {label}={n}");
    }
    out.push('\n');
    out
}

/// A [`LossModel`] view of a fault schedule, for the abstract
/// (packet-count) simulation layers.
///
/// Every corrupting fate (flip, burst, garble, truncate, drop, outage)
/// is reported as a corrupted packet; duplication and reordering do not
/// exist at this abstraction level and count as clean deliveries. Two
/// models built from the same `(config, seed)` replay the identical
/// schedule — exactly what comparative experiments (Caching vs
/// NoCaching over the *same* channel) need.
///
/// # Example
///
/// ```
/// use mrtweb_channel::fault::{FaultConfig, ScheduledLoss};
/// use mrtweb_channel::loss::LossModel;
///
/// let mut a = ScheduledLoss::new(FaultConfig::mixed(), 3);
/// let mut b = ScheduledLoss::new(FaultConfig::mixed(), 3);
/// for _ in 0..500 {
///     assert_eq!(a.next_corrupted(), b.next_corrupted());
/// }
/// ```
#[derive(Debug, Clone)]
pub struct ScheduledLoss {
    sched: FaultScheduler,
    nominal_frame: usize,
}

impl ScheduledLoss {
    /// Builds the model over a fresh scheduler; fault parameters are
    /// drawn for a nominal 260-byte frame (the paper's wire size).
    pub fn new(cfg: FaultConfig, seed: u64) -> Self {
        ScheduledLoss {
            sched: FaultScheduler::new(cfg, seed),
            nominal_frame: 260,
        }
    }

    /// The underlying scheduler (for trace extraction).
    pub fn scheduler(&self) -> &FaultScheduler {
        &self.sched
    }
}

impl LossModel for ScheduledLoss {
    fn next_corrupted(&mut self) -> bool {
        self.sched.next_kind(self.nominal_frame).corrupts()
    }

    fn long_run_rate(&self) -> f64 {
        self.sched.config().long_run_rate()
    }
}

/// One buffer delivered by [`FaultyLink::transmit`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultedDelivery {
    /// The (possibly mutated, possibly truncated) wire bytes.
    pub bytes: Vec<u8>,
    /// Virtual arrival time.
    pub arrival_time: f64,
    /// Whether the scheduler tampered with this buffer.
    pub tampered: bool,
}

/// A [`Link`] wrapped with a fault scheduler, delivering zero, one or
/// two buffers per send and re-emitting held (reordered) frames.
///
/// The base link's own loss model still applies first (its corruption
/// composes with scheduled faults), then the scheduler decides the
/// frame's structural fate.
///
/// # Example
///
/// ```
/// use mrtweb_channel::bandwidth::Bandwidth;
/// use mrtweb_channel::fault::{FaultConfig, FaultyLink};
/// use mrtweb_channel::link::Link;
/// use mrtweb_channel::loss::MaskLoss;
///
/// let link = Link::new(Bandwidth::from_kbps(19.2), MaskLoss::perfect(), 0);
/// let mut faulty = FaultyLink::new(link, FaultConfig::clean(), 1);
/// let out = faulty.transmit(&[1, 2, 3, 4]);
/// assert_eq!(out.len(), 1);
/// assert_eq!(out[0].bytes, vec![1, 2, 3, 4]);
/// ```
#[derive(Debug)]
pub struct FaultyLink<L> {
    link: Link<L>,
    sched: FaultScheduler,
    /// Held-back frames: `(packets still to overtake, bytes)`.
    held: VecDeque<(usize, Vec<u8>)>,
}

impl<L: LossModel> FaultyLink<L> {
    /// Wraps `link` with a scheduler drawing from `cfg` under `seed`.
    pub fn new(link: Link<L>, cfg: FaultConfig, seed: u64) -> Self {
        FaultyLink {
            link,
            sched: FaultScheduler::new(cfg, seed),
            held: VecDeque::new(),
        }
    }

    /// Wraps `link` with a replaying scheduler (see
    /// [`FaultScheduler::from_events`]).
    pub fn replaying(link: Link<L>, events: &[FaultEvent]) -> Self {
        FaultyLink {
            link,
            sched: FaultScheduler::from_events(events),
            held: VecDeque::new(),
        }
    }

    /// Sends one frame; returns everything delivered as a consequence,
    /// in arrival order (current frame first unless reordered, then any
    /// held frames whose delay expired).
    pub fn transmit(&mut self, data: &[u8]) -> Vec<FaultedDelivery> {
        let mut bytes = data.to_vec();
        let delivery = self.link.send_bytes(&mut bytes);
        let base_tampered = delivery.corrupted;
        let kind = self.sched.next_kind(bytes.len());
        // Age pre-existing held frames first, so a frame held with
        // delay `d` lets exactly `d` subsequent frames overtake it.
        for slot in &mut self.held {
            slot.0 = slot.0.saturating_sub(1);
        }
        let mut out = Vec::new();
        match kind {
            FaultKind::Drop | FaultKind::Outage => {}
            FaultKind::Duplicate => {
                out.push(FaultedDelivery {
                    bytes: bytes.clone(),
                    arrival_time: delivery.arrival_time,
                    tampered: base_tampered,
                });
                out.push(FaultedDelivery {
                    bytes,
                    arrival_time: delivery.arrival_time,
                    tampered: base_tampered,
                });
            }
            FaultKind::Reorder { delay } => {
                self.held.push_back((delay, bytes));
            }
            kind => {
                let tampered = base_tampered || kind != FaultKind::Deliver;
                apply_fault(kind, &mut bytes);
                out.push(FaultedDelivery {
                    bytes,
                    arrival_time: delivery.arrival_time,
                    tampered,
                });
            }
        }
        // Release everything whose delay expired.
        let now = self.link.now();
        while let Some((0, bytes)) = self.held.front().cloned() {
            self.held.pop_front();
            out.push(FaultedDelivery {
                bytes,
                arrival_time: now,
                tampered: false,
            });
        }
        out
    }

    /// Delivers every held frame immediately (end of a round: nothing
    /// left on the wire to overtake them).
    pub fn flush(&mut self) -> Vec<FaultedDelivery> {
        let now = self.link.now();
        self.held
            .drain(..)
            .map(|(_, bytes)| FaultedDelivery {
                bytes,
                arrival_time: now,
                tampered: false,
            })
            .collect()
    }

    /// The wrapped link.
    pub fn link(&self) -> &Link<L> {
        &self.link
    }

    /// The fault scheduler.
    pub fn scheduler(&self) -> &FaultScheduler {
        &self.sched
    }

    /// Consumes the wrapper, returning the recorded trace.
    pub fn into_trace(self) -> Vec<FaultEvent> {
        self.sched.into_trace()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bandwidth::Bandwidth;
    use crate::loss::MaskLoss;

    fn clean_link() -> Link<MaskLoss> {
        Link::new(Bandwidth::from_kbps(19.2), MaskLoss::perfect(), 0)
    }

    #[test]
    fn same_seed_same_schedule() {
        let mut a = FaultScheduler::new(FaultConfig::mixed(), 99);
        let mut b = FaultScheduler::new(FaultConfig::mixed(), 99);
        for _ in 0..2000 {
            assert_eq!(a.next_kind(260), b.next_kind(260));
        }
        assert_eq!(a.trace(), b.trace());
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = FaultScheduler::new(FaultConfig::mixed(), 1);
        let mut b = FaultScheduler::new(FaultConfig::mixed(), 2);
        let fa: Vec<_> = (0..500).map(|_| a.next_kind(260)).collect();
        let fb: Vec<_> = (0..500).map(|_| b.next_kind(260)).collect();
        assert_ne!(fa, fb);
    }

    #[test]
    fn trace_replay_is_exact() {
        let mut orig = FaultScheduler::new(FaultConfig::mixed(), 12345);
        let fates: Vec<_> = (0..1000).map(|_| orig.next_kind(260)).collect();
        let mut replay = FaultScheduler::from_events(orig.trace());
        let again: Vec<_> = (0..1000).map(|_| replay.next_kind(260)).collect();
        assert_eq!(fates, again);
    }

    #[test]
    fn clean_config_never_faults() {
        let mut s = FaultScheduler::new(FaultConfig::clean(), 7);
        assert!((0..1000).all(|_| s.next_kind(260) == FaultKind::Deliver));
        assert!(s.trace().is_empty());
    }

    #[test]
    fn empirical_rate_tracks_long_run() {
        for cfg in [
            FaultConfig::corrupting(0.3),
            FaultConfig::mixed(),
            FaultConfig::outage_heavy(),
        ] {
            let expect = cfg.long_run_rate();
            let mut m = ScheduledLoss::new(cfg, 5);
            let n = 100_000;
            let rate = (0..n).filter(|_| m.next_corrupted()).count() as f64 / n as f64;
            assert!(
                (rate - expect).abs() < 0.02,
                "rate {rate} vs long-run {expect}"
            );
        }
    }

    #[test]
    fn outage_windows_are_contiguous() {
        let cfg = FaultConfig {
            p_outage_start: 0.01,
            p_outage_end: 0.05,
            ..FaultConfig::clean()
        };
        let mut s = FaultScheduler::new(cfg, 3);
        let fates: Vec<_> = (0..50_000).map(|_| s.next_kind(260)).collect();
        let mut longest = 0usize;
        let mut cur = 0usize;
        for f in &fates {
            if *f == FaultKind::Outage {
                cur += 1;
                longest = longest.max(cur);
            } else {
                assert_eq!(*f, FaultKind::Deliver);
                cur = 0;
            }
        }
        assert!(
            longest > 20,
            "longest outage {longest} too short for mean 20"
        );
    }

    #[test]
    fn apply_fault_mutations() {
        let base: Vec<u8> = (0..64).collect();

        let mut flipped = base.clone();
        apply_fault(FaultKind::FlipBit { bit: 77 }, &mut flipped);
        assert_ne!(flipped, base);
        assert_eq!(flipped.len(), base.len());
        assert_eq!(
            flipped.iter().zip(&base).filter(|(a, b)| a != b).count(),
            1,
            "single-bit flip must change exactly one byte"
        );

        let mut burst = base.clone();
        apply_fault(FaultKind::Burst { offset: 10, len: 5 }, &mut burst);
        assert_eq!(&burst[..10], &base[..10]);
        assert_eq!(&burst[15..], &base[15..]);
        assert!(burst[10..15].iter().zip(&base[10..15]).all(|(a, b)| a != b));

        let mut garbled = base.clone();
        apply_fault(FaultKind::Garble { seed: 9 }, &mut garbled);
        assert_eq!(garbled.len(), base.len());
        assert_ne!(garbled, base);
        let mut garbled2 = base.clone();
        apply_fault(FaultKind::Garble { seed: 9 }, &mut garbled2);
        assert_eq!(garbled, garbled2, "garble must replay from its seed");

        let mut cut = base.clone();
        apply_fault(FaultKind::Truncate { len: 10 }, &mut cut);
        assert_eq!(cut, &base[..10]);

        let mut same = base.clone();
        apply_fault(FaultKind::Deliver, &mut same);
        apply_fault(FaultKind::Drop, &mut same);
        apply_fault(FaultKind::Duplicate, &mut same);
        assert_eq!(same, base);
    }

    #[test]
    fn faulty_link_drop_and_duplicate() {
        // Script: packet 0 dropped, packet 1 duplicated, packet 2 clean.
        let script = [
            FaultEvent {
                packet: 0,
                kind: FaultKind::Drop,
            },
            FaultEvent {
                packet: 1,
                kind: FaultKind::Duplicate,
            },
        ];
        let mut faulty = FaultyLink::replaying(clean_link(), &script);
        assert!(faulty.transmit(&[1]).is_empty());
        assert_eq!(faulty.transmit(&[2]).len(), 2);
        assert_eq!(faulty.transmit(&[3]).len(), 1);
    }

    #[test]
    fn faulty_link_reorder_releases_after_delay() {
        let script = [FaultEvent {
            packet: 0,
            kind: FaultKind::Reorder { delay: 2 },
        }];
        let mut faulty = FaultyLink::replaying(clean_link(), &script);
        assert!(faulty.transmit(&[10]).is_empty(), "held back");
        let second = faulty.transmit(&[20]);
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].bytes, vec![20]);
        // Delay expires with the second following packet: 10 arrives after 30.
        let third = faulty.transmit(&[30]);
        assert_eq!(third.len(), 2);
        assert_eq!(third[0].bytes, vec![30]);
        assert_eq!(third[1].bytes, vec![10]);
    }

    #[test]
    fn faulty_link_flush_empties_holdback() {
        let script = [FaultEvent {
            packet: 0,
            kind: FaultKind::Reorder { delay: 100 },
        }];
        let mut faulty = FaultyLink::replaying(clean_link(), &script);
        assert!(faulty.transmit(&[1, 2]).is_empty());
        let flushed = faulty.flush();
        assert_eq!(flushed.len(), 1);
        assert_eq!(flushed[0].bytes, vec![1, 2]);
        assert!(faulty.flush().is_empty());
    }

    #[test]
    fn faulty_link_tampered_flag_and_bytes() {
        let script = [FaultEvent {
            packet: 0,
            kind: FaultKind::Garble { seed: 4 },
        }];
        let mut faulty = FaultyLink::replaying(clean_link(), &script);
        let out = faulty.transmit(&[7; 32]);
        assert_eq!(out.len(), 1);
        assert!(out[0].tampered);
        assert_ne!(out[0].bytes, vec![7; 32]);
        let clean = faulty.transmit(&[7; 32]);
        assert!(!clean[0].tampered);
        assert_eq!(clean[0].bytes, vec![7; 32]);
    }

    #[test]
    fn render_trace_summarizes() {
        let mut s = FaultScheduler::new(FaultConfig::garbling(), 2);
        for _ in 0..200 {
            s.next_kind(64);
        }
        let text = render_trace(s.trace());
        assert!(text.contains("garble="));
        assert!(text.contains("total"));
    }

    #[test]
    #[should_panic(expected = "sum")]
    fn overfull_mix_panics() {
        let cfg = FaultConfig {
            p_flip: 0.6,
            p_drop: 0.6,
            ..FaultConfig::clean()
        };
        let _ = FaultScheduler::new(cfg, 0);
    }
}
