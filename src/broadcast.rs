//! Broadcast-mode driver: one encode, unbounded listeners.
//!
//! Wires the whole stack into the paper's §6 broadcast direction: a
//! synthetic corpus flows through the structural-characteristic
//! pipeline and the transmission planner, is dispersal-encoded **once**
//! into store blobs, lifted verbatim onto the air
//! ([`mrtweb_store::air`]), scheduled by the carousel
//! ([`mrtweb_transport::broadcast`]), and heard by any number of
//! listeners through independent fault taps on a shared medium
//! ([`mrtweb_channel::medium`]). Every run is fully determined by its
//! seed, and all timing is in virtual slots.
//!
//! The observability trace proves the headline claim: the number of
//! [`EventKind::EncodeSpan`] events equals the number of documents,
//! however many listeners tuned in.

use std::fmt::Write as _;

use mrtweb_channel::fault::FaultConfig;
use mrtweb_channel::medium::SharedMedium;
use mrtweb_content::sc::{Measure, StructuralCharacteristic};
use mrtweb_docmodel::gen::SyntheticDocSpec;
use mrtweb_docmodel::lod::Lod;
use mrtweb_obs::EventKind;
use mrtweb_store::air::broadcast_doc_from_blob;
use mrtweb_store::codec::encode_dispersed;
use mrtweb_transport::broadcast::{
    BroadcastDoc, BroadcastListener, Carousel, CarouselConfig, Skew, StopRule,
};
use mrtweb_transport::plan::plan_document;

/// One broadcast simulation's knobs. Everything is deterministic in
/// `seed`.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Corpus size (documents on the air).
    pub docs: usize,
    /// Listeners tuning in (across all channels).
    pub listeners: usize,
    /// Parallel broadcast channels `K`.
    pub channels: usize,
    /// Cycle placement policy.
    pub skew: Skew,
    /// Air-index spacing (data slots between index frames).
    pub index_every: usize,
    /// Cooked packet size in bytes.
    pub packet_size: usize,
    /// Redundancy ratio γ (`N = ⌈γM⌉`).
    pub gamma: f64,
    /// Seed for corpus, listener targets, join offsets, and faults.
    pub seed: u64,
    /// Shared-medium fault schedule (`None` = clean air).
    pub fault: Option<FaultConfig>,
    /// When listeners turn their radios off.
    pub stop: StopRule,
    /// Safety bound: give up on a listener after this many cycles.
    pub max_cycles: u64,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            docs: 8,
            listeners: 32,
            channels: 1,
            skew: Skew::Popularity,
            index_every: 16,
            packet_size: 64,
            gamma: 1.6,
            seed: 42,
            fault: None,
            stop: StopRule::Complete,
            max_cycles: 64,
        }
    }
}

/// What happened to one listener.
#[derive(Debug, Clone)]
pub struct ListenerOutcome {
    /// Listener id (appears as `a` in its trace events).
    pub id: u64,
    /// The document it wanted.
    pub target: u16,
    /// The channel it tuned to.
    pub channel: usize,
    /// The slot it joined at.
    pub joined_at: u64,
    /// Whether it finished under its stop rule.
    pub completed: bool,
    /// Slots listened from tune-in to stop.
    pub access_slots: Option<u64>,
    /// Whether reconstructed bytes match the source exactly (true for
    /// content-rule stops that never reconstructed).
    pub bytes_ok: bool,
    /// Information content at stop.
    pub content: f64,
    /// CRC-rejected frames/records it heard.
    pub corrupt_frames: u64,
}

/// Aggregate report of one broadcast run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Documents on the air.
    pub docs: usize,
    /// Channels used.
    pub channels: usize,
    /// Cycle length of each channel, in slots.
    pub cycle_lens: Vec<usize>,
    /// Listeners that finished under their stop rule.
    pub completed: usize,
    /// Listeners whose reconstruction was byte-identical.
    pub byte_identical: usize,
    /// `EncodeSpan` events observed — the re-encode counter. Equal to
    /// `docs` when the carousel kept its one-encode promise.
    pub encode_spans: u64,
    /// `DecodeSpan` events observed (client-side reconstructions).
    pub decode_spans: u64,
    /// `CarouselCycle` wraps observed across channels.
    pub cycles_completed: u64,
    /// Mean access time over completed listeners, in slots.
    pub mean_access_slots: f64,
    /// 95th-percentile access time over completed listeners, in slots.
    pub p95_access_slots: f64,
    /// Per-listener detail.
    pub outcomes: Vec<ListenerOutcome>,
}

impl RunReport {
    /// Whether encoding happened at most once per document.
    pub fn zero_reencode(&self) -> bool {
        self.encode_spans <= self.docs as u64
    }

    /// Human-readable summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "broadcast: docs={} channels={} cycles={:?}",
            self.docs, self.channels, self.cycle_lens
        );
        let _ = writeln!(
            out,
            "listeners: completed={}/{} byte_identical={}",
            self.completed,
            self.outcomes.len(),
            self.byte_identical
        );
        let _ = writeln!(
            out,
            "access slots: mean={:.1} p95={:.1}",
            self.mean_access_slots, self.p95_access_slots
        );
        let _ = writeln!(
            out,
            "encodes={} (docs={}) zero_reencode={} decodes={} cycle_wraps={}",
            self.encode_spans,
            self.docs,
            self.zero_reencode(),
            self.decode_spans,
            self.cycles_completed
        );
        out
    }
}

/// Builds the on-air corpus: synthetic documents through the SC
/// pipeline and planner, dispersal-encoded once, lifted verbatim.
/// Document `i` gets Zipf popularity `1/(i+1)`. Returns the air
/// documents and each one's planned payload (ground truth for byte
/// identity).
pub fn build_corpus(
    docs: usize,
    packet_size: usize,
    gamma: f64,
    seed: u64,
) -> Result<(Vec<BroadcastDoc>, Vec<Vec<u8>>), String> {
    let mut air = Vec::with_capacity(docs);
    let mut payloads = Vec::with_capacity(docs);
    for i in 0..docs {
        let generated = SyntheticDocSpec {
            sections: 2,
            subsections_per_section: 2,
            paragraphs_per_subsection: 2,
            target_bytes: 1400 + (i % 5) * 300,
            ..Default::default()
        }
        .generate(seed.wrapping_add(i as u64));
        let pipeline = mrtweb_textproc::pipeline::ScPipeline::default();
        let index = pipeline.run(&generated.document);
        let sc = StructuralCharacteristic::from_index(&index, None);
        let (plan, payload) = plan_document(&generated.document, &sc, Lod::Paragraph, Measure::Ic);
        // One group per document: M spans the whole payload, so the
        // store encodes exactly once per document.
        let m = plan.raw_packets(packet_size).max(1);
        let n = ((m as f64 * gamma).ceil() as usize).clamp(m, 256);
        if m > 256 {
            return Err(format!("document {i}: M={m} exceeds the GF(256) bound"));
        }
        let blob = encode_dispersed(&payload, m, n, packet_size).map_err(|e| format!("{e}"))?;
        // The planner's QIC-ranked per-packet contents ride the air
        // index so listeners (and the skewed scheduler) see them.
        let contents = {
            let pc = plan.packet_contents(packet_size);
            let total: f64 = pc.iter().sum();
            if pc.len() == m && total > 0.0 {
                Some(pc.iter().map(|c| c / total).collect::<Vec<f64>>())
            } else {
                None
            }
        };
        let doc =
            broadcast_doc_from_blob(i as u16, 1.0 / (i + 1) as f64, &blob, contents.as_deref())
                .map_err(|e| format!("{e}"))?;
        air.push(doc);
        payloads.push(payload);
    }
    Ok((air, payloads))
}

/// SplitMix64: a tiny deterministic generator for targets and offsets.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs one broadcast simulation and returns its aggregate report.
///
/// # Errors
///
/// `Err` only for configuration/corpus problems; listener-level
/// failures (incomplete, wrong bytes) come back inside the report.
pub fn run(cfg: &RunConfig) -> Result<RunReport, String> {
    if cfg.listeners == 0 || cfg.docs == 0 || cfg.channels == 0 {
        return Err("docs, listeners, and channels must all be positive".into());
    }
    // Capture the whole run's trace: corpus encodes, carousel wraps,
    // listener tune-ins, and reconstructions.
    let session = mrtweb_obs::testkit::capture();
    let outcome = run_traced(cfg);
    let trace = session.finish();
    let (mut report, payloads) = outcome?;
    report.encode_spans = count(&trace, EventKind::EncodeSpan);
    report.decode_spans = count(&trace, EventKind::DecodeSpan);
    report.cycles_completed = count(&trace, EventKind::CarouselCycle);
    let _ = payloads;
    Ok(report)
}

fn count(trace: &mrtweb_obs::Trace, kind: EventKind) -> u64 {
    trace.events.iter().filter(|e| e.kind == kind).count() as u64
}

#[allow(clippy::too_many_lines)]
fn run_traced(cfg: &RunConfig) -> Result<(RunReport, Vec<Vec<u8>>), String> {
    let (air, payloads) = build_corpus(cfg.docs, cfg.packet_size, cfg.gamma, cfg.seed)?;
    let carousel = Carousel::build(
        &air,
        &CarouselConfig {
            channels: cfg.channels,
            skew: cfg.skew,
            index_every: cfg.index_every,
        },
    )
    .map_err(|e| format!("{e}"))?;
    let channels = carousel.channels();
    let cycle_lens: Vec<usize> = (0..channels).map(|c| carousel.cycle_len(c)).collect();

    // Assign listeners: target sampled ∝ popularity weight, join
    // offset uniform in the first two cycles of the target's channel.
    let mut rng = cfg.seed ^ 0xB0AD_CA57;
    let total_weight: f64 = air.iter().map(|d| d.weight).sum();
    let mut per_channel: Vec<Vec<(BroadcastListener, u64, u16)>> =
        (0..channels).map(|_| Vec::new()).collect();
    for id in 0..cfg.listeners as u64 {
        let mut pick = (splitmix(&mut rng) as f64 / u64::MAX as f64) * total_weight;
        let mut target = air[air.len() - 1].id;
        for d in &air {
            if pick < d.weight {
                target = d.id;
                break;
            }
            pick -= d.weight;
        }
        let ch = carousel
            .channel_of(target)
            .ok_or_else(|| format!("document {target} missing from the air"))?;
        let join = splitmix(&mut rng) % (2 * cycle_lens[ch] as u64);
        per_channel[ch].push((BroadcastListener::new(id, target, cfg.stop), join, target));
    }

    // Drive each channel: one frame per slot, fanned to that channel's
    // taps through independent fault schedules.
    let clean = FaultConfig::clean();
    let fault = cfg.fault.as_ref().unwrap_or(&clean);
    let mut outcomes = Vec::with_capacity(cfg.listeners);
    for (ch, listeners) in per_channel.iter_mut().enumerate() {
        let mut medium = SharedMedium::new(
            fault,
            cfg.seed ^ (ch as u64).wrapping_mul(0xC0FFEE),
            listeners.len(),
        );
        let horizon = cfg
            .max_cycles
            .saturating_mul(cycle_lens[ch] as u64)
            .max(cycle_lens[ch] as u64);
        let last_join = listeners.iter().map(|(_, j, _)| *j).max().unwrap_or(0);
        for slot in 0..last_join + horizon {
            if listeners
                .iter()
                .all(|(l, join, _)| slot >= *join && l.is_done())
                && listeners.iter().all(|(_, join, _)| slot >= *join)
            {
                break;
            }
            let frame = carousel.frame_at(ch, slot).to_vec();
            for (tap, (listener, join, _)) in listeners.iter_mut().enumerate() {
                if slot < *join || listener.is_done() {
                    continue;
                }
                let delivery = medium.transmit_to(tap, &frame);
                listener.hear(slot, delivery.bytes());
            }
        }
        for (listener, join, target) in listeners.iter() {
            let expected = &payloads[usize::from(*target)];
            let bytes_ok = match listener.bytes() {
                Some(b) => b == &expected[..],
                None => {
                    !matches!(cfg.stop, StopRule::Complete | StopRule::AllPackets)
                        || !listener.is_done()
                }
            };
            outcomes.push(ListenerOutcome {
                id: listener.id(),
                target: *target,
                channel: ch,
                joined_at: *join,
                completed: listener.is_done(),
                access_slots: listener.access_slots(),
                bytes_ok,
                content: listener.content(),
                corrupt_frames: listener.corrupt_frames(),
            });
        }
    }
    outcomes.sort_by_key(|o| o.id);

    let mut access: Vec<u64> = outcomes.iter().filter_map(|o| o.access_slots).collect();
    access.sort_unstable();
    let completed = outcomes.iter().filter(|o| o.completed).count();
    let byte_identical = outcomes
        .iter()
        .filter(|o| o.completed && o.bytes_ok)
        .count();
    let mean = if access.is_empty() {
        0.0
    } else {
        access.iter().sum::<u64>() as f64 / access.len() as f64
    };
    let p95 = access
        .get(((access.len() as f64 * 0.95).ceil() as usize).saturating_sub(1))
        .copied()
        .unwrap_or(0) as f64;
    Ok((
        RunReport {
            docs: cfg.docs,
            channels,
            cycle_lens,
            completed,
            byte_identical,
            encode_spans: 0,
            decode_spans: 0,
            cycles_completed: 0,
            mean_access_slots: mean,
            p95_access_slots: p95,
            outcomes,
        },
        payloads,
    ))
}

/// One point of the bench sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Placement policy of this point.
    pub skew: Skew,
    /// Channel count `K`.
    pub k: usize,
    /// Mean access time, slots.
    pub mean_access_slots: f64,
    /// p95 access time, slots.
    pub p95_access_slots: f64,
    /// Listeners completed.
    pub listeners_completed: usize,
}

/// Sweeps listeners × channels × skew and renders the bench JSON.
///
/// Returns the JSON (for `BENCH_broadcast.json`) and whether mean
/// access time decreased from the smallest to the largest `K` on the
/// skewed workload — the acceptance property.
///
/// # Errors
///
/// Propagates configuration errors from [`run`].
pub fn bench_sweep(
    base: &RunConfig,
    ks: &[usize],
) -> Result<(String, Vec<SweepPoint>, bool), String> {
    let mut points = Vec::new();
    for &skew in &[Skew::Flat, Skew::Popularity] {
        for &k in ks {
            let report = run(&RunConfig {
                channels: k,
                skew,
                ..base.clone()
            })?;
            points.push(SweepPoint {
                skew,
                k,
                mean_access_slots: report.mean_access_slots,
                p95_access_slots: report.p95_access_slots,
                listeners_completed: report.completed,
            });
        }
    }
    let skewed: Vec<&SweepPoint> = points
        .iter()
        .filter(|p| p.skew == Skew::Popularity)
        .collect();
    let decreasing = match (skewed.first(), skewed.last()) {
        (Some(a), Some(b)) if skewed.len() > 1 => b.mean_access_slots < a.mean_access_slots,
        _ => false,
    };

    let mut json = String::from("{\n  \"broadcast\": {\n");
    for (si, &skew) in [Skew::Flat, Skew::Popularity].iter().enumerate() {
        let name = if skew == Skew::Flat { "flat" } else { "skewed" };
        let _ = writeln!(json, "    \"{name}\": {{");
        let group: Vec<&SweepPoint> = points.iter().filter(|p| p.skew == skew).collect();
        for (i, p) in group.iter().enumerate() {
            let comma = if i + 1 == group.len() { "" } else { "," };
            let _ = writeln!(
                json,
                "      \"k{}\": {{\"mean_access_slots\": {:.3}, \"p95_access_slots\": {:.3}, \"listeners_completed\": {}}}{comma}",
                p.k, p.mean_access_slots, p.p95_access_slots, p.listeners_completed
            );
        }
        let _ = writeln!(json, "    }}{}", if si == 0 { "," } else { "" });
    }
    json.push_str("  }\n}");
    Ok((json, points, decreasing))
}

/// The golden flat-carousel access-time shape: a lone document on a
/// flat single-channel carousel with one index frame per cycle,
/// measured over *every* join offset.
///
/// A joiner at offset `j` buffers data frames while tuning, decodes as
/// soon as the cycle-boundary index frame arrives (if it buffered `M`
/// packets) or after sweeping the remainder, so its access time is
/// `max(cycle − j, M + 1)` and the mean over all offsets is
/// `cycle/2 + ~(M+1)²/(2·cycle)`. With generous redundancy (`γ = 3`,
/// so `M ≪ cycle`) the correction term shrinks and the mean sits near
/// half a cycle — the textbook flat-carousel expectation the fixture
/// pins, alongside the exact analytic model.
///
/// # Errors
///
/// Propagates corpus/schedule construction failures.
pub fn golden_flat_access(seed: u64) -> Result<String, String> {
    // Hold the process-global tracer, as `run` does: the corpus build
    // emits encode spans, and a capture running beside this one must
    // not count them.
    let _tracer = mrtweb_obs::testkit::capture();
    let (air, _) = build_corpus(1, 64, 3.0, seed)?;
    let carousel = Carousel::build(
        &air,
        &CarouselConfig {
            channels: 1,
            skew: Skew::Flat,
            index_every: 0,
        },
    )
    .map_err(|e| format!("{e}"))?;
    let cycle = carousel.cycle_len(0) as u64;
    let mut access = Vec::with_capacity(cycle as usize);
    for join in 0..cycle {
        let mut l = BroadcastListener::new(join, 0, StopRule::Complete);
        let mut slot = join;
        while !l.hear(slot, Some(carousel.frame_at(0, slot))) {
            slot += 1;
            if slot > join + 4 * cycle {
                return Err(format!("golden listener at join={join} never completed"));
            }
        }
        access.push(l.access_slots().unwrap_or(0));
    }
    let mean = access.iter().sum::<u64>() as f64 / access.len() as f64;
    let max = access.iter().copied().max().unwrap_or(0);
    let min = access.iter().copied().min().unwrap_or(0);
    // Closed-form prediction: access(j) = max(cycle − j, floor) where
    // the floor is the fastest possible completion (the M-sweep).
    let model = (0..cycle).map(|j| (cycle - j).max(min)).sum::<u64>() as f64 / cycle as f64;
    Ok(format!(
        "{{\n  \"cycle_len\": {cycle},\n  \"mean_access_slots\": {mean:.3},\n  \"model_mean_slots\": {model:.3},\n  \"half_cycle\": {:.3},\n  \"min_access_slots\": {min},\n  \"max_access_slots\": {max}\n}}",
        cycle as f64 / 2.0
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_run_completes_everyone_byte_identically_with_one_encode_per_doc() {
        let report = run(&RunConfig {
            docs: 4,
            listeners: 24,
            channels: 2,
            seed: 7,
            ..Default::default()
        })
        .unwrap();
        assert_eq!(report.completed, 24, "{}", report.render());
        assert_eq!(report.byte_identical, 24, "{}", report.render());
        assert!(report.zero_reencode(), "{}", report.render());
        assert_eq!(report.encode_spans, 4, "{}", report.render());
    }

    #[test]
    fn runs_are_deterministic() {
        let cfg = RunConfig {
            docs: 3,
            listeners: 12,
            fault: Some(FaultConfig::corrupting(0.2)),
            seed: 11,
            ..Default::default()
        };
        let a = run(&cfg).unwrap();
        let b = run(&cfg).unwrap();
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.mean_access_slots, b.mean_access_slots);
        assert_eq!(
            a.outcomes
                .iter()
                .map(|o| o.access_slots)
                .collect::<Vec<_>>(),
            b.outcomes
                .iter()
                .map(|o| o.access_slots)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn sweep_reports_decreasing_access_with_more_channels() {
        let (json, points, decreasing) = bench_sweep(
            &RunConfig {
                docs: 8,
                listeners: 32,
                seed: 5,
                ..Default::default()
            },
            &[1, 2, 4],
        )
        .unwrap();
        assert!(decreasing, "points: {points:?}");
        assert!(json.contains("\"broadcast\""));
        assert!(json.contains("\"k1\""));
        assert!(json.contains("mean_access_slots"));
    }

    #[test]
    fn golden_mean_is_near_half_a_cycle() {
        let json = golden_flat_access(42).unwrap();
        // Parse the two numbers back out coarsely.
        let grab = |key: &str| -> f64 {
            let at = json.find(key).expect(key) + key.len() + 2;
            json[at..]
                .trim_start()
                .trim_start_matches(':')
                .trim_start()
                .split([',', '\n', '}'])
                .next()
                .unwrap()
                .trim()
                .parse()
                .unwrap()
        };
        let mean = grab("\"mean_access_slots\"");
        let half = grab("\"half_cycle\"");
        let model = grab("\"model_mean_slots\"");
        assert!(
            (mean - half).abs() <= half * 0.35,
            "mean {mean} too far from half-cycle {half}"
        );
        assert!(
            (mean - model).abs() <= model * 0.05,
            "mean {mean} disagrees with the analytic model {model}"
        );
    }
}
