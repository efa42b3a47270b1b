//! The deterministic fault-injection harness.
//!
//! Each named scenario drives one or more layers of the stack — the
//! threaded live transport, the session protocol (stall →
//! NoCaching/Caching retransmission), the selective-repeat ARQ
//! baseline, the dispersed-blob store, the broadcast carousel, and the
//! base-station edge cache with its roaming handoff — through a
//! seed-driven
//! [`FaultConfig`] schedule, and checks the protocol invariants the
//! paper's design promises:
//!
//! 1. any `M` intact cooked packets reconstruct the document
//!    **byte-identically**;
//! 2. CRC never passes a corrupted frame (observable as byte-identity
//!    of every completed reconstruction);
//! 3. Caching never re-requests a packet it already holds intact;
//! 4. ARQ terminates within its round budget;
//! 5. progressive [`ClientEvent::SliceProgress`] fractions are monotone
//!    per slice and in `[0, 1]`.
//!
//! Every run is fully determined by `(scenario, seed)`, so any failure
//! reproduces with `mrtweb faultrun --scenario <name> --seed <s>`; the
//! scheduler's trace is carried in the report for replay and diagnosis.

use mrtweb_channel::bandwidth::Bandwidth;
use mrtweb_channel::fault::{
    apply_fault, render_trace, FaultConfig, FaultEvent, FaultKind, FaultScheduler, ScheduledLoss,
};
use mrtweb_channel::link::Link;
use mrtweb_channel::medium::SharedMedium;
use mrtweb_content::query::Query;
use mrtweb_content::sc::{Measure, StructuralCharacteristic};
use mrtweb_docmodel::gen::SyntheticDocSpec;
use mrtweb_docmodel::lod::Lod;
use mrtweb_store::air::broadcast_doc_from_blob;
use mrtweb_store::codec::{decode_dispersed, encode_dispersed};
use mrtweb_store::edge::{EdgeCache, EdgeKey};
use mrtweb_store::gateway::{Gateway, Request, CACHE_BUDGET};
use mrtweb_store::migrate::{decode_record, encode_record, MigrationRecord};
use mrtweb_store::store::DocumentStore;
use mrtweb_transport::arq::{download_arq, ArqConfig};
use mrtweb_transport::broadcast::{
    BroadcastDoc, BroadcastListener, Carousel, CarouselConfig, Skew, StopRule,
};
use mrtweb_transport::live::{run_transfer, ClientEvent, LiveClient, LiveServer, TransferConfig};
use mrtweb_transport::plan::{plan_document, TransmissionPlan, UnitSlice};
use mrtweb_transport::session::{download, CacheMode, Outcome, Relevance, SessionConfig};

/// Scenario registry: `(name, what it stresses)`.
pub const SCENARIOS: &[(&str, &str)] = &[
    (
        "clean",
        "control arm: zero faults through every layer; everything must complete in one round",
    ),
    (
        "bernoulli",
        "i.i.d. bit-flip corruption at α=0.3 through live transport and both session cache modes",
    ),
    (
        "burst",
        "multi-byte burst damage plus occasional garbles through live transport and the store",
    ),
    (
        "outage",
        "timed disconnection windows over light corruption through session and ARQ",
    ),
    (
        "mixed",
        "every fault family at once (drops, dups, reorder, garble, truncate, outage) through live transport and session",
    ),
    (
        "garble",
        "whole-frame garbling and truncation: CRC detection stress through live transport and the store",
    ),
    (
        "arq-storm",
        "heavy silent drops: ARQ NACK-repair rounds and session retransmission under α=0.35 loss",
    ),
    (
        "store-rot",
        "at-rest packet rot in dispersed blobs: decode survives ≥M intact per group, fails cleanly below",
    ),
    (
        "broadcast-join",
        "carousel listeners joining mid-cycle at scattered offsets on clean air: all complete byte-identically within two cycles",
    ),
    (
        "broadcast-outage",
        "a disconnection window spanning a carousel cycle boundary: listeners ride out the outage and still reconstruct exactly",
    ),
    (
        "broadcast-earlystop",
        "per-listener early stop at M: early-stopping bytes equal the patient all-packets collection, and stop before it",
    ),
    (
        "broadcast-corrupt",
        "corrupted frames on the air: CRC discards damage, redundancy covers it, and every completion stays byte-identical",
    ),
    (
        "edge-rot",
        "at-rest rot of an edge-cached blob: the rotted blob never leaves the cell and its entry is dropped, the gateway re-encodes from the store, and the refreshed cache hits byte-identically",
    ),
    (
        "edge-roam-outage",
        "a migration record damaged on the backhaul: decode rejects it cleanly, and the new cell falls back to one re-encode with a byte-identical resume",
    ),
];

/// Names of all registered scenarios.
pub fn scenario_names() -> Vec<&'static str> {
    SCENARIOS.iter().map(|(n, _)| *n).collect()
}

/// Outcome of one `(scenario, seed)` harness run.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// The scenario that ran.
    pub scenario: String,
    /// The seed that determined the schedule.
    pub seed: u64,
    /// Invariant checks performed.
    pub checks: usize,
    /// Human-readable description of every violated invariant.
    pub failures: Vec<String>,
    /// The concatenated fault traces of every injected layer.
    pub trace: Vec<FaultEvent>,
    /// The causally-ordered observability timeline recorded during the
    /// run (empty when the `trace` feature is compiled out).
    pub timeline: mrtweb_obs::Trace,
}

impl ScenarioReport {
    /// Whether every invariant held.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// Multi-line render: verdict, failures, and (on failure) the trace.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let verdict = if self.passed() { "PASS" } else { "FAIL" };
        let _ = writeln!(
            out,
            "{verdict} scenario={} seed={} checks={} failures={}",
            self.scenario,
            self.seed,
            self.checks,
            self.failures.len()
        );
        for f in &self.failures {
            let _ = writeln!(out, "  FAIL: {f}");
        }
        if !self.passed() {
            let _ = writeln!(out, "fault trace ({} events):", self.trace.len());
            out.push_str(&render_trace(&self.trace));
            if !self.timeline.events.is_empty() {
                let _ = writeln!(
                    out,
                    "observability timeline ({} events, causal order):",
                    self.timeline.events.len()
                );
                for e in &self.timeline.events {
                    let _ = writeln!(
                        out,
                        "  {:>14} ns  thread {:>3}  {:<18} a={:<12} b={}",
                        e.ts,
                        e.thread,
                        e.kind.name(),
                        e.a,
                        e.b
                    );
                }
            }
            let _ = writeln!(
                out,
                "reproduce with: mrtweb faultrun --scenario {} --seed {}",
                self.scenario, self.seed
            );
        }
        out
    }
}

/// Accumulates invariant checks for one scenario run.
struct Harness {
    checks: usize,
    failures: Vec<String>,
    trace: Vec<FaultEvent>,
}

impl Harness {
    fn new() -> Self {
        Harness {
            checks: 0,
            failures: Vec::new(),
            trace: Vec::new(),
        }
    }

    fn check(&mut self, cond: bool, msg: impl FnOnce() -> String) {
        self.checks += 1;
        if !cond {
            self.failures.push(msg());
        }
    }
}

/// Runs one scenario under one seed.
///
/// # Errors
///
/// `Err` names the unknown scenario; all invariant *violations* come
/// back inside the `Ok` report, never as `Err`.
pub fn run_scenario(name: &str, seed: u64) -> Result<ScenarioReport, String> {
    let mut h = Harness::new();
    // One scenario records at a time, so each report's timeline holds
    // exactly its own run's events (the tracer is process-global; the
    // capture session owns the cross-crate timeline lock).
    let session = mrtweb_obs::testkit::capture();
    let outcome = drive(name, seed, &mut h);
    let timeline = session.finish();
    outcome?;
    Ok(ScenarioReport {
        scenario: name.to_string(),
        seed,
        checks: h.checks,
        failures: h.failures,
        trace: h.trace,
        timeline,
    })
}

fn drive(name: &str, seed: u64, h: &mut Harness) -> Result<(), String> {
    match name {
        "clean" => {
            live_layer(h, &FaultConfig::clean(), seed, CacheMode::Caching, true);
            session_layer(h, &FaultConfig::clean(), seed);
            arq_layer(h, &FaultConfig::clean(), seed);
            store_layer(h, &FaultConfig::clean(), seed);
        }
        "bernoulli" => {
            let cfg = FaultConfig::corrupting(0.3);
            live_layer(h, &cfg, seed, CacheMode::Caching, false);
            live_layer(h, &cfg, seed, CacheMode::NoCaching, false);
            session_layer(h, &cfg, seed);
        }
        "burst" => {
            let cfg = FaultConfig::bursty();
            live_layer(h, &cfg, seed, CacheMode::Caching, false);
            store_layer(h, &cfg, seed);
        }
        "outage" => {
            let cfg = FaultConfig::outage_heavy();
            session_layer(h, &cfg, seed);
            arq_layer(h, &cfg, seed);
        }
        "mixed" => {
            let cfg = FaultConfig::mixed();
            live_layer(h, &cfg, seed, CacheMode::Caching, false);
            session_layer(h, &cfg, seed);
        }
        "garble" => {
            let cfg = FaultConfig::garbling();
            live_layer(h, &cfg, seed, CacheMode::Caching, false);
            store_layer(h, &cfg, seed);
        }
        "arq-storm" => {
            let cfg = FaultConfig::dropping(0.35);
            arq_layer(h, &cfg, seed);
            session_layer(h, &cfg, seed);
        }
        "store-rot" => {
            store_layer(h, &FaultConfig::mixed(), seed);
            store_hardening(h, seed);
        }
        "broadcast-join" => broadcast_layer(h, BroadcastArm::Join, seed),
        "broadcast-outage" => broadcast_layer(h, BroadcastArm::Outage, seed),
        "broadcast-earlystop" => broadcast_layer(h, BroadcastArm::EarlyStop, seed),
        "broadcast-corrupt" => broadcast_layer(h, BroadcastArm::Corrupt, seed),
        "edge-rot" => edge_layer(h, EdgeArm::Rot, seed),
        "edge-roam-outage" => edge_layer(h, EdgeArm::RoamOutage, seed),
        other => return Err(format!("unknown scenario {other:?}")),
    }
    Ok(())
}

/// Runs every scenario under one seed.
pub fn run_all(seed: u64) -> Vec<ScenarioReport> {
    scenario_names()
        .iter()
        .map(|n| run_scenario(n, seed).expect("registered scenario"))
        .collect()
}

/// A deterministic document fixture with enough structure for every LOD.
fn fixture() -> (
    mrtweb_docmodel::document::Document,
    StructuralCharacteristic,
    Vec<u8>,
) {
    let doc = SyntheticDocSpec {
        sections: 3,
        subsections_per_section: 2,
        paragraphs_per_subsection: 2,
        target_bytes: 4000,
        ..Default::default()
    }
    .generate(11)
    .document;
    let pipeline = mrtweb_textproc::pipeline::ScPipeline::default();
    let idx = pipeline.run(&doc);
    let sc = StructuralCharacteristic::from_index(&idx, None);
    let (_, payload) = plan_document(&doc, &sc, Lod::Paragraph, Measure::Ic);
    (doc, sc, payload)
}

/// Drives the threaded live transport under a fault schedule.
fn live_layer(
    h: &mut Harness,
    cfg: &FaultConfig,
    seed: u64,
    cache_mode: CacheMode,
    expect_clean: bool,
) {
    let (doc, sc, expected) = fixture();
    let server = match LiveServer::new_auto(&doc, &sc, Lod::Paragraph, Measure::Ic, 64, 1.8) {
        Ok(s) => s,
        Err(e) => {
            h.check(false, || format!("live: server construction failed: {e}"));
            return;
        }
    };
    let n = server.header().n;
    let slices = server.header().plan.slices().len();
    let report = match run_transfer(
        server,
        &TransferConfig {
            alpha: 0.0,
            seed,
            cache_mode,
            stop_at_content: None,
            max_rounds: 512,
            fault: Some(cfg.clone()),
        },
    ) {
        Ok(r) => r,
        Err(e) => {
            h.check(false, || {
                format!("live[{cache_mode:?}]: transfer error: {e}")
            });
            return;
        }
    };
    h.trace.extend(report.fault_events.iter().copied());

    // Invariant 1+2: a completed transfer is byte-identical — any M
    // intact packets reconstruct exactly, and no CRC-passing corrupted
    // frame contaminated the payload.
    if report.completed {
        h.check(report.payload == expected, || {
            format!(
                "live[{cache_mode:?}]: reconstructed payload differs from source \
                 ({} vs {} bytes) — corruption passed CRC or decode is wrong",
                report.payload.len(),
                expected.len()
            )
        });
    } else {
        // 512 rounds at these fault rates is beyond any plausible stall
        // streak; not completing means lost progress, i.e. a cache or
        // repair bug.
        h.check(false, || {
            format!(
                "live[{cache_mode:?}]: transfer failed to complete within {} rounds",
                report.rounds
            )
        });
    }
    h.check(report.rounds <= 512, || {
        format!(
            "live[{cache_mode:?}]: round budget exceeded: {}",
            report.rounds
        )
    });

    // Invariant 5: SliceProgress monotone per slice, in-bounds, and only
    // for planned slices.
    let mut last = std::collections::HashMap::<usize, f64>::new();
    for e in &report.events {
        if let ClientEvent::SliceProgress { slice, fraction } = *e {
            h.check(slice < slices, || {
                format!("live[{cache_mode:?}]: progress for unplanned slice {slice}")
            });
            h.check((0.0..=1.0 + 1e-12).contains(&fraction), || {
                format!("live[{cache_mode:?}]: fraction {fraction} out of bounds for slice {slice}")
            });
            let prev = last.insert(slice, fraction).unwrap_or(0.0);
            h.check(fraction >= prev, || {
                format!(
                    "live[{cache_mode:?}]: progress went backwards for slice {slice}: \
                     {prev} -> {fraction}"
                )
            });
        }
    }

    // Invariant 3: in Caching mode, request sets shrink monotonically
    // (⊆ the previous request) — an intact packet is never re-requested.
    if cache_mode == CacheMode::Caching {
        for pair in report.requests.windows(2) {
            let (prev, next) = (&pair[0], &pair[1]);
            h.check(next.iter().all(|i| prev.contains(i)), || {
                format!(
                    "live[Caching]: round re-requested a packet outside the previous \
                         missing set: {next:?} ⊄ {prev:?}"
                )
            });
        }
    }
    for req in &report.requests {
        h.check(req.iter().all(|&i| i < n), || {
            format!("live[{cache_mode:?}]: request index out of range (N={n}): {req:?}")
        });
    }

    if expect_clean {
        h.check(report.rounds == 1, || {
            format!("live[clean]: expected 1 round, used {}", report.rounds)
        });
        h.check(report.frames_corrupted == 0, || {
            format!(
                "live[clean]: {} frames corrupted on a clean schedule",
                report.frames_corrupted
            )
        });
        h.check(report.fault_events.is_empty(), || {
            format!(
                "live[clean]: clean schedule logged {} fault events",
                report.fault_events.len()
            )
        });
    }
}

/// Drives `session::download` for both cache modes over the identical
/// schedule and checks the Caching ≤ NoCaching dominance.
fn session_layer(h: &mut Harness, cfg: &FaultConfig, seed: u64) {
    let plan = TransmissionPlan::sequential(vec![UnitSlice::new("doc", 10240, 1.0)]);
    let run = |mode: CacheMode| {
        let mut link = Link::new(
            Bandwidth::from_kbps(19.2),
            ScheduledLoss::new(cfg.clone(), seed),
            seed,
        );
        let config = SessionConfig {
            cache_mode: mode,
            max_rounds: 4096,
            ..Default::default()
        };
        download(&plan, Relevance::relevant(), &config, &mut link)
    };
    let caching = run(CacheMode::Caching);
    let nocaching = run(CacheMode::NoCaching);

    for (mode, r) in [("Caching", &caching), ("NoCaching", &nocaching)] {
        h.check(r.rounds <= 4096, || {
            format!("session[{mode}]: round budget exceeded: {}", r.rounds)
        });
        if r.outcome == Outcome::Completed {
            h.check(r.packets_sent >= r.m as u64, || {
                format!(
                    "session[{mode}]: completed with only {} packets for M={}",
                    r.packets_sent, r.m
                )
            });
            h.check(r.content >= 1.0 - 1e-9, || {
                format!(
                    "session[{mode}]: completed but content only {:.4}",
                    r.content
                )
            });
        }
    }
    // Caching must always complete within the budget at these fault
    // rates; NoCaching may legitimately fail at high loss (it needs M
    // intact within a single round).
    h.check(caching.outcome == Outcome::Completed, || {
        format!("session[Caching]: did not complete: {:?}", caching.outcome)
    });
    // Per-slot fate schedules are identical (same `(cfg, seed)`), so
    // Caching completes at the M-th intact slot overall — never later
    // than NoCaching, which needs M intact within one round.
    if caching.outcome == Outcome::Completed && nocaching.outcome == Outcome::Completed {
        h.check(caching.packets_sent <= nocaching.packets_sent, || {
            format!(
                "session: Caching sent {} packets > NoCaching's {} on the identical schedule",
                caching.packets_sent, nocaching.packets_sent
            )
        });
        h.check(caching.response_time <= nocaching.response_time + 1e-9, || {
            format!(
                "session: Caching slower ({:.2}s) than NoCaching ({:.2}s) on the identical schedule",
                caching.response_time, nocaching.response_time
            )
        });
    }
    // Record the schedule for replay.
    let mut sched = ScheduledLoss::new(cfg.clone(), seed);
    {
        use mrtweb_channel::loss::LossModel;
        for _ in 0..caching.packets_sent {
            let _ = sched.next_corrupted();
        }
    }
    h.trace.extend(sched.scheduler().trace().iter().copied());
}

/// Drives the selective-repeat ARQ baseline under a fault schedule.
fn arq_layer(h: &mut Harness, cfg: &FaultConfig, seed: u64) {
    let plan = TransmissionPlan::sequential(vec![UnitSlice::new("doc", 10240, 1.0)]);
    let mut link = Link::new(
        Bandwidth::from_kbps(19.2),
        ScheduledLoss::new(cfg.clone(), seed),
        seed,
    );
    let config = ArqConfig {
        max_rounds: 256,
        ..Default::default()
    };
    let r = download_arq(&plan, &config, &mut link);
    // Invariant 4: ARQ terminates within its round budget, and reports
    // honestly when it could not finish.
    h.check(r.rounds <= 256, || {
        format!("arq: round budget exceeded: {}", r.rounds)
    });
    h.check(r.completed || r.rounds == 256, || {
        format!(
            "arq: gave up after {} rounds without exhausting the budget",
            r.rounds
        )
    });
    if r.completed {
        h.check((r.content - 1.0).abs() < 1e-9, || {
            format!("arq: completed but content {:.4} != 1", r.content)
        });
        h.check(r.packets_sent >= 40, || {
            format!("arq: completed with {} packets for M=40", r.packets_sent)
        });
    }
    // ARQ at these fault rates must finish: every round independently
    // retries the missing packets, and the budget is generous.
    h.check(r.completed, || {
        format!("arq: did not complete in {} rounds", r.rounds)
    });
}

/// Rots packets inside a dispersed blob per the schedule, then checks
/// that decoding either reconstructs byte-identically (≥ M intact per
/// group) or fails cleanly — never panics, never returns wrong bytes.
fn store_layer(h: &mut Harness, cfg: &FaultConfig, seed: u64) {
    let (m, n, packet_size) = (20usize, 30usize, 64usize);
    let payload: Vec<u8> = (0..5000u32)
        .map(|i| (i.wrapping_mul(2654435761).wrapping_add(seed as u32) >> 8) as u8)
        .collect();
    let blob = match encode_dispersed(&payload, m, n, packet_size) {
        Ok(b) => b,
        Err(e) => {
            h.check(false, || format!("store: encode failed: {e}"));
            return;
        }
    };
    // Blob layout: 29-byte header, then per group a 4-byte length plus
    // `n` records of `packet_size + 4` (packet ‖ crc32) bytes.
    let header = 29usize;
    let record = packet_size + 4;
    let group_bytes = 4 + n * record;
    let n_groups = (blob.len() - header) / group_bytes;
    let mut rotted = blob.clone();
    let mut sched = FaultScheduler::new(cfg.clone(), seed ^ 0x5707E);
    let mut min_intact = n;
    for g in 0..n_groups {
        let mut intact = n;
        for p in 0..n {
            let start = header + g * group_bytes + 4 + p * record;
            let kind = sched.next_kind(record);
            // At-rest rot: only byte-damaging faults apply; delivery
            // multiplicity (drop/dup/reorder) has no storage analogue,
            // but an outage window models an unreadable region.
            let kind = match kind {
                FaultKind::Drop | FaultKind::Outage => FaultKind::Garble {
                    seed: seed ^ p as u64,
                },
                FaultKind::Duplicate | FaultKind::Reorder { .. } | FaultKind::Truncate { .. } => {
                    FaultKind::Deliver
                }
                k => k,
            };
            if kind.corrupts() {
                let mut rec = rotted[start..start + record].to_vec();
                apply_fault(kind, &mut rec);
                rotted[start..start + record].copy_from_slice(&rec);
                intact -= 1;
            }
        }
        min_intact = min_intact.min(intact);
    }
    h.trace.extend(sched.trace().iter().copied());

    match decode_dispersed(&rotted) {
        Ok(decoded) => {
            // Invariant 1: whatever decodes must be byte-identical.
            h.check(decoded == payload, || {
                format!(
                    "store: decode returned {} bytes differing from the {}-byte source",
                    decoded.len(),
                    payload.len()
                )
            });
            h.check(min_intact >= m, || {
                format!(
                    "store: decode succeeded with a group at {min_intact} < M={m} intact \
                     packets — CRC-32 passed a corrupted packet"
                )
            });
        }
        Err(e) => {
            h.check(min_intact < m, || {
                format!(
                    "store: decode failed ({e}) although every group kept ≥ M={m} \
                     intact packets (min {min_intact})"
                )
            });
        }
    }
    // The pristine blob must always decode byte-identically.
    match decode_dispersed(&blob) {
        Ok(decoded) => h.check(decoded == payload, || {
            "store: pristine blob decoded to different bytes".to_string()
        }),
        Err(e) => h.check(false, || {
            format!("store: pristine blob failed to decode: {e}")
        }),
    }
}

/// Structural hardening checks: hostile blob inputs fail cleanly.
fn store_hardening(h: &mut Harness, seed: u64) {
    let payload = vec![0xAB; 1000];
    let blob = encode_dispersed(&payload, 5, 8, 32).expect("valid parameters");

    let mut bad_magic = blob.clone();
    bad_magic[0] ^= 0xFF;
    h.check(decode_dispersed(&bad_magic).is_err(), || {
        "store: blob with mangled magic decoded".to_string()
    });

    for cut in [0, 4, 12, 28, blob.len() / 2, blob.len() - 1] {
        h.check(decode_dispersed(&blob[..cut]).is_err(), || {
            format!("store: blob truncated to {cut} bytes decoded")
        });
    }

    let mut grown = blob.clone();
    grown.extend_from_slice(&[(seed & 0xFF) as u8; 7]);
    h.check(decode_dispersed(&grown).is_err(), || {
        "store: blob with trailing garbage decoded".to_string()
    });
}

/// Which broadcast stress the scenario applies.
#[derive(Debug, Clone, Copy)]
enum BroadcastArm {
    Join,
    Outage,
    EarlyStop,
    Corrupt,
}

/// Three documents carved from the planner fixture, dispersal-encoded
/// once each through the store codec and lifted onto the air.
fn broadcast_fixture() -> (Vec<BroadcastDoc>, Vec<Vec<u8>>) {
    let (_, _, payload) = fixture();
    let third = payload.len() / 3;
    let bodies = vec![
        payload[..third].to_vec(),
        payload[third..2 * third].to_vec(),
        payload[2 * third..].to_vec(),
    ];
    let params = [(4usize, 6usize, 64usize), (3, 5, 48), (2, 4, 96)];
    let docs = bodies
        .iter()
        .zip(&params)
        .enumerate()
        .map(|(i, (body, &(m, n, ps)))| {
            let blob = encode_dispersed(body, m, n, ps).expect("valid parameters");
            broadcast_doc_from_blob(i as u16, 1.0 / (i + 1) as f64, &blob, None)
                .expect("store blob lifts to air")
        })
        .collect();
    (docs, bodies)
}

/// Drives a listener over clean frames, with slots in `lost` heard as
/// nothing. Returns the slot it completed at, if it did before `bound`.
fn drive_clean(
    car: &Carousel,
    ch: usize,
    l: &mut BroadcastListener,
    join: u64,
    bound: u64,
    lost: impl Fn(u64) -> bool,
) -> Option<u64> {
    for slot in join..=join + bound {
        let heard = if lost(slot) {
            None
        } else {
            Some(car.frame_at(ch, slot))
        };
        if l.hear(slot, heard) {
            return Some(slot);
        }
    }
    None
}

/// The broadcast carousel under fault: whatever the air does, every
/// completed listener must hold the exact stored bytes, and the
/// scenario's timing promise must hold.
#[allow(clippy::too_many_lines)]
fn broadcast_layer(h: &mut Harness, arm: BroadcastArm, seed: u64) {
    let (docs, bodies) = broadcast_fixture();
    match arm {
        BroadcastArm::Join => {
            // Scattered mid-cycle joins on clean air across two flat
            // channels: completion within two cycles of tune-in.
            let car = Carousel::build(
                &docs,
                &CarouselConfig {
                    channels: 2,
                    skew: Skew::Flat,
                    index_every: 4,
                },
            )
            .expect("valid corpus");
            for (k, doc) in docs.iter().enumerate() {
                let ch = car.channel_of(doc.id).expect("document on air");
                let cycle = car.cycle_len(ch) as u64;
                for probe in 0..4u64 {
                    let join = seed
                        .wrapping_mul(0x9E37_79B9)
                        .wrapping_add(probe.wrapping_mul(7919))
                        % (2 * cycle);
                    let mut l = BroadcastListener::new(probe, doc.id, StopRule::Complete);
                    let done = drive_clean(&car, ch, &mut l, join, 2 * cycle + 2, |_| false);
                    h.check(done.is_some(), || {
                        format!("broadcast: doc {k} join {join} missed the two-cycle bound")
                    });
                    h.check(l.bytes() == Some(&bodies[k][..]), || {
                        format!("broadcast: doc {k} join {join} reconstructed wrong bytes")
                    });
                }
            }
        }
        BroadcastArm::Outage => {
            let car = Carousel::build(
                &docs,
                &CarouselConfig {
                    channels: 1,
                    skew: Skew::Flat,
                    index_every: 3,
                },
            )
            .expect("valid corpus");
            let cycle = car.cycle_len(0) as u64;
            // A deterministic blackout straddling the first cycle
            // boundary: nothing heard in [cycle−2, cycle+3].
            for (k, doc) in docs.iter().enumerate() {
                let mut l = BroadcastListener::new(k as u64, doc.id, StopRule::Complete);
                let window = |s: u64| s >= cycle - 2 && s <= cycle + 3;
                let done = drive_clean(&car, 0, &mut l, seed % cycle, 6 * cycle, window);
                h.check(done.is_some(), || {
                    format!("broadcast: doc {k} never completed around the boundary outage")
                });
                h.check(l.bytes() == Some(&bodies[k][..]), || {
                    format!("broadcast: doc {k} outage run reconstructed wrong bytes")
                });
            }
            // The stochastic arm: outage-heavy shared air, one tap per
            // listener, generous horizon.
            let mut medium = SharedMedium::new(&FaultConfig::outage_heavy(), seed, docs.len());
            let mut listeners: Vec<BroadcastListener> = docs
                .iter()
                .map(|d| BroadcastListener::new(u64::from(d.id), d.id, StopRule::Complete))
                .collect();
            for slot in 0..24 * cycle {
                if listeners.iter().all(BroadcastListener::is_done) {
                    break;
                }
                let frame = car.frame_at(0, slot).to_vec();
                for (tap, l) in listeners.iter_mut().enumerate() {
                    if !l.is_done() {
                        let delivery = medium.transmit_to(tap, &frame);
                        l.hear(slot, delivery.bytes());
                    }
                }
            }
            h.trace
                .extend((0..docs.len()).flat_map(|t| medium.trace(t).to_vec()));
            for (k, l) in listeners.iter().enumerate() {
                h.check(l.is_done(), || {
                    format!("broadcast: listener {k} starved through outage-heavy air")
                });
                h.check(l.bytes() == Some(&bodies[k][..]), || {
                    format!("broadcast: listener {k} outage-heavy bytes differ")
                });
            }
        }
        BroadcastArm::EarlyStop => {
            let car = Carousel::build(
                &docs,
                &CarouselConfig {
                    channels: 1,
                    skew: Skew::Popularity,
                    index_every: 2,
                },
            )
            .expect("valid corpus");
            let cycle = car.cycle_len(0) as u64;
            for (k, doc) in docs.iter().enumerate() {
                let join = seed.wrapping_mul(31).wrapping_add(k as u64) % cycle;
                let mut early = BroadcastListener::new(0, doc.id, StopRule::Complete);
                let mut full = BroadcastListener::new(1, doc.id, StopRule::AllPackets);
                let early_done = drive_clean(&car, 0, &mut early, join, 8 * cycle, |_| false);
                let full_done = drive_clean(&car, 0, &mut full, join, 8 * cycle, |_| false);
                h.check(early_done.is_some() && full_done.is_some(), || {
                    format!("broadcast: doc {k} early/full listeners did not finish")
                });
                h.check(
                    early.bytes() == Some(&bodies[k][..]) && full.bytes() == Some(&bodies[k][..]),
                    || format!("broadcast: doc {k} early-stop bytes differ from full collection"),
                );
                h.check(early.access_slots() <= full.access_slots(), || {
                    format!(
                        "broadcast: doc {k} early stop ({:?}) slower than all-packets ({:?})",
                        early.access_slots(),
                        full.access_slots()
                    )
                });
            }
        }
        BroadcastArm::Corrupt => {
            let car = Carousel::build(
                &docs,
                &CarouselConfig {
                    channels: 1,
                    skew: Skew::Flat,
                    index_every: 4,
                },
            )
            .expect("valid corpus");
            let cycle = car.cycle_len(0) as u64;
            let taps = 5;
            let mut medium = SharedMedium::new(&FaultConfig::corrupting(0.25), seed, taps);
            let mut listeners: Vec<BroadcastListener> = (0..taps as u64)
                .map(|i| {
                    BroadcastListener::new(
                        i,
                        docs[(i as usize) % docs.len()].id,
                        StopRule::Complete,
                    )
                })
                .collect();
            for slot in 0..24 * cycle {
                if listeners.iter().all(BroadcastListener::is_done) {
                    break;
                }
                let frame = car.frame_at(0, slot).to_vec();
                for (tap, l) in listeners.iter_mut().enumerate() {
                    if !l.is_done() {
                        let delivery = medium.transmit_to(tap, &frame);
                        l.hear(slot, delivery.bytes());
                    }
                }
            }
            h.trace
                .extend((0..taps).flat_map(|t| medium.trace(t).to_vec()));
            let mut rejected = 0u64;
            for (i, l) in listeners.iter().enumerate() {
                let k = i % docs.len();
                h.check(l.is_done(), || {
                    format!("broadcast: listener {i} never completed through corruption")
                });
                h.check(l.bytes() == Some(&bodies[k][..]), || {
                    format!("broadcast: listener {i} accepted corrupted bytes")
                });
                rejected += l.corrupt_frames();
            }
            h.check(rejected > 0, || {
                "broadcast: corrupting air produced zero CRC rejections".to_string()
            });
        }
    }
}

/// Which edge-cache stress the scenario applies.
#[derive(Debug, Clone, Copy)]
enum EdgeArm {
    Rot,
    RoamOutage,
}

/// One base-station cell for the edge scenarios: corpus, cache,
/// gateway, and the scratch directory holding the cache's blobs.
struct EdgeCell {
    dir: std::path::PathBuf,
    store: std::sync::Arc<DocumentStore>,
    edge: std::sync::Arc<EdgeCache>,
    gateway: Gateway,
}

/// A seeded two-document corpus behind a gateway with a disk-backed
/// edge cache, in a scratch directory unique to this run. The
/// directory name is wall-clock-salted so concurrent runs never
/// collide; nothing checked downstream depends on it.
fn edge_cell(tag: &str, seed: u64, docs: usize) -> Result<EdgeCell, String> {
    use std::sync::Arc;
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_err(|e| format!("{e}"))?
        .as_nanos();
    let dir = std::env::temp_dir().join(format!("mrtweb-faultrun-{tag}-{seed}-{nanos}"));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{e}"))?;
    let store = Arc::new(DocumentStore::new(docs.max(4)));
    for i in 0..docs {
        let generated = SyntheticDocSpec {
            sections: 2,
            subsections_per_section: 2,
            paragraphs_per_subsection: 2,
            target_bytes: 1500 + (i % 3) * 400,
            ..Default::default()
        }
        .generate(seed.wrapping_add(i as u64));
        store.put(format!("http://cell/doc{i}"), generated.document);
    }
    let edge = Arc::new(EdgeCache::new(&dir, CACHE_BUDGET).map_err(|e| format!("{e}"))?);
    let gateway = Gateway::new(Arc::clone(&store)).with_edge(Arc::clone(&edge));
    Ok(EdgeCell {
        dir,
        store,
        edge,
        gateway,
    })
}

/// The payload the planner would transmit for `req` — the byte-identity
/// ground truth every edge serve must reconstruct to.
fn edge_expected(store: &DocumentStore, req: &Request) -> Option<Vec<u8>> {
    let doc = store.document(&req.url)?;
    let query = Query::parse(&req.query, store.pipeline());
    let sc = store.structural_characteristic(&req.url, &query)?;
    Some(plan_document(&doc, &sc, req.lod, req.measure).1)
}

/// Reconstructs a document from `server`, returning its payload bytes.
fn edge_reconstruct(server: &LiveServer) -> Option<Vec<u8>> {
    let mut client = LiveClient::new(server.header().clone()).ok()?;
    for f in 0..server.header().n {
        if client.document_bytes().is_some() {
            break;
        }
        if let Some(wire) = server.frame_bytes(f) {
            client.on_wire(wire);
        }
    }
    client.document_bytes().map(<[u8]>::to_vec)
}

/// The edge cache under fault: at-rest blob rot at one cell, and a
/// migration record damaged on the backhaul between two cells. Every
/// failure must be detected (never served), every fallback must
/// re-encode from the store, and every completed reconstruction must
/// stay byte-identical.
#[allow(clippy::too_many_lines)]
fn edge_layer(h: &mut Harness, arm: EdgeArm, seed: u64) {
    let docs = 2usize;
    match arm {
        EdgeArm::Rot => {
            let cell = match edge_cell("rot", seed, docs) {
                Ok(cell) => cell,
                Err(e) => {
                    h.check(false, || format!("edge-rot: cell setup failed: {e}"));
                    return;
                }
            };
            let (dir, store, edge, gateway) = (cell.dir, cell.store, cell.edge, cell.gateway);
            for i in 0..docs {
                let req = Request {
                    url: format!("http://cell/doc{i}"),
                    query: String::new(),
                    lod: Lod::Paragraph,
                    measure: Measure::Ic,
                    packet_size: 64,
                    gamma: 1.5,
                };
                let Some(expected) = edge_expected(&store, &req) else {
                    h.check(false, || format!("edge-rot: doc {i} has no plan"));
                    continue;
                };
                // Admit via the miss path, then prove the repeat hits.
                let first = gateway.prepare_edge(&req);
                let repeat = gateway.prepare_edge(&req);
                if let (Ok((_, hit0)), Ok((_, hit1))) = (&first, &repeat) {
                    h.check(!hit0, || {
                        format!("edge-rot: doc {i} first request served from an empty cache")
                    });
                    h.check(*hit1, || {
                        format!("edge-rot: doc {i} repeat request missed a warm cache")
                    });
                } else {
                    h.check(false, || format!("edge-rot: doc {i} prepare failed"));
                    continue;
                }

                // Rot the blob at rest: truncation (structural damage)
                // for even documents, whole-file garble (every byte
                // corrupted, CRC stress) for odd ones.
                let key = EdgeKey::of(&req);
                let Some(path) = edge.blob_path(&key) else {
                    h.check(false, || format!("edge-rot: doc {i} cache has no disk"));
                    continue;
                };
                let damaged = std::fs::read(&path).map(|mut bytes| {
                    if i % 2 == 0 {
                        bytes.truncate(bytes.len() / 2);
                    } else {
                        for (j, b) in bytes.iter_mut().enumerate() {
                            *b ^= (seed as u8).wrapping_add(j as u8) | 1;
                        }
                    }
                    std::fs::write(&path, &bytes)
                });
                h.check(matches!(damaged, Ok(Ok(()))), || {
                    format!("edge-rot: doc {i} could not damage blob on disk")
                });
                // Invariant 2: the rot is detected, never shipped: a
                // migration reads the at-rest blob, refuses it, and the
                // entry whose copy rotted leaves the cache, the
                // gateway's only cache of cooked bytes.
                h.check(edge.export_blob(&key).is_none(), || {
                    format!("edge-rot: doc {i} exported a rotted blob")
                });
                h.check(!edge.contains(&key), || {
                    format!("edge-rot: doc {i} kept the entry of a rotted blob")
                });

                // Fallback: the next request re-encodes from the store
                // and re-admits; the one after hits the refreshed entry.
                // Both reconstruct byte-identically (invariant 1).
                for (label, want_hit) in [("re-encode", false), ("refreshed hit", true)] {
                    match gateway.prepare_edge(&req) {
                        Ok((server, hit)) => {
                            h.check(hit == want_hit, || {
                                format!(
                                    "edge-rot: doc {i} {label} expected hit={want_hit}, got {hit}"
                                )
                            });
                            h.check(
                                edge_reconstruct(&server).as_deref() == Some(&expected[..]),
                                || {
                                    format!(
                                        "edge-rot: doc {i} {label} reconstruction not byte-identical"
                                    )
                                },
                            );
                        }
                        Err(e) => h.check(false, || {
                            format!("edge-rot: doc {i} {label} prepare failed: {e}")
                        }),
                    }
                }
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
        EdgeArm::RoamOutage => {
            // Two cells; unlike the clean roam driver, cell B also holds
            // the corpus, because the backhaul outage forces it to fall
            // back to its own store when the migration record is lost.
            let cell_a = match edge_cell("roam-a", seed, docs) {
                Ok(cell) => cell,
                Err(e) => {
                    h.check(false, || {
                        format!("edge-roam-outage: cell A setup failed: {e}")
                    });
                    return;
                }
            };
            let cell_b = match edge_cell("roam-b", seed, docs) {
                Ok(cell) => cell,
                Err(e) => {
                    h.check(false, || {
                        format!("edge-roam-outage: cell B setup failed: {e}")
                    });
                    let _ = std::fs::remove_dir_all(&cell_a.dir);
                    return;
                }
            };
            let (dir_a, store_a, edge_a, gateway_a) =
                (cell_a.dir, cell_a.store, cell_a.edge, cell_a.gateway);
            let (dir_b, edge_b, gateway_b) = (cell_b.dir, cell_b.edge, cell_b.gateway);
            for i in 0..docs {
                let req = Request {
                    url: format!("http://cell/doc{i}"),
                    query: String::new(),
                    lod: Lod::Paragraph,
                    measure: Measure::Ic,
                    packet_size: 64,
                    gamma: 1.5,
                };
                let Some(expected) = edge_expected(&store_a, &req) else {
                    h.check(false, || format!("edge-roam-outage: doc {i} has no plan"));
                    continue;
                };
                // Start the transfer at cell A and bank half the frames.
                let Ok((server_a, _)) = gateway_a.prepare_edge(&req) else {
                    h.check(false, || {
                        format!("edge-roam-outage: doc {i} prepare at cell A failed")
                    });
                    continue;
                };
                let m = server_a.header().m;
                let held = (m / 2).clamp(1, m.saturating_sub(1).max(1));
                let Ok(mut client) = LiveClient::new(server_a.header().clone()) else {
                    h.check(false, || {
                        format!("edge-roam-outage: doc {i} client construction failed")
                    });
                    continue;
                };
                for f in 0..held {
                    if let Some(wire) = server_a.frame_bytes(f) {
                        client.on_wire(wire);
                    }
                }

                // The migration record is damaged in backhaul transit:
                // a seed-picked byte flip. CRC framing must reject it —
                // cleanly, never by panicking (invariant 2).
                let key = EdgeKey::of(&req);
                let Some((header, blob)) = edge_a.export_blob(&key) else {
                    h.check(false, || {
                        format!("edge-roam-outage: doc {i} never admitted at cell A")
                    });
                    continue;
                };
                let record = encode_record(&MigrationRecord { key, header, blob });
                h.check(decode_record(&record).is_ok(), || {
                    format!("edge-roam-outage: doc {i} pristine record failed to decode")
                });
                let mut corrupted = record.clone();
                let pos =
                    (seed as usize).wrapping_mul(2_654_435_761).wrapping_add(i) % corrupted.len();
                corrupted[pos] ^= 0xFF;
                h.check(decode_record(&corrupted).is_err(), || {
                    format!("edge-roam-outage: doc {i} record with byte {pos} flipped decoded")
                });
                // Hostile truncations and growth must also fail cleanly.
                for cut in [0, 1, 7, record.len() / 2, record.len() - 1] {
                    h.check(decode_record(&record[..cut]).is_err(), || {
                        format!("edge-roam-outage: doc {i} record truncated to {cut} decoded")
                    });
                }
                let mut grown = record.clone();
                grown.extend_from_slice(&[(seed & 0xFF) as u8; 5]);
                h.check(decode_record(&grown).is_err(), || {
                    format!("edge-roam-outage: doc {i} record with trailing garbage decoded")
                });

                // The record is lost, so nothing was admitted at cell B:
                // the resume falls back to exactly one re-encode from
                // B's own store, and only missing packets cross the new
                // wireless hop.
                h.check(!edge_b.contains(&EdgeKey::of(&req)), || {
                    format!("edge-roam-outage: doc {i} appeared at cell B without a migration")
                });
                let Ok((server_b, hit_b)) = gateway_b.prepare_edge(&req) else {
                    h.check(false, || {
                        format!("edge-roam-outage: doc {i} fallback prepare at cell B failed")
                    });
                    continue;
                };
                h.check(!hit_b, || {
                    format!("edge-roam-outage: doc {i} cell B claimed a hit on an empty cache")
                });
                let missing = client.state().missing();
                let mut new_hop_frames = 0usize;
                for idx in missing {
                    if client.document_bytes().is_some() {
                        break;
                    }
                    let Some(wire) = server_b.frame_bytes(idx) else {
                        continue;
                    };
                    client.on_wire(wire);
                    new_hop_frames += 1;
                }
                // Invariant 1: the resume completes byte-identically,
                // and the banked cell-A packets kept their value.
                h.check(client.document_bytes() == Some(&expected[..]), || {
                    format!("edge-roam-outage: doc {i} fallback resume not byte-identical")
                });
                h.check(new_hop_frames < m, || {
                    format!(
                        "edge-roam-outage: doc {i} pushed {new_hop_frames} frames for M={m} — \
                         the roam bought nothing"
                    )
                });
            }
            let _ = std::fs::remove_dir_all(&dir_a);
            let _ = std::fs::remove_dir_all(&dir_b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_scenario_passes_smoke_seeds() {
        for (name, _) in SCENARIOS {
            for seed in [1u64, 2, 3] {
                let r = run_scenario(name, seed).unwrap();
                assert!(
                    r.passed(),
                    "scenario {name} seed {seed} failed:\n{}",
                    r.render()
                );
                assert!(r.checks > 0, "scenario {name} performed no checks");
            }
        }
    }

    #[test]
    fn scenario_runs_are_deterministic() {
        let a = run_scenario("mixed", 7).unwrap();
        let b = run_scenario("mixed", 7).unwrap();
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.checks, b.checks);
        assert_eq!(a.failures, b.failures);
    }

    #[test]
    fn unknown_scenario_is_an_error() {
        assert!(run_scenario("nope", 1).is_err());
    }

    #[test]
    fn faulted_scenarios_capture_an_observability_timeline() {
        let r = run_scenario("mixed", 1).unwrap();
        assert!(
            r.timeline
                .events
                .iter()
                .any(|e| e.kind == mrtweb_obs::EventKind::FaultInjected),
            "mixed scenario timeline has no fault-injected events ({} total)",
            r.timeline.events.len()
        );
        assert!(
            r.timeline
                .events
                .iter()
                .any(|e| e.kind == mrtweb_obs::EventKind::RoundSpan),
            "mixed scenario timeline has no round spans"
        );
        // Causal order: timestamps never run backwards.
        assert!(r.timeline.events.windows(2).all(|w| w[0].ts <= w[1].ts));
    }

    #[test]
    fn faulted_scenarios_log_nonempty_traces() {
        for name in ["bernoulli", "mixed", "garble", "arq-storm"] {
            let r = run_scenario(name, 1).unwrap();
            assert!(!r.trace.is_empty(), "{name} logged no fault events");
        }
    }
}
