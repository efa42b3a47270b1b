//! The measured run: set the daemon up, drive it with two generator
//! threads through the real mobile client, and read every counter at
//! the boundaries of the measured window only.

use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use mrtweb::obs::hist::bucket_bounds;
use mrtweb::obs::{HistSnapshot, RegistrySnapshot};
use mrtweb::proxy::client::{fetch, FetchOptions};
use mrtweb::proxy::stats;
use mrtweb::store::store::DocumentStore;

use crate::procfs::{self, TaskSample, TICKS_PER_S};
use crate::util::{median, nearest_rank, Hash};
use crate::workload::{
    build_daemon, query_text, url, Daemon, Inputs, Op, Oracle, Verdict, Versions, Workload,
    GENERATORS, PACKET_SIZE,
};

/// Timed daemon builds before the run and after it; `setup_s` is their
/// median. On a shared machine the same set-up work runs ~1.5x slower
/// in stretches lasting seconds, so back-to-back builds all land in one
/// such stretch and their median flips from run to run. Builds spaced
/// [`SETUP_GAP`] apart, half of them some 25 s after the others, sample
/// the machine at many moments instead.
const SETUP_BUILDS_BEFORE: usize = 6;
const SETUP_BUILDS_AFTER: usize = 5;
const SETUP_GAP: Duration = Duration::from_millis(250);
/// The measured window is cut into sub-windows of about this length.
/// Throughput, latency and CPU are computed per sub-window and the
/// median is reported, so a few seconds of interference from other
/// tenants of the machine move a run's result little.
const SUB_WINDOW_S: f64 = 1.0;
/// A sub-window in which the hypervisor gave at most this share of the
/// machine's CPU time to other virtual machines counts as quiet. The
/// medians are taken over the quiet sub-windows, or over the quarter of
/// sub-windows with the least steal when fewer are quiet: at 14-35 %
/// steal the same work ran 1.5-4x slower on a shared 2-vCPU host.
const QUIET_STEAL: f64 = 0.01;
/// Cold fetches whose stream position is a multiple of this are
/// verified byte-for-byte after the clock stops.
const COLD_SAMPLE_EVERY: usize = 16;
/// The paper's wireless hop, bits per second.
const AIR_BPS: f64 = 19_200.0;

/// `Shared::phase` before the measured window; sub-window `k` is phase
/// `k + 1`.
const WARMUP: usize = 0;
const STOP: usize = usize::MAX;

/// What one measured run found.
pub struct RunReport {
    /// `(metric, value)` in the order of the metric table.
    pub metrics: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable findings: sample counts, CPU split, errors.
    pub notes: Vec<String>,
}

struct Shared<'a> {
    inputs: &'a Inputs,
    oracle: &'a Oracle,
    versions: &'a Versions,
    store: &'a DocumentStore,
    addr: SocketAddr,
    phase: AtomicUsize,
}

impl Shared<'_> {
    fn phase(&self) -> usize {
        // ORDERING: a window/stop flag; no data is published through it.
        self.phase.load(Ordering::Relaxed)
    }

    fn set_phase(&self, phase: usize) {
        // ORDERING: as in `phase`.
        self.phase.store(phase, Ordering::Relaxed);
    }
}

/// One generator's tallies. Latencies and bytes are kept per
/// sub-window; attempts and failures cover the whole run.
#[derive(Default)]
struct Tally {
    tid: Option<u32>,
    /// `(sub-window, latency ns)` of fetches completed while measuring.
    lat_ns: Vec<(usize, u64)>,
    bytes: u64,
    attempted: u64,
    wrong: u64,
    stale: u64,
    refused: u64,
    errors: Vec<String>,
    cold_samples: Vec<(usize, Option<[u8; 3]>, u64)>,
}

impl Tally {
    fn new() -> Tally {
        Tally {
            tid: procfs::thread_id(),
            ..Tally::default()
        }
    }

    fn note_error(&mut self, what: String) {
        if self.errors.len() < 5 {
            self.errors.push(what);
        }
    }
}

pub fn fetch_options(workload: Workload, doc: usize, query: Option<[u8; 3]>) -> FetchOptions {
    FetchOptions {
        query: query_text(query),
        measure: workload.measure_name().to_owned(),
        packet_size: PACKET_SIZE,
        gamma: workload.gamma(),
        ..FetchOptions::new(url(doc))
    }
}

/// Runs one operation; `index` is its position in the generator's
/// stream.
fn step(sh: &Shared, t: &mut Tally, op: Op, index: usize) {
    let workload = sh.inputs.workload;
    t.attempted += 1;
    let (doc, query) = match op {
        Op::Put { doc, version } => {
            sh.versions.put(sh.store, sh.inputs, doc, version);
            return;
        }
        Op::Fetch { doc, query } => (doc, query),
    };
    let state = sh
        .versions
        .doc(doc)
        .read()
        .expect("no generator panics while holding a document lock");
    let options = fetch_options(workload, doc, query);
    let start = Instant::now();
    let result = fetch(sh.addr, &options);
    let done = Instant::now();
    let report = match result {
        Ok(r) if r.completed => r,
        Ok(_) => {
            t.refused += 1;
            return t.note_error(format!("doc/{doc}: session ended without reconstruction"));
        }
        Err(e) => {
            t.refused += 1;
            return t.note_error(format!("doc/{doc}: {e}"));
        }
    };
    let verdict = if workload == Workload::Cold {
        // Every fetch pays the same hashing cost on the clock; the
        // sampled ones are compared with the oracle after it stops.
        let hash = Hash::default().bytes(&report.payload).finish();
        if index.is_multiple_of(COLD_SAMPLE_EVERY) {
            t.cold_samples.push((doc, query, hash));
        }
        Verdict::Ok
    } else {
        sh.oracle.check(doc, &state, &report.payload)
    };
    drop(state);
    match verdict {
        Verdict::Ok => {}
        Verdict::Wrong => {
            t.wrong += 1;
            t.note_error(format!("doc/{doc}: payload differs from the reference"));
        }
        Verdict::Stale => {
            t.stale += 1;
            t.note_error(format!("doc/{doc}: served a superseded version"));
        }
    }
    let phase = sh.phase();
    if !matches!(phase, WARMUP | STOP) {
        let ns = u64::try_from(done.duration_since(start).as_nanos()).unwrap_or(u64::MAX);
        t.lat_ns.push((phase - 1, ns));
        t.bytes += report.bytes_received;
    }
}

/// One generator: a mobile user who asks for the next document when the
/// last one has arrived.
fn closed_loop(sh: &Shared, g: usize) -> Tally {
    let mut t = Tally::new();
    let stream = &sh.inputs.streams[g];
    let mut i = 0;
    while sh.phase() != STOP {
        step(sh, &mut t, stream[i % stream.len()], i);
        i += 1;
    }
    t
}

/// Counters read at one boundary of a sub-window.
struct Boundary {
    at: Instant,
    stats: RegistrySnapshot,
    process_ticks: u64,
    tasks: HashMap<u32, TaskSample>,
    out_segs: u64,
    /// The machine's `(steal, total)` CPU ticks.
    steal: (u64, u64),
}

impl Boundary {
    fn read(stats: RegistrySnapshot) -> Result<Boundary, String> {
        let need = "the benchmark reads Linux /proc counters";
        Ok(Boundary {
            at: Instant::now(),
            stats,
            process_ticks: procfs::process_ticks().ok_or(need)?,
            tasks: procfs::tasks(),
            out_segs: procfs::tcp_out_segs().ok_or(need)?,
            steal: procfs::cpu_steal().ok_or(need)?,
        })
    }

    /// The share of the machine's CPU time since `earlier` that the
    /// hypervisor gave to someone else.
    fn steal_share(&self, earlier: &Boundary) -> f64 {
        ratio(
            self.steal.0.saturating_sub(earlier.steal.0) as f64,
            self.steal.1.saturating_sub(earlier.steal.1) as f64,
        )
    }

    /// Ticks and context switches `tids` (or every thread but those,
    /// when `invert`) spent since `earlier`.
    fn task_delta(&self, earlier: &Boundary, tids: &HashSet<u32>, invert: bool) -> (u64, u64) {
        let mut sum = (0, 0);
        for (tid, end) in &self.tasks {
            if tids.contains(tid) != invert {
                let start = earlier.tasks.get(tid).copied().unwrap_or_default();
                sum.0 += end.ticks.saturating_sub(start.ticks);
                sum.1 += end.switches.saturating_sub(start.switches);
            }
        }
        sum
    }
}

fn hist_delta(a: &HistSnapshot, b: &HistSnapshot) -> HistSnapshot {
    let buckets: Vec<u64> = b
        .buckets
        .iter()
        .enumerate()
        .map(|(i, &n)| n.saturating_sub(a.buckets.get(i).copied().unwrap_or(0)))
        .collect();
    HistSnapshot {
        count: buckets.iter().sum(),
        buckets,
        sum: b.sum.wrapping_sub(a.sum),
        min: 0,
        max: b.max,
    }
}

/// The `q`-quantile of a histogram, interpolated by rank inside the
/// bucket that holds it. `HistSnapshot::quantile` answers with the
/// bucket's upper edge, which repeats exactly from run to run.
fn hist_quantile(h: &HistSnapshot, q: f64) -> f64 {
    let rank = (q * h.count as f64).max(1.0);
    let mut seen = 0.0;
    for (idx, &c) in h.buckets.iter().enumerate() {
        let c = c as f64;
        if c > 0.0 && seen + c >= rank {
            let (lo, hi) = bucket_bounds(idx);
            return lo as f64 + (hi - lo) as f64 * (rank - seen) / c;
        }
        seen += c;
    }
    0.0
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Builds the daemon `n` (> 0) times, [`SETUP_GAP`] apart, shutting
/// down all but the last build; returns it and the build times.
fn timed_builds(inputs: &Inputs, n: usize) -> Result<(Daemon, Vec<f64>), String> {
    let mut times = Vec::with_capacity(n);
    let mut daemon = None;
    for _ in 0..n {
        std::thread::sleep(SETUP_GAP);
        let began = Instant::now();
        let built = build_daemon(inputs.workload, inputs.seed)?;
        times.push(began.elapsed().as_secs_f64());
        if let Some((old, _)) = daemon.replace(built) {
            let _ = old.shutdown();
        }
    }
    Ok((daemon.expect("n > 0"), times))
}

/// Sets up, warms up for `warmup` seconds, then measures for `seconds`.
pub fn run(inputs: &Inputs, warmup: f64, seconds: f64) -> Result<RunReport, String> {
    let workload = inputs.workload;
    let ((server, store), mut setup) = timed_builds(inputs, SETUP_BUILDS_BEFORE)?;
    let oracle = Oracle::new(inputs);
    let versions = Versions::new(workload.docs());
    let sh = Shared {
        inputs,
        oracle: &oracle,
        versions: &versions,
        store: &store,
        addr: server.local_addr(),
        phase: AtomicUsize::new(WARMUP),
    };
    let windows = ((seconds / SUB_WINDOW_S).round() as usize).max(1);
    let sub = Duration::from_secs_f64(seconds / windows as f64);

    let (tallies, bounds) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..GENERATORS)
            .map(|g| {
                let sh = &sh;
                scope.spawn(move || closed_loop(sh, g))
            })
            .collect();
        std::thread::sleep(Duration::from_secs_f64(warmup));
        // Every boundary is read while the generators still run: an
        // exited generator's task leaves /proc, and its CPU would then
        // count as the daemon's.
        let bounds: Result<Vec<Boundary>, String> = (0..=windows)
            .map(|k| {
                if k > 0 {
                    std::thread::sleep(sub);
                }
                let b = Boundary::read(server.stats());
                sh.set_phase(if k == windows { STOP } else { k + 1 });
                b
            })
            .collect();
        sh.set_phase(STOP);
        let tallies: Vec<Tally> = handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect();
        (tallies, bounds)
    });
    let _ = server.shutdown();
    let (last, after) = timed_builds(inputs, SETUP_BUILDS_AFTER)?;
    let _ = last.0.shutdown();
    setup.extend(after);
    setup.sort_by(f64::total_cmp);
    let mut notes = vec![format!(
        "setup: {} builds ({SETUP_BUILDS_BEFORE} before the run, {SETUP_BUILDS_AFTER} after), fastest {:.3} ms, median {:.3} ms, slowest {:.3} ms",
        setup.len(),
        setup[0] * 1e3,
        median(&setup) * 1e3,
        setup[setup.len() - 1] * 1e3
    )];
    let bounds = bounds?;
    let (b0, b1) = (&bounds[0], &bounds[windows]);

    // Correctness over the whole run.
    let mut failed = 0;
    let mut attempted = 0;
    for t in &tallies {
        attempted += t.attempted;
        failed += t.refused + t.wrong + t.stale;
        notes.extend(t.errors.iter().map(|e| format!("error: {e}")));
    }
    let cold_samples: Vec<_> = tallies.iter().flat_map(|t| &t.cold_samples).collect();
    for &&(doc, query, hash) in &cold_samples {
        if oracle.check_query(doc, query, hash) != Verdict::Ok {
            failed += 1;
            notes.push(format!(
                "error: doc/{doc} ?q={:?}: payload differs from the reference",
                query_text(query)
            ));
        }
    }
    if workload == Workload::Cold {
        notes.push(format!(
            "oracle: {} sampled cold fetches verified after the clock",
            cold_samples.len()
        ));
    }

    // End-to-end metrics: the median over sub-windows.
    let mut per_window: Vec<Vec<u64>> = vec![Vec::new(); windows];
    for &(k, ns) in tallies.iter().flat_map(|t| &t.lat_ns) {
        per_window[k].push(ns);
    }
    let n: usize = per_window.iter().map(Vec::len).sum();
    if per_window.iter().any(Vec::is_empty) {
        return Err("a measured sub-window completed no fetch".into());
    }
    let steal: Vec<f64> = (0..windows)
        .map(|k| bounds[k + 1].steal_share(&bounds[k]))
        .collect();
    let mut by_steal = steal.clone();
    by_steal.sort_by(f64::total_cmp);
    let cut = QUIET_STEAL.max(by_steal[windows.div_ceil(4) - 1]);
    let kept: Vec<usize> = (0..windows).filter(|&k| steal[k] <= cut).collect();
    notes.push(format!(
        "host steal per sub-window: median {:.1}%, max {:.1}%; metrics use the {} of {windows} sub-windows with steal <= {:.1}%",
        median(&steal) * 100.0,
        by_steal[windows - 1] * 100.0,
        kept.len(),
        cut * 100.0
    ));
    let generators: HashSet<u32> = tallies.iter().filter_map(|t| t.tid).collect();
    let (mut thr, mut p50, mut p99, mut per_cpu, mut beyond) =
        (vec![], vec![], vec![], vec![], usize::MAX);
    for &k in &kept {
        let samples = &mut per_window[k];
        samples.sort_unstable();
        let (a, b) = (&bounds[k], &bounds[k + 1]);
        let count = samples.len() as f64;
        let gen_ticks = b.task_delta(a, &generators, false).0;
        let daemon_ticks = b
            .process_ticks
            .saturating_sub(a.process_ticks)
            .saturating_sub(gen_ticks);
        thr.push(count / b.at.duration_since(a.at).as_secs_f64());
        p50.push(nearest_rank(samples, 0.50) as f64 / 1e6);
        p99.push(nearest_rank(samples, 0.99) as f64 / 1e6);
        per_cpu.push(ratio(count, daemon_ticks as f64 / TICKS_PER_S));
        beyond = beyond.min(samples.len() - ((0.99 * count).ceil() as usize).max(1));
    }
    notes.push(format!(
        "latency samples {n} in {windows} sub-windows of {:.2} s; each used sub-window's p99 has >= {beyond} samples beyond it",
        sub.as_secs_f64()
    ));
    notes.push(format!(
        "throughput {:.3} fetches/s, latency p99 {:.6} ms (medians over the used sub-windows; reported, not bounded)",
        median(&thr),
        median(&p99)
    ));

    let mut main_and_generators = generators.clone();
    main_and_generators.extend(procfs::thread_id());
    let gen_ticks = b1.task_delta(b0, &generators, false).0;
    let daemon_switches = b1.task_delta(b0, &main_and_generators, true).1;
    let process_ticks = b1.process_ticks.saturating_sub(b0.process_ticks);
    notes.push(format!(
        "cpu over the window: process {:.2} s, generators {:.2} s, daemon {:.2} s",
        process_ticks as f64 / TICKS_PER_S,
        gen_ticks as f64 / TICKS_PER_S,
        process_ticks.saturating_sub(gen_ticks) as f64 / TICKS_PER_S
    ));

    let n = n as f64;
    let bytes: u64 = tallies.iter().map(|t| t.bytes).sum();
    let mut metrics = vec![
        ("setup_s", median(&setup)),
        ("latency_p50_ms", median(&p50)),
        ("fetches_per_cpu_s", median(&per_cpu)),
        ("air_s_per_fetch", bytes as f64 / n * 8.0 / AIR_BPS),
    ];

    // Per-layer counts over the whole measured window.
    let counter = |name| {
        b1.stats
            .counter(name)
            .saturating_sub(b0.stats.counter(name)) as f64
    };
    let gauge = |s: &RegistrySnapshot, name| s.gauge(name).max(0) as f64;
    let hist = |name| hist_delta(&b0.stats.hist(name), &b1.stats.hist(name));
    let (session, wait) = (hist(stats::REQUEST_LATENCY_NS), hist(stats::LOOP_WAIT_NS));
    let decode_hits =
        gauge(&b1.stats, stats::DECODE_CACHE_HITS) - gauge(&b0.stats, stats::DECODE_CACHE_HITS);
    let decode_misses =
        gauge(&b1.stats, stats::DECODE_CACHE_MISSES) - gauge(&b0.stats, stats::DECODE_CACHE_MISSES);
    notes.push(format!(
        "decode-inverse lookups {} ({} hits)",
        decode_hits + decode_misses,
        decode_hits
    ));
    metrics.extend([
        (
            "proxy.frames_sent_per_fetch",
            counter(stats::FRAMES_SENT) / n,
        ),
        ("proxy.bytes_sent_per_fetch", counter(stats::BYTES_SENT) / n),
        (
            "proxy.retransmit_requests_per_fetch",
            counter(stats::RETRANSMIT_REQUESTS) / n,
        ),
        (
            "proxy.faults_injected_per_fetch",
            counter(stats::FAULTS_INJECTED) / n,
        ),
        ("proxy.session_p50_us", hist_quantile(&session, 0.50) / 1e3),
        ("proxy.session_p99_us", hist_quantile(&session, 0.99) / 1e3),
        ("proxy.loop_wait_p50_us", hist_quantile(&wait, 0.50) / 1e3),
        (
            "proxy.outbuf_hwm_bytes",
            gauge(&b1.stats, stats::OUTBUF_HWM_BYTES),
        ),
        ("proxy.ctx_switches_per_fetch", daemon_switches as f64 / n),
        (
            "tcp.segments_per_fetch",
            b1.out_segs.saturating_sub(b0.out_segs) as f64 / n,
        ),
        (
            "client.cpu_us_per_fetch",
            gen_ticks as f64 / TICKS_PER_S * 1e6 / n,
        ),
        (
            "erasure.decode_cache_hit_ratio",
            ratio(decode_hits, decode_hits + decode_misses),
        ),
    ]);

    Ok(RunReport {
        metrics,
        attempted,
        failed,
        notes,
    })
}
