//! mrtbench: end-to-end and per-layer benchmark of the base-station
//! daemon over four traffic mixes (`hot`, `cold`, `lossy`, `churn`).
//!
//! ```text
//! mrtbench run     [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--smoke] [--out DIR]
//! mrtbench trace   [the same flags]                       (run with --trace 1)
//! mrtbench compare PARENT_DIR CHANGE_DIR
//! ```
//!
//! Each workload builds the daemon in-process as `mrtweb serve` does,
//! drives it with two generator threads through the real mobile client,
//! checks every payload, and prints every metric by name with its unit;
//! the last line of standard output is one JSON result object. See
//! README.md beside this file for the workloads, metrics and bounds.

mod compare;
mod drive;
mod procfs;
mod trace;
mod util;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use workload::{Inputs, Workload};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// A reported metric. `bound` is the share of the parent's median by
/// which an end-to-end metric may worsen before a change regresses.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn m(name: &'static str, unit: &'static str, better: Better, bound: Option<f64>) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

use Better::{Higher, Lower};

/// The end-to-end metrics (BENCHMARK.json mirrors names, units,
/// directions and bounds). Throughput and the p99 latency are printed
/// with the run's notes but have no bound: on a shared 2-vCPU machine,
/// CPU time the hypervisor gives to other tenants divides the one and
/// multiplies the other (README.md, "Throughput and p99 have no bound").
pub const END_TO_END: [Metric; 4] = [
    m("setup_s", "s", Lower, Some(0.25)),
    m("latency_p50_ms", "ms", Lower, Some(0.25)),
    m("fetches_per_cpu_s", "1/s", Higher, Some(0.25)),
    m("air_s_per_fetch", "s", Lower, Some(0.05)),
];

/// The per-layer metrics: counted in the measured run, then timed in
/// the traced run.
pub const PER_LAYER: [Metric; 34] = [
    m("proxy.frames_sent_per_fetch", "count", Lower, None),
    m("proxy.bytes_sent_per_fetch", "B", Lower, None),
    m("proxy.retransmit_requests_per_fetch", "count", Lower, None),
    m("proxy.faults_injected_per_fetch", "count", Lower, None),
    m("proxy.session_p50_us", "us", Lower, None),
    m("proxy.session_p99_us", "us", Lower, None),
    m("proxy.loop_wait_p50_us", "us", Lower, None),
    m("proxy.outbuf_hwm_bytes", "B", Lower, None),
    m("proxy.ctx_switches_per_fetch", "count", Lower, None),
    m("tcp.segments_per_fetch", "count", Lower, None),
    m("client.cpu_us_per_fetch", "us", Lower, None),
    m("erasure.decode_cache_hit_ratio", "ratio", Higher, None),
    m("wire.hello_decode_ns", "ns", Lower, None),
    m("gateway.request_parse_ns", "ns", Lower, None),
    m("gateway.prepare_ns", "ns", Lower, None),
    m("gateway.prepared_hit_ratio", "ratio", Higher, None),
    m("textproc.query_parse_ns", "ns", Lower, None),
    m("store.sc_ns", "ns", Lower, None),
    m("store.sc_hit_ratio", "ratio", Higher, None),
    m("transport.plan_ns", "ns", Lower, None),
    m("erasure.encode_ns", "ns", Lower, None),
    m("erasure.encode_mib_s", "MiB/s", Higher, None),
    m("transport.frame_ns", "ns", Lower, None),
    m("wire.envelope_ns_per_frame", "ns", Lower, None),
    m("wire.decode_ns_per_frame", "ns", Lower, None),
    m("transport.on_wire_ns_per_frame", "ns", Lower, None),
    m("channel.fault_ns_per_frame", "ns", Lower, None),
    m("transport.needed_ns", "ns", Lower, None),
    m("erasure.reconstruct_ns", "ns", Lower, None),
    m("store.put_ns", "ns", Lower, None),
    m("trace.c1_latency_us", "us", Lower, None),
    m("trace.stage_sum_us", "us", Lower, None),
    m("proxy.unexplained_us", "us", Lower, None),
    m("proxy.unexplained_pct", "%", Lower, None),
];

const USAGE: &str = "usage:
  mrtbench run     [--workload hot|cold|lossy|churn] [--seed S] [--seconds N] [--trace 0|1] [--smoke] [--out DIR]
  mrtbench trace   [the same flags]   (run with --trace 1)
  mrtbench compare PARENT_DIR CHANGE_DIR";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    warmup: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String], trace: bool) -> Result<Args, String> {
    let mut a = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: 20.0,
        warmup: 3.0,
        trace,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                a.workloads =
                    vec![Workload::parse(name).ok_or(format!("unknown workload {name:?}"))?];
            }
            "--seed" => a.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            "--smoke" => {
                a.seconds = 1.0;
                a.warmup = 0.25;
            }
            "--out" => a.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(a)
}

/// `{"value": v, "unit": "u"}` with every digit of `v`.
fn json_metric(name: &str, value: f64, unit: &str) -> String {
    let v = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
        .map_or("", |m| m.unit)
}

/// Runs one workload; returns its JSON result line and whether the run
/// was correct.
fn run_workload(a: &Args, workload: Workload) -> Result<(String, bool), String> {
    let inputs = Inputs::generate(workload, a.seed);
    println!(
        "== {} seed {}: inputs_digest {:016x}, warm-up {} s, measured {} s, {} generators",
        workload.name(),
        a.seed,
        inputs.digest(),
        a.warmup,
        a.seconds,
        workload::GENERATORS
    );
    let report = drive::run(&inputs, a.warmup, a.seconds)?;
    let mut metrics = report.metrics;
    if a.trace {
        let jsonl = Path::new("target/mrtbench").join(format!("trace-{}.jsonl", workload.name()));
        metrics.extend(trace::run(&inputs, &jsonl)?);
        println!("spans: {}", jsonl.display());
    }
    for note in &report.notes {
        println!("{note}");
    }
    for (name, value) in &metrics {
        println!("  {name:<38} {value:>16.6} {}", unit_of(name));
    }
    let correct = report.failed == 0;
    let shown: Vec<&Metric> = if a.trace {
        PER_LAYER.iter().collect()
    } else {
        END_TO_END.iter().collect()
    };
    let fields: Vec<String> = shown
        .iter()
        .map(|m| {
            let value = metrics
                .iter()
                .find(|(n, _)| *n == m.name)
                .map_or(0.0, |&(_, v)| v);
            json_metric(m.name, value, m.unit)
        })
        .collect();
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        fields.join(", ")
    );
    Ok((line, correct))
}

fn run(args: &[String], trace: bool) -> Result<bool, String> {
    let a = parse_args(args, trace)?;
    let mut all_correct = true;
    for &workload in &a.workloads {
        let (line, correct) = run_workload(&a, workload)?;
        all_correct &= correct;
        if let Some(dir) = &a.out {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
            let millis = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.as_millis());
            let path = dir.join(format!("{}-{millis}-s{}.json", workload.name(), a.seed));
            std::fs::write(&path, format!("{line}\n"))
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        }
        println!("{line}");
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..], false),
        Some("trace") => run(&args[1..], true),
        Some("compare") if args.len() == 3 => {
            compare::run(Path::new(&args[1]), Path::new(&args[2]))
        }
        _ => Err(USAGE.to_owned()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("mrtbench: {e}");
            ExitCode::from(2)
        }
    }
}
