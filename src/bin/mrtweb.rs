//! `mrtweb` — command-line front end to the library.
//!
//! ```text
//! mrtweb sc <file.xml|file.html> [--query "words"]     print the structural characteristic
//! mrtweb plan <file> [--query Q] [--lod L]             print the transmission order
//! mrtweb transfer <file> [--alpha A] [--lod L] [--gamma G] [--query Q] [--nocache]
//!                                                      run a live lossy transfer
//! mrtweb summary <file> [--budget BYTES]               lead-in summary (baseline)
//! mrtweb redundancy <M> <alpha> [--success S]          plan N for a code
//! mrtweb faultrun --scenario NAME [--seed S]           run a fault-injection scenario
//! mrtweb faultrun --all [--seed S]                     run every scenario
//! mrtweb faultrun --list                               list scenarios
//! mrtweb edge [--docs D] [--requests R] [--budget BYTES] [--roam] [--bench-out FILE]
//!                                                      drive the base-station edge cache
//! mrtweb serve [files...] [--addr A] [--engine E] [--max-sessions N] [--workers W] [--fault PRESET]
//!                                                      run the base-station proxy daemon
//! mrtweb fetch <url> [--addr A] [--query Q] [--stop-content X] [--stop-slices K]
//!                                                      fetch a document from a proxy
//! mrtweb loadgen [--addr A] [--clients K] [--requests R] [--rate RPS] [--sweep 1,8,32] [--json]
//!                                                      drive a proxy (closed or open loop)
//! mrtweb stats [--addr A] [--assert-clean]             print a proxy's stats as JSON
//! mrtweb trace <record|dump|summarize> ...             work with observability traces
//! ```

use std::net::ToSocketAddrs as _;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use mrtweb::channel::fault::FaultConfig;
use mrtweb::content::query::Query;
use mrtweb::content::sc::{Measure, StructuralCharacteristic};
use mrtweb::docmodel::document::Document;
use mrtweb::docmodel::gen::SyntheticDocSpec;
use mrtweb::docmodel::lod::Lod;
use mrtweb::erasure::redundancy::Plan;
use mrtweb::prelude::CacheMode;
use mrtweb::proxy::client::{fetch, fetch_stats, FetchOptions};
use mrtweb::proxy::loadgen::{self, ArrivalMode, LoadConfig};
use mrtweb::proxy::server::{bind_engine, Engine, ServerConfig};
use mrtweb::store::gateway::{Gateway, CACHE_BUDGET};
use mrtweb::store::store::DocumentStore;
use mrtweb::textproc::pipeline::ScPipeline;
use mrtweb::textproc::summary::lead_in_summary;
use mrtweb::transport::live::{run_transfer, LiveServer, TransferConfig};
use mrtweb::transport::plan::plan_document;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("usage:");
            eprintln!("  mrtweb sc <file> [--query Q]");
            eprintln!(
                "  mrtweb plan <file> [--query Q] [--lod document|section|subsection|paragraph]"
            );
            eprintln!("  mrtweb transfer <file> [--alpha A] [--gamma G] [--lod L] [--query Q] [--nocache] [--seed S]");
            eprintln!("  mrtweb summary <file> [--budget BYTES]");
            eprintln!("  mrtweb redundancy <M> <alpha> [--success S]");
            eprintln!("  mrtweb faultrun --scenario NAME [--seed S] | --all [--seed S] | --list");
            eprintln!("  mrtweb edge [--docs D] [--requests R] [--budget BYTES] [--packet-size P] [--gamma G] [--seed S] [--roam] [--json] [--bench-out FILE]");
            eprintln!("  mrtweb broadcast [--docs D] [--listeners L] [--channels K] [--skew flat|popularity] [--index-every I] [--packet-size P] [--gamma G] [--fault PRESET] [--stop-content X] [--seed S] [--json] [--sweep 1,2,4] [--bench-out FILE]");
            eprintln!("  mrtweb serve [files...] [--addr A] [--engine auto|event|blocking] [--corpus K] [--max-sessions N] [--workers W] [--frame-budget B] [--fault PRESET] [--seed S] [--runtime-secs T]");
            eprintln!("  mrtweb fetch <url> [--addr A] [--query Q] [--lod L] [--measure ic|qic|mqic] [--packet-size P] [--gamma G] [--stop-content X] [--stop-slices K] [--out FILE]");
            eprintln!("  mrtweb loadgen [--addr A] [--url U] [--clients K] [--requests R] [--rate RPS --arrival fixed|poisson] [--sweep 1,8,32] [--json] [--bench-out FILE]");
            eprintln!("  mrtweb stats [--addr A] [--assert-clean]");
            eprintln!("  mrtweb trace record <file> [--out FILE] [transfer flags]");
            eprintln!("  mrtweb trace dump <trace.jsonl>");
            eprintln!("  mrtweb trace summarize <trace.jsonl>");
            ExitCode::from(2)
        }
    }
}

// CLI switches are naturally independent booleans, not a state machine.
#[allow(clippy::struct_excessive_bools)]
struct Flags {
    query: String,
    lod: Lod,
    alpha: f64,
    gamma: f64,
    seed: u64,
    nocache: bool,
    budget: usize,
    success: f64,
    scenario: String,
    all: bool,
    list: bool,
    // edge verb: a separate resident-byte budget so `--budget` (the
    // summary verb's sentence budget, default 512) keeps its meaning.
    byte_budget: usize,
    roam: bool,
    // proxy verbs
    addr: String,
    corpus: usize,
    max_sessions: usize,
    workers: usize,
    frame_budget: u64,
    fault: String,
    runtime_secs: u64,
    measure: String,
    packet_size: u32,
    stop_content: Option<f64>,
    stop_slices: Option<usize>,
    out: String,
    url: String,
    clients: usize,
    requests: usize,
    sweep: String,
    json: bool,
    bench_out: String,
    // broadcast verb
    listeners: usize,
    channels: usize,
    docs: usize,
    skew: String,
    index_every: usize,
    assert_clean: bool,
    timeout_secs: u64,
    engine: String,
    rate: f64,
    arrival: String,
}

impl Default for Flags {
    fn default() -> Self {
        Flags {
            query: String::new(),
            lod: Lod::Paragraph,
            alpha: 0.1,
            gamma: 1.5,
            seed: 42,
            nocache: false,
            budget: 512,
            success: 0.95,
            scenario: String::new(),
            all: false,
            list: false,
            byte_budget: CACHE_BUDGET,
            roam: false,
            addr: "127.0.0.1:7340".to_owned(),
            corpus: 4,
            max_sessions: 64,
            workers: 8,
            frame_budget: 1 << 20,
            fault: String::new(),
            runtime_secs: 0,
            measure: "ic".to_owned(),
            packet_size: 256,
            stop_content: None,
            stop_slices: None,
            out: String::new(),
            url: "doc/0".to_owned(),
            clients: 8,
            requests: 16,
            sweep: String::new(),
            json: false,
            bench_out: String::new(),
            listeners: 32,
            channels: 1,
            docs: 8,
            skew: "popularity".to_owned(),
            index_every: 16,
            assert_clean: false,
            timeout_secs: 10,
            engine: "auto".to_owned(),
            rate: 0.0,
            arrival: "fixed".to_owned(),
        }
    }
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags::default();
    let mut i = 0;
    while i < args.len() {
        let need = |i: usize| -> Result<&String, String> {
            args.get(i + 1)
                .ok_or_else(|| format!("{} needs a value", args[i]))
        };
        match args[i].as_str() {
            "--query" => {
                f.query.clone_from(need(i)?);
                i += 1;
            }
            "--lod" => {
                f.lod = need(i)?.parse().map_err(|e| format!("{e}"))?;
                i += 1;
            }
            "--alpha" => {
                f.alpha = need(i)?.parse().map_err(|_| "--alpha needs a number")?;
                i += 1;
            }
            "--gamma" => {
                f.gamma = need(i)?.parse().map_err(|_| "--gamma needs a number")?;
                i += 1;
            }
            "--seed" => {
                f.seed = need(i)?.parse().map_err(|_| "--seed needs an integer")?;
                i += 1;
            }
            "--budget" => {
                f.budget = need(i)?.parse().map_err(|_| "--budget needs an integer")?;
                f.byte_budget = f.budget;
                i += 1;
            }
            "--roam" => f.roam = true,
            "--success" => {
                f.success = need(i)?.parse().map_err(|_| "--success needs a number")?;
                i += 1;
            }
            "--scenario" => {
                f.scenario.clone_from(need(i)?);
                i += 1;
            }
            "--all" => f.all = true,
            "--list" => f.list = true,
            "--nocache" => f.nocache = true,
            "--addr" => {
                f.addr.clone_from(need(i)?);
                i += 1;
            }
            "--corpus" => {
                f.corpus = need(i)?.parse().map_err(|_| "--corpus needs an integer")?;
                i += 1;
            }
            "--max-sessions" => {
                f.max_sessions = need(i)?
                    .parse()
                    .map_err(|_| "--max-sessions needs an integer")?;
                i += 1;
            }
            "--workers" => {
                f.workers = need(i)?.parse().map_err(|_| "--workers needs an integer")?;
                i += 1;
            }
            "--frame-budget" => {
                f.frame_budget = need(i)?
                    .parse()
                    .map_err(|_| "--frame-budget needs an integer")?;
                i += 1;
            }
            "--fault" => {
                f.fault.clone_from(need(i)?);
                i += 1;
            }
            "--runtime-secs" => {
                f.runtime_secs = need(i)?
                    .parse()
                    .map_err(|_| "--runtime-secs needs an integer")?;
                i += 1;
            }
            "--measure" => {
                f.measure.clone_from(need(i)?);
                i += 1;
            }
            "--packet-size" => {
                f.packet_size = need(i)?
                    .parse()
                    .map_err(|_| "--packet-size needs an integer")?;
                i += 1;
            }
            "--stop-content" => {
                f.stop_content = Some(
                    need(i)?
                        .parse()
                        .map_err(|_| "--stop-content needs a number")?,
                );
                i += 1;
            }
            "--stop-slices" => {
                f.stop_slices = Some(
                    need(i)?
                        .parse()
                        .map_err(|_| "--stop-slices needs an integer")?,
                );
                i += 1;
            }
            "--out" => {
                f.out.clone_from(need(i)?);
                i += 1;
            }
            "--url" => {
                f.url.clone_from(need(i)?);
                i += 1;
            }
            "--clients" => {
                f.clients = need(i)?.parse().map_err(|_| "--clients needs an integer")?;
                i += 1;
            }
            "--requests" => {
                f.requests = need(i)?
                    .parse()
                    .map_err(|_| "--requests needs an integer")?;
                i += 1;
            }
            "--sweep" => {
                f.sweep.clone_from(need(i)?);
                i += 1;
            }
            "--bench-out" => {
                f.bench_out.clone_from(need(i)?);
                i += 1;
            }
            "--timeout-secs" => {
                f.timeout_secs = need(i)?
                    .parse()
                    .map_err(|_| "--timeout-secs needs an integer")?;
                i += 1;
            }
            "--engine" => {
                f.engine.clone_from(need(i)?);
                i += 1;
            }
            "--rate" => {
                f.rate = need(i)?.parse().map_err(|_| "--rate needs a number")?;
                i += 1;
            }
            "--arrival" => {
                f.arrival.clone_from(need(i)?);
                i += 1;
            }
            "--listeners" => {
                f.listeners = need(i)?
                    .parse()
                    .map_err(|_| "--listeners needs an integer")?;
                i += 1;
            }
            "--channels" => {
                f.channels = need(i)?
                    .parse()
                    .map_err(|_| "--channels needs an integer")?;
                i += 1;
            }
            "--docs" => {
                f.docs = need(i)?.parse().map_err(|_| "--docs needs an integer")?;
                i += 1;
            }
            "--skew" => {
                f.skew.clone_from(need(i)?);
                i += 1;
            }
            "--index-every" => {
                f.index_every = need(i)?
                    .parse()
                    .map_err(|_| "--index-every needs an integer")?;
                i += 1;
            }
            "--json" => f.json = true,
            "--assert-clean" => f.assert_clean = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
        i += 1;
    }
    Ok(f)
}

fn load_document(path: &str) -> Result<Document, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let ext = std::path::Path::new(path).extension();
    let is_html =
        ext.is_some_and(|e| e.eq_ignore_ascii_case("html") || e.eq_ignore_ascii_case("htm"));
    if is_html {
        mrtweb::docmodel::html::extract(&text).map_err(|e| format!("{e}"))
    } else {
        Document::parse_xml(&text).map_err(|e| format!("{e}"))
    }
}

fn build_sc(doc: &Document, query: &str) -> (StructuralCharacteristic, Measure) {
    let pipeline = ScPipeline::default();
    let index = pipeline.run(doc);
    if query.is_empty() {
        (
            StructuralCharacteristic::from_index(&index, None),
            Measure::Ic,
        )
    } else {
        let q = Query::parse(query, &pipeline);
        (
            StructuralCharacteristic::from_index(&index, Some(&q)),
            Measure::Qic,
        )
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let cmd = args.first().ok_or("missing subcommand")?;
    match cmd.as_str() {
        "sc" => {
            let path = args.get(1).ok_or("sc needs a file")?;
            let flags = parse_flags(&args[2..])?;
            let doc = load_document(path)?;
            let (sc, _) = build_sc(&doc, &flags.query);
            println!(
                "{} — {} units, {} bytes",
                doc.title().unwrap_or("(untitled)"),
                doc.unit_count(),
                doc.content_len()
            );
            if !flags.query.is_empty() {
                println!("query: {}", flags.query);
            }
            println!("{}", sc.render_table());
            Ok(())
        }
        "plan" => {
            let path = args.get(1).ok_or("plan needs a file")?;
            let flags = parse_flags(&args[2..])?;
            let doc = load_document(path)?;
            let (sc, measure) = build_sc(&doc, &flags.query);
            let (plan, _) = plan_document(&doc, &sc, flags.lod, measure);
            println!(
                "transmission order at the {} LOD (by {measure}):",
                flags.lod
            );
            for (i, s) in plan.slices().iter().enumerate() {
                println!(
                    "  {i:>3}. unit {:<8} {:>6} bytes  content {:.4}",
                    s.label, s.bytes, s.content
                );
            }
            println!(
                "total: {} bytes, M = {} raw packets at 256B",
                plan.total_bytes(),
                plan.raw_packets(256)
            );
            Ok(())
        }
        "transfer" => {
            let path = args.get(1).ok_or("transfer needs a file")?;
            let flags = parse_flags(&args[2..])?;
            let doc = load_document(path)?;
            let (sc, measure) = build_sc(&doc, &flags.query);
            let server = LiveServer::new_auto(&doc, &sc, flags.lod, measure, 64, flags.gamma)
                .map_err(|e| format!("{e}"))?;
            println!(
                "M={} N={} packet={}B γ={:.2} α={}",
                server.header().m,
                server.header().n,
                server.header().packet_size,
                flags.gamma,
                flags.alpha
            );
            let report = run_transfer(
                server,
                &TransferConfig {
                    alpha: flags.alpha,
                    seed: flags.seed,
                    cache_mode: if flags.nocache {
                        CacheMode::NoCaching
                    } else {
                        CacheMode::Caching
                    },
                    ..Default::default()
                },
            )
            .map_err(|e| e.to_string())?;
            println!(
                "completed={} rounds={} frames={} corrupted={} payload={}B",
                report.completed,
                report.rounds,
                report.frames_sent,
                report.frames_corrupted,
                report.payload.len()
            );
            if !report.completed {
                return Err("transfer did not complete".into());
            }
            Ok(())
        }
        "summary" => {
            let path = args.get(1).ok_or("summary needs a file")?;
            let flags = parse_flags(&args[2..])?;
            let doc = load_document(path)?;
            let s = lead_in_summary(&doc, flags.budget);
            println!(
                "{} sentences, {} of {} bytes ({:.1}%):",
                s.sentences.len(),
                s.len_bytes(),
                doc.content_len(),
                100.0 * s.len_bytes() as f64 / doc.content_len().max(1) as f64
            );
            for sent in &s.sentences {
                println!("  • {sent}");
            }
            Ok(())
        }
        "redundancy" => {
            let m: usize = args
                .get(1)
                .ok_or("redundancy needs M")?
                .parse()
                .map_err(|_| "bad M")?;
            let alpha: f64 = args
                .get(2)
                .ok_or("redundancy needs alpha")?
                .parse()
                .map_err(|_| "bad alpha")?;
            let flags = parse_flags(&args[3..])?;
            let plan = Plan::optimal(m, alpha, flags.success).map_err(|e| format!("{e}"))?;
            println!(
                "M={} α={} S={:.0}% → N={} (γ={:.3}), achieved {:.5}",
                plan.raw,
                plan.alpha,
                flags.success * 100.0,
                plan.cooked,
                plan.ratio(),
                plan.achieved_probability().map_err(|e| format!("{e}"))?
            );
            Ok(())
        }
        "faultrun" => {
            let flags = parse_flags(&args[1..])?;
            if flags.list {
                println!("fault-injection scenarios:");
                for (name, what) in mrtweb::faultrun::SCENARIOS {
                    println!("  {name:<12} {what}");
                }
                return Ok(());
            }
            let reports = if flags.all {
                mrtweb::faultrun::run_all(flags.seed)
            } else if flags.scenario.is_empty() {
                return Err("faultrun needs --scenario NAME, --all, or --list".into());
            } else {
                vec![mrtweb::faultrun::run_scenario(&flags.scenario, flags.seed)?]
            };
            let mut failed = 0usize;
            for r in &reports {
                print!("{}", r.render());
                if !r.passed() {
                    failed += 1;
                }
            }
            if failed > 0 {
                return Err(format!("{failed} of {} scenario(s) failed", reports.len()));
            }
            Ok(())
        }
        "broadcast" => {
            let flags = parse_flags(&args[1..])?;
            let skew = match flags.skew.as_str() {
                "flat" => mrtweb::transport::broadcast::Skew::Flat,
                "popularity" | "skewed" => mrtweb::transport::broadcast::Skew::Popularity,
                other => return Err(format!("unknown skew {other:?} (flat|popularity)")),
            };
            let stop = match flags.stop_content {
                Some(x) => mrtweb::transport::broadcast::StopRule::Content(x),
                None => mrtweb::transport::broadcast::StopRule::Complete,
            };
            let cfg = mrtweb::broadcast::RunConfig {
                docs: flags.docs.max(1),
                listeners: flags.listeners.max(1),
                channels: flags.channels.max(1),
                skew,
                index_every: flags.index_every,
                packet_size: flags.packet_size.max(4) as usize,
                gamma: flags.gamma,
                seed: flags.seed,
                fault: parse_fault(&flags.fault)?,
                stop,
                max_cycles: 64,
            };
            if !flags.sweep.is_empty() || !flags.bench_out.is_empty() {
                let ks = if flags.sweep.is_empty() {
                    vec![1, 2, 4]
                } else {
                    parse_counts(&flags.sweep)?
                };
                let (json, points, decreasing) = mrtweb::broadcast::bench_sweep(&cfg, &ks)?;
                println!("{json}");
                if !flags.bench_out.is_empty() {
                    std::fs::write(&flags.bench_out, format!("{json}\n"))
                        .map_err(|e| format!("cannot write {}: {e}", flags.bench_out))?;
                }
                println!("sweep: K={ks:?} skewed mean access decreasing with K: {decreasing}");
                if points.iter().any(|p| p.listeners_completed == 0) {
                    return Err("a sweep point completed no listeners".into());
                }
                return Ok(());
            }
            let report = mrtweb::broadcast::run(&cfg)?;
            if flags.json {
                println!(
                    "{{\"docs\": {}, \"channels\": {}, \"listeners\": {}, \"completed\": {}, \"byte_identical\": {}, \"mean_access_slots\": {:.3}, \"p95_access_slots\": {:.3}, \"encode_spans\": {}, \"zero_reencode\": {}}}",
                    report.docs,
                    report.channels,
                    report.outcomes.len(),
                    report.completed,
                    report.byte_identical,
                    report.mean_access_slots,
                    report.p95_access_slots,
                    report.encode_spans,
                    report.zero_reencode()
                );
            } else {
                print!("{}", report.render());
            }
            if report.completed < report.outcomes.len() {
                return Err(format!(
                    "{} of {} listener(s) did not complete",
                    report.outcomes.len() - report.completed,
                    report.outcomes.len()
                ));
            }
            if !report.zero_reencode() {
                return Err(format!(
                    "carousel re-encoded: {} encode spans for {} documents",
                    report.encode_spans, report.docs
                ));
            }
            Ok(())
        }
        "edge" => {
            let flags = parse_flags(&args[1..])?;
            let cfg = mrtweb::edge::RunConfig {
                docs: flags.docs.max(1),
                requests: flags.requests.max(1),
                byte_budget: flags.byte_budget.max(1),
                packet_size: flags.packet_size.max(4) as usize,
                gamma: flags.gamma,
                seed: flags.seed,
            };
            if flags.roam {
                let report = mrtweb::edge::roam(&cfg)?;
                print!("{}", report.render());
                if !report.all_byte_identical() {
                    return Err("a roamed document did not reconstruct byte-identically".into());
                }
                if !report.resumes_cheaper_than_restart() {
                    return Err("a resume pushed ≥ M frames over the new wireless hop".into());
                }
                if report.migrations_in > report.docs as u64 {
                    return Err(format!(
                        "{} migration records for {} documents (must be ≤ 1 per document)",
                        report.migrations_in, report.docs
                    ));
                }
                return Ok(());
            }
            let report = mrtweb::edge::run(&cfg)?;
            if flags.json {
                println!("{}", mrtweb::edge::edge_metrics_json(&report));
            } else {
                print!("{}", report.render());
            }
            if !report.byte_identical {
                return Err("an edge hit served frames that differ from the miss".into());
            }
            if !report.under_budget() {
                return Err(format!(
                    "resident bytes {} exceed the budget {}",
                    report.resident_bytes, report.byte_budget
                ));
            }
            // Re-encodes are legitimate only after an eviction dropped
            // the entry; a roomy budget must encode once per document.
            if report.evictions == 0 && !report.zero_reencode() {
                return Err(format!(
                    "edge cache re-encoded: {} encode spans for {} documents",
                    report.encode_spans, report.docs
                ));
            }
            if !flags.bench_out.is_empty() {
                let existing = std::fs::read_to_string(&flags.bench_out).ok();
                let json = mrtweb::edge::envelope_bench_json(
                    existing.as_deref(),
                    &mrtweb::edge::edge_metrics_json(&report),
                );
                std::fs::write(&flags.bench_out, format!("{json}\n"))
                    .map_err(|e| format!("cannot write {}: {e}", flags.bench_out))?;
                println!("wrote {}", flags.bench_out);
            }
            Ok(())
        }
        "serve" => {
            // Leading non-flag arguments are document files to serve.
            let mut paths: Vec<String> = Vec::new();
            let mut rest = &args[1..];
            while let Some(first) = rest.first() {
                if first.starts_with("--") {
                    break;
                }
                paths.push(first.clone());
                rest = &rest[1..];
            }
            let flags = parse_flags(rest)?;
            let store = Arc::new(DocumentStore::new(64));
            if paths.is_empty() {
                let spec = SyntheticDocSpec::default();
                for i in 0..flags.corpus.max(1) {
                    let generated = spec.generate(flags.seed.wrapping_add(i as u64));
                    store.put(format!("doc/{i}"), generated.document);
                }
            } else {
                for path in &paths {
                    store.put(path.clone(), load_document(path)?);
                }
            }
            let config = ServerConfig {
                max_sessions: flags.max_sessions,
                workers: flags.workers,
                frame_budget: flags.frame_budget,
                fault: parse_fault(&flags.fault)?,
                fault_seed: flags.seed,
                ..Default::default()
            };
            let engine = Engine::parse(&flags.engine).ok_or_else(|| {
                format!("unknown engine {:?} (auto|event|blocking)", flags.engine)
            })?;
            let server = bind_engine(
                &flags.addr,
                Gateway::new(Arc::clone(&store)),
                config,
                engine,
            )
            .map_err(|e| format!("cannot bind {}: {e}", flags.addr))?;
            println!(
                "listening on {} (engine {})",
                server.local_addr(),
                engine.resolved()
            );
            for url in store.urls() {
                println!("serving {url}");
            }
            if flags.runtime_secs > 0 {
                std::thread::sleep(Duration::from_secs(flags.runtime_secs));
                let final_stats = server.shutdown();
                println!("{}", final_stats.to_json());
                Ok(())
            } else {
                loop {
                    std::thread::sleep(Duration::from_hours(1));
                }
            }
        }
        "fetch" => {
            let url = args.get(1).ok_or("fetch needs a url")?;
            let flags = parse_flags(&args[2..])?;
            let options = FetchOptions {
                url: url.clone(),
                query: flags.query.clone(),
                lod: flags.lod.to_string(),
                measure: flags.measure.clone(),
                packet_size: flags.packet_size,
                gamma: flags.gamma,
                stop_at_content: flags.stop_content,
                stop_at_slices: flags.stop_slices,
                io_timeout: Duration::from_secs(flags.timeout_secs.max(1)),
            };
            let report = fetch(flags.addr.as_str(), &options).map_err(|e| e.to_string())?;
            println!(
                "M={} N={} packet={}B rounds={} frames={} crc_rejects={} bytes={}",
                report.header.m,
                report.header.n,
                report.header.packet_size,
                report.rounds,
                report.frames_received,
                report.crc_rejects,
                report.bytes_received
            );
            if report.completed {
                println!("reconstructed {} bytes", report.payload.len());
            } else if report.stopped_early {
                println!("stopped early at the requested resolution");
            } else if report.gave_up {
                return Err("server gave up before reconstruction".into());
            } else {
                return Err("fetch ended without reconstruction".into());
            }
            if !flags.out.is_empty() && report.completed {
                std::fs::write(&flags.out, &report.payload)
                    .map_err(|e| format!("cannot write {}: {e}", flags.out))?;
                println!("wrote {}", flags.out);
            }
            Ok(())
        }
        "loadgen" => {
            let flags = parse_flags(&args[1..])?;
            let addr = resolve(&flags.addr)?;
            let options = FetchOptions {
                url: flags.url.clone(),
                query: flags.query.clone(),
                lod: flags.lod.to_string(),
                measure: flags.measure.clone(),
                packet_size: flags.packet_size,
                gamma: flags.gamma,
                stop_at_content: flags.stop_content,
                stop_at_slices: flags.stop_slices,
                io_timeout: Duration::from_secs(flags.timeout_secs.max(1)),
            };
            let mode = if flags.rate > 0.0 {
                match flags.arrival.as_str() {
                    "fixed" => ArrivalMode::OpenFixed { rps: flags.rate },
                    "poisson" => ArrivalMode::OpenPoisson {
                        rps: flags.rate,
                        seed: flags.seed,
                    },
                    other => {
                        return Err(format!("unknown arrival {other:?} (fixed|poisson)"));
                    }
                }
            } else {
                ArrivalMode::Closed
            };
            if flags.sweep.is_empty() {
                let report = loadgen::run(
                    addr,
                    &LoadConfig {
                        clients: flags.clients.max(1),
                        requests: flags.requests.max(1),
                        mode,
                        options,
                    },
                );
                if flags.json {
                    println!("{}", report.to_json());
                } else {
                    println!(
                        "{} clients × {} requests ({}): {} ok, {} rejected, {} failed in {:.2}s",
                        report.clients,
                        flags.requests,
                        report.mode,
                        report.completed,
                        report.rejected,
                        report.failed,
                        report.elapsed.as_secs_f64()
                    );
                    println!(
                        "throughput {:.1} req/s, latency p50 {:.1}ms p95 {:.1}ms p99 {:.1}ms p99.9 {:.1}ms",
                        report.throughput,
                        report.p50.as_secs_f64() * 1e3,
                        report.p95.as_secs_f64() * 1e3,
                        report.p99.as_secs_f64() * 1e3,
                        report.p99_9.as_secs_f64() * 1e3
                    );
                    if mode != ArrivalMode::Closed {
                        println!(
                            "offered {:.1} req/s, attempted {:.1} req/s{}",
                            report.offered_rps,
                            report.attempted_rps,
                            if report.generator_limited {
                                " (GENERATOR LIMITED: throughput understates the server)"
                            } else {
                                ""
                            }
                        );
                    }
                }
                if report.completed == 0 {
                    return Err("no request completed".into());
                }
            } else {
                let counts = parse_counts(&flags.sweep)?;
                let (reports, json) =
                    loadgen::sweep(addr, &counts, flags.requests.max(1), mode, &options);
                println!("{json}");
                if !flags.bench_out.is_empty() {
                    std::fs::write(&flags.bench_out, format!("{json}\n"))
                        .map_err(|e| format!("cannot write {}: {e}", flags.bench_out))?;
                }
                if reports.iter().any(|r| r.completed == 0) {
                    return Err("a sweep point completed no requests".into());
                }
            }
            Ok(())
        }
        "stats" => {
            let flags = parse_flags(&args[1..])?;
            let snapshot = fetch_stats(
                flags.addr.as_str(),
                Duration::from_secs(flags.timeout_secs.max(1)),
            )
            .map_err(|e| e.to_string())?;
            println!("{}", snapshot.to_json());
            if flags.assert_clean && !mrtweb::proxy::stats::is_clean(&snapshot) {
                return Err(
                    "stats are not clean (crc_rejects, timeouts, or protocol_errors nonzero)"
                        .into(),
                );
            }
            Ok(())
        }
        "trace" => {
            let verb = args
                .get(1)
                .ok_or("trace needs a verb: record, dump, or summarize")?;
            match verb.as_str() {
                "record" => {
                    let path = args.get(2).ok_or("trace record needs a file")?;
                    let flags = parse_flags(&args[3..])?;
                    trace_record(path, &flags)
                }
                "dump" => {
                    let path = args.get(2).ok_or("trace dump needs a .jsonl file")?;
                    let trace = load_trace(path)?;
                    for event in &trace.events {
                        println!(
                            "{:>14} ns  thread {:>3}  {:<20} a={:<12} b={}",
                            event.ts,
                            event.thread,
                            event.kind.name(),
                            event.a,
                            event.b
                        );
                    }
                    if trace.dropped > 0 {
                        println!("({} events dropped at record time)", trace.dropped);
                    }
                    Ok(())
                }
                "summarize" => {
                    let path = args.get(2).ok_or("trace summarize needs a .jsonl file")?;
                    let trace = load_trace(path)?;
                    let summary = mrtweb::obs::export::summarize(&trace);
                    print!("{}", mrtweb::obs::export::render_summary(&summary));
                    Ok(())
                }
                other => Err(format!(
                    "unknown trace verb {other:?} (try record, dump, summarize)"
                )),
            }
        }
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

/// Runs a live transfer with the tracer enabled and writes the captured
/// trace as JSONL to `--out` (or stdout).
fn trace_record(path: &str, flags: &Flags) -> Result<(), String> {
    let doc = load_document(path)?;
    let (sc, measure) = build_sc(&doc, &flags.query);
    mrtweb::obs::trace::set_enabled(true);
    let _ = mrtweb::obs::trace::drain(); // discard anything stale
    let server = LiveServer::new_auto(&doc, &sc, flags.lod, measure, 64, flags.gamma)
        .map_err(|e| format!("{e}"))?;
    let report = run_transfer(
        server,
        &TransferConfig {
            alpha: flags.alpha,
            seed: flags.seed,
            cache_mode: if flags.nocache {
                CacheMode::NoCaching
            } else {
                CacheMode::Caching
            },
            ..Default::default()
        },
    );
    mrtweb::obs::trace::set_enabled(false);
    let trace = mrtweb::obs::trace::drain();
    let report = report.map_err(|e| e.to_string())?;
    eprintln!(
        "transfer: completed={} rounds={} frames={} corrupted={} — {} trace events",
        report.completed,
        report.rounds,
        report.frames_sent,
        report.frames_corrupted,
        trace.events.len()
    );
    let jsonl = mrtweb::obs::export::trace_to_jsonl(&trace);
    if flags.out.is_empty() {
        print!("{jsonl}");
    } else {
        std::fs::write(&flags.out, &jsonl)
            .map_err(|e| format!("cannot write {}: {e}", flags.out))?;
        eprintln!("wrote {}", flags.out);
    }
    Ok(())
}

/// Reads and parses a JSONL trace file.
fn load_trace(path: &str) -> Result<mrtweb::obs::trace::Trace, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    mrtweb::obs::export::trace_from_jsonl(&text).map_err(|e| format!("{path}: {e}"))
}

/// Maps a `--fault` preset name to a fault schedule.
fn parse_fault(name: &str) -> Result<Option<FaultConfig>, String> {
    match name {
        "" | "none" => Ok(None),
        "clean" => Ok(Some(FaultConfig::clean())),
        "corrupting" => Ok(Some(FaultConfig::corrupting(0.1))),
        "bursty" => Ok(Some(FaultConfig::bursty())),
        "outage" => Ok(Some(FaultConfig::outage_heavy())),
        "mixed" => Ok(Some(FaultConfig::mixed())),
        "garbling" => Ok(Some(FaultConfig::garbling())),
        "dropping" => Ok(Some(FaultConfig::dropping(0.1))),
        other => Err(format!(
            "unknown fault preset {other:?} (try clean, corrupting, bursty, outage, mixed, garbling, dropping)"
        )),
    }
}

/// Resolves `host:port` to a socket address.
fn resolve(addr: &str) -> Result<std::net::SocketAddr, String> {
    addr.to_socket_addrs()
        .map_err(|e| format!("cannot resolve {addr}: {e}"))?
        .next()
        .ok_or_else(|| format!("{addr} resolves to nothing"))
}

/// Parses a `--sweep` list like `1,8,32`.
fn parse_counts(list: &str) -> Result<Vec<usize>, String> {
    list.split(',')
        .map(|s| {
            s.trim()
                .parse::<usize>()
                .map_err(|_| format!("bad sweep count {s:?}"))
                .and_then(|n| {
                    if n == 0 {
                        Err("sweep counts must be positive".to_owned())
                    } else {
                        Ok(n)
                    }
                })
        })
        .collect()
}
