//! CPU per call of a cold `Gateway::prepare_edge` miss, in process.
//!
//! Loads the `mrtbench` `cold` corpus (64 generated documents drawn
//! from one seed) into a store, then calls `prepare_edge` with a fresh
//! three-word QIC query each time, at paragraph LOD with 256-byte
//! packets and γ = 1.5, so every call misses the gateway's cache,
//! cooks (SC, plan, encode, frame) and admits the transmission, which
//! past the cache's budget evicts one. The first call on each document
//! (which also builds that version's cook tables) is timed on its own,
//! by the clock; then batches of calls are timed, and the per-call CPU
//! time of the batches is printed as median [q1, q3].
//!
//! ```sh
//! cargo run --release --example cook_probe -- [SEED] [BATCHES]
//! ```
//!
//! CPU time is the thread's on-CPU time from `/proc/thread-self/schedstat`
//! (Linux); elsewhere the probe falls back to wall-clock time.

use std::sync::Arc;
use std::time::Instant;

use mrtweb::content::sc::Measure;
use mrtweb::docmodel::gen::SyntheticDocSpec;
use mrtweb::docmodel::lod::Lod;
use mrtweb::store::gateway::{Gateway, Request};
use mrtweb::store::store::DocumentStore;

const DOCS: usize = 64;
/// Calls per timed batch: enough that the kernel's CPU-time accounting,
/// which can advance in scheduler ticks, resolves a call to ~1 µs.
const CALLS_PER_BATCH: usize = 4096;
const WORDS: [&str; 16] = [
    "mobile",
    "wireless",
    "bandwidth",
    "browsing",
    "document",
    "transmission",
    "resolution",
    "packet",
    "redundancy",
    "channel",
    "caching",
    "latency",
    "query",
    "session",
    "energy",
    "hypertext",
];

/// Nanoseconds this thread has run on a CPU, or wall-clock nanoseconds
/// where the kernel does not say.
fn cpu_ns(origin: Instant) -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or_else(|| u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX))
}

fn quartiles(mut v: Vec<f64>) -> (f64, f64, f64) {
    v.sort_by(f64::total_cmp);
    let at = |q: f64| v[((v.len() - 1) as f64 * q).round() as usize];
    (at(0.5), at(0.25), at(0.75))
}

fn main() {
    let mut args = std::env::args().skip(1);
    let seed: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(7);
    let batches: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(8);

    let store = Arc::new(DocumentStore::new(64));
    let spec = SyntheticDocSpec::default();
    for i in 0..DOCS {
        store.put(
            format!("doc/{i}"),
            spec.generate(seed.wrapping_add(i as u64)).document,
        );
    }
    let gateway = Gateway::new(store);
    // Every set of three distinct words, C(16, 3) = 560 queries. Call
    // `k` asks for document `k % 64` under query `k / 64`, so no
    // document sees a query twice in 35,840 calls.
    let mut queries = Vec::new();
    for (i, a) in WORDS.iter().enumerate() {
        for (j, b) in WORDS.iter().enumerate().skip(i + 1) {
            for c in &WORDS[j + 1..] {
                queries.push(format!("{a} {b} {c}"));
            }
        }
    }
    let batches = batches.min(queries.len() * DOCS / CALLS_PER_BATCH - 1);
    let request = |k: usize| Request {
        url: format!("doc/{}", k % DOCS),
        query: queries[(k / DOCS) % queries.len()].clone(),
        lod: Lod::Paragraph,
        measure: Measure::Qic,
        packet_size: 256,
        gamma: 1.5,
    };
    let origin = Instant::now();
    let mut hits = 0usize;
    let mut call = |request: &Request| {
        let (_, hit) = gateway.prepare_edge(request).expect("the corpus cooks");
        hits += usize::from(hit);
    };

    // Too few calls for tick-granular CPU time: timed by the clock.
    let start = Instant::now();
    for k in 0..DOCS {
        call(&request(k));
    }
    let first = start.elapsed().as_secs_f64() * 1e6 / DOCS as f64;

    let mut per_call = Vec::with_capacity(batches);
    for batch in 0..batches {
        let first_call = DOCS + batch * CALLS_PER_BATCH;
        let requests: Vec<Request> = (first_call..first_call + CALLS_PER_BATCH)
            .map(request)
            .collect();
        let start = cpu_ns(origin);
        for r in &requests {
            call(r);
        }
        per_call.push((cpu_ns(origin) - start) as f64 / CALLS_PER_BATCH as f64 / 1e3);
    }
    let (median, q1, q3) = quartiles(per_call);
    println!("seed {seed}: first call per document {first:.1} µs (wall clock)");
    println!(
        "seed {seed}: cold prepare_edge miss {median:.1} [{q1:.1}, {q3:.1}] µs of CPU per call \
         ({batches} batches of {CALLS_PER_BATCH}; {hits} cache hits)"
    );
}
