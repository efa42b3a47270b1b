//! CPU per client receive of one clean `hot` round, in process.
//!
//! Loads the `mrtbench` `hot` corpus (4 generated documents drawn from
//! one seed) into a store and prepares each document as the daemon
//! serves it: paragraph LOD, IC ordering, 256-byte packets, γ = 1.5.
//! It records the bytes the daemon writes for one clean round (HEADER,
//! the N FRAME envelopes, ROUND-END), then runs `proxy::client::fetch_over`
//! over a stream that replays them, as a mobile client receives them
//! from its socket: read, envelope CRC-32, frame CRC-16, packet copy,
//! progressive rendering and reconstruction. Batches of fetches are
//! timed, and the per-fetch CPU time of the batches is printed as
//! median [q1, q3].
//!
//! ```sh
//! cargo run --release --example client_probe -- [SEED] [BATCHES]
//! ```
//!
//! CPU time is the thread's on-CPU time from `/proc/thread-self/schedstat`
//! (Linux); elsewhere the probe falls back to wall-clock time.

use std::io::{Read, Write};
use std::sync::Arc;
use std::time::Instant;

use mrtweb::docmodel::gen::SyntheticDocSpec;
use mrtweb::proxy::client::{fetch_over, FetchOptions};
use mrtweb::proxy::wire::{put_frame_envelope, Message};
use mrtweb::store::gateway::{Gateway, Request};
use mrtweb::store::store::DocumentStore;

const DOCS: usize = 4;
/// Fetches per timed batch: enough that the kernel's CPU-time
/// accounting, which can advance in scheduler ticks, resolves a fetch
/// to well under 1 µs.
const FETCHES_PER_BATCH: usize = 4096;

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

/// A server's side of one session, replayed: every read takes what the
/// socket would have buffered, and the client's writes go nowhere.
struct Replay<'a>(&'a [u8]);

impl Read for Replay<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.0.read(buf)
    }
}

impl Write for Replay<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
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
    let rounds: Vec<(FetchOptions, Vec<u8>)> = (0..DOCS)
        .map(|i| {
            let options = FetchOptions {
                measure: "ic".to_owned(),
                ..FetchOptions::new(format!("doc/{i}"))
            };
            let request = Request::from_options(
                &options.url,
                &options.query,
                &options.lod,
                &options.measure,
                options.packet_size as usize,
                options.gamma,
            )
            .expect("a well-formed request");
            let (server, _) = gateway.prepare_edge(&request).expect("the corpus cooks");
            let mut wire = Message::Header(server.header().clone()).encode();
            for k in 0..server.header().n {
                put_frame_envelope(&mut wire, server.frame_bytes(k).expect("a cook holds all"));
            }
            Message::RoundEnd.encode_into(&mut wire);
            (options, wire)
        })
        .collect();
    let wire_bytes: usize = rounds.iter().map(|(_, w)| w.len()).sum::<usize>() / DOCS;

    let mut fetch = |k: usize| {
        let (options, wire) = &rounds[k % DOCS];
        let report = fetch_over(Replay(wire), options).expect("the round replays");
        assert!(report.completed, "a clean round reconstructs");
    };
    // Warm-up: the shared codec substrate of each shape, page faults.
    (0..FETCHES_PER_BATCH).for_each(&mut fetch);

    let origin = Instant::now();
    let mut per_fetch = Vec::with_capacity(batches);
    for _ in 0..batches {
        let start = cpu_ns(origin);
        (0..FETCHES_PER_BATCH).for_each(&mut fetch);
        per_fetch.push((cpu_ns(origin) - start) as f64 / FETCHES_PER_BATCH as f64 / 1e3);
    }
    let (median, q1, q3) = quartiles(per_fetch);
    println!(
        "seed {seed}: client receive of one clean hot round ({wire_bytes} wire bytes) \
         {median:.2} [{q1:.2}, {q3:.2}] µs of CPU per fetch \
         ({batches} batches of {FETCHES_PER_BATCH})"
    );
}
