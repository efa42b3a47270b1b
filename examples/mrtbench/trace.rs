//! The traced run: the first requests of a workload's stream replayed
//! single-threaded and in-process, calling each layer's public function
//! in protocol order with a timer around every call, then reconciled
//! against the same requests sent through the real daemon at C=1.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use mrtweb::channel::bandwidth::Bandwidth;
use mrtweb::channel::bernoulli::BernoulliChannel;
use mrtweb::channel::fault::{FaultConfig, FaultyLink};
use mrtweb::channel::link::Link;
use mrtweb::content::query::Query;
use mrtweb::erasure::ida::Codec;
use mrtweb::proxy::client::fetch;
use mrtweb::proxy::wire::{put_frame_envelope, Hello, Message, StreamDecoder};
use mrtweb::store::gateway::{Gateway, Request};
use mrtweb::store::store::DocumentStore;
use mrtweb::transport::live::{ClientEvent, DocumentHeader, LiveClient, LiveServer};
use mrtweb::transport::plan::plan_document;

use crate::drive::fetch_options;
use crate::util::mid_mean;
use crate::workload::{build_daemon, query_text, url, Inputs, Op, Oracle, Verdict, Versions};

/// Fetches replayed (puts among them come along).
pub const REQUESTS: usize = 2000;
/// `req` and `parent` of probe spans, which belong to no request.
const PROBE: u32 = u32::MAX;

/// One timed call. `parent` is the index of the enclosing span: the
/// request's root span, or for cook stages the gateway call they
/// re-run (see [`replay_cook`]).
struct Span {
    req: u32,
    parent: Option<u32>,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    req: u32,
    root: u32,
}

impl Recorder {
    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Times `f` as a span named `name` under `parent` (the current
    /// request's root when `None`); returns the result and span index.
    fn time_under<T>(
        &mut self,
        parent: Option<u32>,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, u32) {
        let start_ns = self.now();
        let out = f();
        let end_ns = self.now();
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            req: self.req,
            parent: Some(parent.unwrap_or(self.root)),
            name,
            start_ns,
            end_ns,
        });
        (out, id)
    }

    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.time_under(None, name, f).0
    }

    fn begin(&mut self, req: u32) {
        self.req = req;
        self.root = self.spans.len() as u32;
        let now = self.now();
        self.spans.push(Span {
            req,
            parent: None,
            name: "request",
            start_ns: now,
            end_ns: now,
        });
    }

    fn end(&mut self) {
        let now = self.now();
        self.spans[self.root as usize].end_ns = now;
    }
}

/// The daemon's per-session fault-link seeding, so the replay sees the
/// loss pattern session `id` of a fresh daemon sees.
fn session_link(fault: FaultConfig, seed: u64, id: u64) -> FaultyLink<BernoulliChannel> {
    let seed = seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    FaultyLink::new(
        Link::new(
            Bandwidth::from_kbps(19.2),
            BernoulliChannel::new(0.0, seed),
            seed,
        ),
        fault,
        seed,
    )
}

/// Re-runs the gateway's cook chain stage by stage on `mirror`, a store
/// in the cache state the gateway's store had before the call, so every
/// stage does the work the gateway just did and none runs twice on one
/// store.
fn replay_cook(rec: &mut Recorder, parent: u32, mirror: &DocumentStore, req: &Request) -> u64 {
    let doc = mirror
        .document(&req.url)
        .expect("mirror holds every URL the gateway served");
    let (query, _) = rec.time_under(Some(parent), "textproc.query_parse", || {
        Query::parse(&req.query, mirror.pipeline())
    });
    let (sc, _) = rec.time_under(Some(parent), "store.sc", || {
        mirror.structural_characteristic(&req.url, &query)
    });
    let sc = sc.expect("mirror holds every URL the gateway served");
    let ((plan, payload), _) = rec.time_under(Some(parent), "transport.plan", || {
        plan_document(&doc, &sc, req.lod, req.measure)
    });
    let m = plan.raw_packets(req.packet_size);
    let n = ((m as f64 * req.gamma).round() as usize).max(m);
    let (cooked, _) = rec.time_under(Some(parent), "erasure.encode", || {
        let codec = Codec::shared(m, n, req.packet_size).expect("the gateway cooked this shape");
        let mut cooked = Vec::new();
        codec.encode_into(&payload, &mut cooked);
        cooked
    });
    let header = DocumentHeader {
        doc_len: payload.len(),
        m,
        n,
        packet_size: req.packet_size,
        plan,
    };
    let packets = cooked
        .chunks_exact(req.packet_size)
        .map(|p| Some(p.to_vec()))
        .collect();
    rec.time_under(Some(parent), "transport.frame", || {
        LiveServer::from_cooked(header, packets)
    })
    .0
    .expect("freshly cooked packets frame");
    (m * req.packet_size) as u64
}

/// Serves and receives one transmission frame by frame, as the daemon's
/// event loop and the mobile client would; returns the payload.
fn transfer(
    rec: &mut Recorder,
    server: &LiveServer,
    mut link: Option<FaultyLink<BernoulliChannel>>,
) -> Option<Vec<u8>> {
    let header = rec.time("wire.header", || {
        match Message::decode(&Message::Header(server.header().clone()).encode()) {
            Ok(Message::Header(h)) => Some(h),
            _ => None,
        }
    })?;
    let mut client = rec
        .time("transport.client_new", || LiveClient::new(header))
        .ok()?;
    let mut dec = StreamDecoder::new();
    let mut to_send: Vec<usize> = (0..server.header().n).collect();
    for _round in 0..256 {
        // The daemon writes a whole round before the client's DONE can
        // arrive, so every requested frame is enveloped and decoded.
        let mut wire = Vec::new();
        let mut ends = Vec::new();
        let mut envelope = |rec: &mut Recorder, wire: &mut Vec<u8>, bytes: &[u8]| {
            rec.time("wire.envelope", || put_frame_envelope(wire, bytes));
            ends.push(wire.len());
        };
        for &idx in &to_send {
            let Ok(bytes) = server.frame_checked(idx) else {
                continue;
            };
            match link.as_mut() {
                Some(link) => {
                    for d in rec.time("channel.fault", || link.transmit(bytes)) {
                        envelope(rec, &mut wire, &d.bytes);
                    }
                }
                None => envelope(rec, &mut wire, bytes),
            }
        }
        if let Some(link) = link.as_mut() {
            for d in link.flush() {
                envelope(rec, &mut wire, &d.bytes);
            }
        }
        let mut from = 0;
        let mut done = false;
        for end in ends {
            let msg = rec.time("wire.decode", || {
                dec.absorb(&wire[from..end]);
                dec.next_message()
            });
            from = end;
            let Ok(Some(Message::Frame(frame))) = msg else {
                return None;
            };
            if done {
                continue; // draining the round after DONE
            }
            let start = rec.now();
            let events = client.on_wire(&frame);
            let finished = events
                .iter()
                .any(|e| matches!(e, ClientEvent::Reconstructed));
            let end_ns = rec.now();
            let name = if finished {
                "erasure.reconstruct"
            } else {
                "transport.on_wire"
            };
            rec.spans.push(Span {
                req: rec.req,
                parent: Some(rec.root),
                name,
                start_ns: start,
                end_ns,
            });
            done = finished;
        }
        if done {
            return client.document_bytes().map(<[u8]>::to_vec);
        }
        let needed = rec.time("transport.needed", || client.state().needed());
        let ids: Vec<u16> = needed.iter().map(|&i| i as u16).collect();
        to_send = rec.time("wire.request", || {
            match Message::decode(&Message::Request(ids).encode()) {
                Ok(Message::Request(ids)) => ids.into_iter().map(usize::from).collect(),
                _ => Vec::new(),
            }
        });
    }
    None
}

/// The traced run's metrics, in table order.
pub fn run(inputs: &Inputs, jsonl: &Path) -> Result<Vec<(&'static str, f64)>, String> {
    let workload = inputs.workload;
    let ops = inputs.prefix(REQUESTS);
    let oracle = Oracle::new(inputs);

    // The gateway under trace and its mirror start from the corpus, as
    // the daemon's store does.
    let store = Arc::new(DocumentStore::new(64));
    let mirror = DocumentStore::new(64);
    for (i, doc) in inputs.corpus.iter().enumerate() {
        store.put(url(i), doc.clone());
        mirror.put(url(i), doc.clone());
    }
    let gateway = Gateway::new(Arc::clone(&store));
    let (versions, mirror_versions) = (
        Versions::new(workload.docs()),
        Versions::new(workload.docs()),
    );
    let mut rec = Recorder {
        epoch: Instant::now(),
        spans: Vec::with_capacity(REQUESTS * 256),
        req: 0,
        root: 0,
    };
    let (mut encoded_bytes, mut session) = (0u64, 0u64);
    for (i, op) in ops.iter().enumerate() {
        rec.begin(i as u32);
        let (doc, query) = match *op {
            Op::Put { doc, version } => {
                rec.time("store.put", || versions.put(&store, inputs, doc, version));
                mirror_versions.put(&mirror, inputs, doc, version);
                rec.end();
                continue;
            }
            Op::Fetch { doc, query } => (doc, query),
        };
        let options = fetch_options(workload, doc, query);
        let hello = Hello {
            url: options.url,
            query: options.query,
            lod: options.lod,
            measure: options.measure,
            packet_size: options.packet_size,
            gamma: options.gamma,
            ..Hello::new("", "")
        };
        let bytes = rec.time("wire.hello_encode", || Message::Hello(hello).encode());
        let Ok(Message::Hello(h)) = rec.time("wire.hello_decode", || Message::decode(&bytes))
        else {
            return Err("HELLO did not round-trip".into());
        };
        let request = rec
            .time("gateway.request_parse", || {
                Request::from_options(
                    &h.url,
                    &h.query,
                    &h.lod,
                    &h.measure,
                    h.packet_size as usize,
                    h.gamma,
                )
            })
            .map_err(|e| format!("{e}"))?;
        let (hits, _) = gateway.prepared_cache_counters();
        let (prepared, prepare_span) =
            rec.time_under(None, "gateway.prepare", || gateway.prepare_edge(&request));
        let (server, _) = prepared.map_err(|e| format!("{e}"))?;
        if gateway.prepared_cache_counters().0 == hits {
            encoded_bytes += replay_cook(&mut rec, prepare_span, &mirror, &request);
        }
        let link = workload
            .fault()
            .map(|f| session_link(f, inputs.seed, session));
        session += 1;
        let payload =
            transfer(&mut rec, &server, link).ok_or("traced transfer did not reconstruct")?;
        let state = versions.doc(doc).read().expect("single-threaded");
        let verdict = oracle.verify(doc, query, &state, &payload);
        if verdict != Verdict::Ok {
            return Err(format!(
                "traced doc/{doc} ?q={:?}: {verdict:?} payload",
                query_text(query)
            ));
        }
        rec.end();
    }
    let (hits, misses) = gateway.prepared_cache_counters();
    let sc = store.stats();

    probe_absent_stages(&mut rec, inputs, &mirror);
    write_jsonl(&rec.spans, jsonl).map_err(|e| format!("cannot write {}: {e}", jsonl.display()))?;

    let c1_us = c1_latency_us(inputs, &oracle, &ops)?;
    let stage_sum_us = mean_stage_sum_us(&rec.spans);

    let mut by_name: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    for s in rec.spans.iter().filter(|s| s.parent.is_some()) {
        by_name
            .entry(s.name)
            .or_default()
            .push(s.end_ns - s.start_ns);
    }
    for v in by_name.values_mut() {
        v.sort_unstable();
    }
    let typical = |name: &str| by_name.get(name).map_or(0.0, |v| mid_mean(v));
    let encode_ns: u64 = by_name.get("erasure.encode").map_or(0, |v| v.iter().sum());
    let ratio = |a: u64, b: u64| {
        if a + b == 0 {
            0.0
        } else {
            a as f64 / (a + b) as f64
        }
    };
    Ok(vec![
        ("wire.hello_decode_ns", typical("wire.hello_decode")),
        ("gateway.request_parse_ns", typical("gateway.request_parse")),
        ("gateway.prepare_ns", typical("gateway.prepare")),
        ("gateway.prepared_hit_ratio", ratio(hits, misses)),
        ("textproc.query_parse_ns", typical("textproc.query_parse")),
        ("store.sc_ns", typical("store.sc")),
        ("store.sc_hit_ratio", ratio(sc.sc_hits, sc.sc_misses)),
        ("transport.plan_ns", typical("transport.plan")),
        ("erasure.encode_ns", typical("erasure.encode")),
        (
            "erasure.encode_mib_s",
            if encode_ns == 0 {
                0.0
            } else {
                encoded_bytes as f64 / (1 << 20) as f64 / (encode_ns as f64 / 1e9)
            },
        ),
        ("transport.frame_ns", typical("transport.frame")),
        ("wire.envelope_ns_per_frame", typical("wire.envelope")),
        ("wire.decode_ns_per_frame", typical("wire.decode")),
        (
            "transport.on_wire_ns_per_frame",
            typical("transport.on_wire"),
        ),
        ("channel.fault_ns_per_frame", typical("channel.fault")),
        ("transport.needed_ns", typical("transport.needed")),
        ("erasure.reconstruct_ns", typical("erasure.reconstruct")),
        ("store.put_ns", typical("store.put")),
        ("trace.c1_latency_us", c1_us),
        ("trace.stage_sum_us", stage_sum_us),
        ("proxy.unexplained_us", c1_us - stage_sum_us),
        (
            "proxy.unexplained_pct",
            (c1_us - stage_sum_us) / c1_us * 100.0,
        ),
    ])
}

/// Three stages sit off some workloads' paths: the fault link and the
/// retransmission `needed` call run only on a lossy link, and puts only
/// on `churn`. For those the layer's cost is probed on the workload's
/// own data instead, so every per-layer metric is a measurement; probe
/// spans belong to no request and stay out of the stage sum.
fn probe_absent_stages(rec: &mut Recorder, inputs: &Inputs, mirror: &DocumentStore) {
    let has = |rec: &Recorder, name| rec.spans.iter().any(|s| s.name == name);
    let probe = |rec: &mut Recorder, name: &'static str, f: &mut dyn FnMut()| {
        for _ in 0..64 {
            let start_ns = rec.now();
            f();
            let end_ns = rec.now();
            rec.spans.push(Span {
                req: PROBE,
                parent: Some(PROBE),
                name,
                start_ns,
                end_ns,
            });
        }
    };
    let gateway = Gateway::new(Arc::new(DocumentStore::new(64)));
    gateway.store().put(url(0), inputs.corpus[0].clone());
    let request = Request::from_options(
        &url(0),
        "",
        "paragraph",
        inputs.workload.measure_name(),
        crate::workload::PACKET_SIZE as usize,
        inputs.workload.gamma(),
    )
    .expect("benchmark requests are well-formed");
    let Ok((server, _)) = gateway.prepare_edge(&request) else {
        return;
    };
    if !has(rec, "channel.fault") {
        let mut link = session_link(FaultConfig::corrupting(0.2), inputs.seed, 0);
        let frame = server.frame_bytes(0).unwrap_or_default().to_vec();
        probe(rec, "channel.fault", &mut || {
            drop(std::hint::black_box(link.transmit(&frame)));
        });
    }
    if !has(rec, "transport.needed") {
        // A client one intact packet short of M: the stalled round.
        if let Ok(mut client) = LiveClient::new(server.header().clone()) {
            for i in 1..server.header().m {
                client.on_wire(server.frame_bytes(i).unwrap_or_default());
            }
            probe(rec, "transport.needed", &mut || {
                drop(std::hint::black_box(client.state().needed()));
            });
        }
    }
    if !has(rec, "store.put") {
        probe(rec, "store.put", &mut || {
            mirror.put(url(0), inputs.corpus[0].clone());
        });
    }
}

/// Mean over fetches of the summed stage spans (puts and probes left
/// out: C=1 latency times fetches only).
fn mean_stage_sum_us(spans: &[Span]) -> f64 {
    let mut per_req: BTreeMap<u32, u64> = BTreeMap::new();
    let mut fetches: BTreeMap<u32, bool> = BTreeMap::new();
    for s in spans {
        match s.parent {
            None => {
                fetches.insert(s.req, true);
            }
            Some(p) if spans.get(p as usize).is_some_and(|p| p.parent.is_none()) => {
                if s.name == "store.put" {
                    fetches.insert(s.req, false);
                }
                *per_req.entry(s.req).or_default() += s.end_ns - s.start_ns;
            }
            Some(_) => {} // cook stages: already inside gateway.prepare
        }
    }
    let sums: Vec<u64> = per_req
        .iter()
        .filter(|(req, _)| fetches.get(req).copied().unwrap_or(false))
        .map(|(_, &ns)| ns)
        .collect();
    sums.iter().sum::<u64>() as f64 / sums.len().max(1) as f64 / 1e3
}

/// Mean latency of the same operations through a fresh daemon, one at
/// a time, puts applied to its store and every payload checked.
fn c1_latency_us(inputs: &Inputs, oracle: &Oracle, ops: &[Op]) -> Result<f64, String> {
    let workload = inputs.workload;
    let (server, store) = build_daemon(workload, inputs.seed)?;
    let addr = server.local_addr();
    let versions = Versions::new(workload.docs());
    let mut total_ns = 0u128;
    let mut fetches = 0u32;
    let mut failure = None;
    for op in ops {
        match *op {
            Op::Put { doc, version } => versions.put(&store, inputs, doc, version),
            Op::Fetch { doc, query } => {
                let options = fetch_options(workload, doc, query);
                let start = Instant::now();
                let result = fetch(addr, &options);
                total_ns += start.elapsed().as_nanos();
                fetches += 1;
                let state = versions.doc(doc).read().expect("single-threaded");
                let ok = match &result {
                    Ok(r) if r.completed => {
                        oracle.verify(doc, query, &state, &r.payload) == Verdict::Ok
                    }
                    _ => false,
                };
                if !ok {
                    failure = Some(format!("C=1 fetch of doc/{doc} failed its check"));
                    break;
                }
            }
        }
    }
    let _ = server.shutdown();
    match failure {
        Some(f) => Err(f),
        None => Ok(total_ns as f64 / f64::from(fetches.max(1)) / 1e3),
    }
}

fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans.iter().enumerate() {
        let opt = |v: Option<u32>| match v {
            Some(PROBE) | None => "null".to_owned(),
            Some(v) => v.to_string(),
        };
        let req = if s.req == PROBE {
            "null".to_owned()
        } else {
            s.req.to_string()
        };
        writeln!(
            out,
            "{{\"id\":{id},\"req\":{req},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            opt(s.parent),
            s.name,
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}
