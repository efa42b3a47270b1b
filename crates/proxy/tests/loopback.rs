//! Loopback integration tests: a real server on an ephemeral port,
//! real client sockets, end-to-end reconstruction.
//!
//! Every scenario runs against **both engines** — the blocking
//! thread-pool [`Server`] and (on Linux with the `event` feature) the
//! epoll readiness loop — so the two paths stay behaviourally
//! interchangeable: same typed refusals, same counters, same session
//! end accounting.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use mrtweb_channel::fault::FaultConfig;
use mrtweb_docmodel::gen::SyntheticDocSpec;
use mrtweb_obs::RegistrySnapshot;
use mrtweb_proxy::client::{fetch, fetch_stats, FetchError, FetchOptions};
use mrtweb_proxy::server::{bind_engine, Engine, ProxyServer, ServerConfig};
use mrtweb_proxy::stats::{
    self, ACTIVE, COMPLETED, MAX_SESSIONS_IN_FLIGHT, REJECTED, REQUEST_LATENCY_NS, TIMEOUTS,
};
use mrtweb_proxy::wire::{ErrorCode, Hello, Message};
use mrtweb_store::gateway::{Gateway, Request};
use mrtweb_store::store::DocumentStore;
use mrtweb_transport::live::{run_transfer, ClientEvent, LiveClient, TransferConfig};

const URL: &str = "doc/loopback";

/// Every engine this build can bind. The fallback build (or a
/// non-Linux host) tests only the blocking path.
fn engines() -> Vec<Engine> {
    let mut all = vec![Engine::Blocking];
    if cfg!(all(target_os = "linux", feature = "event")) {
        all.push(Engine::Event);
    }
    all
}

fn test_store(target_bytes: usize) -> Arc<DocumentStore> {
    let spec = SyntheticDocSpec {
        target_bytes,
        ..SyntheticDocSpec::default()
    };
    let store = Arc::new(DocumentStore::new(16));
    store.put(URL, spec.generate(7).document);
    store
}

fn start(engine: Engine, config: ServerConfig, target_bytes: usize) -> Box<dyn ProxyServer> {
    let gateway = Gateway::new(test_store(target_bytes));
    bind_engine("127.0.0.1:0", gateway, config, engine).expect("bind loopback")
}

fn options() -> FetchOptions {
    let mut o = FetchOptions::new(URL);
    o.io_timeout = Duration::from_secs(20);
    o
}

/// Polls the live stats until `pred` holds. The event engine finishes
/// sessions asynchronously to the client's last byte, so tests that
/// assert on counters after a client-side action must wait for the
/// worker loop to catch up rather than race it.
fn wait_for(server: &dyn ProxyServer, what: &str, pred: impl Fn(&RegistrySnapshot) -> bool) {
    for _ in 0..800 {
        if pred(&server.stats()) {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("timed out waiting for {what}: {}", server.stats().to_json());
}

/// What the transport reconstructs in-process for the identical
/// request — the ground truth payload a socket fetch must match.
fn reference_payload() -> Vec<u8> {
    let gateway = Gateway::new(test_store(10_240));
    let o = options();
    let request = Request::from_options(
        &o.url,
        &o.query,
        &o.lod,
        &o.measure,
        o.packet_size as usize,
        o.gamma,
    )
    .expect("reference request");
    let live = gateway.prepare(&request).expect("reference prepare");
    let report = run_transfer(
        live,
        &TransferConfig {
            alpha: 0.0,
            ..TransferConfig::default()
        },
    )
    .expect("reference transfer");
    assert!(report.completed, "reference transfer must complete");
    report.payload
}

#[test]
fn eight_concurrent_fetches_reconstruct_byte_identically() {
    let expected = reference_payload();
    assert!(!expected.is_empty());
    for engine in engines() {
        let server = start(engine, ServerConfig::default(), 10_240);
        let addr = server.local_addr();

        let reports: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| scope.spawn(move || fetch(addr, &options()).expect("concurrent fetch")))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("join"))
                .collect()
        });

        for report in &reports {
            assert!(report.completed, "all eight sessions reconstruct");
            assert_eq!(
                report.payload, expected,
                "socket reconstruction is byte-identical to the in-process transport"
            );
            // Progressive rendering never goes backwards: per-slice
            // fractions are monotone non-decreasing in arrival order.
            let mut last: std::collections::HashMap<usize, f64> = std::collections::HashMap::new();
            for event in &report.events {
                if let ClientEvent::SliceProgress { slice, fraction } = *event {
                    let prev = last.insert(slice, fraction).unwrap_or(0.0);
                    assert!(
                        fraction >= prev - 1e-12,
                        "slice {slice} regressed: {prev} -> {fraction}"
                    );
                }
            }
        }

        wait_for(&*server, "all eight sessions counted", |s| {
            s.counter(COMPLETED) == 8
        });
        let snapshot = server.shutdown();
        assert!(snapshot.counter("accepted") >= 8);
        assert_eq!(snapshot.counter(COMPLETED), 8, "engine {engine:?}");
        assert!(
            stats::is_clean(&snapshot),
            "clean run on {engine:?}: {}",
            snapshot.to_json()
        );
        // One latency sample per session served — the histogram and the
        // session counters must agree exactly.
        let latency = snapshot.hist(REQUEST_LATENCY_NS);
        assert_eq!(
            latency.count,
            8,
            "request latency histogram counts every session: {}",
            snapshot.to_json()
        );
        assert!(latency.max >= latency.min);
    }
}

#[test]
fn admission_rejects_the_ninth_session() {
    for engine in engines() {
        let config = ServerConfig {
            max_sessions: 8,
            workers: 8,
            read_timeout: Duration::from_secs(20),
            ..ServerConfig::default()
        };
        // A small document keeps each held session's first round inside
        // the socket buffers, so the server reaches its control read
        // (blocking path: workers park; event path: sessions sit in
        // AwaitControl) while the client holds the slot.
        let server = start(engine, config, 1024);
        let addr = server.local_addr();

        // Occupy all eight slots: handshake and then hold the session.
        let mut held = Vec::new();
        for i in 0..8 {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(20)))
                .expect("timeout");
            Message::Hello(Hello::new(URL, ""))
                .write_to(&mut stream)
                .expect("hello");
            match Message::read_from(&mut stream).expect("handshake reply") {
                Message::Header(_) => held.push(stream),
                other => panic!("session {i}: wanted HEADER, got {other:?}"),
            }
        }

        // The ninth ask must be refused loudly, with a typed Busy.
        match fetch(addr, &options()) {
            Err(FetchError::Rejected { code, .. }) => assert_eq!(code, ErrorCode::Busy),
            other => panic!("ninth session should be rejected on {engine:?}, got {other:?}"),
        }

        // Release the slots cleanly: drain each held round, then DONE.
        for stream in &mut held {
            loop {
                match Message::read_from(stream).expect("drain") {
                    Message::RoundEnd => break,
                    Message::Frame(_) => {}
                    other => panic!("wanted FRAME or ROUND-END, got {other:?}"),
                }
            }
            Message::Done.write_to(stream).expect("done");
        }
        wait_for(&*server, "held sessions completing", |s| {
            s.counter(COMPLETED) == 8
        });
        drop(held);

        let snapshot = server.shutdown();
        assert!(snapshot.counter("rejected") >= 1, "{}", snapshot.to_json());
        assert_eq!(snapshot.counter(COMPLETED), 8, "engine {engine:?}");
    }
}

/// A HELLO for what [`options`] fetches.
fn options_hello() -> Hello {
    let o = options();
    Hello {
        query: o.query,
        lod: o.lod,
        measure: o.measure,
        packet_size: o.packet_size,
        gamma: o.gamma,
        ..Hello::new(o.url, "")
    }
}

/// Connects, waits 50 ms, then sends the HELLO in two writes split
/// inside its envelope, and reconstructs the first round the way
/// [`fetch`] does. Whatever the server reads as it accepts is nothing
/// or half an envelope, so it must wait for readiness.
fn late_split_hello_fetch(addr: SocketAddr) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("timeout");
    stream.set_nodelay(true).expect("nodelay");
    std::thread::sleep(Duration::from_millis(50));
    let hello = Message::Hello(options_hello()).encode();
    let (first, rest) = hello.split_at(hello.len() / 2);
    stream.write_all(first).expect("first half");
    std::thread::sleep(Duration::from_millis(20));
    stream.write_all(rest).expect("second half");

    let header = match Message::read_from(&mut stream).expect("handshake reply") {
        Message::Header(h) => h,
        other => panic!("wanted HEADER, got {other:?}"),
    };
    let mut client = LiveClient::new(header).expect("client");
    loop {
        match Message::read_from(&mut stream).expect("round") {
            Message::Frame(bytes) => {
                client.on_wire(&bytes);
            }
            Message::RoundEnd => break,
            other => panic!("wanted FRAME or ROUND-END, got {other:?}"),
        }
    }
    Message::Done.write_to(&mut stream).expect("done");
    client
        .document_bytes()
        .expect("a clean first round reconstructs")
        .to_vec()
}

#[test]
fn late_and_split_hellos_wait_for_readiness() {
    let expected = reference_payload();
    for engine in engines() {
        let server = start(engine, ServerConfig::default(), 10_240);
        let payload = late_split_hello_fetch(server.local_addr());
        assert!(payload == expected, "byte-identical on {engine:?}");
        wait_for(&*server, "the session completing", |s| {
            s.counter(COMPLETED) == 1
        });
        let snapshot = server.shutdown();
        assert!(stats::is_clean(&snapshot), "{}", snapshot.to_json());
    }
}

#[test]
fn admission_holds_across_loops() {
    for engine in engines() {
        let config = ServerConfig {
            max_sessions: 4,
            workers: 8,
            read_timeout: Duration::from_secs(20),
            ..ServerConfig::default()
        };
        let server = start(engine, config, 1024);
        let addr = server.local_addr();

        let mut held: Vec<TcpStream> = (0..4)
            .map(|i| {
                let mut stream = TcpStream::connect(addr).expect("connect");
                stream
                    .set_read_timeout(Some(Duration::from_secs(20)))
                    .expect("timeout");
                Message::Hello(Hello::new(URL, ""))
                    .write_to(&mut stream)
                    .expect("hello");
                match Message::read_from(&mut stream).expect("handshake reply") {
                    Message::Header(_) => stream,
                    other => panic!("session {i}: wanted HEADER, got {other:?}"),
                }
            })
            .collect();

        // Sixteen at once, landing on whichever loops the kernel wakes:
        // the slots are all held, so every one is refused.
        std::thread::scope(|scope| {
            let fetches: Vec<_> = (0..16)
                .map(|_| scope.spawn(move || fetch(addr, &options())))
                .collect();
            for f in fetches {
                match f.join().expect("join") {
                    Err(FetchError::Rejected { code, .. }) => assert_eq!(code, ErrorCode::Busy),
                    other => panic!("wanted Busy on {engine:?}, got {other:?}"),
                }
            }
        });

        for stream in &mut held {
            loop {
                match Message::read_from(stream).expect("drain") {
                    Message::RoundEnd => break,
                    Message::Frame(_) => {}
                    other => panic!("wanted FRAME or ROUND-END, got {other:?}"),
                }
            }
            Message::Done.write_to(stream).expect("done");
        }
        wait_for(&*server, "held sessions completing", |s| {
            s.counter(COMPLETED) == 4
        });
        drop(held);

        let snapshot = server.shutdown();
        assert_eq!(snapshot.counter(REJECTED), 16, "engine {engine:?}");
        assert_eq!(
            snapshot.counter("accepted"),
            snapshot.counter(COMPLETED) + snapshot.counter(REJECTED),
            "engine {engine:?}: {}",
            snapshot.to_json()
        );
        assert!(
            snapshot.gauge(MAX_SESSIONS_IN_FLIGHT) <= 4,
            "engine {engine:?}: {}",
            snapshot.to_json()
        );
    }
}

#[test]
fn early_stop_at_target_resolution_ends_the_session() {
    for engine in engines() {
        let server = start(engine, ServerConfig::default(), 10_240);
        let mut o = options();
        o.stop_at_slices = Some(2);
        let report = fetch(server.local_addr(), &o).expect("fetch");
        assert!(
            report.stopped_early || report.completed,
            "a 2-slice target resolves within the first round"
        );
        // A stopped session still ends cleanly server-side.
        wait_for(&*server, "early-stopped session counted", |s| {
            s.counter(COMPLETED) == 1
        });
        let snapshot = server.shutdown();
        assert_eq!(snapshot.counter(COMPLETED), 1, "engine {engine:?}");
        assert!(stats::is_clean(&snapshot), "{}", snapshot.to_json());
    }
}

#[test]
fn frame_budget_exhaustion_is_a_typed_refusal() {
    for engine in engines() {
        let config = ServerConfig {
            frame_budget: 5,
            ..ServerConfig::default()
        };
        let server = start(engine, config, 10_240);
        match fetch(server.local_addr(), &options()) {
            Err(FetchError::Rejected { code, .. }) => {
                assert_eq!(code, ErrorCode::BudgetExceeded);
            }
            other => panic!("budget run should be refused on {engine:?}, got {other:?}"),
        }
        wait_for(&*server, "budget session accounted", |s| {
            s.counter("frames_sent") == 5
        });
        let snapshot = server.shutdown();
        assert_eq!(
            snapshot.counter("frames_sent"),
            5,
            "engine {engine:?}: {}",
            snapshot.to_json()
        );
    }
}

#[test]
fn faulty_wireless_hop_still_reconstructs() {
    let expected = reference_payload();
    for engine in engines() {
        let config = ServerConfig {
            fault: Some(FaultConfig::mixed()),
            fault_seed: 99,
            ..ServerConfig::default()
        };
        let server = start(engine, config, 10_240);
        let report = fetch(server.local_addr(), &options()).expect("faulty fetch");
        assert!(report.completed, "redundancy + ARQ absorb the fault mix");
        assert_eq!(report.payload, expected, "byte-identical despite faults");
        assert!(
            report.crc_rejects > 0,
            "the mixed preset must corrupt at least one frame ({engine:?})"
        );
        server.shutdown();
    }
}

#[test]
fn unknown_documents_are_refused_with_not_found() {
    // The refusal quotes the URL escaped, so these two outgrow the
    // wire's u16 string length: 40,000 quotes double when escaped, and
    // 32,760 two-byte `é`s put the 65,535-byte mark inside a character.
    let urls = [
        "doc/absent".to_owned(),
        "\"".repeat(40_000),
        format!("a{}", "é".repeat(32_760)),
    ];
    for engine in engines() {
        let server = start(engine, ServerConfig::default(), 1024);
        for url in &urls {
            let mut o = options();
            o.url.clone_from(url);
            match fetch(server.local_addr(), &o) {
                Err(FetchError::Rejected { code, .. }) => assert_eq!(code, ErrorCode::NotFound),
                other => panic!(
                    "wanted NotFound on {engine:?} for a {}-byte URL, got {other:?}",
                    url.len()
                ),
            }
        }
        server.shutdown();
    }
}

#[test]
fn stats_endpoint_serves_live_counters_and_histograms() {
    for engine in engines() {
        let server = start(engine, ServerConfig::default(), 1024);
        let addr = server.local_addr();
        let _ = fetch(addr, &options()).expect("fetch");
        wait_for(&*server, "fetch counted", |s| s.counter(COMPLETED) == 1);
        let snapshot = fetch_stats(addr, Duration::from_secs(10)).expect("stats");
        assert!(snapshot.counter("accepted") >= 1);
        assert_eq!(snapshot.counter(COMPLETED), 1, "engine {engine:?}");
        assert!(snapshot.counter("frames_sent") > 0);
        assert!(stats::is_clean(&snapshot), "{}", snapshot.to_json());
        // The latency histogram crosses the wire with its quantiles
        // intact: the one finished fetch is one sample (the probe
        // itself snapshots before recording its own latency).
        let latency = snapshot.hist(REQUEST_LATENCY_NS);
        assert_eq!(latency.count, 1, "{}", snapshot.to_json());
        assert!(latency.quantile(0.5) > 0, "a real fetch takes nonzero time");
        server.shutdown();
    }
}

#[test]
fn malformed_hello_is_a_protocol_error_not_a_hang() {
    for engine in engines() {
        let server = start(engine, ServerConfig::default(), 1024);
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        // A valid envelope whose type is fine but whose body is garbage.
        let mut envelope = Message::Done.encode();
        envelope[4] = 0x01; // retype as HELLO with an empty body
        let crc = mrtweb_erasure::crc::crc32(&envelope[4..envelope.len() - 4]);
        let len = envelope.len();
        envelope[len - 4..].copy_from_slice(&crc.to_be_bytes());
        stream.write_all(&envelope).expect("write");
        match Message::read_from(&mut stream).expect("reply") {
            Message::Error { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
            other => panic!("wanted a typed error on {engine:?}, got {other:?}"),
        }
        wait_for(&*server, "protocol error counted", |s| {
            s.counter("protocol_errors") == 1
        });
        let snapshot = server.shutdown();
        assert_eq!(
            snapshot.counter("protocol_errors"),
            1,
            "engine {engine:?}: {}",
            snapshot.to_json()
        );
    }
}

/// A client that stops reading must not balloon server memory: the
/// event engine's per-session out-buffer is bounded, and once the
/// socket and the buffer are both full the session simply waits for
/// write readiness. When the reader resumes, the session completes.
#[test]
#[cfg(all(target_os = "linux", feature = "event"))]
fn slow_reader_is_backpressured_by_a_bounded_output_buffer() {
    use mrtweb_proxy::stats::OUTBUF_HWM_BYTES;
    // A document big enough that one round (~γ·bytes ≈ 750 KiB) vastly
    // exceeds both the out-buffer cap and what the kernel will buffer
    // for a stalled reader. GF(2⁸) caps a dispersal at 256 cooked
    // packets, so a big document needs a big packet size.
    let server = start(Engine::Event, ServerConfig::default(), 500_000);
    let addr = server.local_addr();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("timeout");
    Message::Hello(Hello {
        packet_size: 4096,
        ..Hello::new(URL, "")
    })
    .write_to(&mut stream)
    .expect("hello");

    // Do not read. The server fills the socket, then its out-buffer,
    // then stalls on write readiness — bounded the whole time. How long
    // the fill takes depends on machine load, so poll rather than sleep.
    wait_for(
        &*server,
        "a serving session to record pending output",
        |s| s.gauge(OUTBUF_HWM_BYTES) > 0,
    );
    let stalled = server.stats();
    let hwm = stalled.gauge(OUTBUF_HWM_BYTES);
    // The pump stops once 64 KiB is pending, overshooting by at most
    // one frame envelope: the buffer is bounded no matter how much of
    // the round remains unsent.
    assert!(
        hwm <= 64 * 1024 + 8192,
        "out-buffer stays bounded under a stalled reader: {hwm} ({})",
        stalled.to_json()
    );
    assert_eq!(
        stalled.gauge(ACTIVE),
        1,
        "the session is parked, not dead: {}",
        stalled.to_json()
    );

    // Resume reading: the session must finish normally.
    match Message::read_from(&mut stream).expect("header") {
        Message::Header(_) => {}
        other => panic!("wanted HEADER, got {other:?}"),
    }
    loop {
        match Message::read_from(&mut stream).expect("drain") {
            Message::RoundEnd => break,
            Message::Frame(_) => {}
            other => panic!("wanted FRAME or ROUND-END, got {other:?}"),
        }
    }
    Message::Done.write_to(&mut stream).expect("done");
    wait_for(&*server, "slow-read session completing", |s| {
        s.counter(COMPLETED) == 1
    });
    let snapshot = server.shutdown();
    assert!(stats::is_clean(&snapshot), "{}", snapshot.to_json());
}

/// A client that half-closes (FIN) after the handshake and silently
/// walks away: the server must notice, finish the session as a hangup
/// — not a timeout, not a protocol error — and free the slot. Both
/// engines must account for it identically.
#[test]
fn half_open_client_hangup_ends_the_session_cleanly() {
    for engine in engines() {
        let server = start(engine, ServerConfig::default(), 10_240);
        let addr = server.local_addr();
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .expect("timeout");
        Message::Hello(Hello::new(URL, ""))
            .write_to(&mut stream)
            .expect("hello");
        match Message::read_from(&mut stream).expect("handshake reply") {
            Message::Header(_) => {}
            other => panic!("wanted HEADER, got {other:?}"),
        }

        // Half-close: no more requests will ever come.
        stream
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");
        // Keep draining so the server can flush its round; EOF means
        // the server closed its side too.
        let mut sink = vec![0u8; 64 * 1024];
        loop {
            match stream.read(&mut sink) {
                Ok(0) => break,
                Ok(_) => {}
                Err(e) => panic!("drain after half-close on {engine:?}: {e}"),
            }
        }

        wait_for(&*server, "hung-up session reaped", |s| s.gauge(ACTIVE) == 0);
        let snapshot = server.shutdown();
        assert_eq!(snapshot.counter("accepted"), 1, "engine {engine:?}");
        assert_eq!(
            snapshot.counter(COMPLETED),
            0,
            "a hangup is not a completion ({engine:?})"
        );
        assert_eq!(
            snapshot.counter(TIMEOUTS),
            0,
            "a hangup is not a timeout ({engine:?}): {}",
            snapshot.to_json()
        );
        assert_eq!(
            snapshot.counter("protocol_errors"),
            0,
            "a hangup is not a protocol error ({engine:?}): {}",
            snapshot.to_json()
        );
    }
}

/// A cache hit on an entry that lacks frames — admitted from a blob
/// whose parity records fail their CRC-32 — serves by skipping the
/// missing frames: the session completes from the M clear-prefix
/// packets instead of dying with a BadRequest — on both engines.
#[test]
fn edge_entry_lacking_parity_serves_by_skipping_missing_frames() {
    use mrtweb_store::codec::write_blob;
    use mrtweb_store::edge::{EdgeCache, EdgeKey};
    use mrtweb_store::gateway::CACHE_BUDGET;
    let expected = reference_payload();
    let o = options();
    let request = Request::from_options(
        &o.url,
        &o.query,
        &o.lod,
        &o.measure,
        o.packet_size as usize,
        o.gamma,
    )
    .expect("request");
    let cooked = Gateway::new(test_store(10_240))
        .prepare(&request)
        .expect("reference prepare");
    let header = cooked.header().clone();
    assert!(header.n > header.m, "fixture must have parity to lack");
    let packets: Vec<&[u8]> = (0..header.n)
        .map(|i| cooked.payload(i).expect("a cook holds every packet"))
        .collect();
    let mut blob = write_blob(
        header.m,
        header.packet_size,
        header.doc_len,
        &[(header.doc_len, &packets)],
    );
    // Records follow the 29-byte blob header and the group's u32
    // length, each a packet and its CRC-32: flip a bit of every parity
    // packet.
    let record = header.packet_size + 4;
    for i in header.m..header.n {
        blob[33 + i * record] ^= 1;
    }
    let key = EdgeKey::of(&request);

    for engine in engines() {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .expect("clock")
            .as_nanos();
        let dir = std::env::temp_dir().join(format!("mrtweb-loopback-edge-{engine:?}-{nanos}"));
        let edge = Arc::new(EdgeCache::new(&dir, CACHE_BUDGET).expect("edge cache"));
        assert!(edge
            .admit(key.clone(), header.clone(), &blob)
            .expect("admit"));
        let held = edge.serve(&key, None).expect("admitted");
        for i in 0..header.n {
            assert_eq!(held.frame_bytes(i).is_some(), i < header.m, "frame {i}");
        }
        let gateway = Gateway::new(test_store(10_240)).with_edge(Arc::clone(&edge));
        let server =
            bind_engine("127.0.0.1:0", gateway, ServerConfig::default(), engine).expect("bind");
        let addr = server.local_addr();

        // Hit: the entry has holes where the parity was; the serving
        // loop must skip those sequences, not fail the session.
        let hit = fetch(addr, &options()).expect("hit fetch lacking parity");
        assert!(hit.completed, "engine {engine:?}");
        assert_eq!(hit.payload, expected, "engine {engine:?}");
        let stats = edge.stats();
        assert_eq!((stats.hits, stats.misses), (2, 0), "engine {engine:?}");

        wait_for(&*server, "the session completing", |s| {
            s.counter(COMPLETED) == 1
        });
        let snapshot = server.shutdown();
        assert_eq!(
            snapshot.counter("protocol_errors"),
            0,
            "engine {engine:?}: {}",
            snapshot.to_json()
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
