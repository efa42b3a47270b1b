//! Differential test of the serving core.
//!
//! A scripted peer plays one session against each engine — the
//! blocking thread pool and (on Linux with the `event` feature) the
//! epoll loops — and the same script is replayed through a bare
//! [`Rounds`] + [`Hop`], the I/O-free core both engines drive. Every
//! driver must produce the same transcript: the FRAME payloads in
//! order, the closing message (DONE, GAVE_UP, or a typed ERROR), and
//! the session's counters.
//!
//! Each engine runs on a fresh server, so the session id (0) and the
//! wireless hop's seed are the same for every driver.

use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use proptest::prelude::*;

use mrtweb_channel::bandwidth::Bandwidth;
use mrtweb_channel::bernoulli::BernoulliChannel;
use mrtweb_channel::fault::{FaultConfig, FaultyLink};
use mrtweb_channel::link::Link;
use mrtweb_docmodel::gen::SyntheticDocSpec;
use mrtweb_obs::RegistrySnapshot;
use mrtweb_proxy::server::{bind_engine, Engine, ProxyServer, ServerConfig};
use mrtweb_proxy::stats::{
    ACTIVE, COMPLETED, FAULTS_INJECTED, FRAMES_SENT, PROTOCOL_ERRORS, RETRANSMIT_REQUESTS,
};
use mrtweb_proxy::wire::{ErrorCode, Hello, Message};
use mrtweb_store::edge::EdgeCache;
use mrtweb_store::gateway::{Gateway, Request};
use mrtweb_store::store::DocumentStore;
use mrtweb_transport::live::LiveServer;
use mrtweb_transport::serve::{Action, Hop, Refusal, Rounds};

const URL: &str = "doc/parity";

/// Every engine this build can bind.
fn engines() -> Vec<Engine> {
    let mut all = vec![Engine::Blocking];
    if cfg!(all(target_os = "linux", feature = "event")) {
        all.push(Engine::Event);
    }
    all
}

/// One corpus for every case; each driver gets its own gateway (and
/// so its own prepared-transmission cache) over it.
fn store() -> Arc<DocumentStore> {
    static STORE: OnceLock<Arc<DocumentStore>> = OnceLock::new();
    Arc::clone(STORE.get_or_init(|| {
        let store = Arc::new(DocumentStore::new(4));
        store.put(URL, SyntheticDocSpec::default().generate(11).document);
        store
    }))
}

fn request() -> Request {
    let h = Hello::new(URL, "");
    Request::from_options(
        &h.url,
        &h.query,
        &h.lod,
        &h.measure,
        h.packet_size as usize,
        h.gamma,
    )
    .expect("request")
}

const FAULTS: usize = 8;

fn fault(preset: usize) -> Option<FaultConfig> {
    match preset {
        1 => Some(FaultConfig::clean()),
        2 => Some(FaultConfig::corrupting(0.2)),
        3 => Some(FaultConfig::bursty()),
        4 => Some(FaultConfig::outage_heavy()),
        5 => Some(FaultConfig::mixed()),
        6 => Some(FaultConfig::garbling()),
        7 => Some(FaultConfig::dropping(0.3)),
        _ => None,
    }
}

/// What the peer does after a round ends.
#[derive(Debug, Clone, PartialEq)]
enum Turn {
    Request(Vec<u16>),
    Done,
}

#[derive(Debug, Clone)]
struct Case {
    /// Index into `[N - 3, N, 2N, default]`.
    budget: usize,
    max_rounds: usize,
    /// Index into [`fault`].
    fault: usize,
    fault_seed: u64,
    /// Serve from an edge-cache entry whose parity was trimmed.
    trimmed: bool,
    /// The peer's move after each round; DONE once they run out.
    turns: Vec<Turn>,
    /// Send DONE after this many frames of the round that follows the
    /// last scripted turn, instead of after its ROUND_END.
    cut: Option<usize>,
}

impl Case {
    fn plain(turns: Vec<Turn>) -> Case {
        Case {
            budget: 3,
            max_rounds: 8,
            fault: 0,
            fault_seed: 0,
            trimmed: false,
            turns,
            cut: None,
        }
    }

    fn frame_budget(&self, n: u64) -> u64 {
        match self.budget {
            0 => n - 3,
            1 => n,
            2 => 2 * n,
            _ => ServerConfig::default().frame_budget,
        }
    }
}

/// How the session ended, as the peer saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Closing {
    Done,
    GaveUp,
    Error(ErrorCode),
    Hangup,
}

/// `[frames_sent, retransmit_requests, protocol_errors, completed,
/// faults_injected]`.
type Counters = [u64; 5];

#[derive(Debug, PartialEq)]
struct Transcript {
    /// A digest of each FRAME payload, in arrival order.
    frames: Vec<u64>,
    closing: Closing,
    counters: Counters,
}

/// FNV-1a, 64-bit: keeps a mismatch report readable.
fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A gateway over the shared corpus; with `trimmed`, its edge cache
/// already holds the request's entry with every parity packet trimmed.
fn gateway(trimmed: bool, tag: &str) -> (Gateway, Option<std::path::PathBuf>) {
    let gateway = Gateway::new(store());
    if !trimmed {
        return (gateway, None);
    }
    let header = Gateway::new(store())
        .prepare(&request())
        .expect("reference prepare")
        .header()
        .clone();
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock")
        .as_nanos();
    let dir = std::env::temp_dir().join(format!(
        "mrtweb-serve-parity-{tag}-{}-{nanos}",
        std::process::id()
    ));
    let edge = EdgeCache::new(&dir, header.m * header.packet_size).expect("edge cache");
    let gateway = gateway.with_edge(Arc::new(edge));
    // The miss cooks and admits; the byte budget then trims the parity.
    gateway
        .prepare_edge(&request())
        .expect("prime the edge cache");
    (gateway, Some(dir))
}

/// The transmission every driver serves for `case`.
fn served(case: &Case) -> Arc<LiveServer> {
    let (gateway, dir) = gateway(case.trimmed, "oracle");
    let (server, _) = gateway.prepare_edge(&request()).expect("prepare");
    if let Some(dir) = dir {
        std::fs::remove_dir_all(dir).ok();
    }
    server
}

fn config(case: &Case, n: u64) -> ServerConfig {
    ServerConfig {
        workers: 1,
        frame_budget: case.frame_budget(n),
        max_rounds: case.max_rounds,
        fault: fault(case.fault),
        fault_seed: case.fault_seed,
        read_timeout: Duration::from_secs(20),
        write_timeout: Duration::from_secs(20),
        ..ServerConfig::default()
    }
}

fn counters(s: &RegistrySnapshot) -> Counters {
    [
        s.counter(FRAMES_SENT),
        s.counter(RETRANSMIT_REQUESTS),
        s.counter(PROTOCOL_ERRORS),
        s.counter(COMPLETED),
        s.counter(FAULTS_INJECTED),
    ]
}

/// Reads until the server hangs up; returns the ERROR or GAVE_UP that
/// ended the session on the way, if any.
fn drain(stream: &mut TcpStream) -> Option<Closing> {
    let mut closing = None;
    while let Ok(msg) = Message::read_from(stream) {
        match msg {
            Message::GaveUp => closing = Some(Closing::GaveUp),
            Message::Error { code, .. } => closing = Some(Closing::Error(code)),
            _ => {}
        }
    }
    closing
}

/// Plays `case` against the daemon at `addr`.
fn play(addr: SocketAddr, case: &Case) -> (Vec<u64>, Closing) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("timeout");
    Message::Hello(Hello::new(URL, ""))
        .write_to(&mut stream)
        .expect("hello");
    let mut frames = Vec::new();
    match Message::read_from(&mut stream) {
        Ok(Message::Header(_)) => {}
        Ok(Message::Error { code, .. }) => return (frames, Closing::Error(code)),
        other => panic!("wanted HEADER, got {other:?}"),
    }
    let mut turns = case.turns.iter();
    loop {
        let last = turns.len() == 0;
        let mut in_round = 0;
        loop {
            let closing = match Message::read_from(&mut stream) {
                Ok(Message::Frame(bytes)) => {
                    frames.push(digest(&bytes));
                    in_round += 1;
                    if last && case.cut == Some(in_round) {
                        Message::Done.write_to(&mut stream).expect("done");
                        Closing::Done
                    } else {
                        continue;
                    }
                }
                Ok(Message::RoundEnd) => break,
                Ok(Message::GaveUp) => Closing::GaveUp,
                Ok(Message::Error { code, .. }) => Closing::Error(code),
                Ok(other) => panic!("wanted FRAME or a round's end, got {other:?}"),
                Err(_) => return (frames, Closing::Hangup),
            };
            // After a DONE mid-round the rest of the round may still
            // arrive, and a refusal inside it ends the session first.
            let refused = drain(&mut stream);
            return (frames, refused.unwrap_or(closing));
        }
        match turns.next() {
            Some(Turn::Request(ids)) => Message::Request(ids.clone())
                .write_to(&mut stream)
                .expect("request"),
            Some(Turn::Done) | None => {
                Message::Done.write_to(&mut stream).expect("done");
                let refused = drain(&mut stream);
                return (frames, refused.unwrap_or(Closing::Done));
            }
        }
    }
}

/// Runs `case` through one engine on a fresh daemon.
fn over_engine(engine: Engine, case: &Case, n: u64) -> Transcript {
    let (gateway, dir) = gateway(case.trimmed, &format!("{engine:?}"));
    let server = bind_engine("127.0.0.1:0", gateway, config(case, n), engine).expect("bind");
    let (frames, closing) = play(server.local_addr(), case);
    settle(&*server);
    let snapshot = server.shutdown();
    if let Some(dir) = dir {
        std::fs::remove_dir_all(dir).ok();
    }
    Transcript {
        frames,
        closing,
        counters: counters(&snapshot),
    }
}

/// Waits until the one session has closed its books.
fn settle(server: &dyn ProxyServer) {
    for _ in 0..2000 {
        let s = server.stats();
        if s.counter("accepted") == 1 && s.gauge(ACTIVE) == 0 {
            return;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    panic!("session never closed: {}", server.stats().to_json());
}

/// Replays `case` through a bare [`Rounds`] + [`Hop`], seeded and
/// budgeted the way the daemon seeds and budgets session 0.
fn over_core(server: Arc<LiveServer>, case: &Case) -> Transcript {
    let n = server.header().n as u64;
    let config = config(case, n);
    let mut rounds = Rounds::new(server, 0, config.frame_budget, config.max_rounds);
    let mut hop = config.fault.map(|cfg| {
        let seed = config.fault_seed;
        let link = Link::new(
            Bandwidth::from_kbps(19.2),
            BernoulliChannel::new(0.0, seed),
            seed,
        );
        Hop::new(FaultyLink::new(link, cfg, seed))
    });
    let mut frames = Vec::new();
    let [mut retransmits, mut protocol_errors, mut faults] = [0u64; 3];
    let mut turns = case.turns.iter();
    let mut cut = None;
    let closing = 'session: loop {
        let last = turns.len() == 0;
        let mut in_round = 0;
        loop {
            let deliveries = match rounds.next_action() {
                Ok(Action::Frame { bytes, .. }) => match hop.as_mut() {
                    Some(hop) => {
                        let (deliveries, drawn) = hop.transmit(bytes);
                        faults += drawn;
                        deliveries.iter().map(|d| digest(&d.bytes)).collect()
                    }
                    None => vec![digest(bytes)],
                },
                Ok(Action::RoundEnd) => {
                    let held = hop.as_mut().map(Hop::flush).unwrap_or_default();
                    frames.extend(held.iter().map(|d| digest(&d.bytes)));
                    break;
                }
                Ok(Action::GaveUp) => break 'session Closing::GaveUp,
                Ok(Action::Idle) => unreachable!("a round is always due here"),
                Err(Refusal::OutOfRange { .. }) => {
                    protocol_errors += 1;
                    break 'session Closing::Error(ErrorCode::BadRequest);
                }
                Err(Refusal::BudgetSpent { .. }) => {
                    break 'session Closing::Error(ErrorCode::BudgetExceeded)
                }
            };
            for frame in deliveries {
                in_round += 1;
                // Past the cut the peer stops recording; the round is
                // already queued whole, so it is still served.
                if cut.is_none() {
                    frames.push(frame);
                }
                if last && case.cut == Some(in_round) {
                    cut = Some(in_round);
                }
            }
        }
        if cut.is_some() {
            break Closing::Done;
        }
        match turns.next() {
            Some(Turn::Request(ids)) => {
                retransmits += 1;
                rounds.request(ids.iter().map(|&i| usize::from(i)));
            }
            Some(Turn::Done) | None => break Closing::Done,
        }
    };
    let completed = u64::from(closing == Closing::Done);
    Transcript {
        frames,
        closing,
        counters: [
            rounds.frames_sent(),
            retransmits,
            protocol_errors,
            completed,
            faults,
        ],
    }
}

/// Runs `case` through every driver and asserts they agree.
fn check(case: &Case) {
    let server = served(case);
    let n = server.header().n as u64;
    let core = over_core(server, case);
    for engine in engines() {
        let got = over_engine(engine, case, n);
        if case.cut.is_some() {
            // DONE mid-round: how far the peer read is timing; the end
            // and the counters are not.
            assert_eq!(
                (got.closing, got.counters),
                (core.closing, core.counters),
                "{engine:?} vs the bare core on {case:?}"
            );
        } else {
            assert_eq!(got, core, "{engine:?} vs the bare core on {case:?}");
        }
    }
}

fn n() -> u16 {
    served(&Case::plain(Vec::new())).header().n as u16
}

#[test]
fn clean_fetch_agrees() {
    check(&Case::plain(Vec::new()));
}

#[test]
fn out_of_range_after_a_spent_budget_is_a_bad_request() {
    // The frame budget is exactly N: the initial push spends it, then
    // the peer asks for index N. The index check comes first.
    check(&Case {
        budget: 1,
        ..Case::plain(vec![Turn::Request(vec![n()])])
    });
}

#[test]
fn zero_rounds_gives_up_before_any_frame() {
    check(&Case {
        max_rounds: 0,
        ..Case::plain(Vec::new())
    });
}

#[test]
fn trimmed_entry_skips_missing_frames_without_spending_budget() {
    let n = n();
    check(&Case {
        budget: 0,
        trimmed: true,
        ..Case::plain(vec![
            Turn::Request((0..n).rev().collect()),
            Turn::Request(vec![n - 1, n - 1, 0]),
        ])
    });
}

fn turn() -> impl Strategy<Value = Turn> {
    prop_oneof![
        Just(Turn::Done),
        Just(Turn::Request(Vec::new())),
        collection::vec(0u16..70, 1..12).prop_map(Turn::Request),
        collection::vec(0u16..8, 1..24).prop_map(Turn::Request),
        collection::vec(0u16..70, 1..4).prop_map(Turn::Request),
    ]
}

fn case() -> impl Strategy<Value = Case> {
    (
        (
            0usize..4,
            prop_oneof![Just(0usize), Just(1), Just(2), Just(8)],
            0..FAULTS,
            0u64..1000,
        ),
        any::<bool>(),
        collection::vec(turn(), 0..5),
        prop_oneof![Just(None), Just(None), (1usize..40).prop_map(Some)],
    )
        .prop_map(
            |((budget, max_rounds, fault, fault_seed), trimmed, turns, cut)| Case {
                budget,
                max_rounds,
                fault,
                fault_seed,
                trimmed,
                turns,
                cut,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn every_driver_serves_the_same_transcript(case in case()) {
        check(&case);
    }
}
