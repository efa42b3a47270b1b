//! The base-station gateway daemon: what both serving engines share,
//! and the blocking thread-pool engine.
//!
//! The paper's deployment model puts the document transmitter at a
//! proxy on the base station, mediating between web servers and
//! weakly-connected mobile clients. This module is that daemon:
//!
//! * one admission rule (`Daemon::admit`) runs at both engines' accept
//!   sites, the blocking engine's acceptor thread and every event
//!   loop: it numbers each connection and reserves a session slot, so
//!   a slot counter enforces `max_sessions`; refusals are *told* to
//!   the client with a typed [`ErrorCode::Busy`] rather than a silent
//!   close;
//! * each admitted connection is one `Session`: HELLO →
//!   [`Gateway::prepare_edge`] → HEADER → rounds of frames, with
//!   retransmission driven by client REQUEST messages through the same
//!   [`mrtweb_transport::serve::Rounds`] the in-process
//!   [`mrtweb_transport::live`] transfer uses;
//! * per-session **budgets** (frame count, round count) and read/write
//!   **timeouts** bound every resource a slow, hostile, or vanished
//!   client can hold;
//! * optional **fault injection** mangles the transport frames inside
//!   the (reliable) proxy envelope, so the fault scenarios run over
//!   real sockets: the TCP hop plays the wired backbone, the injected
//!   faults play the wireless last hop;
//! * the **blocking engine** ([`Server`]) has one acceptor thread hand
//!   admitted connections through a bounded accept queue to a fixed
//!   worker pool, which drives each session with blocking socket
//!   calls; idle sessions are reaped by the socket timeouts. It needs
//!   no unsafe code and runs on every build;
//! * shutdown is **clean**: a flag plus a listener self-connect wakeup,
//!   then queue close and worker joins — no thread is ever detached.

use std::collections::VecDeque;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use mrtweb_channel::fault::FaultConfig;
use mrtweb_obs::clock::now_nanos;
use mrtweb_obs::{emit, emit_at, EventKind, RegistrySnapshot};
use mrtweb_store::gateway::Gateway;

use crate::session::{Session, SessionEnd, Turn};
use crate::stats::ProxyStats;
use crate::wire::{ErrorCode, Message};

/// Tunable knobs of the daemon. All bounds are per the admission-control
/// design in DESIGN.md §12.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Admission limit: sessions admitted (queued + active) at once.
    pub max_sessions: usize,
    /// Serving threads. The blocking engine's workers serve one session
    /// at a time each; each of the event engine's loops accepts and
    /// serves its own connections.
    pub workers: usize,
    /// The blocking engine's bounded accept queue between its acceptor
    /// and its workers; a full queue rejects further connections even
    /// under `max_sessions`. The event engine has no such queue (its
    /// loops serve what they accept) and ignores this.
    pub accept_backlog: usize,
    /// Per-session cap on frames served; exceeding it ends the session
    /// with [`ErrorCode::BudgetExceeded`].
    pub frame_budget: u64,
    /// Per-session cap on serving rounds (initial push + retransmission
    /// rounds); exceeding it sends [`Message::GaveUp`].
    pub max_rounds: usize,
    /// Socket read timeout: an idle client is reaped after this long.
    pub read_timeout: Duration,
    /// Socket write timeout: a stalled client is reaped after this long.
    pub write_timeout: Duration,
    /// Optional fault schedule mangling the transport frames on the
    /// write path (the simulated wireless hop).
    pub fault: Option<FaultConfig>,
    /// Base seed for per-session fault schedules.
    pub fault_seed: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_sessions: 64,
            workers: 8,
            accept_backlog: 64,
            frame_budget: 1 << 20,
            max_rounds: 256,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            fault: None,
            fault_seed: 0,
        }
    }
}

/// Per-worker socket read scratch size.
pub(crate) const READ_CHUNK: usize = 16 * 1024;

/// Everything the accept sites and the session drivers of one daemon
/// share.
pub(crate) struct Daemon {
    pub(crate) gateway: Gateway,
    pub(crate) config: ServerConfig,
    pub(crate) stats: ProxyStats,
    /// Admission slots held: sessions admitted and not yet finished.
    admitted: AtomicU64,
    /// The id the next accepted connection gets.
    next_session_id: AtomicU64,
    shutdown: AtomicBool,
}

impl Daemon {
    pub(crate) fn new(gateway: Gateway, config: ServerConfig) -> Arc<Daemon> {
        Arc::new(Daemon {
            gateway,
            config,
            stats: ProxyStats::new(),
            admitted: AtomicU64::new(0),
            next_session_id: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
        })
    }

    pub(crate) fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Raises the shutdown flag; each engine then wakes its threads.
    pub(crate) fn stop(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Opens a session's books; returns its start time.
    pub(crate) fn open(&self, id: u64) -> u64 {
        emit(EventKind::SessionStart, id, 0);
        self.stats.active.inc();
        now_nanos()
    }

    /// Closes a session's books — the one mapping from how a session
    /// ended to counters and the [`EventKind::SessionEnd`] code — and
    /// releases its admission slot.
    pub(crate) fn close(&self, id: u64, start: u64, end: SessionEnd) {
        let elapsed = now_nanos().saturating_sub(start);
        self.stats.request_latency.record(elapsed);
        emit_at(start, EventKind::RequestSpan, elapsed, id);
        let end_code = match end {
            SessionEnd::Completed => {
                self.stats.completed.inc();
                0
            }
            SessionEnd::ProtocolError => {
                self.stats.protocol_errors.inc();
                1
            }
            SessionEnd::TimedOut => {
                self.stats.timeouts.inc();
                2
            }
            SessionEnd::CrcReject => {
                self.stats.crc_rejects.inc();
                3
            }
            SessionEnd::Closed => 4,
        };
        emit(EventKind::SessionEnd, id, end_code);
        self.stats.active.dec();
        self.release();
    }

    /// Releases one admission slot.
    fn release(&self) {
        // ORDERING: slot release; the counter only bounds concurrent
        // sessions (`admit` re-checks it on every accept) and publishes
        // no session state: the blocking engine's accept queue hands
        // each socket to its worker under a mutex, and an event loop
        // serves only connections it accepted itself.
        self.admitted.fetch_sub(1, Ordering::Relaxed);
    }

    /// The one admission rule, applied at both engines' accept sites:
    /// counts and numbers a fresh connection and reserves a session
    /// slot for it, or tells the client it is refused and returns
    /// `None`, after which the caller hangs up by dropping `stream`.
    pub(crate) fn admit(&self, stream: &TcpStream) -> Option<u64> {
        self.stats.accepted.inc();
        // ORDERING: ids only have to be distinct; they publish nothing.
        let id = self.next_session_id.fetch_add(1, Ordering::Relaxed);
        let prior = self.admitted.fetch_add(1, Ordering::SeqCst);
        if prior >= self.config.max_sessions.max(1) as u64 {
            self.admitted.fetch_sub(1, Ordering::SeqCst);
            self.reject(stream, id, 0, "session limit reached");
            return None;
        }
        self.stats.note_in_flight(prior + 1);
        Some(id)
    }

    /// Tells a refused client why, then leaves the hang-up to the
    /// caller. `reason` follows the [`EventKind::AdmissionReject`]
    /// schema (0 = session slots full, 1 = accept queue full).
    fn reject(&self, mut stream: &TcpStream, session_id: u64, reason: u64, why: &str) {
        self.stats.rejected.inc();
        emit(EventKind::AdmissionReject, session_id, reason);
        let _ = stream.set_write_timeout(Some(self.config.write_timeout));
        let msg = Message::Error {
            code: ErrorCode::Busy,
            detail: why.to_owned(),
        };
        let _ = msg.write_to(&mut stream);
    }
}

/// The blocking engine's acceptor: accepts until shut down, admits,
/// and queues each admitted connection for the worker pool; when the
/// queue is full the connection gives its slot back and is refused.
fn accept_loop(d: &Daemon, listener: &TcpListener, queue: &SessionQueue) {
    loop {
        let accepted = listener.accept();
        // Shutdown's self-connect wakes us here, and is never counted.
        if d.is_shutting_down() {
            return;
        }
        let Ok((stream, _)) = accepted else { continue };
        let Some(id) = d.admit(&stream) else { continue };
        if let Err(stream) = queue.try_push(stream, id) {
            d.release();
            d.reject(&stream, id, 1, "accept queue full");
        }
    }
}

/// Bounded hand-off queue between the listener and the worker pool
/// (dependency-free: `Mutex` + `Condvar`).
struct SessionQueue {
    inner: Mutex<QueueInner>,
    ready: Condvar,
    capacity: usize,
}

struct QueueInner {
    items: VecDeque<(TcpStream, u64)>,
    closed: bool,
}

impl SessionQueue {
    fn new(capacity: usize) -> Arc<Self> {
        Arc::new(SessionQueue {
            inner: Mutex::new(QueueInner {
                items: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        })
    }

    /// Enqueues unless full or closed; returns the connection back on
    /// refusal so the caller can tell the client why.
    fn try_push(&self, stream: TcpStream, id: u64) -> Result<(), TcpStream> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if inner.closed || inner.items.len() >= self.capacity {
            return Err(stream);
        }
        inner.items.push_back((stream, id));
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks for the next session; `None` once closed and drained.
    fn pop(&self) -> Option<(TcpStream, u64)> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self
                .ready
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn close(&self) {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .closed = true;
        self.ready.notify_all();
    }
}

/// The blocking engine. Dropping without [`Server::shutdown`] leaks
/// the listener thread until process exit; always shut down.
pub struct Server {
    local_addr: SocketAddr,
    daemon: Arc<Daemon>,
    accept_handle: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("local_addr", &self.local_addr)
            .field("workers", &self.workers.len())
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// starts the listener and worker threads.
    ///
    /// # Errors
    ///
    /// Propagates socket bind failures.
    pub fn bind(addr: &str, gateway: Gateway, config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let daemon = Daemon::new(gateway, config);
        let queue = SessionQueue::new(daemon.config.accept_backlog);

        let workers = (0..daemon.config.workers.max(1))
            .map(|_| {
                let queue = Arc::clone(&queue);
                let daemon = Arc::clone(&daemon);
                std::thread::spawn(move || {
                    let mut scratch = vec![0u8; READ_CHUNK];
                    while let Some((stream, id)) = queue.pop() {
                        serve_session(stream, id, &daemon, &mut scratch);
                    }
                })
            })
            .collect();

        let accept_handle = {
            let daemon = Arc::clone(&daemon);
            std::thread::spawn(move || {
                accept_loop(&daemon, &listener, &queue);
                queue.close();
            })
        };

        Ok(Server {
            local_addr,
            daemon,
            accept_handle: Some(accept_handle),
            workers,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A live stats snapshot.
    pub fn stats(&self) -> RegistrySnapshot {
        self.daemon.stats.snapshot()
    }

    /// Stops accepting, drains the queue, joins every thread, and
    /// returns the final stats. In-flight sessions run to completion
    /// (bounded by their timeouts and budgets).
    pub fn shutdown(mut self) -> RegistrySnapshot {
        self.daemon.stop();
        // Wake the acceptor out of `accept()`; it sees the flag and
        // exits without serving this connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        self.daemon.stats.snapshot()
    }
}

/// Drives one admitted session to completion with blocking calls:
/// write whatever is queued, and read only while the session waits for
/// input.
fn serve_session(mut stream: TcpStream, id: u64, d: &Daemon, scratch: &mut [u8]) {
    let _ = stream.set_read_timeout(Some(d.config.read_timeout));
    let _ = stream.set_write_timeout(Some(d.config.write_timeout));
    let _ = stream.set_nodelay(true);
    let start = d.open(id);
    let mut session = Session::new(id);
    let end = loop {
        if !session.pending().is_empty() {
            match stream.write(session.pending()) {
                Ok(n) if n > 0 => session.wrote(n, d),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                // A failed farewell still books the intended end.
                failed => break session.end().unwrap_or_else(|| io_end(failed.err())),
            }
            continue;
        }
        match session.turn() {
            Turn::Serve => session.pump(d),
            Turn::Listen => match stream.read(scratch) {
                Ok(n) if n > 0 => session.absorb(scratch.get(..n).unwrap_or(&[]), d),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                // EOF: the peer owes input it can never send.
                failed => break io_end(failed.err()),
            },
            Turn::Close(end) => break end,
        }
    };
    d.close(id, start, end);
}

/// How a failed (or zero-length) blocking read or write ends a session.
fn io_end(err: Option<std::io::Error>) -> SessionEnd {
    match err.map(|e| e.kind()) {
        Some(std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut) => SessionEnd::TimedOut,
        _ => SessionEnd::Closed,
    }
}

/// Object-safe face shared by both serving engines, so callers (CLI,
/// load generator, tests, CI) switch engines with a flag instead of a
/// type.
pub trait ProxyServer: Send {
    /// The bound address (resolves ephemeral ports).
    fn local_addr(&self) -> SocketAddr;
    /// A live stats snapshot.
    fn stats(&self) -> RegistrySnapshot;
    /// Stops the daemon and returns the final stats.
    fn shutdown(self: Box<Self>) -> RegistrySnapshot;
}

impl ProxyServer for Server {
    fn local_addr(&self) -> SocketAddr {
        Server::local_addr(self)
    }

    fn stats(&self) -> RegistrySnapshot {
        Server::stats(self)
    }

    fn shutdown(self: Box<Self>) -> RegistrySnapshot {
        Server::shutdown(*self)
    }
}

#[cfg(all(target_os = "linux", feature = "event"))]
impl ProxyServer for crate::event::EventServer {
    fn local_addr(&self) -> SocketAddr {
        crate::event::EventServer::local_addr(self)
    }

    fn stats(&self) -> RegistrySnapshot {
        crate::event::EventServer::stats(self)
    }

    fn shutdown(self: Box<Self>) -> RegistrySnapshot {
        crate::event::EventServer::shutdown(*self)
    }
}

/// Which serving engine [`bind_engine`] starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// The event engine where the build supports it, else blocking.
    #[default]
    Auto,
    /// The epoll readiness-loop engine (Linux, feature `event`);
    /// binding fails elsewhere.
    Event,
    /// The thread-pool engine, available on every build.
    Blocking,
}

impl Engine {
    /// Parses a CLI engine name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Engine> {
        match name {
            "auto" => Some(Engine::Auto),
            "event" => Some(Engine::Event),
            "blocking" => Some(Engine::Blocking),
            _ => None,
        }
    }

    /// The engine that actually runs on this build (resolves `Auto`).
    #[must_use]
    pub fn resolved(self) -> &'static str {
        match self {
            Engine::Blocking => "blocking",
            Engine::Event => "event",
            Engine::Auto => {
                if cfg!(all(target_os = "linux", feature = "event")) {
                    "event"
                } else {
                    "blocking"
                }
            }
        }
    }
}

/// Binds the chosen engine behind the [`ProxyServer`] face.
///
/// # Errors
///
/// Socket/epoll setup failures, and `Unsupported` when [`Engine::Event`]
/// is demanded on a build without the event engine.
pub fn bind_engine(
    addr: &str,
    gateway: Gateway,
    config: ServerConfig,
    engine: Engine,
) -> std::io::Result<Box<dyn ProxyServer>> {
    match engine {
        Engine::Blocking => Ok(Box::new(Server::bind(addr, gateway, config)?)),
        #[cfg(all(target_os = "linux", feature = "event"))]
        Engine::Auto | Engine::Event => Ok(Box::new(crate::event::EventServer::bind(
            addr, gateway, config,
        )?)),
        #[cfg(not(all(target_os = "linux", feature = "event")))]
        Engine::Auto => Ok(Box::new(Server::bind(addr, gateway, config)?)),
        #[cfg(not(all(target_os = "linux", feature = "event")))]
        Engine::Event => Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "event engine requires Linux and the `event` feature",
        )),
    }
}
