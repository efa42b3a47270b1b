//! The event-driven serving engine: sharded epoll readiness loops.
//!
//! The blocking engine ([`crate::server::Server`]) parks one OS thread
//! per session; at base-station populations the pool serializes and
//! throughput flatlines. This engine drives the same
//! `session` state machines from readiness instead:
//!
//! * the daemon's one **acceptor** applies admission control (session
//!   slots, typed [`crate::wire::ErrorCode::Busy`] refusals), then
//!   hands each admitted connection to one of N **worker event loops**
//!   round-robin via an intake queue plus an eventfd wakeup;
//! * each worker owns an epoll instance and drives its sessions with
//!   nonblocking reads fed to `Session::absorb` and writes out of the
//!   session's **bounded output buffer** — when a slow client stops
//!   reading, the buffer caps at `OUT_CAP` (64 KiB) plus one
//!   envelope, `EPOLLOUT` interest is registered, and frame production
//!   pauses until the kernel drains (write-readiness-driven
//!   backpressure);
//! * idle and stalled sessions are reaped against the read and write
//!   timeouts, which the blocking engine gets from its sockets. The
//!   obs events are the blocking engine's, plus per-loop
//!   [`EventKind::LoopWait`] readiness-wait spans only this engine has.

use std::collections::{HashMap, VecDeque};
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use mrtweb_obs::clock::now_nanos;
use mrtweb_obs::{emit_at, EventKind, RegistrySnapshot};
use mrtweb_store::gateway::Gateway;

use crate::server::{Daemon, ServerConfig, READ_CHUNK};
use crate::session::{Session, SessionEnd, Turn};
use crate::sys::{Epoll, WakeFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use crate::wire::MAX_BODY;

/// Epoll token reserved for each worker's intake wakeup fd; session
/// ids count up from zero and can never collide with it.
const WAKE_TOKEN: u64 = u64::MAX;

/// Readiness-wait timeout: the loop wakes at least this often to reap
/// idle sessions and observe shutdown.
const TICK_MS: i32 = 100;

/// Minimum interval between idle-session reap scans.
const REAP_EVERY_NS: u64 = 250_000_000;

/// One nonblocking connection: its socket, its session, and the
/// readiness bookkeeping around them.
struct Conn {
    stream: TcpStream,
    session: Session,
    start: u64,
    last_activity: u64,
    /// Peer closed its writing half (EOF on read).
    read_closed: bool,
    /// Currently registered epoll interest mask.
    interest: u32,
}

impl Conn {
    /// Drains the socket into the session. `Some(end)` means the
    /// connection died and the session must finish.
    fn on_readable(&mut self, scratch: &mut [u8], d: &Daemon) -> Option<SessionEnd> {
        loop {
            // Bound buffering between dispatch passes: a peer streaming
            // faster than we parse re-reports via level-triggered epoll.
            if self.session.buffered() > 2 * MAX_BODY {
                return None;
            }
            match self.stream.read(scratch) {
                Ok(0) => {
                    self.read_closed = true;
                    return None;
                }
                Ok(n) => {
                    self.session.absorb(scratch.get(..n).unwrap_or(&[]), d);
                    self.last_activity = now_nanos();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return None,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return Some(SessionEnd::Closed),
            }
        }
    }

    /// Writes pending output until the kernel pushes back. `WouldBlock`
    /// here is normal backpressure, not a timeout — stall reaping
    /// handles clients that never drain. A failed farewell still books
    /// the intended end.
    fn flush(&mut self, d: &Daemon) -> Result<(), SessionEnd> {
        while !self.session.pending().is_empty() {
            match self.stream.write(self.session.pending()) {
                Ok(n) if n > 0 => {
                    self.session.wrote(n, d);
                    self.last_activity = now_nanos();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                _ => return Err(self.session.end().unwrap_or(SessionEnd::Closed)),
            }
        }
        Ok(())
    }

    /// Pump-and-flush until the session blocks, waits, or ends.
    /// `Some(end)` asks the caller to finish the session.
    fn progress(&mut self, d: &Daemon) -> Option<SessionEnd> {
        loop {
            self.session.pump(d);
            if let Err(end) = self.flush(d) {
                return Some(end);
            }
            // Keep refilling while serving and the kernel keeps accepting.
            if !(self.session.pending().is_empty() && self.session.turn() == Turn::Serve) {
                break;
            }
        }
        if !self.session.pending().is_empty() {
            return None;
        }
        match self.session.turn() {
            Turn::Close(end) => Some(end),
            // Half-open hangup: the peer owes us input it can never send
            // (the blocking engine's next read would see EOF).
            Turn::Listen if self.read_closed => Some(SessionEnd::Closed),
            _ => None,
        }
    }
}

/// The intake hand-off from the acceptor to one worker loop.
/// Deliberately unbounded: occupancy is already bounded by the
/// admission slot counter (`max_sessions`), so a second cap here would
/// only re-introduce the blocking engine's `accept_backlog` refusals.
struct WorkerShared {
    intake: Mutex<VecDeque<(TcpStream, u64)>>,
    wake: WakeFd,
}

/// One event loop: an epoll instance plus every session sharded to it.
struct Worker {
    epoll: Epoll,
    shared: Arc<WorkerShared>,
    daemon: Arc<Daemon>,
    conns: HashMap<u64, Conn>,
    scratch: Vec<u8>,
    last_reap: u64,
}

impl Worker {
    fn run(mut self) {
        let mut ready = Vec::new();
        loop {
            let wait_start = now_nanos();
            if self.epoll.wait(&mut ready, TICK_MS).is_err() {
                break;
            }
            let waited = now_nanos().saturating_sub(wait_start);
            self.daemon.stats.loop_wait.record(waited);
            emit_at(wait_start, EventKind::LoopWait, waited, ready.len() as u64);
            if self.daemon.is_shutting_down() {
                break;
            }
            self.admit_intake();
            for &r in &ready {
                if r.token == WAKE_TOKEN {
                    self.shared.wake.drain();
                } else {
                    self.drive(r.token, r.mask);
                }
            }
            let now = now_nanos();
            if now.saturating_sub(self.last_reap) >= REAP_EVERY_NS {
                self.last_reap = now;
                self.reap(now);
            }
        }
        // Teardown: sessions still open are closed and their admission
        // slots released; connections queued but never admitted into
        // the loop release theirs too.
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            self.finish(id, SessionEnd::Closed);
        }
        let leftovers = {
            let mut intake = self
                .shared
                .intake
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            intake.drain(..).count() as u64
        };
        if leftovers > 0 {
            self.daemon.release(leftovers);
        }
    }

    /// Registers every connection the acceptor queued since last time.
    fn admit_intake(&mut self) {
        loop {
            let item = self
                .shared
                .intake
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .pop_front();
            let Some((stream, id)) = item else { break };
            if stream.set_nonblocking(true).is_err() {
                self.daemon.release(1);
                continue;
            }
            let _ = stream.set_nodelay(true);
            let start = self.daemon.open(id);
            let interest = EPOLLIN | EPOLLRDHUP;
            if self.epoll.add(stream.as_raw_fd(), interest, id).is_err() {
                self.daemon.close(id, start, SessionEnd::Closed);
                continue;
            }
            let conn = Conn {
                stream,
                session: Session::new(id),
                start,
                last_activity: start,
                read_closed: false,
                interest,
            };
            self.conns.insert(id, conn);
        }
    }

    /// Advances one session after a readiness event.
    fn drive(&mut self, id: u64, mask: u32) {
        let Some(c) = self.conns.get_mut(&id) else {
            return;
        };
        let done = if mask & EPOLLERR != 0 {
            Some(SessionEnd::Closed)
        } else {
            let readable = mask & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0;
            let read_end = if readable {
                c.on_readable(&mut self.scratch, &self.daemon)
            } else {
                None
            };
            read_end.or_else(|| c.progress(&self.daemon))
        };
        if let Some(end) = done {
            self.finish(id, end);
            return;
        }
        // Register EPOLLOUT exactly while output is pending.
        let pending = if c.session.pending().is_empty() {
            0
        } else {
            EPOLLOUT
        };
        let want = EPOLLIN | EPOLLRDHUP | pending;
        if want != c.interest && self.epoll.modify(c.stream.as_raw_fd(), want, id).is_ok() {
            c.interest = want;
        }
    }

    /// Ends sessions idle past the read timeout (or stalled past the
    /// write timeout with output pending) — the reaper the blocking
    /// engine gets for free from socket timeouts.
    fn reap(&mut self, now: u64) {
        let read_ns = duration_nanos(self.daemon.config.read_timeout);
        let write_ns = duration_nanos(self.daemon.config.write_timeout);
        let stale: Vec<(u64, SessionEnd)> = self
            .conns
            .iter()
            .filter_map(|(&id, c)| {
                let pending = !c.session.pending().is_empty();
                let limit = if pending { write_ns } else { read_ns };
                // A closing session keeps its recorded end: the blocking
                // engine also books the intended end when the farewell
                // write fails.
                (now.saturating_sub(c.last_activity) > limit)
                    .then(|| (id, c.session.end().unwrap_or(SessionEnd::TimedOut)))
            })
            .collect();
        for (id, end) in stale {
            self.finish(id, end);
        }
    }

    /// Tears one session down and closes its books.
    fn finish(&mut self, id: u64, end: SessionEnd) {
        let Some(c) = self.conns.remove(&id) else {
            return;
        };
        self.epoll.delete(c.stream.as_raw_fd());
        self.daemon.close(id, c.start, end);
    }
}

fn duration_nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The event-driven proxy daemon. Same sessions, admission, budgets,
/// fault injection, and observability as [`crate::server::Server`];
/// different concurrency substrate.
pub struct EventServer {
    local_addr: SocketAddr,
    daemon: Arc<Daemon>,
    accept_handle: Option<JoinHandle<()>>,
    worker_handles: Vec<JoinHandle<()>>,
    worker_shared: Vec<Arc<WorkerShared>>,
}

impl std::fmt::Debug for EventServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventServer")
            .field("local_addr", &self.local_addr)
            .field("workers", &self.worker_handles.len())
            .finish_non_exhaustive()
    }
}

impl EventServer {
    /// Binds `addr` and starts the acceptor plus `config.workers`
    /// event loops.
    ///
    /// # Errors
    ///
    /// Propagates socket bind and epoll/eventfd creation failures.
    pub fn bind(
        addr: &str,
        gateway: Gateway,
        config: ServerConfig,
    ) -> std::io::Result<EventServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let daemon = Daemon::new(gateway, config);

        let nworkers = daemon.config.workers.max(1);
        let mut worker_shared = Vec::with_capacity(nworkers);
        let mut worker_handles = Vec::with_capacity(nworkers);
        for _ in 0..nworkers {
            let epoll = Epoll::new()?;
            let shared = Arc::new(WorkerShared {
                intake: Mutex::new(VecDeque::new()),
                wake: WakeFd::new()?,
            });
            epoll.add(shared.wake.raw(), EPOLLIN, WAKE_TOKEN)?;
            let worker = Worker {
                epoll,
                shared: Arc::clone(&shared),
                daemon: Arc::clone(&daemon),
                conns: HashMap::new(),
                scratch: vec![0u8; READ_CHUNK],
                last_reap: 0,
            };
            worker_shared.push(shared);
            worker_handles.push(std::thread::spawn(move || worker.run()));
        }

        let accept_handle = {
            let daemon = Arc::clone(&daemon);
            let workers = worker_shared.clone();
            let mut rr = 0usize;
            std::thread::spawn(move || {
                daemon.accept_loop(&listener, |stream, id| {
                    let worker = &workers[rr % workers.len()];
                    rr = rr.wrapping_add(1);
                    worker
                        .intake
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push_back((stream, id));
                    worker.wake.wake();
                    Ok(())
                });
            })
        };

        Ok(EventServer {
            local_addr,
            daemon,
            accept_handle: Some(accept_handle),
            worker_handles,
            worker_shared,
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

    /// Stops accepting, wakes every loop, joins every thread, and
    /// returns the final stats. Sessions still in flight at shutdown
    /// are closed immediately (end code 4) — an event loop has nowhere
    /// to park them, unlike the blocking engine's run-to-completion.
    pub fn shutdown(mut self) -> RegistrySnapshot {
        self.daemon.stop(self.local_addr);
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
        for shared in &self.worker_shared {
            shared.wake.wake();
        }
        for handle in self.worker_handles.drain(..) {
            let _ = handle.join();
        }
        self.daemon.stats.snapshot()
    }
}
