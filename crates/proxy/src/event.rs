//! The event-driven serving engine: epoll readiness loops that accept
//! their own connections.
//!
//! The blocking engine ([`crate::server::Server`]) parks one OS thread
//! per session; at base-station populations the pool serializes and
//! throughput flatlines. This engine drives the same
//! `session` state machines from readiness instead:
//!
//! * every one of N **event loops** watches the nonblocking listener
//!   with `EPOLLEXCLUSIVE`, so the kernel wakes a waiting loop, rather
//!   than all of them, for each connection. The woken loop accepts one
//!   connection, admits it through the daemon's one admission rule
//!   (session slots, typed [`crate::wire::ErrorCode::Busy`] refusals)
//!   and drives it at once: the HELLO has usually arrived with the
//!   connection, so the first round often leaves in the loop turn that
//!   accepted it, before the socket is registered. No thread hands a
//!   connection to another;
//! * each loop owns an epoll instance and drives its sessions with
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

use std::collections::HashMap;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use mrtweb_obs::clock::now_nanos;
use mrtweb_obs::{emit_at, EventKind, RegistrySnapshot};
use mrtweb_store::gateway::Gateway;

use crate::server::{Daemon, ServerConfig, READ_CHUNK};
use crate::session::{Session, SessionEnd, Turn};
use crate::sys::{
    self, Epoll, WakeFd, EPOLLERR, EPOLLEXCLUSIVE, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP,
};
use crate::wire::MAX_BODY;

/// Epoll token of the listener every loop watches; session ids count
/// up from zero and can never collide with it.
const LISTEN_TOKEN: u64 = u64::MAX;

/// Epoll token of the shutdown wakeup every loop watches.
const WAKE_TOKEN: u64 = u64::MAX - 1;

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
    /// Reads what the socket holds into the session, stopping at a
    /// short read: the kernel had no more, and level-triggered epoll
    /// reports whatever arrives later. `Some(end)` means the connection
    /// died and the session must finish.
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
                    if n < scratch.len() {
                        return None;
                    }
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

    /// Advances the session after readiness `mask`: reads what arrived,
    /// then pumps and flushes. `Some(end)` asks the caller to finish
    /// the session.
    fn step(&mut self, mask: u32, scratch: &mut [u8], d: &Daemon) -> Option<SessionEnd> {
        if mask & EPOLLERR != 0 {
            return Some(SessionEnd::Closed);
        }
        let read_end = if mask & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0 {
            self.on_readable(scratch, d)
        } else {
            None
        };
        read_end.or_else(|| self.progress(d))
    }

    /// The interest the session needs: input always, and `EPOLLOUT`
    /// exactly while output is pending.
    fn wanted(&self) -> u32 {
        let pending = if self.session.pending().is_empty() {
            0
        } else {
            EPOLLOUT
        };
        EPOLLIN | EPOLLRDHUP | pending
    }
}

/// One event loop: an epoll instance watching the shared listener, the
/// shutdown wakeup, and every session the loop accepted.
struct Worker {
    epoll: Epoll,
    listener: Arc<TcpListener>,
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
            // The shutdown wakeup is never drained, so a loop that
            // misses the flag here sees it on its next, immediate, turn.
            if self.daemon.is_shutting_down() {
                break;
            }
            for &r in &ready {
                match r.token {
                    LISTEN_TOKEN => self.accept(),
                    // Written only at shutdown, caught by the check above.
                    WAKE_TOKEN => {}
                    id => self.drive(id, r.mask),
                }
            }
            let now = now_nanos();
            if now.saturating_sub(self.last_reap) >= REAP_EVERY_NS {
                self.last_reap = now;
                self.reap(now);
            }
        }
        // Teardown: sessions still open are closed and their admission
        // slots released.
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            self.finish(id, SessionEnd::Closed);
        }
    }

    /// Accepts one connection, admits it, and drives it at once, as if
    /// it were readable: the HELLO has usually arrived with the
    /// connection, so the first round can leave before the socket is
    /// registered, with the interest its pending output needs.
    fn accept(&mut self) {
        // `WouldBlock` when a loop woken with this one took it first.
        let Ok(stream) = sys::accept(&self.listener) else {
            return;
        };
        let Some(id) = self.daemon.admit(&stream) else {
            return;
        };
        let start = self.daemon.open(id);
        let mut conn = Conn {
            stream,
            session: Session::new(id),
            start,
            last_activity: start,
            read_closed: false,
            interest: 0,
        };
        if let Some(end) = conn.step(EPOLLIN, &mut self.scratch, &self.daemon) {
            self.daemon.close(id, start, end);
            return;
        }
        conn.interest = conn.wanted();
        if self
            .epoll
            .add(conn.stream.as_raw_fd(), conn.interest, id)
            .is_err()
        {
            self.daemon.close(id, start, SessionEnd::Closed);
            return;
        }
        self.conns.insert(id, conn);
    }

    /// Advances one session after a readiness event.
    fn drive(&mut self, id: u64, mask: u32) {
        let Some(c) = self.conns.get_mut(&id) else {
            return;
        };
        if let Some(end) = c.step(mask, &mut self.scratch, &self.daemon) {
            self.finish(id, end);
            return;
        }
        let want = c.wanted();
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

    /// Closes one session's books, then its socket, which leaves the
    /// epoll interest set with its only descriptor.
    fn finish(&mut self, id: u64, end: SessionEnd) {
        let Some(c) = self.conns.remove(&id) else {
            return;
        };
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
    /// Written once, at shutdown, to wake every loop.
    wake: WakeFd,
    worker_handles: Vec<JoinHandle<()>>,
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
    /// Binds `addr` and starts `config.workers` event loops, each
    /// accepting on the shared listener.
    ///
    /// # Errors
    ///
    /// Propagates socket bind and setup, and epoll/eventfd creation
    /// failures; no thread has started when it fails.
    pub fn bind(
        addr: &str,
        gateway: Gateway,
        config: ServerConfig,
    ) -> std::io::Result<EventServer> {
        let listener = TcpListener::bind(addr)?;
        sys::prepare_listener(&listener)?;
        let local_addr = listener.local_addr()?;
        let listener = Arc::new(listener);
        let daemon = Daemon::new(gateway, config);
        let wake = WakeFd::new()?;
        let epolls = (0..daemon.config.workers.max(1))
            .map(|_| {
                let epoll = Epoll::new()?;
                epoll.add(listener.as_raw_fd(), EPOLLIN | EPOLLEXCLUSIVE, LISTEN_TOKEN)?;
                epoll.add(wake.raw(), EPOLLIN, WAKE_TOKEN)?;
                Ok(epoll)
            })
            .collect::<std::io::Result<Vec<Epoll>>>()?;
        let worker_handles = epolls
            .into_iter()
            .map(|epoll| {
                let worker = Worker {
                    epoll,
                    listener: Arc::clone(&listener),
                    daemon: Arc::clone(&daemon),
                    conns: HashMap::new(),
                    scratch: vec![0u8; READ_CHUNK],
                    last_reap: 0,
                };
                std::thread::spawn(move || worker.run())
            })
            .collect();

        Ok(EventServer {
            local_addr,
            daemon,
            wake,
            worker_handles,
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
        self.daemon.stop();
        self.wake.wake();
        for handle in self.worker_handles.drain(..) {
            let _ = handle.join();
        }
        self.daemon.stats.snapshot()
    }
}
