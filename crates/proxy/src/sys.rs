//! Libc-free Linux syscall shim for the event-driven server.
//!
//! The event engine needs kernel facilities std does not expose:
//! **epoll** (scalable readiness notification), **eventfd** (the one
//! wakeup that tells every event loop to stop), and three socket calls
//! that let each loop accept its own connections: `accept4`, which
//! returns a nonblocking socket in one call, and `setsockopt` and
//! `listen` on the listener ([`prepare_listener`]). Rather than pull in
//! a dependency, this module declares the C runtime entry points
//! directly — std already links the C runtime, so the symbols are
//! always present — and wraps them in safe RAII types ([`Epoll`],
//! [`WakeFd`]) and functions built on [`OwnedFd`].
//!
//! Everything `unsafe` in the proxy crate lives in this file, each
//! block with a SAFETY argument; the rest of the crate is forbidden
//! from using `unsafe` at all on the fallback build.

use std::io;
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};

/// Readiness: the fd has bytes to read (or a pending accept).
pub const EPOLLIN: u32 = 0x001;
/// Readiness: the fd can accept writes without blocking.
pub const EPOLLOUT: u32 = 0x004;
/// Error condition on the fd (always reported, never requested).
pub const EPOLLERR: u32 = 0x008;
/// Hangup: both directions closed (always reported).
pub const EPOLLHUP: u32 = 0x010;
/// Peer shut down its writing half (half-open connection).
pub const EPOLLRDHUP: u32 = 0x2000;
/// Exclusive wakeup: of the epoll instances that watch one fd with
/// this flag (every event loop's listener), an event wakes one or more
/// that are waiting, not all of them. Valid only when adding the fd.
pub const EPOLLEXCLUSIVE: u32 = 1 << 28;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLL_CLOEXEC: i32 = 0o2000000;
const EFD_CLOEXEC: i32 = 0o2000000;
const EFD_NONBLOCK: i32 = 0o4000;
const SOCK_CLOEXEC: i32 = 0o2000000;
const SOCK_NONBLOCK: i32 = 0o4000;
const IPPROTO_TCP: i32 = 6;
const TCP_NODELAY: i32 = 1;
/// The listener's backlog; the kernel clamps it to
/// `net.core.somaxconn` (4096 by default since Linux 5.4).
const SOMAXCONN: i32 = 4096;

/// The kernel's `struct epoll_event`. On x86-64 the kernel ABI packs
/// it to 4-byte alignment (a 32-bit legacy); other architectures use
/// natural alignment. Getting this wrong corrupts the event array, so
/// the layout mirrors the uapi definition exactly.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
struct RawEpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut RawEpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut RawEpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn accept4(fd: i32, addr: *mut u8, addrlen: *mut u32, flags: i32) -> i32;
    fn listen(fd: i32, backlog: i32) -> i32;
    fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
}

/// The C runtime's convention: a negative return is a failure whose
/// cause is in `errno`.
fn cvt(rc: i32) -> io::Result<i32> {
    if rc < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(rc)
    }
}

/// Readies a bound listener for event loops that accept their own
/// connections: nonblocking, so a loop woken for a connection another
/// loop took reads `WouldBlock` instead of parking; `TCP_NODELAY`,
/// which Linux copies to every socket the listener accepts, so no
/// accepted socket needs a `setsockopt` of its own; and a backlog of
/// `SOMAXCONN` instead of std's 128, since no thread does nothing but
/// drain it and a connection burst would otherwise overflow it into
/// one-second SYN retries.
///
/// # Errors
///
/// The raw OS error of the first call the kernel refuses.
pub fn prepare_listener(listener: &TcpListener) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let fd = listener.as_raw_fd();
    let on: i32 = 1;
    let len = std::mem::size_of_val(&on) as u32;
    // SAFETY: `on` is a live i32 for the duration of the call and `len`
    // is its size, so the kernel reads only its bytes; `fd` is the
    // listener's open socket.
    cvt(unsafe { setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &raw const on, len) })?;
    // SAFETY: listen reads no caller memory; `fd` is a bound socket
    // that std already put in the listening state, and a second listen
    // only changes its backlog.
    cvt(unsafe { listen(fd, SOMAXCONN) })?;
    Ok(())
}

/// Accepts one pending connection as a nonblocking, close-on-exec
/// socket in one syscall, where std's `accept` and `set_nonblocking`
/// take two. The peer's address is not asked for.
///
/// # Errors
///
/// `WouldBlock` when no connection is pending; the raw OS error
/// otherwise.
pub fn accept(listener: &TcpListener) -> io::Result<TcpStream> {
    // SAFETY: null address and length pointers ask the kernel not to
    // report the peer, so it writes no caller memory; the fd is the
    // listener's open socket. The result is a new fd or -1, checked
    // before use.
    let fd = cvt(unsafe {
        accept4(
            listener.as_raw_fd(),
            std::ptr::null_mut(),
            std::ptr::null_mut(),
            SOCK_NONBLOCK | SOCK_CLOEXEC,
        )
    })?;
    // SAFETY: `fd` is a freshly accepted, valid descriptor that nothing
    // else owns; the stream takes sole responsibility for closing it.
    Ok(TcpStream::from(unsafe { OwnedFd::from_raw_fd(fd) }))
}

/// One readiness event: the token registered for the fd and the
/// `EPOLL*` mask the kernel reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Readiness {
    /// Caller-chosen token identifying the registration.
    pub token: u64,
    /// Bitwise OR of ready `EPOLL*` conditions.
    pub mask: u32,
}

/// An owned epoll instance.
#[derive(Debug)]
pub struct Epoll {
    fd: OwnedFd,
}

impl Epoll {
    /// Creates a new epoll instance (close-on-exec).
    ///
    /// # Errors
    ///
    /// The raw OS error if the kernel refuses (fd exhaustion).
    pub fn new() -> io::Result<Epoll> {
        // SAFETY: epoll_create1 reads no caller memory; it returns a
        // new fd or -1, checked before use.
        let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        // SAFETY: `fd` is a freshly created, valid descriptor that
        // nothing else owns; OwnedFd takes sole responsibility for
        // closing it.
        let fd = unsafe { OwnedFd::from_raw_fd(fd) };
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: i32, fd: RawFd, mask: u32, token: u64) -> io::Result<()> {
        let mut ev = RawEpollEvent {
            events: mask,
            data: token,
        };
        // SAFETY: `ev` is a live, properly-laid-out epoll_event for
        // the duration of the call; the kernel only reads it. Both fds
        // are valid (self.fd is owned, `fd` is the caller's open
        // socket).
        cvt(unsafe { epoll_ctl(self.fd.as_raw_fd(), op, fd, &raw mut ev) })?;
        Ok(())
    }

    /// Registers `fd` for the conditions in `mask`, reported with
    /// `token`.
    ///
    /// # Errors
    ///
    /// The raw OS error (e.g. the fd is already registered).
    pub fn add(&self, fd: RawFd, mask: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, mask, token)
    }

    /// Changes the interest mask of an already-registered `fd`.
    ///
    /// # Errors
    ///
    /// The raw OS error (e.g. the fd was never registered).
    pub fn modify(&self, fd: RawFd, mask: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, mask, token)
    }

    /// Blocks until at least one registered fd is ready or `timeout_ms`
    /// elapses (`-1` blocks indefinitely), filling `out` with the ready
    /// set. A signal interruption or timeout yields an empty `out`.
    ///
    /// # Errors
    ///
    /// The raw OS error for genuine failures (never `EINTR`).
    pub fn wait(&self, out: &mut Vec<Readiness>, timeout_ms: i32) -> io::Result<()> {
        const CAPACITY: usize = 256;
        const CAPACITY_I32: i32 = 256;
        let mut events = [RawEpollEvent { events: 0, data: 0 }; CAPACITY];
        // SAFETY: `events` outlives the call and holds CAPACITY
        // properly-laid-out entries; maxevents matches, so the kernel
        // writes only within bounds.
        let n = unsafe {
            epoll_wait(
                self.fd.as_raw_fd(),
                events.as_mut_ptr(),
                CAPACITY_I32,
                timeout_ms,
            )
        };
        out.clear();
        if n < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(e);
        }
        for ev in events.iter().take(n as usize) {
            // Copy out of the (possibly packed) struct before use.
            let RawEpollEvent { events, data } = *ev;
            out.push(Readiness {
                token: data,
                mask: events,
            });
        }
        Ok(())
    }
}

/// An owned eventfd used as a cross-thread wakeup: any thread calls
/// [`WakeFd::wake`], and every epoll instance watching the fd sees
/// `EPOLLIN` from then on, since nothing reads the counter back down.
#[derive(Debug)]
pub struct WakeFd {
    fd: OwnedFd,
}

impl WakeFd {
    /// Creates a nonblocking eventfd (close-on-exec).
    ///
    /// # Errors
    ///
    /// The raw OS error if the kernel refuses.
    pub fn new() -> io::Result<WakeFd> {
        // SAFETY: eventfd reads no caller memory; it returns a new fd
        // or -1, checked before use.
        let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        // SAFETY: `fd` is a freshly created, valid descriptor that
        // nothing else owns.
        let fd = unsafe { OwnedFd::from_raw_fd(fd) };
        Ok(WakeFd { fd })
    }

    /// The raw fd, for epoll registration.
    pub fn raw(&self) -> RawFd {
        self.fd.as_raw_fd()
    }

    /// Signals the fd: every later `epoll_wait` on it reports
    /// `EPOLLIN`. Best-effort; an error (counter at `u64::MAX − 1`) is
    /// ignored because a saturated counter is already a pending wakeup.
    pub fn wake(&self) {
        let one = 1u64.to_ne_bytes();
        // SAFETY: `one` is 8 valid bytes for the duration of the call
        // and the fd is an open eventfd owned by self.
        let _ = unsafe { write(self.fd.as_raw_fd(), one.as_ptr(), one.len()) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn wakefd_round_trip_through_epoll() {
        // One wake reaches every loop watching the fd, and, never read
        // back down, keeps reporting on every later wait.
        let loops = [Epoll::new().unwrap(), Epoll::new().unwrap()];
        let wake = WakeFd::new().unwrap();
        for ep in &loops {
            ep.add(wake.raw(), EPOLLIN, 7).unwrap();
        }

        let mut ready = Vec::new();
        for ep in &loops {
            ep.wait(&mut ready, 0).unwrap();
            assert!(ready.is_empty(), "no wakeup pending yet");
        }

        wake.wake();
        for _ in 0..2 {
            for ep in &loops {
                ep.wait(&mut ready, 1000).unwrap();
                assert_eq!(ready.len(), 1);
                assert_eq!(ready[0].token, 7);
                assert_ne!(ready[0].mask & EPOLLIN, 0);
            }
        }
    }

    /// A prepared listener with one connection arriving, and an epoll
    /// instance that has seen the connection become acceptable.
    fn listener_with_a_connection() -> (TcpListener, TcpStream, Epoll) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        prepare_listener(&listener).unwrap();
        let ep = Epoll::new().unwrap();
        ep.add(listener.as_raw_fd(), EPOLLIN | EPOLLEXCLUSIVE, 1)
            .unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let mut ready = Vec::new();
        ep.wait(&mut ready, 1000).unwrap();
        assert_eq!(ready.len(), 1, "the connection makes the listener ready");
        (listener, client, ep)
    }

    #[test]
    fn accepted_sockets_are_nonblocking_and_inherit_nodelay() {
        let (listener, mut client, _ep) = listener_with_a_connection();
        let mut rx = accept(&listener).unwrap();
        let mut buf = [0u8; 4];
        let empty = rx.read(&mut buf).unwrap_err();
        assert_eq!(empty.kind(), io::ErrorKind::WouldBlock);
        assert!(rx.nodelay().unwrap(), "TCP_NODELAY comes from the listener");

        client.write_all(b"ping").unwrap();
        rx.set_nonblocking(false).unwrap();
        rx.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");

        let none = accept(&listener).unwrap_err();
        assert_eq!(none.kind(), io::ErrorKind::WouldBlock);
    }

    #[test]
    fn an_exclusive_listener_hands_one_connection_to_one_accept() {
        // Two loops watch one listener; both may be told, one accepts.
        let (listener, _client, first) = listener_with_a_connection();
        let second = Epoll::new().unwrap();
        second
            .add(listener.as_raw_fd(), EPOLLIN | EPOLLEXCLUSIVE, 2)
            .unwrap();
        let mut ready = Vec::new();
        for ep in [&first, &second] {
            ep.wait(&mut ready, 0).unwrap();
        }
        let outcomes = [accept(&listener), accept(&listener)];
        assert_eq!(outcomes.iter().filter(|o| o.is_ok()).count(), 1);
        let refused = outcomes.iter().find_map(|o| o.as_ref().err()).unwrap();
        assert_eq!(refused.kind(), io::ErrorKind::WouldBlock);
    }

    #[test]
    fn socket_readability_and_interest_changes() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut tx = TcpStream::connect(addr).unwrap();
        let (rx, _) = listener.accept().unwrap();
        rx.set_nonblocking(true).unwrap();

        let ep = Epoll::new().unwrap();
        ep.add(rx.as_raw_fd(), EPOLLIN, 42).unwrap();

        let mut ready = Vec::new();
        ep.wait(&mut ready, 0).unwrap();
        assert!(ready.is_empty());

        tx.write_all(b"ping").unwrap();
        tx.flush().unwrap();
        ep.wait(&mut ready, 1000).unwrap();
        assert_eq!(ready.len(), 1);
        assert_eq!(ready[0].token, 42);
        assert_ne!(ready[0].mask & EPOLLIN, 0);

        // A socket with kernel buffer space is write-ready.
        ep.modify(rx.as_raw_fd(), EPOLLOUT, 43).unwrap();
        ep.wait(&mut ready, 1000).unwrap();
        assert_eq!(ready[0].token, 43);
        assert_ne!(ready[0].mask & EPOLLOUT, 0);

        let mut rx = rx;
        let mut buf = [0u8; 4];
        rx.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");

        // Closing the only descriptor takes it out of the interest set.
        drop(rx);
        ep.wait(&mut ready, 0).unwrap();
        assert!(ready.is_empty(), "a closed fd reports nothing");
    }

    #[test]
    fn hangup_is_reported() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let tx = TcpStream::connect(addr).unwrap();
        let (rx, _) = listener.accept().unwrap();
        rx.set_nonblocking(true).unwrap();

        let ep = Epoll::new().unwrap();
        ep.add(rx.as_raw_fd(), EPOLLIN | EPOLLRDHUP, 1).unwrap();
        drop(tx);

        let mut ready = Vec::new();
        ep.wait(&mut ready, 1000).unwrap();
        assert_eq!(ready.len(), 1);
        assert_ne!(
            ready[0].mask & (EPOLLRDHUP | EPOLLHUP | EPOLLIN),
            0,
            "closed peer must surface via rdhup/hup/in, got {:#x}",
            ready[0].mask
        );
    }
}
