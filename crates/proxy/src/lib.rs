//! mrtweb-proxy: the base-station gateway as a real TCP daemon.
//!
//! The paper's architecture puts a proxy at the base station: the wired
//! side fetches and encodes documents, the wireless side streams
//! dispersal frames to weakly-connected mobile hosts. This crate makes
//! that half real — a dependency-free `std::net` server that frames the
//! existing [`mrtweb_transport::live`] protocol over TCP:
//!
//! - [`wire`] — length-prefixed, CRC-32-checked message envelopes and
//!   the HELLO/HEADER handshake that carries a
//!   [`mrtweb_transport::live::DocumentHeader`] to the client.
//! - [`server`] — what both engines share (configuration, the one
//!   admission rule with its typed refusals, the one mapping from
//!   session ends to counters) and the blocking engine: an acceptor
//!   thread and a thread pool behind a bounded accept queue, driving
//!   each session with blocking socket calls and reaping idle clients
//!   by socket timeouts. It needs no unsafe code and runs on every
//!   build.
//! - `session` — one connection's protocol as a byte-level state
//!   machine: HELLO or STATS-REQUEST in, HEADER and the frames of
//!   [`mrtweb_transport::serve::Rounds`] out through a bounded output
//!   buffer, every failure mapped to a typed ERROR. Both engines drive
//!   it; only the I/O differs.
//! - [`event`] (Linux, feature `event`, on by default) — the
//!   event-driven engine: epoll readiness loops that each accept their
//!   own connections and drive them from nonblocking reads and
//!   write-readiness backpressure. It exists to break the thread
//!   pool's throughput ceiling.
//! - [`sys`] — the libc-free syscall shim the event engine stands on:
//!   epoll, eventfd, and a nonblocking `accept4` on a listener every
//!   loop shares.
//! - [`client`] — a blocking fetch that drives
//!   [`mrtweb_transport::live::LiveClient`] over a socket (or any byte
//!   stream, `fetch_over`), receiving in place with no allocation per
//!   frame, with early stop at a content threshold or target
//!   resolution.
//! - [`stats`] — named counters, gauges, and per-request latency
//!   histograms on the [`mrtweb_obs`] registry, with wire-transportable
//!   snapshots rendered as JSON.
//! - [`loadgen`] — a closed-loop load generator reporting throughput
//!   and latency percentiles.
//!
//! The TCP hop models the reliable wired backbone (envelope CRCs guard
//! against framing bugs, not line noise); the simulated wireless last
//! hop is the optional fault injector mangling inner transport frames,
//! which the transport CRC-16 catches exactly as in the simulator.

// The only unsafe in this crate is the syscall shim in `sys`;
// every other module stays unsafe-free, and the blocking-fallback
// build proves it crate-wide.
#![cfg_attr(not(all(target_os = "linux", feature = "event")), forbid(unsafe_code))]
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod client;
#[cfg(all(target_os = "linux", feature = "event"))]
pub mod event;
pub mod loadgen;
pub mod server;
mod session;
pub mod stats;
#[cfg(all(target_os = "linux", feature = "event"))]
pub mod sys;
pub mod wire;
