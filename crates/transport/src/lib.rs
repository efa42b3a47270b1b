//! The fault-tolerant multi-resolution transmission protocol.
//!
//! Implements §4.2 of Leong et al. (ICDCS 2000). A document is
//! partitioned at a chosen LOD, its units permuted in descending
//! (query-based) information content, the permuted byte stream split
//! into `M` raw packets and dispersed into `N = max(M, round(γ·M))`
//! cooked packets ([`cooked_packets`](mrtweb_erasure::redundancy::cooked_packets),
//! clear-text prefix first), and the stream pushed over the lossy
//! FIFO channel. The client discards corrupted packets, accrues
//! information content progressively from intact clear-text packets,
//! reconstructs once any `M` distinct intact cooked packets arrive, and
//! on a *stalled* download either reloads from scratch (**NoCaching**)
//! or keeps its intact packets and asks only for what is missing
//! (**Caching**).
//!
//! Modules:
//!
//! * [`plan`] — transmission plans: unit slices, content-descending
//!   permutation, packet→content mapping;
//! * [`receiver`] — the client-side packet bookkeeping state machine;
//! * [`session`] — a complete download over a simulated lossy link,
//!   with relevance-based early termination and retransmission rounds;
//! * [`adaptive`] — EWMA-driven adaptive redundancy (§4.2's suggestion);
//! * [`prefetch`] — IC-ranked idle-bandwidth prefetching (§6 direction);
//! * [`serve`] — the document transmitter's serving rounds with no
//!   I/O: [`serve::Rounds`] decides what goes on the wire next and
//!   [`serve::Hop`] is the simulated wireless hop; every server drives
//!   them;
//! * [`live`] — a threaded client/server prototype exchanging real
//!   CRC-framed bytes over a corrupting link (the Rust analogue of the
//!   paper's Figure 1 CORBA prototype);
//! * [`broadcast`] — carousel delivery over a shared medium: the
//!   stored cooked records cycle on air verbatim (one encode at store
//!   time, unbounded listeners), with interleaved air-index frames and
//!   a tune-in-anywhere listener (§6's broadcast direction).

#![forbid(unsafe_code)]

pub mod adaptive;
pub mod arq;
pub mod broadcast;
pub mod error;
pub mod live;
pub mod plan;
pub mod prefetch;
pub mod receiver;
pub mod serve;
pub mod session;
