//! Server-side document store and database gateway.
//!
//! The paper's prototype architecture (Figure 1) places a *database
//! gateway* between the web server and a database holding documents and
//! their structural characteristics; the *document transmitter* serves
//! prepared transmissions from it. This crate is that back end:
//!
//! * [`codec`] — a compact, dependency-free binary serialization for
//!   documents and logical indexes (length-prefixed, versioned), so the
//!   store can persist without a JSON/XML round trip;
//! * [`store`] — a concurrent in-memory [`store::DocumentStore`] keyed
//!   by URL, holding one version per document: its logical index and
//!   the cook tables built from it, through which every query's
//!   structural characteristic is scored afresh ("the QIC of each
//!   organizational unit is determined every time the search engine
//!   receives a query … the computational overhead is quite low" —
//!   §3.3);
//! * [`disk`] — directory-backed persistence with atomic replace;
//! * [`gateway`] — [`gateway::Gateway`]: store + pipeline glue that
//!   prepares a ready-to-send [`mrtweb_transport::live::LiveServer`]
//!   for a `(url, query, LOD, γ)` request;
//! * [`air`] — lifts a dispersed blob into an on-air
//!   [`mrtweb_transport::broadcast::BroadcastDoc`] with zero decode or
//!   re-encode (the blob's records *are* the carousel's frames);
//! * [`edge`] — the gateway's one cache of cooked transmissions, whole
//!   ones under a byte budget in a segmented LRU, memory-only or (at a
//!   base station) disk-backed: a hit shares the cooked server with zero
//!   codec work;
//! * [`migrate`] — the CRC-framed cell-to-cell migration record that
//!   lets a document roam with its user.

#![forbid(unsafe_code)]

pub mod air;
pub mod codec;
pub mod disk;
pub mod edge;
pub mod gateway;
pub mod migrate;
pub mod store;
