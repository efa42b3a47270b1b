//! The proxy wire protocol: length-prefixed, CRC-checked messages.
//!
//! Every message travels as one *envelope*:
//!
//! ```text
//! ┌──────────────┬─────────┬──────────────┬───────────────────┐
//! │ len (u32 BE) │ type u8 │ body (len-1) │ crc32 (u32 BE)    │
//! └──────────────┴─────────┴──────────────┴───────────────────┘
//!                 └───── crc32 covers type ‖ body ─────┘
//! ```
//!
//! The CRC-32 envelope check guards the *proxy hop* (TCP is reliable,
//! but the check catches framing bugs and lets the garbled-input tests
//! assert hard rejection); the *wireless hop* is modelled inside
//! [`Message::Frame`] bodies, which carry the transport layer's own
//! CRC-16 frames ([`mrtweb_erasure::packet::Frame`]) and may arrive
//! deliberately mangled when the server injects faults. A client feeds
//! frame bodies to [`mrtweb_transport::live::LiveClient`] unchanged.
//!
//! The session handshake serializes the transport's
//! [`DocumentHeader`] — including the full transmission plan — so the
//! client can reconstruct progressive-rendering geometry without any
//! out-of-band channel.

use std::io::{Read, Write};

use mrtweb_erasure::crc::crc32;
use mrtweb_transport::live::DocumentHeader;
use mrtweb_transport::plan::{TransmissionPlan, UnitSlice};

use mrtweb_obs::hist::NBUCKETS;
use mrtweb_obs::{HistSnapshot, RegistrySnapshot};

/// Protocol version carried in every HELLO; bumped on incompatible
/// changes so mismatched peers fail fast with a typed error.
/// Version 2 replaced the fixed-field metrics reply with the generic
/// named-registry stats encoding.
pub const PROTOCOL_VERSION: u8 = 2;

/// Hard cap on one message body (type byte + payload). Large enough
/// for a 64 KiB frame or a many-slice header, small enough that a
/// hostile length prefix cannot drive an allocation storm.
pub const MAX_BODY: usize = 1 << 22;

/// Envelope overhead: length prefix + trailing CRC-32.
pub const ENVELOPE_OVERHEAD: usize = 8;

/// Why a server ended (or refused) a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The requested URL is not in the store.
    NotFound = 1,
    /// The HELLO did not parse or validate (bad LOD, measure, γ, …).
    BadRequest = 2,
    /// Admission control refused the session (max sessions reached or
    /// the accept queue is full).
    Busy = 3,
    /// The session exceeded its per-session frame budget.
    BudgetExceeded = 4,
    /// The server failed internally (encoding error, I/O fault).
    Internal = 5,
    /// The retransmission round budget ran out before completion.
    GaveUp = 6,
}

impl ErrorCode {
    /// Parses the wire byte.
    pub fn from_u8(b: u8) -> Option<Self> {
        match b {
            1 => Some(ErrorCode::NotFound),
            2 => Some(ErrorCode::BadRequest),
            3 => Some(ErrorCode::Busy),
            4 => Some(ErrorCode::BudgetExceeded),
            5 => Some(ErrorCode::Internal),
            6 => Some(ErrorCode::GaveUp),
            _ => None,
        }
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ErrorCode::NotFound => "not-found",
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::Busy => "busy",
            ErrorCode::BudgetExceeded => "budget-exceeded",
            ErrorCode::Internal => "internal",
            ErrorCode::GaveUp => "gave-up",
        })
    }
}

/// The client's session-opening request.
#[derive(Debug, Clone, PartialEq)]
pub struct Hello {
    /// Protocol version ([`PROTOCOL_VERSION`]).
    pub version: u8,
    /// Document URL to fetch.
    pub url: String,
    /// Free-text query (empty → static IC ordering server-side).
    pub query: String,
    /// Level of detail, as a string (`document`, `section`, …) parsed
    /// by the store gateway.
    pub lod: String,
    /// Content measure (`ic`, `qic`, `mqic`).
    pub measure: String,
    /// Raw packet size in bytes.
    pub packet_size: u32,
    /// Redundancy ratio γ (cooked `N = max(M, round(γ·M))`, see
    /// [`cooked_packets`](mrtweb_erasure::redundancy::cooked_packets)),
    /// transported as IEEE bits.
    pub gamma: f64,
}

impl Hello {
    /// A HELLO with the paper's defaults for `url` and `query`.
    pub fn new(url: impl Into<String>, query: impl Into<String>) -> Self {
        Hello {
            version: PROTOCOL_VERSION,
            url: url.into(),
            query: query.into(),
            lod: "paragraph".to_owned(),
            measure: "qic".to_owned(),
            packet_size: 256,
            gamma: 1.5,
        }
    }
}

/// Everything that can travel over a proxy connection.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Client → server: open a session.
    Hello(Hello),
    /// Client → server: retransmit exactly these cooked packets.
    Request(Vec<u16>),
    /// Client → server: session finished (reconstructed or stopped).
    Done,
    /// Client → server: report the server's stats snapshot.
    StatsRequest,
    /// Server → client: the transmission header (handshake reply).
    Header(DocumentHeader),
    /// Server → client: one transport-layer frame (seq ‖ payload ‖
    /// CRC-16), possibly fault-mangled to model the wireless hop.
    Frame(Vec<u8>),
    /// Server → client: all requested frames for this round were sent.
    RoundEnd,
    /// Server → client: round budget exhausted, closing.
    GaveUp,
    /// Server → client: typed refusal or failure.
    Error {
        /// Machine-readable cause.
        code: ErrorCode,
        /// Human-readable detail.
        detail: String,
    },
    /// Server → client: the full named-registry stats snapshot
    /// (counters, gauges, and sparse histograms).
    StatsReply(RegistrySnapshot),
}

const T_HELLO: u8 = 0x01;
const T_REQUEST: u8 = 0x02;
const T_DONE: u8 = 0x03;
const T_STATS_REQUEST: u8 = 0x04;
const T_HEADER: u8 = 0x81;
const T_FRAME: u8 = 0x82;
const T_ROUND_END: u8 = 0x83;
const T_GAVE_UP: u8 = 0x84;
const T_ERROR: u8 = 0x85;
const T_STATS_REPLY: u8 = 0x86;

/// Wire-protocol failures. I/O errors keep the underlying error; all
/// parse failures are static descriptions so tests can match on them.
#[derive(Debug)]
pub enum WireError {
    /// The socket failed (includes read/write timeouts).
    Io(std::io::Error),
    /// The length prefix exceeds [`MAX_BODY`] or is zero.
    BadLength(usize),
    /// The buffer ended before the declared length (truncation).
    Truncated,
    /// The envelope CRC-32 does not match (garbled in transit).
    CrcMismatch,
    /// Unknown message type byte.
    BadType(u8),
    /// The body does not parse as its declared type.
    Malformed(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "socket error: {e}"),
            WireError::BadLength(l) => write!(f, "message length {l} outside 1..={MAX_BODY}"),
            WireError::Truncated => f.write_str("message truncated"),
            WireError::CrcMismatch => f.write_str("envelope CRC mismatch"),
            WireError::BadType(t) => write!(f, "unknown message type {t:#04x}"),
            WireError::Malformed(what) => write!(f, "malformed message body: {what}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

impl WireError {
    /// Whether this is a read/write timeout (idle peer), as opposed to
    /// a hard failure.
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            WireError::Io(e) if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            )
        )
    }
}

// ── body writers ────────────────────────────────────────────────────

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    debug_assert!(u16::try_from(s.len()).is_ok());
    let clamped = s.len().min(u16::MAX as usize);
    put_u16(out, clamped as u16);
    out.extend_from_slice(s.as_bytes().get(..clamped).unwrap_or(s.as_bytes()));
}

// ── body reader ─────────────────────────────────────────────────────

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or(WireError::Malformed("body shorter than a field"))?;
        let out = self
            .buf
            .get(self.pos..end)
            .ok_or(WireError::Malformed("body shorter than a field"))?;
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(b);
        Ok(u64::from_be_bytes(raw))
    }

    fn string(&mut self) -> Result<String, WireError> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Malformed("invalid UTF-8"))
    }

    fn rest(&mut self) -> &'a [u8] {
        let out = self.buf.get(self.pos..).unwrap_or(&[]);
        self.pos = self.buf.len();
        out
    }

    fn finish(&self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing bytes after body"))
        }
    }
}

// ── header (de)serialization ────────────────────────────────────────

fn put_header(out: &mut Vec<u8>, h: &DocumentHeader) {
    put_u64(out, h.doc_len as u64);
    put_u16(out, h.m as u16);
    put_u16(out, h.n as u16);
    put_u32(out, h.packet_size as u32);
    let slices = h.plan.slices();
    put_u32(out, slices.len() as u32);
    for s in slices {
        put_str(out, &s.label);
        put_u64(out, s.bytes as u64);
        put_u64(out, s.content.to_bits());
    }
}

fn read_header(r: &mut Reader<'_>) -> Result<DocumentHeader, WireError> {
    let doc_len = r.u64()? as usize;
    let m = r.u16()? as usize;
    let n = r.u16()? as usize;
    let packet_size = r.u32()? as usize;
    let count = r.u32()? as usize;
    // Each slice needs ≥ 18 body bytes; an absurd count is hostile.
    if count > r.buf.len() / 18 + 1 {
        return Err(WireError::Malformed("slice count exceeds body size"));
    }
    let mut slices = Vec::with_capacity(count);
    for _ in 0..count {
        let label = r.string()?;
        let bytes = r.u64()? as usize;
        let content = f64::from_bits(r.u64()?);
        slices.push(UnitSlice::new(label, bytes, content));
    }
    Ok(DocumentHeader {
        doc_len,
        m,
        n,
        packet_size,
        // `sequential` preserves the on-wire order, which is already
        // the server's ranked transmission order.
        plan: TransmissionPlan::sequential(slices),
    })
}

// ── stats (de)serialization ─────────────────────────────────────────
//
// The registry snapshot travels as three self-describing sections:
//
// ```text
// u16 n_counters, then n × (str name, u64 value)
// u16 n_gauges,   then n × (str name, u64 two's-complement value)
// u16 n_hists,    then n × (str name, u64 count/sum/min/max,
//                           u16 n_nonzero, n × (u16 bucket, u64 count))
// ```
//
// Histogram buckets go sparse: a latency histogram touches a handful
// of its 496 buckets, so (index, count) pairs beat a dense array.

fn put_stats(out: &mut Vec<u8>, s: &RegistrySnapshot) {
    put_u16(out, s.counters.len().min(u16::MAX as usize) as u16);
    for (name, v) in &s.counters {
        put_str(out, name);
        put_u64(out, *v);
    }
    put_u16(out, s.gauges.len().min(u16::MAX as usize) as u16);
    for (name, v) in &s.gauges {
        put_str(out, name);
        put_u64(out, *v as u64);
    }
    put_u16(out, s.hists.len().min(u16::MAX as usize) as u16);
    for (name, h) in &s.hists {
        put_str(out, name);
        put_u64(out, h.count);
        put_u64(out, h.sum);
        put_u64(out, h.min);
        put_u64(out, h.max);
        let nonzero: Vec<(usize, u64)> = h
            .buckets
            .iter()
            .copied()
            .enumerate()
            .filter(|(_, c)| *c > 0)
            .collect();
        put_u16(out, nonzero.len().min(u16::MAX as usize) as u16);
        for (idx, c) in nonzero {
            put_u16(out, idx.min(u16::MAX as usize) as u16);
            put_u64(out, c);
        }
    }
}

fn read_stats(r: &mut Reader<'_>) -> Result<RegistrySnapshot, WireError> {
    let n_counters = r.u16()? as usize;
    let mut counters = Vec::with_capacity(n_counters);
    for _ in 0..n_counters {
        let name = r.string()?;
        counters.push((name, r.u64()?));
    }
    let n_gauges = r.u16()? as usize;
    let mut gauges = Vec::with_capacity(n_gauges);
    for _ in 0..n_gauges {
        let name = r.string()?;
        gauges.push((name, r.u64()?.cast_signed()));
    }
    let n_hists = r.u16()? as usize;
    let mut hists = Vec::with_capacity(n_hists);
    for _ in 0..n_hists {
        let name = r.string()?;
        let count = r.u64()?;
        let sum = r.u64()?;
        let min = r.u64()?;
        let max = r.u64()?;
        let nonzero = r.u16()? as usize;
        let mut buckets: Vec<u64> = Vec::new();
        let mut prev: Option<usize> = None;
        for _ in 0..nonzero {
            let idx = r.u16()? as usize;
            if idx >= NBUCKETS {
                return Err(WireError::Malformed("histogram bucket out of range"));
            }
            if prev.is_some_and(|p| idx <= p) {
                return Err(WireError::Malformed("histogram buckets out of order"));
            }
            prev = Some(idx);
            buckets.resize(idx.saturating_add(1), 0);
            let v = r.u64()?;
            if let Some(slot) = buckets.get_mut(idx) {
                *slot = v;
            }
        }
        hists.push((
            name,
            HistSnapshot {
                buckets,
                count,
                sum,
                min,
                max,
            },
        ));
    }
    Ok(RegistrySnapshot {
        counters,
        gauges,
        hists,
    })
}

impl Message {
    /// Serializes the message into a complete envelope.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Appends the complete envelope to `out` without any intermediate
    /// allocation — the send path for buffered writers: a server batches
    /// many envelopes into one socket write by appending them all here.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        put_envelope(out, |out| match self {
            Message::Hello(h) => {
                out.push(h.version);
                put_str(out, &h.url);
                put_str(out, &h.query);
                put_str(out, &h.lod);
                put_str(out, &h.measure);
                put_u32(out, h.packet_size);
                put_u64(out, h.gamma.to_bits());
                T_HELLO
            }
            Message::Request(ids) => {
                put_u32(out, ids.len() as u32);
                for &i in ids {
                    put_u16(out, i);
                }
                T_REQUEST
            }
            Message::Done => T_DONE,
            Message::StatsRequest => T_STATS_REQUEST,
            Message::Header(h) => {
                put_header(out, h);
                T_HEADER
            }
            Message::Frame(bytes) => {
                out.extend_from_slice(bytes);
                T_FRAME
            }
            Message::RoundEnd => T_ROUND_END,
            Message::GaveUp => T_GAVE_UP,
            Message::Error { code, detail } => {
                out.push(*code as u8);
                put_str(out, detail);
                T_ERROR
            }
            Message::StatsReply(s) => {
                put_stats(out, s);
                T_STATS_REPLY
            }
        });
    }

    /// Parses one complete envelope (length prefix through CRC).
    ///
    /// # Errors
    ///
    /// Any [`WireError`] parse variant; a truncated buffer, a mangled
    /// byte anywhere, or an unknown type never yields `Ok`.
    pub fn decode(envelope: &[u8]) -> Result<Message, WireError> {
        let Some((payload, stored, total)) = split_envelope(envelope)? else {
            return Err(WireError::Truncated);
        };
        if envelope.len() > total {
            return Err(WireError::Malformed("trailing bytes after envelope"));
        }
        if crc32(payload) != stored {
            return Err(WireError::CrcMismatch);
        }
        let (&t, body) = payload
            .split_first()
            .ok_or(WireError::Malformed("empty payload"))?;
        Message::decode_payload(t, body)
    }

    fn decode_payload(t: u8, body: &[u8]) -> Result<Message, WireError> {
        let mut r = Reader::new(body);
        let msg = match t {
            T_HELLO => {
                let version = r.u8()?;
                let url = r.string()?;
                let query = r.string()?;
                let lod = r.string()?;
                let measure = r.string()?;
                let packet_size = r.u32()?;
                let gamma = f64::from_bits(r.u64()?);
                Message::Hello(Hello {
                    version,
                    url,
                    query,
                    lod,
                    measure,
                    packet_size,
                    gamma,
                })
            }
            T_REQUEST => {
                let count = r.u32()? as usize;
                // body.len() >= 4 here (r.u32 just consumed 4 bytes);
                // a count whose doubling overflows is a mismatch too.
                if count.checked_mul(2) != body.len().checked_sub(4) {
                    return Err(WireError::Malformed("request count mismatch"));
                }
                let mut ids = Vec::with_capacity(count);
                for _ in 0..count {
                    ids.push(r.u16()?);
                }
                Message::Request(ids)
            }
            T_DONE => Message::Done,
            T_STATS_REQUEST => Message::StatsRequest,
            T_HEADER => Message::Header(read_header(&mut r)?),
            T_FRAME => Message::Frame(r.rest().to_vec()),
            T_ROUND_END => Message::RoundEnd,
            T_GAVE_UP => Message::GaveUp,
            T_ERROR => {
                let code = ErrorCode::from_u8(r.u8()?)
                    .ok_or(WireError::Malformed("unknown error code"))?;
                let detail = r.string()?;
                Message::Error { code, detail }
            }
            T_STATS_REPLY => Message::StatsReply(read_stats(&mut r)?),
            other => return Err(WireError::BadType(other)),
        };
        r.finish()?;
        Ok(msg)
    }

    /// Writes the full envelope to `w` and flushes.
    ///
    /// # Errors
    ///
    /// Propagates socket errors (including write timeouts).
    pub fn write_to<W: Write>(&self, w: &mut W) -> std::io::Result<()> {
        w.write_all(&self.encode())?;
        w.flush()
    }

    /// Reads exactly one envelope from `r` and parses it.
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] on socket failure or timeout; parse variants
    /// for hostile/garbled input. A clean EOF before the first byte
    /// surfaces as `Io(UnexpectedEof)`.
    pub fn read_from<R: Read>(r: &mut R) -> Result<Message, WireError> {
        let mut len_buf = [0u8; 4];
        r.read_exact(&mut len_buf)?;
        let len = u32::from_be_bytes(len_buf) as usize;
        if len == 0 || len > MAX_BODY {
            return Err(WireError::BadLength(len));
        }
        // len <= MAX_BODY, so the widened allocation cannot overflow.
        let mut rest = vec![0u8; len.saturating_add(4)];
        r.read_exact(&mut rest)?;
        let (Some(payload), Some(crc_bytes)) = (rest.get(..len), rest.get(len..)) else {
            return Err(WireError::Truncated);
        };
        let stored = u32::from_be_bytes([crc_bytes[0], crc_bytes[1], crc_bytes[2], crc_bytes[3]]);
        if crc32(payload) != stored {
            return Err(WireError::CrcMismatch);
        }
        let (&t, body) = payload
            .split_first()
            .ok_or(WireError::Malformed("empty payload"))?;
        Message::decode_payload(t, body)
    }
}

/// Appends one envelope to `out`: `len ‖ type ‖ body ‖ crc32`, where
/// `body` appends the body and returns the type byte. The one envelope
/// writer behind [`Message::encode_into`], [`put_frame_envelope`] and
/// [`put_header_envelope`].
fn put_envelope(out: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>) -> u8) {
    let len_at = out.len();
    put_u32(out, 0); // length placeholder, patched below
    let payload_at = out.len();
    out.push(0); // type placeholder
    let t = body(out);
    if let Some(slot) = out.get_mut(payload_at) {
        *slot = t;
    }
    let len = out.len() - payload_at;
    if let Some(dst) = out.get_mut(len_at..len_at.saturating_add(4)) {
        dst.copy_from_slice(&(len as u32).to_be_bytes());
    }
    let crc = crc32(out.get(payload_at..).unwrap_or(&[]));
    put_u32(out, crc);
}

/// Appends a FRAME envelope carrying `payload` to `out`, bypassing
/// [`Message`] construction entirely.
///
/// This writes `len ‖ type ‖ payload ‖ crc32` straight into a buffer —
/// no `Vec<u8>` clone per frame, no intermediate envelope — and it is
/// the seal the proxy passes to
/// [`LiveServer::sealed`](mrtweb_transport::live::LiveServer::sealed).
/// Byte-identical to `Message::Frame(payload.to_vec()).encode()`.
pub fn put_frame_envelope(out: &mut Vec<u8>, payload: &[u8]) {
    put_envelope(out, |out| {
        out.extend_from_slice(payload);
        T_FRAME
    });
}

/// Appends a HEADER envelope describing `header` to `out`, borrowing
/// the header instead of cloning it into a [`Message::Header`].
/// Byte-identical to `Message::Header(header.clone()).encode()`.
pub(crate) fn put_header_envelope(out: &mut Vec<u8>, header: &DocumentHeader) {
    put_envelope(out, |out| {
        put_header(out, header);
        T_HEADER
    });
}

/// A complete envelope split off the head of a buffer:
/// `(payload, stored crc, total envelope length)`, or `None` while the
/// buffer is still short of one whole envelope.
type SplitEnvelope<'a> = Option<(&'a [u8], u32, usize)>;

/// Splits the complete envelope at the head of `b`, panic-free on
/// every input shape. `Ok(None)` means `b` does not yet hold a
/// complete envelope (the incremental decoder's "absorb more" case);
/// a hostile length prefix fails as soon as the 4 prefix bytes are
/// present.
fn split_envelope(b: &[u8]) -> Result<SplitEnvelope<'_>, WireError> {
    let Some(len_bytes) = b.get(..4) else {
        return Ok(None);
    };
    let len = u32::from_be_bytes([len_bytes[0], len_bytes[1], len_bytes[2], len_bytes[3]]) as usize;
    if len == 0 || len > MAX_BODY {
        return Err(WireError::BadLength(len));
    }
    // len <= MAX_BODY, so neither sum can overflow usize.
    let body_end = 4usize.saturating_add(len);
    let total = body_end.saturating_add(4);
    let (Some(payload), Some(crc_bytes)) = (b.get(4..body_end), b.get(body_end..total)) else {
        return Ok(None);
    };
    let stored = u32::from_be_bytes([crc_bytes[0], crc_bytes[1], crc_bytes[2], crc_bytes[3]]);
    Ok(Some((payload, stored, total)))
}

/// Incremental envelope decoder: absorbs arbitrarily-split byte chunks
/// from a nonblocking socket and yields complete [`Message`]s.
///
/// The blocking path reads exactly one envelope per call
/// ([`Message::read_from`]); a readiness loop instead gets whatever the
/// kernel has — half a length prefix, three coalesced envelopes, a
/// frame split mid-CRC. `StreamDecoder` buffers the tail and resumes:
///
/// ```
/// use mrtweb_proxy::wire::{Message, StreamDecoder};
///
/// let wire = Message::Done.encode();
/// let mut dec = StreamDecoder::new();
/// dec.absorb(&wire[..3]); // partial length prefix
/// assert!(dec.next_message().unwrap().is_none());
/// dec.absorb(&wire[3..]);
/// assert_eq!(dec.next_message().unwrap(), Some(Message::Done));
/// ```
///
/// Parse failures ([`WireError::BadLength`], [`WireError::CrcMismatch`],
/// …) are sticky in practice: the stream has lost framing, so the
/// session must be torn down — there is no resynchronization point.
#[derive(Debug, Default)]
pub struct StreamDecoder {
    buf: Vec<u8>,
    pos: usize,
}

/// Consumed-prefix length at which [`StreamDecoder`] compacts its
/// buffer instead of letting it grow.
const DECODER_COMPACT_AT: usize = 64 * 1024;

impl StreamDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        StreamDecoder::default()
    }

    /// Buffers `bytes` read from the stream.
    pub fn absorb(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Unconsumed bytes currently buffered (partial envelopes included).
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Parses the next complete envelope out of the buffer.
    ///
    /// `Ok(None)` means the buffer holds no complete envelope yet —
    /// absorb more bytes and retry.
    ///
    /// # Errors
    ///
    /// The same parse variants as [`Message::decode`]; an error means
    /// the stream is corrupt and the connection should be dropped.
    pub fn next_message(&mut self) -> Result<Option<Message>, WireError> {
        // split_envelope validates the length prefix before waiting for
        // the body: a hostile length must fail now, not buffer 4 GiB
        // first.
        let b = self.buf.get(self.pos..).unwrap_or(&[]);
        let Some((payload, stored, total)) = split_envelope(b)? else {
            self.compact();
            return Ok(None);
        };
        if crc32(payload) != stored {
            return Err(WireError::CrcMismatch);
        }
        let (&t, body) = payload
            .split_first()
            .ok_or(WireError::Malformed("empty payload"))?;
        let msg = Message::decode_payload(t, body)?;
        self.pos += total;
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos >= DECODER_COMPACT_AT {
            self.compact();
        }
        Ok(Some(msg))
    }

    /// Drops the consumed prefix so the buffer never grows past one
    /// partial envelope plus unparsed input.
    fn compact(&mut self) {
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrtweb_content::sc::{Measure, StructuralCharacteristic};
    use mrtweb_docmodel::gen::SyntheticDocSpec;
    use mrtweb_docmodel::lod::Lod;
    use mrtweb_textproc::pipeline::ScPipeline;
    use mrtweb_transport::live::{cook, LiveServer};

    fn header_fixture() -> DocumentHeader {
        DocumentHeader {
            doc_len: 1234,
            m: 5,
            n: 8,
            packet_size: 256,
            plan: TransmissionPlan::sequential(vec![
                UnitSlice::new("0.1", 1000, 0.75),
                UnitSlice::new("0.2", 234, 0.25),
            ]),
        }
    }

    fn stats_fixture() -> RegistrySnapshot {
        let registry = mrtweb_obs::Registry::new();
        registry.counter("accepted").add(12);
        registry.counter("frames_sent").add(480);
        registry.gauge("active").set(-3);
        let h = registry.histogram("request_latency_ns");
        h.record(900);
        h.record(1_000_000);
        h.record(4_000_000_000);
        registry.snapshot()
    }

    #[test]
    fn every_message_type_round_trips() {
        let msgs = [
            Message::Hello(Hello::new("http://site/doc", "mobile wireless")),
            Message::Request(vec![0, 3, 7, 255]),
            Message::Request(Vec::new()),
            Message::Done,
            Message::StatsRequest,
            Message::Header(header_fixture()),
            Message::Frame((0..64).collect()),
            Message::Frame(Vec::new()),
            Message::RoundEnd,
            Message::GaveUp,
            Message::Error {
                code: ErrorCode::Busy,
                detail: "8 sessions active".to_owned(),
            },
            Message::StatsReply(RegistrySnapshot::default()),
            Message::StatsReply(stats_fixture()),
        ];
        for m in msgs {
            let wire = m.encode();
            assert_eq!(Message::decode(&wire).unwrap(), m, "decode {m:?}");
            let mut cursor = std::io::Cursor::new(wire);
            assert_eq!(Message::read_from(&mut cursor).unwrap(), m, "stream {m:?}");
        }
    }

    #[test]
    fn header_round_trip_preserves_plan_geometry() {
        let h = header_fixture();
        let wire = Message::Header(h.clone()).encode();
        let Message::Header(back) = Message::decode(&wire).unwrap() else {
            panic!("wrong type");
        };
        assert_eq!(back, h);
        assert_eq!(back.plan.total_bytes(), h.plan.total_bytes());
        assert_eq!(back.plan.slice_ranges(), h.plan.slice_ranges());
    }

    #[test]
    fn stats_round_trip_preserves_quantiles() {
        let snap = stats_fixture();
        let wire = Message::StatsReply(snap.clone()).encode();
        let Message::StatsReply(back) = Message::decode(&wire).unwrap() else {
            panic!("wrong type");
        };
        assert_eq!(back, snap);
        let h = back.hist("request_latency_ns");
        assert_eq!(h.count, 3);
        assert_eq!(
            h.quantile(0.5),
            snap.hist("request_latency_ns").quantile(0.5)
        );
    }

    #[test]
    fn hostile_histogram_bucket_is_rejected() {
        // A bucket index past NBUCKETS must be a typed parse error, not
        // a huge allocation.
        let mut body = vec![T_STATS_REPLY];
        put_u16(&mut body, 0); // counters
        put_u16(&mut body, 0); // gauges
        put_u16(&mut body, 1); // one histogram
        put_str(&mut body, "h");
        for _ in 0..4 {
            put_u64(&mut body, 1); // count/sum/min/max
        }
        put_u16(&mut body, 1); // one sparse bucket…
        put_u16(&mut body, u16::MAX); // …far out of range
        put_u64(&mut body, 1);
        let mut envelope = Vec::new();
        put_u32(&mut envelope, body.len() as u32);
        envelope.extend_from_slice(&body);
        put_u32(&mut envelope, crc32(&body));
        assert!(matches!(
            Message::decode(&envelope),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn truncation_never_decodes() {
        let wire = Message::Hello(Hello::new("u", "q")).encode();
        for cut in 0..wire.len() {
            assert!(Message::decode(&wire[..cut]).is_err(), "prefix {cut}");
        }
    }

    #[test]
    fn any_single_byte_flip_is_rejected() {
        let wire = Message::Request(vec![1, 2, 3]).encode();
        for i in 0..wire.len() {
            let mut bad = wire.clone();
            bad[i] ^= 0x20;
            assert!(Message::decode(&bad).is_err(), "flip at {i} decoded");
        }
    }

    #[test]
    fn hostile_length_prefixes_are_bounded() {
        let mut huge = Vec::new();
        put_u32(&mut huge, u32::MAX);
        huge.extend_from_slice(&[0; 64]);
        assert!(matches!(
            Message::decode(&huge),
            Err(WireError::BadLength(_))
        ));
        let mut zero = Vec::new();
        put_u32(&mut zero, 0);
        put_u32(&mut zero, crc32(&[]));
        assert!(matches!(
            Message::decode(&zero),
            Err(WireError::BadLength(0))
        ));
    }

    fn message_menagerie() -> Vec<Message> {
        vec![
            Message::Hello(Hello::new("http://site/doc", "mobile wireless")),
            Message::Request(vec![0, 3, 7, 255]),
            Message::Done,
            Message::Header(header_fixture()),
            Message::Frame((0..64).collect()),
            Message::RoundEnd,
            Message::Error {
                code: ErrorCode::Busy,
                detail: "8 sessions active".to_owned(),
            },
            Message::StatsReply(stats_fixture()),
        ]
    }

    #[test]
    fn encode_into_appends_byte_identical_envelopes() {
        let mut batch = Vec::new();
        let mut expect = Vec::new();
        for m in message_menagerie() {
            m.encode_into(&mut batch);
            expect.extend_from_slice(&m.encode());
        }
        assert_eq!(batch, expect);
    }

    #[test]
    fn frame_envelope_helper_matches_message_encode() {
        for payload in [&b""[..], &b"x"[..], &[0u8; 300][..]] {
            let mut fast = Vec::new();
            put_frame_envelope(&mut fast, payload);
            assert_eq!(fast, Message::Frame(payload.to_vec()).encode());
        }
    }

    #[test]
    fn sealed_envelopes_match_message_encode() {
        let doc = SyntheticDocSpec::default().generate(5).document;
        let sc = StructuralCharacteristic::from_index(&ScPipeline::default().run(&doc), None);
        let (header, packets) = cook(&doc, &sc, Lod::Paragraph, Measure::Ic, 256, 1.5).unwrap();
        let (m, n) = (header.m, header.n);
        let cooked =
            LiveServer::from_cooked(header.clone(), packets.iter().cloned().map(Some).collect())
                .unwrap();
        // An edge-cache entry with every other parity packet trimmed.
        let trimmed = LiveServer::from_cooked(
            header,
            packets
                .into_iter()
                .enumerate()
                .map(|(i, p)| (i < m || i % 2 == 0).then_some(p))
                .collect(),
        )
        .unwrap();
        assert!(trimmed.frame_bytes(m + 1).is_none());
        for server in [cooked, trimmed] {
            let sealed = server.sealed(put_frame_envelope);
            for i in 0..=n {
                let expect = server
                    .frame_bytes(i)
                    .map(|frame| Message::Frame(frame.to_vec()).encode());
                assert_eq!(sealed.envelope(i), expect.as_deref(), "frame {i} of {n}");
            }
        }
    }

    #[test]
    fn stream_decoder_yields_coalesced_messages_in_order() {
        let msgs = message_menagerie();
        let mut wire = Vec::new();
        for m in &msgs {
            m.encode_into(&mut wire);
        }
        let mut dec = StreamDecoder::new();
        dec.absorb(&wire);
        for m in &msgs {
            assert_eq!(dec.next_message().unwrap().as_ref(), Some(m));
        }
        assert_eq!(dec.next_message().unwrap(), None);
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn stream_decoder_resumes_across_any_split_point() {
        let wire = Message::Hello(Hello::new("http://site/doc", "q")).encode();
        for cut in 0..=wire.len() {
            let mut dec = StreamDecoder::new();
            dec.absorb(&wire[..cut]);
            if cut < wire.len() {
                assert_eq!(dec.next_message().unwrap(), None, "cut {cut}");
                dec.absorb(&wire[cut..]);
            }
            assert!(dec.next_message().unwrap().is_some(), "cut {cut}");
        }
    }

    #[test]
    fn stream_decoder_rejects_hostile_length_before_buffering() {
        let mut dec = StreamDecoder::new();
        dec.absorb(&u32::MAX.to_be_bytes());
        assert!(matches!(dec.next_message(), Err(WireError::BadLength(_))));
        let mut zero = StreamDecoder::new();
        zero.absorb(&0u32.to_be_bytes());
        assert!(matches!(zero.next_message(), Err(WireError::BadLength(0))));
    }

    #[test]
    fn stream_decoder_rejects_corrupt_crc() {
        let mut wire = Message::Request(vec![1, 2, 3]).encode();
        let last = wire.len() - 1;
        wire[last] ^= 0xFF;
        let mut dec = StreamDecoder::new();
        dec.absorb(&wire);
        assert!(matches!(dec.next_message(), Err(WireError::CrcMismatch)));
    }

    #[test]
    fn unknown_type_is_rejected_with_valid_crc() {
        let body = [0x7Fu8, 1, 2, 3];
        let mut envelope = Vec::new();
        put_u32(&mut envelope, body.len() as u32);
        envelope.extend_from_slice(&body);
        put_u32(&mut envelope, crc32(&body));
        assert!(matches!(
            Message::decode(&envelope),
            Err(WireError::BadType(0x7F))
        ));
    }
}
