//! The mobile-side blocking client: drives [`LiveClient`] over a real
//! socket.
//!
//! A fetch is one proxy session: HELLO → HEADER → rounds of frames
//! with CRC verification, progressive [`ClientEvent::SliceProgress`]
//! rendering, retransmission REQUESTs for what is still missing, and
//! early stop — either on the relevance threshold (the paper's "stop"
//! button) or once the leading slices of the ranked plan are fully
//! renderable (the *target resolution*: the user got the part of the
//! document the query ranked first).
//!
//! The receive path is built for the weak device: the socket is read
//! straight into one [`StreamDecoder`], sized from the HEADER so a
//! paper-shape round arrives in one read; each FRAME's transport frame
//! is checked where it lies and copied once, into the client's packet
//! buffer; and a fetch makes no allocation per frame.

use std::io::{ErrorKind, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use mrtweb_erasure::packet::FRAME_OVERHEAD;
use mrtweb_transport::error::Error as TransportError;
use mrtweb_transport::live::{ClientEvent, DocumentHeader, LiveClient};

use mrtweb_obs::RegistrySnapshot;

use crate::wire::{
    ErrorCode, Hello, Message, StreamDecoder, WireError, ENVELOPE_OVERHEAD, MAX_BODY,
};

/// The most a HEADER sizes the receive buffer to: a round bigger than
/// this (large packets) arrives over several reads.
const ROUND_BUFFER_CAP: usize = 64 * 1024;

/// Everything a fetch needs besides the server address.
#[derive(Debug, Clone)]
pub struct FetchOptions {
    /// Document URL.
    pub url: String,
    /// Free-text query (empty → static IC ordering).
    pub query: String,
    /// Level of detail (`document`, `section`, `subsection`,
    /// `paragraph`).
    pub lod: String,
    /// Content measure (`ic`, `qic`, `mqic`).
    pub measure: String,
    /// Raw packet size in bytes.
    pub packet_size: u32,
    /// Redundancy ratio γ.
    pub gamma: f64,
    /// Stop once accrued content reaches this threshold.
    pub stop_at_content: Option<f64>,
    /// Stop once the first `k` slices of the ranked plan are fully
    /// renderable — download to a target resolution, not to the end.
    pub stop_at_slices: Option<usize>,
    /// Socket read/write timeout.
    pub io_timeout: Duration,
}

impl FetchOptions {
    /// Defaults matching the paper's parameters.
    pub fn new(url: impl Into<String>) -> Self {
        FetchOptions {
            url: url.into(),
            query: String::new(),
            lod: "paragraph".to_owned(),
            measure: "ic".to_owned(),
            packet_size: 256,
            gamma: 1.5,
            stop_at_content: None,
            stop_at_slices: None,
            io_timeout: Duration::from_secs(10),
        }
    }

    fn hello(&self) -> Hello {
        Hello {
            url: self.url.clone(),
            query: self.query.clone(),
            lod: self.lod.clone(),
            measure: self.measure.clone(),
            packet_size: self.packet_size,
            gamma: self.gamma,
            ..Hello::new("", "")
        }
    }
}

/// Why a fetch failed outright (refusals and transport faults; an
/// incomplete-but-orderly session comes back as a report instead).
#[derive(Debug)]
pub enum FetchError {
    /// Connecting or socket I/O failed.
    Io(std::io::Error),
    /// The server's stream violated the wire protocol.
    Wire(WireError),
    /// The header did not describe a usable codec.
    Transport(TransportError),
    /// The server refused or aborted the session with a typed error.
    Rejected {
        /// Machine-readable cause.
        code: ErrorCode,
        /// Human-readable detail.
        detail: String,
    },
    /// The server sent something out of protocol order.
    Unexpected(&'static str),
}

impl std::fmt::Display for FetchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FetchError::Io(e) => write!(f, "socket error: {e}"),
            FetchError::Wire(e) => write!(f, "wire protocol error: {e}"),
            FetchError::Transport(e) => write!(f, "transport error: {e}"),
            FetchError::Rejected { code, detail } => {
                write!(f, "server rejected session ({code}): {detail}")
            }
            FetchError::Unexpected(what) => write!(f, "unexpected server message: {what}"),
        }
    }
}

impl std::error::Error for FetchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FetchError::Io(e) => Some(e),
            FetchError::Wire(e) => Some(e),
            FetchError::Transport(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for FetchError {
    fn from(e: std::io::Error) -> Self {
        FetchError::Io(e)
    }
}

impl From<WireError> for FetchError {
    fn from(e: WireError) -> Self {
        FetchError::Wire(e)
    }
}

impl From<TransportError> for FetchError {
    fn from(e: TransportError) -> Self {
        FetchError::Transport(e)
    }
}

/// Outcome of one fetch session.
#[derive(Debug, Clone)]
pub struct FetchReport {
    /// Whether the document reconstructed byte-identically.
    pub completed: bool,
    /// Whether the client stopped early (threshold or target
    /// resolution).
    pub stopped_early: bool,
    /// Whether the server exhausted its round budget first.
    pub gave_up: bool,
    /// The reconstructed payload (empty unless completed).
    pub payload: Vec<u8>,
    /// Progressive rendering events in arrival order.
    pub events: Vec<ClientEvent>,
    /// Serving rounds observed (1 = no stall).
    pub rounds: usize,
    /// Retransmission REQUESTs sent.
    pub requests_sent: u64,
    /// Frames received (intact or not).
    pub frames_received: u64,
    /// Frames rejected by the transport CRC-16 (the simulated wireless
    /// hop corrupted them).
    pub crc_rejects: u64,
    /// Total wire bytes read.
    pub bytes_received: u64,
    /// The transmission header the server announced.
    pub header: DocumentHeader,
}

/// Runs one complete fetch session against a proxy at `addr`:
/// connects, then [`fetch_over`].
///
/// # Errors
///
/// [`FetchError::Rejected`] when the server refuses (busy, not found,
/// bad request, budget); I/O, wire, and codec failures per variant.
pub fn fetch(addr: impl ToSocketAddrs, options: &FetchOptions) -> Result<FetchReport, FetchError> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(options.io_timeout))?;
    stream.set_write_timeout(Some(options.io_timeout))?;
    stream.set_nodelay(true)?;
    fetch_over(stream, options)
}

/// Runs one complete fetch session over a connected byte stream.
///
/// # Errors
///
/// As [`fetch`]; a HEADER that disagrees with its own plan, or whose
/// packets no FRAME could carry, is a [`FetchError::Transport`].
pub fn fetch_over(
    mut stream: impl Read + Write,
    options: &FetchOptions,
) -> Result<FetchReport, FetchError> {
    let mut dec = StreamDecoder::new();
    let mut out = Vec::new();
    let mut bytes_received = 0u64;

    send(&mut stream, &mut out, &Message::Hello(options.hello()))?;
    let header = loop {
        match dec.next_envelope()? {
            Some(envelope) => match envelope.message()? {
                Message::Header(h) => break h,
                Message::Error { code, detail } => {
                    return Err(FetchError::Rejected { code, detail })
                }
                _ => return Err(FetchError::Unexpected("wanted HEADER or ERROR")),
            },
            None => bytes_received += fill(&mut dec, &mut stream)?,
        }
    };

    // One FRAME envelope: length, type, the transport frame, CRC-32.
    let envelope = header
        .packet_size
        .saturating_add(FRAME_OVERHEAD + 1 + ENVELOPE_OVERHEAD);
    if envelope > MAX_BODY + ENVELOPE_OVERHEAD {
        return Err(TransportError::BadHeader("packets larger than a FRAME can carry").into());
    }
    let (n, slices) = (header.n, header.plan.slices().len());
    // The first k slices in plan order; each reaches fraction 1 once.
    let targets = options.stop_at_slices.map_or(0, |k| k.min(slices));
    let mut targets_done = 0;
    let mut events = Vec::with_capacity(header.m + slices);
    let mut client = LiveClient::new(header)?;
    // A whole clean round (N FRAMEs, then ROUND-END) fits one read.
    dec.reserve(
        envelope
            .saturating_mul(n)
            .saturating_add(ENVELOPE_OVERHEAD + 1)
            .min(ROUND_BUFFER_CAP),
    );

    let (mut completed, mut stopped_early, mut gave_up) = (false, false, false);
    let (mut rounds, mut requests_sent, mut frames_received) = (0, 0, 0);
    let mut finishing = false;
    loop {
        let envelope = match dec.next_envelope() {
            Ok(Some(envelope)) => envelope,
            Ok(None) => match fill(&mut dec, &mut stream) {
                Ok(n) => {
                    bytes_received += n;
                    continue;
                }
                // After DONE the server may close at any point; a clean
                // or abrupt EOF while draining is an orderly end.
                Err(_) if finishing => break,
                Err(e) => return Err(e.into()),
            },
            Err(e) => return Err(e.into()),
        };
        if let Some(frame) = envelope.frame() {
            frames_received += 1;
            if finishing {
                continue; // draining the round after DONE
            }
            let new_events = client.on_wire(frame);
            events.extend_from_slice(new_events);
            targets_done += new_events
                .iter()
                .filter(|e| {
                    matches!(e, ClientEvent::SliceProgress { slice, fraction }
                        if *slice < targets && *fraction >= 1.0 - 1e-12)
                })
                .count();
            if new_events.contains(&ClientEvent::Reconstructed) {
                completed = true;
            } else if options
                .stop_at_content
                .is_some_and(|threshold| client.state().content() >= threshold)
                || (targets > 0 && targets_done >= targets)
            {
                stopped_early = true;
            } else {
                continue;
            }
            send(&mut stream, &mut out, &Message::Done)?;
            finishing = true;
            continue;
        }
        match envelope.message()? {
            Message::RoundEnd => {
                rounds += 1;
                if finishing {
                    break;
                }
                // Ask for the deficit only: the cheapest set of
                // packets that reaches M, per the paper's caching
                // retransmission scheme.
                let needed = client.state().needed();
                if needed.is_empty() {
                    // Nothing left but not reconstructed (degenerate
                    // header): end the session honestly.
                    send(&mut stream, &mut out, &Message::Done)?;
                    break;
                }
                let ids = needed.iter().map(|&i| i as u16).collect();
                requests_sent += 1;
                send(&mut stream, &mut out, &Message::Request(ids))?;
            }
            Message::GaveUp => {
                gave_up = true;
                break;
            }
            Message::Error { code, detail } => return Err(FetchError::Rejected { code, detail }),
            _ => return Err(FetchError::Unexpected("wanted FRAME, ROUND-END, or ERROR")),
        }
    }

    let crc_rejects = client.state().corrupted();
    let (header, payload) = client.into_parts();
    Ok(FetchReport {
        completed,
        stopped_early,
        gave_up,
        payload: payload.filter(|_| completed).unwrap_or_default(),
        events,
        rounds,
        requests_sent,
        frames_received,
        crc_rejects,
        bytes_received,
        header,
    })
}

/// Encodes `message` into the reused buffer `out` and writes it.
fn send(stream: &mut impl Write, out: &mut Vec<u8>, message: &Message) -> std::io::Result<()> {
    out.clear();
    message.encode_into(out);
    stream.write_all(out)?;
    stream.flush()
}

/// Reads once into the decoder; the end of the stream is an error,
/// because a fetch only reads while it waits for an envelope.
fn fill(dec: &mut StreamDecoder, stream: &mut impl Read) -> std::io::Result<u64> {
    match dec.read_from(stream)? {
        0 => Err(ErrorKind::UnexpectedEof.into()),
        n => Ok(n as u64),
    }
}

/// Asks a proxy for its stats snapshot (named counters, gauges, and
/// latency histograms).
///
/// # Errors
///
/// I/O and wire failures; [`FetchError::Rejected`] if admission control
/// refuses the probe connection.
pub fn fetch_stats(
    addr: impl ToSocketAddrs,
    io_timeout: Duration,
) -> Result<RegistrySnapshot, FetchError> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(io_timeout))?;
    stream.set_write_timeout(Some(io_timeout))?;
    Message::StatsRequest.write_to(&mut stream)?;
    match Message::read_from(&mut stream)? {
        Message::StatsReply(snapshot) => Ok(snapshot),
        Message::Error { code, detail } => Err(FetchError::Rejected { code, detail }),
        _ => Err(FetchError::Unexpected("wanted STATS-REPLY")),
    }
}
