//! One proxy session as a byte-level state machine, shared by both
//! serving engines.
//!
//! A [`Session`] does no I/O: bytes in, bytes out. Its driver hands it
//! whatever the socket produced ([`Session::absorb`]), lets it fill its
//! output buffer ([`Session::pump`]), writes [`Session::pending`] and
//! reports how much went out ([`Session::wrote`]). The session parses
//! HELLO or STATS-REQUEST, checks the protocol version, prepares the
//! transmission through the gateway, seeds the per-session wireless
//! [`Hop`], maps every failure to a typed ERROR, and queues the frames
//! that [`Rounds`] serves into an output buffer capped at [`OUT_CAP`].
//!
//! ```text
//! AwaitHello ──HELLO──▶ Serving(rounds) ──DONE / GAVE_UP / ERROR──▶ Draining(end)
//!     │                                                                 ▲
//!     └──────────────── STATS_REQUEST / ERROR ──────────────────────────┘
//! ```
//!
//! [`Session::turn`] tells the driver what the session waits for. The
//! event engine ([`crate::event`]) drives sessions from epoll
//! readiness. The blocking engine ([`crate::server`]) uses blocking
//! calls: it writes whatever is queued and reads only while the session
//! waits for input.

use std::sync::Arc;

use mrtweb_channel::bandwidth::Bandwidth;
use mrtweb_channel::bernoulli::BernoulliChannel;
use mrtweb_channel::fault::FaultyLink;
use mrtweb_channel::link::Link;
use mrtweb_obs::{emit, EventKind};
use mrtweb_store::gateway::{Gateway, GatewayError, Request};
use mrtweb_transport::live::LiveServer;
use mrtweb_transport::serve::{Action, Hop, Refusal, Rounds};

use crate::server::Daemon;
use crate::wire::{
    put_frame_envelope, ErrorCode, Hello, Message, StreamDecoder, WireError, PROTOCOL_VERSION,
};

/// Backpressure cap: frame production pauses once a session's output
/// buffer holds this many unsent bytes. One envelope may overshoot the
/// cap, so occupancy is bounded by `OUT_CAP + MAX_BODY + overhead`.
pub(crate) const OUT_CAP: usize = 64 * 1024;

/// How one session ended, for counter bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SessionEnd {
    /// Client sent DONE (or the metrics exchange finished).
    Completed,
    /// The peer violated the protocol (bad HELLO, unknown control,
    /// out-of-range frame index).
    ProtocolError,
    /// A read or write timed out (idle or stalled client).
    TimedOut,
    /// A garbled control envelope failed the CRC check.
    CrcReject,
    /// The socket died, the gateway refused the request, or a budget
    /// ran out; nothing to count beyond what the session recorded.
    Closed,
}

/// What a session waits for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Turn {
    /// A round is being served: [`Session::pump`] produces more.
    Serve,
    /// The peer owes a HELLO, REQUEST or DONE.
    Listen,
    /// Nothing more to produce: close with this end once
    /// [`Session::pending`] is written.
    Close(SessionEnd),
}

enum Phase {
    AwaitHello,
    Serving {
        rounds: Rounds,
        /// The simulated wireless hop, when the daemon injects faults.
        hop: Option<Box<Hop<BernoulliChannel>>>,
    },
    Draining(SessionEnd),
}

/// One connection's protocol state.
pub(crate) struct Session {
    id: u64,
    phase: Phase,
    /// Incremental envelope reassembly over partial reads.
    dec: StreamDecoder,
    /// Unsent wire bytes; `out[out_pos..]` is pending.
    out: Vec<u8>,
    out_pos: usize,
}

impl Session {
    pub(crate) fn new(id: u64) -> Session {
        Session {
            id,
            phase: Phase::AwaitHello,
            dec: StreamDecoder::new(),
            out: Vec::new(),
            out_pos: 0,
        }
    }

    /// What the session waits for.
    pub(crate) fn turn(&self) -> Turn {
        match &self.phase {
            Phase::Serving { rounds, .. } if !rounds.is_waiting() => Turn::Serve,
            Phase::AwaitHello | Phase::Serving { .. } => Turn::Listen,
            Phase::Draining(end) => Turn::Close(*end),
        }
    }

    /// The end a session that is closing will record.
    pub(crate) fn end(&self) -> Option<SessionEnd> {
        match self.phase {
            Phase::Draining(end) => Some(end),
            _ => None,
        }
    }

    /// Unconsumed input bytes (partial envelopes included).
    #[cfg(all(target_os = "linux", feature = "event"))]
    pub(crate) fn buffered(&self) -> usize {
        self.dec.buffered()
    }

    /// Wire bytes queued and not yet written.
    pub(crate) fn pending(&self) -> &[u8] {
        self.out.get(self.out_pos..).unwrap_or(&[])
    }

    /// Marks the first `n` pending bytes as written.
    pub(crate) fn wrote(&mut self, n: usize, d: &Daemon) {
        d.stats.bytes_sent.add(n as u64);
        self.out_pos = (self.out_pos + n).min(self.out.len());
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
    }

    /// Takes bytes read from the peer and handles every message they
    /// complete.
    pub(crate) fn absorb(&mut self, bytes: &[u8], d: &Daemon) {
        self.dec.absorb(bytes);
        while !matches!(self.phase, Phase::Draining(_)) {
            match self.dec.next_message() {
                Ok(Some(msg)) => self.handle(msg, d),
                Ok(None) => break,
                Err(WireError::CrcMismatch) => {
                    emit(EventKind::CrcReject, self.id, 0);
                    let what = if matches!(self.phase, Phase::AwaitHello) {
                        "corrupted HELLO envelope"
                    } else {
                        "corrupted control envelope"
                    };
                    self.fail(
                        ErrorCode::BadRequest,
                        what.to_owned(),
                        SessionEnd::CrcReject,
                    );
                }
                Err(e) => self.fail(
                    ErrorCode::BadRequest,
                    format!("{e}"),
                    SessionEnd::ProtocolError,
                ),
            }
        }
    }

    fn handle(&mut self, msg: Message, d: &Daemon) {
        match (&mut self.phase, msg) {
            (Phase::AwaitHello, Message::Hello(hello)) => self.hello(&hello, d),
            (Phase::AwaitHello, Message::StatsRequest) => {
                Message::StatsReply(d.stats.snapshot()).encode_into(&mut self.out);
                self.phase = Phase::Draining(SessionEnd::Completed);
            }
            (Phase::AwaitHello, _) => self.fail(
                ErrorCode::BadRequest,
                "expected HELLO".to_owned(),
                SessionEnd::ProtocolError,
            ),
            // DONE may arrive mid-round (the client reconstructed early
            // and stopped reading): whatever is still queued is dropped,
            // so the drain finishes at once instead of stalling on
            // frames nobody will read.
            (Phase::Serving { rounds, .. }, Message::Done) => {
                rounds.done();
                self.out.clear();
                self.out_pos = 0;
                self.phase = Phase::Draining(SessionEnd::Completed);
            }
            (Phase::Serving { rounds, .. }, Message::Request(ids)) if rounds.is_waiting() => {
                d.stats.retransmit_requests.inc();
                rounds.request(ids.into_iter().map(usize::from));
            }
            (Phase::Serving { .. }, _) => self.fail(
                ErrorCode::BadRequest,
                "expected REQUEST or DONE".to_owned(),
                SessionEnd::ProtocolError,
            ),
            (Phase::Draining(_), _) => {}
        }
    }

    fn hello(&mut self, hello: &Hello, d: &Daemon) {
        if hello.version != PROTOCOL_VERSION {
            let detail = format!(
                "protocol version {} unsupported (want {PROTOCOL_VERSION})",
                hello.version
            );
            return self.fail(ErrorCode::BadRequest, detail, SessionEnd::ProtocolError);
        }
        let server = match prepare(&d.gateway, hello) {
            Ok(server) => server,
            // A well-formed ask the server refuses: typed, but not a
            // protocol error.
            Err((code, detail)) => return self.fail(code, detail, SessionEnd::Closed),
        };
        Message::Header(server.header().clone()).encode_into(&mut self.out);
        // The wireless-hop simulator, when configured: mangles transport
        // frames inside intact proxy envelopes, seeded per session so
        // concurrent sessions draw independent deterministic schedules.
        let hop = d.config.fault.clone().map(|cfg| {
            let seed = d.config.fault_seed ^ self.id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let link = Link::new(
                Bandwidth::from_kbps(19.2),
                BernoulliChannel::new(0.0, seed),
                seed,
            );
            Box::new(Hop::new(FaultyLink::new(link, cfg, seed)))
        });
        let rounds = Rounds::new(server, self.id, d.config.frame_budget, d.config.max_rounds);
        self.phase = Phase::Serving { rounds, hop };
    }

    /// Queues what the rounds serve until the output buffer holds
    /// [`OUT_CAP`] bytes, the round ends, or the session does.
    pub(crate) fn pump(&mut self, d: &Daemon) {
        let Phase::Serving { rounds, hop } = &mut self.phase else {
            return;
        };
        let mut close = None;
        while self.out.len() - self.out_pos < OUT_CAP {
            match rounds.next_action() {
                Ok(Action::Frame(bytes)) => {
                    d.stats.frames_sent.inc();
                    let Some(hop) = hop.as_mut() else {
                        put_frame_envelope(&mut self.out, bytes);
                        continue;
                    };
                    let (deliveries, faults) = hop.transmit(bytes);
                    d.stats.faults_injected.add(faults);
                    for delivery in deliveries {
                        put_frame_envelope(&mut self.out, &delivery.bytes);
                    }
                }
                Ok(Action::RoundEnd) => {
                    // Held (reordered) frames can no longer be overtaken.
                    for delivery in hop.as_mut().map(|hop| hop.flush()).unwrap_or_default() {
                        put_frame_envelope(&mut self.out, &delivery.bytes);
                    }
                    Message::RoundEnd.encode_into(&mut self.out);
                    break;
                }
                Ok(Action::GaveUp) => {
                    close = Some((Message::GaveUp, SessionEnd::Closed));
                    break;
                }
                Ok(Action::Idle) => break,
                Err(refusal) => {
                    let (code, end) = match refusal {
                        Refusal::OutOfRange { .. } => {
                            (ErrorCode::BadRequest, SessionEnd::ProtocolError)
                        }
                        Refusal::BudgetSpent { .. } => {
                            (ErrorCode::BudgetExceeded, SessionEnd::Closed)
                        }
                    };
                    let detail = refusal.to_string();
                    close = Some((Message::Error { code, detail }, end));
                    break;
                }
            }
        }
        if let Some((msg, end)) = close {
            msg.encode_into(&mut self.out);
            self.phase = Phase::Draining(end);
        }
        d.stats.note_outbuf(self.pending().len() as u64);
    }

    /// Queues a typed error and closes with `end`.
    fn fail(&mut self, code: ErrorCode, detail: String, end: SessionEnd) {
        Message::Error { code, detail }.encode_into(&mut self.out);
        self.phase = Phase::Draining(end);
    }
}

/// HELLO → prepared [`LiveServer`], with gateway failures mapped to
/// wire error codes. Served through the gateway's one cache: its edge
/// cache when the base station has one attached (a hit re-frames the
/// at-rest cooked blob with zero codec work), its in-memory prepared
/// map otherwise. Concurrent and repeat sessions for one request shape
/// replay a single encode while the store holds the document
/// generation it was cooked from.
fn prepare(gateway: &Gateway, hello: &Hello) -> Result<Arc<LiveServer>, (ErrorCode, String)> {
    let request = Request::from_options(
        &hello.url,
        &hello.query,
        &hello.lod,
        &hello.measure,
        hello.packet_size as usize,
        hello.gamma,
    )
    .map_err(|e| (ErrorCode::BadRequest, format!("{e}")))?;
    gateway
        .prepare_edge(&request)
        .map(|(server, _hit)| server)
        .map_err(|e| match e {
            GatewayError::NotFound(_) => (ErrorCode::NotFound, format!("{e}")),
            GatewayError::BadRequest(_) | GatewayError::Encoding(_) => {
                (ErrorCode::BadRequest, format!("{e}"))
            }
            GatewayError::Edge(_) => (ErrorCode::Internal, format!("{e}")),
        })
}
