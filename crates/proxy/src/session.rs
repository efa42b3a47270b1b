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
//! A cache hit over a clean link copies the transmission's envelopes,
//! sealed once ([`LiveServer::sealed`]) and shared by every such
//! session.
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
use mrtweb_erasure::packet::FRAME_OVERHEAD;
use mrtweb_obs::{emit, EventKind};
use mrtweb_store::gateway::{Gateway, GatewayError, Request};
use mrtweb_transport::live::LiveServer;
use mrtweb_transport::serve::{Action, Hop, Refusal, Rounds};

use crate::server::Daemon;
use crate::wire::{
    put_frame_envelope, put_header_envelope, ErrorCode, Hello, Message, StreamDecoder, WireError,
    ENVELOPE_OVERHEAD, PROTOCOL_VERSION,
};

/// Backpressure cap: frame production pauses once a session's output
/// buffer holds this many unsent bytes. [`Session::pump`] drops the
/// written prefix before it appends, and one envelope may overshoot the
/// cap, so the buffer is bounded by `OUT_CAP + MAX_BODY + overhead`.
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
        /// The transmission whose sealed envelopes this session copies:
        /// a gateway cache hit over a clean link. `None` behind a fault
        /// hop, which mangles frames, and for a fresh cook, which this
        /// session may be the only one to serve.
        sealed: Option<Arc<LiveServer>>,
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
        let (server, hit) = match prepare(&d.gateway, hello) {
            Ok(prepared) => prepared,
            // A well-formed ask the server refuses: typed, but not a
            // protocol error.
            Err((code, detail)) => return self.fail(code, detail, SessionEnd::Closed),
        };
        let header = server.header();
        put_header_envelope(&mut self.out, header);
        // Reserve the first round up front, N FRAME envelopes and
        // ROUND_END, or as much as the backpressure cap lets the buffer
        // hold: no round then regrows the buffer.
        let envelope = ENVELOPE_OVERHEAD + 1 + header.packet_size + FRAME_OVERHEAD;
        let round = header
            .n
            .saturating_mul(envelope)
            .saturating_add(ENVELOPE_OVERHEAD + 1);
        let want = self.out.len().saturating_add(round).min(OUT_CAP + envelope);
        self.out.reserve_exact(want.saturating_sub(self.out.len()));
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
        let sealed = (hit && hop.is_none()).then(|| Arc::clone(&server));
        let rounds = Rounds::new(server, self.id, d.config.frame_budget, d.config.max_rounds);
        self.phase = Phase::Serving {
            rounds,
            sealed,
            hop,
        };
    }

    /// Queues what the rounds serve until the output buffer holds
    /// [`OUT_CAP`] bytes, the round ends, or the session does.
    pub(crate) fn pump(&mut self, d: &Daemon) {
        let Phase::Serving {
            rounds,
            sealed,
            hop,
        } = &mut self.phase
        else {
            return;
        };
        // The event engine pumps on every readiness event, written out
        // or not: drop what is written so the buffer holds only pending
        // bytes.
        self.out.drain(..self.out_pos);
        self.out_pos = 0;
        let sealed = sealed.as_deref().map(|s| s.sealed(put_frame_envelope));
        let mut frames = 0;
        let mut close = None;
        while self.out.len() < OUT_CAP {
            match rounds.next_action() {
                Ok(Action::Frame { index, bytes }) => {
                    frames += 1;
                    if let Some(hop) = hop.as_mut() {
                        let (deliveries, faults) = hop.transmit(bytes);
                        d.stats.faults_injected.add(faults);
                        for delivery in deliveries {
                            put_frame_envelope(&mut self.out, &delivery.bytes);
                        }
                    } else if let Some(envelope) = sealed.and_then(|s| s.envelope(index)) {
                        self.out.extend_from_slice(envelope);
                    } else {
                        put_frame_envelope(&mut self.out, bytes);
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
        d.stats.frames_sent.add(frames);
        if let Some((msg, end)) = close {
            msg.encode_into(&mut self.out);
            self.phase = Phase::Draining(end);
        }
        d.stats.note_outbuf(self.pending().len() as u64);
    }

    /// Queues a typed error and closes with `end`. The detail may quote
    /// the peer's HELLO, so it is cut to what the wire's u16 string
    /// length can carry, at a char boundary.
    fn fail(&mut self, code: ErrorCode, mut detail: String, end: SessionEnd) {
        detail.truncate(detail.floor_char_boundary(usize::from(u16::MAX)));
        Message::Error { code, detail }.encode_into(&mut self.out);
        self.phase = Phase::Draining(end);
    }
}

/// HELLO → prepared [`LiveServer`] and whether it was a cache hit, with
/// gateway failures mapped to wire error codes. Served through the
/// gateway's one cache (memory-only, or a base station's disk-backed
/// edge cache): concurrent and repeat sessions for one request shape
/// share a single encode, and the envelopes it sealed, while the store
/// holds the document generation it was cooked from.
fn prepare(
    gateway: &Gateway,
    hello: &Hello,
) -> Result<(Arc<LiveServer>, bool), (ErrorCode, String)> {
    let request = Request::from_options(
        &hello.url,
        &hello.query,
        &hello.lod,
        &hello.measure,
        hello.packet_size as usize,
        hello.gamma,
    )
    .map_err(|e| (ErrorCode::BadRequest, format!("{e}")))?;
    gateway.prepare_edge(&request).map_err(|e| match e {
        GatewayError::NotFound(_) => (ErrorCode::NotFound, format!("{e}")),
        GatewayError::BadRequest(_) | GatewayError::Encoding(_) => {
            (ErrorCode::BadRequest, format!("{e}"))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerConfig;
    use mrtweb_docmodel::gen::SyntheticDocSpec;
    use mrtweb_store::store::DocumentStore;

    const URL: &str = "doc/0";

    /// A daemon over one synthetic document of about `target_bytes`.
    fn daemon(target_bytes: usize) -> Arc<Daemon> {
        let store = Arc::new(DocumentStore::new(4));
        let spec = SyntheticDocSpec {
            target_bytes,
            ..SyntheticDocSpec::default()
        };
        store.put(URL, spec.generate(3).document);
        Daemon::new(Gateway::new(store), ServerConfig::default())
    }

    /// The transmission the daemon's gateway serves for `hello`.
    fn prepared(d: &Daemon, hello: &Hello) -> Arc<LiveServer> {
        prepare(&d.gateway, hello)
            .expect("the document is in the store")
            .0
    }

    /// Serves session `id`'s first round to a peer that takes at most
    /// `chunk` bytes per write, pumping before every write as the event
    /// engine does, and checks that no pump regrows the output buffer
    /// past what HELLO reserved. Returns the bytes written and the
    /// largest output buffer seen after a pump.
    fn first_round(d: &Daemon, id: u64, hello: &Hello, chunk: usize) -> (Vec<u8>, usize) {
        let mut s = Session::new(id);
        s.absorb(&Message::Hello(hello.clone()).encode(), d);
        let reserved = s.out.capacity();
        let (mut wire, mut peak) = (Vec::new(), 0);
        loop {
            s.pump(d);
            peak = peak.max(s.out.len());
            assert_eq!(s.out.capacity(), reserved, "session {id} regrew its buffer");
            let n = s.pending().len().min(chunk);
            if n == 0 && s.turn() != Turn::Serve {
                return (wire, peak);
            }
            wire.extend_from_slice(&s.pending()[..n]);
            s.wrote(n, d);
        }
    }

    #[test]
    fn clean_sessions_send_what_the_message_encoder_sends() {
        let d = daemon(SyntheticDocSpec::default().target_bytes);
        let hello = Hello::new(URL, "");
        // Session 0 cooks and envelopes frame by frame, session 1 hits
        // the cache and seals, session 2 copies what session 1 sealed.
        let wires: Vec<Vec<u8>> = (0..3)
            .map(|id| first_round(&d, id, &hello, usize::MAX).0)
            .collect();
        let server = prepared(&d, &hello);
        let mut expect = Message::Header(server.header().clone()).encode();
        for i in 0..server.header().n {
            let frame = server
                .frame_bytes(i)
                .expect("a cooked server holds every frame");
            expect.extend_from_slice(&Message::Frame(frame.to_vec()).encode());
        }
        expect.extend_from_slice(&Message::RoundEnd.encode());
        for (id, wire) in wires.iter().enumerate() {
            assert_eq!(*wire, expect, "session {id}");
        }
    }

    #[test]
    fn a_slow_reader_leaves_only_pending_bytes_buffered() {
        let d = daemon(400_000);
        let hello = Hello {
            packet_size: 4096,
            ..Hello::new(URL, "")
        };
        let server = prepared(&d, &hello);
        let frame = server
            .frame_bytes(0)
            .expect("a cooked server holds every frame");
        let envelope = Message::Frame(frame.to_vec()).encode().len();
        let (wire, peak) = first_round(&d, 0, &hello, 8 * 1024);
        assert!(wire.len() > 8 * OUT_CAP, "a {} B round", wire.len());
        assert!(
            peak <= OUT_CAP + envelope,
            "output buffer reached {peak} B (cap {OUT_CAP} + one {envelope} B envelope)"
        );
    }

    #[test]
    fn hello_reserves_the_whole_first_round() {
        let d = daemon(SyntheticDocSpec::default().target_bytes);
        let hello = Hello::new(URL, "");
        // The first session cooks, the second seals its cache hit and
        // the rest copy the seal; `first_round` checks that none of
        // them regrows its buffer, whether read whole or in small
        // writes.
        let rounds: Vec<Vec<u8>> = [usize::MAX, usize::MAX, usize::MAX, 1000]
            .into_iter()
            .enumerate()
            .map(|(id, chunk)| first_round(&d, id as u64, &hello, chunk).0)
            .collect();
        assert_eq!(prepared(&d, &hello).header().n, 63, "a paper-shape round");
        assert!(rounds.iter().all(|wire| *wire == rounds[0]));
        let mut s = Session::new(4);
        s.absorb(&Message::Hello(hello.clone()).encode(), &d);
        assert_eq!(s.out.capacity(), rounds[0].len(), "HELLO reserves it all");
    }
}
