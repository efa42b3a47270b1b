//! The document transmitter's serving rounds, with no I/O.
//!
//! The paper's transmitter (§4.2, Figure 1) pushes all `N` cooked
//! packets, then serves each client REQUEST as a new round until the
//! client says DONE or the retry budget runs out. Every driver of that
//! protocol — the [`crate::live::run_transfer`] server thread and both
//! proxy engines — feeds the peer's REQUEST and DONE into one
//! [`Rounds`] and puts whatever it hands out on its own wire, after
//! passing frames through a [`Hop`] when a wireless hop is simulated.
//!
//! ```text
//!   new ──▶ Due ──round budget left──▶ Serving ──last index──▶ Waiting
//!            │  ▲                        │                       │
//!            │  └──────── REQUEST ───────┼───────────────────────┘
//!            ▼ budget spent              ▼ refusal / DONE
//!          GAVE_UP ─────────────────▶  Over  ◀──────── DONE ─────┘
//! ```
//!
//! The checks run in one order. The round budget is checked when a
//! round would start. Then, for each requested index: out of range is a
//! [`Refusal`]; a frame the server does not hold (a record that rotted
//! at rest) is skipped and costs no frame budget; a spent frame budget
//! is a [`Refusal`].

use std::sync::Arc;

use mrtweb_channel::fault::{FaultEvent, FaultedDelivery, FaultyLink};
use mrtweb_channel::loss::LossModel;
use mrtweb_obs::{emit, EventKind, Span};

use crate::error::Error;
use crate::live::LiveServer;

/// What the serving side puts on its wire next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action<'a> {
    /// One cooked packet's wire framing, to send as a FRAME.
    Frame {
        /// The packet's sequence number, the key into
        /// [`LiveServer::sealed`] envelopes.
        index: usize,
        /// Its wire framing, [`LiveServer::frame_bytes`]`(index)`.
        bytes: &'a [u8],
    },
    /// The round is over: send ROUND_END and wait for REQUEST or DONE.
    RoundEnd,
    /// The round budget is spent: send GAVE_UP and close.
    GaveUp,
    /// Nothing to send until the peer's next REQUEST (or ever, once the
    /// rounds are over).
    Idle,
}

/// A serving decision that ends the session with a typed error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refusal {
    /// The peer asked for an index `≥ N`.
    OutOfRange {
        /// The requested index.
        index: usize,
        /// The transmission's cooked-packet count `N`.
        n: usize,
    },
    /// The session's frame budget is spent.
    BudgetSpent {
        /// The per-session frame budget.
        budget: u64,
    },
}

impl std::fmt::Display for Refusal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Refusal::OutOfRange { index, n } => {
                write!(f, "{}", Error::FrameOutOfRange { index, n })
            }
            Refusal::BudgetSpent { budget } => {
                write!(f, "session frame budget {budget} exhausted")
            }
        }
    }
}

#[derive(Debug)]
enum State {
    /// A round is due; the round budget decides whether it starts.
    Due,
    /// Serving `to_send[cursor..]`; the span times the round.
    Serving(Span),
    /// ROUND_END handed out; waiting for REQUEST or DONE.
    Waiting,
    /// DONE, GAVE_UP or a refusal: nothing more to serve.
    Over,
}

/// One session's serving rounds over a prepared transmission.
///
/// The only place that emits [`EventKind::FrameSent`],
/// [`EventKind::BudgetExhausted`], [`EventKind::RoundSpan`] and
/// [`EventKind::RetransmitRequest`], each with `a` = the session id.
#[derive(Debug)]
pub struct Rounds {
    server: Arc<LiveServer>,
    session: u64,
    frame_budget: u64,
    round_budget: usize,
    /// The current round's requested indices.
    to_send: Vec<usize>,
    cursor: usize,
    state: State,
    /// Rounds started so far.
    started: usize,
    frames_sent: u64,
}

impl Rounds {
    /// Rounds for `server`, starting with the push of all `N` packets.
    /// `session` tags the trace events; `frame_budget` caps the frames
    /// served over the whole session and `round_budget` the rounds
    /// started.
    pub fn new(
        server: Arc<LiveServer>,
        session: u64,
        frame_budget: u64,
        round_budget: usize,
    ) -> Self {
        let n = server.header().n;
        Rounds {
            server,
            session,
            frame_budget,
            round_budget,
            to_send: (0..n).collect(),
            cursor: 0,
            state: State::Due,
            started: 0,
            frames_sent: 0,
        }
    }

    /// Rounds started so far (the initial push counts as one).
    pub fn rounds(&self) -> usize {
        self.started
    }

    /// Frames handed out so far.
    pub fn frames_sent(&self) -> u64 {
        self.frames_sent
    }

    /// Whether the last round has ended and the peer owes a REQUEST or
    /// DONE.
    pub fn is_waiting(&self) -> bool {
        matches!(self.state, State::Waiting)
    }

    /// The next thing to send.
    ///
    /// # Errors
    ///
    /// A [`Refusal`] when the round asks for an index `≥ N` or the frame
    /// budget is spent; the rounds are over after either.
    pub fn next_action(&mut self) -> Result<Action<'_>, Refusal> {
        if matches!(self.state, State::Due) {
            if self.started >= self.round_budget {
                self.state = State::Over;
                return Ok(Action::GaveUp);
            }
            self.started += 1;
            self.cursor = 0;
            self.state = State::Serving(Span::start(EventKind::RoundSpan));
        }
        if !matches!(self.state, State::Serving(_)) {
            return Ok(Action::Idle);
        }
        while let Some(&index) = self.to_send.get(self.cursor) {
            self.cursor += 1;
            // The indices came off the wire: a mangled one is a typed
            // refusal, never a panic.
            let bytes = match self.server.frame_checked(index) {
                Ok(bytes) => bytes,
                Err(Error::FrameNotHeld { .. }) => continue,
                Err(_) => {
                    self.state = State::Over;
                    let n = self.server.header().n;
                    return Err(Refusal::OutOfRange { index, n });
                }
            };
            if self.frames_sent >= self.frame_budget {
                emit(EventKind::BudgetExhausted, self.session, self.frame_budget);
                self.state = State::Over;
                return Err(Refusal::BudgetSpent {
                    budget: self.frame_budget,
                });
            }
            self.frames_sent += 1;
            emit(EventKind::FrameSent, self.session, index as u64);
            return Ok(Action::Frame { index, bytes });
        }
        end_round(&mut self.state, State::Waiting, self.started);
        Ok(Action::RoundEnd)
    }

    /// The peer's REQUEST: serve exactly `ids` as the next round. Only
    /// meaningful while [`Rounds::is_waiting`].
    pub fn request(&mut self, ids: impl IntoIterator<Item = usize>) {
        self.to_send.clear();
        self.to_send.extend(ids);
        emit(
            EventKind::RetransmitRequest,
            self.session,
            self.to_send.len() as u64,
        );
        self.state = State::Due;
    }

    /// The peer's DONE (or hangup): the rounds are over. A round cut
    /// short still closes its span.
    pub fn done(&mut self) {
        end_round(&mut self.state, State::Over, self.started);
    }
}

/// Moves to `next`, closing the span of a round in progress (`rounds`
/// started, so its index is `rounds - 1`). A free function over the one
/// field: [`Rounds::next_action`] still lends out the server's frame bytes.
fn end_round(state: &mut State, next: State, rounds: usize) {
    if let State::Serving(span) = std::mem::replace(state, next) {
        span.end(rounds.saturating_sub(1) as u64);
    }
}

/// The simulated wireless hop a driver pushes frames through: a
/// [`FaultyLink`] whose scheduled faults are re-emitted as
/// [`EventKind::FaultInjected`] trace events as they are drawn. The
/// channel layer stays deterministic and free of observability; the
/// transport narrates on its behalf.
#[derive(Debug)]
pub struct Hop<L> {
    link: FaultyLink<L>,
    /// Scheduler events already re-emitted.
    booked: usize,
}

impl<L: LossModel> Hop<L> {
    /// Wraps `link`.
    pub fn new(link: FaultyLink<L>) -> Self {
        Hop { link, booked: 0 }
    }

    /// Sends one frame across the hop. Returns what arrives, in order,
    /// and how many faults the send drew.
    pub fn transmit(&mut self, frame: &[u8]) -> (Vec<FaultedDelivery>, u64) {
        let deliveries = self.link.transmit(frame);
        let trace = self.link.scheduler().trace();
        let fresh = trace.get(self.booked..).unwrap_or(&[]);
        for event in fresh {
            emit(
                EventKind::FaultInjected,
                event.packet,
                u64::from(event.kind.code()),
            );
        }
        self.booked = trace.len();
        (deliveries, fresh.len() as u64)
    }

    /// Releases every held (reordered) frame: at the end of a round
    /// nothing is left on the wire to overtake them.
    pub fn flush(&mut self) -> Vec<FaultedDelivery> {
        self.link.flush()
    }

    /// The fault scheduler's replayable trace.
    pub fn into_trace(self) -> Vec<FaultEvent> {
        self.link.into_trace()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::live::DocumentHeader;
    use crate::plan::{TransmissionPlan, UnitSlice};

    /// A server over `n` packets of 4 bytes, holding the indices in
    /// `held`.
    fn server(n: usize, held: impl Fn(usize) -> bool) -> Arc<LiveServer> {
        let header = DocumentHeader {
            doc_len: 8,
            m: 2,
            n,
            packet_size: 4,
            plan: TransmissionPlan::sequential(vec![UnitSlice::new("0", 8, 1.0)]),
        };
        let cooked = (0..n).map(|i| held(i).then(|| vec![i as u8; 4])).collect();
        Arc::new(LiveServer::from_cooked(header, cooked).unwrap())
    }

    /// Drains one round, returning the served indices and how it ended.
    fn round(r: &mut Rounds) -> (Vec<u8>, Result<Action<'static>, Refusal>) {
        let mut served = Vec::new();
        loop {
            match r.next_action() {
                Ok(Action::Frame { index, bytes }) => {
                    assert_eq!(usize::from(bytes[2]), index);
                    served.push(bytes[2]);
                }
                Ok(Action::RoundEnd) => return (served, Ok(Action::RoundEnd)),
                Ok(Action::GaveUp) => return (served, Ok(Action::GaveUp)),
                Ok(Action::Idle) => return (served, Ok(Action::Idle)),
                Err(e) => return (served, Err(e)),
            }
        }
    }

    #[test]
    fn pushes_everything_then_serves_requests_until_the_round_budget() {
        let mut r = Rounds::new(server(4, |_| true), 7, u64::MAX, 2);
        assert_eq!(round(&mut r), (vec![0, 1, 2, 3], Ok(Action::RoundEnd)));
        assert!(r.is_waiting());
        assert_eq!(r.next_action(), Ok(Action::Idle));
        r.request([3, 1, 3]);
        assert_eq!(round(&mut r), (vec![3, 1, 3], Ok(Action::RoundEnd)));
        r.request([0]);
        assert_eq!(round(&mut r), (vec![], Ok(Action::GaveUp)));
        assert_eq!(r.next_action(), Ok(Action::Idle));
        assert_eq!((r.rounds(), r.frames_sent()), (2, 7));
    }

    #[test]
    fn zero_rounds_gives_up_before_any_frame() {
        let mut r = Rounds::new(server(4, |_| true), 0, u64::MAX, 0);
        assert_eq!(round(&mut r), (vec![], Ok(Action::GaveUp)));
        assert_eq!(r.frames_sent(), 0);
    }

    #[test]
    fn not_held_frames_are_skipped_without_spending_budget() {
        let mut r = Rounds::new(server(5, |i| i % 2 == 0), 0, 3, 4);
        assert_eq!(round(&mut r), (vec![0, 2, 4], Ok(Action::RoundEnd)));
        // The budget is spent, but a not-held frame costs nothing.
        r.request([1, 3]);
        assert_eq!(round(&mut r), (vec![], Ok(Action::RoundEnd)));
        r.request([1, 2]);
        assert_eq!(
            round(&mut r),
            (vec![], Err(Refusal::BudgetSpent { budget: 3 }))
        );
    }

    #[test]
    fn out_of_range_is_refused_before_the_budget_is_checked() {
        let mut r = Rounds::new(server(4, |_| true), 0, 4, 4);
        assert_eq!(round(&mut r).1, Ok(Action::RoundEnd));
        r.request([4]);
        let (served, end) = round(&mut r);
        assert!(served.is_empty());
        let refusal = end.unwrap_err();
        assert_eq!(refusal, Refusal::OutOfRange { index: 4, n: 4 });
        assert_eq!(
            refusal.to_string(),
            "requested frame 4 out of range (N = 4)"
        );
        assert_eq!(
            r.next_action(),
            Ok(Action::Idle),
            "a refusal ends the rounds"
        );
    }

    #[test]
    fn done_mid_round_ends_the_rounds() {
        let mut r = Rounds::new(server(4, |_| true), 0, u64::MAX, 4);
        assert!(matches!(
            r.next_action(),
            Ok(Action::Frame { index: 0, .. })
        ));
        r.done();
        assert_eq!(r.next_action(), Ok(Action::Idle));
        assert_eq!((r.rounds(), r.frames_sent()), (1, 1));
    }
}
