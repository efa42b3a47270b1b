//! The trace event vocabulary shared by every instrumented layer.
//!
//! An event is four words: a monotonic timestamp, the emitting thread,
//! a [`EventKind`] discriminant, and two kind-specific payload words
//! `a`/`b`. Keeping the payload to two integers is what makes the hot
//! path a handful of relaxed stores; names, labels, and units live in
//! the schema below, not on the wire.

/// What an event means, and how to read its `a`/`b` payload words.
///
/// Span kinds (`*Span`) are emitted once at span end with `ts` = span
/// start and `a` = duration in nanoseconds, so a drained trace stays
/// causally ordered by `ts`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u16)]
pub enum EventKind {
    /// Transport transfer began. `a` = m (data packets), `b` = n (total).
    TransferStart = 1,
    /// Transport transfer ended. `a` = 1 if reconstructed, `b` = rounds.
    TransferEnd = 2,
    /// One ARQ round of frame transmission. `a` = duration ns, `b` = round index.
    RoundSpan = 3,
    /// Progressive-rendering slice update. `a` = slice index, `b` = fraction in ppm.
    SliceProgress = 4,
    /// A frame failed its CRC and was discarded. `a` = session id (0 in-process).
    CrcReject = 5,
    /// Erasure encode of one document. `a` = duration ns, `b` = payload bytes.
    EncodeSpan = 6,
    /// Erasure decode/reconstruction. `a` = duration ns, `b` = payload bytes.
    DecodeSpan = 7,
    /// Decode matrix inverse served from cache. `a` = survivor count.
    CacheHit = 8,
    /// Decode matrix inverse computed fresh. `a` = survivor count.
    CacheMiss = 9,
    /// Proxy accepted a session. `a` = session id.
    SessionStart = 10,
    /// Proxy session ended. `a` = session id, `b` = end code
    /// (0 completed, 1 protocol error, 2 timeout, 3 CRC reject, 4 closed).
    SessionEnd = 11,
    /// Admission control refused a connection. `a` = session id,
    /// `b` = reason (0 session slots full, 1 accept queue full).
    AdmissionReject = 12,
    /// Proxy sent one frame. `a` = session id, `b` = frame index.
    FrameSent = 13,
    /// Client asked for retransmissions. `a` = session id, `b` = frame count.
    RetransmitRequest = 14,
    /// Session hit its frame budget. `a` = session id, `b` = budget.
    BudgetExhausted = 15,
    /// Whole proxy request, handshake to teardown. `a` = duration ns, `b` = session id.
    RequestSpan = 16,
    /// The fault scheduler perturbed a packet. `a` = packet index,
    /// `b` = fault code (1 flip-bit, 2 burst, 3 garble, 4 truncate,
    /// 5 drop, 6 duplicate, 7 reorder, 8 outage).
    FaultInjected = 17,
    /// One event-loop readiness wait (`epoll_wait`). `a` = duration ns,
    /// `b` = number of fds reported ready.
    LoopWait = 18,
    /// A broadcast carousel channel wrapped around to slot 0.
    /// `a` = channel index, `b` = completed cycle count.
    CarouselCycle = 19,
    /// A broadcast listener joined mid-cycle. `a` = listener id,
    /// `b` = the cycle slot position it tuned in at.
    TuneIn = 20,
    /// A broadcast listener stopped before hearing the full cycle
    /// (any-M reconstruction or content-fraction LOD stop).
    /// `a` = listener id, `b` = slots listened since tune-in.
    EarlyStop = 21,
    /// An edge-cache lookup served a cooked transmission without
    /// re-encoding. `a` = n (cooked packets), `b` = m (data packets).
    EdgeHit = 22,
    /// An edge-cache lookup missed (absent, or stale).
    /// `a` = 1 if the entry existed but was cooked from another store
    /// generation (the lookup dropped it), else 0.
    EdgeMiss = 23,
    /// The edge cache dropped a whole entry (over budget, stale, or
    /// with a damaged at-rest blob). `a` = payload bytes freed, `b` = 1.
    EdgeEvict = 24,
    /// A migration record shipped a document between cells.
    /// `a` = record bytes on the backhaul, `b` = blob bytes inside it.
    EdgeMigrate = 25,
    /// A roaming client resumed mid-transfer at a new cell.
    /// `a` = cooked packets already held, `b` = packets still missing.
    HandoffResume = 26,
    /// One edge-cache serve, lookup to ready transmission.
    /// `a` = duration ns, `b` = 1 hit, 0 miss.
    EdgeServeSpan = 27,
}

impl EventKind {
    /// Every kind, in discriminant order.
    pub const ALL: &'static [EventKind] = &[
        EventKind::TransferStart,
        EventKind::TransferEnd,
        EventKind::RoundSpan,
        EventKind::SliceProgress,
        EventKind::CrcReject,
        EventKind::EncodeSpan,
        EventKind::DecodeSpan,
        EventKind::CacheHit,
        EventKind::CacheMiss,
        EventKind::SessionStart,
        EventKind::SessionEnd,
        EventKind::AdmissionReject,
        EventKind::FrameSent,
        EventKind::RetransmitRequest,
        EventKind::BudgetExhausted,
        EventKind::RequestSpan,
        EventKind::FaultInjected,
        EventKind::LoopWait,
        EventKind::CarouselCycle,
        EventKind::TuneIn,
        EventKind::EarlyStop,
        EventKind::EdgeHit,
        EventKind::EdgeMiss,
        EventKind::EdgeEvict,
        EventKind::EdgeMigrate,
        EventKind::HandoffResume,
        EventKind::EdgeServeSpan,
    ];

    /// Stable kebab-case name used by the JSONL export.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EventKind::TransferStart => "transfer-start",
            EventKind::TransferEnd => "transfer-end",
            EventKind::RoundSpan => "round-span",
            EventKind::SliceProgress => "slice-progress",
            EventKind::CrcReject => "crc-reject",
            EventKind::EncodeSpan => "encode-span",
            EventKind::DecodeSpan => "decode-span",
            EventKind::CacheHit => "cache-hit",
            EventKind::CacheMiss => "cache-miss",
            EventKind::SessionStart => "session-start",
            EventKind::SessionEnd => "session-end",
            EventKind::AdmissionReject => "admission-reject",
            EventKind::FrameSent => "frame-sent",
            EventKind::RetransmitRequest => "retransmit-request",
            EventKind::BudgetExhausted => "budget-exhausted",
            EventKind::RequestSpan => "request-span",
            EventKind::FaultInjected => "fault-injected",
            EventKind::LoopWait => "loop-wait",
            EventKind::CarouselCycle => "carousel-cycle",
            EventKind::TuneIn => "tune-in",
            EventKind::EarlyStop => "early-stop",
            EventKind::EdgeHit => "edge-hit",
            EventKind::EdgeMiss => "edge-miss",
            EventKind::EdgeEvict => "edge-evict",
            EventKind::EdgeMigrate => "edge-migrate",
            EventKind::HandoffResume => "handoff-resume",
            EventKind::EdgeServeSpan => "edge-serve-span",
        }
    }

    /// Span kinds report `ts` = start and `a` = duration in nanoseconds.
    #[must_use]
    pub fn is_span(self) -> bool {
        matches!(
            self,
            EventKind::RoundSpan
                | EventKind::EncodeSpan
                | EventKind::DecodeSpan
                | EventKind::RequestSpan
                | EventKind::LoopWait
                | EventKind::EdgeServeSpan
        )
    }

    /// Decode a wire discriminant back into a kind.
    #[must_use]
    pub fn from_u16(v: u16) -> Option<Self> {
        EventKind::ALL.iter().copied().find(|k| *k as u16 == v)
    }

    /// Look a kind up by its JSONL name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        EventKind::ALL.iter().copied().find(|k| k.name() == name)
    }
}

/// One drained trace event. 34 bytes of payload; everything needed to
/// reconstruct a causally-ordered, cross-thread timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the process clock epoch ([`crate::clock::now_nanos`]).
    /// For span kinds this is the span *start*.
    pub ts: u64,
    /// Small dense id of the emitting thread (registration order).
    pub thread: u16,
    /// What happened.
    pub kind: EventKind,
    /// First payload word; see [`EventKind`] for the schema.
    pub a: u64,
    /// Second payload word; see [`EventKind`] for the schema.
    pub b: u64,
}

#[cfg(test)]
mod tests {
    use super::EventKind;

    #[test]
    fn discriminants_and_names_round_trip() {
        for &kind in EventKind::ALL {
            assert_eq!(EventKind::from_u16(kind as u16), Some(kind));
            assert_eq!(EventKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(EventKind::from_u16(0), None);
        assert_eq!(EventKind::from_u16(999), None);
        assert_eq!(EventKind::from_name("no-such-kind"), None);
    }

    #[test]
    fn names_are_unique_and_kebab_case() {
        let mut seen = std::collections::BTreeSet::new();
        for &kind in EventKind::ALL {
            assert!(seen.insert(kind.name()), "duplicate name {}", kind.name());
            assert!(kind
                .name()
                .chars()
                .all(|c| c.is_ascii_lowercase() || c == '-'));
        }
    }
}
