//! Typed errors for the live transport.
//!
//! The fault-injection harness drives [`crate::live::run_transfer`]
//! through deliberately hostile schedules; failure paths that were
//! acceptable panics under benign unit tests (a malformed header, a
//! poisoned server thread) become recoverable, reportable errors here.

use std::fmt;

/// Errors surfaced by the live transfer machinery.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// The erasure codec rejected the transmission header (inconsistent
    /// `M`/`N`/packet-size) or failed to decode.
    Codec(mrtweb_erasure::Error),
    /// The server thread panicked mid-transfer; the transfer state is
    /// unrecoverable.
    ServerPanicked,
    /// A peer requested a cooked-packet index outside `0..N` — a
    /// protocol violation (or an index mangled in flight) that servers
    /// report instead of panicking.
    FrameOutOfRange {
        /// The requested index.
        index: usize,
        /// The transmission's cooked-packet count `N`.
        n: usize,
    },
    /// A valid index `0..N` whose packet this server does not hold —
    /// its blob record rotted at rest before an edge cache admitted it.
    /// Serving routes skip the sequence (the client reconstructs from
    /// any `M` of the rest); it is not a peer violation.
    FrameNotHeld {
        /// The requested index.
        index: usize,
    },
    /// A transmission header whose geometry disagrees with its own plan:
    /// `M` is not the plan's raw packet count at the header's packet
    /// size, or the document length is not the plan's byte total. A
    /// client refuses it, because it could never reconstruct.
    BadHeader(&'static str),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Codec(e) => write!(f, "erasure codec error: {e}"),
            Error::ServerPanicked => write!(f, "server thread panicked mid-transfer"),
            Error::FrameOutOfRange { index, n } => {
                write!(f, "requested frame {index} out of range (N = {n})")
            }
            Error::FrameNotHeld { index } => {
                write!(f, "frame {index} not held by this server")
            }
            Error::BadHeader(what) => write!(f, "inconsistent transmission header: {what}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Codec(e) => Some(e),
            Error::ServerPanicked
            | Error::FrameOutOfRange { .. }
            | Error::FrameNotHeld { .. }
            | Error::BadHeader(_) => None,
        }
    }
}

impl From<mrtweb_erasure::Error> for Error {
    fn from(e: mrtweb_erasure::Error) -> Self {
        Error::Codec(e)
    }
}
