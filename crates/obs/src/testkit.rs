//! Test support for code that captures the process-global tracer.
//!
//! The event tracer ([`crate::trace`]) is process-global: enabling it,
//! emitting, and draining from two tests at once interleaves their
//! timelines. Every test (in any crate above `obs`) that wants a clean
//! per-run timeline must therefore serialize on one lock *and* follow
//! the same enable/drain discipline. [`capture`] packages both so
//! callers cannot get the ordering wrong — previously each harness
//! (`src/faultrun.rs`, proxy loopback tests, …) hand-rolled its own
//! `TIMELINE_LOCK`.
//!
//! ```
//! let session = mrtweb_obs::testkit::capture();
//! // With the `trace` feature compiled out the tracer is a no-op and
//! // the captured timeline stays empty.
//! let tracing = mrtweb_obs::is_enabled();
//! mrtweb_obs::emit(mrtweb_obs::EventKind::CrcReject, 1, 0);
//! let timeline = session.finish();
//! assert_eq!(timeline.events.len(), usize::from(tracing));
//! ```

use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::trace::{drain, is_enabled, set_enabled, Trace};

/// Serializes every tracer-capturing test in the process.
static TIMELINE_LOCK: Mutex<()> = Mutex::new(());

/// An exclusive claim on the process-global tracer.
///
/// While a session is alive no other [`capture`] caller can touch the
/// tracer; dropping it (or calling [`CaptureSession::finish`]) restores
/// the previous enablement state. A panic in an earlier holder only
/// poisons the lock, it cannot corrupt the tracer, so the poison is
/// deliberately ignored.
#[must_use = "dropping the session immediately releases the tracer"]
pub struct CaptureSession {
    was_enabled: bool,
    finished: bool,
    /// The claim on `TIMELINE_LOCK`; `None` only for a session opened
    /// by a caller that already holds the lock.
    _guard: Option<MutexGuard<'static, ()>>,
}

/// Claims the tracer: takes the process-wide lock, enables tracing, and
/// (when tracing was previously off) discards any stale buffered
/// events so the captured timeline holds exactly this session's events.
pub fn capture() -> CaptureSession {
    let guard = TIMELINE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    CaptureSession::begin(Some(guard))
}

impl CaptureSession {
    fn begin(guard: Option<MutexGuard<'static, ()>>) -> CaptureSession {
        let was_enabled = is_enabled();
        set_enabled(true);
        if !was_enabled {
            let _ = drain(); // start from an empty buffer
        }
        CaptureSession {
            was_enabled,
            finished: false,
            _guard: guard,
        }
    }

    /// Stops capturing and returns the causally-ordered timeline
    /// recorded while the session was alive (empty when the `trace`
    /// feature is compiled out).
    pub fn finish(mut self) -> Trace {
        self.finished = true;
        set_enabled(self.was_enabled);
        drain()
    }
}

impl Drop for CaptureSession {
    fn drop(&mut self) {
        if !self.finished {
            set_enabled(self.was_enabled);
            let _ = drain();
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::{MutexGuard, PoisonError};

    use super::{capture, CaptureSession, TIMELINE_LOCK};
    use crate::event::EventKind;
    use crate::trace::{emit, is_enabled, set_enabled};

    /// Takes the timeline lock, so a test can read and write the
    /// enable flag with no capture running beside it.
    fn lock() -> MutexGuard<'static, ()> {
        TIMELINE_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A [`capture`] for a caller that already holds the lock.
    fn capture_holding(_lock: &MutexGuard<'static, ()>) -> CaptureSession {
        CaptureSession::begin(None)
    }

    #[test]
    fn capture_returns_only_own_events() {
        let session = capture();
        emit(EventKind::CrcReject, 7, 0);
        emit(EventKind::CacheHit, 3, 0);
        let timeline = session.finish();
        #[cfg(feature = "trace")]
        {
            assert_eq!(timeline.events.len(), 2);
            assert_eq!(timeline.events[0].kind, EventKind::CrcReject);
        }
        #[cfg(not(feature = "trace"))]
        assert!(timeline.events.is_empty());
    }

    #[test]
    fn capture_restores_previous_enablement() {
        let lock = lock();
        set_enabled(false);
        let session = capture_holding(&lock);
        assert!(is_enabled() || cfg!(not(feature = "trace")));
        let _ = session.finish();
        assert!(!is_enabled());
    }

    #[test]
    fn dropped_session_discards_and_restores() {
        let lock = lock();
        set_enabled(false);
        {
            let _session = capture_holding(&lock);
            emit(EventKind::CrcReject, 1, 0);
        }
        assert!(!is_enabled());
        // A fresh capture starts empty: the dropped session's events
        // were discarded, not leaked into the next timeline.
        let session = capture_holding(&lock);
        let timeline = session.finish();
        assert!(timeline.events.is_empty());
    }

    #[test]
    fn sessions_serialize_across_threads() {
        let handles: Vec<_> = (0..4)
            .map(|i| {
                std::thread::spawn(move || {
                    let session = capture();
                    for _ in 0..8 {
                        emit(EventKind::CrcReject, i, 0);
                    }
                    session.finish()
                })
            })
            .collect();
        for handle in handles {
            let timeline = handle.join().expect("capture thread");
            #[cfg(feature = "trace")]
            {
                assert_eq!(timeline.events.len(), 8);
                let first = timeline.events[0].a;
                assert!(
                    timeline.events.iter().all(|e| e.a == first),
                    "timelines interleaved across sessions"
                );
            }
            #[cfg(not(feature = "trace"))]
            assert!(timeline.events.is_empty());
        }
    }
}
