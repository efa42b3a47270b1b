//! Client-side packet bookkeeping.
//!
//! [`ReceiverState`] tracks which cooked packets arrived intact, how
//! much information content the intact clear-text prefix carries, and
//! whether enough distinct packets (`M`) exist for full reconstruction.
//! It is the protocol brain shared by the fast simulation path and the
//! live byte-level prototype.

/// Snapshot of a download in progress.
#[derive(Debug, Clone, PartialEq)]
pub struct ReceiverState {
    /// Raw packets `M` needed for reconstruction.
    m: usize,
    /// Cooked packets `N` the server will send per full round.
    n: usize,
    /// Which cooked packets have been received intact (deduplicated).
    intact: Vec<bool>,
    /// Number of `true` entries in `intact`.
    intact_count: usize,
    /// Content carried by each raw packet (length `M`); clear-text
    /// cooked packet `i < M` carries `packet_contents[i]`.
    packet_contents: Vec<f64>,
    /// Content accrued from intact clear-text packets.
    clear_content: f64,
    /// Packets observed in this round (intact or not).
    observed: u64,
    /// Corrupted packets observed (for EWMA feedback).
    corrupted: u64,
}

impl ReceiverState {
    /// Creates the state for an `(M, N)` transmission whose clear-text
    /// packets carry `packet_contents`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < M ≤ N` and `packet_contents.len() == M`.
    pub fn new(m: usize, n: usize, packet_contents: Vec<f64>) -> Self {
        assert!(m > 0 && m <= n, "need 0 < M <= N (got M={m}, N={n})");
        assert_eq!(
            packet_contents.len(),
            m,
            "need one content entry per raw packet"
        );
        ReceiverState {
            m,
            n,
            intact: vec![false; n],
            intact_count: 0,
            packet_contents,
            clear_content: 0.0,
            observed: 0,
            corrupted: 0,
        }
    }

    /// Raw packet count `M`.
    pub fn raw_packets(&self) -> usize {
        self.m
    }

    /// Cooked packet count `N`.
    pub fn cooked_packets(&self) -> usize {
        self.n
    }

    /// Records the arrival of cooked packet `index`.
    ///
    /// Corrupted packets are discarded; duplicate intact packets are
    /// counted once (retransmission rounds resend indices).
    ///
    /// # Panics
    ///
    /// Panics if `index ≥ N`.
    pub fn on_packet(&mut self, index: usize, corrupted: bool) {
        assert!(
            index < self.n,
            "cooked index {index} out of range (N={})",
            self.n
        );
        self.observed += 1;
        if corrupted {
            self.corrupted += 1;
            return;
        }
        if self.intact[index] {
            return;
        }
        self.intact[index] = true;
        self.intact_count += 1;
        if index < self.m {
            self.clear_content += self.packet_contents[index];
        }
    }

    /// Whether `M` distinct intact packets are available — the whole
    /// document can be reconstructed.
    pub fn is_complete(&self) -> bool {
        self.intact_count >= self.m
    }

    /// Distinct intact packets so far.
    pub fn intact_count(&self) -> usize {
        self.intact_count
    }

    /// Whether cooked packet `index` arrived intact.
    pub fn has(&self, index: usize) -> bool {
        self.intact.get(index).copied().unwrap_or(false)
    }

    /// The information content available to the user right now: 1.0
    /// after reconstruction, otherwise the sum over intact clear-text
    /// packets.
    pub fn content(&self) -> f64 {
        if self.is_complete() {
            1.0
        } else {
            self.clear_content
        }
    }

    /// Cooked packet indices not yet held intact — what a Caching
    /// client asks the server to retransmit.
    pub fn missing(&self) -> Vec<usize> {
        (0..self.n).filter(|&i| !self.intact[i]).collect()
    }

    /// The `M` cheapest missing-packet requests: clear-text packets the
    /// client still lacks plus enough redundancy to reach `M`.
    ///
    /// Any `M − intact_count` distinct missing packets suffice; this
    /// returns the lowest indices first so clear text is preferred.
    pub fn needed(&self) -> Vec<usize> {
        let deficit = self.m.saturating_sub(self.intact_count);
        self.missing().into_iter().take(deficit).collect()
    }

    /// Resets for a from-scratch reload (NoCaching): all packet state is
    /// discarded; cumulative observation counters survive for
    /// statistics.
    pub fn reset_packets(&mut self) {
        self.intact.iter_mut().for_each(|b| *b = false);
        self.intact_count = 0;
        self.clear_content = 0.0;
    }

    /// Packets observed so far (including duplicates and corrupted).
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Corrupted packets observed so far.
    pub fn corrupted(&self) -> u64 {
        self.corrupted
    }

    /// Observed corruption fraction (0 when nothing observed).
    pub fn observed_rate(&self) -> f64 {
        if self.observed == 0 {
            0.0
        } else {
            self.corrupted as f64 / self.observed as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform(m: usize, n: usize) -> ReceiverState {
        ReceiverState::new(m, n, vec![1.0 / m as f64; m])
    }

    #[test]
    fn completes_after_m_distinct_intact() {
        let mut r = uniform(3, 5);
        r.on_packet(4, false);
        r.on_packet(4, false); // duplicate
        r.on_packet(0, false);
        assert!(!r.is_complete());
        r.on_packet(2, false);
        assert!(r.is_complete());
        assert_eq!(r.intact_count(), 3);
    }

    #[test]
    fn corrupted_packets_are_discarded() {
        let mut r = uniform(2, 4);
        r.on_packet(0, true);
        r.on_packet(1, true);
        assert_eq!(r.intact_count(), 0);
        assert_eq!(r.corrupted(), 2);
        assert_eq!(r.observed(), 2);
        assert_eq!(r.observed_rate(), 1.0);
    }

    #[test]
    fn content_accrues_from_clear_text_only() {
        let mut r = ReceiverState::new(3, 5, vec![0.6, 0.3, 0.1]);
        r.on_packet(3, false); // redundancy: no direct content
        assert_eq!(r.content(), 0.0);
        r.on_packet(0, false);
        assert!(
            (r.content() - 0.6).abs() < 1e-12,
            "clear packet contributes its content"
        );
        // Completing (3 distinct) jumps content to 1.0.
        r.on_packet(4, false);
        assert!(r.is_complete());
        assert_eq!(r.content(), 1.0);
    }

    #[test]
    fn content_is_one_after_reconstruction_via_redundancy() {
        let mut r = ReceiverState::new(2, 4, vec![0.5, 0.5]);
        r.on_packet(2, false);
        r.on_packet(3, false);
        assert!(r.is_complete());
        assert_eq!(r.content(), 1.0);
    }

    #[test]
    fn missing_and_needed() {
        let mut r = uniform(3, 6);
        r.on_packet(1, false);
        r.on_packet(5, false);
        assert_eq!(r.missing(), vec![0, 2, 3, 4]);
        assert_eq!(r.needed(), vec![0]); // one more packet suffices
        r.on_packet(0, false);
        assert!(r.needed().is_empty());
    }

    #[test]
    fn reset_packets_keeps_statistics() {
        let mut r = uniform(2, 3);
        r.on_packet(0, false);
        r.on_packet(1, true);
        r.reset_packets();
        assert_eq!(r.intact_count(), 0);
        assert_eq!(r.content(), 0.0);
        assert_eq!(r.observed(), 2);
        assert_eq!(r.corrupted(), 1);
        assert!(!r.has(0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_index_panics() {
        uniform(2, 3).on_packet(3, false);
    }

    #[test]
    #[should_panic(expected = "one content entry per raw packet")]
    fn wrong_content_length_panics() {
        let _ = ReceiverState::new(3, 4, vec![0.5, 0.5]);
    }
}
