//! Block interleaving for bursty channels.
//!
//! The dispersal code guarantees reconstruction from any `M` intact
//! cooked packets — a property tuned for *independent* corruption. Real
//! wireless fades arrive in bursts that can wipe out a contiguous run
//! of packets. A block interleaver permutes the transmission order so a
//! time-contiguous burst lands on packets that are spread across the
//! sequence space, restoring the i.i.d.-like loss pattern the
//! negative-binomial planning assumes.
//!
//! The interleaver is a simple `rows × cols` matrix transpose: packets
//! are written row-major and read column-major. Depth (`rows`) should
//! exceed the expected burst length.

/// A block interleaver over packet indices.
///
/// # Example
///
/// ```
/// use mrtweb_erasure::interleave::Interleaver;
///
/// let il = Interleaver::new(12, 3); // 3 rows: bursts of ≤3 are dispersed
/// let order = il.order();
/// // A burst hitting positions 0..3 of the *transmission* touches
/// // packets that are at least `cols` apart in sequence space.
/// assert_eq!(&order[..4], &[0, 4, 8, 1]);
/// assert_eq!(il.restore(&order[..]), (0..12).collect::<Vec<_>>());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Interleaver {
    n: usize,
    rows: usize,
    /// Transmission order: position `t` carries packet `order[t]`.
    order: Vec<usize>,
    /// Inverse permutation: packet `p` travels in slot `inverse[p]`.
    inverse: Vec<usize>,
}

impl Interleaver {
    /// Creates an interleaver for `n` packets with `rows` interleaving
    /// depth (1 = no interleaving). The permutation and its inverse are
    /// computed once here; [`order`](Interleaver::order) and
    /// [`restore`](Interleaver::restore) never allocate them again.
    ///
    /// # Panics
    ///
    /// Panics if `n` or `rows` is zero.
    pub fn new(n: usize, rows: usize) -> Self {
        assert!(n > 0, "packet count must be nonzero");
        assert!(rows > 0, "interleaving depth must be nonzero");
        let rows = rows.min(n);
        let cols = n.div_ceil(rows);
        let mut order = Vec::with_capacity(n);
        for c in 0..cols {
            for r in 0..rows {
                let idx = r * cols + c;
                if idx < n {
                    order.push(idx);
                }
            }
        }
        let mut inverse = vec![0usize; n];
        for (t, &idx) in order.iter().enumerate() {
            inverse[idx] = t;
        }
        Interleaver {
            n,
            rows,
            order,
            inverse,
        }
    }

    /// Number of packets.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` when there is nothing to interleave.
    pub fn is_empty(&self) -> bool {
        false // n > 0 by construction
    }

    /// Interleaving depth.
    pub fn depth(&self) -> usize {
        self.rows
    }

    /// The transmission order: position `t` carries packet
    /// `order()[t]`. Borrowed from the precomputed permutation — no
    /// per-call allocation.
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// Consumes the interleaver, yielding the owned transmission order.
    pub fn into_order(self) -> Vec<usize> {
        self.order
    }

    /// The transmission slot carrying packet `p` (the inverse
    /// permutation of [`order`](Interleaver::order)).
    ///
    /// # Panics
    ///
    /// Panics if `p >= self.len()`.
    pub fn slot_of(&self, p: usize) -> usize {
        self.inverse[p]
    }

    /// Maps a transmission-order sequence of values back to packet
    /// order (the deinterleaver).
    ///
    /// # Panics
    ///
    /// Panics if `transmitted.len() != self.len()`.
    pub fn restore<T: Copy + Default>(&self, transmitted: &[T]) -> Vec<T> {
        let mut out = vec![T::default(); self.n];
        self.restore_into(transmitted, &mut out);
        out
    }

    /// Deinterleaves into a caller-provided buffer, allocating nothing.
    ///
    /// # Panics
    ///
    /// Panics if `transmitted.len() != self.len()` or
    /// `out.len() != self.len()`.
    pub fn restore_into<T: Copy>(&self, transmitted: &[T], out: &mut [T]) {
        assert_eq!(transmitted.len(), self.n, "length mismatch");
        assert_eq!(out.len(), self.n, "output length mismatch");
        for (t, &idx) in self.order.iter().enumerate() {
            out[idx] = transmitted[t];
        }
    }

    /// The minimum sequence-space distance between packets that are
    /// adjacent in transmission order — the burst-resistance figure.
    pub fn adjacent_distance(&self) -> usize {
        self.order
            .windows(2)
            .map(|w| w[0].abs_diff(w[1]))
            .min()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_is_a_permutation() {
        for (n, rows) in [(12, 3), (13, 4), (40, 8), (7, 1), (5, 9)] {
            let il = Interleaver::new(n, rows);
            let mut order = il.order().to_vec();
            assert_eq!(order.len(), n, "n={n}, rows={rows}");
            order.sort_unstable();
            assert_eq!(order, (0..n).collect::<Vec<_>>(), "n={n}, rows={rows}");
        }
    }

    #[test]
    fn depth_one_is_identity() {
        let il = Interleaver::new(10, 1);
        assert_eq!(il.order(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn restore_inverts_order() {
        let il = Interleaver::new(17, 5);
        let transmitted: Vec<usize> = il.order().to_vec();
        assert_eq!(il.restore(&transmitted), (0..17).collect::<Vec<_>>());
        let mut buf = vec![0usize; 17];
        il.restore_into(&transmitted, &mut buf);
        assert_eq!(buf, (0..17).collect::<Vec<_>>());
        for p in 0..17 {
            assert_eq!(il.order()[il.slot_of(p)], p);
        }
    }

    #[test]
    fn bursts_spread_across_sequence_space() {
        let il = Interleaver::new(60, 6);
        let order = il.order();
        // Any 6 consecutive transmission slots carry packets pairwise
        // ≥ 10 apart (cols = 10) except at column seams.
        for w in order.windows(2) {
            let d = w[0].abs_diff(w[1]);
            assert!(d >= 9, "adjacent packets too close: {w:?}");
        }
        assert!(il.adjacent_distance() >= 9);
    }

    #[test]
    fn depth_saturates_at_n() {
        let il = Interleaver::new(4, 100);
        assert_eq!(il.depth(), 4);
        assert_eq!(il.order().len(), 4);
    }

    #[test]
    fn burst_erasure_survivability() {
        // Code (M=40, N=60). Without interleaving, a 20-packet burst at
        // the start kills exactly the first 20 packets; with depth-20
        // interleaving the same burst kills packets spread across the
        // whole range — both leave 40 survivors, but interleaving keeps
        // the *clear-text prefix* partially intact.
        let n = 60usize;
        let burst: Vec<usize> = (0..20).collect();
        let il = Interleaver::new(n, 20);
        let order = il.order();
        let killed_plain: Vec<usize> = burst.clone();
        let killed_interleaved: Vec<usize> = burst.iter().map(|&t| order[t]).collect();
        let clear_killed_plain = killed_plain.iter().filter(|&&p| p < 40).count();
        let clear_killed_il = killed_interleaved.iter().filter(|&&p| p < 40).count();
        assert_eq!(clear_killed_plain, 20, "plain burst wipes the clear prefix");
        assert!(
            clear_killed_il < 16,
            "interleaving should protect some clear text (killed {clear_killed_il})"
        );
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn restore_length_checked() {
        Interleaver::new(5, 2).restore(&[0u8; 4]);
    }
}
