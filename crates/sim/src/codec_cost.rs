//! Measured dispersal cost vs the weak link.
//!
//! The paper's scheme is only viable if the fault-tolerant encoding is
//! cheap relative to the wireless channel: Table 2 budgets the link at
//! 19.2 kbps, so even a modest CPU should keep the coding stage
//! invisible. This module *measures* that claim against the real
//! kernels instead of assuming it: it times the split-table encode and
//! the erasure-pattern decode over a representative payload and
//! expresses the result as a fraction of channel time — the number the
//! simulator (and a capacity planner sizing a multi-user proxy) needs.

// analysis:allow(no-wallclock-in-sim) this module's whole purpose is measuring real codec CPU time; the reading feeds the simulator as an input, it never drives the simulated timeline
use std::time::Instant;

use mrtweb_erasure::ida::{Codec, GroupPackets};
use mrtweb_erasure::par::GroupCodec;
use mrtweb_erasure::redundancy::cooked_packets;

use crate::params::Params;

/// Measured codec throughput for one dispersal geometry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CodecCost {
    /// Raw packets per group.
    pub m: usize,
    /// Cooked packets per group.
    pub n: usize,
    /// Bytes per packet.
    pub packet_size: usize,
    /// Encode throughput in raw-payload bytes per second.
    pub encode_bytes_per_s: f64,
    /// Decode throughput (with `N - M` erasures) in bytes per second.
    pub decode_bytes_per_s: f64,
}

impl CodecCost {
    /// Seconds of CPU needed to encode `bytes` of payload.
    pub fn encode_seconds(&self, bytes: usize) -> f64 {
        bytes as f64 / self.encode_bytes_per_s
    }

    /// Seconds of CPU needed to decode `bytes` of payload under the
    /// worst tolerated loss.
    pub fn decode_seconds(&self, bytes: usize) -> f64 {
        bytes as f64 / self.decode_bytes_per_s
    }

    /// Fraction of end-to-end time spent coding (encode + decode) when
    /// the document travels a link of `bandwidth_kbps`. The paper's
    /// premise is that this is ≈ 0 for weak links.
    pub fn overhead_fraction(&self, bandwidth_kbps: f64) -> f64 {
        let link_bytes_per_s = bandwidth_kbps * 1000.0 / 8.0;
        let t_link = 1.0 / link_bytes_per_s;
        let t_code = 1.0 / self.encode_bytes_per_s + 1.0 / self.decode_bytes_per_s;
        t_code / (t_code + t_link)
    }
}

/// Times encode and decode of `payload_bytes` through the parallel
/// group codec, best of `reps` rounds (first round also warms the
/// decode-inverse cache, as a long-running proxy would be warm).
///
/// # Panics
///
/// Panics if the geometry is invalid for [`Codec::new`].
pub fn measure_codec_cost(
    m: usize,
    n: usize,
    packet_size: usize,
    payload_bytes: usize,
    reps: usize,
) -> CodecCost {
    let codec = Codec::new(m, n, packet_size).expect("valid geometry");
    let gc = GroupCodec::new(codec);
    let payload: Vec<u8> = (0..payload_bytes).map(|i| (i * 131 + 17) as u8).collect();

    let mut best_encode = f64::INFINITY;
    let mut groups = Vec::new();
    for _ in 0..reps.max(1) {
        // analysis:allow(no-wallclock-in-sim) wall-clock timing of the real encode kernel is the measurement itself
        let t = Instant::now();
        groups = gc.encode(&payload);
        best_encode = best_encode.min(t.elapsed().as_secs_f64());
    }

    // Worst tolerated loss: drop the first N - M packets of each group,
    // forcing a full matrix decode (no all-clear shortcut).
    let received: Vec<GroupPackets> = groups
        .iter()
        .map(|g| {
            let survivors: Vec<(usize, Vec<u8>)> =
                g.cooked.iter().cloned().enumerate().skip(n - m).collect();
            (g.index, survivors, g.len)
        })
        .collect();
    let mut best_decode = f64::INFINITY;
    for _ in 0..reps.max(1) {
        // analysis:allow(no-wallclock-in-sim) wall-clock timing of the real decode kernel is the measurement itself
        let t = Instant::now();
        let out = gc.decode(&received).expect("M survivors suffice");
        best_decode = best_decode.min(t.elapsed().as_secs_f64());
        assert_eq!(out.len(), payload.len());
    }

    let bytes = payload_bytes.max(1) as f64;
    CodecCost {
        m,
        n,
        packet_size,
        // Guard against timer quantization on tiny payloads.
        encode_bytes_per_s: bytes / best_encode.max(1e-9),
        decode_bytes_per_s: bytes / best_decode.max(1e-9),
    }
}

/// Measures the cost of the Table 2 geometry from `params` over one
/// document's worth of payload.
pub fn dispersal_cost(params: &Params) -> CodecCost {
    let m = params.doc_size.div_ceil(params.packet_size).clamp(1, 128);
    let n = cooked_packets(m, params.gamma).min(256);
    measure_codec_cost(m, n, params.packet_size, params.doc_size, 3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_throughput_is_positive_and_sane() {
        let cost = measure_codec_cost(8, 12, 256, 8 * 256 * 4, 2);
        assert!(cost.encode_bytes_per_s > 0.0);
        assert!(cost.decode_bytes_per_s > 0.0);
        assert!(cost.encode_seconds(10_000) > 0.0);
        assert!(cost.decode_seconds(10_000) > 0.0);
    }

    #[test]
    fn coding_is_negligible_on_the_paper_link() {
        // Table 2: 19.2 kbps. Even a debug build encodes orders of
        // magnitude faster than the channel drains.
        let cost = dispersal_cost(&Params::default());
        let f = cost.overhead_fraction(19.2);
        assert!(
            f < 0.05,
            "coding overhead fraction {f} should be negligible"
        );
        assert!(f > 0.0);
    }

    #[test]
    fn overhead_grows_with_bandwidth() {
        let cost = measure_codec_cost(8, 12, 256, 8 * 256 * 2, 2);
        let weak = cost.overhead_fraction(19.2);
        let strong = cost.overhead_fraction(100_000.0);
        assert!(strong > weak);
    }
}
