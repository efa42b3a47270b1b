//! The paper's Table 2: default experimental parameter settings.

use mrtweb_erasure::redundancy::cooked_packets;
use mrtweb_transport::session::CacheMode;

/// Default experimental parameters (Table 2).
///
/// | Parameter | Description                              | Value |
/// |-----------|------------------------------------------|-------|
/// | `s_p`     | Raw size per packet                      | 256   |
/// | `s_D`     | Size per document                        | 10240 |
/// | `O`       | Overhead (CRC + sequence number)         | 4     |
/// | `M`       | Number of raw packets                    | 40    |
/// | `N`       | Number of cooked packets                 | 60    |
/// | `B`       | Bandwidth (kbps)                         | 19.2  |
/// | `δ`       | Skew factor in information content       | 3     |
/// | `I`       | Irrelevant documents                     | 50%   |
/// | `F`       | Info content to determine relevance      | 0.5   |
/// | `α`       | Probability of a corrupted packet        | 0.1   |
/// | `γ`       | Redundancy ratio `N/M`                   | 1.5   |
///
/// Document shape: 5 sections × 2 subsections × 2 paragraphs; browsing
/// sessions visit 200 random documents; every experiment is repeated 50
/// times.
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    /// Raw bytes per packet (`s_p`).
    pub packet_size: usize,
    /// Document size in bytes (`s_D`).
    pub doc_size: usize,
    /// Per-packet overhead in bytes (`O`).
    pub overhead: usize,
    /// Channel bandwidth in kbps (`B`).
    pub bandwidth_kbps: f64,
    /// Skew factor (`δ`).
    pub skew: f64,
    /// Fraction of irrelevant documents (`I`).
    pub irrelevant_fraction: f64,
    /// Content threshold to judge relevance (`F`).
    pub threshold: f64,
    /// Per-packet corruption probability (`α`).
    pub alpha: f64,
    /// Redundancy ratio (`γ`).
    pub gamma: f64,
    /// Sections per document.
    pub sections: usize,
    /// Subsections per section.
    pub subsections: usize,
    /// Paragraphs per subsection.
    pub paragraphs: usize,
    /// Documents visited per browsing session.
    pub docs_per_session: usize,
    /// Experiment repetitions.
    pub repetitions: usize,
    /// Client cache behaviour on stalls.
    pub cache_mode: CacheMode,
    /// Retry budget per document (rounds) — the paper lets stalls
    /// retransmit indefinitely; a finite cap keeps hopeless
    /// NoCaching/high-α cells bounded (their times are far off-chart
    /// either way).
    pub max_rounds: usize,
    /// Block-interleaving depth for the first round (extension;
    /// 1 = off, the paper's behaviour).
    pub interleave_depth: usize,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            packet_size: 256,
            doc_size: 10240,
            overhead: 4,
            bandwidth_kbps: 19.2,
            skew: 3.0,
            irrelevant_fraction: 0.5,
            threshold: 0.5,
            alpha: 0.1,
            gamma: 1.5,
            sections: 5,
            subsections: 2,
            paragraphs: 2,
            docs_per_session: 200,
            repetitions: 50,
            cache_mode: CacheMode::NoCaching,
            max_rounds: 200,
            interleave_depth: 1,
        }
    }
}

impl Params {
    /// Raw packets per document: `M = ⌈s_D / s_p⌉`.
    pub fn raw_packets(&self) -> usize {
        self.doc_size.div_ceil(self.packet_size)
    }

    /// Cooked packets per document: `N = round(γ·M)`, at least `M`.
    pub fn cooked_packets(&self) -> usize {
        cooked_packets(self.raw_packets(), self.gamma)
    }

    /// Paragraphs per document.
    pub fn paragraphs_per_doc(&self) -> usize {
        self.sections * self.subsections * self.paragraphs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table2() {
        let p = Params::default();
        assert_eq!(p.packet_size, 256);
        assert_eq!(p.doc_size, 10240);
        assert_eq!(p.overhead, 4);
        assert_eq!(p.raw_packets(), 40);
        assert_eq!(p.cooked_packets(), 60);
        assert_eq!(p.bandwidth_kbps, 19.2);
        assert_eq!(p.skew, 3.0);
        assert_eq!(p.irrelevant_fraction, 0.5);
        assert_eq!(p.threshold, 0.5);
        assert_eq!(p.alpha, 0.1);
        assert_eq!(p.gamma, 1.5);
        assert_eq!(p.paragraphs_per_doc(), 20);
        assert_eq!(p.docs_per_session, 200);
        assert_eq!(p.repetitions, 50);
    }

    #[test]
    fn cooked_packet_size_matches_paper() {
        let p = Params::default();
        // "Raw packets are transformed into cooked packets, each has a
        // size of 260 bytes."
        assert_eq!(p.packet_size + p.overhead, 260);
    }
}
