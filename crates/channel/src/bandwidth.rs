//! Transmission-time accounting for a fixed-rate link.

/// A link bandwidth.
///
/// # Example
///
/// ```
/// use mrtweb_channel::bandwidth::Bandwidth;
///
/// let bw = Bandwidth::from_kbps(19.2); // the paper's Table 2 value
/// assert_eq!(bw.bytes_per_second(), 2400.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bandwidth {
    bits_per_second: f64,
}

impl Bandwidth {
    /// Creates a bandwidth from bits per second.
    ///
    /// # Panics
    ///
    /// Panics unless `bits_per_second` is positive and finite.
    pub fn from_bps(bits_per_second: f64) -> Self {
        assert!(
            bits_per_second > 0.0 && bits_per_second.is_finite(),
            "bandwidth must be positive and finite"
        );
        Bandwidth { bits_per_second }
    }

    /// Creates a bandwidth from kilobits per second.
    ///
    /// # Panics
    ///
    /// Panics unless the rate is positive and finite.
    pub fn from_kbps(kbps: f64) -> Self {
        Bandwidth::from_bps(kbps * 1000.0)
    }

    /// Bits per second.
    pub fn bits_per_second(&self) -> f64 {
        self.bits_per_second
    }

    /// Bytes per second.
    pub fn bytes_per_second(&self) -> f64 {
        self.bits_per_second / 8.0
    }

    /// Seconds needed to push `bytes` onto the wire.
    pub fn seconds_for(&self, bytes: usize) -> f64 {
        bytes as f64 / self.bytes_per_second()
    }
}

impl Default for Bandwidth {
    /// The paper's default channel: 19.2 kbps.
    fn default() -> Self {
        Bandwidth::from_kbps(19.2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_packet_time() {
        // 260-byte cooked packet at 19.2 kbps: 260/2400 s ≈ 108.33 ms.
        let bw = Bandwidth::default();
        assert!((bw.seconds_for(260) - 260.0 / 2400.0).abs() < 1e-12);
    }

    #[test]
    fn conversions() {
        let bw = Bandwidth::from_kbps(8.0);
        assert_eq!(bw.bits_per_second(), 8000.0);
        assert_eq!(bw.bytes_per_second(), 1000.0);
        assert_eq!(bw.seconds_for(500), 0.5);
    }

    #[test]
    fn zero_bytes_take_no_time() {
        assert_eq!(Bandwidth::default().seconds_for(0), 0.0);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn zero_bandwidth_panics() {
        let _ = Bandwidth::from_bps(0.0);
    }
}
