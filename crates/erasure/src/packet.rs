//! Wire framing for cooked packets.
//!
//! Each cooked packet travels as a *frame*: a 2-byte big-endian sequence
//! number, the fixed-size payload, and a 2-byte CRC-16/CCITT covering
//! both. The 4 bytes of overhead match the `O` parameter in the paper's
//! Table 2 ("CRC + sequence number"), so a 256-byte raw packet becomes a
//! 260-byte frame on the wire.
//!
//! The wireless channel is FIFO but unreliable: frames arrive in order,
//! possibly corrupted. A receiver detects corruption via the CRC and
//! detects *missing* frames from gaps in the sequence numbers of later
//! frames — exactly the datalink-layer discipline the paper assumes.

use crate::crc::crc16;
use crate::Error;

/// Per-frame overhead in bytes (sequence number + CRC), the paper's `O`.
pub const FRAME_OVERHEAD: usize = 4;

/// Where a frame's payload starts: after the 2-byte sequence number.
pub const PAYLOAD_OFFSET: usize = 2;

/// Frames the payload already in `slot`: writes cooked packet
/// `sequence`'s number into the first [`PAYLOAD_OFFSET`] bytes and the
/// CRC-16 of everything before the last two bytes into those, so `slot`
/// reads `seq (2B BE) | payload | crc16 (2B BE)`. The one frame writer:
/// [`Frame::to_wire`] and the frame slots of
/// [`Codec::encode_frames`](crate::ida::Codec::encode_frames) both go
/// through it. A slot shorter than [`FRAME_OVERHEAD`] holds no frame and
/// is left as it is.
pub fn seal_frame(sequence: u16, slot: &mut [u8]) {
    let Some((body, crc)) = slot.split_last_chunk_mut() else {
        return;
    };
    let Some((seq, _)) = body.split_first_chunk_mut() else {
        return;
    };
    *seq = sequence.to_be_bytes();
    *crc = crc16(body).to_be_bytes();
}

/// A framed cooked packet.
///
/// # Example
///
/// ```
/// use mrtweb_erasure::packet::Frame;
///
/// # fn main() -> Result<(), mrtweb_erasure::Error> {
/// let frame = Frame::new(7, vec![1, 2, 3, 4]);
/// let wire = frame.to_wire();
/// assert_eq!(wire.len(), 4 + 4);
/// let back = Frame::from_wire(&wire, 4)?;
/// assert_eq!(back.sequence(), 7);
/// assert_eq!(back.payload(), &[1, 2, 3, 4]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    sequence: u16,
    payload: Vec<u8>,
}

impl Frame {
    /// Creates a frame carrying `payload` as cooked packet `sequence`.
    pub fn new(sequence: u16, payload: Vec<u8>) -> Self {
        Frame { sequence, payload }
    }

    /// The cooked packet index this frame carries.
    pub fn sequence(&self) -> u16 {
        self.sequence
    }

    /// The cooked payload bytes.
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// Consumes the frame, returning the payload.
    pub fn into_payload(self) -> Vec<u8> {
        self.payload
    }

    /// Serializes the frame: `seq (2B BE) | payload | crc16 (2B BE)`
    /// ([`seal_frame`]).
    pub fn to_wire(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.payload.len().saturating_add(FRAME_OVERHEAD));
        buf.extend_from_slice(&[0; PAYLOAD_OFFSET]);
        buf.extend_from_slice(&self.payload);
        buf.extend_from_slice(&[0; FRAME_OVERHEAD - PAYLOAD_OFFSET]);
        seal_frame(self.sequence, &mut buf);
        buf
    }

    /// Parses and verifies a frame with the given payload length.
    ///
    /// # Errors
    ///
    /// [`Error::MalformedFrame`] if the buffer length is wrong or the CRC
    /// does not match (i.e. the frame was corrupted in transit).
    pub fn from_wire(wire: &[u8], payload_len: usize) -> Result<Self, Error> {
        let (sequence, payload) = check_frame(wire, payload_len)?;
        Ok(Frame {
            sequence,
            payload: payload.to_vec(),
        })
    }
}

/// Checks a frame in place: the sequence number and the payload,
/// borrowed from `wire`, of a frame whose length and CRC-16 check out.
/// A receiver copies the payload straight to where it keeps packets;
/// [`Frame::from_wire`] is this check plus a copy.
///
/// # Errors
///
/// [`Error::MalformedFrame`] if the buffer length is wrong or the CRC
/// does not match (i.e. the frame was corrupted in transit).
pub fn check_frame(wire: &[u8], payload_len: usize) -> Result<(u16, &[u8]), Error> {
    let wrong_length = || Error::MalformedFrame("wrong frame length");
    let (body, stored) = wire.split_last_chunk().ok_or_else(wrong_length)?;
    let (sequence, payload) = body.split_first_chunk().ok_or_else(wrong_length)?;
    if payload.len() != payload_len {
        return Err(wrong_length());
    }
    if crc16(body) != u16::from_be_bytes(*stored) {
        return Err(Error::MalformedFrame("CRC mismatch"));
    }
    Ok((u16::from_be_bytes(*sequence), payload))
}

/// Tracks sequence numbers on the receive path to detect missing frames.
///
/// Because the channel is FIFO, a frame arriving with sequence `s` proves
/// that every unseen sequence below `s` was lost (or corrupted beyond
/// recognition). The detector reports those gaps.
///
/// # Example
///
/// ```
/// use mrtweb_erasure::packet::GapDetector;
///
/// let mut d = GapDetector::new();
/// assert!(d.observe(0).is_empty());
/// assert_eq!(d.observe(3), vec![1, 2]); // frames 1 and 2 never arrived
/// ```
#[derive(Debug, Clone, Default)]
pub struct GapDetector {
    next_expected: u16,
}

impl GapDetector {
    /// Creates a detector expecting sequence 0 first.
    pub fn new() -> Self {
        GapDetector { next_expected: 0 }
    }

    /// Records an arriving sequence number; returns sequences now known
    /// to be missing. Out-of-order (old) sequences return an empty list.
    pub fn observe(&mut self, sequence: u16) -> Vec<u16> {
        if sequence < self.next_expected {
            return Vec::new();
        }
        let missing: Vec<u16> = (self.next_expected..sequence).collect();
        self.next_expected = sequence + 1;
        missing
    }

    /// The next sequence number the detector expects.
    pub fn next_expected(&self) -> u16 {
        self.next_expected
    }

    /// After the sender has finished at `total` frames, returns the tail
    /// of sequences that never arrived.
    pub fn finish(&self, total: u16) -> Vec<u16> {
        (self.next_expected..total).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_round_trip() {
        let f = Frame::new(0xBEEF, (0..32).collect());
        let wire = f.to_wire();
        assert_eq!(wire.len(), 36);
        assert_eq!(Frame::from_wire(&wire, 32).unwrap(), f);
        assert_eq!(check_frame(&wire, 32).unwrap(), (0xBEEF, f.payload()));
    }

    #[test]
    fn corruption_is_detected() {
        let f = Frame::new(5, vec![9; 16]);
        let wire = f.to_wire();
        for i in 0..wire.len() {
            let mut bad = wire.clone();
            bad[i] ^= 0x40;
            assert!(
                Frame::from_wire(&bad, 16).is_err(),
                "flip at byte {i} went undetected"
            );
            assert!(check_frame(&bad, 16).is_err());
        }
    }

    #[test]
    fn wrong_length_rejected() {
        let f = Frame::new(1, vec![0; 8]);
        let wire = f.to_wire();
        assert!(Frame::from_wire(&wire, 7).is_err());
        assert!(Frame::from_wire(&wire[..10], 8).is_err());
    }

    #[test]
    fn empty_payload_frame() {
        let f = Frame::new(0, Vec::new());
        let wire = f.to_wire();
        assert_eq!(wire.len(), FRAME_OVERHEAD);
        assert_eq!(Frame::from_wire(&wire, 0).unwrap(), f);
    }

    #[test]
    fn paper_frame_size() {
        // 256-byte raw packet -> 260 bytes on the wire (Table 2).
        let f = Frame::new(0, vec![0xAA; 256]);
        assert_eq!(f.to_wire().len(), 260);
    }

    #[test]
    fn gap_detector_sequences() {
        let mut d = GapDetector::new();
        assert!(d.observe(0).is_empty());
        assert!(d.observe(1).is_empty());
        assert_eq!(d.observe(4), vec![2, 3]);
        assert!(d.observe(2).is_empty()); // stale
        assert_eq!(d.next_expected(), 5);
        assert_eq!(d.finish(8), vec![5, 6, 7]);
        assert!(d.finish(5).is_empty());
    }

    #[test]
    fn gap_detector_first_frame_lost() {
        let mut d = GapDetector::new();
        assert_eq!(d.observe(2), vec![0, 1]);
    }
}
