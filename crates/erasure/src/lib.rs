//! Fault-tolerant encoding for weakly-connected transmission.
//!
//! This crate implements the encoding layer of the fault-tolerant
//! multi-resolution transmission scheme of Leong, McLeod, Si and Yau
//! (*On Supporting Weakly-Connected Browsing in a Mobile Web
//! Environment*, ICDCS 2000, Section 4.1):
//!
//! * [`gf256`] — arithmetic over the finite field GF(2⁸), the substrate
//!   for all coding operations;
//! * [`matrix`] — dense matrices over GF(2⁸) with Gauss–Jordan inversion
//!   and Vandermonde constructors (the correctness oracle for the fast
//!   paths);
//! * [`cauchy`] — the Cauchy-matrix construction the codec actually
//!   runs on: `O(M·N)` systematic generator setup and a closed-form
//!   `O(M²)` survivor inverse;
//! * [`ida`] — a *systematic* variant of Rabin's Information Dispersal
//!   Algorithm: `M` raw packets are transformed into `N ≥ M` cooked
//!   packets such that **any** `M` intact cooked packets reconstruct the
//!   original data, and the first `M` cooked packets are the raw packets
//!   in clear text;
//! * [`crc`] — CRC-16/CCITT and CRC-32/IEEE checksums used to detect
//!   per-packet corruption;
//! * [`cursor`] — the one bounds-checked byte reader every binary
//!   format parses through (proxy wire, air frames, MRTB, MRTM);
//! * [`packet`] — the wire framing (sequence number + payload + CRC)
//!   whose 4-byte overhead matches the paper's Table 2;
//! * [`redundancy`] — the negative-binomial model used to pick the number
//!   of cooked packets `N` for a target success probability, reproducing
//!   the analysis behind the paper's Figures 2 and 3.
//!
//! # Example
//!
//! ```
//! use mrtweb_erasure::ida::Codec;
//!
//! # fn main() -> Result<(), mrtweb_erasure::Error> {
//! let data = b"a web document travelling over a faulty wireless link".to_vec();
//! let codec = Codec::new(4, 7, 16)?; // M = 4, N = 7, 16-byte packets
//! let cooked = codec.encode(&data);
//!
//! // Lose any N - M = 3 packets; reconstruction still succeeds.
//! let survivors: Vec<_> = cooked
//!     .into_iter()
//!     .enumerate()
//!     .filter(|(i, _)| ![0, 2, 5].contains(i))
//!     .map(|(i, p)| (i, p))
//!     .collect();
//! let restored = codec.decode(&survivors, data.len())?;
//! assert_eq!(restored, data);
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_op_in_unsafe_fn)]

pub mod cauchy;
pub mod crc;
pub mod cursor;
pub mod gf256;
pub mod ida;
pub mod interleave;
pub mod matrix;
pub mod packet;
pub mod par;
pub mod redundancy;

mod error;

pub use error::Error;
