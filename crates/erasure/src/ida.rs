//! Systematic information dispersal (Rabin IDA on a Cauchy layout).
//!
//! Rabin's Information Dispersal Algorithm splits a file into `M` *raw*
//! packets and disperses them into `N ≥ M` *cooked* packets such that any
//! `M` cooked packets reconstruct the file. The paper uses a systematic
//! dispersal matrix so that the first `M` cooked packets are the raw
//! packets verbatim ("clear text"): a mobile client can render the
//! leading portion of a document the moment those packets arrive,
//! without waiting for `M` packets to invert a matrix.
//!
//! The generator is built by the [`cauchy`] module:
//! identity rows over a Cauchy parity block, written down directly in
//! `O(M·N)` (no Gauss–Jordan elimination), with survivor inverses from
//! the closed-form Cauchy formula in `O(M²)`. [`Codec`] is configured
//! once per `(M, N, packet size)` triple and reused across documents.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use mrtweb_obs::{emit, EventKind, Span};

use crate::cauchy;
use crate::gf256::{mul_acc, mul_row, Gf256};
use crate::matrix::Matrix;
use crate::packet::{seal_frame, FRAME_OVERHEAD, PAYLOAD_OFFSET};
use crate::Error;

/// Decode inverses retained per codec before the cache is reset.
///
/// A survivor set keys one entry; real sessions see few distinct loss
/// patterns per document, so a few hundred entries make the cache
/// effectively unbounded in practice while capping worst-case memory at
/// `512 · M²` bytes.
const INVERSE_CACHE_CAP: usize = 512;

/// Distinct `(M, N)` shapes retained in the process-wide substrate
/// registry before it is reset. A gateway serves a handful of shapes
/// (one per document-size class), so this is effectively unbounded;
/// the cap only defends against a peer cycling packet sizes to pin
/// `O(cap · N·M)` matrix memory.
const SHARED_SUBSTRATE_CAP: usize = 64;

/// The expensive, parameter-determined part of a codec: the systematic
/// generator and the survivor-keyed decode-inverse cache. Everything in
/// here depends only on `(M, N)`, so every session with the same shape
/// can share one copy.
#[derive(Debug, Clone)]
struct Substrate {
    generator: Arc<Matrix>,
    inverse_cache: Arc<Mutex<HashMap<Vec<u8>, Arc<Matrix>>>>,
}

fn substrate_registry() -> &'static Mutex<HashMap<(usize, usize), Substrate>> {
    static REGISTRY: OnceLock<Mutex<HashMap<(usize, usize), Substrate>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Decode-inverse cache hits across every codec in the process.
static INVERSE_HITS: AtomicU64 = AtomicU64::new(0);
/// Decode-inverse cache misses across every codec in the process.
static INVERSE_MISSES: AtomicU64 = AtomicU64::new(0);

/// Process-wide decode-inverse cache traffic as `(hits, misses)`.
///
/// Counts every [`Codec`] in the process, shared or private. A hit
/// recorded by one session against an inverse another session paid for
/// is exactly the cross-session reuse the shared substrate exists to
/// provide; the proxy mirrors these into its stats snapshot.
pub fn inverse_cache_counters() -> (u64, u64) {
    (
        // ORDERING: monitoring counters — each is independently coherent
        // and a torn (hits, misses) pair only skews one stats snapshot.
        INVERSE_HITS.load(Ordering::Relaxed),
        INVERSE_MISSES.load(Ordering::Relaxed),
    )
}

/// A configured `(M, N)` information-dispersal codec.
///
/// # Example
///
/// ```
/// use mrtweb_erasure::ida::Codec;
///
/// # fn main() -> Result<(), mrtweb_erasure::Error> {
/// let codec = Codec::new(3, 5, 8)?;
/// let data = b"hello weak connection!".to_vec();
/// let cooked = codec.encode(&data);
/// assert_eq!(cooked.len(), 5);
/// // First M cooked packets are the raw data in clear text:
/// assert_eq!(&cooked[0][..8], &data[..8]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Codec {
    raw: usize,
    cooked: usize,
    packet_size: usize,
    generator: Arc<Matrix>,
    /// Decode inverses keyed by the surviving cooked-index set. Shared
    /// across clones (and therefore across worker threads in the `par`
    /// layer) so every thread benefits from every inversion. Codecs
    /// built by [`Codec::shared`] additionally share this cache with
    /// every other shared codec of the same `(M, N)` shape.
    inverse_cache: Arc<Mutex<HashMap<Vec<u8>, Arc<Matrix>>>>,
}

impl Codec {
    /// Creates a codec for `raw` (`M`) input packets, `cooked` (`N`)
    /// output packets of `packet_size` bytes each.
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidParameters`] unless `1 ≤ raw ≤ cooked ≤ 256`.
    /// * [`Error::ZeroPacketSize`] if `packet_size` is zero.
    pub fn new(raw: usize, cooked: usize, packet_size: usize) -> Result<Self, Error> {
        if raw == 0 || cooked < raw || cooked > 256 {
            return Err(Error::InvalidParameters { raw, cooked });
        }
        if packet_size == 0 {
            return Err(Error::ZeroPacketSize);
        }
        let generator = Arc::new(cauchy::systematic_generator(raw, cooked)?);
        debug_assert!(generator.is_systematic());
        Ok(Codec {
            raw,
            cooked,
            packet_size,
            generator,
            inverse_cache: Arc::new(Mutex::new(HashMap::new())),
        })
    }

    /// Like [`Codec::new`], but backed by the process-wide substrate
    /// registry: the systematic generator is computed once per `(M, N)`
    /// shape, and the decode-inverse cache is one shared, bounded map
    /// across every session using that shape.
    ///
    /// This is the constructor for concurrent servers and clients — the
    /// `O(N·M)` generator construction and each `O(M²)` closed-form
    /// decode inversion are paid once per process instead of once per
    /// session. [`Codec::new`] remains fully private and uncached so
    /// benchmarks measuring setup cost stay honest.
    ///
    /// # Errors
    ///
    /// Same as [`Codec::new`].
    pub fn shared(raw: usize, cooked: usize, packet_size: usize) -> Result<Self, Error> {
        if raw == 0 || cooked < raw || cooked > 256 {
            return Err(Error::InvalidParameters { raw, cooked });
        }
        if packet_size == 0 {
            return Err(Error::ZeroPacketSize);
        }
        let mut registry = substrate_registry()
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(sub) = registry.get(&(raw, cooked)) {
            let sub = sub.clone();
            drop(registry);
            return Ok(Codec {
                raw,
                cooked,
                packet_size,
                generator: sub.generator,
                inverse_cache: sub.inverse_cache,
            });
        }
        // First session with this shape pays for the construction — now
        // O(N·M) table lookups, so holding the lock across it is cheap;
        // it still prevents concurrent first-comers duplicating the work.
        let generator = Arc::new(cauchy::systematic_generator(raw, cooked)?);
        debug_assert!(generator.is_systematic());
        let sub = Substrate {
            generator: Arc::clone(&generator),
            inverse_cache: Arc::new(Mutex::new(HashMap::new())),
        };
        if registry.len() >= SHARED_SUBSTRATE_CAP {
            registry.clear();
        }
        registry.insert((raw, cooked), sub.clone());
        drop(registry);
        Ok(Codec {
            raw,
            cooked,
            packet_size,
            generator: sub.generator,
            inverse_cache: sub.inverse_cache,
        })
    }

    /// Number of raw packets `M`.
    pub fn raw_packets(&self) -> usize {
        self.raw
    }

    /// Number of cooked packets `N`.
    pub fn cooked_packets(&self) -> usize {
        self.cooked
    }

    /// Payload size of each packet in bytes.
    pub fn packet_size(&self) -> usize {
        self.packet_size
    }

    /// Redundancy ratio `γ = N / M`.
    pub fn redundancy_ratio(&self) -> f64 {
        self.cooked as f64 / self.raw as f64
    }

    /// Maximum number of data bytes one encode call can carry.
    pub fn capacity(&self) -> usize {
        self.raw * self.packet_size
    }

    /// Splits `data` into `M` zero-padded raw packets.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() > self.capacity()`; use [`Codec::capacity`]
    /// (or a chunking layer) to size inputs.
    pub fn split(&self, data: &[u8]) -> Vec<Vec<u8>> {
        assert!(
            data.len() <= self.capacity(),
            "data ({} bytes) exceeds codec capacity ({} bytes)",
            data.len(),
            self.capacity()
        );
        (0..self.raw)
            .map(|i| {
                let start = (i * self.packet_size).min(data.len());
                let end = ((i + 1) * self.packet_size).min(data.len());
                let mut p = data[start..end].to_vec();
                p.resize(self.packet_size, 0);
                p
            })
            .collect()
    }

    /// Encodes `data` into `N` cooked packets.
    ///
    /// The first `M` packets equal the (padded) raw packets; the trailing
    /// `N − M` packets carry redundancy. Cooked packet `i` is
    /// `Σ_j G[i][j] · raw_j` over GF(2⁸).
    ///
    /// # Panics
    ///
    /// Panics if `data.len() > self.capacity()`.
    pub fn encode(&self, data: &[u8]) -> Vec<Vec<u8>> {
        self.encode_packets(self.split(data))
    }

    /// Encodes pre-split raw packets (each exactly `packet_size` bytes).
    ///
    /// Takes the raw packets by value: the clear-text prefix of the
    /// output *is* the input, moved rather than copied, so encoding
    /// touches only the `N − M` redundancy packets.
    ///
    /// # Panics
    ///
    /// Panics if the number or size of raw packets does not match the
    /// codec configuration.
    pub fn encode_packets(&self, raws: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
        assert_eq!(raws.len(), self.raw, "expected {} raw packets", self.raw);
        for (i, r) in raws.iter().enumerate() {
            assert_eq!(r.len(), self.packet_size, "raw packet {i} has wrong size");
        }
        let span = Span::start(EventKind::EncodeSpan);
        let mut out = raws;
        out.reserve_exact(self.cooked - self.raw);
        for i in self.raw..self.cooked {
            let mut p = vec![0u8; self.packet_size];
            self.fill_redundancy_row(&out[..self.raw], i, &mut p);
            out.push(p);
        }
        span.end(self.cooked as u64);
        out
    }

    /// Encodes `data` into a caller-owned flat buffer of `N` consecutive
    /// `packet_size`-byte rows (cooked packet `i` at `i · packet_size`).
    ///
    /// This is the zero-allocation encode path: `out` is resized once on
    /// first use and reused verbatim on subsequent calls, so a server
    /// encoding a stream of documents performs no allocation at all
    /// after warm-up. The clear-text prefix is written directly from
    /// `data` (no intermediate split), and redundancy rows are built
    /// with overwriting [`mul_row`] first terms — no zero-fill pass.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() > self.capacity()`.
    pub fn encode_into(&self, data: &[u8], out: &mut Vec<u8>) {
        out.resize(self.cooked * self.packet_size, 0);
        self.encode_strided(data, out, self.packet_size, 0);
    }

    /// Encodes `data` straight into `N` wire frames: `out` becomes `N`
    /// slots of `packet_size + FRAME_OVERHEAD` bytes, slot `i` holding
    /// exactly the bytes of `Frame::new(i, cooked packet i).to_wire()`.
    ///
    /// A server framing a cooked document this way makes one allocation
    /// (none when `out` is reused) and writes each packet once: the
    /// encode fills each slot's payload in place and [`seal_frame`]
    /// writes the sequence number and CRC-16 around it.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() > self.capacity()`.
    pub fn encode_frames(&self, data: &[u8], out: &mut Vec<u8>) {
        let stride = self.packet_size + FRAME_OVERHEAD;
        out.resize(self.cooked * stride, 0);
        self.encode_strided(data, out, stride, PAYLOAD_OFFSET);
        for (i, slot) in out.chunks_exact_mut(stride).enumerate() {
            seal_frame(i as u16, slot);
        }
    }

    /// The one encode core: writes cooked packet `i` to
    /// `out[i·stride + offset..][..packet_size]`, leaving the bytes
    /// between rows as they are. `out` must hold `N` rows at `stride`.
    fn encode_strided(&self, data: &[u8], out: &mut [u8], stride: usize, offset: usize) {
        assert!(
            data.len() <= self.capacity(),
            "data ({} bytes) exceeds codec capacity ({} bytes)",
            data.len(),
            self.capacity()
        );
        let span = Span::start(EventKind::EncodeSpan);
        let ps = self.packet_size;
        let (clear, redundancy) = out.split_at_mut(self.raw * stride);
        let mut rest = data;
        for slot in clear.chunks_exact_mut(stride) {
            let (head, pad) = slot[offset..offset + ps].split_at_mut(rest.len().min(ps));
            let (taken, left) = rest.split_at(head.len());
            head.copy_from_slice(taken);
            pad.fill(0);
            rest = left;
        }
        let raw = |j: usize| &clear[j * stride + offset..][..ps];
        for (i, slot) in (self.raw..).zip(redundancy.chunks_exact_mut(stride)) {
            let row = &mut slot[offset..offset + ps];
            mul_row(row, raw(0), self.generator.get(i, 0));
            for j in 1..self.raw {
                mul_acc(row, raw(j), self.generator.get(i, j));
            }
        }
        span.end(self.cooked as u64);
    }

    /// Computes redundancy row `index` (`M ≤ index < N`) from the raw
    /// packets into `row`, overwriting it.
    ///
    /// Exposed to the [`par`](crate::par) layer, which fans disjoint
    /// redundancy rows out across threads.
    ///
    /// # Panics
    ///
    /// Panics if `index` is a clear-text row, the raw packet count is
    /// wrong, or `row` is not `packet_size` bytes.
    pub(crate) fn fill_redundancy_row<S: AsRef<[u8]>>(
        &self,
        raws: &[S],
        index: usize,
        row: &mut [u8],
    ) {
        debug_assert!(index >= self.raw && index < self.cooked);
        mul_row(row, raws[0].as_ref(), self.generator.get(index, 0));
        for (j, r) in raws.iter().enumerate().skip(1) {
            mul_acc(row, r.as_ref(), self.generator.get(index, j));
        }
    }

    /// Encodes only the single cooked packet with index `index`.
    ///
    /// Useful for selective retransmission, where the server regenerates
    /// exactly the packets a client is missing.
    ///
    /// # Panics
    ///
    /// Panics if `index ≥ N` or the raw packets do not match the
    /// configuration.
    pub fn encode_one(&self, raws: &[Vec<u8>], index: usize) -> Vec<u8> {
        let mut p = vec![0u8; self.packet_size];
        self.encode_one_into(raws, index, &mut p);
        p
    }

    /// Like [`Codec::encode_one`], writing into a caller-owned buffer.
    ///
    /// # Panics
    ///
    /// Panics if `index ≥ N`, the raw packets do not match the
    /// configuration, or `out` is not `packet_size` bytes.
    pub fn encode_one_into(&self, raws: &[Vec<u8>], index: usize, out: &mut [u8]) {
        assert!(index < self.cooked, "cooked index {index} out of range");
        assert_eq!(raws.len(), self.raw, "expected {} raw packets", self.raw);
        if index < self.raw {
            out.copy_from_slice(&raws[index]);
            return;
        }
        self.fill_redundancy_row(raws, index, out);
    }

    /// Reconstructs the original `len` bytes from any `M` intact cooked
    /// packets, supplied as `(cooked index, payload)` pairs. Payloads
    /// may be owned (`Vec<u8>`) or borrowed (`&[u8]`), so a receiver
    /// that keeps its packets in one buffer decodes from slices of it.
    ///
    /// Extra packets beyond `M` are ignored (the first `M` distinct
    /// indices are used). If the supplied packets happen to be exactly
    /// the clear-text prefix, no matrix inversion is performed. With
    /// the survivor set's inverse cached, the output is the only
    /// allocation.
    ///
    /// # Errors
    ///
    /// * [`Error::NotEnoughPackets`] if fewer than `M` distinct indices
    ///   are supplied.
    /// * [`Error::BadPacketIndex`] for an index `≥ N`.
    /// * [`Error::BadPacketLength`] if a payload is not `packet_size`
    ///   bytes.
    /// * [`Error::LengthOverflow`] if `len > capacity()`.
    pub fn decode<P: AsRef<[u8]>>(
        &self,
        packets: &[(usize, P)],
        len: usize,
    ) -> Result<Vec<u8>, Error> {
        self.decode_impl(packets, len, true)
    }

    /// [`Codec::decode`] with the inverse cache bypassed: the recovery
    /// matrix is inverted fresh on every call.
    ///
    /// Exists so tests can prove cached and fresh decodes agree; it is
    /// never faster than [`Codec::decode`].
    ///
    /// # Errors
    ///
    /// Same as [`Codec::decode`].
    pub fn decode_uncached<P: AsRef<[u8]>>(
        &self,
        packets: &[(usize, P)],
        len: usize,
    ) -> Result<Vec<u8>, Error> {
        self.decode_impl(packets, len, false)
    }

    fn decode_impl<P: AsRef<[u8]>>(
        &self,
        packets: &[(usize, P)],
        len: usize,
        use_cache: bool,
    ) -> Result<Vec<u8>, Error> {
        let span = Span::start(EventKind::DecodeSpan);
        let out = self.decode_inner(packets, len, use_cache);
        span.end(self.raw as u64);
        out
    }

    fn decode_inner<P: AsRef<[u8]>>(
        &self,
        packets: &[(usize, P)],
        len: usize,
        use_cache: bool,
    ) -> Result<Vec<u8>, Error> {
        if len > self.capacity() {
            return Err(Error::LengthOverflow {
                requested: len,
                capacity: self.capacity(),
            });
        }
        // Deduplicate, validate, and take the first M distinct indices:
        // survivor `k` is cooked packet `key[k]`, at `packets[at[k]]`.
        // N ≤ 256, so every index fits a byte and the survivor set is
        // its own inverse-cache key.
        let (mut key, mut at, mut seen) = ([0u8; 256], [0usize; 256], [false; 256]);
        let mut chosen = 0;
        for (pos, (idx, payload)) in packets.iter().enumerate() {
            let (idx, payload) = (*idx, payload.as_ref());
            if idx >= self.cooked {
                return Err(Error::BadPacketIndex(idx));
            }
            if payload.len() != self.packet_size {
                return Err(Error::BadPacketLength {
                    got: payload.len(),
                    want: self.packet_size,
                });
            }
            if seen[idx] {
                continue;
            }
            seen[idx] = true;
            (key[chosen], at[chosen]) = (idx as u8, pos);
            chosen += 1;
            if chosen == self.raw {
                break;
            }
        }
        if chosen < self.raw {
            return Err(Error::NotEnoughPackets {
                have: chosen,
                need: self.raw,
            });
        }
        let (key, at) = (&key[..chosen], &at[..chosen]);
        let survivor = |k: usize| packets[at[k]].1.as_ref();

        // Raw packet r occupies output bytes [r·ps, (r+1)·ps), truncated
        // to `len`, so rows are reconstructed directly into the result —
        // no intermediate per-packet buffers, and rows entirely past
        // `len` are never computed.
        let ps = self.packet_size;
        let mut out = vec![0u8; len];
        if key.iter().all(|&i| usize::from(i) < self.raw) {
            for (k, &i) in key.iter().enumerate() {
                let start = usize::from(i) * ps;
                if start >= len {
                    continue;
                }
                let end = (start + ps).min(len);
                out[start..end].copy_from_slice(&survivor(k)[..end - start]);
            }
        } else {
            let inv = if use_cache {
                self.inverse_for(key)?
            } else {
                Arc::new(cauchy::decode_inverse(self.raw, self.cooked, &widen(key))?)
            };
            for r in 0..self.raw {
                let start = r * ps;
                if start >= len {
                    break;
                }
                let end = (start + ps).min(len);
                let row = &mut out[start..end];
                mul_row(row, &survivor(0)[..end - start], inv.get(r, 0));
                for k in 1..self.raw {
                    mul_acc(row, &survivor(k)[..end - start], inv.get(r, k));
                }
            }
        }
        Ok(out)
    }

    /// Returns the decode inverse for the survivor set `key` (cooked
    /// indices, one byte each), from the cache when present.
    ///
    /// Weakly-connected sessions revisit the same few loss patterns
    /// (burst losses hit the same interleave positions), so even the
    /// closed-form `O(M²)` Cauchy inversion is paid once per pattern
    /// instead of once per document; the cache also keeps small-packet
    /// warm decodes allocation-free.
    fn inverse_for(&self, key: &[u8]) -> Result<Arc<Matrix>, Error> {
        let cache = self
            .inverse_cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(inv) = cache.get(key) {
            // ORDERING: pure tallies — nothing is published through
            // them; RMW atomicity alone keeps the totals exact.
            INVERSE_HITS.fetch_add(1, Ordering::Relaxed);
            emit(EventKind::CacheHit, self.raw as u64, cache.len() as u64);
            return Ok(Arc::clone(inv));
        }
        // ORDERING: same monitoring tally as the hit counter above.
        INVERSE_MISSES.fetch_add(1, Ordering::Relaxed);
        emit(EventKind::CacheMiss, self.raw as u64, cache.len() as u64);
        drop(cache); // do not hold the lock across the inversion
        let inv = Arc::new(cauchy::decode_inverse(self.raw, self.cooked, &widen(key))?);
        let mut cache = self
            .inverse_cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if cache.len() >= INVERSE_CACHE_CAP {
            cache.clear();
        }
        cache.insert(key.to_vec(), Arc::clone(&inv));
        Ok(inv)
    }

    /// Returns the generator row for cooked packet `index` — the GF(2⁸)
    /// coefficients combining the raw packets.
    ///
    /// # Panics
    ///
    /// Panics if `index ≥ N`.
    pub fn coefficients(&self, index: usize) -> &[Gf256] {
        self.generator.row(index)
    }
}

/// Survivor indices as the Cauchy inversion takes them.
fn widen(key: &[u8]) -> Vec<usize> {
    key.iter().map(|&i| usize::from(i)).collect()
}

/// Encodes data of arbitrary length by chunking into consecutive
/// [`Codec`]-sized groups.
///
/// GF(2⁸) limits a single dispersal group to 256 cooked packets; real
/// documents larger than `M × packet_size` are simply encoded as a
/// sequence of groups, each independently recoverable. This mirrors how
/// the paper's transmitter would page a large document through the
/// dispersal stage.
#[derive(Debug, Clone)]
pub struct ChunkedCodec {
    codec: Codec,
}

/// Received packets of one group: `(group index, (cooked index, payload) pairs, group byte length)`.
pub type GroupPackets = (usize, Vec<(usize, Vec<u8>)>, usize);

/// One encoded group produced by [`ChunkedCodec::encode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Group {
    /// Index of this group within the document.
    pub index: usize,
    /// Number of document bytes carried by this group (≤ capacity).
    pub len: usize,
    /// The `N` cooked payloads.
    pub cooked: Vec<Vec<u8>>,
}

impl ChunkedCodec {
    /// Wraps a [`Codec`] for multi-group use.
    pub fn new(codec: Codec) -> Self {
        ChunkedCodec { codec }
    }

    /// Access to the underlying per-group codec.
    pub fn codec(&self) -> &Codec {
        &self.codec
    }

    /// Encodes `data` into consecutive groups.
    pub fn encode(&self, data: &[u8]) -> Vec<Group> {
        let cap = self.codec.capacity();
        if data.is_empty() {
            return vec![Group {
                index: 0,
                len: 0,
                cooked: self.codec.encode(&[]),
            }];
        }
        data.chunks(cap)
            .enumerate()
            .map(|(index, chunk)| Group {
                index,
                len: chunk.len(),
                cooked: self.codec.encode(chunk),
            })
            .collect()
    }

    /// Decodes groups back into the original byte stream.
    ///
    /// # Errors
    ///
    /// Propagates [`Codec::decode`] errors for the failing group.
    pub fn decode(&self, groups: &[GroupPackets]) -> Result<Vec<u8>, Error> {
        let mut sorted: Vec<_> = groups.iter().collect();
        sorted.sort_by_key(|(gi, _, _)| *gi);
        let mut out = Vec::new();
        for (_, packets, len) in sorted {
            out.extend(self.codec.decode(packets, *len)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 131 + 7) as u8).collect()
    }

    #[test]
    fn round_trip_all_clear() {
        let codec = Codec::new(4, 6, 16).unwrap();
        let data = sample(60);
        let cooked = codec.encode(&data);
        let packets: Vec<_> = cooked.iter().take(4).cloned().enumerate().collect();
        assert_eq!(codec.decode(&packets, 60).unwrap(), data);
    }

    #[test]
    fn round_trip_redundancy_only_survivors() {
        // Worst case: every clear-text packet lost, only redundancy and
        // exactly M survivors remain.
        let codec = Codec::new(3, 6, 8).unwrap();
        let data = sample(20);
        let cooked = codec.encode(&data);
        let packets: Vec<_> = cooked
            .iter()
            .enumerate()
            .skip(3)
            .map(|(i, p)| (i, p.clone()))
            .collect();
        assert_eq!(codec.decode(&packets, 20).unwrap(), data);
    }

    #[test]
    fn round_trip_mixed_survivors_out_of_order() {
        let codec = Codec::new(4, 8, 8).unwrap();
        let data = sample(30);
        let cooked = codec.encode(&data);
        let packets = vec![
            (7, cooked[7].clone()),
            (1, cooked[1].clone()),
            (5, cooked[5].clone()),
            (2, cooked[2].clone()),
        ];
        assert_eq!(codec.decode(&packets, 30).unwrap(), data);
    }

    #[test]
    fn clear_text_prefix_matches_raw() {
        let codec = Codec::new(5, 9, 10).unwrap();
        let data = sample(47);
        let cooked = codec.encode(&data);
        let raws = codec.split(&data);
        for i in 0..5 {
            assert_eq!(cooked[i], raws[i], "clear packet {i} differs from raw");
        }
    }

    #[test]
    fn duplicate_indices_are_ignored() {
        let codec = Codec::new(3, 5, 4).unwrap();
        let data = sample(12);
        let cooked = codec.encode(&data);
        let packets = vec![
            (0, cooked[0].clone()),
            (0, cooked[0].clone()),
            (1, cooked[1].clone()),
            (4, cooked[4].clone()),
        ];
        assert_eq!(codec.decode(&packets, 12).unwrap(), data);
    }

    #[test]
    fn too_few_packets_errors() {
        let codec = Codec::new(3, 5, 4).unwrap();
        let data = sample(12);
        let cooked = codec.encode(&data);
        let packets = vec![(0, cooked[0].clone()), (1, cooked[1].clone())];
        assert_eq!(
            codec.decode(&packets, 12),
            Err(Error::NotEnoughPackets { have: 2, need: 3 })
        );
    }

    #[test]
    fn bad_index_errors() {
        let codec = Codec::new(2, 3, 4).unwrap();
        let packets = vec![(0, vec![0; 4]), (9, vec![0; 4])];
        assert_eq!(codec.decode(&packets, 4), Err(Error::BadPacketIndex(9)));
    }

    #[test]
    fn bad_length_errors() {
        let codec = Codec::new(2, 3, 4).unwrap();
        let packets = vec![(0, vec![0; 4]), (1, vec![0; 3])];
        assert_eq!(
            codec.decode(&packets, 4),
            Err(Error::BadPacketLength { got: 3, want: 4 })
        );
    }

    #[test]
    fn length_overflow_errors() {
        let codec = Codec::new(2, 3, 4).unwrap();
        let packets = vec![(0, vec![0; 4]), (1, vec![0; 4])];
        assert_eq!(
            codec.decode(&packets, 100),
            Err(Error::LengthOverflow {
                requested: 100,
                capacity: 8
            })
        );
    }

    #[test]
    fn parameter_validation() {
        assert!(Codec::new(0, 1, 4).is_err());
        assert!(Codec::new(4, 3, 4).is_err());
        assert!(Codec::new(4, 257, 4).is_err());
        assert!(Codec::new(4, 8, 0).is_err());
        assert!(Codec::new(1, 1, 1).is_ok());
        assert!(Codec::new(256, 256, 1).is_ok());
    }

    #[test]
    fn degenerate_single_packet_code() {
        let codec = Codec::new(1, 3, 8).unwrap();
        let data = sample(5);
        let cooked = codec.encode(&data);
        for (i, payload) in cooked.iter().enumerate() {
            let restored = codec.decode(&[(i, payload.clone())], 5).unwrap();
            assert_eq!(restored, data, "failed via cooked packet {i}");
        }
    }

    #[test]
    fn encode_one_matches_full_encode() {
        let codec = Codec::new(4, 9, 8).unwrap();
        let data = sample(32);
        let raws = codec.split(&data);
        let cooked = codec.encode(&data);
        for (i, expect) in cooked.iter().enumerate() {
            assert_eq!(&codec.encode_one(&raws, i), expect, "cooked {i} mismatch");
        }
    }

    #[test]
    fn encode_frames_lays_out_each_cooked_packet_as_its_wire_frame() {
        use crate::packet::Frame;
        for ps in [1, 7, 16, 61] {
            let codec = Codec::new(3, 5, ps).unwrap();
            let data = sample(3 * ps - 1);
            // Whatever the buffer held before is overwritten.
            let mut frames = vec![0xEE; 3];
            codec.encode_frames(&data, &mut frames);
            let want: Vec<u8> = codec
                .encode(&data)
                .into_iter()
                .enumerate()
                .flat_map(|(i, p)| Frame::new(i as u16, p).to_wire())
                .collect();
            assert_eq!(frames, want, "packet size {ps}");
        }
    }

    #[test]
    fn empty_data_round_trips() {
        let codec = Codec::new(2, 4, 4).unwrap();
        let cooked = codec.encode(&[]);
        let packets = vec![(2, cooked[2].clone()), (3, cooked[3].clone())];
        assert_eq!(codec.decode(&packets, 0).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn paper_scale_parameters() {
        // Table 2: M = 40, N = 60, 256-byte packets, 10240-byte document.
        let codec = Codec::new(40, 60, 256).unwrap();
        assert_eq!(codec.capacity(), 10240);
        let data = sample(10240);
        let cooked = codec.encode(&data);
        assert_eq!(cooked.len(), 60);
        // Drop 20 arbitrary packets (indices ≡ 0 mod 3).
        let packets: Vec<_> = cooked
            .into_iter()
            .enumerate()
            .filter(|(i, _)| i % 3 != 0)
            .collect();
        assert!(packets.len() >= 40);
        assert_eq!(codec.decode(&packets, 10240).unwrap(), data);
    }

    #[test]
    fn chunked_round_trip() {
        let codec = Codec::new(4, 6, 8).unwrap();
        let chunked = ChunkedCodec::new(codec);
        let data = sample(100); // capacity 32 -> 4 groups (32+32+32+4)
        let groups = chunked.encode(&data);
        assert_eq!(groups.len(), 4);
        assert_eq!(groups[3].len, 4);
        let recovered: Vec<_> = groups
            .iter()
            .map(|g| {
                // keep packets 1..5 of each group (drop 0 and 5)
                let pk: Vec<_> = g
                    .cooked
                    .iter()
                    .cloned()
                    .enumerate()
                    .skip(1)
                    .take(4)
                    .collect();
                (g.index, pk, g.len)
            })
            .collect();
        assert_eq!(chunked.decode(&recovered).unwrap(), data);
    }

    #[test]
    fn chunked_empty_input() {
        let chunked = ChunkedCodec::new(Codec::new(2, 3, 4).unwrap());
        let groups = chunked.encode(&[]);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].len, 0);
    }

    #[test]
    fn shared_codecs_share_generator_and_inverse_cache() {
        // Shapes chosen to be unique to this test so parallel tests
        // cannot pre-warm them.
        let a = Codec::shared(7, 13, 16).unwrap();
        let b = Codec::shared(7, 13, 32).unwrap(); // packet size differs, shape matches
        assert!(Arc::ptr_eq(&a.generator, &b.generator));
        assert!(Arc::ptr_eq(&a.inverse_cache, &b.inverse_cache));

        // An inversion paid by `a` is a cache hit for `b` — this is the
        // cross-session reuse the proxy relies on.
        let data = sample(7 * 16);
        let cooked = a.encode(&data);
        let survivors: Vec<_> = cooked
            .iter()
            .enumerate()
            .skip(6)
            .map(|(i, p)| (i, p.clone()))
            .collect();
        let (_, miss0) = inverse_cache_counters();
        assert_eq!(a.decode(&survivors, data.len()).unwrap(), data);
        let (hit1, miss1) = inverse_cache_counters();
        // Counters are process-global, so other tests may also bump
        // them concurrently — assert monotonically.
        assert!(miss1 > miss0);
        assert_eq!(
            a.inverse_cache
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .len(),
            1
        );
        // Same survivor pattern decoded through the *other* codec: the
        // inversion `a` paid for is a pure hit for `b`.
        let survivors32: Vec<_> = b
            .encode(&sample(7 * 32))
            .into_iter()
            .enumerate()
            .skip(6)
            .collect();
        assert!(b.decode(&survivors32, 7 * 32).is_ok());
        let (hit2, _) = inverse_cache_counters();
        assert!(hit2 > hit1);
    }

    #[test]
    fn shared_matches_private_codec_output() {
        let shared = Codec::shared(5, 9, 8).unwrap();
        let private = Codec::new(5, 9, 8).unwrap();
        let data = sample(37);
        assert_eq!(shared.encode(&data), private.encode(&data));
        let cooked = shared.encode(&data);
        let survivors: Vec<_> = cooked.into_iter().enumerate().skip(3).collect();
        assert_eq!(
            shared.decode(&survivors, 37).unwrap(),
            private.decode(&survivors, 37).unwrap()
        );
    }

    #[test]
    fn shared_validates_parameters() {
        assert!(Codec::shared(0, 1, 4).is_err());
        assert!(Codec::shared(4, 3, 4).is_err());
        assert!(Codec::shared(4, 257, 4).is_err());
        assert!(Codec::shared(4, 8, 0).is_err());
    }
}
