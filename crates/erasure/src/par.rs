//! Parallel dispersal: fan encode/decode work across OS threads.
//!
//! Two axes of parallelism exist in the dispersal stage, and both are
//! embarrassingly parallel because GF(2⁸) row operations never share
//! mutable state:
//!
//! * **across groups** — [`ChunkedCodec`] groups are independent, so a
//!   multi-group document encodes/decodes with one group per worker
//!   ([`GroupCodec`]);
//! * **across redundancy rows** — within one group the `N − M`
//!   redundancy rows are independent linear combinations of the shared
//!   clear-text prefix ([`encode_into_parallel`]).
//!
//! Workers are plain [`std::thread::scope`] threads, spawned on every
//! call. A spawn costs more than a whole encode at the paper shape
//! (M = 40, N = 60, 256-byte packets: 8–15 µs serial against 78–92 µs
//! over two threads on a 2-vCPU Xeon VM), so fanning out pays only for
//! work far larger than one such group, and the serving path
//! (`LiveServer::new`) encodes serially. Every function here is
//! bit-identical to its serial counterpart — the property tests in
//! `tests/prop_ida.rs` prove it — and with `threads == 1` the serial
//! code path runs unchanged, so single-core hosts pay nothing.

use std::sync::OnceLock;
use std::thread;

use mrtweb_obs::{EventKind, Span};

use crate::ida::{ChunkedCodec, Codec, Group, GroupPackets};
use crate::Error;

/// Number of worker threads to use by default: the machine's available
/// parallelism, capped so tiny work items don't drown in spawn cost.
///
/// Read once per process: `available_parallelism` re-reads the cgroup
/// quota files on every call (21–25 µs on a 2-vCPU Xeon VM, more than
/// a paper-shape encode). A quota changed after the first call goes
/// unseen.
pub fn default_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        thread::available_parallelism()
            .map_or(1, std::num::NonZero::get)
            .min(16)
    })
}

/// Encodes `data` into a flat cooked buffer like [`Codec::encode_into`],
/// fanning the redundancy rows across up to `threads` workers.
///
/// The clear-text prefix is written serially (it is a straight copy);
/// each worker then owns a disjoint band of redundancy rows, reading
/// the shared prefix. With `threads <= 1` this is exactly
/// [`Codec::encode_into`].
///
/// # Panics
///
/// Panics if `data.len() > codec.capacity()`.
pub fn encode_into_parallel(codec: &Codec, data: &[u8], out: &mut Vec<u8>, threads: usize) {
    let m = codec.raw_packets();
    let n = codec.cooked_packets();
    let ps = codec.packet_size();
    let rows = n - m;
    let workers = threads.min(rows.max(1));
    if workers <= 1 {
        codec.encode_into(data, out);
        return;
    }
    assert!(
        data.len() <= codec.capacity(),
        "data ({} bytes) exceeds codec capacity ({} bytes)",
        data.len(),
        codec.capacity()
    );
    let span = Span::start(EventKind::EncodeSpan);
    out.resize(n * ps, 0);
    let (clear, redundancy) = out.split_at_mut(m * ps);
    clear[..data.len()].copy_from_slice(data);
    clear[data.len()..].fill(0);

    let rows_per_worker = rows.div_ceil(workers);
    let clear_ref: &[u8] = clear;
    thread::scope(|scope| {
        for (band_idx, band) in redundancy.chunks_mut(rows_per_worker * ps).enumerate() {
            let first_row = m + band_idx * rows_per_worker;
            scope.spawn(move || {
                let raw_slices = clear_chunks(clear_ref, ps);
                for (r, row) in band.chunks_exact_mut(ps).enumerate() {
                    codec.fill_redundancy_row(&raw_slices, first_row + r, row);
                }
            });
        }
    });
    span.end(n as u64);
}

/// Splits the flat clear prefix into per-packet slices for row math.
fn clear_chunks(clear: &[u8], ps: usize) -> Vec<&[u8]> {
    clear.chunks_exact(ps).collect()
}

/// Multi-group codec that encodes and decodes groups on worker threads.
///
/// Wraps a [`ChunkedCodec`]; results are bit-identical to the serial
/// [`ChunkedCodec::encode`]/[`ChunkedCodec::decode`] (groups are
/// reassembled in document order regardless of which worker finished
/// first). Clones share the wrapped codec's decode-inverse cache, so
/// inversions performed by one worker are visible to all.
#[derive(Debug, Clone)]
pub struct GroupCodec {
    chunked: ChunkedCodec,
    threads: usize,
}

impl GroupCodec {
    /// Wraps `codec` using [`default_threads`] workers.
    pub fn new(codec: Codec) -> Self {
        GroupCodec::with_threads(codec, default_threads())
    }

    /// Wraps `codec` with an explicit worker count (`0` is treated as 1).
    pub fn with_threads(codec: Codec, threads: usize) -> Self {
        GroupCodec {
            chunked: ChunkedCodec::new(codec),
            threads: threads.max(1),
        }
    }

    /// Access to the underlying per-group codec.
    pub fn codec(&self) -> &Codec {
        self.chunked.codec()
    }

    /// Access to the underlying serial chunked codec.
    pub fn chunked(&self) -> &ChunkedCodec {
        &self.chunked
    }

    /// Configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Encodes `data` into consecutive groups, groups fanned across
    /// workers.
    pub fn encode(&self, data: &[u8]) -> Vec<Group> {
        let cap = self.codec().capacity();
        let n_groups = if data.is_empty() {
            1
        } else {
            data.len().div_ceil(cap)
        };
        let workers = self.threads.min(n_groups);
        if workers <= 1 {
            return self.chunked.encode(data);
        }
        let chunks: Vec<(usize, &[u8])> = data.chunks(cap).enumerate().collect();
        let per_worker = chunks.len().div_ceil(workers);
        let mut results: Vec<Vec<Group>> = Vec::new();
        thread::scope(|scope| {
            let handles: Vec<_> = chunks
                .chunks(per_worker)
                .map(|batch| {
                    scope.spawn(move || {
                        batch
                            .iter()
                            .map(|(index, chunk)| Group {
                                index: *index,
                                len: chunk.len(),
                                cooked: self.codec().encode(chunk),
                            })
                            .collect::<Vec<Group>>()
                    })
                })
                .collect();
            results = handles
                .into_iter()
                // analysis:allow(no-panic-paths) join() only fails when a worker panicked; re-raising preserves the worker's message, and the kernels the workers run are panic-free on all inputs (property-tested)
                .map(|h| h.join().expect("encode worker panicked"))
                .collect();
        });
        results.into_iter().flatten().collect()
    }

    /// Decodes groups back into the original byte stream, groups fanned
    /// across workers.
    ///
    /// # Errors
    ///
    /// Propagates the first failing group's [`Codec::decode`] error
    /// (in document order, matching the serial implementation).
    pub fn decode(&self, groups: &[GroupPackets]) -> Result<Vec<u8>, Error> {
        let workers = self.threads.min(groups.len().max(1));
        if workers <= 1 {
            return self.chunked.decode(groups);
        }
        let mut sorted: Vec<&GroupPackets> = groups.iter().collect();
        sorted.sort_by_key(|(gi, _, _)| *gi);
        let per_worker = sorted.len().div_ceil(workers);
        let mut results: Vec<Vec<Result<Vec<u8>, Error>>> = Vec::new();
        thread::scope(|scope| {
            let handles: Vec<_> = sorted
                .chunks(per_worker)
                .map(|batch| {
                    scope.spawn(move || {
                        batch
                            .iter()
                            .map(|(_, packets, len)| self.codec().decode(packets, *len))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            results = handles
                .into_iter()
                // analysis:allow(no-panic-paths) join() only fails when a worker panicked; decode errors travel in-band as Result, so a join failure can only be a re-raised worker panic
                .map(|h| h.join().expect("decode worker panicked"))
                .collect();
        });
        let mut out = Vec::new();
        for piece in results.into_iter().flatten() {
            out.extend(piece?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ida::Codec;

    fn sample(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 89 + 3) as u8).collect()
    }

    #[test]
    fn parallel_encode_matches_serial() {
        let codec = Codec::new(4, 7, 16).unwrap();
        let gc = GroupCodec::with_threads(codec.clone(), 4);
        let data = sample(500); // capacity 64 → 8 groups
        let serial = ChunkedCodec::new(codec).encode(&data);
        let parallel = gc.encode(&data);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn parallel_decode_matches_serial_and_round_trips() {
        let codec = Codec::new(3, 6, 8).unwrap();
        let gc = GroupCodec::with_threads(codec, 3);
        let data = sample(200);
        let groups = gc.encode(&data);
        let received: Vec<GroupPackets> = groups
            .iter()
            .map(|g| {
                let pk: Vec<_> = g
                    .cooked
                    .iter()
                    .cloned()
                    .enumerate()
                    .skip(2)
                    .take(3)
                    .collect();
                (g.index, pk, g.len)
            })
            .collect();
        let parallel = gc.decode(&received).unwrap();
        let serial = gc.chunked().decode(&received).unwrap();
        assert_eq!(parallel, data);
        assert_eq!(parallel, serial);
    }

    #[test]
    fn decode_error_propagates() {
        let codec = Codec::new(3, 6, 8).unwrap();
        let gc = GroupCodec::with_threads(codec, 2);
        let data = sample(100);
        let groups = gc.encode(&data);
        let mut received: Vec<GroupPackets> = groups
            .iter()
            .map(|g| {
                let pk: Vec<_> = g.cooked.iter().cloned().enumerate().take(3).collect();
                (g.index, pk, g.len)
            })
            .collect();
        received[1].1.truncate(1); // starve one group of packets
        assert!(gc.decode(&received).is_err());
    }

    #[test]
    fn encode_into_parallel_matches_serial() {
        let codec = Codec::new(5, 12, 32).unwrap();
        let data = sample(codec.capacity() - 7);
        let mut serial = Vec::new();
        codec.encode_into(&data, &mut serial);
        for threads in [1, 2, 3, 7, 16] {
            let mut parallel = Vec::new();
            encode_into_parallel(&codec, &data, &mut parallel, threads);
            assert_eq!(serial, parallel, "mismatch at threads={threads}");
        }
    }

    #[test]
    fn empty_input_encodes_one_group() {
        let gc = GroupCodec::with_threads(Codec::new(2, 3, 4).unwrap(), 4);
        let groups = gc.encode(&[]);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].len, 0);
    }
}
