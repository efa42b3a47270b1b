//! Property tests decoding from adversarially-shaped survivor sets.
//!
//! The MDS claim of Rabin dispersal is *any* `M` distinct intact cooked
//! packets reconstruct the payload — but random subsets under-sample
//! the structurally extreme shapes. This sweep pins the corners:
//! all-clear (the systematic prefix), all-parity (pure redundancy
//! rows), mixed interleavings, minimal-`M`, and over-complete sets, for
//! the one-shot and parallel/group codecs alike.

use proptest::prelude::*;

use mrtweb_erasure::ida::Codec;
use mrtweb_erasure::par::GroupCodec;

/// Deterministic Fisher–Yates from a seed (test-local shuffling).
fn shuffle(indices: &mut [usize], seed: u64) {
    let mut state = seed | 1;
    for i in (1..indices.len()).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % (i + 1);
        indices.swap(i, j);
    }
}

/// Builds the survivor index set for one adversarial shape.
///
/// `shape`: 0 = all-clear (systematic prefix), 1 = all-parity where
/// feasible (else highest-index packets), 2 = strict alternation,
/// 3 = random minimal `M`, 4 = random over-complete (> `M` survivors,
/// decoder must pick a basis).
fn survivors(shape: u8, m: usize, n: usize, seed: u64) -> Vec<usize> {
    match shape {
        0 => (0..m).collect(),
        1 => {
            // Prefer parity rows m..n; top up from the highest clear
            // indices when there are fewer than m parity packets.
            let mut idx: Vec<usize> = (m..n).collect();
            let mut clear: Vec<usize> = (0..m).rev().collect();
            while idx.len() < m {
                idx.push(clear.remove(0));
            }
            idx.truncate(m);
            idx
        }
        2 => {
            // Alternate clear/parity as far as both last.
            let mut idx = Vec::with_capacity(m);
            let (mut lo, mut hi) = (0usize, m);
            while idx.len() < m {
                if idx.len() % 2 == 0 && lo < m {
                    idx.push(lo);
                    lo += 1;
                } else if hi < n {
                    idx.push(hi);
                    hi += 1;
                } else {
                    idx.push(lo);
                    lo += 1;
                }
            }
            idx
        }
        3 => {
            let mut idx: Vec<usize> = (0..n).collect();
            shuffle(&mut idx, seed);
            idx.truncate(m);
            idx
        }
        _ => {
            let mut idx: Vec<usize> = (0..n).collect();
            shuffle(&mut idx, seed);
            let keep = m + (seed as usize % (n - m + 1));
            idx.truncate(keep.max(m));
            idx
        }
    }
}

proptest! {
    /// Every survivor shape reconstructs byte-identically through the
    /// one-shot decoder.
    #[test]
    fn every_shape_decodes_exactly(
        m in 1usize..14,
        extra in 0usize..14,
        packet_size in 1usize..48,
        shape in 0u8..5,
        data in proptest::collection::vec(any::<u8>(), 0..400),
        seed in any::<u64>(),
    ) {
        let n = m + extra;
        let codec = Codec::new(m, n, packet_size).unwrap();
        let data = &data[..data.len().min(codec.capacity())];
        let cooked = codec.encode(data);
        let keep = survivors(shape, m, n, seed);
        prop_assert!(keep.len() >= m, "shape {} produced {} < M survivors", shape, keep.len());
        let packets: Vec<(usize, Vec<u8>)> =
            keep.iter().map(|&i| (i, cooked[i].clone())).collect();
        let decoded = codec.decode(&packets, data.len()).unwrap();
        prop_assert_eq!(&decoded[..], data);
    }

    /// The parallel group codec round-trips payloads larger than one
    /// dispersal group under per-group survivor shapes.
    #[test]
    fn group_codec_survives_shapes_across_groups(
        m in 2usize..8,
        extra in 1usize..8,
        packet_size in 1usize..24,
        shape in 0u8..5,
        groups_of_data in 1usize..4,
        seed in any::<u64>(),
    ) {
        let n = m + extra;
        let codec = Codec::new(m, n, packet_size).unwrap();
        let capacity = codec.capacity();
        let data: Vec<u8> = (0..capacity * groups_of_data - capacity / 2)
            .map(|i| (i as u64).wrapping_mul(seed | 1) as u8)
            .collect();
        let gc = GroupCodec::new(codec);
        let encoded = gc.encode(&data);
        let survived: Vec<_> = encoded
            .iter()
            .map(|g| {
                let keep = survivors(shape, m, n, seed ^ g.index as u64);
                let packets: Vec<(usize, Vec<u8>)> =
                    keep.iter().map(|&i| (i, g.cooked[i].clone())).collect();
                (g.index, packets, g.len)
            })
            .collect();
        let decoded = gc.decode(&survived).unwrap();
        prop_assert_eq!(decoded, data);
    }

    /// Below M survivors, decoding fails with a typed error — never a
    /// panic, never wrong bytes.
    #[test]
    fn below_m_fails_cleanly(
        m in 2usize..12,
        extra in 0usize..8,
        packet_size in 1usize..24,
        data in proptest::collection::vec(any::<u8>(), 1..200),
        seed in any::<u64>(),
    ) {
        let n = m + extra;
        let codec = Codec::new(m, n, packet_size).unwrap();
        let data = &data[..data.len().min(codec.capacity()).max(1)];
        let cooked = codec.encode(data);
        let mut keep: Vec<usize> = (0..n).collect();
        shuffle(&mut keep, seed);
        keep.truncate(m - 1);
        let packets: Vec<(usize, Vec<u8>)> =
            keep.iter().map(|&i| (i, cooked[i].clone())).collect();
        prop_assert!(codec.decode(&packets, data.len()).is_err());
    }
}
