//! Property-based tests for the information-dispersal codec.

use proptest::prelude::*;

use mrtweb_erasure::crc::{crc16, crc16_reference, crc32, crc32_reference};
use mrtweb_erasure::gf256::{mul_acc, mul_acc_scalar, mul_row, Gf256};
use mrtweb_erasure::ida::{ChunkedCodec, Codec, GroupPackets};
use mrtweb_erasure::matrix::Matrix;
use mrtweb_erasure::packet::Frame;
use mrtweb_erasure::par::{encode_into_parallel, GroupCodec};
use mrtweb_erasure::redundancy::{min_cooked_packets, success_probability};

/// Deterministically selects `keep` distinct indices from `0..n`.
fn pick_survivors(n: usize, keep: usize, seed: u64) -> Vec<usize> {
    let mut indices: Vec<usize> = (0..n).collect();
    let mut state = seed | 1;
    for i in (1..n).rev() {
        // xorshift64 is plenty for test shuffling.
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        indices.swap(i, (state as usize) % (i + 1));
    }
    indices.truncate(keep);
    indices
}

proptest! {
    /// Any M distinct survivors reconstruct the original data exactly.
    #[test]
    fn ida_round_trip_any_m_survivors(
        m in 1usize..12,
        extra in 0usize..12,
        packet_size in 1usize..40,
        data in proptest::collection::vec(any::<u8>(), 0..256),
        seed in any::<u64>(),
    ) {
        let n = m + extra;
        let codec = Codec::new(m, n, packet_size).unwrap();
        let data = &data[..data.len().min(codec.capacity())];
        let cooked = codec.encode(data);
        prop_assert_eq!(cooked.len(), n);

        // Pick a pseudo-random M-subset of survivors from the seed.
        let mut indices: Vec<usize> = (0..n).collect();
        let mut state = seed | 1;
        for i in (1..indices.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            indices.swap(i, j);
        }
        let survivors: Vec<(usize, Vec<u8>)> =
            indices[..m].iter().map(|&i| (i, cooked[i].clone())).collect();
        let restored = codec.decode(&survivors, data.len()).unwrap();
        prop_assert_eq!(restored.as_slice(), data);
    }

    /// The clear-text prefix equals the zero-padded raw split.
    #[test]
    fn systematic_prefix_is_clear_text(
        m in 1usize..10,
        extra in 0usize..10,
        packet_size in 1usize..32,
        data in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        let codec = Codec::new(m, m + extra, packet_size).unwrap();
        let data = &data[..data.len().min(codec.capacity())];
        let cooked = codec.encode(data);
        let raws = codec.split(data);
        for i in 0..m {
            prop_assert_eq!(&cooked[i], &raws[i]);
        }
    }

    /// Supplying more than M packets never changes the decoded result.
    #[test]
    fn extra_packets_are_harmless(
        m in 1usize..8,
        extra in 1usize..8,
        data in proptest::collection::vec(any::<u8>(), 1..64),
    ) {
        let packet_size = 8usize;
        let codec = Codec::new(m, m + extra, packet_size).unwrap();
        let data = &data[..data.len().min(codec.capacity())];
        let cooked = codec.encode(data);
        let all: Vec<(usize, Vec<u8>)> = cooked.iter().cloned().enumerate().collect();
        let first_m: Vec<(usize, Vec<u8>)> = all[..m].to_vec();
        prop_assert_eq!(
            codec.decode(&all, data.len()).unwrap(),
            codec.decode(&first_m, data.len()).unwrap()
        );
    }

    /// Vandermonde matrices with distinct points are always invertible,
    /// and inversion is exact.
    #[test]
    fn square_vandermonde_inverts(n in 1usize..30) {
        let v = Matrix::vandermonde(n, n).unwrap();
        let inv = v.inverse().unwrap();
        prop_assert_eq!(v.mul(&inv), Matrix::identity(n));
    }

    /// Field axioms on random triples.
    #[test]
    fn gf256_axioms(a in any::<u8>(), b in any::<u8>(), c in any::<u8>()) {
        let (a, b, c) = (Gf256::new(a), Gf256::new(b), Gf256::new(c));
        prop_assert_eq!(a + b, b + a);
        prop_assert_eq!(a * b, b * a);
        prop_assert_eq!((a + b) + c, a + (b + c));
        prop_assert_eq!((a * b) * c, a * (b * c));
        prop_assert_eq!(a * (b + c), a * b + a * c);
        if !b.is_zero() {
            prop_assert_eq!((a * b) / b, a);
        }
    }

    /// Frames round-trip and corrupting any byte is detected.
    #[test]
    fn frame_round_trip_and_corruption(
        seq in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        flip_byte in any::<usize>(),
        flip_mask in 1u8..=255,
    ) {
        let frame = Frame::new(seq, payload.clone());
        let wire = frame.to_wire();
        let parsed = Frame::from_wire(&wire, payload.len()).unwrap();
        prop_assert_eq!(parsed.sequence(), seq);
        prop_assert_eq!(parsed.payload(), payload.as_slice());

        let mut bad = wire.clone();
        let i = flip_byte % bad.len();
        bad[i] ^= flip_mask;
        prop_assert!(Frame::from_wire(&bad, payload.len()).is_err());
    }

    /// CRCs change under random single-byte corruption (probabilistically
    /// certain for CRC; here it is exact for single-byte flips).
    #[test]
    fn crc_detects_single_byte_flip(
        data in proptest::collection::vec(any::<u8>(), 1..128),
        pos in any::<usize>(),
        mask in 1u8..=255,
    ) {
        let mut bad = data.clone();
        let i = pos % bad.len();
        bad[i] ^= mask;
        prop_assert_ne!(crc32(&data), crc32(&bad));
        prop_assert_ne!(crc16(&data), crc16(&bad));
    }

    /// The minimal-N solver is consistent with the CDF it optimizes.
    #[test]
    fn min_n_consistent_with_cdf(
        m in 1usize..60,
        alpha in 0.01f64..0.6,
        s in 0.5f64..0.999,
    ) {
        let n = min_cooked_packets(m, alpha, s).unwrap();
        prop_assert!(success_probability(m, n, alpha).unwrap() >= s);
        if n > m {
            prop_assert!(success_probability(m, n - 1, alpha).unwrap() < s);
        }
    }

    /// Chunked encoding round-trips arbitrary data lengths.
    #[test]
    fn chunked_round_trip(
        m in 1usize..6,
        extra in 0usize..6,
        data in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let codec = Codec::new(m, m + extra, 16).unwrap();
        let chunked = ChunkedCodec::new(codec);
        let groups = chunked.encode(&data);
        let packed: Vec<_> = groups
            .iter()
            .map(|g| {
                let pk: Vec<(usize, Vec<u8>)> =
                    g.cooked.iter().cloned().enumerate().rev().take(m).collect();
                (g.index, pk, g.len)
            })
            .collect();
        prop_assert_eq!(chunked.decode(&packed).unwrap(), data);
    }
}

// Properties pinning the fast dispersal paths to their reference
// implementations: the split-table/SIMD GF(2⁸) kernels against the
// scalar log/exp loop, parallel encode/decode against serial, the
// cached-inverse decode against a fresh inversion, and the sliced CRC
// kernels against the bit-at-a-time shift registers. Fewer cases than
// above — each case sweeps all 256 coefficients or runs full decodes.
proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..Default::default() })]

    /// The dispatched `mul_acc` kernel (AVX2/SSSE3/portable, whichever
    /// this host selects) matches the scalar log/exp reference for every
    /// one of the 256 coefficients on the same random slice.
    #[test]
    fn mul_acc_matches_scalar_for_all_coefficients(
        src in proptest::collection::vec(any::<u8>(), 0..300),
        dst_seed in any::<u8>(),
    ) {
        let dst_init: Vec<u8> =
            (0..src.len()).map(|i| (i as u8).wrapping_mul(31).wrapping_add(dst_seed)).collect();
        for c in 0..=255u8 {
            let c = Gf256::new(c);
            let mut fast = dst_init.clone();
            let mut slow = dst_init.clone();
            mul_acc(&mut fast, &src, c);
            mul_acc_scalar(&mut slow, &src, c);
            prop_assert_eq!(&fast, &slow, "mul_acc diverged at c={:?}", c);
        }
    }

    /// `mul_row` (overwrite variant) equals scalar-accumulate into a
    /// zeroed destination for every coefficient.
    #[test]
    fn mul_row_matches_scalar_for_all_coefficients(
        src in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        for c in 0..=255u8 {
            let c = Gf256::new(c);
            let mut fast = vec![0xAAu8; src.len()]; // junk: must be overwritten
            let mut slow = vec![0u8; src.len()];
            mul_row(&mut fast, &src, c);
            mul_acc_scalar(&mut slow, &src, c);
            prop_assert_eq!(&fast, &slow, "mul_row diverged at c={:?}", c);
        }
    }

    /// `encode_into` (flat buffer) and `encode_into_parallel` at any
    /// thread count reproduce the allocating `encode` bit for bit.
    #[test]
    fn encode_variants_are_bit_identical(
        m in 1usize..=8,
        extra in 0usize..=6,
        ps in 1usize..=24,
        fill in 0.0f64..=1.0,
        threads in 1usize..=8,
    ) {
        let n = m + extra;
        let codec = Codec::new(m, n, ps).unwrap();
        let len = ((codec.capacity() as f64) * fill) as usize;
        let data: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
        let reference: Vec<u8> =
            codec.encode(&data).into_iter().flatten().collect();
        let mut flat = Vec::new();
        codec.encode_into(&data, &mut flat);
        prop_assert_eq!(&flat, &reference);
        let mut par = Vec::new();
        encode_into_parallel(&codec, &data, &mut par, threads);
        prop_assert_eq!(&par, &reference);
    }

    /// Parallel `GroupCodec` encode/decode is bit-identical to the
    /// serial `ChunkedCodec` across random geometries, document sizes,
    /// loss patterns and thread counts.
    #[test]
    fn group_codec_parallel_matches_serial(
        m in 1usize..=6,
        extra in 1usize..=5,
        ps in 1usize..=16,
        doc_groups in 0.0f64..4.0,
        threads in 1usize..=6,
        loss_seed in any::<u64>(),
    ) {
        let n = m + extra;
        let codec = Codec::new(m, n, ps).unwrap();
        let len = ((codec.capacity() as f64) * doc_groups) as usize;
        let data: Vec<u8> = (0..len).map(|i| (i * 89 + 5) as u8).collect();
        let serial_codec = ChunkedCodec::new(codec.clone());
        let gc = GroupCodec::with_threads(codec, threads);

        let groups = gc.encode(&data);
        prop_assert_eq!(&groups, &serial_codec.encode(&data));

        let received: Vec<GroupPackets> = groups
            .iter()
            .map(|g| {
                let keep = pick_survivors(n, m, loss_seed ^ g.index as u64);
                let pk: Vec<(usize, Vec<u8>)> =
                    keep.into_iter().map(|i| (i, g.cooked[i].clone())).collect();
                (g.index, pk, g.len)
            })
            .collect();
        let parallel = gc.decode(&received).unwrap();
        let serial = serial_codec.decode(&received).unwrap();
        prop_assert_eq!(&parallel, &serial);
        prop_assert_eq!(&parallel, &data);
    }

    /// A decode served from the inverse cache equals a fresh inversion
    /// for any loss pattern — including repeats of the same pattern,
    /// the case the cache exists for.
    #[test]
    fn cached_decode_matches_fresh_decode(
        m in 1usize..=8,
        extra in 1usize..=6,
        ps in 1usize..=16,
        loss_seed in any::<u64>(),
    ) {
        let n = m + extra;
        let codec = Codec::new(m, n, ps).unwrap();
        let data: Vec<u8> = (0..codec.capacity() - 1).map(|i| (i * 53 + 7) as u8).collect();
        let cooked = codec.encode(&data);
        let keep = pick_survivors(n, m, loss_seed);
        let packets: Vec<(usize, Vec<u8>)> =
            keep.into_iter().map(|i| (i, cooked[i].clone())).collect();
        let fresh = codec.decode_uncached(&packets, data.len()).unwrap();
        let first = codec.decode(&packets, data.len()).unwrap(); // populates cache
        let second = codec.decode(&packets, data.len()).unwrap(); // served from cache
        prop_assert_eq!(&fresh, &first);
        prop_assert_eq!(&first, &second);
        prop_assert_eq!(&second, &data);
    }

    /// The sliced CRC kernels agree with the bit-at-a-time references
    /// on arbitrary buffers (all remainder lengths get exercised).
    #[test]
    fn sliced_crcs_match_bitwise_reference(
        data in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        prop_assert_eq!(crc32(&data), crc32_reference(&data));
        prop_assert_eq!(crc16(&data), crc16_reference(&data));
    }
}
