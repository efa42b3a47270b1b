//! Property-based tests for the Cauchy codec substrate.
//!
//! The dense Gauss-Jordan machinery in `matrix.rs` is retained purely as
//! the oracle here: the closed-form Cauchy generator and decode inverse
//! must agree with generic row reduction on every random geometry and
//! survivor pattern, and the decode front-ends (one-shot `Codec` over
//! owned or borrowed packets, parallel `GroupCodec`) must stay
//! byte-identical on top of them. A final sweep pins the GFNI kernels to the scalar
//! log/exp reference on hosts that have them (and skips cleanly — by
//! testing zero tiers — on hosts that do not).

use proptest::prelude::*;

use mrtweb_erasure::cauchy;
use mrtweb_erasure::gf256::{
    detected_tiers, mul_acc_scalar, mul_acc_with_tier, mul_row_with_tier, Gf256, Tier,
};
use mrtweb_erasure::ida::{ChunkedCodec, Codec, GroupPackets};
use mrtweb_erasure::matrix::Matrix;
use mrtweb_erasure::par::GroupCodec;

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
    /// The Cauchy generator is systematic and every row the oracle can
    /// produce, it produces identically: selecting any M rows and
    /// inverting with Gauss-Jordan must reconstruct the identity against
    /// the closed-form `decode_inverse`.
    #[test]
    fn cauchy_inverse_matches_gauss_jordan_oracle(
        m in 1usize..24,
        extra in 0usize..24,
        seed in any::<u64>(),
    ) {
        let n = m + extra;
        let generator = cauchy::systematic_generator(m, n).unwrap();
        prop_assert!(generator.is_systematic());

        let mut survivors = pick_survivors(n, m, seed);
        survivors.sort_unstable();

        // Oracle: generic dense inversion of the selected rows.
        let oracle = generator.select_rows(&survivors).inverse().unwrap();
        // Closed form under test.
        let fast = cauchy::decode_inverse(m, n, &survivors).unwrap();
        prop_assert_eq!(&fast, &oracle);

        // Both must invert the selected rows exactly.
        let selected = generator.select_rows(&survivors);
        prop_assert_eq!(fast.mul(&selected), Matrix::identity(m));
    }

    /// Worst-case survivor set — all parity, zero clear rows — across
    /// the geometry sweep. This exercises the full Cauchy-inverse
    /// product formulas with no identity-row shortcuts.
    #[test]
    fn cauchy_inverse_all_parity_matches_oracle(
        m in 1usize..20,
        seed in any::<u64>(),
    ) {
        let n = 2 * m;
        let generator = cauchy::systematic_generator(m, n).unwrap();
        let mut survivors = pick_survivors(m, m, seed);
        for s in &mut survivors {
            *s += m; // shift into the parity range [m, 2m)
        }
        survivors.sort_unstable();
        let oracle = generator.select_rows(&survivors).inverse().unwrap();
        let fast = cauchy::decode_inverse(m, n, &survivors).unwrap();
        prop_assert_eq!(&fast, &oracle);
    }

    /// One document, three decoders, one answer: the one-shot codec
    /// over owned packets and over slices borrowed from one buffer, and
    /// the parallel group codec, must all reproduce the original bytes
    /// from the same survivor set.
    #[test]
    fn one_shot_borrowed_and_group_decodes_agree(
        m in 1usize..=8,
        extra in 1usize..=6,
        ps in 1usize..=16,
        data in proptest::collection::vec(any::<u8>(), 0..256),
        seed in any::<u64>(),
        threads in 1usize..=6,
    ) {
        let n = m + extra;
        let codec = Codec::new(m, n, ps).unwrap();
        let data = &data[..data.len().min(codec.capacity())];
        let cooked = codec.encode(data);
        let keep = pick_survivors(n, m, seed);
        let packets: Vec<(usize, Vec<u8>)> =
            keep.iter().map(|&i| (i, cooked[i].clone())).collect();

        // One-shot decode.
        let one_shot = codec.decode(&packets, data.len()).unwrap();
        prop_assert_eq!(one_shot.as_slice(), data);

        // The same survivors borrowed from one flat buffer, as a
        // receiver that keeps its packets by sequence holds them.
        let flat = cooked.concat();
        let borrowed: Vec<(usize, &[u8])> =
            keep.iter().map(|&i| (i, &flat[i * ps..][..ps])).collect();
        let from_slices = codec.decode(&borrowed, data.len()).unwrap();
        prop_assert_eq!(from_slices.as_slice(), data);

        // Group decode through the parallel front-end (single group).
        let gc = GroupCodec::with_threads(codec.clone(), threads);
        let groups = gc.encode(data);
        let received: Vec<GroupPackets> = groups
            .iter()
            .map(|g| {
                let keep = pick_survivors(n, m, seed ^ g.index as u64);
                let pk: Vec<(usize, Vec<u8>)> =
                    keep.into_iter().map(|i| (i, g.cooked[i].clone())).collect();
                (g.index, pk, g.len)
            })
            .collect();
        let group = gc.decode(&received).unwrap();
        let serial = ChunkedCodec::new(codec).decode(&received).unwrap();
        prop_assert_eq!(group.as_slice(), data);
        prop_assert_eq!(serial.as_slice(), data);
    }
}

// Kernel pinning sweeps every detected dispatch tier (GFNI-512 and
// GFNI-256 included where the host supports them) against the scalar
// log/exp reference. On hosts without GFNI the GFNI tiers simply never
// appear in `detected_tiers()`, so the test degrades to the AVX2/SSSE3/
// portable sweep — it skips the missing hardware cleanly rather than
// failing. Fewer cases: each case covers all 256 coefficients per tier.
proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..Default::default() })]

    /// Every detected tier's accumulate and overwrite kernels match the
    /// scalar reference for all 256 coefficients on a random slice.
    #[test]
    fn detected_tiers_match_scalar_for_all_coefficients(
        src in proptest::collection::vec(any::<u8>(), 0..300),
        dst_seed in any::<u8>(),
    ) {
        let tiers = detected_tiers();
        // The portable tier is unconditional, so the sweep never runs empty.
        prop_assert!(tiers.contains(&Tier::Portable));
        let dst_init: Vec<u8> = (0..src.len())
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(dst_seed))
            .collect();
        for &tier in &tiers {
            for c in 0..=255u8 {
                let c = Gf256::new(c);
                let mut fast = dst_init.clone();
                let mut slow = dst_init.clone();
                mul_acc_with_tier(tier, &mut fast, &src, c);
                mul_acc_scalar(&mut slow, &src, c);
                prop_assert_eq!(&fast, &slow, "mul_acc tier {:?} diverged at c={:?}", tier, c);

                let mut row = vec![0xAAu8; src.len()]; // junk: must be overwritten
                let mut zeroed = vec![0u8; src.len()];
                mul_row_with_tier(tier, &mut row, &src, c);
                mul_acc_scalar(&mut zeroed, &src, c);
                prop_assert_eq!(&row, &zeroed, "mul_row tier {:?} diverged at c={:?}", tier, c);
            }
        }
    }
}
