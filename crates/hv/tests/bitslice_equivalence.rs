//! Property tests: the word-parallel [`BitSliceAccumulator`] is
//! bit-identical to the scalar [`BundleAccumulator`] — full hypervector
//! equality, not just similarity — across random dimensions (including
//! non-word-aligned ones like 130 and the paper-scale 10 000), bundle
//! sizes, tie policies and scratch-buffer reuse; and its carry-save bulk
//! adds are bit-identical to the same vectors added one at a time.

use hypervec::{kernel, BinaryHv, BitSliceAccumulator, BundleAccumulator, HvRng};
use proptest::prelude::*;

/// Dimensions that exercise word boundaries and paper scale.
fn dims() -> impl Strategy<Value = usize> {
    prop_oneof![
        1usize..=4,
        60usize..=70,
        Just(130),
        120usize..=132,
        Just(1000),
        Just(10_000)
    ]
}

/// Builds the same bundle through both accumulators.
fn filled_pair(dim: usize, n: usize, seed: u64) -> (BitSliceAccumulator, BundleAccumulator) {
    let mut rng = HvRng::from_seed(seed);
    let mut fast = BitSliceAccumulator::new(dim);
    let mut slow = BundleAccumulator::new(dim);
    for _ in 0..n {
        let hv = rng.binary_hv(dim);
        fast.add(&hv);
        slow.add(&hv);
    }
    (fast, slow)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn integer_sums_are_bit_identical(d in dims(), n in 0usize..=33, seed in any::<u64>()) {
        let (fast, slow) = filled_pair(d, n, seed);
        prop_assert_eq!(fast.to_int(), slow.sums().clone());
        prop_assert_eq!(fast.count(), slow.count());
    }

    #[test]
    fn deterministic_majority_is_bit_identical(d in dims(), n in 0usize..=33, seed in any::<u64>()) {
        let (fast, slow) = filled_pair(d, n, seed);
        prop_assert_eq!(fast.majority_ties_positive(), slow.majority_ties_positive());
    }

    #[test]
    fn random_tie_majority_consumes_identical_coin_stream(
        d in dims(),
        n in 0usize..=16,
        seed in any::<u64>(),
        tie_seed in any::<u64>(),
    ) {
        // Even counts produce real ties; both paths must resolve them
        // from the same rng draws AND leave the stream in the same state.
        let n = n * 2;
        let (fast, slow) = filled_pair(d, n, seed);
        let mut rng_fast = HvRng::from_seed(tie_seed);
        let mut rng_slow = HvRng::from_seed(tie_seed);
        prop_assert_eq!(fast.majority_with(&mut rng_fast), slow.majority_with(&mut rng_slow));
        prop_assert_eq!(rng_fast.next_u64(), rng_slow.next_u64());
    }

    #[test]
    fn bound_pair_accumulation_is_bit_identical(d in dims(), n in 1usize..=40, seed in any::<u64>()) {
        // Fused binds written into the staging slots, as the encoders'
        // cold path does, against the scalar fused add.
        let mut rng = HvRng::from_seed(seed);
        let pairs: Vec<(BinaryHv, BinaryHv)> =
            (0..n).map(|_| (rng.binary_hv(d), rng.binary_hv(d))).collect();
        let mut fast = BitSliceAccumulator::new(d);
        let mut slow = BundleAccumulator::new(d);
        fast.add_staged(n, |i, slot| {
            let (a, b) = &pairs[i];
            (kernel::active().xor_into)(a.bits().words(), b.bits().words(), slot);
        });
        for (a, b) in &pairs {
            slow.add_bound_pair(a, b);
        }
        prop_assert_eq!(fast.to_int(), slow.sums().clone());
        prop_assert_eq!(fast.majority_ties_positive(), slow.majority_ties_positive());
    }

    #[test]
    fn cleared_accumulator_behaves_like_fresh(d in dims(), n in 1usize..=12, seed in any::<u64>()) {
        // Scratch-buffer contract: clear() + reuse must be indistinguishable
        // from a newly allocated accumulator.
        let mut rng = HvRng::from_seed(seed);
        let (mut reused, _) = filled_pair(d, n, seed ^ 0xABCD);
        reused.clear();
        let mut fresh = BitSliceAccumulator::new(d);
        for _ in 0..n {
            let hv = rng.binary_hv(d);
            reused.add(&hv);
            fresh.add(&hv);
        }
        prop_assert_eq!(reused.to_int(), fresh.to_int());
    }

    #[test]
    fn counts_match_per_dimension_negatives(d in dims(), n in 0usize..=20, seed in any::<u64>()) {
        let mut rng = HvRng::from_seed(seed);
        let mut fast = BitSliceAccumulator::new(d);
        let mut naive = vec![0u32; d];
        for _ in 0..n {
            let hv: BinaryHv = rng.binary_hv(d);
            fast.add(&hv);
            for (dim, count) in naive.iter_mut().enumerate() {
                if hv.polarity(dim) < 0 {
                    *count += 1;
                }
            }
        }
        prop_assert_eq!(fast.counts(), naive);
    }

    #[test]
    fn bulk_adds_match_sequential_adds(
        d in dims(),
        pre in prop_oneof![0usize..=40, 250usize..=270],
        n in 0usize..=100,
        seed in any::<u64>(),
        tie_seed in any::<u64>(),
    ) {
        // Both bulk front doors against one-at-a-time `add`, on an
        // accumulator that already holds counts (past 255 for the upper
        // `pre` range, so carries run beyond eight planes), with garbage
        // past `dim` in every bulk input.
        let mut rng = HvRng::from_seed(seed);
        let hvs: Vec<BinaryHv> = (0..n).map(|_| rng.binary_hv(d)).collect();
        let dirty: Vec<Vec<u64>> = hvs
            .iter()
            .map(|hv| {
                let mut words = hv.bits().words().to_vec();
                if !d.is_multiple_of(64) {
                    *words.last_mut().unwrap() |= rng.next_u64() & !((1u64 << (d % 64)) - 1);
                }
                words
            })
            .collect();
        let (mut sequential, _) = filled_pair(d, pre, seed ^ 0x5EED);
        let mut sliced = sequential.clone();
        let mut staged = sequential.clone();
        for hv in &hvs {
            sequential.add(hv);
        }
        sliced.add_slices(dirty.iter().map(Vec::as_slice));
        staged.add_staged(n, |i, slot| slot.copy_from_slice(&dirty[i]));
        for bulk in [&sliced, &staged] {
            prop_assert_eq!(bulk.count(), sequential.count());
            prop_assert_eq!(bulk.counts(), sequential.counts());
            prop_assert_eq!(bulk.to_int(), sequential.to_int());
            prop_assert_eq!(bulk.majority_ties_positive(), sequential.majority_ties_positive());
            let mut rng_bulk = HvRng::from_seed(tie_seed);
            let mut rng_seq = HvRng::from_seed(tie_seed);
            prop_assert_eq!(
                bulk.majority_with(&mut rng_bulk),
                sequential.majority_with(&mut rng_seq)
            );
            prop_assert_eq!(rng_bulk.next_u64(), rng_seq.next_u64());
        }
    }
}
