//! Property tests: the word-parallel [`BitSliceAccumulator`] is
//! bit-identical to the scalar [`BundleAccumulator`] — full hypervector
//! equality, not just similarity — across random dimensions (including
//! non-word-aligned ones like 130 and the paper-scale 10 000), bundle
//! sizes, tie policies and scratch-buffer reuse; and its carry-save bulk
//! adds (including the fused bind of `(feature, value)` pairs) are
//! bit-identical to the same vectors added one at a time.

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
        // Bound pairs through the fused-bind bulk add (the encoders'
        // cold path) and written into the staging slots (the on-the-fly
        // path), against the scalar fused add.
        let mut rng = HvRng::from_seed(seed);
        let pairs: Vec<(BinaryHv, BinaryHv)> =
            (0..n).map(|_| (rng.binary_hv(d), rng.binary_hv(d))).collect();
        let mut fast = BitSliceAccumulator::new(d);
        let mut staged = BitSliceAccumulator::new(d);
        let mut slow = BundleAccumulator::new(d);
        fast.add_bound_pairs(pairs.iter().map(|(a, b)| (a.bits().words(), b.bits().words())));
        staged.add_staged(n, |i, slot| {
            let (a, b) = &pairs[i];
            (kernel::active().xor_into)(a.bits().words(), b.bits().words(), slot);
        });
        for (a, b) in &pairs {
            slow.add_bound_pair(a, b);
        }
        for bulk in [&fast, &staged] {
            prop_assert_eq!(bulk.to_int(), slow.sums().clone());
            prop_assert_eq!(bulk.majority_ties_positive(), slow.majority_ties_positive());
        }
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
        n in prop_oneof![0usize..=100, 0usize..=300],
        seed in any::<u64>(),
        tie_seed in any::<u64>(),
    ) {
        // The three bulk front doors against one-at-a-time `add`, on an
        // accumulator that already holds counts (past 255 for the upper
        // `pre` range, so carries run beyond eight planes), with garbage
        // past `dim` in every bulk input. Half the cases draw `n` ≤ 100,
        // the other half up to 300, past one full second-level fold at
        // 256; every length up to 300 runs at d = 130 in the test below.
        let mut rng = HvRng::from_seed(seed);
        let hvs: Vec<BinaryHv> = (0..n).map(|_| rng.binary_hv(d)).collect();
        // The fused pairs split each vector as `key ^ (vector ^ key)`.
        let keys: Vec<BinaryHv> = (0..n).map(|_| rng.binary_hv(d)).collect();
        let mut dirty_words = |hv: &BinaryHv| {
            let mut words = hv.bits().words().to_vec();
            if !d.is_multiple_of(64) {
                *words.last_mut().unwrap() |= rng.next_u64() & !((1u64 << (d % 64)) - 1);
            }
            words
        };
        let dirty: Vec<Vec<u64>> = hvs.iter().map(&mut dirty_words).collect();
        let pairs: Vec<(Vec<u64>, Vec<u64>)> = hvs
            .iter()
            .zip(&keys)
            .map(|(hv, key)| (dirty_words(&hv.bind(key)), dirty_words(key)))
            .collect();
        let (mut sequential, _) = filled_pair(d, pre, seed ^ 0x5EED);
        let mut sliced = sequential.clone();
        let mut staged = sequential.clone();
        let mut fused = sequential.clone();
        for hv in &hvs {
            sequential.add(hv);
        }
        sliced.add_slices(dirty.iter().map(Vec::as_slice));
        staged.add_staged(n, |i, slot| slot.copy_from_slice(&dirty[i]));
        fused.add_bound_pairs(pairs.iter().map(|(a, b)| (a.as_slice(), b.as_slice())));
        for bulk in [&sliced, &staged, &fused] {
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

#[test]
fn bulk_adds_match_sequential_add_words_at_every_length() {
    // Every n in 0..=300, on a fresh accumulator and on one holding
    // counts past 255, at a dimension with a 2-bit tail word: each bulk
    // front door against `add_words(a ^ b)` one pair at a time (the
    // fused one takes the pairs, the other two their XOR). Both halves
    // of every pair carry random garbage past `dim` that XORs to all
    // ones, so unless the tail is masked every group carries out of it,
    // at both carry-save levels.
    let d = 130;
    let tail_garbage = !((1u64 << (d % 64)) - 1);
    let mut rng = HvRng::from_seed(300);
    let pairs: Vec<(Vec<u64>, Vec<u64>)> = (0..300)
        .map(|_| {
            let mut a = rng.binary_hv(d).bits().words().to_vec();
            let mut b = rng.binary_hv(d).bits().words().to_vec();
            let garbage = rng.next_u64() & tail_garbage;
            *a.last_mut().unwrap() |= garbage ^ tail_garbage;
            *b.last_mut().unwrap() |= garbage;
            (a, b)
        })
        .collect();
    let bound: Vec<Vec<u64>> = pairs
        .iter()
        .map(|(a, b)| a.iter().zip(b).map(|(x, y)| x ^ y).collect())
        .collect();
    for pre in [0, 261] {
        let (empty_or_filled, _) = filled_pair(d, pre, 7);
        for n in 0..=300 {
            let mut sequential = empty_or_filled.clone();
            for words in &bound[..n] {
                sequential.add_words(words);
            }
            let mut fused = empty_or_filled.clone();
            fused.add_bound_pairs(pairs[..n].iter().map(|(a, b)| (a.as_slice(), b.as_slice())));
            let mut sliced = empty_or_filled.clone();
            sliced.add_slices(bound[..n].iter().map(Vec::as_slice));
            let mut staged = empty_or_filled.clone();
            staged.add_staged(n, |i, slot| slot.copy_from_slice(&bound[i]));
            for (name, bulk) in [("fused", &fused), ("sliced", &sliced), ("staged", &staged)] {
                let at = format!("{name}, pre {pre}, n {n}");
                assert_eq!(bulk.count(), sequential.count(), "{at}");
                assert_eq!(bulk.counts(), sequential.counts(), "{at}");
                assert_eq!(
                    bulk.majority_ties_positive(),
                    sequential.majority_ties_positive(),
                    "{at}"
                );
                let mut rng_bulk = HvRng::from_seed(n as u64);
                let mut rng_seq = HvRng::from_seed(n as u64);
                assert_eq!(
                    bulk.majority_with(&mut rng_bulk),
                    sequential.majority_with(&mut rng_seq),
                    "{at}"
                );
                assert_eq!(rng_bulk.next_u64(), rng_seq.next_u64(), "{at}");
            }
        }
    }
}
