//! Property tests: the word-parallel [`BitSliceAccumulator`] is
//! bit-identical to the scalar [`BundleAccumulator`] — full hypervector
//! equality, not just similarity — across random dimensions (including
//! non-word-aligned ones like 130 and the paper-scale 10 000), bundle
//! sizes, tie policies and scratch-buffer reuse; and its two bulk paths
//! (the staged carry-save add, and the column bind-and-count of a row's
//! `(feature, value)` pairs from tile-major blocks) are bit-identical to
//! the same vectors added one at a time.

use hypervec::{kernel, BinaryHv, BitSliceAccumulator, BundleAccumulator, HvRng, TileBlock};
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
    fn bound_pair_accumulation_is_bit_identical(
        d in dims(),
        n in prop_oneof![0usize..=40, 250usize..=270],
        m in 1usize..=16,
        seed in any::<u64>(),
        tie_seed in any::<u64>(),
    ) {
        // One encoded row's bound pairs through the column pass (every
        // cached encode) and written into the staging slots (the
        // on-the-fly path), against the scalar bundle of the same
        // pairs: integer sums, both majority policies, the coins the
        // random tie-break draws, and the count.
        let mut rng = HvRng::from_seed(seed);
        let features: Vec<BinaryHv> = (0..n).map(|_| rng.binary_hv(d)).collect();
        let values: Vec<BinaryHv> = (0..m).map(|_| rng.binary_hv(d)).collect();
        let levels: Vec<u16> = (0..n).map(|_| rng.index(m) as u16).collect();
        let value = |i: usize| &values[usize::from(levels[i])];
        let mut columns = BitSliceAccumulator::new(d);
        columns.bundle_row(&TileBlock::from_hvs(d, &features), &TileBlock::from_hvs(d, &values), &levels);
        let mut staged = BitSliceAccumulator::new(d);
        staged.add_staged(n, |i, slot| {
            (kernel::active().xor_into)(features[i].bits().words(), value(i).bits().words(), slot);
        });
        let mut slow = BundleAccumulator::new(d);
        for (i, fea) in features.iter().enumerate() {
            slow.add_bound_pair(fea, value(i));
        }
        for bulk in [&columns, &staged] {
            prop_assert_eq!(bulk.count(), n);
            prop_assert_eq!(bulk.to_int(), slow.sums().clone());
            prop_assert_eq!(bulk.majority_ties_positive(), slow.majority_ties_positive());
            let mut rng_bulk = HvRng::from_seed(tie_seed);
            let mut rng_slow = HvRng::from_seed(tie_seed);
            prop_assert_eq!(bulk.majority_with(&mut rng_bulk), slow.majority_with(&mut rng_slow));
            prop_assert_eq!(rng_bulk.next_u64(), rng_slow.next_u64());
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
        // Both bulk paths against one-at-a-time `add`, with garbage past
        // `dim` in every bulk input. The staged add runs on an
        // accumulator that already holds counts (past 255 for the upper
        // `pre` range, so carries run beyond eight planes); the column
        // pass resets one, so it must come out as if fresh. Half the
        // cases draw `n` ≤ 100, the other half up to 300, past one full
        // second-level fold at 256; every length up to 300 runs at
        // d = 130 in the test below.
        let mut rng = HvRng::from_seed(seed);
        let hvs: Vec<BinaryHv> = (0..n).map(|_| rng.binary_hv(d)).collect();
        // The column pass splits each vector as `(vector ^ key) ^ key`,
        // over four keys.
        let keys: Vec<BinaryHv> = (0..4).map(|_| rng.binary_hv(d)).collect();
        let levels: Vec<u16> = (0..n).map(|_| rng.index(4) as u16).collect();
        let mut dirty_words = |hv: &BinaryHv| {
            let mut words = hv.bits().words().to_vec();
            if !d.is_multiple_of(64) {
                *words.last_mut().unwrap() |= rng.next_u64() & !((1u64 << (d % 64)) - 1);
            }
            words
        };
        let dirty: Vec<Vec<u64>> = hvs.iter().map(&mut dirty_words).collect();
        let mut features = TileBlock::zeroed(n, d);
        for (i, hv) in hvs.iter().enumerate() {
            features.set(i, &dirty_words(&hv.bind(&keys[usize::from(levels[i])])));
        }
        let mut values = TileBlock::zeroed(4, d);
        for (v, key) in keys.iter().enumerate() {
            values.set(v, &dirty_words(key));
        }
        let (filled, _) = filled_pair(d, pre, seed ^ 0x5EED);
        let mut sequential = filled.clone();
        let mut staged = filled.clone();
        let mut fresh = BitSliceAccumulator::new(d);
        let mut columns = filled;
        for hv in &hvs {
            sequential.add(hv);
            fresh.add(hv);
        }
        staged.add_staged(n, |i, slot| slot.copy_from_slice(&dirty[i]));
        columns.bundle_row(&features, &values, &levels);
        for (bulk, reference) in [(&staged, &sequential), (&columns, &fresh)] {
            prop_assert_eq!(bulk.count(), reference.count());
            prop_assert_eq!(bulk.counts(), reference.counts());
            prop_assert_eq!(bulk.to_int(), reference.to_int());
            prop_assert_eq!(bulk.majority_ties_positive(), reference.majority_ties_positive());
            let mut rng_bulk = HvRng::from_seed(tie_seed);
            let mut rng_seq = HvRng::from_seed(tie_seed);
            prop_assert_eq!(
                bulk.majority_with(&mut rng_bulk),
                reference.majority_with(&mut rng_seq)
            );
            prop_assert_eq!(rng_bulk.next_u64(), rng_seq.next_u64());
        }
    }
}

#[test]
fn bulk_adds_match_sequential_add_words_at_every_length() {
    // Every n in 0..=300 at a dimension with a 2-bit tail word, against
    // `add_words(a ^ b)` one pair at a time: the staged add (on a fresh
    // accumulator and on one holding counts past 255) takes the XOR,
    // the column pass the pairs from tile-major blocks (on a reused
    // accumulator, which it resets). Both halves of every pair carry
    // random garbage past `dim` that XORs to all ones, so unless the
    // tail is masked every group carries out of it, at both carry-save
    // levels.
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
    // Pair `i` as feature `i` bound to value `i` of a 300-level block.
    let mut features = TileBlock::zeroed(300, d);
    let mut values = TileBlock::zeroed(300, d);
    for (i, (a, b)) in pairs.iter().enumerate() {
        features.set(i, a);
        values.set(i, b);
    }
    let (mut columns, _) = filled_pair(d, 261, 7);
    for pre in [0, 261] {
        let (empty_or_filled, _) = filled_pair(d, pre, 7);
        for n in 0..=300 {
            let mut sequential = empty_or_filled.clone();
            for words in &bound[..n] {
                sequential.add_words(words);
            }
            let mut staged = empty_or_filled.clone();
            staged.add_staged(n, |i, slot| slot.copy_from_slice(&bound[i]));
            let mut bulks = vec![("staged", &staged)];
            if pre == 0 {
                let mut prefix = TileBlock::zeroed(n, d);
                let mut words = vec![0u64; d.div_ceil(64)];
                for i in 0..n {
                    features.get_into(i, &mut words);
                    prefix.set(i, &words);
                }
                let levels: Vec<u16> = (0..n as u16).collect();
                columns.bundle_row(&prefix, &values, &levels);
                bulks.push(("columns", &columns));
            }
            let reference = &sequential;
            for (name, bulk) in bulks {
                let at = format!("{name}, pre {pre}, n {n}");
                assert_eq!(bulk.count(), reference.count(), "{at}");
                assert_eq!(bulk.counts(), reference.counts(), "{at}");
                assert_eq!(
                    bulk.majority_ties_positive(),
                    reference.majority_ties_positive(),
                    "{at}"
                );
                let mut rng_bulk = HvRng::from_seed(n as u64);
                let mut rng_seq = HvRng::from_seed(n as u64);
                assert_eq!(
                    bulk.majority_with(&mut rng_bulk),
                    reference.majority_with(&mut rng_seq),
                    "{at}"
                );
                assert_eq!(rng_bulk.next_u64(), rng_seq.next_u64(), "{at}");
            }
        }
    }
}

/// The column pass indexes the value block by level: a level that is
/// not below `M` must panic rather than read another vector's words.
#[test]
#[should_panic(expected = "out of range")]
fn bundle_row_rejects_a_level_past_m() {
    let mut rng = HvRng::from_seed(6);
    let features: Vec<BinaryHv> = (0..2).map(|_| rng.binary_hv(64)).collect();
    let values: Vec<BinaryHv> = (0..4).map(|_| rng.binary_hv(64)).collect();
    let mut acc = BitSliceAccumulator::new(64);
    acc.bundle_row(
        &TileBlock::from_hvs(64, &features),
        &TileBlock::from_hvs(64, &values),
        &[4, 0],
    );
}

/// A tile block gathers back exactly what was scattered into it, at
/// dimensions with and without a partial last tile and word, and it and
/// its clones start on a 64-byte boundary.
#[test]
fn tile_block_round_trips() {
    for dim in [1, 64, 130, 511, 512, 513, 10_000] {
        let mut rng = HvRng::from_seed(dim as u64);
        let hvs: Vec<BinaryHv> = (0..5).map(|_| rng.binary_hv(dim)).collect();
        let block = TileBlock::from_hvs(dim, &hvs);
        assert_eq!((block.len(), block.dim()), (5, dim));
        assert_eq!(block.words().len(), 5 * dim.div_ceil(512) * 8);
        assert_eq!(block.words().as_ptr() as usize % 64, 0, "64-byte aligned");
        for (i, hv) in hvs.iter().enumerate() {
            assert_eq!(&block.get(i), hv, "D = {dim}, vector {i}");
        }
        // A clone lays the same words out in its own buffer, aligned.
        let copy = block.clone();
        assert_eq!(copy.words(), block.words());
        assert_eq!(copy.words().as_ptr() as usize % 64, 0);
    }
}
