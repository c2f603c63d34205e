//! Property tests: the sharded batch search kernels are bit-identical
//! to the scalar one-row-at-a-time scan — same argmin/argmax (including
//! lowest-index tie-breaking) and bit-equal score floats — across
//! random shapes including non-word-aligned dimensions (130) and the
//! paper-scale D = 10 000.

use hypervec::{BinaryHv, HvRng, IntHv, ShardedClassMemory};
use proptest::prelude::*;

/// Dimensions exercising word and 1024-dimension plane-block
/// boundaries (1025 and 2112 end one word past the first and second
/// block edges) plus the paper scale.
fn dims() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(64),
        Just(130),
        200usize..=260,
        Just(1024),
        Just(1025),
        Just(2112),
        Just(10_000)
    ]
}

/// Scalar reference: the pre-refactor per-row Hamming scan.
fn scalar_nearest(rows: &[BinaryHv], q: &BinaryHv) -> (usize, usize) {
    let mut best = (0usize, usize::MAX);
    for (j, r) in rows.iter().enumerate() {
        let d = r.hamming(q);
        if d < best.1 {
            best = (j, d);
        }
    }
    best
}

/// Scalar reference: the per-row cosine argmax.
fn scalar_best_int(rows: &[IntHv], q: &IntHv) -> (usize, f64) {
    let mut best = (0usize, f64::NEG_INFINITY);
    for (j, r) in rows.iter().enumerate() {
        let s = r.cosine(q);
        if s > best.1 {
            best = (j, s);
        }
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn batch_binary_search_is_bit_exact_with_scalar_scan(
        d in dims(),
        c in 2usize..=12,
        n_queries in 1usize..=17,
        seed in any::<u64>(),
    ) {
        let mut rng = HvRng::from_seed(seed);
        let rows: Vec<BinaryHv> = (0..c).map(|_| rng.binary_hv(d)).collect();
        let mem = ShardedClassMemory::from_rows(&rows).unwrap();
        let queries: Vec<BinaryHv> = (0..n_queries).map(|_| rng.binary_hv(d)).collect();
        let refs: Vec<&BinaryHv> = queries.iter().collect();

        let hits = mem.search_batch_binary(&refs).unwrap();
        prop_assert_eq!(hits.len(), n_queries);
        for (q, query) in queries.iter().enumerate() {
            let (want, want_d) = scalar_nearest(&rows, query);
            prop_assert_eq!(hits.best(q), want, "query {}", q);
            prop_assert_eq!(mem.search_binary(query).unwrap(), (want, want_d));
            for (r, row) in rows.iter().enumerate() {
                prop_assert_eq!(
                    hits.scores(q)[r].to_bits(),
                    row.cosine(query).to_bits(),
                    "query {} row {}", q, r
                );
            }
        }
    }

    #[test]
    fn batch_int_search_is_bit_exact_with_scalar_scan(
        d in dims(),
        c in 2usize..=10,
        n_queries in 1usize..=9,
        seed in any::<u64>(),
    ) {
        let mut rng = HvRng::from_seed(seed);
        let bins: Vec<BinaryHv> = (0..c).map(|_| rng.binary_hv(d)).collect();
        // Integer rows with mixed magnitudes, like trained accumulators.
        let ints: Vec<IntHv> = bins
            .iter()
            .map(|b| {
                let mut acc = IntHv::zeros(d);
                acc.add_binary(b);
                acc.add_binary_scaled(b, (rng.index(5) as i32) + 1);
                acc
            })
            .collect();
        let mut mem = ShardedClassMemory::from_rows(&bins).unwrap();
        mem.set_int_rows(&ints).unwrap();
        let queries: Vec<IntHv> = (0..n_queries)
            .map(|_| {
                let mut acc = IntHv::zeros(d);
                acc.add_binary(&rng.binary_hv(d));
                acc.add_binary(&rng.binary_hv(d));
                acc
            })
            .collect();
        let refs: Vec<&IntHv> = queries.iter().collect();

        let hits = mem.search_batch_int(&refs).unwrap();
        for (q, query) in queries.iter().enumerate() {
            let (want, want_s) = scalar_best_int(&ints, query);
            prop_assert_eq!(hits.best(q), want, "query {}", q);
            let (got, got_s) = mem.search_int(query).unwrap();
            prop_assert_eq!(got, want);
            prop_assert_eq!(got_s.to_bits(), want_s.to_bits());
            for (r, row) in ints.iter().enumerate() {
                prop_assert_eq!(
                    hits.scores(q)[r].to_bits(),
                    row.cosine(query).to_bits(),
                    "query {} row {}", q, r
                );
            }
        }
    }

    #[test]
    fn tie_breaking_matches_scalar_with_duplicate_rows(
        d in prop_oneof![Just(130usize), Just(192usize)],
        c in 2usize..=6,
        seed in any::<u64>(),
    ) {
        // All rows identical: every query ties across the board and the
        // kernels must return index 0, like the scalar scan.
        let mut rng = HvRng::from_seed(seed);
        let base = rng.binary_hv(d);
        let rows: Vec<BinaryHv> = (0..c).map(|_| base.clone()).collect();
        let mem = ShardedClassMemory::from_rows(&rows).unwrap();
        let query = rng.binary_hv(d);
        prop_assert_eq!(mem.search_binary(&query).unwrap().0, 0);
        let hits = mem.search_batch_binary(&[&query]).unwrap();
        prop_assert_eq!(hits.best(0), 0);
    }
}
