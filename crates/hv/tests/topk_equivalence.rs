//! Property tests for the top-k search paths: every backend is
//! bit-identical to the scalar full-sort reference, and pruned top-k at
//! full probe width is bit-identical to exact top-k — argmax, tie
//! order, and score sequence (the ISSUE 6 acceptance property).

use hypervec::kernel::{self, Kernel};
use hypervec::{BinaryHv, HvRng, IntHv, ProbeConfig, ShardedClassMemory, TopKMatch};
use proptest::prelude::*;

/// Dimensions exercising word and 1024-dimension plane-block
/// boundaries (1025 and 2112 end one word past the first and second
/// block edges) plus the paper scale.
fn dims() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(130),
        60usize..=70,
        Just(1000),
        Just(1025),
        Just(2112),
        Just(4096),
        Just(10_000)
    ]
}

fn non_scalar_backends() -> Vec<&'static Kernel> {
    kernel::available()
        .into_iter()
        .filter(|k| k.name != "scalar")
        .collect()
}

/// Reference top-k: stable sort of the full per-row score vector by
/// (score desc, row asc) — what the top-k kernels must reproduce
/// bit-for-bit.
fn reference_topk(scores: &[f64], k: usize) -> Vec<(usize, u64)> {
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then(a.cmp(&b)));
    order
        .into_iter()
        .take(k)
        .map(|r| (r, scores[r].to_bits()))
        .collect()
}

fn as_pairs(matches: &[TopKMatch]) -> Vec<(usize, u64)> {
    matches.iter().map(|m| (m.row, m.score.to_bits())).collect()
}

/// Reference pruned top-k: the `probe_factor · k` best rows by
/// `(prefix distance, row)` over the first `probe_words` words, then
/// their full distances, sorted and truncated to `k` — what the pruned
/// scan must reproduce at any probe width. Scores come from `scores`,
/// the full score vector.
fn narrow_probe_reference(
    rows: &[BinaryHv],
    query: &BinaryHv,
    k: usize,
    probe: &ProbeConfig,
    scores: &[f64],
) -> Vec<(usize, u64)> {
    let q_words = query.bits().words();
    let probe_words = probe.probe_words.clamp(1, q_words.len());
    let kept = k.min(rows.len());
    let mut coarse: Vec<(u32, usize)> = rows
        .iter()
        .enumerate()
        .map(|(r, row)| {
            let prefix = row.bits().words()[..probe_words].iter().zip(q_words);
            (prefix.map(|(a, b)| (a ^ b).count_ones()).sum(), r)
        })
        .collect();
    coarse.sort_unstable();
    coarse.truncate((probe.probe_factor.max(1) * kept).clamp(kept, rows.len()));
    let mut exact: Vec<(usize, usize)> = coarse
        .into_iter()
        .map(|(_, r)| (rows[r].hamming(query), r))
        .collect();
    exact.sort_unstable();
    exact.truncate(kept);
    exact
        .into_iter()
        .map(|(_, r)| (r, scores[r].to_bits()))
        .collect()
}

/// `query` with `flips` random bits flipped: all in the first `split`
/// dimensions, all in the rest, or each in either at random, so rows at
/// one full distance arrive under different coarse keys.
fn plant(query: &BinaryHv, rng: &mut HvRng, flips: usize, split: usize) -> BinaryHv {
    let dim = query.dim();
    let mut row = query.clone();
    let mode = rng.index(3);
    for _ in 0..flips {
        let in_prefix = split == dim || mode == 0 || (mode == 2 && rng.coin());
        row.flip(if in_prefix {
            rng.index(split)
        } else {
            split + rng.index(dim - split)
        });
    }
    row
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn topk_binary_matches_reference_on_every_backend(
        dim in dims(),
        n_rows in 1usize..=40,
        n_queries in 1usize..=4,
        k in 0usize..=12,
        seed in any::<u64>(),
    ) {
        let mut rng = HvRng::from_seed(seed);
        let rows: Vec<BinaryHv> = (0..n_rows).map(|_| rng.binary_hv(dim)).collect();
        let mem = ShardedClassMemory::from_rows(&rows).unwrap();
        let queries: Vec<BinaryHv> = (0..n_queries).map(|_| rng.binary_hv(dim)).collect();
        let refs: Vec<&BinaryHv> = queries.iter().collect();
        let full = mem.search_batch_binary_with(kernel::scalar(), &refs).unwrap();
        let want = mem.search_topk_binary_with(kernel::scalar(), &refs, k).unwrap();
        for q in 0..n_queries {
            prop_assert_eq!(
                as_pairs(want.matches(q)),
                reference_topk(full.scores(q), k),
                "scalar topk vs full-sort reference, q {}", q
            );
        }
        for kb in non_scalar_backends() {
            let got = mem.search_topk_binary_with(kb, &refs, k).unwrap();
            prop_assert_eq!(&got, &want, "topk_binary: {}", kb.name);
        }
    }

    #[test]
    fn topk_int_matches_reference_on_every_backend(
        dim in dims(),
        n_rows in 1usize..=20,
        n_queries in 1usize..=3,
        k in 0usize..=8,
        seed in any::<u64>(),
    ) {
        let mut rng = HvRng::from_seed(seed);
        let bins: Vec<BinaryHv> = (0..n_rows).map(|_| rng.binary_hv(dim)).collect();
        let ints: Vec<IntHv> = bins
            .iter()
            .map(|b| {
                let mut acc = b.to_int();
                acc.add_binary(&rng.binary_hv(dim));
                acc
            })
            .collect();
        let mut mem = ShardedClassMemory::from_rows(&bins).unwrap();
        mem.set_int_rows(&ints).unwrap();
        let queries: Vec<IntHv> = (0..n_queries).map(|_| rng.binary_hv(dim).to_int()).collect();
        let refs: Vec<&IntHv> = queries.iter().collect();
        let full = mem.search_batch_int_with(kernel::scalar(), &refs).unwrap();
        let want = mem.search_topk_int_with(kernel::scalar(), &refs, k).unwrap();
        for q in 0..n_queries {
            prop_assert_eq!(
                as_pairs(want.matches(q)),
                reference_topk(full.scores(q), k),
                "scalar int topk vs reference, q {}", q
            );
        }
        for kb in non_scalar_backends() {
            let got = mem.search_topk_int_with(kb, &refs, k).unwrap();
            prop_assert_eq!(&got, &want, "topk_int: {}", kb.name);
        }
    }

    /// The acceptance property: pruned top-k at full probe width is
    /// bit-identical to exact top-k — argmax, tie order, score
    /// sequence — on every backend, with `exact_threshold = 0` so the
    /// two-phase coarse/rescore machinery actually runs.
    #[test]
    fn pruned_full_probe_width_is_bit_identical_to_exact(
        dim in dims(),
        n_rows in 1usize..=60,
        n_queries in 1usize..=3,
        k in 1usize..=10,
        probe_factor in 1usize..=4,
        dup in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut rng = HvRng::from_seed(seed);
        let mut rows: Vec<BinaryHv> = (0..n_rows).map(|_| rng.binary_hv(dim)).collect();
        if dup && n_rows >= 2 {
            // Duplicated rows force exact ties; the pruned path must
            // keep the same lowest-index order.
            let base = rows[0].clone();
            let mid = n_rows / 2;
            rows[mid] = base.clone();
            rows[n_rows - 1] = base;
        }
        let mem = ShardedClassMemory::from_rows(&rows).unwrap();
        let queries: Vec<BinaryHv> = (0..n_queries).map(|_| rng.binary_hv(dim)).collect();
        let refs: Vec<&BinaryHv> = queries.iter().collect();
        let probe = ProbeConfig {
            probe_words: mem.dim().div_ceil(64), // full width
            probe_factor,
            exact_threshold: 0,
        };
        for kb in kernel::available() {
            let exact = mem.search_topk_binary_with(kb, &refs, k).unwrap();
            let pruned = mem
                .search_topk_binary_pruned_with(kb, &refs, k, &probe)
                .unwrap();
            prop_assert_eq!(&pruned, &exact, "pruned@full-width: {}", kb.name);
        }
    }

    /// The int acceptance property: pruned int top-k at full probe
    /// width is bit-identical to exact int top-k on every backend, for
    /// rows that fit the lossless i16 sidecar *and* rows that overflow
    /// it (forcing the exact i32 coarse path).
    #[test]
    fn pruned_int_full_probe_width_is_bit_identical_to_exact(
        dim in dims(),
        n_rows in 1usize..=40,
        n_queries in 1usize..=3,
        k in 1usize..=8,
        probe_factor in 1usize..=4,
        big in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut rng = HvRng::from_seed(seed);
        let scale = if big { 50_000 } else { 1 };
        let bins: Vec<BinaryHv> = (0..n_rows).map(|_| rng.binary_hv(dim)).collect();
        let ints: Vec<IntHv> = bins
            .iter()
            .map(|b| {
                let mut acc = b.to_int();
                acc.add_binary(&rng.binary_hv(dim));
                if big {
                    // Values far outside ±32767: the i16 sidecar clamp
                    // fires and the exact coarse pass must take the i32
                    // planes instead.
                    IntHv::from_fn(dim, |i| acc.get(i) * scale)
                } else {
                    acc
                }
            })
            .collect();
        let mut mem = ShardedClassMemory::from_rows(&bins).unwrap();
        mem.set_int_rows(&ints).unwrap();
        let queries: Vec<IntHv> = (0..n_queries).map(|_| rng.binary_hv(dim).to_int()).collect();
        let refs: Vec<&IntHv> = queries.iter().collect();
        let probe = ProbeConfig {
            probe_words: mem.dim().div_ceil(64), // full width
            probe_factor,
            exact_threshold: 0,
        };
        for kb in kernel::available() {
            let exact = mem.search_topk_int_with(kb, &refs, k).unwrap();
            let pruned = mem
                .search_topk_int_pruned_with(kb, &refs, k, &probe)
                .unwrap();
            prop_assert_eq!(&pruned, &exact, "pruned int@full-width: {}", kb.name);
        }
    }

    #[test]
    fn narrow_pruned_int_is_valid_subset_with_exact_scores(
        dim in prop_oneof![Just(1000), Just(4096)],
        n_rows in 10usize..=60,
        k in 1usize..=5,
        seed in any::<u64>(),
    ) {
        // A narrow int probe may miss neighbors, but every match it
        // returns must carry the row's *exact* cosine score (the
        // rescore is always full-width i32) and the list must be
        // best-first among the returned rows.
        let mut rng = HvRng::from_seed(seed);
        let bins: Vec<BinaryHv> = (0..n_rows).map(|_| rng.binary_hv(dim)).collect();
        let ints: Vec<IntHv> = bins
            .iter()
            .map(|b| {
                let mut acc = b.to_int();
                acc.add_binary(&rng.binary_hv(dim));
                acc
            })
            .collect();
        let mut mem = ShardedClassMemory::from_rows(&bins).unwrap();
        mem.set_int_rows(&ints).unwrap();
        let q = rng.binary_hv(dim).to_int();
        let probe = ProbeConfig {
            probe_words: 2,
            probe_factor: 2,
            exact_threshold: 0,
        };
        let pruned = mem.search_topk_int_pruned(&[&q], k, &probe).unwrap();
        let full = mem.search_batch_int(&[&q]).unwrap();
        let matches = pruned.matches(0);
        prop_assert_eq!(matches.len(), k.min(n_rows));
        for m in matches {
            prop_assert_eq!(m.score.to_bits(), full.scores(0)[m.row].to_bits());
        }
        for w in matches.windows(2) {
            prop_assert!(
                w[0].score > w[1].score || (w[0].score == w[1].score && w[0].row < w[1].row)
            );
        }
    }
}

proptest! {
    // A case runs in well under a millisecond, but only about one in
    // seven tells a non-strict rescore drop from the strict one, and one
    // in ten a non-strict coarse stop, so this property samples more
    // cases than the rest.
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn narrow_pruned_is_valid_subset_with_exact_scores(
        dim in prop_oneof![Just(130), Just(1030), Just(2112), Just(10_000)],
        n_rows in 10usize..=80,
        k in 1usize..=6,
        probe_words in prop_oneof![
            Just(1),
            Just(5),
            Just(16),
            Just(17),
            Just(20),
            Just(32),
            Just(160) // past ⌈D/64⌉ at every dim above
        ],
        probe_factor in 1usize..=4,
        seed in any::<u64>(),
    ) {
        // A narrow probe may miss neighbors (that is the recall trade),
        // but every match it returns must carry the row's *exact* score
        // and the list must be best-first among the returned rows.
        // Beyond that, it must be exactly the prefix-then-rescore
        // reference. Planted rows two or three flips from the query,
        // their flips split between the probe and the rest, put equal
        // full distances under different coarse keys, and exact copies
        // of them tie outright, so ties sit at the rescore's bound.
        let mut rng = HvRng::from_seed(seed);
        let mut rows: Vec<BinaryHv> = (0..n_rows).map(|_| rng.binary_hv(dim)).collect();
        let q = rng.binary_hv(dim);
        let split = (64 * probe_words).min(dim);
        let planted: Vec<usize> = (0..n_rows / 2).map(|_| rng.index(n_rows)).collect();
        for &slot in &planted {
            let flips = 2 + rng.index(2);
            rows[slot] = plant(&q, &mut rng, flips, split);
        }
        for _ in 0..3 {
            let from = planted[rng.index(planted.len())];
            rows[rng.index(n_rows)] = rows[from].clone();
        }
        let mem = ShardedClassMemory::from_rows(&rows).unwrap();
        let probe = ProbeConfig {
            probe_words,
            probe_factor,
            exact_threshold: 0,
        };
        let full = mem.search_batch_binary_with(kernel::scalar(), &[&q]).unwrap();
        let want = narrow_probe_reference(&rows, &q, k, &probe, full.scores(0));
        for kb in kernel::available() {
            let pruned = mem.search_topk_binary_pruned_with(kb, &[&q], k, &probe).unwrap();
            let matches = pruned.matches(0);
            prop_assert_eq!(matches.len(), k.min(n_rows));
            for m in matches {
                prop_assert_eq!(m.score.to_bits(), full.scores(0)[m.row].to_bits());
            }
            for w in matches.windows(2) {
                prop_assert!(
                    w[0].score > w[1].score || (w[0].score == w[1].score && w[0].row < w[1].row)
                );
            }
            prop_assert_eq!(&as_pairs(matches), &want, "narrow probe: {}", kb.name);
        }
    }
}

/// Row-sharded path (beyond the parallel chunk minimum) agrees with the
/// reference at scale — pinned explicitly rather than sampled — and so
/// does a tie-heavy corpus, where the candidate buffers' bound ties most
/// rows across tiles and shards.
#[test]
fn row_sharded_topk_matches_reference() {
    let dim = 256;
    let n_rows = 9000; // > TOPK_ROW_CHUNK so multi-shard merge runs
    let mut rng = HvRng::from_seed(2022);
    let rows: Vec<BinaryHv> = (0..n_rows).map(|_| rng.binary_hv(dim)).collect();
    let mem = ShardedClassMemory::from_rows(&rows).unwrap();
    let queries: Vec<BinaryHv> = (0..3).map(|_| rng.binary_hv(dim)).collect();
    let refs: Vec<&BinaryHv> = queries.iter().collect();
    let k = 25;
    let got = mem.search_topk_binary(&refs, k).unwrap();
    let full = mem.search_batch_binary(&refs).unwrap();
    for q in 0..refs.len() {
        assert_eq!(as_pairs(got.matches(q)), reference_topk(full.scores(q), k));
    }
    // And the pruned path with a narrow probe still returns exact
    // scores for whatever it surfaces.
    let probe = ProbeConfig {
        probe_words: 1,
        probe_factor: 16,
        exact_threshold: 0,
    };
    let pruned = mem.search_topk_binary_pruned(&refs, k, &probe).unwrap();
    for q in 0..refs.len() {
        for m in pruned.matches(q) {
            assert_eq!(m.score.to_bits(), full.scores(q)[m.row].to_bits());
        }
    }

    // Every row is one of three hypervectors, so nearly every row ties
    // the buffer's bound. Copies of base 0 — the nearest to the first
    // query — sit at rows 999, 1999, …, 8999, so its top-k crosses from
    // them into ties of the next-nearest base at every k > 9.
    let dim = 1100;
    let bins: Vec<BinaryHv> = (0..3).map(|_| rng.binary_hv(dim)).collect();
    let ints: Vec<IntHv> = bins
        .iter()
        .map(|b| {
            let mut acc = b.to_int();
            acc.add_binary(&rng.binary_hv(dim));
            acc
        })
        .collect();
    let picks: Vec<usize> = (0..n_rows)
        .map(|r| if r % 1000 == 999 { 0 } else { 1 + rng.index(2) })
        .collect();
    let rows: Vec<BinaryHv> = picks.iter().map(|&p| bins[p].clone()).collect();
    let int_rows: Vec<IntHv> = picks.iter().map(|&p| ints[p].clone()).collect();
    let mut mem = ShardedClassMemory::from_rows(&rows).unwrap();
    mem.set_int_rows(&int_rows).unwrap();
    let mut near_base0 = bins[0].clone();
    for _ in 0..40 {
        near_base0.flip(rng.index(dim));
    }
    let queries = [near_base0, rng.binary_hv(dim), bins[2].clone()];
    let refs: Vec<&BinaryHv> = queries.iter().collect();
    let int_queries: Vec<IntHv> = queries.iter().map(BinaryHv::to_int).collect();
    let int_refs: Vec<&IntHv> = int_queries.iter().collect();
    let full = mem
        .search_batch_binary_with(kernel::scalar(), &refs)
        .unwrap();
    let full_int = mem
        .search_batch_int_with(kernel::scalar(), &int_refs)
        .unwrap();
    let probe = ProbeConfig {
        probe_words: mem.dim().div_ceil(64), // full width
        probe_factor: 2,
        exact_threshold: 0,
    };
    // A probe factor of 1 sizes each candidate buffer at exactly k, so
    // every drop to a nearer tied distance fills it to 2k and compacts
    // it: at k = 1, with the rows split into two shards, three
    // compactions per shard across the three queries' buffers.
    let tight = ProbeConfig {
        probe_factor: 1,
        ..probe
    };
    // A probe ending one word into the second block, against the
    // prefix-then-rescore reference.
    let narrow = ProbeConfig {
        probe_words: 17,
        ..probe
    };
    for k in [1, 7, 25] {
        let want_narrow: Vec<Vec<(usize, u64)>> = (0..refs.len())
            .map(|q| narrow_probe_reference(&rows, refs[q], k, &narrow, full.scores(q)))
            .collect();
        for kb in kernel::available() {
            let got = mem
                .search_topk_binary_pruned_with(kb, &refs, k, &narrow)
                .unwrap();
            for (q, want) in want_narrow.iter().enumerate() {
                assert_eq!(
                    &as_pairs(got.matches(q)),
                    want,
                    "tied corpus, narrow pruned top-{k}: {} q {q}",
                    kb.name
                );
            }
            let results = [
                ("exact", &full, mem.search_topk_binary_with(kb, &refs, k)),
                (
                    "pruned",
                    &full,
                    mem.search_topk_binary_pruned_with(kb, &refs, k, &probe),
                ),
                (
                    "int exact",
                    &full_int,
                    mem.search_topk_int_with(kb, &int_refs, k),
                ),
                (
                    "int pruned",
                    &full_int,
                    mem.search_topk_int_pruned_with(kb, &int_refs, k, &probe),
                ),
                (
                    "pruned, k candidates",
                    &full,
                    mem.search_topk_binary_pruned_with(kb, &refs, k, &tight),
                ),
                (
                    "int pruned, k candidates",
                    &full_int,
                    mem.search_topk_int_pruned_with(kb, &int_refs, k, &tight),
                ),
            ];
            for (path, reference, got) in results {
                let got = got.unwrap();
                for q in 0..refs.len() {
                    assert_eq!(
                        as_pairs(got.matches(q)),
                        reference_topk(reference.scores(q), k),
                        "tied corpus, {path} top-{k}: {} q {q}",
                        kb.name
                    );
                }
            }
        }
    }
}
