//! Property test for the batch corpus-ingest path: a locked record
//! encoder's batch encode → push → top-1 search must agree with the
//! one-record-at-a-time path in both the cached and the on-the-fly
//! [`DeriveMode`].

use hdc_model::Encoder;
use hdlock::{DeriveMode, LockConfig, LockedEncoder};
use hypervec::{BinaryHv, HvRng, ShardedClassMemory};
use proptest::prelude::*;

fn top1(mem: &ShardedClassMemory, query: &BinaryHv) -> (usize, u64) {
    let hits = mem.search_topk_binary(&[query], 1).unwrap();
    let m = hits.matches(0)[0];
    (m.row, m.score.to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Record path, cached and on-the-fly: batch encoding feeds the same
    /// row memory as one-at-a-time encoding, and the heap top-1 agrees
    /// with the full-scan argmax either way.
    #[test]
    fn record_batch_ingest_matches_single_in_both_derive_modes(
        count in 1usize..=12,
        seed in any::<u64>(),
    ) {
        let mut rng = HvRng::from_seed(seed);
        let config = LockConfig {
            n_features: 12,
            m_levels: 6,
            dim: 1024,
            pool_size: 16,
            n_layers: 2,
        };
        let mut enc = LockedEncoder::generate(&mut rng, &config).unwrap();
        let rows: Vec<Vec<u16>> = (0..count)
            .map(|_| (0..12).map(|_| rng.index(6) as u16).collect())
            .collect();
        let refs: Vec<&[u16]> = rows.iter().map(Vec::as_slice).collect();
        let probe: Vec<u16> = (0..12).map(|_| rng.index(6) as u16).collect();

        let mut results = Vec::new();
        for mode in [DeriveMode::Cached, DeriveMode::OnTheFly] {
            enc.set_mode(mode);
            let batch = enc.encode_batch_binary(&refs);
            let singles: Vec<BinaryHv> =
                refs.iter().map(|r| enc.encode_binary(r)).collect();
            prop_assert_eq!(&batch, &singles, "mode {:?}", mode);

            let mut mem = ShardedClassMemory::new(config.dim);
            mem.reserve(batch.len());
            for hv in &batch {
                mem.push(hv).unwrap();
            }
            let q = enc.encode_binary(&probe);
            let best = top1(&mem, &q);

            // Heap top-1 == full-scan argmax (lowest index on ties).
            let full = mem.search_batch_binary(&[&q]).unwrap();
            let scores = full.scores(0);
            let argmax = (0..scores.len())
                .max_by(|&a, &b| scores[a].total_cmp(&scores[b]).then(b.cmp(&a)))
                .unwrap();
            prop_assert_eq!(best, (argmax, scores[argmax].to_bits()), "mode {:?}", mode);
            results.push(best);
        }
        // The two modes derive identical features, so the search result
        // must not depend on the mode either.
        prop_assert_eq!(results[0], results[1]);
    }
}
