//! Property-based integration tests: the attack's recovery guarantees
//! and the defense's scoring behaviour across randomized shapes.

use hdc_attack::{
    mapping_accuracy, reason_encoding, rebuild_encoder, CountingOracle, FeatureExtractOptions,
    LockProbe, StandardDump,
};
use hdc_model::{Encoder, ModelKind, RecordEncoder};
use hdlock::{BasePool, EncodingKey, FeatureKey, LockConfig, LockedEncoder};
use hypervec::{HvRng, LevelHvs};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The reasoning attack recovers the exact mapping for any
    /// (reasonable) encoder shape and either model kind.
    #[test]
    fn attack_recovers_any_standard_encoder(
        seed in 0u64..1000,
        n in 5usize..40,
        m in 2usize..10,
        kind_binary in any::<bool>(),
    ) {
        let d = 2048;
        let kind = if kind_binary { ModelKind::Binary } else { ModelKind::NonBinary };
        let mut rng = HvRng::from_seed(seed);
        let enc = RecordEncoder::generate(&mut rng, n, m, d).unwrap();
        let (dump, truth) = StandardDump::from_encoder(&enc, &mut rng);
        let oracle = CountingOracle::new(&enc);
        let recovered = reason_encoding(&oracle, &dump, kind, FeatureExtractOptions::default())
            .unwrap();
        prop_assert_eq!(mapping_accuracy(&recovered, &truth), 1.0);

        // rebuilt encoder is bit-identical on a random probe row
        let rebuilt = rebuild_encoder(&dump, &recovered).unwrap();
        let row: Vec<u16> = (0..n).map(|i| ((seed as usize + i) % m) as u16).collect();
        prop_assert_eq!(rebuilt.encode_binary(&row), enc.encode_binary(&row));
    }

    /// The attack stays within its O(N²) guess budget.
    #[test]
    fn attack_guess_budget(seed in 0u64..1000, n in 5usize..30) {
        let mut rng = HvRng::from_seed(seed);
        let enc = RecordEncoder::generate(&mut rng, n, 4, 1024).unwrap();
        let (dump, _) = StandardDump::from_encoder(&enc, &mut rng);
        let oracle = CountingOracle::new(&enc);
        let recovered = reason_encoding(
            &oracle,
            &dump,
            ModelKind::Binary,
            FeatureExtractOptions::default(),
        )
        .unwrap();
        // value phase ≤ m² + m + 2, feature phase ≤ n(n+1)/2
        let bound = (4 * 4 + 4 + 2 + n * (n + 1) / 2) as u64;
        prop_assert!(recovered.stats.guesses <= bound);
        prop_assert_eq!(recovered.stats.oracle_queries, n as u64 + 1);
    }

    /// Against HDLock, the correct key always scores 0 and a key that is
    /// wrong in one parameter never does.
    #[test]
    fn lock_probe_scores_are_sound(
        seed in 0u64..1000,
        n in 5usize..25,
        layers in 1usize..4,
        kind_binary in any::<bool>(),
    ) {
        let kind = if kind_binary { ModelKind::Binary } else { ModelKind::NonBinary };
        let cfg = LockConfig { n_features: n, m_levels: 4, dim: 4096, pool_size: 2 * n, n_layers: layers };
        let mut rng = HvRng::from_seed(seed);
        let pool = BasePool::generate(&mut rng, cfg.dim, cfg.pool_size);
        let values = LevelHvs::generate(&mut rng, cfg.dim, cfg.m_levels).unwrap();
        let key = EncodingKey::random(&mut rng, n, layers, cfg.pool_size, cfg.dim).unwrap();
        let enc = LockedEncoder::from_parts(pool.clone(), values.clone(), key.clone()).unwrap();
        let oracle = CountingOracle::new(&enc);
        let probe = LockProbe::capture(&oracle, &values, 0, kind).unwrap();
        prop_assert!(probe.support() > 0);

        let correct = probe.score(&pool, key.feature(0)).unwrap();
        prop_assert_eq!(correct, 0.0);

        let mut wrong_layers = key.feature(0).layers().to_vec();
        wrong_layers[0].rotation = (wrong_layers[0].rotation + 1 + (seed as usize % 97)) % cfg.dim;
        let wrong = probe.score(&pool, &FeatureKey::new(wrong_layers)).unwrap();
        prop_assert!(wrong > 0.1, "wrong key scored {wrong}");
    }

    /// Derived feature hypervectors never lose dimensionality or
    /// balance, whatever the key.
    #[test]
    fn derived_features_stay_balanced(seed in 0u64..1000, layers in 1usize..5) {
        let cfg = LockConfig { n_features: 6, m_levels: 4, dim: 10_000, pool_size: 12, n_layers: layers };
        let mut rng = HvRng::from_seed(seed);
        let enc = LockedEncoder::generate(&mut rng, &cfg).unwrap();
        let features: Vec<_> = enc
            .vault()
            .with_key(|key| {
                (0..6)
                    .map(|i| hdlock::derive_feature(enc.pool(), key.feature(i), i).unwrap())
                    .collect()
            })
            .unwrap();
        for (i, hv) in features.iter().enumerate() {
            let neg = hv.count_negative();
            // 5σ window of Binomial(10000, 0.5)
            prop_assert!((4750..=5250).contains(&neg), "feature {i}: {neg}");
        }
    }
}
