//! Integration tests of the HDLock defense claims: parameter sweeps,
//! toy-scale exhaustive search, vault audit discipline and the paper's
//! headline complexity numbers.

use hdc_attack::{exhaustive_key_search, sweep_parameter, CountingOracle, LockProbe, SweptParam};
use hdc_model::{Encoder, ModelKind};
use hdlock::{
    derive_feature, hdlock_reasoning_guesses, standard_reasoning_guesses, BasePool, DeriveMode,
    EncodingKey, FeatureKey, LockConfig, LockedEncoder,
};
use hypervec::{HvRng, LevelHvs};

fn build_locked(seed: u64, cfg: &LockConfig) -> (LockedEncoder, EncodingKey, BasePool, LevelHvs) {
    let mut rng = HvRng::from_seed(seed);
    let pool = BasePool::generate(&mut rng, cfg.dim, cfg.pool_size);
    let values = LevelHvs::generate(&mut rng, cfg.dim, cfg.m_levels).unwrap();
    let key = EncodingKey::random(
        &mut rng,
        cfg.n_features,
        cfg.n_layers,
        cfg.pool_size,
        cfg.dim,
    )
    .unwrap();
    let enc = LockedEncoder::from_parts(pool.clone(), values.clone(), key.clone()).unwrap();
    (enc, key, pool, values)
}

#[test]
fn all_four_parameter_sweeps_separate_for_both_model_kinds() {
    let cfg = LockConfig {
        n_features: 63,
        m_levels: 8,
        dim: 4096,
        pool_size: 63,
        n_layers: 2,
    };
    for (seed, kind) in [(1u64, ModelKind::Binary), (2, ModelKind::NonBinary)] {
        let (enc, key, pool, values) = build_locked(seed, &cfg);
        let oracle = CountingOracle::new(&enc);
        let probe = LockProbe::capture(&oracle, &values, 0, kind).unwrap();
        for param in [
            SweptParam::Rotation { layer: 0 },
            SweptParam::BaseIndex { layer: 0 },
            SweptParam::Rotation { layer: 1 },
            SweptParam::BaseIndex { layer: 1 },
        ] {
            let sweep = sweep_parameter(&probe, &pool, key.feature(0), param, cfg.dim, 32).unwrap();
            assert_eq!(sweep.correct_score(), 0.0, "{kind} {param:?}");
            assert!(sweep.separates(0.15), "{kind} {param:?}");
        }
    }
}

#[test]
fn toy_exhaustive_search_recovers_key_and_counts_guesses() {
    let cfg = LockConfig {
        n_features: 7,
        m_levels: 4,
        dim: 96,
        pool_size: 5,
        n_layers: 1,
    };
    let (enc, key, pool, values) = build_locked(3, &cfg);
    let oracle = CountingOracle::new(&enc);
    let probe = LockProbe::capture(&oracle, &values, 2, ModelKind::NonBinary).unwrap();
    let (found, score, guesses) = exhaustive_key_search(&probe, &pool, cfg.dim, 1).unwrap();
    assert_eq!(guesses, 96 * 5, "exhaustive search covers exactly D·P keys");
    assert_eq!(score, 0.0);
    assert_eq!(
        derive_feature(&pool, &found, 2).unwrap(),
        derive_feature(&pool, key.feature(2), 2).unwrap()
    );
}

#[test]
fn exhaustive_cost_scales_as_complexity_model_predicts() {
    // The executed toy search and the analytic GuessCount must agree.
    let analytic = hdlock::hdlock_per_feature_guesses(96, 5, 1);
    assert_eq!(analytic.exact(), Some(480));
    let two_layer = hdlock::hdlock_per_feature_guesses(96, 5, 2);
    assert_eq!(two_layer.exact(), Some(480 * 480));
}

#[test]
fn paper_headline_numbers() {
    assert_eq!(standard_reasoning_guesses(784).to_string(), "6.15e5");
    assert_eq!(
        hdlock_reasoning_guesses(784, 10_000, 784, 1).to_string(),
        "6.15e9"
    );
    assert_eq!(
        hdlock_reasoning_guesses(784, 10_000, 784, 2).to_string(),
        "4.82e16"
    );
}

#[test]
fn vault_audit_tracks_privileged_access() {
    let cfg = LockConfig {
        n_features: 9,
        m_levels: 4,
        dim: 512,
        pool_size: 16,
        n_layers: 2,
    };
    let (mut enc, _, _, _) = build_locked(4, &cfg);
    assert_eq!(enc.vault().reads(), 1, "construction derives with one read");
    let row = vec![0u16; 9];
    let _ = enc.encode_binary(&row);
    assert_eq!(enc.vault().reads(), 1, "cached mode never re-reads");
    enc.set_mode(DeriveMode::OnTheFly);
    for _ in 0..5 {
        let _ = enc.encode_binary(&row);
    }
    assert_eq!(enc.vault().reads(), 6, "on-the-fly reads once per sample");
}

#[test]
fn probe_capture_is_cheap_in_oracle_queries() {
    let cfg = LockConfig {
        n_features: 33,
        m_levels: 4,
        dim: 1024,
        pool_size: 33,
        n_layers: 2,
    };
    let (enc, _, _, values) = build_locked(5, &cfg);
    let oracle = CountingOracle::new(&enc);
    let _ = LockProbe::capture(&oracle, &values, 0, ModelKind::Binary).unwrap();
    let _ = LockProbe::capture(&oracle, &values, 1, ModelKind::Binary).unwrap();
    assert_eq!(oracle.queries(), 4, "two queries per attacked feature");
}

#[test]
fn key_reuse_across_features_is_harmless_but_detectable_by_owner() {
    // Two features may share a key (random collision); their derived
    // hypervectors are then identical, which the owner can detect via
    // the equivalence stats. HDLock keygen does not forbid it, matching
    // the paper; this documents the behaviour.
    let mut rng = HvRng::from_seed(6);
    let pool = BasePool::generate(&mut rng, 256, 4);
    let values = LevelHvs::generate(&mut rng, 256, 4).unwrap();
    let fk = FeatureKey::new(vec![hdlock::LayerKey {
        base_index: 1,
        rotation: 7,
    }]);
    let key = EncodingKey::from_feature_keys(vec![fk.clone(), fk], 4, 256).unwrap();
    let enc = LockedEncoder::from_parts(pool, values, key).unwrap();
    let features: Vec<_> = enc
        .vault()
        .with_key(|key| {
            (0..2)
                .map(|i| hdlock::derive_feature(enc.pool(), key.feature(i), i).unwrap())
                .collect()
        })
        .unwrap();
    assert_eq!(features[0], features[1]);
    assert!(!hdlock::is_quasi_orthogonal(&features, 0.1));
}
