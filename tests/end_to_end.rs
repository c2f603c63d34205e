//! Cross-crate integration tests: the full victim→attacker pipeline and
//! the defense's accuracy-preservation claim, spanning every workspace
//! crate.

use hdc_attack::{
    duplicate_model, mapping_accuracy, reason_encoding, CountingOracle, EncodingOracle,
    FeatureExtractOptions, SessionOracle, StandardDump,
};
use hdc_datasets::{Benchmark, Discretizer};
use hdc_model::{evaluate, train, ClassifySession, Encoder, HdcConfig, HdcModel, ModelKind};
use hdc_store::{KeySegment, ModelRegistry, ModelSnapshot};
use hdlock::{DeriveMode, LockConfig, LockedEncoder};
use hypervec::HvRng;

fn small_config(kind: ModelKind, seed: u64) -> HdcConfig {
    HdcConfig {
        dim: 4096,
        m_levels: 16,
        kind,
        epochs: 2,
        learning_rate: 1,
        seed,
    }
}

#[test]
fn attack_steals_binary_model_end_to_end() {
    let (train_ds, test_ds) = Benchmark::Pamap.generate(0.1, 21).unwrap();
    let config = small_config(ModelKind::Binary, 21);
    let victim = HdcModel::fit_standard(&config, &train_ds).unwrap();
    let original = victim.evaluate(&test_ds).unwrap().accuracy;
    assert!(
        original > 0.5,
        "victim must be a useful model, got {original}"
    );

    let mut rng = HvRng::from_seed(99);
    let (dump, truth) = StandardDump::from_encoder(victim.encoder(), &mut rng);
    let oracle = CountingOracle::new(victim.encoder());
    let recovered = reason_encoding(
        &oracle,
        &dump,
        ModelKind::Binary,
        FeatureExtractOptions::default(),
    )
    .unwrap();
    assert_eq!(mapping_accuracy(&recovered, &truth), 1.0);

    let stolen = duplicate_model(&victim, &dump, &recovered).unwrap();
    let stolen_acc = stolen.evaluate(&test_ds).unwrap().accuracy;
    assert!((stolen_acc - original).abs() < 1e-12);
}

#[test]
fn attack_steals_nonbinary_model_end_to_end() {
    let (train_ds, test_ds) = Benchmark::Face.generate(0.1, 22).unwrap();
    let config = small_config(ModelKind::NonBinary, 22);
    let victim = HdcModel::fit_standard(&config, &train_ds).unwrap();
    let original = victim.evaluate(&test_ds).unwrap().accuracy;

    let mut rng = HvRng::from_seed(98);
    let (dump, truth) = StandardDump::from_encoder(victim.encoder(), &mut rng);
    let oracle = CountingOracle::new(victim.encoder());
    let recovered = reason_encoding(
        &oracle,
        &dump,
        ModelKind::NonBinary,
        FeatureExtractOptions::default(),
    )
    .unwrap();
    assert_eq!(mapping_accuracy(&recovered, &truth), 1.0);

    let stolen = duplicate_model(&victim, &dump, &recovered).unwrap();
    assert!((stolen.evaluate(&test_ds).unwrap().accuracy - original).abs() < 1e-12);
}

#[test]
fn locked_model_preserves_accuracy_fig8_claim() {
    // Fig. 8: accuracy is flat in L. Train the same task with L = 0
    // (unprotected baseline) and L ∈ {1, 2, 3}; deltas must be small.
    let (train_ds, test_ds) = Benchmark::Pamap.generate(0.15, 23).unwrap();
    let config = small_config(ModelKind::Binary, 23);
    let disc = Discretizer::fit(&train_ds, config.m_levels).unwrap();
    let train_q = disc.discretize(&train_ds).unwrap();
    let test_q = disc.discretize(&test_ds).unwrap();

    let mut accs = Vec::new();
    for layers in 0..=3usize {
        let mut rng = HvRng::from_seed(5000 + layers as u64);
        let lock_cfg = LockConfig {
            n_features: train_q.n_features(),
            m_levels: config.m_levels,
            dim: config.dim,
            pool_size: train_q.n_features(),
            n_layers: layers,
        };
        let encoder = LockedEncoder::generate(&mut rng, &lock_cfg).unwrap();
        let memory = train(&encoder, &config, &train_q);
        accs.push(evaluate(&encoder, &memory, &test_q).accuracy);
    }
    let baseline = accs[0];
    assert!(baseline > 0.5, "baseline too weak: {baseline}");
    for (l, &acc) in accs.iter().enumerate() {
        assert!(
            (acc - baseline).abs() < 0.1,
            "L = {l} accuracy {acc} deviates from baseline {baseline}"
        );
    }
}

#[test]
fn locked_encoder_modes_agree_in_full_pipeline() {
    let (train_ds, _) = Benchmark::Pamap.generate(0.05, 24).unwrap();
    let config = small_config(ModelKind::Binary, 24);
    let disc = Discretizer::fit(&train_ds, config.m_levels).unwrap();
    let train_q = disc.discretize(&train_ds).unwrap();
    let lock_cfg = LockConfig {
        n_features: train_q.n_features(),
        m_levels: config.m_levels,
        dim: config.dim,
        pool_size: 2 * train_q.n_features(),
        n_layers: 2,
    };
    let mut rng = HvRng::from_seed(25);
    let mut encoder = LockedEncoder::generate(&mut rng, &lock_cfg).unwrap();
    let cached = train(&encoder, &config, &train_q);
    encoder.set_mode(DeriveMode::OnTheFly);
    let on_the_fly = train(&encoder, &config, &train_q);
    assert_eq!(
        cached, on_the_fly,
        "derivation mode must not change results"
    );
    assert!(encoder.vault().reads() > 0);
}

#[test]
fn standard_and_locked_share_the_encoder_seam() {
    // The Encoder trait is the seam: one generic function serves both.
    fn dim_of<E: Encoder>(e: &E) -> usize {
        e.dim()
    }
    let mut rng = HvRng::from_seed(26);
    let standard = hdc_model::RecordEncoder::generate(&mut rng, 8, 4, 512).unwrap();
    let locked = LockedEncoder::generate(
        &mut rng,
        &LockConfig {
            n_features: 8,
            m_levels: 4,
            dim: 512,
            pool_size: 16,
            n_layers: 2,
        },
    )
    .unwrap();
    assert_eq!(dim_of(&standard), 512);
    assert_eq!(dim_of(&locked), 512);
}

#[test]
fn session_oracle_drives_a_registry_generation() {
    // The attacker's oracle over the session production serves: a
    // registry generation's `ServingSession`, loaded from a locked
    // snapshot and its key segment.
    let (train_ds, _) = Benchmark::Pamap.generate(0.05, 27).unwrap();
    let config = small_config(ModelKind::Binary, 27);
    let n = train_ds.n_features();
    let mut rng = HvRng::from_seed(27);
    let encoder = LockedEncoder::generate(
        &mut rng,
        &LockConfig {
            n_features: n,
            m_levels: config.m_levels,
            dim: config.dim,
            pool_size: n,
            n_layers: 2,
        },
    )
    .unwrap();
    let model = HdcModel::fit_with_encoder(&config, encoder, &train_ds).unwrap();
    let key = KeySegment::from_locked_encoder(model.encoder()).unwrap();
    let registry =
        ModelRegistry::from_snapshot(ModelSnapshot::from_locked_model(&model), Some(&key)).unwrap();
    let generation = registry.current();
    let session = generation.session();
    let oracle = SessionOracle::new(session);

    let rows: Vec<Vec<u16>> = (0..7)
        .map(|s| (0..n).map(|i| ((s * 5 + i) % 16) as u16).collect())
        .collect();
    let refs: Vec<&[u16]> = rows.iter().map(Vec::as_slice).collect();
    assert_eq!(oracle.classify_batch(&refs), session.classify_batch(&refs));
    assert_eq!(oracle.queries(), 7, "one query per classified row");
    assert_eq!(
        oracle.query_binary_batch(&refs),
        session.encoder().encode_batch_binary(&refs)
    );
    assert_eq!(
        oracle.query_int_batch(&refs),
        session.encoder().encode_batch_int(&refs)
    );
    assert_eq!(oracle.queries(), 21, "one query per encoded row");
}
