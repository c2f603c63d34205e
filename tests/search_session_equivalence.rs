//! Property tests: the fused session pipeline (batch encode → sharded
//! batch search) is bit-identical to the scalar per-sample pipeline
//! (`encode_*` + one-row-at-a-time scan) for both model kinds and both
//! encoders, across non-word-aligned dimensions (130) and the
//! paper-scale D = 10 000, including tie-breaking order. Training is
//! pinned the same way: `train` must land on the accumulators that a
//! scalar re-run of Eq. 4 bundling and the retraining rounds computes.

use hdc_datasets::{Benchmark, Discretizer, QuantizedDataset};
use hdc_model::{
    infer, ClassMemory, ClassifySession, Encoder, HdcConfig, ModelKind, OwnedSession, RecordEncoder,
};
use hdlock::{DeriveMode, LockConfig, LockedEncoder};
use hypervec::{BinaryHv, BundleAccumulator, HvRng, IntHv};
use proptest::prelude::*;

/// Dimensions exercising word boundaries plus the paper scale.
fn dims() -> impl Strategy<Value = usize> {
    prop_oneof![Just(130usize), 200usize..=260, Just(1024), Just(10_000)]
}

fn kinds() -> impl Strategy<Value = ModelKind> {
    prop_oneof![Just(ModelKind::Binary), Just(ModelKind::NonBinary)]
}

/// A deterministic batch of quantized rows.
fn rows(n_features: usize, m_levels: usize, count: usize, seed: u64) -> Vec<Vec<u16>> {
    let mut rng = HvRng::from_seed(seed);
    (0..count)
        .map(|_| {
            (0..n_features)
                .map(|_| rng.index(m_levels) as u16)
                .collect()
        })
        .collect()
}

/// Builds a small trained memory by bundling the first rows per class.
fn memory_from<E: Encoder>(encoder: &E, kind: ModelKind, c: usize, seed: u64) -> ClassMemory {
    let mut memory = ClassMemory::new(kind, c, encoder.dim());
    let protos = rows(encoder.n_features(), encoder.m_levels(), 2 * c, seed);
    for (i, p) in protos.iter().enumerate() {
        memory.acc_mut(i % c).add(&encoder.encode_binary(p));
    }
    memory.rebinarize();
    memory
}

/// Scalar per-sample pipeline: the pre-refactor classify path.
fn scalar_classify<E: Encoder>(
    encoder: &E,
    memory: &ClassMemory,
    kind: ModelKind,
    row: &[u16],
) -> usize {
    match kind {
        ModelKind::Binary => {
            infer::classify_binary_hv(&memory.binary_rows(), &encoder.encode_binary(row))
        }
        ModelKind::NonBinary => infer::classify_int_hv(memory, &encoder.encode_int(row)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn record_session_matches_scalar_pipeline(
        d in dims(),
        kind in kinds(),
        c in 2usize..=8,
        seed in any::<u64>(),
    ) {
        let mut rng = HvRng::from_seed(seed);
        let enc = RecordEncoder::generate(&mut rng, 6, 4, d).unwrap();
        let memory = memory_from(&enc, kind, c, seed ^ 1);
        let session = OwnedSession::new(&enc, &memory);
        let batch_rows = rows(6, 4, 11, seed ^ 2);
        let refs: Vec<&[u16]> = batch_rows.iter().map(Vec::as_slice).collect();
        let fused = session.classify_batch(&refs);
        for (i, row) in refs.iter().enumerate() {
            prop_assert_eq!(
                fused[i],
                scalar_classify(&enc, &memory, kind, row),
                "{:?} D={} row {}", kind, d, i
            );
        }
        // Full score vectors bit-equal to the per-query score path.
        let hits = session.scores_batch(&refs);
        for (i, row) in refs.iter().enumerate() {
            let want = infer::class_scores(&enc, &memory, row);
            for (j, &s) in hits.scores(i).iter().enumerate() {
                prop_assert_eq!(s.to_bits(), want[j].to_bits(), "row {} class {}", i, j);
            }
        }
    }

    #[test]
    fn locked_session_matches_scalar_pipeline_in_both_modes(
        kind in kinds(),
        layers in 1usize..=2,
        seed in any::<u64>(),
    ) {
        let cfg = LockConfig {
            n_features: 5,
            m_levels: 4,
            dim: 130,
            pool_size: 9,
            n_layers: layers,
        };
        let mut rng = HvRng::from_seed(seed);
        let mut enc = LockedEncoder::generate(&mut rng, &cfg).unwrap();
        let memory = memory_from(&enc, kind, 3, seed ^ 3);
        let batch_rows = rows(5, 4, 9, seed ^ 4);
        let refs: Vec<&[u16]> = batch_rows.iter().map(Vec::as_slice).collect();
        for mode in [DeriveMode::Cached, DeriveMode::OnTheFly] {
            enc.set_mode(mode);
            let session = OwnedSession::new(&enc, &memory);
            let fused = session.classify_batch(&refs);
            for (i, row) in refs.iter().enumerate() {
                prop_assert_eq!(
                    fused[i],
                    scalar_classify(&enc, &memory, kind, row),
                    "{:?} {:?} row {}", kind, mode, i
                );
            }
        }
    }

    #[test]
    fn tie_breaking_matches_with_duplicate_classes(
        kind in kinds(),
        seed in any::<u64>(),
    ) {
        // Two identical class rows: the session must keep the scalar
        // scan's lowest-index preference.
        let mut rng = HvRng::from_seed(seed);
        let enc = RecordEncoder::generate(&mut rng, 5, 4, 130).unwrap();
        let proto = rows(5, 4, 1, seed ^ 5).remove(0);
        let mut memory = ClassMemory::new(kind, 3, 130);
        let hv = enc.encode_binary(&proto);
        memory.acc_mut(0).add(&hv);
        memory.acc_mut(1).add(&hv);
        memory.acc_mut(2).add(&rng.binary_hv(130));
        memory.rebinarize();
        let session = OwnedSession::new(&enc, &memory);
        for row in rows(5, 4, 7, seed ^ 6) {
            let want = scalar_classify(&enc, &memory, kind, &row);
            prop_assert_eq!(session.classify(&row), want);
        }
    }
}

/// A PAMAP-shaped training set quantized at 8 levels, with a record
/// encoder of dimension `dim` and a config of `kind` and `epochs = 2`.
fn training_setup(
    kind: ModelKind,
    dim: usize,
    seed: u64,
) -> (RecordEncoder, HdcConfig, QuantizedDataset) {
    let (train_ds, _) = Benchmark::Pamap.generate(0.05, seed).unwrap();
    let config = HdcConfig {
        dim,
        m_levels: 8,
        kind,
        epochs: 2,
        learning_rate: 1,
        seed,
    };
    let disc = Discretizer::fit(&train_ds, config.m_levels).unwrap();
    let train_q = disc.discretize(&train_ds).unwrap();
    let mut rng = HvRng::from_seed(seed);
    let enc = RecordEncoder::generate(&mut rng, train_q.n_features(), 8, dim).unwrap();
    (enc, config, train_q)
}

/// Eq. 4 bundling and the retraining rounds, re-run from scratch with
/// per-row `encode_*` and one-row-at-a-time scans: Hamming over
/// `sign(acc)` for binary models, cosine over the accumulators for
/// non-binary ones, lowest index on ties. Returns each class's
/// accumulator and the number of retraining updates made.
fn reference_train<E: Encoder>(
    encoder: &E,
    config: &HdcConfig,
    data: &QuantizedDataset,
) -> (Vec<BundleAccumulator>, usize) {
    let mut accs: Vec<BundleAccumulator> = (0..data.n_classes())
        .map(|_| BundleAccumulator::new(encoder.dim()))
        .collect();
    let binary = config.kind == ModelKind::Binary;
    let bins: Vec<BinaryHv> = (0..data.len())
        .map(|i| encoder.encode_binary(data.row(i)))
        .collect();
    let ints: Vec<IntHv> = (0..data.len())
        .map(|i| encoder.encode_int(data.row(i)))
        .collect();
    for i in 0..data.len() {
        if binary {
            accs[data.label(i)].add(&bins[i]);
        } else {
            accs[data.label(i)].add_int(&ints[i]);
        }
    }
    let mut updates = 0;
    for _ in 0..config.epochs {
        let before = updates;
        for i in 0..data.len() {
            let label = data.label(i);
            let predicted = if binary {
                let mut best = (0, usize::MAX);
                for (j, acc) in accs.iter().enumerate() {
                    let d = acc.sums().sign_ties_positive().hamming(&bins[i]);
                    if d < best.1 {
                        best = (j, d);
                    }
                }
                best.0
            } else {
                let mut best = (0, f64::NEG_INFINITY);
                for (j, acc) in accs.iter().enumerate() {
                    let s = acc.sums().cosine(&ints[i]);
                    if s > best.1 {
                        best = (j, s);
                    }
                }
                best.0
            };
            if predicted != label {
                updates += 1;
                let lr = config.learning_rate;
                if binary {
                    accs[label].adjust_binary(&bins[i], lr);
                    accs[predicted].adjust_binary(&bins[i], -lr);
                } else {
                    accs[label].adjust_int(&ints[i], lr);
                    accs[predicted].adjust_int(&ints[i], -lr);
                }
            }
        }
        if updates == before {
            break; // converged
        }
    }
    (accs, updates)
}

/// `train` lands exactly where the scalar reference loop does: the same
/// integer class rows and bundle counts, for both kinds, at a
/// non-word-aligned dimension and at D = 1024.
#[test]
fn training_matches_scalar_reference() {
    for kind in [ModelKind::Binary, ModelKind::NonBinary] {
        for dim in [130, 1024] {
            let (enc, config, train_q) = training_setup(kind, dim, 33);
            let memory = hdc_model::train(&enc, &config, &train_q);
            let (accs, updates) = reference_train(&enc, &config, &train_q);
            assert!(updates > 0, "{kind:?} D={dim}: retraining never ran");
            assert_eq!(memory.n_classes(), accs.len());
            for (j, acc) in accs.iter().enumerate() {
                assert_eq!(
                    memory.class_int(j),
                    acc.sums(),
                    "{kind:?} D={dim} class {j}"
                );
                assert_eq!(memory.count(j), acc.count(), "{kind:?} D={dim} class {j}");
            }
        }
    }
}

/// Retraining is deterministic for both kinds and keeps the model
/// accurate on its own training set.
#[test]
fn retrained_models_stay_deterministic_across_kinds() {
    for (kind, seed) in [(ModelKind::Binary, 31u64), (ModelKind::NonBinary, 32u64)] {
        let (enc, config, train_q) = training_setup(kind, 1024, seed);
        let a = hdc_model::train(&enc, &config, &train_q);
        let b = hdc_model::train(&enc, &config, &train_q);
        assert_eq!(a, b, "{kind:?} training must stay deterministic");
        let accuracy = infer::evaluate(&enc, &a, &train_q).accuracy;
        assert!(
            accuracy > 0.6,
            "{kind:?} training accuracy collapsed: {accuracy}"
        );
    }
}
