//! Training: single-pass bundling plus QuantHD-style retraining.
//!
//! Initial training sums each class's encoded samples into a class
//! hypervector (paper Eq. 4). Retraining then iterates over the training
//! set: each misclassified sample is *added* to its true class
//! accumulator and *subtracted* from the wrongly predicted one, scaled
//! by an integer learning rate — the "retraining rounds and learning
//! rate" hyperparameter tuning the paper cites from QuantHD as part of
//! what makes a trained model valuable IP.
//!
//! The retraining rounds classify against the memory they update: its
//! packed class rows (the same planes and kernels inference and serving
//! use), with the two rows a misclassification touched rewritten in
//! place. The kernels are bit-identical to a scalar one-row-at-a-time
//! scan, which `tests/search_session_equivalence.rs` re-runs as the
//! reference.

use hdc_datasets::QuantizedDataset;
use hypervec::{BinaryHv, IntHv};

use crate::classhv::ClassMemory;
use crate::config::{HdcConfig, ModelKind};
use crate::encoder::Encoder;

/// A sample pre-encoded in the representation its model kind trains on.
#[derive(Debug, Clone)]
pub enum EncodedSample {
    /// Binary model: binarized encoding.
    Binary(BinaryHv),
    /// Non-binary model: integer encoding.
    Int(IntHv),
}

/// Encodes the whole training set once through the encoder's batch path
/// (word-parallel engine + chunked fan-out).
///
/// Training touches every sample `1 + epochs` times; pre-encoding makes
/// each pass an O(D) accumulator update instead of an O(N·D) re-encode.
#[must_use]
pub fn encode_dataset<E: Encoder + Sync>(
    encoder: &E,
    kind: ModelKind,
    data: &QuantizedDataset,
) -> Vec<EncodedSample> {
    let rows: Vec<&[u16]> = (0..data.len()).map(|i| data.row(i)).collect();
    match kind {
        ModelKind::Binary => encoder
            .encode_batch_binary(&rows)
            .into_iter()
            .map(EncodedSample::Binary)
            .collect(),
        ModelKind::NonBinary => encoder
            .encode_batch_int(&rows)
            .into_iter()
            .map(EncodedSample::Int)
            .collect(),
    }
}

/// Trains a class memory from scratch on `data`.
///
/// Runs the single bundling pass and then `config.epochs` retraining
/// rounds with `config.learning_rate`.
///
/// # Panics
///
/// Panics if the encoder and dataset disagree on feature count or the
/// dataset labels exceed its declared class count (dataset construction
/// prevents the latter).
#[must_use]
pub fn train<E: Encoder + Sync>(
    encoder: &E,
    config: &HdcConfig,
    data: &QuantizedDataset,
) -> ClassMemory {
    assert_eq!(
        encoder.n_features(),
        data.n_features(),
        "encoder expects {} features, dataset has {}",
        encoder.n_features(),
        data.n_features()
    );
    let encoded = encode_dataset(encoder, config.kind, data);
    let mut memory = ClassMemory::new(config.kind, data.n_classes(), encoder.dim());

    // Single-pass bundling (Eq. 4).
    for (i, enc) in encoded.iter().enumerate() {
        let label = data.label(i);
        match enc {
            EncodedSample::Binary(hv) => memory.acc_mut(label).add(hv),
            EncodedSample::Int(hv) => memory.acc_mut(label).add_int(hv),
        }
    }
    memory.rebinarize();

    // Retraining rounds, classifying against the memory they update.
    for _ in 0..config.epochs {
        let mut any_update = false;
        for (i, enc) in encoded.iter().enumerate() {
            let label = data.label(i);
            let packed = memory.packed();
            let predicted = match enc {
                EncodedSample::Binary(hv) => {
                    packed
                        .search_binary(hv)
                        .expect("memory matches encoded dimension")
                        .0
                }
                EncodedSample::Int(hv) => {
                    packed
                        .search_int(hv)
                        .expect("memory matches encoded dimension")
                        .0
                }
            };
            if predicted != label {
                any_update = true;
                match enc {
                    EncodedSample::Binary(hv) => {
                        memory
                            .acc_mut(label)
                            .adjust_binary(hv, config.learning_rate);
                        memory
                            .acc_mut(predicted)
                            .adjust_binary(hv, -config.learning_rate);
                    }
                    EncodedSample::Int(hv) => {
                        memory.acc_mut(label).adjust_int(hv, config.learning_rate);
                        memory
                            .acc_mut(predicted)
                            .adjust_int(hv, -config.learning_rate);
                    }
                }
                memory.rebinarize_class(label);
                memory.rebinarize_class(predicted);
            }
        }
        if !any_update {
            break; // converged
        }
    }
    // The rows are current; refreshing them all once more re-attaches a
    // non-binary memory's integer rows whole, so a served model keeps
    // the lossless i16 search path its in-place updates may have cleared.
    memory.rebinarize();
    memory
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::RecordEncoder;
    use crate::infer;
    use hdc_datasets::{Benchmark, Discretizer};
    use hypervec::HvRng;

    fn setup(kind: ModelKind) -> (RecordEncoder, HdcConfig, QuantizedDataset, QuantizedDataset) {
        let (train_ds, test_ds) = Benchmark::Pamap.generate(0.1, 7).unwrap();
        let config = HdcConfig {
            dim: 2048,
            m_levels: 8,
            kind,
            epochs: 3,
            learning_rate: 1,
            seed: 7,
        };
        let disc = Discretizer::fit(&train_ds, config.m_levels).unwrap();
        let train_q = disc.discretize(&train_ds).unwrap();
        let test_q = disc.discretize(&test_ds).unwrap();
        let mut rng = HvRng::from_seed(config.seed);
        let enc =
            RecordEncoder::generate(&mut rng, train_q.n_features(), config.m_levels, config.dim)
                .unwrap();
        (enc, config, train_q, test_q)
    }

    #[test]
    fn binary_model_learns_synthetic_task() {
        let (enc, config, train_q, test_q) = setup(ModelKind::Binary);
        let memory = train(&enc, &config, &train_q);
        let result = infer::evaluate(&enc, &memory, &test_q);
        assert!(
            result.accuracy > 0.6,
            "binary accuracy too low: {}",
            result.accuracy
        );
    }

    #[test]
    fn nonbinary_model_learns_synthetic_task() {
        let (enc, config, train_q, test_q) = setup(ModelKind::NonBinary);
        let memory = train(&enc, &config, &train_q);
        let result = infer::evaluate(&enc, &memory, &test_q);
        assert!(
            result.accuracy > 0.6,
            "non-binary accuracy too low: {}",
            result.accuracy
        );
    }

    #[test]
    fn retraining_does_not_hurt_training_accuracy() {
        let (enc, mut config, train_q, _) = setup(ModelKind::Binary);
        config.epochs = 0;
        let single = train(&enc, &config, &train_q);
        config.epochs = 3;
        let retrained = train(&enc, &config, &train_q);
        let acc_single = infer::evaluate(&enc, &single, &train_q).accuracy;
        let acc_retrained = infer::evaluate(&enc, &retrained, &train_q).accuracy;
        assert!(
            acc_retrained >= acc_single - 0.02,
            "retraining regressed: {acc_single} -> {acc_retrained}"
        );
    }

    #[test]
    fn class_counts_match_training_data() {
        let (enc, config, train_q, _) = setup(ModelKind::Binary);
        let memory = train(&enc, &config, &train_q);
        // single-pass adds exactly one bundle entry per sample
        let bundled: usize = (0..memory.n_classes()).map(|j| memory.count(j)).sum();
        assert_eq!(bundled, train_q.len());
    }

    #[test]
    fn training_is_deterministic() {
        let (enc, config, train_q, _) = setup(ModelKind::Binary);
        let a = train(&enc, &config, &train_q);
        let b = train(&enc, &config, &train_q);
        assert_eq!(a, b);
    }
}
