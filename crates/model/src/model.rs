//! High-level model façade tying encoder, training and inference.

use hdc_datasets::{Dataset, Discretizer, QuantizedDataset};
use hypervec::{HvError, HvRng};

use crate::classhv::ClassMemory;
use crate::config::HdcConfig;
use crate::encoder::{Encoder, RecordEncoder};
use crate::infer;
use crate::metrics::EvalResult;
use crate::session::OwnedSession;
use crate::train;

/// A complete HDC classifier: configuration, encoder, fitted quantizer
/// and trained class memory.
///
/// The generic parameter lets the same pipeline run on the standard
/// [`RecordEncoder`] or on HDLock's locked encoder.
///
/// # Examples
///
/// ```
/// use hdc_datasets::Benchmark;
/// use hdc_model::{HdcConfig, HdcModel};
///
/// let (train, test) = Benchmark::Pamap.generate(0.02, 3)?;
/// let config = HdcConfig::paper_default().with_dim(2048);
/// let model = HdcModel::fit_standard(&config, &train)?;
/// let result = model.evaluate(&test)?;
/// assert!(result.accuracy > 0.3);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct HdcModel<E = RecordEncoder> {
    config: HdcConfig,
    encoder: E,
    discretizer: Discretizer,
    memory: ClassMemory,
}

impl HdcModel<RecordEncoder> {
    /// Fits a standard (unprotected) HDC model on `train`: generates a
    /// fresh record encoder, fits the quantizer, trains and retrains.
    ///
    /// # Errors
    ///
    /// Propagates quantizer and hypervector-generation errors.
    pub fn fit_standard(
        config: &HdcConfig,
        train_ds: &Dataset,
    ) -> Result<Self, Box<dyn std::error::Error>> {
        let mut rng = HvRng::from_seed(config.seed);
        let encoder =
            RecordEncoder::generate(&mut rng, train_ds.n_features(), config.m_levels, config.dim)?;
        Self::fit_with_encoder(config, encoder, train_ds)
    }
}

impl<E: Encoder + Sync> HdcModel<E> {
    /// Assembles a model from already-built parts — the path a model
    /// thief takes after recovering an encoder.
    ///
    /// # Panics
    ///
    /// Panics if `config.kind` disagrees with `memory.kind()`: the
    /// model's session serves the memory's kind, while its snapshot
    /// records the config's, so the two would classify differently.
    #[must_use]
    pub fn from_parts(
        config: HdcConfig,
        encoder: E,
        discretizer: Discretizer,
        memory: ClassMemory,
    ) -> Self {
        assert_eq!(
            config.kind,
            memory.kind(),
            "config kind {:?} does not match class memory kind {:?}",
            config.kind,
            memory.kind()
        );
        HdcModel {
            config,
            encoder,
            discretizer,
            memory,
        }
    }

    /// Fits a model reusing an existing encoder (e.g. a locked one).
    ///
    /// # Errors
    ///
    /// Propagates quantizer errors.
    pub fn fit_with_encoder(
        config: &HdcConfig,
        encoder: E,
        train_ds: &Dataset,
    ) -> Result<Self, Box<dyn std::error::Error>> {
        let discretizer = Discretizer::fit(train_ds, config.m_levels)?;
        let train_q = discretizer.discretize(train_ds)?;
        let memory = train::train(&encoder, config, &train_q);
        Ok(HdcModel {
            config: *config,
            encoder,
            discretizer,
            memory,
        })
    }

    /// The model configuration.
    #[must_use]
    pub fn config(&self) -> &HdcConfig {
        &self.config
    }

    /// The encoding module.
    #[must_use]
    pub fn encoder(&self) -> &E {
        &self.encoder
    }

    /// The fitted quantizer.
    #[must_use]
    pub fn discretizer(&self) -> &Discretizer {
        &self.discretizer
    }

    /// The trained class memory.
    #[must_use]
    pub fn memory(&self) -> &ClassMemory {
        &self.memory
    }

    /// Predicts the class of one raw (continuous) feature vector by
    /// searching the packed class rows.
    ///
    /// # Panics
    ///
    /// Panics if the feature width does not match the training data.
    #[must_use]
    pub fn predict(&self, features: &[f32]) -> usize {
        let levels = self.discretizer.discretize_row(features);
        infer::classify(&self.encoder, &self.memory, &levels)
    }

    /// Evaluates accuracy on a raw dataset (quantizing with the training
    /// quantizer, exactly like the paper's pipeline).
    ///
    /// # Errors
    ///
    /// Returns an error if the dataset is incompatible with the fitted
    /// quantizer.
    pub fn evaluate(&self, dataset: &Dataset) -> Result<EvalResult, HvError> {
        if dataset.n_features() != self.discretizer.n_features() {
            return Err(HvError::DimensionMismatch {
                expected: self.discretizer.n_features(),
                found: dataset.n_features(),
            });
        }
        let q = self
            .discretizer
            .discretize(dataset)
            .map_err(|_| HvError::EmptyInput)?;
        Ok(self.evaluate_quantized(&q))
    }

    /// Evaluates accuracy on an already-quantized dataset.
    #[must_use]
    pub fn evaluate_quantized(&self, data: &QuantizedDataset) -> EvalResult {
        infer::evaluate(&self.encoder, &self.memory, data)
    }

    /// Builds a reusable batched inference session over this model's
    /// encoder and trained memory — the unit the serving layer and the
    /// attack harness drive.
    #[must_use]
    pub fn session(&self) -> OwnedSession<&E> {
        OwnedSession::new(&self.encoder, &self.memory)
    }

    /// Decomposes the model into its parts — the inverse of
    /// [`HdcModel::from_parts`], used to hand the encoder (which may not
    /// be `Clone`, e.g. a vault-holding locked encoder) to an owning
    /// session or a snapshot writer.
    #[must_use]
    pub fn into_parts(self) -> (HdcConfig, E, Discretizer, ClassMemory) {
        (self.config, self.encoder, self.discretizer, self.memory)
    }

    /// Consumes the model into an [`OwnedSession`] serving its encoder
    /// and trained memory's packed rows, moved in — the generation unit
    /// a model registry swaps.
    #[must_use]
    pub fn into_session(self) -> OwnedSession<E> {
        let kind = self.memory.kind();
        OwnedSession::from_packed(self.encoder, kind, self.memory.into_packed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelKind;
    use hdc_datasets::Benchmark;

    #[test]
    fn fit_and_evaluate_roundtrip() {
        let (train_ds, test_ds) = Benchmark::Face.generate(0.05, 11).unwrap();
        let config = HdcConfig::paper_default().with_dim(2048).with_seed(11);
        let model = HdcModel::fit_standard(&config, &train_ds).unwrap();
        let result = model.evaluate(&test_ds).unwrap();
        assert!(result.accuracy > 0.7, "accuracy {}", result.accuracy);
        // prediction agrees with evaluation path
        let s = &test_ds.samples()[0];
        let _ = model.predict(&s.features);
    }

    #[test]
    #[should_panic(expected = "does not match class memory kind")]
    fn from_parts_rejects_a_kind_mismatch() {
        let (train_ds, _) = Benchmark::Pamap.generate(0.02, 13).unwrap();
        let config = HdcConfig::paper_default().with_dim(256);
        let (config, encoder, discretizer, _) = HdcModel::fit_standard(&config, &train_ds)
            .unwrap()
            .into_parts();
        let flipped = match config.kind {
            ModelKind::Binary => ModelKind::NonBinary,
            ModelKind::NonBinary => ModelKind::Binary,
        };
        let memory = ClassMemory::new(flipped, 2, config.dim);
        let _ = HdcModel::from_parts(config, encoder, discretizer, memory);
    }

    #[test]
    fn evaluate_rejects_wrong_width() {
        let (train_ds, _) = Benchmark::Pamap.generate(0.02, 12).unwrap();
        let (other, _) = Benchmark::Face.generate(0.02, 12).unwrap();
        let config = HdcConfig::paper_default().with_dim(1024);
        let model = HdcModel::fit_standard(&config, &train_ds).unwrap();
        assert!(model.evaluate(&other).is_err());
    }
}
