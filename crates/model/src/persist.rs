//! Model persistence: JSON save/load for standard-encoder models.
//!
//! The serialized form contains everything the paper's threat model
//! treats as the model owner's IP — feature and value hypervectors
//! *with their index mapping*, class hypervectors and the quantizer —
//! which is exactly why such a file must never leave a trusted
//! environment unprotected.

use hdc_datasets::Discretizer;
use hypervec::{ItemMemory, LevelHvs};
use serde::{Deserialize, Serialize};

use crate::classhv::ClassMemory;
use crate::config::HdcConfig;
use crate::encoder::RecordEncoder;
use crate::model::HdcModel;

/// Serializable snapshot of a trained standard-encoder model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SavedModel {
    /// Hyperparameters.
    pub config: HdcConfig,
    /// Feature hypervectors in index order.
    pub features: ItemMemory,
    /// Value hypervectors in level order.
    pub values: LevelHvs,
    /// Fitted quantizer.
    pub discretizer: Discretizer,
    /// Trained class memory.
    pub memory: ClassMemory,
}

/// Error raised by model (de)serialization.
#[derive(Debug)]
pub struct PersistError {
    message: String,
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "model persistence failed: {}", self.message)
    }
}

impl std::error::Error for PersistError {}

impl From<serde_json::Error> for PersistError {
    fn from(e: serde_json::Error) -> Self {
        PersistError {
            message: e.to_string(),
        }
    }
}

impl HdcModel<RecordEncoder> {
    /// Serializes the complete model to JSON.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError`] on serialization failure.
    pub fn to_json(&self) -> Result<String, PersistError> {
        let saved = SavedModel {
            config: *self.config(),
            features: self.encoder().features(),
            values: self.encoder().values().clone(),
            discretizer: self.discretizer().clone(),
            memory: self.memory().clone(),
        };
        Ok(serde_json::to_string(&saved)?)
    }

    /// Restores a model from its JSON snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError`] on malformed input or inconsistent
    /// hypervector shapes. Shape errors name the offending row/class
    /// index in the `RowDimensionMismatch` style of
    /// [`hypervec::ItemMemory`] — "which row is wrong", not just "the
    /// shapes disagree".
    pub fn from_json(json: &str) -> Result<Self, PersistError> {
        let saved: SavedModel = serde_json::from_str(json)?;
        let dim = saved.features.dim();
        if saved.config.dim != dim {
            return Err(PersistError {
                message: format!(
                    "config dimension {} does not match feature rows of dimension {dim}",
                    saved.config.dim
                ),
            });
        }
        saved
            .memory
            .check_consistent(dim)
            .map_err(|e| PersistError {
                message: format!("class memory: {e}"),
            })?;
        if saved.discretizer.n_features() != saved.features.len() {
            return Err(PersistError {
                message: format!(
                    "discretizer covers {} features, feature memory stores {}",
                    saved.discretizer.n_features(),
                    saved.features.len()
                ),
            });
        }
        let encoder =
            RecordEncoder::from_parts(saved.features, saved.values).map_err(|e| PersistError {
                message: e.to_string(),
            })?;
        Ok(HdcModel::from_parts(
            saved.config,
            encoder,
            saved.discretizer,
            saved.memory,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc_datasets::Benchmark;

    #[test]
    fn model_roundtrips_through_json() {
        let (train_ds, test_ds) = Benchmark::Pamap.generate(0.05, 31).unwrap();
        let config = HdcConfig::paper_default().with_dim(1024).with_seed(31);
        let model = HdcModel::fit_standard(&config, &train_ds).unwrap();
        let json = model.to_json().unwrap();
        let restored = HdcModel::from_json(&json).unwrap();
        // bit-identical behaviour
        let a = model.evaluate(&test_ds).unwrap();
        let b = restored.evaluate(&test_ds).unwrap();
        assert_eq!(a, b);
        for s in test_ds.samples().iter().take(5) {
            assert_eq!(model.predict(&s.features), restored.predict(&s.features));
        }
    }

    #[test]
    fn malformed_json_is_rejected() {
        assert!(HdcModel::from_json("{not json").is_err());
        assert!(HdcModel::from_json("{}").is_err());
    }

    #[test]
    fn tampered_class_row_is_rejected_naming_the_class() {
        let (train_ds, _) = Benchmark::Pamap.generate(0.03, 33).unwrap();
        let config = HdcConfig::paper_default().with_dim(512).with_seed(33);
        let model = HdcModel::fit_standard(&config, &train_ds).unwrap();
        let json = model.to_json().unwrap();
        // Truncate the binarized row of class 1 to half the dimension:
        // the error must name class 1, not just "shapes disagree".
        let mut v: serde_json::Value = serde_json::from_str(&json).unwrap();
        let bins = v["memory"]["bins"].as_array().unwrap().to_vec();
        let mut short = bins.clone();
        short[1] = serde_json::from_str("{\"bits\":{\"words\":[0,0,0,0],\"len\":256}}").unwrap();
        v["memory"]["bins"] = serde_json::Value::Array(short);
        let err = HdcModel::from_json(&v.to_string()).unwrap_err().to_string();
        assert!(err.contains("row 1"), "error should name class 1: {err}");
        assert!(err.contains("512") && err.contains("256"), "{err}");
    }

    #[test]
    fn mismatched_config_dim_is_rejected() {
        let (train_ds, _) = Benchmark::Pamap.generate(0.03, 34).unwrap();
        let config = HdcConfig::paper_default().with_dim(512).with_seed(34);
        let model = HdcModel::fit_standard(&config, &train_ds).unwrap();
        let json = model.to_json().unwrap();
        let mut v: serde_json::Value = serde_json::from_str(&json).unwrap();
        v["config"]["dim"] = serde_json::from_str("1024").unwrap();
        let err = HdcModel::from_json(&v.to_string()).unwrap_err().to_string();
        assert!(err.contains("1024") && err.contains("512"), "{err}");
    }

    #[test]
    fn tampered_shapes_are_rejected() {
        let (train_ds, _) = Benchmark::Pamap.generate(0.03, 32).unwrap();
        let config = HdcConfig::paper_default().with_dim(512).with_seed(32);
        let model = HdcModel::fit_standard(&config, &train_ds).unwrap();
        let json = model.to_json().unwrap();
        // break the value family: drop all levels but one (validated
        // deserialization must reject a single-level family)
        let mut v: serde_json::Value = serde_json::from_str(&json).unwrap();
        let levels = v["values"].as_array().unwrap()[..1].to_vec();
        v["values"] = serde_json::Value::Array(levels);
        let err = HdcModel::from_json(&v.to_string()).unwrap_err();
        assert!(err.to_string().contains("persistence failed"));
    }
}
