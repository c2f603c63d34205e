//! # hdc-model — the HDC classifier substrate
//!
//! A complete hyperdimensional-computing classification pipeline as
//! described in Sec. 2 of the HDLock paper: record-based **encoding**
//! (Eq. 2/3), single-pass **training** with class-hypervector bundling
//! (Eq. 4) plus QuantHD-style retraining, and similarity-comparison
//! **inference** (Hamming for binary models, cosine for non-binary).
//!
//! The [`Encoder`] trait is the seam HDLock plugs into: everything else
//! (training, inference, the attack oracle) is generic over it.
//!
//! ## Example
//!
//! ```
//! use hdc_datasets::Benchmark;
//! use hdc_model::{HdcConfig, HdcModel, ModelKind};
//!
//! let (train, test) = Benchmark::Pamap.generate(0.02, 1)?;
//! let config = HdcConfig::paper_default()
//!     .with_dim(2048)
//!     .with_kind(ModelKind::Binary);
//! let model = HdcModel::fit_standard(&config, &train)?;
//! let result = model.evaluate(&test)?;
//! assert!(result.accuracy > 0.3);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod classhv;
pub mod config;
pub mod encoder;
pub mod infer;
pub mod metrics;
pub mod model;
pub mod session;
pub mod train;

pub use classhv::ClassMemory;
pub use config::{HdcConfig, ModelKind};
pub use encoder::{Encoder, RecordEncoder};
pub use infer::{class_scores, classify, evaluate};
pub use metrics::{ConfusionMatrix, EvalResult, LatencyStats};
pub use model::HdcModel;
pub use session::{ClassifySession, OwnedSession};
pub use train::{encode_dataset, train};
