//! # hdc-datasets — benchmark data substrate for the HDLock reproduction
//!
//! The HDLock paper evaluates on MNIST, UCIHAR, FACE, ISOLET and PAMAP.
//! This crate provides deterministic **synthetic stand-ins** with the
//! same feature counts, class counts and value ranges (the claims under
//! test depend on those, not on the samples), plus the plumbing an HDC
//! pipeline needs: min–max [`Discretizer`] quantization into `M` levels,
//! stratified splits, summary statistics and a CSV loader so real data
//! can be dropped in unchanged.
//!
//! ## Example
//!
//! ```
//! use hdc_datasets::{Benchmark, Discretizer};
//!
//! let (train, test) = Benchmark::Pamap.generate(0.02, 42)?;
//! let disc = Discretizer::fit(&train, 16)?;
//! let train_q = disc.discretize(&train)?;
//! assert_eq!(train_q.n_features(), 75);
//! assert_eq!(train_q.m_levels(), 16);
//! assert_eq!(test.n_classes(), 5);
//! # Ok::<(), hdc_datasets::DataError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod benchmarks;
pub mod error;
pub mod loader;
pub mod quantize;
pub mod schema;
pub mod split;
pub mod stats;
pub mod synth;

pub use benchmarks::Benchmark;
pub use error::DataError;
pub use loader::{load_csv_file, load_csv_str};
pub use quantize::Discretizer;
pub use schema::{Dataset, QuantizedDataset, Sample};
pub use split::stratified_split;
pub use stats::FeatureStats;
pub use synth::SynthSpec;
