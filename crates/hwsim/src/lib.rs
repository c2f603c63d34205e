//! # hdc-hwsim — cycle-level simulator of an FPGA HDC encoding datapath
//!
//! The HDLock paper measures encoding latency in clock cycles on a
//! Xilinx Zynq UltraScale+ running the segmented, pipelined QuantHD
//! datapath, and reports *relative* times (Fig. 9): a one-layer key is
//! free (permutation = shifted memory addressing) and each further key
//! layer adds ≈ 21 %.
//!
//! This crate reproduces that measurement with a reservation-table
//! pipeline simulator: hypervector streams are fetched through a
//! multi-port [`resources::StreamMemory`], feature hypervectors are
//! derived in a wide XOR bind array, and the accumulate/adder-tree path
//! streams at its own width ([`encode_sim::simulate_encode`]). Default
//! widths are calibrated so the simulated overhead matches the measured
//! curve; see [`HwConfig`] for the calibration argument.
//!
//! ## Example
//!
//! ```
//! use hdc_hwsim::{relative_encoding_times, HwConfig};
//!
//! let cfg = HwConfig::zynq_default();
//! let series = relative_encoding_times(&cfg, "mnist", 784, &[1, 2, 3]);
//! assert!((series.points[0].1 - 1.0).abs() < 1e-9);
//! assert!(series.points[1].1 > 1.15 && series.points[1].1 < 1.3);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod area;
pub mod batch;
pub mod config;
pub mod encode_sim;
pub mod report;
pub mod resources;
pub mod search_sim;

pub use area::{estimate_area, AreaEstimate};
pub use batch::{simulate_batch, BatchReport};
pub use config::HwConfig;
pub use encode_sim::{simulate_encode, EncodeReport};
pub use report::{cycles_to_micros, relative_encoding_times, RelativeTimeSeries};
pub use search_sim::{simulate_inference, simulate_search, InferenceReport, SearchReport};
