//! Hardware configuration of the simulated FPGA encoding datapath.

use serde::{Deserialize, Serialize};

/// Parameters of the encoding datapath (modeled after the segmented,
/// pipelined, tree-structured QuantHD implementation the paper deploys
/// on a Zynq UltraScale+).
///
/// The paper does not publish the microarchitecture, only measured
/// relative clock-cycle counts (Fig. 9: `L = 1` costs the same as the
/// baseline, each further layer adds ≈ 21 %). Two structural facts pin
/// the model down:
///
/// * permutation is free (shifted memory addressing), so `L = 1` adds
///   no cycles;
/// * XOR binding is LUT-cheap while the accumulate path needs real
///   adders, so the bind array is several times wider than the
///   accumulate array — the default widths (2560 vs 512 bits/cycle)
///   give `bind_beats / acc_beats = 4/20 = 0.20` extra per layer,
///   calibrated to the paper's measured 21 %.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HwConfig {
    /// Hypervector dimensionality `D`.
    pub dim: usize,
    /// Accumulate-path width: dimensions processed per cycle by the
    /// bind-with-value + adder-tree stage.
    pub acc_width: usize,
    /// Bind-path width: dimensions XOR-combined per cycle when deriving
    /// a feature hypervector from base hypervectors.
    pub bind_width: usize,
    /// Read ports into the hypervector memory (streams served per beat).
    pub mem_ports: usize,
    /// Memory read latency in cycles (affects pipeline fill only).
    pub mem_latency: u64,
    /// Extra pipeline fill/drain cycles (adder-tree depth, sign unit).
    pub pipeline_fill: u64,
    /// Whether deriving feature `i+1`'s hypervector may overlap the
    /// accumulation of feature `i`. The paper's measured latencies
    /// correspond to the non-overlapped design (`false`); the overlapped
    /// variant is the ablation the `fig9` binary reports.
    pub overlap_derive: bool,
}

impl HwConfig {
    /// Default configuration calibrated against the paper's Fig. 9
    /// (`D = 10 000`).
    #[must_use]
    pub fn zynq_default() -> Self {
        HwConfig {
            dim: 10_000,
            acc_width: 512,
            bind_width: 2560,
            mem_ports: 4,
            mem_latency: 2,
            pipeline_fill: 16,
            overlap_derive: false,
        }
    }

    /// Returns a copy with a different dimensionality.
    #[must_use]
    pub fn with_dim(mut self, dim: usize) -> Self {
        self.dim = dim;
        self
    }

    /// Returns a copy with derive/accumulate overlap enabled.
    #[must_use]
    pub fn with_overlap(mut self, overlap: bool) -> Self {
        self.overlap_derive = overlap;
        self
    }

    /// Beats needed to stream one hypervector through the accumulate
    /// path.
    #[must_use]
    pub fn acc_beats(&self) -> u64 {
        self.dim.div_ceil(self.acc_width) as u64
    }

    /// Beats needed to XOR one pair of hypervectors in the bind array.
    #[must_use]
    pub fn bind_beats(&self) -> u64 {
        self.dim.div_ceil(self.bind_width) as u64
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.dim == 0 {
            return Err("dim must be positive");
        }
        if self.acc_width == 0 || self.bind_width == 0 {
            return Err("datapath widths must be positive");
        }
        if self.mem_ports == 0 {
            return Err("need at least one memory port");
        }
        Ok(())
    }
}

impl Default for HwConfig {
    fn default() -> Self {
        Self::zynq_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_beat_counts() {
        let cfg = HwConfig::zynq_default();
        assert_eq!(cfg.acc_beats(), 20); // 10000 / 512 → 20
        assert_eq!(cfg.bind_beats(), 4); // 10000 / 2560 → 4
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn calibration_gives_21_percent_per_layer() {
        let cfg = HwConfig::zynq_default();
        let per_layer = cfg.bind_beats() as f64 / cfg.acc_beats() as f64;
        assert!(
            (per_layer - 0.21).abs() < 0.02,
            "per-layer overhead {per_layer}"
        );
    }

    #[test]
    fn validation_catches_zeroes() {
        let mut cfg = HwConfig::zynq_default();
        cfg.dim = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = HwConfig::zynq_default();
        cfg.mem_ports = 0;
        assert!(cfg.validate().is_err());
    }
}
