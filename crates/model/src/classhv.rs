//! Class hypervector storage.

use hypervec::{BinaryHv, BundleAccumulator, IntHv, ShardedClassMemory};
use serde::{Deserialize, Serialize};

use crate::config::ModelKind;

/// The trained state of an HDC classifier: one integer accumulator per
/// class (paper Eq. 4) plus, for binary models, the binarized snapshot
/// used at inference time.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClassMemory {
    kind: ModelKind,
    accs: Vec<BundleAccumulator>,
    bins: Vec<BinaryHv>,
}

impl ClassMemory {
    /// Creates an empty class memory for `n_classes` classes of
    /// dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `n_classes == 0` or `dim == 0`.
    #[must_use]
    pub fn new(kind: ModelKind, n_classes: usize, dim: usize) -> Self {
        assert!(n_classes > 0, "need at least one class");
        ClassMemory {
            kind,
            accs: (0..n_classes)
                .map(|_| BundleAccumulator::new(dim))
                .collect(),
            bins: (0..n_classes).map(|_| BinaryHv::ones(dim)).collect(),
        }
    }

    /// Model kind this memory serves.
    #[must_use]
    pub fn kind(&self) -> ModelKind {
        self.kind
    }

    /// Number of classes `C`.
    #[must_use]
    pub fn n_classes(&self) -> usize {
        self.accs.len()
    }

    /// Hypervector dimensionality `D`.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.accs[0].dim()
    }

    /// Mutable access to the accumulator of class `j` (training only).
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn acc_mut(&mut self, j: usize) -> &mut BundleAccumulator {
        &mut self.accs[j]
    }

    /// The integer class hypervector of class `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    #[must_use]
    pub fn class_int(&self, j: usize) -> &IntHv {
        self.accs[j].sums()
    }

    /// The binarized class hypervector of class `j` (refresh with
    /// [`ClassMemory::rebinarize`] after training updates).
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    #[must_use]
    pub fn class_binary(&self, j: usize) -> &BinaryHv {
        &self.bins[j]
    }

    /// Recomputes every binarized snapshot from the accumulators.
    pub fn rebinarize(&mut self) {
        for (bin, acc) in self.bins.iter_mut().zip(&self.accs) {
            *bin = acc.sums().sign_ties_positive();
        }
    }

    /// Recomputes the binarized snapshot of a single class.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn rebinarize_class(&mut self, j: usize) {
        self.bins[j] = self.accs[j].sums().sign_ties_positive();
    }

    /// Number of training samples currently bundled into class `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    #[must_use]
    pub fn count(&self, j: usize) -> usize {
        self.accs[j].count()
    }

    /// All binarized class rows, in class order.
    #[must_use]
    pub fn binary_rows(&self) -> &[BinaryHv] {
        &self.bins
    }

    /// Validates internal shape consistency against an expected
    /// dimension — the deserialization guard: derived decoding cannot
    /// check cross-field invariants, so untrusted snapshots are
    /// re-checked here, naming the offending class index in the
    /// [`hypervec::HvError::RowDimensionMismatch`] style.
    ///
    /// # Errors
    ///
    /// Returns [`hypervec::HvError::EmptyInput`] for a class-less memory,
    /// [`hypervec::HvError::DimensionMismatch`] when accumulator and binarized row
    /// *counts* disagree, and [`hypervec::HvError::RowDimensionMismatch`] naming
    /// the first class whose accumulator or binarized row has the wrong
    /// dimension.
    pub fn check_consistent(&self, expected_dim: usize) -> Result<(), hypervec::HvError> {
        use hypervec::HvError;
        if self.accs.is_empty() {
            return Err(HvError::EmptyInput);
        }
        if self.bins.len() != self.accs.len() {
            return Err(HvError::DimensionMismatch {
                expected: self.accs.len(),
                found: self.bins.len(),
            });
        }
        for (j, acc) in self.accs.iter().enumerate() {
            if acc.dim() != expected_dim {
                return Err(HvError::RowDimensionMismatch {
                    row: j,
                    expected: expected_dim,
                    found: acc.dim(),
                });
            }
        }
        for (j, bin) in self.bins.iter().enumerate() {
            if bin.dim() != expected_dim {
                return Err(HvError::RowDimensionMismatch {
                    row: j,
                    expected: expected_dim,
                    found: bin.dim(),
                });
            }
        }
        Ok(())
    }

    /// Packs a search-ready snapshot of the current class rows — the
    /// representation an [`OwnedSession`](crate::session::OwnedSession)
    /// and the retraining loop classify against. The binarized rows are
    /// always packed as popcount planes; the integer accumulator rows
    /// (cosine search) are attached only for non-binary memories, since
    /// a binary model's query path never reads them. The snapshot does
    /// not track later accumulator updates; refresh touched rows with
    /// [`ShardedClassMemory::update_row`] /
    /// [`ShardedClassMemory::update_int_row`].
    #[must_use]
    pub fn to_sharded(&self) -> ShardedClassMemory {
        let mut sharded = ShardedClassMemory::from_rows(&self.bins)
            .expect("class memory rows share one dimension by construction");
        if self.kind == ModelKind::NonBinary {
            let ints: Vec<IntHv> = self.accs.iter().map(|a| a.sums().clone()).collect();
            sharded
                .set_int_rows(&ints)
                .expect("accumulators share the binarized rows' dimension");
        }
        sharded
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypervec::HvRng;

    #[test]
    fn starts_empty() {
        let cm = ClassMemory::new(ModelKind::Binary, 3, 64);
        assert_eq!(cm.n_classes(), 3);
        assert_eq!(cm.dim(), 64);
        assert_eq!(cm.count(0), 0);
    }

    #[test]
    fn accumulate_and_rebinarize() {
        let mut rng = HvRng::from_seed(1);
        let hv = rng.binary_hv(128);
        let mut cm = ClassMemory::new(ModelKind::Binary, 2, 128);
        cm.acc_mut(0).add(&hv);
        cm.rebinarize();
        assert_eq!(cm.class_binary(0), &hv);
        assert_eq!(cm.count(0), 1);
        assert_eq!(cm.count(1), 0);
    }

    #[test]
    fn sharded_snapshot_matches_rows() {
        let mut rng = HvRng::from_seed(3);
        let a = rng.binary_hv(130);
        let b = rng.binary_hv(130);
        // Binary memories pack only the popcount planes.
        let mut cm = ClassMemory::new(ModelKind::Binary, 2, 130);
        cm.acc_mut(0).add(&a);
        cm.acc_mut(1).add(&b);
        cm.rebinarize();
        let sharded = cm.to_sharded();
        assert_eq!(sharded.n_rows(), 2);
        assert_eq!(sharded.dim(), 130);
        assert!(!sharded.has_int_rows());
        assert_eq!(sharded.search_binary(&a).unwrap(), (0, 0));
        // Non-binary memories additionally attach the integer rows.
        let mut cm = ClassMemory::new(ModelKind::NonBinary, 2, 130);
        cm.acc_mut(0).add(&a);
        cm.acc_mut(1).add(&b);
        cm.rebinarize();
        let sharded = cm.to_sharded();
        assert!(sharded.has_int_rows());
        assert_eq!(sharded.search_int(&b.to_int()).unwrap().0, 1);
    }

    #[test]
    fn check_consistent_names_offending_dimension() {
        let cm = ClassMemory::new(ModelKind::Binary, 3, 64);
        assert!(cm.check_consistent(64).is_ok());
        // Every class is "wrong" against a different expected dim; the
        // error must name the first one.
        assert_eq!(
            cm.check_consistent(128).unwrap_err(),
            hypervec::HvError::RowDimensionMismatch {
                row: 0,
                expected: 128,
                found: 64
            }
        );
    }

    #[test]
    fn class_int_tracks_sums() {
        let mut rng = HvRng::from_seed(2);
        let a = rng.binary_hv(64);
        let mut cm = ClassMemory::new(ModelKind::NonBinary, 1, 64);
        cm.acc_mut(0).add(&a);
        cm.acc_mut(0).add(&a);
        for i in 0..64 {
            assert_eq!(cm.class_int(0).get(i), 2 * i32::from(a.polarity(i)));
        }
    }
}
