//! Class hypervector storage.
//!
//! A [`ClassMemory`] is the associative memory of paper Eq. 4: one
//! integer accumulator per class beside the class rows, which live only
//! in a packed [`ShardedClassMemory`] — the sign rows for Hamming
//! search and, for a non-binary model, the i32 rows for cosine search.
//! Training updates the accumulators and writes each touched row back
//! into the planes in place; inference, sessions and snapshots take the
//! planes as they are.

use hypervec::{BinaryHv, BundleAccumulator, IntHv, ShardedClassMemory};

use crate::config::ModelKind;

/// The trained state of an HDC classifier: one integer accumulator per
/// class (paper Eq. 4) and the packed class rows every search runs on.
#[derive(Debug, Clone)]
pub struct ClassMemory {
    kind: ModelKind,
    accs: Vec<BundleAccumulator>,
    packed: ShardedClassMemory,
}

/// Two memories are equal when they serve the same kind from the same
/// accumulators: the packed rows are a function of those once refreshed
/// ([`ClassMemory::rebinarize`]).
impl PartialEq for ClassMemory {
    fn eq(&self, other: &Self) -> bool {
        self.kind == other.kind && self.accs == other.accs
    }
}

impl Eq for ClassMemory {}

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
        let packed = ShardedClassMemory::from_rows(&vec![BinaryHv::ones(dim); n_classes])
            .expect("class rows share one dimension");
        let mut memory = ClassMemory {
            kind,
            accs: vec![BundleAccumulator::new(dim); n_classes],
            packed,
        };
        // Attaches a non-binary memory's (zero) integer rows.
        memory.rebinarize();
        memory
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
        self.packed.dim()
    }

    /// Mutable access to the accumulator of class `j` (training only).
    /// The packed rows do not follow: refresh them with
    /// [`ClassMemory::rebinarize_class`] or [`ClassMemory::rebinarize`].
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn acc_mut(&mut self, j: usize) -> &mut BundleAccumulator {
        &mut self.accs[j]
    }

    /// The integer class hypervector of class `j`: its accumulator.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    #[must_use]
    pub fn class_int(&self, j: usize) -> &IntHv {
        self.accs[j].sums()
    }

    /// Refreshes every packed row from the accumulators: the sign rows
    /// in place and, for a non-binary memory, the integer rows
    /// re-attached whole, which also recomputes whether they narrow to
    /// i16 losslessly (in-place row updates can only clear that flag).
    pub fn rebinarize(&mut self) {
        for j in 0..self.accs.len() {
            self.packed
                .update_row(j, &self.accs[j].sums().sign_ties_positive())
                .expect("accumulators share the packed rows' dimension");
        }
        if self.kind == ModelKind::NonBinary {
            let rows: Vec<IntHv> = self.accs.iter().map(|a| a.sums().clone()).collect();
            self.packed
                .set_int_rows(&rows)
                .expect("accumulators share the packed rows' dimension");
        }
    }

    /// Refreshes the packed row of class `j` in place: its sign row
    /// and, for a non-binary memory, its integer row.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn rebinarize_class(&mut self, j: usize) {
        let sums = self.accs[j].sums();
        self.packed
            .update_row(j, &sums.sign_ties_positive())
            .expect("accumulators share the packed rows' dimension");
        if self.kind == ModelKind::NonBinary {
            self.packed
                .update_int_row(j, sums)
                .expect("accumulators share the packed rows' dimension");
        }
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

    /// Every class's sign row `sign(acc)` (ties to +1), computed from
    /// the accumulators rather than read from the packed planes — the
    /// rows the scalar reference scans compare against.
    #[must_use]
    pub fn binary_rows(&self) -> Vec<BinaryHv> {
        self.accs
            .iter()
            .map(|a| a.sums().sign_ties_positive())
            .collect()
    }

    /// The packed class rows: the popcount planes, plus the integer
    /// planes of a non-binary memory. Sessions, snapshots and the
    /// retraining loop search these.
    #[must_use]
    pub fn packed(&self) -> &ShardedClassMemory {
        &self.packed
    }

    /// Consumes the memory into its packed class rows.
    #[must_use]
    pub fn into_packed(self) -> ShardedClassMemory {
        self.packed
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
        assert_eq!(cm.binary_rows()[0], hv);
        cm.rebinarize();
        assert_eq!(cm.packed().binary_row(0), hv);
        assert_eq!(cm.count(0), 1);
        assert_eq!(cm.count(1), 0);
    }

    #[test]
    fn packed_rows_match_the_accumulators() {
        let mut rng = HvRng::from_seed(3);
        let a = rng.binary_hv(130);
        let b = rng.binary_hv(130);
        // Binary memories pack only the popcount planes.
        let mut cm = ClassMemory::new(ModelKind::Binary, 2, 130);
        cm.acc_mut(0).add(&a);
        cm.acc_mut(1).add(&b);
        cm.rebinarize();
        let packed = cm.packed();
        assert_eq!(packed.n_rows(), 2);
        assert_eq!(packed.dim(), 130);
        assert!(!packed.has_int_rows());
        assert_eq!(packed.search_binary(&a).unwrap(), (0, 0));
        // Non-binary memories additionally carry the integer rows, and
        // a one-class refresh rewrites both of that class's rows.
        let mut cm = ClassMemory::new(ModelKind::NonBinary, 2, 130);
        cm.acc_mut(0).add(&a);
        cm.acc_mut(1).add(&b);
        cm.rebinarize_class(0);
        cm.rebinarize_class(1);
        let packed = cm.clone().into_packed();
        assert!(packed.has_int_rows());
        assert_eq!(packed.search_int(&b.to_int()).unwrap().0, 1);
        for j in 0..2 {
            assert_eq!(packed.binary_row(j), cm.binary_rows()[j]);
            assert_eq!(&packed.int_row(j), cm.class_int(j));
        }
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
