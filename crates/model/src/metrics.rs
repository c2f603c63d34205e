//! Evaluation metrics.

use serde::{Deserialize, Serialize};

/// A confusion matrix over `C` classes (rows = actual, columns =
/// predicted).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConfusionMatrix {
    counts: Vec<Vec<usize>>,
}

impl ConfusionMatrix {
    /// Creates an empty `C × C` matrix.
    ///
    /// # Panics
    ///
    /// Panics if `n_classes == 0`.
    #[must_use]
    pub fn new(n_classes: usize) -> Self {
        assert!(n_classes > 0, "need at least one class");
        ConfusionMatrix {
            counts: vec![vec![0; n_classes]; n_classes],
        }
    }

    /// Records one prediction.
    ///
    /// # Panics
    ///
    /// Panics if either label is out of range.
    pub fn record(&mut self, actual: usize, predicted: usize) {
        self.counts[actual][predicted] += 1;
    }

    /// Merges another confusion matrix into this one.
    ///
    /// # Panics
    ///
    /// Panics if class counts differ.
    pub fn merge(&mut self, other: &ConfusionMatrix) {
        assert_eq!(self.n_classes(), other.n_classes(), "class count mismatch");
        for (row, orow) in self.counts.iter_mut().zip(&other.counts) {
            for (c, oc) in row.iter_mut().zip(orow) {
                *c += oc;
            }
        }
    }

    /// Number of classes.
    #[must_use]
    pub fn n_classes(&self) -> usize {
        self.counts.len()
    }

    /// Total predictions recorded.
    #[must_use]
    pub fn total(&self) -> usize {
        self.counts.iter().flatten().sum()
    }

    /// Count in cell `(actual, predicted)`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[must_use]
    pub fn count(&self, actual: usize, predicted: usize) -> usize {
        self.counts[actual][predicted]
    }

    /// Overall accuracy in `[0, 1]`; 0.0 when empty.
    #[must_use]
    pub fn accuracy(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let correct: usize = (0..self.n_classes()).map(|j| self.counts[j][j]).sum();
        correct as f64 / total as f64
    }

    /// Recall of class `j` (`None` if the class has no samples).
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    #[must_use]
    pub fn recall(&self, j: usize) -> Option<f64> {
        let row_total: usize = self.counts[j].iter().sum();
        (row_total > 0).then(|| self.counts[j][j] as f64 / row_total as f64)
    }

    /// Precision of class `j` (`None` if nothing was predicted as `j`).
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    #[must_use]
    pub fn precision(&self, j: usize) -> Option<f64> {
        let col_total: usize = self.counts.iter().map(|row| row[j]).sum();
        (col_total > 0).then(|| self.counts[j][j] as f64 / col_total as f64)
    }
}

/// Result of evaluating a model on a dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvalResult {
    /// Overall accuracy in `[0, 1]`.
    pub accuracy: f64,
    /// Full confusion matrix.
    pub confusion: ConfusionMatrix,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_counts_diagonal() {
        let mut cm = ConfusionMatrix::new(2);
        cm.record(0, 0);
        cm.record(0, 1);
        cm.record(1, 1);
        cm.record(1, 1);
        assert_eq!(cm.total(), 4);
        assert!((cm.accuracy() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn recall_and_precision() {
        let mut cm = ConfusionMatrix::new(2);
        cm.record(0, 0);
        cm.record(0, 1);
        cm.record(1, 1);
        assert!((cm.recall(0).unwrap() - 0.5).abs() < 1e-12);
        assert!((cm.precision(1).unwrap() - 0.5).abs() < 1e-12);
        let empty = ConfusionMatrix::new(3);
        assert_eq!(empty.recall(2), None);
        assert_eq!(empty.precision(2), None);
    }

    #[test]
    fn empty_accuracy_is_zero() {
        assert_eq!(ConfusionMatrix::new(4).accuracy(), 0.0);
    }

    #[test]
    fn merge_adds_cells() {
        let mut a = ConfusionMatrix::new(2);
        a.record(0, 0);
        let mut b = ConfusionMatrix::new(2);
        b.record(0, 0);
        b.record(1, 0);
        a.merge(&b);
        assert_eq!(a.count(0, 0), 2);
        assert_eq!(a.count(1, 0), 1);
    }
}
