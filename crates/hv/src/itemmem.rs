//! Item memory: an indexed store of same-dimension hypervectors.
//!
//! The encoding module of an HDC model keeps its feature and value
//! hypervectors in an item memory. The *index* (which row corresponds to
//! which feature) is exactly the mapping information HDLock protects; the
//! rows themselves live in ordinary memory and are considered public in
//! the paper's threat model.

use serde::{Deserialize, Serialize};

use crate::binary::BinaryHv;
use crate::error::HvError;
use crate::rng::HvRng;

/// An ordered collection of same-dimension hypervectors.
///
/// # Examples
///
/// ```
/// use hypervec::{HvRng, ItemMemory};
///
/// let mut rng = HvRng::from_seed(7);
/// let mem = ItemMemory::random(&mut rng, 10_000, 20);
/// assert_eq!(mem.len(), 20);
/// // Random rows are quasi-orthogonal (paper Eq. 1a).
/// let d = mem.get(3)?.normalized_hamming(mem.get(4)?);
/// assert!((d - 0.5).abs() < 0.05);
/// # Ok::<(), hypervec::HvError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(try_from = "Vec<BinaryHv>", into = "Vec<BinaryHv>")]
pub struct ItemMemory {
    rows: Vec<BinaryHv>,
    dim: usize,
}

impl From<ItemMemory> for Vec<BinaryHv> {
    fn from(m: ItemMemory) -> Self {
        m.rows
    }
}

impl TryFrom<Vec<BinaryHv>> for ItemMemory {
    type Error = HvError;

    /// Deserialization path: re-runs [`ItemMemory::from_rows`]
    /// validation so malformed snapshots are rejected.
    fn try_from(rows: Vec<BinaryHv>) -> Result<Self, Self::Error> {
        ItemMemory::from_rows(rows)
    }
}

impl ItemMemory {
    /// Creates an empty memory for hypervectors of dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    #[must_use]
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "item memory dimension must be positive");
        ItemMemory {
            rows: Vec::new(),
            dim,
        }
    }

    /// Creates a memory of `count` random (quasi-orthogonal) rows.
    #[must_use]
    pub fn random(rng: &mut HvRng, dim: usize, count: usize) -> Self {
        let mut mem = Self::new(dim);
        for hv in rng.orthogonal_pool(dim, count) {
            mem.push(hv).expect("generated rows share the dimension");
        }
        mem
    }

    /// Wraps existing rows.
    ///
    /// # Errors
    ///
    /// Returns [`HvError::EmptyInput`] when `rows` is empty, or
    /// [`HvError::RowDimensionMismatch`] naming the first row whose
    /// dimension disagrees with row 0.
    pub fn from_rows(rows: Vec<BinaryHv>) -> Result<Self, HvError> {
        let first = rows.first().ok_or(HvError::EmptyInput)?;
        let dim = first.dim();
        for (i, r) in rows.iter().enumerate() {
            if r.dim() != dim {
                return Err(HvError::RowDimensionMismatch {
                    row: i,
                    expected: dim,
                    found: r.dim(),
                });
            }
        }
        Ok(ItemMemory { rows, dim })
    }

    /// Appends a row.
    ///
    /// # Errors
    ///
    /// Returns [`HvError::RowDimensionMismatch`] (carrying the index the
    /// row would have had) if the row has the wrong dimension.
    pub fn push(&mut self, hv: BinaryHv) -> Result<(), HvError> {
        if hv.dim() != self.dim {
            return Err(HvError::RowDimensionMismatch {
                row: self.rows.len(),
                expected: self.dim,
                found: hv.dim(),
            });
        }
        self.rows.push(hv);
        Ok(())
    }

    /// Number of rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the memory holds no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Hypervector dimension of the rows.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Row `i`.
    ///
    /// # Errors
    ///
    /// Returns [`HvError::IndexOutOfRange`] for an invalid index.
    pub fn get(&self, i: usize) -> Result<&BinaryHv, HvError> {
        self.rows.get(i).ok_or(HvError::IndexOutOfRange {
            index: i,
            len: self.rows.len(),
        })
    }

    /// All rows in order.
    #[must_use]
    pub fn rows(&self) -> &[BinaryHv] {
        &self.rows
    }

    /// Iterator over rows.
    pub fn iter(&self) -> std::slice::Iter<'_, BinaryHv> {
        self.rows.iter()
    }

    /// The elementwise sum of all rows, kept as raw counters.
    ///
    /// The attack's Eq. 5/6 uses `sign(Σ FeaHV_i)`; the sum is reusable,
    /// so we expose the intermediate (C-INTERMEDIATE).
    ///
    /// # Errors
    ///
    /// Returns [`HvError::EmptyInput`] if the memory is empty.
    pub fn sum(&self) -> Result<crate::IntHv, HvError> {
        if self.rows.is_empty() {
            return Err(HvError::EmptyInput);
        }
        let mut acc = crate::IntHv::zeros(self.dim);
        for row in &self.rows {
            acc.add_binary(row);
        }
        Ok(acc)
    }

    /// Returns a copy of this memory with rows shuffled by a random
    /// permutation, together with the permutation used: `shuffled[i] =
    /// original[perm[i]]`.
    ///
    /// This is the "unindexed hypervector memory" an attacker can dump in
    /// the paper's threat model: the rows are intact but their mapping to
    /// features is hidden.
    #[must_use]
    pub fn shuffled(&self, rng: &mut HvRng) -> (ItemMemory, Vec<usize>) {
        let perm = rng.shuffled_indices(self.rows.len());
        let rows = perm.iter().map(|&i| self.rows[i].clone()).collect();
        (
            ItemMemory {
                rows,
                dim: self.dim,
            },
            perm,
        )
    }
}

impl<'a> IntoIterator for &'a ItemMemory {
    type Item = &'a BinaryHv;
    type IntoIter = std::slice::Iter<'a, BinaryHv>;

    fn into_iter(self) -> Self::IntoIter {
        self.rows.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get() {
        let mut rng = HvRng::from_seed(1);
        let mut mem = ItemMemory::new(64);
        assert!(mem.is_empty());
        let hv = rng.binary_hv(64);
        mem.push(hv.clone()).unwrap();
        assert_eq!(mem.len(), 1);
        assert_eq!(mem.get(0).unwrap(), &hv);
        assert!(mem.get(1).is_err());
    }

    #[test]
    fn push_rejects_wrong_dim() {
        let mut rng = HvRng::from_seed(2);
        let mut mem = ItemMemory::new(64);
        assert_eq!(
            mem.push(rng.binary_hv(65)).unwrap_err(),
            HvError::RowDimensionMismatch {
                row: 0,
                expected: 64,
                found: 65
            }
        );
        mem.push(rng.binary_hv(64)).unwrap();
        // The reported index is where the rejected row would have gone.
        assert_eq!(
            mem.push(rng.binary_hv(65)).unwrap_err(),
            HvError::RowDimensionMismatch {
                row: 1,
                expected: 64,
                found: 65
            }
        );
    }

    #[test]
    fn sum_matches_manual() {
        let mut rng = HvRng::from_seed(4);
        let mem = ItemMemory::random(&mut rng, 128, 5);
        let sum = mem.sum().unwrap();
        for i in 0..128 {
            let manual: i32 = mem.iter().map(|r| i32::from(r.polarity(i))).sum();
            assert_eq!(sum.get(i), manual);
        }
    }

    #[test]
    fn shuffle_permutes_rows() {
        let mut rng = HvRng::from_seed(5);
        let mem = ItemMemory::random(&mut rng, 256, 40);
        let (shuf, perm) = mem.shuffled(&mut rng);
        assert_eq!(shuf.len(), 40);
        for (i, &src) in perm.iter().enumerate() {
            assert_eq!(shuf.get(i).unwrap(), mem.get(src).unwrap());
        }
        // not the identity with overwhelming probability
        assert_ne!(perm, (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn from_rows_validates() {
        let mut rng = HvRng::from_seed(6);
        let a = rng.binary_hv(10);
        let b = rng.binary_hv(11);
        assert_eq!(
            ItemMemory::from_rows(vec![]).unwrap_err(),
            HvError::EmptyInput
        );
        assert_eq!(
            ItemMemory::from_rows(vec![a.clone(), b]).unwrap_err(),
            HvError::RowDimensionMismatch {
                row: 1,
                expected: 10,
                found: 11
            }
        );
        assert!(ItemMemory::from_rows(vec![a]).is_ok());
    }
}
