//! Bipolar (binary) hypervectors.
//!
//! A [`BinaryHv`] is a vector in `{+1, −1}^D` stored one bit per
//! dimension: a **set bit encodes −1**, a clear bit encodes +1. Under
//! this encoding the bipolar elementwise product is a word-wise XOR and
//! the Hamming distance is a popcount, which is what makes HDC fast on
//! commodity hardware and FPGAs.

use serde::{Deserialize, Serialize};

use crate::bitvec::BitWords;
use crate::dense::IntHv;

/// A bipolar hypervector in `{+1, −1}^D`, bit-packed.
///
/// # Examples
///
/// Binding (elementwise multiplication) is self-inverse:
///
/// ```
/// use hypervec::{BinaryHv, HvRng};
///
/// let mut rng = HvRng::from_seed(1);
/// let a = rng.binary_hv(1000);
/// let b = rng.binary_hv(1000);
/// let bound = a.bind(&b);
/// assert_eq!(bound.bind(&b), a);
/// assert_eq!(a.hamming(&a), 0);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BinaryHv {
    bits: BitWords,
}

impl BinaryHv {
    /// The all-`+1` hypervector of dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    #[must_use]
    pub fn ones(dim: usize) -> Self {
        BinaryHv {
            bits: BitWords::zeros(dim),
        }
    }

    /// Builds a hypervector from a sign predicate: `f(i) == true` means
    /// dimension `i` is −1.
    #[must_use]
    pub fn from_fn(dim: usize, f: impl FnMut(usize) -> bool) -> Self {
        BinaryHv {
            bits: BitWords::from_fn(dim, f),
        }
    }

    /// Wraps raw bit storage (set bit ⇔ −1).
    #[must_use]
    pub fn from_bits(bits: BitWords) -> Self {
        BinaryHv { bits }
    }

    /// Builds from bipolar values.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty or contains anything other than ±1.
    #[must_use]
    pub fn from_polarities(values: &[i8]) -> Self {
        assert!(!values.is_empty(), "polarity slice must be non-empty");
        BinaryHv {
            bits: BitWords::from_fn(values.len(), |i| match values[i] {
                1 => false,
                -1 => true,
                v => panic!("polarity must be ±1, got {v} at index {i}"),
            }),
        }
    }

    /// Dimensionality `D`.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.bits.len()
    }

    /// The bipolar value (+1 or −1) at dimension `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.dim()`.
    #[inline]
    #[must_use]
    pub fn polarity(&self, i: usize) -> i8 {
        if self.bits.get(i) {
            -1
        } else {
            1
        }
    }

    /// Flips the sign of dimension `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.dim()`.
    pub fn flip(&mut self, i: usize) {
        self.bits.flip(i);
    }

    /// Number of −1 entries.
    #[must_use]
    pub fn count_negative(&self) -> usize {
        self.bits.count_ones()
    }

    /// Borrows the underlying bit storage.
    #[must_use]
    pub fn bits(&self) -> &BitWords {
        &self.bits
    }

    /// Elementwise bipolar product (the HDC *bind* operation, XOR on the
    /// bit representation).
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    #[must_use]
    pub fn bind(&self, other: &Self) -> Self {
        BinaryHv {
            bits: self.bits.xor(&other.bits),
        }
    }

    /// In-place bind.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn bind_assign(&mut self, other: &Self) {
        self.bits.xor_assign(&other.bits);
    }

    /// Writes `self × other` into `out` without allocating.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn bind_into(&self, other: &Self, out: &mut Self) {
        self.bits.xor_into(&other.bits, &mut out.bits);
    }

    /// Overwrites `self` with a copy of `other` without allocating.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn copy_from(&mut self, other: &Self) {
        self.bits.copy_from(&other.bits);
    }

    /// Resets every dimension to +1 (the bind identity), keeping the
    /// allocation — used to seed key-derivation scratch buffers.
    pub fn reset_to_ones(&mut self) {
        self.bits.clear();
    }

    /// Elementwise negation (multiplication by −1).
    #[must_use]
    pub fn negated(&self) -> Self {
        let mut bits = self.bits.clone();
        bits.negate();
        BinaryHv { bits }
    }

    /// Circular left rotation by `k` dimensions — the HDC permutation
    /// `ρ_k` of the paper (Sec. 2).
    #[must_use]
    pub fn rotated(&self, k: usize) -> Self {
        BinaryHv {
            bits: self.bits.rotated(k),
        }
    }

    /// Writes the rotation `ρ_k(self)` into `out` without allocating.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn rotated_into(&self, k: usize, out: &mut Self) {
        self.bits.rotated_into(k, &mut out.bits);
    }

    /// Hamming distance: number of dimensions where the two vectors
    /// disagree.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    #[must_use]
    pub fn hamming(&self, other: &Self) -> usize {
        self.bits.count_diff(&other.bits)
    }

    /// Hamming distance divided by the dimension, in `[0, 1]`.
    ///
    /// Orthogonal hypervectors sit at ≈ 0.5 (paper Eq. 1a).
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    #[must_use]
    pub fn normalized_hamming(&self, other: &Self) -> f64 {
        self.hamming(other) as f64 / self.dim() as f64
    }

    /// Bipolar dot product: `D − 2·hamming`.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    #[must_use]
    pub fn dot(&self, other: &Self) -> i64 {
        self.dim() as i64 - 2 * self.hamming(other) as i64
    }

    /// Cosine similarity between two bipolar vectors (their norms are
    /// both `√D`), in `[−1, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    #[must_use]
    pub fn cosine(&self, other: &Self) -> f64 {
        self.dot(other) as f64 / self.dim() as f64
    }

    /// Widens to an integer hypervector with entries ±1.
    #[must_use]
    pub fn to_int(&self) -> IntHv {
        IntHv::from_fn(self.dim(), |i| i32::from(self.polarity(i)))
    }

    /// Iterator over bipolar values.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = i8> + '_ {
        self.bits.iter().map(|b| if b { -1i8 } else { 1i8 })
    }
}

impl std::ops::Mul for &BinaryHv {
    type Output = BinaryHv;

    /// Elementwise bipolar product; alias of [`BinaryHv::bind`].
    fn mul(self, rhs: &BinaryHv) -> BinaryHv {
        self.bind(rhs)
    }
}

impl std::ops::Neg for &BinaryHv {
    type Output = BinaryHv;

    fn neg(self) -> BinaryHv {
        self.negated()
    }
}

impl std::fmt::Debug for BinaryHv {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let head: String = self
            .iter()
            .take(12)
            .map(|p| if p > 0 { '+' } else { '-' })
            .collect();
        let ellipsis = if self.dim() > 12 { "…" } else { "" };
        write!(f, "BinaryHv(D={}: {head}{ellipsis})", self.dim())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HvRng;

    fn rhv(seed: u64, d: usize) -> BinaryHv {
        HvRng::from_seed(seed).binary_hv(d)
    }

    #[test]
    fn ones_is_all_positive() {
        let hv = BinaryHv::ones(100);
        assert!(hv.iter().all(|p| p == 1));
        assert_eq!(hv.count_negative(), 0);
    }

    #[test]
    fn polarity_matches_from_polarities() {
        let vals: Vec<i8> = (0..67).map(|i| if i % 3 == 0 { -1 } else { 1 }).collect();
        let hv = BinaryHv::from_polarities(&vals);
        for (i, &v) in vals.iter().enumerate() {
            assert_eq!(hv.polarity(i), v, "dim {i}");
        }
    }

    #[test]
    #[should_panic(expected = "polarity must be ±1")]
    fn from_polarities_rejects_zero() {
        let _ = BinaryHv::from_polarities(&[1, 0, -1]);
    }

    #[test]
    fn bind_is_elementwise_product() {
        let a = rhv(1, 257);
        let b = rhv(2, 257);
        let c = a.bind(&b);
        for i in 0..257 {
            assert_eq!(
                i32::from(c.polarity(i)),
                i32::from(a.polarity(i)) * i32::from(b.polarity(i))
            );
        }
    }

    #[test]
    fn bind_self_is_identity_vector() {
        let a = rhv(3, 500);
        let id = a.bind(&a);
        assert_eq!(id, BinaryHv::ones(500));
    }

    #[test]
    fn mul_operator_matches_bind() {
        let a = rhv(4, 128);
        let b = rhv(5, 128);
        assert_eq!(&a * &b, a.bind(&b));
    }

    #[test]
    fn negation_doubles_distance_to_half() {
        let a = rhv(6, 1000);
        let n = a.negated();
        assert_eq!(a.hamming(&n), 1000);
        assert_eq!((-&a), n);
    }

    #[test]
    fn into_variants_match_allocating_ops() {
        let a = rhv(20, 257);
        let b = rhv(21, 257);
        let mut out = BinaryHv::ones(257);
        a.bind_into(&b, &mut out);
        assert_eq!(out, a.bind(&b));
        a.rotated_into(100, &mut out);
        assert_eq!(out, a.rotated(100));
        out.copy_from(&b);
        assert_eq!(out, b);
        out.reset_to_ones();
        assert_eq!(out, BinaryHv::ones(257));
    }

    #[test]
    fn rotation_preserves_population() {
        let a = rhv(7, 1000);
        let r = a.rotated(137);
        assert_eq!(a.count_negative(), r.count_negative());
    }

    #[test]
    fn rotation_decorrelates() {
        let a = rhv(8, 10_000);
        let r = a.rotated(1);
        let d = a.normalized_hamming(&r);
        assert!((d - 0.5).abs() < 0.05, "distance {d}");
    }

    /// The packed rotation against a per-bit reference, `ρ_k` as
    /// `out[i] = in[(i + k) mod D]`, at shifts on and around the word
    /// boundaries of a dimension with a partial last word.
    #[test]
    fn rotation_matches_packed_rotate() {
        let d = 130;
        let hv = rhv(2, d);
        for k in [0, 1, 63, 64, 65, 129] {
            let rotated = hv.rotated(k);
            for i in 0..d {
                assert_eq!(rotated.polarity(i), hv.polarity((i + k) % d), "k={k} i={i}");
            }
        }
    }

    #[test]
    fn dot_and_cosine_consistent() {
        let a = rhv(9, 2048);
        let b = rhv(10, 2048);
        let naive: i64 = (0..2048)
            .map(|i| i64::from(a.polarity(i)) * i64::from(b.polarity(i)))
            .sum();
        assert_eq!(a.dot(&b), naive);
        assert!((a.cosine(&b) - naive as f64 / 2048.0).abs() < 1e-12);
        assert!((a.cosine(&a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hamming_is_symmetric_and_triangle() {
        let a = rhv(11, 300);
        let b = rhv(12, 300);
        let c = rhv(13, 300);
        assert_eq!(a.hamming(&b), b.hamming(&a));
        assert!(a.hamming(&c) <= a.hamming(&b) + b.hamming(&c));
    }

    #[test]
    fn to_int_roundtrip_values() {
        let a = rhv(14, 99);
        let int = a.to_int();
        for i in 0..99 {
            assert_eq!(int.get(i), i32::from(a.polarity(i)));
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn bind_dimension_mismatch_panics() {
        let a = rhv(15, 64);
        let b = rhv(16, 65);
        let _ = a.bind(&b);
    }

    #[test]
    fn debug_is_nonempty() {
        assert!(!format!("{:?}", BinaryHv::ones(4)).is_empty());
    }
}
