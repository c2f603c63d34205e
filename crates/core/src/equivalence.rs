//! Statistical equivalence checks between locked and standard encoders.
//!
//! Fig. 8 of the paper shows HDLock costs no accuracy. The underlying
//! reason is structural: derived feature hypervectors are products of
//! independent random bases, hence themselves uniformly random and
//! pairwise quasi-orthogonal — statistically indistinguishable from the
//! standard encoder's feature hypervectors. This module quantifies that
//! claim so tests (and the Fig. 8 harness) can assert it.

use hypervec::BinaryHv;

/// Summary of pairwise normalized Hamming distances within a set of
/// hypervectors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairwiseStats {
    /// Mean pairwise normalized distance.
    pub mean: f64,
    /// Minimum pairwise normalized distance.
    pub min: f64,
    /// Maximum pairwise normalized distance.
    pub max: f64,
    /// Number of pairs measured.
    pub pairs: usize,
}

/// Computes pairwise distance statistics over `hvs`.
///
/// # Panics
///
/// Panics if `hvs` has fewer than two vectors or mixed dimensions.
#[must_use]
pub fn pairwise_stats(hvs: &[BinaryHv]) -> PairwiseStats {
    assert!(hvs.len() >= 2, "need at least two hypervectors");
    let mut sum = 0.0;
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    let mut pairs = 0usize;
    for i in 0..hvs.len() {
        for j in (i + 1)..hvs.len() {
            let d = hvs[i].normalized_hamming(&hvs[j]);
            sum += d;
            min = min.min(d);
            max = max.max(d);
            pairs += 1;
        }
    }
    PairwiseStats {
        mean: sum / pairs as f64,
        min,
        max,
        pairs,
    }
}

/// Whether a set of hypervectors is quasi-orthogonal: every pairwise
/// normalized distance within `tolerance` of 0.5.
///
/// # Panics
///
/// Panics if `hvs` has fewer than two vectors.
#[must_use]
pub fn is_quasi_orthogonal(hvs: &[BinaryHv], tolerance: f64) -> bool {
    let stats = pairwise_stats(hvs);
    (stats.min - 0.5).abs() <= tolerance && (stats.max - 0.5).abs() <= tolerance
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::locked_encoder::{derive_feature, LockConfig, LockedEncoder};
    use hypervec::HvRng;

    #[test]
    fn random_pool_is_quasi_orthogonal() {
        let mut rng = HvRng::from_seed(1);
        let hvs = rng.orthogonal_pool(10_000, 10);
        assert!(is_quasi_orthogonal(&hvs, 0.03));
        let stats = pairwise_stats(&hvs);
        assert_eq!(stats.pairs, 45);
        assert!((stats.mean - 0.5).abs() < 0.01);
    }

    #[test]
    fn locked_features_match_standard_statistics() {
        let mut rng = HvRng::from_seed(2);
        let cfg = LockConfig {
            n_features: 16,
            m_levels: 4,
            dim: 10_000,
            pool_size: 16,
            n_layers: 3,
        };
        let enc = LockedEncoder::generate(&mut rng, &cfg).unwrap();
        let derived: Vec<BinaryHv> = enc
            .vault()
            .with_key(|key| {
                (0..16)
                    .map(|i| derive_feature(enc.pool(), key.feature(i), i).unwrap())
                    .collect()
            })
            .unwrap();
        assert!(
            is_quasi_orthogonal(&derived, 0.03),
            "{:?}",
            pairwise_stats(&derived)
        );
    }

    #[test]
    fn identical_vectors_are_not_orthogonal() {
        let mut rng = HvRng::from_seed(3);
        let hv = rng.binary_hv(1000);
        assert!(!is_quasi_orthogonal(&[hv.clone(), hv], 0.03));
    }
}
