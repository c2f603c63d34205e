//! The encoding module: feature vectors → hypervectors.
//!
//! [`Encoder`] abstracts the encoding so the standard [`RecordEncoder`]
//! (paper Eq. 2/3) and HDLock's locked encoder (Eq. 10) are
//! interchangeable everywhere — training, inference, and the attack
//! oracle.
//!
//! Encoding is the system's hot path: training touches every sample
//! `1 + epochs` times and the attack-cost analysis is bounded by
//! encode+compare throughput. Both built-in encoders therefore run on
//! the word-parallel engine ([`BitSliceAccumulator`]) and expose batch
//! entry points ([`Encoder::encode_batch_binary`] /
//! [`Encoder::encode_batch_int`]) that fan samples out per chunk with
//! per-worker scratch state. The engine is bit-exact with the scalar
//! reference path ([`RecordEncoder::encode_int_scalar`]), which is kept
//! for validation and as the benchmark baseline.

use hypervec::{
    par, BinaryHv, BitSliceAccumulator, BoundPairCache, HvError, HvRng, IntHv, ItemMemory, LevelHvs,
};

/// An HDC encoding module mapping a quantized feature row (level indices
/// `0..m_levels` per feature) to a hypervector.
///
/// Implementations must be deterministic: the same input row always
/// produces the same output. (`sign(0)` ties in the binary output are
/// broken towards +1 — for odd feature counts no tie can occur, and the
/// attack experiments hold under either policy, as the `ablation`
/// binary measures.)
pub trait Encoder {
    /// Number of input features `N`.
    fn n_features(&self) -> usize;

    /// Number of value levels `M`.
    fn m_levels(&self) -> usize;

    /// Hypervector dimensionality `D`.
    fn dim(&self) -> usize;

    /// Non-binary encoding `H_nb = Σ ValHV_{f_i} × FeaHV_i` (Eq. 2).
    ///
    /// # Panics
    ///
    /// Panics if `levels.len() != self.n_features()` or any level is out
    /// of range.
    fn encode_int(&self, levels: &[u16]) -> IntHv;

    /// Binary encoding `H_b = sign(H_nb)` (Eq. 3).
    ///
    /// # Panics
    ///
    /// Same conditions as [`Encoder::encode_int`].
    fn encode_binary(&self, levels: &[u16]) -> BinaryHv {
        self.encode_int(levels).sign_ties_positive()
    }

    /// Encodes a batch of rows to binary hypervectors.
    ///
    /// The default implementation chunks the batch across worker threads
    /// (see [`hypervec::par`]) and encodes row-by-row; implementations
    /// with cheaper batch strategies (cached bound pairs, reusable
    /// accumulators) override it. Output order matches input order and
    /// every element is bit-exact with [`Encoder::encode_binary`].
    ///
    /// # Panics
    ///
    /// Same conditions as [`Encoder::encode_binary`], for any row.
    fn encode_batch_binary(&self, rows: &[&[u16]]) -> Vec<BinaryHv>
    where
        Self: Sync,
    {
        par::par_chunk_map(rows.len(), 8, |range| {
            range.map(|r| self.encode_binary(rows[r])).collect()
        })
    }

    /// Encodes a batch of rows to integer hypervectors; the non-binary
    /// sibling of [`Encoder::encode_batch_binary`].
    ///
    /// # Panics
    ///
    /// Same conditions as [`Encoder::encode_int`], for any row.
    fn encode_batch_int(&self, rows: &[&[u16]]) -> Vec<IntHv>
    where
        Self: Sync,
    {
        par::par_chunk_map(rows.len(), 8, |range| {
            range.map(|r| self.encode_int(rows[r])).collect()
        })
    }

    /// The effective feature hypervector for feature `i` — the vector
    /// that multiplies `ValHV_{f_i}` in the encoding sum. For the
    /// standard encoder this is a stored row; for HDLock it is derived
    /// from the key (Eq. 9).
    fn feature_hv(&self, i: usize) -> BinaryHv;

    /// The value hypervector for level `v`.
    fn value_hv(&self, v: usize) -> BinaryHv;

    /// Whether this encoder runs in a constant-time hardened mode
    /// (fixed work per query, cache-oblivious memory access). Sessions
    /// consult this to disable score-dependent early exits — e.g.
    /// pruned top-k search falls back to the exact fixed-shape scan —
    /// so the whole query pipeline stays timing-neutral, not just the
    /// encode. Defaults to `false`; HDLock's locked encoder overrides
    /// it for `DeriveMode::Hardened` (see the repo's `SECURITY.md`).
    fn is_hardened(&self) -> bool {
        false
    }
}

/// The standard record-based encoder: `N` orthogonal feature
/// hypervectors and `M` linearly-correlated value hypervectors.
///
/// # Examples
///
/// ```
/// use hdc_model::{Encoder, RecordEncoder};
/// use hypervec::HvRng;
///
/// let mut rng = HvRng::from_seed(1);
/// let enc = RecordEncoder::generate(&mut rng, 16, 4, 2048)?;
/// let row = vec![0u16; 16];
/// let h = enc.encode_binary(&row);
/// assert_eq!(h.dim(), 2048);
/// # Ok::<(), hypervec::HvError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RecordEncoder {
    features: ItemMemory,
    values: LevelHvs,
    /// Shared `(feature, level)` bound-pair cache; a batch warms its
    /// table once when it fits [`BoundPairCache::TABLE_BUDGET_BYTES`],
    /// after which every add is a single pre-bound vector. Otherwise
    /// rows take the fused-bind bulk add.
    bound_cache: BoundPairCache,
}

impl RecordEncoder {
    /// Generates fresh random feature and value hypervectors.
    ///
    /// # Errors
    ///
    /// Propagates [`HvError`] from level-hypervector generation.
    pub fn generate(
        rng: &mut HvRng,
        n_features: usize,
        m_levels: usize,
        dim: usize,
    ) -> Result<Self, HvError> {
        let features = ItemMemory::random(rng, dim, n_features);
        let values = LevelHvs::generate(rng, dim, m_levels)?;
        Ok(RecordEncoder {
            features,
            values,
            bound_cache: BoundPairCache::new(),
        })
    }

    /// Builds an encoder from existing memories (e.g. hypervectors
    /// recovered by an attack).
    ///
    /// # Errors
    ///
    /// Returns [`HvError::DimensionMismatch`] if the two memories
    /// disagree on dimensionality or the feature memory is empty.
    pub fn from_parts(features: ItemMemory, values: LevelHvs) -> Result<Self, HvError> {
        if features.is_empty() {
            return Err(HvError::EmptyInput);
        }
        if features.dim() != values.dim() {
            return Err(HvError::DimensionMismatch {
                expected: features.dim(),
                found: values.dim(),
            });
        }
        Ok(RecordEncoder {
            features,
            values,
            bound_cache: BoundPairCache::new(),
        })
    }

    /// The feature item memory.
    #[must_use]
    pub fn features(&self) -> &ItemMemory {
        &self.features
    }

    /// The value (level) hypervectors.
    #[must_use]
    pub fn values(&self) -> &LevelHvs {
        &self.values
    }

    /// Reference scalar implementation of Eq. 2: one `i32` add per
    /// dimension per feature, no word-parallel tricks. Kept as the
    /// validation target the engine must be bit-exact against, and as
    /// the benchmark baseline.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Encoder::encode_int`].
    #[must_use]
    pub fn encode_int_scalar(&self, levels: &[u16]) -> IntHv {
        self.check_row(levels);
        let mut acc = IntHv::zeros(self.dim());
        for (i, &lv) in levels.iter().enumerate() {
            let fea = self.features.get(i).expect("index bounded by n_features");
            acc.add_bound_pair(self.values.level(usize::from(lv)), fea);
        }
        acc
    }

    /// Accumulates one row into a (cleared) bit-sliced accumulator via
    /// the shared bound-pair cache (pre-bound adds when warm, the
    /// fused-bind bulk add when cold).
    fn accumulate_row(&self, acc: &mut BitSliceAccumulator, levels: &[u16]) {
        self.bound_cache
            .accumulate_row(acc, self.features.rows(), &self.values, levels);
    }

    /// Shared batch driver: chunked fan-out with a per-worker reusable
    /// accumulator, finishing each sample with `finish`.
    fn encode_batch_with<T: Send>(
        &self,
        rows: &[&[u16]],
        finish: impl Fn(&BitSliceAccumulator) -> T + Sync,
    ) -> Vec<T> {
        for row in rows {
            self.check_row(row);
        }
        // Warm the cache before forking when the batch amortizes it and
        // the table fits the budget.
        self.bound_cache
            .warm_for_batch(self.features.rows(), &self.values, rows.len());
        par::par_chunk_map(rows.len(), 4, |range| {
            let mut acc = BitSliceAccumulator::new(self.dim());
            let mut out = Vec::with_capacity(range.len());
            for r in range {
                acc.clear();
                self.accumulate_row(&mut acc, rows[r]);
                out.push(finish(&acc));
            }
            out
        })
    }

    fn check_row(&self, levels: &[u16]) {
        assert_eq!(
            levels.len(),
            self.n_features(),
            "row has {} levels, encoder expects {}",
            levels.len(),
            self.n_features()
        );
    }
}

impl Encoder for RecordEncoder {
    fn n_features(&self) -> usize {
        self.features.len()
    }

    fn m_levels(&self) -> usize {
        self.values.m()
    }

    fn dim(&self) -> usize {
        self.features.dim()
    }

    fn encode_int(&self, levels: &[u16]) -> IntHv {
        self.check_row(levels);
        let mut acc = BitSliceAccumulator::new(self.dim());
        self.accumulate_row(&mut acc, levels);
        acc.to_int()
    }

    fn encode_binary(&self, levels: &[u16]) -> BinaryHv {
        self.check_row(levels);
        let mut acc = BitSliceAccumulator::new(self.dim());
        self.accumulate_row(&mut acc, levels);
        acc.majority_ties_positive()
    }

    fn encode_batch_binary(&self, rows: &[&[u16]]) -> Vec<BinaryHv> {
        self.encode_batch_with(rows, BitSliceAccumulator::majority_ties_positive)
    }

    fn encode_batch_int(&self, rows: &[&[u16]]) -> Vec<IntHv> {
        self.encode_batch_with(rows, BitSliceAccumulator::to_int)
    }

    fn feature_hv(&self, i: usize) -> BinaryHv {
        self.features
            .get(i)
            .expect("feature index in range")
            .clone()
    }

    fn value_hv(&self, v: usize) -> BinaryHv {
        self.values.level(v).clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encoder(seed: u64) -> RecordEncoder {
        encoder_with(seed, 9)
    }

    /// [`encoder`]'s shape at `n_features` features.
    fn encoder_with(seed: u64, n_features: usize) -> RecordEncoder {
        let mut rng = HvRng::from_seed(seed);
        RecordEncoder::generate(&mut rng, n_features, 4, 1024).unwrap()
    }

    /// Feature counts below, at and past the accumulator's 16-input
    /// carry-save group.
    const FEATURE_COUNTS: [usize; 3] = [9, 16, 40];

    #[test]
    fn shapes_are_reported() {
        let e = encoder(1);
        assert_eq!(e.n_features(), 9);
        assert_eq!(e.m_levels(), 4);
        assert_eq!(e.dim(), 1024);
    }

    #[test]
    fn encode_int_matches_manual_sum() {
        let e = encoder(2);
        let row: Vec<u16> = (0..9).map(|i| (i % 4) as u16).collect();
        let h = e.encode_int(&row);
        let mut manual = IntHv::zeros(1024);
        for (i, &lv) in row.iter().enumerate() {
            manual.add_binary(&e.feature_hv(i).bind(&e.value_hv(usize::from(lv))));
        }
        assert_eq!(h, manual);
    }

    #[test]
    fn engine_matches_scalar_reference() {
        for n in FEATURE_COUNTS {
            let e = encoder_with(10, n);
            for variant in 0..4u16 {
                let row: Vec<u16> = (0..n).map(|i| (i as u16 + variant) % 4).collect();
                assert_eq!(
                    e.encode_int(&row),
                    e.encode_int_scalar(&row),
                    "N {n} variant {variant}"
                );
            }
        }
    }

    #[test]
    fn encode_binary_is_sign_of_int() {
        let e = encoder(3);
        let row = vec![1u16; 9];
        assert_eq!(
            e.encode_binary(&row),
            e.encode_int(&row).sign_ties_positive()
        );
    }

    #[test]
    fn batch_matches_per_sample_encodes() {
        for n in FEATURE_COUNTS {
            let e = encoder_with(11, n);
            let rows: Vec<Vec<u16>> = (0..13)
                .map(|s| (0..n).map(|i| ((s + i) % 4) as u16).collect())
                .collect();
            let refs: Vec<&[u16]> = rows.iter().map(Vec::as_slice).collect();
            // Single encodes before the batch take the cold fused-bind
            // path; the batch warms the bound-pair table for the rest.
            let cold_int: Vec<IntHv> = refs.iter().map(|row| e.encode_int(row)).collect();
            let batch_bin = e.encode_batch_binary(&refs);
            let batch_int = e.encode_batch_int(&refs);
            assert_eq!(batch_bin.len(), rows.len());
            for (i, row) in refs.iter().enumerate() {
                assert_eq!(batch_bin[i], e.encode_binary(row), "N {n} row {i}");
                assert_eq!(batch_int[i], e.encode_int(row), "N {n} row {i}");
                assert_eq!(batch_int[i], cold_int[i], "N {n} cold row {i}");
            }
        }
    }

    #[test]
    fn cache_does_not_change_results() {
        let e = encoder(12);
        let row: Vec<u16> = (0..9).map(|i| (i % 4) as u16).collect();
        let before = e.encode_binary(&row);
        e.bound_cache.warm(e.features().rows(), e.values()); // force the cache on
        assert_eq!(e.encode_binary(&row), before);
    }

    #[test]
    fn encoding_is_deterministic() {
        let e = encoder(4);
        let row = vec![2u16; 9];
        assert_eq!(e.encode_binary(&row), e.encode_binary(&row));
    }

    #[test]
    fn single_value_input_factors_out() {
        // Eq. 5: all-min input means H = sign(ValHV_1 × Σ FeaHV_i)
        // because binding by a bipolar vector commutes with sign.
        let e = encoder(5);
        let row = vec![0u16; 9];
        let h = e.encode_binary(&row);
        let sum = e.features().sum().unwrap();
        let expected = sum.sign_ties_positive().bind(&e.value_hv(0));
        assert_eq!(h, expected);
    }

    #[test]
    fn different_rows_encode_differently() {
        let e = encoder(6);
        let a = e.encode_binary(&[0u16; 9]);
        let b = e.encode_binary(&[3u16; 9]);
        assert!(a.normalized_hamming(&b) > 0.2);
    }

    #[test]
    #[should_panic(expected = "levels, encoder expects")]
    fn wrong_row_width_panics() {
        let e = encoder(7);
        let _ = e.encode_int(&[0, 1]);
    }

    #[test]
    #[should_panic(expected = "levels, encoder expects")]
    fn batch_checks_row_width() {
        let e = encoder(8);
        let short = [0u16, 1];
        let rows: Vec<&[u16]> = vec![&short];
        let _ = e.encode_batch_binary(&rows);
    }

    #[test]
    fn from_parts_validates() {
        let mut rng = HvRng::from_seed(8);
        let features = ItemMemory::random(&mut rng, 64, 3);
        let values = LevelHvs::generate(&mut rng, 128, 3).unwrap();
        assert!(matches!(
            RecordEncoder::from_parts(features, values),
            Err(HvError::DimensionMismatch { .. })
        ));
    }
}
