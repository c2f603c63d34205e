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
    par, BinaryHv, BitSliceAccumulator, HvError, HvRng, IntHv, ItemMemory, LevelHvs, TileBlock,
};

/// An HDC encoding module mapping a quantized feature row (level indices
/// `0..m_levels` per feature) to a hypervector.
///
/// The trait exposes the module's shape and its encode entry points,
/// nothing else: no encoder hands out its feature hypervectors. That is
/// the mapping HDLock protects. A locked encoder's feature hypervector
/// can still be derived from its key, but only through an audited vault
/// read. The public parts (a standard encoder's stored rows, either
/// encoder's value hypervectors) stay on the concrete types.
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
    /// with cheaper batch strategies (reusable accumulators) override
    /// it. Output order matches input order and
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

/// A borrowed encoder encodes as its referent, so a session can serve
/// one it does not own (`OwnedSession<&E>`). Every method forwards
/// explicitly: the default batch bodies would encode row by row, and a
/// default `is_hardened` would report a hardened encoder as unhardened,
/// letting its session run the score-dependent pruned top-k.
impl<E: Encoder + Sync + ?Sized> Encoder for &E {
    fn n_features(&self) -> usize {
        (**self).n_features()
    }

    fn m_levels(&self) -> usize {
        (**self).m_levels()
    }

    fn dim(&self) -> usize {
        (**self).dim()
    }

    fn encode_int(&self, levels: &[u16]) -> IntHv {
        (**self).encode_int(levels)
    }

    fn encode_binary(&self, levels: &[u16]) -> BinaryHv {
        (**self).encode_binary(levels)
    }

    fn encode_batch_binary(&self, rows: &[&[u16]]) -> Vec<BinaryHv> {
        (**self).encode_batch_binary(rows)
    }

    fn encode_batch_int(&self, rows: &[&[u16]]) -> Vec<IntHv> {
        (**self).encode_batch_int(rows)
    }

    fn is_hardened(&self) -> bool {
        (**self).is_hardened()
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
    /// The feature hypervectors, tile-major for the column pass every
    /// encode runs ([`BitSliceAccumulator::bundle_row`]); the only copy,
    /// gathered back by [`RecordEncoder::features`].
    features: TileBlock,
    values: LevelHvs,
    /// `values` again, tile-major for the column pass: `M` vectors, 20 KB
    /// at the ISOLET shape.
    value_tiles: TileBlock,
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
        Self::from_parts(features, values)
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
            features: TileBlock::from_hvs(features.dim(), features.rows()),
            value_tiles: TileBlock::from_hvs(values.dim(), values.levels()),
            values,
        })
    }

    /// The feature item memory, gathered from the tile-major block the
    /// encoder keeps.
    #[must_use]
    pub fn features(&self) -> ItemMemory {
        let rows = (0..self.features.len())
            .map(|i| self.features.get(i))
            .collect();
        ItemMemory::from_rows(rows).expect("an encoder holds at least one feature")
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
            acc.add_bound_pair(self.values.level(usize::from(lv)), &self.features.get(i));
        }
        acc
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
        par::par_chunk_map(rows.len(), 4, |range| {
            let mut acc = BitSliceAccumulator::new(self.dim());
            let mut out = Vec::with_capacity(range.len());
            for r in range {
                acc.bundle_row(&self.features, &self.value_tiles, rows[r]);
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
        acc.bundle_row(&self.features, &self.value_tiles, levels);
        acc.to_int()
    }

    fn encode_binary(&self, levels: &[u16]) -> BinaryHv {
        self.check_row(levels);
        let mut acc = BitSliceAccumulator::new(self.dim());
        acc.bundle_row(&self.features, &self.value_tiles, levels);
        acc.majority_ties_positive()
    }

    fn encode_batch_binary(&self, rows: &[&[u16]]) -> Vec<BinaryHv> {
        self.encode_batch_with(rows, BitSliceAccumulator::majority_ties_positive)
    }

    fn encode_batch_int(&self, rows: &[&[u16]]) -> Vec<IntHv> {
        self.encode_batch_with(rows, BitSliceAccumulator::to_int)
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
        let features = e.features();
        let mut manual = IntHv::zeros(1024);
        for (i, &lv) in row.iter().enumerate() {
            manual.add_binary(&features.rows()[i].bind(e.values().level(usize::from(lv))));
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
            // Single encodes before the batch, against the batch and the
            // single encodes after it: no encode leaves state behind.
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
        let expected = sum.sign_ties_positive().bind(e.values().level(0));
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
