//! Shared `(feature, level)` bound-pair cache for record-style encoders.
//!
//! Record-based encoding adds `FeaHV_i × ValHV_{f_i}` for every feature
//! (paper Eq. 2). This helper owns the row-accumulation loops, so the
//! standard and the locked encoder share one implementation of the hot
//! path (and a tie-policy or layout change can never make them
//! diverge), plus an optional precomputed table of all `N × M` bound
//! pairs. Every loop feeds one of the accumulator's carry-save bulk
//! adds: table rows zero-copy when the table exists, `(feature, value)`
//! pairs zero-copy through the fused-bind step when it does not, masked
//! selects through its staging slots in the oblivious loop.
//!
//! ## When the table is built
//!
//! The table trades `N·M·⌈D/64⌉·8` bytes for one XOR per word, and it
//! only pays while it stays cache-resident. A row reads `N` table rows
//! scattered over the whole table, against `N` feature rows plus `M`
//! value rows for the fused bind. Measured at `M = 16, D = 10 000` on a
//! 2-vCPU Xeon VM with a 2 MiB L2 per core (AVX2, one pinned thread, 64
//! distinct rows, medians of 11 interleaved pairs): at `N = 64` the
//! table is 1.23 MiB, stays in L2 and is 1.28× faster than the fused
//! bind; the two draw level around `N = 256` (4.9 MiB); at the paper's
//! ISOLET shape (`N = 617`) the table is 11.8 MiB, every row gathers
//! from L3, and the fused bind — 775 KB of features — is 1.26× faster.
//! So [`BoundPairCache::warm_for_batch`] builds the table only up to
//! [`BoundPairCache::TABLE_BUDGET_BYTES`], the L2 size: past it the
//! table wins by a few percent at most, in a benchmark where nothing
//! else competes for the cache, and costs its bytes of key-derived
//! state. Above the budget a cached encoder holds no table at all.
//! [`BoundPairCache::warm`] builds it at any size: the constant-time
//! select of the hardened mode needs it.
//!
//! The crossover is the AVX2 backend's. On the compute-bound scalar
//! backend the table stays ahead at the ISOLET shape too, in the same
//! isolated benchmark (the fused bind reads 0.6–0.7× its speed); the
//! budget applies there as well.

use std::sync::OnceLock;

use crate::binary::BinaryHv;
use crate::bitslice::BitSliceAccumulator;
use crate::level::LevelHvs;

/// `lv` as a table index, panicking when it is not a level of `M = m`
/// (a row index past `M` would otherwise address another feature's
/// bound pairs).
fn level_index(lv: u16, m: usize) -> usize {
    let lv = usize::from(lv);
    assert!(lv < m, "level index {lv} out of range (M = {m})");
    lv
}

/// Lazily built cache of `FeaHV_i × ValHV_v` bound pairs, keyed
/// `i·M + v`, plus the bit-sliced row-accumulation loops that consume
/// it (falling back to the fused-bind bulk add while cold).
#[derive(Debug, Default)]
pub struct BoundPairCache {
    cache: OnceLock<Vec<BinaryHv>>,
}

impl Clone for BoundPairCache {
    /// Clones the cache contents (a clone of an encoder keeps its
    /// warmed state).
    fn clone(&self) -> Self {
        let out = BoundPairCache::new();
        if let Some(cache) = self.cache.get() {
            let _ = out.cache.set(cache.clone());
        }
        out
    }
}

impl BoundPairCache {
    /// Largest table, in bytes, that [`Self::warm_for_batch`] builds:
    /// a 2 MiB L2, past which the table stops being a clear win over
    /// the fused bind (measurements in the module docs). A constant
    /// rather than an option.
    pub const TABLE_BUDGET_BYTES: usize = 2 << 20;

    /// Bytes of the `N × M` table for `n_features` features over
    /// `values`.
    fn table_bytes(n_features: usize, values: &LevelHvs) -> usize {
        n_features * values.m() * values.dim().div_ceil(64) * std::mem::size_of::<u64>()
    }

    /// Creates an empty (cold) cache.
    #[must_use]
    pub fn new() -> Self {
        BoundPairCache {
            cache: OnceLock::new(),
        }
    }

    /// Whether the cache has been built.
    #[must_use]
    pub fn is_warm(&self) -> bool {
        self.cache.get().is_some()
    }

    /// Builds the `N × M` bound pairs once, at any size; later calls are
    /// free.
    pub fn warm(&self, features: &[BinaryHv], values: &LevelHvs) {
        let _ = self.cache.get_or_init(|| {
            let m = values.m();
            let mut cache = Vec::with_capacity(features.len() * m);
            for fea in features {
                for v in 0..m {
                    cache.push(fea.bind(values.level(v)));
                }
            }
            cache
        });
    }

    /// Warms the cache only when a batch of `batch_len` rows amortizes
    /// the `N × M` build cost (heuristic: at least `M` rows) and the
    /// table fits [`Self::TABLE_BUDGET_BYTES`].
    pub fn warm_for_batch(&self, features: &[BinaryHv], values: &LevelHvs, batch_len: usize) {
        if batch_len >= values.m()
            && Self::table_bytes(features.len(), values) <= Self::TABLE_BUDGET_BYTES
        {
            self.warm(features, values);
        }
    }

    /// Accumulates one quantized row into a (cleared) accumulator:
    /// pre-bound table rows when warm, zero-copy `(feature, value)`
    /// pairs through the fused-bind bulk add when cold. Bit-exact either
    /// way.
    ///
    /// # Panics
    ///
    /// Panics if a level index is out of range or dimensions disagree.
    pub fn accumulate_row(
        &self,
        acc: &mut BitSliceAccumulator,
        features: &[BinaryHv],
        values: &LevelHvs,
        levels: &[u16],
    ) {
        assert_eq!(
            acc.dim(),
            values.dim(),
            "dimension mismatch in bit-sliced add"
        );
        let m = values.m();
        if let Some(cache) = self.cache.get() {
            acc.add_slices(
                levels
                    .iter()
                    .enumerate()
                    .map(|(i, &lv)| cache[i * m + level_index(lv, m)].bits().words()),
            );
        } else {
            acc.add_bound_pairs(levels.iter().enumerate().map(|(i, &lv)| {
                let fea = &features[i];
                assert_eq!(
                    fea.dim(),
                    values.dim(),
                    "dimension mismatch in bit-sliced add"
                );
                let value = values.level(level_index(lv, m));
                (fea.bits().words(), value.bits().words())
            }));
        }
    }

    /// Cache-oblivious variant of [`BoundPairCache::accumulate_row`]:
    /// for every feature it strides through **all** `M` cached bound
    /// pairs in fixed order and selects the requested level with a
    /// branchless all-ones/all-zeros mask, so the memory access pattern
    /// — which cache lines are touched, in which order — is independent
    /// of the query's level values. This is the fixed-work hot path of
    /// the hardened serving mode: an attacker timing encodes can no
    /// longer learn which `(feature, level)` pairs were recently used.
    ///
    /// Warms the table eagerly (idempotent) so there is never a
    /// warm/cold branch, and is bit-exact with the data-dependent path:
    /// OR-ing the masked entries reproduces `cache[i·M + lv]` exactly.
    /// The selection is written into the accumulator's staging slots,
    /// so per-worker encode loops stay zero-alloc across rows.
    ///
    /// # Panics
    ///
    /// Panics if a level index is out of range or dimensions disagree.
    pub fn accumulate_row_oblivious(
        &self,
        acc: &mut BitSliceAccumulator,
        features: &[BinaryHv],
        values: &LevelHvs,
        levels: &[u16],
    ) {
        assert_eq!(
            acc.dim(),
            values.dim(),
            "dimension mismatch in bit-sliced add"
        );
        self.warm(features, values);
        let cache = self.cache.get().expect("warm() built the table");
        let m = values.m();
        acc.add_staged(levels.len(), |i, select| {
            let lv = level_index(levels[i], m) as u64;
            select.iter_mut().for_each(|w| *w = 0);
            for v in 0..m {
                // All-ones iff v == lv: `x | -x` has its top bit set for
                // every nonzero x, so the shifted bit is 1 exactly when
                // the XOR difference is nonzero — no data-dependent
                // branch anywhere in the selection.
                let eq = (v as u64) ^ lv;
                let mask = ((eq | eq.wrapping_neg()) >> 63).wrapping_sub(1);
                for (s, &w) in select.iter_mut().zip(cache[i * m + v].bits().words()) {
                    *s |= w & mask;
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::HvRng;

    #[test]
    fn warm_and_cold_paths_are_bit_identical() {
        let mut rng = HvRng::from_seed(1);
        let features = rng.orthogonal_pool(300, 5);
        let values = LevelHvs::generate(&mut rng, 300, 4).unwrap();
        let levels: Vec<u16> = vec![0, 3, 1, 2, 3];

        let cold = BoundPairCache::new();
        let mut acc_cold = BitSliceAccumulator::new(300);
        cold.accumulate_row(&mut acc_cold, &features, &values, &levels);
        assert!(!cold.is_warm());

        let warm = BoundPairCache::new();
        warm.warm(&features, &values);
        assert!(warm.is_warm());
        let mut acc_warm = BitSliceAccumulator::new(300);
        warm.accumulate_row(&mut acc_warm, &features, &values, &levels);

        assert_eq!(acc_cold.to_int(), acc_warm.to_int());

        // The table budget: at D = 4096 and M = 16 a table of 256
        // features is exactly `TABLE_BUDGET_BYTES`, one of 257 is a
        // feature over it. A batch of `M` rows warms the first and
        // leaves the second cold, and a row accumulates bit-identically
        // on the cold fused path, the batch-warmed cache and an
        // explicitly warmed table.
        for (n, fits) in [(256, true), (257, false)] {
            let (dim, m) = (4096, 16);
            let mut rng = HvRng::from_seed(n as u64);
            let features = rng.orthogonal_pool(dim, n);
            let values = LevelHvs::generate(&mut rng, dim, m).unwrap();
            let levels: Vec<u16> = (0..n).map(|_| rng.index(m) as u16).collect();
            assert_eq!(
                BoundPairCache::table_bytes(n, &values) <= BoundPairCache::TABLE_BUDGET_BYTES,
                fits
            );
            let row = |cache: &BoundPairCache| {
                let mut acc = BitSliceAccumulator::new(dim);
                cache.accumulate_row(&mut acc, &features, &values, &levels);
                (acc.to_int(), acc.majority_ties_positive())
            };

            let batch = BoundPairCache::new();
            batch.warm_for_batch(&features, &values, m - 1);
            assert!(!batch.is_warm(), "N = {n}: fewer than M rows stay cold");
            let cold = row(&batch);
            batch.warm_for_batch(&features, &values, m);
            assert_eq!(batch.is_warm(), fits, "N = {n}: a batch of M rows");
            let batched = row(&batch);

            let warm = BoundPairCache::new();
            warm.warm(&features, &values);
            assert!(warm.is_warm(), "N = {n}: warm() builds at any size");
            let tabled = row(&warm);

            assert_eq!(cold, tabled, "N = {n}: cold vs table");
            assert_eq!(batched, tabled, "N = {n}: batch-warmed vs table");
        }
    }

    #[test]
    fn warm_for_batch_respects_threshold() {
        let mut rng = HvRng::from_seed(2);
        let features = rng.orthogonal_pool(64, 3);
        let values = LevelHvs::generate(&mut rng, 64, 4).unwrap();
        let cache = BoundPairCache::new();
        cache.warm_for_batch(&features, &values, 3);
        assert!(!cache.is_warm(), "3 rows < M = 4 should stay cold");
        cache.warm_for_batch(&features, &values, 4);
        assert!(cache.is_warm());
    }

    #[test]
    fn oblivious_accumulate_is_bit_identical_and_warms() {
        let mut rng = HvRng::from_seed(4);
        let features = rng.orthogonal_pool(300, 5);
        let values = LevelHvs::generate(&mut rng, 300, 4).unwrap();

        let data_dependent = BoundPairCache::new();
        data_dependent.warm(&features, &values);
        let oblivious = BoundPairCache::new();
        assert!(!oblivious.is_warm());

        for levels in [[0u16, 3, 1, 2, 3], [3, 3, 3, 3, 3], [0, 0, 0, 0, 0]] {
            let mut acc_dd = BitSliceAccumulator::new(300);
            data_dependent.accumulate_row(&mut acc_dd, &features, &values, &levels);
            let mut acc_ob = BitSliceAccumulator::new(300);
            oblivious.accumulate_row_oblivious(&mut acc_ob, &features, &values, &levels);
            assert_eq!(acc_dd.to_int(), acc_ob.to_int(), "levels {levels:?}");
            assert_eq!(
                acc_dd.majority_ties_positive(),
                acc_ob.majority_ties_positive()
            );
        }
        assert!(oblivious.is_warm(), "oblivious path warms eagerly");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oblivious_accumulate_rejects_bad_level() {
        let mut rng = HvRng::from_seed(5);
        let features = rng.orthogonal_pool(64, 2);
        let values = LevelHvs::generate(&mut rng, 64, 4).unwrap();
        let cache = BoundPairCache::new();
        let mut acc = BitSliceAccumulator::new(64);
        cache.accumulate_row_oblivious(&mut acc, &features, &values, &[0, 4]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn warm_accumulate_rejects_bad_level() {
        // Level 5 on feature 0 of a 2 × 4 table would address feature
        // 1's level 1 if the index were not checked.
        let mut rng = HvRng::from_seed(6);
        let features = rng.orthogonal_pool(64, 2);
        let values = LevelHvs::generate(&mut rng, 64, 4).unwrap();
        let cache = BoundPairCache::new();
        cache.warm(&features, &values);
        let mut acc = BitSliceAccumulator::new(64);
        cache.accumulate_row(&mut acc, &features, &values, &[5, 0]);
    }

    #[test]
    fn clone_preserves_warm_state() {
        let mut rng = HvRng::from_seed(3);
        let features = rng.orthogonal_pool(64, 2);
        let values = LevelHvs::generate(&mut rng, 64, 2).unwrap();
        let cache = BoundPairCache::new();
        cache.warm(&features, &values);
        assert!(cache.clone().is_warm());
        assert!(!BoundPairCache::new().clone().is_warm());
    }
}
