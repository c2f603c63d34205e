//! The `(feature, level)` bound-pair table behind the hardened mode's
//! constant-time select.
//!
//! Record-based encoding adds `FeaHV_i × ValHV_{f_i}` for every feature
//! (paper Eq. 2). [`BoundPairCache`] holds all `N × M` of those bound
//! pairs, and [`BoundPairCache::accumulate_row_oblivious`] selects one
//! per feature by striding all `M` with a branchless mask, so which
//! cache lines a row reads does not depend on its levels. That is the
//! only use left: every other cached encode runs the column
//! bind-and-count ([`BitSliceAccumulator::bundle_row`]) over the
//! features and values themselves, which reads the same bytes for
//! every row and builds no table.
//!
//! History: the table was once the fast path for small shapes, built by
//! a batch of at least `M` rows when it fitted a 2 MiB budget, with a
//! fused plane-by-plane bind for the rest. Measured at `M = 16,
//! D = 10 000` on a 2-vCPU Xeon VM (AVX2, one pinned thread), it was
//! 1.28× faster than that fused bind at `N = 64` (1.23 MiB, in L2) and
//! 1.26× slower at the ISOLET shape (`N = 617`, 11.8 MiB). Whether a
//! table existed then depended on recent batch traffic, a cache-warmth
//! timing channel (`hdc_attack::timing`), and the column pass is faster
//! than either, so both went.

use std::sync::OnceLock;

use crate::binary::BinaryHv;
use crate::bitslice::{BitSliceAccumulator, TileBlock};
use crate::level::LevelHvs;

/// `lv` as a table index, panicking when it is not a level of `M = m`
/// (a row index past `M` would otherwise address another feature's
/// bound pairs).
fn level_index(lv: u16, m: usize) -> usize {
    let lv = usize::from(lv);
    assert!(lv < m, "level index {lv} out of range (M = {m})");
    lv
}

/// Lazily built table of `FeaHV_i × ValHV_v` bound pairs, keyed
/// `i·M + v`, and the oblivious row loop that strides it.
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

    /// Builds the `N × M` bound pairs once, gathering each feature from
    /// the tile block; later calls are free.
    pub fn warm(&self, features: &TileBlock, values: &LevelHvs) {
        let _ = self.cache.get_or_init(|| {
            let m = values.m();
            let mut cache = Vec::with_capacity(features.len() * m);
            for i in 0..features.len() {
                let fea = features.get(i);
                for v in 0..m {
                    cache.push(fea.bind(values.level(v)));
                }
            }
            cache
        });
    }

    /// Accumulates one quantized row into a (cleared) accumulator
    /// obliviously: for every feature it strides through **all** `M`
    /// cached bound pairs in fixed order and selects the requested level
    /// with a branchless all-ones/all-zeros mask, so the memory access
    /// pattern — which cache lines are touched, in which order — is
    /// independent of the query's level values. This is the fixed-work
    /// hot path of the hardened serving mode: an attacker timing encodes
    /// cannot learn which `(feature, level)` pairs were recently used.
    ///
    /// Warms the table eagerly (idempotent) so there is never a
    /// warm/cold branch, and is bit-exact with
    /// [`BitSliceAccumulator::bundle_row`]: OR-ing the masked entries
    /// reproduces `cache[i·M + lv]` exactly.
    /// The selection is written into the accumulator's staging slots,
    /// so per-worker encode loops stay zero-alloc across rows.
    ///
    /// # Panics
    ///
    /// Panics if a level index is out of range or dimensions disagree.
    pub fn accumulate_row_oblivious(
        &self,
        acc: &mut BitSliceAccumulator,
        features: &TileBlock,
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

    /// A small locked-style shape: features and values as the encoders
    /// hold them.
    fn parts(seed: u64, dim: usize, n: usize, m: usize) -> (TileBlock, LevelHvs, TileBlock) {
        let mut rng = HvRng::from_seed(seed);
        let features = TileBlock::from_hvs(dim, &rng.orthogonal_pool(dim, n));
        let values = LevelHvs::generate(&mut rng, dim, m).unwrap();
        let value_tiles = TileBlock::from_hvs(dim, values.levels());
        (features, values, value_tiles)
    }

    #[test]
    fn oblivious_accumulate_is_bit_identical_and_warms() {
        let (features, values, value_tiles) = parts(4, 300, 5, 4);
        let oblivious = BoundPairCache::new();
        assert!(!oblivious.is_warm());

        for levels in [[0u16, 3, 1, 2, 3], [3, 3, 3, 3, 3], [0, 0, 0, 0, 0]] {
            let mut columns = BitSliceAccumulator::new(300);
            columns.bundle_row(&features, &value_tiles, &levels);
            let mut acc_ob = BitSliceAccumulator::new(300);
            oblivious.accumulate_row_oblivious(&mut acc_ob, &features, &values, &levels);
            assert_eq!(columns.to_int(), acc_ob.to_int(), "levels {levels:?}");
            assert_eq!(
                columns.majority_ties_positive(),
                acc_ob.majority_ties_positive()
            );
        }
        assert!(oblivious.is_warm(), "oblivious path warms eagerly");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oblivious_accumulate_rejects_bad_level() {
        let (features, values, _) = parts(5, 64, 2, 4);
        let cache = BoundPairCache::new();
        let mut acc = BitSliceAccumulator::new(64);
        cache.accumulate_row_oblivious(&mut acc, &features, &values, &[0, 4]);
    }

    #[test]
    fn clone_preserves_warm_state() {
        let (features, values, _) = parts(3, 64, 2, 2);
        let cache = BoundPairCache::new();
        cache.warm(&features, &values);
        assert!(cache.clone().is_warm());
        assert!(!BoundPairCache::new().clone().is_warm());
    }
}
