//! The HDLock locked encoding module (paper Sec. 4, Fig. 4).
//!
//! Instead of storing `N` feature hypervectors, the encoder stores a
//! public pool of `P` bases and derives each feature hypervector from a
//! secret key: `FeaHV_i = Π_{l=1}^{L} ρ^{k_{i,l}}(B_{i,l})` (Eq. 9). The
//! encoding itself is unchanged (Eq. 10), so accuracy is unaffected —
//! but an attacker who dumps the pool learns nothing about which
//! (rotated) bases build which feature.
//!
//! Like the standard encoder, the locked encoder runs on the
//! word-parallel engine (`hypervec::BitSliceAccumulator`, carry-save
//! bulk adds) and overrides the batch entry points for every derivation
//! mode; on-the-fly derivation reuses caller-owned scratch buffers via
//! [`derive_feature_into`] and binds straight into the accumulator's
//! staging slots, so the per-sample cost is pure compute, not
//! allocation.
//!
//! A deployed locked model serves queries through
//! [`hdc_model::OwnedSession`]: the session fuses the locked batch
//! encode with the sharded class-memory search, so protected inference
//! runs on exactly the same query pipeline as the unprotected model —
//! accuracy-neutral by construction (paper Fig. 8) and bit-identical to
//! the scalar reference path in all three derivation modes (pinned by
//! `session_inference_matches_scalar_in_both_modes`).
//!
//! The encoder hands out no feature hypervector: the [`Encoder`] trait
//! has no such method. [`derive_feature`] over the public pool and a
//! key read from the vault ([`KeyVault::with_key`], counted in its
//! audit trail) is the only way to one.

use hdc_model::Encoder;
use hypervec::{kernel, par, BinaryHv, BitSliceAccumulator, HvRng, IntHv, LevelHvs, TileBlock};

use crate::error::LockError;
use crate::key::{EncodingKey, FeatureKey};
use crate::pool::BasePool;
use crate::vault::KeyVault;

/// Derives one feature hypervector from a (candidate) key against a
/// public pool — Eq. 9. Also the building block the *attacker* uses to
/// materialize guesses, which is why it is a free function rather than a
/// vault-privileged method. `feature` identifies whose key this is, so
/// range errors name the real feature instead of a placeholder.
///
/// # Errors
///
/// Returns [`LockError::KeyOutOfRange`] if the key references a missing
/// base, or [`LockError::InvalidParameter`] for an empty key.
pub fn derive_feature(
    pool: &BasePool,
    key: &FeatureKey,
    feature: usize,
) -> Result<BinaryHv, LockError> {
    let mut out = BinaryHv::ones(pool.dim());
    let mut scratch = BinaryHv::ones(pool.dim());
    derive_feature_into(pool, key, feature, &mut out, &mut scratch)?;
    Ok(out)
}

/// Zero-alloc variant of [`derive_feature`]: writes the derived feature
/// hypervector into `out`, using `scratch` for the rotated base. Both
/// buffers must have the pool's dimension and may be reused across
/// calls — the hot path of on-the-fly (per-sample) derivation.
///
/// # Errors
///
/// Same as [`derive_feature`].
///
/// # Panics
///
/// Panics if `out` or `scratch` does not match the pool's dimension.
pub fn derive_feature_into(
    pool: &BasePool,
    key: &FeatureKey,
    feature: usize,
    out: &mut BinaryHv,
    scratch: &mut BinaryHv,
) -> Result<(), LockError> {
    let layers = key.layers();
    if layers.is_empty() {
        return Err(LockError::InvalidParameter {
            what: "feature key needs at least one layer",
        });
    }
    out.reset_to_ones();
    for lk in layers {
        let base = pool
            .base(lk.base_index)
            .map_err(|_| LockError::KeyOutOfRange {
                feature,
                base_index: lk.base_index,
                rotation: lk.rotation,
            })?;
        base.rotated_into(lk.rotation, scratch);
        out.bind_assign(scratch);
    }
    Ok(())
}

/// How the encoder obtains feature hypervectors at encode time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeriveMode {
    /// Derive all `N` feature hypervectors once and cache them (one
    /// vault read total). The fast software path: each row binds and
    /// bundles the cached features in one column pass
    /// ([`BitSliceAccumulator::bundle_row`]), low counters in registers,
    /// which reads the same bytes for every row and never builds a
    /// bound-pair table.
    #[default]
    Cached,
    /// Re-derive from the key on every encoded sample (one vault read
    /// per sample), mirroring the vault-read schedule of a hardware
    /// pipeline that keeps no derived features. The encoder itself
    /// still holds them: [`LockedEncoder::from_parts`] derives the
    /// resident `features` block in every mode, this one included, so
    /// a memory dump finds them here as in the other modes.
    OnTheFly,
    /// Constant-time serving mode: the same memory and vault accesses
    /// per encoded sample regardless of query content or cache state.
    /// Every encode performs one cache-oblivious vault read
    /// ([`KeyVault::with_key_oblivious`]) per sample, then stages each
    /// feature from the resident features and XORs in its value,
    /// selected from **all** `M` value hypervectors, read in order, by
    /// a branchless mask, so neither access pattern depends on which
    /// `(feature, level)` pairs the query touches. Two exceptions, both
    /// residual risks in `SECURITY.md`: the accumulator's carry ripple
    /// stops once no dimension carries, and a non-binary encode's
    /// readout (`to_int`) loops over the set counter bits, so both
    /// follow the bundle counts. Bit-identical to [`DeriveMode::Cached`]
    /// by construction.
    Hardened,
}

/// The locked encoder: drop-in [`Encoder`] replacement whose feature
/// hypervectors are derived from a vault-held key.
///
/// # Examples
///
/// ```
/// use hdc_model::Encoder;
/// use hdlock::{LockConfig, LockedEncoder};
/// use hypervec::HvRng;
///
/// let mut rng = HvRng::from_seed(7);
/// let config = LockConfig { n_features: 16, m_levels: 4, dim: 2048, pool_size: 32, n_layers: 2 };
/// let enc = LockedEncoder::generate(&mut rng, &config)?;
/// let h = enc.encode_binary(&vec![0u16; 16]);
/// assert_eq!(h.dim(), 2048);
/// # Ok::<(), hdlock::LockError>(())
/// ```
#[derive(Debug)]
pub struct LockedEncoder {
    pool: BasePool,
    values: LevelHvs,
    vault: KeyVault,
    /// The `N` derived feature hypervectors, tile-major: the only copy.
    features: TileBlock,
    /// The `M` public value hypervectors, tile-major, for the column
    /// pass.
    value_tiles: TileBlock,
    mode: DeriveMode,
    n_layers: usize,
}

/// Structural parameters of a locked encoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockConfig {
    /// Number of input features `N`.
    pub n_features: usize,
    /// Number of value levels `M`.
    pub m_levels: usize,
    /// Hypervector dimensionality `D`.
    pub dim: usize,
    /// Public base-pool size `P`.
    pub pool_size: usize,
    /// Key layers `L` (0 = unprotected baseline: feature `i` is base `i`).
    pub n_layers: usize,
}

impl LockConfig {
    /// The paper's validation setup for a given `N`: `P = N`,
    /// `D = 10 000`, `M = 16`, `L = 2`.
    #[must_use]
    pub fn paper_validation(n_features: usize) -> Self {
        LockConfig {
            n_features,
            m_levels: 16,
            dim: 10_000,
            pool_size: n_features,
            n_layers: 2,
        }
    }
}

impl LockedEncoder {
    /// Generates a fresh locked encoder: random pool, random correlated
    /// value hypervectors, random key sealed into a vault.
    ///
    /// # Errors
    ///
    /// Propagates [`LockError`] for invalid parameters (see
    /// [`EncodingKey::random`]) and level-generation failures.
    pub fn generate(rng: &mut HvRng, config: &LockConfig) -> Result<Self, LockError> {
        let pool = BasePool::generate(rng, config.dim, config.pool_size);
        let values = LevelHvs::generate(rng, config.dim, config.m_levels).map_err(|_| {
            LockError::InvalidParameter {
                what: "invalid level-hypervector shape",
            }
        })?;
        let key = EncodingKey::random(
            rng,
            config.n_features,
            config.n_layers,
            config.pool_size,
            config.dim,
        )?;
        Self::from_parts(pool, values, key)
    }

    /// Assembles a locked encoder from explicit parts (pool, values and
    /// key), sealing the key.
    ///
    /// # Errors
    ///
    /// Returns [`LockError::DimensionMismatch`] when parts disagree on
    /// `D`, or key-range errors.
    pub fn from_parts(
        pool: BasePool,
        values: LevelHvs,
        key: EncodingKey,
    ) -> Result<Self, LockError> {
        if pool.dim() != values.dim() {
            return Err(LockError::DimensionMismatch {
                expected: pool.dim(),
                found: values.dim(),
            });
        }
        if key.dim() != pool.dim() {
            return Err(LockError::DimensionMismatch {
                expected: pool.dim(),
                found: key.dim(),
            });
        }
        if key.pool_size() != pool.len() {
            return Err(LockError::PoolTooSmall {
                pool_size: pool.len(),
                n_features: key.n_features(),
            });
        }
        let n_layers = key.n_layers();
        // Derive the cached feature hypervectors with a single
        // privileged read, reusing one scratch pair across features and
        // scattering each straight into the tile block.
        let mut features = TileBlock::zeroed(key.n_features(), pool.dim());
        let mut fea = BinaryHv::ones(pool.dim());
        let mut scratch = BinaryHv::ones(pool.dim());
        for i in 0..key.n_features() {
            derive_feature_into(&pool, key.feature(i), i, &mut fea, &mut scratch)?;
            features.set(i, fea.bits().words());
        }
        let value_tiles = TileBlock::from_hvs(values.dim(), values.levels());
        let vault = KeyVault::seal(key);
        // Account for the derivation read in the audit trail.
        vault.with_key(|_| ()).map_err(|_| LockError::VaultSealed)?;
        Ok(LockedEncoder {
            pool,
            values,
            vault,
            features,
            value_tiles,
            mode: DeriveMode::Cached,
            n_layers,
        })
    }

    /// Issues a re-keyed clone of this encoder: same public pool and
    /// value hypervectors, fresh random key of the same depth.
    ///
    /// Re-keying is the recovery path if a device key is ever suspected
    /// leaked: the public memory image stays valid, but every feature
    /// hypervector changes, so the old class hypervectors (and any
    /// stolen knowledge of the old mapping) become useless — the model
    /// must be retrained under the new key.
    ///
    /// # Errors
    ///
    /// Propagates key-generation errors (cannot occur for parameters
    /// that built `self`).
    pub fn rekeyed(&self, rng: &mut HvRng) -> Result<Self, LockError> {
        let key = EncodingKey::random(
            rng,
            self.n_features(),
            self.n_layers,
            self.pool.len(),
            self.pool.dim(),
        )?;
        let mut rekeyed = Self::from_parts(self.pool.clone(), self.values.clone(), key)?;
        // A re-key is a recovery action, not a policy change: a hardened
        // deployment must stay hardened across generations.
        rekeyed.mode = self.mode;
        Ok(rekeyed)
    }

    /// Switches between cached, on-the-fly and hardened derivation.
    pub fn set_mode(&mut self, mode: DeriveMode) {
        self.mode = mode;
    }

    /// Current derivation mode.
    #[must_use]
    pub fn mode(&self) -> DeriveMode {
        self.mode
    }

    /// Key layers `L`.
    #[must_use]
    pub fn n_layers(&self) -> usize {
        self.n_layers
    }

    /// The public base pool (what an attacker can dump).
    #[must_use]
    pub fn pool(&self) -> &BasePool {
        &self.pool
    }

    /// The public value hypervectors (unprotected by design; see the
    /// paper's "Why Not Represent the Value Hypervectors?").
    #[must_use]
    pub fn values(&self) -> &LevelHvs {
        &self.values
    }

    /// The key vault (for audit inspection; key material stays inside).
    #[must_use]
    pub fn vault(&self) -> &KeyVault {
        &self.vault
    }

    /// Reference scalar implementation of Eq. 10 (per-dimension `i32`
    /// adds, allocating derivation). Kept as the engine's bit-exactness
    /// target and the benchmark baseline; respects the derivation mode's
    /// vault-read accounting.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Encoder::encode_int`].
    #[must_use]
    pub fn encode_int_scalar(&self, levels: &[u16]) -> IntHv {
        self.check_row(levels);
        let mut acc = IntHv::zeros(self.dim());
        match self.mode {
            DeriveMode::Cached => {
                for (i, &lv) in levels.iter().enumerate() {
                    acc.add_bound_pair(self.values.level(usize::from(lv)), &self.features.get(i));
                }
            }
            DeriveMode::OnTheFly => {
                self.vault
                    .with_key(|key| {
                        for (i, &lv) in levels.iter().enumerate() {
                            let fea = derive_feature(&self.pool, key.feature(i), i)
                                .expect("sealed key was validated at construction");
                            acc.add_bound_pair(self.values.level(usize::from(lv)), &fea);
                        }
                    })
                    .expect("vault alive while encoder exists");
            }
            DeriveMode::Hardened => {
                // Same arithmetic as the cached arm, but under one
                // oblivious vault read so the scalar reference keeps the
                // hardened mode's audit accounting.
                self.vault
                    .with_key_oblivious(|_| {
                        for (i, &lv) in levels.iter().enumerate() {
                            acc.add_bound_pair(
                                self.values.level(usize::from(lv)),
                                &self.features.get(i),
                            );
                        }
                    })
                    .expect("vault alive while encoder exists");
            }
        }
        acc
    }

    /// Encodes one row from the cached features in one column pass,
    /// replacing the accumulator's contents.
    fn accumulate_row_cached(&self, acc: &mut BitSliceAccumulator, levels: &[u16]) {
        acc.bundle_row(&self.features, &self.value_tiles, levels);
    }

    /// Accumulates one row deriving every feature from the key under a
    /// single privileged read, reusing the caller's scratch buffers;
    /// each derived feature is bound to its value straight into the
    /// accumulator's staging slot.
    fn accumulate_row_on_the_fly(
        &self,
        acc: &mut BitSliceAccumulator,
        levels: &[u16],
        fea: &mut BinaryHv,
        scratch: &mut BinaryHv,
    ) {
        let xor_into = kernel::active().xor_into;
        self.vault
            .with_key(|key| {
                acc.add_staged(levels.len(), |i, slot| {
                    derive_feature_into(&self.pool, key.feature(i), i, fea, scratch)
                        .expect("sealed key was validated at construction");
                    let value = self.values.level(usize::from(levels[i]));
                    xor_into(value.bits().words(), fea.bits().words(), slot);
                });
            })
            .expect("vault alive while encoder exists");
    }

    /// Accumulates one row in fixed time: one cache-oblivious vault read,
    /// then each feature gathered into its staging slot and bound to the
    /// value a branchless mask selects while all `M` values are read in
    /// order. The read comes first, not around the selects, so a batch's
    /// workers do not queue on the vault's lock.
    fn accumulate_row_hardened(&self, acc: &mut BitSliceAccumulator, levels: &[u16]) {
        self.vault
            .with_key_oblivious(|_| ())
            .expect("vault alive while encoder exists");
        let m = self.values.m();
        acc.add_staged(levels.len(), |i, slot| {
            let lv = usize::from(levels[i]);
            // A level past `M` would match no mask and silently bundle
            // the bare feature.
            assert!(lv < m, "level index {lv} out of range (M = {m})");
            self.features.get_into(i, slot);
            for v in 0..m {
                // All-ones iff v == lv: `x | -x` has its top bit set for
                // every nonzero x, so the shifted bit is 1 exactly when
                // the XOR difference is nonzero — no data-dependent
                // branch anywhere in the selection.
                let eq = (v ^ lv) as u64;
                let mask = ((eq | eq.wrapping_neg()) >> 63).wrapping_sub(1);
                for (s, &w) in slot.iter_mut().zip(self.values.level(v).bits().words()) {
                    *s ^= w & mask;
                }
            }
        });
    }

    /// Shared batch driver: chunked fan-out with per-worker scratch
    /// state, finishing each sample with `finish` (majority vote or
    /// integer widening).
    fn encode_batch_with<T: Send>(
        &self,
        rows: &[&[u16]],
        finish: impl Fn(&BitSliceAccumulator) -> T + Sync,
    ) -> Vec<T> {
        for row in rows {
            self.check_row(row);
        }
        match self.mode {
            DeriveMode::Cached => par::par_chunk_map(rows.len(), 4, |range| {
                let mut acc = BitSliceAccumulator::new(self.dim());
                let mut out = Vec::with_capacity(range.len());
                for r in range {
                    self.accumulate_row_cached(&mut acc, rows[r]);
                    out.push(finish(&acc));
                }
                out
            }),
            DeriveMode::OnTheFly => par::par_chunk_map(rows.len(), 4, |range| {
                let mut acc = BitSliceAccumulator::new(self.dim());
                let mut fea = BinaryHv::ones(self.dim());
                let mut scratch = BinaryHv::ones(self.dim());
                let mut out = Vec::with_capacity(range.len());
                for r in range {
                    acc.clear();
                    self.accumulate_row_on_the_fly(&mut acc, rows[r], &mut fea, &mut scratch);
                    out.push(finish(&acc));
                }
                out
            }),
            DeriveMode::Hardened => par::par_chunk_map(rows.len(), 4, |range| {
                let mut acc = BitSliceAccumulator::new(self.dim());
                let mut out = Vec::with_capacity(range.len());
                for r in range {
                    acc.clear();
                    self.accumulate_row_hardened(&mut acc, rows[r]);
                    out.push(finish(&acc));
                }
                out
            }),
        }
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

impl Encoder for LockedEncoder {
    fn n_features(&self) -> usize {
        self.features.len()
    }

    fn m_levels(&self) -> usize {
        self.values.m()
    }

    fn dim(&self) -> usize {
        self.pool.dim()
    }

    fn encode_int(&self, levels: &[u16]) -> IntHv {
        self.check_row(levels);
        let mut acc = BitSliceAccumulator::new(self.dim());
        match self.mode {
            DeriveMode::Cached => self.accumulate_row_cached(&mut acc, levels),
            DeriveMode::OnTheFly => {
                let mut fea = BinaryHv::ones(self.dim());
                let mut scratch = BinaryHv::ones(self.dim());
                self.accumulate_row_on_the_fly(&mut acc, levels, &mut fea, &mut scratch);
            }
            DeriveMode::Hardened => self.accumulate_row_hardened(&mut acc, levels),
        }
        acc.to_int()
    }

    fn encode_binary(&self, levels: &[u16]) -> BinaryHv {
        self.check_row(levels);
        let mut acc = BitSliceAccumulator::new(self.dim());
        match self.mode {
            DeriveMode::Cached => self.accumulate_row_cached(&mut acc, levels),
            DeriveMode::OnTheFly => {
                let mut fea = BinaryHv::ones(self.dim());
                let mut scratch = BinaryHv::ones(self.dim());
                self.accumulate_row_on_the_fly(&mut acc, levels, &mut fea, &mut scratch);
            }
            DeriveMode::Hardened => self.accumulate_row_hardened(&mut acc, levels),
        }
        acc.majority_ties_positive()
    }

    fn encode_batch_binary(&self, rows: &[&[u16]]) -> Vec<BinaryHv> {
        self.encode_batch_with(rows, BitSliceAccumulator::majority_ties_positive)
    }

    fn encode_batch_int(&self, rows: &[&[u16]]) -> Vec<IntHv> {
        self.encode_batch_with(rows, BitSliceAccumulator::to_int)
    }

    fn is_hardened(&self) -> bool {
        self.mode == DeriveMode::Hardened
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::LayerKey;

    fn config() -> LockConfig {
        config_with(9)
    }

    /// [`config`]'s shape at `n_features` features.
    fn config_with(n_features: usize) -> LockConfig {
        LockConfig {
            n_features,
            m_levels: 4,
            dim: 1024,
            pool_size: n_features + 11,
            n_layers: 2,
        }
    }

    /// Feature counts below, at and past the accumulator's 16-input
    /// carry-save group.
    const FEATURE_COUNTS: [usize; 3] = [9, 16, 40];

    /// Feature `i`'s hypervector, derived from the key under one audited
    /// vault read.
    fn feature(enc: &LockedEncoder, i: usize) -> BinaryHv {
        enc.vault()
            .with_key(|key| derive_feature(enc.pool(), key.feature(i), i))
            .expect("vault alive while encoder exists")
            .expect("sealed key was validated at construction")
    }

    #[test]
    fn derive_feature_is_product_of_rotated_bases() {
        let mut rng = HvRng::from_seed(1);
        let pool = BasePool::generate(&mut rng, 512, 6);
        let fk = FeatureKey::new(vec![
            LayerKey {
                base_index: 2,
                rotation: 10,
            },
            LayerKey {
                base_index: 5,
                rotation: 100,
            },
        ]);
        let hv = derive_feature(&pool, &fk, 0).unwrap();
        let manual = pool
            .base(2)
            .unwrap()
            .rotated(10)
            .bind(&pool.base(5).unwrap().rotated(100));
        assert_eq!(hv, manual);
    }

    #[test]
    fn derive_feature_rejects_missing_base_naming_the_feature() {
        let mut rng = HvRng::from_seed(2);
        let pool = BasePool::generate(&mut rng, 64, 2);
        let fk = FeatureKey::new(vec![LayerKey {
            base_index: 7,
            rotation: 0,
        }]);
        // The error must carry the *real* feature index, not a hardcoded 0.
        match derive_feature(&pool, &fk, 5) {
            Err(LockError::KeyOutOfRange {
                feature,
                base_index,
                ..
            }) => {
                assert_eq!(feature, 5);
                assert_eq!(base_index, 7);
            }
            other => panic!("expected KeyOutOfRange, got {other:?}"),
        }
    }

    #[test]
    fn derive_feature_into_matches_allocating_variant() {
        let mut rng = HvRng::from_seed(11);
        let pool = BasePool::generate(&mut rng, 130, 4);
        let fk = FeatureKey::new(vec![
            LayerKey {
                base_index: 1,
                rotation: 29,
            },
            LayerKey {
                base_index: 3,
                rotation: 101,
            },
        ]);
        let mut out = BinaryHv::ones(130);
        let mut scratch = BinaryHv::ones(130);
        // Dirty the buffers first: the contract is full overwrite.
        out = out.negated();
        derive_feature_into(&pool, &fk, 2, &mut out, &mut scratch).unwrap();
        assert_eq!(out, derive_feature(&pool, &fk, 2).unwrap());
    }

    #[test]
    fn encode_matches_manual_sum() {
        let mut rng = HvRng::from_seed(3);
        let enc = LockedEncoder::generate(&mut rng, &config()).unwrap();
        let row: Vec<u16> = (0..9).map(|i| (i % 4) as u16).collect();
        let h = enc.encode_int(&row);
        let mut manual = IntHv::zeros(1024);
        for (i, &lv) in row.iter().enumerate() {
            manual.add_binary(&feature(&enc, i).bind(enc.values().level(usize::from(lv))));
        }
        assert_eq!(h, manual);
    }

    #[test]
    fn engine_matches_scalar_reference_in_both_modes() {
        for n in FEATURE_COUNTS {
            let mut rng = HvRng::from_seed(12);
            let mut enc = LockedEncoder::generate(&mut rng, &config_with(n)).unwrap();
            let row: Vec<u16> = (0..n).map(|i| ((i * 5) % 4) as u16).collect();
            for mode in [
                DeriveMode::Cached,
                DeriveMode::OnTheFly,
                DeriveMode::Hardened,
            ] {
                enc.set_mode(mode);
                assert_eq!(
                    enc.encode_int(&row),
                    enc.encode_int_scalar(&row),
                    "N {n} {mode:?}"
                );
            }
        }
    }

    #[test]
    fn batch_matches_per_sample_in_both_modes() {
        for n in FEATURE_COUNTS {
            let mut rng = HvRng::from_seed(13);
            let mut enc = LockedEncoder::generate(&mut rng, &config_with(n)).unwrap();
            let rows: Vec<Vec<u16>> = (0..11)
                .map(|s| (0..n).map(|i| ((s + 2 * i) % 4) as u16).collect())
                .collect();
            let refs: Vec<&[u16]> = rows.iter().map(Vec::as_slice).collect();
            for mode in [
                DeriveMode::Cached,
                DeriveMode::OnTheFly,
                DeriveMode::Hardened,
            ] {
                enc.set_mode(mode);
                let batch = enc.encode_batch_binary(&refs);
                let batch_int = enc.encode_batch_int(&refs);
                for (i, row) in refs.iter().enumerate() {
                    assert_eq!(batch[i], enc.encode_binary(row), "N {n} {mode:?} row {i}");
                    assert_eq!(batch_int[i], enc.encode_int(row), "N {n} {mode:?} row {i}");
                }
            }
        }
    }

    #[test]
    fn cached_and_on_the_fly_agree() {
        let mut rng = HvRng::from_seed(4);
        let mut enc = LockedEncoder::generate(&mut rng, &config()).unwrap();
        let row: Vec<u16> = (0..9).map(|i| ((i * 3) % 4) as u16).collect();
        let cached = enc.encode_binary(&row);
        enc.set_mode(DeriveMode::OnTheFly);
        let otf = enc.encode_binary(&row);
        assert_eq!(cached, otf);
        enc.set_mode(DeriveMode::Hardened);
        assert_eq!(cached, enc.encode_binary(&row));
    }

    #[test]
    fn hardened_mode_reads_vault_per_sample() {
        let mut rng = HvRng::from_seed(15);
        let mut enc = LockedEncoder::generate(&mut rng, &config()).unwrap();
        enc.set_mode(DeriveMode::Hardened);
        assert!(Encoder::is_hardened(&enc));
        let base_reads = enc.vault().reads();
        let row = vec![0u16; 9];
        let _ = enc.encode_binary(&row);
        let _ = enc.encode_int(&row);
        assert_eq!(enc.vault().reads(), base_reads + 2);
        let rows: Vec<Vec<u16>> = (0..7).map(|_| vec![0u16; 9]).collect();
        let refs: Vec<&[u16]> = rows.iter().map(Vec::as_slice).collect();
        let _ = enc.encode_batch_binary(&refs);
        assert_eq!(enc.vault().reads(), base_reads + 9);
    }

    /// A hardened encoder and a row whose feature 4 sits at level
    /// `M = 4`, one past the last: the branchless select would pick no
    /// value for it, so every entry point must refuse the row.
    fn hardened_with_level_past_m() -> (LockedEncoder, Vec<u16>) {
        let mut rng = HvRng::from_seed(16);
        let mut enc = LockedEncoder::generate(&mut rng, &config()).unwrap();
        enc.set_mode(DeriveMode::Hardened);
        let mut row = vec![0u16; 9];
        row[4] = 4;
        (enc, row)
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn hardened_encode_binary_rejects_level_past_m() {
        let (enc, row) = hardened_with_level_past_m();
        let _ = enc.encode_binary(&row);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn hardened_encode_int_rejects_level_past_m() {
        let (enc, row) = hardened_with_level_past_m();
        let _ = enc.encode_int(&row);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn hardened_batch_rejects_level_past_m() {
        let (enc, row) = hardened_with_level_past_m();
        // A one-row batch runs inline, so the panic message reaches the
        // harness instead of a worker thread's join.
        let _ = enc.encode_batch_binary(&[row.as_slice()]);
    }

    #[test]
    fn rekeyed_preserves_mode() {
        let mut rng = HvRng::from_seed(17);
        let mut enc = LockedEncoder::generate(&mut rng, &config()).unwrap();
        enc.set_mode(DeriveMode::Hardened);
        let rekeyed = enc.rekeyed(&mut rng).unwrap();
        assert_eq!(rekeyed.mode(), DeriveMode::Hardened);
        assert!(Encoder::is_hardened(&rekeyed));
    }

    #[test]
    fn on_the_fly_mode_reads_vault_per_sample() {
        let mut rng = HvRng::from_seed(5);
        let mut enc = LockedEncoder::generate(&mut rng, &config()).unwrap();
        let base_reads = enc.vault().reads();
        let row = vec![0u16; 9];
        let _ = enc.encode_binary(&row);
        assert_eq!(
            enc.vault().reads(),
            base_reads,
            "cached mode must not read the vault"
        );
        enc.set_mode(DeriveMode::OnTheFly);
        let _ = enc.encode_binary(&row);
        let _ = enc.encode_binary(&row);
        assert_eq!(enc.vault().reads(), base_reads + 2);
    }

    #[test]
    fn on_the_fly_batch_reads_vault_per_sample() {
        let mut rng = HvRng::from_seed(14);
        let mut enc = LockedEncoder::generate(&mut rng, &config()).unwrap();
        enc.set_mode(DeriveMode::OnTheFly);
        let base_reads = enc.vault().reads();
        let rows: Vec<Vec<u16>> = (0..7).map(|_| vec![0u16; 9]).collect();
        let refs: Vec<&[u16]> = rows.iter().map(Vec::as_slice).collect();
        let _ = enc.encode_batch_binary(&refs);
        assert_eq!(enc.vault().reads(), base_reads + 7);
    }

    #[test]
    fn session_inference_matches_scalar_in_both_modes() {
        use hdc_model::{ClassMemory, ClassifySession, ModelKind, OwnedSession};

        let mut rng = HvRng::from_seed(21);
        let mut enc = LockedEncoder::generate(&mut rng, &config()).unwrap();
        let rows: Vec<Vec<u16>> = (0..13)
            .map(|s| (0..9).map(|i| ((s + 3 * i) % 4) as u16).collect())
            .collect();
        let refs: Vec<&[u16]> = rows.iter().map(Vec::as_slice).collect();
        for kind in [ModelKind::Binary, ModelKind::NonBinary] {
            let mut memory = ClassMemory::new(kind, 3, 1024);
            for (j, row) in refs.iter().take(3).enumerate() {
                memory.acc_mut(j).add(&enc.encode_binary(row));
            }
            memory.rebinarize();
            let class_rows = memory.binary_rows();
            for mode in [
                DeriveMode::Cached,
                DeriveMode::OnTheFly,
                DeriveMode::Hardened,
            ] {
                enc.set_mode(mode);
                let session = OwnedSession::new(&enc, &memory);
                let fused = session.classify_batch(&refs);
                for (i, row) in refs.iter().enumerate() {
                    let scalar = match kind {
                        ModelKind::Binary => hdc_model::infer::classify_binary_hv(
                            &class_rows,
                            &enc.encode_binary(row),
                        ),
                        ModelKind::NonBinary => {
                            hdc_model::infer::classify_int_hv(&memory, &enc.encode_int(row))
                        }
                    };
                    assert_eq!(fused[i], scalar, "{kind:?} {mode:?} row {i}");
                }
            }
        }
    }

    #[test]
    fn session_on_the_fly_batch_keeps_vault_accounting() {
        use hdc_model::{ClassMemory, ClassifySession, ModelKind, OwnedSession};

        let mut rng = HvRng::from_seed(22);
        let mut enc = LockedEncoder::generate(&mut rng, &config()).unwrap();
        enc.set_mode(DeriveMode::OnTheFly);
        let memory = ClassMemory::new(ModelKind::Binary, 2, 1024);
        let session = OwnedSession::new(&enc, &memory);
        let base_reads = enc.vault().reads();
        let rows: Vec<Vec<u16>> = (0..6).map(|_| vec![0u16; 9]).collect();
        let refs: Vec<&[u16]> = rows.iter().map(Vec::as_slice).collect();
        let _ = session.classify_batch(&refs);
        // The fused path still derives per sample under one privileged
        // read each — serving does not change the audit trail.
        assert_eq!(enc.vault().reads(), base_reads + 6);
    }

    #[test]
    fn derived_features_are_quasi_orthogonal() {
        let mut rng = HvRng::from_seed(6);
        let cfg = LockConfig {
            n_features: 12,
            m_levels: 4,
            dim: 10_000,
            pool_size: 24,
            n_layers: 2,
        };
        let enc = LockedEncoder::generate(&mut rng, &cfg).unwrap();
        for i in 0..12 {
            for j in (i + 1)..12 {
                let d = feature(&enc, i).normalized_hamming(&feature(&enc, j));
                assert!((d - 0.5).abs() < 0.05, "features {i},{j}: {d}");
            }
        }
    }

    #[test]
    fn zero_layers_reproduces_identity_pool_mapping() {
        let mut rng = HvRng::from_seed(7);
        let cfg = LockConfig {
            n_features: 5,
            m_levels: 4,
            dim: 512,
            pool_size: 5,
            n_layers: 0,
        };
        let enc = LockedEncoder::generate(&mut rng, &cfg).unwrap();
        for i in 0..5 {
            assert_eq!(&feature(&enc, i), enc.pool().base(i).unwrap());
        }
    }

    #[test]
    fn from_parts_validates_dimensions() {
        let mut rng = HvRng::from_seed(8);
        let pool = BasePool::generate(&mut rng, 128, 4);
        let values = LevelHvs::generate(&mut rng, 256, 4).unwrap();
        let key = EncodingKey::random(&mut rng, 3, 1, 4, 128).unwrap();
        assert!(matches!(
            LockedEncoder::from_parts(pool, values, key),
            Err(LockError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn rekeying_changes_every_feature() {
        let mut rng = HvRng::from_seed(10);
        let enc = LockedEncoder::generate(&mut rng, &config()).unwrap();
        let rekeyed = enc.rekeyed(&mut rng).unwrap();
        assert_eq!(rekeyed.pool(), enc.pool());
        assert_eq!(rekeyed.values(), enc.values());
        let mut changed = 0;
        for i in 0..enc.n_features() {
            if feature(&enc, i) != feature(&rekeyed, i) {
                changed += 1;
            }
        }
        assert_eq!(changed, enc.n_features(), "all features must re-derive");
        let row = vec![0u16; 9];
        assert_ne!(enc.encode_binary(&row), rekeyed.encode_binary(&row));
    }

    #[test]
    fn wrong_guess_changes_encoding() {
        // Planting a wrong key for one feature must visibly change the
        // encoder output (this is what the attack criterion measures).
        let mut rng = HvRng::from_seed(9);
        let cfg = config();
        let pool = BasePool::generate(&mut rng, cfg.dim, cfg.pool_size);
        let values = LevelHvs::generate(&mut rng, cfg.dim, cfg.m_levels).unwrap();
        let key = EncodingKey::random(&mut rng, cfg.n_features, 2, cfg.pool_size, cfg.dim).unwrap();
        let mut wrong_key = key.clone();
        let mut fk = wrong_key.feature(0).clone();
        let mut layers = fk.layers().to_vec();
        layers[0].rotation = (layers[0].rotation + 1) % cfg.dim;
        fk = FeatureKey::new(layers);
        wrong_key.set_feature(0, fk).unwrap();

        let enc = LockedEncoder::from_parts(pool.clone(), values.clone(), key).unwrap();
        let wrong = LockedEncoder::from_parts(pool, values, wrong_key).unwrap();
        let row = vec![0u16; 9];
        assert_ne!(enc.encode_binary(&row), wrong.encode_binary(&row));
    }
}
