//! The model registry: generations of serving sessions behind an
//! atomic swap.
//!
//! A [`ModelRegistry`] owns the *currently serving* generation plus a
//! short rollback history. The swap discipline is the whole point:
//!
//! * **Readers never wait on a load.** The current generation lives in
//!   an `Arc` behind a mutex that is only ever held for a pointer
//!   clone or a pointer swap — never while a snapshot is parsed, a key
//!   re-derived or a model retrained. All of that happens outside the
//!   critical section, so in-flight traffic keeps classifying against
//!   the old generation until the new one is fully built.
//! * **Generations outlive the swap.** A batch that grabbed generation
//!   `G` finishes on `G` even if `G+1` lands mid-batch; `G` is freed
//!   when its last `Arc` drops.
//! * **Rekeying freezes the old vault.** [`ModelRegistry::rekey`]
//!   derives a fresh [`EncodingKey`](hdlock::EncodingKey), retrains the
//!   class memory under it, swaps, and then `destroy()`s the replaced
//!   generation's vault — the old key's read path is frozen even though
//!   the old generation may still be draining (its cached feature
//!   hypervectors keep serving; only privileged key reads die).

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hdc_datasets::Dataset;
use hdc_model::{HdcConfig, HdcModel, OwnedSession};
use hypervec::HvRng;
use parking_lot::Mutex;

use crate::error::StoreError;
use crate::serving::{AnyEncoder, ServingSession};
use crate::snapshot::{KeySegment, ModelSnapshot};

/// Rollback generations kept after a swap.
const ROLLBACK_DEPTH: usize = 4;

/// One immutable serving generation: a session plus the identity a
/// client can observe through the wire (`generation` id and snapshot
/// `checksum` in the `info` response).
#[derive(Debug)]
pub struct Generation {
    id: u64,
    checksum: u64,
    created: std::time::Instant,
    session: ServingSession,
}

impl Generation {
    /// Monotonically increasing generation id (1 is the boot model).
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Checksum of the snapshot this generation was built from (or
    /// would serialize to, for rekeyed generations born in memory).
    #[must_use]
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    /// The serving session.
    #[must_use]
    pub fn session(&self) -> &ServingSession {
        &self.session
    }

    /// Whether this generation serves a locked model.
    #[must_use]
    pub fn is_locked(&self) -> bool {
        self.session.encoder().is_locked()
    }

    /// Whether this generation serves in constant-time hardened mode
    /// (see [`hdc_model::Encoder::is_hardened`]).
    #[must_use]
    pub fn is_hardened(&self) -> bool {
        use hdc_model::Encoder as _;
        self.session.encoder().is_hardened()
    }

    /// Time since this generation was installed — how long the model
    /// has been serving (telemetry reports it on swap events, where a
    /// short-lived generation flags swap churn).
    #[must_use]
    pub fn age(&self) -> std::time::Duration {
        self.created.elapsed()
    }
}

/// What [`ModelRegistry::rekey`] retrains with: the hyperparameters and
/// the training set the deployment owns.
#[derive(Debug)]
pub struct RekeySource {
    /// Hyperparameters for retraining under the fresh key.
    pub config: HdcConfig,
    /// Training data (the model owner's, per the paper's threat model).
    pub train: Dataset,
}

/// Counters and identity reported by the `{"stats":true}` admin
/// request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegistryStats {
    /// Currently serving generation id.
    pub generation: u64,
    /// Currently serving snapshot checksum.
    pub checksum: u64,
    /// Whether the current generation is a locked model.
    pub locked: bool,
    /// Whether the current generation serves in constant-time hardened
    /// mode.
    pub hardened: bool,
    /// Completed `reload` swaps.
    pub reloads: u64,
    /// Completed `rekey` swaps.
    pub rekeys: u64,
    /// Completed rollbacks.
    pub rollbacks: u64,
}

/// Owner of the serving generations; see the module docs for the swap
/// discipline.
#[derive(Debug)]
pub struct ModelRegistry {
    current: Mutex<Arc<Generation>>,
    previous: Mutex<Vec<Arc<Generation>>>,
    next_id: AtomicU64,
    reloads: AtomicU64,
    rekeys: AtomicU64,
    rollbacks: AtomicU64,
    rekey_source: Option<RekeySource>,
}

impl ModelRegistry {
    /// Boots a registry serving `session` as generation 1.
    #[must_use]
    pub fn new(session: ServingSession, checksum: u64) -> Self {
        ModelRegistry {
            current: Mutex::new(Arc::new(Generation {
                id: 1,
                checksum,
                created: std::time::Instant::now(),
                session,
            })),
            previous: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(2),
            reloads: AtomicU64::new(0),
            rekeys: AtomicU64::new(0),
            rollbacks: AtomicU64::new(0),
            rekey_source: None,
        }
    }

    /// Boots a registry from a snapshot (plus its key segment for
    /// locked snapshots).
    ///
    /// # Errors
    ///
    /// Everything [`ModelSnapshot::into_session`] reports.
    pub fn from_snapshot(
        snapshot: ModelSnapshot,
        key: Option<&KeySegment>,
    ) -> Result<Self, StoreError> {
        let checksum = snapshot.checksum();
        Ok(Self::new(snapshot.into_session(key)?, checksum))
    }

    /// Attaches the retraining source that makes [`ModelRegistry::rekey`]
    /// available.
    #[must_use]
    pub fn with_rekey_source(mut self, source: RekeySource) -> Self {
        self.rekey_source = Some(source);
        self
    }

    /// The currently serving generation. Cost: one mutex-guarded `Arc`
    /// clone (a refcount bump) — cheap enough for every batch to call.
    #[must_use]
    pub fn current(&self) -> Arc<Generation> {
        Arc::clone(&self.current.lock())
    }

    /// Builds a generation record and swaps it in, retiring the old
    /// generation to the rollback stack. Returns the new generation
    /// paired with the generation it *actually* replaced (which may
    /// differ from any generation the caller captured earlier, if
    /// another swap raced this one).
    fn install(
        &self,
        session: ServingSession,
        checksum: u64,
    ) -> (Arc<Generation>, Arc<Generation>) {
        let generation = Arc::new(Generation {
            id: self.next_id.fetch_add(1, Ordering::SeqCst),
            checksum,
            created: std::time::Instant::now(),
            session,
        });
        let replaced = {
            let mut current = self.current.lock();
            std::mem::replace(&mut *current, Arc::clone(&generation))
        };
        let mut previous = self.previous.lock();
        previous.push(Arc::clone(&replaced));
        if previous.len() > ROLLBACK_DEPTH {
            previous.remove(0);
        }
        (generation, replaced)
    }

    /// Swaps in a new generation built from a snapshot (hot reload).
    /// The session is assembled entirely before the swap; traffic on
    /// the old generation is never blocked.
    ///
    /// # Errors
    ///
    /// Everything [`ModelSnapshot::into_session`] reports. On error the
    /// serving generation is untouched.
    pub fn reload(
        &self,
        snapshot: ModelSnapshot,
        key: Option<&KeySegment>,
    ) -> Result<Arc<Generation>, StoreError> {
        let checksum = snapshot.checksum();
        self.reload_with_checksum(snapshot, key, checksum)
    }

    /// [`ModelRegistry::reload`] with a checksum the caller already
    /// verified (the file-load path), avoiding a re-serialization of
    /// the whole snapshot just to recover its trailing 8 bytes.
    fn reload_with_checksum(
        &self,
        snapshot: ModelSnapshot,
        key: Option<&KeySegment>,
        checksum: u64,
    ) -> Result<Arc<Generation>, StoreError> {
        let session = snapshot.into_session(key)?;
        let (generation, _) = self.install(session, checksum);
        self.reloads.fetch_add(1, Ordering::Relaxed);
        Ok(generation)
    }

    /// Loads snapshot (and optional key segment) files and hot-reloads
    /// them — the admin wire request's path.
    ///
    /// # Errors
    ///
    /// File and format errors from loading, then everything
    /// [`ModelRegistry::reload`] reports.
    pub fn reload_files(
        &self,
        snapshot: &Path,
        key: Option<&Path>,
    ) -> Result<Arc<Generation>, StoreError> {
        let (snap, checksum) = ModelSnapshot::load(snapshot)?;
        let seg = match key {
            Some(path) => Some(KeySegment::load(path)?),
            None => None,
        };
        self.reload_with_checksum(snap, seg.as_ref(), checksum)
    }

    /// Re-keys the current locked generation: fresh random key from
    /// `seed` (same depth, same public pool and values), class memory
    /// retrained from the attached [`RekeySource`], atomic swap, old
    /// generation's vault destroyed.
    ///
    /// Deterministic: rekeying with seed `s` produces a model
    /// bit-identical to a cold start under
    /// `EncodingKey::random(HvRng::from_seed(s), …)` with the same
    /// pool, values and training data.
    ///
    /// # Errors
    ///
    /// [`StoreError::Registry`] when the current generation is not a
    /// locked model or no rekey source is attached; retraining errors.
    /// On error the serving generation is untouched.
    pub fn rekey(&self, seed: u64) -> Result<Arc<Generation>, StoreError> {
        let source = self.rekey_source.as_ref().ok_or_else(|| {
            StoreError::Registry("rekey needs a training source (with_rekey_source)".to_owned())
        })?;
        let old = self.current();
        let locked = old.session().encoder().as_locked().ok_or_else(|| {
            StoreError::Registry("current generation is not a locked model".to_owned())
        })?;
        // Everything expensive happens here, outside any lock: key
        // derivation, retraining, packing.
        let mut rng = HvRng::from_seed(seed);
        let fresh = locked.rekeyed(&mut rng)?;
        let model = HdcModel::fit_with_encoder(&source.config, fresh, &source.train)
            .map_err(|e| StoreError::Registry(format!("retraining under new key failed: {e}")))?;
        let checksum = ModelSnapshot::from_locked_model(&model).checksum();
        let (_, encoder, _, memory) = model.into_parts();
        let session = OwnedSession::new(AnyEncoder::Locked(encoder), &memory);
        // Freeze the compromised key (`old`, the generation this rekey
        // was asked to rotate away from) *and* the key of whatever
        // generation the swap actually retired — they differ when a
        // racing swap replaced `old` first, and leaving either vault
        // sealed would keep a superseded key readable. Privileged reads
        // on both fail from here on; retired generations still drain
        // cached-mode traffic (their derived feature hypervectors are
        // data, not key reads).
        let (generation, replaced) = self.install(session, checksum);
        for superseded in [&old, &replaced] {
            if let Some(vault) = superseded.session().encoder().vault() {
                vault.destroy();
            }
        }
        self.rekeys.fetch_add(1, Ordering::Relaxed);
        Ok(generation)
    }

    /// Swaps back to the most recently retired generation, discarding
    /// the one currently serving.
    ///
    /// After a `rekey`, the retired generation's vault has been
    /// destroyed: rolling back to it restores *serving* (cached-mode
    /// inference needs no vault reads) but not privileged key access —
    /// re-load the snapshot + key segment to fully restore a rekeyed-
    /// away generation.
    ///
    /// # Errors
    ///
    /// [`StoreError::Registry`] when no retired generation remains.
    pub fn rollback(&self) -> Result<Arc<Generation>, StoreError> {
        let target = self
            .previous
            .lock()
            .pop()
            .ok_or_else(|| StoreError::Registry("no generation to roll back to".to_owned()))?;
        {
            let mut current = self.current.lock();
            *current = Arc::clone(&target);
        }
        self.rollbacks.fetch_add(1, Ordering::Relaxed);
        Ok(target)
    }

    /// Identity + swap counters for the `stats` admin request.
    #[must_use]
    pub fn stats(&self) -> RegistryStats {
        let current = self.current();
        RegistryStats {
            generation: current.id(),
            checksum: current.checksum(),
            locked: current.is_locked(),
            hardened: current.is_hardened(),
            reloads: self.reloads.load(Ordering::Relaxed),
            rekeys: self.rekeys.load(Ordering::Relaxed),
            rollbacks: self.rollbacks.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc_datasets::Benchmark;
    use hdc_model::{ClassifySession, Encoder, ModelKind, RecordEncoder};
    use hdlock::{EncodingKey, LockConfig, LockedEncoder};

    fn train_set() -> Dataset {
        Benchmark::Pamap.generate(0.03, 50).unwrap().0
    }

    fn locked_fixture(dim: usize) -> (ModelRegistry, HdcModel<LockedEncoder>, Dataset) {
        let train = train_set();
        let config = HdcConfig::paper_default().with_dim(dim).with_seed(50);
        let mut rng = HvRng::from_seed(50);
        let enc = LockedEncoder::generate(
            &mut rng,
            &LockConfig {
                n_features: train.n_features(),
                m_levels: config.m_levels,
                dim,
                pool_size: train.n_features(),
                n_layers: 2,
            },
        )
        .unwrap();
        let model = HdcModel::fit_with_encoder(&config, enc, &train).unwrap();
        let snap = ModelSnapshot::from_locked_model(&model);
        let key = KeySegment::from_locked_encoder(model.encoder()).unwrap();
        let registry = ModelRegistry::from_snapshot(snap, Some(&key))
            .unwrap()
            .with_rekey_source(RekeySource {
                config,
                train: train.clone(),
            });
        (registry, model, train)
    }

    #[test]
    fn boot_generation_serves_the_snapshot() {
        let (registry, model, _) = locked_fixture(256);
        let generation = registry.current();
        assert_eq!(generation.id(), 1);
        assert!(generation.is_locked());
        let row: Vec<u16> = (0..model.encoder().n_features() as u16)
            .map(|i| i % 4)
            .collect();
        assert_eq!(
            generation.session().classify(&row),
            model.session().classify(&row)
        );
    }

    #[test]
    fn reload_swaps_and_rollback_returns() {
        let (registry, _, train) = locked_fixture(256);
        let before = registry.current();
        // Reload a *standard* model: the registry can change protection
        // stories, not just weights.
        let config = HdcConfig::paper_default().with_dim(512).with_seed(51);
        let std_model = HdcModel::fit_standard(&config, &train).unwrap();
        let gen2 = registry
            .reload(ModelSnapshot::from_standard_model(&std_model), None)
            .unwrap();
        assert_eq!(gen2.id(), 2);
        assert!(!gen2.is_locked());
        assert_eq!(registry.current().id(), 2);
        assert_ne!(gen2.checksum(), before.checksum());
        // The retired generation still answers in-flight work.
        let row: Vec<u16> = (0..train.n_features() as u16).map(|i| i % 4).collect();
        let _ = before.session().classify(&row);
        // Rollback restores it.
        let back = registry.rollback().unwrap();
        assert_eq!(back.id(), before.id());
        assert_eq!(registry.current().id(), 1);
        let stats = registry.stats();
        assert_eq!(stats.reloads, 1);
        assert_eq!(stats.rollbacks, 1);
        assert!(registry.rollback().is_err());
    }

    #[cfg(unix)]
    #[test]
    fn reload_of_a_device_file_is_an_error_not_an_unbounded_read() {
        let (registry, _, _) = locked_fixture(256);
        let dev_zero = Path::new("/dev/zero");
        assert!(matches!(
            registry.reload_files(dev_zero, None),
            Err(StoreError::Malformed(_))
        ));
        assert!(matches!(
            KeySegment::load(dev_zero),
            Err(StoreError::Malformed(_))
        ));
        assert_eq!(registry.current().id(), 1);
        assert_eq!(registry.stats().reloads, 0);
    }

    #[test]
    fn rekey_is_deterministic_and_freezes_the_old_vault() {
        let (registry, model, train) = locked_fixture(256);
        let old = registry.current();
        let gen2 = registry.rekey(777).unwrap();
        assert_eq!(gen2.id(), 2);
        assert!(gen2.is_locked());

        // The old vault is frozen…
        let old_vault = old.session().encoder().vault().unwrap();
        assert!(!old_vault.is_sealed());
        assert!(old_vault.with_key(|_| ()).is_err());
        // …but the old generation still drains cached-mode traffic.
        let row: Vec<u16> = (0..train.n_features() as u16).map(|i| i % 4).collect();
        let _ = old.session().classify(&row);

        // Bit-identical to a cold start under the same seed.
        let config = HdcConfig::paper_default().with_dim(256).with_seed(50);
        let mut rng = HvRng::from_seed(777);
        let cold_key = EncodingKey::random(
            &mut rng,
            train.n_features(),
            2,
            model.encoder().pool().len(),
            256,
        )
        .unwrap();
        let cold_enc = LockedEncoder::from_parts(
            model.encoder().pool().clone(),
            model.encoder().values().clone(),
            cold_key,
        )
        .unwrap();
        let cold = HdcModel::fit_with_encoder(&config, cold_enc, &train).unwrap();
        let cold_session = cold.session();
        let rows: Vec<Vec<u16>> = (0..16)
            .map(|s| {
                (0..train.n_features())
                    .map(|i| ((s + i) % 8) as u16)
                    .collect()
            })
            .collect();
        let refs: Vec<&[u16]> = rows.iter().map(Vec::as_slice).collect();
        let want = cold_session.scores_batch(&refs);
        let got = gen2.session().scores_batch(&refs);
        assert_eq!(got.best_rows(), want.best_rows());
        for q in 0..refs.len() {
            for (g, w) in got.scores(q).iter().zip(want.scores(q)) {
                assert_eq!(g.to_bits(), w.to_bits());
            }
        }
        assert_eq!(
            gen2.checksum(),
            ModelSnapshot::from_locked_model(&cold).checksum()
        );
        assert_eq!(registry.stats().rekeys, 1);
    }

    #[test]
    fn concurrent_rekeys_freeze_every_superseded_vault() {
        let (registry, _, _) = locked_fixture(256);
        let boot = registry.current();
        let (gen_a, gen_b) = std::thread::scope(|s| {
            let a = s.spawn(|| registry.rekey(61).unwrap());
            let b = s.spawn(|| registry.rekey(62).unwrap());
            (a.join().unwrap(), b.join().unwrap())
        });
        // Whatever the interleaving: the boot vault and the vault of
        // whichever rekeyed generation lost the race are destroyed;
        // only the generation still serving keeps a sealed vault.
        let current_id = registry.current().id();
        assert!(!boot.session().encoder().vault().unwrap().is_sealed());
        for generation in [&gen_a, &gen_b] {
            let sealed = generation.session().encoder().vault().unwrap().is_sealed();
            assert_eq!(
                sealed,
                generation.id() == current_id,
                "generation {} (current {current_id})",
                generation.id()
            );
        }
        assert_eq!(registry.stats().rekeys, 2);
    }

    #[test]
    fn rekey_preserves_hardened_mode() {
        let train = train_set();
        let config = HdcConfig::paper_default().with_dim(256).with_seed(53);
        let mut rng = HvRng::from_seed(53);
        let enc = LockedEncoder::generate(
            &mut rng,
            &LockConfig {
                n_features: train.n_features(),
                m_levels: config.m_levels,
                dim: 256,
                pool_size: train.n_features(),
                n_layers: 2,
            },
        )
        .unwrap();
        let model = HdcModel::fit_with_encoder(&config, enc, &train).unwrap();
        let checksum = ModelSnapshot::from_locked_model(&model).checksum();
        let (_, mut encoder, _, memory) = model.into_parts();
        encoder.set_mode(hdlock::DeriveMode::Hardened);
        let session = OwnedSession::new(AnyEncoder::Locked(encoder), &memory);
        let registry =
            ModelRegistry::new(session, checksum).with_rekey_source(RekeySource { config, train });
        assert!(registry.current().is_hardened());
        assert!(registry.stats().hardened);
        // A rekey is a security recovery action — it must not silently
        // drop the constant-time policy of the generation it replaces.
        let gen2 = registry.rekey(99).unwrap();
        assert!(gen2.is_hardened());
        assert!(registry.stats().hardened);
        assert!(registry.stats().locked);
    }

    #[test]
    fn rekey_requires_locked_model_and_source() {
        let train = train_set();
        let config = HdcConfig::paper_default()
            .with_dim(130)
            .with_kind(ModelKind::Binary)
            .with_seed(52);
        let model: HdcModel<RecordEncoder> = HdcModel::fit_standard(&config, &train).unwrap();
        let snap = ModelSnapshot::from_standard_model(&model);
        let registry = ModelRegistry::from_snapshot(snap, None).unwrap();
        // No source attached:
        assert!(matches!(registry.rekey(1), Err(StoreError::Registry(_))));
        // Source attached but the serving model is standard:
        let registry = registry.with_rekey_source(RekeySource { config, train });
        let err = registry.rekey(1).unwrap_err();
        assert!(err.to_string().contains("not a locked model"), "{err}");
    }

    #[test]
    fn concurrent_readers_see_a_consistent_generation() {
        let (registry, _, train) = locked_fixture(256);
        let row: Vec<u16> = (0..train.n_features() as u16).map(|i| i % 4).collect();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..50 {
                        let generation = registry.current();
                        // Shape is stable within a grabbed generation
                        // even while rekeys land underneath.
                        let class = generation.session().classify(&row);
                        assert!(class < generation.session().n_classes());
                    }
                });
            }
            for round in 0..3 {
                registry.rekey(round).unwrap();
            }
        });
        assert_eq!(registry.stats().rekeys, 3);
        assert_eq!(registry.current().id(), 4);
    }
}
