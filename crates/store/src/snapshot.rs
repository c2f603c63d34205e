//! The versioned binary snapshot format and the sealed key segment.
//!
//! A [`ModelSnapshot`] is the packed on-disk form of a trained model:
//! `u64` bit planes and `i32` rows written verbatim (plus `f32` bit
//! patterns for the quantizer bounds), so save → load is **bit
//! identical** by construction — no JSON text, no float round-trips.
//! Both deployed encoder kinds are covered:
//!
//! * **standard** — the feature [`ItemMemory`] and value [`LevelHvs`]
//!   rows are stored directly;
//! * **locked** — only the *public* material is stored (base pool,
//!   value hypervectors, class rows, key shape). The key itself lives
//!   in a separate [`KeySegment`] artifact, so a snapshot can ship to
//!   an untrusted replica without its key: without the segment the
//!   snapshot is exactly the public dump the HDLock paper's attacker
//!   already has.
//!
//! Every artifact wears the [`crate::wire::Section`] envelope (magic, version,
//! length, FNV-1a64 checksum); a corrupt or truncated file fails fast
//! before any field is interpreted, and [`ModelSnapshot::save`] is
//! atomic (write-then-rename), so a crash never leaves a torn snapshot
//! behind.

use std::path::Path;

use hdc_datasets::Discretizer;
use hdc_model::{Encoder, HdcConfig, HdcModel, ModelKind, OwnedSession, RecordEncoder};
use hdlock::{BasePool, EncodingKey, FeatureKey, LayerKey, LockedEncoder};
use hypervec::{BinaryHv, IntHv, ItemMemory, LevelHvs, ShardedClassMemory};

use crate::error::StoreError;
use crate::serving::{AnyEncoder, ServingSession};
use crate::stage::MAX_STAGED_BYTES;
use crate::wire::{atomic_write, read_capped, ByteReader, ByteWriter, Section};

/// Envelope of model snapshots.
pub const SNAPSHOT_SECTION: Section = Section {
    magic: *b"HDSN",
    version: 1,
};

/// Envelope of sealed key segments.
pub const KEY_SECTION: Section = Section {
    magic: *b"HDKY",
    version: 1,
};

/// Encoder material stored in a snapshot.
#[derive(Debug, Clone)]
pub enum EncoderParts {
    /// Standard record encoder: stored feature + value hypervectors.
    Standard {
        /// Feature hypervectors in index order.
        features: ItemMemory,
        /// Value hypervectors in level order.
        values: LevelHvs,
    },
    /// Locked encoder: public material plus the key *shape* (the key
    /// itself ships separately as a [`KeySegment`]).
    Locked {
        /// Public base pool.
        pool: BasePool,
        /// Value hypervectors in level order.
        values: LevelHvs,
        /// Features `N` the sealed key must cover.
        n_features: usize,
        /// Key depth `L` the sealed key must have.
        n_layers: usize,
    },
}

/// A loaded (or about-to-be-saved) binary model snapshot.
#[derive(Debug, Clone)]
pub struct ModelSnapshot {
    config: HdcConfig,
    discretizer: Discretizer,
    encoder: EncoderParts,
    bins: Vec<BinaryHv>,
    ints: Option<Vec<IntHv>>,
}

impl ModelSnapshot {
    /// Snapshots a trained standard model.
    #[must_use]
    pub fn from_standard_model(model: &HdcModel<RecordEncoder>) -> Self {
        ModelSnapshot {
            config: *model.config(),
            discretizer: model.discretizer().clone(),
            encoder: EncoderParts::Standard {
                features: model.encoder().features(),
                values: model.encoder().values().clone(),
            },
            bins: model.memory().binary_rows().to_vec(),
            ints: int_rows(model),
        }
    }

    /// Snapshots a trained locked model — *without* its key. Pair with
    /// [`KeySegment::from_locked_encoder`] to persist the key
    /// separately.
    #[must_use]
    pub fn from_locked_model(model: &HdcModel<LockedEncoder>) -> Self {
        ModelSnapshot {
            config: *model.config(),
            discretizer: model.discretizer().clone(),
            encoder: EncoderParts::Locked {
                pool: model.encoder().pool().clone(),
                values: model.encoder().values().clone(),
                n_features: model.encoder().n_features(),
                n_layers: model.encoder().n_layers(),
            },
            bins: model.memory().binary_rows().to_vec(),
            ints: int_rows(model),
        }
    }

    /// The stored hyperparameters.
    #[must_use]
    pub fn config(&self) -> &HdcConfig {
        &self.config
    }

    /// The stored quantizer.
    #[must_use]
    pub fn discretizer(&self) -> &Discretizer {
        &self.discretizer
    }

    /// The stored encoder material.
    #[must_use]
    pub fn encoder(&self) -> &EncoderParts {
        &self.encoder
    }

    /// Whether this snapshot needs a [`KeySegment`] to serve.
    #[must_use]
    pub fn is_locked(&self) -> bool {
        matches!(self.encoder, EncoderParts::Locked { .. })
    }

    /// Hypervector dimensionality `D`.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.config.dim
    }

    /// Number of classes `C`.
    #[must_use]
    pub fn n_classes(&self) -> usize {
        self.bins.len()
    }

    /// Serializes into the framed, checksummed byte form.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        let (tag, kind) = (
            u8::from(self.is_locked()),
            match self.config.kind {
                ModelKind::Binary => 0u8,
                ModelKind::NonBinary => 1u8,
            },
        );
        w.put_u8(tag);
        w.put_u8(kind);
        w.put_usize(self.config.dim);
        w.put_usize(self.config.m_levels);
        w.put_usize(self.config.epochs);
        w.put_i64(i64::from(self.config.learning_rate));
        w.put_u64(self.config.seed);
        // Quantizer bounds as raw f32 bit patterns.
        w.put_usize(self.discretizer.n_features());
        w.put_usize(self.discretizer.m_levels());
        for &v in self.discretizer.mins() {
            w.put_f32(v);
        }
        for &v in self.discretizer.maxs() {
            w.put_f32(v);
        }
        match &self.encoder {
            EncoderParts::Standard { features, values } => {
                put_rows(&mut w, features.rows());
                put_rows(&mut w, values.levels());
            }
            EncoderParts::Locked {
                pool,
                values,
                n_features,
                n_layers,
            } => {
                put_rows(&mut w, pool.memory().rows());
                put_rows(&mut w, values.levels());
                w.put_usize(*n_features);
                w.put_usize(*n_layers);
            }
        }
        put_rows(&mut w, &self.bins);
        match &self.ints {
            None => w.put_u8(0),
            Some(rows) => {
                w.put_u8(1);
                for row in rows {
                    w.put_i32s(row.values());
                }
            }
        }
        SNAPSHOT_SECTION.frame(&w.into_bytes())
    }

    /// The snapshot's checksum — the value a serving `info` response
    /// reports so clients can detect a swap.
    #[must_use]
    pub fn checksum(&self) -> u64 {
        let bytes = self.to_bytes();
        u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().expect("framed tail"))
    }

    /// Parses and validates a framed snapshot, returning it with its
    /// verified checksum.
    ///
    /// # Errors
    ///
    /// Envelope errors ([`StoreError::BadMagic`],
    /// [`StoreError::ChecksumMismatch`], …) or validation errors for
    /// internally inconsistent payloads.
    pub fn from_bytes(bytes: &[u8]) -> Result<(Self, u64), StoreError> {
        let (payload, checksum) = SNAPSHOT_SECTION.open(bytes)?;
        let mut r = ByteReader::new(payload);
        let tag = r.get_u8()?;
        let kind = match r.get_u8()? {
            0 => ModelKind::Binary,
            1 => ModelKind::NonBinary,
            other => {
                return Err(StoreError::Malformed(format!("unknown model kind {other}")));
            }
        };
        let dim = r.get_usize()?;
        if dim == 0 {
            return Err(StoreError::Malformed("dimension is zero".to_owned()));
        }
        let m_levels = r.get_usize()?;
        let epochs = r.get_usize()?;
        let learning_rate = i32::try_from(r.get_i64()?)
            .map_err(|_| StoreError::Malformed("learning rate does not fit i32".to_owned()))?;
        let seed = r.get_u64()?;
        let config = HdcConfig {
            dim,
            m_levels,
            kind,
            epochs,
            learning_rate,
            seed,
        };
        // Each feature stores a min and a max bound, 4 bytes each.
        let disc_features = r.get_count(8)?;
        let disc_levels = r.get_usize()?;
        let mut mins = Vec::with_capacity(disc_features);
        for _ in 0..disc_features {
            mins.push(r.get_f32()?);
        }
        let mut maxs = Vec::with_capacity(disc_features);
        for _ in 0..disc_features {
            maxs.push(r.get_f32()?);
        }
        let discretizer = Discretizer::from_parts(mins, maxs, disc_levels)?;
        let encoder = match tag {
            0 => {
                let features = ItemMemory::from_rows(get_rows(&mut r, dim)?)?;
                let values = LevelHvs::from_levels(get_rows(&mut r, dim)?)?;
                EncoderParts::Standard { features, values }
            }
            1 => {
                let pool = BasePool::from_rows(get_rows(&mut r, dim)?)?;
                let values = LevelHvs::from_levels(get_rows(&mut r, dim)?)?;
                let n_features = r.get_usize()?;
                let n_layers = r.get_usize()?;
                if n_features == 0 {
                    return Err(StoreError::Malformed(
                        "locked snapshot covers zero features".to_owned(),
                    ));
                }
                EncoderParts::Locked {
                    pool,
                    values,
                    n_features,
                    n_layers,
                }
            }
            other => {
                return Err(StoreError::Malformed(format!(
                    "unknown encoder tag {other}"
                )));
            }
        };
        let values_m = match &encoder {
            EncoderParts::Standard { values, .. } | EncoderParts::Locked { values, .. } => {
                values.m()
            }
        };
        if values_m != m_levels {
            return Err(StoreError::Malformed(format!(
                "config says {m_levels} levels but {values_m} value hypervectors are stored"
            )));
        }
        let bins = get_rows(&mut r, dim)?;
        let ints = match r.get_u8()? {
            0 => None,
            1 => {
                let mut rows = Vec::with_capacity(bins.len());
                for _ in 0..bins.len() {
                    rows.push(IntHv::from_values(r.get_i32s(dim)?));
                }
                Some(rows)
            }
            other => {
                return Err(StoreError::Malformed(format!(
                    "unknown integer-row marker {other}"
                )));
            }
        };
        if kind == ModelKind::NonBinary && ints.is_none() {
            return Err(StoreError::Malformed(
                "non-binary snapshot is missing its integer class rows".to_owned(),
            ));
        }
        if r.remaining() != 0 {
            return Err(StoreError::Malformed(format!(
                "{} unread payload bytes",
                r.remaining()
            )));
        }
        Ok((
            ModelSnapshot {
                config,
                discretizer,
                encoder,
                bins,
                ints,
            },
            checksum,
        ))
    }

    /// Atomically saves the snapshot (write to a temporary sibling,
    /// then rename), returning its checksum.
    ///
    /// # Errors
    ///
    /// Propagates file I/O errors.
    pub fn save(&self, path: &Path) -> Result<u64, StoreError> {
        let bytes = self.to_bytes();
        let checksum = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().expect("tail"));
        atomic_write(path, &bytes)?;
        Ok(checksum)
    }

    /// Loads and validates a snapshot file, returning it with its
    /// verified checksum.
    ///
    /// # Errors
    ///
    /// File I/O errors, [`StoreError::Malformed`] for anything but a
    /// regular file of at most [`MAX_STAGED_BYTES`], plus everything
    /// [`ModelSnapshot::from_bytes`] reports.
    pub fn load(path: &Path) -> Result<(Self, u64), StoreError> {
        let bytes = read_capped(path, MAX_STAGED_BYTES)?;
        Self::from_bytes(&bytes)
    }

    /// Assembles the serving session this snapshot describes. Locked
    /// snapshots need their sealed key segment; standard snapshots must
    /// not be given one (catching key/snapshot mix-ups).
    ///
    /// The resulting session is bit-identical to the pre-save session:
    /// the packed class planes are the stored words, and locked feature
    /// hypervectors re-derive deterministically from the key.
    ///
    /// # Errors
    ///
    /// [`StoreError::KeyRequired`] / [`StoreError::KeyMismatch`] for
    /// key problems, validation errors for inconsistent material.
    pub fn into_session(self, key: Option<&KeySegment>) -> Result<ServingSession, StoreError> {
        let kind = self.config.kind;
        let dim = self.config.dim;
        let encoder = match self.encoder {
            EncoderParts::Standard { features, values } => {
                if let Some(seg) = key {
                    return Err(StoreError::KeyMismatch(format!(
                        "standard snapshot does not take a key segment (got one for {} features)",
                        seg.key().n_features()
                    )));
                }
                AnyEncoder::Standard(RecordEncoder::from_parts(features, values)?)
            }
            EncoderParts::Locked {
                pool,
                values,
                n_features,
                n_layers,
            } => {
                let seg = key.ok_or(StoreError::KeyRequired)?;
                let k = seg.key();
                if k.n_features() != n_features {
                    return Err(StoreError::KeyMismatch(format!(
                        "snapshot expects a key for {n_features} features, segment covers {}",
                        k.n_features()
                    )));
                }
                if k.dim() != dim {
                    return Err(StoreError::KeyMismatch(format!(
                        "snapshot dimension {dim}, key dimension {}",
                        k.dim()
                    )));
                }
                if k.pool_size() != pool.len() {
                    return Err(StoreError::KeyMismatch(format!(
                        "snapshot pool has {} bases, key indexes {}",
                        pool.len(),
                        k.pool_size()
                    )));
                }
                if k.n_layers() != n_layers {
                    return Err(StoreError::KeyMismatch(format!(
                        "snapshot expects key depth {n_layers}, segment has {}",
                        k.n_layers()
                    )));
                }
                AnyEncoder::Locked(LockedEncoder::from_parts(pool, values, k.clone())?)
            }
        };
        if encoder.dim() != dim {
            return Err(StoreError::Malformed(format!(
                "encoder material has dimension {}, header says {dim}",
                encoder.dim()
            )));
        }
        let mut sharded = ShardedClassMemory::from_rows(&self.bins)?;
        if let Some(ints) = &self.ints {
            sharded.set_int_rows(ints)?;
        }
        Ok(OwnedSession::from_packed(encoder, kind, sharded))
    }
}

/// Extracts the integer class rows when the model kind needs them.
fn int_rows<E: Encoder + Sync>(model: &HdcModel<E>) -> Option<Vec<IntHv>> {
    match model.config().kind {
        ModelKind::Binary => None,
        ModelKind::NonBinary => Some(
            (0..model.memory().n_classes())
                .map(|j| model.memory().class_int(j).clone())
                .collect(),
        ),
    }
}

/// Writes a row list: count, then each row's packed words verbatim.
fn put_rows(w: &mut ByteWriter, rows: &[BinaryHv]) {
    w.put_usize(rows.len());
    for row in rows {
        w.put_words(row.bits().words());
    }
}

/// Reads a row list of `dim`-bit rows.
fn get_rows(r: &mut ByteReader<'_>, dim: usize) -> Result<Vec<BinaryHv>, StoreError> {
    let words_per_row = dim.div_ceil(64);
    let count = r.get_count(words_per_row * 8)?;
    let mut rows = Vec::with_capacity(count);
    for _ in 0..count {
        let words = r.get_words(words_per_row)?;
        rows.push(BinaryHv::from_bits(
            hypervec::bitvec::BitWords::try_from_words(words, dim)?,
        ));
    }
    Ok(rows)
}

/// The sealed key segment: the `N × L` (base index, rotation) mapping
/// HDLock keeps in tamper-proof memory, as a separate artifact so the
/// model snapshot can ship without it.
///
/// Loading a segment does **not** unseal anything by itself — it only
/// becomes usable when [`ModelSnapshot::into_session`] seals it into a
/// fresh [`KeyVault`](hdlock::KeyVault) inside the reconstructed locked
/// encoder.
#[derive(Debug, Clone)]
pub struct KeySegment {
    key: EncodingKey,
}

impl KeySegment {
    /// Wraps an explicit key.
    #[must_use]
    pub fn from_key(key: EncodingKey) -> Self {
        KeySegment { key }
    }

    /// Exports the key of a locked encoder through one audited,
    /// privileged vault read.
    ///
    /// # Errors
    ///
    /// [`StoreError::Lock`] when the vault was already destroyed.
    pub fn from_locked_encoder(encoder: &LockedEncoder) -> Result<Self, StoreError> {
        let key = encoder.vault().with_key(EncodingKey::clone)?;
        Ok(KeySegment { key })
    }

    /// The key material (the loading path into
    /// [`ModelSnapshot::into_session`]).
    #[must_use]
    pub fn key(&self) -> &EncodingKey {
        &self.key
    }

    /// Serializes into the framed, checksummed byte form.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_usize(self.key.dim());
        w.put_usize(self.key.pool_size());
        w.put_usize(self.key.n_features());
        for fk in self.key.features() {
            w.put_u16(u16::try_from(fk.n_layers()).expect("layer depth fits u16"));
            for lk in fk.layers() {
                w.put_u32(u32::try_from(lk.base_index).expect("pool index fits u32"));
                w.put_u32(u32::try_from(lk.rotation).expect("rotation fits u32"));
            }
        }
        KEY_SECTION.frame(&w.into_bytes())
    }

    /// Parses and validates a framed key segment.
    ///
    /// # Errors
    ///
    /// Envelope errors, or [`StoreError::Lock`] when the decoded key
    /// fails [`EncodingKey::from_feature_keys`] range validation.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, StoreError> {
        let (payload, _) = KEY_SECTION.open(bytes)?;
        let mut r = ByteReader::new(payload);
        let dim = r.get_usize()?;
        let pool_size = r.get_usize()?;
        // Each feature stores at least its `u16` layer count.
        let n_features = r.get_count(2)?;
        let mut features = Vec::with_capacity(n_features);
        for _ in 0..n_features {
            let n_layers = usize::from(r.get_u16()?);
            let mut layers = Vec::with_capacity(n_layers);
            for _ in 0..n_layers {
                let base_index = r.get_u32()? as usize;
                let rotation = r.get_u32()? as usize;
                layers.push(LayerKey {
                    base_index,
                    rotation,
                });
            }
            features.push(FeatureKey::new(layers));
        }
        if r.remaining() != 0 {
            return Err(StoreError::Malformed(format!(
                "{} unread key-segment bytes",
                r.remaining()
            )));
        }
        let key = EncodingKey::from_feature_keys(features, pool_size, dim)?;
        Ok(KeySegment { key })
    }

    /// Atomically saves the segment.
    ///
    /// # Errors
    ///
    /// Propagates file I/O errors.
    pub fn save(&self, path: &Path) -> Result<(), StoreError> {
        atomic_write(path, &self.to_bytes())
    }

    /// Loads and validates a key segment file.
    ///
    /// # Errors
    ///
    /// File I/O errors, [`StoreError::Malformed`] for anything but a
    /// regular file of at most [`MAX_STAGED_BYTES`], plus everything
    /// [`KeySegment::from_bytes`] reports.
    pub fn load(path: &Path) -> Result<Self, StoreError> {
        let bytes = read_capped(path, MAX_STAGED_BYTES)?;
        Self::from_bytes(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc_datasets::Benchmark;
    use hdlock::LockConfig;
    use hypervec::HvRng;

    fn standard_model(dim: usize) -> HdcModel<RecordEncoder> {
        let (train, _) = Benchmark::Pamap.generate(0.03, 41).unwrap();
        let config = HdcConfig::paper_default().with_dim(dim).with_seed(41);
        HdcModel::fit_standard(&config, &train).unwrap()
    }

    fn locked_model(dim: usize) -> HdcModel<LockedEncoder> {
        let (train, _) = Benchmark::Pamap.generate(0.03, 42).unwrap();
        let config = HdcConfig::paper_default().with_dim(dim).with_seed(42);
        let mut rng = HvRng::from_seed(42);
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
        HdcModel::fit_with_encoder(&config, enc, &train).unwrap()
    }

    #[test]
    fn standard_snapshot_roundtrips_bit_identically() {
        let model = standard_model(512);
        let snap = ModelSnapshot::from_standard_model(&model);
        let bytes = snap.to_bytes();
        let (loaded, checksum) = ModelSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(checksum, snap.checksum());
        assert!(!loaded.is_locked());
        let session = loaded.into_session(None).unwrap();
        let reference = model.session();
        let rows: Vec<Vec<u16>> = (0..10)
            .map(|s| {
                (0..reference.n_features())
                    .map(|i| ((s + i) % reference.m_levels()) as u16)
                    .collect()
            })
            .collect();
        let refs: Vec<&[u16]> = rows.iter().map(Vec::as_slice).collect();
        let want = hdc_model::ClassifySession::scores_batch(&reference, &refs);
        let got = hdc_model::ClassifySession::scores_batch(&session, &refs);
        assert_eq!(got.best_rows(), want.best_rows());
        for q in 0..refs.len() {
            for (g, w) in got.scores(q).iter().zip(want.scores(q)) {
                assert_eq!(g.to_bits(), w.to_bits());
            }
        }
    }

    #[test]
    fn locked_snapshot_requires_its_key() {
        let model = locked_model(256);
        let snap = ModelSnapshot::from_locked_model(&model);
        assert!(snap.is_locked());
        // Without the key segment the snapshot cannot serve.
        assert!(matches!(
            snap.clone().into_session(None),
            Err(StoreError::KeyRequired)
        ));
        // With it, the rebuilt session matches the original bit-for-bit.
        let seg = KeySegment::from_locked_encoder(model.encoder()).unwrap();
        let seg = KeySegment::from_bytes(&seg.to_bytes()).unwrap();
        let session = snap.into_session(Some(&seg)).unwrap();
        let reference = model.session();
        let row: Vec<u16> = (0..reference.n_features())
            .map(|i| (i % 4) as u16)
            .collect();
        assert_eq!(
            hdc_model::ClassifySession::classify(&session, &row),
            reference.classify(&row)
        );
        assert!(session.encoder().is_locked());
    }

    #[test]
    fn wrong_key_shape_is_rejected() {
        let model = locked_model(256);
        let snap = ModelSnapshot::from_locked_model(&model);
        let mut rng = HvRng::from_seed(9);
        // Right dimension and pool size, wrong feature count.
        let other = EncodingKey::random(&mut rng, 3, 2, model.encoder().pool().len(), 256).unwrap();
        let err = snap
            .clone()
            .into_session(Some(&KeySegment::from_key(other)))
            .unwrap_err();
        assert!(matches!(err, StoreError::KeyMismatch(_)), "{err}");
        // A standard snapshot must refuse any key segment.
        let std_model = standard_model(256);
        let std_snap = ModelSnapshot::from_standard_model(&std_model);
        let seg = KeySegment::from_locked_encoder(model.encoder()).unwrap();
        assert!(matches!(
            std_snap.into_session(Some(&seg)),
            Err(StoreError::KeyMismatch(_))
        ));
    }

    #[test]
    fn corruption_fails_fast() {
        let model = standard_model(256);
        let snap = ModelSnapshot::from_standard_model(&model);
        let mut bytes = snap.to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert!(matches!(
            ModelSnapshot::from_bytes(&bytes),
            Err(StoreError::ChecksumMismatch { .. })
        ));
        // Key segments are protected the same way.
        let locked = locked_model(256);
        let seg = KeySegment::from_locked_encoder(locked.encoder()).unwrap();
        let mut kb = seg.to_bytes();
        let mid = kb.len() / 2;
        kb[mid] ^= 0x01;
        assert!(KeySegment::from_bytes(&kb).is_err());
    }

    /// A minimal standard snapshot (D = 64, N = 1, M = 2, one class),
    /// validly framed, with count field `hostile` (0 = discretizer,
    /// 1 = feature rows, 2 = value rows, 3 = class rows) set to `count`;
    /// any other `hostile` leaves every count honest.
    fn snapshot_with_count(hostile: usize, count: u64) -> Vec<u8> {
        let field = |i: usize, honest: u64| if i == hostile { count } else { honest };
        let mut w = ByteWriter::new();
        w.put_u8(0); // standard encoder
        w.put_u8(0); // binary model
        w.put_usize(64); // D
        w.put_usize(2); // M
        w.put_usize(1); // epochs
        w.put_i64(1); // learning rate
        w.put_u64(7); // seed
        w.put_u64(field(0, 1));
        w.put_usize(2);
        w.put_f32(0.0);
        w.put_f32(1.0);
        w.put_u64(field(1, 1));
        w.put_words(&[0x5555]);
        w.put_u64(field(2, 2));
        w.put_words(&[0, u64::MAX]);
        w.put_u64(field(3, 1));
        w.put_words(&[0x0F0F]);
        w.put_u8(0); // no integer rows
        SNAPSHOT_SECTION.frame(&w.into_bytes())
    }

    /// A validly framed one-layer key segment (D = 64, pool of 4) whose
    /// feature count reads `count`; only `count = 1` is honest.
    fn key_with_features(count: u64) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_usize(64); // D
        w.put_usize(4); // pool size
        w.put_u64(count);
        w.put_u16(1); // layers of the one stored feature
        w.put_u32(2); // base index
        w.put_u32(5); // rotation
        KEY_SECTION.frame(&w.into_bytes())
    }

    #[test]
    fn hostile_counts_are_errors_not_aborts() {
        // The honest payloads load, so each hostile count below is the
        // field that stops the load — by an error, never by aborting
        // the process on a count-sized allocation.
        assert!(ModelSnapshot::from_bytes(&snapshot_with_count(usize::MAX, 0)).is_ok());
        assert!(KeySegment::from_bytes(&key_with_features(1)).is_ok());
        for count in [1u64 << 60, u64::MAX] {
            for field in 0..4 {
                let result = ModelSnapshot::from_bytes(&snapshot_with_count(field, count));
                assert!(
                    matches!(result, Err(StoreError::Malformed(_))),
                    "field {field}, count {count}"
                );
            }
            let result = KeySegment::from_bytes(&key_with_features(count));
            assert!(
                matches!(result, Err(StoreError::Malformed(_))),
                "key count {count}"
            );
        }
    }

    #[test]
    fn atomic_save_load_roundtrip() {
        let dir = std::env::temp_dir().join("hdc_store_snapshot_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.hdsn");
        let model = standard_model(130);
        let snap = ModelSnapshot::from_standard_model(&model);
        let saved_checksum = snap.save(&path).unwrap();
        let (loaded, loaded_checksum) = ModelSnapshot::load(&path).unwrap();
        assert_eq!(saved_checksum, loaded_checksum);
        assert_eq!(loaded.to_bytes(), snap.to_bytes());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn nonbinary_snapshot_carries_int_rows() {
        let (train, _) = Benchmark::Pamap.generate(0.03, 43).unwrap();
        let config = HdcConfig::paper_default()
            .with_dim(130)
            .with_kind(ModelKind::NonBinary)
            .with_seed(43);
        let model = HdcModel::fit_standard(&config, &train).unwrap();
        let snap = ModelSnapshot::from_standard_model(&model);
        let (loaded, _) = ModelSnapshot::from_bytes(&snap.to_bytes()).unwrap();
        let session = loaded.into_session(None).unwrap();
        assert!(hdc_model::ClassifySession::memory(&session).has_int_rows());
        let reference = model.session();
        let row: Vec<u16> = (0..reference.n_features()).map(|_| 1u16).collect();
        assert_eq!(
            hdc_model::ClassifySession::classify(&session, &row),
            reference.classify(&row)
        );
    }
}
