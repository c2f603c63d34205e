//! # hdc-store — persistence & registry for deployed HDC models
//!
//! The operational layer HDLock's protection story rests on: the
//! locked encoder is only as safe as the key hygiene around it, so the
//! deployment needs snapshots that ship *without* their key, a rotation
//! path when compromise is suspected, and a serving layer that can swap
//! models under live traffic. This crate provides all three.
//!
//! ## Persistence & registry
//!
//! * **Binary snapshots** ([`snapshot`]) — the one model format: a
//!   versioned, checksummed format that writes the model's `u64` bit
//!   planes, `i32` class rows and `f32` quantizer bounds *verbatim*
//!   (magic + format version + dims + FNV-1a64 checksum). No JSON, no
//!   float text round-trips: a loaded session is bit-identical to the
//!   saved one — same scores, same argmax, same tie order — at any
//!   dimension, word-aligned or not. Saves are atomic
//!   (write-then-rename) and corrupt or truncated files fail fast with
//!   [`StoreError::ChecksumMismatch`] before a single field is
//!   interpreted.
//! * **Sealed key segments** ([`KeySegment`]) — a locked model's
//!   snapshot stores only its *public* material (base pool, value
//!   hypervectors, class rows, key shape). The `N × L` key mapping is a
//!   separate, independently-loadable artifact: a snapshot that ships
//!   without its segment is exactly the public memory dump the HDLock
//!   paper's attacker already has, and
//!   [`ModelSnapshot::into_session`] refuses to serve it
//!   ([`StoreError::KeyRequired`]).
//! * **The registry** ([`registry`]) — [`ModelRegistry`] owns
//!   generations of [`OwnedSession`](hdc_model::OwnedSession)s behind
//!   an atomic pointer swap. Readers grab the current generation with
//!   one refcount bump and finish their batch on it even if a swap
//!   lands mid-batch; `reload` (new snapshot), `rekey` (fresh key →
//!   re-derived encoder + retrained memory, old vault `destroy()`ed)
//!   and `rollback` all build the new generation entirely outside the
//!   swap lock, so in-flight traffic never waits on a load.
//! * **Serving shape** ([`serving`]) — [`AnyEncoder`] is the closed
//!   sum of the deployed encoder kinds (standard / locked), so one
//!   registry can swap between protection stories without the serving
//!   layer caring.
//!
//! The serving layer (`hdc_serve`) drives the registry through admin
//! wire requests (`{"reload":…}`, `{"rekey":…}`, `{"stats":true}`) and
//! reports the active generation id + checksum in its `info` response
//! so clients can detect a swap.
//!
//! ## Example
//!
//! ```
//! use hdc_datasets::Benchmark;
//! use hdc_model::{ClassifySession, HdcConfig, HdcModel};
//! use hdc_store::{KeySegment, ModelRegistry, ModelSnapshot, RekeySource};
//! use hdlock::{LockConfig, LockedEncoder};
//! use hypervec::HvRng;
//!
//! // Train a locked model…
//! let (train, _) = Benchmark::Pamap.generate(0.03, 7)?;
//! let config = HdcConfig::paper_default().with_dim(512).with_seed(7);
//! let mut rng = HvRng::from_seed(7);
//! let encoder = LockedEncoder::generate(&mut rng, &LockConfig {
//!     n_features: train.n_features(),
//!     m_levels: config.m_levels,
//!     dim: config.dim,
//!     pool_size: train.n_features(),
//!     n_layers: 2,
//! })?;
//! let model = HdcModel::fit_with_encoder(&config, encoder, &train)?;
//!
//! // …snapshot it (key ships separately)…
//! let snapshot = ModelSnapshot::from_locked_model(&model);
//! let key = KeySegment::from_locked_encoder(model.encoder())?;
//!
//! // …and serve it from a registry that can rotate the key live.
//! let registry = ModelRegistry::from_snapshot(snapshot, Some(&key))?
//!     .with_rekey_source(RekeySource { config, train });
//! let generation = registry.current();
//! assert_eq!(generation.id(), 1);
//! let rekeyed = registry.rekey(2023)?;
//! assert_eq!(rekeyed.id(), 2);
//! assert!(!generation.session().encoder().vault().unwrap().is_sealed());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod error;
pub mod registry;
pub mod serving;
pub mod snapshot;
pub mod stage;
pub mod wire;

pub use error::StoreError;
pub use registry::{Generation, ModelRegistry, RegistryStats, RekeySource};
pub use serving::{AnyEncoder, ServingSession};
pub use snapshot::{EncoderParts, KeySegment, ModelSnapshot, KEY_SECTION, SNAPSHOT_SECTION};
pub use stage::{SnapshotStage, StagedSnapshot};
pub use wire::{fnv1a64, fnv1a64_update};
