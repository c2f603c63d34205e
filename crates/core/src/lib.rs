//! # hdlock — privileged encoding for HDC model IP protection
//!
//! Reproduction of the defense from *"HDLock: Exploiting Privileged
//! Encoding to Protect Hyperdimensional Computing Models against IP
//! Stealing"* (DAC 2022).
//!
//! A standard HDC encoder stores its `N` feature hypervectors in plain
//! memory; protecting only the feature↔row *mapping* is not enough,
//! because a divide-and-conquer reasoning attack recovers it in `O(N²)`
//! oracle-assisted guesses (see the companion `hdc-attack` crate).
//! HDLock replaces stored feature hypervectors with **derived** ones:
//!
//! ```text
//! FeaHV_i = Π_{l=1}^{L} ρ^{k_{i,l}}(B_{i,l})        (Eq. 9)
//! ```
//!
//! where the `B`s come from a *public* pool of `P` random bases and the
//! key — `N × L` (base index, rotation) pairs — lives in a tamper-proof
//! [`KeyVault`]. Reasoning the mapping now costs `O(N · (D·P)^L)`
//! guesses ([`complexity`]), a ~10¹¹× amplification for MNIST at
//! `L = 2`, while the encoding output distribution (and therefore model
//! accuracy) is unchanged ([`equivalence`]).
//!
//! Beyond the paper's defense, [`DeriveMode::Hardened`] puts the
//! locked encoder in a constant-time mode for serving deployments:
//! fixed input-independent work per encode and oblivious key-vault
//! reads ([`KeyVault::with_key_oblivious`]), bit-identical outputs.
//! Neither mode builds a bound-pair table, so neither has the
//! cache-warmth timing side channel the cached mode's lazy table once
//! opened (the repository's `SECURITY.md` states the full threat
//! model; the companion `hdc-attack` crate's `warmth_distinguisher` is
//! the probe, and fails against both).
//!
//! ## Example
//!
//! ```
//! use hdc_model::Encoder;
//! use hdlock::{hdlock_reasoning_guesses, LockConfig, LockedEncoder};
//! use hypervec::HvRng;
//!
//! let mut rng = HvRng::from_seed(2022);
//! let config = LockConfig { n_features: 32, m_levels: 8, dim: 4096, pool_size: 32, n_layers: 2 };
//! let encoder = LockedEncoder::generate(&mut rng, &config)?;
//! let hv = encoder.encode_binary(&vec![0u16; 32]);
//! assert_eq!(hv.dim(), 4096);
//!
//! let guesses = hdlock_reasoning_guesses(32, 4096, 32, 2);
//! assert!(guesses.log10() > 11.0);
//! # Ok::<(), hdlock::LockError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod complexity;
pub mod equivalence;
pub mod error;
pub mod key;
pub mod locked_encoder;
pub mod pool;
pub mod value_lock;
pub mod vault;

pub use complexity::{
    amplification_log10, hdlock_per_feature_guesses, hdlock_reasoning_guesses,
    standard_reasoning_guesses, GuessCount,
};
pub use equivalence::{is_quasi_orthogonal, pairwise_stats, PairwiseStats};
pub use error::LockError;
pub use key::{EncodingKey, FeatureKey, LayerKey};
pub use locked_encoder::{
    derive_feature, derive_feature_into, DeriveMode, LockConfig, LockedEncoder,
};
pub use pool::BasePool;
pub use value_lock::{analyze_value_locking, ValueLockAnalysis, ValueLockStrategy};
pub use vault::KeyVault;
