//! # hdc-attack — the reasoning attack on HDC encoding modules
//!
//! Implements the IP-stealing attack of the HDLock paper (Sec. 3) and
//! its security validation against the defense (Sec. 4.2):
//!
//! 1. **Value extraction** ([`value_extract`]): the consecutive
//!    correlation of value hypervectors betrays their order; one
//!    all-minimum oracle query pins down `ValHV_1` (Eq. 5/6).
//! 2. **Feature extraction** ([`feature_extract`]): divide-and-conquer
//!    over per-feature probe inputs recovers the whole feature mapping
//!    in `O(N²)` guesses (Eq. 7/8).
//! 3. **Model theft** ([`reconstruct`]): the recovered mapping rebuilds
//!    a bit-identical encoder, which together with the class
//!    hypervectors duplicates the victim model (Table 1).
//! 4. **HDLock validation** ([`lock_attack`]): against a locked
//!    encoder, the same style of chosen-input probing needs every one
//!    of the `2L` key parameters of a feature to be simultaneously
//!    correct — a `(D·P)^L` search (Figs. 5/6).
//! 5. **Timing-oracle probe** ([`warmth_distinguisher`]): times
//!    chosen-input encodes and applies Welch's t-test ([`welch_t`]) to
//!    read whether recent batch traffic left the victim faster — the
//!    side channel of the cached mode's former lazy bound-pair table.
//!    It fails against both serving modes: cached mode builds no table,
//!    and `DeriveMode::Hardened` does fixed work (threat model in the
//!    repository's `SECURITY.md`).
//!
//! ## Example: stealing an unprotected model
//!
//! ```
//! use hdc_attack::{
//!     reason_encoding, rebuild_encoder, CountingOracle, FeatureExtractOptions, StandardDump,
//! };
//! use hdc_model::{Encoder, ModelKind, RecordEncoder};
//! use hypervec::HvRng;
//!
//! let mut rng = HvRng::from_seed(1);
//! let victim = RecordEncoder::generate(&mut rng, 15, 4, 2048)?;
//! let (dump, _truth) = StandardDump::from_encoder(&victim, &mut rng);
//! let oracle = CountingOracle::new(&victim);
//! let recovered = reason_encoding(
//!     &oracle,
//!     &dump,
//!     ModelKind::Binary,
//!     FeatureExtractOptions::default(),
//! )?;
//! let stolen = rebuild_encoder(&dump, &recovered)?;
//! let row = vec![0u16; 15];
//! assert_eq!(stolen.encode_binary(&row), victim.encode_binary(&row));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod error;
pub mod feature_extract;
pub mod lock_attack;
pub mod memory_dump;
pub mod oracle;
pub mod reconstruct;
pub mod robust;
pub mod timing;
pub mod value_extract;

pub use error::AttackError;
pub use feature_extract::{
    extract_features, feature_mapping_accuracy, guess_profile, FeatureAttackContext,
    FeatureExtractOptions, FeatureMapping,
};
pub use lock_attack::{exhaustive_key_search, sweep_parameter, LockProbe, SweepResult, SweptParam};
pub use memory_dump::{DumpGroundTruth, HdlockDump, StandardDump};
pub use oracle::{all_min_row, probe_row, CountingOracle, EncodingOracle, SessionOracle};
pub use reconstruct::{
    duplicate_model, mapping_accuracy, reason_encoding, rebuild_encoder, RecoveredEncoding,
};
pub use robust::{NoisyOracle, QueryBudget, ThrottledOracle};
pub use timing::{
    checked_welch_t, warmth_distinguisher, welch_t, AttackStats, TimingReport, MIN_RELATIVE_GAP,
    MIN_TIMING_SAMPLES, T_THRESHOLD,
};
pub use value_extract::{extract_values, value_mapping_accuracy, ValueMapping};
