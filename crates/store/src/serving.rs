//! The encoder shape a registry generation serves.
//!
//! A registry swaps between generations that may be standard *or*
//! locked models (a `reload` can change the protection story, not just
//! the weights). [`AnyEncoder`] is the closed sum of the two deployed
//! encoder kinds, forwarding every [`Encoder`] entry point — including
//! the specialized batch paths, so a registry-served model loses none
//! of the word-parallel engine.

use hdc_model::{Encoder, OwnedSession, RecordEncoder};
use hdlock::{KeyVault, LockedEncoder};
use hypervec::{BinaryHv, IntHv};

/// A deployed encoder: standard (stored feature hypervectors) or
/// HDLock-locked (vault-keyed derivation).
#[derive(Debug)]
pub enum AnyEncoder {
    /// Standard record encoder.
    Standard(RecordEncoder),
    /// HDLock locked encoder.
    Locked(LockedEncoder),
}

impl AnyEncoder {
    /// The vault, when this is a locked encoder — `None` for standard
    /// models (nothing to seal).
    #[must_use]
    pub fn vault(&self) -> Option<&KeyVault> {
        match self {
            AnyEncoder::Standard(_) => None,
            AnyEncoder::Locked(enc) => Some(enc.vault()),
        }
    }

    /// The locked encoder, when this is one.
    #[must_use]
    pub fn as_locked(&self) -> Option<&LockedEncoder> {
        match self {
            AnyEncoder::Standard(_) => None,
            AnyEncoder::Locked(enc) => Some(enc),
        }
    }

    /// Whether this encoder derives its feature hypervectors from a
    /// sealed key.
    #[must_use]
    pub fn is_locked(&self) -> bool {
        matches!(self, AnyEncoder::Locked(_))
    }
}

impl Encoder for AnyEncoder {
    fn n_features(&self) -> usize {
        match self {
            AnyEncoder::Standard(e) => e.n_features(),
            AnyEncoder::Locked(e) => e.n_features(),
        }
    }

    fn m_levels(&self) -> usize {
        match self {
            AnyEncoder::Standard(e) => e.m_levels(),
            AnyEncoder::Locked(e) => e.m_levels(),
        }
    }

    fn dim(&self) -> usize {
        match self {
            AnyEncoder::Standard(e) => e.dim(),
            AnyEncoder::Locked(e) => e.dim(),
        }
    }

    fn encode_int(&self, levels: &[u16]) -> IntHv {
        match self {
            AnyEncoder::Standard(e) => e.encode_int(levels),
            AnyEncoder::Locked(e) => e.encode_int(levels),
        }
    }

    fn encode_binary(&self, levels: &[u16]) -> BinaryHv {
        match self {
            AnyEncoder::Standard(e) => e.encode_binary(levels),
            AnyEncoder::Locked(e) => e.encode_binary(levels),
        }
    }

    // The batch entry points forward explicitly: the default trait
    // bodies would encode row by row with a fresh accumulator each,
    // losing the inner encoders' batch paths, which reuse one
    // accumulator (and on-the-fly derivation's scratch) per worker.
    fn encode_batch_binary(&self, rows: &[&[u16]]) -> Vec<BinaryHv> {
        match self {
            AnyEncoder::Standard(e) => e.encode_batch_binary(rows),
            AnyEncoder::Locked(e) => e.encode_batch_binary(rows),
        }
    }

    fn encode_batch_int(&self, rows: &[&[u16]]) -> Vec<IntHv> {
        match self {
            AnyEncoder::Standard(e) => e.encode_batch_int(rows),
            AnyEncoder::Locked(e) => e.encode_batch_int(rows),
        }
    }

    fn is_hardened(&self) -> bool {
        match self {
            AnyEncoder::Standard(_) => false,
            AnyEncoder::Locked(e) => e.is_hardened(),
        }
    }
}

/// The session type a registry generation owns: either deployed encoder
/// kind over the packed class memory.
pub type ServingSession = OwnedSession<AnyEncoder>;

#[cfg(test)]
mod tests {
    use super::*;
    use hdlock::LockConfig;
    use hypervec::HvRng;

    #[test]
    fn any_encoder_is_transparent_for_both_kinds() {
        let mut rng = HvRng::from_seed(5);
        let standard = RecordEncoder::generate(&mut rng, 6, 4, 512).unwrap();
        let locked = LockedEncoder::generate(
            &mut rng,
            &LockConfig {
                n_features: 6,
                m_levels: 4,
                dim: 512,
                pool_size: 12,
                n_layers: 2,
            },
        )
        .unwrap();
        let rows: Vec<Vec<u16>> = (0..5)
            .map(|s| (0..6).map(|i| ((s + i) % 4) as u16).collect())
            .collect();
        let refs: Vec<&[u16]> = rows.iter().map(Vec::as_slice).collect();

        let want_std: Vec<BinaryHv> = refs.iter().map(|r| standard.encode_binary(r)).collect();
        let want_lock: Vec<IntHv> = refs.iter().map(|r| locked.encode_int(r)).collect();

        let any_std = AnyEncoder::Standard(standard);
        let any_lock = AnyEncoder::Locked(locked);
        assert!(!any_std.is_locked());
        assert!(any_std.vault().is_none());
        assert!(any_lock.is_locked());
        assert!(any_lock.vault().is_some());
        assert_eq!(any_std.n_features(), 6);
        assert_eq!(any_lock.dim(), 512);

        assert_eq!(any_std.encode_batch_binary(&refs), want_std);
        assert_eq!(any_lock.encode_batch_int(&refs), want_lock);
    }
}
