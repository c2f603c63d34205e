//! Property test for the hardened serving mode: every encode entry
//! point must be **bit-identical** across all three derivation modes.
//!
//! Hardening (fixed-work encode, cache-oblivious table strides,
//! branchless selection) is only deployable if it changes *when* work
//! happens, never *what* is computed — the paper's accuracy claims
//! (Fig. 8) must survive the constant-time rewrite untouched. The CI
//! kernel matrix runs this file in two legs, the default dispatch
//! (`avx512` or `avx2`, whichever the runner has) and
//! `HYPERVEC_KERNEL=scalar`, so the equivalence holds on each
//! word-parallel engine, not just the one the dev box dispatches to.
//! Every check runs at feature counts below, at, and past the
//! accumulator's 16-input carry-save group ([`FEATURE_COUNTS`]).

use hdc_model::{ClassMemory, ClassifySession, Encoder, ModelKind, OwnedSession};
use hdlock::{DeriveMode, LockConfig, LockedEncoder};
use hypervec::{HvRng, ProbeConfig};

/// `N` values: no full carry-save group (11), exactly one (16), and two
/// plus a remainder (37).
const FEATURE_COUNTS: [usize; 3] = [11, 16, 37];

fn config(n_features: usize) -> LockConfig {
    LockConfig {
        n_features,
        m_levels: 5,
        dim: 1030, // deliberately not a multiple of 64: exercises tail masking
        pool_size: n_features + 13,
        n_layers: 2,
    }
}

fn random_rows(rng: &mut HvRng, n: usize, width: usize, m: usize) -> Vec<Vec<u16>> {
    (0..n)
        .map(|_| {
            (0..width)
                .map(|_| (rng.next_u64() % m as u64) as u16)
                .collect()
        })
        .collect()
}

#[test]
fn hardened_encodes_are_bit_identical_to_unhardened() {
    for n in FEATURE_COUNTS {
        let mut rng = HvRng::from_seed(0xC0_11AB1E);
        let mut enc = LockedEncoder::generate(&mut rng, &config(n)).unwrap();
        let rows = random_rows(&mut rng, 40, n, 5);
        let refs: Vec<&[u16]> = rows.iter().map(Vec::as_slice).collect();

        let want_bin = enc.encode_batch_binary(&refs);
        let want_int = enc.encode_batch_int(&refs);

        for mode in [DeriveMode::OnTheFly, DeriveMode::Hardened] {
            enc.set_mode(mode);
            assert_eq!(
                enc.encode_batch_binary(&refs),
                want_bin,
                "N {n} {mode:?} batch"
            );
            assert_eq!(
                enc.encode_batch_int(&refs),
                want_int,
                "N {n} {mode:?} batch int"
            );
            for (i, row) in refs.iter().enumerate() {
                assert_eq!(
                    enc.encode_binary(row),
                    want_bin[i],
                    "N {n} {mode:?} row {i}"
                );
                assert_eq!(enc.encode_int(row), want_int[i], "N {n} {mode:?} row {i}");
                assert_eq!(
                    enc.encode_int_scalar(row),
                    want_int[i],
                    "N {n} {mode:?} scalar row {i}"
                );
            }
        }
    }
}

#[test]
fn hardened_session_results_match_including_forced_exact_topk() {
    for n in FEATURE_COUNTS {
        hardened_session_matches(n);
    }
}

fn hardened_session_matches(n: usize) {
    let mut rng = HvRng::from_seed(0x5EC_0DE);
    let mut enc = LockedEncoder::generate(&mut rng, &config(n)).unwrap();
    let protos = random_rows(&mut rng, 6, n, 5);
    let rows = random_rows(&mut rng, 30, n, 5);
    let refs: Vec<&[u16]> = rows.iter().map(Vec::as_slice).collect();
    // A deliberately narrow probe: pruned and exact scans may disagree
    // at this width, which is exactly why hardened mode must ignore it.
    let narrow = ProbeConfig {
        probe_words: 1,
        probe_factor: 1,
        exact_threshold: 0,
    };

    for kind in [ModelKind::Binary, ModelKind::NonBinary] {
        let mut memory = ClassMemory::new(kind, protos.len(), config(n).dim);
        for (j, p) in protos.iter().enumerate() {
            memory.acc_mut(j).add(&enc.encode_binary(p));
        }
        memory.rebinarize();

        enc.set_mode(DeriveMode::Cached);
        let (want_classes, want_scores, want_exact_topk) = {
            let session = OwnedSession::new(&enc, &memory);
            assert!(!session.hardened());
            (
                session.classify_batch(&refs),
                session.scores_batch(&refs),
                session.search_topk_batch(&refs, 3, None),
            )
        };

        enc.set_mode(DeriveMode::Hardened);
        let session = OwnedSession::new(&enc, &memory);
        assert!(session.hardened());
        assert_eq!(
            session.classify_batch(&refs),
            want_classes,
            "N {n} {kind:?}"
        );
        let scores = session.scores_batch(&refs);
        for q in 0..refs.len() {
            for (g, w) in scores.scores(q).iter().zip(want_scores.scores(q)) {
                assert_eq!(g.to_bits(), w.to_bits(), "N {n} {kind:?} q {q}");
            }
        }
        // The probe is silently clamped to the exact scan: a hardened
        // session returns exact results even under pruning tuning.
        let pruned_request = session.search_topk_batch(&refs, 3, Some(&narrow));
        assert_eq!(pruned_request, want_exact_topk, "N {n} {kind:?}");
        enc.set_mode(DeriveMode::Cached);
    }
}
