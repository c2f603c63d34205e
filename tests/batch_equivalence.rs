//! Property tests: the batch (word-parallel) encoding path is
//! bit-identical to the naive per-sample scalar path for both the
//! standard and the locked encoder, in both derivation modes, across
//! random shapes including non-word-aligned dimensions (130) and the
//! paper-scale D = 10 000. Feature counts run from 1 to 40, so rows
//! take the accumulator's per-add path (N < 16), one carry-save group,
//! and several groups plus a remainder; the paper's ISOLET shape
//! (N = 617) is pinned as a fixed case. Full hypervectors are compared,
//! never just similarities — the paper's figures depend on exact
//! encodings.

use hdc_model::{Encoder, RecordEncoder};
use hdlock::{DeriveMode, LockConfig, LockedEncoder};
use hypervec::HvRng;
use proptest::prelude::*;

/// Dimensions exercising word boundaries plus the paper scale.
fn dims() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(64),
        Just(130),
        200usize..=260,
        Just(1024),
        Just(10_000)
    ]
}

/// A deterministic batch of quantized rows.
fn rows(n_features: usize, m_levels: usize, count: usize, seed: u64) -> Vec<Vec<u16>> {
    let mut rng = HvRng::from_seed(seed);
    (0..count)
        .map(|_| {
            (0..n_features)
                .map(|_| rng.index(m_levels) as u16)
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn record_encoder_batch_is_bit_exact_with_scalar(
        d in dims(),
        n in 1usize..=40,
        m in 2usize..=8,
        seed in any::<u64>(),
    ) {
        let mut rng = HvRng::from_seed(seed);
        let enc = RecordEncoder::generate(&mut rng, n, m, d).unwrap();
        let batch_rows = rows(n, m, 9, seed ^ 1);
        let refs: Vec<&[u16]> = batch_rows.iter().map(Vec::as_slice).collect();

        // Single encodes before any batch run the cold fused-bind path;
        // the batch below warms the bound-pair table.
        let cold_int: Vec<_> = refs.iter().map(|row| enc.encode_int(row)).collect();
        let batch_bin = enc.encode_batch_binary(&refs);
        let batch_int = enc.encode_batch_int(&refs);
        for (i, row) in refs.iter().enumerate() {
            // Engine (single + batch) against the scalar reference.
            let scalar_int = enc.encode_int_scalar(row);
            prop_assert_eq!(&batch_int[i], &scalar_int, "int row {}", i);
            prop_assert_eq!(&batch_int[i], &enc.encode_int(row), "int row {}", i);
            prop_assert_eq!(&cold_int[i], &scalar_int, "cold int row {}", i);
            prop_assert_eq!(&batch_bin[i], &scalar_int.sign_ties_positive(), "bin row {}", i);
            prop_assert_eq!(&batch_bin[i], &enc.encode_binary(row), "bin row {}", i);
        }
    }

    #[test]
    fn locked_encoder_batch_is_bit_exact_in_both_modes(
        d in dims(),
        n in 1usize..=40,
        m in 2usize..=6,
        layers in 1usize..=3,
        seed in any::<u64>(),
    ) {
        let cfg = LockConfig { n_features: n, m_levels: m, dim: d, pool_size: n + 3, n_layers: layers };
        let mut rng = HvRng::from_seed(seed);
        let mut enc = LockedEncoder::generate(&mut rng, &cfg).unwrap();
        let batch_rows = rows(n, m, 7, seed ^ 2);
        let refs: Vec<&[u16]> = batch_rows.iter().map(Vec::as_slice).collect();

        // Cached single encodes before any batch take the cold path.
        for (i, row) in refs.iter().enumerate() {
            prop_assert_eq!(enc.encode_int(row), enc.encode_int_scalar(row), "cold int row {}", i);
        }

        for mode in [DeriveMode::Cached, DeriveMode::OnTheFly] {
            enc.set_mode(mode);
            let batch_bin = enc.encode_batch_binary(&refs);
            let batch_int = enc.encode_batch_int(&refs);
            for (i, row) in refs.iter().enumerate() {
                let scalar_int = enc.encode_int_scalar(row);
                prop_assert_eq!(&batch_int[i], &scalar_int, "{:?} int row {}", mode, i);
                prop_assert_eq!(
                    &batch_bin[i],
                    &scalar_int.sign_ties_positive(),
                    "{:?} bin row {}", mode, i
                );
            }
        }
    }

    #[test]
    fn modes_and_paths_agree_with_each_other(
        n in 1usize..=40,
        m in 2usize..=5,
        seed in any::<u64>(),
    ) {
        // Cross-check: cached batch == on-the-fly batch == per-sample,
        // at a non-word-aligned dimension.
        let cfg = LockConfig { n_features: n, m_levels: m, dim: 130, pool_size: 2 * n, n_layers: 2 };
        let mut rng = HvRng::from_seed(seed);
        let mut enc = LockedEncoder::generate(&mut rng, &cfg).unwrap();
        let batch_rows = rows(n, m, 5, seed ^ 3);
        let refs: Vec<&[u16]> = batch_rows.iter().map(Vec::as_slice).collect();

        let cached = enc.encode_batch_binary(&refs);
        enc.set_mode(DeriveMode::OnTheFly);
        let on_the_fly = enc.encode_batch_binary(&refs);
        prop_assert_eq!(&cached, &on_the_fly);
        for (i, row) in refs.iter().enumerate() {
            prop_assert_eq!(&cached[i], &enc.encode_binary(row), "row {}", i);
        }
    }
}

/// The paper's ISOLET shape pinned as a fixed case: N = 617 features is
/// 38 full carry-save groups and a zero-padded group of 9 per row, at
/// M = 16 and D = 10 000. Both encoders, every locked derivation mode:
/// single encodes before and after a batch of `M` rows, and the batch
/// itself, all against the scalar reference. The 11.8 MiB bound-pair
/// table is over `BoundPairCache::TABLE_BUDGET_BYTES`, so the batch
/// leaves the record and cached encoders on the fused-bind path;
/// hardened mode builds its table eagerly.
#[test]
fn isolet_shape_encodes_are_bit_exact_with_scalar() {
    let (n, m, d) = (617, 16, 10_000);
    // `M` rows: enough to warm a table under the budget, not this one.
    let batch_rows = rows(n, m, m, 617);
    let refs: Vec<&[u16]> = batch_rows.iter().map(Vec::as_slice).collect();
    let checked = [0, m - 1];

    fn check<E: Encoder + Sync>(
        enc: &E,
        refs: &[&[u16]],
        checked: &[usize],
        scalar: impl Fn(&[u16]) -> hypervec::IntHv,
        label: &str,
    ) {
        let want: Vec<_> = checked.iter().map(|&r| scalar(refs[r])).collect();
        for (&r, want) in checked.iter().zip(&want) {
            assert_eq!(&enc.encode_int(refs[r]), want, "{label} cold int row {r}");
            assert_eq!(
                enc.encode_binary(refs[r]),
                want.sign_ties_positive(),
                "{label} cold bin row {r}"
            );
        }
        let batch_int = enc.encode_batch_int(refs);
        let batch_bin = enc.encode_batch_binary(refs);
        for (&r, want) in checked.iter().zip(&want) {
            assert_eq!(&batch_int[r], want, "{label} batch int row {r}");
            assert_eq!(
                batch_bin[r],
                want.sign_ties_positive(),
                "{label} batch bin row {r}"
            );
            assert_eq!(&enc.encode_int(refs[r]), want, "{label} warm int row {r}");
        }
    }

    let mut rng = HvRng::from_seed(617);
    let record = RecordEncoder::generate(&mut rng, n, m, d).unwrap();
    check(
        &record,
        &refs,
        &checked,
        |row| record.encode_int_scalar(row),
        "record",
    );

    let mut locked = LockedEncoder::generate(&mut rng, &LockConfig::paper_validation(n)).unwrap();
    for mode in [
        DeriveMode::Cached,
        DeriveMode::OnTheFly,
        DeriveMode::Hardened,
    ] {
        locked.set_mode(mode);
        let label = format!("locked {mode:?}");
        check(
            &locked,
            &refs,
            &checked,
            |row| locked.encode_int_scalar(row),
            &label,
        );
    }
}
