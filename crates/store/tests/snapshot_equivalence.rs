//! Property tests: binary snapshot save → load → swap is **bit
//! identical** to the pre-save session — float score sequences, argmax
//! winners and lowest-index tie order — at non-word-aligned dimensions
//! (130, 10 000), for both model kinds (binary / non-binary), both
//! locked-encoder derivation modes, and under every compiled-in kernel
//! backend.

use hdc_datasets::{Dataset, SynthSpec};
use hdc_model::{
    ClassMemory, ClassifySession, Encoder, HdcConfig, HdcModel, ModelKind, RecordEncoder,
};
use hdc_store::{KeySegment, ModelSnapshot, ServingSession};
use hdlock::{DeriveMode, LockConfig, LockedEncoder};
use hypervec::{kernel, BinaryHv, HvRng, IntHv};
use proptest::prelude::*;

const N_FEATURES: usize = 9;
const M_LEVELS: usize = 4;

fn train_set(seed: u64) -> Dataset {
    let spec = SynthSpec::new("store-prop", N_FEATURES, 3, 48, 12, 0.1);
    let mut rng = HvRng::from_seed(seed);
    spec.generate(&mut rng).expect("valid synthetic spec").0
}

fn config(dim: usize, kind: ModelKind, seed: u64) -> HdcConfig {
    HdcConfig {
        dim,
        m_levels: M_LEVELS,
        kind,
        epochs: 1,
        learning_rate: 1,
        seed,
    }
}

fn query_rows(seed: u64, count: usize) -> Vec<Vec<u16>> {
    let mut rng = HvRng::from_seed(seed);
    (0..count)
        .map(|_| {
            (0..N_FEATURES)
                .map(|_| rng.index(M_LEVELS) as u16)
                .collect()
        })
        .collect()
}

/// Asserts the two sessions agree bit-for-bit on a query batch: same
/// argmax sequence, same float score bits, same single-row classify.
fn assert_bit_identical<A: ClassifySession, B: ClassifySession>(
    original: &A,
    reloaded: &B,
    rows: &[Vec<u16>],
    label: &str,
) {
    let refs: Vec<&[u16]> = rows.iter().map(Vec::as_slice).collect();
    let want = original.scores_batch(&refs);
    let got = reloaded.scores_batch(&refs);
    assert_eq!(got.best_rows(), want.best_rows(), "{label}: argmax");
    for (q, row) in refs.iter().enumerate() {
        let (w, g) = (want.scores(q), got.scores(q));
        assert_eq!(w.len(), g.len(), "{label}: score width, query {q}");
        for (j, (a, b)) in w.iter().zip(g).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{label}: score bits, query {q} class {j}"
            );
        }
        assert_eq!(
            original.classify(row),
            reloaded.classify(row),
            "{label}: classify, query {q}"
        );
    }
    // The packed planes themselves must agree under *every* compiled-in
    // kernel backend, not just the dispatched one.
    let mut rng = HvRng::from_seed(0xBEEF);
    let bin_probes: Vec<BinaryHv> = (0..4).map(|_| rng.binary_hv(original.dim())).collect();
    let bin_refs: Vec<&BinaryHv> = bin_probes.iter().collect();
    let int_probes: Vec<IntHv> = bin_probes.iter().map(BinaryHv::to_int).collect();
    let int_refs: Vec<&IntHv> = int_probes.iter().collect();
    for k in kernel::available() {
        let w = original
            .memory()
            .search_batch_binary_with(k, &bin_refs)
            .unwrap();
        let g = reloaded
            .memory()
            .search_batch_binary_with(k, &bin_refs)
            .unwrap();
        assert_eq!(g.best_rows(), w.best_rows(), "{label}: backend {}", k.name);
        for q in 0..bin_refs.len() {
            for (a, b) in w.scores(q).iter().zip(g.scores(q)) {
                assert_eq!(a.to_bits(), b.to_bits(), "{label}: backend {}", k.name);
            }
        }
        if original.memory().has_int_rows() {
            let w = original
                .memory()
                .search_batch_int_with(k, &int_refs)
                .unwrap();
            let g = reloaded
                .memory()
                .search_batch_int_with(k, &int_refs)
                .unwrap();
            assert_eq!(
                g.best_rows(),
                w.best_rows(),
                "{label}: int backend {}",
                k.name
            );
            for q in 0..int_refs.len() {
                for (a, b) in w.scores(q).iter().zip(g.scores(q)) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{label}: int backend {}", k.name);
                }
            }
        }
    }
}

fn fit_standard(dim: usize, kind: ModelKind, seed: u64) -> HdcModel<RecordEncoder> {
    HdcModel::fit_standard(&config(dim, kind, seed), &train_set(seed)).unwrap()
}

fn fit_locked(dim: usize, kind: ModelKind, mode: DeriveMode, seed: u64) -> HdcModel<LockedEncoder> {
    let mut rng = HvRng::from_seed(seed ^ 0xA5A5);
    let mut enc = LockedEncoder::generate(
        &mut rng,
        &LockConfig {
            n_features: N_FEATURES,
            m_levels: M_LEVELS,
            dim,
            pool_size: N_FEATURES + 3,
            n_layers: 2,
        },
    )
    .unwrap();
    enc.set_mode(mode);
    HdcModel::fit_with_encoder(&config(dim, kind, seed), enc, &train_set(seed)).unwrap()
}

fn roundtrip_standard(dim: usize, kind: ModelKind, seed: u64, queries: u64) {
    let model = fit_standard(dim, kind, seed);
    let snap = ModelSnapshot::from_standard_model(&model);
    let (loaded, checksum) = ModelSnapshot::from_bytes(&snap.to_bytes()).unwrap();
    assert_eq!(checksum, snap.checksum());
    let session: ServingSession = loaded.into_session(None).unwrap();
    let rows = query_rows(queries, 12);
    assert_bit_identical(
        &model.session(),
        &session,
        &rows,
        &format!("standard D={dim} {kind:?}"),
    );
}

fn roundtrip_locked(dim: usize, kind: ModelKind, mode: DeriveMode, seed: u64, queries: u64) {
    let model = fit_locked(dim, kind, mode, seed);
    let snap = ModelSnapshot::from_locked_model(&model);
    let key = KeySegment::from_locked_encoder(model.encoder()).unwrap();
    // Ship both artifacts through bytes, like a deployment would.
    let (loaded, _) = ModelSnapshot::from_bytes(&snap.to_bytes()).unwrap();
    let key = KeySegment::from_bytes(&key.to_bytes()).unwrap();
    let session: ServingSession = loaded.into_session(Some(&key)).unwrap();
    let rows = query_rows(queries, 12);
    assert_bit_identical(
        &model.session(),
        &session,
        &rows,
        &format!("locked D={dim} {kind:?} {mode:?}"),
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn standard_roundtrip_is_bit_identical_at_130(
        kind in prop_oneof![Just(ModelKind::Binary), Just(ModelKind::NonBinary)],
        seed in 1u64..1000,
        queries in any::<u64>(),
    ) {
        roundtrip_standard(130, kind, seed, queries);
    }

    #[test]
    fn locked_roundtrip_is_bit_identical_at_130(
        kind in prop_oneof![Just(ModelKind::Binary), Just(ModelKind::NonBinary)],
        mode in prop_oneof![Just(DeriveMode::Cached), Just(DeriveMode::OnTheFly)],
        seed in 1u64..1000,
        queries in any::<u64>(),
    ) {
        roundtrip_locked(130, kind, mode, seed, queries);
    }
}

#[test]
fn standard_roundtrip_is_bit_identical_at_paper_scale() {
    for kind in [ModelKind::Binary, ModelKind::NonBinary] {
        roundtrip_standard(10_000, kind, 77, 78);
    }
}

#[test]
fn locked_roundtrip_is_bit_identical_at_paper_scale() {
    for kind in [ModelKind::Binary, ModelKind::NonBinary] {
        for mode in [DeriveMode::Cached, DeriveMode::OnTheFly] {
            roundtrip_locked(10_000, kind, mode, 79, 80);
        }
    }
}

/// The stored bytes themselves, pinned by checksum for fixed-seed
/// models of both encoders and both kinds at D = 130 and 10 000. The
/// round trips above would pass a layout change that reads back
/// consistently; these literals would not. Training and snapshots are
/// bit-identical on every kernel backend, so the literals hold under
/// any `HYPERVEC_KERNEL`.
#[test]
fn snapshot_bytes_are_pinned() {
    const PINNED: [(usize, ModelKind, bool, u64); 8] = [
        (130, ModelKind::Binary, false, 0xa732_7e5b_480a_5bc4),
        (130, ModelKind::NonBinary, false, 0xc358_5234_9b10_2ecb),
        (130, ModelKind::Binary, true, 0xed20_20ea_c971_81c1),
        (130, ModelKind::NonBinary, true, 0x5df0_0c37_0728_cd31),
        (10_000, ModelKind::Binary, false, 0x7d6a_9de9_4bb7_474d),
        (10_000, ModelKind::NonBinary, false, 0xfd22_cfbd_2f41_6485),
        (10_000, ModelKind::Binary, true, 0xb496_ffbe_baaa_bbc9),
        (10_000, ModelKind::NonBinary, true, 0x81f5_d0ae_ea7f_40ee),
    ];
    let got: Vec<_> = PINNED
        .iter()
        .map(|&(dim, kind, locked, _)| {
            let snap = if locked {
                ModelSnapshot::from_locked_model(&fit_locked(dim, kind, DeriveMode::Cached, 111))
            } else {
                ModelSnapshot::from_standard_model(&fit_standard(dim, kind, 112))
            };
            (dim, kind, locked, snap.checksum())
        })
        .collect();
    assert_eq!(got, PINNED, "stored snapshot bytes changed");
}

/// Constructed tie: two identical class rows must resolve to the lowest
/// index on both sides of a snapshot round trip.
#[test]
fn tie_order_survives_the_roundtrip() {
    let mut rng = HvRng::from_seed(91);
    let enc = RecordEncoder::generate(&mut rng, N_FEATURES, M_LEVELS, 130).unwrap();
    let mut memory = ClassMemory::new(ModelKind::Binary, 3, 130);
    let proto = vec![1u16; N_FEATURES];
    let other = vec![3u16; N_FEATURES];
    // Classes 0 and 1 are the same prototype: every query ties between
    // them and must pick class 0.
    memory.acc_mut(0).add(&enc.encode_binary(&proto));
    memory.acc_mut(1).add(&enc.encode_binary(&proto));
    memory.acc_mut(2).add(&enc.encode_binary(&other));
    memory.rebinarize();
    let train = train_set(91);
    let model = HdcModel::from_parts(
        config(130, ModelKind::Binary, 91),
        enc,
        hdc_datasets::Discretizer::fit(&train, M_LEVELS).unwrap(),
        memory,
    );
    let snap = ModelSnapshot::from_standard_model(&model);
    let (loaded, _) = ModelSnapshot::from_bytes(&snap.to_bytes()).unwrap();
    let session = loaded.into_session(None).unwrap();
    assert_eq!(model.session().classify(&proto), 0);
    assert_eq!(session.classify(&proto), 0, "tie must break to class 0");
}

/// The registry swap itself must not perturb results: a generation
/// installed via reload answers exactly like the session it was built
/// from.
#[test]
fn swap_preserves_bit_identity() {
    use hdc_store::{ModelRegistry, RekeySource};

    let train = train_set(101);
    let cfg = config(130, ModelKind::Binary, 101);
    let mut rng = HvRng::from_seed(101);
    let enc = LockedEncoder::generate(
        &mut rng,
        &LockConfig {
            n_features: N_FEATURES,
            m_levels: M_LEVELS,
            dim: 130,
            pool_size: N_FEATURES,
            n_layers: 2,
        },
    )
    .unwrap();
    let model = HdcModel::fit_with_encoder(&cfg, enc, &train).unwrap();
    let snap = ModelSnapshot::from_locked_model(&model);
    let key = KeySegment::from_locked_encoder(model.encoder()).unwrap();
    let registry = ModelRegistry::from_snapshot(snap.clone(), Some(&key))
        .unwrap()
        .with_rekey_source(RekeySource { config: cfg, train });
    let rows = query_rows(102, 12);
    // Generation 1 (boot) ≡ the original model.
    assert_bit_identical(
        &model.session(),
        registry.current().session(),
        &rows,
        "boot generation",
    );
    // Reloading the *same* snapshot bumps the generation but not a bit
    // of the results, and the checksum is stable.
    let gen2 = registry.reload(snap, Some(&key)).unwrap();
    assert_eq!(gen2.checksum(), registry.current().checksum());
    assert_bit_identical(
        &model.session(),
        registry.current().session(),
        &rows,
        "reloaded generation",
    );
    assert_eq!(model.encoder().n_features(), N_FEATURES);
}
