//! Key lifecycle for a deployed HDLock model: escrow, vault audit,
//! revocation and re-keying, plus owner-side model persistence.
//!
//! ```text
//! cargo run --release --example key_management
//! ```

use hdc_datasets::Benchmark;
use hdc_model::{Encoder, HdcConfig, HdcModel};
use hdc_store::ModelSnapshot;
use hdlock::{EncodingKey, KeyVault, LockConfig, LockedEncoder};
use hypervec::HvRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = LockConfig {
        n_features: 64,
        m_levels: 8,
        dim: 4096,
        pool_size: 64,
        n_layers: 2,
    };
    let mut rng = HvRng::from_seed(7);

    // --- Key escrow -----------------------------------------------------
    // The owner generates the key, escrows a copy (e.g. in an HSM-backed
    // store), and seals the working copy into the device vault.
    let pool = hdlock::BasePool::generate(&mut rng, cfg.dim, cfg.pool_size);
    let values = hypervec::LevelHvs::generate(&mut rng, cfg.dim, cfg.m_levels)?;
    let key = EncodingKey::random(
        &mut rng,
        cfg.n_features,
        cfg.n_layers,
        cfg.pool_size,
        cfg.dim,
    )?;
    let escrow = serde_json::to_string(&key)?;
    println!(
        "escrowed key: {} bytes of JSON (N×L = {} layer entries)",
        escrow.len(),
        cfg.n_features * cfg.n_layers
    );

    let encoder = LockedEncoder::from_parts(pool.clone(), values.clone(), key)?;
    let row = vec![0u16; cfg.n_features];
    let reference = encoder.encode_binary(&row);
    println!("device vault after setup: {:?}", encoder.vault());

    // --- Revocation -----------------------------------------------------
    // Suppose the device is decommissioned: destroy the vault copy.
    encoder.vault().destroy();
    println!("after destroy: {:?}", encoder.vault());

    // --- Restore from escrow ---------------------------------------------
    let restored_key: EncodingKey = serde_json::from_str(&escrow)?;
    let restored = LockedEncoder::from_parts(pool, values, restored_key)?;
    assert_eq!(restored.encode_binary(&row), reference);
    println!("escrow restore verified: encodings are bit-identical");

    // --- Re-keying --------------------------------------------------------
    // If the key leaked, issue a fresh one over the same public memory.
    let rekeyed = restored.rekeyed(&mut rng)?;
    assert_ne!(rekeyed.encode_binary(&row), reference);
    println!("re-keyed encoder produces different encodings (old knowledge is useless)");

    // --- Owner-side model persistence --------------------------------------
    // A standard-encoder snapshot stores the feature rows in index order
    // (this file IS the IP — storing it unprotected is exactly the
    // vulnerability of Sec. 3).
    let (train_ds, test_ds) = Benchmark::Pamap.generate(0.1, 7)?;
    let model_cfg = HdcConfig::paper_default().with_dim(2048).with_seed(7);
    let model = HdcModel::fit_standard(&model_cfg, &train_ds)?;
    let bytes = ModelSnapshot::from_standard_model(&model).to_bytes();
    let (snapshot, _) = ModelSnapshot::from_bytes(&bytes)?;
    let test_q = snapshot.discretizer().discretize(&test_ds)?;
    let reloaded = snapshot.into_session(None)?;
    let acc_a = model.evaluate(&test_ds)?.accuracy;
    let acc_b = reloaded.evaluate(&test_q).accuracy;
    assert_eq!(acc_a, acc_b);
    println!(
        "model snapshot: {} bytes; accuracy {acc_a:.4} == {acc_b:.4} after reload",
        bytes.len()
    );

    // A standalone vault demo: scoped, audited access.
    let vault = KeyVault::seal(EncodingKey::random(&mut rng, 4, 2, 8, 128)?);
    let layers = vault.with_key(|k| k.n_layers())?;
    println!(
        "standalone vault read: L = {layers}, audit = {} reads",
        vault.reads()
    );
    Ok(())
}
