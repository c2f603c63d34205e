//! The three workloads: their shapes, load settings, and the inputs
//! both processes derive from the seed. The generator writes the model
//! files and keeps an in-process copy of the served model as the answer
//! reference; the server host boots from the same files.

use std::path::{Path, PathBuf};
use std::time::Duration;

use hdc_datasets::{Benchmark, Dataset};
use hdc_model::{ClassifySession, Encoder, HdcConfig, HdcModel, ModelKind, OwnedSession};
use hdc_serve::demo::{self, DemoSpec};
use hdc_serve::{AdmissionConfig, BatchConfig, RegistryServeConfig};
use hdc_store::{AnyEncoder, EncoderParts, KeySegment, ModelRegistry, ModelSnapshot, RekeySource};
use hdlock::{LockConfig, LockedEncoder};
use hypervec::{HvRng, ProbeConfig, ShardedClassMemory};

/// Rows per `encode_batch_binary` call when ingesting a corpus.
pub const INGEST_CHUNK: usize = 1024;
/// Corpus rows of search-topk.
const CORPUS_ROWS: usize = 100_000;
/// Near-duplicate rows planted per search family.
const FAMILY: usize = 32;
/// Features redrawn in a family member or a query.
const PERTURB: usize = 6;
/// Distinct query rows (and planted families) of search-topk.
const QUERIES: usize = 256;
/// Distinct uniform rows cycled by json-small.
const SMALL_ROWS: usize = 4096;
/// Top-k of every search request.
pub const SEARCH_K: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    JsonSmall,
    IsoletLocked,
    SearchTopk,
}

/// How a workload is served and driven.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub kind: Kind,
    pub name: &'static str,
    /// Line-JSON wire (else binary frames).
    pub json: bool,
    /// Top-k of SEARCH requests (else CLASSIFY).
    pub search_k: Option<usize>,
    /// In-flight requests of the capacity phase.
    pub cap_window: usize,
    /// Requests per second of the light phase.
    pub light_rate: f64,
    /// Boots per run; `setup_s` is their median.
    pub boots: usize,
    /// Sequential `{"rekey":…}` requests after the light phase.
    pub rekeys: usize,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "json-small" => Some(Kind::JsonSmall),
            "isolet-locked" => Some(Kind::IsoletLocked),
            "search-topk" => Some(Kind::SearchTopk),
            _ => None,
        }
    }

    pub fn spec(self) -> Spec {
        match self {
            Kind::JsonSmall => Spec {
                kind: self,
                name: "json-small",
                json: true,
                search_k: None,
                cap_window: 128,
                light_rate: 20_000.0,
                boots: 15,
                rekeys: 0,
            },
            Kind::IsoletLocked => Spec {
                kind: self,
                name: "isolet-locked",
                json: false,
                search_k: None,
                cap_window: 128,
                light_rate: 100.0,
                boots: 15,
                rekeys: 3,
            },
            Kind::SearchTopk => Spec {
                kind: self,
                name: "search-topk",
                json: false,
                search_k: Some(SEARCH_K),
                cap_window: 16,
                light_rate: 50.0,
                boots: 3,
                rekeys: 0,
            },
        }
    }
}

impl Spec {
    /// The server settings every workload shares: one batch worker,
    /// `max_batch` 64, `max_wait` 200 µs, a pipeline window no generator
    /// stall can overflow, and the pruned scan for SEARCH.
    pub fn serve_config(&self) -> RegistryServeConfig {
        RegistryServeConfig {
            batch: BatchConfig {
                max_batch: 64,
                max_wait: Duration::from_micros(200),
                workers: 1,
                pipeline_window: 1 << 16,
                search_probe: self.search_k.map(|_| ProbeConfig::default()),
                ..BatchConfig::default()
            },
            admission: AdmissionConfig::default(),
        }
    }

    /// The probe the server's SEARCH path uses.
    pub fn probe(&self) -> Option<ProbeConfig> {
        self.serve_config().batch.search_probe
    }
}

/// Snapshot and key file of a workload's model.
pub fn model_files(dir: &Path, spec: &Spec, seed: u64) -> (PathBuf, PathBuf) {
    let stem = format!("{}-{seed}", spec.name);
    (
        dir.join(format!("{stem}.hdsn")),
        dir.join(format!("{stem}.hdky")),
    )
}

/// The isolet-locked split: the paper's ISOLET shape, synthetic data.
pub fn isolet_data(seed: u64) -> (Dataset, Dataset) {
    Benchmark::Isolet
        .generate(1.0, seed)
        .expect("synthetic ISOLET generates")
}

/// Training hyperparameters: the paper's defaults for isolet-locked,
/// the serving demo's for the others.
pub fn train_config(kind: Kind, seed: u64) -> HdcConfig {
    match kind {
        Kind::IsoletLocked => HdcConfig {
            seed,
            ..HdcConfig::paper_default()
        },
        Kind::JsonSmall => demo::demo_config(&small_spec(seed)),
        Kind::SearchTopk => demo::demo_config(&carrier_spec(seed)),
    }
}

fn small_spec(seed: u64) -> DemoSpec {
    DemoSpec {
        seed,
        ..DemoSpec::default()
    }
}

/// search-topk's snapshot only carries its N = 64 locked encoder: a
/// two-class model on a handful of rows.
fn carrier_spec(seed: u64) -> DemoSpec {
    DemoSpec {
        n_features: 64,
        n_classes: 2,
        dim: 10_000,
        m_levels: 16,
        train_size: 64,
        seed,
    }
}

/// Trains the workload's locked model (L = 2, cached derivation) and
/// returns it with its training set and, for isolet-locked, the test
/// split.
pub fn train_model(kind: Kind, seed: u64) -> (HdcModel<LockedEncoder>, Dataset, Option<Dataset>) {
    match kind {
        Kind::JsonSmall => {
            let (model, train) = demo::demo_locked_model(&small_spec(seed), 2);
            (model, train, None)
        }
        Kind::SearchTopk => {
            let (model, train) = demo::demo_locked_model(&carrier_spec(seed), 2);
            (model, train, None)
        }
        Kind::IsoletLocked => {
            let (train, test) = isolet_data(seed);
            let mut rng = HvRng::from_seed(seed ^ 0x150_1E7);
            let encoder = LockedEncoder::generate(&mut rng, &LockConfig::paper_validation(617))
                .expect("paper lock config is valid");
            let model = HdcModel::fit_with_encoder(&train_config(kind, seed), encoder, &train)
                .expect("synthetic training succeeds");
            (model, train, Some(test))
        }
    }
}

/// search-topk's corpus and queries. Each query is a perturbed copy of
/// a family centre whose 32 perturbed copies are planted, scattered,
/// among uniform random rows — so the exact top-10 is known to be
/// family rows and recall@10 of the pruned scan measures something.
pub fn search_rows(seed: u64) -> (Vec<Vec<u16>>, Vec<Vec<u16>>) {
    const N: usize = 64;
    const M: u64 = 16;
    let mut rng = HvRng::from_seed(seed ^ 0x5EA_2C4);
    let random_row =
        |rng: &mut HvRng| -> Vec<u16> { (0..N).map(|_| (rng.next_u64() % M) as u16).collect() };
    let perturb = |rng: &mut HvRng, row: &[u16]| -> Vec<u16> {
        let mut out = row.to_vec();
        for _ in 0..PERTURB {
            let f = (rng.next_u64() % N as u64) as usize;
            out[f] = (rng.next_u64() % M) as u16;
        }
        out
    };
    let mut corpus: Vec<Vec<u16>> = (0..CORPUS_ROWS).map(|_| random_row(&mut rng)).collect();
    let stride = CORPUS_ROWS / (QUERIES * FAMILY);
    let mut queries = Vec::with_capacity(QUERIES);
    for q in 0..QUERIES {
        let centre = random_row(&mut rng);
        for j in 0..FAMILY {
            corpus[(q * FAMILY + j) * stride] = perturb(&mut rng, &centre);
        }
        queries.push(perturb(&mut rng, &centre));
    }
    (corpus, queries)
}

/// json-small's request rows: uniform over N = 16 features, M = 8.
pub fn small_rows(seed: u64) -> Vec<Vec<u16>> {
    let mut rng = HvRng::from_seed(seed ^ 0x5_4A11);
    (0..SMALL_ROWS)
        .map(|_| (0..16).map(|_| (rng.next_u64() % 8) as u16).collect())
        .collect()
}

/// Encodes `records` in [`INGEST_CHUNK`]-row batches into a fresh
/// class memory, one row per record.
pub fn ingest(encoder: &(impl Encoder + Sync), records: &[Vec<u16>]) -> ShardedClassMemory {
    let mut memory = ShardedClassMemory::new(encoder.dim());
    memory.reserve(records.len());
    for chunk in records.chunks(INGEST_CHUNK) {
        let refs: Vec<&[u16]> = chunk.iter().map(Vec::as_slice).collect();
        for hv in encoder.encode_batch_binary(&refs) {
            memory.push(&hv).expect("encoder and memory share D");
        }
    }
    memory
}

/// The locked encoder a snapshot and its sealed key describe.
fn locked_encoder(snapshot: &ModelSnapshot, key: &KeySegment) -> LockedEncoder {
    match snapshot.encoder() {
        EncoderParts::Locked { pool, values, .. } => {
            LockedEncoder::from_parts(pool.clone(), values.clone(), key.key().clone())
                .expect("key matches its snapshot")
        }
        EncoderParts::Standard { .. } => panic!("workload snapshots are locked"),
    }
}

/// Boots the served model exactly as the server host does: snapshot +
/// key through `ModelRegistry::from_snapshot`, or, for search-topk, the
/// snapshot's encoder plus a corpus ingest.
pub fn boot(
    kind: Kind,
    files: &(PathBuf, PathBuf),
    rekey: Option<RekeySource>,
    corpus: Option<&[Vec<u16>]>,
) -> ModelRegistry {
    let (snapshot, checksum) = ModelSnapshot::load(&files.0).expect("snapshot file loads");
    let key = KeySegment::load(&files.1).expect("key file loads");
    let registry = match kind {
        Kind::SearchTopk => {
            let encoder = locked_encoder(&snapshot, &key);
            let memory = ingest(&encoder, corpus.expect("search-topk boots with a corpus"));
            let session =
                OwnedSession::from_packed(AnyEncoder::Locked(encoder), ModelKind::Binary, memory);
            ModelRegistry::new(session, checksum)
        }
        _ => ModelRegistry::from_snapshot(snapshot, Some(&key)).expect("snapshot boots"),
    };
    match rekey {
        Some(source) => registry.with_rekey_source(source),
        None => registry,
    }
}

/// A served answer in comparable form.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    Class(usize),
    /// Top-k `(row, score bits)`, best first.
    Matches(Vec<(usize, u64)>),
}

/// Reference answers of `session` for `rows`, computed in-process with
/// the same probe the server uses.
pub fn reference(
    session: &impl ClassifySession,
    rows: &[Vec<u16>],
    search_k: Option<usize>,
    probe: Option<&ProbeConfig>,
) -> Vec<Answer> {
    let mut out = Vec::with_capacity(rows.len());
    for chunk in rows.chunks(256) {
        let refs: Vec<&[u16]> = chunk.iter().map(Vec::as_slice).collect();
        match search_k {
            None => out.extend(session.classify_batch(&refs).into_iter().map(Answer::Class)),
            Some(k) => {
                let hits = session.search_topk_batch(&refs, k, probe);
                out.extend((0..refs.len()).map(|q| {
                    Answer::Matches(
                        hits.matches(q)
                            .iter()
                            .map(|m| (m.row, m.score.to_bits()))
                            .collect(),
                    )
                }));
            }
        }
    }
    out
}
