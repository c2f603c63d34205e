//! Batched inference sessions: encoder + packed class memory as one
//! query-side unit.
//!
//! HDLock's threat model assumes the deployed model is driven at high
//! query volume; Prive-HD argues the deployed encoder + memory should
//! be one hardened pipeline rather than loose library calls. A session
//! is that pipeline's software shape: it snapshots the trained
//! [`ClassMemory`] into a search-packed
//! [`ShardedClassMemory`] once, then serves every query through the
//! fused `encode_batch_* → search_batch_*` path — one word-parallel
//! encoding pass (per-worker scratch accumulators, no per-sample
//! allocation beyond the encoded block) feeding one word-parallel
//! popcount/dot scan (per-worker distance matrices). The evaluation
//! loop, the serving layer (`hdc_serve`) and the attack harness all
//! run on the same session, so measured attack cost and served
//! throughput describe the same code path.
//!
//! Two ownership shapes share one implementation:
//!
//! * [`InferenceSession`] **borrows** its encoder — the ergonomic form
//!   for "build a model, serve it from this stack frame" (training
//!   loops, tests, the single-model server).
//! * [`OwnedSession`] **owns** its encoder — the form a model registry
//!   needs: a generation that can be handed around behind an `Arc` and
//!   hot-swapped without any borrow tying it to the loading frame.
//!
//! The [`ClassifySession`] trait is the seam the serving layer is
//! generic over, so batch workers and connection handlers accept either
//! shape (and any future one) without duplication.
//!
//! Results are bit-identical to the scalar per-sample pipeline
//! (`encode_binary` + the one-row-at-a-time scan), including
//! lowest-index tie-breaking — pinned by the `session_equivalence`
//! integration tests.

use hdc_datasets::QuantizedDataset;
use hypervec::{
    BatchSearchResult, BatchTopKResult, BinaryHv, IntHv, ProbeConfig, ShardedClassMemory,
};

use crate::classhv::ClassMemory;
use crate::config::ModelKind;
use crate::encoder::Encoder;
use crate::metrics::{ConfusionMatrix, EvalResult};

/// Samples encoded per block when streaming a dataset through the
/// session: large enough to feed every batch worker, small enough that
/// the encoded block (not the whole dataset) bounds peak memory.
pub const SESSION_BLOCK: usize = 1024;

/// The query surface shared by every session shape — what the serving
/// layer ([`hdc_serve`](crate::session)), the batch workers and the
/// registry swap logic are generic over.
///
/// All implementations promise bit-identical results to the scalar
/// per-sample pipeline, including lowest-index tie-breaking.
pub trait ClassifySession: Sync {
    /// Model kind (binary → Hamming search, non-binary → cosine).
    fn kind(&self) -> ModelKind;

    /// Number of classes `C`.
    fn n_classes(&self) -> usize;

    /// Number of input features `N`.
    fn n_features(&self) -> usize;

    /// Number of value levels `M`.
    fn m_levels(&self) -> usize;

    /// Hypervector dimensionality `D`.
    fn dim(&self) -> usize;

    /// The packed class-memory snapshot.
    fn memory(&self) -> &ShardedClassMemory;

    /// Fused classify of a batch of quantized rows: one batch encode,
    /// one batch search, top-1 class per row in input order.
    ///
    /// # Panics
    ///
    /// Panics if any row's width does not match the encoder.
    fn classify_batch(&self, rows: &[&[u16]]) -> Vec<usize>;

    /// Fused classify of a batch, returning top-1 *and* the full
    /// per-class score vector for every row (higher is more similar;
    /// bipolar cosine for binary models, cosine for non-binary).
    ///
    /// # Panics
    ///
    /// Panics if any row's width does not match the encoder.
    fn scores_batch(&self, rows: &[&[u16]]) -> BatchSearchResult;

    /// Classifies a single quantized row (a batch of one).
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the encoder.
    fn classify(&self, levels: &[u16]) -> usize;

    /// Fused top-k similarity search of a batch of quantized rows: one
    /// batch encode, one heap top-k search over the memory rows. With a
    /// [`ProbeConfig`] the search runs the pruned coarse/rescore path —
    /// leading packed words for binary models, the i16-quantized
    /// leading dimension blocks for non-binary (cosine) models; `None`
    /// is the exact scan. Matches are best-first with lowest-index tie
    /// order, bit-identical to sorting the full
    /// [`ClassifySession::scores_batch`] score vector.
    ///
    /// # Panics
    ///
    /// Panics if any row's width does not match the encoder.
    fn search_topk_batch(
        &self,
        rows: &[&[u16]],
        k: usize,
        probe: Option<&ProbeConfig>,
    ) -> BatchTopKResult;

    /// Name of the SIMD kernel backend every encode and search in this
    /// session runs on (`"scalar"`, `"avx2"` or `"avx512"`) —
    /// surfaced so operators can verify what is actually executing.
    fn kernel_backend(&self) -> &'static str {
        hypervec::kernel::name()
    }

    /// Whether this session serves in constant-time hardened mode (see
    /// [`Encoder::is_hardened`]). Surfaced through `info`/`stats` and
    /// the `hdc_hardened` metrics gauge so operators can audit what a
    /// deployment actually runs.
    fn hardened(&self) -> bool {
        false
    }
}

// ---------------------------------------------------------------------
// Shared implementation: every session shape delegates here.
// ---------------------------------------------------------------------

fn classify_batch_impl<E: Encoder + Sync>(
    encoder: &E,
    kind: ModelKind,
    sharded: &ShardedClassMemory,
    rows: &[&[u16]],
) -> Vec<usize> {
    if rows.is_empty() {
        return Vec::new();
    }
    match kind {
        ModelKind::Binary => {
            let encoded = encoder.encode_batch_binary(rows);
            let refs: Vec<&BinaryHv> = encoded.iter().collect();
            sharded
                .search_batch_binary(&refs)
                .expect("session dimensions are consistent by construction")
                .into_best_rows()
        }
        ModelKind::NonBinary => {
            let encoded = encoder.encode_batch_int(rows);
            let refs: Vec<&IntHv> = encoded.iter().collect();
            sharded
                .search_batch_int(&refs)
                .expect("session dimensions are consistent by construction")
                .into_best_rows()
        }
    }
}

fn scores_batch_impl<E: Encoder + Sync>(
    encoder: &E,
    kind: ModelKind,
    sharded: &ShardedClassMemory,
    rows: &[&[u16]],
) -> BatchSearchResult {
    match kind {
        ModelKind::Binary => {
            let encoded = encoder.encode_batch_binary(rows);
            let refs: Vec<&BinaryHv> = encoded.iter().collect();
            sharded
                .search_batch_binary(&refs)
                .expect("session dimensions are consistent by construction")
        }
        ModelKind::NonBinary => {
            let encoded = encoder.encode_batch_int(rows);
            let refs: Vec<&IntHv> = encoded.iter().collect();
            sharded
                .search_batch_int(&refs)
                .expect("session dimensions are consistent by construction")
        }
    }
}

fn search_topk_impl<E: Encoder + Sync>(
    encoder: &E,
    kind: ModelKind,
    sharded: &ShardedClassMemory,
    rows: &[&[u16]],
    k: usize,
    probe: Option<&ProbeConfig>,
) -> BatchTopKResult {
    // A hardened encoder promises fixed work per query; the pruned
    // coarse/rescore scan's candidate set (and thus its latency) is
    // score-dependent, so hardened sessions always take the exact
    // fixed-shape scan regardless of the caller's probe tuning.
    let probe = if encoder.is_hardened() { None } else { probe };
    match kind {
        ModelKind::Binary => {
            let encoded = encoder.encode_batch_binary(rows);
            let refs: Vec<&BinaryHv> = encoded.iter().collect();
            match probe {
                Some(p) => sharded.search_topk_binary_pruned(&refs, k, p),
                None => sharded.search_topk_binary(&refs, k),
            }
            .expect("session dimensions are consistent by construction")
        }
        ModelKind::NonBinary => {
            let encoded = encoder.encode_batch_int(rows);
            let refs: Vec<&IntHv> = encoded.iter().collect();
            match probe {
                Some(p) => sharded.search_topk_int_pruned(&refs, k, p),
                None => sharded.search_topk_int(&refs, k),
            }
            .expect("session dimensions are consistent by construction")
        }
    }
}

fn classify_one_impl<E: Encoder>(
    encoder: &E,
    kind: ModelKind,
    sharded: &ShardedClassMemory,
    levels: &[u16],
) -> usize {
    match kind {
        ModelKind::Binary => {
            sharded
                .search_binary(&encoder.encode_binary(levels))
                .expect("session dimensions are consistent by construction")
                .0
        }
        ModelKind::NonBinary => {
            sharded
                .search_int(&encoder.encode_int(levels))
                .expect("session dimensions are consistent by construction")
                .0
        }
    }
}

fn evaluate_impl<S: ClassifySession + ?Sized>(session: &S, data: &QuantizedDataset) -> EvalResult {
    let rows: Vec<&[u16]> = (0..data.len()).map(|i| data.row(i)).collect();
    let mut confusion = ConfusionMatrix::new(data.n_classes());
    for block_start in (0..rows.len()).step_by(SESSION_BLOCK) {
        let block_end = (block_start + SESSION_BLOCK).min(rows.len());
        let block = &rows[block_start..block_end];
        for (off, &predicted) in session.classify_batch(block).iter().enumerate() {
            confusion.record(data.label(block_start + off), predicted);
        }
    }
    EvalResult {
        accuracy: confusion.accuracy(),
        confusion,
    }
}

fn check_shape(encoder_dim: usize, memory_dim: usize) {
    assert_eq!(
        encoder_dim, memory_dim,
        "encoder dimension {encoder_dim} does not match class memory dimension {memory_dim}"
    );
}

/// A query-side inference pipeline: borrowed encoder plus an owned,
/// search-packed snapshot of the class memory.
///
/// # Examples
///
/// ```
/// use hdc_datasets::Benchmark;
/// use hdc_model::{HdcConfig, HdcModel, InferenceSession};
///
/// let (train, test) = Benchmark::Face.generate(0.05, 3)?;
/// let config = HdcConfig::paper_default().with_dim(1024);
/// let model = HdcModel::fit_standard(&config, &train)?;
/// let session = InferenceSession::new(model.encoder(), model.memory());
/// let levels = model.discretizer().discretize_row(&test.samples()[0].features);
/// let class = session.classify(&levels);
/// assert!(class < model.memory().n_classes());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct InferenceSession<'a, E> {
    encoder: &'a E,
    kind: ModelKind,
    sharded: ShardedClassMemory,
}

impl<'a, E: Encoder + Sync> InferenceSession<'a, E> {
    /// Builds a session by snapshotting `memory` into packed form.
    ///
    /// # Panics
    ///
    /// Panics if encoder and memory disagree on dimensionality.
    #[must_use]
    pub fn new(encoder: &'a E, memory: &ClassMemory) -> Self {
        check_shape(encoder.dim(), memory.dim());
        InferenceSession {
            encoder,
            kind: memory.kind(),
            sharded: memory.to_sharded(),
        }
    }

    /// The encoder this session serves.
    #[must_use]
    pub fn encoder(&self) -> &E {
        self.encoder
    }

    /// Model kind (binary → Hamming search, non-binary → cosine).
    #[must_use]
    pub fn kind(&self) -> ModelKind {
        self.kind
    }

    /// The packed class-memory snapshot.
    #[must_use]
    pub fn memory(&self) -> &ShardedClassMemory {
        &self.sharded
    }

    /// Number of classes `C`.
    #[must_use]
    pub fn n_classes(&self) -> usize {
        self.sharded.n_rows()
    }

    /// Number of input features `N`.
    #[must_use]
    pub fn n_features(&self) -> usize {
        self.encoder.n_features()
    }

    /// Number of value levels `M`.
    #[must_use]
    pub fn m_levels(&self) -> usize {
        self.encoder.m_levels()
    }

    /// Hypervector dimensionality `D`.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.encoder.dim()
    }

    /// Name of the SIMD kernel backend every encode and search in this
    /// session runs on (`"scalar"`, `"avx2"` or `"avx512"`).
    #[must_use]
    pub fn kernel_backend(&self) -> &'static str {
        hypervec::kernel::name()
    }

    /// Fused classify of a batch of quantized rows: one batch encode,
    /// one batch search, top-1 class per row in input order.
    ///
    /// # Panics
    ///
    /// Panics if any row's width does not match the encoder.
    #[must_use]
    pub fn classify_batch(&self, rows: &[&[u16]]) -> Vec<usize> {
        classify_batch_impl(self.encoder, self.kind, &self.sharded, rows)
    }

    /// Fused classify of a batch, returning top-1 *and* the full
    /// per-class score vector for every row.
    ///
    /// # Panics
    ///
    /// Panics if any row's width does not match the encoder.
    #[must_use]
    pub fn scores_batch(&self, rows: &[&[u16]]) -> BatchSearchResult {
        scores_batch_impl(self.encoder, self.kind, &self.sharded, rows)
    }

    /// Classifies a single quantized row (a batch of one).
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the encoder.
    #[must_use]
    pub fn classify(&self, levels: &[u16]) -> usize {
        classify_one_impl(self.encoder, self.kind, &self.sharded, levels)
    }

    /// Fused top-k similarity search (see
    /// [`ClassifySession::search_topk_batch`]).
    ///
    /// # Panics
    ///
    /// Panics if any row's width does not match the encoder.
    #[must_use]
    pub fn search_topk_batch(
        &self,
        rows: &[&[u16]],
        k: usize,
        probe: Option<&ProbeConfig>,
    ) -> BatchTopKResult {
        search_topk_impl(self.encoder, self.kind, &self.sharded, rows, k, probe)
    }

    /// Evaluates the session over a quantized dataset, streaming it in
    /// [`SESSION_BLOCK`]-sized blocks through the fused batch path.
    ///
    /// # Panics
    ///
    /// Panics if the dataset width does not match the encoder.
    #[must_use]
    pub fn evaluate(&self, data: &QuantizedDataset) -> EvalResult {
        evaluate_impl(self, data)
    }
}

impl<E: Encoder + Sync> ClassifySession for InferenceSession<'_, E> {
    fn kind(&self) -> ModelKind {
        InferenceSession::kind(self)
    }

    fn n_classes(&self) -> usize {
        InferenceSession::n_classes(self)
    }

    fn n_features(&self) -> usize {
        InferenceSession::n_features(self)
    }

    fn m_levels(&self) -> usize {
        InferenceSession::m_levels(self)
    }

    fn dim(&self) -> usize {
        InferenceSession::dim(self)
    }

    fn memory(&self) -> &ShardedClassMemory {
        InferenceSession::memory(self)
    }

    fn classify_batch(&self, rows: &[&[u16]]) -> Vec<usize> {
        InferenceSession::classify_batch(self, rows)
    }

    fn scores_batch(&self, rows: &[&[u16]]) -> BatchSearchResult {
        InferenceSession::scores_batch(self, rows)
    }

    fn classify(&self, levels: &[u16]) -> usize {
        InferenceSession::classify(self, levels)
    }

    fn search_topk_batch(
        &self,
        rows: &[&[u16]],
        k: usize,
        probe: Option<&ProbeConfig>,
    ) -> BatchTopKResult {
        InferenceSession::search_topk_batch(self, rows, k, probe)
    }

    fn hardened(&self) -> bool {
        self.encoder.is_hardened()
    }
}

/// A self-contained inference pipeline: the session *owns* its encoder.
///
/// This is the generation unit a model registry swaps: unlike
/// [`InferenceSession`] it carries no borrow, so it can live behind an
/// `Arc`, outlive the stack frame that loaded the snapshot, and be
/// retired whenever the last in-flight batch drops its reference.
///
/// # Examples
///
/// ```
/// use hdc_datasets::Benchmark;
/// use hdc_model::{ClassifySession, HdcConfig, HdcModel, OwnedSession};
///
/// let (train, _) = Benchmark::Face.generate(0.05, 3)?;
/// let config = HdcConfig::paper_default().with_dim(1024);
/// let model = HdcModel::fit_standard(&config, &train)?;
/// let (_, encoder, _, memory) = model.into_parts();
/// let session = OwnedSession::new(encoder, &memory);
/// assert_eq!(session.dim(), 1024);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct OwnedSession<E> {
    encoder: E,
    kind: ModelKind,
    sharded: ShardedClassMemory,
}

impl<E: Encoder + Sync> OwnedSession<E> {
    /// Builds an owning session by snapshotting `memory` into packed
    /// form.
    ///
    /// # Panics
    ///
    /// Panics if encoder and memory disagree on dimensionality.
    #[must_use]
    pub fn new(encoder: E, memory: &ClassMemory) -> Self {
        check_shape(encoder.dim(), memory.dim());
        OwnedSession {
            encoder,
            kind: memory.kind(),
            sharded: memory.to_sharded(),
        }
    }

    /// Assembles an owning session from an already-packed class memory —
    /// the binary-snapshot load path, which deserializes the packed
    /// planes directly and must not round-trip them through
    /// [`ClassMemory`].
    ///
    /// # Panics
    ///
    /// Panics if encoder and packed memory disagree on dimensionality,
    /// or if a non-binary session is assembled without integer rows.
    #[must_use]
    pub fn from_packed(encoder: E, kind: ModelKind, sharded: ShardedClassMemory) -> Self {
        check_shape(encoder.dim(), sharded.dim());
        assert!(
            kind == ModelKind::Binary || sharded.has_int_rows(),
            "non-binary session needs integer class rows for cosine search"
        );
        OwnedSession {
            encoder,
            kind,
            sharded,
        }
    }

    /// The encoder this session serves.
    #[must_use]
    pub fn encoder(&self) -> &E {
        &self.encoder
    }

    /// Evaluates the session over a quantized dataset, streaming it in
    /// [`SESSION_BLOCK`]-sized blocks through the fused batch path.
    ///
    /// # Panics
    ///
    /// Panics if the dataset width does not match the encoder.
    #[must_use]
    pub fn evaluate(&self, data: &QuantizedDataset) -> EvalResult {
        evaluate_impl(self, data)
    }
}

impl<E: Encoder + Sync> ClassifySession for OwnedSession<E> {
    fn kind(&self) -> ModelKind {
        self.kind
    }

    fn n_classes(&self) -> usize {
        self.sharded.n_rows()
    }

    fn n_features(&self) -> usize {
        self.encoder.n_features()
    }

    fn m_levels(&self) -> usize {
        self.encoder.m_levels()
    }

    fn dim(&self) -> usize {
        self.encoder.dim()
    }

    fn memory(&self) -> &ShardedClassMemory {
        &self.sharded
    }

    fn classify_batch(&self, rows: &[&[u16]]) -> Vec<usize> {
        classify_batch_impl(&self.encoder, self.kind, &self.sharded, rows)
    }

    fn scores_batch(&self, rows: &[&[u16]]) -> BatchSearchResult {
        scores_batch_impl(&self.encoder, self.kind, &self.sharded, rows)
    }

    fn classify(&self, levels: &[u16]) -> usize {
        classify_one_impl(&self.encoder, self.kind, &self.sharded, levels)
    }

    fn search_topk_batch(
        &self,
        rows: &[&[u16]],
        k: usize,
        probe: Option<&ProbeConfig>,
    ) -> BatchTopKResult {
        search_topk_impl(&self.encoder, self.kind, &self.sharded, rows, k, probe)
    }

    fn hardened(&self) -> bool {
        self.encoder.is_hardened()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::RecordEncoder;
    use crate::infer;
    use hypervec::HvRng;

    fn setup(kind: ModelKind, dim: usize) -> (RecordEncoder, ClassMemory, Vec<Vec<u16>>) {
        let mut rng = HvRng::from_seed(9);
        let enc = RecordEncoder::generate(&mut rng, 7, 4, dim).unwrap();
        let mut memory = ClassMemory::new(kind, 3, dim);
        let protos: Vec<Vec<u16>> = vec![vec![0u16; 7], vec![2u16; 7], vec![3u16; 7]];
        for (j, p) in protos.iter().enumerate() {
            memory.acc_mut(j).add(&enc.encode_binary(p));
        }
        memory.rebinarize();
        let rows: Vec<Vec<u16>> = (0..20)
            .map(|s| (0..7).map(|i| ((s + i) % 4) as u16).collect())
            .collect();
        (enc, memory, rows)
    }

    #[test]
    fn batch_classify_matches_scalar_pipeline_binary() {
        let (enc, memory, rows) = setup(ModelKind::Binary, 1030);
        let session = InferenceSession::new(&enc, &memory);
        let refs: Vec<&[u16]> = rows.iter().map(Vec::as_slice).collect();
        let batch = session.classify_batch(&refs);
        for (i, row) in refs.iter().enumerate() {
            let want = infer::classify_binary_hv(&memory, &enc.encode_binary(row));
            assert_eq!(batch[i], want, "row {i}");
            assert_eq!(session.classify(row), want, "row {i}");
        }
    }

    #[test]
    fn batch_classify_matches_scalar_pipeline_nonbinary() {
        let (enc, memory, rows) = setup(ModelKind::NonBinary, 512);
        let session = InferenceSession::new(&enc, &memory);
        let refs: Vec<&[u16]> = rows.iter().map(Vec::as_slice).collect();
        let batch = session.classify_batch(&refs);
        for (i, row) in refs.iter().enumerate() {
            let want = infer::classify_int_hv(&memory, &enc.encode_int(row));
            assert_eq!(batch[i], want, "row {i}");
            assert_eq!(session.classify(row), want, "row {i}");
        }
    }

    #[test]
    fn scores_batch_matches_class_scores() {
        for kind in [ModelKind::Binary, ModelKind::NonBinary] {
            let (enc, memory, rows) = setup(kind, 256);
            let session = InferenceSession::new(&enc, &memory);
            let refs: Vec<&[u16]> = rows.iter().map(Vec::as_slice).collect();
            let hits = session.scores_batch(&refs);
            for (i, row) in refs.iter().enumerate() {
                let want = infer::class_scores(&enc, &memory, row);
                for (j, &s) in hits.scores(i).iter().enumerate() {
                    assert_eq!(s.to_bits(), want[j].to_bits(), "{kind:?} row {i} class {j}");
                }
            }
        }
    }

    #[test]
    fn owned_session_is_bit_identical_to_borrowed() {
        for kind in [ModelKind::Binary, ModelKind::NonBinary] {
            let (enc, memory, rows) = setup(kind, 130);
            let borrowed = InferenceSession::new(&enc, &memory);
            let refs: Vec<&[u16]> = rows.iter().map(Vec::as_slice).collect();
            let want = borrowed.scores_batch(&refs);
            let owned = OwnedSession::new(enc, &memory);
            assert_eq!(owned.kind(), kind);
            assert_eq!(owned.n_classes(), 3);
            let got = owned.scores_batch(&refs);
            assert_eq!(got.best_rows(), want.best_rows());
            for (q, row) in refs.iter().enumerate() {
                for (g, w) in got.scores(q).iter().zip(want.scores(q)) {
                    assert_eq!(g.to_bits(), w.to_bits());
                }
                assert_eq!(owned.classify(row), want.best(q));
            }
        }
    }

    #[test]
    fn owned_session_moves_behind_arc() {
        let (enc, memory, rows) = setup(ModelKind::Binary, 256);
        let want: Vec<usize> = {
            let session = InferenceSession::new(&enc, &memory);
            let refs: Vec<&[u16]> = rows.iter().map(Vec::as_slice).collect();
            session.classify_batch(&refs)
        };
        let session = std::sync::Arc::new(OwnedSession::new(enc, &memory));
        // The Arc'd session serves from another thread with no borrow of
        // the constructing frame — the property the registry relies on.
        let cloned = std::sync::Arc::clone(&session);
        let rows2 = rows.clone();
        let got = std::thread::spawn(move || {
            let refs: Vec<&[u16]> = rows2.iter().map(Vec::as_slice).collect();
            cloned.classify_batch(&refs)
        })
        .join()
        .unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn topk_session_matches_sorted_scores() {
        for kind in [ModelKind::Binary, ModelKind::NonBinary] {
            let (enc, memory, rows) = setup(kind, 1030);
            let session = InferenceSession::new(&enc, &memory);
            let refs: Vec<&[u16]> = rows.iter().map(Vec::as_slice).collect();
            let hits = session.search_topk_batch(&refs, 2, None);
            let full = session.scores_batch(&refs);
            for q in 0..refs.len() {
                let scores = full.scores(q);
                let mut order: Vec<usize> = (0..scores.len()).collect();
                order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then(a.cmp(&b)));
                let matches = hits.matches(q);
                assert_eq!(matches.len(), 2, "{kind:?} q {q}");
                for (m, &want_row) in matches.iter().zip(order.iter()) {
                    assert_eq!(m.row, want_row, "{kind:?} q {q}");
                    assert_eq!(
                        m.score.to_bits(),
                        scores[want_row].to_bits(),
                        "{kind:?} q {q}"
                    );
                }
                assert_eq!(matches[0].row, full.best(q), "{kind:?} q {q}");
            }
        }
    }

    #[test]
    fn topk_session_pruned_full_width_matches_exact_binary() {
        let (enc, memory, rows) = setup(ModelKind::Binary, 1030);
        let session = InferenceSession::new(&enc, &memory);
        let refs: Vec<&[u16]> = rows.iter().map(Vec::as_slice).collect();
        let exact = session.search_topk_batch(&refs, 3, None);
        let probe = ProbeConfig {
            probe_words: session.dim().div_ceil(64),
            probe_factor: 2,
            exact_threshold: 0,
        };
        let pruned = session.search_topk_batch(&refs, 3, Some(&probe));
        assert_eq!(exact, pruned);
    }

    #[test]
    fn topk_session_pruned_full_width_matches_exact_nonbinary() {
        let (enc, memory, rows) = setup(ModelKind::NonBinary, 1030);
        let session = InferenceSession::new(&enc, &memory);
        let refs: Vec<&[u16]> = rows.iter().map(Vec::as_slice).collect();
        let exact = session.search_topk_batch(&refs, 3, None);
        let probe = ProbeConfig {
            probe_words: session.dim().div_ceil(64),
            probe_factor: 2,
            exact_threshold: 0,
        };
        let pruned = session.search_topk_batch(&refs, 3, Some(&probe));
        assert_eq!(exact, pruned);
    }

    #[test]
    fn topk_session_narrow_probe_nonbinary_returns_exact_scores() {
        // A narrow int probe routes through the quantized coarse pass;
        // whatever it returns must carry exact cosine scores.
        let (enc, memory, rows) = setup(ModelKind::NonBinary, 2048);
        let session = InferenceSession::new(&enc, &memory);
        let refs: Vec<&[u16]> = rows.iter().map(Vec::as_slice).collect();
        let probe = ProbeConfig {
            probe_words: 1,
            probe_factor: 1,
            exact_threshold: 0,
        };
        let hits = session.search_topk_batch(&refs, 2, Some(&probe));
        let full = session.scores_batch(&refs);
        for q in 0..refs.len() {
            for m in hits.matches(q) {
                assert_eq!(m.score.to_bits(), full.scores(q)[m.row].to_bits(), "q {q}");
            }
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let (enc, memory, _) = setup(ModelKind::Binary, 128);
        let session = InferenceSession::new(&enc, &memory);
        assert!(session.classify_batch(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "does not match class memory dimension")]
    fn dimension_disagreement_panics() {
        let mut rng = HvRng::from_seed(1);
        let enc = RecordEncoder::generate(&mut rng, 4, 4, 128).unwrap();
        let memory = ClassMemory::new(ModelKind::Binary, 2, 256);
        let _ = InferenceSession::new(&enc, &memory);
    }

    #[test]
    #[should_panic(expected = "non-binary session needs integer class rows")]
    fn from_packed_rejects_missing_int_rows() {
        let (enc, memory, _) = setup(ModelKind::Binary, 128);
        // A binary memory's packed snapshot carries no integer rows.
        let sharded = memory.to_sharded();
        let _ = OwnedSession::from_packed(enc, ModelKind::NonBinary, sharded);
    }
}
