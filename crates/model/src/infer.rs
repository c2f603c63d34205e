//! Inference: similarity comparison against class hypervectors.
//!
//! A query is encoded with the same encoder used at training time, then
//! compared against every class hypervector — Hamming distance for
//! binary models, cosine for non-binary models (paper Sec. 2).
//!
//! Every serving path searches the memory's packed class rows:
//! [`classify`] for one row, and for throughput [`OwnedSession`], whose
//! fused batch `encode_batch_* → search_batch_*` kernels run over the
//! same planes. The per-row scans in this module ([`classify_binary_hv`],
//! [`classify_int_hv`], [`class_scores`]) are the scalar *reference* the
//! packed kernels must stay bit-identical to (and the baseline the
//! search benchmark measures against). They never read the packed
//! planes: binary scans take the sign rows
//! [`ClassMemory::binary_rows`] computes from the accumulators, and
//! integer scans read the accumulators.

use hdc_datasets::QuantizedDataset;
use hypervec::{BinaryHv, IntHv};

use crate::classhv::ClassMemory;
use crate::config::ModelKind;
use crate::encoder::Encoder;
use crate::metrics::EvalResult;
use crate::session::OwnedSession;

/// Classifies an already-encoded binary query: the index of the class
/// row (from [`ClassMemory::binary_rows`]) with the smallest Hamming
/// distance.
///
/// Scalar reference scan — the batch path is
/// [`ClassifySession::classify_batch`](crate::ClassifySession::classify_batch),
/// which is bit-identical.
///
/// # Panics
///
/// Panics if dimensions disagree.
#[must_use]
pub fn classify_binary_hv(rows: &[BinaryHv], query: &BinaryHv) -> usize {
    let mut best = (0usize, usize::MAX);
    for (j, row) in rows.iter().enumerate() {
        let d = row.hamming(query);
        if d < best.1 {
            best = (j, d);
        }
    }
    best.0
}

/// Classifies an already-encoded integer query: the class whose
/// accumulator has the largest cosine similarity.
///
/// Scalar reference scan — the batch path is
/// [`ClassifySession::classify_batch`](crate::ClassifySession::classify_batch),
/// which is bit-identical.
///
/// # Panics
///
/// Panics if dimensions disagree.
#[must_use]
pub fn classify_int_hv(memory: &ClassMemory, query: &IntHv) -> usize {
    let mut best = (0usize, f64::NEG_INFINITY);
    for j in 0..memory.n_classes() {
        let s = memory.class_int(j).cosine(query);
        if s > best.1 {
            best = (j, s);
        }
    }
    best.0
}

/// Encodes and classifies one quantized feature row by searching the
/// memory's packed class rows — bit-identical to the per-row scans.
///
/// # Panics
///
/// Panics if the row width does not match the encoder, or the encoder
/// and memory disagree on dimension.
#[must_use]
pub fn classify<E: Encoder>(encoder: &E, memory: &ClassMemory, levels: &[u16]) -> usize {
    let packed = memory.packed();
    let found = match memory.kind() {
        ModelKind::Binary => packed
            .search_binary(&encoder.encode_binary(levels))
            .map(|(row, _)| row),
        ModelKind::NonBinary => packed
            .search_int(&encoder.encode_int(levels))
            .map(|(row, _)| row),
    };
    found.expect("encoder and class memory share one dimension")
}

/// Per-class similarity scores for one query (exposed so callers can
/// inspect margins, not just the argmax — C-INTERMEDIATE).
///
/// Higher is always more similar; for binary models the score is the
/// bipolar cosine `1 − 2·hamming/D`. Scalar reference, like the
/// per-row scans.
#[must_use]
pub fn class_scores<E: Encoder>(encoder: &E, memory: &ClassMemory, levels: &[u16]) -> Vec<f64> {
    match memory.kind() {
        ModelKind::Binary => {
            let q = encoder.encode_binary(levels);
            memory
                .binary_rows()
                .iter()
                .map(|row| row.cosine(&q))
                .collect()
        }
        ModelKind::NonBinary => {
            let q = encoder.encode_int(levels);
            (0..memory.n_classes())
                .map(|j| memory.class_int(j).cosine(&q))
                .collect()
        }
    }
}

/// Evaluates a trained model over a quantized dataset by building a
/// one-shot [`OwnedSession`] over the borrowed encoder and streaming
/// the data through its fused batch `encode → search` path. Callers
/// evaluating repeatedly against the same memory should build (and
/// reuse) the session themselves to amortize copying the packed rows.
///
/// # Panics
///
/// Panics if the dataset width does not match the encoder.
#[must_use]
pub fn evaluate<E: Encoder + Sync>(
    encoder: &E,
    memory: &ClassMemory,
    data: &QuantizedDataset,
) -> EvalResult {
    OwnedSession::new(encoder, memory).evaluate(data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::RecordEncoder;
    use hypervec::HvRng;

    #[test]
    fn classify_binary_picks_nearest() {
        let mut rng = HvRng::from_seed(1);
        let mut memory = ClassMemory::new(ModelKind::Binary, 3, 512);
        let protos: Vec<BinaryHv> = (0..3).map(|_| rng.binary_hv(512)).collect();
        for (j, p) in protos.iter().enumerate() {
            memory.acc_mut(j).add(p);
        }
        memory.rebinarize();
        let rows = memory.binary_rows();
        for (j, p) in protos.iter().enumerate() {
            assert_eq!(classify_binary_hv(&rows, p), j);
        }
    }

    #[test]
    fn classify_int_picks_most_similar() {
        let mut rng = HvRng::from_seed(2);
        let mut memory = ClassMemory::new(ModelKind::NonBinary, 2, 256);
        let a = rng.binary_hv(256);
        let b = rng.binary_hv(256);
        memory.acc_mut(0).add(&a);
        memory.acc_mut(1).add(&b);
        assert_eq!(classify_int_hv(&memory, &a.to_int()), 0);
        assert_eq!(classify_int_hv(&memory, &b.to_int()), 1);
    }

    #[test]
    fn class_scores_rank_matches_classify() {
        let mut rng = HvRng::from_seed(3);
        let enc = RecordEncoder::generate(&mut rng, 7, 4, 1024).unwrap();
        let mut memory = ClassMemory::new(ModelKind::Binary, 2, 1024);
        let row_a = vec![0u16; 7];
        let row_b = vec![3u16; 7];
        memory.acc_mut(0).add(&enc.encode_binary(&row_a));
        memory.acc_mut(1).add(&enc.encode_binary(&row_b));
        memory.rebinarize();
        let scores = class_scores(&enc, &memory, &row_a);
        assert!(scores[0] > scores[1]);
        assert_eq!(classify(&enc, &memory, &row_a), 0);
        assert_eq!(classify(&enc, &memory, &row_b), 1);
    }
}
