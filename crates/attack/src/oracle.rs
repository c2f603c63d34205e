//! The attacker's query interface to a victim encoding module.
//!
//! The paper's threat model (Sec. 3.1) lets the adversary "craft his/her
//! own inputs and observe the encoding outputs". [`EncodingOracle`]
//! models exactly that channel; [`CountingOracle`] wraps any encoder and
//! audits how many queries an attack consumed. [`SessionOracle`] wraps a
//! *deployed* [`OwnedSession`] instead — a registry generation's
//! `ServingSession` as production serves it, or a session over a
//! borrowed encoder — so the attacker drives the same fused
//! encode→search pipeline that serves production traffic, and measured
//! attack cost and served throughput describe one code path, with
//! identical per-row accounting.

use std::sync::atomic::{AtomicU64, Ordering};

use hdc_model::{ClassifySession, Encoder, OwnedSession};
use hypervec::{BinaryHv, IntHv};

/// Chosen-input access to a victim encoder's outputs.
pub trait EncodingOracle {
    /// Number of input features `N` (public: input width is observable).
    fn n_features(&self) -> usize;

    /// Number of value levels `M` (public: quantizer range is observable).
    fn m_levels(&self) -> usize;

    /// Hypervector dimensionality `D`.
    fn dim(&self) -> usize;

    /// Observes the binary encoding of a chosen input (binary models).
    fn query_binary(&self, levels: &[u16]) -> BinaryHv;

    /// Observes the non-binarized encoding of a chosen input
    /// (non-binary models).
    fn query_int(&self, levels: &[u16]) -> IntHv;

    /// Observes the binary encodings of a batch of chosen inputs.
    ///
    /// Cost accounting is unchanged — a batch of `k` rows is `k` oracle
    /// queries — but implementations backed by a real encoder forward to
    /// its word-parallel batch path, which is what lets attack harnesses
    /// drive encode+compare oracle calls at full throughput.
    fn query_binary_batch(&self, rows: &[&[u16]]) -> Vec<BinaryHv> {
        rows.iter().map(|row| self.query_binary(row)).collect()
    }

    /// Observes the non-binarized encodings of a batch of chosen inputs;
    /// the non-binary sibling of [`EncodingOracle::query_binary_batch`].
    fn query_int_batch(&self, rows: &[&[u16]]) -> Vec<IntHv> {
        rows.iter().map(|row| self.query_int(row)).collect()
    }
}

/// Wraps an [`Encoder`] as an oracle, counting queries.
///
/// # Examples
///
/// ```
/// use hdc_attack::{CountingOracle, EncodingOracle};
/// use hdc_model::RecordEncoder;
/// use hypervec::HvRng;
///
/// let mut rng = HvRng::from_seed(0);
/// let enc = RecordEncoder::generate(&mut rng, 8, 4, 512)?;
/// let oracle = CountingOracle::new(&enc);
/// let _ = oracle.query_binary(&vec![0u16; 8]);
/// assert_eq!(oracle.queries(), 1);
/// # Ok::<(), hypervec::HvError>(())
/// ```
#[derive(Debug)]
pub struct CountingOracle<'a, E> {
    encoder: &'a E,
    queries: AtomicU64,
}

impl<'a, E: Encoder> CountingOracle<'a, E> {
    /// Wraps a victim encoder.
    #[must_use]
    pub fn new(encoder: &'a E) -> Self {
        CountingOracle {
            encoder,
            queries: AtomicU64::new(0),
        }
    }

    /// Total queries observed so far.
    #[must_use]
    pub fn queries(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }
}

impl<E: Encoder + Sync> EncodingOracle for CountingOracle<'_, E> {
    fn n_features(&self) -> usize {
        self.encoder.n_features()
    }

    fn m_levels(&self) -> usize {
        self.encoder.m_levels()
    }

    fn dim(&self) -> usize {
        self.encoder.dim()
    }

    fn query_binary(&self, levels: &[u16]) -> BinaryHv {
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.encoder.encode_binary(levels)
    }

    fn query_int(&self, levels: &[u16]) -> IntHv {
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.encoder.encode_int(levels)
    }

    fn query_binary_batch(&self, rows: &[&[u16]]) -> Vec<BinaryHv> {
        self.queries.fetch_add(rows.len() as u64, Ordering::Relaxed);
        self.encoder.encode_batch_binary(rows)
    }

    fn query_int_batch(&self, rows: &[&[u16]]) -> Vec<IntHv> {
        self.queries.fetch_add(rows.len() as u64, Ordering::Relaxed);
        self.encoder.encode_batch_int(rows)
    }
}

/// The attacker's chosen-input channel into a *deployed* model: an
/// [`EncodingOracle`] backed by the serving pipeline's
/// [`OwnedSession`] rather than a bare encoder reference. `E` is the
/// session's encoder handle: `AnyEncoder` for a registry generation's
/// `ServingSession`, `&E` for a session over a borrowed encoder.
///
/// Encoding queries forward to the session's encoder (the paper's
/// Sec. 3.1 observation channel) and decision queries
/// ([`SessionOracle::classify_batch`]) run the fused encode→search
/// path; both count one query per row, exactly like
/// [`CountingOracle`], so attack-cost accounting is unchanged by the
/// serving refactor.
#[derive(Debug)]
pub struct SessionOracle<'a, E> {
    session: &'a OwnedSession<E>,
    queries: AtomicU64,
}

impl<'a, E: Encoder + Sync> SessionOracle<'a, E> {
    /// Wraps a deployed inference session.
    #[must_use]
    pub fn new(session: &'a OwnedSession<E>) -> Self {
        SessionOracle {
            session,
            queries: AtomicU64::new(0),
        }
    }

    /// Total queries observed so far (encoding + decision).
    #[must_use]
    pub fn queries(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }

    /// Black-box *decision* access: top-1 class per chosen input,
    /// through the deployed fused batch path. A batch of `k` rows is
    /// `k` oracle queries.
    ///
    /// # Panics
    ///
    /// Panics if any row's width does not match the deployed encoder.
    #[must_use]
    pub fn classify_batch(&self, rows: &[&[u16]]) -> Vec<usize> {
        self.queries.fetch_add(rows.len() as u64, Ordering::Relaxed);
        self.session.classify_batch(rows)
    }
}

impl<E: Encoder + Sync> EncodingOracle for SessionOracle<'_, E> {
    fn n_features(&self) -> usize {
        self.session.n_features()
    }

    fn m_levels(&self) -> usize {
        self.session.m_levels()
    }

    fn dim(&self) -> usize {
        self.session.dim()
    }

    fn query_binary(&self, levels: &[u16]) -> BinaryHv {
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.session.encoder().encode_binary(levels)
    }

    fn query_int(&self, levels: &[u16]) -> IntHv {
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.session.encoder().encode_int(levels)
    }

    fn query_binary_batch(&self, rows: &[&[u16]]) -> Vec<BinaryHv> {
        self.queries.fetch_add(rows.len() as u64, Ordering::Relaxed);
        self.session.encoder().encode_batch_binary(rows)
    }

    fn query_int_batch(&self, rows: &[&[u16]]) -> Vec<IntHv> {
        self.queries.fetch_add(rows.len() as u64, Ordering::Relaxed);
        self.session.encoder().encode_batch_int(rows)
    }
}

/// Builds the adversarial probe input of paper Eq. 7: every feature at
/// the minimum level except `hot_feature` at the maximum.
///
/// # Panics
///
/// Panics if `hot_feature >= n_features` or `m_levels == 0`.
#[must_use]
pub fn probe_row(n_features: usize, m_levels: usize, hot_feature: usize) -> Vec<u16> {
    assert!(hot_feature < n_features, "hot feature out of range");
    assert!(m_levels > 0, "need at least one level");
    let mut row = vec![0u16; n_features];
    row[hot_feature] = (m_levels - 1) as u16;
    row
}

/// Builds the all-minimum probe input of paper Eq. 5.
#[must_use]
pub fn all_min_row(n_features: usize) -> Vec<u16> {
    vec![0u16; n_features]
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc_model::RecordEncoder;
    use hypervec::HvRng;

    #[test]
    fn counting_oracle_counts_both_kinds() {
        let mut rng = HvRng::from_seed(1);
        let enc = RecordEncoder::generate(&mut rng, 6, 4, 256).unwrap();
        let oracle = CountingOracle::new(&enc);
        let row = all_min_row(6);
        let _ = oracle.query_binary(&row);
        let _ = oracle.query_int(&row);
        let _ = oracle.query_binary(&row);
        assert_eq!(oracle.queries(), 3);
        assert_eq!(oracle.n_features(), 6);
        assert_eq!(oracle.m_levels(), 4);
        assert_eq!(oracle.dim(), 256);
    }

    #[test]
    fn oracle_matches_encoder_exactly() {
        let mut rng = HvRng::from_seed(2);
        let enc = RecordEncoder::generate(&mut rng, 6, 4, 256).unwrap();
        let oracle = CountingOracle::new(&enc);
        let row = probe_row(6, 4, 2);
        assert_eq!(oracle.query_binary(&row), enc.encode_binary(&row));
        assert_eq!(oracle.query_int(&row), enc.encode_int(&row));
    }

    #[test]
    fn batch_queries_count_per_row_and_match_singles() {
        let mut rng = HvRng::from_seed(3);
        let enc = RecordEncoder::generate(&mut rng, 6, 4, 256).unwrap();
        let oracle = CountingOracle::new(&enc);
        let rows: Vec<Vec<u16>> = (0..5).map(|f| probe_row(6, 4, f)).collect();
        let refs: Vec<&[u16]> = rows.iter().map(Vec::as_slice).collect();
        let batch = oracle.query_binary_batch(&refs);
        assert_eq!(oracle.queries(), 5, "a batch of k rows costs k queries");
        for (i, row) in refs.iter().enumerate() {
            assert_eq!(batch[i], enc.encode_binary(row));
        }
        let batch_int = oracle.query_int_batch(&refs);
        assert_eq!(oracle.queries(), 10);
        assert_eq!(batch_int[2], enc.encode_int(refs[2]));
    }

    #[test]
    fn session_oracle_matches_counting_oracle_and_accounting() {
        use hdc_model::{ClassMemory, ModelKind};

        let mut rng = HvRng::from_seed(4);
        let enc = RecordEncoder::generate(&mut rng, 6, 4, 256).unwrap();
        let mut memory = ClassMemory::new(ModelKind::Binary, 2, 256);
        memory.acc_mut(0).add(&enc.encode_binary(&all_min_row(6)));
        memory
            .acc_mut(1)
            .add(&enc.encode_binary(&probe_row(6, 4, 2)));
        memory.rebinarize();
        let session = OwnedSession::new(&enc, &memory);
        let deployed = SessionOracle::new(&session);
        let reference = CountingOracle::new(&enc);

        let rows: Vec<Vec<u16>> = (0..5).map(|f| probe_row(6, 4, f)).collect();
        let refs: Vec<&[u16]> = rows.iter().map(Vec::as_slice).collect();
        assert_eq!(
            deployed.query_binary_batch(&refs),
            reference.query_binary_batch(&refs)
        );
        assert_eq!(deployed.query_int(&rows[0]), reference.query_int(&rows[0]));
        assert_eq!(deployed.queries(), reference.queries());
        assert_eq!(deployed.queries(), 6);

        // Decision access runs the deployed fused path and counts rows.
        let labels = deployed.classify_batch(&refs);
        assert_eq!(labels.len(), 5);
        assert_eq!(deployed.queries(), 11);
        assert_eq!(deployed.n_features(), 6);
        assert_eq!(deployed.m_levels(), 4);
        assert_eq!(deployed.dim(), 256);
    }

    #[test]
    fn probe_rows_have_expected_shape() {
        let row = probe_row(5, 8, 3);
        assert_eq!(row, vec![0, 0, 0, 7, 0]);
        assert_eq!(all_min_row(3), vec![0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "hot feature out of range")]
    fn probe_row_bounds_checked() {
        let _ = probe_row(4, 8, 4);
    }
}
