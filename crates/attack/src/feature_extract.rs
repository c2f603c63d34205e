//! Step 2 of the reasoning attack: recovering the feature-hypervector
//! mapping with divide-and-conquer (paper Sec. 3.2, Eq. 7/8).
//!
//! For feature `i` the attacker crafts an input whose `i`-th value is
//! maximal and all others minimal. The observed output is
//! `H_i = sign(S·ValHV_1 + FeaHV_i·(ValHV_M − ValHV_1))` where
//! `S = Σ FeaHV_j` is **order-invariant**, hence computable from the
//! unindexed dump. Each candidate row `n` predicts
//! `H'_n = sign(S·ValHV_1 + pool_n·(ValHV_M − ValHV_1))` (Eq. 8
//! rewritten); the candidate with the smallest Hamming distance to the
//! observation is the mapping for feature `i`. `N` features × ≤ `N`
//! candidates ⇒ `O(N²)` guesses.
//!
//! ## Implementation note (exactness-preserving speedup)
//!
//! `H'_n` differs from the candidate-independent baseline
//! `sign(S·ValHV_1)` only on dimensions where `ValHV_1 ≠ ValHV_M` *and*
//! `|S·ValHV_1| ≤ 2` — a few percent of `D`. Distances are therefore
//! evaluated on that index set `J` only, plus a candidate-independent
//! remainder, which is bit-exact with the naive evaluation (verified by
//! `naive_candidate_distance` in the tests) while turning the `O(N²·D)`
//! scan into `O(N·D + N²·|J|)`.

use std::time::Instant;

use hdc_model::ModelKind;
use hypervec::{par, BinaryHv, IntHv};

use crate::error::AttackError;
use crate::memory_dump::StandardDump;
use crate::oracle::{probe_row, EncodingOracle};
use crate::timing::AttackStats;
use crate::value_extract::ValueMapping;

/// Recovered feature mapping: `assignment[feature] = dump row`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeatureMapping {
    /// Dump row assigned to each feature index.
    pub assignment: Vec<usize>,
    /// Cost accounting for this phase.
    pub stats: AttackStats,
}

/// Precomputed attack state shared across all `N` per-feature probes.
#[derive(Debug)]
pub struct FeatureAttackContext {
    /// `ValHV_1` (recovered minimum-level hypervector).
    v1: BinaryHv,
    /// `ValHV_M` (recovered maximum-level hypervector).
    vmax: BinaryHv,
    /// `T = S · ValHV_1`, the baseline encoding argument.
    t: IntHv,
    /// `sign(T)`: the candidate-independent part of every prediction.
    base_sign: BinaryHv,
    /// Dimensions where predictions depend on the candidate.
    j_dims: Vec<u32>,
    /// `T_d` for each `d ∈ J` (fits i8 by construction).
    j_t: Vec<i8>,
}

impl FeatureAttackContext {
    /// Builds the shared state from the dump and the recovered value
    /// mapping.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::TooFewValues`] when the value mapping is
    /// degenerate.
    pub fn new(dump: &StandardDump, values: &ValueMapping) -> Result<Self, AttackError> {
        if values.order.len() < 2 {
            return Err(AttackError::TooFewValues {
                found: values.order.len(),
            });
        }
        let v1 = dump
            .value_pool
            .get(values.order[0])
            .expect("value row in range")
            .clone();
        let vmax = dump
            .value_pool
            .get(*values.order.last().expect("non-empty order"))
            .expect("value row in range")
            .clone();
        let s = dump
            .feature_pool
            .sum()
            .map_err(|_| AttackError::ShapeMismatch {
                what: "empty feature pool",
            })?;
        let t = s.bind_binary(&v1);
        let base_sign = t.sign_ties_positive();
        let mut j_dims = Vec::new();
        let mut j_t = Vec::new();
        for d in 0..t.dim() {
            if v1.polarity(d) != vmax.polarity(d) && t.get(d).abs() <= 2 {
                j_dims.push(d as u32);
                j_t.push(t.get(d) as i8);
            }
        }
        Ok(FeatureAttackContext {
            v1,
            vmax,
            t,
            base_sign,
            j_dims,
            j_t,
        })
    }

    /// Number of candidate-dependent dimensions `|J|`.
    #[must_use]
    pub fn sensitive_dims(&self) -> usize {
        self.j_dims.len()
    }

    /// Hamming distance between candidate `row`'s predicted output and
    /// the observed output `h`, for a binary-model probe on any feature.
    ///
    /// Bit-exact with `sign(S·v1 + pool_row·(vM − v1))` vs `h`.
    #[must_use]
    pub fn candidate_distance_binary(
        &self,
        dump: &StandardDump,
        h: &BinaryHv,
        row: usize,
    ) -> usize {
        let constant = self.base_mismatch_off_j(h);
        constant + self.j_mismatch(dump, h, row)
    }

    /// Mismatches of the candidate-independent baseline outside `J`.
    fn base_mismatch_off_j(&self, h: &BinaryHv) -> usize {
        let total = self.base_sign.hamming(h);
        let on_j = self
            .j_dims
            .iter()
            .filter(|&&d| self.base_sign.polarity(d as usize) != h.polarity(d as usize))
            .count();
        total - on_j
    }

    /// Mismatches on `J` for candidate `row`.
    fn j_mismatch(&self, dump: &StandardDump, h: &BinaryHv, row: usize) -> usize {
        let cand = dump.feature_pool.get(row).expect("candidate row in range");
        let mut mis = 0usize;
        for (idx, &d) in self.j_dims.iter().enumerate() {
            let d = d as usize;
            // u_d = vM_d − v1_d = 2·vM_d on J (endpoints differ there)
            let arg = i32::from(self.j_t[idx])
                + 2 * i32::from(cand.polarity(d)) * i32::from(self.vmax.polarity(d));
            let predicted: i8 = if arg < 0 { -1 } else { 1 };
            if predicted != h.polarity(d) {
                mis += 1;
            }
        }
        mis
    }

    /// Reference implementation of the candidate distance: materializes
    /// the full Eq. 8 prediction. Used to validate the fast path.
    #[must_use]
    pub fn naive_candidate_distance(&self, dump: &StandardDump, h: &BinaryHv, row: usize) -> usize {
        let cand = dump.feature_pool.get(row).expect("candidate row in range");
        let mut acc = self.t.clone();
        // add cand · (vM − v1)
        let bound_max = cand.bind(&self.vmax);
        let bound_min = cand.bind(&self.v1);
        acc.add_binary(&bound_max);
        acc.sub_binary(&bound_min);
        acc.sign_ties_positive().hamming(h)
    }

    /// Exact-match distance profile for a non-binary probe: per
    /// candidate, the number of mismatching dimensions between the
    /// predicted and observed integer encodings on the endpoint-
    /// difference support, stopping at `early_exit` mismatches
    /// (0 = never stop).
    #[must_use]
    pub fn candidate_mismatch_int(
        &self,
        dump: &StandardDump,
        h: &IntHv,
        row: usize,
        early_exit: usize,
    ) -> usize {
        let cand = dump.feature_pool.get(row).expect("candidate row in range");
        let mut mis = 0usize;
        for d in 0..h.dim() {
            if self.v1.polarity(d) == self.vmax.polarity(d) {
                continue;
            }
            let predicted =
                self.t.get(d) + 2 * i32::from(cand.polarity(d)) * i32::from(self.vmax.polarity(d));
            if predicted != h.get(d) {
                mis += 1;
                if early_exit != 0 && mis >= early_exit {
                    return mis;
                }
            }
        }
        mis
    }
}

/// Options for feature extraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeatureExtractOptions {
    /// Skip candidates already assigned to earlier features (halves the
    /// guess count; the paper's independent-task framing permits either).
    pub restrict_to_unassigned: bool,
}

impl Default for FeatureExtractOptions {
    fn default() -> Self {
        FeatureExtractOptions {
            restrict_to_unassigned: true,
        }
    }
}

/// Runs divide-and-conquer feature extraction for every feature.
///
/// # Errors
///
/// Returns [`AttackError::AmbiguousAssignment`] if two features resolve
/// to one row (cannot happen when `restrict_to_unassigned` is set), or
/// shape errors from context construction.
pub fn extract_features(
    oracle: &dyn EncodingOracle,
    dump: &StandardDump,
    values: &ValueMapping,
    kind: ModelKind,
    options: FeatureExtractOptions,
) -> Result<FeatureMapping, AttackError> {
    let start = Instant::now();
    let ctx = FeatureAttackContext::new(dump, values)?;
    let n = oracle.n_features();
    let m = oracle.m_levels();
    let mut assignment = vec![usize::MAX; n];
    let mut used = vec![false; dump.n_features()];
    let mut guesses = 0u64;
    let mut oracle_queries = 0u64;

    // The N probe inputs are known upfront (they do not depend on earlier
    // assignments), so all observations flow through the oracle's
    // word-parallel batch path in one shot — against a deployed victim
    // ([`crate::SessionOracle`]) that is the same fused pipeline the
    // serving layer runs. Cost accounting is unchanged: a batch of N
    // rows is N queries.
    let probe_rows: Vec<Vec<u16>> = (0..n).map(|feature| probe_row(n, m, feature)).collect();
    let probe_refs: Vec<&[u16]> = probe_rows.iter().map(Vec::as_slice).collect();
    let (observed_binary, observed_int) = match kind {
        ModelKind::Binary => (oracle.query_binary_batch(&probe_refs), Vec::new()),
        ModelKind::NonBinary => (Vec::new(), oracle.query_int_batch(&probe_refs)),
    };
    oracle_queries += n as u64;

    for feature in 0..n {
        let candidates: Vec<usize> = (0..dump.n_features())
            .filter(|&r| !(options.restrict_to_unassigned && used[r]))
            .collect();
        guesses += candidates.len() as u64;
        // Candidate scoring fans out across worker threads; each chunk
        // returns its local minimum and the final min is taken inline.
        let scored: Vec<(usize, usize)> = match kind {
            ModelKind::Binary => {
                let h = &observed_binary[feature];
                par::par_chunk_map(candidates.len(), 16, |range| {
                    range
                        .map(|ci| {
                            let r = candidates[ci];
                            (ctx.candidate_distance_binary(dump, h, r), r)
                        })
                        .min()
                        .into_iter()
                        .collect()
                })
            }
            ModelKind::NonBinary => {
                let h = &observed_int[feature];
                par::par_chunk_map(candidates.len(), 16, |range| {
                    range
                        .map(|ci| {
                            let r = candidates[ci];
                            (ctx.candidate_mismatch_int(dump, h, r, 8), r)
                        })
                        .min()
                        .into_iter()
                        .collect()
                })
            }
        };
        let best: Option<(usize, usize)> = scored.into_iter().min().map(|(d, r)| (r, d));
        let (best_row, _) = best.ok_or(AttackError::NoCandidateLeft { feature })?;
        if used[best_row] {
            return Err(AttackError::AmbiguousAssignment {
                feature,
                row: best_row,
            });
        }
        used[best_row] = true;
        assignment[feature] = best_row;
    }

    Ok(FeatureMapping {
        assignment,
        stats: AttackStats {
            guesses,
            oracle_queries,
            elapsed: start.elapsed(),
        },
    })
}

/// Full guess-distance profile for one feature (normalized Hamming
/// distance per candidate row) — the data behind paper Fig. 3.
///
/// # Errors
///
/// Propagates context construction errors.
pub fn guess_profile(
    oracle: &dyn EncodingOracle,
    dump: &StandardDump,
    values: &ValueMapping,
    kind: ModelKind,
    feature: usize,
) -> Result<Vec<f64>, AttackError> {
    let ctx = FeatureAttackContext::new(dump, values)?;
    let row = probe_row(oracle.n_features(), oracle.m_levels(), feature);
    let d = oracle.dim() as f64;
    let profile = match kind {
        ModelKind::Binary => {
            let h = oracle.query_binary(&row);
            par::par_chunk_map(dump.n_features(), 16, |range| {
                range
                    .map(|r| ctx.candidate_distance_binary(dump, &h, r) as f64 / d)
                    .collect()
            })
        }
        ModelKind::NonBinary => {
            let h = oracle.query_int(&row);
            par::par_chunk_map(dump.n_features(), 16, |range| {
                range
                    .map(|r| ctx.candidate_mismatch_int(dump, &h, r, 0) as f64 / d)
                    .collect()
            })
        }
    };
    Ok(profile)
}

/// Fraction of features mapped to their true dump row. Test/harness
/// helper judged against hidden ground truth.
#[must_use]
pub fn feature_mapping_accuracy(mapping: &FeatureMapping, feature_perm: &[usize]) -> f64 {
    let correct = mapping
        .assignment
        .iter()
        .enumerate()
        .filter(|&(feature, &row)| feature_perm[row] == feature)
        .count();
    correct as f64 / mapping.assignment.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory_dump::{DumpGroundTruth, StandardDump};
    use crate::oracle::CountingOracle;
    use crate::value_extract::extract_values;
    use hdc_model::RecordEncoder;
    use hypervec::HvRng;

    fn setup(
        seed: u64,
        n: usize,
        m: usize,
        d: usize,
    ) -> (RecordEncoder, StandardDump, DumpGroundTruth) {
        let mut rng = HvRng::from_seed(seed);
        let enc = RecordEncoder::generate(&mut rng, n, m, d).unwrap();
        let (dump, truth) = StandardDump::from_encoder(&enc, &mut rng);
        (enc, dump, truth)
    }

    #[test]
    fn recovers_feature_mapping_binary_odd_n() {
        let (enc, dump, truth) = setup(1, 21, 4, 4096);
        let oracle = CountingOracle::new(&enc);
        let values = extract_values(&oracle, &dump, ModelKind::Binary).unwrap();
        let features = extract_features(
            &oracle,
            &dump,
            &values,
            ModelKind::Binary,
            FeatureExtractOptions::default(),
        )
        .unwrap();
        assert_eq!(
            feature_mapping_accuracy(&features, &truth.feature_perm),
            1.0
        );
    }

    #[test]
    fn recovers_feature_mapping_binary_even_n() {
        let (enc, dump, truth) = setup(2, 32, 4, 4096);
        let oracle = CountingOracle::new(&enc);
        let values = extract_values(&oracle, &dump, ModelKind::Binary).unwrap();
        let features = extract_features(
            &oracle,
            &dump,
            &values,
            ModelKind::Binary,
            FeatureExtractOptions::default(),
        )
        .unwrap();
        assert_eq!(
            feature_mapping_accuracy(&features, &truth.feature_perm),
            1.0
        );
    }

    #[test]
    fn recovers_feature_mapping_nonbinary() {
        let (enc, dump, truth) = setup(3, 24, 6, 2048);
        let oracle = CountingOracle::new(&enc);
        let values = extract_values(&oracle, &dump, ModelKind::NonBinary).unwrap();
        let features = extract_features(
            &oracle,
            &dump,
            &values,
            ModelKind::NonBinary,
            FeatureExtractOptions::default(),
        )
        .unwrap();
        assert_eq!(
            feature_mapping_accuracy(&features, &truth.feature_perm),
            1.0
        );
    }

    #[test]
    fn correct_candidate_has_distance_zero() {
        let (enc, dump, truth) = setup(4, 17, 4, 2048);
        let oracle = CountingOracle::new(&enc);
        let values = extract_values(&oracle, &dump, ModelKind::Binary).unwrap();
        let ctx = FeatureAttackContext::new(&dump, &values).unwrap();
        // probe feature 5; its true dump row is the row holding FeaHV_5
        let h = oracle.query_binary(&probe_row(17, 4, 5));
        let true_row = truth
            .feature_perm
            .iter()
            .position(|&orig| orig == 5)
            .unwrap();
        assert_eq!(ctx.candidate_distance_binary(&dump, &h, true_row), 0);
    }

    #[test]
    fn fast_path_matches_naive_evaluation() {
        let (enc, dump, _) = setup(5, 12, 4, 1024);
        let oracle = CountingOracle::new(&enc);
        let values = extract_values(&oracle, &dump, ModelKind::Binary).unwrap();
        let ctx = FeatureAttackContext::new(&dump, &values).unwrap();
        let h = oracle.query_binary(&probe_row(12, 4, 3));
        for r in 0..12 {
            assert_eq!(
                ctx.candidate_distance_binary(&dump, &h, r),
                ctx.naive_candidate_distance(&dump, &h, r),
                "candidate {r}"
            );
        }
    }

    #[test]
    fn profile_separates_correct_guess() {
        let (enc, dump, truth) = setup(6, 30, 4, 10_000);
        let oracle = CountingOracle::new(&enc);
        let values = extract_values(&oracle, &dump, ModelKind::Binary).unwrap();
        let profile = guess_profile(&oracle, &dump, &values, ModelKind::Binary, 0).unwrap();
        let true_row = truth
            .feature_perm
            .iter()
            .position(|&orig| orig == 0)
            .unwrap();
        for (r, &dist) in profile.iter().enumerate() {
            if r == true_row {
                assert_eq!(dist, 0.0, "correct guess must be exact");
            } else {
                assert!(dist > 0.001, "wrong guess {r} too close: {dist}");
            }
        }
    }

    #[test]
    fn extraction_through_deployed_session_is_identical() {
        use crate::oracle::SessionOracle;
        use hdc_model::{ClassMemory, OwnedSession};

        let (enc, dump, truth) = setup(8, 15, 4, 2048);
        let memory = ClassMemory::new(ModelKind::Binary, 2, 2048);
        let session = OwnedSession::new(&enc, &memory);
        let deployed = SessionOracle::new(&session);
        let direct = CountingOracle::new(&enc);

        let values_s = extract_values(&deployed, &dump, ModelKind::Binary).unwrap();
        let values_d = extract_values(&direct, &dump, ModelKind::Binary).unwrap();
        assert_eq!(values_s.order, values_d.order);
        let features_s = extract_features(
            &deployed,
            &dump,
            &values_s,
            ModelKind::Binary,
            FeatureExtractOptions::default(),
        )
        .unwrap();
        let features_d = extract_features(
            &direct,
            &dump,
            &values_d,
            ModelKind::Binary,
            FeatureExtractOptions::default(),
        )
        .unwrap();
        assert_eq!(features_s.assignment, features_d.assignment);
        assert_eq!(features_s.stats.guesses, features_d.stats.guesses);
        assert_eq!(
            features_s.stats.oracle_queries,
            features_d.stats.oracle_queries
        );
        assert_eq!(deployed.queries(), direct.queries());
        assert_eq!(
            feature_mapping_accuracy(&features_s, &truth.feature_perm),
            1.0
        );
    }

    #[test]
    fn guess_count_matches_divide_and_conquer() {
        let (enc, dump, _) = setup(7, 10, 4, 1024);
        let oracle = CountingOracle::new(&enc);
        let values = extract_values(&oracle, &dump, ModelKind::Binary).unwrap();
        let features = extract_features(
            &oracle,
            &dump,
            &values,
            ModelKind::Binary,
            FeatureExtractOptions {
                restrict_to_unassigned: false,
            },
        )
        .unwrap();
        // N candidates for each of N features
        assert_eq!(features.stats.guesses, 100);
        let values2 = extract_values(&oracle, &dump, ModelKind::Binary).unwrap();
        let restricted = extract_features(
            &oracle,
            &dump,
            &values2,
            ModelKind::Binary,
            FeatureExtractOptions::default(),
        )
        .unwrap();
        // N + (N−1) + … + 1
        assert_eq!(restricted.stats.guesses, 55);
    }
}
