//! Attacking an HDLock-protected encoder (paper Sec. 4.2, Figs. 5/6).
//!
//! Per the paper's strong assumption, the attacker knows the full value
//! mapping and the public base pool; only the key of each feature —
//! `L` (base index, rotation) pairs — is unknown. Two chosen inputs
//! (all-minimum, and first-feature-maximum) isolate the target feature:
//! their outputs differ only where the first encoding term differs
//! (Eq. 11/12). Each key guess is scored by comparing
//! `H_attack = sign((ValHV_1 − ValHV_M) × Π ρ^{k_g}(B_g))` (Eq. 13)
//! against the observed difference, restricted to the differing index
//! set `I`.
//!
//! The punchline reproduced here: the criterion separates the correct
//! key *only when every parameter is right*, so the attacker must
//! search the full `(D·P)^L` product space per feature.

use std::time::Instant;

use hdc_model::ModelKind;
use hdlock::{derive_feature, BasePool, FeatureKey, LayerKey};
use hypervec::{par, LevelHvs};

use crate::error::AttackError;
use crate::oracle::{all_min_row, probe_row, EncodingOracle};
use crate::timing::AttackStats;

/// The attacker's distilled observation for one target feature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockProbe {
    /// Index set `I` where the two oracle outputs differ.
    indices: Vec<u32>,
    /// Observed difference sign on `I` (`(H¹_d − H^M_d)/2` for binary,
    /// `sign(H¹_d − H^M_d)` for non-binary).
    target: Vec<i8>,
    /// `ValHV_1` polarity on `I` (the attacker knows the value mapping).
    v1_on_i: Vec<i8>,
    /// Which model kind produced this probe.
    kind: ModelKind,
    /// Which feature the probe targets (plumbed into key-derivation
    /// errors so they name the real feature).
    feature: usize,
}

impl LockProbe {
    /// Captures a probe for `feature` with two oracle queries.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::ShapeMismatch`] if oracle and values
    /// disagree on dimension.
    pub fn capture(
        oracle: &dyn EncodingOracle,
        values: &LevelHvs,
        feature: usize,
        kind: ModelKind,
    ) -> Result<Self, AttackError> {
        if oracle.dim() != values.dim() {
            return Err(AttackError::ShapeMismatch {
                what: "oracle and values dimension differ",
            });
        }
        let n = oracle.n_features();
        let m = oracle.m_levels();
        let v1 = values.level(0);
        let (indices, target): (Vec<u32>, Vec<i8>) = match kind {
            ModelKind::Binary => {
                let h1 = oracle.query_binary(&all_min_row(n));
                let hm = oracle.query_binary(&probe_row(n, m, feature));
                (0..oracle.dim())
                    .filter(|&d| h1.polarity(d) != hm.polarity(d))
                    .map(|d| (d as u32, h1.polarity(d)))
                    .unzip()
            }
            ModelKind::NonBinary => {
                let h1 = oracle.query_int(&all_min_row(n));
                let hm = oracle.query_int(&probe_row(n, m, feature));
                (0..oracle.dim())
                    .filter(|&d| h1.get(d) != hm.get(d))
                    .map(|d| (d as u32, if h1.get(d) > hm.get(d) { 1i8 } else { -1i8 }))
                    .unzip()
            }
        };
        let v1_on_i = indices.iter().map(|&d| v1.polarity(d as usize)).collect();
        Ok(LockProbe {
            indices,
            target,
            v1_on_i,
            kind,
            feature,
        })
    }

    /// Captures probes for **every** feature with a single batched
    /// oracle call, routed through the victim's fused batch pipeline
    /// (the same path that serves traffic).
    ///
    /// The all-minimum observation is shared across features, so the
    /// whole sweep costs `N + 1` oracle queries instead of the `2·N`
    /// that `N` individual [`LockProbe::capture`] calls spend — the
    /// batch still counts one query per row, so the oracle audit trail
    /// stays exact. Each returned probe is bit-identical to its
    /// individually-captured counterpart.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::ShapeMismatch`] if oracle and values
    /// disagree on dimension.
    pub fn capture_all(
        oracle: &dyn EncodingOracle,
        values: &LevelHvs,
        kind: ModelKind,
    ) -> Result<Vec<Self>, AttackError> {
        if oracle.dim() != values.dim() {
            return Err(AttackError::ShapeMismatch {
                what: "oracle and values dimension differ",
            });
        }
        let n = oracle.n_features();
        let m = oracle.m_levels();
        let v1 = values.level(0);
        let mut rows: Vec<Vec<u16>> = Vec::with_capacity(n + 1);
        rows.push(all_min_row(n));
        rows.extend((0..n).map(|feature| probe_row(n, m, feature)));
        let refs: Vec<&[u16]> = rows.iter().map(Vec::as_slice).collect();
        let probes = match kind {
            ModelKind::Binary => {
                let observed = oracle.query_binary_batch(&refs);
                let h1 = &observed[0];
                (0..n)
                    .map(|feature| {
                        let hm = &observed[feature + 1];
                        let (indices, target): (Vec<u32>, Vec<i8>) = (0..oracle.dim())
                            .filter(|&d| h1.polarity(d) != hm.polarity(d))
                            .map(|d| (d as u32, h1.polarity(d)))
                            .unzip();
                        let v1_on_i = indices.iter().map(|&d| v1.polarity(d as usize)).collect();
                        LockProbe {
                            indices,
                            target,
                            v1_on_i,
                            kind,
                            feature,
                        }
                    })
                    .collect()
            }
            ModelKind::NonBinary => {
                let observed = oracle.query_int_batch(&refs);
                let h1 = &observed[0];
                (0..n)
                    .map(|feature| {
                        let hm = &observed[feature + 1];
                        let (indices, target): (Vec<u32>, Vec<i8>) = (0..oracle.dim())
                            .filter(|&d| h1.get(d) != hm.get(d))
                            .map(|d| (d as u32, if h1.get(d) > hm.get(d) { 1i8 } else { -1i8 }))
                            .unzip();
                        let v1_on_i = indices.iter().map(|&d| v1.polarity(d as usize)).collect();
                        LockProbe {
                            indices,
                            target,
                            v1_on_i,
                            kind,
                            feature,
                        }
                    })
                    .collect()
            }
        };
        Ok(probes)
    }

    /// Captures a probe using the attacker's [`crate::HdlockDump`] view (the
    /// value mapping comes from the dump, per the paper's strong
    /// Sec. 4.2 assumption).
    ///
    /// # Errors
    ///
    /// Same as [`LockProbe::capture`].
    pub fn capture_from_dump(
        oracle: &dyn EncodingOracle,
        dump: &crate::memory_dump::HdlockDump,
        feature: usize,
        kind: ModelKind,
    ) -> Result<Self, AttackError> {
        Self::capture(oracle, &dump.values, feature, kind)
    }

    /// Size of the differing index set `|I|`.
    #[must_use]
    pub fn support(&self) -> usize {
        self.indices.len()
    }

    /// The feature this probe targets.
    #[must_use]
    pub fn feature(&self) -> usize {
        self.feature
    }

    /// Model kind the probe was captured from.
    #[must_use]
    pub fn kind(&self) -> ModelKind {
        self.kind
    }

    /// Scores one key guess.
    ///
    /// For binary models: normalized Hamming distance on `I` between the
    /// Eq. 13 prediction and the observed difference (0.0 = perfect).
    /// For non-binary models: `1 − cosine` on `I` (0.0 = perfect, the
    /// paper's cosine = 1 with 100 % confidence).
    ///
    /// # Errors
    ///
    /// Propagates key-derivation failures for malformed guesses.
    pub fn score(&self, pool: &BasePool, guess: &FeatureKey) -> Result<f64, AttackError> {
        let g =
            derive_feature(pool, guess, self.feature).map_err(|_| AttackError::ShapeMismatch {
                what: "guess references missing base",
            })?;
        let mismatches = self
            .indices
            .iter()
            .enumerate()
            .filter(|&(idx, &d)| {
                // H_attack on I reduces to v1_d · G_d (see module docs)
                let predicted = self.v1_on_i[idx] * g.polarity(d as usize);
                predicted != self.target[idx]
            })
            .count();
        if self.indices.is_empty() {
            return Ok(0.0);
        }
        let frac = mismatches as f64 / self.indices.len() as f64;
        Ok(match self.kind {
            ModelKind::Binary => frac,
            // cosine on I = 1 − 2·mismatch-fraction ⇒ 1 − cosine = 2·frac
            ModelKind::NonBinary => 2.0 * frac,
        })
    }
}

/// Which key parameter a validation sweep varies (paper Fig. 5/6 panels).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweptParam {
    /// Sweep the rotation `k_{1,layer}`.
    Rotation {
        /// Which layer's rotation to sweep.
        layer: usize,
    },
    /// Sweep the base index `index(B_{1,layer})`.
    BaseIndex {
        /// Which layer's base index to sweep.
        layer: usize,
    },
}

/// Result of sweeping one parameter with all others held correct.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// The swept parameter.
    pub param: SweptParam,
    /// Scores with the **correct value first**, then every wrong
    /// candidate in ascending parameter order (the paper's Fig. 5/6
    /// presentation).
    pub scores: Vec<f64>,
    /// Cost accounting.
    pub stats: AttackStats,
}

impl SweepResult {
    /// Score of the correct guess.
    #[must_use]
    pub fn correct_score(&self) -> f64 {
        self.scores[0]
    }

    /// Smallest score among wrong guesses.
    #[must_use]
    pub fn best_wrong_score(&self) -> f64 {
        self.scores[1..]
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
    }

    /// Whether the correct guess is strictly separated from every wrong
    /// guess by `margin`.
    #[must_use]
    pub fn separates(&self, margin: f64) -> bool {
        self.correct_score() + margin <= self.best_wrong_score()
    }
}

/// Sweeps one parameter of `true_key` (paper's worst case: the other
/// `2L − 1` parameters already correct), scoring every candidate value.
///
/// `stride` subsamples rotation candidates (1 = exhaustive); base-index
/// sweeps are always exhaustive.
///
/// # Errors
///
/// Propagates scoring errors; returns [`AttackError::ShapeMismatch`]
/// if `param` names a layer the key does not have.
pub fn sweep_parameter(
    probe: &LockProbe,
    pool: &BasePool,
    true_key: &FeatureKey,
    param: SweptParam,
    dim: usize,
    stride: usize,
) -> Result<SweepResult, AttackError> {
    let start = Instant::now();
    let layers = true_key.layers().to_vec();
    let layer_idx = match param {
        SweptParam::Rotation { layer } | SweptParam::BaseIndex { layer } => layer,
    };
    if layer_idx >= layers.len() {
        return Err(AttackError::ShapeMismatch {
            what: "swept layer beyond key depth",
        });
    }
    let stride = stride.max(1);
    let candidates: Vec<usize> = match param {
        SweptParam::Rotation { .. } => (0..dim).step_by(stride).collect(),
        SweptParam::BaseIndex { .. } => (0..pool.len()).collect(),
    };
    let correct_value = match param {
        SweptParam::Rotation { layer } => layers[layer].rotation,
        SweptParam::BaseIndex { layer } => layers[layer].base_index,
    };

    let mut scored: Vec<(usize, f64)> = par::par_chunk_map(candidates.len(), 16, |range| {
        range
            .map(|ci| {
                let v = candidates[ci];
                let mut guess_layers = layers.clone();
                match param {
                    SweptParam::Rotation { layer } => guess_layers[layer].rotation = v,
                    SweptParam::BaseIndex { layer } => guess_layers[layer].base_index = v,
                }
                let guess = FeatureKey::new(guess_layers);
                let s = probe
                    .score(pool, &guess)
                    .expect("candidate key is structurally valid");
                (v, s)
            })
            .collect()
    });

    // Correct value first (paper plots it first), wrong ones after.
    let mut scores = Vec::with_capacity(scored.len() + 1);
    match scored.iter().position(|&(v, _)| v == correct_value) {
        Some(pos) => {
            let (_, s) = scored.remove(pos);
            scores.push(s);
        }
        None => {
            // stride skipped the correct rotation: score it explicitly
            let mut guess_layers = layers.clone();
            match param {
                SweptParam::Rotation { layer } => guess_layers[layer].rotation = correct_value,
                SweptParam::BaseIndex { layer } => guess_layers[layer].base_index = correct_value,
            }
            scores.push(probe.score(pool, &FeatureKey::new(guess_layers))?);
        }
    }
    let guesses = scored.len() as u64 + 1;
    scores.extend(scored.into_iter().map(|(_, s)| s));
    Ok(SweepResult {
        param,
        scores,
        stats: AttackStats {
            guesses,
            oracle_queries: 0,
            elapsed: start.elapsed(),
        },
    })
}

/// Exhaustively searches the full `(D·P)^L` key space for one feature —
/// only feasible for toy dimensions, which is exactly the point of
/// HDLock. Returns the best key, its score and the number of guesses.
///
/// # Errors
///
/// Propagates scoring failures.
pub fn exhaustive_key_search(
    probe: &LockProbe,
    pool: &BasePool,
    dim: usize,
    n_layers: usize,
) -> Result<(FeatureKey, f64, u64), AttackError> {
    assert!(n_layers >= 1, "exhaustive search needs at least one layer");
    let per_layer: u64 = (dim as u64) * (pool.len() as u64);
    let total = per_layer.pow(n_layers as u32);
    let chunk_minima: Vec<(OrderedScore, FeatureKey)> = par::par_chunk_map(
        usize::try_from(total).expect("search space fits usize"),
        256,
        |range| {
            let mut best: Option<(OrderedScore, FeatureKey)> = None;
            for code in range {
                let mut rem = code as u64;
                let layers: Vec<LayerKey> = (0..n_layers)
                    .map(|_| {
                        let lk = LayerKey {
                            base_index: (rem % pool.len() as u64) as usize,
                            rotation: ((rem / pool.len() as u64) % dim as u64) as usize,
                        };
                        rem /= per_layer;
                        lk
                    })
                    .collect();
                let key = FeatureKey::new(layers);
                let score = probe.score(pool, &key).expect("generated key is valid");
                if best.as_ref().is_none_or(|(s, _)| OrderedScore(score) < *s) {
                    best = Some((OrderedScore(score), key));
                }
            }
            best.into_iter().collect()
        },
    );
    let best = chunk_minima
        .into_iter()
        .min_by(|a, b| a.0.cmp(&b.0))
        .expect("search space is non-empty");
    Ok((best.1, best.0 .0, total))
}

/// Total-ordering wrapper for f64 scores (attack scores are never NaN).
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrderedScore(f64);

impl Eq for OrderedScore {}

impl PartialOrd for OrderedScore {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrderedScore {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::CountingOracle;
    use hdlock::{EncodingKey, LockConfig, LockedEncoder};
    use hypervec::HvRng;

    /// Builds a locked encoder while keeping a copy of the key (the
    /// experiment harness plays both victim and evaluator).
    fn locked_setup(
        seed: u64,
        cfg: &LockConfig,
    ) -> (LockedEncoder, EncodingKey, hdlock::BasePool, LevelHvs) {
        let mut rng = HvRng::from_seed(seed);
        let pool = hdlock::BasePool::generate(&mut rng, cfg.dim, cfg.pool_size);
        let values = LevelHvs::generate(&mut rng, cfg.dim, cfg.m_levels).unwrap();
        let key = EncodingKey::random(
            &mut rng,
            cfg.n_features,
            cfg.n_layers,
            cfg.pool_size,
            cfg.dim,
        )
        .unwrap();
        let enc = LockedEncoder::from_parts(pool.clone(), values.clone(), key.clone()).unwrap();
        (enc, key, pool, values)
    }

    fn small_cfg() -> LockConfig {
        LockConfig {
            n_features: 31,
            m_levels: 4,
            dim: 4096,
            pool_size: 31,
            n_layers: 2,
        }
    }

    #[test]
    fn correct_key_scores_zero_binary() {
        let cfg = small_cfg();
        let (enc, key, pool, values) = locked_setup(1, &cfg);
        let oracle = CountingOracle::new(&enc);
        let probe = LockProbe::capture(&oracle, &values, 0, ModelKind::Binary).unwrap();
        assert!(probe.support() > 0, "probe must observe differing indices");
        let score = probe.score(&pool, key.feature(0)).unwrap();
        assert_eq!(score, 0.0);
    }

    #[test]
    fn correct_key_scores_zero_nonbinary() {
        let cfg = small_cfg();
        let (enc, key, pool, values) = locked_setup(2, &cfg);
        let oracle = CountingOracle::new(&enc);
        let probe = LockProbe::capture(&oracle, &values, 0, ModelKind::NonBinary).unwrap();
        let score = probe.score(&pool, key.feature(0)).unwrap();
        assert_eq!(
            score, 0.0,
            "paper: cosine exactly 1 for the correct non-binary guess"
        );
    }

    #[test]
    fn one_wrong_parameter_destroys_the_match() {
        let cfg = small_cfg();
        let (enc, key, pool, values) = locked_setup(3, &cfg);
        let oracle = CountingOracle::new(&enc);
        let probe = LockProbe::capture(&oracle, &values, 0, ModelKind::Binary).unwrap();
        let mut layers = key.feature(0).layers().to_vec();
        layers[1].rotation = (layers[1].rotation + 17) % cfg.dim;
        let wrong = FeatureKey::new(layers);
        let score = probe.score(&pool, &wrong).unwrap();
        assert!(
            score > 0.25,
            "wrong-by-one guess must look random, got {score}"
        );
    }

    #[test]
    fn sweep_separates_correct_value_on_all_four_params() {
        let cfg = small_cfg();
        let (enc, key, pool, values) = locked_setup(4, &cfg);
        let oracle = CountingOracle::new(&enc);
        let probe = LockProbe::capture(&oracle, &values, 0, ModelKind::Binary).unwrap();
        for param in [
            SweptParam::Rotation { layer: 0 },
            SweptParam::BaseIndex { layer: 0 },
            SweptParam::Rotation { layer: 1 },
            SweptParam::BaseIndex { layer: 1 },
        ] {
            let sweep = sweep_parameter(&probe, &pool, key.feature(0), param, cfg.dim, 16).unwrap();
            assert_eq!(sweep.correct_score(), 0.0, "{param:?}");
            assert!(
                sweep.separates(0.2),
                "{param:?}: {:?}",
                sweep.best_wrong_score()
            );
        }
    }

    #[test]
    fn nonbinary_sweep_also_separates() {
        let cfg = small_cfg();
        let (enc, key, pool, values) = locked_setup(5, &cfg);
        let oracle = CountingOracle::new(&enc);
        let probe = LockProbe::capture(&oracle, &values, 0, ModelKind::NonBinary).unwrap();
        let sweep = sweep_parameter(
            &probe,
            &pool,
            key.feature(0),
            SweptParam::BaseIndex { layer: 0 },
            cfg.dim,
            1,
        )
        .unwrap();
        assert_eq!(sweep.correct_score(), 0.0);
        assert!(sweep.separates(0.5));
    }

    #[test]
    fn exhaustive_search_succeeds_only_at_toy_scale() {
        // L = 1, D = 64, P = 4: 256 guesses — feasible, and the attack
        // recovers a key deriving the exact feature hypervector. The
        // same search at paper scale would need (10⁴·784)² ≈ 6·10¹³
        // guesses per feature (see hdlock::complexity).
        let cfg = LockConfig {
            n_features: 9,
            m_levels: 4,
            dim: 64,
            pool_size: 4,
            n_layers: 1,
        };
        let (enc, key, pool, values) = locked_setup(6, &cfg);
        let oracle = CountingOracle::new(&enc);
        let probe = LockProbe::capture(&oracle, &values, 0, ModelKind::NonBinary).unwrap();
        let (found, score, guesses) = exhaustive_key_search(&probe, &pool, cfg.dim, 1).unwrap();
        assert_eq!(guesses, 256);
        assert_eq!(score, 0.0);
        let true_hv = derive_feature(&pool, key.feature(0), 0).unwrap();
        let found_hv = derive_feature(&pool, &found, 0).unwrap();
        assert_eq!(
            found_hv, true_hv,
            "recovered key must derive the true feature hypervector"
        );
    }

    #[test]
    fn probe_uses_exactly_two_queries() {
        let cfg = small_cfg();
        let (enc, _, _, values) = locked_setup(7, &cfg);
        let oracle = CountingOracle::new(&enc);
        let _ = LockProbe::capture(&oracle, &values, 0, ModelKind::Binary).unwrap();
        assert_eq!(oracle.queries(), 2);
    }

    #[test]
    fn capture_all_matches_individual_captures_at_lower_cost() {
        let cfg = small_cfg();
        let (enc, _, _, values) = locked_setup(8, &cfg);
        for kind in [ModelKind::Binary, ModelKind::NonBinary] {
            let batched_oracle = CountingOracle::new(&enc);
            let probes = LockProbe::capture_all(&batched_oracle, &values, kind).unwrap();
            assert_eq!(probes.len(), cfg.n_features);
            assert_eq!(
                batched_oracle.queries(),
                cfg.n_features as u64 + 1,
                "shared all-min observation: N + 1 queries"
            );
            let single_oracle = CountingOracle::new(&enc);
            for (f, probe) in probes.iter().enumerate() {
                let single = LockProbe::capture(&single_oracle, &values, f, kind).unwrap();
                assert_eq!(probe, &single, "{kind:?} feature {f}");
            }
            assert_eq!(single_oracle.queries(), 2 * cfg.n_features as u64);
        }
    }

    #[test]
    fn attack_through_deployed_session_matches_direct_oracle() {
        use crate::oracle::SessionOracle;
        use hdc_model::{ClassMemory, OwnedSession};

        // The attacker drives the deployed serving pipeline (session
        // over the locked encoder + a trained memory) instead of a bare
        // encoder handle; the captured probes and key scores must be
        // identical, and so must the query accounting.
        let cfg = small_cfg();
        let (enc, key, pool, values) = locked_setup(9, &cfg);
        let mut memory = ClassMemory::new(ModelKind::Binary, 2, cfg.dim);
        memory.acc_mut(0).add(&hdc_model::Encoder::encode_binary(
            &enc,
            &vec![0u16; cfg.n_features],
        ));
        memory.rebinarize();
        let session = OwnedSession::new(&enc, &memory);
        let deployed = SessionOracle::new(&session);
        let direct = CountingOracle::new(&enc);

        let via_session = LockProbe::capture(&deployed, &values, 0, ModelKind::Binary).unwrap();
        let via_direct = LockProbe::capture(&direct, &values, 0, ModelKind::Binary).unwrap();
        assert_eq!(via_session, via_direct);
        assert_eq!(deployed.queries(), direct.queries());
        assert_eq!(
            via_session.score(&pool, key.feature(0)).unwrap(),
            0.0,
            "correct key still scores perfectly through the session"
        );
    }
}
