//! Attack bookkeeping and the timing-oracle adversary.
//!
//! Besides the cost accounting ([`AttackStats`]) the paper's Table 1
//! reports, this module houses the *side-channel* probe of the serving
//! stack: [`warmth_distinguisher`] times single-row encodes against a
//! victim [`LockedEncoder`] and applies Welch's unequal-variance t-test
//! ([`welch_t`]) to decide whether encode latency betrays recent batch
//! traffic. The channel it looked for was the cached mode's lazy
//! bound-pair table, which a batch built and single encodes then read;
//! cached mode now encodes every row with the same column pass over
//! its resident features and builds no table, and
//! [`DeriveMode::Hardened`](hdlock::DeriveMode) performs fixed work per
//! encode, so the probe fails against both. `SECURITY.md` discusses the
//! threat model; the `hardened` section of `BENCH_search.json` prices
//! the hardened mode.

use std::time::{Duration, Instant};

use hdc_model::Encoder;
use hdlock::LockedEncoder;

/// Cost accounting for one attack run — the quantities Table 1 and
/// Sec. 4.2 of the paper report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AttackStats {
    /// Candidate hypotheses evaluated (the paper's "guesses"/"tries").
    pub guesses: u64,
    /// Chosen-input encodings observed from the victim.
    pub oracle_queries: u64,
    /// Wall-clock time spent reasoning.
    pub elapsed: Duration,
}

impl AttackStats {
    /// Merges the costs of two attack phases.
    #[must_use]
    pub fn combined(self, other: AttackStats) -> AttackStats {
        AttackStats {
            guesses: self.guesses + other.guesses,
            oracle_queries: self.oracle_queries + other.oracle_queries,
            elapsed: self.elapsed + other.elapsed,
        }
    }
}

impl std::fmt::Display for AttackStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} guesses, {} oracle queries, {:.2}s",
            self.guesses,
            self.oracle_queries,
            self.elapsed.as_secs_f64()
        )
    }
}

/// Minimum per-condition samples for a timing verdict. Below this
/// floor the statistic is too noisy to assert on either way, so the
/// helpers skip with a notice instead of producing a flaky verdict.
pub const MIN_TIMING_SAMPLES: usize = 30;

/// `|t|` above which a latency difference counts as statistically
/// significant (far past any reasonable p-value at the sample floor).
pub const T_THRESHOLD: f64 = 4.0;

/// Minimum relative mean gap for a difference to count as an
/// *exploitable* oracle. Statistical significance alone is not enough:
/// with thousands of samples, Welch's t flags immaterial systematic
/// differences (allocation alignment, cache coloring) between two
/// encoder instances. The cached-vs-cold channel gaps by several
/// percent even on optimized builds; instance noise between two
/// fixed-work hardened victims measures an order of magnitude below
/// this floor.
pub const MIN_RELATIVE_GAP: f64 = 0.02;

/// Welch's unequal-variance t-statistic between two samples.
///
/// Returns `0.0` when either sample has fewer than two points or both
/// samples are constant and equal; `f64::INFINITY` (signed) when both
/// are constant but different.
#[must_use]
pub fn welch_t(a: &[f64], b: &[f64]) -> f64 {
    if a.len() < 2 || b.len() < 2 {
        return 0.0;
    }
    let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len() as f64;
    let var =
        |s: &[f64], m: f64| s.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (s.len() - 1) as f64;
    let (ma, mb) = (mean(a), mean(b));
    let se = (var(a, ma) / a.len() as f64 + var(b, mb) / b.len() as f64).sqrt();
    if se == 0.0 {
        return if ma == mb {
            0.0
        } else {
            (ma - mb).signum() * f64::INFINITY
        };
    }
    (ma - mb) / se
}

/// [`welch_t`] guarded by the sample floor: returns `None` — printing
/// one skip notice naming `label` — when either sample is below
/// [`MIN_TIMING_SAMPLES`], so callers (and CI) never assert on an
/// underpowered comparison.
#[must_use]
pub fn checked_welch_t(label: &str, a: &[f64], b: &[f64]) -> Option<f64> {
    if a.len() < MIN_TIMING_SAMPLES || b.len() < MIN_TIMING_SAMPLES {
        eprintln!(
            "timing: skipping `{label}` — {}/{} samples, floor is {MIN_TIMING_SAMPLES} per side",
            a.len(),
            b.len()
        );
        return None;
    }
    Some(welch_t(a, b))
}

/// Verdict of one [`warmth_distinguisher`] run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingReport {
    /// Welch's t between the cold-victim and warm-victim latency
    /// samples (positive when the cold victim is slower).
    pub t: f64,
    /// `|cold mean − warm mean| / warm mean`.
    pub relative_gap: f64,
    /// Mean latency of one probe (of `reps` encodes) on the cold victim.
    pub cold_mean_ns: f64,
    /// Mean latency of one probe on the warm victim.
    pub warm_mean_ns: f64,
    /// Per-condition sample count.
    pub samples: usize,
    /// Chosen-input encodes the adversary spent (both victims, priming
    /// and warming included).
    pub oracle_queries: u64,
}

impl TimingReport {
    /// Whether the adversary extracted an exploitable oracle: the gap
    /// is statistically significant ([`T_THRESHOLD`]) **and** large
    /// enough to act on ([`MIN_RELATIVE_GAP`]).
    #[must_use]
    pub fn distinguishable(&self) -> bool {
        self.t.abs() >= T_THRESHOLD && self.relative_gap >= MIN_RELATIVE_GAP
    }
}

impl std::fmt::Display for TimingReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "t = {:.1}, gap = {:.1}% (cold {:.0} ns vs warm {:.0} ns, n = {}, {} queries): {}",
            self.t,
            self.relative_gap * 100.0,
            self.cold_mean_ns,
            self.warm_mean_ns,
            self.samples,
            self.oracle_queries,
            if self.distinguishable() {
                "distinguishable"
            } else {
                "indistinguishable"
            }
        )
    }
}

/// The timing-oracle adversary: decides, from latency alone, whether a
/// victim recently processed batch traffic — whether a batch left any
/// state, such as a bound-pair table, that makes later encodes faster.
///
/// `cold` and `warm` are two victims of identical shape (in the same
/// [`DeriveMode`](hdlock::DeriveMode)); the adversary first primes both
/// with one throwaway encode, then pushes one batch of `M` rows through
/// `warm` (a batch of `M` rows is what once built the cached mode's
/// table), then interleaves timed probes of `reps` single encodes
/// against each so clock drift hits both samples equally. Welch's t
/// over the two sample sets is the verdict.
///
/// Both modes defeat the probe: a cached encode is the same column pass
/// over the same resident features whatever ran before it, and a
/// hardened encode performs the same full-table strided work — the
/// property the hardened CI leg pins for both.
///
/// Returns `None` (with a skip notice) when `samples` is below
/// [`MIN_TIMING_SAMPLES`].
///
/// # Panics
///
/// Panics if the two victims disagree on shape or derive mode.
#[must_use]
pub fn warmth_distinguisher(
    cold: &LockedEncoder,
    warm: &LockedEncoder,
    samples: usize,
    reps: usize,
) -> Option<TimingReport> {
    assert_eq!(cold.n_features(), warm.n_features(), "victim shape");
    assert_eq!(cold.m_levels(), warm.m_levels(), "victim shape");
    assert_eq!(cold.dim(), warm.dim(), "victim shape");
    assert_eq!(cold.mode(), warm.mode(), "compare like with like");
    if samples < MIN_TIMING_SAMPLES {
        eprintln!(
            "timing: skipping warmth distinguisher — {samples} samples, \
             floor is {MIN_TIMING_SAMPLES} per side"
        );
        return None;
    }

    let n = cold.n_features();
    let m = cold.m_levels();
    let row = vec![0u16; n];
    let mut queries = 0u64;

    // Prime: in hardened mode the first encode builds the table, so the
    // timed loops below observe steady-state behavior.
    let _ = cold.encode_binary(&row);
    let _ = warm.encode_binary(&row);
    queries += 2;

    // Batch traffic against the warm victim only: `M` rows, the batch
    // that once built the cached mode's bound-pair table.
    let batch_rows: Vec<Vec<u16>> = (0..m).map(|v| vec![v as u16; n]).collect();
    let refs: Vec<&[u16]> = batch_rows.iter().map(Vec::as_slice).collect();
    let _ = warm.encode_batch_binary(&refs);
    queries += m as u64;

    let mut cold_ns = Vec::with_capacity(samples);
    let mut warm_ns = Vec::with_capacity(samples);
    for _ in 0..samples {
        cold_ns.push(probe_ns(cold, &row, reps));
        warm_ns.push(probe_ns(warm, &row, reps));
        queries += 2 * reps.max(1) as u64;
    }

    let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len() as f64;
    let (cold_mean, warm_mean) = (mean(&cold_ns), mean(&warm_ns));
    Some(TimingReport {
        t: welch_t(&cold_ns, &warm_ns),
        relative_gap: (cold_mean - warm_mean).abs() / warm_mean,
        cold_mean_ns: cold_mean,
        warm_mean_ns: warm_mean,
        samples,
        oracle_queries: queries,
    })
}

/// One timing probe: the *minimum* over `reps` individually timed
/// single-row encodes of `row`. The min is the latency of the operation
/// itself with scheduler preemption and interrupt noise stripped, which
/// is exactly what a patient adversary reconstructs by repetition.
fn probe_ns(enc: &LockedEncoder, row: &[u16], reps: usize) -> f64 {
    (0..reps.max(1))
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(enc.encode_binary(row));
            u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX) as f64
        })
        .fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdlock::{DeriveMode, LockConfig};
    use hypervec::HvRng;

    #[test]
    fn combined_adds_fields() {
        let a = AttackStats {
            guesses: 10,
            oracle_queries: 2,
            elapsed: Duration::from_secs(1),
        };
        let b = AttackStats {
            guesses: 5,
            oracle_queries: 1,
            elapsed: Duration::from_secs(2),
        };
        let c = a.combined(b);
        assert_eq!(c.guesses, 15);
        assert_eq!(c.oracle_queries, 3);
        assert_eq!(c.elapsed, Duration::from_secs(3));
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!AttackStats::default().to_string().is_empty());
    }

    /// Deterministic synthetic distributions: jittered samples around
    /// two separated means must score a huge |t|, same-mean samples a
    /// small one, and the degenerate cases hit their documented values.
    #[test]
    fn welch_t_separates_synthetic_distributions() {
        let mut rng = HvRng::from_seed(9);
        let mut jittered = |center: f64, n: usize| -> Vec<f64> {
            (0..n)
                .map(|_| center + (rng.next_u64() % 41) as f64 - 20.0)
                .collect()
        };
        let slow = jittered(1000.0, 200);
        let fast = jittered(700.0, 200);
        let also_fast = jittered(700.0, 200);
        assert!(
            welch_t(&slow, &fast) > 50.0,
            "separated means: t = {}",
            welch_t(&slow, &fast)
        );
        assert!(
            welch_t(&fast, &also_fast).abs() < T_THRESHOLD,
            "same mean: t = {}",
            welch_t(&fast, &also_fast)
        );
        // Degenerate inputs.
        assert_eq!(welch_t(&[1.0], &fast), 0.0);
        assert_eq!(welch_t(&[5.0, 5.0], &[5.0, 5.0]), 0.0);
        assert_eq!(welch_t(&[6.0, 6.0], &[5.0, 5.0]), f64::INFINITY);
        assert_eq!(welch_t(&[4.0, 4.0], &[5.0, 5.0]), f64::NEG_INFINITY);
    }

    #[test]
    fn checked_welch_t_skips_below_the_floor() {
        let enough = vec![1.0; MIN_TIMING_SAMPLES];
        let short = vec![1.0; MIN_TIMING_SAMPLES - 1];
        assert_eq!(checked_welch_t("floor", &enough, &short), None);
        assert_eq!(checked_welch_t("floor", &short, &enough), None);
        assert_eq!(checked_welch_t("floor", &enough, &enough), Some(0.0));
    }

    fn victim(seed: u64, mode: DeriveMode) -> LockedEncoder {
        let mut rng = HvRng::from_seed(seed);
        let mut enc = LockedEncoder::generate(
            &mut rng,
            &LockConfig {
                n_features: 16,
                m_levels: 8,
                dim: 2048,
                pool_size: 16,
                n_layers: 2,
            },
        )
        .unwrap();
        enc.set_mode(mode);
        enc
    }

    /// The side-channel claim, end to end: the adversary extracts no
    /// cache-warmth oracle from either serving mode, on whichever kernel
    /// backend CI selected. Cached mode builds no bound-pair table, so a
    /// batch leaves nothing behind to read; hardened mode does fixed
    /// work per encode. Each mode gets exactly one attempt with the same
    /// victims and sample counts: a check that a channel is closed must
    /// not retry until some attempt shows nothing.
    #[test]
    fn warmth_oracle_reads_neither_cached_nor_hardened() {
        const SAMPLES: usize = 300;
        const REPS: usize = 12;
        let probe = |mode: DeriveMode| {
            let report = warmth_distinguisher(&victim(11, mode), &victim(12, mode), SAMPLES, REPS)
                .expect("above the sample floor");
            eprintln!("{mode:?}: {report}");
            report
        };
        let cached = probe(DeriveMode::Cached);
        assert!(
            !cached.distinguishable(),
            "cached mode holds no table, so batch traffic must leave no warmth to read: {cached}"
        );
        let hardened = probe(DeriveMode::Hardened);
        assert!(
            !hardened.distinguishable(),
            "hardened mode must close the channel: {hardened}"
        );
        // Fixed work also means hardened probes cost more than cached
        // ones — the tax the bench suite prices. Means taken in two
        // separate windows would carry the host's drift between them, so
        // the cost comparison alternates one cached probe with one
        // hardened probe, at the verdicts' counts.
        let cached_enc = victim(11, DeriveMode::Cached);
        let hardened_enc = victim(11, DeriveMode::Hardened);
        let row = vec![0u16; cached_enc.n_features()];
        // Prime: hardened mode's first encode builds its table.
        let _ = cached_enc.encode_binary(&row);
        let _ = hardened_enc.encode_binary(&row);
        let (mut cached_ns, mut hardened_ns) = (0.0, 0.0);
        for _ in 0..SAMPLES {
            cached_ns += probe_ns(&cached_enc, &row, REPS);
            hardened_ns += probe_ns(&hardened_enc, &row, REPS);
        }
        let cached_mean = cached_ns / SAMPLES as f64;
        let hardened_mean = hardened_ns / SAMPLES as f64;
        eprintln!("interleaved probes: cached {cached_mean:.0} ns, hardened {hardened_mean:.0} ns");
        assert!(
            hardened_mean > cached_mean,
            "hardened probes must cost more than cached ones: \
             {hardened_mean:.0} ns against {cached_mean:.0} ns"
        );
    }

    #[test]
    fn warmth_distinguisher_skips_below_the_floor() {
        let report = warmth_distinguisher(
            &victim(21, DeriveMode::Cached),
            &victim(22, DeriveMode::Cached),
            MIN_TIMING_SAMPLES - 1,
            1,
        );
        assert_eq!(report, None);
    }
}
