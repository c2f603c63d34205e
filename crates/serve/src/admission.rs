//! Per-connection admission control for the inference oracle.
//!
//! HDLock's residual attack surface is the *oracle itself*: the paper's
//! lock probe recovers everything it needs from `N + 1` queries — a
//! base row plus one single-feature deviation per feature — and the
//! query-bounded adversary of the robustness experiments
//! (`hdc_attack::robust`) is only stopped when the budget undercuts
//! that need. The admission controller enforces exactly those
//! semantics per connection:
//!
//! * **Cumulative query budget** — a
//!   [`hdc_attack::QueryBudget`], the same counter
//!   `ThrottledOracle` uses in the attack experiments, so "budget `B`
//!   stops the `N + 1`-query probe" transfers verbatim from the attack
//!   crate's tests to the server. Unlike `ThrottledOracle` (which
//!   poisons answers, degrading legitimate bulk users silently), the
//!   server rejects with a **structured throttle error** so honest
//!   clients can back off.
//! * **Token-bucket rate limit** — sustained queries/second with a
//!   burst allowance, bounding how fast any client can sweep.
//! * **Feature-sweep counter** — the lock probe's signature is a run of
//!   queries within Hamming distance ≤ 1 (in level space) of some base
//!   row the attacker chose. The detector keeps a bounded ring of
//!   recent *anchor* rows; a query near any anchor counts as a probe
//!   (and refreshes that anchor, so a base row being swept stays
//!   resident however long the sweep runs). Organic traffic (rows
//!   differing in many features) never trips it. The ring is bounded,
//!   so an attacker can evade by interleaving [`ANCHOR_RING`] distinct
//!   junk rows per probe — but every one of those burns the same
//!   cumulative query budget, which is the backstop.
//!
//! Budgets are per connection, so one throttled client leaves every
//! other connection untouched.

use std::collections::VecDeque;
use std::time::Instant;

use hdc_attack::QueryBudget;

/// Anchor rows remembered per connection by the sweep detector.
pub const ANCHOR_RING: usize = 32;

/// Admission thresholds; `u64::MAX` / `0.0` disable a dimension.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionConfig {
    /// Total classify queries a connection may issue
    /// ([`QueryBudget`] semantics). `u64::MAX` = unlimited.
    pub query_budget: u64,
    /// Sustained token refill rate (queries/second). `0.0` disables
    /// rate limiting.
    pub rate_per_sec: f64,
    /// Token-bucket capacity (burst size) when rate limiting is on.
    pub burst: u64,
    /// Probe-shaped queries (Hamming ≤ 1 from a remembered anchor row;
    /// see the module docs) a connection may issue. `u64::MAX` =
    /// unlimited.
    pub sweep_budget: u64,
}

impl Default for AdmissionConfig {
    /// Everything unlimited — admission control is opt-in.
    fn default() -> Self {
        AdmissionConfig {
            query_budget: u64::MAX,
            rate_per_sec: 0.0,
            burst: 1,
            sweep_budget: u64::MAX,
        }
    }
}

/// Why a query was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThrottleReason {
    /// The cumulative per-connection budget is spent.
    BudgetExhausted {
        /// The configured budget.
        budget: u64,
    },
    /// The token bucket is empty (sustained rate exceeded).
    RateExceeded,
    /// Too many probe-shaped queries (feature-sweep pattern).
    SweepDetected {
        /// The configured sweep budget.
        budget: u64,
    },
}

impl std::fmt::Display for ThrottleReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ThrottleReason::BudgetExhausted { budget } => {
                write!(f, "query budget exhausted ({budget} per connection)")
            }
            ThrottleReason::RateExceeded => write!(f, "query rate exceeded, retry later"),
            ThrottleReason::SweepDetected { budget } => write!(
                f,
                "feature-sweep pattern exceeded probe budget ({budget} per connection)"
            ),
        }
    }
}

/// Per-connection admission state. One instance per accepted
/// connection, owned by the event loop's per-connection state.
#[derive(Debug)]
pub struct ConnectionAdmission {
    config: AdmissionConfig,
    budget: QueryBudget,
    sweeps: QueryBudget,
    tokens: f64,
    last_refill: Instant,
    /// Recent anchor rows, most-recently-hit first (see module docs).
    anchors: VecDeque<Vec<u16>>,
}

impl ConnectionAdmission {
    /// Fresh state with a full token bucket.
    #[must_use]
    pub fn new(config: &AdmissionConfig) -> Self {
        ConnectionAdmission {
            config: *config,
            budget: QueryBudget::new(config.query_budget),
            sweeps: QueryBudget::new(config.sweep_budget),
            tokens: config.burst.max(1) as f64,
            last_refill: Instant::now(),
            anchors: VecDeque::new(),
        }
    }

    /// Decides one classify query. `Err` carries the throttle reason;
    /// rejected queries still count against the cumulative budget (a
    /// throttled client cannot wait out its budget).
    ///
    /// # Errors
    ///
    /// The [`ThrottleReason`] to report to the client.
    pub fn admit(&mut self, levels: &[u16]) -> Result<(), ThrottleReason> {
        // Cumulative budget first: ThrottledOracle semantics — the
        // first `budget` queries of the connection, full stop.
        if self.config.query_budget != u64::MAX && !self.budget.admit() {
            return Err(ThrottleReason::BudgetExhausted {
                budget: self.config.query_budget,
            });
        }
        // Token bucket (sustained rate).
        if self.config.rate_per_sec > 0.0 {
            let now = Instant::now();
            let elapsed = now.duration_since(self.last_refill).as_secs_f64();
            self.last_refill = now;
            self.tokens = (self.tokens + elapsed * self.config.rate_per_sec)
                .min(self.config.burst.max(1) as f64);
            if self.tokens < 1.0 {
                return Err(ThrottleReason::RateExceeded);
            }
            self.tokens -= 1.0;
        }
        // Feature-sweep counter: one feature away from a remembered
        // anchor → probe. The hit anchor moves to the front so a swept
        // base row stays resident while uninvolved anchors age out of
        // the ring. Exact repeats of an anchor (a client polling the
        // same row) refresh it but are *not* probes — the paper's
        // sweep is made of single-feature deviations, and resending
        // one row reveals nothing new.
        if self.config.sweep_budget != u64::MAX {
            let hit =
                self.anchors.iter().enumerate().find_map(|(pos, anchor)| {
                    probe_distance(anchor, levels).map(|diffs| (pos, diffs))
                });
            match hit {
                Some((pos, diffs)) => {
                    let anchor = self.anchors.remove(pos).expect("position is in range");
                    self.anchors.push_front(anchor);
                    if diffs == 1 && !self.sweeps.admit() {
                        return Err(ThrottleReason::SweepDetected {
                            budget: self.config.sweep_budget,
                        });
                    }
                }
                None => {
                    self.anchors.push_front(levels.to_vec());
                    self.anchors.truncate(ANCHOR_RING);
                }
            }
        }
        Ok(())
    }

    /// Queries recorded against the cumulative budget so far.
    #[must_use]
    pub fn served(&self) -> u64 {
        self.budget.served()
    }
}

/// Number of features where `row` deviates from `anchor`, when that
/// number is ≤ 1 — `Some(1)` is the shape of every deviation query in
/// the paper's `N + 1` lock probe, `Some(0)` an exact repeat. `None`
/// means the rows are unrelated (or differently sized).
fn probe_distance(anchor: &[u16], row: &[u16]) -> Option<usize> {
    if anchor.len() != row.len() {
        return None;
    }
    let mut diffs = 0usize;
    for (a, b) in anchor.iter().zip(row) {
        if a != b {
            diffs += 1;
            if diffs > 1 {
                return None;
            }
        }
    }
    Some(diffs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_admits_everything() {
        let mut adm = ConnectionAdmission::new(&AdmissionConfig::default());
        for i in 0..10_000u16 {
            assert!(adm.admit(&[i % 7, 1, 2]).is_ok());
        }
    }

    #[test]
    fn cumulative_budget_throttles_after_budget() {
        let mut adm = ConnectionAdmission::new(&AdmissionConfig {
            query_budget: 3,
            ..AdmissionConfig::default()
        });
        // Diverse rows: the sweep detector must not be what fires.
        assert!(adm.admit(&[0, 1, 2, 3]).is_ok());
        assert!(adm.admit(&[3, 2, 1, 0]).is_ok());
        assert!(adm.admit(&[1, 1, 1, 1]).is_ok());
        assert_eq!(
            adm.admit(&[2, 2, 2, 2]).unwrap_err(),
            ThrottleReason::BudgetExhausted { budget: 3 }
        );
        // Still throttled — rejected queries do not refund budget.
        assert!(adm.admit(&[0, 1, 2, 3]).is_err());
        assert_eq!(adm.served(), 5);
    }

    #[test]
    fn sweep_detector_counts_probe_shaped_rows_only() {
        let mut adm = ConnectionAdmission::new(&AdmissionConfig {
            sweep_budget: 4,
            ..AdmissionConfig::default()
        });
        // Organic rows: pairwise far apart (every pair differs in all
        // eight features), never counted.
        for s in 0..20u16 {
            let row = vec![s + 1; 8];
            assert!(adm.admit(&row).is_ok(), "organic row {s}");
        }
        // The lock probe: a base row plus single-feature deviations.
        let base = vec![0u16; 8];
        assert!(adm.admit(&base).is_ok()); // becomes an anchor
        for i in 0..4 {
            let mut probe = base.clone();
            probe[i] = 3;
            assert!(adm.admit(&probe).is_ok(), "probe {i} within budget");
        }
        let mut probe = base.clone();
        probe[4] = 3;
        assert_eq!(
            adm.admit(&probe).unwrap_err(),
            ThrottleReason::SweepDetected { budget: 4 }
        );
    }

    #[test]
    fn sweep_detector_is_not_evaded_by_a_junk_first_row() {
        // Anchoring only on the connection's first row would let an
        // attacker send one throwaway query, then probe a different
        // base unobserved. The anchor ring catches the probe's own
        // base instead.
        let mut adm = ConnectionAdmission::new(&AdmissionConfig {
            sweep_budget: 2,
            ..AdmissionConfig::default()
        });
        let junk = vec![9u16; 8];
        assert!(adm.admit(&junk).is_ok());
        let base = vec![0u16; 8];
        assert!(adm.admit(&base).is_ok());
        for i in 0..2 {
            let mut probe = base.clone();
            probe[i] = 3;
            assert!(adm.admit(&probe).is_ok(), "probe {i} within budget");
        }
        let mut probe = base.clone();
        probe[2] = 3;
        assert_eq!(
            adm.admit(&probe).unwrap_err(),
            ThrottleReason::SweepDetected { budget: 2 }
        );
    }

    #[test]
    fn swept_anchor_stays_resident_while_others_age_out() {
        // A long-running sweep keeps refreshing its base anchor, so it
        // survives more than ANCHOR_RING interleaved organic rows.
        let mut adm = ConnectionAdmission::new(&AdmissionConfig {
            sweep_budget: 8,
            ..AdmissionConfig::default()
        });
        let base = vec![0u16; 8];
        assert!(adm.admit(&base).is_ok());
        let mut counted = 0u64;
        for round in 0..3u16 {
            // A probe refreshes the base anchor…
            let mut probe = base.clone();
            probe[usize::from(round)] = 3;
            assert!(adm.admit(&probe).is_ok());
            counted += 1;
            // …so ANCHOR_RING − 1 organic rows (all pairwise far
            // apart, across rounds too) cannot evict it.
            for s in 0..(ANCHOR_RING - 1) as u16 {
                let row = vec![100 * (round + 1) + s + 1; 8];
                assert!(adm.admit(&row).is_ok());
            }
        }
        assert_eq!(adm.sweeps.served(), counted);
    }

    #[test]
    fn rate_limit_empties_and_refills() {
        let mut adm = ConnectionAdmission::new(&AdmissionConfig {
            rate_per_sec: 50.0,
            burst: 3,
            ..AdmissionConfig::default()
        });
        let row = [1u16, 2, 3];
        assert!(adm.admit(&row).is_ok());
        assert!(adm.admit(&row).is_ok());
        assert!(adm.admit(&row).is_ok());
        assert_eq!(adm.admit(&row).unwrap_err(), ThrottleReason::RateExceeded);
        // Tokens come back with time.
        std::thread::sleep(std::time::Duration::from_millis(60));
        assert!(adm.admit(&row).is_ok());
    }

    #[test]
    fn probe_shape_definition() {
        assert_eq!(probe_distance(&[0, 0, 0], &[0, 0, 0]), Some(0));
        assert_eq!(probe_distance(&[0, 0, 0], &[0, 5, 0]), Some(1));
        assert_eq!(probe_distance(&[0, 0, 0], &[1, 5, 0]), None);
        assert_eq!(probe_distance(&[0, 0], &[0, 0, 0]), None);
    }

    #[test]
    fn exact_repeats_are_not_probes() {
        // A client polling one stable row must never be throttled as a
        // sweeper: repeats refresh the anchor but consume no sweep
        // budget.
        let mut adm = ConnectionAdmission::new(&AdmissionConfig {
            sweep_budget: 2,
            ..AdmissionConfig::default()
        });
        let row = vec![4u16; 8];
        for i in 0..20 {
            assert!(adm.admit(&row).is_ok(), "repeat {i}");
        }
        assert_eq!(adm.sweeps.served(), 0);
        // Single-feature deviations still count.
        let mut probe = row.clone();
        probe[0] = 7;
        assert!(adm.admit(&probe).is_ok());
        assert_eq!(adm.sweeps.served(), 1);
    }

    #[test]
    fn throttle_reasons_render() {
        assert!(ThrottleReason::BudgetExhausted { budget: 5 }
            .to_string()
            .contains('5'));
        assert!(ThrottleReason::RateExceeded.to_string().contains("rate"));
        assert!(ThrottleReason::SweepDetected { budget: 2 }
            .to_string()
            .contains("sweep"));
    }
}
