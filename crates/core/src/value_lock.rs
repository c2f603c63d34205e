//! Why HDLock does **not** lock the value hypervectors — the paper's
//! Sec. 4.1 dilemma, made executable.
//!
//! Value hypervectors must stay linearly correlated (Eq. 1b) or the
//! encoder loses accuracy. Deriving them from a base pool therefore
//! forces a choice:
//!
//! * **Shared rotation** — derive each level from a *correlated* base
//!   family with one common rotation. Linearity survives, but the pool
//!   itself is now correlated, so an attacker orders the dumped pool by
//!   pairwise Hamming distance and recovers the value mapping with *no
//!   oracle queries at all*: the lock adds nothing.
//! * **Independent rotations** — rotate each level's base differently.
//!   The pool looks random, but rotation destroys the inter-level
//!   correlation, so Eq. 1b breaks and encoding quality collapses.
//!
//! [`analyze_value_locking`] quantifies both horns; the tests pin the
//! dilemma down numerically.

use hypervec::{BinaryHv, HvRng, LevelHvs};

/// Which value-locking construction to analyze.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueLockStrategy {
    /// One common rotation for every level: preserves linearity, leaks
    /// order through the public pool.
    SharedRotation,
    /// A fresh random rotation per level: hides order, destroys
    /// linearity.
    IndependentRotations,
}

/// Outcome of analyzing a value-locking construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValueLockAnalysis {
    /// Worst absolute deviation of the *derived* levels' pairwise
    /// normalized distance from the Eq. 1b linear prediction. Near 0
    /// means the encoder still works; near 0.5 means levels are
    /// scrambled.
    pub linearity_error: f64,
    /// Fraction of adjacent level pairs an **oracle-free** attacker
    /// recovers by sorting the public pool's pairwise distances. 1.0
    /// means the mapping leaks completely from the dump alone.
    pub order_leak: f64,
    /// Strategy analyzed.
    pub strategy: ValueLockStrategy,
}

/// Builds a value-locking construction for `m` levels in dimension
/// `dim` and measures both security and fidelity.
///
/// # Panics
///
/// Panics if `m < 3` (the dilemma needs interior levels) or the level
/// family cannot be generated.
#[must_use]
pub fn analyze_value_locking(
    rng: &mut HvRng,
    dim: usize,
    m: usize,
    strategy: ValueLockStrategy,
) -> ValueLockAnalysis {
    assert!(
        m >= 3,
        "need at least 3 levels to observe the correlation structure"
    );
    // The "pool" for value locking must itself be a correlated family
    // (that is the paper's point): base b_v generates level v.
    let base_family = LevelHvs::generate(rng, dim, m).expect("valid level family");
    let shared_rotation = rng.index(dim);
    let rotations: Vec<usize> = match strategy {
        ValueLockStrategy::SharedRotation => vec![shared_rotation; m],
        ValueLockStrategy::IndependentRotations => (0..m).map(|_| rng.index(dim)).collect(),
    };
    let derived: Vec<BinaryHv> = (0..m)
        .map(|v| base_family.level(v).rotated(rotations[v]))
        .collect();

    // Fidelity: do the derived levels still follow Eq. 1b?
    let steps = (m - 1) as f64;
    let mut linearity_error = 0.0f64;
    for a in 0..m {
        for b in (a + 1)..m {
            let measured = derived[a].normalized_hamming(&derived[b]);
            let predicted = 0.5 * (b - a) as f64 / steps;
            linearity_error = linearity_error.max((measured - predicted).abs());
        }
    }

    // Security: can an attacker order the *public pool* (the base
    // family, as dumped) by distances alone? Walk greedily from one
    // endpoint; count adjacent pairs recovered.
    let order_leak = pool_order_leak(base_family.levels());

    ValueLockAnalysis {
        linearity_error,
        order_leak,
        strategy,
    }
}

/// Greedy nearest-neighbour chaining over a dumped pool: the fraction of
/// true-adjacent pairs recovered. Correlated pools leak ≈ 1.0.
fn pool_order_leak(pool: &[BinaryHv]) -> f64 {
    let m = pool.len();
    // Endpoint = the row with the largest distance to some other row.
    let mut best = (0usize, 0usize, 0usize);
    for i in 0..m {
        for j in (i + 1)..m {
            let d = pool[i].hamming(&pool[j]);
            if d > best.2 {
                best = (i, j, d);
            }
        }
    }
    let mut order = vec![best.0];
    let mut used = vec![false; m];
    used[best.0] = true;
    while order.len() < m {
        let last = *order.last().expect("non-empty");
        let next = (0..m)
            .filter(|&r| !used[r])
            .min_by_key(|&r| pool[last].hamming(&pool[r]))
            .expect("rows remain");
        used[next] = true;
        order.push(next);
    }
    let recovered = order
        .windows(2)
        .filter(|w| w[1] == w[0] + 1 || w[0] == w[1] + 1)
        .count();
    recovered as f64 / (m - 1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_rotation_keeps_linearity_but_leaks_order() {
        let mut rng = HvRng::from_seed(1);
        let a = analyze_value_locking(&mut rng, 10_000, 8, ValueLockStrategy::SharedRotation);
        assert!(
            a.linearity_error < 0.02,
            "linearity error {}",
            a.linearity_error
        );
        assert!(a.order_leak > 0.99, "order leak {}", a.order_leak);
    }

    #[test]
    fn independent_rotations_hide_nothing_useful() {
        let mut rng = HvRng::from_seed(2);
        let a = analyze_value_locking(&mut rng, 10_000, 8, ValueLockStrategy::IndependentRotations);
        // the derived levels no longer follow Eq. 1b at all
        assert!(
            a.linearity_error > 0.2,
            "linearity error {}",
            a.linearity_error
        );
        // and the pool still leaks (the bases themselves stay correlated)
        assert!(a.order_leak > 0.99, "order leak {}", a.order_leak);
    }

    #[test]
    fn random_pool_does_not_leak_order() {
        // Control: orthogonal pools (like HDLock's feature bases) give
        // the greedy chainer nothing to work with.
        let mut rng = HvRng::from_seed(3);
        let pool = rng.orthogonal_pool(10_000, 8);
        let leak = pool_order_leak(&pool);
        assert!(leak < 0.6, "random pool leaked {leak}");
    }

    #[test]
    #[should_panic(expected = "at least 3 levels")]
    fn needs_three_levels() {
        let mut rng = HvRng::from_seed(4);
        let _ = analyze_value_locking(&mut rng, 1024, 2, ValueLockStrategy::SharedRotation);
    }
}
