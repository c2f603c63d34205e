//! Process-wide kernel scan counters.
//!
//! Always-on relaxed atomics ticked once per block sweep (never per
//! row), so the cost is one `fetch_add` amortized over thousands of
//! row dot products. The serving stack's metrics plane reads these to
//! report how many class-memory rows the kernels have scanned, split
//! by similarity domain (binary Hamming vs integer dot). A scan that
//! reads only part of each row counts in full-row equivalents, so the
//! counters follow the work actually done: the coarse pass of pruned
//! top-k counts its prefix as that fraction of a row, and the binary
//! rescore, which continues from the coarse distance and stops at the
//! running k-th best, counts the words it reads past the probe.

use std::sync::atomic::{AtomicU64, Ordering};

static HAMMING_ROWS: AtomicU64 = AtomicU64::new(0);
static DOT_ROWS: AtomicU64 = AtomicU64::new(0);

/// Records `n` row-scans through a Hamming row kernel.
#[inline]
pub fn record_hamming_rows(n: u64) {
    HAMMING_ROWS.fetch_add(n, Ordering::Relaxed);
}

/// Records `n` row-scans through an integer dot row kernel.
#[inline]
pub fn record_dot_rows(n: u64) {
    DOT_ROWS.fetch_add(n, Ordering::Relaxed);
}

/// Total binary rows scanned by Hamming kernels since process start.
#[must_use]
pub fn hamming_rows() -> u64 {
    HAMMING_ROWS.load(Ordering::Relaxed)
}

/// Total integer rows scanned by dot kernels since process start.
#[must_use]
pub fn dot_rows() -> u64 {
    DOT_ROWS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let h0 = hamming_rows();
        let d0 = dot_rows();
        record_hamming_rows(5);
        record_dot_rows(7);
        assert!(hamming_rows() >= h0 + 5);
        assert!(dot_rows() >= d0 + 7);
    }
}
