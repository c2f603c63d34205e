//! The benchmark's own arithmetic: medians, percentiles of latencies
//! timed from the scheduled send, windowed rates and generator lateness.
//! Every time is in seconds since the start of its phase.

/// Median of `values`; the mean of the middle pair for an even count.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 100). Infinite entries — a
/// request that failed or was never answered — sort above every
/// finite latency, so they count as over any limit.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// Completion times (ascending) grouped into the whole windows of
/// `width` seconds over `[0, span)`; later completions are dropped.
fn by_window(times: &[f64], width: f64, span: f64) -> Vec<Vec<f64>> {
    let n = ((span / width + 1e-9).floor() as usize).max(1);
    let mut windows = vec![Vec::new(); n];
    for &t in times {
        let w = (t.max(0.0) / width) as usize;
        if w < n {
            windows[w].push(t);
        }
    }
    windows
}

/// Completions per second in each whole window of `width` seconds over
/// `[0, span)`. Answers arrive in batches, so a plain count per window
/// moves in steps of a batch; the rate is instead the completions after
/// the window's first arrival divided by the time from its first to its
/// last arrival. A window with a single arrival time falls back to
/// count / width. `completions` must be ascending.
pub fn window_rates(completions: &[f64], width: f64, span: f64) -> Vec<f64> {
    by_window(completions, width, span)
        .iter()
        .map(|w| match (w.first(), w.last()) {
            (Some(&first), Some(&last)) if last > first => {
                let after_first = w.iter().filter(|&&t| t > first).count();
                after_first as f64 / (last - first)
            }
            _ => w.len() as f64 / width,
        })
        .collect()
}

/// Completions in each whole window of `width` seconds over `[0, span)`.
pub fn window_counts(completions: &[f64], width: f64, span: f64) -> Vec<usize> {
    by_window(completions, width, span)
        .iter()
        .map(Vec::len)
        .collect()
}

/// The median over whole `width`-second windows (by scheduled send) of
/// each window's nearest-rank percentile `p` of `latencies`. A stall
/// confined to a minority of windows does not move it.
pub fn windowed_percentile(
    scheduled: &[f64],
    latencies: &[f64],
    width: f64,
    span: f64,
    p: f64,
) -> Option<f64> {
    let n = ((span / width + 1e-9).floor() as usize).max(1);
    let mut windows = vec![Vec::new(); n];
    for (&s, &l) in scheduled.iter().zip(latencies) {
        let w = (s.max(0.0) / width) as usize;
        if w < n {
            windows[w].push(l);
        }
    }
    let per: Vec<f64> = windows.iter().filter_map(|w| percentile(w, p)).collect();
    median(&per)
}

/// Open-loop latency of every request, measured from when it was *due*
/// (`scheduled`), not from when the generator got round to sending it:
/// a stall that delays later sends is charged to those requests.
/// `received[i] = None` (failed, refused, never answered) is infinite.
pub fn scheduled_latencies(scheduled: &[f64], received: &[Option<f64>]) -> Vec<f64> {
    scheduled
        .iter()
        .zip(received)
        .map(|(&s, r)| r.map_or(f64::INFINITY, |r| r - s))
        .collect()
}

/// How far behind schedule the generator sent each request.
pub fn lateness(scheduled: &[f64], sent: &[f64]) -> Vec<f64> {
    scheduled.iter().zip(sent).map(|(s, t)| t - s).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn windowed_median_ignores_a_stalled_window() {
        // 10 completions per 0.1 s window for 1 s, except window 4 where
        // the host stalled and only 1 completed.
        let mut done = Vec::new();
        for w in 0..10 {
            let n = if w == 4 { 1 } else { 10 };
            for i in 0..n {
                done.push(w as f64 * 0.1 + (i as f64 + 0.5) * 0.1 / n as f64);
            }
        }
        done.push(1.05); // after the span: not counted
        let rates = window_rates(&done, 0.1, 1.0);
        assert_eq!(rates.len(), 10);
        assert!((rates[4] - 10.0).abs() < 1e-9);
        assert!((median(&rates).unwrap() - 100.0).abs() < 1e-9);
        assert_eq!(window_counts(&done, 0.1, 1.0)[4], 1);
    }

    #[test]
    fn batched_arrivals_do_not_quantize_the_rate() {
        // Batches of 64 every 20 ms: 3200 req/s, although a 0.25 s
        // window holds either 12 or 13 whole batches.
        let done: Vec<f64> = (0..100)
            .flat_map(|b| std::iter::repeat_n(0.005 + b as f64 * 0.02, 64))
            .collect();
        for r in window_rates(&done, 0.25, 2.0) {
            assert!((r - 3200.0).abs() < 1e-6, "{r}");
        }
    }

    #[test]
    fn windowed_percentile_ignores_a_stalled_window() {
        // Three 1 s windows of 10 requests; the middle one stalled.
        let scheduled: Vec<f64> = (0..30).map(|i| i as f64 * 0.1).collect();
        let lat: Vec<f64> = (0..30)
            .map(|i| {
                if (10..20).contains(&i) {
                    0.5
                } else {
                    0.001 * (1 + i % 10) as f64
                }
            })
            .collect();
        let p90 = windowed_percentile(&scheduled, &lat, 1.0, 3.0, 90.0).unwrap();
        assert!((p90 - 0.009).abs() < 1e-12, "{p90}");
        assert!(percentile(&lat, 90.0).unwrap() > 0.4);
    }

    #[test]
    fn stall_is_charged_to_the_requests_it_delayed() {
        // Due every 1 ms; the generator stalled 5 ms before sending #2,
        // then caught up. Each answer takes 0.5 ms after its send.
        let scheduled = [0.000, 0.001, 0.002, 0.003];
        let sent = [0.000, 0.001, 0.007, 0.007];
        let received: Vec<Option<f64>> = sent.iter().map(|s| Some(s + 0.0005)).collect();
        let lat = scheduled_latencies(&scheduled, &received);
        let want = [0.0005, 0.0005, 0.0055, 0.0045];
        for (l, w) in lat.iter().zip(want) {
            assert!((l - w).abs() < 1e-12, "{lat:?}");
        }
        let late = lateness(&scheduled, &sent);
        assert!((percentile(&late, 100.0).unwrap() - 0.005).abs() < 1e-12);
        assert!((percentile(&late, 50.0).unwrap() - 0.0).abs() < 1e-12);
        // p50 of {0.5, 0.5, 4.5, 5.5} ms by nearest rank is 0.5 ms; p90
        // lands on the stalled request.
        assert!((percentile(&lat, 50.0).unwrap() - 0.0005).abs() < 1e-12);
        assert!((percentile(&lat, 90.0).unwrap() - 0.0055).abs() < 1e-12);
    }

    #[test]
    fn failed_requests_count_as_over_any_limit() {
        let scheduled = [0.0, 0.1, 0.2, 0.3];
        let received = [Some(0.001), None, Some(0.201), Some(0.301)];
        let lat = scheduled_latencies(&scheduled, &received);
        assert!(lat[1].is_infinite());
        assert_eq!(percentile(&lat, 100.0), Some(f64::INFINITY));
        assert!((percentile(&lat, 50.0).unwrap() - 0.001).abs() < 1e-12);
    }

    #[test]
    fn lateness_is_zero_when_on_time() {
        let s = [0.0, 0.5, 1.0];
        assert_eq!(lateness(&s, &s), vec![0.0; 3]);
    }
}
