//! The benchmark's own statistics: percentiles, the `tail` chooser,
//! the Poisson arrival generator, backlog-growth detection, the SLO
//! rate selection and due-time latency accounting. Everything here is
//! pure so the self-tests at the bottom can pin it down.

use ts3_rng::rngs::StdRng;
use ts3_rng::{Rng, SeedableRng};

/// Nearest-rank percentile (`q` in `[0, 100]`) of an ascending slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let n = sorted.len();
    let rank = ((q / 100.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// A latency summary: median plus the highest whole percentile that
/// still has at least [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median.
    pub p50: f64,
    /// Value at the tail percentile.
    pub tail: f64,
    /// Which percentile `tail` is (capped at 99).
    pub tail_pct: u32,
    /// Sample count.
    pub n: usize,
}

/// The tail percentile for `n` samples: the largest whole `p <= 99`
/// such that at least ten samples lie beyond nearest-rank `p`. `None`
/// when the sample is too small to have one.
pub fn tail_pct(n: usize) -> Option<u32> {
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut p = ((100 * (n - TAIL_BEYOND)) / n).min(99) as u32;
    // Nearest rank is ceil(p n / 100); step down until ten samples
    // remain beyond it (integer arithmetic, no float edge cases).
    while p > 0 && n - (p as usize * n).div_ceil(100) < TAIL_BEYOND {
        p -= 1;
    }
    Some(p)
}

/// Summarise a sample. With ten or fewer samples the tail is the
/// maximum and `tail_pct` reads 100; an empty sample (a run too short
/// to see any request) summarises as NaN, which fails the run's
/// every-metric-is-finite check.
pub fn summarize(values: &[f64]) -> Summary {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return Summary {
            p50: f64::NAN,
            tail: f64::NAN,
            tail_pct: 0,
            n,
        };
    }
    match tail_pct(n) {
        Some(p) => Summary {
            p50: percentile(&v, 50.0),
            tail: percentile(&v, p as f64),
            tail_pct: p,
            n,
        },
        None => Summary {
            p50: percentile(&v, 50.0),
            tail: v[n - 1],
            tail_pct: 100,
            n,
        },
    }
}

/// Latency per time slice: split `(time, value)` samples into slices of
/// about `slice_s` over `[0, duration)`, take each slice's median and its
/// value at one common tail percentile (the one the smallest slice
/// supports), and report the median of each over the slices, so a
/// stall of the shared host in a few slices does not set the figure.
/// Falls back to one pooled summary when a slice has too few samples.
pub fn sliced_summary(samples: &[(f64, f64)], duration: f64, slice_s: f64) -> Summary {
    let k = ((duration / slice_s).round() as usize).max(1);
    let parts = slices(samples, duration, k);
    let min_n = parts.iter().map(Vec::len).min().unwrap_or(0);
    let pooled: Vec<f64> = samples.iter().map(|s| s.1).collect();
    let Some(p) = tail_pct(min_n).filter(|_| k > 1) else {
        return summarize(&pooled);
    };
    let (mut p50s, mut tails) = (Vec::new(), Vec::new());
    for mut v in parts {
        v.sort_by(f64::total_cmp);
        p50s.push(percentile(&v, 50.0));
        tails.push(percentile(&v, p as f64));
    }
    Summary {
        p50: median(&p50s),
        tail: median(&tails),
        tail_pct: p,
        n: pooled.len(),
    }
}

/// Split `(time, value)` samples into `k` equal slices of `[0, duration)`
/// (samples at or past `duration` go to the last slice).
pub fn slices(samples: &[(f64, f64)], duration: f64, k: usize) -> Vec<Vec<f64>> {
    let mut out = vec![Vec::new(); k];
    for &(t, v) in samples {
        let i = ((t / duration * k as f64) as usize).min(k - 1);
        out[i].push(v);
    }
    out
}

/// Seeded Poisson process: arrival offsets in seconds within
/// `[0, duration_s)` at `rate_per_s`, ascending.
pub fn poisson_arrivals(rate_per_s: f64, duration_s: f64, seed: u64) -> Vec<f64> {
    assert!(
        rate_per_s > 0.0 && duration_s > 0.0,
        "poisson_arrivals: positive rate and duration"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        // Inverse-CDF exponential gap; 1 - u is in (0, 1], so ln is finite.
        let u: f64 = rng.gen::<f64>();
        t += -(1.0 - u).ln() / rate_per_s;
        if t >= duration_s {
            return out;
        }
        out.push(t);
    }
}

/// True when the queue grew over a phase instead of hovering: the
/// least-squares slope of `(seconds, queued)` samples, projected over
/// the phase, exceeds `max(floor, 5% of the arrivals)`. A server that
/// keeps up only ever holds a bounded batch or two.
pub fn backlog_growing(samples: &[(f64, f64)], arrivals: usize, floor: f64) -> bool {
    if samples.len() < 2 {
        return false;
    }
    let n = samples.len() as f64;
    let mx = samples.iter().map(|s| s.0).sum::<f64>() / n;
    let my = samples.iter().map(|s| s.1).sum::<f64>() / n;
    let sxx: f64 = samples.iter().map(|s| (s.0 - mx) * (s.0 - mx)).sum();
    let sxy: f64 = samples.iter().map(|s| (s.0 - mx) * (s.1 - my)).sum();
    if sxx <= 0.0 {
        return false;
    }
    let span = samples[samples.len() - 1].0 - samples[0].0;
    let growth = sxy / sxx * span;
    growth > floor.max(0.05 * arrivals as f64)
}

/// One rung of the serving ladder, as the SLO selection sees it.
#[derive(Debug, Clone, Copy)]
pub struct Rung {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Tail latency at this rate, ms.
    pub tail_ms: f64,
    /// Requests that failed (each one misses the limit).
    pub failed: usize,
    /// Whether the queue grew over the phase.
    pub backlog_growing: bool,
}

/// The highest rate on the ladder such that it and every lower rung meet
/// the limit: tail within `limit_ms`, no failed request, no growing
/// backlog. Returns 0 when even the lowest rung misses.
pub fn slo_rate(rungs: &[Rung], limit_ms: f64) -> f64 {
    let mut sorted = rungs.to_vec();
    sorted.sort_by(|a, b| a.rate.total_cmp(&b.rate));
    let mut best = 0.0;
    for r in sorted {
        if r.tail_ms > limit_ms || r.failed > 0 || r.backlog_growing {
            break;
        }
        best = r.rate;
    }
    best
}

/// Open-loop accounting for one request, in seconds since the phase
/// start: latency runs from when the request was *due*, not from when
/// the generator got round to sending it, so a stall that delays later
/// submissions is charged to them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DueTiming {
    /// Reply time minus due time.
    pub latency_s: f64,
    /// How late the generator submitted (submit minus due, never < 0).
    pub lateness_s: f64,
}

/// Account one request (all times in seconds since the phase start).
pub fn due_timing(due: f64, submitted: f64, replied: f64) -> DueTiming {
    DueTiming {
        latency_s: replied - due,
        lateness_s: (submitted - due).max(0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sliced_summary_ignores_stalls_in_a_minority_of_slices() {
        // Ten slices of 100 samples at 1..=100 ms; two slices stalled 10x.
        let mut v = Vec::new();
        for s in 0..10 {
            for i in 1..=100 {
                let stall = if s == 3 || s == 7 { 10.0 } else { 1.0 };
                v.push((s as f64 + i as f64 / 101.0, i as f64 * stall));
            }
        }
        let sum = sliced_summary(&v, 10.0, 1.0);
        assert_eq!(
            (sum.p50, sum.tail, sum.tail_pct, sum.n),
            (50.0, 90.0, 90, 1000)
        );
        // Too few samples per slice: one pooled summary.
        assert_eq!(sliced_summary(&v[..30], 10.0, 1.0).n, 30);
    }

    #[test]
    fn slices_partition_by_time() {
        let s = slices(&[(0.1, 1.0), (0.6, 2.0), (0.9, 3.0), (1.5, 4.0)], 1.0, 2);
        assert_eq!(s, vec![vec![1.0], vec![2.0, 3.0, 4.0]]);
    }

    #[test]
    fn poisson_same_seed_same_schedule() {
        let a = poisson_arrivals(200.0, 3.0, 11);
        let b = poisson_arrivals(200.0, 3.0, 11);
        let c = poisson_arrivals(200.0, 3.0, 12);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| (0.0..3.0).contains(&t)));
    }

    #[test]
    fn poisson_mean_rate_is_right() {
        for (rate, seed) in [(50.0, 1), (400.0, 2), (2000.0, 3)] {
            let d = 100.0;
            let n = poisson_arrivals(rate, d, seed).len() as f64;
            // Poisson count: sd = sqrt(rate * d); allow 4 sd.
            let tol = 4.0 * (rate * d).sqrt();
            assert!(
                (n - rate * d).abs() < tol,
                "rate {rate}: {n} arrivals in {d} s"
            );
        }
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_pct(10), None);
        assert_eq!(tail_pct(11), Some(9)); // nearest rank 1 of 11
        assert_eq!(tail_pct(20), Some(50));
        assert_eq!(tail_pct(100), Some(90));
        assert_eq!(tail_pct(1000), Some(99));
        assert_eq!(tail_pct(100_000), Some(99));
        for n in 11..3000 {
            let p = tail_pct(n).expect("n > 10 has a tail") as usize;
            let rank = (p * n).div_ceil(100);
            assert!(
                n - rank >= TAIL_BEYOND,
                "n {n}: p{p} leaves {} beyond",
                n - rank
            );
            if p < 99 {
                let rank_up = ((p + 1) * n).div_ceil(100);
                assert!(
                    n - rank_up < TAIL_BEYOND,
                    "n {n}: p{} would also fit",
                    p + 1
                );
            }
        }
    }

    #[test]
    fn summarize_reports_median_tail_and_count() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.p50, s.tail, s.tail_pct, s.n), (50.0, 90.0, 90, 100));
        let small = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((small.p50, small.tail, small.tail_pct), (2.0, 3.0, 100));
        assert!(summarize(&[]).p50.is_nan());
    }

    #[test]
    fn backlog_growth_detection() {
        // A server that keeps up: queue hovers between 0 and 8.
        let flat: Vec<(f64, f64)> = (0..400)
            .map(|i| (i as f64 * 0.01, (i % 9) as f64))
            .collect();
        assert!(!backlog_growing(&flat, 2000, 16.0));
        // Overload: 600 requests/s pile up over 4 s.
        let grow: Vec<(f64, f64)> = (0..400)
            .map(|i| (i as f64 * 0.01, 600.0 * i as f64 * 0.01))
            .collect();
        assert!(backlog_growing(&grow, 6000, 16.0));
        // One burst that drains again is not growth.
        let burst: Vec<(f64, f64)> = (0..400)
            .map(|i| {
                (
                    i as f64 * 0.01,
                    if (100..120).contains(&i) { 40.0 } else { 2.0 },
                )
            })
            .collect();
        assert!(!backlog_growing(&burst, 2000, 16.0));
        assert!(!backlog_growing(&[(0.0, 5.0)], 10, 16.0));
    }

    #[test]
    fn slo_rate_takes_highest_contiguous_passing_rung() {
        let r = |rate, tail_ms, failed, growing| Rung {
            rate,
            tail_ms,
            failed,
            backlog_growing: growing,
        };
        let ladder = [
            r(400.0, 30.0, 0, false),
            r(25.0, 5.0, 0, false),
            r(100.0, 12.0, 0, false),
            r(800.0, 80.0, 0, false),
            r(1600.0, 900.0, 0, true),
        ];
        assert_eq!(slo_rate(&ladder, 50.0), 400.0);
        assert_eq!(slo_rate(&ladder, 100.0), 800.0);
        // A failed request at 100/s caps the answer below it, even though
        // 400/s looks fine.
        let mut failing = ladder;
        failing[2].failed = 1;
        assert_eq!(slo_rate(&failing, 50.0), 25.0);
        // Growing backlog disqualifies a rung whose tail happens to pass.
        let mut grows = ladder;
        grows[0].backlog_growing = true;
        assert_eq!(slo_rate(&grows, 50.0), 100.0);
        assert_eq!(slo_rate(&ladder, 1.0), 0.0);
    }

    #[test]
    fn latency_counts_from_due_time_when_generator_runs_late() {
        // Due at 1.000 s, sent 5 ms late, answered 2 ms after sending.
        let t = due_timing(1.000, 1.005, 1.007);
        assert!((t.latency_s - 0.007).abs() < 1e-12);
        assert!((t.lateness_s - 0.005).abs() < 1e-12);
        // On time: lateness is zero and latency is the service time.
        let t = due_timing(2.0, 2.0, 2.003);
        assert_eq!(t.lateness_s, 0.0);
        assert!((t.latency_s - 0.003).abs() < 1e-12);
    }
}
