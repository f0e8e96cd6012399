//! Sample statistics, failure accounting, tick-domain latency attribution
//! and the thread-budget guard. Pure functions, unit-tested below.

/// Nearest-rank `q`-quantile (`0.0..=1.0`) of unsorted samples (`NaN`
/// when empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    cp_serve::sched::quantile(samples, q).unwrap_or(f64::NAN)
}

/// Median of unsorted samples (`NaN` when empty).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The percentile ladder a tail is chosen from, highest first.
const LADDER: [f64; 4] = [0.999, 0.99, 0.9, 0.5];

/// The highest percentile of [`LADDER`] that leaves at least ten samples
/// strictly beyond it in a set of `n`, or `None` when even the median
/// does not (fewer than 20 samples).
pub fn supported_percentile(n: usize) -> Option<f64> {
    LADDER.into_iter().find(|&p| {
        let at = ((n as f64) * p).ceil() as usize;
        n.saturating_sub(at) >= 10
    })
}

/// A latency distribution as reported: median, the fixed-name p90, and
/// the highest percentile the sample count supports, with that count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Number of samples, failed requests included.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// Nearest-rank 90th percentile.
    pub p90: f64,
    /// Highest percentile with at least ten samples beyond it, and its
    /// value; `None` below 20 samples.
    pub supported: Option<(f64, f64)>,
}

impl Tail {
    /// Summarises `samples`. A failed request enters as `f64::INFINITY`,
    /// so it misses every latency percentile it reaches.
    pub fn of(samples: &[f64]) -> Tail {
        Tail {
            n: samples.len(),
            p50: quantile(samples, 0.5),
            p90: quantile(samples, 0.9),
            supported: supported_percentile(samples.len()).map(|p| (p, quantile(samples, p))),
        }
    }

    /// One human-readable line: `p50 .. p90 .. (n=.., supported pXX ..)`.
    pub fn describe(&self, unit: &str) -> String {
        let tail = match self.supported {
            Some((p, v)) => format!("highest supported p{} = {v:.6} {unit}", p * 100.0),
            None => "no percentile has 10 samples beyond it".to_string(),
        };
        format!(
            "p50 {:.6} {unit}, p90 {:.6} {unit} (n={}; {tail})",
            self.p50, self.p90, self.n
        )
    }
}

/// Position-wise median over units that repeat the same work:
/// `out[i]` is the median of `units[u][i]` over the units long enough to
/// have position `i`.
pub fn position_medians(units: &[&Vec<f64>]) -> Vec<f64> {
    let len = units.iter().map(|u| u.len()).max().unwrap_or(0);
    (0..len)
        .map(|i| {
            median(
                &units
                    .iter()
                    .filter_map(|u| u.get(i).copied())
                    .collect::<Vec<_>>(),
            )
        })
        .collect()
}

/// Attempted/failed request accounting. A failed request contributes an
/// infinite latency sample to every distribution it belongs to.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Requests attempted.
    pub attempted: u64,
    /// Requests that failed (engine or scheduler error, or an output
    /// that did not pass the correctness gate).
    pub failed: u64,
}

impl Tally {
    /// Records one request outcome.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Share of attempted requests served without failure (1.0 when
    /// nothing was attempted, which the caller reports as a failed run).
    pub fn ok_share(&self) -> f64 {
        if self.attempted == 0 {
            return 1.0;
        }
        (self.attempted - self.failed) as f64 / self.attempted as f64
    }
}

/// Failed requests of one timed unit of `n`: all of them when the unit
/// errored or did not repeat the first unit's outputs bit for bit, else
/// each request the correctness gate rejected (`request_ok` false).
pub fn unit_failures(
    n: usize,
    repeated: bool,
    request_ok: impl IntoIterator<Item = bool>,
) -> usize {
    if !repeated {
        return n;
    }
    request_ok.into_iter().filter(|ok| !ok).count().min(n)
}

/// Wall-clock time per scheduler tick, for turning tick-domain latencies
/// into seconds: a latency spanning ticks `a..=k` costs the wall time of
/// exactly those ticks.
#[derive(Debug, Clone, Default)]
pub struct TickClock {
    /// `cum[i]` = summed wall time of ticks `0..i`.
    cum: Vec<f64>,
}

impl TickClock {
    /// Records the wall time of the next tick.
    pub fn push(&mut self, wall_s: f64) {
        let last = self.cum.last().copied().unwrap_or(0.0);
        if self.cum.is_empty() {
            self.cum.push(0.0);
        }
        self.cum.push(last + wall_s);
    }

    /// Ticks recorded so far.
    pub fn ticks(&self) -> u64 {
        self.cum.len().saturating_sub(1) as u64
    }

    /// Summed wall time of ticks `first..=last` (0 for an empty range).
    pub fn span(&self, first: u64, last: u64) -> f64 {
        if first > last || last >= self.ticks() {
            return 0.0;
        }
        self.cum[last as usize + 1] - self.cum[first as usize]
    }

    /// TTFT in seconds of a token emitted at tick `at` whose request (or
    /// turn) became due `ticks` ticks earlier: ticks `at-ticks..=at`.
    pub fn ttft(&self, at: u64, ticks: u64) -> f64 {
        self.span(at.saturating_sub(ticks), at)
    }

    /// TBT in seconds of a token emitted at tick `at`, `ticks` ticks after
    /// the previous one: ticks `at-ticks+1..=at`.
    pub fn tbt(&self, at: u64, ticks: u64) -> f64 {
        self.span((at + 1).saturating_sub(ticks), at)
    }
}

/// Refuses a timed configuration whose compute threads (`ranks` ×
/// `pool_threads`) exceed the cores available (`nproc`), since the
/// numbers would then measure oversubscription. A pool width of 0 is the
/// engine's machine-sized default, `nproc` threads per rank.
pub fn check_thread_budget(ranks: usize, pool_threads: usize, nproc: usize) -> Result<(), String> {
    let width = if pool_threads == 0 {
        nproc
    } else {
        pool_threads
    };
    let threads = ranks.saturating_mul(width);
    if threads > nproc {
        return Err(format!(
            "timed config needs {ranks} ranks x {pool_threads} pool threads = {threads} \
             compute threads, but only {nproc} cores are available"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn supported_percentile_needs_ten_samples_beyond() {
        assert_eq!(supported_percentile(0), None);
        assert_eq!(supported_percentile(19), None);
        assert_eq!(supported_percentile(20), Some(0.5));
        assert_eq!(supported_percentile(99), Some(0.5));
        assert_eq!(supported_percentile(100), Some(0.9));
        assert_eq!(supported_percentile(999), Some(0.9));
        assert_eq!(supported_percentile(1000), Some(0.99));
        assert_eq!(supported_percentile(10_000), Some(0.999));
    }

    #[test]
    fn tail_reports_nearest_rank_values_and_count() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = Tail::of(&samples);
        assert_eq!(t.n, 100);
        assert_eq!(t.p50, 50.0);
        assert_eq!(t.p90, 90.0);
        assert_eq!(t.supported, Some((0.9, 90.0)));
        let small = Tail::of(&[3.0, 1.0, 2.0]);
        assert_eq!((small.p50, small.p90, small.supported), (2.0, 3.0, None));
        assert!(small.describe("s").contains("n=3"));
    }

    #[test]
    fn position_medians_ignore_a_minority_of_bursty_units() {
        let calm: Vec<f64> = (1..=10).map(f64::from).collect();
        let bursty: Vec<f64> = calm.iter().map(|v| v * 10.0).collect();
        let short = vec![100.0; 3];
        assert_eq!(position_medians(&[&calm, &bursty, &calm]), calm);
        // A short unit only votes on the positions it has.
        let m = position_medians(&[&calm, &short, &calm, &short]);
        assert_eq!((m[2], m[3], m.len()), (3.0, 4.0, 10));
        assert!(position_medians(&[]).is_empty());
    }

    #[test]
    fn tick_clock_sums_the_ticks_a_latency_spans() {
        let mut c = TickClock::default();
        for w in [1.0, 2.0, 4.0, 8.0, 16.0] {
            c.push(w);
        }
        assert_eq!(c.ticks(), 5);
        // Due at tick 1, first token at tick 3: ticks 1, 2, 3.
        assert_eq!(c.ttft(3, 2), 2.0 + 4.0 + 8.0);
        // Due and served in the same tick: that tick alone.
        assert_eq!(c.ttft(4, 0), 16.0);
        // Previous token at tick 2, this one at tick 4: ticks 3 and 4.
        assert_eq!(c.tbt(4, 2), 8.0 + 16.0);
        assert_eq!(c.tbt(1, 1), 2.0);
        // Out-of-range spans are empty, never a panic.
        assert_eq!(c.span(3, 9), 0.0);
        assert_eq!(c.span(4, 2), 0.0);
    }

    #[test]
    fn failures_count_against_attempts_and_miss_every_percentile() {
        let mut tally = Tally::default();
        for i in 0..10 {
            tally.record(i != 0);
        }
        assert_eq!((tally.attempted, tally.failed), (10, 1));
        assert!((tally.ok_share() - 0.9).abs() < 1e-12);
        assert_eq!(Tally::default().ok_share(), 1.0);
        // A failed request is an infinite sample: it misses the p90 once
        // it is more than a tenth of the samples.
        let mut ttft = vec![1.0; 9];
        ttft.push(f64::INFINITY);
        assert_eq!(Tail::of(&ttft).p90, 1.0);
        ttft.push(f64::INFINITY);
        assert!(Tail::of(&ttft).p90.is_infinite());
    }

    #[test]
    fn a_unit_fails_the_requests_the_gate_rejects_or_all_when_not_repeated() {
        assert_eq!(unit_failures(4, true, [true; 4]), 0);
        assert_eq!(unit_failures(4, true, [true, false, true, false]), 2);
        assert_eq!(unit_failures(4, false, [true; 4]), 4);
        assert_eq!(unit_failures(2, true, [false; 5]), 2);
    }

    #[test]
    fn thread_budget_refuses_oversubscription() {
        assert!(check_thread_budget(2, 1, 2).is_ok());
        assert!(check_thread_budget(1, 1, 2).is_ok());
        assert!(check_thread_budget(2, 2, 2).is_err());
        assert!(check_thread_budget(4, 1, 2).is_err());
        // Pool width 0 is machine-sized: nproc threads per rank.
        assert!(check_thread_budget(2, 0, 2).is_err());
        assert!(check_thread_budget(1, 0, 2).is_ok());
        let msg = check_thread_budget(2, 1, 1).unwrap_err();
        assert!(msg.contains("only 1 cores"), "{msg}");
    }
}
