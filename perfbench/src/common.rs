//! Plumbing shared by the three workloads: operation accounting, metric
//! lists and the run clock.

use std::time::Instant;

use crate::stats::{median, percentile};

/// Attempted and failed operations, plus state checks.
///
/// A wrong answer, a `false` from `link`/`cut`, and a rejected or skipped
/// op each count as one failed operation.  A state check (a partition, a
/// singleton sweep, an epoch order) that does not hold makes the run
/// incorrect.
#[derive(Default)]
pub struct Check {
    pub attempted: u64,
    pub failed: u64,
    pub state_ok: bool,
    /// Failures and broken checks reported on standard error so far.
    reported: usize,
}

impl Check {
    pub fn new() -> Self {
        Check {
            state_ok: true,
            ..Default::default()
        }
    }

    pub fn ops(&mut self, n: usize) {
        self.attempted += n as u64;
    }

    /// Records `n` failed operations of the kind `what`.
    pub fn fail(&mut self, n: usize, what: impl FnOnce() -> String) {
        if n > 0 {
            self.failed += n as u64;
            self.note(what);
        }
    }

    /// Records a state check.
    pub fn state(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.state_ok = false;
            self.note(what);
        }
    }

    /// Reports the first 20 failures, so a broken run stays readable.
    fn note(&mut self, what: impl FnOnce() -> String) {
        if self.reported < 20 {
            eprintln!("check: {}", what());
            self.reported += 1;
        }
    }
}

/// Named metric values with their units, in print order.
#[derive(Default)]
pub struct Metrics(pub Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// How long the measured rounds of a run may take.
#[derive(Clone, Copy)]
pub struct Budget {
    end: Instant,
    min_rounds: usize,
}

impl Budget {
    pub fn new(seconds: f64, min_rounds: usize) -> Self {
        Budget {
            end: Instant::now() + std::time::Duration::from_secs_f64(seconds.max(0.0)),
            min_rounds,
        }
    }

    /// Whether another round starts after `done` rounds: whole rounds only,
    /// at least `min_rounds` of them.
    pub fn another(&self, done: usize) -> bool {
        done < self.min_rounds || Instant::now() < self.end
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Repeats `setup` `reps + 1` times and returns the median time of the last
/// `reps` (the first warms caches and the allocator) with the last result.
pub fn timed_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for rep in 0..=reps {
        drop(last.take());
        let t = Instant::now();
        let value = setup();
        if rep > 0 {
            times.push(secs(t));
        }
        last = Some(value);
    }
    (median(&times), last.expect("at least one set-up ran"))
}

/// The work and time of every measured round, for the end-to-end rates,
/// and every batch latency of the run.
///
/// A rate is the run's total operations over its total time (the mean
/// over rounds, weighted by time), and the latency is the median of all
/// batches pooled: host speed on this class of machine drifts in phases
/// of seconds, and these statistics held steadier between runs than the
/// median round (see `README.md`).
#[derive(Default)]
pub struct Series {
    /// (operations, seconds) per round: single updates, batched updates,
    /// queries.
    rates: [Vec<(f64, f64)>; 3],
    latencies_us: Vec<f64>,
}

const RATES: [&str; 3] = [
    "update_ops_per_s",
    "batch_update_ops_per_s",
    "query_ops_per_s",
];

/// The rates that are end-to-end metrics.  The query rate is a reference
/// figure on standard error only: between runs it spread 15-31 % of its
/// median, past any bound a metric may have (see `README.md`).
const BOUNDED_RATES: usize = 2;

impl Series {
    /// Records one round: `(ops, seconds)` of its single updates, batched
    /// updates and queries, and the wall time of each of its batches.
    pub fn round(&mut self, rates: [(f64, f64); 3], batch_latencies_us: &[f64]) {
        for (series, r) in self.rates.iter_mut().zip(rates) {
            series.push(r);
        }
        self.latencies_us.extend_from_slice(batch_latencies_us);
    }

    fn rate(&self, i: usize) -> f64 {
        let (ops, secs) = (self.rates[i].iter()).fold((0.0, 0.0), |a, r| (a.0 + r.0, a.1 + r.1));
        ops / secs
    }

    pub fn put(&self, out: &mut Metrics) {
        for (i, name) in RATES.iter().enumerate().take(BOUNDED_RATES) {
            out.put(name, self.rate(i), "1/s");
        }
        out.put("batch_latency_p50_us", median(&self.latencies_us), "us");
    }

    /// Logs every round's rates and the pooled latency percentiles on
    /// standard error.  A p99 is shown only with at least ten batches
    /// beyond it.
    pub fn log(&self) {
        for (name, series) in RATES.iter().zip(&self.rates) {
            let v: Vec<String> = series.iter().map(|r| format!("{:.1}", r.0 / r.1)).collect();
            eprintln!("rounds {name}: {}", v.join(" "));
        }
        eprintln!(
            "query_ops_per_s (reference, not bounded): {:.1}",
            self.rate(2)
        );
        let lat = &self.latencies_us;
        let p99 = if lat.len() >= 1000 {
            format!("{:.1} us", percentile(lat, 99.0))
        } else {
            "n/a".to_string()
        };
        eprintln!(
            "batch latency: {} batches, p50 {:.1} us, p99 {p99}",
            lat.len(),
            median(lat)
        );
    }
}
