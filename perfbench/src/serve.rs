//! The serving layer: `ServingEngine<UfoForest>` applying churn batches
//! below `PAR_GRAIN` (so the pool stays idle), each publishing a snapshot,
//! while one reader thread queries a `ReadHandle` in a closed loop.  A
//! round is a run of batches and then a run of single-op applies; the
//! reader runs across all of them.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use dyntree_connectivity::{GraphOp, UfoConnectivity};
use dyntree_serve::{ReadHandle, UfoServingEngine};
use ufo_forest::SumMinMax;

use crate::common::{secs, Budget, Check, Metrics, Series};
use crate::graph::EdgeSet;
use crate::oracle::Dsu;
use crate::rng::Rng;
use crate::trace::{self, span, Span};

/// Shape of a serving round.
#[derive(Clone, Copy)]
pub struct Shape {
    /// Share of the edges failed before the first round.
    pub failed_share: f64,
    /// Deletes (and as many inserts) per batch.
    pub batch_pairs: usize,
    pub batches_per_round: usize,
    /// Single-op applies per round (alternating delete and insert).
    pub singles_per_round: usize,
}

/// Span names of the serving engine's and the bare engine's applies.
const BATCH: [&str; 2] = ["serve.apply", "serve.bare_apply"];
const SINGLE: [&str; 2] = ["serve.apply_single", "serve.bare_apply_single"];
const PRIME: [&str; 2] = ["serve.prime", "serve.bare_prime"];

/// Reads per reader span and per shared-counter update.
const CHUNK: usize = 256;
/// One reader answer in this many is kept for the epoch check.
const SAMPLE_EVERY: u64 = 1021;
const MAX_SAMPLES: usize = 1 << 16;
/// Distinct epochs whose samples are checked against a rebuilt union-find.
const CHECKED_EPOCHS: usize = 256;

#[derive(Clone, Copy)]
enum Query {
    Connected(usize, usize),
    Size(usize),
}

struct Sample {
    epoch: u64,
    query: Query,
    answer: u64,
}

/// What the reader thread saw.
pub struct Reader {
    samples: Vec<Sample>,
    pub reads: u64,
    pub epoch_regressions: u64,
    pub lag_sum: u64,
    pub lag_n: u64,
    pub spans: Vec<Span>,
}

pub struct Round {
    pub batch_s: f64,
    pub batch_ops: usize,
    pub lat_us: Vec<f64>,
    pub single_s: f64,
    pub singles: usize,
    pub reads: u64,
    pub window_s: f64,
}

impl Round {
    /// The writer's end-to-end seconds in this round.
    pub fn wall(&self) -> f64 {
        self.batch_s + self.single_s
    }
}

pub struct Rounds {
    pub rounds: Vec<Round>,
}

impl Rounds {
    pub fn series(&self) -> Series {
        let mut out = Series::default();
        for r in &self.rounds {
            let rates = [
                (r.singles as f64, r.single_s),
                (r.batch_ops as f64, r.batch_s),
                (r.reads as f64, r.window_s),
            ];
            out.round(rates, &r.lat_us);
        }
        out
    }
}

fn build_ops(n: usize, edges: &[(usize, usize)]) -> Vec<GraphOp> {
    let inserts = edges.iter().map(|&(u, v)| GraphOp::InsertEdge(u, v));
    std::iter::once(GraphOp::AddVertices(n))
        .chain(inserts)
        .collect()
}

/// A serving engine over `n` vertices with every edge of `edges` inserted
/// in one batch (the set-up's build).
pub fn build(n: usize, edges: &[(usize, usize)], chk: &mut Check) -> UfoServingEngine {
    let ops = build_ops(n, edges);
    let _s = span("serve.build");
    _s.calls(ops.len());
    let mut se = UfoServingEngine::new(0);
    let report = se.apply(&ops);
    drop(_s);
    chk.ops(ops.len());
    chk.fail(ops.len() - report.applied, || {
        "set-up ops not applied".into()
    });
    se
}

/// A bare engine in the state [`build`] leaves the serving engine in, for
/// the traced runs that isolate publication.
pub fn build_bare(n: usize, edges: &[(usize, usize)], chk: &mut Check) -> UfoConnectivity {
    let ops = build_ops(n, edges);
    let _s = span("connectivity.build");
    _s.calls(ops.len());
    let mut g = UfoConnectivity::new(0);
    let report = g.apply(&ops);
    drop(_s);
    chk.ops(ops.len());
    chk.fail(ops.len() - report.applied, || {
        "bare set-up ops not applied".into()
    });
    g
}

/// The writer side of a run: the engine, an optional bare engine fed the
/// same batches (traced runs, to isolate publication) and the benchmark's
/// own edge set.
pub struct Writer<'a> {
    pub se: &'a mut UfoServingEngine,
    pub bare: Option<&'a mut UfoConnectivity>,
    pub set: &'a mut EdgeSet,
    /// Every applied batch since the reader started, with its epoch.
    log: Vec<(u64, Vec<GraphOp>)>,
}

impl<'a> Writer<'a> {
    pub fn new(
        se: &'a mut UfoServingEngine,
        bare: Option<&'a mut UfoConnectivity>,
        set: &'a mut EdgeSet,
    ) -> Self {
        Writer {
            se,
            bare,
            set,
            log: Vec::new(),
        }
    }

    /// Applies one batch; returns its wall time in µs.  `spans` names the
    /// serving engine's span and the bare engine's.
    fn apply(&mut self, ops: Vec<GraphOp>, spans: [&'static str; 2], chk: &mut Check) -> f64 {
        let t = Instant::now();
        let report = {
            let _s = span(spans[0]);
            self.se.apply(&ops)
        };
        let us = secs(t) * 1e6;
        chk.ops(ops.len());
        chk.fail(ops.len() - report.applied, || {
            format!(
                "batch: {} skipped, {} rejected",
                report.skipped, report.rejected
            )
        });
        if let Some(bare) = self.bare.as_deref_mut() {
            let r = {
                let _s = span(spans[1]);
                bare.apply(&ops)
            };
            chk.state(r.outcomes == report.outcomes, || {
                "bare engine outcomes differ from the serving engine's".into()
            });
        }
        self.log.push((report.version, ops));
        us
    }

    /// The first failure waves, in batches, so the snapshot ring is full
    /// before anything is measured.
    pub fn prime(&mut self, shape: &Shape, rng: &mut Rng, chk: &mut Check) {
        let k = (self.set.live.len() as f64 * shape.failed_share) as usize;
        for _ in 0..k.div_ceil(2 * shape.batch_pairs) {
            let ops = (0..2 * shape.batch_pairs)
                .map(|_| {
                    let (u, v) = self.set.fail_one(rng);
                    GraphOp::DeleteEdge(u, v)
                })
                .collect();
            self.apply(ops, PRIME, chk);
        }
        self.log = Vec::new();
    }

    fn round(&mut self, shape: &Shape, reads: &AtomicU64, rng: &mut Rng, chk: &mut Check) -> Round {
        let (batches, singles) = {
            let _s = span("bench.inputs");
            let batches: Vec<Vec<GraphOp>> = (0..shape.batches_per_round)
                .map(|_| self.set.wave(shape.batch_pairs, rng))
                .collect();
            let singles: Vec<GraphOp> = (0..shape.singles_per_round)
                .map(|i| {
                    if i % 2 == 0 {
                        let (u, v) = self.set.fail_one(rng);
                        GraphOp::DeleteEdge(u, v)
                    } else {
                        let (u, v) = self.set.repair_one(rng);
                        GraphOp::InsertEdge(u, v)
                    }
                })
                .collect();
            (batches, singles)
        };
        let batch_ops = batches.iter().map(Vec::len).sum();
        let r0 = reads.load(Ordering::Relaxed);
        let t0 = Instant::now();
        let lat_us: Vec<f64> = (batches.into_iter())
            .map(|b| self.apply(b, BATCH, chk))
            .collect();
        let n_singles = singles.len();
        let single_us: f64 = (singles.into_iter())
            .map(|op| self.apply(vec![op], SINGLE, chk))
            .sum();
        let window_s = secs(t0);
        let reads = reads.load(Ordering::Relaxed) - r0;
        Round {
            batch_s: lat_us.iter().sum::<f64>() / 1e6,
            batch_ops,
            lat_us,
            single_s: single_us / 1e6,
            singles: n_singles,
            reads,
            window_s,
        }
    }

    /// One warm-up round, then whole rounds until `budget` is spent, with
    /// one reader thread querying throughout.  Checks the reader's epochs
    /// and sampled answers and the final snapshot afterwards.
    pub fn rounds(
        &mut self,
        shape: &Shape,
        budget: Budget,
        rng: &mut Rng,
        chk: &mut Check,
    ) -> (Rounds, Reader) {
        let n = self.set.n;
        let queries: Vec<Query> = {
            let _s = span("bench.inputs");
            (0..1 << 16)
                .map(|i| {
                    if i % 3 == 2 {
                        Query::Size(rng.below(n))
                    } else {
                        Query::Connected(rng.below(n), rng.below(n))
                    }
                })
                .collect()
        };
        let start_epoch = self.se.latest_epoch();
        let start_live = self.set.live.clone();
        self.log.clear();
        let handle = self.se.reader();
        let stop = AtomicBool::new(false);
        let reads = AtomicU64::new(0);
        let mut out = Rounds { rounds: Vec::new() };
        let reader = std::thread::scope(|s| {
            let reader = s.spawn(|| read_loop(handle, &queries, &stop, &reads));
            self.round(shape, &reads, rng, chk);
            while budget.another(out.rounds.len()) {
                out.rounds.push(self.round(shape, &reads, rng, chk));
            }
            stop.store(true, Ordering::Relaxed);
            reader.join().expect("reader thread panicked")
        });
        let _s = span("bench.check");
        chk.ops(reader.reads as usize);
        chk.state(reader.epoch_regressions == 0, || {
            format!("reader epochs decreased {} times", reader.epoch_regressions)
        });
        let wrong = check_samples(&reader.samples, n, start_epoch, start_live, &self.log);
        chk.fail(wrong, || {
            format!("{wrong} sampled reader answers differ from the union-find at their epoch")
        });
        let snap = self.se.reader().snapshot();
        let mut dsu = self.set.dsu();
        chk.state(
            snap.epoch == self.se.latest_epoch() && dsu.same_partition(&snap.labels),
            || "final snapshot partition differs from the union-find".into(),
        );
        (out, reader)
    }
}

fn read_loop(
    mut h: ReadHandle<SumMinMax>,
    queries: &[Query],
    stop: &AtomicBool,
    reads: &AtomicU64,
) -> Reader {
    let mut out = Reader {
        samples: Vec::new(),
        reads: 0,
        epoch_regressions: 0,
        lag_sum: 0,
        lag_n: 0,
        spans: Vec::new(),
    };
    let mask = queries.len() - 1;
    let mut last = h.epoch();
    let mut i = 0u64;
    while !stop.load(Ordering::Relaxed) {
        let sp = span("serve.read");
        sp.calls(CHUNK);
        for _ in 0..CHUNK {
            let query = queries[i as usize & mask];
            i += 1;
            let (epoch, answer) = match query {
                Query::Connected(u, v) => {
                    let a = h.connected(u, v);
                    (a.epoch, a.value as u64)
                }
                Query::Size(v) => {
                    let a = h.component_size(v);
                    (a.epoch, a.value)
                }
            };
            std::hint::black_box(answer);
            out.epoch_regressions += (epoch < last) as u64;
            last = epoch;
            if i.is_multiple_of(SAMPLE_EVERY) && out.samples.len() < MAX_SAMPLES {
                out.samples.push(Sample {
                    epoch,
                    query,
                    answer,
                });
            }
        }
        drop(sp);
        reads.fetch_add(CHUNK as u64, Ordering::Relaxed);
        out.lag_sum += h.latest_epoch().saturating_sub(last);
        out.lag_n += 1;
    }
    out.reads = i;
    out.spans = trace::take(1);
    out
}

/// Replays the writer log from the reader's start and checks the samples
/// of up to `CHECKED_EPOCHS` distinct epochs against a union-find of the
/// live edges at that epoch.  Returns the number of wrong answers.
fn check_samples(
    samples: &[Sample],
    n: usize,
    start_epoch: u64,
    start_live: Vec<(usize, usize)>,
    log: &[(u64, Vec<GraphOp>)],
) -> usize {
    let mut epochs: Vec<u64> = samples.iter().map(|s| s.epoch).collect();
    epochs.sort_unstable();
    epochs.dedup();
    let stride = epochs.len().div_ceil(CHECKED_EPOCHS).max(1);
    let chosen: Vec<u64> = epochs.iter().copied().step_by(stride).collect();
    let mut live: std::collections::HashSet<(usize, usize)> = start_live.into_iter().collect();
    let mut next = 0;
    let mut wrong = 0;
    for &e in &chosen {
        if e < start_epoch {
            wrong += samples.iter().filter(|s| s.epoch == e).count();
            continue;
        }
        while next < log.len() && log[next].0 <= e {
            for op in &log[next].1 {
                match *op {
                    GraphOp::InsertEdge(u, v) => {
                        live.insert((u, v));
                    }
                    GraphOp::DeleteEdge(u, v) => {
                        live.remove(&(u, v));
                    }
                    _ => {}
                }
            }
            next += 1;
        }
        let mut dsu = Dsu::new(n);
        for &(u, v) in &live {
            dsu.union(u, v);
        }
        for s in samples.iter().filter(|s| s.epoch == e) {
            let want = match s.query {
                Query::Connected(u, v) => dsu.same(u, v) as u64,
                Query::Size(v) => dsu.size_of(v),
            };
            wrong += (want != s.answer) as usize;
        }
    }
    wrong
}

/// Per-layer figures of traced serving rounds.
pub fn layer_metrics(t: &trace::Totals, reader: &Reader, se: &UfoServingEngine, out: &mut Metrics) {
    let batches = t.calls("serve.apply").max(1) as f64;
    out.put("serve.apply_ns_per_batch", t.per_call("serve.apply"), "ns");
    let publish = t.total_ns("serve.apply") as f64 - t.total_ns("serve.bare_apply") as f64;
    out.put("serve.publish_ns_per_batch", publish / batches, "ns");
    out.put("serve.read_ns", t.per_call("serve.read"), "ns");
    out.put(
        "serve.epoch_lag",
        reader.lag_sum as f64 / reader.lag_n.max(1) as f64,
        "epochs",
    );
    out.put(
        "serve.snapshot_bytes",
        se.memory_breakdown().snapshots as f64,
        "B",
    );
}
