//! The graph layer: `DynConnectivity<UfoForest>` under failure/repair
//! churn.  Each round applies one transaction (a failure wave of deletes
//! followed by a repair wave of inserts, each a run long enough for the
//! parallel batch paths), then a slice of the same churn as single
//! `try_delete_edge`/`try_insert_edge` calls, then `connected` queries.
//! The benchmark keeps its own live edge set and checks every transaction
//! against a union-find built from it.

use std::time::Instant;

use dyntree_connectivity::{DeleteOutcome, EdgeKind, GraphOp, OpOutcome, UfoConnectivity};

use dyntree_primitives::ParallelConfig;

use crate::common::{secs, Budget, Check, Metrics, Series};
use crate::oracle::Dsu;
use crate::rng::Rng;
use crate::trace::{self, span};

/// Shape of a churn round.
#[derive(Clone, Copy)]
pub struct Churn {
    /// Share of the edges failed before the first round.
    pub failed_share: f64,
    /// Deletes (and as many inserts) per transaction.
    pub wave: usize,
    /// Delete/insert pairs per round issued as single calls.
    pub single_pairs: usize,
    /// `connected` queries per round.
    pub queries: usize,
}

/// The benchmark's own view of the graph: which edges are live.
pub struct EdgeSet {
    pub n: usize,
    pub live: Vec<(usize, usize)>,
    pub failed: Vec<(usize, usize)>,
}

impl EdgeSet {
    pub fn new(n: usize, edges: &[(usize, usize)]) -> Self {
        // both lists hold at most every edge, so neither grows after this
        let mut live = Vec::with_capacity(edges.len());
        live.extend_from_slice(edges);
        EdgeSet {
            n,
            live,
            failed: Vec::with_capacity(edges.len()),
        }
    }

    pub fn fail_one(&mut self, rng: &mut Rng) -> (usize, usize) {
        let e = self.live.swap_remove(rng.below(self.live.len()));
        self.failed.push(e);
        e
    }

    pub fn repair_one(&mut self, rng: &mut Rng) -> (usize, usize) {
        let e = self.failed.swap_remove(rng.below(self.failed.len()));
        self.live.push(e);
        e
    }

    /// A failure wave of `k` live edges, then a repair wave of up to `k`
    /// edges that were failed before this wave.
    pub fn wave(&mut self, k: usize, rng: &mut Rng) -> Vec<GraphOp> {
        let deletes: Vec<(usize, usize)> = (0..k)
            .map(|_| self.live.swap_remove(rng.below(self.live.len())))
            .collect();
        let repairs: Vec<(usize, usize)> = (0..k.min(self.failed.len()))
            .map(|_| self.failed.swap_remove(rng.below(self.failed.len())))
            .collect();
        self.live.extend(&repairs);
        self.failed.extend(&deletes);
        let ops = deletes.iter().map(|&(u, v)| GraphOp::DeleteEdge(u, v));
        ops.chain(repairs.iter().map(|&(u, v)| GraphOp::InsertEdge(u, v)))
            .collect()
    }

    pub fn dsu(&self) -> Dsu {
        Dsu::from_edges(self.n, &self.live)
    }
}

/// An engine over `n` vertices with every edge of `edges` inserted in one
/// transaction (the set-up's build).
pub fn build(
    n: usize,
    edges: &[(usize, usize)],
    cfg: ParallelConfig,
    chk: &mut Check,
) -> UfoConnectivity {
    let ops: Vec<GraphOp> = edges
        .iter()
        .map(|&(u, v)| GraphOp::InsertEdge(u, v))
        .collect();
    let _s = span("connectivity.build");
    _s.calls(ops.len());
    let mut g = UfoConnectivity::new(n).with_parallel_config(cfg);
    let report = g.apply(&ops);
    drop(_s);
    chk.ops(ops.len());
    chk.fail(ops.len() - report.applied, || {
        "set-up inserts not applied".into()
    });
    g
}

/// The first failure wave, bringing the live share down to the churn's
/// steady state.  Applied to `engines` alike.
pub fn prime(
    engines: &mut [&mut UfoConnectivity],
    set: &mut EdgeSet,
    churn: &Churn,
    rng: &mut Rng,
    chk: &mut Check,
) {
    let k = (set.live.len() as f64 * churn.failed_share) as usize;
    let ops: Vec<GraphOp> = (0..k)
        .map(|_| {
            let (u, v) = set.fail_one(rng);
            GraphOp::DeleteEdge(u, v)
        })
        .collect();
    for g in engines.iter_mut() {
        let _s = span("connectivity.prime");
        let r = g.apply(&ops);
        drop(_s);
        chk.ops(ops.len());
        chk.fail(ops.len() - r.applied, || {
            "priming deletes not applied".into()
        });
    }
}

pub struct Round {
    pub apply_s: f64,
    pub apply_ops: usize,
    pub single_s: f64,
    pub single_ops: usize,
    pub query_s: f64,
    pub queries: usize,
    pub tree_deletes: usize,
    pub replaced: usize,
}

impl Round {
    /// The round's end-to-end seconds.
    pub fn wall(&self) -> f64 {
        self.apply_s + self.single_s + self.query_s
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
                (r.single_ops as f64, r.single_s),
                (r.apply_ops as f64, r.apply_s),
                (r.queries as f64, r.query_s),
            ];
            out.round(rates, &[r.apply_s * 1e6]);
        }
        out
    }
}

/// Runs whole churn rounds until `budget` is spent.  `twin`, when given, is
/// an engine in the same state at `ParallelConfig::sequential()`: it gets
/// every transaction and single call too, and its reports must match.
pub fn rounds(
    g: &mut UfoConnectivity,
    mut twin: Option<&mut UfoConnectivity>,
    set: &mut EdgeSet,
    churn: &Churn,
    budget: Budget,
    rng: &mut Rng,
    chk: &mut Check,
) -> Rounds {
    let mut out = Rounds { rounds: Vec::new() };
    while budget.another(out.rounds.len()) {
        out.rounds
            .push(round(g, twin.as_deref_mut(), set, churn, rng, chk));
    }
    out
}

/// Single-call churn: alternately fail a live edge and repair a failed one.
#[derive(Clone, Copy)]
enum Single {
    Delete(usize, usize),
    Insert(usize, usize),
}

pub fn round(
    g: &mut UfoConnectivity,
    twin: Option<&mut UfoConnectivity>,
    set: &mut EdgeSet,
    churn: &Churn,
    rng: &mut Rng,
    chk: &mut Check,
) -> Round {
    let (ops, live_after_wave, singles, queries) = {
        let _s = span("bench.inputs");
        let ops = set.wave(churn.wave, rng);
        let live_after_wave = set.live.clone();
        let mut singles = Vec::with_capacity(2 * churn.single_pairs);
        for _ in 0..churn.single_pairs {
            let (u, v) = set.fail_one(rng);
            singles.push(Single::Delete(u, v));
            let (u, v) = set.repair_one(rng);
            singles.push(Single::Insert(u, v));
        }
        let queries: Vec<(usize, usize)> = (0..churn.queries)
            .map(|_| (rng.below(set.n), rng.below(set.n)))
            .collect();
        (ops, live_after_wave, singles, queries)
    };

    // the transaction
    let t = Instant::now();
    let report = {
        let _s = span("connectivity.apply");
        _s.calls(ops.len());
        g.apply(&ops)
    };
    let apply_s = secs(t);
    let (tree_deletes, replaced) =
        check_report(&report, &ops, set.n, &live_after_wave, g, rng, chk);
    if let Some(tw) = twin {
        let r = {
            let _s = span("connectivity.apply_width1");
            _s.calls(ops.len());
            tw.apply(&ops)
        };
        chk.state(r.outcomes == report.outcomes, || {
            "width-1 transaction outcomes differ from the default width".into()
        });
        for s in &singles {
            let _s = span("connectivity.twin_single");
            let _ = match *s {
                Single::Delete(u, v) => tw.try_delete_edge(u, v).map(|_| ()),
                Single::Insert(u, v) => tw.try_insert_edge(u, v).map(|_| ()),
            };
        }
    }
    drop(report);

    // single calls
    let mut refused = 0;
    let mut outcomes: Vec<Option<DeleteOutcome>> = Vec::with_capacity(singles.len());
    let t = Instant::now();
    for s in &singles {
        match *s {
            Single::Delete(u, v) => {
                let sp = span("connectivity.delete");
                let r = g.try_delete_edge(u, v);
                sp.rename(match r {
                    Ok(DeleteOutcome {
                        kind: EdgeKind::Tree,
                        ..
                    }) => "connectivity.delete_tree",
                    Ok(_) => "connectivity.delete_nontree",
                    Err(_) => "connectivity.delete_refused",
                });
                outcomes.push(r.ok());
                refused += r.is_err() as usize;
            }
            Single::Insert(u, v) => {
                let _s = span("connectivity.insert");
                refused += g.try_insert_edge(u, v).is_err() as usize;
            }
        }
    }
    let single_s = secs(t);
    chk.ops(singles.len());
    chk.fail(refused, || format!("{refused} single calls refused"));
    let tree_single = outcomes
        .iter()
        .flatten()
        .filter(|o| o.kind == EdgeKind::Tree);
    let (td, rp) = tree_single.fold((0, 0), |(t, r), o| (t + 1, r + !o.split as usize));

    // queries
    let mut answers = Vec::with_capacity(queries.len());
    let t = Instant::now();
    for &(u, v) in &queries {
        let _s = span("connectivity.connected");
        answers.push(g.connected(u, v));
    }
    let query_s = secs(t);
    {
        let _s = span("bench.check");
        let mut dsu = set.dsu();
        chk.state(g.component_count() == dsu.components(), || {
            "component count after single calls differs from the union-find".into()
        });
        let wrong = (queries.iter().zip(&answers))
            .filter(|(&(u, v), &a)| dsu.same(u, v) != a)
            .count();
        chk.ops(queries.len());
        chk.fail(wrong, || format!("{wrong} wrong connected answers"));
    }
    Round {
        apply_s,
        apply_ops: ops.len(),
        single_s,
        single_ops: singles.len(),
        query_s,
        queries: queries.len(),
        tree_deletes: tree_deletes + td,
        replaced: replaced + rp,
    }
}

/// Checks a transaction's report against the union-find of the live edges
/// after it.  Returns (tree deletes, tree deletes that found a replacement).
fn check_report(
    report: &dyntree_connectivity::BatchReport,
    ops: &[GraphOp],
    n: usize,
    live: &[(usize, usize)],
    g: &mut UfoConnectivity,
    rng: &mut Rng,
    chk: &mut Check,
) -> (usize, usize) {
    let _s = span("bench.check");
    chk.ops(ops.len());
    chk.fail(ops.len() - report.applied, || {
        format!(
            "transaction: {} skipped, {} rejected",
            report.skipped, report.rejected
        )
    });
    let (mut splits, mut merges, mut tree_deletes) = (0usize, 0usize, 0usize);
    for o in &report.outcomes {
        match *o {
            OpOutcome::EdgeDeleted { kind, split } => {
                splits += split as usize;
                tree_deletes += (kind == EdgeKind::Tree) as usize;
            }
            OpOutcome::EdgeInserted {
                kind: EdgeKind::Tree,
            } => merges += 1,
            _ => {}
        }
    }
    chk.state(
        report.components_after + merges == report.components_before + splits,
        || "components_after != components_before + splits - merging tree inserts".into(),
    );
    let mut dsu = Dsu::from_edges(n, live);
    chk.state(report.components_after == dsu.components(), || {
        format!(
            "transaction left {} components, the union-find has {}",
            report.components_after,
            dsu.components()
        )
    });
    let sample: Vec<(usize, usize)> = (0..64).map(|_| (rng.below(n), rng.below(n))).collect();
    let wrong = sample
        .iter()
        .filter(|&&(u, v)| g.connected(u, v) != dsu.same(u, v))
        .count();
    chk.ops(sample.len());
    chk.fail(wrong, || {
        format!("{wrong} wrong sampled connected answers after a transaction")
    });
    (tree_deletes, tree_deletes - splits)
}

/// Per-layer figures of traced graph rounds.
pub fn layer_metrics(
    t: &trace::Totals,
    r: &Rounds,
    peak_edges: usize,
    peak_bytes: usize,
    out: &mut Metrics,
) {
    let per = |n: &str| t.per_call(n);
    out.put(
        "connectivity.apply_ns_per_op",
        per("connectivity.apply"),
        "ns",
    );
    out.put(
        "connectivity.apply_width1_ns_per_op",
        per("connectivity.apply_width1"),
        "ns",
    );
    out.put("connectivity.insert_ns", per("connectivity.insert"), "ns");
    out.put(
        "connectivity.delete_tree_ns",
        per("connectivity.delete_tree"),
        "ns",
    );
    out.put(
        "connectivity.delete_nontree_ns",
        per("connectivity.delete_nontree"),
        "ns",
    );
    let tree: usize = r.rounds.iter().map(|x| x.tree_deletes).sum();
    let replaced: usize = r.rounds.iter().map(|x| x.replaced).sum();
    eprintln!(
        "connectivity outcomes (BatchReport and DeleteOutcome): {} rounds, {tree} tree deletes, \
         {replaced} found a replacement",
        r.rounds.len()
    );
    out.put(
        "connectivity.replacement_found_ratio",
        replaced as f64 / tree.max(1) as f64,
        "ratio",
    );
    out.put(
        "connectivity.connected_ns",
        per("connectivity.connected"),
        "ns",
    );
    out.put(
        "connectivity.bytes_per_edge",
        peak_bytes as f64 / peak_edges.max(1) as f64,
        "B/edge",
    );
}
