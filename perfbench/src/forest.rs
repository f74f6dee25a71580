//! The forest layer: `UfoForest` alone, single-threaded, driven through the
//! paper's Fig. 5 protocol (every edge cut and linked in random order, as
//! single calls and as `batch_cut`/`batch_link` batches) plus a path-sum,
//! subtree-sum and connectivity query mix on the built forest.  Traced
//! rounds repeat the single-call streams and path sums on link-cut trees.

use std::time::Instant;

use dyntree_linkcut::LinkCutForest;
use ufo_forest::UfoForest;

use crate::common::{secs, Budget, Check, Series};
use crate::oracle::TreeOracle;
use crate::rng::Rng;
use crate::trace::{self, span};

/// Edges per `batch_link`/`batch_cut` call.
pub const BATCH: usize = 128;

#[derive(Clone, Copy)]
pub enum Query {
    Connected(usize, usize),
    PathSum(usize, usize),
    SubtreeSum(usize, usize),
}

/// A forest with vertex weights, a query mix and the oracle's answers.
pub struct ForestInput {
    pub edges: Vec<(usize, usize)>,
    pub weights: Vec<i64>,
    pub queries: Vec<Query>,
    pub expected: Vec<Option<i64>>,
}

/// Seeded weights in `-1000..1000`.
pub fn weights(n: usize, seed: u64) -> Vec<i64> {
    let mut rng = Rng::new(seed, 1);
    (0..n).map(|_| rng.below(2000) as i64 - 1000).collect()
}

impl ForestInput {
    /// Draws `queries` queries (a third of each kind) over the forest and
    /// answers them with the DFS oracle.
    pub fn new(
        n: usize,
        edges: Vec<(usize, usize)>,
        weights: Vec<i64>,
        queries: usize,
        seed: u64,
    ) -> Self {
        let _s = span("bench.oracle");
        let oracle = TreeOracle::new(n, &edges, &weights);
        let mut rng = Rng::new(seed, 2);
        let queries: Vec<Query> = (0..queries)
            .map(|i| match i % 3 {
                0 => Query::Connected(rng.below(n), rng.below(n)),
                1 => Query::PathSum(rng.below(n), rng.below(n)),
                _ => {
                    let (u, v) = edges[rng.below(edges.len())];
                    if rng.below(2) == 0 {
                        Query::SubtreeSum(u, v)
                    } else {
                        Query::SubtreeSum(v, u)
                    }
                }
            })
            .collect();
        let expected = queries
            .iter()
            .map(|q| match *q {
                Query::Connected(u, v) => Some(oracle.connected(u, v) as i64),
                Query::PathSum(u, v) => oracle.path_sum(u, v),
                Query::SubtreeSum(v, p) => oracle.subtree_sum(v, p),
            })
            .collect();
        ForestInput {
            edges,
            weights,
            queries,
            expected,
        }
    }
}

/// Builds a weighted forest edge by edge (the set-up's build).
pub fn build(n: usize, edges: &[(usize, usize)], weights: &[i64], chk: &mut Check) -> UfoForest {
    let _s = span("ufo.build");
    _s.calls(edges.len());
    let mut f = UfoForest::new(n);
    for (v, &w) in weights.iter().enumerate() {
        f.set_weight(v, w);
    }
    let linked = edges.iter().filter(|&&(u, v)| f.link(u, v)).count();
    chk.ops(edges.len());
    chk.fail(edges.len() - linked, || "set-up link returned false".into());
    f
}

/// Times of one round's end-to-end sections.
pub struct Round {
    pub query_s: f64,
    pub single_s: f64,
    pub batch_s: f64,
    pub batch_lat_us: Vec<f64>,
}

impl Round {
    /// The round's end-to-end seconds.
    pub fn wall(&self) -> f64 {
        self.query_s + self.single_s + self.batch_s
    }
}

/// The forest rounds of a run and their end-to-end figures.
pub struct Rounds {
    pub rounds: Vec<Round>,
    pub edges: usize,
    pub queries: usize,
}

impl Rounds {
    pub fn series(&self) -> Series {
        let mut out = Series::default();
        let ops = 2.0 * self.edges as f64;
        for r in &self.rounds {
            let queries = (self.queries as f64, r.query_s);
            out.round(
                [(ops, r.single_s), (ops, r.batch_s), queries],
                &r.batch_lat_us,
            );
        }
        out
    }
}

/// Runs whole rounds until `budget` is spent.  Each round starts and ends
/// with every edge of `input` linked in `f`.
pub fn rounds(
    f: &mut UfoForest,
    input: &ForestInput,
    budget: Budget,
    rng: &mut Rng,
    chk: &mut Check,
    mut linkcut: Option<&mut LinkCutForest>,
) -> Rounds {
    let mut out = Rounds {
        rounds: Vec::new(),
        edges: input.edges.len(),
        queries: input.queries.len(),
    };
    while budget.another(out.rounds.len()) {
        out.rounds
            .push(round(f, input, rng, chk, linkcut.as_deref_mut()));
    }
    out
}

fn shuffled(edges: &[(usize, usize)], rng: &mut Rng) -> Vec<(usize, usize)> {
    let mut e = edges.to_vec();
    rng.shuffle(&mut e);
    e
}

/// One round: the query mix, every edge cut and relinked by single calls,
/// then cut and relinked in batches.
pub fn round(
    f: &mut UfoForest,
    input: &ForestInput,
    rng: &mut Rng,
    chk: &mut Check,
    linkcut: Option<&mut LinkCutForest>,
) -> Round {
    let orders = {
        let _s = span("bench.inputs");
        [(); 4].map(|_| shuffled(&input.edges, rng))
    };
    let [cut1, link1, cut2, link2] = &orders;
    let m = input.edges.len();
    let mut answers: Vec<Option<i64>> = Vec::with_capacity(input.queries.len());

    let t = Instant::now();
    for q in &input.queries {
        answers.push(match *q {
            Query::Connected(u, v) => {
                let _s = span("ufo.connected");
                Some(f.connected(u, v) as i64)
            }
            Query::PathSum(u, v) => {
                let _s = span("ufo.path_sum");
                f.path_sum(u, v)
            }
            Query::SubtreeSum(v, p) => {
                let _s = span("ufo.subtree_sum");
                f.subtree_sum(v, p)
            }
        });
    }
    let query_s = secs(t);
    check_answers(&answers, &input.expected, "ufo", chk);

    let t = Instant::now();
    let mut refused = 0;
    for &(u, v) in cut1 {
        let _s = span("ufo.cut");
        refused += !f.cut(u, v) as usize;
    }
    let cut_s = secs(t);
    check_empty(f, chk);
    let t = Instant::now();
    for &(u, v) in link1 {
        let _s = span("ufo.link");
        refused += !f.link(u, v) as usize;
    }
    let single_s = cut_s + secs(t);
    chk.ops(2 * m);
    chk.fail(refused, || {
        format!("{refused} single link/cut calls returned false")
    });

    let mut batch_lat_us = Vec::with_capacity(2 * m.div_ceil(BATCH));
    let mut applied = 0;
    let mut batches = |order: &[(usize, usize)], f: &mut UfoForest, cut: bool| {
        for chunk in order.chunks(BATCH) {
            let t = Instant::now();
            let _s = span(if cut {
                "ufo.batch_cut"
            } else {
                "ufo.batch_link"
            });
            _s.calls(chunk.len());
            applied += if cut {
                f.batch_cut(chunk)
            } else {
                f.batch_link(chunk)
            };
            drop(_s);
            batch_lat_us.push(secs(t) * 1e6);
        }
    };
    batches(cut2, f, true);
    check_empty(f, chk);
    batches(link2, f, false);
    let batch_s = batch_lat_us.iter().sum::<f64>() / 1e6;
    chk.ops(2 * m);
    chk.fail(2 * m - applied, || {
        "batch calls applied fewer edges than given".into()
    });

    if let Some(lc) = linkcut {
        linkcut_round(lc, input, cut1, link1, chk);
    }
    Round {
        query_s,
        single_s,
        batch_s,
        batch_lat_us,
    }
}

/// The same single-call streams and path sums on link-cut trees: reference
/// figures for the paper's sequential comparison, checked against the same
/// oracle and never used as one.
fn linkcut_round(
    lc: &mut LinkCutForest,
    input: &ForestInput,
    cut1: &[(usize, usize)],
    link1: &[(usize, usize)],
    chk: &mut Check,
) {
    let mut wrong = 0;
    let mut asked = 0;
    for (q, want) in input.queries.iter().zip(&input.expected) {
        if let Query::PathSum(u, v) = *q {
            let _s = span("linkcut.path_sum");
            let got = lc.path_sum(u, v);
            drop(_s);
            asked += 1;
            wrong += (got != *want) as usize;
        }
    }
    let mut refused = 0;
    for &(u, v) in cut1 {
        let _s = span("linkcut.cut");
        refused += !lc.cut(u, v) as usize;
    }
    for &(u, v) in link1 {
        let _s = span("linkcut.link");
        refused += !lc.link(u, v) as usize;
    }
    chk.ops(asked + cut1.len() + link1.len());
    chk.fail(wrong, || format!("link-cut: {wrong} wrong path sums"));
    chk.fail(refused, || {
        format!("link-cut: {refused} link/cut calls returned false")
    });
}

fn check_answers(got: &[Option<i64>], want: &[Option<i64>], who: &str, chk: &mut Check) {
    let _s = span("bench.check");
    let wrong = got.iter().zip(want).filter(|(g, w)| g != w).count();
    chk.ops(got.len());
    chk.fail(wrong, || format!("{who}: {wrong} wrong query answers"));
}

/// After every edge is cut, every vertex must be a singleton.
fn check_empty(f: &UfoForest, chk: &mut Check) {
    let _s = span("bench.check");
    let ok = f.num_edges() == 0 && (0..f.len()).all(|v| f.component_size(v) == 1);
    chk.state(ok, || {
        "a vertex is not a singleton after every edge was cut".into()
    });
}

/// Link-cut trees over `input`'s forest, for the traced reference rounds.
pub fn linkcut_build(input: &ForestInput, chk: &mut Check) -> LinkCutForest {
    let _s = span("linkcut.build");
    _s.calls(input.edges.len());
    let mut lc = LinkCutForest::with_weights(&input.weights);
    let linked = input.edges.iter().filter(|&&(u, v)| lc.link(u, v)).count();
    chk.ops(input.edges.len());
    chk.fail(input.edges.len() - linked, || {
        "link-cut set-up link returned false".into()
    });
    lc
}

/// Per-layer figures of traced forest rounds.
pub fn layer_metrics(t: &trace::Totals, f: &UfoForest, out: &mut crate::common::Metrics) {
    let per = |n: &str| t.per_call(n);
    out.put("ufo.link_ns", per("ufo.link"), "ns");
    out.put("ufo.cut_ns", per("ufo.cut"), "ns");
    out.put("ufo.batch_link_ns_per_edge", per("ufo.batch_link"), "ns");
    out.put("ufo.batch_cut_ns_per_edge", per("ufo.batch_cut"), "ns");
    out.put("ufo.connected_ns", per("ufo.connected"), "ns");
    out.put("ufo.path_sum_ns", per("ufo.path_sum"), "ns");
    out.put("ufo.subtree_sum_ns", per("ufo.subtree_sum"), "ns");
    out.put(
        "ufo.bytes_per_vertex",
        f.memory_bytes() as f64 / f.len().max(1) as f64,
        "B/vertex",
    );
    out.put("linkcut.link_ns", per("linkcut.link"), "ns");
    out.put("linkcut.cut_ns", per("linkcut.cut"), "ns");
    out.put("linkcut.path_sum_ns", per("linkcut.path_sum"), "ns");
    let ufo_update = per("ufo.link") + per("ufo.cut");
    let lc_update = per("linkcut.link") + per("linkcut.cut");
    out.put("ufo_over_linkcut.update", ufo_update / lc_update, "ratio");
    out.put(
        "ufo_over_linkcut.path_sum",
        per("ufo.path_sum") / per("linkcut.path_sum"),
        "ratio",
    );
}
