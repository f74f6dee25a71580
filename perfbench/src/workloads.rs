//! The three workloads: inputs and their asserted properties, set-up, the
//! end-to-end rounds, and the traced run that measures every layer.

use dyntree_primitives::ParallelConfig;
use dyntree_primitives::PAR_GRAIN;
use dyntree_serve::UfoServingEngine;
use ufo_forest::UfoForest;

use crate::common::{timed_setup, Budget, Check, Metrics};
use crate::forest::{self, ForestInput};
use crate::graph::{self, Churn, EdgeSet};
use crate::rng::Rng;
use crate::serve::{self, Shape};
use crate::stats::median;
use crate::{alloc, trace};

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub struct Outcome {
    pub check: Check,
    pub metrics: Metrics,
}

/// Timed set-ups per run (after one untimed warm-up set-up).
const SETUP_REPS: usize = 7;

// forest-hubs: a Zipf-attachment tree minus a few edges, so connectivity
// answers are mixed.
const HUB_N: usize = 8192;
const HUB_ALPHA: f64 = 1.2;
const HUB_HELD_OUT: usize = 32;
const HUB_QUERIES: usize = 3 * 1024;
const HUB_MIN_MAX_DEGREE: usize = 512;
const HUB_MAX_DIAMETER: usize = 32;

// graph-road: a road grid under failure/repair churn.
const ROAD_SIDE: usize = 100;
const ROAD_CHURN: Churn = Churn {
    failed_share: 0.15,
    wave: PAR_GRAIN,
    single_pairs: 512,
    queries: 1 << 17,
};

// serve-social: an RMAT social graph served under churn.
const SOCIAL_SCALE: u32 = 14;
const SOCIAL_AVG_DEGREE: usize = 4;
const SOCIAL_SHAPE: Shape = Shape {
    failed_share: 0.05,
    batch_pairs: 32,
    batches_per_round: 128,
    singles_per_round: 32,
};

/// Churn and serving shapes of the layer probes a traced run adds on a
/// workload's own input, for the layers the workload does not drive.
fn probe_churn(edges: usize) -> Churn {
    Churn {
        failed_share: 0.15,
        wave: PAR_GRAIN.min(edges / 8),
        single_pairs: 256,
        queries: 1 << 13,
    }
}
const PROBE_SHAPE: Shape = Shape {
    failed_share: 0.05,
    batch_pairs: 32,
    batches_per_round: 64,
    singles_per_round: 16,
};

fn hubs_edges(seed: u64) -> Vec<(usize, usize)> {
    let tree = {
        let _s = trace::span("workloads.generate");
        dyntree_workloads::zipf_tree(HUB_N, HUB_ALPHA, seed)
    };
    let mut edges = tree.edges;
    let mut rng = Rng::new(seed, 3);
    for _ in 0..HUB_HELD_OUT {
        edges.swap_remove(rng.below(edges.len()));
    }
    edges
}

fn hubs_properties(edges: &[(usize, usize)]) -> Result<(), String> {
    let f = dyntree_workloads::Forest {
        n: HUB_N,
        edges: edges.to_vec(),
    };
    let (deg, diam) = (f.max_degree(), f.diameter());
    eprintln!(
        "forest-hubs input: n={HUB_N} edges={} max_degree={deg} diameter={diam}",
        edges.len()
    );
    if deg < HUB_MIN_MAX_DEGREE || diam > HUB_MAX_DIAMETER {
        return Err(format!(
            "forest-hubs input lacks its property: max degree {deg} (need >= {HUB_MIN_MAX_DEGREE}), \
             diameter {diam} (need <= {HUB_MAX_DIAMETER})"
        ));
    }
    Ok(())
}

fn road_graph(seed: u64) -> dyntree_workloads::Graph {
    let _s = trace::span("workloads.generate");
    dyntree_workloads::road_grid_graph(ROAD_SIDE, seed)
}

fn road_properties(g: &dyntree_workloads::Graph) -> Result<(), String> {
    let deg = g.adjacency().iter().map(Vec::len).max().unwrap_or(0);
    eprintln!(
        "graph-road input: n={} edges={} max_degree={deg} transaction runs={}",
        g.n,
        g.edges.len(),
        ROAD_CHURN.wave
    );
    let failed = (g.edges.len() as f64 * ROAD_CHURN.failed_share) as usize;
    if deg > 4 || ROAD_CHURN.wave < PAR_GRAIN || failed < ROAD_CHURN.wave {
        return Err(format!(
            "graph-road input lacks its property: max degree {deg} (need <= 4, so every backend \
             tree has degree <= 4), delete/insert runs of {} (need >= PAR_GRAIN = {PAR_GRAIN}, \
             with {failed} failed edges to repair from)",
            ROAD_CHURN.wave
        ));
    }
    Ok(())
}

fn social_graph(seed: u64) -> dyntree_workloads::Graph {
    let _s = trace::span("workloads.generate");
    dyntree_workloads::social_rmat_graph(SOCIAL_SCALE, SOCIAL_AVG_DEGREE, seed)
}

fn social_properties(g: &dyntree_workloads::Graph) -> Result<(), String> {
    let batch = 2 * SOCIAL_SHAPE.batch_pairs;
    eprintln!(
        "serve-social input: n={} edges={} batch={batch}",
        g.n,
        g.edges.len()
    );
    if batch >= PAR_GRAIN {
        return Err(format!(
            "serve-social batches of {batch} ops are not below PAR_GRAIN = {PAR_GRAIN}"
        ));
    }
    Ok(())
}

/// Spanning forest of a workload graph, for the forest probe.
fn spanning(g: &dyntree_workloads::Graph, seed: u64) -> Vec<(usize, usize)> {
    let _s = trace::span("workloads.spanning");
    dyntree_workloads::bfs_forest(g, seed).edges
}

/// The hub forest plus `n / 8` random extra edges, so the graph probes on
/// forest-hubs see cycles (non-tree edges and replacements).
fn hubs_graph(edges: &[(usize, usize)], seed: u64) -> Vec<(usize, usize)> {
    let mut rng = Rng::new(seed, 5);
    let mut seen: std::collections::HashSet<(usize, usize)> =
        edges.iter().map(|&(u, v)| (u.min(v), u.max(v))).collect();
    let mut out = edges.to_vec();
    while out.len() < edges.len() + HUB_N / 8 {
        let (u, v) = (rng.below(HUB_N), rng.below(HUB_N));
        if u != v && seen.insert((u.min(v), u.max(v))) {
            out.push((u, v));
        }
    }
    out
}

pub fn run(a: &Args) -> Result<Outcome, String> {
    match (a.workload.as_str(), a.trace) {
        ("forest-hubs", false) => forest_hubs(a),
        ("graph-road", false) => graph_road(a),
        ("serve-social", false) => serve_social(a),
        ("forest-hubs" | "graph-road" | "serve-social", true) => traced(a),
        (w, _) => Err(format!(
            "unknown workload {w:?} (forest-hubs, graph-road, serve-social)"
        )),
    }
}

fn forest_hubs(a: &Args) -> Result<Outcome, String> {
    let mut chk = Check::new();
    let (setup_s, (edges, weights, mut f, bytes)) = timed_setup(SETUP_REPS, || {
        let edges = hubs_edges(a.seed);
        let weights = forest::weights(HUB_N, a.seed);
        let l0 = alloc::live_bytes();
        let f = forest::build(HUB_N, &edges, &weights, &mut chk);
        let bytes = alloc::live_bytes() - l0;
        (edges, weights, f, bytes)
    });
    hubs_properties(&edges)?;
    let m = edges.len();
    let input = ForestInput::new(HUB_N, edges, weights, HUB_QUERIES, a.seed);
    let mut rng = Rng::new(a.seed, 4);
    forest::round(&mut f, &input, &mut rng, &mut chk, None);
    let r = forest::rounds(
        &mut f,
        &input,
        Budget::new(a.seconds, 3),
        &mut rng,
        &mut chk,
        None,
    );
    eprintln!("forest-hubs: {} rounds", r.rounds.len());
    let series = r.series();
    series.log();
    let mut out = Metrics::default();
    series.put(&mut out);
    out.put("bytes_per_edge", bytes as f64 / m as f64, "B/edge");
    out.put("setup_s", setup_s, "s");
    Ok(Outcome {
        check: chk,
        metrics: out,
    })
}

fn graph_road(a: &Args) -> Result<Outcome, String> {
    let mut chk = Check::new();
    let (setup_s, (g, mut engine, bytes)) = timed_setup(SETUP_REPS, || {
        let g = road_graph(a.seed);
        let l0 = alloc::live_bytes();
        let engine = graph::build(g.n, &g.edges, ParallelConfig::default(), &mut chk);
        let bytes = alloc::live_bytes() - l0;
        (g, engine, bytes)
    });
    road_properties(&g)?;
    let mut set = EdgeSet::new(g.n, &g.edges);
    let mut rng = Rng::new(a.seed, 4);
    graph::prime(
        &mut [&mut engine],
        &mut set,
        &ROAD_CHURN,
        &mut rng,
        &mut chk,
    );
    graph::round(&mut engine, None, &mut set, &ROAD_CHURN, &mut rng, &mut chk);
    let r = graph::rounds(
        &mut engine,
        None,
        &mut set,
        &ROAD_CHURN,
        Budget::new(a.seconds, 3),
        &mut rng,
        &mut chk,
    );
    eprintln!(
        "graph-road: {} rounds, pool width {}",
        r.rounds.len(),
        rayon::current_num_threads()
    );
    let series = r.series();
    series.log();
    let mut out = Metrics::default();
    series.put(&mut out);
    out.put(
        "bytes_per_edge",
        bytes as f64 / g.edges.len() as f64,
        "B/edge",
    );
    out.put("setup_s", setup_s, "s");
    Ok(Outcome {
        check: chk,
        metrics: out,
    })
}

fn serve_social(a: &Args) -> Result<Outcome, String> {
    let mut chk = Check::new();
    let (setup_s, (g, mut set, mut se, l0)) = timed_setup(SETUP_REPS, || {
        let g = social_graph(a.seed);
        let set = EdgeSet::new(g.n, &g.edges);
        let l0 = alloc::live_bytes();
        let se = serve::build(g.n, &g.edges, &mut chk);
        (g, set, se, l0)
    });
    social_properties(&g)?;
    let mut rng = Rng::new(a.seed, 4);
    let mut w = serve::Writer::new(&mut se, None, &mut set);
    w.prime(&SOCIAL_SHAPE, &mut rng, &mut chk);
    // exact: nothing but the engine and its snapshots allocated since `l0`;
    // peak: every retained snapshot published, most edges live
    let bytes = (alloc::live_bytes() - l0) as f64 / w.set.live.len() as f64;
    let (r, reader) = w.rounds(&SOCIAL_SHAPE, Budget::new(a.seconds, 3), &mut rng, &mut chk);
    eprintln!(
        "serve-social: {} rounds, {} reads",
        r.rounds.len(),
        reader.reads
    );
    let series = r.series();
    series.log();
    let mut out = Metrics::default();
    series.put(&mut out);
    out.put("bytes_per_edge", bytes, "B/edge");
    out.put("setup_s", setup_s, "s");
    Ok(Outcome {
        check: chk,
        metrics: out,
    })
}

/// What each layer probe leaves for the per-layer metrics.
struct ForestProbe {
    forest: UfoForest,
    walls: Vec<f64>,
}

struct GraphProbe {
    rounds: graph::Rounds,
    peak_edges: usize,
    peak_bytes: usize,
}

struct ServeProbe {
    rounds: serve::Rounds,
    reader: serve::Reader,
    engine: UfoServingEngine,
}

fn probe_forest(
    n: usize,
    edges: Vec<(usize, usize)>,
    queries: usize,
    budget: (f64, usize),
    seed: u64,
    chk: &mut Check,
) -> ForestProbe {
    let weights = forest::weights(n, seed);
    let mut f = forest::build(n, &edges, &weights, chk);
    let input = ForestInput::new(n, edges, weights, queries, seed);
    let mut lc = forest::linkcut_build(&input, chk);
    let mut rng = Rng::new(seed, 6);
    forest::round(&mut f, &input, &mut rng, chk, Some(&mut lc));
    let budget = Budget::new(budget.0, budget.1);
    let r = forest::rounds(&mut f, &input, budget, &mut rng, chk, Some(&mut lc));
    ForestProbe {
        forest: f,
        walls: r.rounds.iter().map(forest::Round::wall).collect(),
    }
}

fn probe_graph(
    n: usize,
    edges: &[(usize, usize)],
    churn: &Churn,
    budget: (f64, usize),
    seed: u64,
    chk: &mut Check,
) -> GraphProbe {
    let mut g = graph::build(n, edges, ParallelConfig::default(), chk);
    let mut twin = graph::build(n, edges, ParallelConfig::sequential(), chk);
    let b = g.memory_breakdown();
    let peak_bytes = b.total() - b.snapshots;
    eprintln!("connectivity memory at peak: {b}");
    let mut set = EdgeSet::new(n, edges);
    let mut rng = Rng::new(seed, 7);
    graph::prime(&mut [&mut g, &mut twin], &mut set, churn, &mut rng, chk);
    graph::round(&mut g, Some(&mut twin), &mut set, churn, &mut rng, chk);
    let rounds = graph::rounds(
        &mut g,
        Some(&mut twin),
        &mut set,
        churn,
        Budget::new(budget.0, budget.1),
        &mut rng,
        chk,
    );
    GraphProbe {
        rounds,
        peak_edges: edges.len(),
        peak_bytes,
    }
}

fn probe_serve(
    n: usize,
    edges: &[(usize, usize)],
    shape: &Shape,
    budget: (f64, usize),
    seed: u64,
    chk: &mut Check,
) -> ServeProbe {
    let mut se = serve::build(n, edges, chk);
    let mut bare = serve::build_bare(n, edges, chk);
    let mut set = EdgeSet::new(n, edges);
    let mut rng = Rng::new(seed, 8);
    let mut w = serve::Writer::new(&mut se, Some(&mut bare), &mut set);
    w.prime(shape, &mut rng, chk);
    let (rounds, reader) = w.rounds(shape, Budget::new(budget.0, budget.1), &mut rng, chk);
    drop(w);
    eprintln!("serving memory: {}", se.memory_breakdown());
    ServeProbe {
        rounds,
        reader,
        engine: se,
    }
}

/// The traced run: the workload's own layer on its own input, then probes
/// of the other two layers on inputs derived from it, all traced; then the
/// workload's own rounds again untraced, for the tracing overhead.
fn traced(a: &Args) -> Result<Outcome, String> {
    let mut chk = Check::new();
    let (s, seed) = (a.seconds, a.seed);
    // (seconds, least rounds) of each probe; its clock starts when its
    // rounds do, after its own set-up
    let (own, other) = ((0.4 * s, 2), (0.2 * s, 1));
    trace::set_enabled(true);
    let t_start = trace::now_ns();
    let (fp, gp, sp, traced_walls) = match a.workload.as_str() {
        "forest-hubs" => {
            let edges = hubs_edges(seed);
            hubs_properties(&edges)?;
            let graph = hubs_graph(&edges, seed);
            let fp = probe_forest(HUB_N, edges, HUB_QUERIES, own, seed, &mut chk);
            let churn = probe_churn(graph.len());
            let gp = probe_graph(HUB_N, &graph, &churn, other, seed, &mut chk);
            let sp = probe_serve(HUB_N, &graph, &PROBE_SHAPE, other, seed, &mut chk);
            let walls = fp.walls.clone();
            (fp, gp, sp, walls)
        }
        "graph-road" => {
            let g = road_graph(seed);
            road_properties(&g)?;
            let gp = probe_graph(g.n, &g.edges, &ROAD_CHURN, own, seed, &mut chk);
            let fp = probe_forest(g.n, spanning(&g, seed), 3 * 1024, other, seed, &mut chk);
            let sp = probe_serve(g.n, &g.edges, &PROBE_SHAPE, other, seed, &mut chk);
            let walls = gp.rounds.rounds.iter().map(graph::Round::wall).collect();
            (fp, gp, sp, walls)
        }
        _ => {
            let g = social_graph(seed);
            social_properties(&g)?;
            let sp = probe_serve(g.n, &g.edges, &SOCIAL_SHAPE, own, seed, &mut chk);
            let fp = probe_forest(g.n, spanning(&g, seed), 3 * 1024, other, seed, &mut chk);
            let churn = probe_churn(g.edges.len());
            let gp = probe_graph(g.n, &g.edges, &churn, other, seed, &mut chk);
            let walls = sp.rounds.rounds.iter().map(serve::Round::wall).collect();
            (fp, gp, sp, walls)
        }
    };
    let t_end = trace::now_ns();
    trace::set_enabled(false);
    let main_spans = trace::take(0);
    let attribution = trace::attribute(&main_spans, t_start, t_end);
    let untraced = untraced_walls(a, traced_walls.len(), &mut chk);
    let overhead = median(&traced_walls) / median(&untraced) - 1.0;

    let mut spans = main_spans;
    spans.extend(sp.reader.spans.iter().cloned());
    let totals = trace::Totals::of(&spans);
    print_attribution(&attribution);
    let path =
        std::path::PathBuf::from(".bench_trace").join(format!("{}-seed{}.tsv", a.workload, a.seed));
    match trace::write(&path, &spans) {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }

    let mut out = Metrics::default();
    forest::layer_metrics(&totals, &fp.forest, &mut out);
    graph::layer_metrics(&totals, &gp.rounds, gp.peak_edges, gp.peak_bytes, &mut out);
    serve::layer_metrics(&totals, &sp.reader, &sp.engine, &mut out);
    out.put(
        "workloads.generate_s",
        totals.per_call("workloads.generate") / 1e9,
        "s",
    );
    out.put(
        "trace.unattributed_share",
        attribution.unattributed_ns as f64 / attribution.wall_ns as f64,
        "share",
    );
    out.put("trace.overhead", overhead, "share");
    Ok(Outcome {
        check: chk,
        metrics: out,
    })
}

/// End-to-end seconds of `rounds` untraced rounds of the workload's own
/// layer, set up and shaped as in the traced run.
fn untraced_walls(a: &Args, rounds: usize, chk: &mut Check) -> Vec<f64> {
    let (budget, seed) = (Budget::new(0.0, rounds), a.seed);
    match a.workload.as_str() {
        "forest-hubs" => {
            let edges = hubs_edges(seed);
            let weights = forest::weights(HUB_N, seed);
            let mut f = forest::build(HUB_N, &edges, &weights, chk);
            let input = ForestInput::new(HUB_N, edges, weights, HUB_QUERIES, seed);
            let mut rng = Rng::new(seed, 6);
            forest::round(&mut f, &input, &mut rng, chk, None);
            let r = forest::rounds(&mut f, &input, budget, &mut rng, chk, None);
            r.rounds.iter().map(forest::Round::wall).collect()
        }
        "graph-road" => {
            let g = road_graph(seed);
            let mut engine = graph::build(g.n, &g.edges, ParallelConfig::default(), chk);
            let mut set = EdgeSet::new(g.n, &g.edges);
            let mut rng = Rng::new(seed, 7);
            graph::prime(&mut [&mut engine], &mut set, &ROAD_CHURN, &mut rng, chk);
            graph::round(&mut engine, None, &mut set, &ROAD_CHURN, &mut rng, chk);
            let r = graph::rounds(
                &mut engine,
                None,
                &mut set,
                &ROAD_CHURN,
                budget,
                &mut rng,
                chk,
            );
            r.rounds.iter().map(graph::Round::wall).collect()
        }
        _ => {
            let g = social_graph(seed);
            let mut se = serve::build(g.n, &g.edges, chk);
            let mut set = EdgeSet::new(g.n, &g.edges);
            let mut rng = Rng::new(seed, 8);
            let mut w = serve::Writer::new(&mut se, None, &mut set);
            w.prime(&SOCIAL_SHAPE, &mut rng, chk);
            let (r, _) = w.rounds(&SOCIAL_SHAPE, budget, &mut rng, chk);
            r.rounds.iter().map(serve::Round::wall).collect()
        }
    }
}

fn print_attribution(a: &trace::Attribution) {
    let wall = a.wall_ns as f64;
    eprintln!("self time by span (main thread), wall {:.3} s:", wall / 1e9);
    let mut rows: Vec<(&str, u64)> = a.self_ns.iter().map(|(k, v)| (*k, *v)).collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.1));
    for (name, ns) in &rows {
        eprintln!(
            "  {name:<34} {:>10.3} s {:>6.2} %",
            *ns as f64 / 1e9,
            100.0 * *ns as f64 / wall
        );
    }
    eprintln!(
        "  {:<34} {:>10.3} s {:>6.2} %",
        "(unattributed)",
        a.unattributed_ns as f64 / 1e9,
        100.0 * a.unattributed_ns as f64 / wall
    );
    let sum: u64 = a.self_ns.values().sum::<u64>() + a.unattributed_ns;
    eprintln!(
        "  self times + unattributed = {sum} ns, wall = {} ns",
        a.wall_ns
    );
}
