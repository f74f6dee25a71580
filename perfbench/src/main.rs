//! End-to-end and per-layer benchmark of the UFO-trees workspace.
//!
//! ```text
//! perfbench --workload <forest-hubs|graph-road|serve-social> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Prints diagnostics on standard error and, as the last line of standard
//! output, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics` (the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`).  See `README.md` beside this package.

mod alloc;
mod common;
mod forest;
mod graph;
mod oracle;
mod rng;
mod serve;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

use workloads::Args;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Pool width: every timed section keeps to at most two busy threads.
const MAX_POOL_WIDTH: usize = 2;

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value {value:?} for {flag}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <forest-hubs|graph-road|serve-social> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let width = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(MAX_POOL_WIDTH);
    rayon::ThreadPoolBuilder::new()
        .num_threads(width)
        .build_global()
        .expect("the pool is built before any parallel call");
    match workloads::run(&args) {
        Ok(out) => {
            println!(
                "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
                out.check.state_ok,
                out.check.attempted.max(1),
                out.check.failed,
                out.metrics.to_json()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
