//! The hierdiff benchmark: end-to-end metrics per workload, and per-layer
//! metrics from a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Every line but the last describes the run and its metrics, one per
//! line with unit and sample count. The last line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`, where `metrics` holds
//! the end-to-end metrics ([`E2E`]) of an untraced run or the per-layer
//! metrics ([`LAYERS`]) of a traced run. A failed output check makes
//! `correct` false and the exit code 1.

mod pairs;
mod report;
mod serve;
mod spans;
mod stages;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;

use hierdiff_serve::ServeReport;

use crate::pairs::PairSpec;
use crate::report::Report;
use crate::spans::Trace;
use crate::stages::Pipeline;
use crate::stats::mean;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = [
    "ladiff-large",
    "dense-fastmatch",
    "dense-gumtree",
    "serve-chain",
];

/// The seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// How many times each run repeats the program's set-up; `setup_s` is
/// the median.
pub const SETUP_REPS: usize = 5;

/// Distinct pairs of the dense workloads: enough that the spread of their
/// per-pair costs averages out within one run.
const DENSE_PAIRS: usize = 256;

/// End-to-end metrics: the result object of an untraced run.
pub const E2E: [&str; 5] = [
    "setup_s",
    "ops_per_s",
    "latency_p50_ms",
    "latency_p90_ms",
    "peak_rss_mb",
];

/// Per-layer metrics: the result object of a traced run. Times are
/// medians over the ops that enter the layer; counts are means over the
/// workload's distinct pairs.
pub const LAYERS: [(&str, &str); 35] = [
    ("doc.parse_ms", "ms"),
    ("tree.index_ms", "ms"),
    ("matching.prune_ms", "ms"),
    ("matching.nodes_pruned", "count"),
    ("matching.prune_yield", "ratio"),
    ("matching.fast_ms", "ms"),
    ("matching.leaf_compares", "count"),
    ("matching.internal_compares", "count"),
    ("matching.chain_scans", "count"),
    ("lcs.match_cells", "count"),
    ("matching.gumtree_ms", "ms"),
    ("matching.gumtree_anchored_nodes", "count"),
    ("zs.recovery_runs", "count"),
    ("zs.recovered", "count"),
    ("zs.recovery_yield", "ratio"),
    ("edit.script_ms", "ms"),
    ("edit.ops", "count"),
    ("edit.moves", "count"),
    ("edit.misaligned_parents", "count"),
    ("edit.weighted_distance", "count"),
    ("lcs.align_cells", "count"),
    ("delta.build_ms", "ms"),
    ("delta.nodes", "count"),
    ("core.diff_ms", "ms"),
    ("core.self_ms", "ms"),
    ("serve.request_ms", "ms"),
    ("serve.pipeline_ms", "ms"),
    ("serve.self_ms", "ms"),
    ("serve.ingest_ms", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.rejected", "count"),
    ("serve.retried", "count"),
    ("serve.shed", "count"),
    ("serve.quarantined", "count"),
    ("serve.degraded", "count"),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?} (got {:?})",
            args.workload
        ));
    }
    Ok(args)
}

/// SplitMix64 of `seed` and `salt`: independent sub-seeds per input.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(salt.wrapping_add(1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Adds every per-layer metric from the traced run's spans, the stage
/// counts per distinct pair, and the service's report. Layers the
/// workload does not enter read 0.
pub fn add_layers(
    report: &mut Report,
    trace: &Trace,
    counts: &BTreeMap<&'static str, Vec<f64>>,
    served: Option<&ServeReport>,
) {
    let timed = |name: &str| trace.per_op(name).len();
    let layer_ms = |metric: &str| {
        let span = metric.trim_end_matches("_ms");
        match metric {
            "core.self_ms" => (
                trace.median_diff_ms("core.diff", "op.replay"),
                timed("core.diff"),
            ),
            "serve.self_ms" => (
                trace.median_diff_ms("serve.request", "serve.pipeline"),
                timed("serve.request"),
            ),
            _ => (trace.median_ms(span), timed(span)),
        }
    };
    let s = served.cloned().unwrap_or_default();
    let lookups = s.cache_hits + s.cache_misses;
    let serve_count = |name: &str| -> f64 {
        match name {
            "serve.cache_hit_ratio" if lookups > 0 => s.cache_hits as f64 / lookups as f64,
            "serve.rejected" => s.rejected as f64,
            "serve.retried" => s.retried as f64,
            "serve.shed" => s.shed as f64,
            "serve.quarantined" => s.quarantined as f64,
            "serve.degraded" => s.degraded as f64,
            _ => 0.0,
        }
    };
    for (name, unit) in LAYERS {
        if unit == "ms" {
            let (v, n) = layer_ms(name);
            report.add(name, v, unit, n);
        } else if name.starts_with("serve.") {
            report.add(name, serve_count(name), unit, s.requests as usize);
        } else {
            let v = counts.get(name).map_or(&[][..], Vec::as_slice);
            report.add(name, mean(v), unit, v.len());
        }
    }
    report.add_noted(
        "trace.overhead_ms",
        trace.median_ms("op.replay") - trace.median_ms("core.diff"),
        "ms",
        timed("op.replay"),
        "traced stage replay minus untraced Differ::diff, op medians".into(),
    );
    report.add_noted(
        "trace.replay_self_ms",
        trace.median_self_ms("op.replay"),
        "ms",
        timed("op.replay"),
        "replay time outside its stage spans".into(),
    );
}

/// Writes the traced run's spans to `out/spans-<workload>.jsonl` in the
/// benchmark's directory, replacing the previous run's.
pub fn write_spans(trace: &Trace, workload: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{workload}.jsonl"));
    match trace.write(&path) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => println!("spans not written ({}): {e}", path.display()),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let spec = |sections, pairs, pipeline| PairSpec {
        sections,
        pairs,
        pipeline,
    };
    let report = match args.workload.as_str() {
        "ladiff-large" => pairs::run(&spec(4200, 1, Pipeline::FastPruned), &args),
        "dense-fastmatch" => pairs::run(&spec(60, DENSE_PAIRS, Pipeline::Fast), &args),
        "dense-gumtree" => pairs::run(&spec(60, DENSE_PAIRS, Pipeline::GumTree), &args),
        _ => serve::run(&args),
    };
    let keep: Vec<&str> = if args.trace {
        LAYERS.iter().map(|(n, _)| *n).collect()
    } else {
        E2E.to_vec()
    };
    report.print(&keep);
    if !report.correct() {
        std::process::exit(1);
    }
}
