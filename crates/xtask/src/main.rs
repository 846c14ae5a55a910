//! Workspace automation tasks (`cargo run -p xtask -- <task>`).
//!
//! * `analyze` — the `S0xx` token-level analyzer: hot-loop and
//!   guard-coverage discipline, arena discipline, concurrency discipline,
//!   and public-API surface snapshots under `api/`. Any finding without an
//!   inline `// analyze: allow(CODE) reason` waiver fails, and so does a
//!   waiver that suppresses nothing.
//!
//! The engine lives in `hierdiff-analyze`; this binary is argument
//! parsing and file I/O. The unwrap/expect/panic/indexing and `unsafe`
//! policy is not here: rustc and clippy enforce it through the root
//! manifest's `[workspace.lints]`, and a unit test below keeps every
//! crate opted in.
//! See DESIGN.md ("Diagnostics & static analysis") for how the `S0xx`
//! codes relate to the runtime `A0xx` audit codes.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use hierdiff_analyze as analyze;

const USAGE: &str = "usage: cargo run -p xtask -- <task>\n\
\n\
  analyze              run the S0xx analyzer (hot loops, guard coverage,\n\
                       arenas, concurrency, API surface, unused waivers);\n\
                       any finding fails\n\
  analyze --json PATH      additionally write the JSON report to PATH\n\
  analyze --check-api      only check api/*.txt snapshots for drift\n\
  analyze --write-api      regenerate api/*.txt from the current sources\n\
  analyze --bench PATH     time the analyzer at 1/2/4 loader threads and\n\
                           write the medians (total and concurrency-pass\n\
                           wall time) to PATH as JSON\n\
  analyze --lock-graph PATH    write the serve/guard lock acquisition-order\n\
                               graph (S050) to PATH as Graphviz DOT";

fn repo_root() -> PathBuf {
    // crates/xtask -> crates -> repo root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .unwrap_or(Path::new("."))
        .to_path_buf()
}

/// What `analyze` should do, parsed from its flags.
enum AnalyzeMode {
    Check { json: Option<PathBuf> },
    CheckApiOnly,
    WriteApi,
    Bench { json: PathBuf },
    LockGraph { dot: PathBuf },
}

fn run_analyze(mode: AnalyzeMode) -> Result<bool, String> {
    let root = repo_root();
    match mode {
        AnalyzeMode::WriteApi => {
            let n = analyze::write_api_snapshots(&root)
                .map_err(|e| format!("writing API snapshots: {e}"))?;
            println!("wrote {n} API snapshots to {}/", analyze::API_DIR);
            Ok(true)
        }
        AnalyzeMode::CheckApiOnly => {
            let ws = analyze::workspace::load_workspace(&root)
                .map_err(|e| format!("scanning sources: {e}"))?;
            let findings = analyze::workspace::check_api_snapshots(&root, &ws)
                .map_err(|e| format!("reading API snapshots: {e}"))?;
            for f in &findings {
                println!("{f}");
            }
            if findings.is_empty() {
                println!("analyze: API surface matches the checked-in snapshots");
                Ok(true)
            } else {
                println!(
                    "analyze: API surface drift — review the report above, then run\n\
                     `cargo run -p xtask -- analyze --write-api` to regenerate the snapshots"
                );
                Ok(false)
            }
        }
        AnalyzeMode::Bench { json } => {
            const RUNS: usize = 5;
            let mut points = Vec::new();
            for threads in [1usize, 2, 4] {
                let mut wall_ms = Vec::with_capacity(RUNS);
                let mut conc_ms = Vec::with_capacity(RUNS);
                let mut findings = 0usize;
                for _ in 0..RUNS {
                    let t0 = std::time::Instant::now();
                    let analysis = analyze::run_analysis_threads(&root, threads)
                        .map_err(|e| format!("analyzing sources: {e}"))?;
                    wall_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                    conc_ms.push(analysis.concurrency_nanos as f64 / 1e6);
                    findings = analysis.findings.len();
                }
                wall_ms.sort_by(f64::total_cmp);
                conc_ms.sort_by(f64::total_cmp);
                let median = wall_ms.get(RUNS / 2).copied().unwrap_or_default();
                let conc = conc_ms.get(RUNS / 2).copied().unwrap_or_default();
                println!(
                    "analyze bench: {threads} thread(s): median {median:.3} ms over {RUNS} runs \
                     (concurrency pass {conc:.3} ms)"
                );
                points.push(format!(
                    "    {{\n      \"threads\": {threads},\n      \"median_wall_ms\": {median:.6},\n      \"median_concurrency_ms\": {conc:.6},\n      \"findings\": {findings}\n    }}"
                ));
            }
            let rendered = format!(
                "{{\n  \"bench\": \"S0xx analyzer wall time over the workspace\",\n  \"runs\": {RUNS},\n  \"points\": [\n{}\n  ]\n}}\n",
                points.join(",\n")
            );
            std::fs::write(&json, rendered).map_err(|e| format!("{}: {e}", json.display()))?;
            println!("wrote analyzer bench to {}", json.display());
            Ok(true)
        }
        AnalyzeMode::LockGraph { dot } => {
            let analysis =
                analyze::run_analysis(&root).map_err(|e| format!("analyzing sources: {e}"))?;
            let model = &analysis.lock_model;
            std::fs::write(&dot, model.render_dot())
                .map_err(|e| format!("{}: {e}", dot.display()))?;
            println!(
                "wrote lock-order graph to {} ({} lock(s), {} edge(s), {} cyclic)",
                dot.display(),
                model.locks.len(),
                model.edges.len(),
                model.cyclic.len()
            );
            Ok(true)
        }
        AnalyzeMode::Check { json } => {
            let analysis =
                analyze::run_analysis(&root).map_err(|e| format!("analyzing sources: {e}"))?;
            if let Some(json_path) = json {
                let rendered = analyze::render_json(&analysis.findings, analysis.waived);
                std::fs::write(&json_path, rendered)
                    .map_err(|e| format!("{}: {e}", json_path.display()))?;
                println!("wrote JSON report to {}", json_path.display());
            }
            for f in &analysis.findings {
                println!("{f}");
            }
            println!(
                "analyze: {} finding(s), {} site(s) waived inline",
                analysis.findings.len(),
                analysis.waived
            );
            Ok(analysis.findings.is_empty())
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let ok = match args.as_slice() {
        ["analyze"] => run_analyze(AnalyzeMode::Check { json: None }),
        ["analyze", "--json", path] => run_analyze(AnalyzeMode::Check {
            json: Some(PathBuf::from(path)),
        }),
        ["analyze", "--check-api"] => run_analyze(AnalyzeMode::CheckApiOnly),
        ["analyze", "--write-api"] => run_analyze(AnalyzeMode::WriteApi),
        ["analyze", "--bench", path] => run_analyze(AnalyzeMode::Bench {
            json: PathBuf::from(path),
        }),
        ["analyze", "--lock-graph", path] => run_analyze(AnalyzeMode::LockGraph {
            dot: PathBuf::from(path),
        }),
        ["-h"] | ["--help"] => {
            eprintln!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match ok {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// L005's guarantee, kept by the compiler: every crate inherits the
    /// workspace lints, so none can opt out of `forbid(unsafe_code)` or
    /// the clippy panic policy, and that policy denies the panic sites
    /// S003/S004 used to report.
    #[test]
    fn every_crate_inherits_the_workspace_lints() {
        let crates = repo_root().join("crates");
        let mut checked = 0;
        for entry in std::fs::read_dir(&crates).unwrap() {
            let manifest = entry.unwrap().path().join("Cargo.toml");
            if !manifest.is_file() {
                continue;
            }
            let text = std::fs::read_to_string(&manifest).unwrap();
            let inherits = text
                .split("\n[")
                .any(|table| table.starts_with("lints]") && table.contains("\nworkspace = true"));
            assert!(
                inherits,
                "{}: missing `[lints] workspace = true`",
                manifest.display()
            );
            checked += 1;
        }
        assert!(checked > 0, "no crates found under {}", crates.display());

        // The root table keeps the panic-site lints the retired S003/S004
        // analyzer codes used to check.
        let root = std::fs::read_to_string(repo_root().join("Cargo.toml")).unwrap();
        let clippy = root
            .split("\n[")
            .find(|table| table.starts_with("workspace.lints.clippy]"))
            .expect("root Cargo.toml has no [workspace.lints.clippy] table");
        for lint in ["indexing_slicing", "unreachable"] {
            assert!(
                clippy.lines().any(|l| l == format!("{lint} = \"deny\"")),
                "[workspace.lints.clippy] must set `{lint} = \"deny\"`"
            );
        }
    }
}
