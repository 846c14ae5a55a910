//! Workspace orchestration: file discovery under `crates/*/src`, the
//! combined `S0xx` analysis, and API snapshot I/O.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::api;
use crate::arena::arena_discipline;
use crate::concurrency::{concurrency_discipline, LockModel};
use crate::guardcov::guard_coverage;
use crate::hotloop::hot_loop_lints;
use crate::parser::FileModel;
use crate::report::Finding;
use crate::resolve::CallGraph;

/// Where the API snapshots live, relative to the repo root.
pub const API_DIR: &str = "api";

/// The loaded workspace: one [`FileModel`] per `crates/*/src/**.rs` file,
/// sorted by path for determinism.
pub struct Workspace {
    /// The recovered files.
    pub files: Vec<FileModel>,
}

/// Recursively collects `.rs` files under `dir`, sorted for determinism.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Loads and recovers every source file under `crates/*/src`.
pub fn load_workspace(repo_root: &Path) -> io::Result<Workspace> {
    load_workspace_threads(repo_root, 1)
}

/// [`load_workspace`] with lex/recovery fanned out over `threads` worker
/// threads (file order stays deterministic regardless of thread count).
pub fn load_workspace_threads(repo_root: &Path, threads: usize) -> io::Result<Workspace> {
    let crates_dir = repo_root.join("crates");
    let mut roots: Vec<PathBuf> = fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok().map(|e| e.path().join("src")))
        .filter(|p| p.is_dir())
        .collect();
    roots.sort();

    let mut inputs: Vec<(String, String)> = Vec::new();
    for root in roots {
        let mut paths = Vec::new();
        rust_files(&root, &mut paths)?;
        for file in paths {
            let source = fs::read_to_string(&file)?;
            let rel = file
                .strip_prefix(repo_root)
                .unwrap_or(&file)
                .to_string_lossy()
                .replace('\\', "/");
            inputs.push((rel, source));
        }
    }

    let threads = threads.max(1).min(inputs.len().max(1));
    if threads == 1 {
        return Ok(Workspace {
            files: inputs
                .iter()
                .map(|(rel, src)| FileModel::build(rel, src))
                .collect(),
        });
    }
    // Strided fan-out: worker `w` builds files w, w+threads, …; slots are
    // filled by index so the output order matches the sequential path.
    let mut slots: Vec<Option<FileModel>> = Vec::new();
    slots.resize_with(inputs.len(), || None);
    let inputs_ref = &inputs;
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for w in 0..threads {
            handles.push(scope.spawn(move || {
                inputs_ref
                    .iter()
                    .enumerate()
                    .skip(w)
                    .step_by(threads)
                    .map(|(i, (rel, src))| (i, FileModel::build(rel, src)))
                    .collect::<Vec<_>>()
            }));
        }
        for h in handles {
            if let Ok(built) = h.join() {
                for (slot, model) in built {
                    if let Some(slot) = slots.get_mut(slot) {
                        *slot = Some(model);
                    }
                }
            }
        }
    });
    Ok(Workspace {
        files: slots.into_iter().flatten().collect(),
    })
}

/// The result of the `S0xx` analysis.
pub struct Analysis {
    /// All findings, from every pass.
    pub findings: Vec<Finding>,
    /// Sites suppressed by inline `analyze: allow(…)` waivers.
    pub waived: usize,
    /// The extracted serve/guard lock model (S050–S055); renders the
    /// `--lock-graph` DOT artifact.
    pub lock_model: LockModel,
    /// Wall time spent in the concurrency pass, for `--bench`.
    pub concurrency_nanos: u128,
}

/// Runs the full `S0xx` analysis: hot-loop discipline (S010/S011), API
/// snapshot checks and diff entry points (S020–S022), guard coverage
/// (S030/S031), arena discipline (S040–S043), concurrency discipline
/// (S050–S055), and unused waivers (S060).
pub fn run_analysis(repo_root: &Path) -> io::Result<Analysis> {
    run_analysis_threads(repo_root, 1)
}

/// [`run_analysis`] with workspace loading fanned out over `threads`.
pub fn run_analysis_threads(repo_root: &Path, threads: usize) -> io::Result<Analysis> {
    let ws = load_workspace_threads(repo_root, threads)?;
    let graph = CallGraph::build(&ws.files);
    let mut waived = 0usize;
    let mut findings = Vec::new();
    for model in &ws.files {
        hot_loop_lints(model, &mut findings, &mut waived);
    }
    guard_coverage(&ws.files, &graph, &mut findings, &mut waived);
    for model in &ws.files {
        api::stray_entry_points(model, &mut findings, &mut waived);
        arena_discipline(model, &mut findings, &mut waived);
    }
    let started = std::time::Instant::now();
    let lock_model = concurrency_discipline(&ws.files, &graph, &mut findings, &mut waived);
    let concurrency_nanos = started.elapsed().as_nanos();
    for model in &ws.files {
        unused_waivers(model, &mut findings);
    }
    findings.extend(check_api_snapshots(repo_root, &ws)?);
    Ok(Analysis {
        findings,
        waived,
        lock_model,
        concurrency_nanos,
    })
}

/// S060: a waiver no pass consulted on a finding, the analyzer's
/// counterpart of clippy's unfulfilled `#[expect]`. Runs after every pass
/// that honours waivers.
fn unused_waivers(model: &FileModel, findings: &mut Vec<Finding>) {
    for w in model.unused_waivers() {
        findings.push(Finding {
            path: model.rel.clone(),
            line: w.line,
            col: 0,
            code: "S060",
            message: format!(
                "`analyze: allow({})` waives nothing on this line; delete it",
                w.code
            ),
        });
    }
}

/// The library crates that carry an API snapshot: every `crates/<name>`
/// with a `src/lib.rs`, sorted.
pub fn snapshot_crates(repo_root: &Path) -> io::Result<Vec<String>> {
    let crates_dir = repo_root.join("crates");
    let mut names: Vec<String> = fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok())
        .filter(|e| e.path().join("src/lib.rs").is_file())
        .filter_map(|e| e.file_name().to_str().map(str::to_string))
        .collect();
    names.sort();
    Ok(names)
}

/// The current (freshly extracted) API surface of `crate_name`, sorted.
/// Binary targets under `src/bin/` are not surface.
fn current_surface(ws: &Workspace, crate_name: &str) -> Vec<String> {
    let prefix = format!("crates/{crate_name}/src/");
    let mut lines = Vec::new();
    for model in &ws.files {
        if model.rel.starts_with(&prefix) && !model.rel.contains("/src/bin/") {
            lines.extend(api::file_signatures(model));
        }
    }
    lines.sort();
    lines
}

/// Compares every library crate's surface against its checked-in snapshot:
/// a missing snapshot is S020, drift is S021.
pub fn check_api_snapshots(repo_root: &Path, ws: &Workspace) -> io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    for name in snapshot_crates(repo_root)? {
        let current = current_surface(ws, &name);
        let snap_rel = format!("{API_DIR}/{name}.txt");
        let snap_path = repo_root.join(&snap_rel);
        let snapshot = match fs::read_to_string(&snap_path) {
            Ok(text) => api::parse_snapshot(&text),
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                findings.push(Finding {
                    path: snap_rel,
                    line: 1,
                    col: 0,
                    code: "S020",
                    message: format!(
                        "missing API snapshot for crate `{name}` ({} pub items); \
                         run `cargo run -p xtask -- analyze --write-api`",
                        current.len()
                    ),
                });
                continue;
            }
            Err(e) => return Err(e),
        };
        let (added, removed) = api::surface_diff(&current, &snapshot);
        if !added.is_empty() || !removed.is_empty() {
            let mut detail = String::new();
            for a in added.iter().take(3) {
                detail.push_str(&format!("\n    + {a}"));
            }
            for r in removed.iter().take(3) {
                detail.push_str(&format!("\n    - {r}"));
            }
            findings.push(Finding {
                path: snap_rel,
                line: 1,
                col: 0,
                code: "S021",
                message: format!(
                    "API surface of crate `{name}` drifted from its snapshot \
                     (+{} −{}); review, then run \
                     `cargo run -p xtask -- analyze --write-api` to accept{detail}",
                    added.len(),
                    removed.len()
                ),
            });
        }
    }
    Ok(findings)
}

/// Regenerates every crate's `api/<crate>.txt`; returns the crate count.
pub fn write_api_snapshots(repo_root: &Path) -> io::Result<usize> {
    let ws = load_workspace(repo_root)?;
    let dir = repo_root.join(API_DIR);
    fs::create_dir_all(&dir)?;
    let names = snapshot_crates(repo_root)?;
    for name in &names {
        let current = current_surface(&ws, name);
        fs::write(
            dir.join(format!("{name}.txt")),
            api::render_snapshot(name, &current),
        )?;
    }
    Ok(names.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_waiver_that_suppresses_nothing_is_s060() {
        // Line 4's waiver suppresses a real S010; line 5's names a code
        // no pass reports there, so only it is stale.
        let model = FileModel::build(
            "crates/lcs/src/k.rs",
            "//! hierdiff-analyze: hot-module\nfn f(xs: &[u8]) {\n    for _ in xs {\n        \
             let v = Vec::new(); // analyze: allow(S010) per-round scratch\n        \
             work(v); // analyze: allow(S011) stale\n    }\n}\n",
        );
        let (mut findings, mut waived) = (Vec::new(), 0);
        hot_loop_lints(&model, &mut findings, &mut waived);
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(waived, 1);
        unused_waivers(&model, &mut findings);
        let stale: Vec<(usize, &str)> = findings.iter().map(|f| (f.line, f.code)).collect();
        assert_eq!(stale, vec![(5, "S060")]);
        assert!(findings[0].message.contains("allow(S011)"));
    }
}
