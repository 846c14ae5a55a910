//! Determinism property for the concurrency pass: the lock model (and
//! the S050–S055 findings derived from it) extracted from a workspace
//! must be byte-identical no matter how many loader threads built the
//! [`FileModel`]s. The strided fan-out in `load_workspace_threads`
//! promises order-stable output; this pins the promise against the one
//! pass family whose cross-file state (registry, order edges, closure
//! sinks) would scramble first if it broke.
//!
//! Each case materialises a synthetic `crates/serve/src` workspace from
//! lexical fragments (lock fields, guard chains, foreign calls, closure
//! sinks, waivers) in a throwaway temp dir, then runs the extraction at
//! 1, 2 and 4 threads and demands identical results.

// Harness code: a panic is how a test, bench or gate reports failure.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;

use hierdiff_analyze::concurrency::{concurrency_discipline, LockModel};
use hierdiff_analyze::resolve::CallGraph;
use hierdiff_analyze::workspace::load_workspace_threads;

/// Item-level fragments the generator assembles files from. Every
/// fragment is self-contained at item granularity so any interleaving
/// is a lexically well-formed source file; duplicate fn names across
/// picks are fine (the analyzer is token-level, and name collisions
/// only widen the opaque-receiver fan — identically at every thread
/// count).
const ITEMS: &[&str] = &[
    "pub struct Hub { a: Mutex<u8>, b: Mutex<u8>, log: RwLock<Vec<u8>> }",
    "impl Hub {\n    fn ab(&self) {\n        let g = self.a.lock().unwrap_or_else(PoisonError::into_inner);\n        let h = self.b.lock().unwrap_or_else(PoisonError::into_inner);\n        drop(h);\n        drop(g);\n    }\n}",
    "impl Hub {\n    fn ba(&self) {\n        let g = self.b.lock().unwrap_or_else(PoisonError::into_inner);\n        let h = self.a.lock().unwrap_or_else(PoisonError::into_inner);\n        drop(h);\n        drop(g);\n    }\n}",
    "impl Hub {\n    fn observe(&self, obs: &Observer) {\n        let g = self.a.lock().unwrap_or_else(PoisonError::into_inner);\n        obs.fire(*g);\n    }\n}",
    "impl Hub {\n    fn sloppy(&self) {\n        let g = self.a.lock().unwrap();\n        drop(g);\n    }\n}",
    "impl Hub {\n    fn nap(&self) {\n        let g = self.log.write().unwrap_or_else(PoisonError::into_inner);\n        std::thread::sleep(ms);\n        drop(g);\n    }\n}",
    "impl Hub {\n    fn with_a<R>(&self, f: impl FnOnce(&mut u8) -> R) -> R {\n        let mut g = self.a.lock().unwrap_or_else(PoisonError::into_inner);\n        f(&mut g)\n    }\n}",
    "fn caller(h: &Hub, obs: &Observer) {\n    h.with_a(|v| obs.fire(*v));\n}",
    "fn tail(h: &Hub) {\n    let g = h.b.lock().unwrap_or_else(PoisonError::into_inner);\n    // analyze: allow(S054) fixture: the wait is the point\n    wait(&g);\n}",
    "fn local_pair() {\n    let m = Mutex::new(0u8);\n    let g = m.lock().unwrap_or_else(PoisonError::into_inner);\n    drop(g);\n}",
    "fn shielded(h: &Hub) {\n    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| h.ab()));\n    if r.is_err() {\n        h.quarantine();\n    }\n}",
    "fn plain() -> usize {\n    1 + 2\n}",
];

/// Unique-per-case suffix so concurrent proptest shrink runs never share
/// a directory.
static CASE: AtomicUsize = AtomicUsize::new(0);

/// Temp workspace that always cleans up after itself.
struct TempWs {
    root: PathBuf,
}

impl TempWs {
    fn new(files: &[String]) -> TempWs {
        let root = std::env::temp_dir().join(format!(
            "hierdiff_lock_props_{}_{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        let src = root.join("crates").join("serve").join("src");
        fs::create_dir_all(&src).expect("temp workspace dir");
        for (i, body) in files.iter().enumerate() {
            fs::write(src.join(format!("gen_{i}.rs")), body).expect("write fixture");
        }
        TempWs { root }
    }

    /// Loads at `threads` and runs the concurrency pass, returning
    /// everything the pass produced in comparable form.
    fn extract(&self, threads: usize) -> (LockModel, Vec<String>, usize, String) {
        let ws = load_workspace_threads(&self.root, threads).expect("load temp workspace");
        let graph = CallGraph::build(&ws.files);
        let mut findings = Vec::new();
        let mut waived = 0usize;
        let model = concurrency_discipline(&ws.files, &graph, &mut findings, &mut waived);
        let rendered: Vec<String> = findings.iter().map(|f| f.to_string()).collect();
        let dot = model.render_dot();
        (model, rendered, waived, dot)
    }
}

impl Drop for TempWs {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn lock_model_is_identical_across_loader_thread_counts(
        files in proptest::collection::vec(
            proptest::collection::vec(0usize..ITEMS.len(), 1..8),
            1..5,
        )
    ) {
        let sources: Vec<String> = files
            .iter()
            .map(|picks| {
                let mut s = String::from("use std::sync::{Mutex, PoisonError, RwLock};\n\n");
                for &i in picks {
                    s.push_str(ITEMS[i]);
                    s.push_str("\n\n");
                }
                s
            })
            .collect();
        let ws = TempWs::new(&sources);
        let baseline = ws.extract(1);
        for threads in [2usize, 4] {
            let got = ws.extract(threads);
            prop_assert_eq!(
                &got.0, &baseline.0,
                "lock model diverged at {} loader threads", threads
            );
            prop_assert_eq!(
                &got.1, &baseline.1,
                "findings diverged at {} loader threads", threads
            );
            prop_assert_eq!(
                got.2, baseline.2,
                "waiver count diverged at {} loader threads", threads
            );
            prop_assert_eq!(
                &got.3, &baseline.3,
                "DOT rendering diverged at {} loader threads", threads
            );
        }
    }
}
