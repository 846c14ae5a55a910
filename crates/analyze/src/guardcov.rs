//! Guard coverage (S030/S031): every loop the diff pipeline can execute
//! must be governed by the budget machinery.
//!
//! Two tiers, matching how PR 4 threaded `Guard::tick()` through the
//! kernels:
//!
//! * **S030** — in a `hierdiff-analyze: hot-module` file (the governed
//!   kernels), every loop's *direct* body must contain a `tick()` or
//!   `checkpoint()` call. "Direct" excludes nested loop interiors, so a
//!   tick inside an inner loop does not satisfy the outer one — removing
//!   any single tick from a kernel makes exactly one loop ungoverned.
//! * **S031** — in the governed crates, every loop inside a function
//!   reachable from `Differ::diff` (over the resolved call graph) must
//!   contain a tick/checkpoint at any depth, or call into a governed
//!   kernel (whose own loops carry the guard). Hot files are covered by
//!   the stricter S030 and skipped here.
//!
//! Both codes honour the usual `// analyze: allow(S03x) reason` waiver
//! on the loop's opening line or the first line of its body (rustfmt
//! moves trailing brace comments there).

use std::collections::BTreeSet;

use crate::lexer::TokenKind;
use crate::parser::{FileModel, LoopRegion};
use crate::report::Finding;
use crate::resolve::{crate_of, entry_roots, CallGraph};

/// Call names that count as governance.
const GUARD_CALLS: &[&str] = &["tick", "checkpoint"];

/// Crates whose `Differ::diff`-reachable loops are governed (S031).
pub const GOVERNED_CRATES: &[&str] = &["lcs", "matching", "edit"];

/// The root for S031 reachability.
const DIFF_ENTRY: &[(&str, &str)] = &[("crates/core/src/differ.rs", "diff")];

/// Runs the guard-coverage passes over the whole workspace.
pub fn guard_coverage(
    files: &[FileModel],
    graph: &CallGraph,
    findings: &mut Vec<Finding>,
    waived: &mut usize,
) {
    // Functions defined in hot (kernel) files: a loop that calls one
    // delegates governance to the kernel's own guarded loops.
    let mut hot_fns: BTreeSet<&str> = BTreeSet::new();
    for model in files {
        if model.hot {
            for f in &model.fns {
                if !f.is_test && f.body.is_some() {
                    hot_fns.insert(f.name.as_str());
                }
            }
        }
    }
    let reached = graph.reachable(entry_roots(files, DIFF_ENTRY));

    for (fi, model) in files.iter().enumerate() {
        let krate = crate_of(&model.rel).unwrap_or("");
        let governed_crate = GOVERNED_CRATES.contains(&krate);
        if !model.hot && !governed_crate {
            continue;
        }
        for l in &model.loops {
            let Some(fn_idx) = model.enclosing_fn(l.open) else {
                continue;
            };
            let Some(f) = model.fns.get(fn_idx) else {
                continue;
            };
            if f.is_test {
                continue;
            }
            let Some(open_tok) = model.tok(l.open) else {
                continue;
            };
            let (line, col) = (open_tok.line, open_tok.col);
            if model.is_test_line(line) {
                continue;
            }
            if model.hot {
                if direct_body_ticks(model, l) {
                    continue;
                }
                if loop_waived(model, line, "S030") {
                    *waived += 1;
                    continue;
                }
                findings.push(Finding {
                    path: model.rel.clone(),
                    line,
                    col,
                    code: "S030",
                    message: format!(
                        "ungoverned loop in hot kernel fn `{}`: no `tick()`/`checkpoint()` \
                         in the loop's direct body (nested loops' ticks do not count)",
                        f.name
                    ),
                });
            } else if reached.contains_key(&(fi, fn_idx)) {
                if body_ticks_or_delegates(model, l, &hot_fns) {
                    continue;
                }
                if loop_waived(model, line, "S031") {
                    *waived += 1;
                    continue;
                }
                findings.push(Finding {
                    path: model.rel.clone(),
                    line,
                    col,
                    code: "S031",
                    message: format!(
                        "ungoverned loop in `{}` (reachable from `Differ::diff`): no \
                         `tick()`/`checkpoint()` call and no delegation to a governed kernel",
                        f.name
                    ),
                });
            }
        }
    }
}

/// A loop waiver counts on the loop's opening-brace line *or* the line
/// right after it — rustfmt moves a trailing `{ // analyze: allow(..)`
/// comment onto the first line of the body, and the waiver must survive
/// reformatting.
fn loop_waived(model: &FileModel, open_line: usize, code: &str) -> bool {
    model.waived(open_line, code) || model.waived(open_line + 1, code)
}

/// Whether significant index `s` is a `tick(`/`checkpoint(` call head.
fn is_guard_call(model: &FileModel, s: usize) -> bool {
    model.tok(s).is_some_and(|t| t.kind == TokenKind::Ident)
        && model.punct(s + 1, '(')
        && GUARD_CALLS.contains(
            &model
                .tok(s)
                .map(|t| model.lexed.text(t))
                .unwrap_or_default()
                .as_str(),
        )
}

/// Whether the loop's direct body — its span minus any nested loop
/// interiors — contains a guard call.
fn direct_body_ticks(model: &FileModel, l: &LoopRegion) -> bool {
    // Nested loops strictly inside `l`.
    let nested: Vec<&LoopRegion> = model
        .loops
        .iter()
        .filter(|l2| l2.open > l.open && l2.close <= l.close)
        .collect();
    let mut s = l.open + 1;
    while s < l.close {
        if let Some(inner) = nested.iter().find(|l2| l2.open <= s && s <= l2.close) {
            s = inner.close + 1;
            continue;
        }
        if is_guard_call(model, s) {
            return true;
        }
        s += 1;
    }
    false
}

/// Whether the loop body contains a guard call at any depth, or a call to
/// a function defined in a governed kernel file.
fn body_ticks_or_delegates(model: &FileModel, l: &LoopRegion, hot_fns: &BTreeSet<&str>) -> bool {
    for s in l.open + 1..l.close {
        if is_guard_call(model, s) {
            return true;
        }
        if model.tok(s).is_some_and(|t| t.kind == TokenKind::Ident) && model.punct(s + 1, '(') {
            let name = model
                .tok(s)
                .map(|t| model.lexed.text(t))
                .unwrap_or_default();
            if hot_fns.contains(name.as_str()) {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(files: &[(&str, &str)]) -> Vec<FileModel> {
        files
            .iter()
            .map(|(rel, src)| FileModel::build(rel, src))
            .collect()
    }

    fn run(files: &[FileModel]) -> (Vec<Finding>, usize) {
        let graph = CallGraph::build(files);
        let mut findings = Vec::new();
        let mut waived = 0;
        guard_coverage(files, &graph, &mut findings, &mut waived);
        (findings, waived)
    }

    #[test]
    fn hot_loop_without_tick_fires_s030() {
        let files = ws(&[(
            "crates/lcs/src/myers.rs",
            "//! hierdiff-analyze: hot-module\n\
             fn kernel(g: &mut Guard) {\n    for i in 0..10 {\n        work(i);\n    }\n}\n",
        )]);
        let (f, _) = run(&files);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].code, "S030");
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn hot_loop_with_direct_tick_is_clean() {
        let files = ws(&[(
            "crates/lcs/src/myers.rs",
            "//! hierdiff-analyze: hot-module\n\
             fn kernel(g: &mut Guard) {\n    for i in 0..10 {\n        g.tick();\n        work(i);\n    }\n}\n",
        )]);
        let (f, _) = run(&files);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn nested_tick_does_not_satisfy_the_outer_loop() {
        // The inner loop ticks; the outer one does not — exactly one S030.
        let files = ws(&[(
            "crates/lcs/src/myers.rs",
            "//! hierdiff-analyze: hot-module\n\
             fn kernel(g: &mut Guard) {\n    for i in 0..10 {\n        while i > 0 {\n            g.tick();\n        }\n    }\n}\n",
        )]);
        let (f, _) = run(&files);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].code, "S030");
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn s030_waiver_silences_and_counts() {
        let files = ws(&[(
            "crates/lcs/src/myers.rs",
            "//! hierdiff-analyze: hot-module\n\
             fn kernel() {\n    for i in 0..3 { // analyze: allow(S030) bounded backtrack\n        work(i);\n    }\n}\n",
        )]);
        let (f, waived) = run(&files);
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(waived, 1);
    }

    #[test]
    fn reachable_loop_without_tick_fires_s031() {
        let files = ws(&[
            (
                "crates/core/src/differ.rs",
                "use hierdiff_lcs::run;\nfn diff() { run(); }\n",
            ),
            (
                "crates/lcs/src/dp.rs",
                "pub fn run() {\n    for i in 0..10 {\n        work(i);\n    }\n}\n",
            ),
        ]);
        let (f, _) = run(&files);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].code, "S031");
        assert_eq!(f[0].path, "crates/lcs/src/dp.rs");
    }

    #[test]
    fn unreachable_loops_are_not_governed() {
        let files = ws(&[(
            "crates/lcs/src/dp.rs",
            "pub fn island() {\n    for i in 0..10 {\n        work(i);\n    }\n}\n",
        )]);
        let (f, _) = run(&files);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn s031_satisfied_by_nested_tick_or_kernel_delegation() {
        let files = ws(&[
            (
                "crates/core/src/differ.rs",
                "use hierdiff_lcs::{a, b};\nfn diff() { a(); b(); }\n",
            ),
            (
                "crates/lcs/src/dp.rs",
                "pub fn a(g: &mut Guard) {\n    for i in 0..10 {\n        if i > 0 { g.tick(); }\n    }\n}\n\
                 pub fn b() {\n    for i in 0..10 {\n        kernel(i);\n    }\n}\n",
            ),
            (
                "crates/lcs/src/myers.rs",
                "//! hierdiff-analyze: hot-module\npub fn kernel(_i: u32) {}\n",
            ),
        ]);
        let (f, _) = run(&files);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn s031_waiver_silences_and_counts() {
        let files = ws(&[
            (
                "crates/core/src/differ.rs",
                "use hierdiff_edit::run;\nfn diff() { run(); }\n",
            ),
            (
                "crates/edit/src/x.rs",
                "pub fn run() {\n    for i in 0..3 { // analyze: allow(S031) bounded by arity\n        work(i);\n    }\n}\n",
            ),
        ]);
        let (f, waived) = run(&files);
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(waived, 1);
    }

    #[test]
    fn ungoverned_crates_are_exempt() {
        let files = ws(&[(
            "crates/core/src/differ.rs",
            "fn diff() {\n    for i in 0..10 {\n        work(i);\n    }\n}\nfn work(_i: u32) {}\n",
        )]);
        let (f, _) = run(&files);
        assert!(f.is_empty(), "{f:?}");
    }
}
