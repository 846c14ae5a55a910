//! Arena discipline (S040–S043): the flat preorder-contiguous arena's
//! invariants must flow through its blessed helpers in `crates/tree`, not
//! ad-hoc token soup.
//!
//! * **S040** — raw `[…]` indexing into the `Tree` SoA columns
//!   (`self.parents[i]`, …) outside the five blessed accessors
//!   (`at`/`at_ref`/`at_mut`/`span`/`span_mut`). PR 6 funneled every
//!   production site through them; this pass keeps it that way.
//! * **S041** — narrowing `as u32` casts outside the blessed cast
//!   helpers (`NodeId::index`/`from_index`/`try_from_index`, `n32`, and
//!   the accessors). Widening `u32 -> usize` casts are exempt by design:
//!   the workspace only supports 64-bit targets, so `as usize` cannot
//!   truncate (see DESIGN.md).
//! * **S042** — direct `== NIL` / `!= NIL` / `== u32::MAX` / `!= u32::MAX`
//!   sentinel comparisons outside the sentinel helpers (`is_nil`,
//!   `try_from_index`). Sentinel *production* (`= NIL`, `vec![NIL; n]`)
//!   is fine; it is the scattered comparisons that rot when the sentinel
//!   representation changes.
//! * **S043** — `NodeId::from_index` outside `crates/tree`. Ids come from
//!   the tree that owns them; minting one from a raw index elsewhere
//!   bypasses the arena's liveness and layout bookkeeping.
//!
//! S040–S042 apply inside `crates/tree`, S043 everywhere else. All four
//! honour `// analyze: allow(S04x) reason` inline waivers and
//! exempt `#[cfg(test)]` code.

use crate::lexer::TokenKind;
use crate::parser::FileModel;
use crate::report::Finding;

/// The `Tree` SoA column names (kept in sync with `crates/tree/src/tree.rs`).
pub const SOA_FIELDS: &[&str] = &[
    "labels",
    "values",
    "parents",
    "alive",
    "child_off",
    "child_len",
    "child_cap",
    "pool",
    "sizes",
    "skips",
];

/// Functions allowed to index the SoA columns directly.
pub const BLESSED_INDEX_FNS: &[&str] = &["at", "at_ref", "at_mut", "span", "span_mut"];

/// Functions allowed to narrow with `as u32`.
pub const BLESSED_CAST_FNS: &[&str] = &[
    "at",
    "at_ref",
    "at_mut",
    "span",
    "span_mut",
    "index",
    "from_index",
    "try_from_index",
    "n32",
];

/// Functions allowed to compare against the NIL sentinel directly.
pub const SENTINEL_FNS: &[&str] = &["is_nil", "try_from_index", "n32"];

/// Runs the S040–S042 checks over one `crates/tree` file, or S043 over
/// any other.
pub fn arena_discipline(model: &FileModel, findings: &mut Vec<Finding>, waived: &mut usize) {
    if !model.rel.starts_with("crates/tree/src/") {
        foreign_id_minting(model, findings, waived);
        return;
    }
    let n = model.sig.len();
    for s in 0..n {
        let Some(tok) = model.tok(s) else { continue };
        let line = tok.line;
        if model.is_test_line(line) {
            continue;
        }
        let fn_name = model
            .enclosing_fn(s)
            .and_then(|i| model.fns.get(i))
            .map(|f| f.name.as_str())
            .unwrap_or("");

        // S040: `.field[` on an SoA column.
        if model.punct(s, '.') {
            if let Some(t) = model.tok(s + 1) {
                if t.kind == TokenKind::Ident && model.punct(s + 2, '[') {
                    let field = model.lexed.text(t);
                    if SOA_FIELDS.contains(&field.as_str()) && !BLESSED_INDEX_FNS.contains(&fn_name)
                    {
                        report(
                            model,
                            findings,
                            waived,
                            s + 1,
                            "S040",
                            format!(
                                "raw indexing into SoA column `{field}` outside the blessed \
                                 accessors — use `at`/`at_mut`/`span`/`span_mut`"
                            ),
                        );
                    }
                }
            }
        }

        // S041: narrowing `as u32`.
        if model.word(s, "as") && model.word(s + 1, "u32") && !BLESSED_CAST_FNS.contains(&fn_name) {
            report(
                model,
                findings,
                waived,
                s,
                "S041",
                "unchecked `as u32` narrowing cast — use `NodeId::from_index` or `n32`".to_string(),
            );
        }

        // S042: `== NIL` / `!= NIL` / `== u32::MAX` / `!= u32::MAX`,
        // either operand order.
        let eq_op = (model.punct(s, '=') && model.punct(s + 1, '='))
            || (model.punct(s, '!') && model.punct(s + 1, '='));
        if eq_op && !model.punct(s.wrapping_sub(1), '=') && !model.punct(s.wrapping_sub(1), '!') {
            let lhs_nil = is_sentinel_ending_at(model, s.wrapping_sub(1));
            let rhs_nil = is_sentinel_starting_at(model, s + 2);
            if (lhs_nil || rhs_nil) && !SENTINEL_FNS.contains(&fn_name) {
                report(
                    model,
                    findings,
                    waived,
                    s,
                    "S042",
                    "direct NIL-sentinel comparison — use the `is_nil` sentinel helper".to_string(),
                );
            }
        }
    }
}

/// S043: `NodeId::from_index` in non-test code outside `crates/tree`.
fn foreign_id_minting(model: &FileModel, findings: &mut Vec<Finding>, waived: &mut usize) {
    for s in 0..model.sig.len() {
        let minted = model.word(s, "NodeId")
            && model.punct(s + 1, ':')
            && model.punct(s + 2, ':')
            && model.word(s + 3, "from_index");
        if minted && model.tok(s).is_some_and(|t| !model.is_test_line(t.line)) {
            report(
                model,
                findings,
                waived,
                s,
                "S043",
                "raw `NodeId::from_index` outside crates/tree — take ids from the tree".to_string(),
            );
        }
    }
}

/// Whether the token at `s` ends a `NIL` / `u32::MAX` sentinel operand.
fn is_sentinel_ending_at(model: &FileModel, s: usize) -> bool {
    if model.word(s, "NIL") {
        return true;
    }
    model.word(s, "MAX")
        && model.punct(s.wrapping_sub(1), ':')
        && model.punct(s.wrapping_sub(2), ':')
        && model.word(s.wrapping_sub(3), "u32")
}

/// Whether the token at `s` starts a `NIL` / `u32::MAX` sentinel operand.
fn is_sentinel_starting_at(model: &FileModel, s: usize) -> bool {
    if model.word(s, "NIL") {
        return true;
    }
    model.word(s, "u32")
        && model.punct(s + 1, ':')
        && model.punct(s + 2, ':')
        && model.word(s + 3, "MAX")
}

fn report(
    model: &FileModel,
    findings: &mut Vec<Finding>,
    waived: &mut usize,
    at: usize,
    code: &'static str,
    message: String,
) {
    let Some(t) = model.tok(at) else { return };
    if model.waived(t.line, code) {
        *waived += 1;
        return;
    }
    findings.push(Finding {
        path: model.rel.clone(),
        line: t.line,
        col: t.col,
        code,
        message,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(rel: &str, src: &str) -> (Vec<Finding>, usize) {
        let model = FileModel::build(rel, src);
        let mut findings = Vec::new();
        let mut waived = 0;
        arena_discipline(&model, &mut findings, &mut waived);
        (findings, waived)
    }

    #[test]
    fn raw_soa_indexing_fires_s040_once() {
        let (f, _) = run(
            "crates/tree/src/tree.rs",
            "impl Tree {\n    fn bad(&self, i: usize) -> u32 {\n        self.parents[i]\n    }\n}\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].code, "S040");
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn blessed_accessors_may_index() {
        let (f, _) = run(
            "crates/tree/src/tree.rs",
            "impl Tree {\n    fn at_mut(&mut self, i: usize) -> &mut u32 {\n        &mut self.parents[i]\n    }\n}\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn s040_waiver_silences_and_counts() {
        let (f, waived) = run(
            "crates/tree/src/tree.rs",
            "fn bad(t: &Tree, i: usize) -> u32 {\n    t.parents[i] // analyze: allow(S040) migration shim\n}\n",
        );
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(waived, 1);
    }

    #[test]
    fn narrowing_cast_fires_s041_once() {
        let (f, _) = run(
            "crates/tree/src/tree.rs",
            "fn bad(i: usize) -> u32 {\n    i as u32\n}\nfn fine(x: u32) -> usize {\n    x as usize\n}\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].code, "S041");
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn blessed_cast_helpers_may_narrow() {
        let (f, _) = run(
            "crates/tree/src/tree.rs",
            "fn n32(x: usize) -> u32 {\n    x as u32\n}\nimpl NodeId {\n    fn from_index(i: usize) -> NodeId {\n        NodeId(i as u32)\n    }\n}\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn s041_waiver_silences_and_counts() {
        let (f, waived) = run(
            "crates/tree/src/tree.rs",
            "fn bad(i: usize) -> u32 {\n    i as u32 // analyze: allow(S041) asserted above\n}\n",
        );
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(waived, 1);
    }

    #[test]
    fn sentinel_comparison_fires_s042_once() {
        let (f, _) = run(
            "crates/tree/src/tree.rs",
            "fn bad(p: u32) -> bool {\n    p != NIL\n}\nfn also_fine(p: u32) -> u32 {\n    if true { NIL } else { p }\n}\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].code, "S042");
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn u32_max_comparisons_fire_s042() {
        let (f, _) = run(
            "crates/tree/src/tree.rs",
            "fn bad(p: u32) -> bool {\n    u32::MAX == p\n}\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].code, "S042");
    }

    #[test]
    fn sentinel_helpers_may_compare() {
        let (f, _) = run(
            "crates/tree/src/tree.rs",
            "fn is_nil(x: u32) -> bool {\n    x == NIL\n}\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn s042_waiver_silences_and_counts() {
        let (f, waived) = run(
            "crates/tree/src/tree.rs",
            "fn bad(p: u32) -> bool {\n    p == NIL // analyze: allow(S042) serde boundary\n}\n",
        );
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(waived, 1);
    }

    #[test]
    fn s043_id_minting_outside_tree_trips_one_finding() {
        let src = "fn f() {\n    let id = NodeId::from_index(3);\n}\n";
        assert!(run("crates/tree/src/x.rs", src).0.is_empty());
        let (f, _) = run("crates/delta/src/x.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].code, "S043");
        assert_eq!((f[0].line, f[0].col), (2, 14));
    }

    #[test]
    fn s043_test_code_and_waivers_are_exempt() {
        let (f, waived) = run(
            "crates/edit/src/x.rs",
            "fn f() {\n    g(NodeId::from_index(1)); // analyze: allow(S043) dense id map\n}\n\
             #[cfg(test)]\nmod tests {\n    fn t() {\n        NodeId::from_index(2);\n    }\n}\n",
        );
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(waived, 1);
    }

    #[test]
    fn other_crates_are_exempt() {
        let (f, _) = run(
            "crates/delta/src/build.rs",
            "fn x(i: usize, t: &T) -> u32 {\n    t.parents[i];\n    i as u32\n}\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn test_code_is_exempt() {
        let (f, _) = run(
            "crates/tree/src/tree.rs",
            "#[cfg(test)]\nmod tests {\n    fn t(i: usize, x: u32) {\n        let _ = i as u32;\n        let _ = x == NIL;\n    }\n}\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }
}
