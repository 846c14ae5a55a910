//! Public-API surface snapshots (S020/S021): every workspace library
//! crate's `pub` item signatures are extracted into a checked-in
//! `api/<crate>.txt`; un-reviewed drift fails CI. S022 keeps the surface
//! from fragmenting again: a `pub fn diff_*` outside `crates/core` is a
//! second diff entry point beside the `Differ` facade.
//!
//! A "signature" is the token run from `pub` to the item's body/value
//! (`{`, `=`, `;`, or a field-terminating `,`), normalized to one line.
//! Bodies are not part of the surface, so enum variants and trait-method
//! declarations are covered only via their containing item's header —
//! the snapshot is a drift tripwire, not a full semver model. `pub(crate)`
//! and friends are internal and excluded, as is anything under
//! `#[cfg(test)]` or in `src/bin/`.

use crate::lexer::TokenKind;
use crate::parser::FileModel;
use crate::report::Finding;

/// S022: `pub fn diff_*` in non-test code outside `crates/core`, the one
/// sanctioned home of diff entry points. Honours `analyze: allow(S022)` on
/// the `pub fn` line or the line above it (rustfmt keeps a multi-line
/// signature's trailing comment off the `pub fn` line).
pub fn stray_entry_points(model: &FileModel, findings: &mut Vec<Finding>, waived: &mut usize) {
    if model.rel.starts_with("crates/core/") {
        return;
    }
    for s in 0..model.sig.len() {
        let (Some(tok), Some(name)) = (model.tok(s), model.tok(s + 2)) else {
            continue;
        };
        if !(model.word(s, "pub") && model.word(s + 1, "fn"))
            || name.kind != TokenKind::Ident
            || !model.lexed.text(name).starts_with("diff_")
            || model.is_test_line(tok.line)
        {
            continue;
        }
        if model.waived(tok.line, "S022") || model.waived(tok.line.saturating_sub(1), "S022") {
            *waived += 1;
            continue;
        }
        findings.push(Finding {
            path: model.rel.clone(),
            line: tok.line,
            col: tok.col,
            code: "S022",
            message: "public `diff_*` entry point outside the crates/core facade".to_string(),
        });
    }
}

/// Extracts the sorted signature lines for one file, each prefixed with
/// the repo-relative path so review diffs point somewhere.
pub fn file_signatures(model: &FileModel) -> Vec<String> {
    let mut out = Vec::new();
    let n = model.sig.len();
    for s in 0..n {
        if !model.word(s, "pub") {
            continue;
        }
        let Some(tok) = model.tok(s) else { continue };
        if model.is_test_line(tok.line) {
            continue;
        }
        if model.punct(s + 1, '(') {
            continue; // pub(crate) / pub(super): not public surface
        }
        let mut pieces: Vec<String> = Vec::new();
        let mut depth = 0isize;
        let mut p = s;
        while p < n {
            if model.punct(p, '(')
                || model.punct(p, '[')
                || (model.punct(p, '<') && !model.punct(p.wrapping_sub(1), '-'))
            {
                // `<` counts as a group so `,` and `=` inside generics do
                // not terminate the signature; `->` arrows are exempt.
                depth += 1;
            } else if model.punct(p, ')')
                || model.punct(p, ']')
                || model.punct(p, '}')
                || (model.punct(p, '>') && !model.punct(p.wrapping_sub(1), '-'))
            {
                if depth == 0 {
                    break; // field at the end of a struct body
                }
                depth -= 1;
            } else if depth == 0
                && (model.punct(p, ';')
                    || model.punct(p, '{')
                    || model.punct(p, ',')
                    || (model.punct(p, '=') && !model.punct(p + 1, '=')))
            {
                break;
            }
            if let Some(t) = model.tok(p) {
                pieces.push(model.lexed.text(t));
            }
            p += 1;
        }
        if pieces.len() > 1 {
            out.push(format!("{}: {}", model.rel, join_signature(&pieces)));
        }
    }
    out.sort();
    out
}

/// Joins signature tokens with normalized spacing: `::` and `->` are
/// merged, and common punctuation hugs its operand so the output reads
/// like source. The only consumer is an exact-equality diff, so the rules
/// need to be deterministic, not perfect.
fn join_signature(pieces: &[String]) -> String {
    // Merge `:`+`:` into `::` and `-`+`>` into `->`.
    let mut merged: Vec<String> = Vec::new();
    let mut i = 0;
    while let Some(cur) = pieces.get(i).map(String::as_str) {
        let next = pieces.get(i + 1).map(String::as_str);
        if cur == ":" && next == Some(":") {
            merged.push("::".to_string());
            i += 2;
        } else if cur == "-" && next == Some(">") {
            merged.push("->".to_string());
            i += 2;
        } else {
            merged.push(cur.to_string());
            i += 1;
        }
    }

    const NO_SPACE_BEFORE: &[&str] = &[",", ";", ")", "]", ">", "?", ".", "::", "(", "[", ":", "<"];
    const NO_SPACE_AFTER: &[&str] = &["(", "[", "<", "&", "::", ".", "*", "!"];
    let mut out = String::new();
    let mut prev: Option<&str> = None;
    for piece in &merged {
        let glue = match prev {
            None => false,
            Some(p) => !(NO_SPACE_AFTER.contains(&p) || NO_SPACE_BEFORE.contains(&piece.as_str())),
        };
        if glue {
            out.push(' ');
        }
        out.push_str(piece);
        prev = Some(piece.as_str());
    }
    out
}

/// Renders one crate's full snapshot file from its (already sorted,
/// per-file) signature lines.
pub fn render_snapshot(crate_name: &str, lines: &[String]) -> String {
    let mut out = format!(
        "# Public API surface of hierdiff crate `{crate_name}` (crates/{crate_name}).\n\
         # Generated by `cargo run -p xtask -- analyze --write-api`; CI fails on\n\
         # drift (S021). Review the diff, then regenerate to accept a change.\n"
    );
    for line in lines {
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// Parses a snapshot file back into its signature lines.
pub fn parse_snapshot(text: &str) -> Vec<String> {
    text.lines()
        .map(str::trim_end)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect()
}

/// Compares a generated surface against a checked-in snapshot, returning
/// `(missing_from_snapshot, no_longer_present)`.
pub fn surface_diff(current: &[String], snapshot: &[String]) -> (Vec<String>, Vec<String>) {
    let added = current
        .iter()
        .filter(|l| !snapshot.contains(l))
        .cloned()
        .collect();
    let removed = snapshot
        .iter()
        .filter(|l| !current.contains(l))
        .cloned()
        .collect();
    (added, removed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sigs(src: &str) -> Vec<String> {
        file_signatures(&FileModel::build("crates/x/src/lib.rs", src))
    }

    #[test]
    fn extracts_fns_structs_and_fields() {
        let got = sigs(
            "pub fn diff(a: &Tree, b: &Tree) -> Result<Script, DiffError> { todo() }\n\
             pub struct Options { pub workers: usize, internal: u8 }\n\
             pub use crate::facade::Differ;\n\
             pub(crate) fn hidden() {}\n",
        );
        assert_eq!(
            got,
            vec![
                "crates/x/src/lib.rs: pub fn diff(a: &Tree, b: &Tree) -> Result<Script, DiffError>",
                "crates/x/src/lib.rs: pub struct Options",
                "crates/x/src/lib.rs: pub use crate::facade::Differ",
                "crates/x/src/lib.rs: pub workers: usize",
            ]
        );
    }

    #[test]
    fn consts_cut_at_value_and_tests_excluded() {
        let got = sigs(
            "pub const LIMIT: usize = 16;\n\
             #[cfg(test)]\nmod tests {\n    pub fn invisible() {}\n}\n",
        );
        assert_eq!(got, vec!["crates/x/src/lib.rs: pub const LIMIT: usize"]);
    }

    #[test]
    fn trailing_struct_field_terminates_at_brace() {
        let got = sigs("pub struct S { pub last: u8 }\n");
        assert_eq!(
            got,
            vec![
                "crates/x/src/lib.rs: pub last: u8",
                "crates/x/src/lib.rs: pub struct S",
            ]
        );
    }

    #[test]
    fn generic_signature_normalization_is_stable() {
        let got = sigs("pub fn f<'a, V: NodeValue>(t: &'a Tree<V>) -> Option<&'a V> { x }\n");
        assert_eq!(
            got,
            vec![
                "crates/x/src/lib.rs: pub fn f<'a, V: NodeValue>(t: &'a Tree<V>) -> Option<&'a V>"
            ]
        );
    }

    fn stray(rel: &str, src: &str) -> (Vec<Finding>, usize) {
        let mut findings = Vec::new();
        let mut waived = 0;
        stray_entry_points(&FileModel::build(rel, src), &mut findings, &mut waived);
        (findings, waived)
    }

    #[test]
    fn s022_diff_entry_point_outside_core_trips_one_finding() {
        let src = "pub fn diff_all(a: u8) {}\n";
        assert!(stray("crates/core/src/batch.rs", src).0.is_empty());
        let (f, _) = stray("crates/doc/src/x.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].code, "S022");
        assert_eq!((f[0].line, f[0].col), (1, 1));
    }

    #[test]
    fn s022_spares_the_facade_name_private_fns_tests_and_waivers() {
        let (f, waived) = stray(
            "crates/doc/src/x.rs",
            "pub fn diff(a: u8) {}\n\
             fn diff_private() {}\n\
             pub(crate) fn diff_crate() {}\n\
             pub fn diff_old() {} // analyze: allow(S022) compatibility shim\n\
             #[cfg(test)]\nmod tests {\n    pub fn diff_helper() {}\n}\n",
        );
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(waived, 1);
    }

    #[test]
    fn snapshot_round_trip_and_diff() {
        let lines = vec!["a: pub fn one()".to_string(), "b: pub fn two()".to_string()];
        let rendered = render_snapshot("tree", &lines);
        assert_eq!(parse_snapshot(&rendered), lines);
        let current = vec![
            "a: pub fn one()".to_string(),
            "c: pub fn three()".to_string(),
        ];
        let (added, removed) = surface_diff(&current, &lines);
        assert_eq!(added, vec!["c: pub fn three()".to_string()]);
        assert_eq!(removed, vec!["b: pub fn two()".to_string()]);
    }
}
