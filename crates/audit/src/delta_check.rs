//! Delta-tree consistency checks (`A040`–`A042`).
//!
//! Section 6 calls a delta tree *correct* when its annotations can be
//! ordered into an edit script transforming `T1` to `T2`. We verify the
//! stronger two-sided property the `hierdiff-delta` crate is built around:
//! projecting the new state (drop `DEL`/`MRK`) must reproduce `T2`
//! (`A040`), projecting the old state (drop `INS`, return moved subtrees
//! to their markers, restore old values) must reproduce `T1` (`A041`), and
//! every `MOV`/`MRK` pair must cross-reference each other (`A042`).

use hierdiff_delta::{Annotation, DeltaTree};
use hierdiff_tree::{isomorphic, NodeValue, Tree};

use crate::diag::{AuditReport, Code, Diagnostic, Side, Span};

/// Audits `delta` against the trees it claims to relate.
pub fn audit_delta<V: NodeValue>(t1: &Tree<V>, t2: &Tree<V>, delta: &DeltaTree<V>) -> AuditReport {
    let mut report = AuditReport::new();

    // Structural sanity first: the projections recurse over the child
    // lists, so a cycle or dangling child index must be caught before
    // attempting them.
    let len = delta.len();
    let mut seen = vec![false; len];
    let mut stack = vec![delta.root()];
    let mut structurally_sound = true;
    if delta.root().index() >= len {
        structurally_sound = false;
    }
    while structurally_sound {
        let Some(id) = stack.pop() else { break };
        let Some(slot) = seen.get_mut(id.index()).filter(|done| !**done) else {
            structurally_sound = false;
            report.push(Diagnostic::error(
                Code::A042,
                format!(
                    "delta node #{} reached twice (cycle or shared child)",
                    id.index()
                ),
                None,
            ));
            break;
        };
        *slot = true;
        for &c in delta.children(id) {
            if c.index() >= len {
                structurally_sound = false;
                report.push(Diagnostic::error(
                    Code::A042,
                    format!(
                        "delta node #{} has out-of-range child #{}",
                        id.index(),
                        c.index()
                    ),
                    None,
                ));
                break;
            }
            stack.push(c);
        }
    }
    report.checks_run += 1;
    if !structurally_sound {
        if report.is_empty() {
            report.push(Diagnostic::error(
                Code::A042,
                "delta tree root index out of range".to_string(),
                None,
            ));
        }
        return report;
    }

    // MOV ↔ MRK cross-links.
    for id in delta.preorder() {
        match delta.annotation(id) {
            Annotation::Moved { mark, .. } => {
                report.checks_run += 1;
                let ok = mark.index() < len
                    && matches!(
                        delta.annotation(*mark),
                        Annotation::Marker { moved } if *moved == id
                    );
                if !ok {
                    report.push(Diagnostic::error(
                        Code::A042,
                        format!(
                            "MOV node #{} points at marker #{}, which does not \
                             point back",
                            id.index(),
                            mark.index()
                        ),
                        None,
                    ));
                }
            }
            Annotation::Marker { moved } => {
                report.checks_run += 1;
                let ok = moved.index() < len
                    && matches!(
                        delta.annotation(*moved),
                        Annotation::Moved { mark, .. } if *mark == id
                    );
                if !ok {
                    report.push(Diagnostic::error(
                        Code::A042,
                        format!(
                            "MRK node #{} points at moved node #{}, which does \
                             not point back",
                            id.index(),
                            moved.index()
                        ),
                        None,
                    ));
                }
            }
            _ => {}
        }
    }
    if report.has_errors() {
        // Broken cross-links make project_old meaningless; stop here.
        return report;
    }

    report.checks_run += 1;
    let new_proj = delta.project_new();
    if !isomorphic(&new_proj, t2) {
        report.push(Diagnostic::error(
            Code::A040,
            format!(
                "new-state projection has {} nodes and is not isomorphic to \
                 T2 ({} nodes)",
                new_proj.len(),
                t2.len()
            ),
            Some(Span {
                side: Side::Delta,
                path: Vec::new(),
            }),
        ));
    }
    report.checks_run += 1;
    let old_proj = delta.project_old();
    if !isomorphic(&old_proj, t1) {
        report.push(Diagnostic::error(
            Code::A041,
            format!(
                "old-state projection has {} nodes and is not isomorphic to \
                 T1 ({} nodes)",
                old_proj.len(),
                t1.len()
            ),
            Some(Span {
                side: Side::Delta,
                path: Vec::new(),
            }),
        ));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{array_mut, field_mut, from_tampered, to_tamperable};
    use hierdiff_delta::build_delta_tree;
    use hierdiff_edit::edit_script;
    use hierdiff_matching::{fast_match, MatchParams};

    fn doc(s: &str) -> Tree<String> {
        Tree::parse_sexpr(s).unwrap()
    }

    fn delta_for(t1: &Tree<String>, t2: &Tree<String>) -> DeltaTree<String> {
        let m = fast_match(t1, t2, MatchParams::default()).unwrap().matching;
        let res = edit_script(t1, t2, &m).unwrap();
        build_delta_tree(t1, t2, &m, &res)
    }

    #[test]
    fn genuine_delta_is_clean() {
        let t1 = doc(r#"(D (P (S "a")) (P (S "b") (S "c") (S "d")) (P (S "e")))"#);
        let t2 = doc(r#"(D (P (S "a")) (P (S "e")) (P (S "b") (S "c") (S "d") (S "g")))"#);
        let delta = delta_for(&t1, &t2);
        let r = audit_delta(&t1, &t2, &delta);
        assert!(r.is_clean() && r.is_empty(), "{r}");
    }

    #[test]
    fn wrong_t2_is_a040_and_a041() {
        let t1 = doc(r#"(D (S "a"))"#);
        let t2 = doc(r#"(D (S "b"))"#);
        let delta = delta_for(&t1, &t2);
        let unrelated = doc(r#"(X (Y "z") (Y "w"))"#);
        let r = audit_delta(&unrelated, &unrelated, &delta);
        assert!(r.has_code(Code::A040), "{r}");
        assert!(r.has_code(Code::A041), "{r}");
    }

    #[test]
    fn tampered_marker_link_is_a042() {
        // A diff with a move produces a MOV/MRK pair; retarget the MOV's
        // marker pointer through the serde escape hatch.
        let t1 = doc(r#"(D (P (S "a") (S "b")) (P (S "c")))"#);
        let t2 = doc(r#"(D (P (S "a")) (P (S "c") (S "b")))"#);
        let delta = delta_for(&t1, &t2);
        assert!(delta.annotation_counts().moved >= 1);
        let root_id = to_tamperable(&delta.root());
        let mut v = to_tamperable(&delta);
        let mut retargeted = 0;
        for n in array_mut(field_mut(&mut v, "nodes")) {
            let ann = field_mut(n, "annotation");
            if ann.get("Moved").is_some() {
                // Point every MOV at the root, which is not its marker.
                *field_mut(field_mut(ann, "Moved"), "mark") = root_id.clone();
                retargeted += 1;
            }
        }
        assert!(retargeted >= 1);
        let bad: DeltaTree<String> = from_tampered(v);
        let r = audit_delta(&t1, &t2, &bad);
        assert!(r.has_code(Code::A042), "{r}");
    }

    #[test]
    fn dropped_deleted_subtree_is_a041() {
        // Remove a DEL node from the delta: new projection still matches T2
        // but the old state can no longer be reconstructed.
        let t1 = doc(r#"(D (S "a") (S "gone"))"#);
        let t2 = doc(r#"(D (S "a"))"#);
        let delta = delta_for(&t1, &t2);
        let mut v = to_tamperable(&delta);
        // Drop every child reference to DEL-annotated nodes.
        let del_idxs: Vec<u64> = v["nodes"]
            .as_array()
            .unwrap()
            .iter()
            .enumerate()
            .filter(|(_, n)| n["annotation"].as_str() == Some("Deleted"))
            .map(|(i, _)| i as u64)
            .collect();
        assert!(!del_idxs.is_empty());
        for n in array_mut(field_mut(&mut v, "nodes")) {
            array_mut(field_mut(n, "children"))
                .retain(|c| c.as_u64().is_none_or(|i| !del_idxs.contains(&i)));
        }
        let bad: DeltaTree<String> = from_tampered(v);
        let r = audit_delta(&t1, &t2, &bad);
        assert!(r.has_code(Code::A041), "{r}");
    }
}
