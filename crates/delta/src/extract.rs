//! Extracting an edit script back out of a delta tree — the paper's
//! *correctness* condition for delta trees made executable.
//!
//! Section 6: a delta tree is correct when "there is at least one edit
//! script E such that (1) E transforms T1 to T2 [and] (2) there is a total
//! order over the nodes of ΔT such that outputting the edit operations
//! corresponding to the node annotations in this order yields edit
//! script E."
//!
//! [`extract_script`] constructs exactly such an `E`: it projects the delta
//! tree onto its old and new states (tracking which projected node each
//! delta node became), derives the matching *implied by the annotations*
//! (a delta node present in both states matches itself across them), and
//! hands that matching to Algorithm *EditScript*. The resulting script's
//! operations correspond one-to-one with the annotations — verified by the
//! tests — so the delta tree is correct by construction, with the proof
//! object returned to the caller.

use hierdiff_edit::{edit_script, EditScript, Matching, McesError};
use hierdiff_tree::{NodeId, NodeValue, Tree};

use crate::{Annotation, DeltaNodeId, DeltaTree};

/// The script extracted from a delta tree, together with the projections
/// and matching it was derived from.
pub struct ExtractedScript<V: NodeValue> {
    /// The old state (`project_old`).
    pub old: Tree<V>,
    /// The new state (`project_new`).
    pub new: Tree<V>,
    /// The matching implied by the annotations.
    pub matching: Matching,
    /// A minimum-cost script conforming to that matching, transforming
    /// `old` into `new`.
    pub script: EditScript<V>,
}

/// Projects both states of `delta`, derives the annotation-implied
/// matching, and generates the witnessing edit script.
pub fn extract_script<V: NodeValue>(delta: &DeltaTree<V>) -> Result<ExtractedScript<V>, McesError> {
    let mut old_map: Vec<Option<NodeId>> = vec![None; delta.len()];
    let mut new_map: Vec<Option<NodeId>> = vec![None; delta.len()];

    // Old projection (mirrors DeltaTree::project_old, recording the map).
    let (label, value) = old_label_value(delta, delta.root());
    let mut old = Tree::new(label, value);
    let old_root = old.root();
    if let Some(slot) = old_map.get_mut(delta.root().index()) {
        *slot = Some(old_root);
    }
    project_old_rec(delta, delta.root(), &mut old, old_root, &mut old_map);

    // New projection.
    let mut new = Tree::new(delta.label(delta.root()), delta.value(delta.root()).clone());
    let new_root = new.root();
    if let Some(slot) = new_map.get_mut(delta.root().index()) {
        *slot = Some(new_root);
    }
    project_new_rec(delta, delta.root(), &mut new, new_root, &mut new_map);

    // The implied matching: every delta node alive in both states.
    let mut matching = Matching::with_capacity(old.arena_len(), new.arena_len());
    for (idx, (o, n)) in old_map.iter().zip(&new_map).enumerate() {
        if let (Some(o), Some(n)) = (o, n) {
            let _ = idx;
            assert!(
                matching.insert(*o, *n).is_ok(),
                "projection maps are injective"
            );
        }
    }

    let result = edit_script(&old, &new, &matching)?;
    Ok(ExtractedScript {
        old,
        new,
        matching,
        script: result.script,
    })
}

fn old_label_value<V: NodeValue>(
    delta: &DeltaTree<V>,
    id: DeltaNodeId,
) -> (hierdiff_tree::Label, V) {
    let value = match delta.annotation(id) {
        Annotation::Updated { old } => old.clone(),
        Annotation::Moved { old: Some(old), .. } => old.clone(),
        _ => delta.value(id).clone(),
    };
    (delta.label(id), value)
}

fn project_old_rec<V: NodeValue>(
    delta: &DeltaTree<V>,
    from: DeltaNodeId,
    out: &mut Tree<V>,
    into: NodeId,
    map: &mut Vec<Option<NodeId>>,
) {
    for &c in delta.children(from) {
        match delta.annotation(c) {
            Annotation::Inserted | Annotation::Moved { .. } => continue,
            Annotation::Marker { moved } => {
                let moved = *moved;
                let (label, value) = old_label_value(delta, moved);
                let id = out.push_child(into, label, value);
                if let Some(slot) = map.get_mut(moved.index()) {
                    *slot = Some(id);
                }
                project_old_rec(delta, moved, out, id, map);
            }
            Annotation::Identical | Annotation::Updated { .. } | Annotation::Deleted => {
                let (label, value) = old_label_value(delta, c);
                let id = out.push_child(into, label, value);
                if let Some(slot) = map.get_mut(c.index()) {
                    *slot = Some(id);
                }
                project_old_rec(delta, c, out, id, map);
            }
        }
    }
}

fn project_new_rec<V: NodeValue>(
    delta: &DeltaTree<V>,
    from: DeltaNodeId,
    out: &mut Tree<V>,
    into: NodeId,
    map: &mut Vec<Option<NodeId>>,
) {
    for &c in delta.children(from) {
        match delta.annotation(c) {
            Annotation::Deleted | Annotation::Marker { .. } => continue,
            _ => {
                let id = out.push_child(into, delta.label(c), delta.value(c).clone());
                if let Some(slot) = map.get_mut(c.index()) {
                    *slot = Some(id);
                }
                project_new_rec(delta, c, out, id, map);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hierdiff_matching::{fast_match, MatchParams};
    use hierdiff_tree::isomorphic;

    fn delta_of(t1: &str, t2: &str) -> (Tree<String>, Tree<String>, DeltaTree<String>) {
        let t1 = Tree::parse_sexpr(t1).unwrap();
        let t2 = Tree::parse_sexpr(t2).unwrap();
        let m = fast_match(&t1, &t2, MatchParams::default()).unwrap();
        let res = edit_script(&t1, &t2, &m.matching).unwrap();
        let d = crate::build_delta_tree(&t1, &t2, &m.matching, &res);
        (t1, t2, d)
    }

    #[test]
    fn extracted_script_transforms_old_into_new() {
        let (t1, t2, delta) = delta_of(
            r#"(D (P (S "k1") (S "k2") (S "k3") (S "k4") (S "gone") (S "mover"))
                  (P (S "t1") (S "t2")))"#,
            r#"(D (P (S "k1") (S "k2") (S "k3") (S "k4") (S "fresh"))
                  (P (S "t1") (S "t2") (S "mover")))"#,
        );
        let x = extract_script(&delta).unwrap();
        assert!(isomorphic(&x.old, &t1));
        assert!(isomorphic(&x.new, &t2));
        let mut replay = x.old.clone();
        hierdiff_edit::apply(&mut replay, &x.script).unwrap();
        assert!(isomorphic(&replay, &x.new));
    }

    #[test]
    fn op_counts_correspond_to_annotations() {
        let (_, _, delta) = delta_of(
            r#"(D (P (S "k1") (S "k2") (S "k3") (S "k4") (S "gone") (S "mover"))
                  (P (S "t1") (S "t2")))"#,
            r#"(D (P (S "k1") (S "k2") (S "k3") (S "k4") (S "fresh"))
                  (P (S "t1") (S "t2") (S "mover")))"#,
        );
        let ann = delta.annotation_counts();
        let ops = extract_script(&delta).unwrap().script.op_counts();
        assert_eq!(ops.inserts, ann.inserted);
        assert_eq!(ops.deletes, ann.deleted);
        assert_eq!(ops.moves, ann.moved);
        assert_eq!(ann.moved, ann.markers);
    }

    #[test]
    fn updates_extracted_including_move_plus_update() {
        use hierdiff_edit::Matching;
        let t1 = Tree::parse_sexpr(r#"(D (P (S "old words here")) (P))"#).unwrap();
        let t2 = Tree::parse_sexpr(r#"(D (P) (P (S "new words here")))"#).unwrap();
        let mut m = Matching::new();
        m.insert(t1.root(), t2.root()).unwrap();
        let p1 = t1.children(t1.root())[0];
        let p2 = t1.children(t1.root())[1];
        let q1 = t2.children(t2.root())[0];
        let q2 = t2.children(t2.root())[1];
        m.insert(p1, q1).unwrap();
        m.insert(p2, q2).unwrap();
        m.insert(t1.children(p1)[0], t2.children(q2)[0]).unwrap();
        let res = edit_script(&t1, &t2, &m).unwrap();
        let delta = crate::build_delta_tree(&t1, &t2, &m, &res);
        let x = extract_script(&delta).unwrap();
        let ops = x.script.op_counts();
        assert_eq!(ops.moves, 1);
        assert_eq!(ops.updates, 1, "the move+update splits back into both ops");
        assert!(isomorphic(&x.old, &t1));
        assert!(isomorphic(&x.new, &t2));
    }

    #[test]
    fn empty_delta_extracts_empty_script() {
        let (_, _, delta) = delta_of(r#"(D (S "a"))"#, r#"(D (S "a"))"#);
        let x = extract_script(&delta).unwrap();
        assert!(x.script.is_empty());
    }
}
