//! Delta-tree construction.
//!
//! Section 6: "In our implementation ... we construct the delta tree
//! directly as a side-effect of producing an edit script." We take the
//! equivalent route with cleaner layering: [`build_delta_tree`] consumes the
//! [`McesResult`] of Algorithm *EditScript* (which knows exactly which nodes
//! moved) together with the original trees and matching, and overlays:
//!
//! * the new tree's structure (annotated `IDN`/`UPD`/`INS`/`MOV`),
//! * deleted `T1` subtrees, tombstoned `DEL` at their old positions, and
//! * `MRK` markers at the old positions of moved nodes,
//!
//! interleaving old-position entries against the surviving children in
//! original `T1` order, so "the annotated nodes are at the appropriate
//! positions in the delta tree" and node identifiers are unnecessary.
//!
//! The matching's recorded identical subtrees
//! ([`Matching::identical_roots`]) need none of that work inside them:
//! their values are verified equal, and EditScript settles their roots, so
//! nothing below a root moves, changes or leaves. A recorded root still
//! takes the normal path (the subtree may move as a whole) but skips the
//! value compare; its interior is copied out as `IDN` nodes directly.

use hierdiff_edit::{EditOp, Matching, McesResult, DUMMY_ROOT_LABEL};
use hierdiff_tree::{Label, NodeId, NodeValue, Tree};

use crate::{Annotation, DeltaNode, DeltaNodeId, DeltaTree};

const UNRESOLVED: DeltaNodeId = DeltaNodeId(u32::MAX);

/// Builds the delta tree for `t1` with respect to `t2`, given the original
/// (partial) `matching` and the [`McesResult`] produced from it.
pub fn build_delta_tree<V: NodeValue>(
    t1: &Tree<V>,
    t2: &Tree<V>,
    matching: &Matching,
    result: &McesResult<V>,
) -> DeltaTree<V> {
    // Mirror the wrapping performed by `edit_script` so node ids line up.
    let mut t1c;
    let mut t2c;
    let mut m;
    let (t1, t2, matching) = if result.wrapped {
        t1c = t1.clone();
        t2c = t2.clone();
        m = matching.clone();
        let l = Label::intern(DUMMY_ROOT_LABEL);
        let d1 = t1c.wrap_root(l, V::null());
        let d2 = t2c.wrap_root(l, V::null());
        assert!(m.insert(d1, d2).is_ok(), "dummy roots fresh");
        (&t1c, &t2c, &m)
    } else {
        (t1, t2, matching)
    };

    // Which original-tree nodes the script moved (inserted nodes never
    // move — they are born in place).
    let mut moved = vec![false; t1.arena_len()];
    for op in result.script.iter() {
        if let EditOp::Move { node, .. } = op {
            if let Some(slot) = moved.get_mut(node.index()) {
                *slot = true;
            }
        }
    }

    let mut identical_root = vec![false; t2.arena_len()];
    for &(_, y) in matching.identical_roots() {
        if let Some(slot) = identical_root.get_mut(y.index()) {
            *slot = true;
        }
    }

    let mut b = Builder {
        t1,
        t2,
        m: matching,
        moved: &moved,
        identical_root: &identical_root,
        arena: Vec::with_capacity(t1.len() + t2.len()),
        t2_to_delta: vec![None; t2.arena_len()],
        pending_marks: Vec::new(),
    };
    let root = b.emit_new(t2.root());

    // Resolve marker ↔ moved-node cross references. Both lookups hold by
    // construction (markers are pushed only for matched nodes, and the T2
    // walk covers every node); if they ever fail, the link stays UNRESOLVED
    // and the `audit_delta` checker reports it (A042) instead of panicking.
    for (mark, t1_node) in std::mem::take(&mut b.pending_marks) {
        let moved_delta =
            b.m.partner1(t1_node)
                .and_then(|y| b.t2_to_delta.get(y.index()).copied().flatten());
        let Some(moved_delta) = moved_delta else {
            debug_assert!(false, "marker for unmatched or unvisited node");
            continue;
        };
        if let Some(marker) = b.arena.get_mut(mark.index()) {
            marker.annotation = Annotation::Marker { moved: moved_delta };
        }
        match b
            .arena
            .get_mut(moved_delta.index())
            .map(|n| &mut n.annotation)
        {
            Some(Annotation::Moved { mark: slot, .. }) => *slot = mark,
            other => debug_assert!(false, "moved node annotated {other:?}"),
        }
    }
    debug_assert!(
        !b.arena.iter().any(|n| matches!(
            n.annotation,
            Annotation::Moved {
                mark: UNRESOLVED,
                ..
            } | Annotation::Marker { moved: UNRESOLVED }
        )),
        "unresolved move/marker links"
    );

    DeltaTree {
        nodes: b.arena,
        root,
    }
}

struct Builder<'a, V: NodeValue> {
    t1: &'a Tree<V>,
    t2: &'a Tree<V>,
    m: &'a Matching,
    moved: &'a [bool],
    /// Roots of the recorded identical subtrees, indexed by `T2` id.
    identical_root: &'a [bool],
    arena: Vec<DeltaNode<V>>,
    t2_to_delta: Vec<Option<DeltaNodeId>>,
    pending_marks: Vec<(DeltaNodeId, NodeId)>,
}

#[expect(
    clippy::indexing_slicing,
    reason = "side tables are sized to the arenas; delta ids come from `alloc`"
)]
impl<V: NodeValue> Builder<'_, V> {
    fn alloc(&mut self, label: Label, value: V, annotation: Annotation<V>) -> DeltaNodeId {
        assert!(
            self.arena.len() < u32::MAX as usize,
            "delta arena exhausted"
        );
        let id = DeltaNodeId(self.arena.len() as u32);
        self.arena.push(DeltaNode {
            label,
            value,
            annotation,
            children: Vec::new(),
        });
        id
    }

    /// Emits the delta node for `T2` node `x` and (recursively) its
    /// children, then interleaves old-position tombstones from `x`'s
    /// partner's original child list.
    fn emit_new(&mut self, x: NodeId) -> DeltaNodeId {
        let w = self.m.partner2(x);
        let identical = self.identical_root[x.index()];
        let annotation = match w {
            None => Annotation::Inserted,
            Some(w) => {
                let was_updated = !identical && self.t1.value(w) != self.t2.value(x);
                if self.moved[w.index()] {
                    Annotation::Moved {
                        mark: UNRESOLVED,
                        old: was_updated.then(|| self.t1.value(w).clone()),
                    }
                } else if was_updated {
                    Annotation::Updated {
                        old: self.t1.value(w).clone(),
                    }
                } else {
                    Annotation::Identical
                }
            }
        };
        let id = self.alloc(self.t2.label(x), self.t2.value(x).clone(), annotation);
        self.t2_to_delta[x.index()] = Some(id);

        // The tree references are `Copy`, so child slices borrow the trees,
        // not `self`, and the recursion needs no per-node copies.
        let (t1, t2) = (self.t1, self.t2);
        let fresh: Vec<DeltaNodeId> = if identical {
            t2.children(x)
                .iter()
                .map(|&c| self.emit_identical(c))
                .collect()
        } else {
            t2.children(x).iter().map(|&c| self.emit_new(c)).collect()
        };

        // Interleave old-position entries (markers of moved-away children,
        // deleted subtrees) against the stable children, in T1 order. Stable
        // children keep their relative order, so the search for each one
        // resumes at `cursor`, just past the previous one; an entry goes in
        // at `cursor`. A parent that needs no entry keeps `fresh` as is.
        let Some(w) = w else {
            self.arena[id.index()].children = fresh;
            return id;
        };
        let mut merged = Vec::new();
        let (mut cursor, mut flushed) = (0usize, 0usize);
        for &c in t1.children(w) {
            let entry = match self.m.partner1(c) {
                Some(y) if !self.moved[c.index()] && t2.parent(y) == Some(x) => {
                    // `y` was emitted by the child walk above; if the lookup
                    // ever failed the cursor would merely not advance past it.
                    let dy = self.t2_to_delta[y.index()];
                    if let Some(pos) =
                        dy.and_then(|dy| fresh[cursor..].iter().position(|&d| d == dy))
                    {
                        cursor += pos + 1;
                    }
                    continue;
                }
                Some(_) => {
                    // Moved (within this parent or away): tombstone at the
                    // old position, carrying the old value.
                    let mk = self.alloc(
                        t1.label(c),
                        t1.value(c).clone(),
                        Annotation::Marker { moved: UNRESOLVED },
                    );
                    self.pending_marks.push((mk, c));
                    mk
                }
                None => self.emit_old_deleted(c),
            };
            merged.extend_from_slice(&fresh[flushed..cursor]);
            flushed = cursor;
            merged.push(entry);
        }
        let children = if merged.is_empty() {
            fresh
        } else {
            merged.extend_from_slice(&fresh[flushed..]);
            merged
        };
        self.arena[id.index()].children = children;
        id
    }

    /// Emits `T2` node `x` inside a recorded identical subtree, and its
    /// descendants, as `IDN` nodes: no compare, no move or old-position
    /// bookkeeping.
    fn emit_identical(&mut self, x: NodeId) -> DeltaNodeId {
        let id = self.alloc(
            self.t2.label(x),
            self.t2.value(x).clone(),
            Annotation::Identical,
        );
        self.t2_to_delta[x.index()] = Some(id);
        let t2 = self.t2;
        let children: Vec<DeltaNodeId> = t2
            .children(x)
            .iter()
            .map(|&c| self.emit_identical(c))
            .collect();
        self.arena[id.index()].children = children;
        id
    }

    /// Emits the tombstoned copy of the deleted `T1` subtree rooted at `c`.
    /// Matched descendants (moved out of the deleted region) become markers.
    fn emit_old_deleted(&mut self, c: NodeId) -> DeltaNodeId {
        let id = self.alloc(
            self.t1.label(c),
            self.t1.value(c).clone(),
            Annotation::Deleted,
        );
        let t1 = self.t1;
        let children: Vec<DeltaNodeId> = t1
            .children(c)
            .iter()
            .map(|&k| match self.m.partner1(k) {
                None => self.emit_old_deleted(k),
                Some(_) => {
                    let mk = self.alloc(
                        t1.label(k),
                        t1.value(k).clone(),
                        Annotation::Marker { moved: UNRESOLVED },
                    );
                    self.pending_marks.push((mk, k));
                    mk
                }
            })
            .collect();
        self.arena[id.index()].children = children;
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hierdiff_edit::edit_script;
    use hierdiff_matching::{fast_match, MatchParams};
    use hierdiff_tree::isomorphic;

    fn doc(s: &str) -> Tree<String> {
        Tree::parse_sexpr(s).unwrap()
    }

    /// End-to-end helper: match, script, delta; then verify both
    /// projections.
    fn delta_for(t1: &Tree<String>, t2: &Tree<String>) -> DeltaTree<String> {
        let matched = fast_match(t1, t2, MatchParams::default()).unwrap();
        delta_with(t1, t2, &matched.matching)
    }

    /// [`delta_for`] under a given matching.
    fn delta_with(t1: &Tree<String>, t2: &Tree<String>, m: &Matching) -> DeltaTree<String> {
        let res = edit_script(t1, t2, m).unwrap();
        let delta = build_delta_tree(t1, t2, m, &res);
        let new = delta.project_new();
        let old = delta.project_old();
        if res.wrapped {
            // Projections carry the dummy root; compare against wrapped
            // inputs.
            let l = Label::intern(DUMMY_ROOT_LABEL);
            let mut t1w = t1.clone();
            t1w.wrap_root(l, String::new());
            let mut t2w = t2.clone();
            t2w.wrap_root(l, String::new());
            assert!(isomorphic(&new, &t2w), "project_new mismatch:\n{new:?}");
            assert!(isomorphic(&old, &t1w), "project_old mismatch:\n{old:?}");
        } else {
            assert!(isomorphic(&new, t2), "project_new mismatch:\n{new:?}");
            assert!(isomorphic(&old, t1), "project_old mismatch:\n{old:?}");
        }
        delta
    }

    #[test]
    fn identical_trees_all_idn() {
        let t = doc(r#"(D (P (S "a") (S "b")) (P (S "c")))"#);
        let delta = delta_for(&t, &t.clone());
        let c = delta.annotation_counts();
        assert_eq!(c.identical, t.len());
        assert_eq!(c.changes(), 0);
    }

    #[test]
    fn update_keeps_old_value() {
        let t1 = doc(r#"(D (S "old text"))"#);
        let t2 = doc(r#"(D (S "old text"))"#);
        // Force an update by exact-value matching failing: use a matching by
        // hand instead of fast_match.
        let mut m = Matching::new();
        m.insert(t1.root(), t2.root()).unwrap();
        m.insert(t1.children(t1.root())[0], t2.children(t2.root())[0])
            .unwrap();
        let t2 = doc(r#"(D (S "new text"))"#);
        let mut m2 = Matching::new();
        m2.insert(t1.root(), t2.root()).unwrap();
        m2.insert(t1.children(t1.root())[0], t2.children(t2.root())[0])
            .unwrap();
        let res = edit_script(&t1, &t2, &m2).unwrap();
        let delta = build_delta_tree(&t1, &t2, &m2, &res);
        let c = delta.annotation_counts();
        assert_eq!(c.updated, 1);
        let leaf = delta.children(delta.root())[0];
        match delta.annotation(leaf) {
            Annotation::Updated { old } => assert_eq!(old, "old text"),
            a => panic!("expected UPD, got {}", a.tag()),
        }
        assert_eq!(delta.value(leaf), "new text");
        assert!(isomorphic(&delta.project_old(), &t1));
        assert!(isomorphic(&delta.project_new(), &t2));
    }

    #[test]
    fn insert_annotated() {
        let t1 = doc(r#"(D (S "a") (S "c") (S "d"))"#);
        let t2 = doc(r#"(D (S "a") (S "b") (S "c") (S "d"))"#);
        let delta = delta_for(&t1, &t2);
        let c = delta.annotation_counts();
        assert_eq!(c.inserted, 1);
        assert_eq!(c.identical, 4);
        let ins = delta.children(delta.root())[1];
        assert_eq!(delta.annotation(ins).tag(), "INS");
        assert_eq!(delta.value(ins), "b");
    }

    #[test]
    fn delete_keeps_tombstone_at_old_position() {
        let t1 = doc(r#"(D (S "a") (S "gone") (S "b"))"#);
        let t2 = doc(r#"(D (S "a") (S "b"))"#);
        let delta = delta_for(&t1, &t2);
        let c = delta.annotation_counts();
        assert_eq!(c.deleted, 1);
        // The tombstone sits between "a" and "b".
        let kids = delta.children(delta.root());
        assert_eq!(kids.len(), 3);
        assert_eq!(delta.annotation(kids[1]).tag(), "DEL");
        assert_eq!(delta.value(kids[1]), "gone");
    }

    #[test]
    fn deleted_subtree_kept_whole() {
        let t1 = doc(r#"(D (P (S "x") (S "y")) (S "k1") (S "k2") (S "k3") (S "k4"))"#);
        let t2 = doc(r#"(D (S "k1") (S "k2") (S "k3") (S "k4"))"#);
        let delta = delta_for(&t1, &t2);
        let c = delta.annotation_counts();
        assert_eq!(c.deleted, 3, "P and both sentences tombstoned");
        let del_p = delta.children(delta.root())[0];
        assert_eq!(delta.annotation(del_p).tag(), "DEL");
        assert_eq!(delta.children(del_p).len(), 2);
    }

    #[test]
    fn move_produces_mov_and_mrk_pair() {
        let t1 = doc(r#"(D (P (S "m") (S "a1") (S "a2")) (P (S "b1") (S "b2")))"#);
        let t2 = doc(r#"(D (P (S "a1") (S "a2")) (P (S "b1") (S "b2") (S "m")))"#);
        let delta = delta_for(&t1, &t2);
        let c = delta.annotation_counts();
        assert_eq!(c.moved, 1);
        assert_eq!(c.markers, 1);
        // Cross-references resolve both ways.
        let (mov, mrk) = {
            let mut mov = None;
            let mut mrk = None;
            for id in delta.preorder() {
                match delta.annotation(id) {
                    Annotation::Moved { mark, .. } => mov = Some((id, *mark)),
                    Annotation::Marker { moved } => mrk = Some((id, *moved)),
                    _ => {}
                }
            }
            (mov.unwrap(), mrk.unwrap())
        };
        assert_eq!(mov.1, mrk.0);
        assert_eq!(mrk.1, mov.0);
        // Marker carries the old value at the old position (first paragraph).
        assert_eq!(delta.value(mrk.0), "m");
    }

    #[test]
    fn move_with_update_keeps_both() {
        let t1 = doc(r#"(D (P (S "draft words here")) (P))"#);
        let t2 = doc(r#"(D (P) (P (S "final words here")))"#);
        // Hand matching: sentence corresponds across paragraphs.
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
        let delta = build_delta_tree(&t1, &t2, &m, &res);
        let c = delta.annotation_counts();
        assert_eq!(c.moved, 1);
        assert_eq!(c.markers, 1);
        assert_eq!(c.updated, 0, "update folded into the move annotation");
        let mov = delta
            .preorder()
            .find(|&id| matches!(delta.annotation(id), Annotation::Moved { .. }))
            .unwrap();
        match delta.annotation(mov) {
            Annotation::Moved { old: Some(old), .. } => assert_eq!(old, "draft words here"),
            a => panic!("expected MOV with old value, got {:?}", a.tag()),
        }
        assert!(isomorphic(&delta.project_old(), &t1));
        assert!(isomorphic(&delta.project_new(), &t2));
    }

    #[test]
    fn moved_out_of_deleted_subtree() {
        // The paragraph is deleted but one sentence survives by moving out.
        let t1 = doc(r#"(D (P (S "survivor") (S "casualty")) (P (S "o1") (S "o2")))"#);
        let t2 = doc(r#"(D (P (S "o1") (S "o2") (S "survivor")))"#);
        let delta = delta_for(&t1, &t2);
        let c = delta.annotation_counts();
        assert_eq!(c.moved, 1);
        assert_eq!(c.markers, 1);
        assert!(c.deleted >= 2, "paragraph and casualty tombstoned");
        // The marker lives inside the deleted paragraph copy.
        let del_p = delta
            .preorder()
            .find(|&id| {
                matches!(delta.annotation(id), Annotation::Deleted)
                    && delta.label(id) == Label::intern("P")
            })
            .unwrap();
        let marker_inside = delta
            .children(del_p)
            .iter()
            .any(|&k| matches!(delta.annotation(k), Annotation::Marker { .. }));
        assert!(marker_inside);
    }

    #[test]
    fn example_3_1_delta_tree_shape() {
        // Figure 12: the delta tree for Example 3.1's script
        // INS((11,Sec,foo),1,4), MOV(5,11,1), DEL(2), UPD(9,baz).
        let t1 = doc(r#"(Doc (P) (Sec (P (S "a") (S "b"))) (S "bar"))"#);
        let t2_src = {
            // Apply the script mentally: insert Sec(foo) as 4th child, move
            // the P("a","b") under it, delete the empty P, update bar→baz.
            r#"(Doc (Sec) (S "baz") (Sec "foo"))"#
        };
        // t2 needs Sec "foo" to contain the moved P — the sexpr grammar
        // cannot put a value on an internal node, so build it directly.
        let mut t2 = doc(t2_src);
        let sec_foo = t2.children(t2.root())[2];
        let p = t2.push_child(sec_foo, Label::intern("P"), String::new());
        t2.push_child(p, Label::intern("S"), "a".to_string());
        t2.push_child(p, Label::intern("S"), "b".to_string());

        // Hand matching mirroring the example.
        let mut m = Matching::new();
        m.insert(t1.root(), t2.root()).unwrap();
        let t1_kids: Vec<_> = t1.children(t1.root()).to_vec();
        let t2_kids: Vec<_> = t2.children(t2.root()).to_vec();
        // Sec(empty)↔Sec(empty), bar↔baz; P(empty) of t1 deleted.
        m.insert(t1_kids[1], t2_kids[0]).unwrap();
        m.insert(t1_kids[2], t2_kids[1]).unwrap();
        // P("a","b") moves under the inserted Sec.
        let p1 = t1.children(t1_kids[1])[0];
        m.insert(p1, p).unwrap();
        for (a, b) in t1.children(p1).iter().zip(t2.children(p)) {
            m.insert(*a, *b).unwrap();
        }
        let res = edit_script(&t1, &t2, &m).unwrap();
        let counts = res.script.op_counts();
        assert_eq!(counts.inserts, 1, "script: {}", res.script);
        assert_eq!(counts.moves, 1);
        assert_eq!(counts.deletes, 1);
        assert_eq!(counts.updates, 1);

        let delta = build_delta_tree(&t1, &t2, &m, &res);
        let c = delta.annotation_counts();
        assert_eq!(c.inserted, 1);
        assert_eq!(c.moved, 1);
        assert_eq!(c.markers, 1);
        assert_eq!(c.deleted, 1);
        assert_eq!(c.updated, 1);
        assert!(isomorphic(&delta.project_new(), &t2));
        assert!(isomorphic(&delta.project_old(), &t1));
    }

    #[test]
    fn wide_parent_interleaves_deletes_and_markers() {
        // 2,400 siblings: every 7th deleted, every 11th (not 7th) moved to
        // the second paragraph, a fresh sentence after every 13th.
        let n = 2400;
        let leaf = |i: usize| format!(r#"(S "v{i}")"#);
        let old: Vec<String> = (0..n).map(leaf).collect();
        let mut kept = Vec::new();
        let mut moved = Vec::new();
        for i in 0..n {
            if i % 7 == 0 {
                continue;
            }
            if i % 11 == 0 {
                moved.push(leaf(i));
                continue;
            }
            kept.push(leaf(i));
            if i % 13 == 0 {
                kept.push(format!(r#"(S "new{i}")"#));
            }
        }
        let t1 = doc(&format!("(D (P {}) (P))", old.join(" ")));
        let t2 = doc(&format!(
            "(D (P {}) (P {}))",
            kept.join(" "),
            moved.join(" ")
        ));
        // Root and paragraphs by position, sentences by value.
        let mut m = Matching::new();
        m.insert(t1.root(), t2.root()).unwrap();
        for (&a, &b) in t1.children(t1.root()).iter().zip(t2.children(t2.root())) {
            m.insert(a, b).unwrap();
        }
        let by_value: std::collections::HashMap<&String, NodeId> =
            t2.leaves().map(|y| (t2.value(y), y)).collect();
        for x in t1.leaves() {
            if let Some(&y) = by_value.get(t1.value(x)) {
                m.insert(x, y).unwrap();
            }
        }
        let delta = delta_with(&t1, &t2, &m);
        let c = delta.annotation_counts();
        assert_eq!(c.deleted, (0..n).filter(|i| i % 7 == 0).count());
        assert_eq!(c.markers, moved.len());
        assert_eq!(c.moved, moved.len());
        assert_eq!(
            c.inserted,
            (0..n)
                .filter(|i| i % 13 == 0 && i % 7 != 0 && i % 11 != 0)
                .count()
        );
        let wide = delta.children(delta.root())[0];
        assert_eq!(
            delta.children(wide).len(),
            kept.len() + c.deleted + c.markers
        );
    }

    #[test]
    fn unmatched_roots_wrapped_delta() {
        let t1 = doc(r#"(A (S "x"))"#);
        let t2 = doc(r#"(B (S "y"))"#);
        let delta = delta_for(&t1, &t2);
        assert_eq!(delta.label(delta.root()), Label::intern(DUMMY_ROOT_LABEL));
        let c = delta.annotation_counts();
        assert_eq!(c.inserted, 2);
        assert_eq!(c.deleted, 2);
    }

    #[test]
    fn serde_roundtrip() {
        let t1 = doc(r#"(D (S "a") (S "b"))"#);
        let t2 = doc(r#"(D (S "b") (S "a"))"#);
        let delta = delta_for(&t1, &t2);
        let json = serde_json::to_string(&delta).unwrap();
        let back: DeltaTree<String> = serde_json::from_str(&json).unwrap();
        assert_eq!(back.len(), delta.len());
        assert!(isomorphic(&back.project_new(), &t2));
    }
}
