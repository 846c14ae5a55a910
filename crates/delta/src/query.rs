//! A small query API over delta trees — the direction the paper lists as
//! ongoing work (Section 9: "designing and implementing query, browsing,
//! and active rule languages for hierarchical data based on our edit
//! scripts and delta trees").
//!
//! [`DeltaQuery`] is a filter-combinator builder over the delta tree's
//! nodes: select by change kind, label, value predicate, or containment,
//! then iterate or count. Paths ([`DeltaTree::path_of`]) give positional
//! addresses for reporting, since delta trees deliberately carry no node
//! identifiers.

use hierdiff_tree::{Label, NodeValue};

use crate::{Annotation, DeltaNodeId, DeltaTree};

/// Which change kinds a query selects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChangeKind {
    /// `IDN` nodes.
    Identical,
    /// `UPD` nodes.
    Updated,
    /// `INS` nodes.
    Inserted,
    /// `DEL` nodes.
    Deleted,
    /// `MOV` nodes (at their new position).
    Moved,
    /// `MRK` markers (old positions of moves).
    Markers,
}

impl ChangeKind {
    fn matches<V>(self, a: &Annotation<V>) -> bool {
        matches!(
            (self, a),
            (ChangeKind::Identical, Annotation::Identical)
                | (ChangeKind::Updated, Annotation::Updated { .. })
                | (ChangeKind::Inserted, Annotation::Inserted)
                | (ChangeKind::Deleted, Annotation::Deleted)
                | (ChangeKind::Moved, Annotation::Moved { .. })
                | (ChangeKind::Markers, Annotation::Marker { .. })
        )
    }
}

/// A lazily evaluated selection over a delta tree's nodes.
pub struct DeltaQuery<'d, V: NodeValue> {
    delta: &'d DeltaTree<V>,
    kinds: Option<Vec<ChangeKind>>,
    label: Option<Label>,
    under: Option<DeltaNodeId>,
}

impl<V: NodeValue> DeltaTree<V> {
    /// Starts a query over all nodes of this delta tree.
    pub fn query(&self) -> DeltaQuery<'_, V> {
        DeltaQuery {
            delta: self,
            kinds: None,
            label: None,
            under: None,
        }
    }

    /// The positional path of `id` from the root, as `Label[child-index]`
    /// segments: e.g. `Document/Section[2]/Paragraph[0]/Sentence[3]`.
    #[expect(clippy::unreachable, reason = "every non-root delta node has a parent")]
    pub fn path_of(&self, id: DeltaNodeId) -> String {
        // Walk up by scanning (delta trees store no parent pointers; paths
        // are a reporting device, not a hot path).
        let mut segments = Vec::new();
        let mut target = id;
        'outer: loop {
            if target == self.root() {
                segments.push(self.label(self.root()).to_string());
                break;
            }
            // Find the parent of `target`.
            for candidate in self.preorder() {
                if let Some(pos) = self.children(candidate).iter().position(|&c| c == target) {
                    segments.push(format!("{}[{}]", self.label(target), pos));
                    target = candidate;
                    continue 'outer;
                }
            }
            unreachable!("every non-root delta node has a parent");
        }
        segments.reverse();
        segments.join("/")
    }
}

impl<'d, V: NodeValue> DeltaQuery<'d, V> {
    /// Restricts to the given change kind (may be called repeatedly to
    /// accumulate kinds).
    pub fn kind(mut self, kind: ChangeKind) -> Self {
        self.kinds.get_or_insert_with(Vec::new).push(kind);
        self
    }

    /// Restricts to changed nodes (everything but `IDN` and `MRK`).
    pub fn changed(self) -> Self {
        self.kind(ChangeKind::Updated)
            .kind(ChangeKind::Inserted)
            .kind(ChangeKind::Deleted)
            .kind(ChangeKind::Moved)
    }

    /// Restricts to nodes with the given label.
    pub fn with_label(mut self, label: Label) -> Self {
        self.label = Some(label);
        self
    }

    /// Restricts to (strict) descendants of `ancestor`.
    pub fn under(mut self, ancestor: DeltaNodeId) -> Self {
        self.under = Some(ancestor);
        self
    }

    /// Iterates the selected node ids in pre-order.
    pub fn iter(&self) -> impl Iterator<Item = DeltaNodeId> + '_ {
        let start = self.under.unwrap_or_else(|| self.delta.root());
        let skip_root = self.under.is_some();
        let mut stack = vec![start];
        let mut first = true;
        std::iter::from_fn(move || loop {
            let id = stack.pop()?;
            stack.extend(self.delta.children(id).iter().rev().copied());
            let is_start = first && id == start;
            first = false;
            if is_start && skip_root {
                continue;
            }
            if self.selects(id) {
                return Some(id);
            }
        })
    }

    /// Number of selected nodes.
    pub fn count(&self) -> usize {
        self.iter().count()
    }

    /// Collects the selected ids.
    pub fn collect(&self) -> Vec<DeltaNodeId> {
        self.iter().collect()
    }

    fn selects(&self, id: DeltaNodeId) -> bool {
        if let Some(label) = self.label {
            if self.delta.label(id) != label {
                return false;
            }
        }
        if let Some(kinds) = &self.kinds {
            if !kinds.iter().any(|k| k.matches(self.delta.annotation(id))) {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hierdiff_edit::edit_script;
    use hierdiff_matching::{fast_match, MatchParams};
    use hierdiff_tree::Tree;

    fn delta(t1: &str, t2: &str) -> DeltaTree<String> {
        let t1 = Tree::parse_sexpr(t1).unwrap();
        let t2 = Tree::parse_sexpr(t2).unwrap();
        let m = fast_match(&t1, &t2, MatchParams::default()).unwrap();
        let res = edit_script(&t1, &t2, &m.matching).unwrap();
        crate::build_delta_tree(&t1, &t2, &m.matching, &res)
    }

    fn sample() -> DeltaTree<String> {
        delta(
            r#"(D (P (S "k1") (S "k2") (S "k3") (S "k4") (S "gone") (S "mover"))
                  (P (S "tail1") (S "tail2")))"#,
            r#"(D (P (S "k1") (S "k2") (S "k3") (S "k4") (S "fresh"))
                  (P (S "tail1") (S "tail2") (S "mover")))"#,
        )
    }

    #[test]
    fn kind_filters() {
        let d = sample();
        assert_eq!(d.query().kind(ChangeKind::Inserted).count(), 1);
        assert_eq!(d.query().kind(ChangeKind::Deleted).count(), 1);
        assert_eq!(d.query().kind(ChangeKind::Moved).count(), 1);
        assert_eq!(d.query().kind(ChangeKind::Markers).count(), 1);
        assert_eq!(d.query().changed().count(), 3);
    }

    #[test]
    fn label_filter() {
        let d = sample();
        let sentences = d.query().with_label(Label::intern("S")).count();
        // 8 new-state sentences + 1 deleted tombstone + 1 marker = 10
        assert_eq!(sentences, 10);
        assert_eq!(d.query().with_label(Label::intern("P")).count(), 2);
    }

    #[test]
    fn under_scopes_to_subtree() {
        let d = sample();
        let first_p = d.children(d.root())[0];
        let changed_in_first = d.query().under(first_p).changed().count();
        // The insert and the delete live in the first paragraph; the MOV is
        // in the second.
        assert_eq!(changed_in_first, 2);
        // `under` excludes the anchor itself.
        let all_under_root = d.query().under(d.root()).count();
        assert_eq!(all_under_root, d.len() - 1);
    }

    #[test]
    fn combined_filters() {
        let d = sample();
        let n = d
            .query()
            .with_label(Label::intern("S"))
            .kind(ChangeKind::Inserted)
            .count();
        assert_eq!(n, 1);
        let none = d
            .query()
            .with_label(Label::intern("P"))
            .kind(ChangeKind::Inserted)
            .count();
        assert_eq!(none, 0);
    }

    #[test]
    fn paths_are_positional() {
        let d = sample();
        assert_eq!(d.path_of(d.root()), "D");
        let ins = d
            .query()
            .kind(ChangeKind::Inserted)
            .collect()
            .pop()
            .unwrap();
        let path = d.path_of(ins);
        assert!(path.starts_with("D/P[0]/S["), "{path}");
    }

    #[test]
    fn empty_selection() {
        let d = delta(r#"(D (S "a"))"#, r#"(D (S "a"))"#);
        assert_eq!(d.query().changed().count(), 0);
        assert_eq!(d.query().count(), 2);
    }
}
