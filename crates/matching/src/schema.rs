//! Label schemas and the acyclic-labels condition (Section 5.1).
//!
//! "Many structuring schemas satisfy an *acyclic labels* condition: there is
//! an ordering `<ₗ` on the labels ... such that a node with label `l1` can
//! appear as the descendent of a node with label `l2` only if `l1 <ₗ l2`."
//! The condition underlies the unique-maximal-matching theorem (Theorem 5.2)
//! and gives the matching algorithms their bottom-up label processing order.
//!
//! Schemas with label cycles (e.g. LaTeX's mutually nestable `itemize` /
//! `enumerate` / `description` lists) are handled the way the paper
//! suggests: "we merge their labels into a single *list* label" — the
//! document parsers in `hierdiff-doc` do exactly that, and
//! [`check_acyclic`] reports any cycle that remains.

use std::collections::HashMap;
use std::convert::Infallible;
use std::fmt;

use hierdiff_guard::{Guard, GuardError};
use hierdiff_tree::{Label, NodeValue, Tree};

use crate::error::MatchError;

/// Classification of the labels appearing in a tree pair, with the
/// bottom-up processing order used by Algorithms *Match* and *FastMatch*.
#[derive(Clone, Debug)]
pub struct LabelClasses {
    /// Labels borne exclusively by leaves (in both trees).
    pub leaf_labels: Vec<Label>,
    /// Labels borne by at least one internal node.
    pub internal_labels: Vec<Label>,
    /// `leaf_labels` as a table indexed by `Label::index`, for O(1)
    /// [`is_leaf_label`](LabelClasses::is_leaf_label).
    is_leaf: Vec<bool>,
}

/// What classification learns about one label, in a table indexed by
/// `Label::index`.
#[derive(Clone, Copy)]
struct LabelInfo {
    /// Maximum height of a node bearing the label.
    height: u32,
    /// Whether some bearer is internal.
    internal: bool,
    /// Whether a bearer was seen (its first sighting fixes the label's
    /// place in the first-seen order).
    seen: bool,
}

impl LabelClasses {
    /// Classifies labels of `t1` and `t2`. Leaf labels come out in first-seen
    /// document order; internal labels are ordered by ascending maximum node
    /// height, so that processing them in order visits the hierarchy
    /// bottom-up (paragraphs before sections before documents).
    pub fn classify<V: NodeValue>(t1: &Tree<V>, t2: &Tree<V>) -> LabelClasses {
        let Ok(classes) = Self::classify_ticked(t1, t2, || Ok::<(), Infallible>(()));
        classes
    }

    /// [`classify`](Self::classify) under resource governance: `guard` is
    /// ticked per node, so a fired cancel token or an expired deadline
    /// stops the O(n) pass at the usual stride.
    pub fn classify_guarded<V: NodeValue>(
        t1: &Tree<V>,
        t2: &Tree<V>,
        guard: &Guard,
    ) -> Result<LabelClasses, GuardError> {
        Self::classify_ticked(t1, t2, || guard.tick())
    }

    /// One dense height pass and one preorder pass per tree, with per-label
    /// facts in a table indexed by `Label::index` (labels are interned
    /// process-wide, so the table is as small as the label universe).
    #[expect(
        clippy::indexing_slicing,
        reason = "`heights` is sized to the same tree's arena; `info` is grown to every label \
                  index before it is read"
    )]
    fn classify_ticked<V: NodeValue, E>(
        t1: &Tree<V>,
        t2: &Tree<V>,
        mut tick: impl FnMut() -> Result<(), E>,
    ) -> Result<LabelClasses, E> {
        let unseen = LabelInfo {
            height: 0,
            internal: false,
            seen: false,
        };
        let mut info = vec![unseen; Label::universe_size()];
        let mut seen_order: Vec<Label> = Vec::new();
        for tree in [t1, t2] {
            let heights = tree.heights();
            tick()?;
            for id in tree.preorder() {
                tick()?;
                let l = tree.label(id);
                if l.index() >= info.len() {
                    info.resize(l.index() + 1, unseen);
                }
                let h = heights[id.index()];
                let e = &mut info[l.index()];
                if !e.seen {
                    e.seen = true;
                    seen_order.push(l);
                }
                e.height = e.height.max(h);
                // A node is internal iff it has a child, i.e. height > 0.
                e.internal |= h > 0;
            }
        }
        let mut leaf_labels = Vec::new();
        let mut internal: Vec<(u32, Label)> = Vec::new();
        let mut is_leaf = vec![false; info.len()];
        for l in seen_order {
            tick()?;
            let e = info[l.index()];
            if e.internal {
                internal.push((e.height, l));
            } else {
                leaf_labels.push(l);
                is_leaf[l.index()] = true;
            }
        }
        // Stable: equal heights keep first-seen order.
        internal.sort_by_key(|&(h, _)| h);
        Ok(LabelClasses {
            leaf_labels,
            internal_labels: internal.into_iter().map(|(_, l)| l).collect(),
            is_leaf,
        })
    }

    /// Number of internal-node labels — the `l` in the FastMatch running-time
    /// bound `(ne + e²)c + 2lne` (Section 5.3).
    pub fn internal_label_count(&self) -> usize {
        self.internal_labels.len()
    }

    /// Whether `l` is classified as a leaf label. O(1).
    pub fn is_leaf_label(&self, l: Label) -> bool {
        self.is_leaf.get(l.index()).copied().unwrap_or(false)
    }
}

/// A label cycle violating the acyclicity condition: following
/// parent-to-child label edges returns to the starting label.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LabelCycle {
    /// The labels along the cycle (first label repeated at the end).
    pub labels: Vec<Label>,
}

impl fmt::Display for LabelCycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "label cycle: ")?;
        for (i, l) in self.labels.iter().enumerate() {
            if i > 0 {
                write!(f, " > ")?;
            }
            write!(f, "{l}")?;
        }
        Ok(())
    }
}

impl std::error::Error for LabelCycle {}

/// Checks the acyclic-labels condition over the parent→child label edges of
/// both trees; on success returns a topological order of the labels (most
/// deeply nestable first — a valid `<ₗ`). A violation surfaces as
/// [`MatchError::Cycle`] carrying the offending [`LabelCycle`].
pub fn check_acyclic<V: NodeValue>(t1: &Tree<V>, t2: &Tree<V>) -> Result<Vec<Label>, MatchError> {
    // Build the "child-label under parent-label" edge set.
    let mut edges: HashMap<Label, Vec<Label>> = HashMap::new(); // parent -> children
    let mut labels: Vec<Label> = Vec::new();
    let mut known: HashMap<Label, ()> = HashMap::new();
    for tree in [t1, t2] {
        for id in tree.preorder() {
            let l = tree.label(id);
            if known.insert(l, ()).is_none() {
                labels.push(l);
            }
            if let Some(p) = tree.parent(id) {
                let pl = tree.label(p);
                if pl != l {
                    let kids = edges.entry(pl).or_default();
                    if !kids.contains(&l) {
                        kids.push(l);
                    }
                } else {
                    // A label nested under itself is a 1-cycle.
                    return Err(MatchError::Cycle(LabelCycle { labels: vec![l, l] }));
                }
            }
        }
    }
    // DFS-based cycle detection + topological sort (children first).
    #[derive(Clone, Copy, PartialEq)]
    enum State {
        White,
        Gray,
        Black,
    }
    let mut state: HashMap<Label, State> = labels.iter().map(|&l| (l, State::White)).collect();
    let mut order: Vec<Label> = Vec::new();

    fn visit(
        l: Label,
        edges: &HashMap<Label, Vec<Label>>,
        state: &mut HashMap<Label, State>,
        order: &mut Vec<Label>,
        path: &mut Vec<Label>,
    ) -> Result<(), MatchError> {
        state.insert(l, State::Gray);
        path.push(l);
        for &c in edges.get(&l).map(Vec::as_slice).unwrap_or(&[]) {
            match state[&c] {
                State::White => visit(c, edges, state, order, path)?,
                State::Gray => {
                    // A gray node is by construction on the DFS path; its
                    // absence would be an invariant bug, reported as data.
                    let mut cyc: Vec<Label> = path
                        .iter()
                        .position(|&p| p == c)
                        .and_then(|start| path.get(start..))
                        .ok_or(MatchError::Internal("gray label missing from DFS path"))?
                        .to_vec();
                    cyc.push(c);
                    return Err(MatchError::Cycle(LabelCycle { labels: cyc }));
                }
                State::Black => {}
            }
        }
        path.pop();
        state.insert(l, State::Black);
        order.push(l);
        Ok(())
    }

    let mut path = Vec::new();
    for &l in &labels {
        if state.get(&l) == Some(&State::White) {
            visit(l, &edges, &mut state, &mut order, &mut path)?;
        }
    }
    Ok(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hierdiff_tree::Tree;

    fn expect_cycle(r: Result<Vec<Label>, MatchError>) -> LabelCycle {
        match r {
            Err(MatchError::Cycle(c)) => c,
            other => panic!("expected a label cycle, got {other:?}"),
        }
    }

    fn doc(s: &str) -> Tree<String> {
        Tree::parse_sexpr(s).unwrap()
    }

    #[test]
    fn classify_document_schema() {
        let t1 = doc(r#"(Doc (Sec (P (S "a"))) (P (S "b")))"#);
        let t2 = doc(r#"(Doc (Sec (P (S "c"))))"#);
        let c = LabelClasses::classify(&t1, &t2);
        assert_eq!(
            c.leaf_labels,
            vec![Label::intern("S")],
            "only S is exclusively leaf-borne"
        );
        // Internal labels bottom-up: P (height 1) < Sec (height 2) < Doc.
        assert_eq!(
            c.internal_labels,
            vec![
                Label::intern("P"),
                Label::intern("Sec"),
                Label::intern("Doc")
            ]
        );
        assert_eq!(c.internal_label_count(), 3);
    }

    #[test]
    fn mixed_leaf_and_internal_label_is_internal() {
        // An empty P in t1 is a leaf, but P is internal elsewhere.
        let t1 = doc(r#"(Doc (P))"#);
        let t2 = doc(r#"(Doc (P (S "a")))"#);
        let c = LabelClasses::classify(&t1, &t2);
        assert!(c.internal_labels.contains(&Label::intern("P")));
        assert!(!c.leaf_labels.contains(&Label::intern("P")));
    }

    #[test]
    fn acyclic_document_schema_passes() {
        let t1 = doc(r#"(Doc (Sec (P (S "a"))))"#);
        let t2 = doc(r#"(Doc (P (S "b")))"#);
        let order = check_acyclic(&t1, &t2).unwrap();
        let pos = |l: &str| order.iter().position(|&x| x == Label::intern(l)).unwrap();
        // Children-first topological order: S before P before Sec before Doc.
        assert!(pos("S") < pos("P"));
        assert!(pos("P") < pos("Sec"));
        assert!(pos("Sec") < pos("Doc"));
    }

    #[test]
    fn self_nesting_is_a_cycle() {
        let t1 = doc(r#"(List (List (S "a")))"#);
        let t2 = doc(r#"(List)"#);
        let err = expect_cycle(check_acyclic(&t1, &t2));
        assert_eq!(
            err.labels,
            vec![Label::intern("List"), Label::intern("List")]
        );
    }

    #[test]
    fn two_label_cycle_detected() {
        // itemize under enumerate in t1, enumerate under itemize in t2.
        let t1 = doc(r#"(Doc (Enum (Item (Itemize (S "a")))))"#);
        let t2 = doc(r#"(Doc (Itemize (Item (Enum (S "b")))))"#);
        let err = expect_cycle(check_acyclic(&t1, &t2));
        assert!(err.labels.len() >= 3, "{err}");
        assert_eq!(err.labels.first(), err.labels.last());
    }

    #[test]
    fn display_formats_cycle() {
        let c = LabelCycle {
            labels: vec![Label::intern("A"), Label::intern("B"), Label::intern("A")],
        };
        assert_eq!(c.to_string(), "label cycle: A > B > A");
    }
}
