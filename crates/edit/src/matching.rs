//! The matching between the nodes of two trees (Section 3.1).
//!
//! "The notion of a correspondence between nodes that have identical or
//! similar values is formalized as a *matching* between node identifiers.
//! Matchings are one-to-one." A matching is *partial* if only some nodes
//! participate and *total* if all do.
//!
//! Node ids are dense arena indices, so the matching is stored as two dense
//! direction tables rather than hash maps — partner lookup, the hottest
//! operation in both the matching algorithms (`r2` "partner checks" of
//! Section 8) and Algorithm *EditScript*, is a single indexed load.
//!
//! Beside the pairs, a matching keeps a record of the *identical subtree
//! pairs* it holds: the roots `(x, y)` of subtrees that
//! [`Matching::insert_identical_subtrees`] verified identical (labels,
//! values and shape) and paired node for node. Later stages read the
//! record instead of re-deriving what the pruning pre-pass already proved:
//! FastMatch's chain walk jumps over recorded subtrees, EditScript treats
//! their roots as settled, and the delta builder emits their interiors as
//! `IDN` without comparing values. Only `insert_identical_subtrees` adds
//! to the record, and any removal drops all of it, so the record never
//! names a pair the matching no longer holds.

use std::fmt;

use hierdiff_tree::{isomorphic_subtrees, traverse::preorder_of, NodeId, NodeValue, Tree};

/// Errors from [`Matching::insert`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatchingError {
    /// The `T1`-side node is already matched (to the contained partner).
    AlreadyMatched1(NodeId, NodeId),
    /// The `T2`-side node is already matched (to the contained partner).
    AlreadyMatched2(NodeId, NodeId),
}

impl fmt::Display for MatchingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatchingError::AlreadyMatched1(x, y) => {
                write!(f, "T1 node {x} is already matched to {y}")
            }
            MatchingError::AlreadyMatched2(y, x) => {
                write!(f, "T2 node {y} is already matched to {x}")
            }
        }
    }
}

impl std::error::Error for MatchingError {}

/// A one-to-one (partial) matching between the nodes of an old tree `T1` and
/// a new tree `T2`.
#[derive(Clone, Default)]
pub struct Matching {
    fwd: Vec<Option<NodeId>>, // T1 index -> T2 node
    bwd: Vec<Option<NodeId>>, // T2 index -> T1 node
    len: usize,
    /// Roots of the verified identical subtree pairs (see the module docs).
    identical: Vec<(NodeId, NodeId)>,
}

impl Matching {
    /// An empty matching. Tables grow on demand; pre-size with
    /// [`Matching::with_capacity`] when the arena sizes are known.
    pub fn new() -> Matching {
        Matching::default()
    }

    /// An empty matching with direction tables pre-sized for trees with the
    /// given arena lengths.
    pub fn with_capacity(t1_arena: usize, t2_arena: usize) -> Matching {
        Matching {
            fwd: vec![None; t1_arena],
            bwd: vec![None; t2_arena],
            len: 0,
            identical: Vec::new(),
        }
    }

    /// Number of matched pairs.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no pairs are matched.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn grow(table: &mut Vec<Option<NodeId>>, idx: usize) {
        if idx >= table.len() {
            table.resize(idx + 1, None);
        }
    }

    /// Adds the pair `(x, y)` — `x ∈ T1`, `y ∈ T2` — enforcing one-to-one-ness.
    pub fn insert(&mut self, x: NodeId, y: NodeId) -> Result<(), MatchingError> {
        if let Some(prev) = self.partner1(x) {
            return Err(MatchingError::AlreadyMatched1(x, prev));
        }
        if let Some(prev) = self.partner2(y) {
            return Err(MatchingError::AlreadyMatched2(y, prev));
        }
        self.link(x, y);
        Ok(())
    }

    /// Adds the pair `(x, y)` of two unmatched nodes.
    #[expect(clippy::indexing_slicing, reason = "`grow` just sized both tables")]
    fn link(&mut self, x: NodeId, y: NodeId) {
        Self::grow(&mut self.fwd, x.index());
        Self::grow(&mut self.bwd, y.index());
        self.fwd[x.index()] = Some(y);
        self.bwd[y.index()] = Some(x);
        self.len += 1;
    }

    /// Pairs the subtree of `T1` node `x` with the subtree of `T2` node `y`
    /// node for node, along parallel preorders, and records `(x, y)` as an
    /// identical subtree pair (see the module docs).
    ///
    /// Returns `Ok(false)`, leaving the matching unchanged, when the
    /// subtrees are not identical: a label, value or shape differs. Returns
    /// an error, again leaving the matching unchanged, when a node of
    /// either subtree is already matched.
    pub fn insert_identical_subtrees<V: NodeValue>(
        &mut self,
        t1: &Tree<V>,
        x: NodeId,
        t2: &Tree<V>,
        y: NodeId,
    ) -> Result<bool, MatchingError> {
        if !isomorphic_subtrees(t1, x, t2, y) {
            return Ok(false);
        }
        if let Some((a, p)) = preorder_of(t1, x).find_map(|a| Some((a, self.partner1(a)?))) {
            return Err(MatchingError::AlreadyMatched1(a, p));
        }
        if let Some((b, p)) = preorder_of(t2, y).find_map(|b| Some((b, self.partner2(b)?))) {
            return Err(MatchingError::AlreadyMatched2(b, p));
        }
        // Identical shapes: parallel preorders line up node for node.
        for (a, b) in preorder_of(t1, x).zip(preorder_of(t2, y)) {
            // analyze: allow(S031) pairs each node of the verified subtree once
            self.link(a, b);
        }
        self.identical.push((x, y));
        Ok(true)
    }

    /// The roots `(x ∈ T1, y ∈ T2)` of the identical subtree pairs recorded
    /// by [`Matching::insert_identical_subtrees`], in insertion order.
    /// Every node of each recorded subtree is matched to its counterpart.
    pub fn identical_roots(&self) -> &[(NodeId, NodeId)] {
        &self.identical
    }

    /// Removes the pair containing `T1` node `x`, if any. Returns the former
    /// partner. Used by the Section 8 post-processing pass, which re-matches
    /// nodes top-down. Drops the identical-subtree record.
    pub fn remove1(&mut self, x: NodeId) -> Option<NodeId> {
        self.identical.clear();
        let y = self.fwd.get_mut(x.index())?.take()?;
        if let Some(back) = self.bwd.get_mut(y.index()) {
            *back = None;
        }
        self.len -= 1;
        Some(y)
    }

    /// Removes the pair containing `T2` node `y`, if any. Returns the former
    /// partner. Drops the identical-subtree record.
    pub fn remove2(&mut self, y: NodeId) -> Option<NodeId> {
        self.identical.clear();
        let x = self.bwd.get_mut(y.index())?.take()?;
        if let Some(fwd) = self.fwd.get_mut(x.index()) {
            *fwd = None;
        }
        self.len -= 1;
        Some(x)
    }

    /// The partner in `T2` of `T1` node `x`, if matched.
    pub fn partner1(&self, x: NodeId) -> Option<NodeId> {
        self.fwd.get(x.index()).copied().flatten()
    }

    /// The partner in `T1` of `T2` node `y`, if matched.
    pub fn partner2(&self, y: NodeId) -> Option<NodeId> {
        self.bwd.get(y.index()).copied().flatten()
    }

    /// Whether `T1` node `x` is matched.
    pub fn is_matched1(&self, x: NodeId) -> bool {
        self.partner1(x).is_some()
    }

    /// Whether `T2` node `y` is matched.
    pub fn is_matched2(&self, y: NodeId) -> bool {
        self.partner2(y).is_some()
    }

    /// Whether the exact pair `(x, y)` is in the matching — the `equal`
    /// function of the child-alignment LCS (Section 4.2).
    pub fn contains(&self, x: NodeId, y: NodeId) -> bool {
        self.partner1(x) == Some(y)
    }

    /// Iterates over all pairs `(x ∈ T1, y ∈ T2)` in `T1` arena order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.fwd.iter().enumerate().filter_map(|(i, &y)| {
            y.map(|y| (NodeId::from_index(i), y)) // analyze: allow(S043) `fwd` is indexed by T1 id
        })
    }

    /// Whether `other` contains every pair of `self` (i.e. `self ⊆ other`) —
    /// the conformance condition `M' ⊇ M` of Section 3.1.
    pub fn is_subset_of(&self, other: &Matching) -> bool {
        self.iter().all(|(x, y)| other.contains(x, y))
    }
}

impl fmt::Debug for Matching {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matching{{")?;
        for (i, (x, y)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{x}↔{y}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    #[test]
    fn insert_and_lookup() {
        let mut m = Matching::new();
        m.insert(n(0), n(5)).unwrap();
        m.insert(n(3), n(1)).unwrap();
        assert_eq!(m.len(), 2);
        assert_eq!(m.partner1(n(0)), Some(n(5)));
        assert_eq!(m.partner2(n(5)), Some(n(0)));
        assert_eq!(m.partner1(n(1)), None);
        assert!(m.contains(n(3), n(1)));
        assert!(!m.contains(n(3), n(5)));
    }

    #[test]
    fn bijection_enforced() {
        let mut m = Matching::new();
        m.insert(n(0), n(0)).unwrap();
        assert_eq!(
            m.insert(n(0), n(1)).unwrap_err(),
            MatchingError::AlreadyMatched1(n(0), n(0))
        );
        assert_eq!(
            m.insert(n(1), n(0)).unwrap_err(),
            MatchingError::AlreadyMatched2(n(0), n(0))
        );
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn remove_restores_capacity_to_rematch() {
        let mut m = Matching::new();
        m.insert(n(2), n(7)).unwrap();
        assert_eq!(m.remove1(n(2)), Some(n(7)));
        assert_eq!(m.len(), 0);
        assert!(!m.is_matched2(n(7)));
        m.insert(n(2), n(8)).unwrap();
        m.insert(n(3), n(7)).unwrap();
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn remove2_direction() {
        let mut m = Matching::new();
        m.insert(n(2), n(7)).unwrap();
        assert_eq!(m.remove2(n(7)), Some(n(2)));
        assert_eq!(m.remove2(n(7)), None);
        assert!(!m.is_matched1(n(2)));
    }

    #[test]
    fn iter_yields_all_pairs() {
        let mut m = Matching::with_capacity(10, 10);
        m.insert(n(4), n(1)).unwrap();
        m.insert(n(2), n(9)).unwrap();
        let pairs: Vec<_> = m.iter().collect();
        assert_eq!(pairs, vec![(n(2), n(9)), (n(4), n(1))]);
    }

    #[test]
    fn subset_check() {
        let mut small = Matching::new();
        small.insert(n(1), n(1)).unwrap();
        let mut big = small.clone();
        big.insert(n(2), n(2)).unwrap();
        assert!(small.is_subset_of(&big));
        assert!(!big.is_subset_of(&small));
        assert!(small.is_subset_of(&small));
        assert!(Matching::new().is_subset_of(&small));
    }

    fn doc(s: &str) -> Tree<String> {
        Tree::parse_sexpr(s).unwrap()
    }

    /// The pair lists of two matchings, for "left untouched" checks.
    fn pairs(m: &Matching) -> Vec<(NodeId, NodeId)> {
        m.iter().collect()
    }

    #[test]
    fn identical_subtrees_pair_node_for_node_and_are_recorded() {
        let t1 = doc(r#"(D (P (S "a") (S "b")) (S "x"))"#);
        let t2 = doc(r#"(D (S "y") (P (S "a") (S "b")))"#);
        let p1 = t1.children(t1.root())[0];
        let p2 = t2.children(t2.root())[1];
        let mut m = Matching::new();
        assert_eq!(m.insert_identical_subtrees(&t1, p1, &t2, p2), Ok(true));
        assert_eq!(m.len(), 3);
        assert_eq!(m.identical_roots(), &[(p1, p2)]);
        for (&a, &b) in t1.children(p1).iter().zip(t2.children(p2)) {
            assert!(m.contains(a, b));
        }
    }

    #[test]
    fn identical_subtrees_reject_mismatches_untouched() {
        let t1 = doc(r#"(D (P (S "a") (S "b")) (Q (S "a") (S "b")) (P (S "a")))"#);
        let t2 = doc(r#"(D (P (S "a") (S "c")) (P (S "a") (S "b")) (P (S "a") (S "b")))"#);
        let k1 = t1.children(t1.root()).to_vec();
        let k2 = t2.children(t2.root()).to_vec();
        let mut m = Matching::new();
        m.insert(t1.root(), t2.root()).unwrap();
        let before = pairs(&m);
        // Value, label and shape mismatches.
        for (x, y) in [(k1[0], k2[0]), (k1[1], k2[1]), (k1[2], k2[1])] {
            assert_eq!(m.insert_identical_subtrees(&t1, x, &t2, y), Ok(false));
            assert_eq!(pairs(&m), before);
            assert!(m.identical_roots().is_empty());
        }
        // An already-matched node deep inside either subtree.
        let inner1 = t1.children(k1[0])[1];
        let inner2 = t2.children(k2[2])[1];
        m.insert(inner1, t2.children(k2[0])[0]).unwrap();
        let before = pairs(&m);
        assert_eq!(
            m.insert_identical_subtrees(&t1, k1[0], &t2, k2[1]),
            Err(MatchingError::AlreadyMatched1(
                inner1,
                t2.children(k2[0])[0]
            ))
        );
        assert_eq!(pairs(&m), before);
        m.remove1(inner1);
        m.insert(t1.children(k1[2])[0], inner2).unwrap();
        let before = pairs(&m);
        assert!(matches!(
            m.insert_identical_subtrees(&t1, k1[0], &t2, k2[2]),
            Err(MatchingError::AlreadyMatched2(y, _)) if y == inner2
        ));
        assert_eq!(pairs(&m), before);
        assert!(m.identical_roots().is_empty());
    }

    #[test]
    fn removals_drop_the_record_and_clone_keeps_it() {
        let t1 = doc(r#"(D (P (S "a")) (S "x"))"#);
        let t2 = doc(r#"(D (P (S "a")) (S "y"))"#);
        let p1 = t1.children(t1.root())[0];
        let p2 = t2.children(t2.root())[0];
        let mut m = Matching::new();
        m.insert(t1.root(), t2.root()).unwrap();
        assert_eq!(m.insert_identical_subtrees(&t1, p1, &t2, p2), Ok(true));
        let copy = m.clone();
        assert_eq!(copy.identical_roots(), &[(p1, p2)]);
        assert_eq!(pairs(&copy), pairs(&m));

        let mut a = m.clone();
        assert_eq!(a.remove1(t1.root()), Some(t2.root()));
        assert!(a.identical_roots().is_empty());
        let mut b = m.clone();
        assert_eq!(b.remove2(t2.root()), Some(t1.root()));
        assert!(b.identical_roots().is_empty());
        // Even a removal that finds no pair drops the record.
        let mut c = m.clone();
        assert_eq!(c.remove1(t1.children(t1.root())[1]), None);
        assert!(c.identical_roots().is_empty());
        assert_eq!(m.identical_roots(), &[(p1, p2)]);
    }

    #[test]
    fn out_of_range_lookups_are_none() {
        let m = Matching::new();
        assert_eq!(m.partner1(n(999)), None);
        assert_eq!(m.partner2(n(999)), None);
    }
}
