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

use std::fmt;

use hierdiff_tree::NodeId;

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
    #[expect(clippy::indexing_slicing, reason = "`grow` just sized both tables")]
    pub fn insert(&mut self, x: NodeId, y: NodeId) -> Result<(), MatchingError> {
        Self::grow(&mut self.fwd, x.index());
        Self::grow(&mut self.bwd, y.index());
        if let Some(prev) = self.fwd[x.index()] {
            return Err(MatchingError::AlreadyMatched1(x, prev));
        }
        if let Some(prev) = self.bwd[y.index()] {
            return Err(MatchingError::AlreadyMatched2(y, prev));
        }
        self.fwd[x.index()] = Some(y);
        self.bwd[y.index()] = Some(x);
        self.len += 1;
        Ok(())
    }

    /// Removes the pair containing `T1` node `x`, if any. Returns the former
    /// partner. Used by the Section 8 post-processing pass, which re-matches
    /// nodes top-down.
    pub fn remove1(&mut self, x: NodeId) -> Option<NodeId> {
        let y = self.fwd.get_mut(x.index())?.take()?;
        if let Some(back) = self.bwd.get_mut(y.index()) {
            *back = None;
        }
        self.len -= 1;
        Some(y)
    }

    /// Removes the pair containing `T2` node `y`, if any. Returns the former
    /// partner.
    pub fn remove2(&mut self, y: NodeId) -> Option<NodeId> {
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

    #[test]
    fn out_of_range_lookups_are_none() {
        let m = Matching::new();
        assert_eq!(m.partner1(n(999)), None);
        assert_eq!(m.partner2(n(999)), None);
    }
}
