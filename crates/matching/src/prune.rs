//! Identical-subtree pruning — the pre-pass that wholesale-matches maximal
//! unchanged fragments before Criteria 1–3 run.
//!
//! The introduction promises to "quickly match fragments that have not
//! changed"; this module realizes that promise with the
//! [`FingerprintIndex`]: subtree fingerprints locate candidate identical
//! subtrees in O(N), a tallest-first scan keeps only *maximal* ones, and a
//! real isomorphism check confirms every candidate so hash collisions can
//! never corrupt the matching (they are merely counted). The check and the
//! node-for-node pairing are [`Matching::insert_identical_subtrees`], which
//! also records each accepted pair's roots in the matching, so every later
//! stage knows which subtrees are verified identical. Uniqueness is
//! required on **both** sides before a candidate is accepted, which keeps
//! the pre-pass consistent with Criterion 3's discipline: an ambiguous
//! fragment (duplicated on either side) is left for the regular algorithms
//! to resolve with full context.
//!
//! The output seeds [`fast_match_seeded`](crate::fast_match_seeded) (see
//! [`fast_match_accelerated`](crate::fast_match_accelerated)): seeded pairs
//! are final and visible to Criterion 2, so every comparison inside an
//! unchanged region is skipped while `common`-ratios still see its leaves.

use hierdiff_edit::Matching;
use hierdiff_tree::{FingerprintIndex, NodeValue, Tree};

use crate::error::MatchError;

/// What the pruning pre-pass did, for instrumentation
/// ([`MatchCounters::absorb_prune`](crate::MatchCounters::absorb_prune)).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PruneStats {
    /// Nodes matched wholesale (across all pruned subtrees).
    pub nodes_pruned: usize,
    /// Maximal identical subtrees matched.
    pub subtrees_pruned: usize,
    /// Candidate pairs examined (hash-unique on both sides) — each cost one
    /// isomorphism verification.
    pub candidates: usize,
    /// Candidates rejected by verification: a genuine hash collision.
    pub collisions: usize,
}

/// Matches maximal identical subtrees between `t1` and `t2` by fingerprint,
/// returning the seed matching and what it cost.
///
/// A subtree qualifies when its fingerprint occurs exactly once in each
/// tree and isomorphism verification confirms the pair. Scanning `t1`'s
/// nodes tallest-first makes accepted subtrees maximal: once a subtree is
/// matched, its whole interior is paired node-by-node and skipped.
pub fn prune_identical<V: NodeValue>(
    t1: &Tree<V>,
    t2: &Tree<V>,
) -> Result<(Matching, PruneStats), MatchError> {
    let idx1 = FingerprintIndex::build(t1);
    let idx2 = FingerprintIndex::build(t2);
    prune_identical_indexed(t1, &idx1, t2, &idx2)
}

/// [`prune_identical`] over pre-built indexes, for callers that already
/// maintain a [`FingerprintIndex`] (e.g. one old tree diffed against many
/// new versions).
pub fn prune_identical_indexed<V: NodeValue>(
    t1: &Tree<V>,
    idx1: &FingerprintIndex,
    t2: &Tree<V>,
    idx2: &FingerprintIndex,
) -> Result<(Matching, PruneStats), MatchError> {
    let mut m = Matching::with_capacity(t1.arena_len(), t2.arena_len());
    let mut stats = PruneStats::default();
    for &x in idx1.tallest_first() {
        // analyze: allow(S031) single pass over the fingerprint index
        if m.is_matched1(x) {
            continue; // interior of an already-pruned subtree
        }
        let hash = idx1.hash(x);
        if idx1.multiplicity(hash) != 1 {
            continue; // ambiguous on the old side
        }
        let Some(y) = idx2.unique(hash) else {
            continue; // absent or ambiguous on the new side
        };
        if m.is_matched2(y) {
            continue; // defensive: a collision already claimed y
        }
        stats.candidates += 1;
        // Verifies labels, values and shape, then pairs the subtrees node
        // for node and records `(x, y)` for the later stages.
        let before = m.len();
        let identical = m
            .insert_identical_subtrees(t1, x, t2, y)
            .map_err(|_| MatchError::Internal("pruned subtree pair already matched"))?;
        if !identical {
            stats.collisions += 1;
            continue;
        }
        stats.subtrees_pruned += 1;
        stats.nodes_pruned += m.len() - before;
    }
    Ok((m, stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(s: &str) -> Tree<String> {
        Tree::parse_sexpr(s).unwrap()
    }

    #[test]
    fn identical_trees_prune_to_one_subtree() {
        let t1 = doc(r#"(D (P (S "a") (S "b")) (P (S "c")))"#);
        let t2 = t1.clone();
        let (m, stats) = prune_identical(&t1, &t2).unwrap();
        assert_eq!(m.len(), t1.len());
        assert_eq!(stats.subtrees_pruned, 1, "one maximal subtree: the root");
        assert_eq!(stats.nodes_pruned, t1.len());
        assert_eq!(stats.candidates, 1);
        assert_eq!(stats.collisions, 0);
        assert_eq!(m.identical_roots(), &[(t1.root(), t2.root())]);
    }

    #[test]
    fn maximality_prunes_ancestors_not_descendants() {
        // The first paragraph is unchanged; it must be pruned as ONE
        // subtree, not as three separate nodes.
        let t1 = doc(r#"(D (P (S "a") (S "b")) (S "old"))"#);
        let t2 = doc(r#"(D (P (S "a") (S "b")) (S "new"))"#);
        let (m, stats) = prune_identical(&t1, &t2).unwrap();
        let p = t1.children(t1.root())[0];
        assert!(m.is_matched1(p));
        assert_eq!(stats.subtrees_pruned, 1);
        assert_eq!(stats.nodes_pruned, 3);
        assert!(!m.is_matched1(t1.root()), "root differs");
        let q = t2.children(t2.root())[0];
        assert_eq!(
            m.identical_roots(),
            &[(p, q)],
            "one record per maximal subtree"
        );
    }

    #[test]
    fn duplicates_on_either_side_are_left_alone() {
        // "dup" is duplicated in t1 only; "twin" in t2 only; both must be
        // skipped. The unique anchor still prunes.
        let t1 = doc(r#"(D (S "dup") (S "dup") (S "twin") (S "anchor") (S "x"))"#);
        let t2 = doc(r#"(D (S "dup") (S "twin") (S "twin") (S "anchor") (S "y"))"#);
        let (m, stats) = prune_identical(&t1, &t2).unwrap();
        let kids1 = t1.children(t1.root());
        assert!(!m.is_matched1(kids1[0]), "dup ambiguous in t1");
        assert!(!m.is_matched1(kids1[1]), "dup ambiguous in t1");
        assert!(!m.is_matched1(kids1[2]), "twin ambiguous in t2");
        assert!(m.is_matched1(kids1[3]), "anchor unique both sides");
        assert_eq!(stats.subtrees_pruned, 1);
    }

    #[test]
    fn pruned_pairs_are_isomorphic_and_consistent() {
        let t1 = doc(r#"(D (Sec (P (S "k") (S "l"))) (Sec (P (S "m"))) (S "q"))"#);
        let t2 = doc(r#"(D (Sec (P (S "m"))) (Sec (P (S "k") (S "l"))) (S "r"))"#);
        let (m, stats) = prune_identical(&t1, &t2).unwrap();
        assert!(stats.nodes_pruned >= 7, "both sections pruned despite move");
        for (a, b) in m.iter() {
            assert_eq!(t1.label(a), t2.label(b));
            assert_eq!(t1.value(a), t2.value(b));
        }
    }

    #[test]
    fn indexed_variant_reuses_indexes() {
        let t1 = doc(r#"(D (P (S "a")))"#);
        let t2a = doc(r#"(D (P (S "a")) (S "new"))"#);
        let t2b = doc(r#"(D (P (S "a")) (S "other"))"#);
        let idx1 = hierdiff_tree::FingerprintIndex::build(&t1);
        for t2 in [&t2a, &t2b] {
            let idx2 = hierdiff_tree::FingerprintIndex::build(t2);
            let (m, _) = prune_identical_indexed(&t1, &idx1, t2, &idx2).unwrap();
            let p = t1.children(t1.root())[0];
            assert!(m.is_matched1(p));
        }
    }

    #[test]
    fn empty_stats_on_disjoint_trees() {
        let t1 = doc(r#"(D (S "a"))"#);
        let t2 = doc(r#"(E (S "b"))"#);
        let (m, stats) = prune_identical(&t1, &t2).unwrap();
        assert_eq!(m.len(), 0);
        assert_eq!(stats, PruneStats::default());
    }

    #[test]
    fn identical_trees_prematch_entirely() {
        let t1 = doc(r#"(D (P (S "a") (S "b")) (P (S "c")))"#);
        let t2 = t1.clone();
        let seed = prune_identical(&t1, &t2).unwrap().0;
        assert_eq!(seed.len(), t1.len(), "whole tree pre-matched");
    }

    #[test]
    fn changed_regions_left_unmatched() {
        let t1 = doc(r#"(D (P (S "a") (S "b")) (P (S "old")))"#);
        let t2 = doc(r#"(D (P (S "a") (S "b")) (P (S "new")))"#);
        let seed = prune_identical(&t1, &t2).unwrap().0;
        // The (a b) paragraph subtree pre-matches (3 nodes); the root and
        // the changed paragraph do not.
        let p1 = t1.children(t1.root())[0];
        assert!(seed.is_matched1(p1));
        assert!(seed.is_matched1(t1.children(p1)[0]));
        assert!(!seed.is_matched1(t1.root()));
        let changed = t1.children(t1.root())[1];
        assert!(!seed.is_matched1(changed));
    }

    #[test]
    fn duplicates_are_skipped() {
        // Two identical paragraphs on each side: ambiguous, so the pre-pass
        // must not touch them (Criterion 3 discipline). A changed sentence
        // keeps the roots from wholesale-matching.
        let t1 = doc(r#"(D (P (S "dup")) (P (S "dup")) (S "anchor") (S "old"))"#);
        let t2 = doc(r#"(D (P (S "dup")) (P (S "dup")) (S "anchor") (S "new"))"#);
        let seed = prune_identical(&t1, &t2).unwrap().0;
        let p1 = t1.children(t1.root())[0];
        assert!(!seed.is_matched1(p1), "ambiguous subtree pre-matched");
        // The unique anchor does pre-match.
        let anchor = t1.children(t1.root())[2];
        assert!(seed.is_matched1(anchor));
    }

    #[test]
    fn nested_unique_subtrees_not_double_matched() {
        // The whole document is unique-identical: only one wholesale match
        // should happen (at the root), covering everything exactly once.
        let t1 = doc(r#"(D (P (S "x") (S "y")) (Q (S "z")))"#);
        let t2 = t1.clone();
        let seed = prune_identical(&t1, &t2).unwrap().0;
        assert_eq!(seed.len(), t1.len());
        for (a, b) in seed.iter() {
            assert_eq!(t1.label(a), t2.label(b));
        }
    }
}
