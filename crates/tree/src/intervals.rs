//! Pre-order interval numbering for O(1) ancestor ("contains") tests.
//!
//! Matching Criterion 2 (Section 5.1) requires computing
//! `common(x, y) = {(w, z) ∈ M | x contains w and y contains z}` where
//! *contains* means "is a leaf descendant of". Evaluating containment by
//! walking parent pointers costs O(depth) per test; with interval numbering
//! it is two integer comparisons. Appendix B charges `min(|x|, |y|)` per
//! internal-node comparison — interval numbering is what makes each of those
//! charged units O(1).

use crate::tree::{at, at_mut, n32, NodeId, Tree};
use crate::value::NodeValue;

/// Pre-order entry/exit intervals for a frozen snapshot of a tree.
///
/// Build with [`Intervals::new`]; invalidated by any structural change to the
/// tree (the matching algorithms only read the trees, so one snapshot per
/// tree suffices). On a [compact](Tree::is_compact) tree the snapshot
/// borrows the tree's own skip offsets and costs nothing to build.
#[derive(Clone, Debug)]
pub struct Intervals<'t> {
    repr: Repr<'t>,
}

#[derive(Clone, Debug)]
enum Repr<'t> {
    /// Ids are preorder ranks, and the exit clock of `i` is one past its
    /// contiguous subtree: the tree's recorded skip offset.
    Compact(&'t [u32]),
    /// Entry and exit clocks of an explicit pre/post numbering.
    Numbered { enter: Vec<u32>, exit: Vec<u32> },
}

impl<'t> Intervals<'t> {
    /// Numbers every live node of `tree` in pre-order.
    pub fn new<V: NodeValue>(tree: &'t Tree<V>) -> Intervals<'t> {
        if let Some(skips) = tree.skip_offsets() {
            return Intervals {
                repr: Repr::Compact(skips),
            };
        }
        let mut enter = vec![u32::MAX; tree.arena_len()];
        let mut exit = vec![0u32; tree.arena_len()];
        let mut clock = 0u32;
        // Iterative pre/post numbering.
        let mut stack = vec![(tree.root(), false)];
        while let Some((id, done)) = stack.pop() {
            if done {
                *at_mut(&mut exit, id.index()) = clock;
                continue;
            }
            *at_mut(&mut enter, id.index()) = clock;
            clock += 1;
            stack.push((id, true));
            for &c in tree.children(id).iter().rev() {
                stack.push((c, false));
            }
        }
        Intervals {
            repr: Repr::Numbered { enter, exit },
        }
    }

    /// Whether `ancestor` is a (non-strict) ancestor of `node` in the
    /// snapshot. O(1).
    pub fn is_ancestor(&self, ancestor: NodeId, node: NodeId) -> bool {
        let a = ancestor.index();
        let n = node.index();
        match &self.repr {
            Repr::Compact(skips) => a <= n && n < at(skips, a) as usize,
            Repr::Numbered { enter, exit } => {
                at(enter, a) <= at(enter, n) && at(enter, n) < at(exit, a)
            }
        }
    }

    /// Pre-order rank of `node` (0-based). Nodes earlier in document order
    /// have smaller ranks.
    pub fn preorder_rank(&self, node: NodeId) -> u32 {
        match &self.repr {
            Repr::Compact(_) => n32(node.index()),
            Repr::Numbered { enter, .. } => at(enter, node.index()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Label, NodeValue};

    fn sample() -> (Tree<String>, Vec<NodeId>) {
        let l = Label::intern;
        let mut t = Tree::new(l("D"), String::null());
        let n1 = t.root();
        let n2 = t.push_child(n1, l("P"), String::null());
        let n3 = t.push_child(n1, l("P"), String::null());
        let n4 = t.push_child(n2, l("S"), "a".into());
        let n5 = t.push_child(n2, l("S"), "b".into());
        let n6 = t.push_child(n3, l("S"), "c".into());
        (t, vec![n1, n2, n3, n4, n5, n6])
    }

    #[test]
    fn matches_pointer_walk_on_sample() {
        let (t, n) = sample();
        let iv = Intervals::new(&t);
        for &a in &n {
            for &b in &n {
                assert_eq!(
                    iv.is_ancestor(a, b),
                    t.is_ancestor(a, b),
                    "disagree on ({a}, {b})"
                );
            }
        }
    }

    #[test]
    fn self_is_ancestor() {
        let (t, n) = sample();
        let iv = Intervals::new(&t);
        for &a in &n {
            assert!(iv.is_ancestor(a, a));
        }
        drop(t);
    }

    #[test]
    fn ranks_follow_document_order() {
        let (t, _) = sample();
        let iv = Intervals::new(&t);
        let pre: Vec<_> = t.preorder().collect();
        for w in pre.windows(2) {
            assert!(iv.preorder_rank(w[0]) < iv.preorder_rank(w[1]));
        }
    }

    #[test]
    fn compact_fast_path_matches_general_numbering() {
        let t = Tree::parse_sexpr(r#"(D (P (S "a") (S "b")) (P (S "c")) (S "d"))"#).unwrap();
        assert!(t.is_compact());
        let iv = Intervals::new(&t);
        let ids: Vec<_> = t.preorder().collect();
        for &a in &ids {
            for &b in &ids {
                assert_eq!(iv.is_ancestor(a, b), t.is_ancestor(a, b));
            }
            assert_eq!(iv.preorder_rank(a) as usize, a.index());
        }
    }

    #[test]
    fn random_trees_agree_with_pointer_walk() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..20 {
            let mut t: Tree<String> = Tree::new(Label::intern("R"), String::null());
            let mut ids = vec![t.root()];
            for i in 0..60 {
                let parent = ids[rng.gen_range(0..ids.len())];
                let pos = rng.gen_range(0..=t.arity(parent));
                let id = t
                    .insert(parent, pos, Label::intern("X"), format!("v{i}"))
                    .unwrap();
                ids.push(id);
            }
            let iv = Intervals::new(&t);
            for _ in 0..200 {
                let a = ids[rng.gen_range(0..ids.len())];
                let b = ids[rng.gen_range(0..ids.len())];
                assert_eq!(iv.is_ancestor(a, b), t.is_ancestor(a, b));
            }
        }
    }
}
