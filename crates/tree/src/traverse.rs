//! Tree traversals.
//!
//! Algorithm *EditScript* (Figure 8) needs a breadth-first traversal of `T2`
//! and a post-order traversal of `T1`; Algorithm *FastMatch* (Figure 11)
//! needs per-label chains in in-order (left-to-right pre-order) position.
//! All traversals here yield [`NodeId`]s eagerly-computable without
//! allocation beyond an internal worklist.

use std::collections::VecDeque;

use crate::tree::{at, n32, NodeId, Tree};
use crate::value::NodeValue;

/// Breadth-first traversal starting at `start` (inclusive): parents before
/// children, siblings left-to-right.
pub fn bfs_of<V: NodeValue>(tree: &Tree<V>, start: NodeId) -> Bfs<'_, V> {
    let mut queue = VecDeque::new();
    queue.push_back(start);
    Bfs { tree, queue }
}

/// Pre-order (document-order / "in-order position" of the paper) traversal of
/// the subtree rooted at `start`.
///
/// On a [compact](Tree::is_compact) tree ids are preorder ranks and the
/// subtree is the contiguous index range `[start, start + size)`, so the
/// traversal degenerates to counting — a linear scan with no stack.
pub fn preorder_of<V: NodeValue>(tree: &Tree<V>, start: NodeId) -> Preorder<'_, V> {
    let mode = match tree.subtree_range(start) {
        Some(range) => Mode::Scan {
            next: n32(range.start),
            end: n32(range.end),
        },
        None => Mode::Stack(vec![start]),
    };
    Preorder { tree, mode }
}

/// Pre-order traversal of the subtree rooted at `start` that does not
/// descend below a node for which `stop` returns `true`: that node is
/// yielded, its descendants are not. `stop` is asked once per yielded node.
///
/// On a [compact](Tree::is_compact) tree a stopped node's subtree is jumped
/// over with its skip offset, so the walk costs the nodes it yields, not
/// the nodes it passes.
pub fn preorder_pruned_of<V: NodeValue, F: FnMut(NodeId) -> bool>(
    tree: &Tree<V>,
    start: NodeId,
    stop: F,
) -> PrunedPreorder<'_, V, F> {
    let mode = match (tree.subtree_range(start), tree.skip_offsets()) {
        (Some(range), Some(skips)) => PrunedMode::Scan {
            next: n32(range.start),
            end: n32(range.end),
            skips,
        },
        _ => PrunedMode::Stack(vec![start]),
    };
    PrunedPreorder { tree, mode, stop }
}

/// Post-order traversal of the subtree rooted at `start`: children before
/// parents, as required by the delete phase of Algorithm *EditScript*
/// ("descendents will be deleted before their ancestors", Section 4.1).
pub fn postorder_of<V: NodeValue>(tree: &Tree<V>, start: NodeId) -> Postorder<'_, V> {
    Postorder {
        tree,
        stack: vec![(start, false)],
    }
}

/// Iterator over ancestors of `id`, starting at its parent and ending at the
/// root.
pub fn ancestors_of<V: NodeValue>(tree: &Tree<V>, id: NodeId) -> Ancestors<'_, V> {
    Ancestors {
        tree,
        cur: tree.parent(id),
    }
}

/// See [`bfs_of`].
pub struct Bfs<'t, V> {
    tree: &'t Tree<V>,
    queue: VecDeque<NodeId>,
}

impl<V: NodeValue> Iterator for Bfs<'_, V> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let id = self.queue.pop_front()?;
        self.queue.extend(self.tree.children(id).iter().copied());
        Some(id)
    }
}

enum Mode {
    /// Compact layout: preorder is the index range `[next, end)`.
    Scan { next: u32, end: u32 },
    /// General (dirty) layout: explicit DFS worklist.
    Stack(Vec<NodeId>),
}

/// See [`preorder_of`].
pub struct Preorder<'t, V> {
    tree: &'t Tree<V>,
    mode: Mode,
}

impl<V: NodeValue> Iterator for Preorder<'_, V> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        match &mut self.mode {
            Mode::Scan { next, end } => {
                if next == end {
                    return None;
                }
                let id = NodeId(*next);
                *next += 1;
                Some(id)
            }
            Mode::Stack(stack) => {
                let id = stack.pop()?;
                // Push children reversed so the leftmost child pops first.
                stack.extend(self.tree.children(id).iter().rev().copied());
                Some(id)
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.mode {
            Mode::Scan { next, end } => {
                let n = (end - next) as usize;
                (n, Some(n))
            }
            Mode::Stack(stack) => (stack.len(), None),
        }
    }
}

enum PrunedMode<'t> {
    /// Compact layout: `[next, end)`, jumping stopped subtrees by `skips`.
    Scan {
        next: u32,
        end: u32,
        skips: &'t [u32],
    },
    /// General (dirty) layout: explicit DFS worklist.
    Stack(Vec<NodeId>),
}

/// See [`preorder_pruned_of`].
pub struct PrunedPreorder<'t, V, F> {
    tree: &'t Tree<V>,
    mode: PrunedMode<'t>,
    stop: F,
}

impl<V: NodeValue, F: FnMut(NodeId) -> bool> Iterator for PrunedPreorder<'_, V, F> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        match &mut self.mode {
            PrunedMode::Scan { next, end, skips } => {
                if *next >= *end {
                    return None;
                }
                let id = NodeId(*next);
                *next = if (self.stop)(id) {
                    at(skips, id.index())
                } else {
                    *next + 1
                };
                Some(id)
            }
            PrunedMode::Stack(stack) => {
                let id = stack.pop()?;
                if !(self.stop)(id) {
                    stack.extend(self.tree.children(id).iter().rev().copied());
                }
                Some(id)
            }
        }
    }
}

/// See [`postorder_of`].
pub struct Postorder<'t, V> {
    tree: &'t Tree<V>,
    stack: Vec<(NodeId, bool)>,
}

impl<V: NodeValue> Iterator for Postorder<'_, V> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        loop {
            let (id, expanded) = self.stack.pop()?;
            if expanded {
                return Some(id);
            }
            self.stack.push((id, true));
            self.stack
                .extend(self.tree.children(id).iter().rev().map(|&c| (c, false)));
        }
    }
}

/// See [`ancestors_of`].
pub struct Ancestors<'t, V> {
    tree: &'t Tree<V>,
    cur: Option<NodeId>,
}

impl<V: NodeValue> Iterator for Ancestors<'_, V> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let id = self.cur?;
        self.cur = self.tree.parent(id);
        Some(id)
    }
}

impl<V: NodeValue> Tree<V> {
    /// Breadth-first traversal of the whole tree.
    pub fn bfs(&self) -> Bfs<'_, V> {
        bfs_of(self, self.root())
    }

    /// Pre-order traversal of the whole tree.
    pub fn preorder(&self) -> Preorder<'_, V> {
        preorder_of(self, self.root())
    }

    /// Post-order traversal of the whole tree.
    pub fn postorder(&self) -> Postorder<'_, V> {
        postorder_of(self, self.root())
    }

    /// All leaves in document order.
    pub fn leaves(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.preorder().filter(move |&id| self.is_leaf(id))
    }

    /// All internal (non-leaf) nodes in document order.
    pub fn internal_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.preorder().filter(move |&id| !self.is_leaf(id))
    }

    /// Ancestors of `id`, nearest first (excludes `id` itself).
    pub fn ancestors(&self, id: NodeId) -> Ancestors<'_, V> {
        ancestors_of(self, id)
    }

    /// Descendants of `id` in pre-order, excluding `id` itself.
    pub fn descendants(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        preorder_of(self, id).skip(1)
    }
}

#[cfg(test)]
mod tests {
    use crate::{Label, NodeValue, Tree};

    /// 1(D) -> 2(P)[5(S),6(S)], 3(P)[7(S)], 4(S)
    fn sample() -> (Tree<String>, Vec<crate::NodeId>) {
        let l = Label::intern;
        let mut t = Tree::new(l("D"), String::null());
        let n1 = t.root();
        let n2 = t.push_child(n1, l("P"), String::null());
        let n3 = t.push_child(n1, l("P"), String::null());
        let n4 = t.push_child(n1, l("S"), "d".into());
        let n5 = t.push_child(n2, l("S"), "a".into());
        let n6 = t.push_child(n2, l("S"), "b".into());
        let n7 = t.push_child(n3, l("S"), "c".into());
        (t, vec![n1, n2, n3, n4, n5, n6, n7])
    }

    #[test]
    fn bfs_is_level_order() {
        let (t, n) = sample();
        let order: Vec<_> = t.bfs().collect();
        assert_eq!(order, vec![n[0], n[1], n[2], n[3], n[4], n[5], n[6]]);
    }

    #[test]
    fn preorder_is_document_order() {
        let (t, n) = sample();
        let order: Vec<_> = t.preorder().collect();
        assert_eq!(order, vec![n[0], n[1], n[4], n[5], n[2], n[6], n[3]]);
    }

    #[test]
    fn postorder_children_before_parents() {
        let (t, n) = sample();
        let order: Vec<_> = t.postorder().collect();
        assert_eq!(order, vec![n[4], n[5], n[1], n[6], n[2], n[3], n[0]]);
        // Invariant check: every node appears after all of its children.
        let pos = |id: crate::NodeId| order.iter().position(|&x| x == id).unwrap();
        for &id in &order {
            for &c in t.children(id) {
                assert!(pos(c) < pos(id));
            }
        }
    }

    #[test]
    fn pruned_preorder_skips_stopped_subtrees_on_both_layouts() {
        // The sample is built by appends, so it is dirty; its compacted
        // copy takes the skip-offset path.
        let (dirty, n) = sample();
        assert!(!dirty.is_compact());
        let expected = vec![n[0], n[1], n[2], n[6], n[3]];
        let walk = super::preorder_pruned_of(&dirty, dirty.root(), |id| id == n[1]);
        assert_eq!(walk.collect::<Vec<_>>(), expected);

        let mut compact = dirty.clone();
        let remap = compact.compact();
        assert!(compact.is_compact());
        let (p, q) = (remap[n[1].index()].unwrap(), remap[n[2].index()].unwrap());
        let walk: Vec<_> =
            super::preorder_pruned_of(&compact, compact.root(), |id| id == p || id == q).collect();
        let full: Vec<_> = compact.preorder().collect();
        let kept: Vec<_> = full
            .into_iter()
            .filter(|&id| !compact.ancestors(id).any(|a| a == p || a == q))
            .collect();
        assert_eq!(walk, kept);
        // A stopped start yields itself only.
        assert_eq!(super::preorder_pruned_of(&compact, p, |_| true).count(), 1);
    }

    #[test]
    fn leaves_in_document_order() {
        let (t, n) = sample();
        let leaves: Vec<_> = t.leaves().collect();
        assert_eq!(leaves, vec![n[4], n[5], n[6], n[3]]);
    }

    #[test]
    fn internal_nodes_in_document_order() {
        let (t, n) = sample();
        let internal: Vec<_> = t.internal_nodes().collect();
        assert_eq!(internal, vec![n[0], n[1], n[2]]);
    }

    #[test]
    fn ancestors_nearest_first() {
        let (t, n) = sample();
        let anc: Vec<_> = t.ancestors(n[4]).collect();
        assert_eq!(anc, vec![n[1], n[0]]);
        assert_eq!(t.ancestors(n[0]).count(), 0);
    }

    #[test]
    fn descendants_exclude_self() {
        let (t, n) = sample();
        let d: Vec<_> = t.descendants(n[1]).collect();
        assert_eq!(d, vec![n[4], n[5]]);
        assert_eq!(t.descendants(n[3]).count(), 0);
    }

    #[test]
    fn subtree_traversals() {
        let (t, n) = sample();
        let sub: Vec<_> = crate::traverse::preorder_of(&t, n[1]).collect();
        assert_eq!(sub, vec![n[1], n[4], n[5]]);
        let sub: Vec<_> = crate::traverse::postorder_of(&t, n[1]).collect();
        assert_eq!(sub, vec![n[4], n[5], n[1]]);
        let sub: Vec<_> = crate::traverse::bfs_of(&t, n[1]).collect();
        assert_eq!(sub, vec![n[1], n[4], n[5]]);
    }

    #[test]
    fn compact_scan_matches_stack_walk() {
        // Same shape as `sample()` but parsed, hence compact: preorder takes
        // the linear-scan path and must agree with the general DFS.
        let t = Tree::parse_sexpr(r#"(D (P (S "a") (S "b")) (P (S "c")) (S "d"))"#).unwrap();
        assert!(t.is_compact());
        let scan: Vec<_> = t.preorder().collect();
        let ids: Vec<_> = (0..t.len()).map(crate::NodeId::from_index).collect();
        assert_eq!(scan, ids);
        let p2 = t.children(t.root())[1];
        let sub: Vec<_> = crate::traverse::preorder_of(&t, p2).collect();
        assert_eq!(sub.len(), t.subtree_size(p2));
        assert_eq!(sub[0], p2);
        // Descendants ride the same fast path.
        let d: Vec<_> = t.descendants(p2).collect();
        assert_eq!(d, sub[1..]);
    }

    #[test]
    fn single_node_traversals() {
        let t: Tree<String> = Tree::new(Label::intern("D"), String::null());
        assert_eq!(t.bfs().count(), 1);
        assert_eq!(t.preorder().count(), 1);
        assert_eq!(t.postorder().count(), 1);
        assert_eq!(t.leaves().count(), 1);
        assert_eq!(t.internal_nodes().count(), 0);
    }
}
