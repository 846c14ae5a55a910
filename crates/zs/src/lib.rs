//! # hierdiff-zs
//!
//! The **Zhang–Shasha** ordered-tree edit distance \[ZS89\] — the
//! general-purpose algorithm the paper positions itself against
//! (Section 2): it "always finds the most 'compact' deltas, but is
//! expensive to run ... at least quadratic in the number of objects".
//!
//! We implement the classic keyroot dynamic program:
//!
//! * [`tree_distance`] — the minimum-cost edit distance under *insert*,
//!   *delete*, and *relabel* (ZS's operation set; note its delete promotes
//!   the deleted node's children, unlike the paper's leaf-delete).
//! * [`tree_mapping`] — the optimal edit *mapping* (the set of preserved
//!   node pairs), extracted by backtracking. Feeding this mapping to
//!   `hierdiff_edit::edit_script` realizes the `[Zha95]` "best matching by
//!   post-processing ZS" approach the paper cites, and serves as the
//!   small-tree optimality oracle in the benchmarks.
//!
//! Complexity: `O(n1·n2·min(depth,leaves)²)` time — `O(n² log² n)` for
//! balanced trees, exactly the bound quoted in Section 2.

#![warn(missing_docs)]

use hierdiff_edit::Matching;
use hierdiff_tree::{NodeId, NodeValue, Tree};

/// Edit-operation costs for the ZS algorithm.
pub trait ZsCostModel<V> {
    /// Cost of deleting a node (ZS delete: children are promoted).
    fn delete(&self, label: hierdiff_tree::Label, value: &V) -> f64;
    /// Cost of inserting a node.
    fn insert(&self, label: hierdiff_tree::Label, value: &V) -> f64;
    /// Cost of relabeling node `(l1, v1)` to `(l2, v2)`.
    fn relabel(&self, l1: hierdiff_tree::Label, v1: &V, l2: hierdiff_tree::Label, v2: &V) -> f64;
}

/// Unit costs: delete = insert = 1, relabel = 0 when label and value are
/// equal, else 1.
#[derive(Clone, Copy, Debug, Default)]
pub struct UnitCost;

impl<V: NodeValue> ZsCostModel<V> for UnitCost {
    fn delete(&self, _l: hierdiff_tree::Label, _v: &V) -> f64 {
        1.0
    }

    fn insert(&self, _l: hierdiff_tree::Label, _v: &V) -> f64 {
        1.0
    }

    fn relabel(&self, l1: hierdiff_tree::Label, v1: &V, l2: hierdiff_tree::Label, v2: &V) -> f64 {
        if l1 == l2 && v1 == v2 {
            0.0
        } else {
            1.0
        }
    }
}

/// Compare-based costs aligned with the paper's cost model (Section 3.2):
/// delete = insert = 1; relabel uses `NodeValue::compare` when the labels
/// agree (so a cheap update beats delete + insert exactly when
/// `compare < 2`) and is prohibitively expensive (`> delete + insert`)
/// across labels, matching the paper's labels-never-change semantics.
#[derive(Clone, Copy, Debug, Default)]
pub struct CompareCost;

impl<V: NodeValue> ZsCostModel<V> for CompareCost {
    fn delete(&self, _l: hierdiff_tree::Label, _v: &V) -> f64 {
        1.0
    }

    fn insert(&self, _l: hierdiff_tree::Label, _v: &V) -> f64 {
        1.0
    }

    fn relabel(&self, l1: hierdiff_tree::Label, v1: &V, l2: hierdiff_tree::Label, v2: &V) -> f64 {
        if l1 == l2 {
            v1.compare(v2)
        } else {
            3.0
        }
    }
}

/// Postorder view of a tree with the ZS auxiliary arrays.
struct ZsView {
    /// `post[i]` = node at postorder position `i` (0-based).
    post: Vec<NodeId>,
    /// `lml[i]` = postorder index of the leftmost leaf descendant of
    /// `post[i]`.
    lml: Vec<usize>,
    /// LR-keyroots in increasing postorder index.
    keyroots: Vec<usize>,
}

#[expect(
    clippy::indexing_slicing,
    reason = "`index` is sized to `arena_len()`; `lml` to the postorder"
)]
fn view<V: NodeValue>(tree: &Tree<V>) -> ZsView {
    let post: Vec<NodeId> = tree.postorder().collect();
    let mut index = vec![usize::MAX; tree.arena_len()];
    for (i, &n) in post.iter().enumerate() {
        index[n.index()] = i;
    }
    let mut lml = vec![0usize; post.len()];
    for (i, &n) in post.iter().enumerate() {
        let mut cur = n;
        while let Some(&first) = tree.children(cur).first() {
            cur = first;
        }
        lml[i] = index[cur.index()];
    }
    // Keyroots: nodes that are roots or have a left sibling; equivalently,
    // for each distinct lml value, the highest postorder index with it.
    let mut last_with_lml: std::collections::HashMap<usize, usize> =
        std::collections::HashMap::new();
    for (i, &l) in lml.iter().enumerate() {
        last_with_lml.insert(l, i);
    }
    let mut keyroots: Vec<usize> = last_with_lml.into_values().collect();
    keyroots.sort_unstable();
    ZsView {
        post,
        lml,
        keyroots,
    }
}

/// Computes the ZS edit distance between `t1` and `t2` under `costs`.
pub fn tree_distance<V: NodeValue>(t1: &Tree<V>, t2: &Tree<V>, costs: &impl ZsCostModel<V>) -> f64 {
    Zs::new(t1, t2, costs).distance()
}

/// Computes the optimal ZS edit *mapping*: pairs `(x ∈ T1, y ∈ T2)` of
/// nodes preserved (possibly relabeled) by a minimum-cost edit script. The
/// mapping is one-to-one and preserves ancestor and sibling order.
pub fn tree_mapping<V: NodeValue>(
    t1: &Tree<V>,
    t2: &Tree<V>,
    costs: &impl ZsCostModel<V>,
) -> Matching {
    let mut zs = Zs::new(t1, t2, costs);
    zs.distance();
    zs.mapping()
}

struct Zs<'t, V: NodeValue, C: ZsCostModel<V>> {
    t1: &'t Tree<V>,
    t2: &'t Tree<V>,
    v1: ZsView,
    v2: ZsView,
    costs: &'t C,
    /// `td[i][j]` = tree distance between subtrees rooted at postorder `i`
    /// of `T1` and `j` of `T2`.
    td: Vec<Vec<f64>>,
}

#[expect(
    clippy::indexing_slicing,
    reason = "the ZS DP: postorder indices below each tree's size, forest offsets inside `fd`"
)]
impl<'t, V: NodeValue, C: ZsCostModel<V>> Zs<'t, V, C> {
    fn new(t1: &'t Tree<V>, t2: &'t Tree<V>, costs: &'t C) -> Self {
        let v1 = view(t1);
        let v2 = view(t2);
        let td = vec![vec![0.0; v2.post.len()]; v1.post.len()];
        Zs {
            t1,
            t2,
            v1,
            v2,
            costs,
            td,
        }
    }

    fn del_cost(&self, i: usize) -> f64 {
        let n = self.v1.post[i];
        self.costs.delete(self.t1.label(n), self.t1.value(n))
    }

    fn ins_cost(&self, j: usize) -> f64 {
        let n = self.v2.post[j];
        self.costs.insert(self.t2.label(n), self.t2.value(n))
    }

    fn rel_cost(&self, i: usize, j: usize) -> f64 {
        let a = self.v1.post[i];
        let b = self.v2.post[j];
        self.costs.relabel(
            self.t1.label(a),
            self.t1.value(a),
            self.t2.label(b),
            self.t2.value(b),
        )
    }

    fn distance(&mut self) -> f64 {
        let keyroots1 = self.v1.keyroots.clone();
        let keyroots2 = self.v2.keyroots.clone();
        for &k1 in &keyroots1 {
            for &k2 in &keyroots2 {
                self.forest_dist(k1, k2, None);
            }
        }
        self.td[self.v1.post.len() - 1][self.v2.post.len() - 1]
    }

    /// The forest-distance DP for keyroot pair `(k1, k2)`, filling `td` for
    /// every subtree pair whose roots share these keyroots' leftmost
    /// leaves. Optionally captures the full `fd` matrix for backtracking.
    fn forest_dist(&mut self, k1: usize, k2: usize, capture: Option<&mut Vec<Vec<f64>>>) {
        let l1 = self.v1.lml[k1];
        let l2 = self.v2.lml[k2];
        let m = k1 - l1 + 2; // forest sizes + 1 (row/col 0 = empty forest)
        let n = k2 - l2 + 2;
        let mut fd = vec![vec![0.0f64; n]; m];
        for di in 1..m {
            let v = fd[di - 1][0] + self.del_cost(l1 + di - 1);
            fd[di][0] = v;
        }
        for dj in 1..n {
            let v = fd[0][dj - 1] + self.ins_cost(l2 + dj - 1);
            fd[0][dj] = v;
        }
        for di in 1..m {
            let i = l1 + di - 1;
            for dj in 1..n {
                let j = l2 + dj - 1;
                let del = fd[di - 1][dj] + self.del_cost(i);
                let ins = fd[di][dj - 1] + self.ins_cost(j);
                if self.v1.lml[i] == l1 && self.v2.lml[j] == l2 {
                    // Both forests are whole subtrees: the relabel case
                    // closes a tree pair.
                    let rel = fd[di - 1][dj - 1] + self.rel_cost(i, j);
                    let best = del.min(ins).min(rel);
                    fd[di][dj] = best;
                    self.td[i][j] = best;
                } else {
                    let li = self.v1.lml[i] - l1; // rows before subtree i
                    let lj = self.v2.lml[j] - l2;
                    let split = fd[li][lj] + self.td[i][j];
                    fd[di][dj] = del.min(ins).min(split);
                }
            }
        }
        if let Some(slot) = capture {
            *slot = fd;
        }
    }

    /// Backtracks the optimal mapping. Must be called after
    /// [`Zs::distance`].
    fn mapping(&mut self) -> Matching {
        let mut m = Matching::with_capacity(self.t1.arena_len(), self.t2.arena_len());
        let root1 = self.v1.post.len() - 1;
        let root2 = self.v2.post.len() - 1;
        let mut stack = vec![(root1, root2)];
        while let Some((k1, k2)) = stack.pop() {
            let mut fd = Vec::new();
            self.forest_dist(k1, k2, Some(&mut fd));
            let l1 = self.v1.lml[k1];
            let l2 = self.v2.lml[k2];
            let mut di = k1 - l1 + 1;
            let mut dj = k2 - l2 + 1;
            while di > 0 || dj > 0 {
                if di > 0 {
                    let i = l1 + di - 1;
                    if approx(fd[di][dj], fd[di - 1][dj] + self.del_cost(i)) {
                        di -= 1;
                        continue;
                    }
                }
                if dj > 0 {
                    let j = l2 + dj - 1;
                    if approx(fd[di][dj], fd[di][dj - 1] + self.ins_cost(j)) {
                        dj -= 1;
                        continue;
                    }
                }
                assert!(
                    di > 0 && dj > 0,
                    "forest DP admits delete/insert at the boundary"
                );
                let i = l1 + di - 1;
                let j = l2 + dj - 1;
                if self.v1.lml[i] == l1 && self.v2.lml[j] == l2 {
                    // Relabel: the pair (i, j) is preserved.
                    #[expect(clippy::expect_used, reason = "ZS backtrace pairs each node once")]
                    m.insert(self.v1.post[i], self.v2.post[j])
                        .expect("ZS mapping is one-to-one");
                    di -= 1;
                    dj -= 1;
                } else {
                    // Subtree split: recurse into the subtree pair and skip
                    // over it in this forest.
                    stack.push((i, j));
                    di = self.v1.lml[i] - l1;
                    dj = self.v2.lml[j] - l2;
                }
            }
        }
        m
    }
}

fn approx(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;
    use hierdiff_tree::Label;

    fn doc(s: &str) -> Tree<String> {
        Tree::parse_sexpr(s).unwrap()
    }

    fn dist(a: &str, b: &str) -> f64 {
        tree_distance(&doc(a), &doc(b), &UnitCost)
    }

    #[test]
    fn identical_trees_distance_zero() {
        let t = r#"(D (P (S "a") (S "b")) (P (S "c")))"#;
        assert_eq!(dist(t, t), 0.0);
    }

    #[test]
    fn single_relabel() {
        assert_eq!(dist(r#"(D (S "a"))"#, r#"(D (S "b"))"#), 1.0);
    }

    #[test]
    fn single_insert_and_delete() {
        assert_eq!(dist(r#"(D (S "a"))"#, r#"(D (S "a") (S "b"))"#), 1.0);
        assert_eq!(dist(r#"(D (S "a") (S "b"))"#, r#"(D (S "a"))"#), 1.0);
    }

    #[test]
    fn symmetric_under_unit_costs() {
        let pairs = [
            (
                r#"(D (P (S "a")) (P (S "b")))"#,
                r#"(D (P (S "b") (S "a")))"#,
            ),
            (r#"(D (S "x"))"#, r#"(E (Q (S "y") (S "z")))"#),
            (r#"(A (B (C "1")))"#, r#"(A (C "1"))"#),
        ];
        for (a, b) in pairs {
            assert_eq!(dist(a, b), dist(b, a), "({a}, {b})");
        }
    }

    #[test]
    fn zs_delete_promotes_children() {
        // Removing the intermediate B node costs 1 in ZS (its child is
        // promoted) — the paper contrasts exactly this with its leaf-only
        // delete (Section 2's library/book example).
        assert_eq!(dist(r#"(A (B (C "1")))"#, r#"(A (C "1"))"#), 1.0);
    }

    #[test]
    fn path_trees_reduce_to_string_edit_distance() {
        // Chains behave like strings: kitten -> sitting has edit distance 3.
        fn chain(word: &str) -> Tree<String> {
            let mut t = Tree::new(Label::intern("chain"), String::new());
            let mut cur = t.root();
            for ch in word.chars() {
                cur = t.push_child(cur, Label::intern("c"), ch.to_string());
            }
            t
        }
        let d = tree_distance(&chain("kitten"), &chain("sitting"), &UnitCost);
        assert_eq!(d, 3.0);
    }

    #[test]
    fn known_textbook_case() {
        // The classic ZS example (f(d(a c(b)) e) vs f(c(d(a b)) e)) has
        // distance 2 under unit costs.
        let t1 = doc(r#"(f (d (a) (c (b))) (e))"#);
        let t2 = doc(r#"(f (c (d (a) (b))) (e))"#);
        assert_eq!(tree_distance(&t1, &t2, &UnitCost), 2.0);
    }

    #[test]
    fn distance_bounded_by_sizes() {
        let t1 = doc(r#"(D (P (S "a") (S "b")) (Q (S "c")))"#);
        let t2 = doc(r#"(X (Y "1") (Z "2"))"#);
        let d = tree_distance(&t1, &t2, &UnitCost);
        assert!(d <= (t1.len() + t2.len()) as f64);
        assert!(d > 0.0);
    }

    #[test]
    fn triangle_inequality_random() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        let random_tree = |rng: &mut StdRng| {
            let mut t = Tree::new(Label::intern("R"), String::new());
            let mut ids = vec![t.root()];
            for i in 0..rng.gen_range(1..8usize) {
                let parent = ids[rng.gen_range(0..ids.len())];
                let pos = rng.gen_range(0..=t.arity(parent));
                let label = Label::intern(["A", "B"][rng.gen_range(0..2usize)]);
                let id = t.insert(parent, pos, label, format!("v{}", i % 3)).unwrap();
                ids.push(id);
            }
            t
        };
        for _ in 0..30 {
            let a = random_tree(&mut rng);
            let b = random_tree(&mut rng);
            let c = random_tree(&mut rng);
            let ab = tree_distance(&a, &b, &UnitCost);
            let bc = tree_distance(&b, &c, &UnitCost);
            let ac = tree_distance(&a, &c, &UnitCost);
            assert!(
                ac <= ab + bc + 1e-9,
                "triangle violated: {ac} > {ab} + {bc}"
            );
            assert!((tree_distance(&b, &a, &UnitCost) - ab).abs() < 1e-9);
        }
    }

    #[test]
    fn mapping_is_consistent_with_distance() {
        let t1 = doc(r#"(D (P (S "a") (S "b")) (P (S "c")))"#);
        let t2 = doc(r#"(D (P (S "a")) (P (S "c") (S "d")))"#);
        let m = tree_mapping(&t1, &t2, &UnitCost);
        let d = tree_distance(&t1, &t2, &UnitCost);
        // cost = deletes + inserts + relabels among mapped pairs
        let relabels = m
            .iter()
            .filter(|&(x, y)| t1.label(x) != t2.label(y) || t1.value(x) != t2.value(y))
            .count();
        let dels = t1.len() - m.len();
        let inss = t2.len() - m.len();
        assert_eq!(d, (relabels + dels + inss) as f64);
    }

    #[test]
    fn mapping_preserves_ancestor_order() {
        let t1 = doc(r#"(D (P (S "a") (S "b")) (Q (S "c") (S "d")))"#);
        let t2 = doc(r#"(D (Q (S "c")) (P (S "b") (S "a")))"#);
        let m = tree_mapping(&t1, &t2, &UnitCost);
        for (x1, y1) in m.iter() {
            for (x2, y2) in m.iter() {
                assert_eq!(
                    t1.is_ancestor(x1, x2),
                    t2.is_ancestor(y1, y2),
                    "ancestor order violated for ({x1},{y1}) / ({x2},{y2})"
                );
            }
        }
    }

    #[test]
    fn identity_mapping_for_identical_trees() {
        let t = doc(r#"(D (P (S "a") (S "b")) (P (S "c")))"#);
        let m = tree_mapping(&t, &t.clone(), &UnitCost);
        assert_eq!(m.len(), t.len());
    }

    #[test]
    fn compare_cost_model() {
        let t1 = doc(r#"(D (S "same"))"#);
        let t2 = doc(r#"(D (S "same"))"#);
        assert_eq!(tree_distance(&t1, &t2, &CompareCost), 0.0);
        let t3 = doc(r#"(E (S "same"))"#);
        // Root label differs: relabel 3 vs delete+insert 2 → 2.
        assert_eq!(tree_distance(&t1, &t3, &CompareCost), 2.0);
    }

    #[test]
    fn zs_matching_feeds_edit_script() {
        // The [Zha95] route: ZS mapping as the matching for the paper's
        // edit-script generator. Filter to label-preserving pairs (the
        // paper's ops cannot relabel).
        let t1 = doc(r#"(D (P (S "a") (S "b")) (P (S "c")))"#);
        let t2 = doc(r#"(D (P (S "c")) (P (S "a") (S "b")))"#);
        let zs = tree_mapping(&t1, &t2, &UnitCost);
        let mut m = Matching::with_capacity(t1.arena_len(), t2.arena_len());
        for (x, y) in zs.iter() {
            if t1.label(x) == t2.label(y) {
                m.insert(x, y).unwrap();
            }
        }
        let res = hierdiff_edit::edit_script(&t1, &t2, &m).unwrap();
        assert!(hierdiff_tree::isomorphic(&res.replay_on(&t1).unwrap(), &t2));
    }

    proptest::proptest! {
        #[test]
        fn prop_self_distance_zero(seed in 0u64..40) {
            use rand::{rngs::StdRng, Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let mut t = Tree::new(Label::intern("R"), String::new());
            let mut ids = vec![t.root()];
            for i in 0..rng.gen_range(0..10usize) {
                let parent = ids[rng.gen_range(0..ids.len())];
                let pos = rng.gen_range(0..=t.arity(parent));
                let id = t.insert(parent, pos, Label::intern("N"), format!("v{i}")).unwrap();
                ids.push(id);
            }
            let d_self = tree_distance(&t, &t.clone(), &UnitCost);
            proptest::prop_assert_eq!(d_self, 0.0);
        }
    }
}
