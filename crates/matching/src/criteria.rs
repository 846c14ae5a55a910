//! The matching criteria of Section 5.1 and the shared evaluation context.
//!
//! * **Criterion 1** (leaves): `(x, y)` may match only if `l(x) = l(y)` and
//!   `compare(v(x), v(y)) ≤ f` for a parameter `0 ≤ f ≤ 1`.
//! * **Criterion 2** (internal nodes): `l(x) = l(y)` and
//!   `|common(x, y)| / max(|x|, |y|) > t` for a parameter `1/2 ≤ t ≤ 1`,
//!   where `common(x, y)` is the set of matched leaf pairs contained in `x`
//!   and `y`.
//! * **Criterion 3** (assumption): `compare` is a good discriminator — each
//!   leaf has at most one close counterpart. It is *checked*, not enforced;
//!   see [`crate::mismatch`] for its empirical analysis (Table 1).
//!
//! [`MatchCtx`] precomputes everything the per-pair equality tests need:
//! contained-leaf counts `|x|`, contiguous leaf ranges per subtree, and
//! pre-order intervals for O(1) containment — keeping each internal-node
//! comparison at the `min(|x|, |y|)` cost Appendix B charges for it.

use hierdiff_edit::Matching;
use hierdiff_tree::{Intervals, NodeId, NodeValue, Tree};

use crate::schema::LabelClasses;

/// Parameters of the matching criteria.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MatchParams {
    /// Criterion 1's `f`: maximum `compare` distance for leaves to match
    /// (`0 ≤ f ≤ 1`).
    pub leaf_threshold: f64,
    /// Criterion 2's `t`: minimum fraction of common contained leaves for
    /// internal nodes to match (`1/2 ≤ t ≤ 1`). This is the "match
    /// threshold" LaDiff takes as a parameter (Section 7, Table 1).
    pub inner_threshold: f64,
}

impl Default for MatchParams {
    fn default() -> MatchParams {
        MatchParams {
            leaf_threshold: 0.5,
            inner_threshold: 0.6,
        }
    }
}

impl MatchParams {
    /// Parameters with a given inner (`t`) threshold, clamped to the paper's
    /// valid range `[1/2, 1]`.
    pub fn with_inner_threshold(t: f64) -> MatchParams {
        MatchParams {
            inner_threshold: t.clamp(0.5, 1.0),
            ..MatchParams::default()
        }
    }

    /// Parameters with a given leaf (`f`) threshold, clamped to `[0, 1]`.
    pub fn with_leaf_threshold(self, f: f64) -> MatchParams {
        MatchParams {
            leaf_threshold: f.clamp(0.0, 1.0),
            ..self
        }
    }
}

/// Instrumentation counters matching the cost decomposition of Section 8:
/// the running time of FastMatch "is given by an expression of the form
/// `r1·c + r2`", where `r1` counts leaf-node comparisons (invocations of
/// `compare`) and `r2` counts node partner checks ("implemented in LaDiff as
/// integer comparisons").
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MatchCounters {
    /// `r1`: number of leaf `compare` invocations.
    pub leaf_compares: usize,
    /// `r2`: number of partner checks performed while intersecting contained
    /// leaves for internal-node comparisons.
    pub partner_checks: usize,
    /// Number of internal-node pair evaluations (not part of the paper's
    /// cost model; useful for diagnostics).
    pub internal_compares: usize,
    /// Nodes matched wholesale by the identical-subtree pruning pre-pass
    /// ([`crate::prune_identical`]) — each skipped all criteria evaluation.
    /// Zero when pruning was not run.
    pub nodes_pruned: usize,
    /// Candidate subtree pairs the pruning pre-pass verified with a real
    /// isomorphism check (hash-unique on both sides).
    pub prune_candidates: usize,
    /// Pruning candidates whose fingerprints collided: hashes equal, but
    /// isomorphism verification rejected the pair.
    pub prune_collisions: usize,
    /// Per-label node chains scanned (the `chain_T(l)` sequences of
    /// Section 5.3) — one per label with live candidates on both sides,
    /// counted once per leaf/internal phase.
    pub chain_scans: usize,
    /// Myers LCS `(d, k)` inner-loop iterations across FastMatch's
    /// per-chain `LCS` calls — the O(ND) work units of Section 4.2. Zero
    /// for Algorithm *Match*, which never calls `LCS`.
    pub lcs_cells: u64,
    /// Candidate node pairs evaluated against the matching criteria
    /// (Criterion 1 and 2 invocations, including label-mismatch
    /// short-circuits) — LCS probes plus quadratic-fallback pairs.
    pub match_candidates: usize,
}

impl MatchCounters {
    /// Total measured "comparisons" as plotted in Figure 13(b):
    /// `r1 + r2` (unit-cost `c = 1`).
    pub fn total(&self) -> usize {
        self.leaf_compares + self.partner_checks
    }

    /// Folds the pruning pre-pass statistics into these counters.
    pub fn absorb_prune(&mut self, stats: &crate::prune::PruneStats) {
        self.nodes_pruned += stats.nodes_pruned;
        self.prune_candidates += stats.candidates;
        self.prune_collisions += stats.collisions;
    }
}

/// Contiguous leaf ranges: the leaves of any subtree occupy a contiguous
/// slice of the document-ordered leaf sequence.
///
/// A node's range is empty exactly when the node contains no leaves: a
/// childless internal-label node, or an internal node whose childless
/// descendants all bear internal labels (e.g. a section holding only empty
/// paragraphs).
#[derive(Clone, Debug)]
pub struct LeafRanges<'t> {
    /// All leaves in document order.
    pub order: Vec<NodeId>,
    bounds: Bounds<'t>,
}

/// Where each node's slice of [`LeafRanges::order`] starts and ends.
#[derive(Clone, Debug)]
enum Bounds<'t> {
    /// A [compact](Tree::is_compact) tree: node `x`'s subtree is the id
    /// range `[x, skip(x))`, so its leaves are `order[prefix[x] ..
    /// prefix[skip(x)]]`, where `prefix[i]` counts the leaves with ids below
    /// `i` (`prefix` has one entry past the last id).
    Prefix { prefix: Vec<u32>, skips: &'t [u32] },
    /// Any other tree: `(start, end)` per node, indexed by id.
    Ranges(Vec<(u32, u32)>),
}

#[expect(
    clippy::indexing_slicing,
    reason = "the bound tables are sized to `arena_len()` (plus one for `prefix`) and skip \
              offsets are at most `arena_len()`; their slices are endpoints into `order`"
)]
impl<'t> LeafRanges<'t> {
    /// Computes leaf ranges. A node counts as a leaf iff it is childless
    /// *and* bears a leaf label per `classes` — a childless internal-label
    /// node (e.g. an empty paragraph) contains no leaves, so it neither
    /// inflates its ancestors' `|x|` nor participates in Criterion 1.
    ///
    /// On a compact tree this is one forward scan into a leaf prefix array
    /// that, with the tree's borrowed skip offsets, bounds every subtree's
    /// slice; other trees take an explicit pre/post walk.
    pub fn new<V: NodeValue>(tree: &'t Tree<V>, classes: &LabelClasses) -> LeafRanges<'t> {
        if let Some(skips) = tree.skip_offsets() {
            // Ids run in preorder, and a node is childless iff its subtree
            // ends right after it. `prefix[i]` counts the leaves before id
            // `i`; one entry past the last id holds the total.
            let mut prefix: Vec<u32> = Vec::with_capacity(tree.arena_len() + 1);
            let mut order: Vec<NodeId> = Vec::with_capacity(tree.arena_len());
            for (id, &skip) in tree.preorder().zip(skips) {
                // analyze: allow(S031) O(n) leaf-range precompute before the governed match loops
                prefix.push(order.len() as u32);
                if skip as usize == id.index() + 1 && classes.is_leaf_label(tree.label(id)) {
                    order.push(id);
                }
            }
            prefix.push(order.len() as u32);
            return LeafRanges {
                order,
                bounds: Bounds::Prefix { prefix, skips },
            };
        }
        let mut order = Vec::new();
        let mut range = vec![(0u32, 0u32); tree.arena_len()];
        // Iterative pre/post pass assigning [start, end) leaf slices.
        let mut stack = vec![(tree.root(), false)];
        while let Some((id, done)) = stack.pop() {
            // analyze: allow(S031) O(n) leaf-range precompute before the governed match loops
            if done {
                let start = range[id.index()].0;
                range[id.index()] = (start, order.len() as u32);
                continue;
            }
            range[id.index()].0 = order.len() as u32;
            if tree.is_leaf(id) && classes.is_leaf_label(tree.label(id)) {
                order.push(id);
                range[id.index()] = (order.len() as u32 - 1, order.len() as u32);
            } else {
                stack.push((id, true));
                stack.extend(tree.children(id).iter().rev().map(|&c| (c, false)));
            }
        }
        LeafRanges {
            order,
            bounds: Bounds::Ranges(range),
        }
    }

    /// `node`'s `[start, end)` slice of `order`.
    fn bounds(&self, node: NodeId) -> (usize, usize) {
        let i = node.index();
        match &self.bounds {
            Bounds::Prefix { prefix, skips } => {
                (prefix[i] as usize, prefix[skips[i] as usize] as usize)
            }
            Bounds::Ranges(range) => (range[i].0 as usize, range[i].1 as usize),
        }
    }

    /// The leaves contained in `node`, in document order.
    pub fn leaves_of(&self, node: NodeId) -> &[NodeId] {
        let (s, e) = self.bounds(node);
        &self.order[s..e]
    }

    /// `|node|` — the number of leaves contained in `node`.
    pub fn count(&self, node: NodeId) -> usize {
        let (s, e) = self.bounds(node);
        e - s
    }
}

/// Precomputed evaluation context for one `(T1, T2)` pair.
pub struct MatchCtx<'a, V: NodeValue> {
    /// The old tree.
    pub t1: &'a Tree<V>,
    /// The new tree.
    pub t2: &'a Tree<V>,
    /// Criteria parameters.
    pub params: MatchParams,
    /// Label classification for the pair.
    pub classes: &'a LabelClasses,
    /// Leaf ranges of `t1`.
    pub leaves1: LeafRanges<'a>,
    /// Leaf ranges of `t2`.
    pub leaves2: LeafRanges<'a>,
    /// Pre-order intervals of `t1`.
    pub iv1: Intervals<'a>,
    /// Pre-order intervals of `t2`.
    pub iv2: Intervals<'a>,
    /// Instrumentation (interior mutability not needed — methods take
    /// `&mut self`).
    pub counters: MatchCounters,
}

impl<'a, V: NodeValue> MatchCtx<'a, V> {
    /// Builds the context (one O(N) pass per table).
    pub fn new(
        t1: &'a Tree<V>,
        t2: &'a Tree<V>,
        params: MatchParams,
        classes: &'a LabelClasses,
    ) -> MatchCtx<'a, V> {
        MatchCtx {
            t1,
            t2,
            params,
            classes,
            leaves1: LeafRanges::new(t1, classes),
            leaves2: LeafRanges::new(t2, classes),
            iv1: Intervals::new(t1),
            iv2: Intervals::new(t2),
            counters: MatchCounters::default(),
        }
    }

    /// Matching Criterion 1: may leaves `x ∈ T1` and `y ∈ T2` match?
    /// Counts one leaf compare.
    pub fn equal_leaves(&mut self, x: NodeId, y: NodeId) -> bool {
        let (t1, t2) = (self.t1, self.t2);
        self.equal_prepared_leaves(x, y, &t1.value(x).prepare(), &t2.value(y).prepare())
    }

    /// [`MatchCtx::equal_leaves`] on values already prepared: `px` and
    /// `py` are [`NodeValue::prepare`] of `x`'s and `y`'s values.
    pub fn equal_prepared_leaves(
        &mut self,
        x: NodeId,
        y: NodeId,
        px: &V::Prepared<'_>,
        py: &V::Prepared<'_>,
    ) -> bool {
        self.counters.match_candidates += 1;
        if self.t1.label(x) != self.t2.label(y) {
            return false;
        }
        self.counters.leaf_compares += 1;
        V::compare_prepared(px, py) <= self.params.leaf_threshold
    }

    /// Matching Criterion 2: may internal nodes `x ∈ T1` and `y ∈ T2` match
    /// under the current (leaf) matching `m`? Counts `min(|x|, |y|)` partner
    /// checks (the intersection cost of Appendix B).
    pub fn equal_internal(&mut self, x: NodeId, y: NodeId, m: &Matching) -> bool {
        self.counters.match_candidates += 1;
        if self.t1.label(x) != self.t2.label(y) {
            return false;
        }
        self.counters.internal_compares += 1;
        let nx = self.leaves1.count(x);
        let ny = self.leaves2.count(y);
        if nx == 0 || ny == 0 {
            // A node with no leaves (see `LeafRanges`) has nothing
            // to intersect: two empty nodes are trivially similar and an
            // empty/non-empty pair is not.
            return nx == ny;
        }
        let common = self.common(x, y, m);
        let max = nx.max(ny) as f64;
        (common as f64) / max > self.params.inner_threshold
    }

    /// `|common(x, y)|`: matched leaf pairs `(w, z) ∈ M` with `w` contained
    /// in `x` and `z` contained in `y`. Iterates the smaller side.
    pub fn common(&mut self, x: NodeId, y: NodeId, m: &Matching) -> usize {
        let nx = self.leaves1.count(x);
        let ny = self.leaves2.count(y);
        let mut common = 0usize;
        if nx <= ny {
            self.counters.partner_checks += nx;
            for &w in self.leaves1.leaves_of(x) {
                // analyze: allow(S031) cost charged to partner_checks; callers tick per pair
                if let Some(z) = m.partner1(w) {
                    if self.iv2.is_ancestor(y, z) {
                        common += 1;
                    }
                }
            }
        } else {
            self.counters.partner_checks += ny;
            for &z in self.leaves2.leaves_of(y) {
                // analyze: allow(S031) cost charged to partner_checks; callers tick per pair
                if let Some(w) = m.partner2(z) {
                    if self.iv1.is_ancestor(x, w) {
                        common += 1;
                    }
                }
            }
        }
        common
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hierdiff_tree::{Label, Tree};

    fn doc(s: &str) -> Tree<String> {
        Tree::parse_sexpr(s).unwrap()
    }

    fn ctx_for<'a>(
        t1: &'a Tree<String>,
        t2: &'a Tree<String>,
        params: MatchParams,
        classes: &'a LabelClasses,
    ) -> MatchCtx<'a, String> {
        MatchCtx::new(t1, t2, params, classes)
    }

    #[test]
    fn default_params_in_paper_ranges() {
        let p = MatchParams::default();
        assert!((0.0..=1.0).contains(&p.leaf_threshold));
        assert!((0.5..=1.0).contains(&p.inner_threshold));
    }

    #[test]
    fn thresholds_clamped() {
        assert_eq!(MatchParams::with_inner_threshold(0.2).inner_threshold, 0.5);
        assert_eq!(MatchParams::with_inner_threshold(1.5).inner_threshold, 1.0);
        assert_eq!(
            MatchParams::default()
                .with_leaf_threshold(-1.0)
                .leaf_threshold,
            0.0
        );
    }

    #[test]
    fn leaf_ranges_are_contiguous() {
        let t = doc(r#"(D (P (S "a") (S "b")) (Sec (P (S "c"))) (S "d"))"#);
        let classes = LabelClasses::classify(&t, &t);
        let lr = LeafRanges::new(&t, &classes);
        assert_eq!(lr.order.len(), 4);
        assert_eq!(lr.count(t.root()), 4);
        let kids: Vec<_> = t.children(t.root()).to_vec();
        assert_eq!(lr.count(kids[0]), 2);
        assert_eq!(lr.count(kids[1]), 1);
        assert_eq!(lr.count(kids[2]), 1);
        // leaves_of yields document order.
        let vals: Vec<_> = lr
            .leaves_of(t.root())
            .iter()
            .map(|&l| t.value(l).clone())
            .collect();
        assert_eq!(vals, vec!["a", "b", "c", "d"]);
    }

    #[test]
    fn equal_leaves_applies_criterion_1() {
        let t1 = doc(r#"(D (S "hello"))"#);
        let t2 = doc(r#"(D (S "hello") (P "hello"))"#);
        let classes = LabelClasses::classify(&t1, &t2);
        let mut ctx = ctx_for(&t1, &t2, MatchParams::default(), &classes);
        let x = t1.children(t1.root())[0];
        let y_same = t2.children(t2.root())[0];
        let y_other_label = t2.children(t2.root())[1];
        assert!(ctx.equal_leaves(x, y_same));
        assert!(!ctx.equal_leaves(x, y_other_label), "labels must match");
        // Label mismatch short-circuits before the compare counter.
        assert_eq!(ctx.counters.leaf_compares, 1);
    }

    #[test]
    fn equal_internal_needs_common_fraction() {
        // x has leaves a b c; y1 shares all 3; y2 shares 1 of 3.
        let t1 = doc(r#"(D (P (S "a") (S "b") (S "c")))"#);
        let t2 = doc(r#"(D (P (S "a") (S "b") (S "c")) (P (S "a") (S "x") (S "y")))"#);
        let classes = LabelClasses::classify(&t1, &t2);
        let mut ctx = ctx_for(&t1, &t2, MatchParams::default(), &classes);
        let p1 = t1.children(t1.root())[0];
        let q1 = t2.children(t2.root())[0];
        let q2 = t2.children(t2.root())[1];
        let mut m = Matching::new();
        // Match a↔a, b↔b, c↔c (into q1's children).
        for (i, &w) in t1.children(p1).iter().enumerate() {
            m.insert(w, t2.children(q1)[i]).unwrap();
        }
        assert!(ctx.equal_internal(p1, q1, &m)); // 3/3 > 0.6
        assert!(!ctx.equal_internal(p1, q2, &m)); // 0/3 (a matched elsewhere)
        assert!(ctx.counters.partner_checks >= 6);
        assert_eq!(ctx.counters.internal_compares, 2);
    }

    #[test]
    fn common_iterates_smaller_side() {
        let t1 = doc(r#"(D (P (S "a")))"#);
        let t2 = doc(r#"(D (P (S "a") (S "b") (S "c") (S "d")))"#);
        let classes = LabelClasses::classify(&t1, &t2);
        let mut ctx = ctx_for(&t1, &t2, MatchParams::default(), &classes);
        let p1 = t1.children(t1.root())[0];
        let q1 = t2.children(t2.root())[0];
        let mut m = Matching::new();
        m.insert(t1.children(p1)[0], t2.children(q1)[0]).unwrap();
        assert_eq!(ctx.common(p1, q1, &m), 1);
        // Only the 1-leaf side is scanned.
        assert_eq!(ctx.counters.partner_checks, 1);
    }

    #[test]
    fn empty_internal_nodes_match_only_each_other() {
        let t1 = doc(r#"(D (P) (P (S "a")))"#);
        let t2 = doc(r#"(D (P) (P (S "a")))"#);
        let classes = LabelClasses::classify(&t1, &t2);
        let mut ctx = ctx_for(&t1, &t2, MatchParams::default(), &classes);
        let e1 = t1.children(t1.root())[0];
        let f1 = t1.children(t1.root())[1];
        let e2 = t2.children(t2.root())[0];
        let f2 = t2.children(t2.root())[1];
        let mut m = Matching::new();
        m.insert(t1.children(f1)[0], t2.children(f2)[0]).unwrap();
        assert!(ctx.equal_internal(e1, e2, &m), "both empty");
        assert!(!ctx.equal_internal(e1, f2, &m), "empty vs non-empty");
        assert!(ctx.equal_internal(f1, f2, &m));
    }

    #[test]
    fn nodes_holding_only_empty_internal_nodes_contain_no_leaves() {
        // `Sec` holds only an empty `P`, and `P` is an internal label (it
        // bears `S` elsewhere), so `Sec` contains no leaves at all.
        let t1 = doc(r#"(D (Sec (P)) (P (S "a")))"#);
        let t2 = doc(r#"(D (Sec (P)) (P (S "a")) (Sec (P (S "a"))))"#);
        let classes = LabelClasses::classify(&t1, &t2);
        assert!(!classes.is_leaf_label(Label::intern("P")));
        let mut ctx = ctx_for(&t1, &t2, MatchParams::default(), &classes);
        let sec1 = t1.children(t1.root())[0];
        let [sec2, p2, full2] = t2.children(t2.root()) else {
            panic!("three children")
        };
        let (sec2, p2, full2) = (*sec2, *p2, *full2);
        assert_eq!(ctx.leaves1.count(sec1), 0);
        assert!(ctx.leaves1.leaves_of(sec1).is_empty());
        assert_eq!(ctx.leaves1.count(t1.children(sec1)[0]), 0);
        assert_eq!(ctx.leaves1.count(t1.root()), 1);
        let mut m = Matching::new();
        let s1 = t1.children(t1.children(t1.root())[1])[0];
        m.insert(s1, t2.children(p2)[0]).unwrap();
        assert!(ctx.equal_internal(sec1, sec2, &m), "both contain no leaves");
        assert!(!ctx.equal_internal(sec1, full2, &m), "empty vs non-empty");
        // Dirty and compact trees agree.
        let mut dirty = t1.clone();
        let extra = dirty.insert(t1.root(), 2, Label::intern("S"), "b".into());
        dirty.delete_leaf(extra.unwrap()).unwrap();
        assert!(!dirty.is_compact());
        let lr = LeafRanges::new(&dirty, &classes);
        for id in t1.preorder() {
            assert_eq!(lr.leaves_of(id), ctx.leaves1.leaves_of(id), "{id}");
        }
    }

    #[test]
    fn compact_and_dirty_layouts_agree() {
        use hierdiff_workload::{generate_document, perturb, DocProfile, EditMix};
        let profile = DocProfile::small();
        for seed in 0..8u64 {
            let t1 = generate_document(seed, &profile);
            let (dirty, _) = perturb(&t1, seed + 100, 12, &EditMix::revision(), &profile);
            assert!(!dirty.is_compact());
            let mut compact = dirty.clone();
            let remap = compact.compact();
            let classes = LabelClasses::classify(&t1, &dirty);
            let again = LabelClasses::classify(&t1, &compact);
            assert_eq!(classes.leaf_labels, again.leaf_labels);
            assert_eq!(classes.internal_labels, again.internal_labels);
            let (a, b) = (
                LeafRanges::new(&dirty, &classes),
                LeafRanges::new(&compact, &classes),
            );
            let moved: Vec<NodeId> = a.order.iter().map(|&l| remap[l.index()].unwrap()).collect();
            assert_eq!(moved, b.order, "seed {seed}");
            for id in dirty.preorder() {
                let c = remap[id.index()].unwrap();
                assert_eq!(a.count(id), b.count(c), "seed {seed}, node {id}");
                let leaves: Vec<NodeId> = a
                    .leaves_of(id)
                    .iter()
                    .map(|&l| remap[l.index()].unwrap())
                    .collect();
                assert_eq!(leaves, b.leaves_of(c), "seed {seed}, node {id}");
            }
        }
    }

    #[test]
    fn threshold_boundary_is_strict() {
        // common/max == t exactly must NOT match (criterion is strict >).
        let t1 = doc(r#"(D (P (S "a") (S "b")))"#);
        let t2 = doc(r#"(D (P (S "a") (S "x")))"#);
        let p1 = t1.children(t1.root())[0];
        let q1 = t2.children(t2.root())[0];
        let mut m = Matching::new();
        m.insert(t1.children(p1)[0], t2.children(q1)[0]).unwrap();
        // common = 1, max = 2 → ratio 0.5.
        let classes = LabelClasses::classify(&t1, &t2);
        let mut ctx = ctx_for(&t1, &t2, MatchParams::with_inner_threshold(0.5), &classes);
        assert!(!ctx.equal_internal(p1, q1, &m), "ratio == t must fail");
        let mut ctx = ctx_for(
            &t1,
            &t2,
            MatchParams {
                inner_threshold: 0.49,
                ..MatchParams::default()
            },
            &classes,
        );
        // (t below the paper's range, used only to verify strictness)
        assert!(ctx.equal_internal(p1, q1, &m));
    }
}
