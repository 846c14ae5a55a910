//! hierdiff-analyze: hot-module
//!
//! Algorithm *FastMatch* (Figure 11): the paper's fast matcher,
//! `O((ne + e²)c + 2lne)` where `e` is the weighted edit distance.
//!
//! "Algorithm FastMatch uses the longest common subsequence (LCS) routine
//! ... to perform an initial matching of nodes that appear in the same
//! order. Nodes still unmatched after the call to LCS are processed as in
//! Algorithm Match." Per-label node chains provide the sequences; Myers'
//! O(ND) LCS makes the common near-identical case cheap.
//!
//! A seed's matched nodes can never pair again, so the chains hold only
//! the seed's *unmatched* nodes. They are built by one document-order walk
//! per tree that jumps over the seed's recorded identical subtrees
//! ([`Matching::identical_roots`]), so under the pruning pre-pass the walk
//! costs the residual, not the tree.

use hierdiff_edit::Matching;
use hierdiff_guard::{Guard, GuardError};
use hierdiff_lcs::{lcs_counted_guarded, LcsStats};
use hierdiff_tree::traverse::preorder_pruned_of;
use hierdiff_tree::{Label, NodeId, NodeValue, Tree};

use crate::criteria::{MatchCtx, MatchParams};
use crate::error::MatchError;
use crate::schema::LabelClasses;
use crate::simple::MatchResult;

/// The unmatched nodes of one tree bucketed by label, each bucket in
/// document order: bucket `l` is `nodes[start[l]..start[l + 1]]`.
struct Chains {
    start: Vec<usize>,
    nodes: Vec<NodeId>,
}

impl Chains {
    /// Walks `tree` in document order, skipping the subtrees under
    /// `roots` (recorded identical subtrees, matched throughout), and
    /// buckets the nodes `matched` rejects by label with a counting sort.
    #[expect(
        clippy::indexing_slicing,
        reason = "`is_root` is sized to the arena; `start` is grown past every label index \
                  before the counts land, and the buckets partition `nodes`"
    )]
    fn residual<V: NodeValue>(
        tree: &Tree<V>,
        roots: impl Iterator<Item = NodeId>,
        matched: impl Fn(NodeId) -> bool,
        guard: &Guard,
    ) -> Result<Chains, GuardError> {
        let mut is_root = vec![false; tree.arena_len()];
        for r in roots {
            guard.tick()?;
            is_root[r.index()] = true;
        }
        let mut residual: Vec<NodeId> = Vec::new();
        // `start[l + 1]` first counts label `l`; the prefix sum turns the
        // counts into bucket starts.
        let mut start = vec![0usize; Label::universe_size() + 1];
        for id in preorder_pruned_of(tree, tree.root(), |id| is_root[id.index()]) {
            guard.tick()?;
            if matched(id) {
                continue;
            }
            let l = tree.label(id).index();
            if l + 1 >= start.len() {
                start.resize(l + 2, 0);
            }
            start[l + 1] += 1;
            residual.push(id);
        }
        for i in 1..start.len() {
            guard.tick()?;
            start[i] += start[i - 1];
        }
        let mut next = start.clone();
        let mut nodes = vec![tree.root(); residual.len()];
        for &id in &residual {
            guard.tick()?;
            let l = tree.label(id).index();
            nodes[next[l]] = id;
            next[l] += 1;
        }
        Ok(Chains { start, nodes })
    }

    /// The chain of `label`: its unmatched nodes in document order.
    fn of_label(&self, label: Label) -> &[NodeId] {
        let l = label.index();
        match (self.start.get(l), self.start.get(l + 1)) {
            (Some(&a), Some(&b)) => self.nodes.get(a..b).unwrap_or(&[]),
            _ => &[],
        }
    }
}

/// Algorithm *FastMatch* (Figure 11).
///
/// Runs ungoverned; the only possible error is [`MatchError::Internal`]
/// (an invariant bug), so callers that trust the matcher may treat the
/// result as infallible.
pub fn fast_match<V: NodeValue>(
    t1: &Tree<V>,
    t2: &Tree<V>,
    params: MatchParams,
) -> Result<MatchResult, MatchError> {
    fast_match_seeded(t1, t2, params, Matching::new())
}

/// Algorithm *FastMatch* starting from a pre-established partial matching
/// `seed` (e.g. key-derived pairs, see [`crate::match_keyed_then_content`]).
/// Seeded pairs are kept verbatim and — crucially — visible to Criterion 2
/// while internal nodes are compared, so keyed leaves count toward their
/// ancestors' `common` ratios.
pub fn fast_match_seeded<V: NodeValue>(
    t1: &Tree<V>,
    t2: &Tree<V>,
    params: MatchParams,
    seed: Matching,
) -> Result<MatchResult, MatchError> {
    fast_match_governed(t1, t2, params, seed, &Guard::unlimited()).map_err(|e| match e {
        // An unlimited guard cannot trip; if it somehow does, that is an
        // invariant violation, not a governance outcome.
        MatchError::Guard(_) => MatchError::Internal("unlimited guard tripped"),
        other => other,
    })
}

/// Algorithm *FastMatch* under resource governance: `guard` is ticked once
/// per chain scan and (strided) per quadratic-fallback candidate, and every
/// per-chain LCS runs against the guard's `max_lcs_cells` budget.
///
/// On `Err(MatchError::Guard(GuardError::Budget(Budget::LcsCells)))` the
/// caller should fall back to [`crate::bounded_greedy_match`], the LCS-free
/// degraded tier; cancellation and deadline errors are terminal.
pub fn fast_match_guarded<V: NodeValue>(
    t1: &Tree<V>,
    t2: &Tree<V>,
    params: MatchParams,
    guard: &Guard,
) -> Result<MatchResult, MatchError> {
    fast_match_governed(t1, t2, params, Matching::new(), guard)
}

/// [`fast_match_guarded`] starting from a pre-established partial matching
/// (the governed form of [`fast_match_seeded`]).
pub fn fast_match_seeded_guarded<V: NodeValue>(
    t1: &Tree<V>,
    t2: &Tree<V>,
    params: MatchParams,
    seed: Matching,
    guard: &Guard,
) -> Result<MatchResult, MatchError> {
    fast_match_governed(t1, t2, params, seed, guard)
}

fn fast_match_governed<V: NodeValue>(
    t1: &Tree<V>,
    t2: &Tree<V>,
    params: MatchParams,
    seed: Matching,
    guard: &Guard,
) -> Result<MatchResult, MatchError> {
    // The setup passes are each O(N); checkpoints between them bound how
    // long a fired cancel token or expired deadline can go unnoticed on
    // very large inputs (the per-label loops below tick per element).
    let classes = LabelClasses::classify_guarded(t1, t2, guard)?;
    let mut ctx = MatchCtx::new(t1, t2, params, &classes);
    guard.checkpoint()?;
    let mut m = seed;
    // A node of label `l` is matched only by the seed or while `l` itself
    // is processed, so the seed's unmatched nodes are exactly each chain's
    // candidates when its turn comes.
    let roots = m.identical_roots();
    let chains1 = Chains::residual(
        t1,
        roots.iter().map(|&(x, _)| x),
        |x| m.is_matched1(x),
        guard,
    )?;
    let chains2 = Chains::residual(
        t2,
        roots.iter().map(|&(_, y)| y),
        |y| m.is_matched2(y),
        guard,
    )?;
    guard.checkpoint()?;

    // The leaf phase's chains with each value prepared once
    // (`NodeValue::prepare`), so Criterion 1 does no per-pair setup. The
    // buffers live outside the per-label loop (hot-loop discipline — the
    // loop body itself must stay allocation-free).
    let mut p1 = Vec::new();
    let mut p2 = Vec::new();
    for (phase, phase_labels) in [&classes.leaf_labels, &classes.internal_labels]
        .into_iter()
        .enumerate()
    {
        guard.checkpoint()?;
        let is_leaf_phase = phase == 0;
        for &label in phase_labels {
            // Only unmatched nodes are chained: this keeps Myers' O(ND)
            // fast when a pre-pass seeded most of the chain (a mostly
            // matched chain otherwise has no common elements left, driving
            // D to l1+l2 and the LCS to quadratic).
            let (s1, s2) = (chains1.of_label(label), chains2.of_label(label));
            if s1.is_empty() || s2.is_empty() {
                continue;
            }
            guard.tick()?;
            ctx.counters.chain_scans += 1;
            // 2c. Initial matching of same-order nodes via LCS. The equality
            //     function is the phase's matching criterion.
            let mut lcs_stats = LcsStats::default();
            let lcs_outcome = if is_leaf_phase {
                p1.clear();
                p1.extend(s1.iter().map(|&x| (x, t1.value(x).prepare())));
                p2.clear();
                p2.extend(s2.iter().map(|&y| (y, t2.value(y).prepare())));
                lcs_counted_guarded(
                    &p1,
                    &p2,
                    |(x, px), (y, py)| ctx.equal_prepared_leaves(*x, *y, px, py),
                    &mut lcs_stats,
                    guard,
                )
            } else {
                lcs_counted_guarded(
                    s1,
                    s2,
                    |&x, &y| ctx.equal_internal(x, y, &m),
                    &mut lcs_stats,
                    guard,
                )
            };
            ctx.counters.lcs_cells += lcs_stats.cells;
            let pairs = lcs_outcome?;
            // 2d. Adopt the LCS pairs (checked unmatched, strictly
            // increasing — a rejected insert is an invariant bug).
            for &(i, j) in &pairs {
                guard.tick()?;
                #[expect(
                    clippy::indexing_slicing,
                    reason = "LCS pairs index the chains they came from"
                )]
                m.insert(s1[i], s2[j])
                    .map_err(|_| MatchError::Internal("LCS pair already matched"))?;
            }
            // 2e. Pair remaining unmatched nodes as in Algorithm Match.
            for (i, &x) in s1.iter().enumerate() {
                guard.tick()?;
                if m.is_matched1(x) {
                    continue;
                }
                for (j, &y) in s2.iter().enumerate() {
                    if m.is_matched2(y) {
                        continue;
                    }
                    guard.tick()?;
                    let eq = if is_leaf_phase {
                        let (Some((_, px)), Some((_, py))) = (p1.get(i), p2.get(j)) else {
                            return Err(MatchError::Internal("prepared chain out of step"));
                        };
                        ctx.equal_prepared_leaves(x, y, px, py)
                    } else {
                        ctx.equal_internal(x, y, &m)
                    };
                    if eq {
                        m.insert(x, y)
                            .map_err(|_| MatchError::Internal("fallback pair already matched"))?;
                        break;
                    }
                }
            }
        }
    }

    Ok(MatchResult {
        matching: m,
        counters: ctx.counters,
        classes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simple::match_simple;

    fn doc(s: &str) -> Tree<String> {
        Tree::parse_sexpr(s).unwrap()
    }

    #[test]
    fn identical_trees_fully_matched() {
        let t1 = doc(r#"(D (P (S "a") (S "b")) (P (S "c")))"#);
        let t2 = doc(r#"(D (P (S "a") (S "b")) (P (S "c")))"#);
        let res = fast_match(&t1, &t2, MatchParams::default()).unwrap();
        assert_eq!(res.matching.len(), t1.len());
    }

    #[test]
    fn agrees_with_match_on_running_example() {
        let t1 = doc(r#"(D (P (S "a")) (P (S "b") (S "c") (S "e")) (P (S "d")))"#);
        let t2 = doc(r#"(D (P (S "a")) (P (S "d")) (P (S "b") (S "e") (S "c")))"#);
        let fast = fast_match(&t1, &t2, MatchParams::default()).unwrap();
        let simple = match_simple(&t1, &t2, MatchParams::default()).unwrap();
        assert_eq!(fast.matching.len(), simple.matching.len());
        for (x, y) in simple.matching.iter() {
            assert!(
                fast.matching.contains(x, y),
                "FastMatch missing pair ({x}, {y})"
            );
        }
    }

    #[test]
    fn fewer_leaf_compares_than_match_when_similar() {
        // Two nearly identical documents: FastMatch's LCS pass should need
        // far fewer compares than Match's quadratic scan.
        let body: Vec<String> = (0..40).map(|i| format!("(S \"sent {i}\")")).collect();
        let t1 = doc(&format!("(D (P {}))", body.join(" ")));
        let mut body2 = body.clone();
        body2[20] = "(S \"changed sentence\")".to_string();
        let t2 = doc(&format!("(D (P {}))", body2.join(" ")));
        let fast = fast_match(&t1, &t2, MatchParams::default()).unwrap();
        let simple = match_simple(&t1, &t2, MatchParams::default()).unwrap();
        assert!(
            fast.counters.leaf_compares < simple.counters.leaf_compares,
            "fast {} !< simple {}",
            fast.counters.leaf_compares,
            simple.counters.leaf_compares
        );
        // Same matching quality.
        assert_eq!(fast.matching.len(), simple.matching.len());
    }

    #[test]
    fn work_counters_populated() {
        let t1 = doc(r#"(D (P (S "a") (S "b")) (P (S "c")))"#);
        let t2 = doc(r#"(D (P (S "a") (S "b")) (P (S "c") (S "d")))"#);
        let res = fast_match(&t1, &t2, MatchParams::default()).unwrap();
        let c = res.counters;
        // One S chain, one P chain, one D chain → 3 scans across phases.
        assert_eq!(c.chain_scans, 3);
        assert!(c.lcs_cells > 0, "chain LCS ran");
        assert!(
            c.match_candidates as u64 >= c.leaf_compares as u64,
            "every leaf compare is a candidate evaluation"
        );
        // Determinism: identical inputs give identical counters.
        assert_eq!(
            fast_match(&t1, &t2, MatchParams::default())
                .unwrap()
                .counters,
            c
        );
    }

    #[test]
    fn out_of_order_nodes_matched_by_fallback() {
        // Reversed sentences: the LCS keeps one; the fallback pass pairs the
        // rest. Everything still matches (Theorem 5.2's unique maximal
        // matching is order-independent).
        let t1 = doc(r#"(D (S "a") (S "b") (S "c"))"#);
        let t2 = doc(r#"(D (S "c") (S "b") (S "a"))"#);
        let res = fast_match(&t1, &t2, MatchParams::default()).unwrap();
        assert_eq!(res.matching.len(), 4);
        for x in t1.leaves() {
            let y = res.matching.partner1(x).unwrap();
            assert_eq!(t1.value(x), t2.value(y));
        }
    }

    #[test]
    fn moved_subtree_still_matches() {
        let t1 = doc(r#"(D (Sec (P (S "a") (S "b"))) (Sec (P (S "c"))))"#);
        let t2 = doc(r#"(D (Sec (P (S "c"))) (Sec (P (S "a") (S "b"))))"#);
        let res = fast_match(&t1, &t2, MatchParams::default()).unwrap();
        // Everything matches: 3 sentences, 2 paragraphs, 2 sections, root.
        assert_eq!(res.matching.len(), 8);
        let sec1 = t1.children(t1.root())[0];
        let sec2_in_t2 = t2.children(t2.root())[1];
        assert_eq!(res.matching.partner1(sec1), Some(sec2_in_t2));
    }

    #[test]
    fn empty_chain_labels_skipped() {
        let t1 = doc(r#"(D (S "a"))"#);
        let t2 = doc(r#"(D (P (S "a")))"#);
        // P exists only in t2; S chain matches; D roots match (1/1 common).
        let res = fast_match(&t1, &t2, MatchParams::default()).unwrap();
        assert_eq!(res.matching.len(), 2);
    }

    proptest::proptest! {
        /// Under Matching Criterion 3 (unique values ⇒ unique close
        /// counterpart), the maximal matching is unique (Theorem 5.2), so
        /// FastMatch and Match must produce the *same* matching.
        #[test]
        fn prop_fast_match_equals_match_under_criterion3(seed in 0u64..60) {
            use rand::{rngs::StdRng, Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            // Both trees draw distinct values from overlapping ranges, so no
            // tree contains duplicates (Criterion 3 holds for the exact-match
            // compare) but the trees share many sentences.
            let mk = |rng: &mut StdRng, start: usize| {
                let paras = rng.gen_range(1..5);
                let mut next = start;
                let mut s = String::from("(D ");
                for _ in 0..paras {
                    s.push_str("(P ");
                    for _ in 0..rng.gen_range(1..5) {
                        s.push_str(&format!("(S \"v{next}\") "));
                        next += 1;
                    }
                    s.push_str(") ");
                }
                s.push(')');
                s
            };
            let t1 = doc(&mk(&mut rng, 0));
            let offset = rng.gen_range(0..6);
            let t2 = doc(&mk(&mut rng, offset));
            let fast = fast_match(&t1, &t2, MatchParams::default()).unwrap();
            let simple = match_simple(&t1, &t2, MatchParams::default()).unwrap();
            proptest::prop_assert_eq!(fast.matching.len(), simple.matching.len());
            for (x, y) in simple.matching.iter() {
                proptest::prop_assert!(fast.matching.contains(x, y));
            }
        }
    }
}
