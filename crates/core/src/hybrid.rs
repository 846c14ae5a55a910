//! The paper's future-work item `A(k)` (Section 9): "a parameterized
//! algorithm A(k) where the parameter k specifies the desired level of
//! optimality" — trading running time for delta compactness.
//!
//! We realize the spectrum the paper sketches between its two endpoints:
//!
//! * `k = 0` — plain *FastMatch*: fastest, optimal only under Matching
//!   Criterion 3.
//! * `k = 1` — FastMatch + the Section 8 post-processing pass: repairs
//!   stray and swapped matches among siblings.
//! * `k ≥ 2` — additionally refine with the *exact* Zhang–Shasha mapping on
//!   every matched subtree pair of size ≤ `zs_budget(k)` that still
//!   contains unmatched nodes. This is the `[Zha95]` "best matching by
//!   post-processing the output of [ZS89]" idea, applied locally where it
//!   is affordable: ZS is quadratic, so the budget caps the damage while
//!   recovering optimality exactly where FastMatch went wrong.

use hierdiff_audit::{audit_matching, AuditReport};
use hierdiff_edit::Matching;
use hierdiff_matching::{fast_match, postprocess, MatchCounters, MatchError, MatchParams};
use hierdiff_tree::{NodeId, NodeValue, Tree};
use hierdiff_zs::{tree_mapping, UnitCost};

/// Result of [`match_with_optimality`].
pub struct HybridMatch {
    /// The refined matching.
    pub matching: Matching,
    /// FastMatch's comparison counters.
    pub counters: MatchCounters,
    /// Nodes re-matched by the post-processing pass (`k ≥ 1`).
    pub rematched: usize,
    /// Pairs adopted from local ZS refinements (`k ≥ 2`).
    pub zs_adopted: usize,
    /// Number of subtree pairs ZS was run on.
    pub zs_runs: usize,
    /// Validity audit of the refined matching (ZS adoption must preserve
    /// the §3.1 matching invariants), when the build-profile default
    /// enables auditing. Always clean unless the refinement has a bug.
    pub audit: Option<AuditReport>,
}

/// Maximum subtree size (nodes per side) the ZS refinement will touch at
/// level `k`: doubles per level above 2, starting at 16.
pub fn zs_budget(k: u32) -> usize {
    if k < 2 {
        0
    } else {
        16usize.saturating_mul(1 << (k - 2).min(12))
    }
}

/// The `A(k)` matcher (see module docs).
pub fn match_with_optimality<V: NodeValue>(
    t1: &Tree<V>,
    t2: &Tree<V>,
    params: MatchParams,
    k: u32,
) -> Result<HybridMatch, MatchError> {
    let base = fast_match(t1, t2, params)?;
    let mut matching = base.matching;
    let mut rematched = 0;
    if k >= 1 {
        rematched = postprocess(t1, t2, params, &mut matching)?;
    }
    let mut zs_adopted = 0;
    let mut zs_runs = 0;
    if k >= 2 {
        let budget = zs_budget(k);
        // Candidate regions: matched internal pairs whose subtrees are
        // small and still contain unmatched nodes on either side.
        let candidates: Vec<(NodeId, NodeId)> = matching
            .iter()
            .filter(|&(x, y)| !t1.is_leaf(x) || !t2.is_leaf(y))
            .collect();
        for (x, y) in candidates {
            let s1 = t1.subtree_size(x);
            let s2 = t2.subtree_size(y);
            if s1 > budget || s2 > budget {
                continue;
            }
            let unmatched1 = t1.descendants(x).any(|d| matching.partner1(d).is_none());
            let unmatched2 = t2.descendants(y).any(|d| matching.partner2(d).is_none());
            if !unmatched1 && !unmatched2 {
                continue;
            }
            // Exact mapping on the extracted subtree pair.
            let (sub1, map1) = t1.extract_subtree(x);
            let (sub2, map2) = t2.extract_subtree(y);
            zs_runs += 1;
            let zs = tree_mapping(&sub1, &sub2, &UnitCost);
            for (a, b) in zs.iter() {
                let (Some(&orig1), Some(&orig2)) = (map1.get(a.index()), map2.get(b.index()))
                else {
                    continue;
                };
                if t1.label(orig1) != t2.label(orig2) {
                    continue; // the paper's ops cannot relabel
                }
                if matching.partner1(orig1).is_none()
                    && matching.partner2(orig2).is_none()
                    && matching.insert(orig1, orig2).is_ok()
                {
                    zs_adopted += 1;
                }
            }
        }
    }
    let audit = crate::audit_default().then(|| audit_matching(t1, t2, &matching));
    Ok(HybridMatch {
        matching,
        counters: base.counters,
        rematched,
        zs_adopted,
        zs_runs,
        audit,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hierdiff_edit::{edit_script, CostModel};
    use hierdiff_tree::Tree;

    fn doc(s: &str) -> Tree<String> {
        Tree::parse_sexpr(s).unwrap()
    }

    #[test]
    fn budget_schedule() {
        assert_eq!(zs_budget(0), 0);
        assert_eq!(zs_budget(1), 0);
        assert_eq!(zs_budget(2), 16);
        assert_eq!(zs_budget(3), 32);
        assert_eq!(zs_budget(4), 64);
    }

    #[test]
    fn k0_equals_fastmatch() {
        let t1 = doc(r#"(D (P (S "a") (S "b")) (P (S "c")))"#);
        let t2 = doc(r#"(D (P (S "c")) (P (S "a") (S "b")))"#);
        let h = match_with_optimality(&t1, &t2, MatchParams::default(), 0).unwrap();
        let f = hierdiff_matching::fast_match(&t1, &t2, MatchParams::default()).unwrap();
        assert_eq!(h.matching.len(), f.matching.len());
        assert_eq!(h.rematched, 0);
        assert_eq!(h.zs_runs, 0);
    }

    /// FastMatch leaves heavily reworded sentences unmatched (compare > f);
    /// the ZS refinement pairs them exactly, shortening the script.
    #[test]
    fn zs_refinement_recovers_reworded_leaves() {
        // Sentences rewritten beyond the f = 0.5 bar but structurally in
        // place: FastMatch (String compare is exact) can't match them.
        let t1 = doc(
            r#"(D (P (S "anchor one") (S "totally original phrasing here") (S "anchor two")))"#,
        );
        let t2 = doc(
            r#"(D (P (S "anchor one") (S "completely different wording now") (S "anchor two")))"#,
        );
        let fast = match_with_optimality(&t1, &t2, MatchParams::default(), 0).unwrap();
        let refined = match_with_optimality(&t1, &t2, MatchParams::default(), 2).unwrap();
        assert!(refined.matching.len() > fast.matching.len());
        assert!(refined.zs_adopted >= 1);

        // The refined matching yields a cheaper-or-equal script: one update
        // (cost 2 under exact compare) vs delete+insert (cost 2)... under
        // unit ops the *count* shrinks from 2 ops to 1.
        let r_fast = edit_script(&t1, &t2, &fast.matching).unwrap();
        let r_ref = edit_script(&t1, &t2, &refined.matching).unwrap();
        assert!(
            r_ref.script.len() < r_fast.script.len(),
            "{} !< {}",
            r_ref.script.len(),
            r_fast.script.len()
        );
        let c_fast = r_fast.cost_on(&t1, &CostModel::paper()).unwrap();
        let c_ref = r_ref.cost_on(&t1, &CostModel::paper()).unwrap();
        assert!(c_ref <= c_fast);
    }

    #[test]
    fn budget_gates_zs_runs() {
        // A big subtree (> 16 nodes per side) is skipped at k = 2.
        let body: Vec<String> = (0..30).map(|i| format!("(S \"u{i}\")")).collect();
        let t1 = doc(&format!(
            "(D (P {} (S \"changed a lot once\")))",
            body.join(" ")
        ));
        let t2 = doc(&format!(
            "(D (P {} (S \"rewritten fully now\")))",
            body.join(" ")
        ));
        let k2 = match_with_optimality(&t1, &t2, MatchParams::default(), 2).unwrap();
        assert_eq!(k2.zs_runs, 0, "31-node paragraph exceeds the k=2 budget");
        let k4 = match_with_optimality(&t1, &t2, MatchParams::default(), 4).unwrap();
        assert!(k4.zs_runs > 0);
        assert!(k4.zs_adopted >= 1);
    }

    #[test]
    fn refinement_never_shrinks_matching() {
        let t1 = doc(r#"(D (P (S "a") (S "x1")) (P (S "b") (S "x2")))"#);
        let t2 = doc(r#"(D (P (S "a") (S "y1")) (P (S "b") (S "y2")))"#);
        let mut last = 0;
        for k in 0..4 {
            let h = match_with_optimality(&t1, &t2, MatchParams::default(), k).unwrap();
            assert!(h.matching.len() >= last, "k={k}");
            last = h.matching.len();
        }
    }
}
