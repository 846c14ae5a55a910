//! Figure 13-style cost curves from the observability layer: the paper
//! plots matching time against document size at fixed churn; here the
//! recorded `DiffProfile` supplies the *machine-independent* work counters
//! (leaf compares `r1`, chain scans, Myers LCS cells, weighted distance
//! `e`) for the same sweep, plus wall-clock per phase for orientation.
//!
//! Emits one CSV row per document size on stdout, then asserts the
//! CI-checkable shape claims:
//!
//! 1. counters are identical across repeated runs (deterministic),
//! 2. leaf comparisons grow near-linearly with document size at fixed
//!    churn — the FastMatch `O((ne + e²)c)` promise with small `e` —
//!    far below the quadratic `Match` envelope,
//! 3. the batch aggregate over the sweep equals the sum of the per-run
//!    counters (the profile merge is lossless).
//!
//! Counter assertions hold in any build profile; wall-clock columns are
//! only meaningful in release. Exits non-zero if a claim fails.

// Harness code: a panic is how a test, bench or gate reports failure.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use hierdiff_core::{Audit, DiffProfile, Differ};
use hierdiff_workload::{generate_document, perturb, DocProfile, EditMix};

/// Fixed light churn, swept sizes — the "mostly unchanged revision"
/// scenario of the paper's experiments (~24 nodes per section).
const SECTIONS: [usize; 4] = [25, 50, 100, 425];
const EDITS: usize = 12;

fn run(sections: usize) -> (usize, DiffProfile) {
    let profile = DocProfile {
        sections,
        ..DocProfile::default()
    };
    let t1 = generate_document(13_000 + sections as u64, &profile);
    let (t2, _) = perturb(
        &t1,
        13_100 + sections as u64,
        EDITS,
        &EditMix::revision(),
        &profile,
    );
    let r = Differ::new()
        .audit(Audit::Off)
        .profile(true)
        .diff(&t1, &t2)
        .expect("profiled diff");
    (t1.len(), r.profile.expect("profile requested"))
}

fn main() {
    println!(
        "nodes,leaf_compares,partner_checks,chain_scans,lcs_cells,weighted_distance,\
         match_us,edit_script_us,delta_us"
    );
    let mut curve: Vec<(usize, DiffProfile)> = Vec::new();
    for sections in SECTIONS {
        let (nodes, profile) = run(sections);
        let us = |phase: &str| {
            profile
                .phase(phase)
                .map_or(0.0, |p| p.nanos as f64 / 1_000.0)
        };
        println!(
            "{nodes},{},{},{},{},{},{:.1},{:.1},{:.1}",
            profile.counter("leaf_compares"),
            profile.counter("partner_checks"),
            profile.counter("chain_scans"),
            profile.counter("lcs_cells"),
            profile.counter("weighted_distance"),
            us("match"),
            us("edit_script"),
            us("delta"),
        );
        curve.push((nodes, profile));
    }

    // Claim 1: determinism — re-running the largest size reproduces every
    // counter exactly.
    let (last_nodes, last_profile) = curve.last().expect("non-empty sweep");
    let (nodes_again, profile_again) = run(*SECTIONS.last().unwrap());
    assert_eq!(*last_nodes, nodes_again, "workload generation drifted");
    assert_eq!(
        last_profile.counters, profile_again.counters,
        "counters changed between identical runs"
    );

    // Claim 2: near-linear growth. Between the smallest and largest size,
    // leaf compares may grow at most 2× faster than the node count —
    // a quadratic matcher would grow ~(n2/n1)× faster.
    let (n1, p1) = &curve[0];
    let (n2, p2) = curve.last().unwrap();
    let node_ratio = *n2 as f64 / *n1 as f64;
    let compare_ratio =
        p2.counter("leaf_compares") as f64 / (p1.counter("leaf_compares") as f64).max(1.0);
    println!(
        "# growth: nodes x{node_ratio:.1}, leaf compares x{compare_ratio:.1} \
         (gate: <= x{:.1})",
        2.0 * node_ratio
    );
    assert!(
        compare_ratio <= 2.0 * node_ratio,
        "leaf compares grew x{compare_ratio:.1} over a x{node_ratio:.1} size increase — \
         superlinear matching cost"
    );

    // Claim 3: merging the per-size profiles loses nothing.
    let mut total = DiffProfile::default();
    for (_, p) in &curve {
        total.merge(p);
    }
    let by_hand: u64 = curve.iter().map(|(_, p)| p.counter("lcs_cells")).sum();
    assert_eq!(total.counter("lcs_cells"), by_hand, "merge dropped work");
    let entries: u64 = curve
        .iter()
        .filter_map(|(_, p)| p.phase("match"))
        .map(|t| t.entries)
        .sum();
    assert_eq!(
        total.phase("match").expect("merged match phase").entries,
        entries,
        "merge dropped phase entries"
    );

    println!("# profile_curves: all shape claims hold");
}
