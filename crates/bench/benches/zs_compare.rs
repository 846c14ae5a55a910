//! E5 bench: the Section 2 comparison — Chawathe FastMatch+EditScript
//! (O(ne + e²)) vs Zhang–Shasha (O(n² log² n)). The crossover and the
//! growth-rate gap are the paper's headline positioning claim.

// Harness code: a panic is how a test, bench or gate reports failure.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hierdiff_edit::edit_script;
use hierdiff_matching::{fast_match, MatchParams};
use hierdiff_workload::{generate_document, perturb, DocProfile, EditMix};
use hierdiff_zs::{tree_distance, UnitCost};

fn bench_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("chawathe_vs_zs");
    g.sample_size(10);
    for &sections in &[1usize, 3, 6, 12] {
        let profile = DocProfile {
            sections,
            ..DocProfile::default()
        };
        let t1 = generate_document(71, &profile);
        let (t2, _) = perturb(&t1, 72, 8, &EditMix::default(), &profile);
        let nodes = t1.len();
        g.bench_with_input(BenchmarkId::new("chawathe", nodes), &nodes, |bench, _| {
            bench.iter(|| {
                let m = fast_match(&t1, &t2, MatchParams::default()).unwrap();
                edit_script(&t1, &t2, &m.matching).unwrap().script.len()
            })
        });
        g.bench_with_input(BenchmarkId::new("zs89", nodes), &nodes, |bench, _| {
            bench.iter(|| tree_distance(&t1, &t2, &UnitCost))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_scaling);
criterion_main!(benches);
