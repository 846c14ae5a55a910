//! Wall-time companion to the Figure 13 comparison-count experiments:
//! FastMatch cost as the weighted edit distance e grows at fixed document
//! size (the paper's "running time proportional to ... the number of
//! changes" claim).

// Harness code: a panic is how a test, bench or gate reports failure.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hierdiff_matching::{fast_match, MatchParams};
use hierdiff_workload::{generate_document, perturb, DocProfile, EditMix};

fn bench_fastmatch_vs_e(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig13/fastmatch-vs-edits");
    let profile = DocProfile::default();
    let t1 = generate_document(81, &profile);
    for &edits in &[2usize, 8, 32, 96] {
        let (t2, _) = perturb(&t1, 82, edits, &EditMix::revision(), &profile);
        g.bench_with_input(BenchmarkId::from_parameter(edits), &edits, |bench, _| {
            bench.iter(|| {
                fast_match(&t1, &t2, MatchParams::default())
                    .unwrap()
                    .counters
                    .total()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_fastmatch_vs_e);
criterion_main!(benches);
