//! Algorithm Match (Fig. 10) vs Algorithm FastMatch (Fig. 11): the paper's
//! central performance claim — FastMatch's LCS pre-pass makes matching
//! near-linear when versions are similar, while Match is quadratic in the
//! leaf count.

// Harness code: a panic is how a test, bench or gate reports failure.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hierdiff_matching::{fast_match, match_simple, MatchParams};
use hierdiff_workload::{generate_document, perturb, DocProfile, EditMix};

fn bench_matchers(c: &mut Criterion) {
    let mut g = c.benchmark_group("matching");
    for &sections in &[2usize, 6, 18] {
        let profile = DocProfile {
            sections,
            ..DocProfile::default()
        };
        let t1 = generate_document(51, &profile);
        let (t2, _) = perturb(&t1, 52, 10, &EditMix::default(), &profile);
        let n = t1.leaves().count() + t2.leaves().count();
        g.bench_with_input(BenchmarkId::new("fastmatch", n), &n, |bench, _| {
            bench.iter(|| {
                fast_match(&t1, &t2, MatchParams::default())
                    .unwrap()
                    .matching
                    .len()
            })
        });
        g.bench_with_input(BenchmarkId::new("match", n), &n, |bench, _| {
            bench.iter(|| {
                match_simple(&t1, &t2, MatchParams::default())
                    .unwrap()
                    .matching
                    .len()
            })
        });
    }
    g.finish();
}

fn bench_dissimilar_inputs(c: &mut Criterion) {
    // Completely unrelated documents: FastMatch's LCS pre-pass cannot help,
    // so the two should converge — the honest worst case.
    let mut g = c.benchmark_group("matching/dissimilar");
    let profile = DocProfile::default();
    let t1 = generate_document(61, &profile);
    let t2 = generate_document(9_999_961, &profile);
    g.bench_function("fastmatch", |bench| {
        bench.iter(|| {
            fast_match(&t1, &t2, MatchParams::default())
                .unwrap()
                .matching
                .len()
        })
    });
    g.bench_function("match", |bench| {
        bench.iter(|| {
            match_simple(&t1, &t2, MatchParams::default())
                .unwrap()
                .matching
                .len()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_matchers, bench_dissimilar_inputs);
criterion_main!(benches);
