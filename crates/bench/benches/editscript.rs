//! E6 bench: Algorithm EditScript's O(ND) behaviour — time vs the number of
//! misaligned nodes D at fixed N (Theorem C.2).

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

fn bench_moves_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("editscript/moves");
    let profile = DocProfile::default();
    let t1 = generate_document(31, &profile);
    for &moves in &[0usize, 8, 32, 128] {
        let (t2, _) = perturb(
            &t1,
            32 + moves as u64,
            moves,
            &EditMix::moves_only(),
            &profile,
        );
        let matched = fast_match(&t1, &t2, MatchParams::default()).unwrap();
        g.bench_with_input(BenchmarkId::from_parameter(moves), &moves, |bench, _| {
            bench.iter(|| {
                edit_script(&t1, &t2, &matched.matching)
                    .unwrap()
                    .script
                    .len()
            })
        });
    }
    g.finish();
}

fn bench_size_sweep(c: &mut Criterion) {
    // Fixed edit count, growing N: time should grow ~linearly.
    let mut g = c.benchmark_group("editscript/size");
    for &sections in &[2usize, 8, 32] {
        let profile = DocProfile {
            sections,
            ..DocProfile::default()
        };
        let t1 = generate_document(41, &profile);
        let (t2, _) = perturb(&t1, 42, 8, &EditMix::default(), &profile);
        let matched = fast_match(&t1, &t2, MatchParams::default()).unwrap();
        g.bench_with_input(
            BenchmarkId::from_parameter(t1.len()),
            &sections,
            |bench, _| {
                bench.iter(|| {
                    edit_script(&t1, &t2, &matched.matching)
                        .unwrap()
                        .script
                        .len()
                })
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_moves_sweep, bench_size_sweep);
criterion_main!(benches);
