//! The pair workloads: `ladiff-large`, `dense-fastmatch` and
//! `dense-gumtree`. Each diffs generated LaTeX document pairs in a closed
//! loop with one caller.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use hierdiff_core::Differ;
use hierdiff_doc::{labels, parse_latex, DocValue};
use hierdiff_tree::{isomorphic, NodeId, Tree};
use hierdiff_workload::{generate_document, perturb, render_latex_source, DocProfile, EditMix};

use crate::report::Report;
use crate::spans::{Trace, Tracer};
use crate::stages::{outcome, replay, replays_to, Pipeline};
use crate::stats::{mean, median};
use crate::{add_layers, mix, peak_rss_mb, Args, SETUP_REPS};

/// The shape of one pair workload's inputs.
pub struct PairSpec {
    /// Sections per generated document.
    pub sections: usize,
    /// Distinct document pairs diffed in turn.
    pub pairs: usize,
    pub pipeline: Pipeline,
}

/// Revision edits between the two versions of a pair.
const EDITS: usize = 24;

/// The generated inputs: each pair's two versions as LaTeX source, and
/// the trees the generator produced (the round-trip reference).
struct Inputs {
    sources: Vec<(String, String)>,
    generated: Vec<Pair>,
}

/// A document's old and new version.
type Pair = (Tree<DocValue>, Tree<DocValue>);

fn generate(spec: &PairSpec, seed: u64) -> Inputs {
    let profile = DocProfile {
        sections: spec.sections,
        ..DocProfile::default()
    };
    let mut sources = Vec::new();
    let mut generated = Vec::new();
    for i in 0..spec.pairs as u64 {
        let t1 = generate_document(mix(seed, 2 * i), &profile);
        let (t2, _) = perturb(
            &t1,
            mix(seed, 2 * i + 1),
            EDITS,
            &EditMix::revision(),
            &profile,
        );
        sources.push((render_latex_source(&t1), render_latex_source(&t2)));
        generated.push((t1, t2));
    }
    Inputs { sources, generated }
}

/// The generated tree as LaTeX can express it, and how many nodes that
/// dropped. `perturb` can leave a paragraph with no sentences; it renders
/// to no text, so no parse of the source can contain it.
fn expressible(t: &Tree<DocValue>) -> (Tree<DocValue>, usize) {
    let empty: Vec<NodeId> = t
        .preorder()
        .filter(|&id| t.label(id) == labels::paragraph() && t.is_leaf(id))
        .collect();
    let mut out = t.clone();
    for &id in &empty {
        out.delete_leaf(id).expect("an empty paragraph is a leaf");
    }
    (out, empty.len())
}

/// The program's set-up: parse every version. Repeated [`SETUP_REPS`]
/// times; returns the last parse and each repetition's seconds.
fn set_up(inputs: &Inputs, tr: &mut Tracer) -> (Vec<Pair>, Vec<f64>) {
    let mut times = Vec::new();
    let mut parsed = Vec::new();
    let mut op = 1u64 << 40;
    for _ in 0..SETUP_REPS {
        parsed.clear();
        let start = Instant::now();
        for (a, b) in &inputs.sources {
            let mut parse = |src: &str| {
                op += 1;
                tr.begin_op(op);
                tr.span("doc.parse", |_| parse_latex(src))
            };
            let pair = (parse(a), parse(b));
            parsed.push(pair);
        }
        times.push(start.elapsed().as_secs_f64());
    }
    (parsed, times)
}

fn differ(spec: &PairSpec) -> Differ<'static> {
    Differ::new().strategy(spec.pipeline.strategy())
}

/// Runs the workload: diffs the pairs in turn until `--seconds` have
/// passed and every pair has been diffed at least once. The first diff of
/// each pair is checked (outside the timed part) and fixes the outcome
/// every later diff of it must repeat. The traced run follows each diff
/// with its stage replay (span `op.replay`), which must agree.
pub fn run(spec: &PairSpec, args: &Args) -> Report {
    let mut report = Report::default();
    let inputs = generate(spec, args.seed);
    let mut tr = if args.trace {
        Tracer::new(Instant::now())
    } else {
        Tracer::disabled()
    };
    let (parsed, setup) = set_up(&inputs, &mut tr);
    let mut dropped = 0;
    for (i, ((t1, t2), (g1, g2))) in parsed.iter().zip(&inputs.generated).enumerate() {
        let (g1, d1) = expressible(g1);
        let (g2, d2) = expressible(g2);
        dropped += d1 + d2;
        report.check(isomorphic(t1, &g1) && isomorphic(t2, &g2), || {
            format!("pair {i}: LaTeX round trip is not isomorphic to the generated tree")
        });
    }
    let nodes: Vec<f64> = parsed.iter().map(|(t1, _)| t1.len() as f64).collect();
    println!(
        "workload {} seed {}: {} distinct pairs, {:.0} nodes per old version (mean), \
         {} edits per pair, closed loop, 1 caller; {dropped} empty generated paragraph(s) \
         not expressible in LaTeX",
        args.workload,
        args.seed,
        parsed.len(),
        mean(&nodes),
        EDITS
    );

    let n = parsed.len();
    let mut expected: Vec<Option<(usize, usize)>> = vec![None; n];
    let mut counts: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut lat_ms = Vec::new();
    let mut untimed = Duration::ZERO;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(args.seconds);
    let mut i = 0;
    while i < n || Instant::now() < deadline {
        let pair = i % n;
        let (t1, t2) = &parsed[pair];
        tr.begin_op(i as u64);
        let t = Instant::now();
        let result = tr.span("core.diff", |_| differ(spec).diff(t1, t2));
        lat_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let checks = Instant::now();
        report.attempted += 1;
        match &result {
            Err(_) => report.failed += 1,
            Ok(r) => {
                let got = outcome(r);
                let first = expected[pair].is_none();
                if first {
                    report.check(replays_to(&r.mces, t1, t2), || {
                        format!("pair {pair}: script does not replay T1 into T2")
                    });
                    expected[pair] = Some(got);
                }
                report.check(expected[pair] == Some(got), || {
                    format!("pair {pair}: script differs between diffs of the same pair")
                });
                if args.trace {
                    let replayed =
                        tr.span("op.replay", |tr| replay(tr, &spec.pipeline, t1, t2, None));
                    report.check((replayed.script_len, replayed.weighted) == got, || {
                        format!("pair {pair}: stage replay disagrees with Differ::diff")
                    });
                    if first {
                        for (name, v) in replayed.counts {
                            counts.entry(name).or_default().push(v);
                        }
                    }
                }
            }
        }
        drop(result);
        untimed += checks.elapsed();
        i += 1;
    }
    let elapsed = (start.elapsed() - untimed).as_secs_f64();

    let ok = report.attempted - report.failed;
    report.add("setup_s", median(&setup), "s", setup.len());
    report.add("ops_per_s", ok as f64 / elapsed, "1/s", ok as usize);
    report.add_latencies("latency", &lat_ms, &[50.0, 90.0]);
    report.add(
        "failed_frac",
        report.failed as f64 / report.attempted as f64,
        "ratio",
        report.attempted as usize,
    );
    let done: Vec<(usize, usize)> = expected.iter().flatten().copied().collect();
    let lens: Vec<f64> = done.iter().map(|e| e.0 as f64).collect();
    let costs: Vec<f64> = done.iter().map(|e| e.1 as f64).collect();
    report.add("script_len", mean(&lens), "ops", lens.len());
    report.add("script_cost", mean(&costs), "cost", costs.len());
    if args.trace {
        let trace = Trace {
            parts: vec![tr.into_spans()],
        };
        add_layers(&mut report, &trace, &counts, None);
        crate::write_spans(&trace, &args.workload);
    }
    report.add("peak_rss_mb", peak_rss_mb(), "MB", 1);
    report
}
