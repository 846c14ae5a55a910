//! The `serve-chain` workload: the versioned diff service under a closed
//! loop of two callers that read (diff) pre-ingested version chains and,
//! about one op in twenty, ingest a new chain.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use hierdiff_core::{DiffResult, Differ};
use hierdiff_doc::DocValue;
use hierdiff_edit::Matching;
use hierdiff_matching::PruneStats;
use hierdiff_serve::{DiffService, Rung, ServeConfig, ServeReport};
use hierdiff_tree::{FingerprintIndex, Tree};
use hierdiff_workload::{
    generate_docset, generate_trace, DocProfile, DocSetProfile, EditMix, TraceProfile, TraceRequest,
};

use crate::report::Report;
use crate::spans::{Trace, Tracer};
use crate::stages::{outcome, prune, replay, replays_to, Pipeline};
use crate::stats::{mean, median};
use crate::{add_layers, mix, peak_rss_mb, Args, SETUP_REPS};

/// Caller threads (the box's `nproc`).
const CALLERS: usize = 2;
/// Seeded chains ingested at set-up beside the three paper docsets.
const EXTRA_CHAINS: usize = 200;
/// Pre-generated chains the write ops ingest in turn.
const WRITE_POOL: usize = 16;
/// Document names the write ops cycle through (never read).
const WRITE_NAMES: usize = 8;
/// Every `WRITE_EVERY`-th op is an ingest.
const WRITE_EVERY: u64 = 20;
/// Read requests in the seeded trace the callers cycle through.
const TRACE_LEN: usize = 4096;

fn chain_profile(seed: u64) -> DocSetProfile {
    DocSetProfile {
        seed,
        doc: DocProfile::default(),
        versions: 6,
        edits_per_version: (4, 14),
        mix: EditMix::revision(),
    }
}

fn read_name(doc: usize) -> String {
    format!("set{doc}")
}

/// The generated inputs.
struct Inputs {
    /// Chains ingested at set-up; reads target only these.
    chains: Vec<Vec<Tree<DocValue>>>,
    /// Chains the write ops ingest.
    writes: Vec<Vec<Tree<DocValue>>>,
    trace: Vec<TraceRequest>,
}

fn generate(seed: u64) -> Inputs {
    let mut profiles: Vec<DocSetProfile> = DocSetProfile::paper_sets().to_vec();
    profiles.extend((0..EXTRA_CHAINS as u64).map(|i| chain_profile(mix(seed, 100 + i))));
    let chains: Vec<Vec<Tree<DocValue>>> = profiles
        .iter()
        .map(|p| generate_docset(p).versions)
        .collect();
    let writes = (0..WRITE_POOL as u64)
        .map(|i| generate_docset(&chain_profile(mix(seed, 10_000 + i))).versions)
        .collect();
    let lens: Vec<usize> = chains.iter().map(Vec::len).collect();
    let trace = generate_trace(
        &TraceProfile {
            seed: mix(seed, 7),
            requests: TRACE_LEN,
            adjacent_pct: 70,
        },
        &lens,
    );
    Inputs {
        chains,
        writes,
        trace,
    }
}

/// Op `j` of the loop: a write every [`WRITE_EVERY`] ops, else a read.
enum Op<'a> {
    Read(&'a TraceRequest),
    Write(usize),
}

fn op(inputs: &Inputs, j: u64) -> Op<'_> {
    if j % WRITE_EVERY == WRITE_EVERY - 1 {
        Op::Write((j / WRITE_EVERY) as usize)
    } else {
        Op::Read(&inputs.trace[j as usize % inputs.trace.len()])
    }
}

fn set_up(inputs: &Inputs) -> (DiffService, Vec<f64>) {
    let mut times = Vec::new();
    let mut service = None;
    for _ in 0..SETUP_REPS {
        drop(service.take());
        let chains = inputs.chains.clone();
        let start = Instant::now();
        let s = DiffService::new(ServeConfig::default().with_ladder(vec![Rung::FastMatch]));
        for (doc, versions) in chains.into_iter().enumerate() {
            s.ingest(&read_name(doc), versions);
        }
        times.push(start.elapsed().as_secs_f64());
        service = Some(s);
    }
    (service.expect("at least one set-up"), times)
}

/// Per-version fingerprint indexes of the read chains, as the service's
/// cache holds them; the direct pipeline prunes from these.
fn indexes(inputs: &Inputs) -> Vec<Vec<FingerprintIndex>> {
    inputs
        .chains
        .iter()
        .map(|c| c.iter().map(FingerprintIndex::build).collect())
        .collect()
}

type PairKey = (usize, usize, usize);

fn key(r: &TraceRequest) -> PairKey {
    (r.doc, r.old, r.new)
}

/// What one caller saw.
#[derive(Default)]
struct Caller {
    read_ms: Vec<f64>,
    write_ms: Vec<f64>,
    reads: u64,
    writes: u64,
    failed: u64,
    /// Script lengths served, per distinct pair.
    served: BTreeMap<PairKey, BTreeSet<usize>>,
    /// Stage-replay counts, per distinct pair (traced run).
    counts: BTreeMap<PairKey, Vec<(&'static str, f64)>>,
    spans: Vec<crate::spans::Span>,
    /// Failed output checks.
    mismatches: Vec<String>,
}

/// The direct pipeline the service's FastMatch rung runs for one pair:
/// prune from the cached indexes, then `Differ` from that seed.
fn direct(
    tr: &mut Tracer,
    inputs: &Inputs,
    idx: &[Vec<FingerprintIndex>],
    k: PairKey,
) -> (Matching, PruneStats, DiffResult<DocValue>) {
    let (doc, old, new) = k;
    let (t1, t2) = (&inputs.chains[doc][old], &inputs.chains[doc][new]);
    let (seed, stats) = prune(tr, t1, &idx[doc][old], t2, &idx[doc][new]);
    let given = seed.clone();
    let r = tr
        .span("core.diff", |_| {
            Differ::new()
                .strategy(Pipeline::Seeded.strategy())
                .prune_seed(given)
                .diff(t1, t2)
        })
        .expect("the direct pipeline accepts generated documents");
    (seed, stats, r)
}

fn caller(
    service: &DiffService,
    inputs: &Inputs,
    idx: &[Vec<FingerprintIndex>],
    next: &AtomicU64,
    deadline: Instant,
    epoch: Instant,
    traced: bool,
) -> Caller {
    let mut me = Caller::default();
    let mut tr = if traced {
        Tracer::new(epoch)
    } else {
        Tracer::disabled()
    };
    loop {
        let j = next.fetch_add(1, Ordering::Relaxed);
        // Every run makes at least one pass over the trace.
        if j >= inputs.trace.len() as u64 && Instant::now() >= deadline {
            break;
        }
        tr.begin_op(j);
        match op(inputs, j) {
            Op::Read(req) => {
                me.reads += 1;
                let t = Instant::now();
                let resp = tr.span("serve.request", |_| {
                    service.diff(&read_name(req.doc), req.old, req.new)
                });
                let ms = t.elapsed().as_secs_f64() * 1e3;
                let Ok(resp) = resp else {
                    me.failed += 1;
                    continue;
                };
                me.read_ms.push(ms);
                me.served
                    .entry(key(req))
                    .or_default()
                    .insert(resp.script_len);
                if traced {
                    let (seed, stats, r) =
                        tr.span("serve.pipeline", |tr| direct(tr, inputs, idx, key(req)));
                    let want = outcome(&r);
                    drop(r);
                    let (t1, t2) = (
                        &inputs.chains[req.doc][req.old],
                        &inputs.chains[req.doc][req.new],
                    );
                    let got = tr.span("op.replay", |tr| {
                        replay(tr, &Pipeline::Seeded, t1, t2, Some((seed, stats)))
                    });
                    if (got.script_len, got.weighted) != want {
                        me.mismatches.push(format!(
                            "{:?}: stage replay disagrees with Differ::diff",
                            key(req)
                        ));
                    }
                    me.counts.entry(key(req)).or_insert(got.counts);
                }
            }
            Op::Write(w) => {
                me.writes += 1;
                let chain = inputs.writes[w % WRITE_POOL].clone();
                let name = format!("write{}", w % WRITE_NAMES);
                let t = Instant::now();
                tr.span("serve.ingest", |_| service.ingest(&name, chain));
                me.write_ms.push(t.elapsed().as_secs_f64() * 1e3);
                if traced {
                    tr.span("ingest.replay", |tr| {
                        for v in &inputs.writes[w % WRITE_POOL] {
                            tr.span("tree.index", |_| FingerprintIndex::build(v));
                        }
                    });
                }
            }
        }
    }
    me.spans = tr.into_spans();
    me
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let inputs = generate(args.seed);
    let (service, setup) = set_up(&inputs);
    let idx = indexes(&inputs);
    let nodes: usize = inputs.chains.iter().flatten().map(Tree::len).sum();
    println!(
        "workload {} seed {}: {} chains ({} versions, {nodes} nodes) ingested at set-up, \
         trace of {} reads (70% adjacent) with 1 ingest per {WRITE_EVERY} ops, \
         closed loop, {CALLERS} callers, {} service workers, available parallelism {}",
        args.workload,
        args.seed,
        inputs.chains.len(),
        inputs.chains.iter().map(Vec::len).sum::<usize>(),
        inputs.trace.len(),
        ServeConfig::default().workers,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let next = AtomicU64::new(0);
    let epoch = Instant::now();
    let deadline = epoch + Duration::from_secs_f64(args.seconds);
    let callers: Vec<Caller> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CALLERS)
            .map(|_| {
                s.spawn(|| caller(&service, &inputs, &idx, &next, deadline, epoch, args.trace))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("caller thread panicked"))
            .collect()
    });
    let elapsed = epoch.elapsed().as_secs_f64();
    let served = service.report();
    drop(service);

    let read_ms: Vec<f64> = callers.iter().flat_map(|c| c.read_ms.clone()).collect();
    let write_ms: Vec<f64> = callers.iter().flat_map(|c| c.write_ms.clone()).collect();
    let reads: u64 = callers.iter().map(|c| c.reads).sum();
    let writes: u64 = callers.iter().map(|c| c.writes).sum();
    let failed: u64 = callers.iter().map(|c| c.failed).sum();
    report.attempted = reads + writes;
    report.failed = failed;

    check(&inputs, &idx, &callers, &served, reads, failed, &mut report);

    report.add("setup_s", median(&setup), "s", setup.len());
    report.add(
        "ops_per_s",
        (reads - failed) as f64 / elapsed,
        "1/s",
        (reads - failed) as usize,
    );
    report.add_latencies("latency", &read_ms, &[50.0, 90.0, 99.0]);
    report.add_latencies("ingest", &write_ms, &[50.0, 90.0]);
    report.add(
        "failed_frac",
        failed as f64 / report.attempted.max(1) as f64,
        "ratio",
        report.attempted as usize,
    );
    if args.trace {
        let mut counts: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let mut distinct: BTreeMap<PairKey, &Vec<(&'static str, f64)>> = BTreeMap::new();
        for c in &callers {
            for (k, v) in &c.counts {
                distinct.entry(*k).or_insert(v);
            }
        }
        for v in distinct.values() {
            for &(name, x) in v.iter() {
                counts.entry(name).or_default().push(x);
            }
        }
        let trace = Trace {
            parts: callers.into_iter().map(|c| c.spans).collect(),
        };
        add_layers(&mut report, &trace, &counts, Some(&served));
        crate::write_spans(&trace, &args.workload);
    }
    report.add("peak_rss_mb", peak_rss_mb(), "MB", 1);
    report
}

/// The output checks: every served script matches the direct pipeline's
/// for its pair, every distinct pair's script replays T1 into T2, and the
/// service accounts for every request. Adds `script_len` and
/// `script_cost` over the trace's distinct pairs.
fn check(
    inputs: &Inputs,
    idx: &[Vec<FingerprintIndex>],
    callers: &[Caller],
    served: &ServeReport,
    reads: u64,
    failed: u64,
    report: &mut Report,
) {
    let mut tr = Tracer::disabled();
    let pairs: BTreeSet<PairKey> = inputs.trace.iter().map(key).collect();
    let mut lens = Vec::new();
    let mut costs = Vec::new();
    for &k in &pairs {
        let (doc, old, new) = k;
        let (t1, t2) = (&inputs.chains[doc][old], &inputs.chains[doc][new]);
        let (_, _, r) = direct(&mut tr, inputs, idx, k);
        let want = outcome(&r);
        report.check(replays_to(&r.mces, t1, t2), || {
            format!("{k:?}: script does not replay T1 into T2")
        });
        let mut seen = BTreeSet::new();
        for c in callers {
            seen.extend(c.served.get(&k).into_iter().flatten().copied());
        }
        report.check(seen.iter().all(|&len| len == want.0), || {
            format!(
                "{k:?}: served script lengths {seen:?}, direct pipeline {}",
                want.0
            )
        });
        lens.push(want.0 as f64);
        costs.push(want.1 as f64);
    }
    for c in callers {
        for m in &c.mismatches {
            report.check(false, || m.clone());
        }
    }
    report.check(served.requests == reads, || {
        format!(
            "service saw {} requests, callers sent {reads}",
            served.requests
        )
    });
    report.check(served.ok + failed == reads, || {
        format!(
            "service ok {} + failed {failed} != attempted {reads}",
            served.ok
        )
    });
    report.check(served.cache_misses == 0, || {
        format!(
            "{} cache misses on pre-ingested chains",
            served.cache_misses
        )
    });
    report.add("script_len", mean(&lens), "ops", lens.len());
    report.add("script_cost", mean(&costs), "cost", costs.len());
}
