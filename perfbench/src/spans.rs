//! In-memory spans for the traced run. Each caller thread owns a
//! [`Tracer`]; spans are recorded around calls into the program's public
//! functions, kept in memory, and written out once the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::stats::{median, self_time};

/// One timed call into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// The op (diff or ingest) the span belongs to.
    pub op: u64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A per-thread span recorder. A disabled tracer records nothing and
/// only runs the closures it is given.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch` (shared by all
    /// callers of one run so their spans line up).
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            on: true,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// A tracer that records nothing.
    pub fn disabled() -> Tracer {
        Tracer {
            on: false,
            ..Tracer::new(Instant::now())
        }
    }

    /// Starts attributing spans to op `op`.
    pub fn begin_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans opened inside `f` become
    /// its children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now();
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// All spans of a run, merged from the callers' tracers.
pub struct Trace {
    /// Spans per tracer; parent indexes refer within one tracer.
    pub parts: Vec<Vec<Span>>,
}

impl Trace {
    fn all(&self) -> impl Iterator<Item = &Span> {
        self.parts.iter().flatten()
    }

    /// Per op, the total nanoseconds spent in spans named `name`, for the
    /// ops that entered it at all.
    pub fn per_op(&self, name: &str) -> BTreeMap<u64, u64> {
        let mut out = BTreeMap::new();
        for s in self.all().filter(|s| s.name == name) {
            *out.entry(s.op).or_insert(0) += s.ns();
        }
        out
    }

    /// Median over ops of the milliseconds spent in spans named `name`
    /// (0 when no op entered it).
    pub fn median_ms(&self, name: &str) -> f64 {
        let v: Vec<f64> = self
            .per_op(name)
            .values()
            .map(|&ns| ns as f64 / 1e6)
            .collect();
        median(&v)
    }

    /// Median over ops of `a`'s time minus `b`'s, in milliseconds, over
    /// the ops that entered both.
    pub fn median_diff_ms(&self, a: &str, b: &str) -> f64 {
        let bs = self.per_op(b);
        let v: Vec<f64> = self
            .per_op(a)
            .iter()
            .filter_map(|(op, &na)| bs.get(op).map(|&nb| (na as f64 - nb as f64) / 1e6))
            .collect();
        median(&v)
    }

    /// Median self time, in milliseconds, of the spans named `name`.
    pub fn median_self_ms(&self, name: &str) -> f64 {
        let mut v = Vec::new();
        for part in &self.parts {
            for (s, own) in part.iter().zip(self_times(part)) {
                if s.name == name {
                    v.push(own as f64 / 1e6);
                }
            }
        }
        median(&v)
    }

    /// Writes one JSON object per span (with its self time) to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (thread, part) in self.parts.iter().enumerate() {
            for (i, (s, own)) in part.iter().zip(self_times(part)).enumerate() {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                writeln!(
                    out,
                    "{{\"thread\":{thread},\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\
                     \"start_ns\":{},\"end_ns\":{},\"self_ns\":{own}}}",
                    s.name, s.op, s.start_ns, s.end_ns
                )?;
            }
        }
        out.flush()
    }
}

/// The self time of every span in one tracer's list, in list order.
fn self_times(part: &[Span]) -> Vec<u64> {
    let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); part.len()];
    for c in part {
        if let Some(p) = c.parent {
            kids[p].push((c.start_ns, c.end_ns));
        }
    }
    part.iter()
        .zip(&kids)
        .map(|(s, k)| self_time(s.start_ns, s.end_ns, k))
        .collect()
}
