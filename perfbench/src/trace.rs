//! Spans recorded from the benchmark's own code, around its calls into
//! the program: operation (task, edit, request) → `Session::solve` →
//! each analyzer call, plus wire decode/encode. Spans stay in memory and
//! are written out once, when the run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use sickle_core::{Analyzer, AnalyzerChoice, PQuery, ProvenanceAnalyzer, TaskContext};

/// One closed span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    /// Enclosing span id, 0 for a root.
    pub parent: u32,
    /// The task / edit / request the span belongs to.
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span store. The "current" span and operation are what the
/// analyzer wrapper attaches its spans to; the workloads call the
/// program from one thread at a time, so a single current slot suffices.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    next_id: AtomicU32,
    current: AtomicU32,
    current_op: AtomicU64,
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next_id: AtomicU32::new(1),
            current: AtomicU32::new(0),
            current_op: AtomicU64::new(0),
        })
    }

    /// Reserves a span id, so children can name their parent before the
    /// parent closes.
    pub fn open(&self) -> u32 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Makes `id` (of operation `op`) the parent of analyzer spans.
    pub fn enter(&self, id: u32, op: u64) {
        self.current.store(id, Ordering::Relaxed);
        self.current_op.store(op, Ordering::Relaxed);
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn close(&self, id: u32, parent: u32, op: u64, name: &'static str, start: Instant) {
        let span = Span {
            id,
            parent,
            op,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(Instant::now()),
        };
        self.spans.lock().expect("span store poisoned").push(span);
    }

    /// An analyzer choice that runs the paper's provenance analyzer and
    /// records one span per call under the current span.
    pub fn analyzer(self: &Arc<Tracer>) -> AnalyzerChoice {
        let tracer = Arc::clone(self);
        AnalyzerChoice::custom("provenance", move || {
            Box::new(TracedAnalyzer {
                parent: tracer.current.load(Ordering::Relaxed),
                op: tracer.current_op.load(Ordering::Relaxed),
                tracer: Arc::clone(&tracer),
                calls: RefCell::new(Vec::new()),
            })
        })
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Writes every span as tab-separated `id parent op name start_ns
    /// end_ns` lines.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\top\tname\tstart_ns\tend_ns")?;
        for s in self.spans.lock().expect("span store poisoned").iter() {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// The provenance analyzer, timed per call. Spans are buffered locally
/// and handed to the tracer when the search drops its analyzer.
struct TracedAnalyzer {
    tracer: Arc<Tracer>,
    parent: u32,
    op: u64,
    calls: RefCell<Vec<(Instant, Instant)>>,
}

impl Analyzer for TracedAnalyzer {
    fn name(&self) -> &'static str {
        "provenance"
    }

    fn is_feasible(&self, pq: &PQuery, ctx: &TaskContext) -> bool {
        let start = Instant::now();
        let feasible = ProvenanceAnalyzer.is_feasible(pq, ctx);
        self.calls.borrow_mut().push((start, Instant::now()));
        feasible
    }
}

impl Drop for TracedAnalyzer {
    fn drop(&mut self) {
        let calls = std::mem::take(self.calls.get_mut());
        let first = self
            .tracer
            .next_id
            .fetch_add(calls.len() as u32, Ordering::Relaxed);
        let spans = calls.iter().zip(first..).map(|(&(start, end), id)| Span {
            id,
            parent: self.parent,
            op: self.op,
            name: "analyze",
            start_ns: self.tracer.ns(start),
            end_ns: self.tracer.ns(end),
        });
        if let Ok(mut store) = self.tracer.spans.lock() {
            store.extend(spans);
        }
    }
}

/// Per span name: count, total and self time (duration minus the union
/// of its children's intervals), in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct NameTotals {
    pub count: usize,
    pub total_s: f64,
    pub self_s: f64,
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let covered = children.get_mut(&s.id).map_or(0, |kids| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            covered
        });
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_s += dur as f64 * 1e-9;
        t.self_s += dur.saturating_sub(covered) as f64 * 1e-9;
    }
    out
}
