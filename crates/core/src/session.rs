//! The session-oriented synthesis API.
//!
//! A [`Session`] is the long-lived front door of the synthesizer: it owns
//! the warm, shareable search state — the hash-consed [`RefSetPool`] and
//! one session-wide cross-sibling [`AnalysisCache`] — and serves any
//! number of [`SynthRequest`]s against it. Requests built back-to-back
//! reuse interned reference sets, and repeat requests over the same
//! demonstration reuse memoized Def. 3 verdicts instead of rebuilding
//! them per call. (Verdict memos carry a collision-free per-demo
//! fingerprint — a [`sickle_provenance::DemoToken`] assigned at
//! registration — so demonstrations with different reference structure
//! share the one cache soundly; demos with *equal* id-grids resolve to
//! the same token and share verdicts, exactly as the old per-demo cache
//! family did.) Per-request state that is *not* shareable (the
//! thread-local [`crate::EvalCache`] keyed by query ASTs over one task's
//! inputs) is created fresh for each request, one generation per worker.
//!
//! ## Warm edits
//!
//! The realistic interaction loop is a user *editing* a demonstration
//! and re-solving. A request built with [`SynthRequest::with_retain`]
//! leaves its demo and solutions behind in the session's retained-prior
//! store (keyed by [`crate::demo_fingerprint`]); a follow-up request
//! built with [`SynthRequest::with_prior`] names that fingerprint and
//! runs the warm-edit path: the demo diff ([`DemoDelta`]) is computed,
//! the superseded demo's verdicts and any column memos the edit orphaned
//! are purged (unchanged columns keep their memos — they are fingerprinted
//! by content), the prior solutions are re-verified against the new demo,
//! and the search then re-enters over the warm pool and surviving memos.
//! Solutions are byte-identical to a cold solve of the edited demo —
//! caching never changes verdicts — but the warm path re-derives much
//! less. Retention is opt-in, so sessions that never edit carry zero
//! retained bytes.
//!
//! Two ways to run a request:
//!
//! * [`Session::solve`] — blocking; returns the ranked [`SynthResult`]
//!   (a convenience wrapper over the parallel search internals);
//! * [`Session::submit`] — streaming; returns a [`SolutionStream`]
//!   yielding [`SolutionEvent`]s as the search finds solutions, with live
//!   [`ProgressSnapshot`]s and cooperative cancellation via
//!   [`CancelToken`].
//!
//! Requests are validated up front ([`SynthRequest`] problems surface as
//! [`SickleError::InvalidRequest`] instead of panics or silently
//! unsolvable searches), budgets live in [`Budget`], and the analyzer is
//! selected by [`AnalyzerChoice`].
//!
//! # Examples
//!
//! ```
//! use sickle_core::{Budget, Session, SynthRequest};
//! use sickle_provenance::Demo;
//! use sickle_table::Table;
//!
//! let t = Table::new(
//!     ["City", "Enrolled"],
//!     vec![
//!         vec!["A".into(), 10.into()],
//!         vec!["A".into(), 20.into()],
//!         vec!["B".into(), 5.into()],
//!     ],
//! )?;
//! let demo = Demo::parse(&[
//!     &["T[1,1]", "sum(T[1,2], T[2,2])"],
//!     &["T[3,1]", "sum(T[3,2])"],
//! ])?;
//!
//! let session = Session::new();
//! let request = SynthRequest::new(vec![t], demo)
//!     .with_max_depth(1)
//!     .with_budget(Budget::default().with_max_solutions(3));
//! let result = session.solve(&request)?;
//! assert!(!result.solutions.is_empty());
//! # Ok::<(), sickle_core::SickleError>(())
//! ```

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sickle_provenance::{
    AnalysisCache, AnalysisCacheStats, Demo, DemoDelta, DemoToken, FxMap, RefSetPool, RefUniverse,
};
use sickle_table::{Table, Value};

use crate::abstract_eval::demo_ref_sets;
use crate::ast::{PQuery, Query};
use crate::error::SickleError;
use crate::session_pool::demo_fingerprint;
use crate::synth::{
    run_parallel, Analyzer, JoinKey, NoPruneAnalyzer, ProvenanceAnalyzer, SearchStats, SharedStats,
    SynthConfig, SynthResult, SynthTask, RUN_SLOT,
};

// ---------------------------------------------------------------------------
// Budgets and cancellation
// ---------------------------------------------------------------------------

/// Resource budget of one request: wall-clock, visited-query cap and the
/// consistent-solution target. When a request runs through a [`Session`],
/// the budget is authoritative — it overrides the budget-shaped fields of
/// the request's [`SynthConfig`].
///
/// Marked `#[non_exhaustive]`: construct via [`Budget::default`] plus the
/// `with_*` builders.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct Budget {
    /// Relative wall-clock budget; `None` = unbounded.
    pub timeout: Option<Duration>,
    /// Absolute deadline; combined with `timeout` (whichever is sooner).
    pub deadline: Option<Instant>,
    /// Budget on visited (partial + concrete) queries; `None` = unbounded.
    pub max_visited: Option<usize>,
    /// Stop after this many consistent queries (the paper's `N = 10`).
    pub max_solutions: usize,
}

impl Default for Budget {
    fn default() -> Budget {
        Budget {
            timeout: Some(Duration::from_secs(600)),
            deadline: None,
            max_visited: None,
            max_solutions: 10,
        }
    }
}

impl Budget {
    /// An unbounded budget (no timeout, no visit cap) with the default
    /// solution target. Deterministic runs combine this with
    /// [`Budget::with_max_visited`].
    pub fn unbounded() -> Budget {
        Budget {
            timeout: None,
            ..Budget::default()
        }
    }

    /// Sets (or clears) the relative wall-clock budget.
    #[must_use]
    pub fn with_timeout(mut self, timeout: Option<Duration>) -> Budget {
        self.timeout = timeout;
        self
    }

    /// Sets an absolute deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Instant) -> Budget {
        self.deadline = Some(deadline);
        self
    }

    /// Sets (or clears) the visited-query cap.
    #[must_use]
    pub fn with_max_visited(mut self, max: Option<usize>) -> Budget {
        self.max_visited = max;
        self
    }

    /// Sets the consistent-solution target.
    #[must_use]
    pub fn with_max_solutions(mut self, n: usize) -> Budget {
        self.max_solutions = n;
        self
    }

    /// The effective relative timeout at `now`: the sooner of `timeout`
    /// and the remaining time to `deadline` (an already-passed deadline
    /// yields a zero budget, so the search stops on its first check).
    fn effective_timeout(&self, now: Instant) -> Option<Duration> {
        let from_deadline = self.deadline.map(|d| d.saturating_duration_since(now));
        match (self.timeout, from_deadline) {
            (Some(t), Some(d)) => Some(t.min(d)),
            (Some(t), None) => Some(t),
            (None, d) => d,
        }
    }
}

/// Cooperative cancellation handle: cloneable, thread-safe, level-
/// triggered. The search polls it between visited queries; a canceled run
/// terminates promptly, reports `timed_out`, and keeps every solution
/// found so far.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-canceled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// True once [`CancelToken::cancel`] has been called.
    pub fn is_canceled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }

    /// The raw flag, in the form [`SynthConfig::cancel`] consumes.
    pub(crate) fn flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.0)
    }
}

// ---------------------------------------------------------------------------
// Analyzer selection
// ---------------------------------------------------------------------------

/// Which pruning analyzer a request runs with.
///
/// The two built-in choices live in this crate; baseline abstractions
/// (`sickle-baselines`) or user-supplied analyzers plug in through
/// [`AnalyzerChoice::custom`]. Marked `#[non_exhaustive]`.
#[derive(Clone, Default)]
#[non_exhaustive]
pub enum AnalyzerChoice {
    /// The paper's abstract data provenance analyzer (Def. 3).
    #[default]
    Provenance,
    /// No pruning (plain enumerative search; the ablation baseline).
    NoPrune,
    /// A caller-supplied analyzer factory (invoked once per worker
    /// thread).
    Custom {
        /// Short name used in reports and the wire format.
        name: &'static str,
        /// Per-worker analyzer factory.
        factory: Arc<dyn Fn() -> Box<dyn Analyzer> + Send + Sync>,
    },
}

impl AnalyzerChoice {
    /// Wraps an analyzer factory (e.g. one of the `sickle-baselines`
    /// abstractions) as a choice.
    pub fn custom(
        name: &'static str,
        factory: impl Fn() -> Box<dyn Analyzer> + Send + Sync + 'static,
    ) -> AnalyzerChoice {
        AnalyzerChoice::Custom {
            name,
            factory: Arc::new(factory),
        }
    }

    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            AnalyzerChoice::Provenance => "provenance",
            AnalyzerChoice::NoPrune => "no-prune",
            AnalyzerChoice::Custom { name, .. } => name,
        }
    }

    /// Instantiates the analyzer (once per worker thread).
    pub fn make(&self) -> Box<dyn Analyzer> {
        match self {
            AnalyzerChoice::Provenance => Box::new(ProvenanceAnalyzer),
            AnalyzerChoice::NoPrune => Box::new(NoPruneAnalyzer),
            AnalyzerChoice::Custom { factory, .. } => factory(),
        }
    }
}

impl fmt::Debug for AnalyzerChoice {
    // By name only: the custom factory is an opaque closure.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("AnalyzerChoice").field(&self.name()).finish()
    }
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// One synthesis request: the task (inputs + demonstration), the search
/// shape, the [`Budget`], the [`AnalyzerChoice`], optional cancellation
/// and the worker count.
///
/// Built with the chainable `with_*` builders; validated by the session
/// before the search starts. Marked `#[non_exhaustive]` — construct via
/// [`SynthRequest::new`] / [`SynthRequest::from_task`].
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct SynthRequest {
    /// The synthesis task (inputs, demonstration, join keys, constants).
    pub task: SynthTask,
    /// Search-shape knobs (depth, operator set, templates). Budget-shaped
    /// fields in here are overridden by [`SynthRequest::budget`].
    pub search: SynthConfig,
    /// The resource budget.
    pub budget: Budget,
    /// The pruning analyzer.
    pub analyzer: AnalyzerChoice,
    /// External cancellation; [`Session::submit`] creates one when absent.
    pub cancel: Option<CancelToken>,
    /// Worker threads for skeleton expansion (1 = sequential search).
    pub workers: usize,
    /// Explicit seed work list overriding skeleton enumeration (tests,
    /// ablations and diagnostics).
    pub seeds: Option<Vec<PQuery>>,
    /// Demo fingerprint ([`crate::demo_fingerprint`]) of a retained prior
    /// request this one edits — runs the warm-edit path (see the module
    /// docs). Unknown fingerprints fail validation with
    /// [`SickleError::InvalidRequest`].
    pub prior: Option<u64>,
    /// Retain this request's demo and solutions for a follow-up edit.
    /// Implied by [`SynthRequest::with_prior`] (edit chains keep
    /// retaining); off by default so non-editing sessions carry zero
    /// retained bytes.
    pub retain: bool,
}

impl SynthRequest {
    /// A request over `inputs` and `demo` with default shape, budget and
    /// analyzer.
    pub fn new(inputs: Vec<Table>, demo: Demo) -> SynthRequest {
        SynthRequest::from_task(SynthTask::new(inputs, demo))
    }

    /// A request from a pre-assembled task (join keys and extra constants
    /// already attached).
    pub fn from_task(task: SynthTask) -> SynthRequest {
        SynthRequest {
            task,
            search: SynthConfig::default(),
            budget: Budget::default(),
            analyzer: AnalyzerChoice::default(),
            cancel: None,
            workers: 1,
            seeds: None,
            prior: None,
            retain: false,
        }
    }

    /// Replaces the search-shape configuration.
    #[must_use]
    pub fn with_search(mut self, search: SynthConfig) -> SynthRequest {
        self.search = search;
        self
    }

    /// Sets the maximum number of operators per query.
    #[must_use]
    pub fn with_max_depth(mut self, depth: usize) -> SynthRequest {
        self.search.max_depth = depth;
        self
    }

    /// Sets the budget.
    #[must_use]
    pub fn with_budget(mut self, budget: Budget) -> SynthRequest {
        self.budget = budget;
        self
    }

    /// Selects the analyzer.
    #[must_use]
    pub fn with_analyzer(mut self, analyzer: AnalyzerChoice) -> SynthRequest {
        self.analyzer = analyzer;
        self
    }

    /// Attaches a cancellation token.
    #[must_use]
    pub fn with_cancel(mut self, cancel: CancelToken) -> SynthRequest {
        self.cancel = Some(cancel);
        self
    }

    /// Sets the worker-thread count.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> SynthRequest {
        self.workers = workers;
        self
    }

    /// Declares a primary/foreign key pair for join enumeration.
    #[must_use]
    pub fn with_join_key(mut self, key: JoinKey) -> SynthRequest {
        self.task.join_keys.push(key);
        self
    }

    /// Adds extra constants usable in filter predicates.
    #[must_use]
    pub fn with_constants(mut self, constants: Vec<Value>) -> SynthRequest {
        self.task.extra_constants.extend(constants);
        self
    }

    /// Overrides skeleton enumeration with an explicit seed work list.
    #[must_use]
    pub fn with_seeds(mut self, seeds: Vec<PQuery>) -> SynthRequest {
        self.seeds = Some(seeds);
        self
    }

    /// Marks this request as a warm edit of the retained request whose
    /// demo fingerprint is `prior` (see [`crate::demo_fingerprint`]).
    /// Implies [`SynthRequest::with_retain`] so edit chains keep working.
    #[must_use]
    pub fn with_prior(mut self, prior: u64) -> SynthRequest {
        self.prior = Some(prior);
        self.retain = true;
        self
    }

    /// Retains (or stops retaining) this request's demo and solutions so
    /// a follow-up [`SynthRequest::with_prior`] can warm-edit it.
    #[must_use]
    pub fn with_retain(mut self, retain: bool) -> SynthRequest {
        self.retain = retain;
        self
    }

    /// Sets the engine-cache eviction policy ([`crate::CachePolicy`]):
    /// the entry cap and the hysteresis low-water mark of the cost-aware,
    /// spilling sweep.
    #[must_use]
    pub fn with_cache_policy(mut self, policy: crate::CachePolicy) -> SynthRequest {
        self.search.cache = policy;
        self
    }

    /// Validates the request: non-empty inputs and demonstration, all
    /// demonstration references and join keys within the inputs, and a
    /// positive solution target.
    ///
    /// # Errors
    ///
    /// Returns [`SickleError::InvalidRequest`] naming the first violated
    /// constraint. These are exactly the shapes that previously panicked
    /// or produced silently unsolvable searches.
    pub fn validate(&self) -> Result<(), SickleError> {
        let inputs = &self.task.inputs;
        if inputs.is_empty() {
            return Err(SickleError::invalid("no input tables"));
        }
        let demo = &self.task.demo;
        if demo.n_rows() == 0 || demo.n_cols() == 0 {
            return Err(SickleError::invalid("empty demonstration"));
        }
        for i in 0..demo.n_rows() {
            for j in 0..demo.n_cols() {
                for r in demo.cell(i, j).refs() {
                    let Some(t) = inputs.get(r.table) else {
                        return Err(SickleError::invalid(format!(
                            "demo cell ({},{}) references table T{} but only {} input(s) exist",
                            i + 1,
                            j + 1,
                            r.table + 1,
                            inputs.len()
                        )));
                    };
                    if r.row >= t.n_rows() || r.col >= t.n_cols() {
                        return Err(SickleError::invalid(format!(
                            "demo cell ({},{}) references T{}[{},{}] outside the {}x{} input",
                            i + 1,
                            j + 1,
                            r.table + 1,
                            r.row + 1,
                            r.col + 1,
                            t.n_rows(),
                            t.n_cols()
                        )));
                    }
                }
            }
        }
        for jk in &self.task.join_keys {
            let ok = |t: usize, c: usize| inputs.get(t).is_some_and(|tab| c < tab.n_cols());
            if !ok(jk.left_table, jk.left_col) || !ok(jk.right_table, jk.right_col) {
                return Err(SickleError::invalid(format!(
                    "join key {jk:?} references a table or column outside the inputs"
                )));
            }
        }
        if self.budget.max_solutions == 0 {
            return Err(SickleError::invalid("budget.max_solutions must be >= 1"));
        }
        Ok(())
    }

    /// The [`SynthConfig`] actually handed to the search: the request's
    /// shape knobs with the budget and cancellation folded in.
    fn effective_config(&self, cancel: &CancelToken, now: Instant) -> SynthConfig {
        let mut config = self.search.clone();
        config.timeout = self.budget.effective_timeout(now);
        config.max_visited = self.budget.max_visited;
        config.max_solutions = self.budget.max_solutions;
        config.cancel = Some(cancel.flag());
        config
    }
}

// ---------------------------------------------------------------------------
// Streaming results
// ---------------------------------------------------------------------------

/// Live counters of a running (or finished) search.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct ProgressSnapshot {
    /// Solutions found so far, across workers.
    pub solutions: usize,
    /// The search counters so far, folded across workers. Each worker
    /// publishes its counters every few hundred visits, on each solution
    /// and when it finishes, so after the run they equal the result's.
    /// `elapsed` is the wall-clock since the request was submitted;
    /// `reused_verdicts` is an end-of-run counter (0 while the search
    /// runs).
    pub stats: SearchStats,
}

impl ProgressSnapshot {
    fn read(shared: &SharedStats, started: Instant) -> ProgressSnapshot {
        let mut stats = shared.total();
        stats.elapsed = started.elapsed();
        ProgressSnapshot {
            solutions: shared.solutions.load(Ordering::Relaxed),
            stats,
        }
    }
}

/// One event of a [`SolutionStream`].
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum SolutionEvent {
    /// A consistent query, emitted the moment a worker finds it.
    /// `index` counts solutions in cross-worker discovery order (0-based);
    /// with multiple workers the same query may be discovered twice — the
    /// final [`SolutionEvent::Done`] list is deduplicated and ranked by
    /// query size.
    Solution {
        /// Cross-worker discovery index (0-based).
        index: usize,
        /// The consistent query.
        query: Query,
    },
    /// A progress heartbeat (emitted alongside each solution; poll
    /// [`SolutionStream::progress`] for arbitrary-rate sampling).
    Progress(ProgressSnapshot),
    /// The search finished: the ranked, deduplicated result. The last
    /// event of a stream that ran to completion (unless the worker died,
    /// in which case the stream just ends).
    Done(SynthResult),
    /// The search aborted on an internal error (a malformed candidate
    /// inside the engine). Terminal, like [`SolutionEvent::Done`];
    /// [`SolutionStream::wait`] surfaces it as the `Err` it wraps.
    Failed(SickleError),
}

/// A handle to an in-flight request submitted with [`Session::submit`]:
/// an iterator of [`SolutionEvent`]s ending with [`SolutionEvent::Done`].
///
/// Dropping the stream cancels the request and joins the worker. The
/// search also stops early when the budget expires or
/// [`SolutionStream::cancel`] is called — already-found solutions are
/// never dropped; they arrive in the final [`SolutionEvent::Done`].
#[derive(Debug)]
pub struct SolutionStream {
    rx: mpsc::Receiver<SolutionEvent>,
    handle: Option<JoinHandle<()>>,
    shared: Arc<SharedStats>,
    cancel: CancelToken,
    started: Instant,
    finished: bool,
}

impl SolutionStream {
    /// Live progress counters (sample at any rate).
    pub fn progress(&self) -> ProgressSnapshot {
        ProgressSnapshot::read(&self.shared, self.started)
    }

    /// Requests cooperative cancellation; the stream still delivers
    /// [`SolutionEvent::Done`] with everything found so far (and
    /// `stats.timed_out` set).
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// The stream's cancellation token (cloneable; share it with watchdog
    /// threads).
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Blocks until the search finishes and returns the ranked result,
    /// discarding intermediate events.
    ///
    /// # Errors
    ///
    /// Returns [`SickleError::Internal`] if the worker died before
    /// reporting a result, or the error of a [`SolutionEvent::Failed`].
    pub fn wait(mut self) -> Result<SynthResult, SickleError> {
        for event in &mut self {
            match event {
                SolutionEvent::Done(result) => return Ok(result),
                SolutionEvent::Failed(e) => return Err(e),
                _ => {}
            }
        }
        Err(SickleError::Internal {
            message: "synthesis worker terminated without a result".to_string(),
        })
    }

    /// Like `Iterator::next`, but gives up after `timeout`. Lets a
    /// caller interleave waiting on events with its own bookkeeping — a
    /// server's watchdog checks its per-request deadline between polls
    /// and arms [`SolutionStream::cancel`] when it passes.
    pub fn next_timeout(&mut self, timeout: Duration) -> StreamWait {
        if self.finished {
            return StreamWait::Ended;
        }
        match self.rx.recv_timeout(timeout) {
            Ok(event) => {
                if matches!(event, SolutionEvent::Done(_) | SolutionEvent::Failed(_)) {
                    self.finished = true;
                    self.join_worker();
                }
                StreamWait::Event(event)
            }
            Err(mpsc::RecvTimeoutError::Timeout) => StreamWait::TimedOut,
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                // Worker died without a Done event.
                self.finished = true;
                self.join_worker();
                StreamWait::Ended
            }
        }
    }

    /// Abandons the worker: cancellation is requested, but dropping the
    /// stream will no longer join the worker thread. This is the watchdog
    /// escalation path — a search that ignored its [`CancelToken`] past
    /// the grace period must not wedge the serving thread on join. The
    /// leaked worker exits on its own (or with the process); its channel
    /// sends go nowhere once the stream is dropped.
    pub fn detach(&mut self) {
        self.cancel.cancel();
        self.finished = true;
        drop(self.handle.take());
    }

    fn join_worker(&mut self) {
        if let Some(handle) = self.handle.take() {
            // A panicking worker already ends the stream (sender dropped);
            // surfacing the panic here would abort the caller during a
            // normal drain, so the join result is advisory only.
            let _ = handle.join();
        }
    }
}

/// Outcome of one [`SolutionStream::next_timeout`] poll.
// Not boxed: the value is matched and consumed immediately at every call
// site, never stored, so the size skew has nowhere to hurt.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum StreamWait {
    /// An event arrived within the timeout.
    Event(SolutionEvent),
    /// No event arrived within the timeout; the search is still running.
    TimedOut,
    /// The stream is over: a terminal event was already delivered, or the
    /// worker died without one.
    Ended,
}

impl Iterator for SolutionStream {
    type Item = SolutionEvent;

    fn next(&mut self) -> Option<SolutionEvent> {
        if self.finished {
            return None;
        }
        match self.rx.recv() {
            Ok(event) => {
                if matches!(event, SolutionEvent::Done(_) | SolutionEvent::Failed(_)) {
                    self.finished = true;
                    self.join_worker();
                }
                Some(event)
            }
            Err(_) => {
                // Worker died without a Done event.
                self.finished = true;
                self.join_worker();
                None
            }
        }
    }
}

impl Drop for SolutionStream {
    fn drop(&mut self) {
        self.cancel.cancel();
        self.join_worker();
    }
}

// ---------------------------------------------------------------------------
// The session
// ---------------------------------------------------------------------------

/// A long-lived synthesis service instance: owns the warm cross-request
/// state and serves [`SynthRequest`]s, blocking ([`Session::solve`]) or
/// streaming ([`Session::submit`]).
///
/// Cheap to share: all methods take `&self` and the warm state is
/// internally synchronized, so one `Session` (behind an `Arc` if needed)
/// can serve requests from many threads.
#[derive(Debug)]
pub struct Session {
    /// The hash-consing pool behind every `SetId` of this session's
    /// searches; grows monotonically with the number of *distinct* sets
    /// ever interned.
    pool: Arc<RefSetPool>,
    /// The session-wide cross-sibling memo of abstract-consistency
    /// analyses. One bounded cache serves every demonstration: verdict
    /// keys carry a collision-free per-demo fingerprint
    /// ([`sickle_provenance::DemoToken`], assigned when the demo's
    /// interned id-grid is registered), so different demonstrations never
    /// alias while equal id-grids share verdicts.
    analysis: Arc<AnalysisCache>,
    /// Retained priors for the warm-edit path, keyed by
    /// [`crate::demo_fingerprint`] — each entry holds the demo, its
    /// analysis-cache token and its solutions. Opt-in, byte-accounted and
    /// LRU-capped; behind an `Arc` so streaming workers can retain their
    /// result after [`Session::submit`] has returned.
    priors: Arc<Mutex<PriorStore>>,
    /// Requests served so far; doubles as the per-request `EvalCache`
    /// generation counter (each request's thread-local caches are
    /// generation `served()` of this session).
    served: AtomicUsize,
}

/// Retained-prior cap per session; beyond it the least-recently-used
/// entry is evicted (and its analysis-cache state purged, if no other
/// retained entry shares the demo token).
const MAX_RETAINED: usize = 16;

/// One retained prior: a solved request's demo, its analysis-cache
/// registration, and the solutions a follow-up edit re-verifies.
#[derive(Debug, Clone)]
struct PriorEntry {
    demo: Demo,
    token: DemoToken,
    solutions: Vec<Query>,
    /// Approximate heap bytes of this entry (demo cells + solution ASTs),
    /// charged against [`Session::mem_bytes`].
    bytes: usize,
    last_used: u64,
}

/// The retained-prior store: fingerprint → entry, with an LRU clock and a
/// running byte total.
#[derive(Debug, Default)]
struct PriorStore {
    entries: FxMap<u64, PriorEntry>,
    bytes: usize,
    tick: u64,
}

/// Approximate heap bytes of one retained prior. Coarse by design — the
/// figure exists so long edit chains show up in the session's byte
/// rollup (and the pool's `--max-bytes` budget), not as an allocator
/// measurement.
fn prior_entry_bytes(demo: &Demo, solutions: &[Query]) -> usize {
    const ENTRY_OVERHEAD: usize = 256;
    const CELL_BYTES: usize = 96;
    const OP_BYTES: usize = 64;
    ENTRY_OVERHEAD
        + demo.n_cells() * CELL_BYTES
        + solutions
            .iter()
            .map(|q| 48 + q.size() * OP_BYTES)
            .sum::<usize>()
}

/// Retains a solved request under `fp`, superseding any entry already at
/// that fingerprint, and LRU-evicts past [`MAX_RETAINED`]. Evicted (and
/// superseded) entries refund their bytes; their analysis-cache state is
/// purged when no surviving retained entry shares the demo token. A free
/// function over the store/cache handles so [`Session::submit`] workers
/// can retain after the session borrow is gone.
fn retain_into(
    priors: &Mutex<PriorStore>,
    analysis: &AnalysisCache,
    fp: u64,
    demo: &Demo,
    token: DemoToken,
    solutions: Vec<Query>,
) {
    let bytes = prior_entry_bytes(demo, &solutions);
    let mut purge: Vec<DemoToken> = Vec::new();
    {
        let mut store = priors.lock().expect("session prior lock");
        store.tick += 1;
        let tick = store.tick;
        let entry = PriorEntry {
            demo: demo.clone(),
            token,
            solutions,
            bytes,
            last_used: tick,
        };
        if let Some(old) = store.entries.insert(fp, entry) {
            store.bytes -= old.bytes;
        }
        store.bytes += bytes;
        while store.entries.len() > MAX_RETAINED {
            let victim = store
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
                .expect("non-empty store has an LRU victim");
            let evicted = store.entries.remove(&victim).expect("victim present");
            store.bytes -= evicted.bytes;
            if !store.entries.values().any(|e| e.token == evicted.token) {
                purge.push(evicted.token);
            }
        }
    }
    for token in purge {
        analysis.purge_demo(&token);
    }
}

/// What the warm-edit preamble computed for a request with a `prior`.
struct WarmPrep {
    /// Memo entries (verdicts + orphaned column memos) purged on behalf
    /// of this request.
    invalidated: usize,
    /// The demo diff, kept for diagnostics/debug assertions.
    #[allow(dead_code)]
    delta: DemoDelta,
}

impl Default for Session {
    fn default() -> Session {
        Session::new()
    }
}

impl Session {
    /// A fresh session with cold caches.
    pub fn new() -> Session {
        Session {
            pool: Arc::new(RefSetPool::new()),
            analysis: Arc::new(AnalysisCache::new()),
            priors: Arc::new(Mutex::new(PriorStore::default())),
            served: AtomicUsize::new(0),
        }
    }

    /// The session's hash-consing set pool (diagnostics: `pool().size()`
    /// is the number of distinct reference sets interned so far).
    pub fn pool(&self) -> &Arc<RefSetPool> {
        &self.pool
    }

    /// Approximate resident bytes of the session's warm state: the
    /// hash-consing pool (interned sets + operation memos), the
    /// session-wide analysis cache, and the retained-prior store. This is
    /// the per-session rollup the service tier's byte-bounded
    /// [`crate::SessionPool`] and the server's pressure ladder read;
    /// per-request engine caches are thread-local and short-lived, so
    /// they are accounted in the request stats instead.
    pub fn mem_bytes(&self) -> usize {
        let retained = self.priors.lock().expect("session prior lock").bytes;
        self.pool.approx_bytes() + self.analysis.approx_bytes() + retained
    }

    /// Hit/miss counters of the session-wide analysis cache.
    pub fn analysis_stats(&self) -> AnalysisCacheStats {
        self.analysis.stats()
    }

    /// Registers `task`'s demonstration with the session-wide analysis
    /// cache and returns its token. Registration is idempotent —
    /// [`crate::TaskContext`] re-registers the same grid during the
    /// search and resolves to the same token.
    fn register(&self, task: &SynthTask) -> DemoToken {
        let universe = RefUniverse::from_tables(&task.inputs);
        let id_grid = demo_ref_sets(&task.demo, &universe).map(|s| self.pool.intern(s.clone()));
        self.analysis.register_demo(&id_grid)
    }

    /// Looks up (and LRU-touches) the retained prior named by a request's
    /// `prior` fingerprint.
    ///
    /// # Errors
    ///
    /// [`SickleError::InvalidRequest`] when no such prior is retained —
    /// the structured rejection the wire layer forwards for unknown
    /// `"prior"` ids.
    fn take_prior(&self, fp: u64) -> Result<PriorEntry, SickleError> {
        let mut store = self.priors.lock().expect("session prior lock");
        store.tick += 1;
        let tick = store.tick;
        match store.entries.get_mut(&fp) {
            Some(entry) => {
                entry.last_used = tick;
                Ok(entry.clone())
            }
            None => Err(SickleError::invalid(format!(
                "unknown prior: no retained request with demo fingerprint {fp}"
            ))),
        }
    }

    /// The warm-edit preamble, run after [`Session::take_prior`] and
    /// before the search: diffs the demos, registers the new demo (so
    /// columns the edit kept alive stay refcounted), purges the
    /// superseded demo's verdicts and orphaned column memos, drops the
    /// superseded retained entry, re-verifies the prior's solutions
    /// against the new demo, and retains the survivors under the new
    /// fingerprint — so the chain stays warm and sound even if the
    /// re-search below is canceled. Anything that fails re-verification
    /// is simply re-searched (the full search runs regardless; caching
    /// never changes verdicts, so results stay byte-identical to cold).
    fn warm_edit(
        &self,
        request: &SynthRequest,
        prior_fp: u64,
        prior: PriorEntry,
    ) -> Result<WarmPrep, SickleError> {
        let delta = DemoDelta::between(&prior.demo, &request.task.demo);
        let new_fp = demo_fingerprint(&request.task);
        let new_token = self.register(&request.task);

        // Purge the superseded demo's analysis state — unless the edit
        // kept the reference structure identical (same token), in which
        // case there is nothing stale to drop.
        let mut invalidated = 0;
        if new_token != prior.token {
            invalidated = self.analysis.purge_demo(&prior.token).total();
        }
        // The superseded retained entry goes too: long edit chains must
        // not accumulate in the byte budget.
        if new_fp != prior_fp {
            let mut store = self.priors.lock().expect("session prior lock");
            if let Some(old) = store.entries.remove(&prior_fp) {
                store.bytes -= old.bytes;
            }
        }

        // Re-verify surviving prior solutions against the edited demo: a
        // sequential pass over the concrete candidates only (no skeleton
        // enumeration, no pruning calls — each seed runs the acceptance
        // stages once). Survivors are retained under the new fingerprint
        // immediately.
        let verified = if delta.is_empty() {
            prior.solutions.clone()
        } else if prior.solutions.is_empty() {
            Vec::new()
        } else {
            let seeds: Vec<PQuery> = prior.solutions.iter().map(PQuery::from_concrete).collect();
            let mut config = request.search.clone();
            config.timeout = None;
            config.max_visited = None;
            config.max_solutions = seeds.len();
            config.cancel = None;
            let throwaway = SharedStats::default();
            run_parallel(
                &request.task,
                &config,
                &|| request.analyzer.make(),
                1,
                &|_| false,
                Arc::clone(&self.pool),
                Arc::clone(&self.analysis),
                &throwaway,
                Some(seeds),
            )?
            .solutions
        };
        if request.retain {
            retain_into(
                &self.priors,
                &self.analysis,
                new_fp,
                &request.task.demo,
                new_token,
                verified,
            );
        }
        Ok(WarmPrep { invalidated, delta })
    }

    /// Number of requests served (solve + submit), i.e. the current
    /// request-generation number.
    pub fn served(&self) -> usize {
        self.served.load(Ordering::Relaxed)
    }

    /// Runs a request to completion and returns the ranked result — the
    /// blocking convenience wrapper over the parallel search internals.
    ///
    /// # Errors
    ///
    /// Returns [`SickleError::InvalidRequest`] if validation fails; the
    /// search itself reports budget expiry via `stats.timed_out`, not an
    /// error.
    pub fn solve(&self, request: &SynthRequest) -> Result<SynthResult, SickleError> {
        self.solve_with(request, |_| false)
    }

    /// [`Session::solve`], additionally stopping as soon as `stop` accepts
    /// a found solution (the evaluation harness stops on the ground-truth
    /// query).
    ///
    /// # Errors
    ///
    /// As [`Session::solve`].
    pub fn solve_with(
        &self,
        request: &SynthRequest,
        stop: impl Fn(&Query) -> bool + Sync,
    ) -> Result<SynthResult, SickleError> {
        request.validate()?;
        let warm = match request.prior {
            Some(fp) => Some(self.warm_edit(request, fp, self.take_prior(fp)?)?),
            None => None,
        };
        self.served.fetch_add(1, Ordering::Relaxed);
        let cancel = request.cancel.clone().unwrap_or_default();
        let config = request.effective_config(&cancel, Instant::now());
        let shared = SharedStats::default();
        if let Some(w) = &warm {
            shared.update(RUN_SLOT, |run| run.invalidated_verdicts = w.invalidated);
        }
        let result = run_parallel(
            &request.task,
            &config,
            &|| request.analyzer.make(),
            request.workers,
            &stop,
            Arc::clone(&self.pool),
            Arc::clone(&self.analysis),
            &shared,
            request.seeds.clone(),
        )?;
        if request.retain {
            retain_into(
                &self.priors,
                &self.analysis,
                demo_fingerprint(&request.task),
                &request.task.demo,
                self.register(&request.task),
                result.solutions.clone(),
            );
        }
        Ok(result)
    }

    /// Starts a request on a background thread and returns a
    /// [`SolutionStream`] of its events.
    ///
    /// # Errors
    ///
    /// Returns [`SickleError::InvalidRequest`] if validation fails
    /// (before any thread is spawned).
    pub fn submit(&self, request: SynthRequest) -> Result<SolutionStream, SickleError> {
        request.validate()?;
        // The warm-edit preamble runs synchronously: an unknown prior
        // must surface as InvalidRequest *here* (the wire layer's
        // structured rejection), and the purge/re-verify pass is cheap —
        // a sequential acceptance check of at most the retained solution
        // list, no skeleton enumeration.
        let warm = match request.prior {
            Some(fp) => Some(self.warm_edit(&request, fp, self.take_prior(fp)?)?),
            None => None,
        };
        self.served.fetch_add(1, Ordering::Relaxed);
        let cancel = request.cancel.clone().unwrap_or_default();
        let started = Instant::now();
        let config = request.effective_config(&cancel, started);
        let shared = Arc::new(SharedStats::default());
        if let Some(w) = &warm {
            shared.update(RUN_SLOT, |run| run.invalidated_verdicts = w.invalidated);
        }
        let (tx, rx) = mpsc::channel();

        let pool = Arc::clone(&self.pool);
        let analysis = Arc::clone(&self.analysis);
        let priors = Arc::clone(&self.priors);
        let worker_shared = Arc::clone(&shared);
        let handle = std::thread::spawn(move || {
            let found = AtomicUsize::new(0);
            let event_tx = tx.clone();
            let result = run_parallel(
                &request.task,
                &config,
                &|| request.analyzer.make(),
                request.workers,
                &|q: &Query| {
                    let index = found.fetch_add(1, Ordering::Relaxed);
                    // A receiver hang-up just means nobody is listening;
                    // the search still honors its budget and the stream's
                    // Drop-side cancellation.
                    let _ = event_tx.send(SolutionEvent::Solution {
                        index,
                        query: q.clone(),
                    });
                    let _ = event_tx.send(SolutionEvent::Progress(ProgressSnapshot::read(
                        &worker_shared,
                        started,
                    )));
                    false
                },
                Arc::clone(&pool),
                Arc::clone(&analysis),
                &worker_shared,
                request.seeds.clone(),
            );
            let _ = tx.send(match result {
                Ok(result) => {
                    if request.retain {
                        let universe = RefUniverse::from_tables(&request.task.inputs);
                        let id_grid = demo_ref_sets(&request.task.demo, &universe)
                            .map(|s| pool.intern(s.clone()));
                        retain_into(
                            &priors,
                            &analysis,
                            demo_fingerprint(&request.task),
                            &request.task.demo,
                            analysis.register_demo(&id_grid),
                            result.solutions.clone(),
                        );
                    }
                    SolutionEvent::Done(result)
                }
                Err(e) => SolutionEvent::Failed(e),
            });
        });

        Ok(SolutionStream {
            rx,
            handle: Some(handle),
            shared,
            cancel,
            started,
            finished: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        Table::new(
            ["City", "Enrolled"],
            vec![
                vec!["A".into(), 10.into()],
                vec!["A".into(), 20.into()],
                vec!["B".into(), 5.into()],
            ],
        )
        .unwrap()
    }

    fn demo() -> Demo {
        Demo::parse(&[
            &["T[1,1]", "sum(T[1,2], T[2,2])"],
            &["T[3,1]", "sum(T[3,2])"],
        ])
        .unwrap()
    }

    #[test]
    fn validation_rejects_bad_requests() {
        let no_inputs = SynthRequest::new(Vec::new(), demo());
        assert_eq!(no_inputs.validate().unwrap_err().kind(), "invalid_request");

        let bad_ref = SynthRequest::new(vec![table()], Demo::parse(&[&["T[9,1]"]]).unwrap());
        let err = bad_ref.validate().unwrap_err();
        assert!(err.to_string().contains("T1[9,1]"), "{err}");

        let bad_table = SynthRequest::new(vec![table()], Demo::parse(&[&["T2[1,1]"]]).unwrap());
        assert!(bad_table.validate().is_err());

        let zero_solutions = SynthRequest::new(vec![table()], demo())
            .with_budget(Budget::default().with_max_solutions(0));
        assert!(zero_solutions.validate().is_err());

        let bad_join = SynthRequest::new(vec![table()], demo()).with_join_key(JoinKey {
            left_table: 0,
            left_col: 0,
            right_table: 1,
            right_col: 0,
        });
        assert!(bad_join.validate().is_err());
    }

    #[test]
    fn solve_finds_group_sum_and_warms_the_session() {
        let session = Session::new();
        let request = SynthRequest::new(vec![table()], demo())
            .with_max_depth(1)
            .with_budget(Budget::default().with_max_solutions(3));
        let first = session.solve(&request).unwrap();
        assert!(!first.solutions.is_empty());
        let pool_after_first = session.pool().size();
        assert!(pool_after_first > 0);
        // Second identical request: byte-identical solutions, warm pool
        // grows by nothing (every set already interned).
        let second = session.solve(&request).unwrap();
        let render = |r: &SynthResult| {
            r.solutions
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
        };
        assert_eq!(render(&first), render(&second));
        assert_eq!(session.pool().size(), pool_after_first);
        assert_eq!(session.served(), 2);
    }

    #[test]
    fn stream_yields_solutions_then_done() {
        let session = Session::new();
        let request = SynthRequest::new(vec![table()], demo())
            .with_max_depth(1)
            .with_budget(Budget::default().with_max_solutions(2));
        let stream = session.submit(request).unwrap();
        let events: Vec<SolutionEvent> = stream.collect();
        let solutions: Vec<&Query> = events
            .iter()
            .filter_map(|e| match e {
                SolutionEvent::Solution { query, .. } => Some(query),
                _ => None,
            })
            .collect();
        assert!(!solutions.is_empty());
        let Some(SolutionEvent::Done(result)) = events.last() else {
            panic!("stream must end with Done; got {events:?}");
        };
        // Nothing streamed is dropped from the final result.
        for q in solutions {
            assert!(result.solutions.contains(q));
        }
    }

    #[test]
    fn cancellation_keeps_found_solutions_and_sets_timed_out() {
        let session = Session::new();
        let cancel = CancelToken::new();
        // Deep search over a small table: will not exhaust quickly, so
        // cancellation is what ends it.
        let request = SynthRequest::new(vec![table()], demo())
            .with_max_depth(3)
            .with_budget(Budget::unbounded().with_max_solutions(usize::MAX))
            .with_cancel(cancel.clone());
        let mut stream = session.submit(request).unwrap();
        // Cancel as soon as the first solution arrives.
        let mut streamed = Vec::new();
        let result = loop {
            match stream.next() {
                Some(SolutionEvent::Solution { query, .. }) => {
                    streamed.push(query);
                    cancel.cancel();
                }
                Some(SolutionEvent::Done(result)) => break result,
                Some(SolutionEvent::Progress(_)) => {}
                Some(SolutionEvent::Failed(e)) => panic!("search failed: {e}"),
                None => panic!("stream ended without Done"),
            }
        };
        assert!(result.stats.timed_out, "canceled run must report timed_out");
        assert!(!streamed.is_empty(), "expected a solution before cancel");
        for q in &streamed {
            assert!(result.solutions.contains(q), "dropped found solution {q}");
        }
    }

    #[test]
    fn malformed_seed_is_skipped_not_a_panic() {
        use crate::ast::PQuery;
        // A caller-supplied seed with out-of-range group keys: the
        // acceptance path must reject it (engine EvalError), not index
        // out of bounds in the demo-dims fast reject — even when the
        // group's source is already cached from an earlier seed.
        let session = Session::new();
        let request = SynthRequest::new(vec![table()], demo()).with_seeds(vec![
            PQuery::Input(0),
            PQuery::Group {
                src: Box::new(PQuery::Input(0)),
                keys: Some(vec![99]),
                agg: Some((sickle_table::AggFunc::Sum, 1)),
            },
        ]);
        let result = session
            .solve(&request)
            .expect("malformed seed must not error the run");
        assert!(result.solutions.is_empty());
        assert_eq!(result.stats.concrete_checked, 2);
    }

    #[test]
    fn unknown_prior_is_an_invalid_request() {
        let session = Session::new();
        let request = SynthRequest::new(vec![table()], demo())
            .with_max_depth(1)
            .with_prior(0xDEAD);
        let err = session.solve(&request).unwrap_err();
        assert_eq!(err.kind(), "invalid_request");
        assert!(err.to_string().contains("unknown prior"), "{err}");
        let err = session
            .submit(
                SynthRequest::new(vec![table()], demo())
                    .with_max_depth(1)
                    .with_prior(0xDEAD),
            )
            .unwrap_err();
        assert_eq!(err.kind(), "invalid_request");
    }

    #[test]
    fn warm_edit_matches_cold_solve_of_the_edited_demo() {
        let render = |r: &SynthResult| {
            r.solutions
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
        };
        // Base demo, retained; then a single-cell edit (row 3 instead of
        // rows 1+2 in the aggregate) re-solved warm via the prior.
        let edited = Demo::parse(&[
            &["T[1,1]", "sum(T[1,2], T[2,2])"],
            &["T[3,1]", "sum(T[3,2], T[3,2])"],
        ])
        .unwrap();
        let session = Session::new();
        let base = SynthRequest::new(vec![table()], demo())
            .with_max_depth(1)
            .with_retain(true);
        let base_result = session.solve(&base).unwrap();
        assert!(!base_result.solutions.is_empty());
        let retained_bytes = session.mem_bytes();
        let fp = demo_fingerprint(&base.task);

        let warm_request = SynthRequest::new(vec![table()], edited.clone())
            .with_max_depth(1)
            .with_prior(fp);
        let warm = session.solve(&warm_request).unwrap();

        let cold_session = Session::new();
        let cold = cold_session
            .solve(&SynthRequest::new(vec![table()], edited).with_max_depth(1))
            .unwrap();
        assert_eq!(render(&warm), render(&cold));
        // The superseded retained entry is gone; the new one replaced it
        // (one entry either way — no byte leak across the chain).
        assert!(session.mem_bytes() > 0);
        let _ = retained_bytes;
        // The chain continues: the edited demo's fingerprint is now the
        // retained prior.
        let fp2 = demo_fingerprint(&warm_request.task);
        assert!(session.take_prior(fp2).is_ok());
        if fp != fp2 {
            assert!(session.take_prior(fp).is_err(), "superseded prior kept");
        }
    }

    #[test]
    fn retention_is_opt_in_and_byte_accounted() {
        let session = Session::new();
        let plain = SynthRequest::new(vec![table()], demo()).with_max_depth(1);
        session.solve(&plain).unwrap();
        let baseline = session.mem_bytes();
        assert_eq!(
            session.priors.lock().unwrap().bytes,
            0,
            "no retained bytes without retain"
        );
        session.solve(&plain.clone().with_retain(true)).unwrap();
        assert!(session.mem_bytes() > baseline, "retained entry is charged");
        assert!(session.priors.lock().unwrap().bytes > 0);
    }

    #[test]
    fn deadline_in_the_past_terminates_immediately() {
        let session = Session::new();
        let request = SynthRequest::new(vec![table()], demo())
            .with_max_depth(3)
            .with_budget(Budget::unbounded().with_deadline(Instant::now()));
        let result = session.solve(&request).unwrap();
        assert!(result.stats.timed_out);
        // At most one node slips through before the first budget check
        // observes a non-zero elapsed time.
        assert!(
            result.stats.visited <= 1,
            "visited {}",
            result.stats.visited
        );
    }
}
