//! The abstraction-based enumerative synthesizer (Algorithm 1).
//!
//! The search behind [`crate::Session`] explores the space of analytical
//! SQL queries:
//!
//! 1. **Skeletons** — operator compositions with every parameter a hole `□`
//!    are enumerated up to a depth bound ([`construct_skeletons`]), ordered
//!    by size and by compatibility of the root operator with the
//!    demonstration's cell structure;
//! 2. **Refinement** — each step instantiates one hole, strictly bottom-up
//!    (inner operators complete first, keys before aggregation choices),
//!    which makes subqueries concrete as early as possible and unlocks the
//!    strong abstraction;
//! 3. **Pruning** — before expanding a partial query, an [`Analyzer`]
//!    decides whether it can still realize the demonstration. The paper's
//!    analyzer is [`ProvenanceAnalyzer`] (abstract data provenance, Def. 3);
//!    the Morpheus/Scythe-style baselines live in `sickle-baselines`;
//! 4. **Acceptance** — concrete queries are checked against Def. 1
//!    (`E ≺ [[q]]★`); the search stops after `N` consistent queries, on
//!    timeout, or when a caller-supplied stop predicate fires.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sickle_table::{
    default_arith_templates, AggFunc, AnalyticFunc, ArithExpr, CmpOp, Table, Value,
};

use sickle_provenance::{
    demo_consistent_with_candidates, find_table_match_with_candidates, match_seed_rows,
    AnalysisCache, Demo, DemoToken, MatchDims, MatchSeed, RefSetPool, RefUniverse,
};

use crate::abstract_eval::{abstract_evaluate_once, demo_ref_sets};
use crate::ast::{PQuery, Pred, Query};
use crate::engine::{CachePolicy, EvalCache, Semantics};
use crate::error::SickleError;

/// A primary/foreign-key pair declared on the inputs; join predicates are
/// enumerated from these only (§5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinKey {
    /// Left input table index.
    pub left_table: usize,
    /// Column in the left table.
    pub left_col: usize,
    /// Right input table index.
    pub right_table: usize,
    /// Column in the right table.
    pub right_col: usize,
}

/// A synthesis task: input tables plus the user demonstration.
#[derive(Debug, Clone)]
pub struct SynthTask {
    /// The input tables `T̄`.
    pub inputs: Vec<Table>,
    /// The computation demonstration `E`.
    pub demo: Demo,
    /// Declared key relationships for join enumeration.
    pub join_keys: Vec<JoinKey>,
    /// Extra constants usable in filter predicates (demonstration constants
    /// are always included).
    pub extra_constants: Vec<Value>,
}

impl SynthTask {
    /// Creates a task with no join keys or extra constants.
    pub fn new(inputs: Vec<Table>, demo: Demo) -> SynthTask {
        SynthTask {
            inputs,
            demo,
            join_keys: Vec::new(),
            extra_constants: Vec::new(),
        }
    }
}

/// Operators available to skeleton construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// `group(q, □, □(□))`
    Group,
    /// `partition(q, □, □(□))`
    Partition,
    /// `arithmetic(q, □(□))`
    Arith,
    /// `filter(q, □)`
    Filter,
    /// `sort(q, □)`
    Sort,
}

impl OpKind {
    /// All chain operators.
    pub const ALL: [OpKind; 5] = [
        OpKind::Group,
        OpKind::Partition,
        OpKind::Arith,
        OpKind::Filter,
        OpKind::Sort,
    ];
}

/// Synthesizer configuration.
///
/// Marked `#[non_exhaustive]`: construct it with [`SynthConfig::default`]
/// (or the chainable `with_*` builder methods) and mutate the public
/// fields — new knobs can then be added without breaking downstream
/// crates. Budget-shaped fields (`timeout`, `max_visited`,
/// `max_solutions`, `cancel`) are overridden by [`crate::Budget`] when the
/// search runs through a [`crate::Session`].
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct SynthConfig {
    /// Maximum number of operators per query (`depth` in Algorithm 1).
    pub max_depth: usize,
    /// Stop after this many consistent queries (the paper's `N = 10`).
    pub max_solutions: usize,
    /// Wall-clock budget; `None` = unbounded.
    pub timeout: Option<Duration>,
    /// Budget on visited (partial + concrete) queries; `None` = unbounded.
    pub max_visited: Option<usize>,
    /// Maximum number of grouping key columns.
    pub max_key_cols: usize,
    /// Maximum number of partitioning key columns. The Fig. 7 grammar gives
    /// `partition` a *single* partition column (`partition(q, c, α′(c))`,
    /// vs. `c̄` for `group`), so the default is 1.
    pub max_partition_cols: usize,
    /// Whether `group`/`partition` may use an empty key set (global
    /// aggregation / whole-table windows).
    pub allow_empty_keys: bool,
    /// Operators available for skeleton chains.
    pub chain_ops: Vec<OpKind>,
    /// Whether skeletons may start from `join`/`left_join` of two inputs.
    pub enable_join: bool,
    /// Arithmetic function templates `γ`.
    pub arith_templates: Vec<ArithExpr>,
    /// Forbid immediately repeated `filter`/`sort` (they compose to a
    /// single equivalent operator, so repeats only duplicate work).
    pub forbid_trivial_repeats: bool,
    /// External cancellation flag: the search stops (reporting a timeout)
    /// as soon as this is set ([`crate::CancelToken`] sets it).
    pub cancel: Option<Arc<AtomicBool>>,
    /// Eviction policy of each worker's engine [`EvalCache`] (cap and
    /// hysteresis low-water mark).
    pub cache: CachePolicy,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            max_depth: 3,
            max_solutions: 10,
            timeout: Some(Duration::from_secs(600)),
            max_visited: None,
            max_key_cols: 3,
            max_partition_cols: 1,
            allow_empty_keys: true,
            chain_ops: vec![OpKind::Group, OpKind::Partition, OpKind::Arith],
            enable_join: false,
            arith_templates: default_arith_templates(),
            forbid_trivial_repeats: true,
            cancel: None,
            cache: CachePolicy::default(),
        }
    }
}

impl SynthConfig {
    /// [`SynthConfig::default`] under a builder-friendly name.
    pub fn new() -> SynthConfig {
        SynthConfig::default()
    }

    /// Sets the maximum number of operators per query.
    #[must_use]
    pub fn with_max_depth(mut self, depth: usize) -> SynthConfig {
        self.max_depth = depth;
        self
    }

    /// Sets the consistent-query target.
    #[must_use]
    pub fn with_max_solutions(mut self, n: usize) -> SynthConfig {
        self.max_solutions = n;
        self
    }

    /// Sets (or clears) the wall-clock budget.
    #[must_use]
    pub fn with_timeout(mut self, timeout: Option<Duration>) -> SynthConfig {
        self.timeout = timeout;
        self
    }

    /// Sets (or clears) the visited-query budget.
    #[must_use]
    pub fn with_max_visited(mut self, max: Option<usize>) -> SynthConfig {
        self.max_visited = max;
        self
    }

    /// Sets the operators available for skeleton chains.
    #[must_use]
    pub fn with_chain_ops(mut self, ops: Vec<OpKind>) -> SynthConfig {
        self.chain_ops = ops;
        self
    }

    /// Enables or disables `join`/`left_join` skeleton bases.
    #[must_use]
    pub fn with_enable_join(mut self, enable: bool) -> SynthConfig {
        self.enable_join = enable;
        self
    }

    /// Sets the maximum number of partitioning key columns.
    #[must_use]
    pub fn with_max_partition_cols(mut self, n: usize) -> SynthConfig {
        self.max_partition_cols = n;
        self
    }

    /// Sets the arithmetic function template library `γ`.
    #[must_use]
    pub fn with_arith_templates(mut self, templates: Vec<ArithExpr>) -> SynthConfig {
        self.arith_templates = templates;
        self
    }

    /// Sets the engine-cache eviction policy.
    #[must_use]
    pub fn with_cache_policy(mut self, policy: CachePolicy) -> SynthConfig {
        self.cache = policy;
        self
    }
}

/// Prepared per-task state shared with analyzers.
#[derive(Debug)]
pub struct TaskContext {
    /// The task being solved.
    pub task: SynthTask,
    /// Arity of each input table.
    pub input_arities: Vec<usize>,
    /// The reference universe over the inputs.
    pub universe: RefUniverse,
    /// Per-demo-cell reference sets (`ref(E[i,j])`).
    pub demo_refs: sickle_table::Grid<sickle_provenance::RefSet>,
    /// The demo reference sets interned in the search's pool
    /// ([`TaskContext::pool`]) — the id-side key of every analysis memo.
    pub demo_ref_ids: sickle_table::Grid<sickle_provenance::SetId>,
    /// Constants available to filter predicates.
    pub constants: Vec<Value>,
    /// Memoized precise evaluations of concrete subqueries (also owns the
    /// search's [`RefSetPool`]).
    pub eval_cache: EvalCache,
    /// Cross-sibling memo of abstract-consistency analyses, shared across
    /// parallel workers (and, through [`crate::Session`], across the
    /// session's requests).
    pub analysis: Arc<AnalysisCache>,
    /// This task's demonstration registered with `analysis`: the
    /// collision-free fingerprint component of every Def. 3 verdict key,
    /// keeping demos that share the session-wide cache apart.
    pub demo_token: DemoToken,
    /// Cross-candidate memo of the acceptance prefilter's per-column
    /// feasibility: (demo column, star column identity) → can the star
    /// column host the demo column (every demo row embeds into some cell
    /// of it). Concrete candidates share pass-through star columns of
    /// their stored children by `Arc`, so most of each candidate's
    /// column-candidate derivation is map probes. Only such shared
    /// columns are admitted (see [`StarSets::memoizable`]). The entry
    /// pins its column `Arc`, keeping the address key valid.
    col_hosts: std::cell::RefCell<ColHostsMemo>,
}

/// Prefilter column-feasibility memo: (demo column, star column
/// identity) → (pinned column, verdict).
type ColHostsMemo =
    sickle_provenance::FxMap<(u32, usize), (Arc<Vec<sickle_provenance::Expr>>, bool)>;

/// Bound on the prefilter column-feasibility memo; like the engine memos,
/// a full map is cleared, not evicted (entries are recomputable).
const COL_HOSTS_CAP: usize = 16_384;

/// Columns up to this many rows may convert through the cross-candidate
/// bulk memo (`EvalCache::star_col_sets`); larger columns (join outputs)
/// convert per probed cell through the result-local
/// [`crate::ExecTable::cell_set`], so only cells the matcher touches are
/// materialized. Public so the `accept` micro-bench mirrors the shipped
/// policy instead of hard-coding a copy.
pub const BULK_COL_ROWS: usize = 128;

/// A candidate's lazy view of its star grid's per-cell reference sets,
/// plus the memoized column-feasibility test of the acceptance prefilter.
struct StarSets<'a> {
    ctx: &'a TaskContext,
    exec: &'a crate::ExecTable,
    star: &'a crate::prov_eval::ProvTable,
    cols: Vec<ColSets>,
}

/// Per-column resolution state of [`StarSets`].
enum ColSets {
    /// Not probed yet.
    Pending,
    /// Memoizable column: the shared, fully-converted cross-candidate
    /// entry.
    Shared(Arc<Vec<sickle_provenance::RefSet>>),
    /// Any other column: converted per probed cell, memoized on the
    /// candidate's own result ([`crate::ExecTable::cell_set`]).
    Local,
}

impl<'a> StarSets<'a> {
    fn new(
        ctx: &'a TaskContext,
        exec: &'a crate::ExecTable,
        star: &'a crate::prov_eval::ProvTable,
    ) -> StarSets<'a> {
        StarSets {
            ctx,
            exec,
            star,
            cols: (0..star.n_cols()).map(|_| ColSets::Pending).collect(),
        }
    }

    /// Whether star column `tj` may enter the cross-candidate memos
    /// (`EvalCache::star_col_sets`, [`TaskContext::col_hosts`]): it is
    /// small, and something besides this candidate holds it — a stored
    /// subquery that the candidate passes the column through from. The
    /// candidate itself is evaluated once and never stored, so a column
    /// only it owns can never be probed again; memoizing it would pin
    /// dead columns and crowd out the shared ones.
    fn memoizable(&self, tj: usize) -> bool {
        self.star.n_rows() <= BULK_COL_ROWS && Arc::strong_count(self.star.column_arc(tj)) > 1
    }

    /// The reference set of star cell `(ti, tj)`, converted on demand.
    fn cell(&mut self, ti: usize, tj: usize) -> &sickle_provenance::RefSet {
        if matches!(self.cols[tj], ColSets::Pending) {
            self.cols[tj] = if self.memoizable(tj) {
                ColSets::Shared(self.ctx.eval_cache.star_col_sets(
                    self.star,
                    &self.ctx.universe,
                    tj,
                ))
            } else {
                ColSets::Local
            };
        }
        match &self.cols[tj] {
            ColSets::Shared(sets) => &sets[ti],
            ColSets::Local => self.exec.cell_set(&self.ctx.universe, ti, tj),
            ColSets::Pending => unreachable!("resolved above"),
        }
    }

    /// `ref(E[di,dj]) ⊆` the set of star cell `(ti, tj)` — the
    /// prefilter's compatibility oracle.
    fn subset_ok(&mut self, di: usize, dj: usize, ti: usize, tj: usize) -> bool {
        let ctx = self.ctx;
        ctx.demo_refs[(di, dj)].is_subset_of(self.cell(ti, tj))
    }

    /// Whether star column `tj` can host demo column `dj` (every demo row
    /// embeds into some cell of it), memoized by column identity across
    /// candidates (see [`TaskContext::col_hosts`]) when the column is
    /// [`StarSets::memoizable`] — pass-through columns shared between
    /// sibling candidates resolve to one map probe. Other columns are
    /// decided directly.
    fn column_hosts(&mut self, dj: usize, tj: usize) -> bool {
        let (demo_rows, table_rows) = (self.ctx.demo_refs.n_rows(), self.star.n_rows());
        if !self.memoizable(tj) {
            return (0..demo_rows)
                .all(|di| (0..table_rows).any(|ti| self.subset_ok(di, dj, ti, tj)));
        }
        let key = (dj as u32, Arc::as_ptr(self.star.column_arc(tj)) as usize);
        if let Some((_, v)) = self.ctx.col_hosts.borrow().get(&key) {
            return *v;
        }
        let v = (0..demo_rows).all(|di| (0..table_rows).any(|ti| self.subset_ok(di, dj, ti, tj)));
        let pin = Arc::clone(self.star.column_arc(tj));
        let mut map = self.ctx.col_hosts.borrow_mut();
        if map.len() >= COL_HOSTS_CAP {
            map.clear();
        }
        map.insert(key, (pin, v));
        v
    }
}

impl TaskContext {
    /// Prepares the shared context for a task with a private set pool and
    /// analysis cache.
    pub fn new(task: SynthTask) -> TaskContext {
        TaskContext::with_shared(
            task,
            Arc::new(RefSetPool::new()),
            Arc::new(AnalysisCache::new()),
        )
    }

    /// Prepares a context with a private pool and analysis cache and the
    /// given engine-cache eviction policy.
    pub fn with_policy(task: SynthTask, policy: CachePolicy) -> TaskContext {
        TaskContext::with_shared_policy(
            task,
            Arc::new(RefSetPool::new()),
            Arc::new(AnalysisCache::new()),
            policy,
        )
    }

    /// Prepares a context whose set pool and analysis cache are shared
    /// with other contexts for the *same task* (the parallel search gives
    /// every worker the same pool and cache, so interned ids and cached
    /// verdicts are exchanged across threads).
    pub fn with_shared(
        task: SynthTask,
        pool: Arc<RefSetPool>,
        analysis: Arc<AnalysisCache>,
    ) -> TaskContext {
        TaskContext::with_shared_policy(task, pool, analysis, CachePolicy::default())
    }

    /// [`TaskContext::with_shared`] with an explicit engine-cache
    /// eviction policy (the search threads [`SynthConfig::cache`] through
    /// here).
    pub fn with_shared_policy(
        task: SynthTask,
        pool: Arc<RefSetPool>,
        analysis: Arc<AnalysisCache>,
        policy: CachePolicy,
    ) -> TaskContext {
        let input_arities = task.inputs.iter().map(Table::n_cols).collect();
        let universe = RefUniverse::from_tables(&task.inputs);
        let demo_refs = demo_ref_sets(&task.demo, &universe);
        let demo_ref_ids = demo_refs.map(|s| pool.intern(s.clone()));
        let mut constants = task.demo.constants();
        constants.extend(task.extra_constants.iter().cloned());
        constants.sort();
        constants.dedup();
        let demo_token = analysis.register_demo(&demo_ref_ids);
        TaskContext {
            task,
            input_arities,
            universe,
            demo_refs,
            demo_ref_ids,
            constants,
            eval_cache: EvalCache::with_pool_and_policy(pool, policy),
            analysis,
            demo_token,
            col_hosts: std::cell::RefCell::new(sickle_provenance::FxMap::default()),
        }
    }

    /// The demonstration.
    pub fn demo(&self) -> &Demo {
        &self.task.demo
    }

    /// The input tables.
    pub fn inputs(&self) -> &[Table] {
        &self.task.inputs
    }

    /// The hash-consing pool behind every [`sickle_provenance::SetId`] of
    /// this search.
    pub fn pool(&self) -> &Arc<RefSetPool> {
        self.eval_cache.pool()
    }
}

/// The pruning oracle consulted on every partial query (line 13 of
/// Algorithm 1). Implementations: [`ProvenanceAnalyzer`] (this paper),
/// plus the type/value abstraction baselines in `sickle-baselines`.
pub trait Analyzer {
    /// Short name used in experiment reports.
    fn name(&self) -> &'static str;

    /// Returns `false` when the partial query provably cannot realize the
    /// demonstration (safe to prune).
    fn is_feasible(&self, pq: &PQuery, ctx: &TaskContext) -> bool;
}

/// The paper's analyzer: abstract data provenance (Fig. 11 + Def. 3).
#[derive(Debug, Clone, Copy, Default)]
pub struct ProvenanceAnalyzer;

impl Analyzer for ProvenanceAnalyzer {
    fn name(&self) -> &'static str {
        "provenance"
    }

    fn is_feasible(&self, pq: &PQuery, ctx: &TaskContext) -> bool {
        // One-shot: the partial is analyzed once per visit, its subtrees
        // are what siblings share.
        match abstract_evaluate_once(pq, ctx.inputs(), &ctx.universe, &ctx.eval_cache) {
            // Def. 3 through the cross-sibling cache: sibling expansions
            // that abstract to the same id-grid share one verdict.
            Ok(abs) => {
                ctx.analysis
                    .consistent(&ctx.demo_token, &ctx.demo_ref_ids, &abs.sets, ctx.pool())
            }
            // Ill-formed parameters can never evaluate: prune.
            Err(_) => false,
        }
    }
}

/// Ablation analyzer that never prunes (plain enumerative search).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoPruneAnalyzer;

impl Analyzer for NoPruneAnalyzer {
    fn name(&self) -> &'static str {
        "no-prune"
    }

    fn is_feasible(&self, _pq: &PQuery, _ctx: &TaskContext) -> bool {
        true
    }
}

/// Counters describing a synthesis run (the quantities plotted in
/// Figs. 12/13).
///
/// The one definition of the search counters: [`SearchStats::merge`]
/// combines workers, [`SearchStats::wire_fields`] /
/// [`SearchStats::from_wire_fields`] carry them through the wire `stats`
/// object, progress events and `BENCH_synthesis.json`. Adding a counter
/// is one field here plus one row in the wire table below.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Queries (partial and concrete) taken off the work list.
    pub visited: usize,
    /// Partial queries pruned by the analyzer.
    pub pruned: usize,
    /// Concrete queries checked against Def. 1.
    pub concrete_checked: usize,
    /// Children generated by hole expansion.
    pub expanded: usize,
    /// Wall-clock time spent.
    pub elapsed: Duration,
    /// Time spent in the analyzer (pruning checks).
    pub time_analyze: Duration,
    /// Time spent checking concrete queries against Def. 1 — the sum of
    /// the three acceptance stages below.
    pub time_concrete: Duration,
    /// Acceptance stage 1: evaluating the candidate (values channel, the
    /// demo-dims fast reject, then the provenance star channel).
    pub time_materialize: Duration,
    /// Acceptance stage 2: the reference-containment prefilter (Def. 3 on
    /// exact provenance) over lazily-converted cell sets.
    pub time_prefilter: Duration,
    /// Acceptance stage 3: the candidate-seeded Def. 1 expression match.
    pub time_match: Duration,
    /// Time spent expanding holes (domain inference + tree building).
    pub time_expand: Duration,
    /// Time spent inside the engine's filtered-join kernels (hash
    /// build/probe, or the legacy cross loop on non-equi fallback). A
    /// subset of `time_materialize` when joins are reached from acceptance.
    pub time_join: Duration,
    /// Output rows produced by those join kernels — the "rows processed"
    /// half of the join split (throughput = `join_rows / time_join`).
    pub join_rows: usize,
    /// Entries dropped entirely by engine-cache eviction sweeps.
    pub cache_evictions: usize,
    /// Entries demoted by the engine cache (star-channel spill: derived ref-set
    /// channels freed, value and star columns kept).
    pub cache_demotions: usize,
    /// Re-evaluations in the engine cache: inserts that recomputed a previously
    /// evicted query (the churn the cost-aware policy minimizes).
    pub cache_reevals: usize,
    /// Time spent on those re-evaluations (each node's operator step).
    /// The cost-aware policy re-evaluates cheap entries instead of
    /// expensive join children, so this drops even when the count holds.
    pub cache_reeval_time: Duration,
    /// Approximate resident bytes attributable to the run at its end: the
    /// shared pool and analysis-cache footprint plus this worker's live
    /// engine-cache bytes (charged − released). Workers share the pool,
    /// so the parallel merge takes the max, not the sum.
    pub mem_bytes: usize,
    /// Def. 3 verdicts this run served from the session-wide analysis
    /// cache instead of recomputing (hits delta over the whole run) —
    /// nonzero on warm reruns and warm edits.
    pub reused_verdicts: usize,
    /// Memo entries (verdicts + orphaned column memos) invalidated on
    /// behalf of this request by a warm edit superseding its prior demo;
    /// zero on cold solves.
    pub invalidated_verdicts: usize,
    /// True when the run hit its timeout or visit budget.
    pub timed_out: bool,
}

/// Result of a synthesis run: consistent queries in discovery order
/// (rank 1 first) plus search statistics.
///
/// Marked `#[non_exhaustive]` so future per-run data (cache statistics,
/// per-solution provenance) can be added without a breaking change.
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct SynthResult {
    /// Consistent queries, ranked by discovery order (BFS ⇒ smaller
    /// queries first, the paper's size-based ranking).
    pub solutions: Vec<Query>,
    /// Search statistics.
    pub stats: SearchStats,
}

/// A counter's wire number: counts as-is, durations in seconds.
trait WireNumber {
    fn to_wire(self) -> f64;
    fn from_wire(x: f64) -> Self;
}

impl WireNumber for usize {
    fn to_wire(self) -> f64 {
        self as f64
    }

    fn from_wire(x: f64) -> usize {
        // `as` saturates: negative and NaN read 0.
        x as usize
    }
}

impl WireNumber for Duration {
    fn to_wire(self) -> f64 {
        self.as_secs_f64()
    }

    fn from_wire(x: f64) -> Duration {
        Duration::try_from_secs_f64(x).unwrap_or_default()
    }
}

/// One row of the wire table: a [`SearchStats`] counter's wire key and
/// how to read, write and sum it.
struct StatField {
    key: &'static str,
    get: fn(&SearchStats) -> f64,
    set: fn(&mut SearchStats, f64),
    add: fn(&mut SearchStats, &SearchStats),
}

macro_rules! stat_fields {
    ($($key:literal => $field:ident,)*) => {
        [$(StatField {
            key: $key,
            get: |s| WireNumber::to_wire(s.$field),
            set: |s, x| s.$field = WireNumber::from_wire(x),
            add: |s, o| s.$field += o.$field,
        },)*]
    };
}

/// Every counter in wire order — the only place that names the wire keys
/// (`timed_out` travels beside the `stats` object, not in it).
const STAT_FIELDS: [StatField; 20] = stat_fields! {
    "visited" => visited,
    "pruned" => pruned,
    "concrete_checked" => concrete_checked,
    "expanded" => expanded,
    "wall_s" => elapsed,
    "time_analyze_s" => time_analyze,
    "time_eval_s" => time_concrete,
    "time_materialize_s" => time_materialize,
    "time_prefilter_s" => time_prefilter,
    "time_match_s" => time_match,
    "time_expand_s" => time_expand,
    "time_join_s" => time_join,
    "join_rows" => join_rows,
    "cache_evictions" => cache_evictions,
    "cache_demotions" => cache_demotions,
    "cache_reevals" => cache_reevals,
    "cache_reeval_s" => cache_reeval_time,
    "reused_verdicts" => reused_verdicts,
    "invalidated_verdicts" => invalidated_verdicts,
    "mem_bytes" => mem_bytes,
};

impl SearchStats {
    /// Folds another worker's counters into these. Counters sum, except
    /// `elapsed` and `mem_bytes`, which take the max: workers run
    /// concurrently and share the pool and analysis cache (the dominant
    /// memory term). `timed_out` is or-ed.
    pub fn merge(&mut self, other: &SearchStats) {
        let elapsed = self.elapsed.max(other.elapsed);
        let mem_bytes = self.mem_bytes.max(other.mem_bytes);
        for f in &STAT_FIELDS {
            (f.add)(self, other);
        }
        self.elapsed = elapsed;
        self.mem_bytes = mem_bytes;
        self.timed_out |= other.timed_out;
    }

    /// Every counter as `(wire key, number)`, in wire order; durations
    /// are seconds.
    pub fn wire_fields(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        STAT_FIELDS.iter().map(move |f| (f.key, (f.get)(self)))
    }

    /// The inverse of [`SearchStats::wire_fields`]: `lookup` returns the
    /// number stored under a wire key; absent keys read 0.
    pub fn from_wire_fields(lookup: impl Fn(&str) -> Option<f64>) -> SearchStats {
        let mut stats = SearchStats::default();
        for f in &STAT_FIELDS {
            if let Some(x) = lookup(f.key) {
                (f.set)(&mut stats, x);
            }
        }
        stats
    }
}

/// State shared by the workers of one run: the two control values that
/// wind the workers down, plus one [`SearchStats`] slot per worker that
/// live progress reads.
#[derive(Debug, Default)]
pub struct SharedStats {
    /// Solutions found so far, across workers.
    pub solutions: AtomicUsize,
    /// Set when the pooled solution count satisfied the target (or a
    /// worker's stop predicate fired): peers stop without reporting a
    /// timeout. Distinct from `SynthConfig::cancel`, which is the
    /// *caller's* abort switch and is reported as a timeout, exactly as
    /// the sequential search reports it.
    pub satisfied: AtomicBool,
    /// Slot [`RUN_SLOT`] holds the run-level counters (warm-edit
    /// invalidations, verdict reuse); worker `w` overwrites slot `w + 1`
    /// with its latest counters every [`PUBLISH_EVERY`] visits, on each
    /// engine-cache sweep, on each solution and when it finishes.
    slots: Mutex<Vec<SearchStats>>,
}

/// The [`SharedStats`] slot of counters that belong to the run, not to a
/// worker.
pub(crate) const RUN_SLOT: usize = 0;

/// Visits between two publications of a worker's counters: live
/// progress lags by at most this many visits, and the hot loop pays no
/// atomics or locks per visit.
const PUBLISH_EVERY: usize = 256;

impl SharedStats {
    /// Edits one slot in place (growing the slot list as needed).
    pub(crate) fn update(&self, slot: usize, edit: impl FnOnce(&mut SearchStats)) {
        let mut slots = self.slots.lock().expect("stats slot lock");
        if slots.len() <= slot {
            slots.resize_with(slot + 1, SearchStats::default);
        }
        edit(&mut slots[slot]);
    }

    /// Every slot folded with [`SearchStats::merge`]: the run's counters
    /// so far — exactly its final counters once every worker finished.
    pub(crate) fn total(&self) -> SearchStats {
        let slots = self.slots.lock().expect("stats slot lock");
        let mut total = SearchStats::default();
        for s in slots.iter() {
            total.merge(s);
        }
        total
    }
}

/// The sequential search behind [`crate::Session`]: runs the work list
/// to completion. A worker of a parallel run passes the run's
/// [`SharedStats`] and its slot there, and publishes its counters to it.
///
/// # Errors
///
/// Returns [`SickleError::Internal`] when a search invariant breaks (a
/// candidate that reports concrete but fails to convert, a provenance
/// evaluation missing its star channel) — a malformed candidate surfaces
/// as a structured error instead of a panic that would kill a warm
/// service process. Budget expiry is *not* an error (`stats.timed_out`).
pub(crate) fn run_search(
    ctx: &TaskContext,
    config: &SynthConfig,
    analyzer: &dyn Analyzer,
    seeds: Vec<PQuery>,
    mut stop: impl FnMut(&Query) -> bool,
    shared: Option<(&SharedStats, usize)>,
) -> Result<SynthResult, SickleError> {
    let started = Instant::now();
    let mut stats = SearchStats::default();
    let mut solutions = Vec::new();
    let mut work: VecDeque<PQuery> = seeds.into();
    // pop_back consumes from the end: reverse so smaller skeletons run first.
    work.make_contiguous().reverse();
    // The search loop counts only what it does; the clock, the engine
    // cache's churn (the cache is thread-local, so read as deltas since
    // the run began) and the footprint are read in when the counters are
    // published.
    let cache_base = ctx.eval_cache.cache_stats();
    let mut sweeps_seen = cache_base.sweeps;
    let settle = |stats: &mut SearchStats| {
        let now = ctx.eval_cache.cache_stats();
        stats.elapsed = started.elapsed();
        stats.cache_evictions = now.evictions - cache_base.evictions;
        stats.cache_demotions = now.demotions - cache_base.demotions;
        stats.cache_reevals = now.reevals - cache_base.reevals;
        stats.cache_reeval_time = Duration::from_nanos(now.reeval_ns - cache_base.reeval_ns);
        stats.time_join = Duration::from_nanos(now.join_ns - cache_base.join_ns);
        stats.join_rows = (now.join_rows - cache_base.join_rows) as usize;
        // Resident bytes: shared structures (pool + analysis memos) plus
        // this worker's live engine-cache footprint. The cache is fresh
        // per request, so its lifetime charges/releases are exactly this
        // run's.
        let cache_live = now.mem_charged.saturating_sub(now.mem_released);
        stats.mem_bytes = ctx.pool().approx_bytes()
            + ctx.analysis.approx_bytes()
            + usize::try_from(cache_live).unwrap_or(usize::MAX);
    };
    let publish = |stats: &mut SearchStats| {
        if let Some((s, slot)) = shared {
            settle(stats);
            s.update(slot, |mine| mine.clone_from(stats));
        }
    };

    // Depth-first exploration: the skeleton seeds are size-ordered, and
    // LIFO keeps the live frontier small (the BFS of Algorithm 1 is
    // semantically identical but holds millions of partial queries in
    // memory; solutions are ranked by size below, exactly as the paper
    // ranks by query size).
    'search: while let Some(pq) = work.pop_back() {
        if let Some(t) = config.timeout {
            if started.elapsed() > t {
                stats.timed_out = true;
                break;
            }
        }
        if let Some(max) = config.max_visited {
            if stats.visited >= max {
                stats.timed_out = true;
                break;
            }
        }
        if let Some(cancel) = &config.cancel {
            if cancel.load(Ordering::Relaxed) {
                stats.timed_out = true;
                break;
            }
        }
        if let Some((s, _)) = shared {
            // Another worker satisfied the pooled solution target (or its
            // stop predicate): stop quietly — this is a successful finish,
            // not a budget expiry.
            if s.satisfied.load(Ordering::Relaxed)
                || s.solutions.load(Ordering::Relaxed) >= config.max_solutions
            {
                break;
            }
        }
        stats.visited += 1;
        if shared.is_some() {
            let sweeps = ctx.eval_cache.cache_stats().sweeps;
            if sweeps != sweeps_seen || stats.visited % PUBLISH_EVERY == 0 {
                sweeps_seen = sweeps;
                publish(&mut stats);
            }
        }

        if pq.is_concrete() {
            stats.concrete_checked += 1;
            let (demo_rows, demo_cols) = (ctx.demo_refs.n_rows(), ctx.demo_refs.n_cols());

            // Demo-dims fast reject, part 1 (free): a candidate whose
            // static column arity is below the demonstration's can never
            // host it — skip evaluation (and star materialization)
            // entirely.
            if pq.n_cols(&ctx.input_arities).is_some_and(|n| n < demo_cols) {
                continue;
            }
            let Some(q) = pq.to_concrete() else {
                return Err(SickleError::Internal {
                    message: format!("candidate {pq} reported concrete but failed to convert"),
                });
            };

            // Stage 1 — materialize the provenance star channel.
            let t0 = Instant::now();
            // Demo-dims fast reject, part 2: row-preserving top operators
            // (sort / partition / arithmetic / projection) have exactly
            // their source's row count, and a `group`'s output rows are
            // its group count — both read from the engine cache's
            // row-count memos, which record every evaluation and
            // *survive eviction* of the results they describe (a `u32`
            // per query instead of a pinned table). The reject's hit
            // rate is therefore immune to cache pressure: a child swept
            // out long ago still rejects its too-small siblings without
            // re-evaluating anything. Out-of-range group keys (possible
            // via caller-supplied seeds) simply never have a memo entry
            // and fall through to the exec path, which rejects them as
            // an EvalError instead of panicking.
            let too_small = match &q {
                Query::Sort { src, .. }
                | Query::Partition { src, .. }
                | Query::Arith { src, .. }
                | Query::Proj { src, .. } => ctx
                    .eval_cache
                    .known_rows(src)
                    .is_some_and(|n| n < demo_rows),
                Query::Group { src, keys, .. } => ctx
                    .eval_cache
                    .known_group_rows(src, keys)
                    .is_some_and(|n| n < demo_rows),
                // Filter and join tops: an exact memo for the candidate
                // itself wins (recorded if any sibling shape evaluated
                // it); otherwise a *sound upper bound* from the operand
                // memos — a filter never has more rows than its child, a
                // cross join has exactly |L|·|R|, and a left join keeps
                // every left row at least once, so it has at most
                // |L|·max(1, |R|). Upper bound < demo rows refutes the
                // candidate before any star construction.
                Query::Filter { src, .. } => ctx
                    .eval_cache
                    .known_rows(&q)
                    .or_else(|| match &**src {
                        Query::Join { left, right } => Some(
                            ctx.eval_cache
                                .known_rows(left)?
                                .saturating_mul(ctx.eval_cache.known_rows(right)?),
                        ),
                        _ => ctx.eval_cache.known_rows(src),
                    })
                    .is_some_and(|n| n < demo_rows),
                Query::Join { left, right } => ctx
                    .eval_cache
                    .known_rows(&q)
                    .or_else(|| {
                        Some(
                            ctx.eval_cache
                                .known_rows(left)?
                                .saturating_mul(ctx.eval_cache.known_rows(right)?),
                        )
                    })
                    .is_some_and(|n| n < demo_rows),
                Query::LeftJoin { left, right, .. } => ctx
                    .eval_cache
                    .known_rows(&q)
                    .or_else(|| {
                        Some(
                            ctx.eval_cache
                                .known_rows(left)?
                                .saturating_mul(ctx.eval_cache.known_rows(right)?.max(1)),
                        )
                    })
                    .is_some_and(|n| n < demo_rows),
                _ => false,
            };
            let exec = if too_small {
                None
            } else {
                // One-shot: acceptance never probes a candidate again;
                // its children are stored for the siblings that share them.
                ctx.eval_cache
                    .exec_once(&q, Semantics::Provenance, ctx.inputs())
                    .ok()
            };
            let d_mat = t0.elapsed();
            stats.time_materialize += d_mat;
            stats.time_concrete += d_mat;
            let Some(exec) = exec else { continue };
            let Some(star) = exec.try_star() else {
                return Err(SickleError::Internal {
                    message: format!(
                        "provenance evaluation of candidate {q} returned no star channel"
                    ),
                });
            };

            // Stage 2 — prefilter. Cheap necessary condition: the
            // demonstration's references must embed into the exact
            // per-cell reference sets (Def. 3 on exact provenance).
            // Cells convert lazily through the cross-candidate star-cell
            // memo, and column feasibility is memoized by column
            // identity — pass-through columns shared between sibling
            // candidates resolve without touching a single cell. Direct
            // matching, not the cross-sibling analysis cache: every
            // concrete query has distinct exact sets, so interning them
            // would only grow the pool for verdicts that can never be
            // shared.
            let t1 = Instant::now();
            let dims = MatchDims {
                demo_rows,
                demo_cols,
                table_rows: star.n_rows(),
                table_cols: star.n_cols(),
            };
            let mut sets = StarSets::new(ctx, &exec, star);
            let mut col_candidates: Vec<Vec<usize>> = Vec::with_capacity(demo_cols);
            let mut feasible =
                dims.demo_rows <= dims.table_rows && dims.demo_cols <= dims.table_cols;
            if feasible {
                for dj in 0..demo_cols {
                    let cands: Vec<usize> = (0..dims.table_cols)
                        .filter(|&tj| sets.column_hosts(dj, tj))
                        .collect();
                    if cands.is_empty() {
                        feasible = false;
                        break;
                    }
                    col_candidates.push(cands);
                }
            }
            let found = feasible
                && find_table_match_with_candidates(
                    dims,
                    &col_candidates,
                    &mut |di, dj, ti, tj| sets.subset_ok(di, dj, ti, tj),
                )
                .is_some();
            let d_pre = t1.elapsed();
            stats.time_prefilter += d_pre;
            stats.time_concrete += d_pre;
            if !found {
                continue;
            }

            // Stage 3 — Def. 1, seeded by the prefilter's surviving
            // column candidates and the per-demo-row candidate rows they
            // induce (sound: `≺` implies reference containment, so every
            // Def. 1-feasible column/row is among the prefilter's
            // candidates). Only prefilter survivors — a rare breed — pay
            // for the row pass.
            let t2 = Instant::now();
            let row_candidates = match_seed_rows(dims, &col_candidates, &mut |di, dj, ti, tj| {
                sets.subset_ok(di, dj, ti, tj)
            });
            let seed = MatchSeed {
                col_candidates,
                row_candidates,
            };
            let consistent = demo_consistent_with_candidates(ctx.demo(), star, &seed).is_some();
            let d_match = t2.elapsed();
            stats.time_match += d_match;
            stats.time_concrete += d_match;
            if consistent {
                publish(&mut stats);
                let done = stop(&q);
                solutions.push(q);
                if let Some((s, _)) = shared {
                    s.solutions.fetch_add(1, Ordering::Relaxed);
                }
                if done || solutions.len() >= config.max_solutions {
                    break 'search;
                }
            }
            continue;
        }

        let t0 = Instant::now();
        let feasible = analyzer.is_feasible(&pq, ctx);
        stats.time_analyze += t0.elapsed();
        if !feasible {
            stats.pruned += 1;
            continue;
        }

        let t0 = Instant::now();
        let children = expand(&pq, ctx, config);
        stats.time_expand += t0.elapsed();
        stats.expanded += children.len();
        work.extend(children);
    }

    settle(&mut stats);
    if let Some((s, slot)) = shared {
        s.update(slot, |mine| mine.clone_from(&stats));
    }
    // Rank by query size (stable: discovery order breaks ties), matching
    // the paper's size-based ranking of consistent queries.
    solutions.sort_by_key(Query::size);
    Ok(SynthResult { solutions, stats })
}

/// Runs Algorithm 1 with top-level skeleton expansion parallelized across
/// `workers` OS threads — the engine room behind
/// [`crate::Session::solve`] / [`crate::Session::submit`], with the warm
/// state (`pool`, `analysis`) and the live counters (`shared`) supplied by
/// the caller so they can outlive — and be observed during — the run.
/// `seeds` overrides the skeleton enumeration when supplied.
///
/// The size-ordered skeleton list is dealt round-robin to the workers, so
/// every thread starts on small skeletons. Each worker owns a private
/// [`TaskContext`] (engine evaluation caches are thread-local by design —
/// the engine's `Rc`-shared tables are not `Sync`), but all contexts share
/// one [`RefSetPool`] and one [`AnalysisCache`]: interned set ids are
/// exchangeable across threads and a consistency verdict computed by one
/// worker prunes the same abstract table everywhere. As soon as the pooled
/// solution count reaches `config.max_solutions` (or any worker's `stop`
/// fires), every worker winds down. The run's counters are the fold of
/// the workers' final slots in `shared`, so live progress read after the
/// run equals the result.
///
/// Merged results are ranked by query size exactly as the sequential
/// search ranks them.
///
/// # Errors
///
/// Propagates the first worker's [`SickleError::Internal`] (see
/// [`run_search`]) after every worker has been joined.
#[allow(clippy::too_many_arguments)] // internal seam; the public face is Session
pub(crate) fn run_parallel(
    task: &SynthTask,
    config: &SynthConfig,
    make_analyzer: &(impl Fn() -> Box<dyn Analyzer> + Sync),
    workers: usize,
    stop: &(impl Fn(&Query) -> bool + Sync),
    pool: Arc<RefSetPool>,
    analysis: Arc<AnalysisCache>,
    shared: &SharedStats,
    seeds: Option<Vec<PQuery>>,
) -> Result<SynthResult, SickleError> {
    let workers = workers.max(1);
    // Baseline for the run-wide reuse counter: hits accrued by this run
    // over the session-shared cache (measured once around the whole run
    // so parallel workers are not double counted).
    let hits_base = analysis.stats().hits;
    let seed_ctx = TaskContext::with_shared_policy(
        task.clone(),
        Arc::clone(&pool),
        Arc::clone(&analysis),
        config.cache,
    );
    let skeletons = seeds.unwrap_or_else(|| construct_skeletons(&seed_ctx, config));
    let run_worker = |w: usize, ctx: &TaskContext, shard: Vec<PQuery>| {
        run_search(
            ctx,
            config,
            make_analyzer().as_ref(),
            shard,
            |q| {
                // `shared.solutions` is incremented *after* this callback
                // returns, so count the solution at hand too: once the
                // pool reaches the target, stop the other workers as well
                // (they also watch the pooled count directly, covering
                // concurrent finds that each see a stale count here).
                let found = shared.solutions.load(Ordering::Relaxed) + 1;
                if stop(q) || found >= config.max_solutions {
                    shared.satisfied.store(true, Ordering::Relaxed);
                    true
                } else {
                    false
                }
            },
            Some((shared, w + 1)),
        )
    };

    let results: Vec<Result<SynthResult, SickleError>> = if workers == 1 {
        vec![run_worker(0, &seed_ctx, skeletons)]
    } else {
        // Deal skeletons round-robin so each worker sees small sizes first.
        let mut shards: Vec<Vec<PQuery>> = vec![Vec::new(); workers];
        for (i, sk) in skeletons.into_iter().enumerate() {
            shards[i % workers].push(sk);
        }
        std::thread::scope(|scope| {
            let handles: Vec<_> = shards
                .into_iter()
                .enumerate()
                .map(|(w, shard)| {
                    let (pool, analysis) = (Arc::clone(&pool), Arc::clone(&analysis));
                    let run_worker = &run_worker;
                    scope.spawn(move || {
                        let ctx = TaskContext::with_shared_policy(
                            task.clone(),
                            pool,
                            analysis,
                            config.cache,
                        );
                        run_worker(w, &ctx, shard)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("synthesis worker panicked"))
                .collect()
        })
    };

    // All workers are already joined: propagating the first internal
    // error loses no thread.
    let results = results.into_iter().collect::<Result<Vec<_>, _>>()?;
    let mut found = results.into_iter().map(|r| r.solutions);
    let mut solutions = found.next().unwrap_or_default();
    // Two workers can discover the same query: keep the first find.
    for q in found.flatten() {
        if !solutions.contains(&q) {
            solutions.push(q);
        }
    }
    solutions.sort_by_key(Query::size);
    solutions.truncate(config.max_solutions);
    let reused = analysis.stats().hits.saturating_sub(hits_base);
    shared.update(RUN_SLOT, |run| run.reused_verdicts = reused);
    let mut stats = shared.total();
    // Workers stopped by pool satisfaction break quietly (no timeout
    // flag); a budget expiry racing the winning worker is still not a
    // timeout for the run as a whole. External cancellation
    // (`config.cancel`) and genuine budget expiry both surface as
    // `timed_out`, exactly as in the sequential search.
    stats.timed_out &= !shared.satisfied.load(Ordering::Relaxed);
    Ok(SynthResult { solutions, stats })
}

// ---------------------------------------------------------------------------
// Skeleton construction
// ---------------------------------------------------------------------------

/// Enumerates query skeletons up to `config.max_depth` operators: chains of
/// `chain_ops` over each input table and (optionally) over `join` /
/// `left_join` of two inputs, all parameters unfilled.
pub fn construct_skeletons(ctx: &TaskContext, config: &SynthConfig) -> Vec<PQuery> {
    let mut bases: Vec<(PQuery, usize)> = (0..ctx.task.inputs.len())
        .map(|k| (PQuery::Input(k), 0))
        .collect();
    if config.enable_join {
        for i in 0..ctx.task.inputs.len() {
            for j in 0..ctx.task.inputs.len() {
                if i == j {
                    continue;
                }
                // Cross product commutes up to column order (which table
                // matching absorbs), so keep one orientation.
                if i < j {
                    bases.push((
                        PQuery::Join {
                            left: Box::new(PQuery::Input(i)),
                            right: Box::new(PQuery::Input(j)),
                        },
                        1,
                    ));
                }
                // Left joins are order-sensitive: keep both orientations.
                bases.push((
                    PQuery::LeftJoin {
                        left: Box::new(PQuery::Input(i)),
                        right: Box::new(PQuery::Input(j)),
                        pred: None,
                    },
                    1,
                ));
            }
        }
    }

    let mut out: Vec<(PQuery, Option<OpKind>)> = Vec::new();
    for (base, base_size) in &bases {
        let budget = config.max_depth.saturating_sub(*base_size);
        let mut chains: Vec<(PQuery, Option<OpKind>)> = vec![(base.clone(), None)];
        out.push((base.clone(), None));
        for _ in 0..budget {
            let mut next = Vec::new();
            for (q, last) in &chains {
                for &op in &config.chain_ops {
                    if config.forbid_trivial_repeats
                        && matches!(op, OpKind::Filter | OpKind::Sort)
                        && *last == Some(op)
                    {
                        continue;
                    }
                    let wrapped = wrap(op, q.clone());
                    out.push((wrapped.clone(), Some(op)));
                    next.push((wrapped, Some(op)));
                }
            }
            chains = next;
        }
    }
    // Explore smaller skeletons first; among equal sizes, prefer families
    // whose *root* operator can produce the top-level structure of the
    // demonstrated cells (an arithmetic formula needs an `arithmetic` root,
    // a `rank(…)` cell needs a `partition` root, …). This only reorders the
    // work list — the explored space is unchanged, and the order is shared
    // by every analyzer, as §5.1 requires for a fair comparison.
    let preferred = preferred_roots(ctx.demo());
    out.sort_by_key(|(q, root)| {
        let penalty = match root {
            Some(op) => usize::from(!preferred.contains(op)),
            None => 0,
        };
        (q.size(), penalty)
    });
    out.into_iter().map(|(q, _)| q).collect()
}

/// Root operators compatible with the demonstration's top-level cell
/// structure (see [`construct_skeletons`]).
fn preferred_roots(demo: &Demo) -> Vec<OpKind> {
    use sickle_provenance::{DemoExpr, FuncName};
    let mut want: Vec<OpKind> = Vec::new();
    let mut push = |op: OpKind| {
        if !want.contains(&op) {
            want.push(op);
        }
    };
    for i in 0..demo.n_rows() {
        for j in 0..demo.n_cols() {
            match demo.cell(i, j) {
                DemoExpr::Apply { func, .. } => match func {
                    FuncName::Op(_) => push(OpKind::Arith),
                    FuncName::Rank | FuncName::DenseRank => push(OpKind::Partition),
                    FuncName::Agg(_) => {
                        push(OpKind::Group);
                        push(OpKind::Partition);
                    }
                },
                DemoExpr::Ref(_) | DemoExpr::Const(_) => {}
            }
        }
    }
    if want.is_empty() {
        // Pure-reference demos constrain nothing: all roots equal.
        want.extend(OpKind::ALL);
    }
    want
}

fn wrap(op: OpKind, src: PQuery) -> PQuery {
    let src = Box::new(src);
    match op {
        OpKind::Group => PQuery::Group {
            src,
            keys: None,
            agg: None,
        },
        OpKind::Partition => PQuery::Partition {
            src,
            keys: None,
            func: None,
        },
        OpKind::Arith => PQuery::Arith { src, func: None },
        OpKind::Filter => PQuery::Filter { src, pred: None },
        OpKind::Sort => PQuery::Sort { src, params: None },
    }
}

// ---------------------------------------------------------------------------
// Hole selection and domains
// ---------------------------------------------------------------------------

/// Expands the next hole of `pq` with every value of its inferred domain,
/// returning the children (lines 15–17 of Algorithm 1).
///
/// Hole order is strictly bottom-up in evaluation order (source-first walk;
/// within an operator, keys before the aggregation choice). Finishing inner
/// operators first makes their subqueries concrete as early as possible,
/// which is exactly what unlocks the *strong* abstraction for the operators
/// above them (§4) — this matches the paper's Fig. 6 state, where the inner
/// `group`'s keys are filled while everything above is still abstract.
pub fn expand(pq: &PQuery, ctx: &TaskContext, config: &SynthConfig) -> Vec<PQuery> {
    let mut counter = 0usize;
    fill_hole(pq, 0, &mut counter, ctx, config)
}

/// Walks the tree source-first; when the running hole counter hits
/// `chosen`, instantiates that hole with every domain value and returns the
/// resulting queries.
fn fill_hole(
    pq: &PQuery,
    chosen: usize,
    counter: &mut usize,
    ctx: &TaskContext,
    config: &SynthConfig,
) -> Vec<PQuery> {
    // Helper: if this node's own hole is the chosen one, produce the filled
    // variants; `counter` must be advanced for every hole encountered.
    macro_rules! descend {
        ($src:expr, $rebuild:expr) => {{
            let subs = fill_hole($src, chosen, counter, ctx, config);
            subs.into_iter().map($rebuild).collect::<Vec<PQuery>>()
        }};
    }

    match pq {
        PQuery::Input(_) => Vec::new(),
        PQuery::Filter { src, pred } => {
            let from_src = descend!(src, |s| PQuery::Filter {
                src: Box::new(s),
                pred: pred.clone(),
            });
            if !from_src.is_empty() {
                return from_src;
            }
            if pred.is_none() {
                let here = *counter == chosen;
                *counter += 1;
                if here {
                    return filter_pred_domain(src, ctx, config)
                        .into_iter()
                        .map(|p| PQuery::Filter {
                            src: src.clone(),
                            pred: Some(p),
                        })
                        .collect();
                }
            }
            Vec::new()
        }
        PQuery::Join { left, right } => {
            let from_left = descend!(left, |s| PQuery::Join {
                left: Box::new(s),
                right: right.clone(),
            });
            if !from_left.is_empty() {
                return from_left;
            }
            descend!(right, |s| PQuery::Join {
                left: left.clone(),
                right: Box::new(s),
            })
        }
        PQuery::LeftJoin { left, right, pred } => {
            let from_left = descend!(left, |s| PQuery::LeftJoin {
                left: Box::new(s),
                right: right.clone(),
                pred: pred.clone(),
            });
            if !from_left.is_empty() {
                return from_left;
            }
            let from_right = descend!(right, |s| PQuery::LeftJoin {
                left: left.clone(),
                right: Box::new(s),
                pred: pred.clone(),
            });
            if !from_right.is_empty() {
                return from_right;
            }
            if pred.is_none() {
                let here = *counter == chosen;
                *counter += 1;
                if here {
                    return join_pred_domain(left, right, ctx)
                        .into_iter()
                        .map(|p| PQuery::LeftJoin {
                            left: left.clone(),
                            right: right.clone(),
                            pred: Some(p),
                        })
                        .collect();
                }
            }
            Vec::new()
        }
        PQuery::Proj { src, cols } => {
            let from_src = descend!(src, |s| PQuery::Proj {
                src: Box::new(s),
                cols: cols.clone(),
            });
            if !from_src.is_empty() {
                return from_src;
            }
            if cols.is_none() {
                let here = *counter == chosen;
                *counter += 1;
                if here {
                    // Projection is subsumed by subtable matching; domain is
                    // the identity projection only.
                    if let Some(n) = src.n_cols(&ctx.input_arities) {
                        return vec![PQuery::Proj {
                            src: src.clone(),
                            cols: Some((0..n).collect()),
                        }];
                    }
                }
            }
            Vec::new()
        }
        PQuery::Sort { src, params } => {
            let from_src = descend!(src, |s| PQuery::Sort {
                src: Box::new(s),
                params: params.clone(),
            });
            if !from_src.is_empty() {
                return from_src;
            }
            if params.is_none() {
                let here = *counter == chosen;
                *counter += 1;
                if here {
                    let Some(n) = src.n_cols(&ctx.input_arities) else {
                        return Vec::new();
                    };
                    let mut out = Vec::with_capacity(n * 2);
                    for c in 0..n {
                        for asc in [true, false] {
                            out.push(PQuery::Sort {
                                src: src.clone(),
                                params: Some((vec![c], asc)),
                            });
                        }
                    }
                    return out;
                }
            }
            Vec::new()
        }
        PQuery::Group { src, keys, agg } => {
            let from_src = descend!(src, |s| PQuery::Group {
                src: Box::new(s),
                keys: keys.clone(),
                agg: *agg,
            });
            if !from_src.is_empty() {
                return from_src;
            }
            if keys.is_none() {
                let here = *counter == chosen;
                *counter += 1;
                if here {
                    return key_subsets(src, ctx, config, config.max_key_cols)
                        .into_iter()
                        .map(|ks| PQuery::Group {
                            src: src.clone(),
                            keys: Some(ks),
                            agg: *agg,
                        })
                        .collect();
                }
            }
            if agg.is_none() {
                let here = *counter == chosen;
                *counter += 1;
                if here {
                    let keys = keys.as_deref().unwrap_or(&[]);
                    return agg_domain(src, keys, ctx)
                        .into_iter()
                        .map(|(a, t)| PQuery::Group {
                            src: src.clone(),
                            keys: Some(keys.to_vec()),
                            agg: Some((a, t)),
                        })
                        .collect();
                }
            }
            Vec::new()
        }
        PQuery::Partition { src, keys, func } => {
            let from_src = descend!(src, |s| PQuery::Partition {
                src: Box::new(s),
                keys: keys.clone(),
                func: *func,
            });
            if !from_src.is_empty() {
                return from_src;
            }
            if keys.is_none() {
                let here = *counter == chosen;
                *counter += 1;
                if here {
                    return key_subsets(src, ctx, config, config.max_partition_cols)
                        .into_iter()
                        .map(|ks| PQuery::Partition {
                            src: src.clone(),
                            keys: Some(ks),
                            func: *func,
                        })
                        .collect();
                }
            }
            if func.is_none() {
                let here = *counter == chosen;
                *counter += 1;
                if here {
                    let keys = keys.as_deref().unwrap_or(&[]);
                    return analytic_domain(src, keys, ctx)
                        .into_iter()
                        .map(|(f, t)| PQuery::Partition {
                            src: src.clone(),
                            keys: Some(keys.to_vec()),
                            func: Some((f, t)),
                        })
                        .collect();
                }
            }
            Vec::new()
        }
        PQuery::Arith { src, func } => {
            let from_src = descend!(src, |s| PQuery::Arith {
                src: Box::new(s),
                func: func.clone(),
            });
            if !from_src.is_empty() {
                return from_src;
            }
            if func.is_none() {
                let here = *counter == chosen;
                *counter += 1;
                if here {
                    return arith_domain(src, ctx, config)
                        .into_iter()
                        .map(|(f, cols)| PQuery::Arith {
                            src: src.clone(),
                            func: Some((f, cols)),
                        })
                        .collect();
                }
            }
            Vec::new()
        }
    }
}

/// Column "kinds" of a subquery output, available only when the subquery is
/// concrete: `true` marks a numeric column.
fn numeric_cols(src: &PQuery, ctx: &TaskContext) -> Option<Vec<bool>> {
    let q = src.to_concrete()?;
    // Values-level evaluation suffices here; the abstract analyzer will
    // upgrade the cache entry to the full channels when it needs them.
    let exec = ctx
        .eval_cache
        .exec(&q, Semantics::Values, ctx.inputs())
        .ok()?;
    let t = exec.table();
    let mut numeric = vec![false; t.n_cols()];
    for (c, flag) in numeric.iter_mut().enumerate() {
        let mut any = false;
        let mut all_num = true;
        for i in 0..t.n_rows() {
            let v = t.get(i, c).expect("in range");
            if !v.is_null() {
                any = true;
                all_num &= v.is_numeric();
            }
        }
        *flag = any && all_num;
    }
    Some(numeric)
}

/// Key-column subsets in increasing size (optionally including the empty
/// set), up to `max_cols` columns.
fn key_subsets(
    src: &PQuery,
    ctx: &TaskContext,
    config: &SynthConfig,
    max_cols: usize,
) -> Vec<Vec<usize>> {
    let Some(n) = src.n_cols(&ctx.input_arities) else {
        return Vec::new();
    };
    let mut out: Vec<Vec<usize>> = Vec::new();
    if config.allow_empty_keys {
        out.push(Vec::new());
    }
    let cap = max_cols.min(n);
    let mut current: Vec<Vec<usize>> = (0..n).map(|c| vec![c]).collect();
    for size in 1..=cap {
        out.extend(current.iter().cloned());
        if size == cap {
            break;
        }
        let mut next = Vec::new();
        for subset in &current {
            let last = *subset.last().expect("non-empty");
            for c in last + 1..n {
                let mut bigger = subset.clone();
                bigger.push(c);
                next.push(bigger);
            }
        }
        current = next;
    }
    out
}

/// Aggregation function × target column domain for `group`.
fn agg_domain(src: &PQuery, keys: &[usize], ctx: &TaskContext) -> Vec<(AggFunc, usize)> {
    let Some(n) = src.n_cols(&ctx.input_arities) else {
        return Vec::new();
    };
    let numeric = numeric_cols(src, ctx);
    let mut out = Vec::new();
    for agg in AggFunc::ALL {
        for t in 0..n {
            if keys.contains(&t) {
                continue;
            }
            if matches!(agg, AggFunc::Sum | AggFunc::Avg) {
                if let Some(num) = &numeric {
                    if !num[t] {
                        continue;
                    }
                }
            }
            out.push((agg, t));
        }
    }
    out
}

/// Analytical function × target column domain for `partition`.
fn analytic_domain(src: &PQuery, keys: &[usize], ctx: &TaskContext) -> Vec<(AnalyticFunc, usize)> {
    let Some(n) = src.n_cols(&ctx.input_arities) else {
        return Vec::new();
    };
    let numeric = numeric_cols(src, ctx);
    let mut out = Vec::new();
    for func in AnalyticFunc::ALL {
        for t in 0..n {
            if keys.contains(&t) {
                continue;
            }
            let needs_numeric = matches!(
                func,
                AnalyticFunc::Agg(AggFunc::Sum)
                    | AnalyticFunc::Agg(AggFunc::Avg)
                    | AnalyticFunc::CumSum
            );
            if needs_numeric {
                if let Some(num) = &numeric {
                    if !num[t] {
                        continue;
                    }
                }
            }
            out.push((func, t));
        }
    }
    out
}

/// True when swapping the two parameters of a binary template yields a
/// structurally identical function (then `(a, b)` and `(b, a)` argument
/// bindings are equivalent and only one is enumerated).
fn is_symmetric(template: &ArithExpr) -> bool {
    fn swap(e: &ArithExpr) -> ArithExpr {
        match e {
            ArithExpr::Param(0) => ArithExpr::Param(1),
            ArithExpr::Param(1) => ArithExpr::Param(0),
            ArithExpr::Param(i) => ArithExpr::Param(*i),
            ArithExpr::Lit(v) => ArithExpr::Lit(v.clone()),
            ArithExpr::Bin(op, l, r) => ArithExpr::Bin(*op, Box::new(swap(l)), Box::new(swap(r))),
        }
    }
    let swapped = swap(template);
    // Commutative root also makes arg order irrelevant: a + b == b + a.
    let comm_root = matches!(
        template,
        ArithExpr::Bin(op, l, r)
            if op.is_commutative()
                && matches!((l.as_ref(), r.as_ref()), (ArithExpr::Param(_), ArithExpr::Param(_)))
    );
    swapped == *template || comm_root
}

/// Arithmetic template × argument column tuples.
fn arith_domain(
    src: &PQuery,
    ctx: &TaskContext,
    config: &SynthConfig,
) -> Vec<(ArithExpr, Vec<usize>)> {
    let Some(n) = src.n_cols(&ctx.input_arities) else {
        return Vec::new();
    };
    let numeric = numeric_cols(src, ctx);
    let is_num = |c: usize| numeric.as_ref().is_none_or(|v| v[c]);
    let mut out = Vec::new();
    for template in &config.arith_templates {
        match template.arity() {
            1 => {
                for c in (0..n).filter(|&c| is_num(c)) {
                    out.push((template.clone(), vec![c]));
                }
            }
            2 => {
                let symmetric = is_symmetric(template);
                for a in (0..n).filter(|&c| is_num(c)) {
                    for b in (0..n).filter(|&c| is_num(c)) {
                        if a == b {
                            continue;
                        }
                        if symmetric && a > b {
                            continue;
                        }
                        out.push((template.clone(), vec![a, b]));
                    }
                }
            }
            _ => {}
        }
    }
    out
}

/// Filter predicates: column–constant comparisons using demonstration
/// constants (§5.1 — Sickle does not invent constants).
fn filter_pred_domain(src: &PQuery, ctx: &TaskContext, _config: &SynthConfig) -> Vec<Pred> {
    let Some(n) = src.n_cols(&ctx.input_arities) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for c in 0..n {
        for v in &ctx.constants {
            let ops: &[CmpOp] = if v.is_numeric() {
                &CmpOp::ALL
            } else {
                &[CmpOp::Eq]
            };
            for &op in ops {
                out.push(Pred::ColConst(c, op, v.clone()));
            }
        }
    }
    out
}

/// Join predicates from declared key pairs: only pairs matching the two
/// joined inputs are considered.
fn join_pred_domain(left: &PQuery, right: &PQuery, ctx: &TaskContext) -> Vec<Pred> {
    let (PQuery::Input(li), PQuery::Input(ri)) = (left, right) else {
        return Vec::new();
    };
    let left_arity = ctx.input_arities[*li];
    ctx.task
        .join_keys
        .iter()
        .filter_map(|jk| {
            if jk.left_table == *li && jk.right_table == *ri {
                Some(Pred::ColCmp(
                    jk.left_col,
                    CmpOp::Eq,
                    left_arity + jk.right_col,
                ))
            } else if jk.left_table == *ri && jk.right_table == *li {
                Some(Pred::ColCmp(
                    jk.right_col,
                    CmpOp::Eq,
                    left_arity + jk.left_col,
                ))
            } else {
                None
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sickle_provenance::Demo;

    /// The sequential search over the full skeleton enumeration.
    fn search(ctx: &TaskContext, config: &SynthConfig, analyzer: &dyn Analyzer) -> SynthResult {
        let skeletons = construct_skeletons(ctx, config);
        run_search(ctx, config, analyzer, skeletons, |_| false, None).expect("search runs")
    }

    fn enrollment() -> Table {
        Table::new(
            ["City", "Quarter", "Group", "Enrolled", "Population"],
            vec![
                vec![
                    "A".into(),
                    1.into(),
                    "Youth".into(),
                    1667.into(),
                    5668.into(),
                ],
                vec![
                    "A".into(),
                    1.into(),
                    "Adult".into(),
                    1367.into(),
                    5668.into(),
                ],
                vec![
                    "A".into(),
                    2.into(),
                    "Youth".into(),
                    256.into(),
                    5668.into(),
                ],
                vec![
                    "A".into(),
                    2.into(),
                    "Adult".into(),
                    347.into(),
                    5668.into(),
                ],
                vec![
                    "A".into(),
                    3.into(),
                    "Youth".into(),
                    148.into(),
                    5668.into(),
                ],
                vec![
                    "A".into(),
                    3.into(),
                    "Adult".into(),
                    237.into(),
                    5668.into(),
                ],
                vec![
                    "A".into(),
                    4.into(),
                    "Youth".into(),
                    556.into(),
                    5668.into(),
                ],
                vec![
                    "A".into(),
                    4.into(),
                    "Adult".into(),
                    432.into(),
                    5668.into(),
                ],
                vec![
                    "B".into(),
                    1.into(),
                    "Youth".into(),
                    2578.into(),
                    10541.into(),
                ],
                vec![
                    "B".into(),
                    1.into(),
                    "Adult".into(),
                    1200.into(),
                    10541.into(),
                ],
            ],
        )
        .unwrap()
    }

    fn fig3_task() -> TaskContext {
        let demo = Demo::parse(&[
            &["T[1,1]", "T[1,2]", "sum(T[1,4], T[2,4]) / T[1,5] * 100"],
            &[
                "T[7,1]",
                "T[7,2]",
                "sum(T[1,4], T[2,4], ..., T[8,4]) / T[7,5] * 100",
            ],
        ])
        .unwrap();
        TaskContext::new(SynthTask::new(vec![enrollment()], demo))
    }

    #[test]
    fn skeleton_count_and_ordering() {
        let ctx = fig3_task();
        let config = SynthConfig::default();
        let skels = construct_skeletons(&ctx, &config);
        // 1 base + 3 + 9 + 27 chains over 3 ops at depth 3.
        assert_eq!(skels.len(), 40);
        // Sorted by size.
        for w in skels.windows(2) {
            assert!(w[0].size() <= w[1].size());
        }
    }

    #[test]
    fn key_subsets_increasing_size() {
        let ctx = fig3_task();
        let config = SynthConfig::default();
        let subs = key_subsets(&PQuery::Input(0), &ctx, &config, config.max_key_cols);
        assert_eq!(subs[0], Vec::<usize>::new());
        assert!(subs.contains(&vec![0, 1, 4]));
        // sizes monotone
        for w in subs.windows(2) {
            assert!(w[0].len() <= w[1].len());
        }
    }

    #[test]
    fn expand_fills_keys_first() {
        let ctx = fig3_task();
        let config = SynthConfig::default();
        let pq = PQuery::Arith {
            src: Box::new(PQuery::Group {
                src: Box::new(PQuery::Input(0)),
                keys: None,
                agg: None,
            }),
            func: None,
        };
        let children = expand(&pq, &ctx, &config);
        assert!(!children.is_empty());
        for child in &children {
            match child {
                PQuery::Arith { src, func } => {
                    assert!(func.is_none());
                    match src.as_ref() {
                        PQuery::Group { keys, agg, .. } => {
                            assert!(keys.is_some(), "keys must fill first");
                            assert!(agg.is_none());
                        }
                        other => panic!("unexpected {other}"),
                    }
                }
                other => panic!("unexpected {other}"),
            }
        }
    }

    #[test]
    fn agg_domain_respects_keys_and_types() {
        let ctx = fig3_task();
        let dom = agg_domain(&PQuery::Input(0), &[0, 1, 4], &ctx);
        // Sum/Avg only over Enrolled (column 3); Group (col 2) is a string.
        assert!(dom.contains(&(AggFunc::Sum, 3)));
        assert!(!dom.contains(&(AggFunc::Sum, 2)));
        assert!(dom.contains(&(AggFunc::Count, 2)));
        assert!(!dom.iter().any(|(_, t)| *t == 0 || *t == 1 || *t == 4));
    }

    #[test]
    fn arith_domain_dedups_symmetric_templates() {
        let ctx = fig3_task();
        let config = SynthConfig {
            arith_templates: vec![
                ArithExpr::bin(
                    sickle_table::ArithOp::Add,
                    ArithExpr::Param(0),
                    ArithExpr::Param(1),
                ),
                ArithExpr::bin(
                    sickle_table::ArithOp::Div,
                    ArithExpr::Param(0),
                    ArithExpr::Param(1),
                ),
            ],
            ..SynthConfig::default()
        };
        let dom = arith_domain(&PQuery::Input(0), &ctx, &config);
        // Numeric columns of the input: 1 (Quarter), 3, 4 — so 3 choices.
        // Add: C(3,2)=3 unordered pairs; Div: 3*2=6 ordered pairs.
        assert_eq!(dom.len(), 3 + 6);
    }

    #[test]
    fn synthesizes_group_sum_from_demo() {
        // Simple task: total enrolled per (city, quarter).
        let demo = Demo::parse(&[
            &["T[1,1]", "sum(T[1,4], T[2,4])"],
            &["T[3,1]", "sum(T[3,4], T[4,4])"],
        ])
        .unwrap();
        let ctx = TaskContext::new(SynthTask::new(vec![enrollment()], demo));
        let config = SynthConfig {
            max_depth: 1,
            max_solutions: 5,
            ..SynthConfig::default()
        };
        let res = search(&ctx, &config, &ProvenanceAnalyzer);
        assert!(!res.solutions.is_empty(), "stats: {:?}", res.stats);
        // The first solution must be a group-by containing City with sum(Enrolled).
        let q = &res.solutions[0];
        match q {
            Query::Group {
                keys, agg, target, ..
            } => {
                assert!(keys.contains(&0));
                assert_eq!((*agg, *target), (AggFunc::Sum, 3));
            }
            other => panic!("unexpected solution {other}"),
        }
    }

    #[test]
    fn running_example_synthesis_with_pruning() {
        let ctx = fig3_task();
        let config = SynthConfig {
            max_depth: 3,
            max_solutions: 1,
            timeout: Some(Duration::from_secs(120)),
            ..SynthConfig::default()
        };
        let res = search(&ctx, &config, &ProvenanceAnalyzer);
        assert!(
            !res.solutions.is_empty(),
            "no solution; stats {:?}",
            res.stats
        );
        let q = &res.solutions[0];
        // Solution must be arithmetic over partition over group.
        let shown = q.to_string();
        assert!(shown.contains("group"), "{shown}");
        assert!(shown.contains("partition"), "{shown}");
        assert!(shown.contains("arithmetic"), "{shown}");
    }

    #[test]
    fn pruning_reduces_visits() {
        let ctx = fig3_task();
        let config = SynthConfig {
            max_depth: 2,
            max_solutions: 1,
            max_visited: Some(200_000),
            ..SynthConfig::default()
        };
        let with = search(&ctx, &config, &ProvenanceAnalyzer);
        let without = search(&ctx, &config, &NoPruneAnalyzer);
        // Neither finds a depth-2 solution; pruning must visit far fewer.
        assert!(with.solutions.is_empty());
        assert!(
            with.stats.visited < without.stats.visited,
            "with={} without={}",
            with.stats.visited,
            without.stats.visited
        );
    }

    #[test]
    fn expand_speed_probe() {
        let ctx = fig3_task();
        let config = SynthConfig::default();
        let pq = PQuery::Arith {
            src: Box::new(PQuery::Partition {
                src: Box::new(PQuery::Group {
                    src: Box::new(PQuery::Input(0)),
                    keys: None,
                    agg: None,
                }),
                keys: None,
                func: None,
            }),
            func: None,
        };
        let t0 = std::time::Instant::now();
        let children = expand(&pq, &ctx, &config);
        let dt = t0.elapsed();
        assert_eq!(children.len(), 26);
        assert!(dt < Duration::from_millis(500), "expand took {dt:?}");
    }

    #[test]
    fn prefilter_memoizes_only_shared_star_columns() {
        let ctx = fig3_task();
        let child = Query::Group {
            src: Box::new(Query::Input(0)),
            keys: vec![0, 1],
            agg: AggFunc::Sum,
            target: 3,
        };
        let candidate = Query::Arith {
            src: Box::new(child.clone()),
            func: ArithExpr::bin(
                sickle_table::ArithOp::Div,
                ArithExpr::Param(0),
                ArithExpr::Param(1),
            ),
            cols: vec![2, 2],
        };
        // As in the search: the child is stored, the candidate one-shot.
        ctx.eval_cache
            .exec(&child, Semantics::Provenance, ctx.inputs())
            .unwrap();
        let exec = ctx
            .eval_cache
            .exec_once(&candidate, Semantics::Provenance, ctx.inputs())
            .unwrap();
        let star = exec.star();
        // The child's three columns pass through; the quotient is the
        // candidate's own.
        let lone: Vec<bool> = (0..star.n_cols())
            .map(|tj| Arc::strong_count(star.column_arc(tj)) == 1)
            .collect();
        assert_eq!(lone, [false, false, false, true]);
        let mut sets = StarSets::new(&ctx, &exec, star);
        for dj in 0..ctx.demo_refs.n_cols() {
            for tj in 0..star.n_cols() {
                sets.column_hosts(dj, tj);
            }
        }
        let hosts = ctx.col_hosts.borrow();
        for (tj, &lone) in lone.iter().enumerate() {
            let col = star.column_arc(tj);
            let addr = Arc::as_ptr(col) as usize;
            assert_eq!(ctx.eval_cache.star_cols_holds(col), !lone, "column {tj}");
            assert_eq!(hosts.keys().any(|&(_, a)| a == addr), !lone, "column {tj}");
        }
    }

    #[test]
    fn cache_policy_threads_through_the_search() {
        let ctx = TaskContext::with_policy(
            SynthTask::new(
                vec![enrollment()],
                Demo::parse(&[
                    &["T[1,1]", "sum(T[1,4], T[2,4])"],
                    &["T[3,1]", "sum(T[3,4], T[4,4])"],
                ])
                .unwrap(),
            ),
            crate::CachePolicy::default().with_cap(8),
        );
        assert_eq!(ctx.eval_cache.policy().cap, 8);
        // Deep enough that the store holds more subqueries than the cap:
        // candidates themselves are evaluated once and never stored, so a
        // depth-1 search stores only the input table.
        let config = SynthConfig {
            max_depth: 2,
            max_solutions: 10,
            ..SynthConfig::default()
        };
        let res = search(&ctx, &config, &ProvenanceAnalyzer);
        assert!(!res.solutions.is_empty());
        // A cap this small must have swept something.
        let cs = ctx.eval_cache.cache_stats();
        assert!(cs.evictions > 0, "{cs:?}");
        assert_eq!(res.stats.cache_evictions, cs.evictions);
        assert_eq!(res.stats.cache_reevals, cs.reevals);
    }

    #[test]
    fn join_pred_domain_uses_declared_keys() {
        let dims = Table::new(["city", "region"], vec![vec!["A".into(), "w".into()]]).unwrap();
        let demo = Demo::parse(&[&["T[1,1]"]]).unwrap();
        let mut task = SynthTask::new(vec![enrollment(), dims], demo);
        task.join_keys.push(JoinKey {
            left_table: 0,
            left_col: 0,
            right_table: 1,
            right_col: 0,
        });
        let ctx = TaskContext::new(task);
        let dom = join_pred_domain(&PQuery::Input(0), &PQuery::Input(1), &ctx);
        assert_eq!(dom, vec![Pred::ColCmp(0, CmpOp::Eq, 5)]);
        // Reversed orientation also resolves.
        let dom_rev = join_pred_domain(&PQuery::Input(1), &PQuery::Input(0), &ctx);
        assert_eq!(dom_rev, vec![Pred::ColCmp(0, CmpOp::Eq, 2)]);
    }
}
