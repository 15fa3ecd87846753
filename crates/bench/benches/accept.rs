//! Micro-benchmarks of the concrete acceptance path: the staged,
//! candidate-seeded pipeline (lazy per-cell set conversion → Def. 3
//! prefilter with a [`MatchSeed`] report → seeded, pre-keyed Def. 1
//! matching) vs the blind path it replaced (eager whole-grid conversion →
//! blind prefilter → blind `demo_consistent` restart).
//!
//! Candidates are *suite-derived*: for a handful of benchmarks the search
//! frontier is replayed exactly as `run_search` visits it (skeletons,
//! analyzer pruning, hole expansion), and every concrete candidate's
//! provenance star grid goes through both acceptance paths. Verdicts are
//! cross-checked per candidate before timing counts for anything.
//!
//! Plain `harness = false` timing (the offline environment has no
//! `criterion`):
//!
//! ```text
//! cargo bench -p sickle-bench --bench accept [-- --quick]
//! ```
//!
//! The run writes `BENCH_accept.json` (per-benchmark rows + geo-mean) for
//! CI artifacts.

use std::sync::Arc;
use std::time::{Duration, Instant};

use sickle_benchmarks::{all_benchmarks, frontier_candidates};
use sickle_core::{
    CachePolicy, CacheStats, ProvTable, Query, Semantics, SynthConfig, SynthTask, TaskContext,
    BULK_COL_ROWS,
};
use sickle_provenance::{
    demo_consistent, demo_consistent_with_candidates, find_table_match,
    find_table_match_with_candidates, match_seed_rows, Demo, Expr, MatchDims, MatchSeed, RefSet,
    RefUniverse,
};
use sickle_table::Grid;

/// One suite-derived acceptance instance: a candidate's star grid.
struct Instance {
    star: ProvTable,
}

/// Replays the search frontier of one benchmark (pruned exactly as the
/// real search prunes it — [`frontier_candidates`]) and collects up to
/// `cap` concrete candidates' star grids. Candidates are evaluated one-shot
/// as the search evaluates them: their children are stored in `ctx`'s
/// engine cache, they are not, so a star column only the candidate owns
/// is held by its instance alone.
fn collect_instances(ctx: &TaskContext, config: &SynthConfig, cap: usize) -> Vec<Instance> {
    frontier_candidates(ctx, config, cap, 60_000)
        .into_iter()
        .filter_map(|q| {
            ctx.eval_cache
                .exec_once(&q, Semantics::Provenance, ctx.inputs())
                .ok()
                .map(|exec| Instance {
                    star: exec.star().clone(),
                })
        })
        .collect()
}

/// The pre-change acceptance path: eager whole-grid conversion, blind
/// prefilter, blind Def. 1 restart.
fn accept_blind(
    demo: &Demo,
    demo_refs: &Grid<RefSet>,
    universe: &RefUniverse,
    star: &ProvTable,
) -> bool {
    let sets: Grid<RefSet> = star.map(|e| universe.set_from(e.refs()));
    let dims = MatchDims {
        demo_rows: demo_refs.n_rows(),
        demo_cols: demo_refs.n_cols(),
        table_rows: sets.n_rows(),
        table_cols: sets.n_cols(),
    };
    let feasible = find_table_match(dims, &mut |di, dj, ti, tj| {
        demo_refs[(di, dj)].is_subset_of(&sets[(ti, tj)])
    })
    .is_some();
    feasible && demo_consistent(demo, star).is_some()
}

/// The staged path as the search runs it: lazy, demo-targeted set
/// conversion with cross-candidate sharing (bulk per-column sets and
/// column-feasibility verdicts memoized by column identity — sibling
/// candidates share pass-through columns by `Arc`; as in the search, only
/// small columns that something besides the candidate holds are
/// memoized), then the prefilter seeds the pre-keyed Def. 1 matcher with
/// its surviving column/row candidates instead of restarting blind.
struct StagedMatcher<'a> {
    demo: &'a Demo,
    demo_refs: &'a Grid<RefSet>,
    universe: &'a RefUniverse,
    /// Column identity → bulk-converted sets (small columns).
    col_sets: ColSetsMemo,
    /// (demo column, column identity) → column feasibility.
    col_hosts: ColHostsMemo,
}

/// Bulk column-set memo: column identity → (pinned column, its sets).
type ColSetsMemo = std::collections::HashMap<usize, (Arc<Vec<Expr>>, Arc<Vec<RefSet>>)>;

/// Column-feasibility memo: (demo column, column identity) → verdict.
type ColHostsMemo = std::collections::HashMap<(usize, usize), (Arc<Vec<Expr>>, bool)>;

impl<'a> StagedMatcher<'a> {
    fn new(demo: &'a Demo, demo_refs: &'a Grid<RefSet>, universe: &'a RefUniverse) -> Self {
        StagedMatcher {
            demo,
            demo_refs,
            universe,
            col_sets: ColSetsMemo::new(),
            col_hosts: ColHostsMemo::new(),
        }
    }

    fn accept(&mut self, star: &ProvTable) -> bool {
        let dims = MatchDims {
            demo_rows: self.demo_refs.n_rows(),
            demo_cols: self.demo_refs.n_cols(),
            table_rows: star.n_rows(),
            table_cols: star.n_cols(),
        };
        if dims.demo_rows > dims.table_rows || dims.demo_cols > dims.table_cols {
            return false;
        }
        // The search's memo admission rule: small and shared.
        let memo: Vec<bool> = (0..star.n_cols())
            .map(|tj| star.n_rows() <= BULK_COL_ROWS && Arc::strong_count(star.column_arc(tj)) > 1)
            .collect();
        // Per-candidate overlay: memoizable columns resolve through the
        // shared bulk memo, the others convert per probed cell, locally.
        let mut shared: Vec<Option<Arc<Vec<RefSet>>>> = vec![None; star.n_cols()];
        let mut local: Vec<Option<RefSet>> = vec![None; star.n_rows() * star.n_cols()];
        let n_cols = star.n_cols();
        macro_rules! subset_ok {
            ($di:expr, $dj:expr, $ti:expr, $tj:expr) => {{
                let set: &RefSet = if memo[$tj] {
                    let col = shared[$tj].get_or_insert_with(|| {
                        let arc = star.column_arc($tj);
                        let key = Arc::as_ptr(arc) as usize;
                        match self.col_sets.get(&key) {
                            Some((_, sets)) => Arc::clone(sets),
                            None => {
                                let sets = Arc::new(
                                    arc.iter()
                                        .map(|e| self.universe.set_from(e.refs()))
                                        .collect::<Vec<RefSet>>(),
                                );
                                self.col_sets
                                    .insert(key, (Arc::clone(arc), Arc::clone(&sets)));
                                sets
                            }
                        }
                    });
                    &col[$ti]
                } else {
                    local[$ti * n_cols + $tj]
                        .get_or_insert_with(|| self.universe.set_from(star[($ti, $tj)].refs()))
                };
                self.demo_refs[($di, $dj)].is_subset_of(set)
            }};
        }

        let mut col_candidates: Vec<Vec<usize>> = Vec::with_capacity(dims.demo_cols);
        for dj in 0..dims.demo_cols {
            let mut cands = Vec::new();
            for tj in 0..dims.table_cols {
                let key = (dj, Arc::as_ptr(star.column_arc(tj)) as usize);
                let feasible = match (memo[tj], self.col_hosts.get(&key)) {
                    (true, Some((_, v))) => *v,
                    _ => {
                        let v = (0..dims.demo_rows)
                            .all(|di| (0..dims.table_rows).any(|ti| subset_ok!(di, dj, ti, tj)));
                        if memo[tj] {
                            self.col_hosts
                                .insert(key, (Arc::clone(star.column_arc(tj)), v));
                        }
                        v
                    }
                };
                if feasible {
                    cands.push(tj);
                }
            }
            if cands.is_empty() {
                return false;
            }
            col_candidates.push(cands);
        }

        let found =
            find_table_match_with_candidates(dims, &col_candidates, &mut |di, dj, ti, tj| {
                subset_ok!(di, dj, ti, tj)
            })
            .is_some();
        if !found {
            return false;
        }

        let row_candidates = match_seed_rows(dims, &col_candidates, &mut |di, dj, ti, tj| {
            subset_ok!(di, dj, ti, tj)
        });
        let seed = MatchSeed {
            col_candidates,
            row_candidates,
        };
        demo_consistent_with_candidates(self.demo, star, &seed).is_some()
    }
}

/// Deterministic stride interleave: walks the list with `ways` equally
/// spaced cursors so sibling candidates (which share subquery children)
/// stop arriving consecutively — the access pattern that makes the real
/// search's engine cache churn (a shared child goes cold between its
/// uses and is a sweep victim unless the policy protects it).
fn interleave(v: &[Query], ways: usize) -> Vec<Query> {
    let chunk = v.len().div_ceil(ways.max(1));
    let mut out = Vec::with_capacity(v.len());
    for offset in 0..chunk {
        for w in 0..ways {
            if let Some(q) = v.get(w * chunk + offset) {
                out.push(q.clone());
            }
        }
    }
    out
}

/// One pass of the churn scenario: evaluate + accept every query of the
/// stream through a fresh engine cache under `policy`, reading the
/// engine's derived reference-set channel (what star-channel spilling
/// frees and re-derives). Returns the wall-clock, the per-query verdicts
/// and the cache churn counters.
fn churn_pass(
    task: &SynthTask,
    policy: CachePolicy,
    stream: &[Query],
) -> (Duration, Vec<bool>, CacheStats) {
    let ctx = TaskContext::with_policy(task.clone(), policy);
    let demo = ctx.demo().clone();
    let t0 = Instant::now();
    let verdicts = stream
        .iter()
        .map(
            |q| match ctx.eval_cache.exec(q, Semantics::Provenance, ctx.inputs()) {
                Ok(exec) => {
                    let star = exec.star();
                    let sets = exec.sets(&ctx.universe);
                    let dims = MatchDims {
                        demo_rows: ctx.demo_refs.n_rows(),
                        demo_cols: ctx.demo_refs.n_cols(),
                        table_rows: sets.n_rows(),
                        table_cols: sets.n_cols(),
                    };
                    let feasible = find_table_match(dims, &mut |di, dj, ti, tj| {
                        ctx.demo_refs[(di, dj)].is_subset_of(&sets[(ti, tj)])
                    })
                    .is_some();
                    feasible && demo_consistent(&demo, star).is_some()
                }
                Err(_) => false,
            },
        )
        .collect();
    (t0.elapsed(), verdicts, ctx.eval_cache.cache_stats())
}

/// One churn-scenario row (per benchmark): spilling-policy timing and
/// counters at a deliberately tiny cache cap.
struct ChurnRow {
    name: String,
    cap: usize,
    spill: Duration,
    spill_stats: CacheStats,
}

/// Best-of-N wall-clock of `f`, with one warmup run.
fn time_best<R>(iters: usize, mut f: impl FnMut() -> R) -> Duration {
    std::hint::black_box(f());
    let mut best = Duration::MAX;
    for _ in 0..iters {
        let t0 = Instant::now();
        std::hint::black_box(f());
        best = best.min(t0.elapsed());
    }
    best
}

struct Report {
    rows: Vec<(String, Duration, Duration)>,
    churn: Vec<ChurnRow>,
}

impl Report {
    fn row(&mut self, name: &str, blind: Duration, staged: Duration) {
        let speedup = blind.as_secs_f64() / staged.as_secs_f64().max(1e-9);
        println!(
            "{name:44} blind {blind:>12.2?}   staged {staged:>12.2?}   speedup {speedup:>6.2}x"
        );
        self.rows.push((name.to_string(), blind, staged));
    }

    fn churn_row(&mut self, row: ChurnRow) {
        println!(
            "{:44} spill {:>12.2?}   evictions {} reevals {} demotions {}",
            row.name,
            row.spill,
            row.spill_stats.evictions,
            row.spill_stats.reevals,
            row.spill_stats.demotions,
        );
        self.churn.push(row);
    }

    fn geo_mean(&self) -> f64 {
        let ln_sum: f64 = self
            .rows
            .iter()
            .map(|(_, b, s)| (b.as_secs_f64() / s.as_secs_f64().max(1e-9)).ln())
            .sum();
        (ln_sum / self.rows.len() as f64).exp()
    }

    fn write_json(&self, quick: bool) {
        let mut out = String::from("{\n  \"schema\": \"sickle-bench/accept/v3\",\n");
        out.push_str(&format!("  \"quick\": {quick},\n  \"rows\": [\n"));
        for (i, (name, b, s)) in self.rows.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{name}\", \"blind_s\": {:.9}, \"staged_s\": {:.9}, \
                 \"speedup\": {:.3}}}{}\n",
                b.as_secs_f64(),
                s.as_secs_f64(),
                b.as_secs_f64() / s.as_secs_f64().max(1e-9),
                if i + 1 == self.rows.len() { "" } else { "," }
            ));
        }
        out.push_str("  ],\n  \"churn\": [\n");
        for (i, r) in self.churn.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"cap\": {}, \"spill_s\": {:.9}, \
                 \"spill_evictions\": {}, \"spill_demotions\": {}, \"spill_reevals\": {}}}{}\n",
                r.name,
                r.cap,
                r.spill.as_secs_f64(),
                r.spill_stats.evictions,
                r.spill_stats.demotions,
                r.spill_stats.reevals,
                if i + 1 == self.churn.len() { "" } else { "," }
            ));
        }
        out.push_str(&format!(
            "  ],\n  \"geo_mean_speedup\": {:.3}\n}}\n",
            self.geo_mean()
        ));
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join("BENCH_accept.json");
        match std::fs::write(&path, out) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => println!("warning: could not write {}: {e}", path.display()),
        }
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    println!(
        "accept micro-benchmarks (best of N{}, debug assertions {})",
        if quick { ", --quick" } else { "" },
        if cfg!(debug_assertions) {
            "ON — use --release"
        } else {
            "off"
        }
    );

    // A spread of suite benchmarks: small single-input group tasks, a
    // partition-heavy task, and the heavy tail the acceptance rebuild
    // targeted.
    let bench_ids: &[usize] = if quick {
        &[1, 8, 44]
    } else {
        &[1, 8, 17, 44, 55, 76]
    };
    let (cap, iters) = if quick { (150, 3) } else { (400, 5) };

    let suite = all_benchmarks();
    let mut report = Report {
        rows: Vec::new(),
        churn: Vec::new(),
    };
    let mut total_instances = 0usize;
    for &id in bench_ids {
        let Some(b) = suite.iter().find(|b| b.id == id) else {
            println!("warning: no suite benchmark with id {id}");
            continue;
        };
        let (task, _) = b.task(2022).expect("benchmark demos generate");
        let demo = task.demo.clone();
        let config = b.config();
        let ctx = TaskContext::new(task);
        let instances = collect_instances(&ctx, &config, cap);
        total_instances += instances.len();
        let universe = &ctx.universe;
        let demo_refs = &ctx.demo_refs;

        // Cross-check: both paths must agree on every instance.
        {
            let mut m = StagedMatcher::new(&demo, demo_refs, universe);
            for (i, inst) in instances.iter().enumerate() {
                let blind = accept_blind(&demo, demo_refs, universe, &inst.star);
                let staged = m.accept(&inst.star);
                assert_eq!(blind, staged, "verdict mismatch on {} #{i}", b.name);
            }
        }

        let blind = time_best(iters, || {
            instances
                .iter()
                .filter(|inst| accept_blind(&demo, demo_refs, universe, &inst.star))
                .count()
        });
        // Fresh memos per iteration: the measured quantity is one pass of
        // the candidate stream through the shipped machinery, including
        // its cold start.
        let staged = time_best(iters, || {
            let mut m = StagedMatcher::new(&demo, demo_refs, universe);
            instances.iter().filter(|inst| m.accept(&inst.star)).count()
        });
        report.row(&format!("accept/{:02}-{}", b.id, b.name), blind, staged);
    }

    let gm = report.geo_mean();
    println!(
        "geo-mean speedup: {gm:.2}x over {} workloads ({total_instances} suite-derived candidates)",
        report.rows.len()
    );

    // Churn scenario: the join-heavy tasks the cost-aware eviction policy
    // targets, re-verified through a deliberately tiny engine cache so
    // every policy sweeps constantly. The candidate stream is stride-
    // interleaved (shared children go cold between uses) and runs twice
    // (the second round re-probes what round one cached: a demoted entry
    // pays set re-conversion, an evicted one pays full re-execution). The
    // same stream runs (1) on an effectively unbounded cache ("blind"
    // reference verdicts) and (2) under the spilling policy in retention
    // mode. Any verdict divergence between the spilled run and the blind
    // reference is a correctness bug: the assert aborts the bench (and
    // fails CI's bench-smoke job).
    const CHURN_CAP: usize = 48;
    let churn_ids: &[usize] = if quick { &[54] } else { &[54, 63] };
    let churn_iters = if quick { 2 } else { 3 };
    let candidate_cap = if quick { 200 } else { 400 };
    println!("\nchurn scenario (engine-cache cap {CHURN_CAP}, join-heavy tasks):");
    for &id in churn_ids {
        let Some(b) = suite.iter().find(|b| b.id == id) else {
            println!("warning: no suite benchmark with id {id}");
            continue;
        };
        let (task, _) = b.task(2022).expect("benchmark demos generate");
        let config = b.config();
        let scratch = TaskContext::new(task.clone());
        let candidates = frontier_candidates(&scratch, &config, candidate_cap, 60_000);
        drop(scratch);
        let mut stream = interleave(&candidates, 8);
        stream.extend(stream.clone());

        // Blind reference: no eviction pressure at all.
        let unbounded = CachePolicy::default().with_cap(usize::MAX);
        let (_, blind_verdicts, _) = churn_pass(&task, unbounded, &stream);

        let run = |policy: CachePolicy| {
            let mut best = Duration::MAX;
            let mut last = None;
            for _ in 0..churn_iters {
                let (d, v, s) = churn_pass(&task, policy, &stream);
                best = best.min(d);
                last = Some((v, s));
            }
            let (verdicts, stats) = last.expect("at least one iteration");
            (best, verdicts, stats)
        };
        // Retention mode (low water above cap/2): cold expensive
        // survivors exist and get demoted instead of dropped.
        let spill_policy = CachePolicy::default()
            .with_cap(CHURN_CAP)
            .with_low_water(CHURN_CAP * 3 / 4);
        let (spill, spill_verdicts, spill_stats) = run(spill_policy);

        assert_eq!(
            spill_verdicts, blind_verdicts,
            "churn cross-check diverged (spilled vs blind) on task {id}"
        );
        report.churn_row(ChurnRow {
            name: format!("churn/{:02}-{}", b.id, b.name),
            cap: CHURN_CAP,
            spill,
            spill_stats,
        });
    }

    report.write_json(quick);
    if gm <= 1.0 {
        println!("WARNING: staged acceptance measured slower than the blind path");
    }
}
