//! Deterministic full-suite solution dump: every benchmark runs through
//! one warm [`Session`] (sequential provenance-guided search) under a
//! *visited-query* budget (no wall-clock cutoff, so the output is
//! bit-for-bit reproducible) and prints the consistent queries found, in
//! rank order.
//!
//! This is the regression oracle for engine/analyzer refactors: any change
//! to the search must leave this output byte-identical. Per-task timing
//! goes to stderr (stdout stays reproducible), and the machine-readable
//! record set is written to `BENCH_synthesis.json` (`SICKLE_JSON`
//! overrides the path, the empty string disables it).
//!
//! ```text
//! SICKLE_MAX_VISITED=20000 cargo run -p sickle-bench --release --bin solutions
//! ```

use sickle_bench::runner::HarnessConfig;
use sickle_bench::{write_bench_json, RunRecord, SuiteResults, Technique};
use sickle_benchmarks::all_benchmarks;
use sickle_core::{Budget, Session, SynthRequest};

fn main() {
    let hc = HarnessConfig::from_env();
    let budget = std::env::var("SICKLE_MAX_VISITED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20_000);
    println!(
        "solution dump: max_visited={budget} seed={} (deterministic)",
        hc.seed
    );
    let mut results = SuiteResults::default();
    // One warm session across the whole suite: the set pool is shared by
    // every task (analysis caches are per-demonstration inside the
    // session). The dump stays byte-identical to a cold per-task run —
    // interned ids are opaque and cached verdicts equal what a cold
    // search recomputes.
    let session = Session::new();
    for b in all_benchmarks() {
        if !hc.only.is_empty() && !hc.only.contains(&b.id) {
            continue;
        }
        // Setup or solve failures surface as structured errors on stderr
        // and skip the task — the dump itself must never panic on a
        // malformed benchmark definition.
        let task = match b.task(hc.seed) {
            Ok((task, _)) => task,
            Err(e) => {
                eprintln!("{:2} ERROR [internal]: demo generation failed: {e}", b.id);
                continue;
            }
        };
        let request = SynthRequest::from_task(task)
            .with_search(b.config())
            .with_budget(
                Budget::unbounded()
                    .with_max_visited(Some(budget))
                    .with_max_solutions(10),
            )
            .with_cache_policy(hc.cache);
        let res = match session.solve(&request) {
            Ok(res) => res,
            Err(e) => {
                eprintln!("{:2} ERROR [{}]: {e}", b.id, e.kind());
                continue;
            }
        };
        println!(
            "## {:2} {} visited={} pruned={} solutions={}",
            b.id,
            b.name,
            res.stats.visited,
            res.stats.pruned,
            res.solutions.len()
        );
        for (i, q) in res.solutions.iter().enumerate() {
            println!("  {:2}. {q}", i + 1);
        }
        // Timing goes to stderr so stdout stays byte-for-byte reproducible.
        // Pool size and hit/miss counters are cumulative session totals.
        let cs = session.analysis_stats();
        eprintln!(
            "{:2} wall={:.3}s analyze={:.3}s concrete={:.3}s (mat={:.3}s pre={:.3}s match={:.3}s) \
             expand={:.3}s join={:.3}s join_rows={} pool={} hits={} misses={} \
             cache(ev={} dem={} reeval={} reeval_ms={:.1})",
            b.id,
            res.stats.elapsed.as_secs_f64(),
            res.stats.time_analyze.as_secs_f64(),
            res.stats.time_concrete.as_secs_f64(),
            res.stats.time_materialize.as_secs_f64(),
            res.stats.time_prefilter.as_secs_f64(),
            res.stats.time_match.as_secs_f64(),
            res.stats.time_expand.as_secs_f64(),
            res.stats.time_join.as_secs_f64(),
            res.stats.join_rows,
            session.pool().size(),
            cs.hits,
            cs.misses,
            res.stats.cache_evictions,
            res.stats.cache_demotions,
            res.stats.cache_reevals,
            res.stats.cache_reeval_time.as_secs_f64() * 1e3
        );
        let rank = res
            .solutions
            .iter()
            .position(|q| b.is_correct(q))
            .map(|i| i + 1);
        results.records.push(RunRecord {
            id: b.id,
            name: b.name.to_string(),
            category: b.category,
            technique: Technique::Provenance,
            solved: rank.is_some(),
            stats: res.stats,
            rank,
        });
    }
    // Report the configuration this bin actually ran with: its own
    // visited budget and no wall-clock cutoff (recorded as 0).
    let json_hc = HarnessConfig {
        timeout: std::time::Duration::ZERO,
        max_visited: budget,
        ..hc
    };
    match write_bench_json(&results, &json_hc) {
        Ok(Some(path)) => eprintln!("wrote {}", path.display()),
        Ok(None) => {}
        Err(e) => eprintln!("warning: could not write bench JSON: {e}"),
    }
}
