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
        // Timing goes to stderr so stdout stays byte-for-byte reproducible:
        // every search counter under its wire key (durations in seconds),
        // then the cumulative session totals of pool size and hits/misses.
        let counters: Vec<String> = res
            .stats
            .wire_fields()
            .map(|(key, x)| {
                if key.ends_with("_s") {
                    format!("{key}={x:.3}")
                } else {
                    format!("{key}={x}")
                }
            })
            .collect();
        let cs = session.analysis_stats();
        eprintln!(
            "{:2} {} pool={} hits={} misses={}",
            b.id,
            counters.join(" "),
            session.pool().size(),
            cs.hits,
            cs.misses
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
