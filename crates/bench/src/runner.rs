//! Shared benchmark runner: executes every (benchmark × technique) pair and
//! renders the paper's tables and figures from the collected records.

use std::time::Duration;

use sickle_baselines::{TypeAnalyzer, ValueAnalyzer};
use sickle_benchmarks::{all_benchmarks, Benchmark, Category};
use sickle_core::{
    Analyzer, AnalyzerChoice, Budget, CachePolicy, SearchStats, Session, SickleError, SynthRequest,
};

use crate::json::Json;
use crate::wire::stat_fields;

/// The compared techniques (paper names).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Technique {
    /// Sickle's abstract data provenance.
    Provenance,
    /// Morpheus-style type abstraction.
    TypeAbs,
    /// Scythe-style value abstraction.
    ValueAbs,
}

impl Technique {
    /// All techniques, in report order.
    pub const ALL: [Technique; 3] = [
        Technique::Provenance,
        Technique::TypeAbs,
        Technique::ValueAbs,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Technique::Provenance => "sickle",
            Technique::TypeAbs => "type-abs",
            Technique::ValueAbs => "value-abs",
        }
    }

    /// The session-API analyzer selection implementing this technique.
    pub fn choice(self) -> AnalyzerChoice {
        match self {
            Technique::Provenance => AnalyzerChoice::Provenance,
            Technique::TypeAbs => AnalyzerChoice::custom("type-abs", || Box::new(TypeAnalyzer)),
            Technique::ValueAbs => AnalyzerChoice::custom("value-abs", || Box::new(ValueAnalyzer)),
        }
    }
}

/// Returns the analyzer implementing a technique.
pub fn technique_analyzers(t: Technique) -> Box<dyn Analyzer> {
    t.choice().make()
}

/// Outcome of one (benchmark × technique) run.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Benchmark id (1-based).
    pub id: usize,
    /// Benchmark name.
    pub name: String,
    /// Benchmark category.
    pub category: Category,
    /// Technique used.
    pub technique: Technique,
    /// Whether the correct query was recovered within budget.
    pub solved: bool,
    /// The run's search counters; `stats.elapsed` is the wall-clock time
    /// until the correct query (or until budget).
    pub stats: SearchStats,
    /// 1-based rank of the correct query among returned solutions, when
    /// solved (consistent-but-incorrect queries found earlier push it down).
    pub rank: Option<usize>,
}

/// Harness configuration, read from the environment.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Per-run wall-clock budget.
    pub timeout: Duration,
    /// Per-run visited-query budget.
    pub max_visited: usize,
    /// Demonstration-generation seed.
    pub seed: u64,
    /// Restrict to these benchmark ids (empty = all).
    pub only: Vec<usize>,
    /// Worker threads for skeleton expansion (1 = sequential search).
    pub workers: usize,
    /// The engine-cache eviction policy for every run.
    pub cache: CachePolicy,
}

impl HarnessConfig {
    /// Reads `SICKLE_TIMEOUT_SECS`, `SICKLE_MAX_VISITED`, `SICKLE_SEED`,
    /// `SICKLE_ONLY`, `SICKLE_WORKERS`, `SICKLE_CACHE_CAP` with the
    /// documented defaults.
    pub fn from_env() -> HarnessConfig {
        let get = |k: &str| std::env::var(k).ok();
        let mut cache = CachePolicy::default();
        if let Some(cap) = get("SICKLE_CACHE_CAP").and_then(|v| v.parse().ok()) {
            cache = cache.with_cap(cap);
        }
        HarnessConfig {
            timeout: Duration::from_secs(
                get("SICKLE_TIMEOUT_SECS")
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(15),
            ),
            max_visited: get("SICKLE_MAX_VISITED")
                .and_then(|v| v.parse().ok())
                .unwrap_or(1_000_000),
            seed: get("SICKLE_SEED")
                .and_then(|v| v.parse().ok())
                .unwrap_or(2022),
            only: get("SICKLE_ONLY")
                .map(|v| v.split(',').filter_map(|s| s.trim().parse().ok()).collect())
                .unwrap_or_default(),
            workers: get("SICKLE_WORKERS")
                .and_then(|v| v.parse().ok())
                .unwrap_or(1)
                .max(1),
            cache,
        }
    }

    /// One-line render of the knobs, for run banners.
    pub fn banner(&self) -> String {
        format!(
            "timeout={}s max_visited={} seed={} workers={} cache_cap={}{}",
            self.timeout.as_secs(),
            self.max_visited,
            self.seed,
            self.workers,
            self.cache.cap,
            if self.only.is_empty() {
                String::new()
            } else {
                format!(" only={:?}", self.only)
            }
        )
    }
}

/// Builds the session request for one (benchmark × technique) run under
/// the harness budget.
///
/// # Errors
///
/// Returns [`SickleError::Internal`] when the benchmark's demonstration
/// cannot be generated for the configured seed (a malformed or missing
/// benchmark definition must surface as a structured error, not a
/// panic).
pub fn benchmark_request(
    b: &Benchmark,
    technique: Technique,
    hc: &HarnessConfig,
) -> Result<SynthRequest, SickleError> {
    let (task, _gen) = b.task(hc.seed).map_err(|e| SickleError::Internal {
        message: format!("benchmark {} demo generation failed: {e}", b.id),
    })?;
    Ok(SynthRequest::from_task(task)
        .with_search(b.config())
        .with_budget(
            Budget::default()
                .with_timeout(Some(hc.timeout))
                .with_max_visited(Some(hc.max_visited))
                // Collect up to N=10 consistent queries for ranking, but
                // stop early on the correct one (the stop predicate).
                .with_max_solutions(10),
        )
        .with_analyzer(technique.choice())
        .with_workers(hc.workers)
        .with_cache_policy(hc.cache))
}

/// Runs one benchmark with one technique on a cold session; the search
/// stops as soon as the correct query is recovered (§5.2: "the
/// synthesizer runs until the correct query q_gt is found").
///
/// # Errors
///
/// Propagates [`benchmark_request`] failures and request validation /
/// internal search errors from the session.
pub fn run_one(
    b: &Benchmark,
    technique: Technique,
    hc: &HarnessConfig,
) -> Result<RunRecord, SickleError> {
    run_one_in(&Session::new(), b, technique, hc)
}

/// [`run_one`] against a caller-supplied (warm) [`Session`]: suite runs
/// reuse one session so interned reference sets and Def. 3 verdicts carry
/// across tasks.
///
/// # Errors
///
/// As [`run_one`].
pub fn run_one_in(
    session: &Session,
    b: &Benchmark,
    technique: Technique,
    hc: &HarnessConfig,
) -> Result<RunRecord, SickleError> {
    let request = benchmark_request(b, technique, hc)?;
    let result = session.solve_with(&request, |q| b.is_correct(q))?;
    let rank = result
        .solutions
        .iter()
        .position(|q| b.is_correct(q))
        .map(|i| i + 1);
    Ok(RunRecord {
        id: b.id,
        name: b.name.to_string(),
        category: b.category,
        technique,
        solved: rank.is_some(),
        stats: result.stats,
        rank,
    })
}

/// All records for a suite run.
#[derive(Debug, Clone, Default)]
pub struct SuiteResults {
    /// One record per (benchmark × technique).
    pub records: Vec<RunRecord>,
}

impl SuiteResults {
    /// Records of one technique.
    pub fn of(&self, t: Technique) -> impl Iterator<Item = &RunRecord> {
        self.records.iter().filter(move |r| r.technique == t)
    }

    /// Records of one technique restricted to easy or hard benchmarks.
    pub fn of_cat(&self, t: Technique, hard: bool) -> Vec<&RunRecord> {
        self.of(t)
            .filter(|r| r.category.is_hard() == hard)
            .collect()
    }
}

/// Runs the whole suite for the given techniques, printing progress.
///
/// On completion the machine-readable per-task record set is written to
/// `BENCH_synthesis.json` (override the path with `SICKLE_JSON`, disable
/// with `SICKLE_JSON=`), so the performance trajectory — wall-clock,
/// `time_analyze`, `time_eval`, candidates visited — is tracked across
/// revisions.
pub fn run_suite(techniques: &[Technique], hc: &HarnessConfig) -> SuiteResults {
    let mut results = SuiteResults::default();
    let suite = all_benchmarks();
    // One warm session for the whole suite: the set pool persists across
    // tasks and techniques, and each task's per-demonstration analysis
    // cache persists across its technique runs.
    let session = Session::new();
    for b in &suite {
        if !hc.only.is_empty() && !hc.only.contains(&b.id) {
            continue;
        }
        for &t in techniques {
            // A benchmark that fails to set up or solve is reported as a
            // structured error and skipped; it must not kill the suite.
            let rec = match run_one_in(&session, b, t, hc) {
                Ok(rec) => rec,
                Err(e) => {
                    eprintln!(
                        "[{:>2}/{}] {:9} {:55} ERROR [{}]: {e}",
                        b.id,
                        suite.len(),
                        t.label(),
                        b.name,
                        e.kind()
                    );
                    continue;
                }
            };
            eprintln!(
                "[{:>2}/{}] {:9} {:55} {} {:>8.2}s visited={}",
                b.id,
                suite.len(),
                t.label(),
                b.name,
                if rec.solved { "solved " } else { "TIMEOUT" },
                rec.stats.elapsed.as_secs_f64(),
                rec.stats.visited
            );
            results.records.push(rec);
        }
    }
    match write_bench_json(&results, hc) {
        Ok(Some(path)) => eprintln!("wrote {}", path.display()),
        Ok(None) => {}
        Err(e) => eprintln!("warning: could not write bench JSON: {e}"),
    }
    results
}

/// Renders the suite results as the `BENCH_synthesis.json` document: one
/// record line per run, carrying every counter of the wire `stats`
/// object.
pub fn suite_results_json(res: &SuiteResults, hc: &HarnessConfig) -> String {
    let mut out = String::from("{\n  \"schema\": \"sickle-bench/synthesis/v1\",\n");
    out.push_str(&format!(
        "  \"config\": {{\"timeout_secs\": {}, \"max_visited\": {}, \"seed\": {}, \"workers\": {}, \
         \"cache_cap\": {}}},\n",
        hc.timeout.as_secs(),
        hc.max_visited,
        hc.seed,
        hc.workers,
        hc.cache.cap
    ));
    out.push_str("  \"records\": [\n");
    for (i, r) in res.records.iter().enumerate() {
        let mut fields = vec![
            ("id".into(), Json::num(r.id as f64)),
            ("name".into(), Json::str(&r.name)),
            ("category".into(), Json::str(r.category.label())),
            ("technique".into(), Json::str(r.technique.label())),
            ("solved".into(), Json::Bool(r.solved)),
            (
                "rank".into(),
                r.rank.map_or(Json::Null, |n| Json::num(n as f64)),
            ),
        ];
        fields.extend(stat_fields(&r.stats));
        out.push_str("    ");
        out.push_str(&Json::Obj(fields).render());
        out.push_str(if i + 1 == res.records.len() {
            "\n"
        } else {
            ",\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Writes [`suite_results_json`] to `SICKLE_JSON` (default
/// `BENCH_synthesis.json`; the empty string disables the artifact).
///
/// # Errors
///
/// Propagates the underlying filesystem error.
pub fn write_bench_json(
    res: &SuiteResults,
    hc: &HarnessConfig,
) -> std::io::Result<Option<std::path::PathBuf>> {
    let path = std::env::var("SICKLE_JSON").unwrap_or_else(|_| "BENCH_synthesis.json".to_string());
    if path.is_empty() {
        return Ok(None);
    }
    let path = std::path::PathBuf::from(path);
    std::fs::write(&path, suite_results_json(res, hc))?;
    Ok(Some(path))
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

/// Renders Fig. 12: number of benchmarks solved within a time limit, per
/// technique, split easy/hard.
pub fn render_fig12(res: &SuiteResults) -> String {
    let limits = [
        0.1f64, 0.5, 1.0, 2.0, 5.0, 10.0, 15.0, 30.0, 60.0, 120.0, 300.0, 600.0,
    ];
    let mut out = String::new();
    for (label, hard) in [("EASY (43 tasks)", false), ("HARD (37 tasks)", true)] {
        out.push_str(&format!(
            "\nFig.12 — benchmarks solved within time limit — {label}\n"
        ));
        out.push_str(&format!("{:>10}", "limit(s)"));
        for t in Technique::ALL {
            out.push_str(&format!("{:>12}", t.label()));
        }
        out.push('\n');
        for &lim in &limits {
            out.push_str(&format!("{lim:>10.1}"));
            for t in Technique::ALL {
                let n = res
                    .of_cat(t, hard)
                    .iter()
                    .filter(|r| r.solved && r.stats.elapsed.as_secs_f64() <= lim)
                    .count();
                out.push_str(&format!("{n:>12}"));
            }
            out.push('\n');
        }
    }
    out
}

fn quartiles(mut v: Vec<usize>) -> (usize, usize, usize, usize, usize) {
    if v.is_empty() {
        return (0, 0, 0, 0, 0);
    }
    v.sort_unstable();
    let q = |f: f64| v[((v.len() - 1) as f64 * f).round() as usize];
    (v[0], q(0.25), q(0.5), q(0.75), v[v.len() - 1])
}

/// Renders Fig. 13: distribution (five-number summary) of the number of
/// queries explored per technique, split easy/hard.
pub fn render_fig13(res: &SuiteResults) -> String {
    let mut out = String::new();
    for (label, hard) in [("EASY", false), ("HARD", true)] {
        out.push_str(&format!(
            "\nFig.13 — queries explored before solving (or budget) — {label}\n{:>10} {:>9} {:>9} {:>9} {:>9} {:>9} {:>10}\n",
            "technique", "min", "q1", "median", "q3", "max", "mean"
        ));
        for t in Technique::ALL {
            let counts: Vec<usize> = res
                .of_cat(t, hard)
                .iter()
                .map(|r| r.stats.visited)
                .collect();
            let mean = if counts.is_empty() {
                0.0
            } else {
                counts.iter().sum::<usize>() as f64 / counts.len() as f64
            };
            let (min, q1, med, q3, max) = quartiles(counts);
            out.push_str(&format!(
                "{:>10} {min:>9} {q1:>9} {med:>9} {q3:>9} {max:>9} {mean:>10.0}\n",
                t.label()
            ));
        }
    }
    out
}

/// Renders Observation #1: headline solve counts, mean times, speedups and
/// the pruning statistic.
pub fn render_obs1(res: &SuiteResults) -> String {
    let mut out = String::new();
    out.push_str("\nObservation #1 — headline results\n");
    out.push_str(&format!(
        "{:>10} {:>7} {:>11} {:>11} {:>13} {:>13}\n",
        "technique", "solved", "solved-easy", "solved-hard", "mean-time(s)", "mean-visited"
    ));
    for t in Technique::ALL {
        let all: Vec<&RunRecord> = res.of(t).collect();
        let solved: Vec<&&RunRecord> = all.iter().filter(|r| r.solved).collect();
        let easy = res.of_cat(t, false).iter().filter(|r| r.solved).count();
        let hard = res.of_cat(t, true).iter().filter(|r| r.solved).count();
        let mean_t = if solved.is_empty() {
            f64::NAN
        } else {
            solved
                .iter()
                .map(|r| r.stats.elapsed.as_secs_f64())
                .sum::<f64>()
                / solved.len() as f64
        };
        let mean_v = if solved.is_empty() {
            0.0
        } else {
            solved.iter().map(|r| r.stats.visited as f64).sum::<f64>() / solved.len() as f64
        };
        out.push_str(&format!(
            "{:>10} {:>7} {:>11} {:>11} {:>13.2} {:>13.0}\n",
            t.label(),
            solved.len(),
            easy,
            hard,
            mean_t,
            mean_v
        ));
    }

    // Pairwise comparisons on commonly-solved benchmarks.
    for other in [Technique::TypeAbs, Technique::ValueAbs] {
        let mut speedups = Vec::new();
        let mut visit_ratio = Vec::new();
        for rec in res.of(Technique::Provenance).filter(|r| r.solved) {
            if let Some(o) = res.of(other).find(|r| r.id == rec.id && r.solved) {
                let s = o.stats.elapsed.as_secs_f64() / rec.stats.elapsed.as_secs_f64().max(1e-4);
                speedups.push(s);
                visit_ratio.push(o.stats.visited as f64 / rec.stats.visited.max(1) as f64);
            }
        }
        if !speedups.is_empty() {
            let gm = |v: &[f64]| (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp();
            out.push_str(&format!(
                "vs {:9}: common-solved={} geo-mean speedup={:.1}x geo-mean visit ratio={:.1}x\n",
                other.label(),
                speedups.len(),
                gm(&speedups),
                gm(&visit_ratio)
            ));
        }
    }

    // Pruning statistic: fraction of the no-prune exploration avoided is
    // approximated by visited ratios (paper: 97.08% fewer queries visited).
    let mut reductions = Vec::new();
    for rec in res.of(Technique::Provenance) {
        let best_other = Technique::ALL
            .iter()
            .filter(|&&t| t != Technique::Provenance)
            .filter_map(|&t| res.of(t).find(|r| r.id == rec.id))
            .map(|r| r.stats.visited)
            .max();
        if let Some(v) = best_other {
            if v > 0 {
                reductions.push(1.0 - rec.stats.visited as f64 / v as f64);
            }
        }
    }
    if !reductions.is_empty() {
        let mean = reductions.iter().sum::<f64>() / reductions.len() as f64;
        out.push_str(&format!(
            "mean reduction in visited queries vs weakest abstraction: {:.2}%\n",
            mean * 100.0
        ));
    }
    out
}

/// Renders the §5.2 ranking table for Sickle's returned solutions.
pub fn render_ranking(res: &SuiteResults) -> String {
    let mut top1 = 0;
    let mut top2to9 = 0;
    let mut beyond = 0;
    let mut unsolved = 0;
    for r in res.of(Technique::Provenance) {
        match r.rank {
            Some(1) => top1 += 1,
            Some(n) if n <= 9 => top2to9 += 1,
            Some(_) => beyond += 1,
            None => unsolved += 1,
        }
    }
    format!(
        "\n§5.2 ranking of the correct query among Sickle's solutions\n\
         rank 1: {top1}\nrank 2–9: {top2to9}\nrank ≥10: {beyond}\nunsolved: {unsolved}\n\
         (paper: 71 / 4 / 1 / 4)\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_five_number_summary() {
        let (min, q1, med, q3, max) = quartiles(vec![5, 1, 3, 2, 4]);
        assert_eq!((min, q1, med, q3, max), (1, 2, 3, 4, 5));
        assert_eq!(quartiles(vec![]), (0, 0, 0, 0, 0));
    }

    #[test]
    fn harness_config_defaults() {
        let hc = HarnessConfig::from_env();
        assert!(hc.timeout.as_secs() > 0);
        assert!(hc.max_visited > 0);
    }

    #[test]
    fn suite_json_is_well_formed() {
        let hc = HarnessConfig {
            timeout: Duration::from_secs(1),
            max_visited: 10,
            seed: 2022,
            only: vec![],
            workers: 1,
            cache: CachePolicy::default(),
        };
        let res = SuiteResults {
            records: vec![
                RunRecord {
                    id: 1,
                    name: "a \"quoted\" name".to_string(),
                    category: sickle_benchmarks::Category::ForumEasy,
                    technique: Technique::Provenance,
                    solved: true,
                    stats: SearchStats {
                        elapsed: Duration::from_millis(125),
                        time_analyze: Duration::from_millis(50),
                        time_materialize: Duration::from_millis(15),
                        join_rows: 1234,
                        visited: 42,
                        cache_reeval_time: Duration::from_millis(2),
                        mem_bytes: 123_456,
                        reused_verdicts: 17,
                        ..SearchStats::default()
                    },
                    rank: Some(1),
                },
                RunRecord {
                    id: 2,
                    name: "unsolved".to_string(),
                    category: sickle_benchmarks::Category::TpcDs,
                    technique: Technique::TypeAbs,
                    solved: false,
                    stats: SearchStats::default(),
                    rank: None,
                },
            ],
        };
        let json = suite_results_json(&res, &hc);
        let doc = Json::parse(&json).expect("BENCH_synthesis.json parses");
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("sickle-bench/synthesis/v1")
        );
        let config = doc.get("config").expect("config object");
        assert_eq!(config.get("cache_cap").and_then(Json::as_usize), Some(4000));
        assert!(config.get("cache_policy").is_none());
        let records = doc.get("records").and_then(Json::as_array).unwrap();
        assert_eq!(records.len(), 2);
        let first = &records[0];
        assert_eq!(
            first.get("name").and_then(Json::as_str),
            Some("a \"quoted\" name")
        );
        assert_eq!(first.get("rank").and_then(Json::as_usize), Some(1));
        assert_eq!(records[1].get("rank"), Some(&Json::Null));
        assert_eq!(
            records[1].get("technique").and_then(Json::as_str),
            Some("type-abs")
        );
        // Every record carries every counter of the wire table, and the
        // counters read back exactly.
        for (record, run) in records.iter().zip(&res.records) {
            for (key, _) in run.stats.wire_fields() {
                assert!(record.get(key).is_some(), "record lacks {key}: {json}");
            }
            assert_eq!(crate::wire::stats_from_json(record), run.stats);
        }
        // One record per line, separated by exactly one trailing comma.
        let record_lines: Vec<&str> = json
            .lines()
            .filter(|l| l.trim_start().starts_with("{\"id\":"))
            .collect();
        assert_eq!(record_lines.len(), 2);
        assert!(record_lines[0].ends_with("},"));
        assert!(record_lines[1].ends_with('}'));
    }

    #[test]
    fn easy_group_benchmark_solves_quickly_with_all_techniques() {
        let suite = all_benchmarks();
        let b = &suite[0]; // sales: total revenue per region
        let hc = HarnessConfig {
            timeout: Duration::from_secs(30),
            max_visited: 500_000,
            seed: 2022,
            only: vec![],
            workers: 1,
            cache: CachePolicy::default(),
        };
        for t in Technique::ALL {
            let rec = run_one(b, t, &hc).expect("benchmark 1 runs");
            assert!(rec.solved, "{} failed on benchmark 1", t.label());
        }
    }

    #[test]
    fn provenance_visits_fewer_than_baselines_on_medium_task() {
        let suite = all_benchmarks();
        // Benchmark 8: share-of-region-total, size 2 — enough structure to
        // differentiate pruning power.
        let b = &suite[7];
        let hc = HarnessConfig {
            timeout: Duration::from_secs(60),
            max_visited: 2_000_000,
            seed: 2022,
            only: vec![],
            workers: 1,
            cache: CachePolicy::default(),
        };
        let prov = run_one(b, Technique::Provenance, &hc).expect("runs");
        let ty = run_one(b, Technique::TypeAbs, &hc).expect("runs");
        assert!(prov.solved, "provenance failed: {prov:?}");
        assert!(
            prov.stats.visited <= ty.stats.visited,
            "provenance visited {} > type {}",
            prov.stats.visited,
            ty.stats.visited
        );
    }
}
