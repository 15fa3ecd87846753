//! `suite`: the paper's evaluation. All 80 suite tasks run sequentially
//! (one worker) through one warm `Session` under the `solutions` oracle's
//! settings (visit budget 20,000, at most 10 solutions, default cache
//! policy), so the answers are the oracle's dump. The seed shuffles the
//! task order; the demonstrations come from the demo seed, for which a
//! reference dump and solved set are committed under `refs/`.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

use sickle_benchmarks::{all_benchmarks, Benchmark};
use sickle_core::{AnalyzerChoice, Budget, CachePolicy, Session, SynthRequest, SynthTask};

use crate::layers::StatsSum;
use crate::speed::Timed;
use crate::trace::Tracer;
use crate::util::{peak_rss_mb, Lcg};
use crate::{finish_trace, Config, Outcome};

/// Demonstration seed of the suite tasks (the harness default).
pub const DEMO_SEED: u64 = 2022;
/// The `solutions` oracle's visit budget and solution cap.
pub const MAX_VISITED: usize = 20_000;
pub const MAX_SOLUTIONS: usize = 10;
/// Set-ups per run (the median is reported); demo generation is cheap.
const SETUPS: usize = 9;

/// The committed reference for one demo seed: the `solutions` stdout and
/// the ids whose ground-truth query it recovers.
struct Reference {
    dump: String,
    solved: BTreeSet<usize>,
}

fn load_reference(cfg: &Config) -> Result<Reference, String> {
    let read = |ext: &str| {
        let path = cfg.refs.join(format!("suite-{}.{ext}", cfg.demo_seed));
        std::fs::read_to_string(&path).map_err(|e| {
            format!(
                "no committed reference for demo seed {} ({}: {e})",
                cfg.demo_seed,
                path.display()
            )
        })
    };
    let solved = read("solved")?
        .split_whitespace()
        .map(|t| t.parse().map_err(|_| format!("bad solved id {t:?}")))
        .collect::<Result<_, _>>()?;
    Ok(Reference {
        dump: read("dump")?,
        solved,
    })
}

/// The generated inputs of one pass, in run order.
struct Inputs {
    tasks: Vec<(Benchmark, SynthTask)>,
    demogen_s: f64,
}

fn generate(cfg: &Config) -> Result<Inputs, String> {
    let mut benches = all_benchmarks();
    Lcg::new(cfg.seed).shuffle(&mut benches);
    let t0 = Instant::now();
    let tasks = benches
        .into_iter()
        .map(|b| match b.task(cfg.demo_seed) {
            Ok((task, _)) => Ok((b, task)),
            Err(e) => Err(format!("task {}: demo generation failed: {e}", b.id)),
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Inputs {
        tasks,
        demogen_s: t0.elapsed().as_secs_f64(),
    })
}

fn request(b: &Benchmark, task: &SynthTask, analyzer: &AnalyzerChoice) -> SynthRequest {
    SynthRequest::from_task(task.clone())
        .with_search(b.config())
        .with_budget(
            Budget::unbounded()
                .with_max_visited(Some(MAX_VISITED))
                .with_max_solutions(MAX_SOLUTIONS),
        )
        .with_cache_policy(CachePolicy::default())
        .with_analyzer(analyzer.clone())
}

/// What one pass over the suite observed.
struct Pass {
    wall: Timed,
    solve_s: f64,
    stats: StatsSum,
    session: Session,
}

/// One pass: every task through a fresh warm session, in input order,
/// with host-speed probes between tasks (not counted in the pass's wall
/// time). Per-task dump sections are checked against the reference in id
/// order.
fn pass(
    cfg: &Config,
    inputs: &Inputs,
    reference: &Reference,
    tracer: Option<&Arc<Tracer>>,
    out: &mut Outcome,
) -> Pass {
    let analyzer = tracer.map_or(AnalyzerChoice::Provenance, |t| t.analyzer());
    let session = Session::new();
    let mut sections: Vec<(usize, String)> = Vec::new();
    let mut stats = StatsSum::default();
    let (mut solve_s, mut solved) = (0.0, 0);
    let started = out.speed.mark();
    for (b, task) in &inputs.tasks {
        out.speed.tick();
        let op = b.id as u64;
        let task_span = tracer.map(|t| t.open());
        let t_task = Instant::now();
        let req = request(b, task, &analyzer);
        let solve_span = tracer.map(|t| {
            let id = t.open();
            t.enter(id, op);
            id
        });
        let t_solve = Instant::now();
        let res = session.solve(&req);
        let solve_wall = t_solve.elapsed().as_secs_f64();
        if let (Some(t), Some(id)) = (tracer, solve_span) {
            t.close(id, task_span.unwrap_or(0), op, "solve", t_solve);
        }
        solve_s += solve_wall;
        if let (Some(t), Some(id)) = (tracer, task_span) {
            t.close(id, 0, op, "task", t_task);
        }
        out.attempted += 1;
        let res = match res {
            Ok(res) => res,
            Err(e) => {
                out.fail(format!("task {}: solve failed: {e}", b.id));
                out.failed_latency();
                continue;
            }
        };
        out.latency_s.push(Timed::since(t_task));
        stats.add(&res.stats, res.solutions.len());
        let recovered = res.solutions.iter().any(|q| b.is_correct(q));
        if recovered {
            solved += 1;
        }
        if reference.solved.contains(&b.id) && !recovered {
            out.fail(format!("task {}: ground truth no longer recovered", b.id));
        }
        let mut section = format!(
            "## {:2} {} visited={} pruned={} solutions={}\n",
            b.id,
            b.name,
            res.stats.visited,
            res.stats.pruned,
            res.solutions.len()
        );
        for (i, q) in res.solutions.iter().enumerate() {
            section.push_str(&format!("  {:2}. {q}\n", i + 1));
        }
        sections.push((b.id, section));
    }
    let wall = out.speed.since(&started);
    // The pass's last tasks are scaled by probes on both sides.
    out.speed.probe();
    out.pass_ops += inputs.tasks.len();
    out.solved.push(solved);
    check_dump(cfg, reference, sections, out);
    Pass {
        wall,
        solve_s,
        stats,
        session,
    }
}

/// The pass's dump, assembled in id order, must equal the committed
/// `solutions` stdout byte for byte; each differing task is a failure.
fn check_dump(
    cfg: &Config,
    reference: &Reference,
    mut sections: Vec<(usize, String)>,
    out: &mut Outcome,
) {
    sections.sort_by_key(|(id, _)| *id);
    let mut dump = format!(
        "solution dump: max_visited={MAX_VISITED} seed={} (deterministic)\n",
        cfg.demo_seed
    );
    for (_, s) in &sections {
        dump.push_str(s);
    }
    if dump == reference.dump {
        return;
    }
    let reference_sections: Vec<&str> = reference.dump.split("## ").skip(1).collect();
    let mut differing = 0;
    for (id, s) in &sections {
        let body = &s[3..];
        if !reference_sections.contains(&body) {
            differing += 1;
            out.fail(format!("task {id}: dump differs from the solutions oracle"));
        }
    }
    if differing == 0 {
        out.fail("solution dump differs from the solutions oracle".to_string());
    }
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let reference = load_reference(cfg)?;
    let mut out = Outcome::default();
    let mut inputs = None;
    out.speed.probe();
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let generated = generate(cfg)?;
        out.setup_s.push(Timed::since(t0));
        out.speed.probe();
        inputs = Some(generated);
    }
    let inputs = inputs.expect("at least one set-up");

    // A traced run makes one untraced pass, as the baseline of the
    // tracing overhead.
    let mut plain_wall = 0.0;
    out.repeat_passes(cfg.untraced_seconds(), |out| {
        let wall = pass(cfg, &inputs, &reference, None, out).wall;
        plain_wall = wall.secs;
        Ok(wall)
    })?;
    if !cfg.trace {
        out.peak_rss_mb = peak_rss_mb(None);
        return Ok(out);
    }
    let tracer = Tracer::new();
    let traced = pass(cfg, &inputs, &reference, Some(&tracer), &mut out);
    let l = &mut out.layers;
    l.set("demogen_s", inputs.demogen_s);
    traced.stats.fill(l, traced.solve_s);
    let cs = traced.session.analysis_stats();
    if cs.hits + cs.misses > 0 {
        l.set(
            "provenance.verdict_hit_ratio",
            cs.hits as f64 / (cs.hits + cs.misses) as f64,
        );
    }
    l.set("provenance.pool_sets", traced.session.pool().size() as f64);
    out.notes.push(traced.stats.accounting(traced.solve_s));
    out.peak_rss_mb = peak_rss_mb(None);
    finish_trace(cfg, &tracer, "task", &mut out, plain_wall, traced.wall);
    Ok(out)
}
