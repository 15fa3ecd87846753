//! `edit`: warm-edit chains, all in-process. Each chain solves a base
//! suite task with retention, then re-solves a run of seeded edits of its
//! demonstration, each naming the previous demo as its prior. The warm
//! answers are checked byte-identical to cold solves of the same edited
//! tasks in an untimed verification pass.
//!
//! A chain is a run of rounds, each of three edits: re-demonstrate the
//! task from the next seed of a fixed pool, splice one cell from that
//! seed's `seed + 1` re-demonstration, then drop the last demo row. Each
//! chain visits every pool seed once, in an order the benchmark's LCG
//! draws. Every input seed therefore edits the same demonstrations in
//! another order, and runs stay comparable.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use sickle_benchmarks::{all_benchmarks, Benchmark};
use sickle_core::{
    demo_fingerprint, AnalyzerChoice, Budget, Session, SynthRequest, SynthResult, SynthTask,
};
use sickle_provenance::{Demo, DemoExpr};

use crate::layers::StatsSum;
use crate::speed::Timed;
use crate::trace::Tracer;
use crate::util::{peak_rss_mb, Lcg};
use crate::{finish_trace, Config, Outcome};

/// Base tasks of the chains: suite tasks whose cold solve is neither
/// instant nor trivial at [`MAX_VISITED`] (two easy tasks with late
/// solutions, the running example and two more hard ones).
const TASKS: [usize; 5] = [8, 27, 44, 46, 60];
/// Visit budget of every solve. Lower than the suite's so that a pass of
/// 100 edits takes seconds, not minutes; each solve still visits
/// thousands of queries.
const MAX_VISITED: usize = 2_000;
const MAX_SOLUTIONS: usize = 10;
/// Rounds per chain; round `k` re-demonstrates from a distinct seed of
/// `demo_seed + 1 ..= demo_seed + ROUNDS`.
const ROUNDS: usize = 7;
/// Edits per round: re-demonstrate, splice a cell, drop a row. A pass
/// times 5 chains x 7 rounds x 3 = 105 warm edits.
const EDITS_PER_ROUND: usize = 3;
const EDITS_PER_CHAIN: usize = ROUNDS * EDITS_PER_ROUND;
/// Set-ups per run at least (the median is reported).
const MIN_SETUPS: usize = 3;

/// One chain: its benchmark, base task and edited tasks in order.
struct Chain {
    bench: Benchmark,
    base: SynthTask,
    edits: Vec<(&'static str, SynthTask)>,
}

fn rows_of(d: &Demo) -> Vec<Vec<DemoExpr>> {
    (0..d.n_rows())
        .map(|r| (0..d.n_cols()).map(|c| d.cell(r, c).clone()).collect())
        .collect()
}

fn task_at(b: &Benchmark, demo_seed: u64) -> Result<SynthTask, String> {
    b.task(demo_seed).map(|(t, _)| t).map_err(|e| {
        format!(
            "task {} demo seed {demo_seed}: demo generation failed: {e}",
            b.id
        )
    })
}

/// The cell a round splices from the `seed + 1` re-demonstration: the
/// last cell where it differs from the task's demo. `None` when the
/// re-demonstration has another shape or equal cells.
fn splice_cell(task: &SynthTask, donor: &Demo) -> Option<(usize, usize)> {
    let demo = &task.demo;
    if donor.n_rows() != demo.n_rows() || donor.n_cols() != demo.n_cols() {
        return None;
    }
    (0..demo.n_rows())
        .flat_map(|r| (0..demo.n_cols()).map(move |c| (r, c)))
        .rfind(|&(r, c)| donor.cell(r, c) != demo.cell(r, c))
}

/// Draws one chain: [`ROUNDS`] rounds over a seeded order of the pool.
fn draw_chain(b: Benchmark, demo_seed: u64, rng: &mut Lcg) -> Result<Chain, String> {
    let base = task_at(&b, demo_seed)?;
    let mut pool: Vec<u64> = (1..=ROUNDS as u64).map(|k| demo_seed + k).collect();
    rng.shuffle(&mut pool);
    let mut edits: Vec<(&'static str, SynthTask)> = Vec::with_capacity(EDITS_PER_CHAIN);
    for seed in pool {
        let mut current = task_at(&b, seed)?;
        edits.push(("reseed", current.clone()));
        let donor = task_at(&b, seed + 1)?.demo;
        match splice_cell(&current, &donor) {
            Some((r, c)) => {
                let mut rows = rows_of(&current.demo);
                rows[r][c] = donor.cell(r, c).clone();
                current.demo = Demo::new(rows).map_err(|e| format!("task {}: {e:?}", b.id))?;
                edits.push(("splice-cell", current.clone()));
            }
            None => edits.push(("resubmit", current.clone())),
        }
        let mut rows = rows_of(&current.demo);
        if rows.len() < 2 {
            edits.push(("resubmit", current));
            continue;
        }
        rows.pop();
        let mut dropped = current;
        dropped.demo = Demo::new(rows).map_err(|e| format!("task {}: {e:?}", b.id))?;
        edits.push(("drop-last-row", dropped));
    }
    Ok(Chain {
        bench: b,
        base,
        edits,
    })
}

fn draw_chains(cfg: &Config) -> Result<Vec<Chain>, String> {
    let mut rng = Lcg::new(cfg.seed);
    all_benchmarks()
        .into_iter()
        .filter(|b| TASKS.contains(&b.id))
        .map(|b| draw_chain(b, cfg.demo_seed, &mut rng))
        .collect()
}

fn request(b: &Benchmark, task: &SynthTask, analyzer: &AnalyzerChoice) -> SynthRequest {
    SynthRequest::from_task(task.clone())
        .with_search(b.config())
        .with_budget(
            Budget::unbounded()
                .with_max_visited(Some(MAX_VISITED))
                .with_max_solutions(MAX_SOLUTIONS),
        )
        .with_analyzer(analyzer.clone())
}

fn render(result: &SynthResult) -> String {
    let mut out = String::new();
    for (i, q) in result.solutions.iter().enumerate() {
        out.push_str(&format!("{:2}. {q}\n", i + 1));
    }
    out
}

/// A set-up: chains drawn (demo generation) and one session per chain
/// with its base solved and retained.
fn setup(cfg: &Config, out: &mut Outcome) -> Result<(Vec<Chain>, Vec<Session>, f64), String> {
    out.speed.probe();
    let mark = out.speed.mark();
    let t0 = Instant::now();
    let chains = draw_chains(cfg)?;
    let demogen_s = t0.elapsed().as_secs_f64();
    let mut sessions = Vec::with_capacity(chains.len());
    for c in &chains {
        // Base solves take seconds; probes between them keep the scale
        // of the set-up local.
        out.speed.tick();
        let session = Session::new();
        session
            .solve(&request(&c.bench, &c.base, &AnalyzerChoice::Provenance).with_retain(true))
            .map_err(|e| format!("task {}: base solve failed: {e}", c.bench.id))?;
        sessions.push(session);
    }
    out.setup_s.push(out.speed.since(&mark));
    out.speed.probe();
    Ok((chains, sessions, demogen_s))
}

/// What one timed pass observed: per edit (chain, index) its warm answer
/// and time, and the pass totals.
struct Pass {
    wall: Timed,
    solve_s: f64,
    stats: StatsSum,
    answers: Vec<(usize, usize, Option<String>, f64)>,
    hits: usize,
    lookups: usize,
    pool_sets: usize,
}

fn pass(
    chains: &[Chain],
    sessions: &[Session],
    tracer: Option<&Arc<Tracer>>,
    out: &mut Outcome,
) -> Pass {
    let analyzer = tracer.map_or(AnalyzerChoice::Provenance, |t| t.analyzer());
    let mut stats = StatsSum::default();
    let mut answers = Vec::new();
    let mut solve_s = 0.0;
    let started = out.speed.mark();
    for (ci, (chain, session)) in chains.iter().zip(sessions).enumerate() {
        let mut prior = demo_fingerprint(&chain.base);
        for (ei, (kind, task)) in chain.edits.iter().enumerate() {
            out.speed.tick();
            let op = (ci * EDITS_PER_CHAIN + ei) as u64;
            let edit_span = tracer.map(|t| t.open());
            let t_edit = Instant::now();
            let req = request(&chain.bench, task, &analyzer)
                .with_retain(true)
                .with_prior(prior);
            let solve_span = tracer.map(|t| {
                let id = t.open();
                t.enter(id, op);
                id
            });
            let t_solve = Instant::now();
            let res = session.solve(&req);
            solve_s += t_solve.elapsed().as_secs_f64();
            if let (Some(t), Some(id)) = (tracer, solve_span) {
                t.close(id, edit_span.unwrap_or(0), op, "solve", t_solve);
            }
            if let (Some(t), Some(id)) = (tracer, edit_span) {
                t.close(id, 0, op, "edit", t_edit);
            }
            let latency = Timed::since(t_edit);
            out.attempted += 1;
            prior = demo_fingerprint(task);
            match res {
                Ok(res) => {
                    out.latency_s.push(latency);
                    stats.add(&res.stats, res.solutions.len());
                    answers.push((ci, ei, Some(render(&res)), latency.secs));
                }
                Err(e) => {
                    out.fail(format!(
                        "task {} edit {ei} ({kind}): warm solve failed: {e}",
                        chain.bench.id
                    ));
                    out.failed_latency();
                    answers.push((ci, ei, None, latency.secs));
                }
            }
        }
    }
    let wall = out.speed.since(&started);
    // The pass's last edits are scaled by probes on both sides.
    out.speed.probe();
    out.pass_ops += answers.len();
    let (mut hits, mut lookups, mut pool_sets) = (0, 0, 0);
    for s in sessions {
        let cs = s.analysis_stats();
        hits += cs.hits;
        lookups += cs.hits + cs.misses;
        pool_sets += s.pool().size();
    }
    Pass {
        wall,
        solve_s,
        stats,
        answers,
        hits,
        lookups,
        pool_sets,
    }
}

/// Cold answer and time per (chain, edit index).
type Cold = BTreeMap<(usize, usize), (String, f64)>;

/// Solves every distinct edited task cold, in a fresh session each;
/// repeated tasks (same fingerprint) are solved once.
fn verify(chains: &[Chain]) -> Result<Cold, String> {
    let mut solved: BTreeMap<(usize, u64), (String, f64)> = BTreeMap::new();
    let mut cold = Cold::new();
    for (ci, chain) in chains.iter().enumerate() {
        for (ei, (_, task)) in chain.edits.iter().enumerate() {
            let key = (chain.bench.id, demo_fingerprint(task));
            let answer = match solved.entry(key) {
                Entry::Occupied(e) => e.get().clone(),
                Entry::Vacant(e) => {
                    let t0 = Instant::now();
                    let res = Session::new()
                        .solve(&request(&chain.bench, task, &AnalyzerChoice::Provenance))
                        .map_err(|e| {
                            format!("task {} edit {ei}: cold solve failed: {e}", chain.bench.id)
                        })?;
                    e.insert((render(&res), t0.elapsed().as_secs_f64())).clone()
                }
            };
            cold.insert((ci, ei), answer);
        }
    }
    Ok(cold)
}

/// Checks a pass's warm answers against the cold ones; returns the
/// geo-mean of cold over warm time.
fn check(chains: &[Chain], pass: &Pass, cold: &Cold, out: &mut Outcome) -> f64 {
    let mut log_sum = 0.0;
    let mut matched = 0;
    for (ci, ei, answer, warm_s) in &pass.answers {
        let Some(answer) = answer else { continue };
        let (cold_answer, cold_s) = &cold[&(*ci, *ei)];
        if answer == cold_answer {
            matched += 1;
        } else {
            out.fail(format!(
                "task {} edit {ei} ({}): warm answer differs from the cold solve",
                chains[*ci].bench.id, chains[*ci].edits[*ei].0
            ));
        }
        log_sum += (cold_s.max(1e-6) / warm_s.max(1e-6)).ln();
    }
    out.solved.push(matched);
    if pass.answers.is_empty() {
        0.0
    } else {
        (log_sum / pass.answers.len() as f64).exp()
    }
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    // Untraced passes, each on a fresh set-up; a traced run makes one,
    // as the baseline of the tracing overhead.
    let mut plain = Vec::new();
    let mut chains = Vec::new();
    out.repeat_passes(cfg.untraced_seconds(), |out| {
        let (drawn, sessions, _) = setup(cfg, out)?;
        let p = pass(&drawn, &sessions, None, out);
        chains = drawn;
        let wall = p.wall;
        plain.push(p);
        Ok(wall)
    })?;
    while out.setup_s.len() < MIN_SETUPS {
        setup(cfg, &mut out)?;
    }
    if !cfg.trace {
        // Peak RSS of the measured phase, before the verification pass.
        out.peak_rss_mb = peak_rss_mb(None);
        let cold = verify(&chains)?;
        let ratios: Vec<f64> = plain
            .iter()
            .map(|p| check(&chains, p, &cold, &mut out))
            .collect();
        out.notes.push(format!(
            "{} chains x {EDITS_PER_CHAIN} edits per pass; cold/warm geo-mean per pass: {ratios:.3?}",
            chains.len()
        ));
        return Ok(out);
    }

    // The cold/warm ratio compares the untraced pass with the untraced
    // verification solves.
    let (chains, sessions, demogen_s) = setup(cfg, &mut out)?;
    let tracer = Tracer::new();
    let traced = pass(&chains, &sessions, Some(&tracer), &mut out);
    let cold = verify(&chains)?;
    let ratio = check(&chains, &plain[0], &cold, &mut out);
    check(&chains, &traced, &cold, &mut out);
    let l = &mut out.layers;
    l.set("demogen_s", demogen_s);
    traced.stats.fill(l, traced.solve_s);
    if traced.lookups > 0 {
        l.set(
            "provenance.verdict_hit_ratio",
            traced.hits as f64 / traced.lookups as f64,
        );
    }
    l.set("provenance.pool_sets", traced.pool_sets as f64);
    l.set("edit.cold_over_warm", ratio);
    out.notes.push(traced.stats.accounting(traced.solve_s));
    out.peak_rss_mb = peak_rss_mb(None);
    finish_trace(
        cfg,
        &tracer,
        "edit",
        &mut out,
        plain[0].wall.secs,
        traced.wall,
    );
    Ok(out)
}
