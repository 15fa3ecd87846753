//! Eviction-policy tests: the cost-aware, spilling engine cache must be
//! *transparent* — at any cap it produces byte-identical results to a
//! never-evicting cache, including on the join-heavy suite tasks the
//! policy targets (54, 63) — and its churn counters must move when it
//! churns.

use sickle_benchmarks::{all_benchmarks, frontier_candidates};
use sickle_core::{
    Budget, CachePolicy, Semantics, Session, SynthRequest, SynthResult, TaskContext,
};

/// Property: under a tiny cap with retention-mode spilling (constant
/// sweeping, eviction *and* demotion), every candidate's value table,
/// star grid and derived reference-set grid re-verify byte-identically
/// against a never-evicted cache — including candidates revisited after
/// their first evaluation was demoted or swept out.
#[test]
fn spilled_and_evicted_entries_reverify_byte_identically() {
    let suite = all_benchmarks();
    let b = suite.iter().find(|b| b.id == 54).expect("task 54 exists");
    let (task, _) = b.task(2022).expect("demo generates");
    let config = b.config();

    let reference = TaskContext::new(task.clone());
    let candidates = frontier_candidates(&reference, &config, 150, 30_000);
    assert!(candidates.len() >= 100, "frontier too small to churn");

    // Tiny cap + low water above cap/2: every sweep evicts the cheap
    // tail and demotes the cold expensive survivors.
    let policy = CachePolicy::default().with_cap(24).with_low_water(18);
    let churn = TaskContext::with_policy(task, policy);

    // Two rounds: round two re-probes entries that round one demoted
    // (set re-conversion) or evicted (full re-evaluation).
    for round in 0..2 {
        for (i, q) in candidates.iter().enumerate() {
            let want = reference
                .eval_cache
                .exec(q, Semantics::Provenance, reference.inputs());
            let got = churn
                .eval_cache
                .exec(q, Semantics::Provenance, churn.inputs());
            match (want, got) {
                (Ok(want), Ok(got)) => {
                    assert_eq!(
                        want.table().grid(),
                        got.table().grid(),
                        "values diverged on candidate {i} round {round}"
                    );
                    assert_eq!(
                        want.star(),
                        got.star(),
                        "star diverged on candidate {i} round {round}"
                    );
                    assert_eq!(
                        want.sets(&reference.universe),
                        got.sets(&churn.universe),
                        "derived sets diverged on candidate {i} round {round}"
                    );
                }
                (Err(we), Err(ge)) => assert_eq!(we, ge),
                (want, got) => panic!("outcome diverged on candidate {i}: {want:?} vs {got:?}"),
            }
        }
    }
    let stats = churn.eval_cache.cache_stats();
    assert!(stats.evictions > 0, "tiny cap must evict: {stats:?}");
    assert!(
        stats.demotions > 0,
        "retention-mode tiny cap must demote: {stats:?}"
    );
    assert!(stats.reevals > 0, "two rounds must re-evaluate: {stats:?}");
}

/// Benefit-aware demotion: under the *default* low-water mark (cap/2 —
/// not the retention mode the test above forces), a sweep now also
/// demotes surviving entries that were never re-probed since the last
/// sweep (probe frequency zero), so star-channel spilling pays off under
/// the default policy too. The spill must stay transparent: every
/// candidate — including ones revisited after their sets were spilled —
/// re-verifies byte-identically against a never-evicted cache.
#[test]
fn benefit_aware_demotion_spills_under_default_low_water() {
    let suite = all_benchmarks();
    let b = suite.iter().find(|b| b.id == 54).expect("task 54 exists");
    let (task, _) = b.task(2022).expect("demo generates");
    let config = b.config();

    let reference = TaskContext::new(task.clone());
    let candidates = frontier_candidates(&reference, &config, 150, 30_000);
    assert!(candidates.len() >= 100, "frontier too small to churn");

    // Default low water (cap/2): the legacy trigger demoted only in
    // retention mode, so demotions here prove the probe-frequency path.
    let policy = CachePolicy::default().with_cap(24);
    let churn = TaskContext::with_policy(task, policy);

    for round in 0..2 {
        for (i, q) in candidates.iter().enumerate() {
            let want = reference
                .eval_cache
                .exec(q, Semantics::Provenance, reference.inputs());
            let got = churn
                .eval_cache
                .exec(q, Semantics::Provenance, churn.inputs());
            match (want, got) {
                (Ok(want), Ok(got)) => {
                    assert_eq!(
                        want.table().grid(),
                        got.table().grid(),
                        "values diverged on candidate {i} round {round}"
                    );
                    assert_eq!(
                        want.star(),
                        got.star(),
                        "star diverged on candidate {i} round {round}"
                    );
                    assert_eq!(
                        want.sets(&reference.universe),
                        got.sets(&churn.universe),
                        "derived sets diverged on candidate {i} round {round}"
                    );
                }
                (Err(we), Err(ge)) => assert_eq!(we, ge),
                (want, got) => panic!("outcome diverged on candidate {i}: {want:?} vs {got:?}"),
            }
        }
    }
    let stats = churn.eval_cache.cache_stats();
    assert!(
        stats.demotions > 0,
        "default low water must demote unprobed entries: {stats:?}"
    );
}

fn solve_with_policy(b: &sickle_benchmarks::Benchmark, policy: CachePolicy) -> SynthResult {
    let (task, _) = b.task(2022).expect("demo generates");
    let session = Session::new();
    let request = SynthRequest::from_task(task)
        .with_search(b.config())
        .with_budget(
            Budget::unbounded()
                .with_max_visited(Some(6_000))
                .with_max_solutions(10),
        )
        .with_cache_policy(policy);
    session.solve(&request).expect("request validates")
}

/// Property: on the join-heavy tasks (54, 63) under churn pressure (cap
/// well below the distinct-subquery count), the search is
/// cache-policy-transparent: the same solutions and visits as an uncapped
/// cache, while the capped cache really evicts.
#[test]
fn join_tasks_stay_search_transparent_under_cap_pressure() {
    let suite = all_benchmarks();
    for id in [54usize, 63] {
        let b = suite.iter().find(|b| b.id == id).expect("task exists");
        let cap = 400;
        let uncapped = solve_with_policy(b, CachePolicy::default().with_cap(usize::MAX));
        let capped = solve_with_policy(b, CachePolicy::default().with_cap(cap));
        let render = |r: &SynthResult| {
            r.solutions
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
        };
        assert_eq!(render(&uncapped), render(&capped), "task {id} solutions");
        assert_eq!(
            uncapped.stats.visited, capped.stats.visited,
            "task {id} visited"
        );
        assert!(
            capped.stats.cache_evictions > 0,
            "task {id} must churn at cap {cap}"
        );
    }
}

/// The demo-dims fast reject reads eviction-immune row-count memos: a
/// run at a drastically small cap must visit and check exactly what an
/// uncapped run does (the memos, not cache luck, drive the rejects).
#[test]
fn tiny_cap_run_is_search_transparent() {
    let suite = all_benchmarks();
    let b = suite.iter().find(|b| b.id == 8).expect("task 8 exists");
    let uncapped = solve_with_policy(b, CachePolicy::default().with_cap(usize::MAX));
    let tiny = solve_with_policy(b, CachePolicy::default().with_cap(16).with_low_water(12));
    assert_eq!(uncapped.stats.visited, tiny.stats.visited);
    assert_eq!(uncapped.stats.concrete_checked, tiny.stats.concrete_checked);
    let render = |r: &SynthResult| {
        r.solutions
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
    };
    assert_eq!(render(&uncapped), render(&tiny));
    assert_eq!(uncapped.stats.cache_evictions, 0);
    assert!(tiny.stats.cache_evictions > 0);
}
