//! Property-based tests of the core invariants, driven by a deterministic
//! in-repo generator (the offline environment has no `proptest`):
//!
//! * the provenance-tracking semantics agrees with direct evaluation
//!   (`[[ [[q]]★ ]] = [[q]]`, §3.1) — on random query/table pairs AND on
//!   every ground-truth query of the 80-task benchmark suite;
//! * Property 1/2: the abstract semantics over-approximates the provenance
//!   of every instantiation, so a consistent query is never pruned
//!   (Def. 3 soundness) — again on random pairs and the full suite;
//! * the engine's ref-set channel agrees exactly with `ref(·)` collection
//!   over the star channel;
//! * the engine's uncached walker and its memoizing cache agree on values,
//!   star terms, reference sets and errors, through both the storing and
//!   the one-shot entry points;
//! * demonstrations generated from a provenance table are always accepted
//!   by the `≺` rules (truncation and permutation preserve consistency);
//! * surface syntax round-trips through the parser.

use std::sync::Arc;

use sickle_benchmarks::{all_benchmarks, demo_expr_of, rng::Rng};
use sickle_core::{
    abstract_consistent, abstract_evaluate, abstract_evaluate_rc, concretize, demo_ref_sets,
    evaluate, exec, prov_evaluate, AbsTable, EvalCache, PQuery, Pred, Query, Semantics,
};
use sickle_provenance::{expr_consistent, parse_expr, Demo, RefUniverse};
use sickle_table::{AggFunc, AnalyticFunc, ArithExpr, ArithOp, CmpOp, Grid, Table, Value};

// ---------------------------------------------------------------------------
// Deterministic generators
// ---------------------------------------------------------------------------

fn random_value(rng: &mut Rng) -> Value {
    match rng.gen_range(5) {
        0..=2 => Value::Int(rng.gen_range(6) as i64),
        3 => "a".into(),
        _ => ["b", "c"][rng.gen_range(2)].into(),
    }
}

fn random_table(rng: &mut Rng) -> Table {
    let n_rows = 1 + rng.gen_range(6);
    let n_cols = 2 + rng.gen_range(3);
    let rows = (0..n_rows)
        .map(|_| (0..n_cols).map(|_| random_value(rng)).collect())
        .collect();
    Table::from_grid(Grid::from_rows(rows).expect("rectangular"))
}

/// A small well-formed query over a table whose first two columns always
/// exist (every operator preserves or creates columns 0 and 1).
fn random_query(rng: &mut Rng, depth: usize) -> Query {
    if depth == 0 || rng.gen_range(4) == 0 {
        return Query::Input(0);
    }
    let src = Box::new(random_query(rng, depth - 1));
    let key = rng.gen_range(2);
    match rng.gen_range(5) {
        0 => Query::Group {
            src,
            keys: vec![key],
            agg: AggFunc::ALL[rng.gen_range(AggFunc::ALL.len())],
            target: key + 1,
        },
        1 => Query::Partition {
            src,
            keys: vec![key],
            func: AnalyticFunc::ALL[rng.gen_range(AnalyticFunc::ALL.len())],
            target: key + 1,
        },
        2 => {
            let op = [ArithOp::Add, ArithOp::Sub, ArithOp::Mul, ArithOp::Div][rng.gen_range(4)];
            Query::Arith {
                src,
                func: ArithExpr::bin(op, ArithExpr::Param(0), ArithExpr::Param(1)),
                cols: vec![0, 1],
            }
        }
        3 => Query::Filter {
            src,
            pred: Pred::ColConst(0, CmpOp::Le, Value::Int(rng.gen_range(4) as i64)),
        },
        _ => Query::Sort {
            src,
            cols: vec![key],
            asc: rng.gen_range(2) == 0,
        },
    }
}

/// Randomly re-open some parameters of a concrete query as holes.
fn punch_holes(q: &Query, mask: u32) -> PQuery {
    fn go(q: &Query, mask: u32, i: &mut u32) -> PQuery {
        let take = |i: &mut u32| {
            let bit = mask >> (*i % 32) & 1 == 1;
            *i += 1;
            bit
        };
        match q {
            Query::Input(k) => PQuery::Input(*k),
            Query::Filter { src, pred } => {
                let src = Box::new(go(src, mask, i));
                let keep = take(i);
                PQuery::Filter {
                    src,
                    pred: keep.then(|| pred.clone()),
                }
            }
            Query::Join { left, right } => PQuery::Join {
                left: Box::new(go(left, mask, i)),
                right: Box::new(go(right, mask, i)),
            },
            Query::LeftJoin { left, right, pred } => {
                let left = Box::new(go(left, mask, i));
                let right = Box::new(go(right, mask, i));
                let keep = take(i);
                PQuery::LeftJoin {
                    left,
                    right,
                    pred: keep.then(|| pred.clone()),
                }
            }
            Query::Proj { src, cols } => {
                let src = Box::new(go(src, mask, i));
                let keep = take(i);
                PQuery::Proj {
                    src,
                    cols: keep.then(|| cols.clone()),
                }
            }
            Query::Sort { src, cols, asc } => {
                let src = Box::new(go(src, mask, i));
                let keep = take(i);
                PQuery::Sort {
                    src,
                    params: keep.then(|| (cols.clone(), *asc)),
                }
            }
            Query::Group {
                src,
                keys,
                agg,
                target,
            } => {
                let src = Box::new(go(src, mask, i));
                let keep_keys = take(i);
                let keep_agg = take(i);
                PQuery::Group {
                    src,
                    keys: keep_keys.then(|| keys.clone()),
                    agg: keep_agg.then_some((*agg, *target)),
                }
            }
            Query::Partition {
                src,
                keys,
                func,
                target,
            } => {
                let src = Box::new(go(src, mask, i));
                let keep_keys = take(i);
                let keep_func = take(i);
                PQuery::Partition {
                    src,
                    keys: keep_keys.then(|| keys.clone()),
                    func: keep_func.then_some((*func, *target)),
                }
            }
            Query::Arith { src, func, cols } => {
                let src = Box::new(go(src, mask, i));
                let keep = take(i);
                PQuery::Arith {
                    src,
                    func: keep.then(|| (func.clone(), cols.clone())),
                }
            }
        }
    }
    let mut i = 0;
    go(q, mask, &mut i)
}

const CASES: u64 = 120;

// ---------------------------------------------------------------------------
// Randomized properties
// ---------------------------------------------------------------------------

/// §3.1: evaluating every provenance cell recovers the concrete table.
#[test]
fn semantics_agree_on_random_queries() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let t = random_table(&mut rng);
        let q = random_query(&mut rng, 2);
        let inputs = [t];
        if let Ok(direct) = evaluate(&q, &inputs) {
            let star = prov_evaluate(&q, &inputs).expect("both semantics accept");
            let via_star = concretize(&star, &inputs);
            assert!(via_star.bag_eq(&direct), "seed {seed}: query {q}");
        }
    }
}

/// Property 1/2: the abstraction never prunes an instantiation. The exact
/// reference sets of `[[q]]★` must embed into the abstract table of any
/// hole-punched generalization of `q` (Def. 3 soundness).
#[test]
fn abstraction_is_sound_on_random_queries() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let t = random_table(&mut rng);
        let q = random_query(&mut rng, 2);
        let mask = rng.next_u64() as u32;
        let inputs = [t];
        let Ok(star) = prov_evaluate(&q, &inputs) else {
            continue;
        };
        if star.n_rows() == 0 {
            continue;
        }
        let universe = RefUniverse::from_tables(&inputs);
        let exact: Grid<_> = star.map(|e| universe.set_from(e.refs()));
        let pq = punch_holes(&q, mask);
        let cache = EvalCache::new();
        let abs: AbsTable =
            abstract_evaluate(&pq, &inputs, &universe, &cache).expect("abstract evaluates");
        // Treat the exact sets as the "demonstration": Def. 3 must hold.
        assert!(
            abstract_consistent(&exact, &abs, cache.pool()),
            "seed {seed}: query {q} pruned via partial {pq}"
        );
    }
}

/// The engine's directly-computed ref-set channel must agree exactly with
/// collecting `ref(·)` over the star channel, on every random query.
#[test]
fn engine_sets_channel_matches_star_refs() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let t = random_table(&mut rng);
        let q = random_query(&mut rng, 2);
        let inputs = [t];
        let universe = RefUniverse::from_tables(&inputs);
        let Ok(out) = exec(Semantics::Provenance, &q, &inputs) else {
            continue;
        };
        let from_star = out.star().map(|e| universe.set_from(e.refs()));
        assert_eq!(*out.sets(&universe), from_star, "seed {seed}: query {q}");
    }
}

/// A table of 33–40 rows × 4 columns (> 128 cells), so its reference
/// sets take the wide (heap-word) representation.
fn random_tall_table(rng: &mut Rng) -> Table {
    let n_rows = 33 + rng.gen_range(8);
    let rows = (0..n_rows)
        .map(|_| (0..4).map(|_| random_value(rng)).collect())
        .collect();
    Table::from_grid(Grid::from_rows(rows).expect("rectangular"))
}

/// The engine converts star terms to sets once per shared payload block
/// (aggregate windows broadcast one term per partition). Over random
/// group/partition/arith queries, on inline-width and wide universes,
/// both the whole-grid channel and per-cell probes of a fresh result
/// must equal the naive per-cell `set_from(e.refs())`.
#[test]
fn shared_term_sets_equal_naive_refs() {
    let mut shared_cells = 0;
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let t = if seed % 2 == 0 {
            random_table(&mut rng)
        } else {
            random_tall_table(&mut rng)
        };
        let q = random_query(&mut rng, 3);
        let inputs = [t];
        let universe = RefUniverse::from_tables(&inputs);
        let Ok(whole) = exec(Semantics::Provenance, &q, &inputs) else {
            continue;
        };
        let naive = whole.star().map(|e| universe.set_from(e.refs()));
        let (rows, cols) = (naive.n_rows(), naive.n_cols());
        let mut cells: Vec<(usize, usize)> = (0..rows)
            .flat_map(|i| (0..cols).map(move |j| (i, j)))
            .collect();
        shared_cells += cells
            .iter()
            .filter(|&&c| {
                whole.star()[c]
                    .payload()
                    .is_some_and(|b| Arc::strong_count(b) > 1)
            })
            .count();
        // Per-cell probes first, in a scrambled order, on a result whose
        // whole-grid channel was never derived.
        let probed = exec(Semantics::Provenance, &q, &inputs).expect("evaluated above");
        rng.shuffle(&mut cells);
        for (i, j) in cells {
            assert_eq!(
                *probed.cell_set(&universe, i, j),
                naive[(i, j)],
                "seed {seed}: query {q} cell ({i}, {j})"
            );
        }
        assert_eq!(*whole.sets(&universe), naive, "seed {seed}: query {q}");
    }
    assert!(shared_cells > 0, "no query produced a shared term");
}

/// `q` and its siblings: every aggregation (window) choice of a top
/// `group` (`partition`) over the same child and keys — the candidates
/// that share a row partition and key columns in the engine cache.
fn with_siblings(q: Query) -> Vec<Query> {
    match q {
        Query::Group {
            src, keys, target, ..
        } => AggFunc::ALL
            .iter()
            .map(|&agg| Query::Group {
                src: src.clone(),
                keys: keys.clone(),
                agg,
                target,
            })
            .collect(),
        Query::Partition {
            src, keys, target, ..
        } => AnalyticFunc::ALL
            .iter()
            .map(|&func| Query::Partition {
                src: src.clone(),
                keys: keys.clone(),
                func,
                target,
            })
            .collect(),
        q => vec![q],
    }
}

/// The engine's two callers run the same operator kernels but source the
/// `group`/`partition` row partitions and key columns differently: the
/// uncached walker (`exec`) computes them fresh, the cache memoizes them
/// and shares them across siblings. On random depth-3 queries and their
/// siblings, over inline-width and wide tables, evaluated through one
/// cache per table at both semantics, both callers must agree on values,
/// star terms, reference sets and errors.
#[test]
fn cached_and_uncached_evaluation_agree() {
    let mut shared_key_cols = 0;
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let t = if seed % 2 == 0 {
            random_table(&mut rng)
        } else {
            random_tall_table(&mut rng)
        };
        let inputs = [t];
        let universe = RefUniverse::from_tables(&inputs);
        let queries: Vec<Query> = (0..4)
            .flat_map(|_| with_siblings(random_query(&mut rng, 3)))
            .collect();
        let cache = EvalCache::new();
        for sem in [Semantics::Values, Semantics::Provenance] {
            for q in &queries {
                match (exec(sem, q, &inputs), cache.exec(q, sem, &inputs)) {
                    (Ok(walked), Ok(cached)) => {
                        let ctx = format!("seed {seed} {sem:?}: query {q}");
                        assert_eq!(walked.table(), cached.table(), "values: {ctx}");
                        if sem == Semantics::Provenance {
                            assert_eq!(walked.star(), cached.star(), "star: {ctx}");
                            assert_eq!(
                                walked.sets(&universe),
                                cached.sets(&universe),
                                "sets: {ctx}"
                            );
                        }
                    }
                    (Err(walked), Err(cached)) => {
                        assert_eq!(walked, cached, "seed {seed} {sem:?}: query {q}");
                    }
                    (walked, cached) => panic!(
                        "seed {seed} {sem:?}: query {q}: walker ok {}, cache ok {}",
                        walked.is_ok(),
                        cached.is_ok()
                    ),
                }
            }
            // Sibling `group`s over one child share the memoized key
            // columns (so the comparisons above covered the shared path).
            for pair in queries.windows(2) {
                if let [Query::Group {
                    src: a, keys: ka, ..
                }, Query::Group {
                    src: b, keys: kb, ..
                }] = pair
                {
                    if a != b || ka != kb {
                        continue;
                    }
                    let (Ok(x), Ok(y)) = (
                        cache.exec(&pair[0], sem, &inputs),
                        cache.exec(&pair[1], sem, &inputs),
                    ) else {
                        continue;
                    };
                    assert!(
                        Arc::ptr_eq(
                            x.table().grid().column_arc(0),
                            y.table().grid().column_arc(0)
                        ),
                        "seed {seed} {sem:?}: siblings {} and {} rebuilt their key column",
                        pair[0],
                        pair[1]
                    );
                    shared_key_cols += 1;
                }
            }
        }
    }
    assert!(shared_key_cols > 0, "no sibling group pair was evaluated");
}

/// The search evaluates each candidate and each analyzed partial once,
/// without storing it (`EvalCache::exec_once`, `abstract_evaluate`), and
/// its subqueries through the stores. On random depth-3 queries and their
/// siblings, alternating the one-shot and the storing call on one shared
/// cache, every result must equal the uncached walker's, and every
/// one-shot abstract table the stored one of `abstract_evaluate_rc`.
#[test]
fn one_shot_and_stored_evaluation_agree() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let inputs = [random_table(&mut rng)];
        let universe = RefUniverse::from_tables(&inputs);
        let queries: Vec<Query> = (0..4)
            .flat_map(|_| with_siblings(random_query(&mut rng, 3)))
            .collect();
        let cache = EvalCache::new();
        for sem in [Semantics::Values, Semantics::Provenance] {
            for (i, q) in queries.iter().enumerate() {
                let ctx = format!("seed {seed} {sem:?} #{i}: query {q}");
                let cached = if i % 2 == 0 {
                    cache.exec_once(q, sem, &inputs)
                } else {
                    cache.exec(q, sem, &inputs)
                };
                match (exec(sem, q, &inputs), cached) {
                    (Ok(walked), Ok(cached)) => {
                        assert_eq!(walked.table(), cached.table(), "values: {ctx}");
                        assert_eq!(walked.try_star(), cached.try_star(), "star: {ctx}");
                        if sem == Semantics::Provenance {
                            assert_eq!(
                                walked.sets(&universe),
                                cached.sets(&universe),
                                "sets: {ctx}"
                            );
                        }
                    }
                    (Err(walked), Err(cached)) => assert_eq!(walked, cached, "{ctx}"),
                    (walked, cached) => panic!(
                        "{ctx}: walker ok {}, cache ok {}",
                        walked.is_ok(),
                        cached.is_ok()
                    ),
                }
            }
        }
        for (i, q) in queries.iter().enumerate() {
            let pq = punch_holes(q, rng.next_u64() as u32);
            let ctx = format!("seed {seed} #{i}: partial {pq}");
            let once = abstract_evaluate(&pq, &inputs, &universe, &cache);
            let stored = abstract_evaluate_rc(&pq, &inputs, &universe, &cache);
            match (once, stored) {
                (Ok(once), Ok(stored)) => {
                    assert_eq!(once.sets, stored.sets, "{ctx}");
                    assert_eq!(once.concrete.is_some(), stored.concrete.is_some(), "{ctx}");
                    // Now stored: the one-shot path serves the same table.
                    let again = abstract_evaluate(&pq, &inputs, &universe, &cache).unwrap();
                    assert_eq!(again.sets, stored.sets, "{ctx}");
                }
                (Err(once), Err(stored)) => assert_eq!(once, stored, "{ctx}"),
                (once, stored) => panic!(
                    "{ctx}: one-shot ok {}, stored ok {}",
                    once.is_ok(),
                    stored.is_ok()
                ),
            }
        }
    }
}

/// Demonstrations generated from provenance cells are accepted by ≺:
/// argument permutation and ♦-truncation preserve consistency.
#[test]
fn generated_demos_stay_consistent() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let t = random_table(&mut rng);
        let q = random_query(&mut rng, 2);
        let inputs = [t];
        let Ok(star) = prov_evaluate(&q, &inputs) else {
            continue;
        };
        for row in 0..star.n_rows().min(2) {
            for col in 0..star.n_cols() {
                let cell = &star[(row, col)];
                let demo = demo_expr_of(cell, &mut rng);
                assert!(
                    expr_consistent(&demo, cell),
                    "seed {seed}: demo {demo} not ≺ {cell} (query {q})"
                );
            }
        }
    }
}

/// A demonstration accepted by Def. 1 has every cell's references embedded
/// per Def. 3 on the exact sets (the prefilter the search relies on is a
/// necessary condition).
#[test]
fn def1_implies_exact_def3() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let t = random_table(&mut rng);
        let q = random_query(&mut rng, 2);
        let inputs = [t];
        let Ok(star) = prov_evaluate(&q, &inputs) else {
            continue;
        };
        if star.n_rows() == 0 {
            continue;
        }
        let cells: Vec<_> = (0..star.n_cols())
            .map(|c| demo_expr_of(&star[(0, c)], &mut rng))
            .collect();
        let demo = Demo::new(vec![cells]).expect("one row");
        if sickle_provenance::demo_consistent(&demo, &star).is_some() {
            let universe = RefUniverse::from_tables(&inputs);
            let refs = demo_ref_sets(&demo, &universe);
            let pool = sickle_provenance::RefSetPool::new();
            let exact = AbsTable {
                sets: star.map(|e| pool.intern(universe.set_from(e.refs()))),
                concrete: None,
            };
            assert!(
                abstract_consistent(&refs, &exact, &pool),
                "seed {seed}: query {q}"
            );
        }
    }
}

/// Demonstration surface syntax round-trips through the parser.
#[test]
fn demo_syntax_round_trips() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let t = random_table(&mut rng);
        let q = random_query(&mut rng, 2);
        let inputs = [t];
        let Ok(star) = prov_evaluate(&q, &inputs) else {
            continue;
        };
        for row in 0..star.n_rows().min(1) {
            for col in 0..star.n_cols() {
                let demo = demo_expr_of(&star[(row, col)], &mut rng);
                // Skip string constants with quotes-in-display subtleties.
                let shown = demo.to_string();
                if shown.contains('◇') || shown.chars().all(|c| c != '"') {
                    if let Ok(reparsed) = parse_expr(&shown.replace('◇', "...")) {
                        let back = reparsed.to_string();
                        assert_eq!(shown, back, "seed {seed}: query {q}");
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Cross-semantics properties on the 80-task benchmark suite
// ---------------------------------------------------------------------------

/// On every benchmark's ground truth (over the §5.1-sampled inputs):
/// `evaluate` and `prov_evaluate ∘ concretize` agree as bags.
#[test]
fn suite_semantics_agree_on_all_80_ground_truths() {
    for b in all_benchmarks() {
        let (task, _) = b
            .task(2022)
            .unwrap_or_else(|e| panic!("benchmark {}: {e}", b.id));
        let direct = evaluate(&b.ground_truth, &task.inputs)
            .unwrap_or_else(|e| panic!("benchmark {}: {e}", b.id));
        let star = prov_evaluate(&b.ground_truth, &task.inputs)
            .unwrap_or_else(|e| panic!("benchmark {}: {e}", b.id));
        let via_star = concretize(&star, &task.inputs);
        assert!(
            via_star.bag_eq(&direct),
            "benchmark {} ({}): semantics disagree",
            b.id,
            b.name
        );
    }
}

/// Def. 3 soundness across the suite: for every ground truth, the abstract
/// table of each hole-punched generalization over-approximates the exact
/// provenance reference sets.
#[test]
fn suite_abstraction_over_approximates_all_80_ground_truths() {
    for b in all_benchmarks() {
        let (task, _) = b
            .task(2022)
            .unwrap_or_else(|e| panic!("benchmark {}: {e}", b.id));
        let star = prov_evaluate(&b.ground_truth, &task.inputs)
            .unwrap_or_else(|e| panic!("benchmark {}: {e}", b.id));
        if star.n_rows() == 0 {
            continue;
        }
        let universe = RefUniverse::from_tables(&task.inputs);
        let exact: Grid<_> = star.map(|e| universe.set_from(e.refs()));
        // Three deterministic hole patterns per benchmark: all holes, every
        // other hole, sparse holes.
        let cache = EvalCache::new();
        for mask in [0u32, 0x5555_5555, 0x1111_1111] {
            let pq = punch_holes(&b.ground_truth, mask);
            let abs = abstract_evaluate(&pq, &task.inputs, &universe, &cache)
                .unwrap_or_else(|e| panic!("benchmark {}: {e}", b.id));
            assert!(
                abstract_consistent(&exact, &abs, cache.pool()),
                "benchmark {} ({}): sound abstraction violated for mask {mask:#x} ({pq})",
                b.id,
                b.name
            );
        }
    }
}

#[test]
fn bag_equality_is_permutation_invariant() {
    let t = Table::new(
        ["a", "b"],
        vec![
            vec![1.into(), 2.into()],
            vec![3.into(), 4.into()],
            vec![1.into(), 2.into()],
        ],
    )
    .unwrap();
    let shuffled = Table::new(
        ["a", "b"],
        vec![
            vec![3.into(), 4.into()],
            vec![1.into(), 2.into()],
            vec![1.into(), 2.into()],
        ],
    )
    .unwrap();
    assert!(t.bag_eq(&shuffled));
}
