//! Join and bulk-kernel property tests: the fused `filter ∘ join` path
//! (hash equi-join with residual predicates evaluated on matches only, or
//! the nested-loop fallback) must be row-, order- and provenance-identical
//! to the unfused cross product followed by a separate filter on random
//! tables — duplicate keys, empty sides, cross-type numeric keys and
//! non-equi fallbacks included — and the vectorized group/window kernels
//! must match the row-at-a-time reference bit for bit.

use sickle_benchmarks::Rng;
use sickle_core::{exec, exec_step, EvalError, ExecTable, Pred, Query, Semantics};
use sickle_table::{extract_groups, gather_column, AggFunc, AnalyticFunc, CmpOp, Table, Value};

/// A deliberately tiny value palette: heavy key duplication, cross-type
/// numeric equality (`Int(2) == Float(2.0)`), nulls and strings.
fn random_value(rng: &mut Rng) -> Value {
    match rng.gen_range(10) {
        0 => Value::Null,
        1 => Value::Bool(rng.gen_range(2) == 0),
        2 | 3 => ["red", "green", "blue"][rng.gen_range(3)].into(),
        4 => Value::Float(rng.gen_range(4) as f64),
        5 => Value::Float(rng.gen_range(4) as f64 + 0.5),
        _ => Value::Int(rng.gen_range(4) as i64),
    }
}

fn random_table(rng: &mut Rng, n_rows: usize, n_cols: usize) -> Table {
    let names: Vec<String> = (0..n_cols).map(|c| format!("c{c}")).collect();
    let rows: Vec<Vec<Value>> = (0..n_rows)
        .map(|_| (0..n_cols).map(|_| random_value(rng)).collect())
        .collect();
    Table::new(names, rows).expect("rectangular by construction")
}

/// A random join predicate over `l_cols + r_cols` concatenated columns:
/// cross-side equalities (what the hash path extracts), same-side
/// equalities, non-equi comparisons, constants, conjunctions and `True` —
/// every shape the equi-key splitter must classify.
fn random_pred(rng: &mut Rng, l_cols: usize, r_cols: usize, depth: usize) -> Pred {
    let lc = rng.gen_range(l_cols);
    let rc = l_cols + rng.gen_range(r_cols);
    match rng.gen_range(if depth == 0 { 6 } else { 8 }) {
        0 => Pred::True,
        1 => Pred::ColCmp(lc, CmpOp::Eq, rc),
        2 => Pred::ColCmp(rc, CmpOp::Eq, lc),
        3 => Pred::ColCmp(lc, CmpOp::ALL[rng.gen_range(5)], rc),
        4 => Pred::ColConst(
            if rng.gen_range(2) == 0 { lc } else { rc },
            CmpOp::ALL[rng.gen_range(5)],
            random_value(rng),
        ),
        5 => Pred::ColCmp(lc, CmpOp::Eq, lc),
        _ => Pred::And(
            Box::new(random_pred(rng, l_cols, r_cols, depth - 1)),
            Box::new(random_pred(rng, l_cols, r_cols, depth - 1)),
        ),
    }
}

/// `filter(join(T1, T2), pred)`, the shape the engine fuses.
fn filtered_join(pred: &Pred) -> Query {
    Query::Filter {
        src: Box::new(Query::Join {
            left: Box::new(Query::Input(0)),
            right: Box::new(Query::Input(1)),
        }),
        pred: pred.clone(),
    }
}

/// The fused result of `filter(join(l, r), pred)`.
fn fused(l: &Table, r: &Table, pred: &Pred) -> Result<ExecTable, EvalError> {
    exec(
        Semantics::Provenance,
        &filtered_join(pred),
        &[l.clone(), r.clone()],
    )
}

/// Checks the fused path against the unfused pair: the full cross
/// product from the `join` step, then a separate `filter` step — values,
/// pair order, star terms and error kinds must all agree.
fn assert_fused_matches_unfused(l: &Table, r: &Table, pred: &Pred) {
    let inputs = [l.clone(), r.clone()];
    let sem = Semantics::Provenance;
    let le = exec_step(sem, &Query::Input(0), &[], &inputs).expect("input 0 executes");
    let re = exec_step(sem, &Query::Input(1), &[], &inputs).expect("input 1 executes");
    let q = filtered_join(pred);
    let Query::Filter { src: join, .. } = &q else {
        unreachable!("filtered_join builds a filter")
    };
    let cross = exec_step(sem, join, &[&le, &re], &inputs).expect("join executes");
    let unfused = exec_step(sem, &q, &[&cross], &inputs);
    match (fused(l, r, pred), unfused) {
        (Ok(fused), Ok(unfused)) => {
            assert_eq!(
                fused.table(),
                unfused.table(),
                "values diverged on pred {pred:?}"
            );
            assert_eq!(
                fused.star(),
                unfused.star(),
                "star diverged on pred {pred:?}"
            );
        }
        (Err(fe), Err(ue)) => assert_eq!(fe, ue, "error kinds diverged on pred {pred:?}"),
        (fused, unfused) => panic!("outcome diverged on pred {pred:?}: {fused:?} vs {unfused:?}"),
    }
}

#[test]
fn hash_join_matches_cross_loop_on_random_tables() {
    let mut rng = Rng::seed_from_u64(2022);
    for _case in 0..150 {
        let n_l = rng.gen_range(13);
        let n_r = rng.gen_range(13);
        let (l, r) = (
            random_table(&mut rng, n_l, 3),
            random_table(&mut rng, n_r, 2),
        );
        let pred = random_pred(&mut rng, 3, 2, 2);
        assert_fused_matches_unfused(&l, &r, &pred);
    }
}

#[test]
fn hash_join_handles_empty_sides_and_total_duplication() {
    let mut rng = Rng::seed_from_u64(7);
    let equi = Pred::ColCmp(0, CmpOp::Eq, 2);
    // Empty left, empty right, both empty.
    for (n_l, n_r) in [(0, 6), (6, 0), (0, 0)] {
        let (l, r) = (
            random_table(&mut rng, n_l, 2),
            random_table(&mut rng, n_r, 2),
        );
        assert_fused_matches_unfused(&l, &r, &equi);
        let out = fused(&l, &r, &equi).expect("empty-side join executes");
        assert_eq!(out.table().n_rows(), 0);
    }
    // Every key identical on both sides: the full cross product survives
    // the equi filter (quadratic output, pair order must still match).
    let all_same = |n: usize| {
        let rows: Vec<Vec<Value>> = (0..n)
            .map(|i| vec![Value::Int(1), Value::Int(i as i64)])
            .collect();
        Table::new(["k", "v"], rows).expect("rectangular")
    };
    let (l, r) = (all_same(9), all_same(7));
    assert_fused_matches_unfused(&l, &r, &equi);
    let out = fused(&l, &r, &equi).expect("duplicate-key join executes");
    assert_eq!(out.table().n_rows(), 9 * 7);
}

#[test]
fn cross_type_numeric_keys_join_like_the_legacy_path() {
    // Int(2) and Float(2.0) are equal under `Value::eq` (and under the
    // legacy `CmpOp::Eq` loop) — the interned hash keys must agree.
    let l = Table::new(
        ["k", "tag"],
        vec![
            vec![Value::Int(2), "a".into()],
            vec![Value::Float(2.0), "b".into()],
            vec![Value::Float(0.0), "c".into()],
            vec![Value::Int(0), "d".into()],
            vec![Value::Float(-0.0), "e".into()],
            vec![Value::Null, "f".into()],
        ],
    )
    .expect("rectangular");
    let r = Table::new(
        ["k2"],
        vec![
            vec![Value::Float(2.0)],
            vec![Value::Int(0)],
            vec![Value::Null],
        ],
    )
    .expect("rectangular");
    let equi = Pred::ColCmp(0, CmpOp::Eq, 2);
    assert_fused_matches_unfused(&l, &r, &equi);
    let out = fused(&l, &r, &equi).expect("cross-type join executes");
    // 2/2.0 match once each, 0/0.0/-0.0 match once each, Null == Null.
    assert_eq!(out.table().n_rows(), 6);
}

#[test]
fn residual_predicates_filter_hash_matches_only() {
    let mut rng = Rng::seed_from_u64(99);
    let (l, r) = (random_table(&mut rng, 40, 3), random_table(&mut rng, 30, 2));
    for residual in [
        Pred::ColCmp(1, CmpOp::Lt, 4),
        Pred::ColConst(1, CmpOp::Ge, Value::Int(2)),
        Pred::ColCmp(1, CmpOp::Eq, 2), // same-side equality is residual
    ] {
        let pred = Pred::And(Box::new(Pred::ColCmp(0, CmpOp::Eq, 3)), Box::new(residual));
        assert_fused_matches_unfused(&l, &r, &pred);
    }
}

/// Row-at-a-time group discovery by linear `Value::eq` scan — slow but
/// obviously correct, and independent of both hashing and interning.
fn naive_groups(t: &Table, keys: &[usize]) -> Vec<Vec<usize>> {
    let mut reps: Vec<Vec<&Value>> = Vec::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for r in 0..t.n_rows() {
        let key: Vec<&Value> = keys.iter().map(|&c| &t.column(c)[r]).collect();
        match reps.iter().position(|k| *k == key) {
            Some(g) => groups[g].push(r),
            None => {
                reps.push(key);
                groups.push(vec![r]);
            }
        }
    }
    groups
}

#[test]
fn vectorized_group_discovery_matches_naive_scan() {
    let mut rng = Rng::seed_from_u64(5);
    for _case in 0..60 {
        let n = rng.gen_range(50);
        let t = random_table(&mut rng, n, 3);
        for keys in [vec![0], vec![1, 2], vec![2, 0, 1], vec![]] {
            assert_eq!(
                extract_groups(&t, &keys),
                naive_groups(&t, &keys),
                "grouping diverged on keys {keys:?} over {n} rows"
            );
        }
    }
}

#[test]
fn indexed_kernels_match_gathered_apply_bit_for_bit() {
    let mut rng = Rng::seed_from_u64(31);
    for _case in 0..40 {
        let n = rng.gen_range(40) + 1;
        let t = random_table(&mut rng, n, 2);
        let col = t.column(1);
        for g in extract_groups(&t, &[0]) {
            let gathered = gather_column(col, &g);
            for f in AggFunc::ALL {
                assert_eq!(
                    f.apply_indexed(col, &g),
                    f.apply(&gathered),
                    "agg {f:?} diverged on group {g:?}"
                );
            }
            for f in AnalyticFunc::ALL {
                assert_eq!(
                    f.apply_indexed(col, &g),
                    f.apply(&gathered),
                    "window {f:?} diverged on group {g:?}"
                );
            }
        }
    }
}
