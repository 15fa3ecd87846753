//! Micro-benchmarks of the engine refactor: the new columnar pipeline vs a
//! faithful replica of the old row-major interpreters.
//!
//! The offline build environment has no `criterion`, so this is a plain
//! `harness = false` binary with a best-of-N timing loop. Run with:
//!
//! ```text
//! cargo bench -p sickle-bench --bench micro
//! ```
//!
//! The `legacy` module below replicates, line for line where it matters,
//! the pre-refactor implementations: row-major `Vec<Vec<_>>` grids, the
//! O(n²) linear-scan `extractGroups`, and the provenance interpreter that
//! re-evaluates cell expressions (`Expr::eval`) for every grouping and
//! filtering decision. The new path is the shared columnar engine.

use std::time::{Duration, Instant};

use sickle_core::{
    abstract_evaluate, evaluate, prov_evaluate, EvalCache, PQuery, ProvTable, Query,
};
use sickle_provenance::{CellRef, Expr, FuncName, RefSet, RefUniverse};
use sickle_table::{AggFunc, AnalyticFunc, ArithExpr, ArithOp, Grid, Table, Value};

/// A faithful replica of the pre-refactor row-major evaluation stack,
/// kept solely as the benchmark baseline.
mod legacy {
    use super::*;

    /// The old `extractGroups`: linear scan over all previously seen keys,
    /// deep `Vec<Value>` equality per comparison.
    pub fn extract_groups(table: &Table, cols: &[usize]) -> Vec<Vec<usize>> {
        let mut order: Vec<Vec<Value>> = Vec::new();
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for i in 0..table.n_rows() {
            let key: Vec<Value> = cols
                .iter()
                .map(|&c| table.get(i, c).unwrap().clone())
                .collect();
            match order.iter().position(|k| *k == key) {
                Some(g) => groups[g].push(i),
                None => {
                    order.push(key);
                    groups.push(vec![i]);
                }
            }
        }
        groups
    }

    /// Row-major provenance grid.
    pub type RowStar = Vec<Vec<Expr>>;

    fn extract_groups_star(star: &RowStar, keys: &[usize], inputs: &[Table]) -> Vec<Vec<usize>> {
        let mut seen: Vec<Vec<Value>> = Vec::new();
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for (i, row) in star.iter().enumerate() {
            // The old interpreter evaluated every key expression on every
            // grouping decision.
            let key: Vec<Value> = keys.iter().map(|&c| row[c].eval(inputs)).collect();
            match seen.iter().position(|k| *k == key) {
                Some(g) => groups[g].push(i),
                None => {
                    seen.push(key);
                    groups.push(vec![i]);
                }
            }
        }
        groups
    }

    /// The old provenance interpreter for the operator subset the
    /// benchmark queries use (input / group / partition / arithmetic).
    pub fn prov_evaluate(q: &Query, inputs: &[Table]) -> RowStar {
        match q {
            Query::Input(k) => {
                let t = &inputs[*k];
                (0..t.n_rows())
                    .map(|i| {
                        (0..t.n_cols())
                            .map(|j| Expr::Ref(CellRef::new(*k, i, j)))
                            .collect()
                    })
                    .collect()
            }
            Query::Group {
                src,
                keys,
                agg,
                target,
            } => {
                let star = prov_evaluate(src, inputs);
                let groups = extract_groups_star(&star, keys, inputs);
                groups
                    .into_iter()
                    .map(|g| {
                        let mut row: Vec<Expr> = keys
                            .iter()
                            .map(|&k| Expr::group(g.iter().map(|&i| &star[i][k])))
                            .collect();
                        let members = g.iter().map(|&i| &star[i][*target]);
                        row.push(Expr::apply(FuncName::Agg(*agg), members));
                        row
                    })
                    .collect()
            }
            Query::Partition {
                src,
                keys,
                func,
                target,
            } => {
                let star = prov_evaluate(src, inputs);
                let groups = extract_groups_star(&star, keys, inputs);
                let mut new_col: Vec<Option<Expr>> = vec![None; star.len()];
                for g in &groups {
                    let members: Vec<Expr> = g.iter().map(|&i| star[i][*target].clone()).collect();
                    for (pos, &i) in g.iter().enumerate() {
                        new_col[i] = Some(window_term(*func, &members, pos));
                    }
                }
                star.into_iter()
                    .zip(new_col)
                    .map(|(mut row, cell)| {
                        row.push(cell.expect("grouped"));
                        row
                    })
                    .collect()
            }
            Query::Arith { src, func, cols } => {
                let star = prov_evaluate(src, inputs);
                star.into_iter()
                    .map(|mut row| {
                        let args: Vec<Expr> = cols.iter().map(|&c| row[c].clone()).collect();
                        row.push(sickle_core::expand_arith(func, &args));
                        row
                    })
                    .collect()
            }
            other => unimplemented!("legacy bench evaluator does not cover {other}"),
        }
    }

    fn window_term(func: AnalyticFunc, members: &[Expr], pos: usize) -> Expr {
        match func {
            AnalyticFunc::Agg(a) => Expr::apply(FuncName::Agg(a), members),
            AnalyticFunc::CumSum => Expr::apply(FuncName::Agg(AggFunc::Sum), &members[..=pos]),
            AnalyticFunc::Rank | AnalyticFunc::DenseRank => {
                let mut args = Vec::with_capacity(members.len() + 1);
                args.push(members[pos].clone());
                args.extend(members.iter().cloned());
                let f = if func == AnalyticFunc::Rank {
                    FuncName::Rank
                } else {
                    FuncName::DenseRank
                };
                Expr::Apply(f, args.into())
            }
        }
    }

    /// The old abstract evaluation of the depth-2 partial query
    /// `partition(group(T, keys, α(t)), pkeys, □)`: the concrete inner
    /// group is evaluated precisely (row-major provenance + per-cell
    /// `refs()` sets + per-cell `eval()` concretization), then the strong
    /// partition rule unions per-group sets.
    pub fn abstract_depth2(
        group_q: &Query,
        pkeys: &[usize],
        inputs: &[Table],
        universe: &RefUniverse,
    ) -> Vec<Vec<RefSet>> {
        // Precise bundle of the concrete subquery.
        let star = prov_evaluate(group_q, inputs);
        let sets: Vec<Vec<RefSet>> = star
            .iter()
            .map(|row| row.iter().map(|e| universe.set_from(e.refs())).collect())
            .collect();
        let conc_rows: Vec<Vec<Value>> = star
            .iter()
            .map(|row| row.iter().map(|e| e.eval(inputs)).collect())
            .collect();
        let conc = Table::from_grid(Grid::from_rows(conc_rows).unwrap());
        // Strong rule: groups from the concrete table, unions of the
        // non-key columns.
        let groups = extract_groups(&conc, pkeys);
        let n_cols = conc.n_cols();
        let agg_cols: Vec<usize> = (0..n_cols).filter(|c| !pkeys.contains(c)).collect();
        let mut new_col: Vec<Option<RefSet>> = vec![None; conc.n_rows()];
        for g in &groups {
            let mut u = universe.empty_set();
            for &r in g {
                for &c in &agg_cols {
                    u.union_with(&sets[r][c]);
                }
            }
            for &r in g {
                new_col[r] = Some(u.clone());
            }
        }
        sets.into_iter()
            .zip(new_col)
            .map(|(mut row, cell)| {
                row.push(cell.expect("grouped"));
                row
            })
            .collect()
    }
}

/// Synthetic sales table: `n` rows over (region, quarter, revenue, target).
fn sales(n: usize) -> Table {
    let regions = ["north", "south", "east", "west", "center"];
    let rows = (0..n as i64)
        .map(|i| {
            let k = regions.len() as i64;
            vec![
                regions[(i % k) as usize].into(),
                ((i / k) % 4 + 1).into(),
                ((i * 37) % 1000).into(),
                (500 + (i * 13) % 400).into(),
            ]
        })
        .collect();
    Table::new(["region", "quarter", "revenue", "target"], rows).unwrap()
}

/// group(T, [region, quarter], sum(revenue)).
fn group_query() -> Query {
    Query::Group {
        src: Box::new(Query::Input(0)),
        keys: vec![0, 1],
        agg: AggFunc::Sum,
        target: 2,
    }
}

/// The depth-2 hot-path query: partition(group(...), [region], □) — the
/// shape the abstract analyzer evaluates for every sibling expansion.
fn depth2_partial() -> PQuery {
    PQuery::Partition {
        src: Box::new(PQuery::from_concrete(&group_query())),
        keys: Some(vec![0]),
        func: None,
    }
}

/// Depth-3 concrete pipeline: arith(partition(group(...))).
fn depth3_query() -> Query {
    Query::Arith {
        src: Box::new(Query::Partition {
            src: Box::new(group_query()),
            keys: vec![0],
            func: AnalyticFunc::CumSum,
            target: 2,
        }),
        func: ArithExpr::bin(
            ArithOp::Mul,
            ArithExpr::bin(ArithOp::Div, ArithExpr::Param(0), ArithExpr::Param(1)),
            ArithExpr::lit(100.0),
        ),
        cols: vec![3, 2],
    }
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

fn row(name: &str, legacy: Duration, new: Duration) -> f64 {
    let speedup = legacy.as_secs_f64() / new.as_secs_f64().max(1e-9);
    println!("{name:44} legacy {legacy:>12.2?}   columnar {new:>12.2?}   speedup {speedup:>6.2}x");
    speedup
}

fn main() {
    println!(
        "engine micro-benchmarks (best of N, debug assertions {})",
        if cfg!(debug_assertions) {
            "ON — use --release"
        } else {
            "off"
        }
    );

    let mut speedups = Vec::new();

    // 1. extractGroups on 4000 rows, 20 groups.
    {
        let t = sales(4000);
        let legacy = time_best(10, || legacy::extract_groups(&t, &[0, 1]));
        let new = time_best(10, || sickle_table::extract_groups(&t, &[0, 1]));
        assert_eq!(
            legacy::extract_groups(&t, &[0, 1]),
            sickle_table::extract_groups(&t, &[0, 1]),
            "groupings must agree"
        );
        speedups.push(row("extract_groups/4000x20", legacy, new));
    }

    // 2. Provenance evaluation of group-by on 1200 rows.
    {
        let inputs = [sales(1200)];
        let q = group_query();
        let legacy = time_best(5, || legacy::prov_evaluate(&q, &inputs));
        let new = time_best(5, || prov_evaluate(&q, &inputs).unwrap());
        speedups.push(row("prov_evaluate/group/1200", legacy, new));
    }

    // 3. The headline: depth-2 abstract evaluation (the analyzer's hot
    //    path — one call per sibling expansion during search).
    {
        let inputs = [sales(800)];
        let universe = RefUniverse::from_tables(&inputs);
        let gq = group_query();
        let pq = depth2_partial();
        let legacy = time_best(5, || legacy::abstract_depth2(&gq, &[0], &inputs, &universe));
        // Fresh cache per iteration: the per-PQuery memo would otherwise
        // turn every timed run after the first into a pure cache hit.
        let new = time_best(5, || {
            abstract_evaluate(&pq, &inputs, &universe, &EvalCache::new()).unwrap()
        });
        // Cross-check: identical abstract sets.
        let l = legacy::abstract_depth2(&gq, &[0], &inputs, &universe);
        let cache = EvalCache::new();
        let n = abstract_evaluate(&pq, &inputs, &universe, &cache).unwrap();
        assert_eq!(n.sets.n_rows(), l.len());
        for (r, lrow) in l.iter().enumerate() {
            for (c, lset) in lrow.iter().enumerate() {
                assert_eq!(
                    *lset,
                    n.set(cache.pool(), r, c),
                    "abstract sets differ at ({r},{c})"
                );
            }
        }
        speedups.push(row("abstract_evaluate/depth2/800", legacy, new));
    }

    // 4. Concrete evaluation of the depth-3 pipeline (values channel; the
    //    legacy side pays the star detour the old concretize-based paths
    //    paid, the new side reads the values channel directly).
    {
        let inputs = [sales(1200)];
        let q = depth3_query();
        let legacy = time_best(5, || {
            let star = legacy::prov_evaluate(&q, &inputs);
            let rows: Vec<Vec<Value>> = star
                .iter()
                .map(|row| row.iter().map(|e| e.eval(&inputs)).collect())
                .collect();
            Table::from_grid(Grid::from_rows(rows).unwrap())
        });
        let new = time_best(5, || evaluate(&q, &inputs).unwrap());
        speedups.push(row("evaluate/depth3/1200", legacy, new));
    }

    // 5. Star-channel parity on the depth-3 pipeline.
    {
        let inputs = [sales(400)];
        let q = depth3_query();
        let legacy_star: legacy::RowStar = legacy::prov_evaluate(&q, &inputs);
        let new_star: ProvTable = prov_evaluate(&q, &inputs).unwrap();
        assert_eq!(legacy_star.len(), new_star.n_rows());
        for (r, lrow) in legacy_star.iter().enumerate() {
            for (c, le) in lrow.iter().enumerate() {
                assert_eq!(*le, new_star[(r, c)], "star terms differ at ({r},{c})");
            }
        }
        println!("star-channel parity on depth-3: ok");
    }

    let gm = (speedups.iter().map(|s| s.ln()).sum::<f64>() / speedups.len() as f64).exp();
    println!(
        "geo-mean speedup: {gm:.2}x over {} benchmarks",
        speedups.len()
    );
    // Timing is advisory (shared CI runners are noisy); only the exact
    // output cross-checks above are hard failures.
    if gm <= 1.0 {
        println!("WARNING: columnar engine measured slower than the row-major baseline");
    }
}
