//! Data-scale micro-benchmarks of the engine's bulk kernels: the fused
//! hash equi-join vs a nested pair loop over the cross product, and the
//! vectorized (single-hashed-pass, indexed-accumulate) group/window
//! kernels vs the row-at-a-time gather path they replaced.
//!
//! Inputs are the suite's kind of tables scaled to 10^4–10^6 rows by
//! seeded bootstrap sampling with a controlled join-key cardinality
//! (`sickle_benchmarks::scale_table_keyed`), so match rates and group
//! sizes stay predictable as the row count grows. Outputs are
//! cross-checked byte-for-byte between the A and B sides before timing
//! counts for anything.
//!
//! Plain `harness = false` timing (the offline environment has no
//! `criterion`):
//!
//! ```text
//! cargo bench -p sickle-bench --bench scale [-- --quick]
//! ```
//!
//! Knob: `SICKLE_SCALE_ROWS=10000,100000` overrides the row-scale list.
//! The run writes `BENCH_scale.json` for CI artifacts.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use sickle_benchmarks::{scale_table_keyed, Rng};
use sickle_core::{exec, Pred, Query, Semantics};
use sickle_table::{gather_column, AggFunc, AnalyticFunc, CmpOp, Table, Value};

fn main() {
    run();
}

/// Best-of-N wall-clock of `f`, with one warmup run.
fn time_best<R>(iters: usize, mut f: impl FnMut() -> R) -> Duration {
    std::hint::black_box(f());
    let mut best = Duration::MAX;
    for _ in 0..iters.max(1) {
        let t0 = Instant::now();
        std::hint::black_box(f());
        best = best.min(t0.elapsed());
    }
    best
}

/// The row-scale axis: `SICKLE_SCALE_ROWS` (comma-separated) wins, then
/// quick/full defaults.
fn scales(quick: bool) -> Vec<usize> {
    if let Ok(s) = std::env::var("SICKLE_SCALE_ROWS") {
        let parsed: Vec<usize> = s
            .split(',')
            .filter_map(|x| x.trim().parse().ok())
            .filter(|&n| n > 0)
            .collect();
        if !parsed.is_empty() {
            return parsed;
        }
    }
    if quick {
        vec![1_000, 10_000]
    } else {
        vec![10_000, 100_000, 1_000_000]
    }
}

/// Small hand-built source tables the scale axis bootstraps from — the
/// suite's shape: a keyed fact table and a keyed dimension table.
fn base_orders() -> Table {
    let mut rng = Rng::seed_from_u64(7);
    let rows: Vec<Vec<Value>> = (0..40)
        .map(|i| {
            vec![
                Value::Int(i % 8),
                Value::Int((rng.gen_range(50) + 1) as i64),
                Value::Int((rng.gen_range(900) + 100) as i64),
            ]
        })
        .collect();
    Table::new(["key", "qty", "price"], rows).expect("rectangular")
}

fn base_dims() -> Table {
    let rows: Vec<Vec<Value>> = (0..16)
        .map(|i| {
            let region = ["west", "east", "north", "south"][(i % 4) as usize];
            vec![Value::Int(i % 8), region.into()]
        })
        .collect();
    Table::new(["key", "region"], rows).expect("rectangular")
}

/// Row-at-a-time group discovery: the pre-vectorization idiom (one key
/// `Vec<Value>` cloned per row, hashed per row). First-seen group order,
/// exactly like the shipped kernel.
fn legacy_group_rows(t: &Table, keys: &[usize]) -> Vec<Vec<usize>> {
    let mut index: HashMap<Vec<Value>, usize> = HashMap::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for r in 0..t.n_rows() {
        let key: Vec<Value> = keys.iter().map(|&c| t.column(c)[r].clone()).collect();
        let g = *index.entry(key).or_insert_with(|| {
            groups.push(Vec::new());
            groups.len() - 1
        });
        groups[g].push(r);
    }
    groups
}

/// `filter(join(l, r), pred)` by the nested pair loop the hash join
/// replaced: every (lrow, rrow) pair is tested against the whole predicate
/// and the matches are gathered lrow-major — O(|L|·|R|).
fn legacy_filtered_join(l: &Table, r: &Table, pred: &Pred) -> Table {
    let ln = l.n_cols();
    let (mut lsel, mut rsel) = (Vec::new(), Vec::new());
    for lrow in 0..l.n_rows() {
        for rrow in 0..r.n_rows() {
            let cell = |c: usize| {
                if c < ln {
                    &l.column(c)[lrow]
                } else {
                    &r.column(c - ln)[rrow]
                }
            };
            if pred.eval_with(&cell) {
                lsel.push(lrow);
                rsel.push(rrow);
            }
        }
    }
    let mut names = l.names().to_vec();
    names.extend(r.names().iter().cloned());
    Table::from_named_grid(
        names,
        l.grid()
            .select_rows(&lsel)
            .hcat(&r.grid().select_rows(&rsel)),
    )
}

struct JoinRow {
    name: String,
    rows_left: usize,
    rows_right: usize,
    out_rows: usize,
    hash: Duration,
    cross: Option<Duration>,
}

struct KernelRow {
    name: String,
    rows: usize,
    vectorized: Duration,
    legacy: Duration,
}

fn speedup(a: Duration, b: Duration) -> f64 {
    a.as_secs_f64() / b.as_secs_f64().max(1e-9)
}

#[allow(clippy::too_many_lines)]
fn run() {
    let quick = std::env::args().any(|a| a == "--quick");
    println!(
        "scale micro-benchmarks (best of N{}, debug assertions {})",
        if quick { ", --quick" } else { "" },
        if cfg!(debug_assertions) {
            "ON — use --release"
        } else {
            "off"
        }
    );

    let scales = scales(quick);
    // Cross A/B only while the pair count stays tractable; above that the
    // row reports hash-side throughput alone (the legacy path would take
    // minutes — the point of the tentpole).
    const MAX_CROSS_PAIRS: u64 = 200_000_000;

    let mut joins: Vec<JoinRow> = Vec::new();
    let mut kernels: Vec<KernelRow> = Vec::new();

    for &n in &scales {
        let card = (n / 100).max(16);
        let r_rows = (n / 100).max(50);
        let left = scale_table_keyed(&base_orders(), n, 0, card, 11);
        let right = scale_table_keyed(&base_dims(), r_rows, 0, card, 13);
        let inputs = vec![left, right];
        let l_cols = inputs[0].n_cols();

        // Scenario 1: pure equi-join `L.key = R.key`.
        // Scenario 2: equi key + residual `qty < 26` — the residual runs
        // on hash matches only.
        let equi = Pred::ColCmp(0, CmpOp::Eq, l_cols);
        let residual = Pred::And(
            Box::new(Pred::ColCmp(0, CmpOp::Eq, l_cols)),
            Box::new(Pred::ColConst(1, CmpOp::Lt, Value::Int(26))),
        );
        for (label, pred) in [("equi", &equi), ("equi+residual", &residual)] {
            let q = Query::Filter {
                src: Box::new(Query::Join {
                    left: Box::new(Query::Input(0)),
                    right: Box::new(Query::Input(1)),
                }),
                pred: pred.clone(),
            };
            let hash_out = exec(Semantics::Values, &q, &inputs).expect("hash join executes");
            let pairs = (inputs[0].n_rows() as u64) * (inputs[1].n_rows() as u64);
            let ab = pairs <= MAX_CROSS_PAIRS;
            if ab {
                assert_eq!(
                    *hash_out.table(),
                    legacy_filtered_join(&inputs[0], &inputs[1], pred),
                    "hash-vs-cross verdict diverged on {label} at {n} rows"
                );
            }
            let iters = if quick { 2 } else { 3 };
            let hash = time_best(iters, || exec(Semantics::Values, &q, &inputs).unwrap());
            let cross = ab.then(|| {
                let ci = if pairs > 20_000_000 { 1 } else { iters };
                time_best(ci, || legacy_filtered_join(&inputs[0], &inputs[1], pred))
            });
            let row = JoinRow {
                name: format!("join/{label}/{n}"),
                rows_left: inputs[0].n_rows(),
                rows_right: inputs[1].n_rows(),
                out_rows: hash_out.table().n_rows(),
                hash,
                cross,
            };
            let processed = (row.rows_left + row.rows_right + row.out_rows) as f64;
            match row.cross {
                Some(c) => println!(
                    "{:36} hash {:>11.2?}   cross {:>11.2?}   speedup {:>8.2}x   ({:.1}M rows/s)",
                    row.name,
                    row.hash,
                    c,
                    speedup(c, row.hash),
                    processed / row.hash.as_secs_f64().max(1e-9) / 1e6,
                ),
                None => println!(
                    "{:36} hash {:>11.2?}   cross     (skipped)   ({:.1}M rows/s)",
                    row.name,
                    row.hash,
                    processed / row.hash.as_secs_f64().max(1e-9) / 1e6,
                ),
            }
            joins.push(row);
        }

        // Group kernel A/B: hashed single-pass discovery + indexed
        // accumulate vs per-row key clones + gather-then-apply.
        let t = &inputs[0];
        let keys = [0usize];
        let vec_groups = sickle_table::extract_groups(t, &keys);
        let legacy_groups = legacy_group_rows(t, &keys);
        assert_eq!(
            vec_groups, legacy_groups,
            "group discovery diverged at {n} rows"
        );
        let col = t.column(2);
        let vec_sums: Vec<Value> = vec_groups
            .iter()
            .map(|g| AggFunc::Sum.apply_indexed(col, g))
            .collect();
        let legacy_sums: Vec<Value> = legacy_groups
            .iter()
            .map(|g| AggFunc::Sum.apply(&gather_column(col, g)))
            .collect();
        assert_eq!(vec_sums, legacy_sums, "group sums diverged at {n} rows");
        let iters = if quick { 3 } else { 5 };
        let vectorized = time_best(iters, || {
            let groups = sickle_table::extract_groups(t, &keys);
            groups
                .iter()
                .map(|g| AggFunc::Sum.apply_indexed(col, g))
                .collect::<Vec<Value>>()
        });
        let legacy = time_best(iters, || {
            let groups = legacy_group_rows(t, &keys);
            groups
                .iter()
                .map(|g| AggFunc::Sum.apply(&gather_column(col, g)))
                .collect::<Vec<Value>>()
        });
        let row = KernelRow {
            name: format!("group/sum/{n}"),
            rows: n,
            vectorized,
            legacy,
        };
        println!(
            "{:36} vec  {:>11.2?}   legacy {:>10.2?}   speedup {:>8.2}x",
            row.name,
            row.vectorized,
            row.legacy,
            speedup(row.legacy, row.vectorized),
        );
        kernels.push(row);

        // Window kernel A/B on bounded group sizes (the legacy cumsum is
        // quadratic in the group size by design — pinned semantics).
        let wfuncs = [
            ("cumsum", AnalyticFunc::CumSum),
            ("rank", AnalyticFunc::Rank),
        ];
        for (wname, func) in wfuncs {
            let vec_out: Vec<Vec<Value>> = vec_groups
                .iter()
                .map(|g| func.apply_indexed(col, g))
                .collect();
            let legacy_out: Vec<Vec<Value>> = vec_groups
                .iter()
                .map(|g| func.apply(&gather_column(col, g)))
                .collect();
            assert_eq!(vec_out, legacy_out, "window {wname} diverged at {n} rows");
            let vectorized = time_best(iters, || {
                vec_groups
                    .iter()
                    .map(|g| func.apply_indexed(col, g))
                    .collect::<Vec<Vec<Value>>>()
            });
            let legacy = time_best(iters, || {
                vec_groups
                    .iter()
                    .map(|g| func.apply(&gather_column(col, g)))
                    .collect::<Vec<Vec<Value>>>()
            });
            let row = KernelRow {
                name: format!("window/{wname}/{n}"),
                rows: n,
                vectorized,
                legacy,
            };
            println!(
                "{:36} vec  {:>11.2?}   legacy {:>10.2?}   speedup {:>8.2}x",
                row.name,
                row.vectorized,
                row.legacy,
                speedup(row.legacy, row.vectorized),
            );
            kernels.push(row);
        }
    }

    // The headline verdict: the equi-join A/B at the largest scale that
    // still ran both sides (10^5 in the default full run).
    let verdict = joins
        .iter()
        .filter(|r| r.cross.is_some() && r.name.starts_with("join/equi/"))
        .max_by_key(|r| r.rows_left);
    let (verdict_name, verdict_speedup) = match verdict {
        Some(r) => (
            r.name.clone(),
            speedup(r.cross.expect("filtered on cross"), r.hash),
        ),
        None => (String::from("(no A/B scenario ran)"), 0.0),
    };
    let pass = verdict_speedup >= 10.0;
    println!("verdict: {verdict_name} hash-vs-cross speedup {verdict_speedup:.1}x (>=10x: {pass})");
    if !pass {
        println!("WARNING: equi-join hash path below the 10x target");
    }

    // BENCH_scale.json.
    let mut out = String::from("{\n  \"schema\": \"sickle-bench/scale/v2\",\n");
    out.push_str(&format!("  \"quick\": {quick},\n  \"joins\": [\n"));
    for (i, r) in joins.iter().enumerate() {
        let processed = (r.rows_left + r.rows_right + r.out_rows) as f64;
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"rows_left\": {}, \"rows_right\": {}, \"out_rows\": {}, \
             \"hash_s\": {:.9}, \"cross_s\": {}, \"speedup\": {}, \"hash_rows_per_s\": {:.0}}}{}\n",
            r.name,
            r.rows_left,
            r.rows_right,
            r.out_rows,
            r.hash.as_secs_f64(),
            r.cross
                .map_or("null".to_string(), |c| format!("{:.9}", c.as_secs_f64())),
            r.cross
                .map_or("null".to_string(), |c| format!("{:.3}", speedup(c, r.hash))),
            processed / r.hash.as_secs_f64().max(1e-9),
            if i + 1 == joins.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n  \"kernels\": [\n");
    for (i, r) in kernels.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"rows\": {}, \"vectorized_s\": {:.9}, \"legacy_s\": {:.9}, \
             \"speedup\": {:.3}}}{}\n",
            r.name,
            r.rows,
            r.vectorized.as_secs_f64(),
            r.legacy.as_secs_f64(),
            speedup(r.legacy, r.vectorized),
            if i + 1 == kernels.len() { "" } else { "," }
        ));
    }
    out.push_str(&format!(
        "  ],\n  \"verdict\": {{\"scenario\": \"{verdict_name}\", \
         \"equi_join_speedup\": {verdict_speedup:.3}, \"pass\": {pass}}}\n}}\n"
    ));
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_scale.json");
    match std::fs::write(&path, out) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => println!("warning: could not write {}: {e}", path.display()),
    }
}
