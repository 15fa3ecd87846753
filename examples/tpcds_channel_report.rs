//! A TPC-DS-style decision-support task over a star schema: join the store
//! sales fact table with the store dimension, then report each county's
//! share of total net sales. This exercises `left_join` (with predicates
//! enumerated from declared keys), grouping, a whole-table window, and
//! percentage arithmetic.
//!
//! Run with `cargo run -p sickle --release --example tpcds_channel_report`.

use std::time::Duration;

use sickle::benchmarks::data::{store_dim, store_sales};
use sickle::{evaluate, Budget, Demo, JoinKey, OpKind, Session, SynthConfig, SynthRequest};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let facts = store_sales();
    let dim = store_dim();
    println!("Fact table (store_sales):\n{facts}");
    println!("Dimension (store):\n{dim}");

    // The user demonstrates the share for both counties: each county's
    // summed net_paid (omitting most addends), divided by the overall
    // total, times 100.
    let demo = Demo::parse(&[
        &[
            "T2[1,2]",
            "sum(T[1,5], T[2,5], ..., T[9,5]) / sum(T[1,5], T[2,5], ..., T[18,5]) * 100",
        ],
        &[
            "T2[2,2]",
            "sum(T[10,5], T[11,5], ..., T[18,5]) / sum(T[1,5], ..., T[18,5]) * 100",
        ],
    ])?;
    println!("Demonstration:\n{demo}");

    let session = Session::new();
    let request = SynthRequest::new(vec![facts, dim], demo)
        // Primary/foreign key: store_sales.store = store_dim.store.
        .with_join_key(JoinKey {
            left_table: 0,
            left_col: 0,
            right_table: 1,
            right_col: 0,
        })
        .with_search(
            SynthConfig::new()
                .with_max_depth(4)
                .with_enable_join(true)
                .with_chain_ops(vec![OpKind::Group, OpKind::Partition, OpKind::Arith]),
        )
        .with_budget(
            Budget::default()
                .with_timeout(Some(Duration::from_secs(300)))
                .with_max_solutions(1),
        );
    // Stop on the very first consistent query.
    let result = session.solve_with(&request, |_| true)?;
    println!(
        "search: visited {} queries, pruned {}, {:.2}s",
        result.stats.visited,
        result.stats.pruned,
        result.stats.elapsed.as_secs_f64()
    );
    let q = result.solutions.first().expect("solvable at depth 4");
    println!("synthesized query:\n  {q}");
    let out = evaluate(q, &request.task.inputs)?;
    println!("county share report:\n{out}");
    Ok(())
}
