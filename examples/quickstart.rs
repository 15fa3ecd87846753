//! Quickstart: synthesize a group-by-sum query from a two-row computation
//! demonstration, streaming solutions as the search finds them.
//!
//! Run with `cargo run -p sickle --release --example quickstart`.

use sickle::{Budget, Demo, Session, SolutionEvent, SynthRequest, Table};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The input table the user starts from.
    let sales = Table::new(
        ["region", "quarter", "revenue"],
        vec![
            vec!["west".into(), 1.into(), 120.into()],
            vec!["west".into(), 2.into(), 150.into()],
            vec!["west".into(), 3.into(), 90.into()],
            vec!["east".into(), 1.into(), 80.into()],
            vec!["east".into(), 2.into(), 110.into()],
            vec!["east".into(), 3.into(), 95.into()],
        ],
    )?;
    println!("Input table:\n{sales}");

    // The user demonstrates "total revenue per region" by dragging input
    // cells into formulas — one row per region, no final values needed.
    let demo = Demo::parse(&[
        &["T[1,1]", "sum(T[1,3], T[2,3], T[3,3])"],
        &["T[4,1]", "sum(T[4,3], T[5,3], T[6,3])"],
    ])?;
    println!("Demonstration:\n{demo}");

    // A Session is the long-lived service object: it owns the warm search
    // state, so later requests reuse what this one computes.
    let session = Session::new();
    let request = SynthRequest::new(vec![sales], demo)
        .with_max_depth(1)
        .with_budget(Budget::default().with_max_solutions(3));

    // Stream solutions as they are found; the final Done event carries the
    // ranked result and the search statistics.
    let stream = session.submit(request.clone())?;
    for event in stream {
        match event {
            SolutionEvent::Solution { index, query } => {
                println!("found solution #{}: {query}", index + 1);
            }
            SolutionEvent::Progress(p) => {
                println!("  … visited {} queries so far", p.stats.visited);
            }
            SolutionEvent::Done(result) => {
                println!(
                    "done: visited {} queries, pruned {}, {} consistent quer{}:",
                    result.stats.visited,
                    result.stats.pruned,
                    result.solutions.len(),
                    if result.solutions.len() == 1 {
                        "y"
                    } else {
                        "ies"
                    },
                );
                for (i, q) in result.solutions.iter().enumerate() {
                    println!("  #{}: {q}", i + 1);
                    let out = sickle::evaluate(q, &request.task.inputs)?;
                    println!("{out}");
                }
            }
            _ => {}
        }
    }
    Ok(())
}
