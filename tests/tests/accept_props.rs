//! Property tests for the candidate-seeded, memoized acceptance matcher,
//! driven by the deterministic in-repo generator: on randomized
//! demonstration/star grids, the staged pipeline (reference-containment
//! prefilter with candidate report → seeded, pre-keyed Def. 1 matching)
//! must agree with the blind `demo_consistent`, and the seeded subtable
//! matcher must agree with the blind `find_table_match` on random
//! oracles.

use sickle_benchmarks::rng::Rng;
use sickle_provenance::{
    demo_consistent, demo_consistent_with_candidates, expr_consistent, find_table_match,
    find_table_match_seeded, find_table_match_with_report, CellRef, Demo, DemoExpr, Expr, FuncName,
    MatchDims, RefUniverse,
};
use sickle_table::{AggFunc, ArithOp, Grid, Table, Value};

/// A small universe: one table whose shape varies per seed.
fn random_universe(rng: &mut Rng) -> (Vec<Table>, RefUniverse) {
    let rows = 3 + rng.gen_range(6);
    let cols = 2 + rng.gen_range(3);
    let t = Table::from_grid(
        Grid::from_rows(
            (0..rows)
                .map(|r| {
                    (0..cols)
                        .map(|c| Value::Int((r * cols + c) as i64))
                        .collect()
                })
                .collect(),
        )
        .expect("rectangular"),
    );
    let universe = RefUniverse::from_tables(std::slice::from_ref(&t));
    (vec![t], universe)
}

fn random_ref(rng: &mut Rng, tables: &[Table]) -> Expr {
    let t = &tables[0];
    Expr::Ref(CellRef::new(
        0,
        rng.gen_range(t.n_rows()),
        rng.gen_range(t.n_cols()),
    ))
}

/// A random provenance expression of bounded depth: references,
/// constants, `group{…}` terms and applications of commutative and
/// positional functions.
fn random_star_expr(rng: &mut Rng, tables: &[Table], depth: usize) -> Expr {
    if depth == 0 {
        return match rng.gen_range(4) {
            0 => Expr::Const(Value::Int(rng.gen_range(5) as i64)),
            _ => random_ref(rng, tables),
        };
    }
    match rng.gen_range(6) {
        0 => Expr::Const(Value::Int(rng.gen_range(5) as i64)),
        1 | 2 => random_ref(rng, tables),
        3 => Expr::group(
            &(0..1 + rng.gen_range(3))
                .map(|_| random_star_expr(rng, tables, depth - 1))
                .collect::<Vec<_>>(),
        ),
        4 => {
            let func = match rng.gen_range(3) {
                0 => FuncName::Agg(AggFunc::Sum),
                1 => FuncName::Agg(AggFunc::Avg),
                _ => FuncName::Rank,
            };
            Expr::apply(
                func,
                &(0..1 + rng.gen_range(4))
                    .map(|_| random_star_expr(rng, tables, depth - 1))
                    .collect::<Vec<_>>(),
            )
        }
        _ => Expr::apply(
            FuncName::Op(if rng.gen_range(2) == 0 {
                ArithOp::Div
            } else {
                ArithOp::Add
            }),
            &[
                random_star_expr(rng, tables, depth - 1),
                random_star_expr(rng, tables, depth - 1),
            ],
        ),
    }
}

/// Derives a demonstration expression that is `≺`-consistent with `star`
/// by construction: groups collapse to a member, commutative
/// applications drop and shuffle arguments (marked partial), positional
/// applications keep an ordered subsequence.
fn demonstrate(rng: &mut Rng, star: &Expr) -> DemoExpr {
    match star {
        Expr::Const(v) => DemoExpr::Const(v.clone()),
        Expr::Ref(r) => DemoExpr::Ref(*r),
        Expr::Group(members) => {
            let pick = &members[rng.gen_range(members.len())];
            demonstrate(rng, pick)
        }
        Expr::Apply(f, args) => {
            let keep: Vec<usize> = (0..args.len()).filter(|_| rng.gen_range(3) > 0).collect();
            let dropped = keep.len() < args.len();
            let mut chosen: Vec<DemoExpr> =
                keep.iter().map(|&i| demonstrate(rng, &args[i])).collect();
            if f.is_commutative() && rng.gen_range(2) == 0 {
                rng.shuffle(&mut chosen);
            }
            if dropped || (f.is_commutative() && rng.gen_range(2) == 0) {
                DemoExpr::apply_partial(*f, chosen)
            } else {
                DemoExpr::Apply {
                    func: *f,
                    args: chosen,
                    partial: rng.gen_range(2) == 0,
                }
            }
        }
    }
}

/// A random (usually inconsistent) demonstration expression.
fn random_demo_expr(rng: &mut Rng, tables: &[Table], depth: usize) -> DemoExpr {
    let star = random_star_expr(rng, tables, depth);
    // Reuse the star generator, then strip groups (demo cells never
    // contain `group{…}`).
    fn strip(rng: &mut Rng, e: &Expr) -> DemoExpr {
        match e {
            Expr::Const(v) => DemoExpr::Const(v.clone()),
            Expr::Ref(r) => DemoExpr::Ref(*r),
            Expr::Group(ms) => {
                let pick = rng.gen_range(ms.len());
                strip(rng, &ms[pick])
            }
            Expr::Apply(f, args) => DemoExpr::Apply {
                func: *f,
                args: args.iter().map(|a| strip(rng, a)).collect(),
                partial: rng.gen_range(2) == 0,
            },
        }
    }
    strip(rng, &star)
}

/// The staged acceptance decision exactly as the search performs it:
/// prefilter over exact reference containment (with candidate report),
/// then candidate-seeded Def. 1. Returns the verdict plus the witness.
fn staged_verdict(
    demo: &Demo,
    star: &Grid<Expr>,
    universe: &RefUniverse,
) -> Option<sickle_provenance::TableMatch> {
    let dims = MatchDims {
        demo_rows: demo.n_rows(),
        demo_cols: demo.n_cols(),
        table_rows: star.n_rows(),
        table_cols: star.n_cols(),
    };
    let demo_refs: Grid<_> = demo.grid().map(|e| universe.set_from(e.refs()));
    let sets: Grid<_> = star.map(|e| universe.set_from(e.refs()));
    let report = find_table_match_with_report(dims, &mut |di, dj, ti, tj| {
        demo_refs[(di, dj)].is_subset_of(&sets[(ti, tj)])
    });
    report.found.as_ref()?;
    match &report.seed {
        Some(seed) => demo_consistent_with_candidates(demo, star, seed),
        None => demo_consistent(demo, star),
    }
}

const CASES: u64 = 120;

/// The staged, seeded pipeline agrees with the blind `demo_consistent`
/// on randomized grids, and any witness it returns is a valid Def. 1
/// assignment.
#[test]
fn staged_acceptance_agrees_with_blind_demo_consistent() {
    let mut consistent_seen = 0usize;
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let (tables, universe) = random_universe(&mut rng);
        let (table_rows, table_cols) = (1 + rng.gen_range(4), 1 + rng.gen_range(4));
        let star: Grid<Expr> = Grid::from_rows(
            (0..table_rows)
                .map(|_| {
                    (0..table_cols)
                        .map(|_| random_star_expr(&mut rng, &tables, 2))
                        .collect()
                })
                .collect(),
        )
        .expect("rectangular");

        let (demo_rows, demo_cols) = (1 + rng.gen_range(3), 1 + rng.gen_range(3));
        // Bias towards consistent demos: derive each cell from a star
        // cell along a fixed (row, column) offset so an embedding exists,
        // then sometimes scramble cells to produce rejections.
        let derive = rng.gen_range(3) > 0 && demo_rows <= table_rows && demo_cols <= table_cols;
        let demo = Demo::new(
            (0..demo_rows)
                .map(|i| {
                    (0..demo_cols)
                        .map(|j| {
                            if derive && rng.gen_range(4) > 0 {
                                demonstrate(&mut rng, &star[(i, j)])
                            } else {
                                random_demo_expr(&mut rng, &tables, 1)
                            }
                        })
                        .collect()
                })
                .collect(),
        )
        .expect("rectangular");

        let blind = demo_consistent(&demo, &star);
        let staged = staged_verdict(&demo, &star, &universe);
        assert_eq!(
            blind.is_some(),
            staged.is_some(),
            "seed {seed}: staged verdict diverged from blind\ndemo:\n{demo}"
        );
        if let Some(m) = &staged {
            consistent_seen += 1;
            for di in 0..demo.n_rows() {
                for dj in 0..demo.n_cols() {
                    assert!(
                        expr_consistent(demo.cell(di, dj), &star[(m.row_map[di], m.col_map[dj])]),
                        "seed {seed}: witness cell ({di},{dj}) not consistent"
                    );
                }
            }
        }
    }
    // The generator must exercise both outcomes.
    assert!(
        consistent_seen > 10,
        "only {consistent_seen} consistent cases"
    );
    assert!(
        (consistent_seen as u64) < CASES,
        "no inconsistent cases generated"
    );
}

/// On random boolean oracles, the reporting matcher returns the blind
/// matcher's verdict and witness, and seeding a (pointwise stronger)
/// oracle from its report matches that oracle's blind verdict.
#[test]
fn seeded_matcher_agrees_with_blind_on_random_oracles() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x5eed ^ seed);
        let dims = MatchDims {
            demo_rows: 1 + rng.gen_range(3),
            demo_cols: 1 + rng.gen_range(3),
            table_rows: 1 + rng.gen_range(5),
            table_cols: 1 + rng.gen_range(5),
        };
        // Dense random truth tables for the weak and strong oracles,
        // with strong ⇒ weak pointwise.
        let cells = dims.demo_rows * dims.demo_cols * dims.table_rows * dims.table_cols;
        let weak_tab: Vec<bool> = (0..cells).map(|_| rng.gen_range(3) > 0).collect();
        let strong_tab: Vec<bool> = weak_tab
            .iter()
            .map(|&w| w && rng.gen_range(4) > 0)
            .collect();
        let idx = |di: usize, dj: usize, ti: usize, tj: usize| {
            ((di * dims.demo_cols + dj) * dims.table_rows + ti) * dims.table_cols + tj
        };

        let blind_weak =
            find_table_match(dims, &mut |di, dj, ti, tj| weak_tab[idx(di, dj, ti, tj)]);
        let report =
            find_table_match_with_report(dims, &mut |di, dj, ti, tj| weak_tab[idx(di, dj, ti, tj)]);
        assert_eq!(blind_weak, report.found, "seed {seed}: report != blind");

        let blind_strong =
            find_table_match(dims, &mut |di, dj, ti, tj| strong_tab[idx(di, dj, ti, tj)]);
        match &report.seed {
            Some(matched_seed) => {
                let seeded = find_table_match_seeded(dims, matched_seed, &mut |di, dj, ti, tj| {
                    strong_tab[idx(di, dj, ti, tj)]
                });
                assert_eq!(
                    blind_strong.is_some(),
                    seeded.is_some(),
                    "seed {seed}: seeded strong verdict diverged"
                );
                if let Some(m) = &seeded {
                    for di in 0..dims.demo_rows {
                        for dj in 0..dims.demo_cols {
                            assert!(strong_tab[idx(di, dj, m.row_map[di], m.col_map[dj])]);
                        }
                    }
                }
            }
            None => {
                // No seed ⇒ the weak search rejected (or was trivial);
                // the strong oracle must reject too.
                assert!(
                    report.found.is_none() && blind_strong.is_none(),
                    "seed {seed}: missing seed on a feasible instance"
                );
            }
        }
    }
}
