//! The consistency relation `e ≺ e★` (Fig. 10) and provenance consistency
//! of whole tables (Def. 1).

use sickle_table::Grid;

use crate::demo::{Demo, DemoExpr};
use crate::expr::{Expr, FuncName};
use crate::matching::{
    find_table_match, find_table_match_seeded, MatchDims, MatchSeed, TableMatch,
};

/// Decides `e ≺ e★`: the provenance expression `e★` *generalizes* the
/// demonstration expression `e` (Fig. 10).
///
/// * constants / references must be identical;
/// * `e ≺ group{…}` holds when `e` matches any member (all members of a
///   group carry the same value, §3.2);
/// * applications must use the same function; for commutative functions
///   arguments match up to injective assignment, for non-commutative
///   functions in order; a partial application `f♦` may omit arguments at
///   any position.
///
/// # Examples
///
/// ```
/// use sickle_provenance::{expr_consistent, parse_expr, CellRef, Expr, FuncName};
/// use sickle_table::AggFunc;
///
/// let demo = parse_expr("sum(T[1,4], ..., T[8,4])").unwrap();
/// let star = Expr::apply(
///     FuncName::Agg(AggFunc::Sum),
///     &(0..8).map(|r| Expr::Ref(CellRef::new(0, r, 3))).collect::<Vec<_>>(),
/// );
/// assert!(expr_consistent(&demo, &star));
/// ```
pub fn expr_consistent(e: &DemoExpr, star: &Expr) -> bool {
    // Rule: e ≺ group{ē★} if some member generalizes e.
    if let Expr::Group(members) = star {
        return members.iter().any(|m| expr_consistent(e, m));
    }
    match (e, star) {
        (DemoExpr::Const(a), Expr::Const(b)) => a == b,
        (DemoExpr::Ref(a), Expr::Ref(b)) => a == b,
        (
            DemoExpr::Apply {
                func,
                args,
                partial,
            },
            Expr::Apply(sfunc, sargs),
        ) => {
            if func != sfunc {
                return false;
            }
            match (func.is_commutative(), *partial) {
                (true, true) => injective_args_match(args, sargs),
                (true, false) => args.len() == sargs.len() && injective_args_match(args, sargs),
                (false, true) => subsequence_args_match(args, sargs),
                (false, false) => {
                    args.len() == sargs.len()
                        && args
                            .iter()
                            .zip(sargs.iter())
                            .all(|(a, s)| expr_consistent(a, s))
                }
            }
        }
        _ => false,
    }
}

/// Commutative matching: every demo argument maps to a *distinct*
/// provenance argument that generalizes it (bipartite matching via Kuhn's
/// augmenting paths).
fn injective_args_match(args: &[DemoExpr], sargs: &[Expr]) -> bool {
    if args.len() > sargs.len() {
        return false;
    }
    // edges[i] = provenance args compatible with demo arg i.
    let edges: Vec<Vec<usize>> = args
        .iter()
        .map(|a| {
            (0..sargs.len())
                .filter(|&j| expr_consistent(a, &sargs[j]))
                .collect()
        })
        .collect();
    let mut matched = vec![usize::MAX; sargs.len()];

    fn augment(i: usize, edges: &[Vec<usize>], seen: &mut [bool], matched: &mut [usize]) -> bool {
        for &j in &edges[i] {
            if !seen[j] {
                seen[j] = true;
                if matched[j] == usize::MAX || augment(matched[j], edges, seen, matched) {
                    matched[j] = i;
                    return true;
                }
            }
        }
        false
    }

    (0..args.len()).all(|i| {
        let mut seen = vec![false; sargs.len()];
        augment(i, &edges, &mut seen, &mut matched)
    })
}

/// Ordered matching with omissions: demo arguments must match a
/// *subsequence* of the provenance arguments (omissions may fall at the
/// beginning, middle or end, per §3.2).
fn subsequence_args_match(args: &[DemoExpr], sargs: &[Expr]) -> bool {
    // Greedy two-pointer is correct here only with backtracking; use DP:
    // can[i][j] = first i demo args matched within first j provenance args.
    let (m, n) = (args.len(), sargs.len());
    if m > n {
        return false;
    }
    let mut can = vec![false; m + 1];
    can[0] = true;
    let mut prev = can.clone();
    for j in 1..=n {
        std::mem::swap(&mut prev, &mut can);
        can[0] = true;
        for i in 1..=m {
            can[i] = prev[i] || (prev[i - 1] && expr_consistent(&args[i - 1], &sargs[j - 1]));
        }
    }
    can[m]
}

/// Decides Def. 1: is the provenance-embedded table `star` consistent with
/// the demonstration? Returns the witnessing subtable assignment.
///
/// A table is consistent when a subtable of `star` (a choice of rows and
/// columns) cell-wise generalizes the demonstration under
/// [`expr_consistent`].
pub fn demo_consistent(demo: &Demo, star: &Grid<Expr>) -> Option<TableMatch> {
    let dims = MatchDims {
        demo_rows: demo.n_rows(),
        demo_cols: demo.n_cols(),
        table_rows: star.n_rows(),
        table_cols: star.n_cols(),
    };
    find_table_match(dims, &mut |di, dj, ti, tj| {
        expr_consistent(demo.cell(di, dj), &star[(ti, tj)])
    })
}

/// [`demo_consistent`] seeded by the candidate structure of a reference-
/// containment prefilter (the Def. 3 check on exact provenance), instead
/// of re-deriving feasible columns blind.
///
/// Soundness: `e ≺ e★` implies `ref(e) ⊆ ref(e★)` (constants carry no
/// references; references must be identical; group/application matching
/// maps every demo leaf into a distinct generalizing sub-term), so every
/// Def. 1-feasible column/row is already among the prefilter's candidates
/// and the verdict equals the blind [`demo_consistent`]. The returned
/// witness is always a valid Def. 1 assignment but may differ from the
/// blind one when several exist.
///
/// Each probed `(demo cell, star cell)` pair additionally passes a cheap
/// structural pre-key (head-function presence + argument-count bounds)
/// before the full [`expr_consistent`] recursion runs, and verdicts are
/// memoized probe-locally, so backtracking never re-derives a recursion.
pub fn demo_consistent_with_candidates(
    demo: &Demo,
    star: &Grid<Expr>,
    seed: &MatchSeed,
) -> Option<TableMatch> {
    let dims = MatchDims {
        demo_rows: demo.n_rows(),
        demo_cols: demo.n_cols(),
        table_rows: star.n_rows(),
        table_cols: star.n_cols(),
    };
    let demo_keys: Vec<DemoKey> = (0..dims.demo_rows)
        .flat_map(|i| (0..dims.demo_cols).map(move |j| (i, j)))
        .map(|(i, j)| DemoKey::of(demo.cell(i, j)))
        .collect();
    // Star keys are derived lazily: the seeded search only probes cells
    // the candidate structure still allows.
    let mut star_keys: Vec<Option<StarKey>> = vec![None; dims.table_rows * dims.table_cols];
    find_table_match_seeded(dims, seed, &mut |di, dj, ti, tj| {
        let sk = *star_keys[ti * dims.table_cols + tj]
            .get_or_insert_with(|| StarKey::of(&star[(ti, tj)]));
        demo_keys[di * dims.demo_cols + dj].compatible(sk)
            && expr_consistent(demo.cell(di, dj), &star[(ti, tj)])
    })
}

// ---------------------------------------------------------------------------
// Structural pre-keys
// ---------------------------------------------------------------------------

/// Head-symbol bit for the pre-key masks (11 function symbols fit a u16).
fn head_bit(f: FuncName) -> u16 {
    use sickle_table::{AggFunc, ArithOp};
    let shift = match f {
        FuncName::Agg(AggFunc::Sum) => 0,
        FuncName::Agg(AggFunc::Avg) => 1,
        FuncName::Agg(AggFunc::Max) => 2,
        FuncName::Agg(AggFunc::Min) => 3,
        FuncName::Agg(AggFunc::Count) => 4,
        FuncName::Op(ArithOp::Add) => 5,
        FuncName::Op(ArithOp::Sub) => 6,
        FuncName::Op(ArithOp::Mul) => 7,
        FuncName::Op(ArithOp::Div) => 8,
        FuncName::Rank => 9,
        FuncName::DenseRank => 10,
    };
    1 << shift
}

/// Structural summary of a star cell: which head symbols appear at the
/// cell's top level (looking through `group{…}` members, which the `≺`
/// group rule also looks through), the largest argument list among them,
/// and whether a bare reference / constant is reachable. A necessary
/// condition for `e ≺ e★`, checked before the full recursion.
#[derive(Debug, Clone, Copy, Default)]
struct StarKey {
    heads: u16,
    max_args: u32,
    has_ref: bool,
    has_const: bool,
}

impl StarKey {
    fn of(star: &Expr) -> StarKey {
        let mut key = StarKey::default();
        key.scan(star);
        key
    }

    fn scan(&mut self, star: &Expr) {
        match star {
            Expr::Const(_) => self.has_const = true,
            Expr::Ref(_) => self.has_ref = true,
            Expr::Apply(f, args) => {
                self.heads |= head_bit(*f);
                self.max_args = self.max_args.max(args.len() as u32);
            }
            Expr::Group(members) => members.iter().for_each(|m| self.scan(m)),
        }
    }
}

/// The demo-cell side of the pre-key check.
#[derive(Debug, Clone, Copy)]
enum DemoKey {
    /// Constants match only star constants (through groups).
    Const,
    /// References match only star references (through groups).
    Ref,
    /// Applications need the same head and at least `min_args` arguments.
    Apply { head: u16, min_args: u32 },
}

impl DemoKey {
    fn of(e: &DemoExpr) -> DemoKey {
        match e {
            DemoExpr::Const(_) => DemoKey::Const,
            DemoExpr::Ref(_) => DemoKey::Ref,
            DemoExpr::Apply { func, args, .. } => DemoKey::Apply {
                head: head_bit(*func),
                // Both complete and partial applications provide at least
                // `args.len()` arguments to place (partial may omit more).
                min_args: args.len() as u32,
            },
        }
    }

    fn compatible(self, sk: StarKey) -> bool {
        match self {
            DemoKey::Const => sk.has_const,
            DemoKey::Ref => sk.has_ref,
            DemoKey::Apply { head, min_args } => sk.heads & head != 0 && min_args <= sk.max_args,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demo::parse_expr;
    use crate::expr::{CellRef, FuncName};
    use sickle_table::{AggFunc, ArithOp, Value};

    fn r(row: usize, col: usize) -> Expr {
        Expr::Ref(CellRef::new(0, row, col))
    }

    fn sum(args: &[Expr]) -> Expr {
        Expr::apply(FuncName::Agg(AggFunc::Sum), args)
    }

    #[test]
    fn identical_refs_match() {
        let d = parse_expr("T[1,1]").unwrap();
        assert!(expr_consistent(&d, &r(0, 0)));
        assert!(!expr_consistent(&d, &r(0, 1)));
    }

    #[test]
    fn ref_matches_group_member() {
        let d = parse_expr("T[2,1]").unwrap();
        let g = Expr::group(&[r(0, 0), r(1, 0)]);
        assert!(expr_consistent(&d, &g));
        let g2 = Expr::group(&[r(2, 0), r(3, 0)]);
        assert!(!expr_consistent(&d, &g2));
    }

    #[test]
    fn commutative_permutation_matches() {
        let d = parse_expr("sum(T[2,2], T[1,2])").unwrap();
        let s = sum(&[r(0, 1), r(1, 1)]);
        assert!(expr_consistent(&d, &s));
    }

    #[test]
    fn commutative_full_arity_enforced() {
        // Complete sum with fewer args than provenance term must NOT match.
        let d = parse_expr("sum(T[1,2])").unwrap();
        let s = sum(&[r(0, 1), r(1, 1)]);
        assert!(!expr_consistent(&d, &s));
    }

    #[test]
    fn partial_sum_subset_matches() {
        let d = parse_expr("sum(T[1,2], ..., T[4,2])").unwrap();
        let s = sum(&[r(0, 1), r(1, 1), r(2, 1), r(3, 1)]);
        assert!(expr_consistent(&d, &s));
        // ...but the provided values must all appear.
        let d2 = parse_expr("sum(T[1,2], ..., T[9,2])").unwrap();
        assert!(!expr_consistent(&d2, &s));
    }

    #[test]
    fn injective_matching_no_double_use() {
        // Demo lists T[1,2] twice; provenance term has only one copy.
        let d = parse_expr("sum(T[1,2], T[1,2], ...)").unwrap();
        let s = sum(&[r(0, 1), r(1, 1)]);
        assert!(!expr_consistent(&d, &s));
        let s2 = sum(&[r(0, 1), r(0, 1)]);
        assert!(expr_consistent(&d, &s2));
    }

    #[test]
    fn noncommutative_positional() {
        // div(a, b) must not match div(b, a).
        let d = parse_expr("T[1,1] / T[1,2]").unwrap();
        let ok = Expr::apply(FuncName::Op(ArithOp::Div), &[r(0, 0), r(0, 1)]);
        let swapped = Expr::apply(FuncName::Op(ArithOp::Div), &[r(0, 1), r(0, 0)]);
        assert!(expr_consistent(&d, &ok));
        assert!(!expr_consistent(&d, &swapped));
    }

    #[test]
    fn nested_arithmetic_with_groups() {
        // Demo:  sum(T[1,4], T[2,4]) / T[1,5] * 100
        // Star:  (sum(T[1,4], T[2,4]) / group{T[1,5], T[2,5]}) * 100
        let d = parse_expr("sum(T[1,4], T[2,4]) / T[1,5] * 100").unwrap();
        let star = Expr::apply(
            FuncName::Op(ArithOp::Mul),
            &[
                Expr::apply(
                    FuncName::Op(ArithOp::Div),
                    &[sum(&[r(0, 3), r(1, 3)]), Expr::group(&[r(0, 4), r(1, 4)])],
                ),
                Expr::Const(Value::Int(100)),
            ],
        );
        assert!(expr_consistent(&d, &star));
    }

    #[test]
    fn different_functions_never_match() {
        let d = parse_expr("avg(T[1,2], T[2,2])").unwrap();
        let s = sum(&[r(0, 1), r(1, 1)]);
        assert!(!expr_consistent(&d, &s));
    }

    #[test]
    fn omission_in_middle_of_ordered_function() {
        // rank is non-commutative; demo omits middle peers.
        let d = parse_expr("rank(T[1,2], ..., T[4,2])").unwrap();
        let s = Expr::Apply(FuncName::Rank, [r(0, 1), r(1, 1), r(2, 1), r(3, 1)].into());
        assert!(expr_consistent(&d, &s));
        // Order must be preserved: T[4,2] before T[1,2] fails.
        let d2 = parse_expr("rank(T[4,2], ..., T[1,2])").unwrap();
        assert!(!expr_consistent(&d2, &s));
    }

    #[test]
    fn table_level_consistency_running_shape() {
        // Star table: 2 rows x 2 cols; demo 1 row x 2 cols drawn from row 1.
        let star = Grid::from_rows(vec![
            vec![Expr::group(&[r(0, 0), r(1, 0)]), sum(&[r(0, 1), r(1, 1)])],
            vec![Expr::group(&[r(2, 0)]), sum(&[r(2, 1)])],
        ])
        .unwrap();
        let demo = Demo::parse(&[&["T[2,1]", "sum(T[1,2], T[2,2])"]]).unwrap();
        let m = demo_consistent(&demo, &star).unwrap();
        assert_eq!(m.row_map, vec![0]);
        assert_eq!(m.col_map, vec![0, 1]);
    }

    #[test]
    fn table_level_consistency_rejects() {
        let star = Grid::from_rows(vec![vec![sum(&[r(0, 1)])]]).unwrap();
        let demo = Demo::parse(&[&["sum(T[1,2], T[2,2])"]]).unwrap();
        assert!(demo_consistent(&demo, &star).is_none());
    }

    #[test]
    fn demo_column_permutation_found() {
        let star = Grid::from_rows(vec![vec![r(0, 0), r(0, 1)]]).unwrap();
        // Demo lists the columns in reverse order.
        let demo = Demo::parse(&[&["T[1,2]", "T[1,1]"]]).unwrap();
        let m = demo_consistent(&demo, &star).unwrap();
        assert_eq!(m.col_map, vec![1, 0]);
    }

    /// Non-commutative partial matching with omissions at *both* ends:
    /// the provided arguments must match an inner subsequence.
    #[test]
    fn subsequence_omissions_at_both_ends() {
        // rank is positional; star term lists rows 1..=5 of column 2.
        let s = Expr::Apply(FuncName::Rank, (0..5).map(|i| r(i, 1)).collect());
        // Omissions at head and tail around a middle subsequence.
        let d = parse_expr("rank(..., T[2,2], T[4,2], ...)").unwrap();
        assert!(expr_consistent(&d, &s));
        // Order still matters inside the subsequence.
        let d_rev = parse_expr("rank(..., T[4,2], T[2,2], ...)").unwrap();
        assert!(!expr_consistent(&d_rev, &s));
        // The whole argument list as an (improper) subsequence.
        let d_all = parse_expr("rank(..., T[1,2], T[2,2], T[3,2], T[4,2], T[5,2], ...)").unwrap();
        assert!(expr_consistent(&d_all, &s));
        // One provided argument more than the star term carries.
        let d_over =
            parse_expr("rank(..., T[2,2], T[2,2], T[3,2], T[4,2], T[5,2], T[1,2])").unwrap();
        assert!(!expr_consistent(&d_over, &s));
    }

    /// Injective commutative matching where a greedy assignment fails and
    /// only a Kuhn augmenting path finds the rerouting: the first demo
    /// argument is compatible with both star arguments, the second with
    /// only the first — so the first must be rerouted to the second.
    #[test]
    fn injective_matching_requires_augmenting_path() {
        // star: sum(group{T[1,2], T[2,2]}, group{T[1,2]})
        let s = sum(&[Expr::group(&[r(0, 1), r(1, 1)]), Expr::group(&[r(0, 1)])]);
        // demo arg T[1,2] fits both groups, T[2,2] only the first.
        let d = parse_expr("sum(T[1,2], T[2,2])").unwrap();
        assert!(expr_consistent(&d, &s));
        // Two copies of T[2,2] cannot be placed injectively.
        let d2 = parse_expr("sum(T[2,2], T[2,2])").unwrap();
        assert!(!expr_consistent(&d2, &s));
    }

    /// `group{…}` members that are themselves (unflattened) groups: the
    /// member rule must recurse through the nesting. Built with the raw
    /// constructor — `Expr::group` flattens, but the matcher must not
    /// assume canonical input.
    #[test]
    fn nested_group_members_match_through_nesting() {
        let nested = Expr::Group(
            [
                Expr::Group([r(0, 0), Expr::Group([r(1, 0)].into())].into()),
                r(2, 0),
            ]
            .into(),
        );
        for (cell, expect) in [("T[2,1]", true), ("T[3,1]", true), ("T[4,1]", false)] {
            let d = parse_expr(cell).unwrap();
            assert_eq!(expr_consistent(&d, &nested), expect, "{cell}");
        }
        // A nested group as an aggregate argument behaves identically.
        let s = sum(&[Expr::Group([Expr::Group([r(0, 1)].into())].into()), r(2, 1)]);
        let d = parse_expr("sum(T[1,2], T[3,2])").unwrap();
        assert!(expr_consistent(&d, &s));
    }

    /// The edge cases above must survive the candidate-seeded, pre-keyed
    /// matcher unchanged: verdicts agree with the blind [`demo_consistent`].
    #[test]
    fn seeded_matcher_preserves_edge_case_verdicts() {
        use crate::matching::find_table_match_with_report;
        use crate::ref_set::RefUniverse;
        use sickle_table::Table;

        let t = Table::new(
            ["a", "b"],
            (0..5)
                .map(|i| vec![Value::Int(i), Value::Int(i * 10)])
                .collect(),
        )
        .unwrap();
        let universe = RefUniverse::from_tables(&[t]);

        let stars = [
            Grid::from_rows(vec![vec![Expr::Apply(
                FuncName::Rank,
                (0..5).map(|i| r(i, 1)).collect(),
            )]])
            .unwrap(),
            Grid::from_rows(vec![vec![sum(&[
                Expr::group(&[r(0, 1), r(1, 1)]),
                Expr::group(&[r(0, 1)]),
            ])]])
            .unwrap(),
            Grid::from_rows(vec![vec![Expr::Group(
                [
                    Expr::Group([r(0, 0), Expr::Group([r(1, 0)].into())].into()),
                    r(2, 0),
                ]
                .into(),
            )]])
            .unwrap(),
        ];
        let demos = [
            "rank(..., T[2,2], T[4,2], ...)",
            "rank(..., T[4,2], T[2,2], ...)",
            "sum(T[1,2], T[2,2])",
            "sum(T[2,2], T[2,2])",
            "T[2,1]",
            "T[4,1]",
            "100",
        ];
        for star in &stars {
            for src in demos {
                let demo = Demo::parse(&[&[src]]).unwrap();
                let blind = demo_consistent(&demo, star);
                // Prefilter over exact reference containment, as the
                // acceptance path computes it.
                let demo_refs: Vec<_> = (0..demo.n_rows())
                    .map(|i| universe.set_from(demo.cell(i, 0).refs()))
                    .collect();
                let dims = MatchDims {
                    demo_rows: demo.n_rows(),
                    demo_cols: demo.n_cols(),
                    table_rows: star.n_rows(),
                    table_cols: star.n_cols(),
                };
                let report = find_table_match_with_report(dims, &mut |di, _, ti, tj| {
                    demo_refs[di].is_subset_of(&universe.set_from(star[(ti, tj)].refs()))
                });
                let seeded = match report.seed {
                    Some(seed) if report.found.is_some() => {
                        demo_consistent_with_candidates(&demo, star, &seed)
                    }
                    _ => {
                        // Prefilter rejected: Def. 1 must reject too.
                        assert!(blind.is_none(), "{src}");
                        None
                    }
                };
                assert_eq!(blind.is_some(), seeded.is_some(), "{src}");
            }
        }
    }
}
