//! Provenance expressions — the cells of a provenance-embedded table `T★`.
//!
//! Under the provenance-tracking semantics (Fig. 9), query operators are
//! *term rewriters*: each output cell is an expression [`Expr`] recording how
//! it was derived from input cells. An `Expr` is built from constants,
//! references `T_k[i, j]`, function applications `f(e…)` and grouping terms
//! `group{e…}` (Fig. 8, left).

use std::fmt;
use std::sync::Arc;

use sickle_table::{AggFunc, ArithOp, Table, Value};

/// A reference to an input-table cell, `T_k[i, j]`.
///
/// Indices are 0-based internally; [`fmt::Display`] prints them 1-based to
/// match the paper's notation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellRef {
    /// Index of the input table (`k` in `T_k`).
    pub table: usize,
    /// Row index (0-based).
    pub row: usize,
    /// Column index (0-based).
    pub col: usize,
}

impl CellRef {
    /// Creates a reference to cell `(row, col)` of input table `table`.
    pub fn new(table: usize, row: usize, col: usize) -> CellRef {
        CellRef { table, row, col }
    }

    /// Resolves the reference against the input tables.
    ///
    /// Returns `None` if out of bounds.
    pub fn resolve<'t>(&self, inputs: &'t [Table]) -> Option<&'t Value> {
        inputs.get(self.table)?.get(self.row, self.col)
    }
}

impl fmt::Display for CellRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}[{},{}]", self.table + 1, self.row + 1, self.col + 1)
    }
}

/// The function symbol of an application node.
///
/// Aggregates and binary arithmetic operators come from the table substrate;
/// `Rank`/`DenseRank` are the order-dependent window functions, represented
/// as `rank(own, member₁, …, member_k)`: the *first* argument is the row's
/// own value, the rest are the values of its partition (in row order), so the
/// term is still evaluable to a concrete value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FuncName {
    /// An aggregation function (`sum`, `avg`, `max`, `min`, `count`).
    Agg(AggFunc),
    /// A binary arithmetic operator (`add`, `sub`, `mul`, `div`).
    Op(ArithOp),
    /// Rank of the first argument among the remaining arguments.
    Rank,
    /// Dense rank of the first argument among the remaining arguments.
    DenseRank,
}

impl FuncName {
    /// Surface name, as used by the demonstration parser and printer.
    pub fn name(self) -> &'static str {
        match self {
            FuncName::Agg(a) => a.name(),
            FuncName::Op(o) => o.name(),
            FuncName::Rank => "rank",
            FuncName::DenseRank => "dense_rank",
        }
    }

    /// Whether the Fig. 10 commutative matching rule applies.
    ///
    /// Aggregates and `+`/`*` are commutative; `-`, `/`, `rank` and
    /// `dense_rank` are positional (rank distinguishes its first argument).
    pub fn is_commutative(self) -> bool {
        match self {
            FuncName::Agg(a) => a.is_commutative(),
            FuncName::Op(o) => o.is_commutative(),
            FuncName::Rank | FuncName::DenseRank => false,
        }
    }

    /// Whether nested applications flatten: `f(f(a,b),c) = f(a,b,c)`.
    ///
    /// True for `sum`, `max`, `min` (§3.1) — this is what turns `cumsum` of
    /// per-group `sum`s into one flat `sum` as in Fig. 4.
    pub fn flattens(self) -> bool {
        matches!(
            self,
            FuncName::Agg(AggFunc::Sum) | FuncName::Agg(AggFunc::Max) | FuncName::Agg(AggFunc::Min)
        )
    }
}

impl fmt::Display for FuncName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A provenance expression `e★` (Fig. 8, left).
///
/// Compound payloads (the arguments of [`Expr::Apply`], the members of
/// [`Expr::Group`]) are shared `Arc<[Expr]>` blocks, so cloning a term is
/// O(1) whatever its size: an aggregate window hands every row of a
/// partition the same `α(m₁, …, m_m)` block instead of a deep copy each.
/// Sharing is invisible to the semantics — equality, hashing, [`Display`]
/// and the Def. 1 matching all compare structurally (two separately built
/// equal terms are `==` and hash alike).
///
/// [`Display`]: fmt::Display
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// A constant that does not originate from an input cell.
    Const(Value),
    /// A reference to an input cell.
    Ref(CellRef),
    /// A function application `f(e₁, …, e_l)`.
    Apply(FuncName, Arc<[Expr]>),
    /// A grouping term `group{e₁, …, e_l}` produced by `group` key columns.
    Group(Arc<[Expr]>),
}

impl Expr {
    /// Builds an application and immediately applies the §3.1 simplification:
    /// for flattening functions (`sum`, `max`, `min`), nested applications of
    /// the same function are spliced into the parent; nested `group` terms
    /// flatten likewise via [`Expr::group`].
    ///
    /// Arguments are cloned (O(1) each) straight into one exactly-sized
    /// payload block.
    pub fn apply<'a>(
        f: FuncName,
        args: impl IntoIterator<Item = &'a Expr, IntoIter: Clone>,
    ) -> Expr {
        let payload = if f.flattens() {
            spliced(args, |a| match a {
                Expr::Apply(g, inner) if *g == f => Some(inner),
                _ => None,
            })
        } else {
            args.into_iter().cloned().collect()
        };
        Expr::Apply(f, payload)
    }

    /// Builds a `group{…}` term, flattening nested groups (all members of a
    /// group cell carry equal values, so nesting carries no information).
    pub fn group<'a>(members: impl IntoIterator<Item = &'a Expr, IntoIter: Clone>) -> Expr {
        Expr::Group(spliced(members, |m| match m {
            Expr::Group(inner) => Some(inner),
            _ => None,
        }))
    }

    /// The shared payload block of a compound term (`None` for leaves).
    /// Cells cloned from one term return the same block, so its address
    /// identifies the term while a holder pins it.
    pub fn payload(&self) -> Option<&Arc<[Expr]>> {
        match self {
            Expr::Const(_) | Expr::Ref(_) => None,
            Expr::Apply(_, args) => Some(args),
            Expr::Group(members) => Some(members),
        }
    }

    /// Evaluates the expression to a concrete [`Value`] against the inputs
    /// (the `[[T★]]` direction of §3.1).
    ///
    /// `group{…}` terms evaluate to their first member (all members are
    /// equal by construction). Out-of-bounds references evaluate to `Null`.
    pub fn eval(&self, inputs: &[Table]) -> Value {
        match self {
            Expr::Const(v) => v.clone(),
            Expr::Ref(r) => r.resolve(inputs).cloned().unwrap_or(Value::Null),
            Expr::Group(members) => members
                .first()
                .map(|m| m.eval(inputs))
                .unwrap_or(Value::Null),
            Expr::Apply(f, args) => {
                let vals: Vec<Value> = args.iter().map(|a| a.eval(inputs)).collect();
                match f {
                    FuncName::Agg(a) => a.apply(&vals),
                    FuncName::Op(o) => {
                        debug_assert_eq!(vals.len(), 2, "binary operator arity");
                        o.eval(&vals[0], &vals[1])
                    }
                    FuncName::Rank => rank_of(&vals, false),
                    FuncName::DenseRank => rank_of(&vals, true),
                }
            }
        }
    }

    /// Collects every [`CellRef`] mentioned in the expression (the paper's
    /// `ref(·)` for `e★`).
    pub fn refs(&self) -> Vec<CellRef> {
        let mut out = Vec::new();
        self.for_each_ref(&mut |r| out.push(r));
        out
    }

    /// Calls `f` on every [`CellRef`] mentioned in the expression, in the
    /// order [`Expr::refs`] lists them, without collecting them.
    pub fn for_each_ref(&self, f: &mut impl FnMut(CellRef)) {
        match self {
            Expr::Const(_) => {}
            Expr::Ref(r) => f(*r),
            Expr::Apply(_, args) => args.iter().for_each(|a| a.for_each_ref(f)),
            Expr::Group(ms) => ms.iter().for_each(|m| m.for_each_ref(f)),
        }
    }

    /// Size of the term (number of nodes); used in tests and diagnostics.
    pub fn size(&self) -> usize {
        match self {
            Expr::Const(_) | Expr::Ref(_) => 1,
            Expr::Apply(_, args) => 1 + args.iter().map(Expr::size).sum::<usize>(),
            Expr::Group(ms) => 1 + ms.iter().map(Expr::size).sum::<usize>(),
        }
    }
}

/// Collects `items` into one payload block, replacing every item for which
/// `inner` returns a block by that block's elements. The flat length is
/// counted first, so the block is allocated once at its exact size (a
/// counted `map` is trusted-length; a `flat_map` would go through a `Vec`).
fn spliced<'a, I>(items: I, inner: impl Fn(&'a Expr) -> Option<&'a Arc<[Expr]>>) -> Arc<[Expr]>
where
    I: IntoIterator<Item = &'a Expr, IntoIter: Clone>,
{
    let items = items.into_iter();
    let len = items
        .clone()
        .map(|e| inner(e).map_or(1, |block| block.len()))
        .sum();
    let mut flat = items.flat_map(|e| match inner(e) {
        Some(block) => block.iter(),
        None => std::slice::from_ref(e).iter(),
    });
    (0..len)
        .map(|_| flat.next().expect("length counted above").clone())
        .collect()
}

/// Rank of `vals[0]` among `vals[1..]` (1-based; `dense` controls gap
/// behaviour). `vals[1..]` is expected to contain the row's own value too.
fn rank_of(vals: &[Value], dense: bool) -> Value {
    if vals.is_empty() {
        return Value::Null;
    }
    let own = &vals[0];
    let peers = &vals[1..];
    if dense {
        let mut distinct: Vec<&Value> = peers.iter().filter(|v| *v < own).collect();
        distinct.sort();
        distinct.dedup();
        Value::Int(distinct.len() as i64 + 1)
    } else {
        let less = peers.iter().filter(|v| *v < own).count();
        Value::Int(less as i64 + 1)
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Const(v) => write!(f, "{v}"),
            Expr::Ref(r) => write!(f, "{r}"),
            Expr::Group(ms) => {
                write!(f, "group{{")?;
                for (i, m) in ms.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{m}")?;
                }
                write!(f, "}}")
            }
            Expr::Apply(func, args) => {
                if let FuncName::Op(op) = func {
                    write!(f, "(")?;
                    for (i, a) in args.iter().enumerate() {
                        if i > 0 {
                            write!(f, " {op} ")?;
                        }
                        write!(f, "{a}")?;
                    }
                    write!(f, ")")
                } else {
                    write!(f, "{func}(")?;
                    for (i, a) in args.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{a}")?;
                    }
                    write!(f, ")")
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sickle_table::Table;

    fn input() -> Table {
        Table::new(
            ["id", "v"],
            vec![
                vec!["A".into(), 10.into()],
                vec!["A".into(), 20.into()],
                vec!["B".into(), 5.into()],
            ],
        )
        .unwrap()
    }

    fn r(row: usize, col: usize) -> Expr {
        Expr::Ref(CellRef::new(0, row, col))
    }

    #[test]
    fn flattening_sum_of_sums() {
        let inner = Expr::apply(FuncName::Agg(AggFunc::Sum), &[r(0, 1), r(1, 1)]);
        let outer = Expr::apply(FuncName::Agg(AggFunc::Sum), &[inner, r(2, 1)]);
        match &outer {
            Expr::Apply(_, args) => assert_eq!(args.len(), 3),
            other => panic!("expected Apply, got {other:?}"),
        }
        assert_eq!(outer.eval(&[input()]), Value::Int(35));
    }

    #[test]
    fn avg_does_not_flatten() {
        let inner = Expr::apply(FuncName::Agg(AggFunc::Avg), &[r(0, 1), r(1, 1)]);
        let outer = Expr::apply(FuncName::Agg(AggFunc::Avg), &[inner.clone(), r(2, 1)]);
        match &outer {
            Expr::Apply(_, args) => {
                assert_eq!(args.len(), 2);
                assert_eq!(args[0], inner);
            }
            other => panic!("expected Apply, got {other:?}"),
        }
        // avg(avg(10,20), 5) = avg(15, 5) = 10
        assert_eq!(outer.eval(&[input()]), Value::Float(10.0));
    }

    #[test]
    fn group_flattens_and_evaluates_to_member() {
        let g = Expr::group(&[Expr::group(&[r(0, 0)]), r(1, 0)]);
        match &g {
            Expr::Group(ms) => assert_eq!(ms.len(), 2),
            other => panic!("expected Group, got {other:?}"),
        }
        assert_eq!(g.eval(&[input()]), Value::from("A"));
    }

    #[test]
    fn rank_term_evaluates() {
        // own = 20, peers = {10, 20, 5} -> rank 3
        let e = Expr::Apply(FuncName::Rank, [r(1, 1), r(0, 1), r(1, 1), r(2, 1)].into());
        assert_eq!(e.eval(&[input()]), Value::Int(3));
    }

    #[test]
    fn refs_collects_all() {
        let e = Expr::apply(
            FuncName::Op(ArithOp::Div),
            &[
                Expr::apply(FuncName::Agg(AggFunc::Sum), &[r(0, 1), r(1, 1)]),
                r(0, 0),
            ],
        );
        let refs = e.refs();
        assert_eq!(refs.len(), 3);
        assert!(refs.contains(&CellRef::new(0, 0, 0)));
    }

    #[test]
    fn display_matches_paper_notation() {
        let e = Expr::apply(
            FuncName::Op(ArithOp::Mul),
            &[
                Expr::apply(
                    FuncName::Op(ArithOp::Div),
                    &[
                        Expr::apply(FuncName::Agg(AggFunc::Sum), &[r(0, 3), r(1, 3)]),
                        r(0, 4),
                    ],
                ),
                Expr::Const(Value::Int(100)),
            ],
        );
        assert_eq!(e.to_string(), "((sum(T1[1,4], T1[2,4]) / T1[1,5]) * 100)");
    }

    #[test]
    fn out_of_bounds_ref_is_null() {
        let e = Expr::Ref(CellRef::new(0, 99, 0));
        assert_eq!(e.eval(&[input()]), Value::Null);
    }

    #[test]
    fn expr_size() {
        let e = Expr::apply(FuncName::Agg(AggFunc::Sum), &[r(0, 1), r(1, 1)]);
        assert_eq!(e.size(), 3);
    }
}
