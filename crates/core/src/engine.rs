//! The unified execution engine behind all three query semantics.
//!
//! Historically this crate had three independent tree-walking interpreters
//! (`eval`, `prov_eval`, `abstract_eval`), each re-implementing every
//! operator over row-major tables. The engine replaces them with *one*
//! columnar operator pipeline: every operator is implemented once, over
//! [`Table`]s with `Arc`-shared columns, and produces an [`ExecTable`] whose
//! channels are filled according to the requested [`Semantics`]:
//!
//! * **values** — the concrete output `[[q]]` (always computed; it also
//!   drives filtering, sorting and grouping for the star channel, which
//!   removes the per-cell `Expr::eval` calls the old provenance interpreter
//!   performed);
//! * **star** — the provenance-embedded output `[[q]]★` (Fig. 9), on
//!   request;
//! * **sets** — per-cell reference bitsets (`ref` of each star cell), the
//!   substrate of the abstract analysis. Sets are *derived* from the star
//!   channel on first access ([`ExecTable::sets`]) and memoized, so
//!   pipelines that never reach the abstract analysis pay nothing for
//!   them.
//!
//! Each operator has one kernel, with two callers: [`exec`], a plain
//! recursive walk backing `evaluate` and `prov_evaluate`, and
//! [`EvalCache::exec`], which memoizes results keyed by
//! `(query, semantics)` so skeleton refinement reuses inner-subquery
//! evaluations across sibling expansions (and backs the concrete leaves of
//! `abstract_evaluate`). [`EvalCache::exec_once`] is the same cached walk
//! minus the insert of its top query, for results looked at once (the
//! search's acceptance candidates). The `group` and `partition` kernels
//! take their row partition (and `group` its key columns) from the caller:
//! the walker computes them fresh, the cache hands in memoized ones shared
//! by every sibling candidate over the same child and keys.
//!
//! Both callers fuse `filter ∘ join`: the cross product is never
//! materialized — a selection-vector pair is built from the predicate
//! (by hash on its equi keys, or by a nested loop when it has none) and
//! each surviving column is gathered once.

use std::cell::{Cell, OnceCell, RefCell};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use sickle_table::{
    cross_selection, group_rows_by_keys, AnalyticFunc, CmpOp, Grid, Table, Value, ValueInterner,
    ValueKey,
};

use sickle_provenance::{CellRef, Expr, FxBuild, FxMap, RefSet, RefSetPool, RefUniverse, SetId};
use std::hash::BuildHasher;

use crate::ast::{Pred, Query};
use crate::eval::EvalError;
use crate::prov_eval::{expand_arith, window_column, ProvTable};

/// Which channels of an [`ExecTable`] a caller needs.
///
/// Levels are strictly ordered: [`Semantics::Provenance`] computes
/// everything [`Semantics::Values`] does. (The abstract analysis needs no
/// third level: its per-cell reference sets are derived lazily from the
/// star channel via [`ExecTable::sets`].)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Semantics {
    /// Concrete values only (`[[q]]`).
    Values,
    /// Values plus provenance expressions (`[[q]]★`).
    Provenance,
}

impl Semantics {
    fn wants_star(self) -> bool {
        self >= Semantics::Provenance
    }
}

/// Output of the engine for one (sub)query: the concrete table plus the
/// optional provenance side-channel and the lazily-derived abstract
/// ref-set side-channel.
#[derive(Debug, Clone)]
pub struct ExecTable {
    values: Table,
    star: Option<ProvTable>,
    sets: OnceCell<Grid<RefSet>>,
    set_ids: OnceCell<Grid<SetId>>,
    /// Per-cell lazy ref sets (row-major `row * n_cols + col`), for probes
    /// that touch only part of the grid (the acceptance prefilter); the
    /// whole-grid channels above stay untouched until someone needs them.
    cell_sets: OnceCell<CellSets>,
}

/// The per-cell lazy set channel of an [`ExecTable`]: one slot per cell
/// plus the shared-term memo its conversions go through (the table's star
/// grid pins every term, so the memo's address keys stay valid).
#[derive(Debug, Clone)]
struct CellSets {
    cells: Vec<OnceCell<RefSet>>,
    terms: RefCell<TermSets>,
}

/// Converts star terms to reference sets, once per distinct shared term.
///
/// Cells cloned from one compound term — every row of an aggregate-window
/// partition, a subterm reused by a later operator — share its payload
/// block ([`Expr::payload`]); the first conversion is kept under the
/// block's address and cloned for the others. An address identifies a
/// term only while it is alive, so one `TermSets` must only see terms
/// pinned by the caller (one star column or grid) for its whole life.
/// Leaves and unshared blocks convert directly, without a memo probe.
/// Every set equals `universe.set_from(e.refs())`.
#[derive(Debug, Clone, Default)]
pub(crate) struct TermSets {
    seen: FxMap<usize, RefSet>,
}

impl TermSets {
    /// `ref(e)` as a set over `universe`.
    pub(crate) fn set_of(&mut self, universe: &RefUniverse, e: &Expr) -> RefSet {
        match e.payload() {
            Some(block) if Arc::strong_count(block) > 1 => self
                .seen
                .entry(Arc::as_ptr(block).cast::<Expr>() as usize)
                .or_insert_with(|| universe.set_of(e))
                .clone(),
            _ => universe.set_of(e),
        }
    }
}

impl ExecTable {
    /// The concrete output table `[[q]]`.
    pub fn table(&self) -> &Table {
        &self.values
    }

    /// Consumes the result, returning the concrete table.
    pub fn into_table(self) -> Table {
        self.values
    }

    /// The provenance-embedded output `[[q]]★`.
    ///
    /// # Panics
    ///
    /// Panics if the result was computed at [`Semantics::Values`]; use
    /// [`ExecTable::try_star`] for a non-panicking probe.
    pub fn star(&self) -> &ProvTable {
        self.star
            .as_ref()
            .expect("provenance channel not requested")
    }

    /// The provenance channel, or `None` when the result was computed at
    /// [`Semantics::Values`].
    pub fn try_star(&self) -> Option<&ProvTable> {
        self.star.as_ref()
    }

    /// Per-cell reference sets (`ref` of each star cell), computed from the
    /// star channel on first access and memoized.
    ///
    /// # Panics
    ///
    /// Panics if the result was computed at [`Semantics::Values`].
    pub fn sets(&self, universe: &RefUniverse) -> &Grid<RefSet> {
        self.sets.get_or_init(|| {
            let mut terms = TermSets::default();
            self.star().map(|e| terms.set_of(universe, e))
        })
    }

    /// The reference set of one star cell, converted on demand and
    /// memoized per cell. Unlike [`ExecTable::sets`], probing a few cells
    /// pays only for those cells — the acceptance prefilter touches a
    /// small, data-dependent subset of a candidate's grid, and eagerly
    /// converting the rest was pure waste. A whole-grid conversion that
    /// already ran is reused.
    ///
    /// # Panics
    ///
    /// Panics if the result was computed at [`Semantics::Values`], or if
    /// `(row, col)` is out of range.
    pub fn cell_set(&self, universe: &RefUniverse, row: usize, col: usize) -> &RefSet {
        if let Some(grid) = self.sets.get() {
            return &grid[(row, col)];
        }
        let star = self.star();
        let memo = self.cell_sets.get_or_init(|| CellSets {
            cells: vec![OnceCell::new(); star.n_rows() * star.n_cols()],
            terms: RefCell::default(),
        });
        memo.cells[row * star.n_cols() + col]
            .get_or_init(|| memo.terms.borrow_mut().set_of(universe, &star[(row, col)]))
    }

    /// Per-cell reference sets interned into `pool`, computed from
    /// [`ExecTable::sets`] on first access and memoized. All accesses of
    /// one result must use the same pool (the engine cache guarantees
    /// this: one pool is threaded through a whole search).
    ///
    /// # Panics
    ///
    /// Panics if the result was computed at [`Semantics::Values`].
    pub fn set_ids(&self, universe: &RefUniverse, pool: &RefSetPool) -> &Grid<SetId> {
        // Hash-consed, not raw-registered: the same concrete subquery can
        // be re-evaluated after an engine-cache clear (and by several
        // parallel workers), and interning keeps the shared pool's growth
        // bounded by the number of *distinct* sets.
        self.set_ids
            .get_or_init(|| self.sets(universe).map(|s| pool.intern(s.clone())))
    }

    /// The semantics level this result was computed at.
    pub fn semantics(&self) -> Semantics {
        if self.star.is_some() {
            Semantics::Provenance
        } else {
            Semantics::Values
        }
    }

    /// A values-only view of this result (columns shared, star dropped).
    /// Used by the cache when a [`Semantics::Values`] request is assembled
    /// from children that happen to be cached at the provenance level, so
    /// the parent step does not build star terms nobody asked for.
    fn values_only(&self) -> ExecTable {
        ExecTable {
            values: self.values.clone(),
            star: None,
            sets: OnceCell::new(),
            set_ids: OnceCell::new(),
            cell_sets: OnceCell::new(),
        }
    }
}

/// Evaluates a whole query tree at `sem` by a plain recursive walk, with
/// `filter ∘ join` fused and nothing memoized — the engine behind
/// [`crate::evaluate`] and [`crate::prov_evaluate`]. [`EvalCache::exec`]
/// is the memoizing caller of the same operator kernels.
///
/// # Errors
///
/// Returns [`EvalError`] when the query references missing inputs or
/// out-of-range columns.
pub fn exec(sem: Semantics, q: &Query, inputs: &[Table]) -> Result<ExecTable, EvalError> {
    if let Some((left, right, pred)) = fused_filter_join(q) {
        let l = exec(sem, left, inputs)?;
        let r = exec(sem, right, inputs)?;
        return exec_filtered_join(&l, &r, pred, &mut ExecScratch::default());
    }
    let children = q
        .children()
        .into_iter()
        .map(|c| exec(sem, c, inputs))
        .collect::<Result<Vec<_>, _>>()?;
    let child_refs: Vec<&ExecTable> = children.iter().collect();
    exec_step(sem, q, &child_refs, inputs)
}

// ---------------------------------------------------------------------------
// The shared operator pipeline
// ---------------------------------------------------------------------------

/// Recognizes `filter(join(l, r), p)`, the shape fused into a single
/// selection-vector pass.
fn fused_filter_join(q: &Query) -> Option<(&Query, &Query, &Pred)> {
    if let Query::Filter { src, pred } = q {
        if let Query::Join { left, right } = src.as_ref() {
            return Some((left, right, pred));
        }
    }
    None
}

/// Applies the rule of `q`'s *top* operator to the already-evaluated
/// results of its children (empty for `Input`), computing any row
/// partition fresh.
///
/// # Errors
///
/// Returns [`EvalError`] for out-of-range table/column references.
///
/// # Panics
///
/// Panics if `children` does not match the operator's arity.
pub fn exec_step(
    sem: Semantics,
    q: &Query,
    children: &[&ExecTable],
    inputs: &[Table],
) -> Result<ExecTable, EvalError> {
    match q {
        Query::Input(k) => exec_input(sem, *k, inputs),
        Query::Filter { pred, .. } => exec_filter(children[0], pred, &mut Vec::new()),
        Query::Join { .. } => Ok(exec_join(children[0], children[1])),
        Query::LeftJoin { pred, .. } => exec_left_join(sem, children[0], children[1], pred),
        Query::Proj { cols, .. } => exec_proj(children[0], cols),
        Query::Sort { cols, asc, .. } => exec_sort(children[0], cols, *asc),
        Query::Group {
            keys, agg, target, ..
        } => {
            let src = children[0];
            check_keyed(src, keys, *target, "group")?;
            let groups = group_rows_by_keys(src.values.grid(), keys);
            let key_cols = group_keys(sem, src, keys, &groups);
            Ok(exec_group(sem, src, keys, &groups, key_cols, *agg, *target))
        }
        Query::Partition {
            keys, func, target, ..
        } => {
            let src = children[0];
            check_keyed(src, keys, *target, "partition")?;
            let groups = group_rows_by_keys(src.values.grid(), keys);
            Ok(exec_partition(sem, src, keys, &groups, *func, *target))
        }
        Query::Arith { func, cols, .. } => exec_arith(children[0], func, cols),
    }
}

fn table(values: Table, star: Option<ProvTable>) -> ExecTable {
    ExecTable {
        values,
        star,
        sets: OnceCell::new(),
        set_ids: OnceCell::new(),
        cell_sets: OnceCell::new(),
    }
}

fn exec_input(sem: Semantics, k: usize, inputs: &[Table]) -> Result<ExecTable, EvalError> {
    let t = inputs.get(k).ok_or(EvalError::NoSuchInput {
        index: k,
        available: inputs.len(),
    })?;
    let values = t.clone(); // columns are shared, not copied
    let star = sem.wants_star().then(|| {
        Grid::from_columns(
            (0..t.n_cols())
                .map(|j| {
                    std::sync::Arc::new(
                        (0..t.n_rows())
                            .map(|i| Expr::Ref(CellRef::new(k, i, j)))
                            .collect(),
                    )
                })
                .collect(),
        )
    });
    Ok(table(values, star))
}

/// Row accessor for predicate evaluation over (possibly virtually
/// concatenated) columnar data.
enum RowAccess<'a> {
    One(&'a Grid<Value>, usize),
    Concat {
        left: &'a Grid<Value>,
        right: &'a Grid<Value>,
        lrow: usize,
        rrow: usize,
    },
}

impl RowAccess<'_> {
    fn get(&self, col: usize) -> &Value {
        match self {
            RowAccess::One(g, r) => &g[(*r, col)],
            RowAccess::Concat {
                left,
                right,
                lrow,
                rrow,
            } => {
                if col < left.n_cols() {
                    &left[(*lrow, col)]
                } else {
                    &right[(*rrow, col - left.n_cols())]
                }
            }
        }
    }
}

fn pred_holds(pred: &Pred, row: &RowAccess<'_>) -> bool {
    pred.eval_with(&|c| row.get(c))
}

/// Applies one selection vector to every channel of an exec table.
fn select_rows(src: &ExecTable, sel: &[usize], names: Vec<String>) -> ExecTable {
    table(
        Table::from_named_grid(names, src.values.grid().select_rows(sel)),
        src.star.as_ref().map(|s| s.select_rows(sel)),
    )
}

/// `filter`, writing the surviving row indices into a caller-pooled
/// buffer (cleared here) so per-candidate allocation amortizes across the
/// search.
fn exec_filter(
    src: &ExecTable,
    pred: &Pred,
    keep: &mut Vec<usize>,
) -> Result<ExecTable, EvalError> {
    check_pred(pred, src.values.n_cols(), "filter")?;
    let grid = src.values.grid();
    keep.clear();
    keep.extend((0..grid.n_rows()).filter(|&r| pred_holds(pred, &RowAccess::One(grid, r))));
    Ok(select_rows(src, keep, src.values.names().to_vec()))
}

fn joined_names(l: &ExecTable, r: &ExecTable) -> Vec<String> {
    let mut names = l.values.names().to_vec();
    names.extend(r.values.names().iter().cloned());
    names
}

/// Gathers the two sides of a join through a selection-vector pair and
/// concatenates the channels column-wise.
fn gather_join(l: &ExecTable, r: &ExecTable, lsel: &[usize], rsel: &[usize]) -> ExecTable {
    table(
        Table::from_named_grid(
            joined_names(l, r),
            l.values
                .grid()
                .select_rows(lsel)
                .hcat(&r.values.grid().select_rows(rsel)),
        ),
        match (&l.star, &r.star) {
            (Some(ls), Some(rs)) => Some(ls.select_rows(lsel).hcat(&rs.select_rows(rsel))),
            _ => None,
        },
    )
}

fn exec_join(l: &ExecTable, r: &ExecTable) -> ExecTable {
    let (lsel, rsel) = cross_selection(l.values.n_rows(), r.values.n_rows());
    gather_join(l, r, &lsel, &rsel)
}

/// Reusable scratch of the filter/join execution paths: selection
/// vectors and key buffers, pooled in [`EvalCache`] so per-candidate
/// allocation amortizes across the search instead of scaling with row
/// count (buffers are cleared between uses, never shrunk).
#[derive(Debug, Default)]
struct ExecScratch {
    lsel: Vec<usize>,
    rsel: Vec<usize>,
    keep: Vec<usize>,
    probe: Vec<ValueKey>,
}

/// Splits a join predicate into hash-joinable equi keys and residual
/// conjuncts. A conjunct is an equi key iff it is `cₐ == c_b` with exactly
/// one side referring to the left operand; since [`Value`] equality is
/// exactly interner-key equality (cross-type numerics, `null == null`), a
/// hash probe on interned keys decides those conjuncts. Everything else —
/// constant comparisons, non-equality operators, same-side equalities —
/// stays residual and is evaluated on hash matches only.
fn split_equi_pred(pred: &Pred, left_cols: usize) -> (Vec<(usize, usize)>, Vec<&Pred>) {
    fn walk<'p>(
        p: &'p Pred,
        left_cols: usize,
        keys: &mut Vec<(usize, usize)>,
        residual: &mut Vec<&'p Pred>,
    ) {
        match p {
            Pred::True => {}
            Pred::And(l, r) => {
                walk(l, left_cols, keys, residual);
                walk(r, left_cols, keys, residual);
            }
            Pred::ColCmp(a, CmpOp::Eq, b) if (*a < left_cols) != (*b < left_cols) => {
                let (lc, rc) = if *a < left_cols { (*a, *b) } else { (*b, *a) };
                keys.push((lc, rc - left_cols));
            }
            other => residual.push(other),
        }
    }
    let mut keys = Vec::new();
    let mut residual = Vec::new();
    walk(pred, left_cols, &mut keys, &mut residual);
    (keys, residual)
}

/// Hash join on extracted equi keys: builds a hash table over the interned
/// key values of the *right* (build) side, probes with the left rows in
/// order, and evaluates residual conjuncts on hash matches only. Match
/// lists hold right rows in ascending order, so the emitted (lrow, rrow)
/// pairs are exactly the nested loop's lrow-major sequence — the gathered
/// output is byte-identical (values and star) to the cross-product path.
fn exec_hash_join(
    l: &ExecTable,
    r: &ExecTable,
    keys: &[(usize, usize)],
    residual: &[&Pred],
    scratch: &mut ExecScratch,
) -> ExecTable {
    let (lg, rg) = (l.values.grid(), r.values.grid());
    let ExecScratch {
        lsel, rsel, probe, ..
    } = scratch;
    lsel.clear();
    rsel.clear();
    let mut interner = ValueInterner::new();
    let residual_holds = |lrow: usize, rrow: usize| {
        residual.is_empty() || {
            let row = RowAccess::Concat {
                left: lg,
                right: rg,
                lrow,
                rrow,
            };
            residual.iter().all(|p| pred_holds(p, &row))
        }
    };
    if let [(lc, rc)] = keys {
        // Single-key fast path: the interned key itself is the hash key.
        let mut build: FxMap<ValueKey, Vec<usize>> = FxMap::default();
        for (rrow, v) in rg.column(*rc).iter().enumerate() {
            build.entry(interner.key(v)).or_default().push(rrow);
        }
        for (lrow, v) in lg.column(*lc).iter().enumerate() {
            if let Some(rows) = build.get(&interner.key(v)) {
                for &rrow in rows {
                    if residual_holds(lrow, rrow) {
                        lsel.push(lrow);
                        rsel.push(rrow);
                    }
                }
            }
        }
    } else {
        let rcols: Vec<&[Value]> = keys.iter().map(|&(_, rc)| rg.column(rc)).collect();
        let mut build: FxMap<Box<[ValueKey]>, Vec<usize>> = FxMap::default();
        for rrow in 0..rg.n_rows() {
            probe.clear();
            probe.extend(rcols.iter().map(|col| interner.key(&col[rrow])));
            match build.get_mut(probe.as_slice()) {
                Some(rows) => rows.push(rrow),
                None => {
                    build.insert(probe.as_slice().into(), vec![rrow]);
                }
            }
        }
        let lcols: Vec<&[Value]> = keys.iter().map(|&(lc, _)| lg.column(lc)).collect();
        for lrow in 0..lg.n_rows() {
            probe.clear();
            probe.extend(lcols.iter().map(|col| interner.key(&col[lrow])));
            if let Some(rows) = build.get(probe.as_slice()) {
                for &rrow in rows {
                    if residual_holds(lrow, rrow) {
                        lsel.push(lrow);
                        rsel.push(rrow);
                    }
                }
            }
        }
    }
    gather_join(l, r, lsel, rsel)
}

/// The `filter(join(l, r), p)` pair loop: every (lrow, rrow) pair is
/// tested against the full predicate. O(|L|·|R|) — the fallback for
/// predicates with no equi key.
fn exec_cross_loop(
    l: &ExecTable,
    r: &ExecTable,
    pred: &Pred,
    scratch: &mut ExecScratch,
) -> ExecTable {
    let (lg, rg) = (l.values.grid(), r.values.grid());
    let ExecScratch { lsel, rsel, .. } = scratch;
    lsel.clear();
    rsel.clear();
    for lrow in 0..lg.n_rows() {
        for rrow in 0..rg.n_rows() {
            let row = RowAccess::Concat {
                left: lg,
                right: rg,
                lrow,
                rrow,
            };
            if pred_holds(pred, &row) {
                lsel.push(lrow);
                rsel.push(rrow);
            }
        }
    }
    gather_join(l, r, lsel, rsel)
}

/// `filter(join(l, r), p)` without materializing the cross product:
/// [`exec_hash_join`] when the predicate has at least one cross-side
/// equality conjunct, otherwise the nested pair loop.
fn exec_filtered_join(
    l: &ExecTable,
    r: &ExecTable,
    pred: &Pred,
    scratch: &mut ExecScratch,
) -> Result<ExecTable, EvalError> {
    check_pred(pred, l.values.n_cols() + r.values.n_cols(), "filter")?;
    let (keys, residual) = split_equi_pred(pred, l.values.n_cols());
    if keys.is_empty() {
        Ok(exec_cross_loop(l, r, pred, scratch))
    } else {
        Ok(exec_hash_join(l, r, &keys, &residual, scratch))
    }
}

fn exec_left_join(
    sem: Semantics,
    l: &ExecTable,
    r: &ExecTable,
    pred: &Pred,
) -> Result<ExecTable, EvalError> {
    let (ln, rn) = (l.values.n_cols(), r.values.n_cols());
    check_pred(pred, ln + rn, "left_join")?;
    let (lg, rg) = (l.values.grid(), r.values.grid());
    // Selection pair with `None` marking null padding on the right.
    let mut lsel: Vec<usize> = Vec::new();
    let mut rsel: Vec<Option<usize>> = Vec::new();
    for lrow in 0..lg.n_rows() {
        let mut matched = false;
        for rrow in 0..rg.n_rows() {
            let row = RowAccess::Concat {
                left: lg,
                right: rg,
                lrow,
                rrow,
            };
            if pred_holds(pred, &row) {
                lsel.push(lrow);
                rsel.push(Some(rrow));
                matched = true;
            }
        }
        if !matched {
            lsel.push(lrow);
            rsel.push(None);
        }
    }

    fn gather_padded<C: Clone>(g: &Grid<C>, sel: &[Option<usize>], pad: &C) -> Grid<C> {
        Grid::from_columns(
            (0..g.n_cols())
                .map(|c| {
                    let col = g.column(c);
                    std::sync::Arc::new(
                        sel.iter()
                            .map(|s| match s {
                                Some(r) => col[*r].clone(),
                                None => pad.clone(),
                            })
                            .collect(),
                    )
                })
                .collect(),
        )
    }

    let values = Table::from_named_grid(
        joined_names(l, r),
        lg.select_rows(&lsel)
            .hcat(&gather_padded(rg, &rsel, &Value::Null)),
    );
    let star = sem.wants_star().then(|| {
        l.star()
            .select_rows(&lsel)
            .hcat(&gather_padded(r.star(), &rsel, &Expr::Const(Value::Null)))
    });
    Ok(table(values, star))
}

fn exec_proj(src: &ExecTable, cols: &[usize]) -> Result<ExecTable, EvalError> {
    check_cols(cols, src.values.n_cols(), "proj")?;
    Ok(table(
        src.values.project(cols),
        src.star.as_ref().map(|s| s.select_columns(cols)),
    ))
}

fn exec_sort(src: &ExecTable, cols: &[usize], asc: bool) -> Result<ExecTable, EvalError> {
    check_cols(cols, src.values.n_cols(), "sort")?;
    let key_cols: Vec<&[Value]> = cols.iter().map(|&c| src.values.column(c)).collect();
    let mut order: Vec<usize> = (0..src.values.n_rows()).collect();
    // Stable sort keeps input order among equal keys, matching the
    // order-sensitivity contract of `cumsum`/`rank` downstream.
    order.sort_by(|&a, &b| {
        let cmp = key_cols
            .iter()
            .map(|col| col[a].cmp(&col[b]))
            .find(|c| !c.is_eq())
            .unwrap_or(std::cmp::Ordering::Equal);
        if asc {
            cmp
        } else {
            cmp.reverse()
        }
    });
    Ok(select_rows(src, &order, src.values.names().to_vec()))
}

/// Checks the key and target columns of a `group`/`partition` operator,
/// which its caller must do before computing the row partition.
fn check_keyed(
    src: &ExecTable,
    keys: &[usize],
    target: usize,
    operator: &'static str,
) -> Result<(), EvalError> {
    let n_cols = src.values.n_cols();
    check_cols(keys, n_cols, operator)?;
    check_cols(&[target], n_cols, operator)
}

/// The key columns of a `group` operator: representative key values and,
/// for a star-channel request, `group{…}` key terms. They depend on the
/// child and keys only, so every sibling aggregation choice can share
/// them.
#[derive(Debug, Clone)]
struct GroupKeys {
    values: Vec<Arc<Vec<Value>>>,
    /// Empty unless built at [`Semantics::Provenance`].
    stars: Vec<Arc<Vec<Expr>>>,
}

/// Builds the [`GroupKeys`] of grouping `src` by `keys` into `groups`.
fn group_keys(sem: Semantics, src: &ExecTable, keys: &[usize], groups: &[Vec<usize>]) -> GroupKeys {
    let values = keys
        .iter()
        .map(|&k| {
            let col = src.values.column(k);
            Arc::new(groups.iter().map(|g| col[g[0]].clone()).collect())
        })
        .collect();
    let stars = if sem.wants_star() {
        let sg = src.star();
        keys.iter()
            .map(|&k| {
                let col = sg.column(k);
                Arc::new(
                    groups
                        .iter()
                        .map(|g| Expr::group(g.iter().map(|&i| &col[i])))
                        .collect(),
                )
            })
            .collect()
    } else {
        Vec::new()
    };
    GroupKeys { values, stars }
}

/// The `group` kernel over a caller-supplied row partition and key
/// columns (see [`group_keys`]): only the aggregate column is built here.
/// The caller has run [`check_keyed`].
fn exec_group(
    sem: Semantics,
    src: &ExecTable,
    keys: &[usize],
    groups: &[Vec<usize>],
    key_cols: GroupKeys,
    agg: sickle_table::AggFunc,
    target: usize,
) -> ExecTable {
    let mut names: Vec<String> = keys
        .iter()
        .map(|&k| src.values.names()[k].clone())
        .collect();
    names.push(format!("{agg}({})", src.values.names()[target]));

    // Values channel: representative key cells + the aggregate.
    let target_col = src.values.column(target);
    let mut value_cols = key_cols.values;
    value_cols.push(Arc::new(
        groups
            .iter()
            .map(|g| agg.apply_indexed(target_col, g))
            .collect(),
    ));
    let values = Table::from_named_grid(names, Grid::from_columns(value_cols));

    // Star channel: group{…} key terms and α(members…) aggregates.
    let star = sem.wants_star().then(|| {
        let tcol = src.star().column(target);
        let mut cols = key_cols.stars;
        cols.push(Arc::new(
            groups
                .iter()
                .map(|g| {
                    Expr::apply(
                        sickle_provenance::FuncName::Agg(agg),
                        g.iter().map(|&i| &tcol[i]),
                    )
                })
                .collect(),
        ));
        Grid::from_columns(cols)
    });

    table(values, star)
}

/// The `partition` kernel over a caller-supplied row partition. The
/// caller has run [`check_keyed`].
fn exec_partition(
    sem: Semantics,
    src: &ExecTable,
    keys: &[usize],
    groups: &[Vec<usize>],
    func: AnalyticFunc,
    target: usize,
) -> ExecTable {
    let n_rows = src.values.n_rows();
    let mut names = src.values.names().to_vec();
    names.push(format!(
        "{func}({}) over {keys:?}",
        src.values.names()[target]
    ));

    // Values channel: existing columns shared, one window column appended.
    let target_col = src.values.column(target);
    let mut new_col: Vec<Value> = vec![Value::Null; n_rows];
    for g in groups {
        for (&i, v) in g.iter().zip(func.apply_indexed(target_col, g)) {
            new_col[i] = v;
        }
    }
    let values = Table::from_named_grid(names, src.values.grid().with_column(new_col));

    // Star channel: window terms over the partition's members.
    let star = sem.wants_star().then(|| {
        let sg = src.star();
        sg.with_column(window_column(func, sg.column(target), groups, n_rows))
    });

    table(values, star)
}

fn exec_arith(
    src: &ExecTable,
    func: &sickle_table::ArithExpr,
    cols: &[usize],
) -> Result<ExecTable, EvalError> {
    let n_cols = src.values.n_cols();
    check_cols(cols, n_cols, "arithmetic")?;
    let n_rows = src.values.n_rows();

    let mut names = src.values.names().to_vec();
    names.push(format!("{func}{cols:?}"));

    let arg_cols: Vec<&[Value]> = cols.iter().map(|&c| src.values.column(c)).collect();
    let mut new_col = Vec::with_capacity(n_rows);
    let mut args = vec![Value::Null; cols.len()];
    for r in 0..n_rows {
        for (a, col) in args.iter_mut().zip(&arg_cols) {
            *a = col[r].clone();
        }
        new_col.push(func.eval(&args));
    }
    let values = Table::from_named_grid(names, src.values.grid().with_column(new_col));

    let star = src.star.as_ref().map(|sg| {
        let arg_cols: Vec<&[Expr]> = cols.iter().map(|&c| sg.column(c)).collect();
        sg.with_column(
            (0..n_rows)
                .map(|r| {
                    let args: Vec<Expr> = arg_cols.iter().map(|col| col[r].clone()).collect();
                    expand_arith(func, &args)
                })
                .collect(),
        )
    });

    Ok(table(values, star))
}

fn check_cols(cols: &[usize], arity: usize, operator: &'static str) -> Result<(), EvalError> {
    match cols.iter().find(|&&c| c >= arity) {
        Some(&col) => Err(EvalError::ColumnOutOfRange {
            col,
            arity,
            operator,
        }),
        None => Ok(()),
    }
}

fn check_pred(pred: &Pred, arity: usize, operator: &'static str) -> Result<(), EvalError> {
    match pred.max_col() {
        Some(c) if c >= arity => Err(EvalError::ColumnOutOfRange {
            col: c,
            arity,
            operator,
        }),
        _ => Ok(()),
    }
}

// ---------------------------------------------------------------------------
// The unified evaluation cache
// ---------------------------------------------------------------------------

/// Memoizes engine evaluations of concrete (sub)queries, keyed by
/// `(query, semantics)`, plus abstract tables of partial queries.
///
/// During search, thousands of sibling partial queries share the same
/// concrete subquery (e.g. the instantiated inner `group`); caching its
/// engine evaluation makes the per-node analysis cost proportional to the
/// *abstract* part of the query only. One cache is threaded through the
/// whole search by [`crate::TaskContext`].
#[derive(Debug, Default)]
pub struct EvalCache {
    /// Per-query slot indexed by semantics level
    /// (`[Values, Provenance]`) — keying by `Query` alone lets cache hits
    /// probe with `map.get(q)` instead of cloning the whole AST into a
    /// tuple key on the search's innermost loop. Entries carry a
    /// second-chance bit and a recompute-cost estimate; see
    /// [`EvalCache::sweep_exec`].
    map: RefCell<FxMap<Query, ExecSlot>>,
    abs_map: RefCell<FxMap<crate::ast::PQuery, Warm<Rc<crate::abstract_eval::AbsTable>>>>,
    /// The hash-consing pool resolving every [`SetId`] produced through
    /// this cache. Shared (`Arc`) so parallel search workers intern into
    /// one pool and see identical ids for identical sets.
    pool: Arc<RefSetPool>,
    /// Column-union memo keyed by column identity (the `Arc` address; the
    /// entry holds the `Arc`, pinning the address). Sibling partial
    /// queries union the same shared child columns over and over — the
    /// memo reduces each repeat to one map probe, with no locking (the
    /// engine cache is thread-local).
    col_unions: RefCell<ColUnionMemo>,
    /// `extract_groups` memo keyed by (concrete result identity, keys):
    /// the strong abstraction re-derives the same grouping for every
    /// sibling instantiation above one concrete subquery.
    groups: RefCell<FxMap<GroupsKey, (Rc<ExecTable>, Groups)>>,
    /// Star-column reference-set memo keyed by column identity. Sibling
    /// concrete candidates over one subquery share its star columns by
    /// `Arc` (structure-preserving operators append a column and pass
    /// the rest through; grouped candidates share key columns via
    /// [`EvalCache::group_parts`]), so the acceptance prefilter's cell
    /// conversions repeat across hundreds of candidates — this memo
    /// converts a column once (bulk, on first probe) and every later
    /// candidate's probes reduce to one map probe per column. Columns
    /// the matcher never probes are never converted, and the prefilter
    /// admits only columns something besides the one-shot candidate holds.
    star_cols: RefCell<StarColsMemo>,
    /// Grouping-skeleton memo keyed by (child result identity, key
    /// columns, star wanted): the representative key value columns and
    /// `group{…}` star key columns of a `group` operator depend on the
    /// child and keys only — every sibling aggregation choice shares
    /// them, and `Arc`-sharing the columns also lets [`EvalCache::star_sets`]
    /// hits carry across those siblings.
    group_parts: RefCell<FxMap<GroupPartsKey, GroupPartsEntry>>,
    /// Canonicalization of groupings by content: different key subsets
    /// frequently induce the *same* row partition (a key column constant
    /// within groups adds nothing), and handing back one shared `Rc` per
    /// distinct partition lets the per-group union memo hit across them.
    groups_canon: RefCell<FxMap<(usize, Groups), Groups>>,
    /// Per-group column unions keyed by (column identity, groups
    /// identity), the inner loop of the strong rules.
    group_unions: RefCell<FxMap<(usize, usize), GroupUnionEntry>>,
    /// Output row counts of every query ever evaluated through this
    /// cache, keyed by the query itself (no hashes: a collision would
    /// mis-reject a valid candidate). Entries survive eviction of the
    /// result they describe — the acceptance path's demo-dims fast
    /// reject reads row counts from here, so its hit rate is immune to
    /// cache pressure (a `u32` per query instead of a pinned table).
    /// Cleared, not evicted, at [`ROWS_MEMO_CAP`].
    row_counts: RefCell<FxMap<Query, u32>>,
    /// Group counts keyed by child query, then key columns: the output
    /// row count of a `group` operator depends on the child and keys
    /// only, so one evaluated sibling aggregation choice lets every
    /// later sibling fast-reject without re-evaluating anything. Nested
    /// (not tuple-keyed) so probes borrow the candidate's child instead
    /// of cloning it. Same bound and survival rules as
    /// [`EvalCache::row_counts`].
    group_counts: RefCell<GroupCountsMemo>,
    /// Pooled scratch of the filter/join paths: selection vectors
    /// and key buffers reused across every candidate evaluated through
    /// this cache, so per-candidate allocation stops scaling with row
    /// count.
    scratch: RefCell<ExecScratch>,
    /// Eviction policy of the concrete store (cap, hysteresis target).
    policy: CachePolicy,
    /// Eviction / demotion / re-evaluation counters (see [`CacheStats`]).
    stats: Cell<CacheStats>,
    /// Hashes of fully evicted queries, consumed on re-insert to count
    /// churn-induced re-evaluations. Bounded by [`EVICTED_TRACK_CAP`]
    /// (cleared when full, which undercounts) and keyed by a 64-bit
    /// fingerprint (a collision can overcount a never-evicted query) —
    /// a diagnostic counter, deliberately cheap rather than exact.
    evicted: RefCell<FxMap<u64, ()>>,
    /// Hasher for the evicted-query fingerprints.
    hasher: FxBuild,
}

/// A shared row partition (`extract_groups` output).
type Groups = Rc<Vec<Vec<usize>>>;

/// Group-count memo: child query → [(key columns, group count)].
type GroupCountsMemo = FxMap<Query, Vec<(Vec<usize>, u32)>>;

/// One exec-cache slot: per-semantics-level results plus the
/// second-chance bit and the recompute-cost estimate consumed by the
/// cost-aware sweep.
#[derive(Debug, Default)]
struct ExecSlot {
    value: [Option<Rc<ExecTable>>; 2],
    /// Second-chance bit: set on every hit and on insertion, consumed by
    /// [`EvalCache::sweep_exec`].
    hot: Cell<bool>,
    /// Estimated cost to recompute the entry: nanoseconds spent in this
    /// node's operator step at build time, plus a per-cell weight for the
    /// output size (re-gathering a large join output costs real time even
    /// when its children are still cached). Monotone across upgrades.
    cost: Cell<u64>,
    /// Cache-hit count since the last sweep (halved by each sweep): the
    /// reuse-frequency signal of the benefit-aware demotion trigger. An
    /// entry that was inserted but never re-probed has paid for derived
    /// channels nobody consumed — the sweep frees them regardless of the
    /// hot bit.
    probes: Cell<u32>,
    /// Approximate bytes charged against this slot (value + star
    /// channels, per cell, plus a fixed per-entry overhead). Released in
    /// full on eviction and partially on demotion, so cumulative releases
    /// never exceed cumulative charges.
    bytes: Cell<u64>,
}

/// Column-union memo: column `Arc` address → (pinned column, union id).
type ColUnionMemo = FxMap<usize, (Arc<Vec<SetId>>, SetId)>;

/// Key of the grouping memo: (concrete result identity, key columns).
type GroupsKey = (usize, Vec<usize>);

/// Star-column set memo: column identity → (pinned column, its sets).
type StarColsMemo = FxMap<usize, (Arc<Vec<Expr>>, Arc<Vec<RefSet>>)>;

/// Key of the grouping-skeleton memo: (child result identity, key
/// columns, whether star key columns were built).
type GroupPartsKey = (usize, Vec<usize>, bool);

/// Entry of the grouping-skeleton memo: the pinned child plus the shared
/// row partition and key columns of every sibling `group` candidate.
#[derive(Debug)]
struct GroupPartsEntry {
    _child: Rc<ExecTable>,
    _groups: Groups,
    keys: GroupKeys,
}

/// Entry of the per-group union memo: the pinned column and groups plus
/// the per-group union column (shareable into result grids as-is).
#[derive(Debug)]
struct GroupUnionEntry {
    _col: Arc<Vec<SetId>>,
    _groups: Groups,
    unions: Arc<Vec<SetId>>,
}

/// Bound on the concrete exec-table cache (entries hold full provenance
/// tables at the provenance level).
const EXEC_CACHE_CAP: usize = 4_000;

/// Bound on the partial-query abstract-table cache. The search visits the
/// children of a node consecutively (depth-first), so even a modest bound
/// keeps the hit rate high while capping memory.
const ABS_CACHE_CAP: usize = 8_000;

/// Per-cell weight of the size term of an entry's recompute-cost
/// estimate (rebuilding values + star columns costs on the order of tens
/// of nanoseconds per cell).
const CELL_COST_NS: u64 = 32;

/// Approximate resident bytes per cached cell: one `Value` plus one star
/// `Expr` (both small enum headers; string/aggregate payloads are
/// amortized into the weight rather than measured).
const CELL_MEM_BYTES: u64 = 56;

/// Approximate fixed bytes per cache entry (query key, slot, hash
/// bucket, table headers).
const ENTRY_MEM_BYTES: u64 = 256;

/// Fraction (denominator) of a slot's bytes attributed to the derived
/// ref-set channels a demotion frees: demotion releases `bytes / 2`,
/// keeping the value + star half charged.
const DEMOTE_RELEASE_DIV: u64 = 2;

/// Bound on the evicted-query fingerprint set behind the re-evaluation
/// counter.
const EVICTED_TRACK_CAP: usize = 65_536;

/// Bound on the row-count and group-count memos behind the demo-dims
/// fast reject (a full memo is cleared, not evicted — entries are one
/// `u32` plus a query key and are recomputed on the next evaluation).
const ROWS_MEMO_CAP: usize = 65_536;

/// Eviction policy of the concrete [`EvalCache`] store.
///
/// The default is cost-aware: a sweep ranks entries by (coldness,
/// recompute cost) and evicts the cheapest cold entries down to
/// [`CachePolicy::low_water`] (hysteresis: the O(n log n) sweep then
/// cannot run again for at least `cap - low_water` inserts), so
/// cheap-to-recompute entries go first and expensive join children
/// survive. Raising `low_water` above `cap / 2` enters *retention mode*:
/// more entries survive each sweep, and — since every entry is inserted
/// hot — cold survivors (the sweep's spill candidates) start to exist,
/// and they are *demoted* rather than kept fully
/// materialized: their derived reference-set channels (and the
/// cross-candidate star-column conversions) are freed while the value
/// and star columns stay, so a later re-probe pays only set
/// re-conversion, never a full join re-execution. Retention trades peak
/// RSS for fewer re-evaluations — an explicit opt-in for churn-bound
/// workloads.
///
/// Marked `#[non_exhaustive]`: construct via [`CachePolicy::default`]
/// plus the `with_*` builders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct CachePolicy {
    /// High-water mark: inserting at this many entries triggers a sweep.
    pub cap: usize,
    /// Hysteresis target: a sweep evicts down to this many entries
    /// (clamped at sweep time so every sweep frees at least ~`cap / 8`
    /// — the amortization guarantee cannot be configured away). Values
    /// above `cap / 2` enable retention mode (see the type docs).
    pub low_water: usize,
}

impl Default for CachePolicy {
    fn default() -> CachePolicy {
        CachePolicy {
            cap: EXEC_CACHE_CAP,
            // Raising the low-water mark above cap/2 enters *retention
            // mode* (more entries survive each sweep, spilling engages on
            // the cold expensive ones) — measured on the join-heavy suite
            // tasks, retention at 3/4·cap costs ~60% extra peak RSS, so
            // it is an explicit opt-in for churn-bound workloads, not
            // the default.
            low_water: EXEC_CACHE_CAP / 2,
        }
    }
}

impl CachePolicy {
    /// Sets the entry cap (clamped to ≥ 1) and rescales the low-water
    /// mark to half of it (use [`CachePolicy::with_low_water`] after
    /// this to opt into retention mode).
    #[must_use]
    pub fn with_cap(mut self, cap: usize) -> CachePolicy {
        self.cap = cap.max(1);
        self.low_water = self.cap / 2;
        self
    }

    /// Sets the hysteresis target (clamped below the cap at sweep time).
    #[must_use]
    pub fn with_low_water(mut self, low_water: usize) -> CachePolicy {
        self.low_water = low_water;
        self
    }
}

/// Counters describing the concrete store's churn behavior. Read with
/// [`EvalCache::cache_stats`]; the search surfaces them through
/// `SearchStats` / `SharedStats` / the wire stats.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct CacheStats {
    /// Sweeps run (each is one O(n log n) rank-and-evict pass).
    pub sweeps: usize,
    /// Entries dropped entirely.
    pub evictions: usize,
    /// Entries demoted: derived ref-set channels (and their shared
    /// star-column conversions) freed, values + star kept.
    pub demotions: usize,
    /// Inserts that re-evaluated a previously evicted query — the churn
    /// the cost-aware policy exists to avoid.
    pub reevals: usize,
    /// Nanoseconds spent on those re-evaluations (the operator step of
    /// each re-evaluated node). Counts alone can hide the policy's
    /// effect: cost-aware eviction deliberately re-evaluates *cheap*
    /// entries instead of expensive join children, so the spend drops
    /// even when the count does not.
    pub reeval_ns: u64,
    /// Output rows produced by fused join steps (the rows-processed side
    /// of the `time_join` split surfaced through the search stats).
    pub join_rows: u64,
    /// Nanoseconds spent in fused join steps.
    pub join_ns: u64,
    /// Approximate bytes charged for inserted entries, cumulative and
    /// monotone like every other field; live residency is
    /// `mem_charged - mem_released`.
    pub mem_charged: u64,
    /// Approximate bytes released by evictions and demotions, cumulative.
    /// Never exceeds [`CacheStats::mem_charged`].
    pub mem_released: u64,
}

/// A cache entry with a second-chance bit: set on every hit (and on
/// insertion), consumed by [`second_chance_sweep`].
#[derive(Debug, Default)]
struct Warm<V> {
    value: V,
    hot: Cell<bool>,
}

/// Generation-style eviction for the abstract-table store (the concrete
/// store uses the richer [`EvalCache::sweep_exec`]): one sweep starts a
/// new generation by dropping every entry that was not touched since the
/// previous sweep (its second chance), keeping the hot working set warm
/// across generations. At most `cap / 2` hot entries survive, so a sweep
/// always frees at least half the map: the O(n) retain amortizes to O(1)
/// per insert instead of degrading to a retain per insert when the whole
/// map is hot.
fn second_chance_sweep<K, V>(map: &mut FxMap<K, Warm<V>>, cap: usize) {
    let mut quota = cap / 2;
    map.retain(|_, entry| {
        entry.hot.replace(false)
            && if quota > 0 {
                quota -= 1;
                true
            } else {
                false
            }
    });
}

/// Bound on the identity-keyed analysis memos (column unions, groupings,
/// per-group unions); full memos are cleared, not evicted.
const MEMO_CAP: usize = 16_384;

/// Bound on the memos that pin whole columns or grouping skeletons
/// (star-column sets, group parts). Much lower than [`MEMO_CAP`]: each
/// entry holds a column's worth of data, and pinning it keeps the data
/// alive past engine-cache eviction.
const COLUMN_MEMO_CAP: usize = 4_096;

impl EvalCache {
    /// Creates an empty cache with a private [`RefSetPool`].
    pub fn new() -> EvalCache {
        EvalCache::default()
    }

    /// Creates an empty cache with a private pool and the given eviction
    /// policy.
    pub fn with_policy(policy: CachePolicy) -> EvalCache {
        EvalCache {
            policy,
            ..EvalCache::default()
        }
    }

    /// Creates an empty cache with a shared pool and the given eviction
    /// policy.
    pub fn with_pool_and_policy(pool: Arc<RefSetPool>, policy: CachePolicy) -> EvalCache {
        EvalCache {
            pool,
            policy,
            ..EvalCache::default()
        }
    }

    /// The pool resolving ids produced through this cache.
    pub fn pool(&self) -> &Arc<RefSetPool> {
        &self.pool
    }

    /// The eviction policy of the concrete store.
    pub fn policy(&self) -> CachePolicy {
        self.policy
    }

    /// Eviction / demotion / re-evaluation counters since creation.
    pub fn cache_stats(&self) -> CacheStats {
        self.stats.get()
    }

    /// The output row count of `q`, if it was ever evaluated through
    /// this cache — survives eviction of the result itself. The
    /// acceptance path's demo-dims fast reject runs on this, so a
    /// too-small candidate is rejected without any evaluation even when
    /// its child was swept out long ago.
    pub(crate) fn known_rows(&self, q: &Query) -> Option<usize> {
        self.row_counts.borrow().get(q).map(|&n| n as usize)
    }

    /// The number of groups `extract_groups(child, keys)` produces — the
    /// output row count of any sibling `group` candidate over the same
    /// (child, keys) — if any such sibling was ever evaluated.
    pub(crate) fn known_group_rows(&self, child: &Query, keys: &[usize]) -> Option<usize> {
        self.group_counts.borrow().get(child).and_then(|entries| {
            entries
                .iter()
                .find(|(k, _)| k == keys)
                .map(|&(_, n)| n as usize)
        })
    }

    /// Records a query's output row count (see [`EvalCache::row_counts`]).
    fn note_rows(&self, q: &Query, rows: usize) {
        let mut counts = self.row_counts.borrow_mut();
        if counts.contains_key(q) {
            return;
        }
        if counts.len() >= ROWS_MEMO_CAP {
            counts.clear();
        }
        counts.insert(q.clone(), rows.min(u32::MAX as usize) as u32);
    }

    /// Records a (child, keys) group count (see
    /// [`EvalCache::group_counts`]).
    fn note_group_rows(&self, child: &Query, keys: &[usize], groups: usize) {
        let mut counts = self.group_counts.borrow_mut();
        if let Some(entries) = counts.get_mut(child) {
            if !entries.iter().any(|(k, _)| k == keys) {
                entries.push((keys.to_vec(), groups.min(u32::MAX as usize) as u32));
            }
            return;
        }
        if counts.len() >= ROWS_MEMO_CAP {
            counts.clear();
        }
        counts.insert(
            child.clone(),
            vec![(keys.to_vec(), groups.min(u32::MAX as usize) as u32)],
        );
    }

    /// Fingerprints a fully evicted query so its eventual re-insert is
    /// counted as a churn-induced re-evaluation.
    fn note_evicted(&self, q: &Query) {
        let mut evicted = self.evicted.borrow_mut();
        if evicted.len() >= EVICTED_TRACK_CAP {
            evicted.clear();
        }
        evicted.insert(self.hasher.hash_one(q), ());
    }

    /// The cost-aware, hysteresis-bounded sweep of the concrete store.
    ///
    /// Ranks entries by (coldness, recompute cost) and evicts the
    /// cheapest cold entries (then, if the map is all-hot, the cheapest
    /// hot ones — their second chance is the cost ordering itself) until
    /// the map is down to the low-water mark. Cold survivors — by
    /// construction the most expensive entries, typically join children —
    /// are *demoted* instead of dropped. Hot flags are consumed, exactly
    /// as in the flat second-chance sweep of the abstract store.
    fn sweep_exec(&self, map: &mut FxMap<Query, ExecSlot>) {
        let mut stats = self.stats.get();
        stats.sweeps += 1;
        // Rank victims — cold before hot, cheap before expensive —
        // without cloning any keys: select the eviction threshold on the
        // (coldness, cost) ranks alone, then evict in one retain pass
        // (ties at the threshold are broken by iteration order, which is
        // deterministic for a deterministic insert sequence). The target
        // is clamped so a sweep always frees at least ~cap/8 entries:
        // a low-water at (or above) cap-1 would otherwise free one entry
        // per sweep and degrade to an O(n log n) sweep per insert — the
        // hysteresis guarantee holds for every caller, not just the
        // wire front-end's validated requests.
        let max_target = self.policy.cap.saturating_sub((self.policy.cap / 8).max(1));
        let target = self.policy.low_water.min(max_target);
        let excess = map.len().saturating_sub(target);
        if excess > 0 {
            let mut ranks: Vec<(bool, u64)> = map
                .values()
                .map(|slot| (slot.hot.get(), slot.cost.get()))
                .collect();
            let (_, &mut threshold, _) = ranks.select_nth_unstable(excess - 1);
            let n_less = ranks.iter().filter(|&&r| r < threshold).count();
            let mut ties = excess - n_less;
            map.retain(|q, slot| {
                let rank = (slot.hot.get(), slot.cost.get());
                let evict = rank < threshold
                    || (rank == threshold && ties > 0 && {
                        ties -= 1;
                        true
                    });
                if evict {
                    stats.evictions += 1;
                    stats.mem_released = stats.mem_released.saturating_add(slot.bytes.get());
                    self.note_evicted(q);
                }
                !evict
            });
        }
        // Demote low-benefit survivors, then consume every survivor's
        // second chance. The trigger is benefit-aware: a survivor is
        // demoted when it is cold *or* was never re-probed since the last
        // sweep (`probes == 0`) — an entry inserted hot but never hit
        // again has paid for derived ref-set channels nobody consumed, so
        // spilling them is free upside at *any* low-water mark, not just
        // in retention mode. Probe counts decay geometrically (halved per
        // sweep) so sustained reuse is required to stay materialized.
        // Address-keyed memo purges for replaced entries are batched into
        // one retain per memo — a retain per demotion would make the
        // sweep O(survivors × memo).
        let mut purge: Vec<usize> = Vec::new();
        for slot in map.values_mut() {
            let probes = slot.probes.get();
            if (!slot.hot.get() || probes == 0) && self.demote_slot(slot, &mut purge) {
                stats.demotions += 1;
                // The freed derived channels are roughly half the slot's
                // footprint; decrement the slot so a later eviction (or
                // repeat demotion) cannot release more than was charged.
                let freed = slot.bytes.get() / DEMOTE_RELEASE_DIV;
                slot.bytes.set(slot.bytes.get() - freed);
                stats.mem_released = stats.mem_released.saturating_add(freed);
            }
            slot.hot.set(false);
            slot.probes.set(probes / 2);
        }
        if !purge.is_empty() {
            purge.sort_unstable();
            let gone = |addr: usize| purge.binary_search(&addr).is_ok();
            self.groups.borrow_mut().retain(|k, _| !gone(k.0));
            self.groups_canon.borrow_mut().retain(|k, _| !gone(k.0));
            self.group_parts.borrow_mut().retain(|k, _| !gone(k.0));
        }
        self.stats.set(stats);
    }

    /// Frees a slot's derived reference-set channels — the whole-grid and
    /// per-cell `RefSet` conversions plus the interned id grids — and the
    /// cross-candidate star-column conversions pinned by
    /// [`EvalCache::star_cols`], while keeping the value and star
    /// columns. A later hit re-derives the sets lazily (identical by
    /// construction: the star channel they convert from is unchanged).
    /// Replaced entries push their old address into `purge` for the
    /// caller's batched memo purge. Returns whether anything was actually
    /// freed.
    fn demote_slot(&self, slot: &mut ExecSlot, purge: &mut Vec<usize>) -> bool {
        let mut any = false;
        for level in slot.value.iter_mut() {
            let Some(rc) = level else { continue };
            // Purge the bulk conversions of star columns this entry
            // *exclusively* owns (the per-column `RefSet` vectors the
            // spill exists to free). Pass-through operators share column
            // `Arc`s across entries, and a shared column's conversion
            // may be serving a hot, resident sibling — purging it would
            // force that sibling to reconvert after every sweep. Two
            // strong counts = this entry's star grid plus the memo's own
            // pin; anything higher means someone else still uses it.
            if let Some(star) = rc.try_star() {
                let mut cols = self.star_cols.borrow_mut();
                for c in 0..star.n_cols() {
                    let col = star.column_arc(c);
                    if Arc::strong_count(col) <= 2
                        && cols.remove(&(Arc::as_ptr(col) as usize)).is_some()
                    {
                        any = true;
                    }
                }
            }
            let has_derived = rc.sets.get().is_some()
                || rc.set_ids.get().is_some()
                || rc.cell_sets.get().is_some();
            if !has_derived {
                continue;
            }
            if let Some(table) = Rc::get_mut(rc) {
                table.sets.take();
                table.set_ids.take();
                table.cell_sets.take();
            } else {
                // Pinned elsewhere (a grouping memo, an in-flight sibling
                // evaluation): swap in a shallow clone sharing the value
                // and star columns; the caller purges the address-keyed
                // memo entries pinning the old result so its derived
                // channels actually drop.
                purge.push(Rc::as_ptr(rc) as usize);
                let fresh = Rc::new(ExecTable {
                    values: rc.values.clone(),
                    star: rc.star.clone(),
                    sets: OnceCell::new(),
                    set_ids: OnceCell::new(),
                    cell_sets: OnceCell::new(),
                });
                *level = Some(fresh);
            }
            any = true;
        }
        any
    }

    /// Memoized union of one shared column (see
    /// [`EvalCache::col_unions`]).
    pub(crate) fn column_union(&self, col: &Arc<Vec<SetId>>) -> SetId {
        let key = Arc::as_ptr(col) as usize;
        if let Some((_, id)) = self.col_unions.borrow().get(&key) {
            return *id;
        }
        let id = self.pool.union_slice(col);
        let mut map = self.col_unions.borrow_mut();
        if map.len() >= MEMO_CAP {
            map.clear();
        }
        map.insert(key, (Arc::clone(col), id));
        id
    }

    /// Memoized reference sets of one star column, keyed by the column's
    /// identity (see [`EvalCache::star_cols`]). Converted in bulk on the
    /// first probe of any of its cells; the returned `Arc` indexes
    /// directly per row.
    pub(crate) fn star_col_sets(
        &self,
        star: &crate::prov_eval::ProvTable,
        universe: &RefUniverse,
        col: usize,
    ) -> Arc<Vec<RefSet>> {
        let col_arc = star.column_arc(col);
        let key = Arc::as_ptr(col_arc) as usize;
        if let Some((_, sets)) = self.star_cols.borrow().get(&key) {
            return Arc::clone(sets);
        }
        let mut terms = TermSets::default();
        let sets = Arc::new(
            col_arc
                .iter()
                .map(|e| terms.set_of(universe, e))
                .collect::<Vec<RefSet>>(),
        );
        let mut map = self.star_cols.borrow_mut();
        if map.len() >= COLUMN_MEMO_CAP {
            map.clear();
        }
        map.insert(key, (Arc::clone(col_arc), Arc::clone(&sets)));
        sets
    }

    /// The key columns of a `group` over (`child`, `keys`), built once
    /// and `Arc`-shared across every sibling aggregation choice (see
    /// [`EvalCache::group_parts`]).
    fn group_keys_of(
        &self,
        sem: Semantics,
        child: &Rc<ExecTable>,
        keys: &[usize],
        groups: &Groups,
    ) -> GroupKeys {
        let parts_key = (Rc::as_ptr(child) as usize, keys.to_vec(), sem.wants_star());
        if let Some(entry) = self.group_parts.borrow().get(&parts_key) {
            return entry.keys.clone();
        }
        let key_cols = group_keys(sem, child, keys, groups);
        let mut map = self.group_parts.borrow_mut();
        if map.len() >= COLUMN_MEMO_CAP {
            map.clear();
        }
        map.insert(
            parts_key,
            GroupPartsEntry {
                _child: Rc::clone(child),
                _groups: Rc::clone(groups),
                keys: key_cols.clone(),
            },
        );
        key_cols
    }

    /// Memoized `extract_groups` over a concrete engine result (see
    /// [`EvalCache::groups`]).
    pub(crate) fn groups_of(&self, conc: &Rc<ExecTable>, keys: &[usize]) -> Rc<Vec<Vec<usize>>> {
        let key = (Rc::as_ptr(conc) as usize, keys.to_vec());
        if let Some((_, g)) = self.groups.borrow().get(&key) {
            return Rc::clone(g);
        }
        let g = Rc::new(sickle_table::extract_groups(conc.table(), keys));
        // Canonicalize by content so equal partitions from different key
        // subsets share one identity (and thus one per-group union memo).
        let canon_key = (Rc::as_ptr(conc) as usize, Rc::clone(&g));
        let g = {
            let mut canon = self.groups_canon.borrow_mut();
            if canon.len() >= MEMO_CAP {
                canon.clear();
            }
            match canon.get(&canon_key) {
                Some(existing) => Rc::clone(existing),
                None => {
                    canon.insert(canon_key, Rc::clone(&g));
                    g
                }
            }
        };
        let mut map = self.groups.borrow_mut();
        if map.len() >= MEMO_CAP {
            map.clear();
        }
        map.insert(key, (Rc::clone(conc), Rc::clone(&g)));
        g
    }

    /// Memoized per-group unions of one shared column under one grouping
    /// (see [`EvalCache::group_unions`]).
    pub(crate) fn group_unions(
        &self,
        col: &Arc<Vec<SetId>>,
        groups: &Rc<Vec<Vec<usize>>>,
    ) -> Arc<Vec<SetId>> {
        let key = (Arc::as_ptr(col) as usize, Rc::as_ptr(groups) as usize);
        if let Some(entry) = self.group_unions.borrow().get(&key) {
            return Arc::clone(&entry.unions);
        }
        let unions = Arc::new(
            groups
                .iter()
                .map(|g| self.pool.union_rows(col, g))
                .collect::<Vec<SetId>>(),
        );
        let mut map = self.group_unions.borrow_mut();
        if map.len() >= MEMO_CAP {
            map.clear();
        }
        map.insert(
            key,
            GroupUnionEntry {
                _col: Arc::clone(col),
                _groups: Rc::clone(groups),
                unions: Arc::clone(&unions),
            },
        );
        unions
    }

    /// Memoized engine evaluation of `q` at semantics level `sem`. A cached
    /// result at a *higher* level serves lower-level requests.
    ///
    /// # Errors
    ///
    /// Propagates [`EvalError`] from evaluation (the error is not cached).
    pub fn exec(
        &self,
        q: &Query,
        sem: Semantics,
        inputs: &[Table],
    ) -> Result<Rc<ExecTable>, EvalError> {
        if let Some(hit) = self.lookup(q, sem) {
            return Ok(hit);
        }
        let (computed, step_ns) = self.compute(q, sem, inputs)?;
        Ok(self.store(q, computed, step_ns))
    }

    /// One-shot evaluation of `q`: served from the store when it is
    /// there, otherwise computed with every child memoized through
    /// [`EvalCache::exec`] — but `q` itself is never inserted (no key
    /// clone, no byte charge, no sweep). For queries the caller looks at
    /// exactly once, such as the search's acceptance candidates: storing
    /// them would only evict the subqueries their siblings share. Row and
    /// group counts are still recorded for the demo-dims fast reject.
    ///
    /// # Errors
    ///
    /// Same as [`EvalCache::exec`].
    pub fn exec_once(
        &self,
        q: &Query,
        sem: Semantics,
        inputs: &[Table],
    ) -> Result<Rc<ExecTable>, EvalError> {
        if let Some(hit) = self.lookup(q, sem) {
            return Ok(hit);
        }
        self.compute(q, sem, inputs)
            .map(|(computed, _)| Rc::new(computed))
    }

    /// The stored result of `q` at level `sem` or higher, marking the
    /// slot hot and counting the probe.
    fn lookup(&self, q: &Query, sem: Semantics) -> Option<Rc<ExecTable>> {
        let map = self.map.borrow();
        let slot = map.get(q)?;
        // Probe from the highest level down to the requested one.
        for level in [Semantics::Provenance, Semantics::Values] {
            if level < sem {
                break;
            }
            if let Some(hit) = &slot.value[level as usize] {
                slot.hot.set(true);
                slot.probes.set(slot.probes.get().saturating_add(1));
                return Some(Rc::clone(hit));
            }
        }
        None
    }

    /// Evaluates `q`'s top operator over children resolved through
    /// [`EvalCache::exec`], returning the result and the nanoseconds of
    /// the operator step alone, and records its row count.
    fn compute(
        &self,
        q: &Query,
        sem: Semantics,
        inputs: &[Table],
    ) -> Result<(ExecTable, u64), EvalError> {
        // Evaluate one operator level at a time so shared subqueries hit
        // the cache instead of being re-evaluated per leaf; `filter ∘ join`
        // fuses into a selection-vector pass. A child served from a
        // higher-level cache entry is narrowed to the requested level so
        // structure-propagating operators don't build star terms nobody
        // asked for.
        let narrow = |child: Rc<ExecTable>| {
            if sem == Semantics::Values && child.semantics() > sem {
                Rc::new(child.values_only())
            } else {
                child
            }
        };
        // Each branch resolves its children first (their build time is
        // accounted to their own cache entries), then times just this
        // node's operator step — the cost to rebuild the entry when its
        // children are still cached.
        let (computed, step_ns) = if let Some((left, right, pred)) = fused_filter_join(q) {
            let l = narrow(self.exec(left, sem, inputs)?);
            let r = narrow(self.exec(right, sem, inputs)?);
            let t0 = Instant::now();
            let out = exec_filtered_join(&l, &r, pred, &mut self.scratch.borrow_mut())?;
            let ns = t0.elapsed().as_nanos() as u64;
            let mut stats = self.stats.get();
            stats.join_rows = stats.join_rows.saturating_add(out.values.n_rows() as u64);
            stats.join_ns = stats.join_ns.saturating_add(ns);
            self.stats.set(stats);
            (out, ns)
        } else if let Query::Filter { src, pred } = q {
            // Plain filter (the fused branch above took filter-over-join):
            // runs through the pooled selection buffer so candidate churn
            // does not allocate per row count.
            let child = narrow(self.exec(src, sem, inputs)?);
            let t0 = Instant::now();
            let out = exec_filter(&child, pred, &mut self.scratch.borrow_mut().keep)?;
            (out, t0.elapsed().as_nanos() as u64)
        } else if let Query::Group {
            src,
            keys,
            agg,
            target,
        } = q
        {
            // Through the grouping-skeleton memo: sibling aggregation
            // choices share the row partition and key columns. The child
            // is deliberately NOT narrowed — group builds fresh columns
            // either way, and the un-narrowed `Rc` keeps the memo key
            // stable across sibling candidates.
            let child = self.exec(src, sem, inputs)?;
            let t0 = Instant::now();
            check_keyed(&child, keys, *target, "group")?;
            let groups = self.groups_of(&child, keys);
            let key_cols = self.group_keys_of(sem, &child, keys, &groups);
            let out = exec_group(sem, &child, keys, &groups, key_cols, *agg, *target);
            // One row per group: every sibling aggregation choice over
            // the same (child, keys) can now fast-reject from the memo.
            self.note_group_rows(src, keys, out.values.n_rows());
            (out, t0.elapsed().as_nanos() as u64)
        } else if let Query::Partition {
            src,
            keys,
            func,
            target,
        } = q
        {
            // Same sharing for `partition`: the row partition is one
            // memo probe after the first sibling (function, target)
            // choice over the same keys.
            let child = self.exec(src, sem, inputs)?;
            let t0 = Instant::now();
            check_keyed(&child, keys, *target, "partition")?;
            let groups = self.groups_of(&child, keys);
            (
                exec_partition(sem, &child, keys, &groups, *func, *target),
                t0.elapsed().as_nanos() as u64,
            )
        } else {
            let children = q
                .children()
                .into_iter()
                .map(|c| self.exec(c, sem, inputs).map(&narrow))
                .collect::<Result<Vec<_>, _>>()?;
            let child_refs: Vec<&ExecTable> = children.iter().map(Rc::as_ref).collect();
            let t0 = Instant::now();
            (
                exec_step(sem, q, &child_refs, inputs)?,
                t0.elapsed().as_nanos() as u64,
            )
        };
        debug_assert!(
            computed.semantics() >= sem,
            "pipeline produced fewer channels than requested"
        );
        self.note_rows(q, computed.values.n_rows());
        Ok((computed, step_ns))
    }

    /// Inserts a computed result of `q`, sweeping first when the store is
    /// full, and charges its recompute cost and bytes.
    fn store(&self, q: &Query, computed: ExecTable, step_ns: u64) -> Rc<ExecTable> {
        // Store under the level actually computed (equals the requested
        // one now that children are narrowed, but derive it rather than
        // assume).
        let actual = computed.semantics();
        let cost = step_ns.saturating_add(
            (computed.values.n_rows() as u64)
                .saturating_mul(computed.values.n_cols() as u64)
                .saturating_mul(CELL_COST_NS),
        );
        // A re-insert of a previously evicted query is a churn-induced
        // re-evaluation — the quantity the cost-aware policy minimizes.
        // Consumed *before* this insert's own sweep runs: the sweep can
        // evict this query's stale lower-level slot, and that eviction
        // happened after the computation — counting it would charge
        // churn for work it did not cause. The emptiness guard keeps the
        // no-churn common case free of a second full-AST hash (separate
        // scope: a `Ref` alive across the `borrow_mut` would panic).
        let ever_evicted = !self.evicted.borrow().is_empty();
        if ever_evicted
            && self
                .evicted
                .borrow_mut()
                .remove(&self.hasher.hash_one(q))
                .is_some()
        {
            let mut stats = self.stats.get();
            stats.reevals += 1;
            stats.reeval_ns = stats.reeval_ns.saturating_add(step_ns);
            self.stats.set(stats);
        }
        let cells =
            (computed.values.n_rows() as u64).saturating_mul(computed.values.n_cols() as u64);
        let mem = ENTRY_MEM_BYTES.saturating_add(cells.saturating_mul(CELL_MEM_BYTES));
        let rc = Rc::new(computed);
        let mut map = self.map.borrow_mut();
        if map.len() >= self.policy.cap {
            self.sweep_exec(&mut map);
        }
        let slot = map.entry(q.clone()).or_default();
        slot.value[actual as usize] = Some(Rc::clone(&rc));
        slot.hot.set(true);
        slot.cost.set(slot.cost.get().max(cost));
        slot.bytes.set(slot.bytes.get().saturating_add(mem));
        let mut stats = self.stats.get();
        stats.mem_charged = stats.mem_charged.saturating_add(mem);
        self.stats.set(stats);
        rc
    }

    /// Probes the cache for `q` at any semantics level without computing
    /// anything. The acceptance path's demo-dims fast reject used to run
    /// on this; it now reads the eviction-immune
    /// [`EvalCache::known_rows`] / [`EvalCache::known_group_rows`] memos
    /// instead, so the probe remains as a test seam for inspecting
    /// residency and demotion state.
    #[cfg(test)]
    fn peek(&self, q: &Query) -> Option<Rc<ExecTable>> {
        let map = self.map.borrow();
        let slot = map.get(q)?;
        for level in [Semantics::Provenance, Semantics::Values] {
            if let Some(hit) = &slot.value[level as usize] {
                slot.hot.set(true);
                return Some(Rc::clone(hit));
            }
        }
        None
    }

    /// Whether `col`'s reference sets are in the cross-candidate
    /// star-column memo (see [`EvalCache::star_cols`]).
    #[cfg(test)]
    pub(crate) fn star_cols_holds(&self, col: &Arc<Vec<Expr>>) -> bool {
        self.star_cols
            .borrow()
            .contains_key(&(Arc::as_ptr(col) as usize))
    }

    /// Number of cached concrete entries (diagnostics).
    pub fn len(&self) -> usize {
        self.map.borrow().len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.borrow().is_empty()
    }

    pub(crate) fn abs_get(
        &self,
        pq: &crate::ast::PQuery,
    ) -> Option<Rc<crate::abstract_eval::AbsTable>> {
        self.abs_map.borrow().get(pq).map(|entry| {
            entry.hot.set(true);
            Rc::clone(&entry.value)
        })
    }

    pub(crate) fn abs_put(&self, pq: &crate::ast::PQuery, abs: Rc<crate::abstract_eval::AbsTable>) {
        let mut map = self.abs_map.borrow_mut();
        if map.len() >= ABS_CACHE_CAP {
            second_chance_sweep(&mut map, ABS_CACHE_CAP);
        }
        map.insert(
            pq.clone(),
            Warm {
                value: abs,
                hot: Cell::new(true),
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sickle_table::{AggFunc, ArithExpr, ArithOp, CmpOp};

    fn input() -> Table {
        Table::new(
            ["city", "quarter", "enrolled", "pop"],
            vec![
                vec!["A".into(), 1.into(), 30.into(), 100.into()],
                vec!["A".into(), 2.into(), 20.into(), 100.into()],
                vec!["B".into(), 1.into(), 10.into(), 50.into()],
                vec!["B".into(), 2.into(), 40.into(), 50.into()],
            ],
        )
        .unwrap()
    }

    #[test]
    fn channels_match_requested_semantics() {
        let q = Query::Input(0);
        let inputs = [input()];
        let v = exec(Semantics::Values, &q, &inputs).unwrap();
        assert_eq!(v.semantics(), Semantics::Values);
        let p = exec(Semantics::Provenance, &q, &inputs).unwrap();
        assert_eq!(p.semantics(), Semantics::Provenance);
        let u = RefUniverse::from_tables(&inputs);
        assert_eq!(p.sets(&u)[(0, 0)].len(), 1);
    }

    #[test]
    fn star_values_agree_with_values_channel() {
        let q = Query::Group {
            src: Box::new(Query::Input(0)),
            keys: vec![0],
            agg: AggFunc::Sum,
            target: 2,
        };
        let inputs = [input()];
        let out = exec(Semantics::Provenance, &q, &inputs).unwrap();
        let via_star = crate::prov_eval::concretize(out.star(), &inputs);
        assert!(via_star.bag_eq(out.table()));
    }

    #[test]
    fn sets_agree_with_star_refs() {
        let q = Query::Arith {
            src: Box::new(Query::Partition {
                src: Box::new(Query::Group {
                    src: Box::new(Query::Input(0)),
                    keys: vec![0, 1, 3],
                    agg: AggFunc::Sum,
                    target: 2,
                }),
                keys: vec![0],
                func: AnalyticFunc::CumSum,
                target: 3,
            }),
            func: ArithExpr::bin(
                ArithOp::Mul,
                ArithExpr::bin(ArithOp::Div, ArithExpr::Param(0), ArithExpr::Param(1)),
                ArithExpr::lit(100.0),
            ),
            cols: vec![4, 2],
        };
        let inputs = [input()];
        let u = RefUniverse::from_tables(&inputs);
        let out = exec(Semantics::Provenance, &q, &inputs).unwrap();
        // The lazily-derived sets equal ref-collection over star.
        let from_star = out.star().map(|e| u.set_from(e.refs()));
        assert_eq!(*out.sets(&u), from_star);
    }

    #[test]
    fn lazy_cell_sets_agree_with_full_grid() {
        let q = Query::Group {
            src: Box::new(Query::Input(0)),
            keys: vec![0],
            agg: AggFunc::Sum,
            target: 2,
        };
        let inputs = [input()];
        let u = RefUniverse::from_tables(&inputs);
        let lazy = exec(Semantics::Provenance, &q, &inputs).unwrap();
        let eager = exec(Semantics::Provenance, &q, &inputs).unwrap();
        let grid = eager.sets(&u);
        // Probe cells out of order before any full materialization.
        for (i, j) in [(1, 1), (0, 0), (1, 0), (0, 1)] {
            assert_eq!(*lazy.cell_set(&u, i, j), grid[(i, j)]);
        }
        // After whole-grid materialization, per-cell probes serve from it.
        let full = lazy.sets(&u).clone();
        assert_eq!(full, *grid);
        assert_eq!(*lazy.cell_set(&u, 1, 1), grid[(1, 1)]);
    }

    #[test]
    fn fused_filter_join_equals_unfused() {
        let join = Query::Join {
            left: Box::new(Query::Input(0)),
            right: Box::new(Query::Input(0)),
        };
        let preds = [
            // Single equi key, both orientations.
            Pred::ColCmp(0, CmpOp::Eq, 4),
            Pred::ColCmp(5, CmpOp::Eq, 1),
            // Equi key plus residual conjuncts on both sides of the And.
            Pred::And(
                Box::new(Pred::ColCmp(0, CmpOp::Eq, 4)),
                Box::new(Pred::ColCmp(2, CmpOp::Lt, 6)),
            ),
            Pred::And(
                Box::new(Pred::ColConst(1, CmpOp::Ge, Value::Int(2))),
                Box::new(Pred::ColCmp(1, CmpOp::Eq, 5)),
            ),
            // Two equi keys (multi-column hash path).
            Pred::And(
                Box::new(Pred::ColCmp(0, CmpOp::Eq, 4)),
                Box::new(Pred::ColCmp(1, CmpOp::Eq, 5)),
            ),
            // No equi key (nested-loop fallback): same-side equality,
            // non-equality, constant-only.
            Pred::ColCmp(0, CmpOp::Eq, 1),
            Pred::ColCmp(2, CmpOp::Lt, 6),
            Pred::ColConst(0, CmpOp::Eq, Value::from("A")),
            Pred::True,
        ];
        let inputs = [input()];
        let cache = EvalCache::new();
        for pred in preds {
            let q = Query::Filter {
                src: Box::new(join.clone()),
                pred: pred.clone(),
            };
            // Unfused: evaluate the join, then filter as a separate step.
            let j = exec(Semantics::Provenance, &join, &inputs).unwrap();
            let unfused = exec_step(Semantics::Provenance, &q, &[&j], &inputs).unwrap();
            let walked = exec(Semantics::Provenance, &q, &inputs).unwrap();
            let cached = cache.exec(&q, Semantics::Provenance, &inputs).unwrap();
            for fused in [&walked, &*cached] {
                assert_eq!(fused.table(), unfused.table(), "values diverged on {pred}");
                assert_eq!(fused.star(), unfused.star(), "star diverged on {pred}");
            }
        }
        // Equi-join on city: 2 matches per row.
        let q = Query::Filter {
            src: Box::new(join),
            pred: Pred::ColCmp(0, CmpOp::Eq, 4),
        };
        assert_eq!(
            exec(Semantics::Values, &q, &inputs)
                .unwrap()
                .table()
                .n_rows(),
            8
        );
    }

    #[test]
    fn cache_serves_lower_semantics_from_higher() {
        let cache = EvalCache::new();
        let inputs = [input()];
        let q = Query::Input(0);
        let full = cache.exec(&q, Semantics::Provenance, &inputs).unwrap();
        let low = cache.exec(&q, Semantics::Values, &inputs).unwrap();
        assert!(Rc::ptr_eq(&full, &low));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn second_chance_sweep_keeps_hot_entries() {
        let mut map: FxMap<usize, Warm<usize>> = FxMap::default();
        for k in 0..10 {
            map.insert(
                k,
                Warm {
                    value: k,
                    hot: Cell::new(false),
                },
            );
        }
        // Touch three entries: they survive the sweep (flags consumed).
        for k in [2, 5, 7] {
            map.get(&k).unwrap().hot.set(true);
        }
        second_chance_sweep(&mut map, 100);
        let mut kept: Vec<usize> = map.keys().copied().collect();
        kept.sort_unstable();
        assert_eq!(kept, vec![2, 5, 7]);
        assert!(map.values().all(|e| !e.hot.get()), "flags must reset");
        // All-hot at a tiny cap: the survivor quota (cap / 2) still
        // guarantees at least half the map is freed.
        for e in map.values() {
            e.hot.set(true);
        }
        second_chance_sweep(&mut map, 3);
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn eval_cache_hit_survives_a_sweep() {
        // Low-water 1: a sweep keeps exactly one entry — the hot one.
        let cache = EvalCache::with_policy(CachePolicy::default().with_cap(8).with_low_water(1));
        let inputs = [input()];
        let hot = Query::Input(0);
        let hot_rc = cache.exec(&hot, Semantics::Values, &inputs).unwrap();
        let cold = Query::Sort {
            src: Box::new(Query::Input(0)),
            cols: vec![0],
            asc: true,
        };
        cache.exec(&cold, Semantics::Values, &inputs).unwrap();
        // Consume both flags (the second chance), then touch only `hot`:
        // the next sweep must evict the cold entry.
        {
            let map = cache.map.borrow_mut();
            for slot in map.values() {
                slot.hot.set(false);
            }
        }
        cache.exec(&hot, Semantics::Values, &inputs).unwrap();
        {
            let mut map = cache.map.borrow_mut();
            cache.sweep_exec(&mut map);
        }
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.cache_stats().evictions, 1);
        // The surviving entry is served from cache (same Rc), the cold
        // one was evicted and recomputes (counted as a re-evaluation).
        let again = cache.exec(&hot, Semantics::Values, &inputs).unwrap();
        assert!(Rc::ptr_eq(&hot_rc, &again));
        cache.exec(&cold, Semantics::Values, &inputs).unwrap();
        assert_eq!(cache.cache_stats().reevals, 1);
    }

    #[test]
    fn cost_aware_sweep_evicts_cheap_cold_entries_first() {
        let cache = EvalCache::with_policy(CachePolicy::default().with_cap(4).with_low_water(2));
        let inputs = [input()];
        let cheap = Query::Input(0);
        let expensive = Query::Sort {
            src: Box::new(Query::Input(0)),
            cols: vec![0],
            asc: true,
        };
        cache.exec(&cheap, Semantics::Values, &inputs).unwrap();
        let kept = cache.exec(&expensive, Semantics::Values, &inputs).unwrap();
        {
            // Make both cold and force a cost gap the timer cannot blur.
            let mut map = cache.map.borrow_mut();
            for (q, slot) in map.iter_mut() {
                slot.hot.set(false);
                slot.cost.set(if *q == expensive { u64::MAX } else { 0 });
            }
            cache.sweep_exec(&mut map);
        }
        // Down to low_water = 2? len was 2 == low_water, nothing to evict;
        // rerun with an extra entry to force one eviction.
        let third = Query::Filter {
            src: Box::new(Query::Input(0)),
            pred: Pred::ColCmp(0, sickle_table::CmpOp::Eq, 0),
        };
        cache.exec(&third, Semantics::Values, &inputs).unwrap();
        {
            let mut map = cache.map.borrow_mut();
            for (q, slot) in map.iter_mut() {
                slot.hot.set(false);
                slot.cost.set(if *q == expensive {
                    u64::MAX
                } else {
                    slot.cost.get()
                });
            }
            cache.sweep_exec(&mut map);
        }
        assert_eq!(cache.len(), 2);
        // The expensive entry survived both sweeps.
        let again = cache.exec(&expensive, Semantics::Values, &inputs).unwrap();
        assert!(Rc::ptr_eq(&kept, &again));
    }

    #[test]
    fn demoted_entry_keeps_star_and_rederives_identical_sets() {
        let q = Query::Group {
            src: Box::new(Query::Input(0)),
            keys: vec![0],
            agg: AggFunc::Sum,
            target: 2,
        };
        let inputs = [input()];
        let u = RefUniverse::from_tables(&inputs);
        // Reference: a never-evicted cache.
        let fresh = EvalCache::new();
        let reference = fresh.exec(&q, Semantics::Provenance, &inputs).unwrap();
        let ref_sets = reference.sets(&u).clone();

        let cache = EvalCache::with_policy(CachePolicy::default());
        let exec = cache.exec(&q, Semantics::Provenance, &inputs).unwrap();
        exec.sets(&u);
        exec.set_ids(&u, cache.pool());
        let star_before = exec.star().clone();
        drop(exec); // release the caller's pin so demotion can act in place
        {
            let mut map = cache.map.borrow_mut();
            let mut demoted = 0;
            let mut purge = Vec::new();
            for slot in map.values_mut() {
                slot.hot.set(false);
                if cache.demote_slot(slot, &mut purge) {
                    demoted += 1;
                }
            }
            // Only the group entry had materialized channels to free; the
            // child entry (nothing derived) is a no-op.
            assert_eq!(demoted, 1);
        }
        // The demoted entry still hits at the provenance level, with the
        // star channel intact and the derived channels empty.
        let demoted = cache.peek(&q).expect("entry stays cached");
        assert_eq!(*demoted.star(), star_before);
        assert!(demoted.sets.get().is_none(), "sets must be freed");
        assert!(demoted.set_ids.get().is_none(), "set ids must be freed");
        // Re-derivation is byte-identical to the never-evicted run.
        assert_eq!(*demoted.sets(&u), ref_sets);
        for (i, j) in [(0, 0), (1, 1)] {
            assert_eq!(*demoted.cell_set(&u, i, j), ref_sets[(i, j)]);
        }
    }

    #[test]
    fn demotion_replaces_pinned_entries_and_purges_their_memos() {
        let group = Query::Group {
            src: Box::new(Query::Input(0)),
            keys: vec![0],
            agg: AggFunc::Sum,
            target: 2,
        };
        let inputs = [input()];
        let u = RefUniverse::from_tables(&inputs);
        let cache = EvalCache::new();
        // Materialize through the grouping memo so the child is pinned by
        // `groups` / `group_parts` (and hold our own pin too).
        let child = cache
            .exec(&Query::Input(0), Semantics::Provenance, &inputs)
            .unwrap();
        cache.exec(&group, Semantics::Provenance, &inputs).unwrap();
        child.sets(&u);
        assert!(!cache.groups.borrow().is_empty());
        {
            // Everything is cold: the real sweep path demotes and batch-
            // purges the replaced entries' memos.
            let mut map = cache.map.borrow_mut();
            for slot in map.values() {
                slot.hot.set(false);
            }
            cache.sweep_exec(&mut map);
        }
        // The pinned child was replaced, not mutated: our pin still holds
        // the materialized sets, while the cached entry starts clean and
        // the address-keyed grouping memos were purged.
        let replaced = cache.peek(&Query::Input(0)).unwrap();
        assert!(!Rc::ptr_eq(&child, &replaced));
        assert!(replaced.sets.get().is_none());
        assert!(cache.groups.borrow().is_empty());
        assert!(cache.group_parts.borrow().is_empty());
        // Re-derived sets equal the pinned originals.
        assert_eq!(*replaced.sets(&u), *child.sets(&u));
    }

    #[test]
    fn tiny_caps_sweep_without_stalling() {
        // Caps where a `cap / 2` low-water mark rounds to ≤ 1: the cache
        // must keep serving correct results, keep the map at or below the
        // cap, and never panic.
        let inputs = [input()];
        let queries: Vec<Query> = (0..4)
            .flat_map(|c| {
                [true, false].map(|asc| Query::Sort {
                    src: Box::new(Query::Input(0)),
                    cols: vec![c],
                    asc,
                })
            })
            .collect();
        for policy in [
            CachePolicy::default().with_cap(1),
            CachePolicy::default().with_cap(2),
            CachePolicy::default().with_cap(3),
        ] {
            let cache = EvalCache::with_policy(policy);
            for round in 0..3 {
                for q in &queries {
                    let out = cache.exec(q, Semantics::Values, &inputs).unwrap();
                    assert_eq!(out.table().n_rows(), 4, "round {round} policy {policy:?}");
                    assert!(
                        cache.len() <= policy.cap,
                        "len {} > cap {} under {policy:?}",
                        cache.len(),
                        policy.cap
                    );
                }
            }
            let stats = cache.cache_stats();
            assert!(stats.sweeps > 0, "tiny cap must sweep: {policy:?}");
            assert!(stats.evictions > 0, "tiny cap must evict: {policy:?}");
            assert!(
                stats.reevals > 0,
                "repeat rounds over an evicting cache must re-evaluate: {policy:?}"
            );
        }
    }

    #[test]
    fn equi_key_split_recognizes_cross_side_equalities_only() {
        let pred = Pred::And(
            Box::new(Pred::And(
                Box::new(Pred::ColCmp(0, CmpOp::Eq, 4)), // equi
                Box::new(Pred::ColCmp(0, CmpOp::Eq, 1)), // same side
            )),
            Box::new(Pred::And(
                Box::new(Pred::ColCmp(5, CmpOp::Eq, 2)), // equi, flipped
                Box::new(Pred::ColConst(3, CmpOp::Eq, Value::Int(1))), // constant
            )),
        );
        let (keys, residual) = split_equi_pred(&pred, 4);
        assert_eq!(keys, vec![(0, 0), (2, 1)]);
        assert_eq!(residual.len(), 2);
        // `true` conjuncts vanish rather than becoming residual work.
        let (keys, residual) = split_equi_pred(&Pred::True, 4);
        assert!(keys.is_empty() && residual.is_empty());
    }

    #[test]
    fn benefit_aware_demotion_frees_unprobed_sets() {
        let inputs = [input()];
        let u = RefUniverse::from_tables(&inputs);
        // Cap high enough that the manual sweep below evicts nothing.
        let cache = EvalCache::with_policy(CachePolicy::default().with_cap(64));
        let probed = Query::Group {
            src: Box::new(Query::Input(0)),
            keys: vec![0],
            agg: AggFunc::Sum,
            target: 2,
        };
        let unprobed = Query::Group {
            src: Box::new(Query::Input(0)),
            keys: vec![1],
            agg: AggFunc::Sum,
            target: 2,
        };
        for q in [&probed, &unprobed] {
            let out = cache.exec(q, Semantics::Provenance, &inputs).unwrap();
            out.sets(&u);
        }
        // One entry is re-probed (a cache hit bumps its probe count), the
        // other is left at zero probes; both are hot.
        cache.exec(&probed, Semantics::Provenance, &inputs).unwrap();
        {
            let mut map = cache.map.borrow_mut();
            cache.sweep_exec(&mut map);
        }
        assert_eq!(cache.cache_stats().evictions, 0);
        assert!(cache.cache_stats().demotions > 0);
        let kept = cache.peek(&probed).unwrap();
        assert!(
            kept.sets.get().is_some(),
            "re-probed entry must keep its derived sets"
        );
        let freed = cache.peek(&unprobed).unwrap();
        assert!(
            freed.sets.get().is_none(),
            "never-probed entry must be demoted"
        );
        // Demotion is transparent: the sets re-derive identically.
        let fresh = EvalCache::new();
        let want = fresh
            .exec(&unprobed, Semantics::Provenance, &inputs)
            .unwrap();
        assert_eq!(*freed.sets(&u), *want.sets(&u));
    }

    /// 40 rows × 4 columns = 160 cells: reference sets over this input
    /// exceed the inline width, so conversions take the wide path.
    fn tall_input() -> Table {
        Table::new(
            ["k", "g", "v", "w"],
            (0..40)
                .map(|i| {
                    let i = i as i64;
                    vec![
                        (i % 3).into(),
                        (i % 2).into(),
                        i.into(),
                        (i * 7 % 11).into(),
                    ]
                })
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn aggregate_window_rows_share_one_term_per_partition() {
        use std::hash::{BuildHasher, RandomState};
        let q = Query::Partition {
            src: Box::new(Query::Input(0)),
            keys: vec![0],
            func: AnalyticFunc::Agg(AggFunc::Sum),
            target: 2,
        };
        let inputs = [input()];
        let cache = EvalCache::new();
        let direct = exec(Semantics::Provenance, &q, &inputs).unwrap();
        let shared = cache.exec(&q, Semantics::Provenance, &inputs).unwrap();
        for out in [&direct, &*shared] {
            let col = out.star().column(4);
            let block = |row: usize| col[row].payload().expect("window terms are compound");
            // Rows 0, 1 are city A, rows 2, 3 city B: one block each.
            assert!(Arc::ptr_eq(block(0), block(1)));
            assert!(Arc::ptr_eq(block(2), block(3)));
            assert!(!Arc::ptr_eq(block(0), block(2)));
            // Sharing is invisible: the shared term equals, hashes and
            // prints as the same term built from scratch.
            let scratch = Expr::apply(
                sickle_provenance::FuncName::Agg(AggFunc::Sum),
                &[
                    Expr::Ref(CellRef::new(0, 0, 2)),
                    Expr::Ref(CellRef::new(0, 1, 2)),
                ],
            );
            assert!(!Arc::ptr_eq(block(1), scratch.payload().unwrap()));
            assert_eq!(col[1], scratch);
            let hasher = RandomState::new();
            assert_eq!(hasher.hash_one(&col[1]), hasher.hash_one(&scratch));
            assert_eq!(col[1].to_string(), scratch.to_string());
            assert_eq!(col[1].to_string(), "sum(T1[1,3], T1[2,3])");
        }
    }

    #[test]
    fn star_col_sets_match_naive_refs() {
        let group = Query::Group {
            src: Box::new(Query::Input(0)),
            keys: vec![0, 1],
            agg: AggFunc::Sum,
            target: 2,
        };
        let mut queries = Vec::new();
        for func in AnalyticFunc::ALL {
            let window = Query::Partition {
                src: Box::new(group.clone()),
                keys: vec![0],
                func,
                target: 2,
            };
            queries.push(Query::Arith {
                src: Box::new(window.clone()),
                func: ArithExpr::bin(ArithOp::Div, ArithExpr::Param(0), ArithExpr::Param(1)),
                cols: vec![2, 3],
            });
            queries.push(window);
        }
        for inputs in [[input()], [tall_input()]] {
            let u = RefUniverse::from_tables(&inputs);
            let cache = EvalCache::new();
            for q in &queries {
                let out = cache.exec(q, Semantics::Provenance, &inputs).unwrap();
                let star = out.star();
                for c in 0..star.n_cols() {
                    let naive: Vec<RefSet> = star
                        .column(c)
                        .iter()
                        .map(|e| u.set_from(e.refs()))
                        .collect();
                    assert_eq!(*cache.star_col_sets(star, &u, c), naive, "{q} col {c}");
                    // The memoized entry is the same conversion.
                    assert_eq!(*cache.star_col_sets(star, &u, c), naive, "{q} col {c}");
                }
            }
        }
    }

    #[test]
    fn exec_once_matches_exec_without_storing_the_query() {
        let inputs = [input()];
        let u = RefUniverse::from_tables(&inputs);
        let group = Query::Group {
            src: Box::new(Query::Input(0)),
            keys: vec![0],
            agg: AggFunc::Sum,
            target: 2,
        };
        let queries = [
            Query::Input(0),
            group.clone(),
            Query::Arith {
                src: Box::new(group.clone()),
                func: ArithExpr::bin(ArithOp::Div, ArithExpr::Param(0), ArithExpr::Param(1)),
                cols: vec![1, 1],
            },
            Query::Partition {
                src: Box::new(group),
                keys: vec![],
                func: AnalyticFunc::CumSum,
                target: 1,
            },
            Query::Filter {
                src: Box::new(Query::Join {
                    left: Box::new(Query::Input(0)),
                    right: Box::new(Query::Input(0)),
                }),
                pred: Pred::ColCmp(0, CmpOp::Eq, 4),
            },
        ];
        for q in &queries {
            for sem in [Semantics::Values, Semantics::Provenance] {
                let reference = EvalCache::new();
                let expected = reference.exec(q, sem, &inputs).unwrap();
                let cache = EvalCache::new();
                let once = cache.exec_once(q, sem, &inputs).unwrap();
                assert_eq!(once.table(), expected.table(), "{q}");
                assert_eq!(once.try_star(), expected.try_star(), "{q}");
                if sem == Semantics::Provenance {
                    assert_eq!(once.sets(&u), expected.sets(&u), "{q}");
                }
                // Everything `exec` stores except the query itself.
                assert_eq!(cache.len(), reference.len() - 1, "{q}");
                assert!(cache.peek(q).is_none(), "{q}");
                // Again, with every child a hit: nothing stored or charged.
                let charged = cache.cache_stats().mem_charged;
                cache.exec_once(q, sem, &inputs).unwrap();
                assert_eq!(cache.len(), reference.len() - 1, "{q}");
                assert_eq!(cache.cache_stats().mem_charged, charged, "{q}");
                // A stored query is served from the store.
                let stored = cache.exec(q, sem, &inputs).unwrap();
                let served = cache.exec_once(q, sem, &inputs).unwrap();
                assert!(Rc::ptr_eq(&stored, &served), "{q}");
                assert_eq!(cache.len(), reference.len(), "{q}");
            }
        }
        // Errors are the same and store nothing for the failing query.
        let bad = Query::Proj {
            src: Box::new(Query::Input(0)),
            cols: vec![9],
        };
        let cache = EvalCache::new();
        let once = cache.exec_once(&bad, Semantics::Provenance, &inputs);
        assert_eq!(
            once.unwrap_err(),
            cache
                .exec(&bad, Semantics::Provenance, &inputs)
                .unwrap_err()
        );
        assert!(cache.peek(&bad).is_none());
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn missing_input_errors() {
        let err = exec(Semantics::Values, &Query::Input(3), &[input()]).unwrap_err();
        assert!(matches!(err, EvalError::NoSuchInput { index: 3, .. }));
    }
}
