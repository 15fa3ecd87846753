//! Abstract provenance semantics `[[q(T̄)]]◦` (Fig. 11) and the abstract
//! consistency check `E ◁ T◦` (Def. 3).
//!
//! Given a *partial* query, the analyzer computes, for every output cell, an
//! over-approximation of the set of input cells that can flow into it under
//! *any* instantiation of the remaining holes. Three precision levels apply
//! per operator, depending on which parameters are instantiated:
//!
//! * **weak** — no parameters known: new cells may draw from anywhere;
//! * **medium** — grouping/partitioning keys known: new cells draw only
//!   from non-key columns (and only from the target column once the
//!   aggregation target is known);
//! * **strong** — keys known *and* the subquery concrete: the concrete key
//!   values determine the groups, so new cells draw only from their own
//!   group.
//!
//! Fully concrete (sub)queries are evaluated precisely through the shared
//! columnar pipeline ([`crate::engine`]), whose lazily-derived ref-set
//! channel ([`ExecTable::sets`]) *is* the exact abstraction — this is the
//! third instantiation of the unified engine.
//!
//! Abstract tables are grids of *interned set ids* over the search's
//! [`RefSetPool`] ([`EvalCache::pool`]): hole-bearing operators broadcast
//! and union 4-byte [`SetId`]s through memoized pool operations instead of
//! cloning `Vec<u64>` bitsets, so the structural rules (`filter`, `sort`,
//! `proj`) are pointer copies and the weak/medium broadcasts copy ids.
//!
//! Pruning rests on Property 2: if no injective subtable assignment embeds
//! the demonstration's reference sets into `T◦` (Def. 3), no instantiation
//! of the partial query can be provenance-consistent, so it is pruned.

use std::rc::Rc;
use std::sync::Arc;

use sickle_table::{Grid, Table};

use sickle_provenance::{
    find_table_match, Demo, MatchDims, RefSet, RefSetPool, RefUniverse, SetId,
};

use crate::ast::{PQuery, Query};
use crate::engine::{EvalCache, ExecTable, Semantics};
use crate::eval::EvalError;

/// Result of abstractly evaluating a partial query.
#[derive(Debug, Clone)]
pub struct AbsTable {
    /// Per-cell over-approximated provenance sets, as ids interned in the
    /// pool of the [`EvalCache`] the table was computed through.
    pub sets: Grid<SetId>,
    /// Present when the evaluated (sub)query was fully concrete: its precise
    /// engine evaluation, used by parent operators to apply the strong
    /// abstraction.
    pub concrete: Option<Rc<ExecTable>>,
}

impl AbsTable {
    /// Materializes the set behind cell `(row, col)`.
    pub fn set(&self, pool: &RefSetPool, row: usize, col: usize) -> RefSet {
        pool.get(self.sets[(row, col)])
    }
}

/// Abstractly evaluates a partial query (Fig. 11). The returned table's
/// ids live in `cache.pool()`; the synthesizer threads one cache (and thus
/// one pool) through the whole search. Subqueries are memoized in `cache`,
/// the query itself is not (use [`abstract_evaluate_rc`] to store it).
///
/// # Errors
///
/// Returns [`EvalError`] if instantiated parameters reference out-of-range
/// tables or columns (the synthesizer's domain inference never does).
pub fn abstract_evaluate(
    pq: &PQuery,
    inputs: &[Table],
    universe: &RefUniverse,
    cache: &EvalCache,
) -> Result<AbsTable, EvalError> {
    abstract_evaluate_once(pq, inputs, universe, cache)
        .map(|rc| Rc::try_unwrap(rc).unwrap_or_else(|rc| (*rc).clone()))
}

/// One-shot abstract evaluation: served from the abstract store when `pq`
/// is there, otherwise computed with every strict subquery memoized
/// through [`abstract_evaluate_rc`] — but `pq` itself is not stored. The
/// search analyzes each partial query once per visit and almost never
/// probes it again, so storing it would only evict the subtrees its
/// siblings share.
pub(crate) fn abstract_evaluate_once(
    pq: &PQuery,
    inputs: &[Table],
    universe: &RefUniverse,
    cache: &EvalCache,
) -> Result<Rc<AbsTable>, EvalError> {
    match cache.abs_get(pq) {
        Some(hit) => Ok(hit),
        None => abstract_evaluate_uncached(pq, inputs, universe, cache).map(Rc::new),
    }
}

/// Memoized evaluator sharing whole abstract tables between the many
/// sibling queries that contain identical subtrees: stores `pq` itself
/// too, so use it for subtrees that will be probed again.
///
/// # Errors
///
/// Same as [`abstract_evaluate`].
pub fn abstract_evaluate_rc(
    pq: &PQuery,
    inputs: &[Table],
    universe: &RefUniverse,
    cache: &EvalCache,
) -> Result<Rc<AbsTable>, EvalError> {
    if let Some(hit) = cache.abs_get(pq) {
        return Ok(hit);
    }
    let computed = abstract_evaluate_uncached(pq, inputs, universe, cache)?;
    let rc = Rc::new(computed);
    cache.abs_put(pq, Rc::clone(&rc));
    Ok(rc)
}

/// Builds a grid whose every row is the same vector of set ids (the weak /
/// medium broadcast shapes). Broadcasting copies 4-byte ids — the sets
/// themselves are interned once in the pool.
fn broadcast_rows(row: &[SetId], n_rows: usize) -> Grid<SetId> {
    Grid::from_columns(row.iter().map(|&s| Arc::new(vec![s; n_rows])).collect())
}

fn abstract_evaluate_uncached(
    pq: &PQuery,
    inputs: &[Table],
    universe: &RefUniverse,
    cache: &EvalCache,
) -> Result<AbsTable, EvalError> {
    let pool: &RefSetPool = cache.pool();
    // A fully concrete (sub)query is evaluated precisely by the engine —
    // the "pass the concrete output for further abstract reasoning" rule
    // of §4. The engine's ref-set channel is the exact abstraction.
    if pq.is_concrete() {
        let q: Query = pq.to_concrete().expect("concrete by check");
        let exec = cache.exec(&q, Semantics::Provenance, inputs)?;
        return Ok(AbsTable {
            sets: exec.set_ids(universe, pool).clone(),
            concrete: Some(exec),
        });
    }

    match pq {
        PQuery::Input(_) => unreachable!("inputs are concrete"),
        // filter/sort with a hole do not create cells: propagate (columns
        // shared, not copied).
        PQuery::Filter { src, .. } | PQuery::Sort { src, .. } => {
            let child = abstract_evaluate_rc(src, inputs, universe, cache)?;
            Ok(AbsTable {
                sets: child.sets.clone(),
                concrete: None,
            })
        }
        PQuery::Proj { src, cols } => {
            let child = abstract_evaluate_rc(src, inputs, universe, cache)?;
            let sets = match cols {
                Some(cols) => {
                    check_cols(cols, child.sets.n_cols(), "proj")?;
                    child.sets.select_columns(cols)
                }
                None => child.sets.clone(),
            };
            Ok(AbsTable {
                sets,
                concrete: None,
            })
        }
        PQuery::Join { left, right } => {
            let l = abstract_evaluate_rc(left, inputs, universe, cache)?;
            let r = abstract_evaluate_rc(right, inputs, universe, cache)?;
            Ok(AbsTable {
                sets: cross_sets(&l.sets, &r.sets),
                concrete: None,
            })
        }
        PQuery::LeftJoin { left, right, .. } => {
            let l = abstract_evaluate_rc(left, inputs, universe, cache)?;
            let r = abstract_evaluate_rc(right, inputs, universe, cache)?;
            let crossed = cross_sets(&l.sets, &r.sets);
            // Unmatched left rows padded with empty provenance.
            let padded = l.sets.hcat(&broadcast_rows(
                &vec![SetId::EMPTY; r.sets.n_cols()],
                l.sets.n_rows(),
            ));
            Ok(AbsTable {
                sets: vcat(&crossed, &padded),
                concrete: None,
            })
        }
        PQuery::Group { src, keys, agg } => {
            let child = abstract_evaluate_rc(src, inputs, universe, cache)?;
            let n_rows = child.sets.n_rows();
            let n_cols = child.sets.n_cols();
            match keys {
                // Weak: keys unknown. Any rows may merge, so every output
                // key cell is the per-column union; the aggregate may draw
                // from anything.
                None => {
                    let col_unions: Vec<SetId> = (0..n_cols)
                        .map(|c| cache.column_union(child.sets.column_arc(c)))
                        .collect();
                    let all = pool.union_slice(&col_unions);
                    let mut row = col_unions;
                    row.push(all);
                    Ok(AbsTable {
                        sets: broadcast_rows(&row, n_rows),
                        concrete: None,
                    })
                }
                Some(keys) => {
                    check_cols(keys, n_cols, "group")?;
                    if let Some((_, target)) = agg {
                        check_cols(&[*target], n_cols, "group")?;
                    }
                    let agg_cols: Vec<usize> = match agg {
                        Some((_, target)) => vec![*target],
                        None => (0..n_cols).filter(|c| !keys.contains(c)).collect(),
                    };
                    match &child.concrete {
                        // Strong: concrete key values determine the groups.
                        Some(conc) => {
                            let groups = cache.groups_of(conc, keys);
                            let mut cols: Vec<Arc<Vec<SetId>>> = Vec::with_capacity(keys.len() + 1);
                            for &k in keys {
                                cols.push(cache.group_unions(child.sets.column_arc(k), &groups));
                            }
                            cols.push(per_group_agg_union(
                                &child.sets,
                                &agg_cols,
                                &groups,
                                cache,
                                pool,
                            ));
                            Ok(AbsTable {
                                sets: Grid::from_columns(cols),
                                concrete: None,
                            })
                        }
                        // Medium: keys known, grouping unknown.
                        None => {
                            let mut row: Vec<SetId> = keys
                                .iter()
                                .map(|&k| cache.column_union(child.sets.column_arc(k)))
                                .collect();
                            let agg_unions: Vec<SetId> = agg_cols
                                .iter()
                                .map(|&c| cache.column_union(child.sets.column_arc(c)))
                                .collect();
                            row.push(pool.union_slice(&agg_unions));
                            Ok(AbsTable {
                                sets: broadcast_rows(&row, n_rows),
                                concrete: None,
                            })
                        }
                    }
                }
            }
        }
        PQuery::Partition { src, keys, func } => {
            let child = abstract_evaluate_rc(src, inputs, universe, cache)?;
            let n_rows = child.sets.n_rows();
            let n_cols = child.sets.n_cols();
            let new_col: Vec<SetId> = match keys {
                // Weak: the window value may draw from anywhere.
                None => {
                    let all = table_union(&child.sets, cache, pool);
                    vec![all; n_rows]
                }
                Some(keys) => {
                    check_cols(keys, n_cols, "partition")?;
                    if let Some((_, target)) = func {
                        check_cols(&[*target], n_cols, "partition")?;
                    }
                    let agg_cols: Vec<usize> = match func {
                        Some((_, target)) => vec![*target],
                        None => (0..n_cols).filter(|c| !keys.contains(c)).collect(),
                    };
                    match &child.concrete {
                        // Strong: per-group unions, scattered back to rows.
                        Some(conc) => {
                            let groups = cache.groups_of(conc, keys);
                            let per_group =
                                per_group_agg_union(&child.sets, &agg_cols, &groups, cache, pool);
                            let mut out: Vec<SetId> = vec![SetId::EMPTY; n_rows];
                            for (g, &u) in groups.iter().zip(per_group.iter()) {
                                for &i in g {
                                    out[i] = u;
                                }
                            }
                            out
                        }
                        // Medium: non-key (or target) columns, any rows.
                        None => {
                            let unions: Vec<SetId> = agg_cols
                                .iter()
                                .map(|&c| cache.column_union(child.sets.column_arc(c)))
                                .collect();
                            let u = pool.union_slice(&unions);
                            vec![u; n_rows]
                        }
                    }
                }
            };
            Ok(AbsTable {
                sets: child.sets.with_column(new_col),
                concrete: None,
            })
        }
        PQuery::Arith { src, func } => {
            let child = abstract_evaluate_rc(src, inputs, universe, cache)?;
            let n_cols = child.sets.n_cols();
            let arg_cols: Vec<usize> = match func {
                // Medium: only the argument columns flow in.
                Some((_, cols)) => {
                    check_cols(cols, n_cols, "arithmetic")?;
                    cols.clone()
                }
                // Weak: any cell of the row may flow in.
                None => (0..n_cols).collect(),
            };
            let set_cols: Vec<&[SetId]> = arg_cols.iter().map(|&c| child.sets.column(c)).collect();
            let mut buf: Vec<SetId> = Vec::with_capacity(set_cols.len());
            let new_col: Vec<SetId> = (0..child.sets.n_rows())
                .map(|r| {
                    buf.clear();
                    buf.extend(set_cols.iter().map(|col| col[r]));
                    pool.union_slice(&buf)
                })
                .collect();
            Ok(AbsTable {
                sets: child.sets.with_column(new_col),
                concrete: None,
            })
        }
    }
}

/// Precomputes, for every demonstration cell, the set of referenced input
/// cells (`ref(E[i,j])` of Def. 3).
pub fn demo_ref_sets(demo: &Demo, universe: &RefUniverse) -> Grid<RefSet> {
    demo.grid().map(|e| universe.set_from(e.refs()))
}

/// The abstract provenance consistency check `E ◁ T◦` (Def. 3): does an
/// injective subtable assignment exist under which every demonstration
/// cell's references are contained in the abstract cell?
///
/// `pool` must be the pool `abs` was computed over (the search's
/// [`EvalCache::pool`]). The hot path of the synthesizer goes through
/// [`sickle_provenance::AnalysisCache::consistent`] instead, which caches
/// verdicts across sibling expansions; this uncached form is the reference
/// implementation and the convenient entry point for tests.
pub fn abstract_consistent(demo_refs: &Grid<RefSet>, abs: &AbsTable, pool: &RefSetPool) -> bool {
    let demo_ids = demo_refs.map(|s| pool.intern(s.clone()));
    let dims = MatchDims {
        demo_rows: demo_ids.n_rows(),
        demo_cols: demo_ids.n_cols(),
        table_rows: abs.sets.n_rows(),
        table_cols: abs.sets.n_cols(),
    };
    find_table_match(dims, &mut |di, dj, ti, tj| {
        pool.subset(demo_ids[(di, dj)], abs.sets[(ti, tj)])
    })
    .is_some()
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

/// Per-group union over the aggregate columns: for the common single
/// target this is the memoized per-group column directly; for multiple
/// columns the memoized per-group vectors are unioned elementwise.
fn per_group_agg_union(
    sets: &Grid<SetId>,
    agg_cols: &[usize],
    groups: &Rc<Vec<Vec<usize>>>,
    cache: &EvalCache,
    pool: &RefSetPool,
) -> Arc<Vec<SetId>> {
    let per_col: Vec<Arc<Vec<SetId>>> = agg_cols
        .iter()
        .map(|&c| cache.group_unions(sets.column_arc(c), groups))
        .collect();
    match per_col.as_slice() {
        [single] => Arc::clone(single),
        many => {
            let mut buf: Vec<SetId> = Vec::with_capacity(many.len());
            Arc::new(
                (0..groups.len())
                    .map(|g| {
                        buf.clear();
                        buf.extend(many.iter().map(|col| col[g]));
                        pool.union_slice(&buf)
                    })
                    .collect(),
            )
        }
    }
}

fn table_union(sets: &Grid<SetId>, cache: &EvalCache, pool: &RefSetPool) -> SetId {
    let col_unions: Vec<SetId> = (0..sets.n_cols())
        .map(|c| cache.column_union(sets.column_arc(c)))
        .collect();
    pool.union_slice(&col_unions)
}

fn cross_sets(l: &Grid<SetId>, r: &Grid<SetId>) -> Grid<SetId> {
    let (lsel, rsel) = sickle_table::cross_selection(l.n_rows(), r.n_rows());
    l.select_rows(&lsel).hcat(&r.select_rows(&rsel))
}

/// Vertical concatenation of two grids with equal column counts.
fn vcat(top: &Grid<SetId>, bottom: &Grid<SetId>) -> Grid<SetId> {
    assert_eq!(top.n_cols(), bottom.n_cols(), "vcat arity");
    Grid::from_columns(
        (0..top.n_cols())
            .map(|c| {
                let mut col = top.column(c).to_vec();
                col.extend(bottom.column(c).iter().copied());
                Arc::new(col)
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sickle_provenance::CellRef;
    use sickle_table::{AggFunc, Table, Value};

    fn enrollment() -> Table {
        Table::new(
            ["City", "Quarter", "Group", "Enrolled", "Population"],
            vec![
                vec![
                    "A".into(),
                    1.into(),
                    "Youth".into(),
                    1667.into(),
                    5668.into(),
                ],
                vec![
                    "A".into(),
                    1.into(),
                    "Adult".into(),
                    1367.into(),
                    5668.into(),
                ],
                vec![
                    "A".into(),
                    2.into(),
                    "Youth".into(),
                    256.into(),
                    5668.into(),
                ],
                vec![
                    "A".into(),
                    2.into(),
                    "Adult".into(),
                    347.into(),
                    5668.into(),
                ],
                vec![
                    "A".into(),
                    3.into(),
                    "Youth".into(),
                    148.into(),
                    5668.into(),
                ],
                vec![
                    "A".into(),
                    3.into(),
                    "Adult".into(),
                    237.into(),
                    5668.into(),
                ],
                vec![
                    "A".into(),
                    4.into(),
                    "Youth".into(),
                    556.into(),
                    5668.into(),
                ],
                vec![
                    "A".into(),
                    4.into(),
                    "Adult".into(),
                    432.into(),
                    5668.into(),
                ],
            ],
        )
        .unwrap()
    }

    /// Fig. 6's infeasible partial query `q_B`:
    /// `arithmetic(group(T, [City,Quarter,Population], □, □), □)`.
    fn q_b() -> PQuery {
        PQuery::Arith {
            src: Box::new(PQuery::Group {
                src: Box::new(PQuery::Input(0)),
                keys: Some(vec![0, 1, 4]),
                agg: None,
            }),
            func: None,
        }
    }

    /// The Fig. 3 demonstration (quarter 1 and quarter 4 of city A).
    fn fig3_demo() -> Demo {
        Demo::parse(&[
            &["T[1,1]", "T[1,2]", "sum(T[1,4], T[2,4]) / T[1,5] * 100"],
            &[
                "T[7,1]",
                "T[7,2]",
                "sum(T[1,4], T[2,4], ..., T[8,4]) / T[7,5] * 100",
            ],
        ])
        .unwrap()
    }

    #[test]
    fn figure6_prunes_qb() {
        let inputs = [enrollment()];
        let u = RefUniverse::from_tables(&inputs);
        let cache = EvalCache::new();
        let abs = abstract_evaluate(&q_b(), &inputs, &u, &cache).unwrap();
        let demo_refs = demo_ref_sets(&fig3_demo(), &u);
        // E[2,3] needs T[1,4], T[2,4] and T[8,4] in one cell, but grouping
        // by (City, Quarter, Population) separates quarters: prune.
        assert!(!abstract_consistent(&demo_refs, &abs, cache.pool()));
    }

    #[test]
    fn correct_skeleton_stays_feasible() {
        // partition(group(T, [City,Quarter,Pop], □, □), □, □) — the path to
        // the solution must NOT be pruned.
        let pq = PQuery::Arith {
            src: Box::new(PQuery::Partition {
                src: Box::new(PQuery::Group {
                    src: Box::new(PQuery::Input(0)),
                    keys: Some(vec![0, 1, 4]),
                    agg: None,
                }),
                keys: None,
                func: None,
            }),
            func: None,
        };
        let inputs = [enrollment()];
        let u = RefUniverse::from_tables(&inputs);
        let cache = EvalCache::new();
        let abs = abstract_evaluate(&pq, &inputs, &u, &cache).unwrap();
        let demo_refs = demo_ref_sets(&fig3_demo(), &u);
        assert!(abstract_consistent(&demo_refs, &abs, cache.pool()));
    }

    #[test]
    fn one_shot_evaluation_stores_subtrees_only() {
        let pq = q_b();
        let PQuery::Arith { src: group, .. } = &pq else {
            unreachable!("q_b is an arithmetic over a group")
        };
        let inputs = [enrollment()];
        let u = RefUniverse::from_tables(&inputs);
        let cache = EvalCache::new();
        let once = abstract_evaluate_once(&pq, &inputs, &u, &cache).unwrap();
        assert!(cache.abs_get(&pq).is_none());
        assert!(cache.abs_get(group).is_some());
        let stored = abstract_evaluate_rc(&pq, &inputs, &u, &cache).unwrap();
        assert_eq!(once.sets, stored.sets);
        // Once stored, the one-shot path is served from the store.
        let hit = abstract_evaluate_once(&pq, &inputs, &u, &cache).unwrap();
        assert!(Rc::ptr_eq(&hit, &stored));
    }

    #[test]
    fn strong_abstraction_restricts_to_group() {
        // group(T, [Quarter], □, □): strong abstraction per quarter.
        let pq = PQuery::Group {
            src: Box::new(PQuery::Input(0)),
            keys: Some(vec![1]),
            agg: None,
        };
        let inputs = [enrollment()];
        let u = RefUniverse::from_tables(&inputs);
        let cache = EvalCache::new();
        let abs = abstract_evaluate(&pq, &inputs, &u, &cache).unwrap();
        assert_eq!(abs.sets.n_rows(), 4); // 4 quarters
                                          // Aggregate cell of quarter-1 group must not contain quarter-4 data.
        let agg = abs.set(cache.pool(), 0, 1);
        assert!(agg.contains(&u, CellRef::new(0, 0, 3)));
        assert!(!agg.contains(&u, CellRef::new(0, 7, 3)));
    }

    #[test]
    fn weak_group_unions_columns() {
        let pq = PQuery::Group {
            src: Box::new(PQuery::Input(0)),
            keys: None,
            agg: None,
        };
        let inputs = [enrollment()];
        let u = RefUniverse::from_tables(&inputs);
        let cache = EvalCache::new();
        let abs = abstract_evaluate(&pq, &inputs, &u, &cache).unwrap();
        assert_eq!(abs.sets.n_cols(), 6);
        assert_eq!(abs.sets.n_rows(), 8);
        // Key cell of column 0 contains the whole City column.
        let key = abs.set(cache.pool(), 0, 0);
        assert!(key.contains(&u, CellRef::new(0, 7, 0)));
        assert!(!key.contains(&u, CellRef::new(0, 0, 1)));
        // New column contains everything.
        assert_eq!(cache.pool().set_len(abs.sets[(0, 5)]), 40);
        // Broadcast rows share one interned id per column.
        assert_eq!(abs.sets[(0, 5)], abs.sets[(7, 5)]);
    }

    #[test]
    fn medium_partition_excludes_key_columns() {
        let pq = PQuery::Partition {
            src: Box::new(PQuery::Group {
                src: Box::new(PQuery::Input(0)),
                keys: Some(vec![0, 1, 4]),
                agg: None, // child NOT concrete -> medium at partition
            }),
            keys: Some(vec![0]),
            func: None,
        };
        let inputs = [enrollment()];
        let u = RefUniverse::from_tables(&inputs);
        let cache = EvalCache::new();
        let abs = abstract_evaluate(&pq, &inputs, &u, &cache).unwrap();
        // New column may draw from quarter, population and the aggregate,
        // but not from the City key column itself.
        let new = abs.set(cache.pool(), 0, 4);
        assert!(!new.contains(&u, CellRef::new(0, 0, 0)));
        assert!(new.contains(&u, CellRef::new(0, 0, 3)));
    }

    #[test]
    fn concrete_query_gets_exact_sets() {
        let pq = PQuery::Group {
            src: Box::new(PQuery::Input(0)),
            keys: Some(vec![1]),
            agg: Some((AggFunc::Sum, 3)),
        };
        let inputs = [enrollment()];
        let u = RefUniverse::from_tables(&inputs);
        let cache = EvalCache::new();
        let abs = abstract_evaluate(&pq, &inputs, &u, &cache).unwrap();
        assert!(abs.concrete.is_some());
        // Aggregate of quarter 1 references exactly the two Enrolled cells.
        let agg = abs.set(cache.pool(), 0, 1);
        assert_eq!(agg.len(), 2);
        assert!(agg.contains(&u, CellRef::new(0, 0, 3)));
        assert!(agg.contains(&u, CellRef::new(0, 1, 3)));
    }

    #[test]
    fn weak_arith_unions_row() {
        let pq = PQuery::Arith {
            src: Box::new(PQuery::Input(0)),
            func: None,
        };
        let inputs = [enrollment()];
        let u = RefUniverse::from_tables(&inputs);
        let cache = EvalCache::new();
        let abs = abstract_evaluate(&pq, &inputs, &u, &cache).unwrap();
        let new = abs.set(cache.pool(), 2, 5);
        assert_eq!(new.len(), 5); // the five cells of row 3
        assert!(new.contains(&u, CellRef::new(0, 2, 0)));
        assert!(!new.contains(&u, CellRef::new(0, 3, 0)));
    }

    #[test]
    fn left_join_abstract_includes_padded_rows() {
        let dims = Table::new(["c"], vec![vec![Value::from("A")]]).unwrap();
        let pq = PQuery::LeftJoin {
            left: Box::new(PQuery::Input(0)),
            right: Box::new(PQuery::Input(1)),
            pred: None,
        };
        let inputs = [enrollment(), dims];
        let u = RefUniverse::from_tables(&inputs);
        let cache = EvalCache::new();
        let abs = abstract_evaluate(&pq, &inputs, &u, &cache).unwrap();
        // 8 cross rows + 8 padded rows.
        assert_eq!(abs.sets.n_rows(), 16);
        assert_eq!(abs.sets[(8, 5)], SetId::EMPTY);
    }
}
