//! Cross-sibling caching of abstract-consistency analyses.
//!
//! During refinement, the many sibling expansions of one skeleton produce
//! abstract tables that repeat: structural operators propagate the child's
//! grid untouched, broadcasts reuse the same column unions, and distinct
//! parameter choices frequently collapse onto identical set contents. With
//! sets interned in a [`RefSetPool`], that repetition becomes *visible* —
//! equal content means equal [`SetId`]s — so analysis results can be
//! cached by id-grid instead of being recomputed per partial query.
//!
//! [`AnalysisCache`] keeps two sharded memo layers for the Def. 3 check:
//!
//! * **column candidates** — for each (demo column, abstract column
//!   contents) pair, whether the column can host the demo column (every
//!   demo row finds a compatible table row). Sibling tables share whole
//!   columns, so this layer hits even when full grids differ;
//! * **verdicts** — the final consistency verdict per (demo, abstract
//!   id-grid), shared across all partial queries that abstract to the
//!   same table.
//!
//! One cache serves one *session*: demonstrations are registered up front
//! ([`AnalysisCache::register_demo`]) and each distinct demo id-grid gets
//! a collision-free [`DemoToken`] that becomes the demo-fingerprint
//! component of every verdict key, so verdicts for different
//! demonstrations never alias. Demo *columns* are fingerprinted by
//! content, not position: two registered demos that share an unchanged
//! column share its column-layer memos, which is what lets a warm edit
//! keep the memos an edit did not touch. [`AnalysisCache::purge_demo`]
//! drops a superseded demo's verdicts and any column memos no remaining
//! demo can reach, refunding their bytes.
//!
//! A cache is `Sync` and is shared across the parallel search workers —
//! every map is sharded behind short-lived locks, so there is no global
//! mutex on the hot path.

use std::fmt;
use std::hash::{BuildHasher, Hash};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use sickle_table::Grid;

use crate::matching::{find_table_match_with_candidates, MatchDims};
use crate::pool::{FxBuild, FxMap, RefSetPool, SetId};
use crate::ref_set::RefSet;

/// Number of lock shards per memo layer (power of two).
const SHARDS: usize = 16;

/// Bound per shard; full shards are cleared (entries are recomputable).
const SHARD_CAP: usize = 1 << 14;

/// Abstract tables below this cell count are matched directly — key
/// construction would cost more than the matcher itself.
const MEMO_MIN_CELLS: usize = 64;

/// Approximate fixed bytes of one memo entry beyond its id payload
/// (boxed-slice header, verdict, hash bucket).
const ENTRY_OVERHEAD_BYTES: usize = 32;

/// Approximate bytes of one entry whose key carries `n_ids` interned ids.
fn entry_bytes(n_ids: usize) -> usize {
    n_ids * std::mem::size_of::<SetId>() + ENTRY_OVERHEAD_BYTES
}

/// Key of the verdict layer: the demo fingerprint plus the abstract
/// table's interned contents. (`n_cols` is implied by
/// `ids.len() / n_rows`.)
#[derive(PartialEq, Eq, Hash)]
struct GridKey {
    /// Fingerprint of the demonstration the verdict was computed against.
    demo: u64,
    n_rows: u32,
    /// Column-major flattening of the id grid.
    ids: Box<[SetId]>,
}

/// Key of the column layer: (demo-column content token, abstract column
/// contents).
type ColKey = (u64, Box<[SetId]>);

/// Handle to a demonstration registered with an [`AnalysisCache`].
///
/// The token is the demo-fingerprint component of every Def. 3 verdict
/// key: within one cache, equal tokens mean *identical* demo id-grids
/// (tokens are assigned by lookup, not hashing, so they cannot collide).
/// Cloning is cheap (`Arc` bump).
#[derive(Clone)]
pub struct DemoToken {
    demo: u64,
    /// Content token per demo column; shared between registered demos
    /// whose columns are identical.
    cols: Arc<[u64]>,
}

impl DemoToken {
    /// The collision-free fingerprint of the registered demo id-grid.
    pub fn id(&self) -> u64 {
        self.demo
    }
}

impl PartialEq for DemoToken {
    fn eq(&self, other: &DemoToken) -> bool {
        self.demo == other.demo
    }
}

impl Eq for DemoToken {}

impl fmt::Debug for DemoToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DemoToken")
            .field("demo", &self.demo)
            .field("cols", &self.cols)
            .finish()
    }
}

/// Registered demonstrations and the content tokens behind them.
struct Registry {
    /// Demo id-grid (`n_rows`, column-major ids) → its token handle.
    demos: FxMap<(u32, Box<[SetId]>), DemoToken>,
    /// Demo-column contents → content token.
    cols: FxMap<Box<[SetId]>, u64>,
    /// Content token → number of registered demos carrying the column.
    col_refs: FxMap<u64, usize>,
    next_demo: u64,
    next_col: u64,
}

impl Registry {
    fn new() -> Registry {
        Registry {
            demos: FxMap::default(),
            cols: FxMap::default(),
            col_refs: FxMap::default(),
            next_demo: 0,
            next_col: 0,
        }
    }
}

/// What [`AnalysisCache::purge_demo`] removed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PurgeStats {
    /// Verdict-layer entries dropped (keyed by the purged fingerprint).
    pub verdicts: usize,
    /// Column-layer entries dropped (content token now unreachable).
    pub columns: usize,
}

impl PurgeStats {
    /// Total memo entries invalidated by the purge.
    pub fn total(&self) -> usize {
        self.verdicts + self.columns
    }
}

/// Sharded cross-sibling memo of Def. 3 analyses. See the module docs.
pub struct AnalysisCache {
    /// (demo-column content token, abstract column ids) → column feasible.
    columns: Vec<Mutex<FxMap<ColKey, bool>>>,
    /// (demo fingerprint, abstract id-grid) → consistency verdict.
    verdicts: Vec<Mutex<FxMap<GridKey, bool>>>,
    registry: Mutex<Registry>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    /// Approximate bytes held by both memo layers, maintained at insert
    /// and shard-clear sites.
    bytes: AtomicUsize,
    hasher: FxBuild,
}

/// Hit/miss counters of an [`AnalysisCache`] (diagnostics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalysisCacheStats {
    /// Verdicts served from the cache.
    pub hits: usize,
    /// Verdicts computed (then cached).
    pub misses: usize,
}

impl AnalysisCache {
    /// Creates an empty cache.
    pub fn new() -> AnalysisCache {
        AnalysisCache {
            columns: (0..SHARDS).map(|_| Mutex::new(FxMap::default())).collect(),
            verdicts: (0..SHARDS).map(|_| Mutex::new(FxMap::default())).collect(),
            registry: Mutex::new(Registry::new()),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            bytes: AtomicUsize::new(0),
            hasher: FxBuild::default(),
        }
    }

    /// Approximate bytes held by the memo layers (keys, verdicts, hash
    /// buckets). One relaxed load — pollable per request.
    pub fn approx_bytes(&self) -> usize {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Hit/miss counters so far.
    pub fn stats(&self) -> AnalysisCacheStats {
        AnalysisCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Registers a demonstration id-grid and returns its token; the same
    /// grid registers to the same token, a different grid always gets a
    /// fresh one. Columns are tokenized by content so unchanged columns
    /// of an edited demo keep their column-layer memos.
    pub fn register_demo(&self, demo: &Grid<SetId>) -> DemoToken {
        let key: (u32, Box<[SetId]>) = (
            demo.n_rows() as u32,
            (0..demo.n_cols())
                .flat_map(|c| demo.column(c).iter().copied())
                .collect(),
        );
        let mut reg = self.registry.lock().expect("analysis registry lock");
        if let Some(token) = reg.demos.get(&key) {
            return token.clone();
        }
        let id = reg.next_demo;
        reg.next_demo += 1;
        let mut cols = Vec::with_capacity(demo.n_cols());
        for c in 0..demo.n_cols() {
            let content: Box<[SetId]> = demo.column(c).into();
            let tok = match reg.cols.get(&content) {
                Some(&tok) => tok,
                None => {
                    let tok = reg.next_col;
                    reg.next_col += 1;
                    reg.cols.insert(content, tok);
                    tok
                }
            };
            *reg.col_refs.entry(tok).or_insert(0) += 1;
            cols.push(tok);
        }
        let token = DemoToken {
            demo: id,
            cols: cols.into(),
        };
        reg.demos.insert(key, token.clone());
        token
    }

    /// Unregisters a demonstration and drops the memo entries only it
    /// could reach: its verdicts, and the column memos of any column
    /// content no remaining registered demo carries. Bytes are refunded;
    /// the counts feed the `invalidated_verdicts` observability counter.
    ///
    /// Purging a token that was never registered (or already purged) is a
    /// no-op.
    pub fn purge_demo(&self, token: &DemoToken) -> PurgeStats {
        let orphaned: Vec<u64> = {
            let mut reg = self.registry.lock().expect("analysis registry lock");
            let key = reg
                .demos
                .iter()
                .find(|(_, t)| t.demo == token.demo)
                .map(|(k, _)| (k.0, k.1.clone()));
            let Some(key) = key else {
                return PurgeStats::default();
            };
            reg.demos.remove(&key);
            let mut orphaned = Vec::new();
            for &tok in token.cols.iter() {
                let refs = reg
                    .col_refs
                    .get_mut(&tok)
                    .expect("registered column token has a refcount");
                *refs -= 1;
                if *refs == 0 {
                    reg.col_refs.remove(&tok);
                    orphaned.push(tok);
                }
            }
            reg.cols.retain(|_, tok| !orphaned.contains(tok));
            orphaned
        };

        let mut purged = PurgeStats::default();
        for shard in &self.verdicts {
            let mut map = shard.lock().expect("analysis verdict lock");
            let before = map.len();
            let mut freed = 0usize;
            map.retain(|k, _| {
                if k.demo == token.demo {
                    freed += entry_bytes(k.ids.len());
                    false
                } else {
                    true
                }
            });
            purged.verdicts += before - map.len();
            self.bytes.fetch_sub(freed, Ordering::Relaxed);
        }
        if !orphaned.is_empty() {
            for shard in &self.columns {
                let mut map = shard.lock().expect("analysis column lock");
                let before = map.len();
                let mut freed = 0usize;
                map.retain(|(tok, ids), _| {
                    if orphaned.contains(tok) {
                        freed += entry_bytes(ids.len());
                        false
                    } else {
                        true
                    }
                });
                purged.columns += before - map.len();
                self.bytes.fetch_sub(freed, Ordering::Relaxed);
            }
        }
        purged
    }

    fn shard_of<K: Hash>(&self, key: &K) -> usize {
        (self.hasher.hash_one(key) as usize) & (SHARDS - 1)
    }

    /// The abstract provenance consistency check `E ◁ T◦` (Def. 3) over
    /// interned grids, with cross-sibling caching: does an injective
    /// subtable assignment exist under which every demonstration cell's
    /// references are contained in the abstract cell?
    ///
    /// Equivalent to running [`crate::find_table_match`] over
    /// `pool.subset` cell tests; `token` must be the
    /// [`AnalysisCache::register_demo`] handle for `demo` — it keys the
    /// memo layers so verdicts of different demonstrations never alias.
    pub fn consistent(
        &self,
        token: &DemoToken,
        demo: &Grid<SetId>,
        abs: &Grid<SetId>,
        pool: &RefSetPool,
    ) -> bool {
        let dims = MatchDims {
            demo_rows: demo.n_rows(),
            demo_cols: demo.n_cols(),
            table_rows: abs.n_rows(),
            table_cols: abs.n_cols(),
        };
        if dims.demo_rows > dims.table_rows || dims.demo_cols > dims.table_cols {
            return false;
        }
        if dims.demo_rows == 0 || dims.demo_cols == 0 {
            return true;
        }

        // For small abstract tables, running the matcher outright is
        // cheaper than building and probing grid-content keys: the memo
        // layers only engage where matching is genuinely expensive.
        if dims.table_rows * dims.table_cols < MEMO_MIN_CELLS {
            return self.check(dims, token, demo, abs, pool, false);
        }
        let key = GridKey {
            demo: token.demo,
            n_rows: abs.n_rows() as u32,
            ids: (0..abs.n_cols())
                .flat_map(|c| abs.column(c).iter().copied())
                .collect(),
        };
        let shard = self.shard_of(&key);
        if let Some(&v) = self.verdicts[shard]
            .lock()
            .expect("analysis verdict lock")
            .get(&key)
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return v;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);

        let verdict = self.check(dims, token, demo, abs, pool, true);
        let mut map = self.verdicts[shard].lock().expect("analysis verdict lock");
        if map.len() >= SHARD_CAP {
            let freed: usize = map.keys().map(|k| entry_bytes(k.ids.len())).sum();
            self.bytes.fetch_sub(freed, Ordering::Relaxed);
            map.clear();
        }
        let added = entry_bytes(key.ids.len());
        if map.insert(key, verdict).is_none() {
            self.bytes.fetch_add(added, Ordering::Relaxed);
        }
        verdict
    }

    fn check(
        &self,
        dims: MatchDims,
        token: &DemoToken,
        demo: &Grid<SetId>,
        abs: &Grid<SetId>,
        pool: &RefSetPool,
        memo_columns: bool,
    ) -> bool {
        // Resolve both grids into local buffers under one short-lived
        // store guard (clones are inline copies or `Arc` bumps); the
        // candidate loops and the backtracking matcher below then run
        // entirely lock-free. Holding the guard across the matcher
        // instead would park every other worker's intern behind a
        // potentially long (worst-case exponential) read hold.
        let (demo_sets, abs_sets): (Vec<RefSet>, Vec<RefSet>) = {
            let store = pool.store();
            let resolve = |g: &Grid<SetId>| -> Vec<RefSet> {
                (0..g.n_cols())
                    .flat_map(|c| {
                        g.column(c)
                            .iter()
                            .map(|id| store[id.raw() as usize].clone())
                    })
                    .collect()
            };
            (resolve(demo), resolve(abs))
        };
        // Column-major flattening: cell (i, j) lives at j * n_rows + i.
        let dset = |di: usize, dj: usize| -> &RefSet { &demo_sets[dj * dims.demo_rows + di] };
        let acol = |tj: usize| -> &[RefSet] {
            &abs_sets[tj * dims.table_rows..(tj + 1) * dims.table_rows]
        };

        // Column candidates, each (demo column content, column-contents)
        // memoized across sibling tables that share the column (for
        // tables large enough that the key pays for itself).
        let mut col_candidates: Vec<Vec<usize>> = Vec::with_capacity(dims.demo_cols);
        for dj in 0..dims.demo_cols {
            let mut cands = Vec::new();
            for tj in 0..dims.table_cols {
                let direct = || {
                    (0..dims.demo_rows)
                        .all(|di| acol(tj).iter().any(|t| dset(di, dj).is_subset_of(t)))
                };
                let feasible = if memo_columns && dj < token.cols.len() {
                    self.column_feasible(token.cols[dj], abs.column(tj), direct)
                } else {
                    direct()
                };
                if feasible {
                    cands.push(tj);
                }
            }
            if cands.is_empty() {
                return false;
            }
            col_candidates.push(cands);
        }
        find_table_match_with_candidates(dims, &col_candidates, &mut |di, dj, ti, tj| {
            dset(di, dj).is_subset_of(&acol(tj)[ti])
        })
        .is_some()
    }

    /// Memoized "can abstract column host this demo column" test, keyed
    /// by the demo column's content token: every demo row must find at
    /// least one table row whose set contains it (`compute` decides that
    /// on a miss).
    fn column_feasible(
        &self,
        col_token: u64,
        abs_ids: &[SetId],
        compute: impl FnOnce() -> bool,
    ) -> bool {
        let key = (col_token, abs_ids.to_vec().into_boxed_slice());
        let shard = self.shard_of(&key);
        if let Some(&v) = self.columns[shard]
            .lock()
            .expect("analysis column lock")
            .get(&key)
        {
            return v;
        }
        let v = compute();
        let mut map = self.columns[shard].lock().expect("analysis column lock");
        if map.len() >= SHARD_CAP {
            let freed: usize = map.keys().map(|(_, ids)| entry_bytes(ids.len())).sum();
            self.bytes.fetch_sub(freed, Ordering::Relaxed);
            map.clear();
        }
        let added = entry_bytes(key.1.len());
        if map.insert(key, v).is_none() {
            self.bytes.fetch_add(added, Ordering::Relaxed);
        }
        v
    }
}

impl Default for AnalysisCache {
    fn default() -> AnalysisCache {
        AnalysisCache::new()
    }
}

impl fmt::Debug for AnalysisCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.stats();
        f.debug_struct("AnalysisCache")
            .field("hits", &s.hits)
            .field("misses", &s.misses)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CellRef;
    use crate::find_table_match;
    use crate::ref_set::RefUniverse;
    use sickle_table::Table;

    fn setup() -> (RefUniverse, RefSetPool) {
        let t = Table::new(
            ["a", "b", "c"],
            (0..4)
                .map(|i| (0..3).map(|j| (i * 3 + j).into()).collect())
                .collect(),
        )
        .unwrap();
        (RefUniverse::from_tables(&[t]), RefSetPool::new())
    }

    fn grid(pool: &RefSetPool, u: &RefUniverse, rows: &[&[&[CellRef]]]) -> Grid<SetId> {
        Grid::from_rows(
            rows.iter()
                .map(|r| {
                    r.iter()
                        .map(|refs| pool.intern_refs(u, refs.iter().copied()))
                        .collect()
                })
                .collect(),
        )
        .unwrap()
    }

    /// Cached verdicts equal the direct (uncached) Def. 3 matching.
    #[test]
    fn agrees_with_direct_matching() {
        let (u, pool) = setup();
        let cache = AnalysisCache::new();
        let r = |i: usize, j: usize| CellRef::new(0, i, j);
        let demo = grid(&pool, &u, &[&[&[r(0, 0)], &[r(0, 1), r(1, 1)]]]);
        let token = cache.register_demo(&demo);
        let yes = grid(
            &pool,
            &u,
            &[
                &[&[r(0, 0), r(1, 0)], &[r(0, 1), r(1, 1), r(2, 1)]],
                &[&[r(3, 0)], &[r(3, 1)]],
            ],
        );
        let no = grid(
            &pool,
            &u,
            &[&[&[r(0, 0)], &[r(2, 1)]], &[&[r(3, 0)], &[r(3, 1)]]],
        );
        for abs in [&yes, &no] {
            let direct = find_table_match(
                MatchDims {
                    demo_rows: demo.n_rows(),
                    demo_cols: demo.n_cols(),
                    table_rows: abs.n_rows(),
                    table_cols: abs.n_cols(),
                },
                &mut |di, dj, ti, tj| pool.subset(demo[(di, dj)], abs[(ti, tj)]),
            )
            .is_some();
            assert_eq!(cache.consistent(&token, &demo, abs, &pool), direct);
            // Repeat query returns the same answer.
            assert_eq!(cache.consistent(&token, &demo, abs, &pool), direct);
        }
        // These tables are below the memo size gate: matched directly.
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (0, 0));
    }

    /// Tables at or above the size gate go through the verdict memo.
    #[test]
    fn large_tables_use_the_verdict_memo() {
        let (u, pool) = setup();
        let cache = AnalysisCache::new();
        let r = |i: usize, j: usize| CellRef::new(0, i, j);
        let demo = grid(&pool, &u, &[&[&[r(0, 0)]]]);
        let token = cache.register_demo(&demo);
        // 16 × 4 = 64 cells ≥ MEMO_MIN_CELLS; row 0 hosts the demo cell.
        let abs: Grid<SetId> = Grid::from_rows(
            (0..16)
                .map(|i| {
                    (0..4)
                        .map(|j| pool.intern_refs(&u, [r(i % 4, j % 3), r(0, 0)]))
                        .collect()
                })
                .collect(),
        )
        .unwrap();
        assert!(cache.consistent(&token, &demo, &abs, &pool));
        assert!(cache.consistent(&token, &demo, &abs, &pool));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn memoized_verdicts_are_byte_accounted() {
        let (u, pool) = setup();
        let cache = AnalysisCache::new();
        assert_eq!(cache.approx_bytes(), 0);
        let r = |i: usize, j: usize| CellRef::new(0, i, j);
        let demo = grid(&pool, &u, &[&[&[r(0, 0)]]]);
        let token = cache.register_demo(&demo);
        let abs: Grid<SetId> = Grid::from_rows(
            (0..16)
                .map(|i| {
                    (0..4)
                        .map(|j| pool.intern_refs(&u, [r(i % 4, j % 3), r(0, 0)]))
                        .collect()
                })
                .collect(),
        )
        .unwrap();
        assert!(cache.consistent(&token, &demo, &abs, &pool));
        let after_miss = cache.approx_bytes();
        assert!(after_miss > 0, "verdict memo must charge bytes");
        // A cache hit charges nothing further.
        assert!(cache.consistent(&token, &demo, &abs, &pool));
        assert_eq!(cache.approx_bytes(), after_miss);
    }

    #[test]
    fn oversized_demo_rejected_without_caching() {
        let (u, pool) = setup();
        let cache = AnalysisCache::new();
        let r = |i: usize, j: usize| CellRef::new(0, i, j);
        let demo = grid(&pool, &u, &[&[&[r(0, 0)]], &[&[r(1, 0)]]]);
        let token = cache.register_demo(&demo);
        let abs = grid(&pool, &u, &[&[&[r(0, 0), r(1, 0)]]]);
        assert!(!cache.consistent(&token, &demo, &abs, &pool));
        assert_eq!(cache.stats().misses, 0);
    }

    #[test]
    fn empty_demo_trivially_consistent() {
        let (_, pool) = setup();
        let cache = AnalysisCache::new();
        let demo: Grid<SetId> = Grid::empty(0);
        let token = cache.register_demo(&demo);
        let abs: Grid<SetId> = Grid::empty(2);
        assert!(cache.consistent(&token, &demo, &abs, &pool));
    }

    /// The fingerprint correctness gate: two demonstrations sharing one
    /// cache must never read each other's verdicts, even when the same
    /// abstract table is consistent with one and not the other.
    #[test]
    fn shared_cache_keeps_divergent_demos_apart() {
        let (u, pool) = setup();
        let cache = AnalysisCache::new();
        let r = |i: usize, j: usize| CellRef::new(0, i, j);
        // Every abstract cell below is {r(i%4, j%3), r(0,0)}: demo A's
        // single reference is hosted everywhere, while no cell contains
        // demo B's *pair* of references.
        let demo_a = grid(&pool, &u, &[&[&[r(0, 0)]]]);
        let demo_b = grid(&pool, &u, &[&[&[r(1, 0), r(2, 1)]]]);
        let tok_a = cache.register_demo(&demo_a);
        let tok_b = cache.register_demo(&demo_b);
        assert_ne!(tok_a.id(), tok_b.id());
        let abs: Grid<SetId> = Grid::from_rows(
            (0..16)
                .map(|i| {
                    (0..4)
                        .map(|j| pool.intern_refs(&u, [r(i % 4, j % 3), r(0, 0)]))
                        .collect()
                })
                .collect(),
        )
        .unwrap();
        // Warm the cache with A's verdict, then query B on the *same*
        // abstract grid: a naive shared key would replay A's `true`.
        assert!(cache.consistent(&tok_a, &demo_a, &abs, &pool));
        assert!(!cache.consistent(&tok_b, &demo_b, &abs, &pool));
        // And the reverse order on a fresh cache.
        let cache2 = AnalysisCache::new();
        let tok_a2 = cache2.register_demo(&demo_a);
        let tok_b2 = cache2.register_demo(&demo_b);
        assert!(!cache2.consistent(&tok_b2, &demo_b, &abs, &pool));
        assert!(cache2.consistent(&tok_a2, &demo_a, &abs, &pool));
    }

    /// Registering the same grid twice returns the same token; a purge
    /// then drops its verdicts and refunds their bytes.
    #[test]
    fn purge_drops_verdicts_and_refunds_bytes() {
        let (u, pool) = setup();
        let cache = AnalysisCache::new();
        let r = |i: usize, j: usize| CellRef::new(0, i, j);
        let demo = grid(&pool, &u, &[&[&[r(0, 0)]]]);
        let token = cache.register_demo(&demo);
        assert_eq!(cache.register_demo(&demo), token);
        let abs: Grid<SetId> = Grid::from_rows(
            (0..16)
                .map(|i| {
                    (0..4)
                        .map(|j| pool.intern_refs(&u, [r(i % 4, j % 3), r(0, 0)]))
                        .collect()
                })
                .collect(),
        )
        .unwrap();
        assert!(cache.consistent(&token, &demo, &abs, &pool));
        assert!(cache.approx_bytes() > 0);
        let purged = cache.purge_demo(&token);
        assert!(purged.verdicts >= 1, "verdict entry must be purged");
        assert!(purged.columns >= 1, "orphaned column memo must be purged");
        assert_eq!(cache.approx_bytes(), 0);
        // Double purge is a no-op.
        assert_eq!(cache.purge_demo(&token), PurgeStats::default());
        // The grid can be re-registered and gets a fresh fingerprint.
        let again = cache.register_demo(&demo);
        assert_ne!(again.id(), token.id());
    }

    /// A purge keeps column memos whose content another registered demo
    /// still carries — the survival that makes warm edits cheap.
    #[test]
    fn purge_keeps_columns_shared_with_surviving_demos() {
        let (u, pool) = setup();
        let cache = AnalysisCache::new();
        let r = |i: usize, j: usize| CellRef::new(0, i, j);
        // Same first column, different second column.
        let old = grid(&pool, &u, &[&[&[r(0, 0)], &[r(1, 1)]]]);
        let new = grid(&pool, &u, &[&[&[r(0, 0)], &[r(2, 1)]]]);
        let tok_old = cache.register_demo(&old);
        let tok_new = cache.register_demo(&new);
        // The shared column content resolves to the same content token.
        assert_eq!(tok_old.cols[0], tok_new.cols[0]);
        assert_ne!(tok_old.cols[1], tok_new.cols[1]);
        let abs: Grid<SetId> = Grid::from_rows(
            (0..16)
                .map(|i| {
                    (0..4)
                        .map(|j| pool.intern_refs(&u, [r(i % 4, j % 3), r(0, 0), r(1, 1), r(2, 1)]))
                        .collect()
                })
                .collect(),
        )
        .unwrap();
        assert!(cache.consistent(&tok_old, &old, &abs, &pool));
        let bytes_before = cache.approx_bytes();
        let purged = cache.purge_demo(&tok_old);
        assert_eq!(purged.verdicts, 1);
        // Column 1's memos are orphaned; column 0's survive (shared), so
        // the cache is smaller but not empty.
        assert!(purged.columns >= 1);
        assert!(cache.approx_bytes() < bytes_before);
        assert!(cache.approx_bytes() > 0, "shared column memos survive");
        // The surviving demo still answers correctly after the purge.
        assert!(cache.consistent(&tok_new, &new, &abs, &pool));
    }
}
