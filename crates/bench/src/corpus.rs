//! The corpus subsystem: a **generate → admit → freeze → run** pipeline
//! that grows the benchmark surface beyond the 80 hand-ported tasks
//! without giving up byte-level determinism.
//!
//! * **Generate** — [`sickle_benchmarks::generate_candidate`] derives a
//!   candidate task (randomized schema, bootstrap-resampled inputs,
//!   ground truth) from one seed; the demo comes from the §5.1
//!   `generate_demo` procedure under the same seed.
//! * **Admit** — [`admit`] runs the candidate on a warm [`Session`]
//!   under a bounded [`Budget`] and keeps it only when it is
//!   solvable-in-budget, its top-ranked solution is correct and
//!   extensionally unambiguous, its demo round-trips through the wire
//!   formula syntax, and a second independent run (fresh session, via
//!   the wire decoder) reproduces the exact solution list. Rejections
//!   carry one of [`REJECT_REASONS`].
//! * **Freeze** — [`freeze_corpus`] writes admitted tasks as versioned
//!   bundles under `corpus/v1/`: a manifest with schema version and
//!   per-task category/seed/content hash, tables as CSV or JSON, the
//!   demo as formula strings, and the expected solution list.
//! * **Run** — [`run_corpus`] executes any [`CorpusFilters`] slice
//!   through the existing wire path ([`crate::wire::handle_line`]) on a
//!   warm session, compares against the frozen expectations, and
//!   produces a deterministic dump + digest ([`render_dump`],
//!   [`corpus_digest`]) that CI can `cmp` across runs, plus
//!   `BENCH_corpus.json` ([`results_json`]).
//!
//! Determinism contract: a task id embeds its seed and the seed fully
//! determines the bundle bytes; two freezes of the same seed/count are
//! byte-identical, and two runs over the same frozen corpus produce
//! byte-identical dumps.

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::{Path, PathBuf};

use sickle_benchmarks::{
    contains_column_subtable, demo_is_consistent_with_gt, generate_demo, CandidateTask,
};
use sickle_core::{
    evaluate, Budget, JoinKey, Query, SearchStats, Session, SynthConfig, SynthRequest,
};
use sickle_provenance::Demo;
use sickle_table::{Table, Value};

use crate::json::Json;
use crate::wire::{stat_fields, stats_from_json};

/// Corpus manifest schema version.
pub const CORPUS_SCHEMA: &str = "sickle-corpus/v1";
/// Per-task bundle schema version.
pub const TASK_SCHEMA: &str = "sickle-corpus-task/v1";
/// `BENCH_corpus.json` schema version.
pub const RESULTS_SCHEMA: &str = "sickle-bench/corpus/v1";

/// Every admission-rejection reason, in tally order.
pub const REJECT_REASONS: [&str; 6] = [
    "demogen_failed",
    "unserializable",
    "unsolved",
    "not_top",
    "ambiguous_top",
    "unstable",
];

/// On-disk table encoding of a bundle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableFormat {
    /// `tableN.json`: `{"columns": […], "rows": [[…]]}`.
    Json,
    /// `tableN.csv`: the [`crate::csv`] codec.
    Csv,
}

impl TableFormat {
    /// The manifest / CLI label.
    pub fn label(self) -> &'static str {
        match self {
            TableFormat::Json => "json",
            TableFormat::Csv => "csv",
        }
    }

    /// Inverse of [`TableFormat::label`].
    pub fn from_label(s: &str) -> Option<TableFormat> {
        match s {
            "json" => Some(TableFormat::Json),
            "csv" => Some(TableFormat::Csv),
            _ => None,
        }
    }
}

/// The search budget frozen into every bundle (admission and every later
/// run use the same bounds, so expectations stay comparable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorpusBudget {
    /// Visit bound (`Budget::with_max_visited`).
    pub max_visited: usize,
    /// Stop after this many consistent solutions.
    pub max_solutions: usize,
}

impl Default for CorpusBudget {
    fn default() -> Self {
        CorpusBudget {
            max_visited: 60_000,
            max_solutions: 10,
        }
    }
}

/// An admitted, freezable task bundle.
#[derive(Debug, Clone)]
pub struct TaskBundle {
    /// Task id: `<category>-<seed>`, filesystem-safe, embeds the seed.
    pub id: String,
    /// The generation seed (fully determines the bundle).
    pub seed: u64,
    /// Family label ([`sickle_benchmarks::CorpusCategory::label`]).
    pub category: String,
    /// Table encoding on disk and over the wire.
    pub format: TableFormat,
    /// Synthesis inputs (the demo-sampled tables the refs point into).
    pub tables: Vec<Table>,
    /// The demonstration as wire formula strings.
    pub demo_rows: Vec<Vec<String>>,
    /// Join-key hints (empty for single-table tasks).
    pub join_keys: Vec<JoinKey>,
    /// Extra constants shipped with the request (usually empty).
    pub constants: Vec<Value>,
    /// Search depth.
    pub max_depth: usize,
    /// Whether join skeletons are enabled.
    pub enable_join: bool,
    /// The frozen search budget.
    pub budget: CorpusBudget,
    /// Expected solutions (rank order, rendered), from admission.
    pub expected: Vec<String>,
    /// Candidates visited during admission (determinism witness).
    pub visited: usize,
    /// Candidates pruned during admission.
    pub pruned: usize,
}

/// Why a candidate was rejected.
#[derive(Debug, Clone)]
pub struct Rejection {
    /// One of [`REJECT_REASONS`].
    pub reason: &'static str,
    /// Human-readable context.
    pub detail: String,
}

fn reject(reason: &'static str, detail: impl Into<String>) -> Rejection {
    Rejection {
        reason,
        detail: detail.into(),
    }
}

// ---------------------------------------------------------------------------
// Admission
// ---------------------------------------------------------------------------

/// Builds the synthesis request exactly as the wire decoder would build it
/// from this bundle's JSON line — admission and replay must search the
/// same space or the frozen expectations are fiction.
fn build_request(
    tables: Vec<Table>,
    demo: Demo,
    join_keys: &[JoinKey],
    constants: &[Value],
    max_depth: usize,
    enable_join: bool,
    budget: &CorpusBudget,
) -> SynthRequest {
    let mut request = SynthRequest::new(tables, demo).with_search(
        SynthConfig::new()
            .with_enable_join(enable_join)
            .with_max_depth(max_depth),
    );
    for jk in join_keys {
        request = request.with_join_key(*jk);
    }
    if !constants.is_empty() {
        request = request.with_constants(constants.to_vec());
    }
    request.budget = Budget::default()
        .with_timeout(None)
        .with_max_visited(Some(budget.max_visited))
        .with_max_solutions(budget.max_solutions);
    request
}

/// Distinct-value set of one column.
fn col_set(t: &Table, c: usize) -> BTreeSet<Value> {
    (0..t.n_rows()).map(|r| t.row(r)[c].clone()).collect()
}

/// Whether `other` expresses the same extensional answer as `top`: some
/// injective mapping of `top`'s columns into `other`'s columns makes the
/// *distinct-row sets* equal. This is deliberately weaker than
/// [`contains_column_subtable`] (which demands equal row counts): a
/// `partition` that broadcasts a group aggregate to every source row
/// agrees with the `group` it shadows, while a same-size solution keyed
/// on a different column genuinely disagrees.
fn extensionally_agrees(top: &Table, other: &Table) -> bool {
    let k = top.n_cols();
    if other.n_cols() < k {
        return false;
    }
    let target: BTreeSet<Vec<Value>> = (0..top.n_rows()).map(|r| top.row(r).to_vec()).collect();
    let top_sets: Vec<BTreeSet<Value>> = (0..k).map(|c| col_set(top, c)).collect();
    let other_sets: Vec<BTreeSet<Value>> = (0..other.n_cols()).map(|c| col_set(other, c)).collect();
    let candidates: Vec<Vec<usize>> = top_sets
        .iter()
        .map(|ts| {
            (0..other.n_cols())
                .filter(|&oc| other_sets[oc] == *ts)
                .collect()
        })
        .collect();

    fn assign(
        j: usize,
        candidates: &[Vec<usize>],
        used: &mut Vec<bool>,
        chosen: &mut Vec<usize>,
        other: &Table,
        target: &BTreeSet<Vec<Value>>,
    ) -> bool {
        if j == candidates.len() {
            let projected: BTreeSet<Vec<Value>> = (0..other.n_rows())
                .map(|r| chosen.iter().map(|&c| other.row(r)[c].clone()).collect())
                .collect();
            return projected == *target;
        }
        for &oc in &candidates[j] {
            if used[oc] {
                continue;
            }
            used[oc] = true;
            chosen.push(oc);
            if assign(j + 1, candidates, used, chosen, other, target) {
                return true;
            }
            chosen.pop();
            used[oc] = false;
        }
        false
    }

    let mut used = vec![false; other.n_cols()];
    let mut chosen = Vec::with_capacity(k);
    assign(0, &candidates, &mut used, &mut chosen, other, &target)
}

/// Whether a value survives a JSON number round trip with its storage
/// representation intact (whole floats come back as ints).
fn json_roundtrip_safe(v: &Value) -> bool {
    match v {
        Value::Float(x) => x.is_finite() && x.fract() != 0.0,
        _ => true,
    }
}

/// Runs the admission gates on one candidate. The `session` should be a
/// warm corpus-generation session (reused across candidates); the
/// stability gate runs on its own fresh session through the wire decoder,
/// so warm-state leakage or demo-serialization drift is caught here and
/// not at corpus-run time.
pub fn admit(
    cand: &CandidateTask,
    budget: &CorpusBudget,
    session: &Session,
) -> Result<TaskBundle, Rejection> {
    // Gate 1: the §5.1 demo generator must succeed and be consistent.
    let gen = generate_demo(&cand.inputs, &cand.q_gt, &cand.out_cols, cand.seed)
        .map_err(|e| reject("demogen_failed", e.to_string()))?;
    if !demo_is_consistent_with_gt(&gen, &cand.q_gt) {
        return Err(reject(
            "demogen_failed",
            "demo inconsistent with ground truth",
        ));
    }

    // Gate 2: the demo must round-trip through the wire formula syntax
    // byte-for-byte — frozen bundles store formulas, not ASTs.
    let demo_rows: Vec<Vec<String>> = (0..gen.demo.n_rows())
        .map(|r| {
            (0..gen.demo.n_cols())
                .map(|c| gen.demo.cell(r, c).to_string())
                .collect()
        })
        .collect();
    {
        let rows: Vec<Vec<&str>> = demo_rows
            .iter()
            .map(|r| r.iter().map(String::as_str).collect())
            .collect();
        let borrowed: Vec<&[&str]> = rows.iter().map(Vec::as_slice).collect();
        match Demo::parse(&borrowed) {
            Ok(parsed) if parsed == gen.demo => {}
            Ok(_) => return Err(reject("unserializable", "demo re-parses differently")),
            Err(e) => return Err(reject("unserializable", e.to_string())),
        }
    }

    // Gate 3: solvable in budget, with the ground truth's answer on top.
    let request = build_request(
        gen.inputs.clone(),
        gen.demo.clone(),
        &cand.join_keys,
        &[],
        cand.max_depth,
        cand.enable_join,
        budget,
    );
    let result = session
        .solve(&request)
        .map_err(|e| reject("unsolved", e.to_string()))?;
    if result.solutions.is_empty() {
        return Err(reject("unsolved", "no consistent query within budget"));
    }
    let reference = evaluate(&cand.q_gt, &gen.inputs)
        .map_err(|e| reject("demogen_failed", e.to_string()))?
        .project(&cand.out_cols);
    let outs: Vec<Option<Table>> = result
        .solutions
        .iter()
        .map(|q| evaluate(q, &gen.inputs).ok())
        .collect();
    let correct = |i: usize| {
        outs[i]
            .as_ref()
            .is_some_and(|o| contains_column_subtable(o, &reference))
    };
    let n = result.solutions.len();
    if !(0..n).any(correct) {
        return Err(reject(
            "unsolved",
            "no returned solution matches the ground truth",
        ));
    }
    if !correct(0) {
        let rank = (0..n).position(correct).unwrap() + 1;
        return Err(reject(
            "not_top",
            format!(
                "ground truth at rank {rank}, behind: {}",
                result.solutions[..rank - 1]
                    .iter()
                    .map(Query::to_string)
                    .collect::<Vec<_>>()
                    .join(" | ")
            ),
        ));
    }

    // Gate 4: the top rank must be extensionally unambiguous — every
    // other minimal-size solution must express the same answer.
    let top_size = result.solutions[0].size();
    let top_out = outs[0].as_ref().expect("correct top evaluated");
    for (i, out) in outs.iter().enumerate().take(n).skip(1) {
        if result.solutions[i].size() != top_size {
            continue;
        }
        let agrees = out
            .as_ref()
            .is_some_and(|o| extensionally_agrees(top_out, o));
        if !agrees {
            return Err(reject(
                "ambiguous_top",
                format!("rank-tied disagreeing solution: {}", result.solutions[i]),
            ));
        }
    }

    // Freeze the bundle in memory. Whole floats cannot round-trip through
    // JSON number encoding, so such tables are forced onto the CSV path.
    let json_safe = gen
        .inputs
        .iter()
        .all(|t| (0..t.n_rows()).all(|r| t.row(r).iter().all(json_roundtrip_safe)));
    let format = if !json_safe || cand.seed.is_multiple_of(2) {
        TableFormat::Csv
    } else {
        TableFormat::Json
    };
    let expected: Vec<String> = result.solutions.iter().map(Query::to_string).collect();
    let bundle = TaskBundle {
        id: format!("{}-{:05}", cand.category.label(), cand.seed),
        seed: cand.seed,
        category: cand.category.label().to_string(),
        format,
        tables: gen.inputs.clone(),
        demo_rows,
        join_keys: cand.join_keys.clone(),
        constants: Vec::new(),
        max_depth: cand.max_depth,
        enable_join: cand.enable_join,
        budget: *budget,
        expected,
        visited: result.stats.visited,
        pruned: result.stats.pruned,
    };

    // Gate 5: stability — an independent run on a fresh session, decoded
    // from the bundle's own wire line, must reproduce the solution list.
    let line =
        wire_line(&bundle, &Json::str(&bundle.id)).map_err(|e| reject("unserializable", e))?;
    let fresh = Session::new();
    let response = crate::wire::handle_line(&fresh, &line);
    let replayed: Vec<String> = response
        .get("solutions")
        .and_then(Json::as_array)
        .map(|qs| {
            qs.iter()
                .filter_map(Json::as_str)
                .map(str::to_string)
                .collect()
        })
        .unwrap_or_default();
    if response.get("status").and_then(Json::as_str) != Some("ok") {
        let msg = response
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Json::as_str)
            .unwrap_or("wire replay failed");
        return Err(reject("unstable", msg.to_string()));
    }
    if replayed != bundle.expected {
        return Err(reject(
            "unstable",
            "wire replay produced a different solution list",
        ));
    }
    Ok(bundle)
}

// ---------------------------------------------------------------------------
// Wire encoding
// ---------------------------------------------------------------------------

fn value_json(v: &Value) -> Json {
    match v {
        Value::Null => Json::Null,
        Value::Bool(b) => Json::Bool(*b),
        Value::Int(i) => Json::num(*i as f64),
        Value::Float(x) => Json::num(*x),
        Value::Str(s) => Json::str(s.as_ref()),
    }
}

fn table_json(t: &Table, format: TableFormat) -> Result<Json, String> {
    match format {
        TableFormat::Json => {
            let columns = Json::Arr(t.names().iter().map(Json::str).collect());
            let rows = Json::Arr(
                (0..t.n_rows())
                    .map(|r| Json::Arr(t.row(r).iter().map(value_json).collect()))
                    .collect(),
            );
            Ok(Json::Obj(vec![
                ("columns".into(), columns),
                ("rows".into(), rows),
            ]))
        }
        TableFormat::Csv => {
            let data = crate::csv::render_table(t).map_err(|e| e.to_string())?;
            Ok(Json::Obj(vec![
                ("format".into(), Json::str("csv")),
                ("data".into(), Json::Str(data)),
            ]))
        }
    }
}

fn join_key_json(jk: &JoinKey) -> Json {
    // 1-based on the wire, matching the T[row,col] surface syntax.
    Json::Obj(vec![
        ("left_table".into(), Json::num((jk.left_table + 1) as f64)),
        ("left_col".into(), Json::num((jk.left_col + 1) as f64)),
        ("right_table".into(), Json::num((jk.right_table + 1) as f64)),
        ("right_col".into(), Json::num((jk.right_col + 1) as f64)),
    ])
}

fn budget_json(b: &CorpusBudget) -> Json {
    Json::Obj(vec![
        ("timeout_secs".into(), Json::Null),
        ("max_visited".into(), Json::num(b.max_visited as f64)),
        ("max_solutions".into(), Json::num(b.max_solutions as f64)),
    ])
}

fn demo_json(rows: &[Vec<String>]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|r| Json::Arr(r.iter().map(Json::str).collect()))
            .collect(),
    )
}

/// Renders the bundle as one self-contained wire request line (the same
/// line `sickle-corpus run` feeds to [`crate::wire::handle_line`] and
/// `sickle-shard --corpus` ships to remote serve processes).
///
/// # Errors
///
/// Returns a message if a table cannot be rendered in the bundle's
/// format (non-finite floats in CSV).
pub fn wire_line(bundle: &TaskBundle, id: &Json) -> Result<String, String> {
    let tables = bundle
        .tables
        .iter()
        .map(|t| table_json(t, bundle.format))
        .collect::<Result<Vec<_>, _>>()?;
    let mut fields = vec![
        ("id".to_string(), id.clone()),
        ("tables".to_string(), Json::Arr(tables)),
        ("demo".to_string(), demo_json(&bundle.demo_rows)),
    ];
    if !bundle.join_keys.is_empty() {
        fields.push((
            "join_keys".into(),
            Json::Arr(bundle.join_keys.iter().map(join_key_json).collect()),
        ));
    }
    if !bundle.constants.is_empty() {
        fields.push((
            "constants".into(),
            Json::Arr(bundle.constants.iter().map(value_json).collect()),
        ));
    }
    fields.push(("max_depth".into(), Json::num(bundle.max_depth as f64)));
    fields.push(("enable_join".into(), Json::Bool(bundle.enable_join)));
    fields.push(("budget".into(), budget_json(&bundle.budget)));
    Ok(Json::Obj(fields).render())
}

// ---------------------------------------------------------------------------
// Freeze / load
// ---------------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a64(state: u64, bytes: &[u8]) -> u64 {
    let mut h = state;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

fn table_file_name(index: usize, format: TableFormat) -> String {
    format!("table{}.{}", index + 1, format.label())
}

fn table_file_bytes(t: &Table, format: TableFormat) -> Result<String, String> {
    match format {
        TableFormat::Csv => crate::csv::render_table(t).map_err(|e| e.to_string()),
        TableFormat::Json => {
            let json = table_json(t, TableFormat::Json)?;
            Ok(format!("{}\n", json.render()))
        }
    }
}

fn task_json(bundle: &TaskBundle) -> Json {
    let tables = Json::Arr(
        (0..bundle.tables.len())
            .map(|i| {
                Json::Obj(vec![(
                    "file".into(),
                    Json::str(table_file_name(i, bundle.format)),
                )])
            })
            .collect(),
    );
    let mut fields = vec![
        ("schema".to_string(), Json::str(TASK_SCHEMA)),
        ("id".to_string(), Json::str(&bundle.id)),
        ("seed".to_string(), Json::num(bundle.seed as f64)),
        ("category".to_string(), Json::str(&bundle.category)),
        ("format".to_string(), Json::str(bundle.format.label())),
        ("max_depth".to_string(), Json::num(bundle.max_depth as f64)),
        ("enable_join".to_string(), Json::Bool(bundle.enable_join)),
    ];
    if !bundle.join_keys.is_empty() {
        fields.push((
            "join_keys".into(),
            Json::Arr(bundle.join_keys.iter().map(join_key_json).collect()),
        ));
    }
    if !bundle.constants.is_empty() {
        fields.push((
            "constants".into(),
            Json::Arr(bundle.constants.iter().map(value_json).collect()),
        ));
    }
    fields.push(("budget".into(), budget_json(&bundle.budget)));
    fields.push(("tables".into(), tables));
    fields.push(("demo".into(), demo_json(&bundle.demo_rows)));
    fields.push((
        "expected".into(),
        Json::Obj(vec![
            (
                "solutions".into(),
                Json::Arr(bundle.expected.iter().map(Json::str).collect()),
            ),
            ("visited".into(), Json::num(bundle.visited as f64)),
            ("pruned".into(), Json::num(bundle.pruned as f64)),
        ]),
    ));
    Json::Obj(fields)
}

/// Content hash of a bundle: FNV-1a 64 over the task.json bytes then each
/// table file's bytes, in order.
pub fn bundle_hash(bundle: &TaskBundle) -> Result<u64, String> {
    let mut h = fnv1a64(
        FNV_OFFSET,
        format!("{}\n", task_json(bundle).render()).as_bytes(),
    );
    for t in &bundle.tables {
        h = fnv1a64(h, table_file_bytes(t, bundle.format)?.as_bytes());
    }
    Ok(h)
}

/// Writes the corpus to `dir`: `manifest.json` plus one
/// `tasks/<id>/` bundle per admitted task. Existing files are
/// overwritten; two freezes of the same generation are byte-identical.
///
/// # Errors
///
/// I/O failures, or a bundle whose tables cannot be rendered.
pub fn freeze_corpus(
    dir: &Path,
    seed: u64,
    count: usize,
    budget: &CorpusBudget,
    admitted: &[TaskBundle],
    tally: &BTreeMap<&'static str, usize>,
) -> io::Result<()> {
    let render_err = |e: String| io::Error::new(io::ErrorKind::InvalidData, e);
    std::fs::create_dir_all(dir.join("tasks"))?;
    let mut entries = Vec::new();
    for bundle in admitted {
        let task_dir = dir.join("tasks").join(&bundle.id);
        std::fs::create_dir_all(&task_dir)?;
        let task_text = format!("{}\n", task_json(bundle).render());
        std::fs::write(task_dir.join("task.json"), &task_text)?;
        for (i, t) in bundle.tables.iter().enumerate() {
            let bytes = table_file_bytes(t, bundle.format).map_err(render_err)?;
            std::fs::write(task_dir.join(table_file_name(i, bundle.format)), bytes)?;
        }
        let hash = bundle_hash(bundle).map_err(render_err)?;
        entries.push(Json::Obj(vec![
            ("id".into(), Json::str(&bundle.id)),
            ("seed".into(), Json::num(bundle.seed as f64)),
            ("category".into(), Json::str(&bundle.category)),
            ("format".into(), Json::str(bundle.format.label())),
            ("hash".into(), Json::str(format!("{hash:016x}"))),
            ("path".into(), Json::str(format!("tasks/{}", bundle.id))),
        ]));
    }
    let rejected = Json::Obj(
        tally
            .iter()
            .map(|(reason, n)| (reason.to_string(), Json::num(*n as f64)))
            .collect(),
    );
    let manifest = Json::Obj(vec![
        ("schema".into(), Json::str(CORPUS_SCHEMA)),
        ("seed".into(), Json::num(seed as f64)),
        ("count".into(), Json::num(count as f64)),
        ("budget".into(), budget_json(budget)),
        ("admitted".into(), Json::num(admitted.len() as f64)),
        ("rejected".into(), rejected),
        ("tasks".into(), Json::Arr(entries)),
    ]);
    std::fs::write(
        dir.join("manifest.json"),
        format!("{}\n", manifest.render()),
    )
}

/// Slice selection for [`load_corpus`] / the `sickle-corpus run` CLI.
#[derive(Debug, Clone, Default)]
pub struct CorpusFilters {
    /// Keep only these categories (`None` = all).
    pub categories: Option<BTreeSet<String>>,
    /// Keep only these task ids.
    pub task_ids: Option<BTreeSet<String>>,
    /// Keep only these table formats.
    pub formats: Option<BTreeSet<String>>,
    /// Keep only seeds in this inclusive range.
    pub seed_range: Option<(u64, u64)>,
}

impl CorpusFilters {
    /// Whether a manifest entry passes every active filter.
    pub fn matches(&self, id: &str, category: &str, format: &str, seed: u64) -> bool {
        if let Some(cats) = &self.categories {
            if !cats.contains(category) {
                return false;
            }
        }
        if let Some(ids) = &self.task_ids {
            if !ids.contains(id) {
                return false;
            }
        }
        if let Some(fmts) = &self.formats {
            if !fmts.contains(format) {
                return false;
            }
        }
        if let Some((lo, hi)) = self.seed_range {
            if seed < lo || seed > hi {
                return false;
            }
        }
        true
    }

    /// Parses an inclusive `LO..HI` seed range.
    pub fn parse_seed_range(s: &str) -> Option<(u64, u64)> {
        let (lo, hi) = s.split_once("..")?;
        let lo = lo.trim().parse().ok()?;
        let hi = hi.trim().parse().ok()?;
        (lo <= hi).then_some((lo, hi))
    }
}

fn load_err(path: &Path, msg: impl std::fmt::Display) -> String {
    format!("{}: {msg}", path.display())
}

fn decode_usize(j: &Json, key: &str, path: &Path) -> Result<usize, String> {
    j.get(key)
        .and_then(Json::as_usize)
        .ok_or_else(|| load_err(path, format!("missing integer \"{key}\"")))
}

fn decode_str<'a>(j: &'a Json, key: &str, path: &Path) -> Result<&'a str, String> {
    j.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| load_err(path, format!("missing string \"{key}\"")))
}

fn decode_wire_value(v: &Json, path: &Path) -> Result<Value, String> {
    match v {
        Json::Null => Ok(Value::Null),
        Json::Bool(b) => Ok(Value::Bool(*b)),
        Json::Str(s) => Ok(Value::Str(s.as_str().into())),
        Json::Num(n) if n.fract() == 0.0 && n.abs() < 9.2e18 => Ok(Value::Int(*n as i64)),
        Json::Num(n) => Ok(Value::Float(*n)),
        _ => Err(load_err(path, "constants must be scalars")),
    }
}

/// Loads the tasks of a frozen corpus that pass `filters`, in manifest
/// order, verifying each bundle's content hash.
///
/// # Errors
///
/// Missing/corrupt manifest or bundle files, schema mismatches, and
/// content-hash mismatches are all errors — a corpus that cannot be
/// loaded exactly is not run at all.
pub fn load_corpus(dir: &Path, filters: &CorpusFilters) -> Result<Vec<TaskBundle>, String> {
    let manifest_path = dir.join("manifest.json");
    let text = std::fs::read_to_string(&manifest_path).map_err(|e| load_err(&manifest_path, e))?;
    let manifest = Json::parse(&text).map_err(|e| load_err(&manifest_path, e))?;
    let schema = decode_str(&manifest, "schema", &manifest_path)?;
    if schema != CORPUS_SCHEMA {
        return Err(load_err(
            &manifest_path,
            format!("unsupported schema {schema:?} (want {CORPUS_SCHEMA:?})"),
        ));
    }
    let entries = manifest
        .get("tasks")
        .and_then(Json::as_array)
        .ok_or_else(|| load_err(&manifest_path, "missing \"tasks\" array"))?;

    let mut out = Vec::new();
    for entry in entries {
        let id = decode_str(entry, "id", &manifest_path)?;
        let category = decode_str(entry, "category", &manifest_path)?;
        let format_label = decode_str(entry, "format", &manifest_path)?;
        let seed = decode_usize(entry, "seed", &manifest_path)? as u64;
        if !filters.matches(id, category, format_label, seed) {
            continue;
        }
        let format = TableFormat::from_label(format_label)
            .ok_or_else(|| load_err(&manifest_path, format!("bad format {format_label:?}")))?;
        let rel = decode_str(entry, "path", &manifest_path)?;
        let task_dir = dir.join(rel);
        let task_path = task_dir.join("task.json");
        let task_text = std::fs::read_to_string(&task_path).map_err(|e| load_err(&task_path, e))?;
        let task = Json::parse(&task_text).map_err(|e| load_err(&task_path, e))?;
        if decode_str(&task, "schema", &task_path)? != TASK_SCHEMA {
            return Err(load_err(&task_path, "unsupported task schema"));
        }

        // Tables: parse through the same decoders the wire path uses.
        let mut tables = Vec::new();
        let mut table_bytes = Vec::new();
        let table_entries = task
            .get("tables")
            .and_then(Json::as_array)
            .ok_or_else(|| load_err(&task_path, "missing \"tables\""))?;
        for (i, te) in table_entries.iter().enumerate() {
            let file = decode_str(te, "file", &task_path)?;
            let fpath = task_dir.join(file);
            let bytes = std::fs::read_to_string(&fpath).map_err(|e| load_err(&fpath, e))?;
            let table = match format {
                TableFormat::Csv => {
                    crate::csv::parse_table(&bytes).map_err(|e| load_err(&fpath, e))?
                }
                TableFormat::Json => {
                    let json = Json::parse(&bytes).map_err(|e| load_err(&fpath, e))?;
                    crate::wire::decode_table(&json, i).map_err(|e| load_err(&fpath, e))?
                }
            };
            tables.push(table);
            table_bytes.push(bytes);
        }

        let demo_rows: Vec<Vec<String>> = task
            .get("demo")
            .and_then(Json::as_array)
            .ok_or_else(|| load_err(&task_path, "missing \"demo\""))?
            .iter()
            .map(|r| {
                r.as_array()
                    .map(|cells| {
                        cells
                            .iter()
                            .filter_map(Json::as_str)
                            .map(str::to_string)
                            .collect()
                    })
                    .ok_or_else(|| load_err(&task_path, "demo rows must be arrays"))
            })
            .collect::<Result<_, _>>()?;

        let mut join_keys = Vec::new();
        if let Some(jks) = task.get("join_keys").and_then(Json::as_array) {
            for jk in jks {
                let field = |name: &str| decode_usize(jk, name, &task_path);
                join_keys.push(JoinKey {
                    left_table: field("left_table")? - 1,
                    left_col: field("left_col")? - 1,
                    right_table: field("right_table")? - 1,
                    right_col: field("right_col")? - 1,
                });
            }
        }
        let mut constants = Vec::new();
        if let Some(cs) = task.get("constants").and_then(Json::as_array) {
            for c in cs {
                constants.push(decode_wire_value(c, &task_path)?);
            }
        }

        let budget_json = task
            .get("budget")
            .ok_or_else(|| load_err(&task_path, "missing \"budget\""))?;
        let budget = CorpusBudget {
            max_visited: decode_usize(budget_json, "max_visited", &task_path)?,
            max_solutions: decode_usize(budget_json, "max_solutions", &task_path)?,
        };
        let expected_json = task
            .get("expected")
            .ok_or_else(|| load_err(&task_path, "missing \"expected\""))?;
        let expected: Vec<String> = expected_json
            .get("solutions")
            .and_then(Json::as_array)
            .ok_or_else(|| load_err(&task_path, "missing expected.solutions"))?
            .iter()
            .filter_map(Json::as_str)
            .map(str::to_string)
            .collect();

        let bundle = TaskBundle {
            id: id.to_string(),
            seed,
            category: category.to_string(),
            format,
            tables,
            demo_rows,
            join_keys,
            constants,
            max_depth: decode_usize(&task, "max_depth", &task_path)?,
            enable_join: task
                .get("enable_join")
                .and_then(Json::as_bool)
                .unwrap_or(false),
            budget,
            expected,
            visited: decode_usize(expected_json, "visited", &task_path)?,
            pruned: decode_usize(expected_json, "pruned", &task_path)?,
        };

        // Integrity: recompute the content hash from the parsed bundle
        // and the raw file bytes; any drift means the corpus was edited
        // or corrupted and must not be trusted as an oracle.
        let mut h = fnv1a64(FNV_OFFSET, task_text.as_bytes());
        for bytes in &table_bytes {
            h = fnv1a64(h, bytes.as_bytes());
        }
        let want = decode_str(entry, "hash", &manifest_path)?;
        let got = format!("{h:016x}");
        if got != want {
            return Err(load_err(
                &task_path,
                format!("content hash mismatch: manifest {want}, files {got}"),
            ));
        }
        out.push(bundle);
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Run
// ---------------------------------------------------------------------------

/// One task's outcome in a corpus run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Task id.
    pub id: String,
    /// Category label.
    pub category: String,
    /// Generation seed.
    pub seed: u64,
    /// Table format label.
    pub format: &'static str,
    /// `"ok"` (matches expectations), `"mismatch"`, or `"error"`.
    pub status: &'static str,
    /// The solutions the run produced (rank order, rendered).
    pub solutions: Vec<String>,
    /// The search counters of the response (timings are reporting only,
    /// never part of the dump).
    pub stats: SearchStats,
}

/// Folds a wire response into a [`RunOutcome`] (shared by the in-process
/// runner and `sickle-shard --corpus`).
pub fn outcome_from_response(bundle: &TaskBundle, response: &Json) -> RunOutcome {
    let solutions: Vec<String> = response
        .get("solutions")
        .and_then(Json::as_array)
        .map(|qs| {
            qs.iter()
                .filter_map(Json::as_str)
                .map(str::to_string)
                .collect()
        })
        .unwrap_or_default();
    let stats = stats_from_json(response.get("stats").unwrap_or(&Json::Null));
    let status = if response.get("status").and_then(Json::as_str) != Some("ok") {
        "error"
    } else if solutions == bundle.expected {
        "ok"
    } else {
        "mismatch"
    };
    RunOutcome {
        id: bundle.id.clone(),
        category: bundle.category.clone(),
        seed: bundle.seed,
        format: bundle.format.label(),
        status,
        solutions,
        stats,
    }
}

/// Runs every bundle through the wire path on one warm in-process
/// session, in order.
pub fn run_corpus(tasks: &[TaskBundle]) -> Vec<RunOutcome> {
    let session = Session::new();
    tasks
        .iter()
        .map(|bundle| {
            let response = match wire_line(bundle, &Json::str(&bundle.id)) {
                Ok(line) => crate::wire::handle_line(&session, &line),
                Err(e) => crate::wire::response_error(&Json::str(&bundle.id), "internal", &e),
            };
            outcome_from_response(bundle, &response)
        })
        .collect()
}

/// FNV-1a 64 digest over the run's (id, status, solutions) sequence — the
/// deterministic fingerprint CI `cmp`s across runs and shard layouts.
pub fn corpus_digest(outcomes: &[RunOutcome]) -> u64 {
    let mut h = FNV_OFFSET;
    for o in outcomes {
        h = fnv1a64(h, o.id.as_bytes());
        h = fnv1a64(h, o.status.as_bytes());
        for s in &o.solutions {
            h = fnv1a64(h, s.as_bytes());
            h = fnv1a64(h, b"\n");
        }
        h = fnv1a64(h, b"\0");
    }
    h
}

/// The deterministic corpus dump: header, one block per task (in run
/// order) with its ranked solutions, and the digest as the last line.
/// Contains no timings, so two runs over the same corpus are
/// byte-identical.
pub fn render_dump(outcomes: &[RunOutcome]) -> String {
    let mut out = format!("corpus dump: tasks={} (deterministic)\n", outcomes.len());
    for o in outcomes {
        out.push_str(&format!(
            "## {} [{}] seed={} fmt={} status={} visited={} pruned={} solutions={}\n",
            o.id,
            o.category,
            o.seed,
            o.format,
            o.status,
            o.stats.visited,
            o.stats.pruned,
            o.solutions.len()
        ));
        for (i, q) in o.solutions.iter().enumerate() {
            out.push_str(&format!("  {:2}. {q}\n", i + 1));
        }
    }
    out.push_str(&format!(
        "corpus digest: {:016x}\n",
        corpus_digest(outcomes)
    ));
    out
}

/// Renders `BENCH_corpus.json` ([`RESULTS_SCHEMA`]).
pub fn results_json(dir: &str, outcomes: &[RunOutcome]) -> String {
    let count = |status: &str| outcomes.iter().filter(|o| o.status == status).count();
    let records = Json::Arr(
        outcomes
            .iter()
            .map(|o| {
                let mut fields = vec![
                    ("id".into(), Json::str(&o.id)),
                    ("category".into(), Json::str(&o.category)),
                    ("seed".into(), Json::num(o.seed as f64)),
                    ("format".into(), Json::str(o.format)),
                    ("status".into(), Json::str(o.status)),
                    ("solutions".into(), Json::num(o.solutions.len() as f64)),
                ];
                fields.extend(stat_fields(&o.stats));
                Json::Obj(fields)
            })
            .collect(),
    );
    let json = Json::Obj(vec![
        ("schema".into(), Json::str(RESULTS_SCHEMA)),
        ("dir".into(), Json::str(dir)),
        ("tasks".into(), Json::num(outcomes.len() as f64)),
        ("ok".into(), Json::num(count("ok") as f64)),
        ("mismatch".into(), Json::num(count("mismatch") as f64)),
        ("error".into(), Json::num(count("error") as f64)),
        (
            "digest".into(),
            Json::str(format!("{:016x}", corpus_digest(outcomes))),
        ),
        ("records".into(), records),
    ]);
    format!("{}\n", json.render())
}

/// The default corpus directory.
pub fn default_corpus_dir() -> PathBuf {
    PathBuf::from("corpus/v1")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(names: &[&str], rows: Vec<Vec<Value>>) -> Table {
        Table::new(names.iter().map(|s| s.to_string()), rows).unwrap()
    }

    #[test]
    fn extensional_agreement_separates_broadcast_from_rekeying() {
        // group(T,[0],sum) …
        let top = t(
            &["region", "sum"],
            vec![
                vec!["west".into(), 33.into()],
                vec!["east".into(), 21.into()],
            ],
        );
        // … vs the partition broadcast of the same aggregate: agrees.
        let broadcast = t(
            &["region", "q", "rev", "sum"],
            vec![
                vec!["west".into(), 1.into(), 10.into(), 33.into()],
                vec!["west".into(), 2.into(), 23.into(), 33.into()],
                vec!["east".into(), 1.into(), 21.into(), 21.into()],
            ],
        );
        assert!(extensionally_agrees(&top, &broadcast));
        // … vs the same sums keyed on a different column: disagrees.
        let rekeyed = t(
            &["code", "sum"],
            vec![vec![1.into(), 33.into()], vec![2.into(), 21.into()]],
        );
        assert!(!extensionally_agrees(&top, &rekeyed));
        // Fewer columns than the top can never agree.
        let narrow = t(&["sum"], vec![vec![33.into()], vec![21.into()]]);
        assert!(!extensionally_agrees(&top, &narrow));
    }

    #[test]
    fn digest_tracks_solutions_and_status() {
        let mk = |status: &'static str, sols: &[&str]| RunOutcome {
            id: "group-1".into(),
            category: "group".into(),
            seed: 1,
            format: "csv",
            status,
            solutions: sols.iter().map(|s| s.to_string()).collect(),
            stats: SearchStats::default(),
        };
        let a = corpus_digest(&[mk("ok", &["group(T1, [0], sum(c2))"])]);
        let b = corpus_digest(&[mk("ok", &["group(T1, [0], max(c2))"])]);
        let c = corpus_digest(&[mk("mismatch", &["group(T1, [0], sum(c2))"])]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        // And it is stable.
        assert_eq!(a, corpus_digest(&[mk("ok", &["group(T1, [0], sum(c2))"])]));
    }

    #[test]
    fn seed_range_parses_inclusive() {
        assert_eq!(CorpusFilters::parse_seed_range("3..9"), Some((3, 9)));
        assert_eq!(CorpusFilters::parse_seed_range(" 3 .. 3 "), Some((3, 3)));
        assert_eq!(CorpusFilters::parse_seed_range("9..3"), None);
        assert_eq!(CorpusFilters::parse_seed_range("x..3"), None);
        assert_eq!(CorpusFilters::parse_seed_range("37"), None);
    }
}
