//! # sickle-bench
//!
//! Experiment harness regenerating every table and figure of the Sickle
//! paper's evaluation (§5) on the reproduction benchmark suite. See
//! `EXPERIMENTS.md` at the workspace root for the per-experiment index and
//! recorded results.
//!
//! Binaries (`cargo run -p sickle-bench --release --bin <name>`):
//!
//! | bin        | reproduces            |
//! |------------|-----------------------|
//! | `experiments` | everything below in one pass |
//! | `fig12`    | Fig. 12 solve-rate-vs-time curves |
//! | `fig13`    | Fig. 13 explored-query distributions |
//! | `obs1`     | Observation #1 headline numbers |
//! | `ranking`  | §5.2 ground-truth ranking table |
//! | `specsize` | §5.2 demo size vs full-example size |
//! | `userstudy`| §5.3 specification-effort model (substituted) |
//! | `census`   | §5.1 benchmark feature census |
//!
//! Beyond the paper's evaluation, `sickle-serve` is a JSON-lines
//! synthesis service over warm [`sickle_core::Session`]s: one request per
//! line, one response per line, either over stdin/stdout or as a
//! Unix-socket/TCP server (`--listen`) with a bounded session pool,
//! admission control, watchdog deadlines, panic isolation and graceful
//! shutdown (schema in `README.md`, codec in [`wire`], envelope in
//! [`server`]). `sickle-shard` partitions the benchmark suite — or a
//! frozen corpus (`--corpus DIR`) — across several such servers and
//! deterministically merges the results. `sickle-corpus` grows the
//! benchmark surface beyond the hand-ported suite: it generates
//! seed-addressed candidate tasks, admits only the solvable and
//! unambiguous ones, freezes them as versioned CSV/JSON bundles and runs
//! arbitrary corpus slices through the wire path (module docs in
//! [`corpus`], CSV codec in [`csv`]). `sickle-edit` benchmarks
//! incremental re-synthesis: scripted demonstration edits solved cold
//! versus as warm edits over a retained prior, emitting
//! `BENCH_edit.json` (module docs in [`edit`]).
//!
//! Environment knobs: `SICKLE_TIMEOUT_SECS` (per-run timeout, default 15),
//! `SICKLE_MAX_VISITED` (visit budget, default 1,000,000), `SICKLE_SEED`
//! (demo-generation seed, default 2022), `SICKLE_ONLY` (comma-separated
//! benchmark ids).

#![warn(missing_docs)]

pub mod corpus;
pub mod csv;
pub mod edit;
pub mod effort;
pub mod json;
pub mod runner;
pub mod server;
pub mod wire;

pub use corpus::{
    admit, bundle_hash, corpus_digest, freeze_corpus, load_corpus, outcome_from_response,
    render_dump, results_json, run_corpus, wire_line, CorpusBudget, CorpusFilters, Rejection,
    RunOutcome, TableFormat, TaskBundle,
};
pub use csv::{parse_table as parse_csv_table, render_table as render_csv_table, CsvError};
pub use edit::{edit_results_json, run_edit_scenario, EditRecord, EditResults};
pub use json::{Json, JsonError};
pub use runner::{
    benchmark_request, render_fig12, render_fig13, render_obs1, render_ranking, run_one,
    run_one_in, run_suite, suite_results_json, technique_analyzers, write_bench_json, RunRecord,
    SuiteResults, Technique,
};
pub use server::{
    read_bounded_line, serve_stdio, Admission, Admit, FaultKind, Faults, LineRead, Server,
    ServerConfig,
};
pub use wire::{
    analyzer_by_name, bad_json_response, error_response, finish_response, handle_line,
    handle_line_with, progress_json, response_error, response_ok, stats_from_json, stats_json,
    WireRequest,
};
