//! `sickle-shard` — fault-tolerant sharded suite driver.
//!
//! Partitions the benchmark suite across `--shards N` freshly spawned
//! `sickle-serve --listen unix:…` processes, drives them concurrently
//! over a shared work queue, and deterministically merges the responses
//! into the same artifacts the single-process `solutions` oracle
//! produces: the byte-identical solution dump on stdout and
//! `BENCH_synthesis.json` (`SICKLE_JSON` overrides the path).
//!
//! Robustness is the point, not raw speed:
//!
//! * connection failures are retried with exponential backoff;
//! * each shard process runs under a **supervisor**: a shard that dies
//!   mid-run (crash, injected `exit@request` fault, kill) has its
//!   in-flight task requeued and is *respawned* with capped exponential
//!   backoff — up to a restart budget, beyond which the shard is
//!   declared failed and the run reports a structured failure. A shard
//!   that exits with the config-error code (2: bad flags, malformed
//!   `SICKLE_FAULT`) is never restarted — retrying cannot heal a
//!   configuration;
//! * `overloaded` responses honor the server's `retry_after_ms` hint
//!   (exponential backoff when absent); `resource_exhausted` responses
//!   are retried only after a deterministic jittered delay, and only a
//!   bounded number of times; `invalid_request` and other structured
//!   errors are terminal for that task (never retried);
//! * with `--journal PATH` every claimed task and every terminal outcome
//!   (full response line + digest, fsync'd) goes to an append-only
//!   newline-JSON work journal; `--resume PATH` replays it after a
//!   killed run, re-running only incomplete tasks and merging
//!   byte-identically;
//! * the run fails loudly (exit 1) if any task is left uncovered.
//!
//! Per-shard fault injection for tests: `SICKLE_SHARD_FAULT_<i>` (0-based
//! shard index) becomes that shard's `SICKLE_FAULT`.
//!
//! ```text
//! SICKLE_MAX_VISITED=20000 cargo run -p sickle-bench --release --bin sickle-shard -- --shards 4
//! ```

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Child, Command};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use sickle_bench::corpus::{
    default_corpus_dir, load_corpus, outcome_from_response, render_dump, results_json, wire_line,
    CorpusFilters,
};
use sickle_bench::runner::HarnessConfig;
use sickle_bench::{stats_from_json, write_bench_json, Json, RunRecord, SuiteResults, Technique};
use sickle_benchmarks::all_benchmarks;

const USAGE: &str = "\
sickle-shard: run the benchmark suite across N sickle-serve processes

USAGE:
    sickle-shard [--shards N] [--serve-bin PATH] [--corpus DIR]
                 [--journal PATH | --resume PATH]

Prints the deterministic solution dump (byte-identical to the
single-process `solutions` bin) on stdout and writes the merged
BENCH_synthesis.json. Honors SICKLE_MAX_VISITED, SICKLE_SEED,
SICKLE_ONLY and SICKLE_JSON like `solutions` does. The serve binary
defaults to the sickle-serve next to this executable (override with
--serve-bin or SICKLE_SERVE_BIN). SICKLE_SHARD_FAULT_<i> injects a
SICKLE_FAULT spec into shard i for robustness tests.

Each shard runs under a supervisor: a crashed serve process is
respawned with capped exponential backoff (at most 5 restarts per
60s window, then the shard is declared failed); a serve process that
exits with the config-error code 2 is never restarted.

--journal PATH appends every claimed task and terminal outcome (full
response line, digested and fsync'd) to a newline-JSON work journal.
After the driver itself is killed, --resume PATH replays that journal:
already-finished tasks are merged from their recorded responses and
only incomplete tasks are re-run, producing byte-identical output.
--resume keeps appending to the same journal.

With --corpus DIR the work source is a frozen corpus instead of the
built-in suite: every bundle is shipped as a self-contained wire
request, and the merged output is the corpus dump + digest,
byte-identical to `sickle-corpus run --dir DIR` (BENCH_corpus.json is
written instead of BENCH_synthesis.json).
";

/// How a task ended on some shard.
struct TaskOutcome {
    response: Json,
}

struct Merged {
    outcomes: HashMap<usize, TaskOutcome>,
    /// Tasks that got a terminal (non-retryable) error response.
    failed: Vec<(usize, String)>,
}

/// Everything needed to (re)spawn one shard's serve process.
struct ShardSpec {
    index: usize,
    sock: PathBuf,
    serve_bin: PathBuf,
    fault: Option<String>,
}

/// Work queue with in-flight tracking. A driver whose queue looks empty
/// must NOT exit while another shard still has a task in flight: if that
/// shard dies, its task is requeued and somebody has to be around to
/// absorb it. Drivers block on the condvar until the queue is truly
/// drained (empty AND nothing in flight).
struct WorkQueue {
    state: Mutex<QueueState>,
    cv: Condvar,
}

struct QueueState {
    queue: VecDeque<usize>,
    inflight: usize,
}

impl WorkQueue {
    fn new(tasks: impl IntoIterator<Item = usize>) -> Self {
        WorkQueue {
            state: Mutex::new(QueueState {
                queue: tasks.into_iter().collect(),
                inflight: 0,
            }),
            cv: Condvar::new(),
        }
    }

    /// Claims the next task, blocking while other shards might still
    /// requeue theirs. `None` once the suite is truly drained.
    fn claim(&self) -> Option<usize> {
        let mut state = self.state.lock().expect("queue lock");
        loop {
            if let Some(id) = state.queue.pop_front() {
                state.inflight += 1;
                return Some(id);
            }
            if state.inflight == 0 {
                return None;
            }
            // Timed wait so a lost wakeup can never wedge the driver.
            let (next, _) = self
                .cv
                .wait_timeout(state, Duration::from_millis(100))
                .expect("queue lock");
            state = next;
        }
    }

    /// The claimed task reached a terminal outcome (ok or structured
    /// non-retryable error).
    fn complete(&self) {
        let mut state = self.state.lock().expect("queue lock");
        state.inflight -= 1;
        self.cv.notify_all();
    }

    /// The claimed task's shard connection broke: put the task back for
    /// whoever can take it (including this shard after a reconnect).
    fn requeue(&self, id: usize) {
        let mut state = self.state.lock().expect("queue lock");
        state.queue.push_front(id);
        state.inflight -= 1;
        self.cv.notify_all();
    }

    fn leftover(&self) -> usize {
        let state = self.state.lock().expect("queue lock");
        state.queue.len() + state.inflight
    }
}

fn log(msg: std::fmt::Arguments<'_>) {
    eprintln!("sickle-shard: {msg}");
}

// ---------------------------------------------------------------------------
// Work journal (checkpointed resume)
// ---------------------------------------------------------------------------

/// FNV-1a 64-bit digest of a recorded response line, guarding a resumed
/// run against truncated or hand-edited journal entries.
fn fnv1a64(s: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Append-only newline-JSON work journal. `claimed` marks a task handed
/// to a shard; `done`/`failed` record its terminal outcome — `done`
/// carries the full response line plus its digest so a resumed run
/// merges byte-identically without re-running the task. Every line is
/// fsync'd before the task is marked complete in the queue, so a
/// SIGKILL'd driver never loses a finished task.
struct Journal {
    file: Mutex<std::fs::File>,
}

impl Journal {
    fn open(path: &std::path::Path) -> std::io::Result<Journal> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(Journal {
            file: Mutex::new(file),
        })
    }

    fn append(&self, json: &Json) {
        let mut line = json.render();
        line.push('\n');
        let mut file = self.file.lock().expect("journal lock");
        if let Err(e) = file
            .write_all(line.as_bytes())
            .and_then(|()| file.sync_data())
        {
            // A journal the run cannot trust is worse than no journal:
            // fail loudly now instead of resuming wrong later.
            log(format_args!("journal write failed: {e}"));
            std::process::exit(1);
        }
    }

    fn start(&self, mode: &str, tasks: usize) {
        self.append(&Json::Obj(vec![
            ("event".into(), Json::str("start")),
            ("mode".into(), Json::str(mode)),
            ("tasks".into(), Json::num(tasks as f64)),
        ]));
    }

    fn claimed(&self, task: usize) {
        self.append(&Json::Obj(vec![
            ("event".into(), Json::str("claimed")),
            ("task".into(), Json::num(task as f64)),
        ]));
    }

    fn done(&self, task: usize, response: &Json) {
        let rendered = response.render();
        self.append(&Json::Obj(vec![
            ("event".into(), Json::str("done")),
            ("task".into(), Json::num(task as f64)),
            ("digest".into(), Json::str(fnv1a64(&rendered))),
            ("response".into(), Json::str(rendered)),
        ]));
    }

    fn failed(&self, task: usize, detail: &str) {
        self.append(&Json::Obj(vec![
            ("event".into(), Json::str("failed")),
            ("task".into(), Json::num(task as f64)),
            ("detail".into(), Json::str(detail)),
        ]));
    }
}

/// Terminal outcomes replayed from a `--resume` journal.
struct Replayed {
    mode: Option<String>,
    outcomes: HashMap<usize, Json>,
    failed: Vec<(usize, String)>,
}

/// Replays a work journal. A malformed line in the *middle* is corrupt
/// (the run must not silently resume from it); a malformed *final* line
/// is the expected trace of a SIGKILL mid-write and is ignored — its
/// task simply re-runs.
fn replay_journal(path: &std::path::Path) -> Result<Replayed, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read journal {}: {e}", path.display()))?;
    let lines: Vec<&str> = text.lines().collect();
    let mut replayed = Replayed {
        mode: None,
        outcomes: HashMap::new(),
        failed: Vec::new(),
    };
    for (n, raw) in lines.iter().enumerate() {
        let last = n + 1 == lines.len();
        let raw = raw.trim();
        if raw.is_empty() {
            continue;
        }
        let fail = |what: String| format!("journal line {}: {what}", n + 1);
        let truncated = |what: String| -> Result<(), String> {
            if last {
                log(format_args!(
                    "ignoring truncated final journal line ({what}); its task will re-run"
                ));
                Ok(())
            } else {
                Err(fail(what))
            }
        };
        let json = match Json::parse(raw) {
            Ok(json) => json,
            Err(e) => {
                truncated(format!("unparsable: {e}"))?;
                break;
            }
        };
        let event = json.get("event").and_then(Json::as_str).unwrap_or("");
        let task = json.get("task").and_then(Json::as_f64).map(|v| v as usize);
        match event {
            "start" => {
                replayed.mode = json.get("mode").and_then(Json::as_str).map(str::to_string);
            }
            // Informational: a claimed task without a terminal event
            // simply re-runs.
            "claimed" => {}
            "done" => {
                let task = task.ok_or_else(|| fail("done without task".into()))?;
                let rendered = json
                    .get("response")
                    .and_then(Json::as_str)
                    .ok_or_else(|| fail("done without response".into()))?;
                let digest = json.get("digest").and_then(Json::as_str).unwrap_or("");
                if digest != fnv1a64(rendered) {
                    truncated("response digest mismatch".into())?;
                    break;
                }
                let response = Json::parse(rendered)
                    .map_err(|e| fail(format!("bad recorded response: {e}")))?;
                replayed.outcomes.insert(task, response);
            }
            "failed" => {
                let task = task.ok_or_else(|| fail("failed without task".into()))?;
                let detail = json
                    .get("detail")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string();
                replayed.failed.push((task, detail));
            }
            other => return Err(fail(format!("unknown event {other:?}"))),
        }
    }
    Ok(replayed)
}

fn main() {
    let mut shards = 2usize;
    let mut serve_bin: Option<PathBuf> = None;
    let mut corpus_dir: Option<PathBuf> = None;
    let mut journal_path: Option<PathBuf> = None;
    let mut resume = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "-h" | "--help" => {
                print!("{USAGE}");
                return;
            }
            "--shards" => {
                shards = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| {
                        eprintln!("sickle-shard: --shards needs a positive integer");
                        std::process::exit(2);
                    });
            }
            "--serve-bin" => {
                serve_bin = Some(PathBuf::from(args.next().unwrap_or_else(|| {
                    eprintln!("sickle-shard: --serve-bin needs a path");
                    std::process::exit(2);
                })));
            }
            "--corpus" => {
                corpus_dir = Some(PathBuf::from(args.next().unwrap_or_else(|| {
                    eprintln!("sickle-shard: --corpus needs a directory (e.g. corpus/v1)");
                    std::process::exit(2);
                })));
            }
            "--journal" | "--resume" => {
                resume = resume || arg == "--resume";
                journal_path = Some(PathBuf::from(args.next().unwrap_or_else(|| {
                    eprintln!("sickle-shard: {arg} needs a journal path");
                    std::process::exit(2);
                })));
            }
            other => {
                eprintln!("sickle-shard: unknown argument {other:?} (try --help)");
                std::process::exit(2);
            }
        }
    }

    let hc = HarnessConfig::from_env();
    let budget = std::env::var("SICKLE_MAX_VISITED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20_000);
    let serve_bin = serve_bin
        .or_else(|| std::env::var("SICKLE_SERVE_BIN").ok().map(PathBuf::from))
        .unwrap_or_else(default_serve_bin);

    // The corpus bundles (corpus mode only), indexed by wire id.
    let bundles = corpus_dir.as_ref().map(|dir| {
        let dir = if dir.as_os_str().is_empty() {
            default_corpus_dir()
        } else {
            dir.clone()
        };
        match load_corpus(&dir, &CorpusFilters::default()) {
            Ok(bundles) if bundles.is_empty() => {
                log(format_args!("corpus {} is empty", dir.display()));
                std::process::exit(1);
            }
            Ok(bundles) => (dir, bundles),
            Err(e) => {
                log(format_args!("cannot load corpus: {e}"));
                std::process::exit(1);
            }
        }
    });

    // Every task's request line is prebuilt so drive_shard is agnostic to
    // the work source (suite benchmarks vs corpus bundles).
    let lines: HashMap<usize, String> = match &bundles {
        Some((_, bundles)) => bundles
            .iter()
            .enumerate()
            .map(|(i, b)| {
                let line = wire_line(b, &Json::num(i as f64)).unwrap_or_else(|e| {
                    log(format_args!("cannot encode bundle {}: {e}", b.id));
                    std::process::exit(1);
                });
                (i, line)
            })
            .collect(),
        None => all_benchmarks()
            .iter()
            .filter(|b| hc.only.is_empty() || hc.only.contains(&b.id))
            .map(|b| {
                let id = b.id;
                let seed = hc.seed;
                let line = format!(
                    "{{\"id\": {id}, \"benchmark\": {id}, \"seed\": {seed}, \
                     \"budget\": {{\"timeout_secs\": null, \"max_visited\": {budget}, \
                     \"max_solutions\": 10}}}}"
                );
                (id, line)
            })
            .collect(),
    };
    let mut tasks: Vec<usize> = lines.keys().copied().collect();
    tasks.sort_unstable();
    if tasks.is_empty() {
        log(format_args!(
            "no tasks selected (SICKLE_ONLY filtered everything)"
        ));
        std::process::exit(1);
    }

    // Replay a resumed journal: finished tasks are merged from their
    // recorded responses; only incomplete tasks go back on the queue.
    let mode = if bundles.is_some() { "corpus" } else { "suite" };
    let mut seeded = Merged {
        outcomes: HashMap::new(),
        failed: Vec::new(),
    };
    if resume {
        let path = journal_path.as_ref().expect("--resume sets the path");
        let replayed = replay_journal(path).unwrap_or_else(|e| {
            log(format_args!("cannot resume: {e}"));
            std::process::exit(2);
        });
        if let Some(m) = &replayed.mode {
            if m != mode {
                log(format_args!(
                    "cannot resume: journal records a {m} run, this is a {mode} run"
                ));
                std::process::exit(2);
            }
        }
        for (id, response) in replayed.outcomes {
            if lines.contains_key(&id) {
                seeded.outcomes.insert(id, TaskOutcome { response });
            }
        }
        seeded.failed = replayed.failed;
        log(format_args!(
            "resuming: {} finished task(s) replayed from {}",
            seeded.outcomes.len() + seeded.failed.len(),
            path.display()
        ));
    }
    let finished: HashSet<usize> = seeded
        .outcomes
        .keys()
        .copied()
        .chain(seeded.failed.iter().map(|(id, _)| *id))
        .collect();
    let pending: Vec<usize> = tasks
        .iter()
        .copied()
        .filter(|id| !finished.contains(id))
        .collect();

    let journal = journal_path.as_ref().map(|path| {
        let fresh = std::fs::metadata(path)
            .map(|m| m.len() == 0)
            .unwrap_or(true);
        let journal = Journal::open(path).unwrap_or_else(|e| {
            log(format_args!("cannot open journal {}: {e}", path.display()));
            std::process::exit(2);
        });
        if fresh {
            journal.start(mode, tasks.len());
        }
        Arc::new(journal)
    });

    let sock_dir = std::env::temp_dir().join(format!("sickle-shard-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&sock_dir) {
        log(format_args!("cannot create {}: {e}", sock_dir.display()));
        std::process::exit(1);
    }

    let queue = Arc::new(WorkQueue::new(pending.iter().copied()));
    let merged = Arc::new(Mutex::new(seeded));
    let failures = Arc::new(Mutex::new(Vec::<String>::new()));

    let lines = Arc::new(lines);
    let workers: Vec<_> = (0..shards)
        .map(|i| {
            let spec = ShardSpec {
                index: i,
                sock: sock_dir.join(format!("shard-{i}.sock")),
                serve_bin: serve_bin.clone(),
                fault: std::env::var(format!("SICKLE_SHARD_FAULT_{i}")).ok(),
            };
            if let Some(fault) = &spec.fault {
                log(format_args!("shard {i}: injecting faults {fault:?}"));
            }
            let queue = Arc::clone(&queue);
            let merged = Arc::clone(&merged);
            let lines = Arc::clone(&lines);
            let journal = journal.clone();
            let failures = Arc::clone(&failures);
            std::thread::spawn(move || {
                supervise_shard(
                    &spec,
                    &queue,
                    &merged,
                    &lines,
                    journal.as_deref(),
                    &failures,
                )
            })
        })
        .collect();
    let mut completed = 0usize;
    for w in workers {
        completed += w.join().unwrap_or(0);
    }

    let _ = std::fs::remove_dir_all(&sock_dir);

    let merged = Arc::try_unwrap(merged)
        .unwrap_or_else(|_| unreachable!("workers joined"))
        .into_inner()
        .expect("merged lock");
    let failures = Arc::try_unwrap(failures)
        .unwrap_or_else(|_| unreachable!("workers joined"))
        .into_inner()
        .expect("failures lock");
    let leftover = queue.leftover();
    log(format_args!(
        "{} task(s) completed across {} shard(s), {} leftover, {} failed",
        completed,
        shards,
        leftover,
        merged.failed.len()
    ));
    for (id, msg) in &merged.failed {
        log(format_args!("task {id} failed: {msg}"));
    }

    // Corpus mode: merge into the corpus dump + digest, byte-identical
    // to `sickle-corpus run` over the same directory.
    if let Some((dir, bundles)) = bundles {
        let error_response = Json::Obj(vec![("status".into(), Json::str("error"))]);
        let outcomes: Vec<_> = bundles
            .iter()
            .enumerate()
            .map(|(i, bundle)| {
                let response = merged
                    .outcomes
                    .get(&i)
                    .map(|o| &o.response)
                    .unwrap_or(&error_response);
                outcome_from_response(bundle, response)
            })
            .collect();
        print!("{}", render_dump(&outcomes));
        let json_path =
            std::env::var("SICKLE_JSON").unwrap_or_else(|_| "BENCH_corpus.json".to_string());
        if !json_path.is_empty() {
            let payload = results_json(&dir.display().to_string(), &outcomes);
            match std::fs::write(&json_path, payload) {
                Ok(()) => log(format_args!("wrote {json_path}")),
                Err(e) => log(format_args!("warning: could not write {json_path}: {e}")),
            }
        }
        let bad = outcomes.iter().filter(|o| o.status != "ok").count();
        if bad > 0 || leftover > 0 || !failures.is_empty() {
            log(format_args!(
                "incomplete corpus run: {bad} not ok, {} shard failure(s)",
                failures.len()
            ));
            std::process::exit(1);
        }
        return;
    }

    // The merged dump, byte-identical to the single-process `solutions`
    // oracle: same banner, same per-task blocks in suite order.
    println!(
        "solution dump: max_visited={budget} seed={} (deterministic)",
        hc.seed
    );
    let mut results = SuiteResults::default();
    let mut missing = Vec::new();
    for b in all_benchmarks() {
        if !tasks.contains(&b.id) {
            continue;
        }
        let Some(outcome) = merged.outcomes.get(&b.id) else {
            missing.push(b.id);
            continue;
        };
        let r = &outcome.response;
        let stats = stats_from_json(r.get("stats").unwrap_or(&Json::Null));
        let solutions: Vec<String> = r
            .get("solutions")
            .and_then(Json::as_array)
            .map(|qs| {
                qs.iter()
                    .filter_map(Json::as_str)
                    .map(str::to_string)
                    .collect()
            })
            .unwrap_or_default();
        println!(
            "## {:2} {} visited={} pruned={} solutions={}",
            b.id,
            b.name,
            stats.visited,
            stats.pruned,
            solutions.len()
        );
        for (i, q) in solutions.iter().enumerate() {
            println!("  {:2}. {q}", i + 1);
        }
        let rank = r
            .get("rank")
            .and_then(Json::as_f64)
            .map(|n| n as usize)
            .filter(|&n| n >= 1);
        results.records.push(RunRecord {
            id: b.id,
            name: b.name.to_string(),
            category: b.category,
            technique: Technique::Provenance,
            solved: r.get("solved").and_then(Json::as_bool).unwrap_or(false),
            stats,
            rank,
        });
    }

    let json_hc = HarnessConfig {
        timeout: Duration::ZERO,
        max_visited: budget,
        ..hc
    };
    match write_bench_json(&results, &json_hc) {
        Ok(Some(path)) => log(format_args!("wrote {}", path.display())),
        Ok(None) => {}
        Err(e) => log(format_args!("warning: could not write bench JSON: {e}")),
    }

    if !missing.is_empty() || !merged.failed.is_empty() || leftover > 0 || !failures.is_empty() {
        log(format_args!(
            "incomplete run: {missing:?} missing, {} shard failure(s)",
            failures.len()
        ));
        std::process::exit(1);
    }
}

/// The `sickle-serve` binary that shipped next to this executable.
fn default_serve_bin() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("sickle-serve")))
        .unwrap_or_else(|| PathBuf::from("sickle-serve"))
}

// ---------------------------------------------------------------------------
// Shard supervisor
// ---------------------------------------------------------------------------

/// Restart budget of the supervisor: more than this many restarts within
/// [`RESTART_WINDOW`] declares the shard failed (structured run failure)
/// instead of flapping forever.
const MAX_RESTARTS: usize = 5;
/// Sliding window of the restart budget.
const RESTART_WINDOW: Duration = Duration::from_secs(60);
/// Exit code `sickle-serve` reserves for configuration errors (bad
/// flags, malformed `SICKLE_FAULT`, unusable listen spec). A supervisor
/// must not restart these — the configuration cannot heal by retrying.
const EXIT_CONFIG: i32 = 2;

fn spawn_serve(spec: &ShardSpec) -> std::io::Result<Child> {
    let mut cmd = Command::new(&spec.serve_bin);
    cmd.arg("--listen")
        .arg(format!("unix:{}", spec.sock.display()));
    // The parent's fault plan must not leak into every shard; each
    // shard gets exactly its own injected faults (if any).
    cmd.env_remove("SICKLE_FAULT");
    if let Some(fault) = &spec.fault {
        cmd.env("SICKLE_FAULT", fault.clone());
    }
    cmd.spawn()
}

/// How one spawned serve process came up.
enum Startup {
    /// The socket appeared (or the wait budget lapsed — `connect` makes
    /// the final call).
    Bound,
    /// The process exited before binding (startup crash or config error).
    Exited(std::process::ExitStatus),
}

/// Waits for a freshly spawned serve to bind its socket, polling the
/// child so a startup death (a config error exits within milliseconds)
/// is classified immediately instead of burning the connect budget.
fn await_startup(spec: &ShardSpec, child: &mut Child) -> Startup {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        if spec.sock.exists() {
            return Startup::Bound;
        }
        if let Ok(Some(status)) = child.try_wait() {
            return Startup::Exited(status);
        }
        if Instant::now() >= deadline {
            return Startup::Bound;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Runs one shard under supervision: spawn the serve process, drive it,
/// and on death classify the exit — config errors (exit 2) are never
/// restarted; crashes are respawned with capped exponential backoff up
/// to [`MAX_RESTARTS`] per [`RESTART_WINDOW`], after which the shard is
/// declared failed. Returns the number of tasks completed here.
fn supervise_shard(
    spec: &ShardSpec,
    queue: &WorkQueue,
    merged: &Mutex<Merged>,
    lines: &HashMap<usize, String>,
    journal: Option<&Journal>,
    failures: &Mutex<Vec<String>>,
) -> usize {
    let index = spec.index;
    let mut done = 0usize;
    let mut restarts: VecDeque<Instant> = VecDeque::new();
    let mut backoff = Duration::from_millis(200);
    let fail = |msg: String| {
        log(format_args!("{msg}"));
        failures.lock().expect("failures lock").push(msg);
    };
    loop {
        let mut child = match spawn_serve(spec) {
            Ok(child) => child,
            Err(e) => {
                fail(format!(
                    "shard {index}: cannot spawn {}: {e}",
                    spec.serve_bin.display()
                ));
                return done;
            }
        };
        let crashed_at_startup = match await_startup(spec, &mut child) {
            Startup::Bound => {
                let (n, end) = drive_shard(index, &spec.sock, queue, merged, lines, journal);
                done += n;
                match end {
                    ShardEnd::Drained => {
                        let _ = child.kill();
                        let _ = child.wait();
                        return done;
                    }
                    ShardEnd::Dead => None,
                }
            }
            Startup::Exited(status) => Some(status),
        };
        // Classify the death: a self-exited child reports its code; a
        // wedged-but-unreachable one is killed and counts as a crash.
        let status = crashed_at_startup.or_else(|| match child.try_wait() {
            Ok(Some(status)) => Some(status),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                None
            }
        });
        if status.and_then(|s| s.code()) == Some(EXIT_CONFIG) {
            fail(format!(
                "shard {index}: serve exited with the config-error code ({EXIT_CONFIG}); \
                 not restarting — fix the configuration"
            ));
            return done;
        }
        let now = Instant::now();
        while restarts
            .front()
            .is_some_and(|t| now.duration_since(*t) > RESTART_WINDOW)
        {
            restarts.pop_front();
        }
        if restarts.len() >= MAX_RESTARTS {
            fail(format!(
                "shard {index}: restart budget exhausted ({MAX_RESTARTS} restarts in {}s); \
                 giving up on this shard",
                RESTART_WINDOW.as_secs()
            ));
            return done;
        }
        restarts.push_back(now);
        log(format_args!(
            "shard {index}: died (exit {:?}); restarting in {:?} (restart {} of {MAX_RESTARTS} \
             in window)",
            status.and_then(|s| s.code()),
            backoff,
            restarts.len(),
        ));
        std::thread::sleep(backoff);
        backoff = (backoff * 2).min(Duration::from_secs(5));
    }
}

/// Initial connect: the freshly spawned shard may take a while to bind
/// on a heavily loaded host, so the budget is generous (~23s).
const CONNECT_ATTEMPTS: usize = 16;
/// Reconnect after an error: the process was alive moments ago, so a
/// short budget (~3s) is enough to tell "transient" from "dead".
const RECONNECT_ATTEMPTS: usize = 6;

/// Connects to `sock` with exponential backoff (the shard may still be
/// binding, or be briefly unreachable). `None` after the retry budget —
/// the shard is considered dead.
fn connect(sock: &std::path::Path, attempts: usize) -> Option<BufReader<UnixStream>> {
    let mut delay = Duration::from_millis(50);
    for _ in 0..attempts {
        match UnixStream::connect(sock) {
            Ok(stream) => {
                // Generous read timeout: a genuinely wedged shard is the
                // server watchdog's job; a dead one reads EOF immediately.
                let _ = stream.set_read_timeout(Some(Duration::from_secs(900)));
                let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
                return Some(BufReader::new(stream));
            }
            Err(_) => std::thread::sleep(delay),
        }
        delay = (delay * 2).min(Duration::from_secs(2));
    }
    None
}

/// One request/response exchange. `Err` means the connection is unusable
/// (the caller reconnects or declares the shard dead).
fn exchange(conn: &mut BufReader<UnixStream>, id: usize, line: &str) -> Result<Json, String> {
    conn.get_mut()
        .write_all(line.as_bytes())
        .and_then(|()| conn.get_mut().write_all(b"\n"))
        .and_then(|()| conn.get_mut().flush())
        .map_err(|e| format!("write failed: {e}"))?;
    loop {
        let mut response = String::new();
        match conn.read_line(&mut response) {
            Ok(0) => return Err("connection closed by shard".to_string()),
            Ok(_) => {}
            Err(e) => return Err(format!("read failed: {e}")),
        }
        let json = match Json::parse(response.trim()) {
            Ok(json) => json,
            Err(e) => return Err(format!("unparsable response: {e}")),
        };
        // Skip stray streamed events; the final response for this request
        // carries a "status" and echoes the id.
        if json.get("status").is_none() {
            continue;
        }
        let echoed = json.get("id").and_then(Json::as_f64).map(|n| n as usize);
        if echoed == Some(id) {
            return Ok(json);
        }
    }
}

/// Bound on `resource_exhausted` retries per task: the server sheds
/// these *after pressure subsides*, so a bounded, backed-off retry is
/// right — but a budget so tight the task can never run must become a
/// terminal failure, not an infinite loop.
const EXHAUSTED_RETRY_LIMIT: u32 = 6;

/// Deterministic jittered backoff for `resource_exhausted` retries: an
/// exponential base plus a (task, attempt)-derived jitter so shards
/// never retry in lockstep. A pure function — no clock, no RNG — so
/// reruns behave identically.
fn exhausted_backoff(task: usize, attempt: u32) -> Duration {
    let base = Duration::from_millis(250).saturating_mul(1 << attempt.min(4));
    let jitter = (task as u64)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(u64::from(attempt))
        .wrapping_mul(0xbf58_476d_1ce4_e5b9)
        % 250;
    base + Duration::from_millis(jitter)
}

/// Why [`drive_shard`] returned.
enum ShardEnd {
    /// The work queue is fully drained; the shard is no longer needed.
    Drained,
    /// The shard stopped answering and could not be reconnected; the
    /// supervisor decides whether to respawn it.
    Dead,
}

/// Drives one shard until the queue is empty or the shard dies. Returns
/// the number of tasks this shard completed and why it stopped.
fn drive_shard(
    index: usize,
    sock: &std::path::Path,
    queue: &WorkQueue,
    merged: &Mutex<Merged>,
    lines: &HashMap<usize, String>,
    journal: Option<&Journal>,
) -> (usize, ShardEnd) {
    let mut conn = match connect(sock, CONNECT_ATTEMPTS) {
        Some(conn) => conn,
        None => {
            log(format_args!("shard {index}: never came up"));
            return (0, ShardEnd::Dead);
        }
    };
    let mut done = 0usize;
    'tasks: while let Some(id) = queue.claim() {
        if let Some(j) = journal {
            j.claimed(id);
        }
        let line = &lines[&id];
        let mut overload_delay = Duration::from_millis(100);
        let mut exhausted_retries = 0u32;
        loop {
            match exchange(&mut conn, id, line) {
                Ok(response) => {
                    let status = response.get("status").and_then(Json::as_str);
                    if status == Some("ok") {
                        if let Some(j) = journal {
                            // fsync'd before complete(): a SIGKILL'd
                            // driver never loses a finished task.
                            j.done(id, &response);
                        }
                        merged
                            .lock()
                            .expect("merged lock")
                            .outcomes
                            .insert(id, TaskOutcome { response });
                        queue.complete();
                        done += 1;
                        continue 'tasks;
                    }
                    let kind = response
                        .get("error")
                        .and_then(|e| e.get("kind"))
                        .and_then(Json::as_str)
                        .unwrap_or("unknown");
                    if kind == "overloaded" {
                        // Transient by construction: honor the server's
                        // retry hint when it sent one, otherwise fall
                        // back to exponential backoff.
                        let hinted = response
                            .get("error")
                            .and_then(|e| e.get("retry_after_ms"))
                            .and_then(Json::as_f64)
                            .map(|ms| Duration::from_millis(ms.max(0.0) as u64));
                        let delay = match hinted {
                            Some(d) => d.min(Duration::from_secs(5)),
                            None => {
                                let d = overload_delay;
                                overload_delay = (overload_delay * 2).min(Duration::from_secs(5));
                                d
                            }
                        };
                        std::thread::sleep(delay);
                        continue;
                    }
                    if kind == "resource_exhausted" && exhausted_retries < EXHAUSTED_RETRY_LIMIT {
                        // Retryable only after pressure subsides: never
                        // immediately, always with jittered delay, and
                        // only a bounded number of times.
                        exhausted_retries += 1;
                        let delay = exhausted_backoff(id, exhausted_retries);
                        log(format_args!(
                            "shard {index}: task {id} resource_exhausted; retry {} of \
                             {EXHAUSTED_RETRY_LIMIT} in {delay:?}",
                            exhausted_retries
                        ));
                        std::thread::sleep(delay);
                        continue;
                    }
                    // Structured non-transient error (invalid_request,
                    // internal, exhausted retry budget, …): terminal for
                    // this task, never retried.
                    let message = response
                        .get("error")
                        .and_then(|e| e.get("message"))
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string();
                    log(format_args!("shard {index}: task {id} error [{kind}]"));
                    let detail = format!("[{kind}] {message}");
                    if let Some(j) = journal {
                        j.failed(id, &detail);
                    }
                    merged
                        .lock()
                        .expect("merged lock")
                        .failed
                        .push((id, detail));
                    queue.complete();
                    continue 'tasks;
                }
                Err(e) => {
                    // Connection trouble: the task goes back on the queue
                    // for whoever can take it; then try to reconnect.
                    log(format_args!("shard {index}: {e}; requeueing task {id}"));
                    queue.requeue(id);
                    match connect(sock, RECONNECT_ATTEMPTS) {
                        Some(fresh) => {
                            conn = fresh;
                            continue 'tasks;
                        }
                        None => {
                            log(format_args!(
                                "shard {index}: dead; {done} task(s) completed here, \
                                 remaining work reassigned"
                            ));
                            return (done, ShardEnd::Dead);
                        }
                    }
                }
            }
        }
    }
    (done, ShardEnd::Drained)
}
