//! The Sickle benchmark: one command runs one of three workloads against
//! the public library API and the `sickle-serve` binary, checks every
//! answer, and prints the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics of a traced run (`--trace 1`), ending with one JSON
//! line. See `README.md` next to this package for the workloads, the
//! metrics and the seeds.
//!
//! ```text
//! sickle-perfbench --bin-dir DIR --refs DIR --work DIR
//!     --workload suite|serve|edit --seed N --seconds S --trace 0|1
//!     [--demo-seed N] [--corpus-seed N]
//! ```

mod edit;
mod layers;
mod serve;
mod speed;
mod suite;
mod trace;
mod util;

use std::collections::BTreeMap;
use std::path::PathBuf;

use layers::Layers;
use speed::{Speed, Timed};

/// End-to-end metrics: name, unit. Every workload reports all of them.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("solved", "tasks"),
    ("latency_p50_s", "s"),
    ("latency_p90_s", "s"),
    ("latency_p99_s", "s"),
    ("throughput_rps", "req/s"),
    ("peak_rss_mb", "MiB"),
    ("ok_share", "ratio"),
];

/// Latency charged to an operation that failed or was refused: it misses
/// every latency limit.
const FAILED_LATENCY_S: f64 = 1e9;

/// The run's settings, from the command line.
pub struct Config {
    pub workload: String,
    /// Input seed: task order (`suite`), request order (`serve`), edit
    /// draws (`edit`).
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Demonstration seed of the suite tasks (`suite`, `edit`).
    pub demo_seed: u64,
    /// Seed of the generated corpus (`serve`).
    pub corpus_seed: u64,
    pub bin_dir: PathBuf,
    pub refs: PathBuf,
    pub work: PathBuf,
}

impl Config {
    /// Seconds of untraced passes: `--seconds`, or a single pass in a
    /// traced run, where it is the baseline of the tracing overhead.
    pub fn untraced_seconds(&self) -> f64 {
        if self.trace {
            0.0
        } else {
            self.seconds
        }
    }
}

/// What a workload run produced. Latencies of failed operations are
/// recorded as [`FAILED_LATENCY_S`]. Times are raw; the end-to-end
/// metrics scale them by the host-speed probes in `speed`.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (tasks, requests or edits), all passes.
    pub attempted: usize,
    /// One message per failed operation or failed check.
    pub failures: Vec<String>,
    /// Every set-up performed.
    pub setup_s: Vec<Timed>,
    /// Wall time of each timed pass, probes excluded.
    pub pass_wall_s: Vec<Timed>,
    /// Operations completed in the timed passes.
    pub pass_ops: usize,
    /// Per-operation latencies, all timed passes.
    pub latency_s: Vec<Timed>,
    /// Host-speed probes run between operations.
    pub speed: Speed,
    /// Correctly solved operations of each pass.
    pub solved: Vec<usize>,
    /// Peak RSS of the process doing the synthesis.
    pub peak_rss_mb: f64,
    /// Per-layer metrics (traced runs).
    pub layers: Layers,
    /// Notes printed with the report (sample counts, layer accounting).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn fail(&mut self, msg: String) {
        self.failures.push(msg);
    }

    /// Records the latency of an operation that failed or was refused.
    pub fn failed_latency(&mut self) {
        let now = std::time::Instant::now();
        self.latency_s.push(Timed {
            secs: FAILED_LATENCY_S,
            from: now,
            to: now,
        });
    }

    /// Runs passes of `pass` until `seconds` have been spent in timed
    /// passes (at least one); `pass` returns its own wall time.
    pub fn repeat_passes(
        &mut self,
        seconds: f64,
        mut pass: impl FnMut(&mut Outcome) -> Result<Timed, String>,
    ) -> Result<(), String> {
        let mut spent = 0.0;
        while self.pass_wall_s.is_empty() || spent < seconds {
            let wall = pass(self)?;
            self.pass_wall_s.push(wall);
            spent += wall.secs;
        }
        Ok(())
    }
}

/// Closes a traced run: the traced pass's wall time, span-derived
/// metrics, tracing overhead (traced minus untraced pass wall time), the
/// benchmark process's peak RSS, and the span file in the work
/// directory. `root` names the operation span.
pub fn finish_trace(
    cfg: &Config,
    tracer: &trace::Tracer,
    root: &str,
    out: &mut Outcome,
    plain_wall_s: f64,
    traced_wall: Timed,
) {
    let traced_wall_s = traced_wall.secs;
    out.pass_wall_s.push(traced_wall);
    let spans = tracer.spans();
    let l = &mut out.layers;
    l.set_spans(&spans, root);
    l.set("trace.overhead_s", traced_wall_s - plain_wall_s);
    l.set("bench.peak_rss_mb", util::peak_rss_mb(None));
    out.notes.push(format!(
        "tracing overhead: traced pass {traced_wall_s:.3}s vs untraced pass {plain_wall_s:.3}s ({:+.1}%)",
        100.0 * (traced_wall_s / plain_wall_s - 1.0)
    ));
    let path = cfg
        .work
        .join(format!("trace-{}-{}.tsv", cfg.workload, cfg.seed));
    match tracer.write(&path) {
        Ok(()) => out.notes.push(format!(
            "{} spans written to {}",
            spans.len(),
            path.display()
        )),
        Err(e) => out.fail(format!("could not write spans to {}: {e}", path.display())),
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("sickle-perfbench: {msg}");
    eprintln!(
        "usage: sickle-perfbench --bin-dir DIR --refs DIR --work DIR --workload suite|serve|edit \
         --seed N --seconds S --trace 0|1 [--demo-seed N] [--corpus-seed N]"
    );
    std::process::exit(2);
}

fn parse_args() -> Config {
    let mut kv: BTreeMap<String, String> = BTreeMap::new();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(key) = flag.strip_prefix("--") else {
            usage(&format!("unexpected argument {flag:?}"));
        };
        let Some(value) = args.next() else {
            usage(&format!("{flag} needs a value"));
        };
        kv.insert(key.to_string(), value);
    }
    let take = |k: &str| -> String {
        kv.get(k)
            .cloned()
            .unwrap_or_else(|| usage(&format!("--{k} is required")))
    };
    let num = |k: &str, v: String| -> u64 {
        v.parse()
            .unwrap_or_else(|_| usage(&format!("--{k}: not a whole number: {v:?}")))
    };
    let known = [
        "workload",
        "seed",
        "seconds",
        "trace",
        "demo-seed",
        "corpus-seed",
        "bin-dir",
        "refs",
        "work",
    ];
    if let Some(k) = kv.keys().find(|k| !known.contains(&k.as_str())) {
        usage(&format!("unknown flag --{k}"));
    }
    let workload = take("workload");
    if !["suite", "serve", "edit"].contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload:?}"));
    }
    let trace = match take("trace").as_str() {
        "0" => false,
        "1" => true,
        t => usage(&format!("--trace must be 0 or 1, not {t:?}")),
    };
    let seconds = num("seconds", take("seconds"));
    if seconds == 0 {
        usage("--seconds must be at least 1");
    }
    Config {
        seed: num("seed", take("seed")),
        seconds: seconds as f64,
        trace,
        demo_seed: kv
            .get("demo-seed")
            .map_or(suite::DEMO_SEED, |v| num("demo-seed", v.clone())),
        corpus_seed: kv
            .get("corpus-seed")
            .map_or(serve::CORPUS_SEED, |v| num("corpus-seed", v.clone())),
        bin_dir: PathBuf::from(take("bin-dir")),
        refs: PathBuf::from(take("refs")),
        work: PathBuf::from(take("work")),
        workload,
    }
}

fn end_to_end(out: &Outcome) -> Vec<(&'static str, &'static str, f64)> {
    // Failed operations keep their latency: it misses every limit.
    let scaled = |ts: &[Timed]| -> Vec<f64> {
        ts.iter()
            .map(|t| {
                if t.secs >= FAILED_LATENCY_S {
                    t.secs
                } else {
                    out.speed.scaled(t)
                }
            })
            .collect()
    };
    let (setup, walls, latency) = (
        scaled(&out.setup_s),
        scaled(&out.pass_wall_s),
        scaled(&out.latency_s),
    );
    let timed: f64 = walls.iter().sum();
    let value = |name: &str| -> f64 {
        match name {
            "setup_s" => util::median(&setup),
            "wall_s" => util::median(&walls),
            "solved" => util::median(&out.solved.iter().map(|&n| n as f64).collect::<Vec<_>>()),
            "latency_p50_s" => util::hd_quantile(&latency, 0.50),
            "latency_p90_s" => util::hd_quantile(&latency, 0.90),
            "latency_p99_s" => util::hd_quantile(&latency, 0.99),
            "throughput_rps" if timed > 0.0 => out.pass_ops as f64 / timed,
            "peak_rss_mb" => out.peak_rss_mb,
            "ok_share" if out.attempted > 0 => {
                (out.attempted - out.failures.len().min(out.attempted)) as f64
                    / out.attempted as f64
            }
            _ => 0.0,
        }
    };
    END_TO_END
        .iter()
        .map(|&(name, unit)| (name, unit, value(name)))
        .collect()
}

fn json_metrics(metrics: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            // JSON has no infinity or NaN; an unbounded time is a miss.
            let v = if v.is_finite() { *v } else { FAILED_LATENCY_S };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() {
    let cfg = parse_args();
    if let Err(e) = std::fs::create_dir_all(&cfg.work) {
        eprintln!(
            "sickle-perfbench: cannot create {}: {e}",
            cfg.work.display()
        );
        std::process::exit(2);
    }
    let out = match cfg.workload.as_str() {
        "suite" => suite::run(&cfg),
        "serve" => serve::run(&cfg),
        _ => edit::run(&cfg),
    };
    let out = match out {
        Ok(out) => out,
        Err(e) => {
            eprintln!(
                "sickle-perfbench: {} workload could not run: {e}",
                cfg.workload
            );
            std::process::exit(2);
        }
    };

    println!(
        "# workload={} seed={} seconds={} trace={} demo_seed={} corpus_seed={}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        cfg.demo_seed,
        cfg.corpus_seed
    );
    println!(
        "# attempted={} failed={} passes={} timed_ops={} latency_samples={} setups={}",
        out.attempted,
        out.failures.len(),
        out.pass_wall_s.len(),
        out.pass_ops,
        out.latency_s.len(),
        out.setup_s.len()
    );
    let raw_walls: Vec<f64> = out.pass_wall_s.iter().map(|t| t.secs).collect();
    println!("# raw pass wall times (s): {raw_walls:.3?}");
    println!("# {}", out.speed.summary());
    for f in out.failures.iter().take(20) {
        println!("# FAILED: {f}");
    }
    for n in &out.notes {
        println!("# {n}");
    }
    let metrics = if cfg.trace {
        out.layers.report()
    } else {
        end_to_end(&out)
    };
    for (name, unit, v) in &metrics {
        let mark = if cfg.trace && *v == 0.0 {
            "  (not exercised or not observable on this workload)"
        } else {
            ""
        };
        println!("{name:<32} {v:>16.6} {unit}{mark}");
    }
    let correct = out.failures.is_empty();
    // A failed whole-run check (the suite dump) is a failure without an
    // operation of its own; `failed` never exceeds `attempted`.
    let attempted = out.attempted.max(1);
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {}}}",
        out.failures.len().min(attempted),
        json_metrics(&metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}
