//! `serve`: a closed loop against a child `sickle-serve --listen unix:`
//! with its default configuration. One load generator holds two
//! connections and sends each connection's next request as soon as its
//! reply arrives (no think time), the way `sickle-shard` and interactive
//! callers wait for their replies.
//!
//! A pass sends every request kind of a fixed mix equally often, in an
//! order the benchmark's LCG draws. The mix:
//! inline-table requests for every bundle of a corpus generated at set-up
//! by `sickle-corpus generate` (JSON and CSV tables, all five families)
//! and `benchmark` requests for forum-easy suite tasks that finish well
//! inside their budget. The mix has more demo families than the server's
//! default eight-session pool, so repeats hit warm sessions and LRU
//! eviction runs.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sickle_bench::corpus::{load_corpus, wire_line, CorpusFilters};
use sickle_bench::{finish_response, Json, WireRequest};
use sickle_core::{Session, SynthResult};

use crate::layers::StatsSum;
use crate::speed::Timed;
use crate::trace::Tracer;
use crate::util::{median, peak_rss_mb, Lcg};
use crate::{finish_trace, Config, Outcome};

/// Seed of the corpus generated at set-up.
pub const CORPUS_SEED: u64 = 42;
/// Corpus candidates generated; about three quarters are admitted.
const CORPUS_CANDIDATES: usize = 24;
/// Forum-easy suite tasks sent as `benchmark` requests (each solves in a
/// few milliseconds at the visit budget below).
const BENCH_TASKS: [usize; 8] = [2, 3, 5, 9, 10, 13, 14, 15];
const BENCH_BUDGET: &str = r#"{"max_visited":20000,"timeout_secs":null}"#;
/// Requests per pass, split over the connections as they free up.
const PASS_REQUESTS: usize = 2_000;
/// Concurrent client connections (the machine's two cores).
const CONNECTIONS: usize = 2;
/// Set-ups per run (the median is reported).
const SETUPS: usize = 3;

/// One kind of request in the mix and how its answer is checked.
struct Kind {
    /// The request line with `"id":null`, replaced per request.
    line: String,
    /// Expected solutions (corpus bundle), or `None` for a `benchmark`
    /// request, which must come back `solved: true`.
    expected: Option<Vec<String>>,
}

/// One parsed per-request log line of the server.
#[derive(Clone, Copy, Default)]
struct LogLine {
    answered_s: f64,
    sessions: f64,
    sets: f64,
    bytes: f64,
}

#[derive(Default)]
struct ServerLog {
    answered: Vec<LogLine>,
    shed: usize,
}

fn parse_log_line(line: &str, log: &mut ServerLog) {
    if line.contains("shed request") {
        log.shed += 1;
        return;
    }
    let Some(rest) = line.split(" answered in ").nth(1) else {
        return;
    };
    let field = |key: &str| -> f64 {
        rest.split(key)
            .nth(1)
            .and_then(|v| v.split([',', ')']).next())
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0.0)
    };
    log.answered.push(LogLine {
        answered_s: rest
            .split('s')
            .next()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.0),
        sessions: field("sessions="),
        sets: field("sets="),
        bytes: field("bytes="),
    });
}

/// A running `sickle-serve` child. Dropping it kills the child, waits
/// for it, joins its log reader and removes the socket.
struct Server {
    child: Child,
    socket: PathBuf,
    log: Arc<Mutex<ServerLog>>,
    reader: Option<JoinHandle<()>>,
}

impl Server {
    fn spawn(bin: &Path, socket: PathBuf) -> Result<Server, String> {
        let _ = std::fs::remove_file(&socket);
        let mut child = Command::new(bin)
            .arg("--listen")
            .arg(format!("unix:{}", socket.display()))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let log = Arc::new(Mutex::new(ServerLog::default()));
        let sink = Arc::clone(&log);
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                parse_log_line(&line, &mut sink.lock().expect("server log poisoned"));
            }
        });
        Ok(Server {
            child,
            socket,
            log,
            reader: Some(reader),
        })
    }

    /// Connects, retrying until the server listens (10 s at most).
    fn connect(&mut self) -> Result<UnixStream, String> {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match UnixStream::connect(&self.socket) {
                Ok(s) => return Ok(s),
                Err(e) => {
                    if let Ok(Some(status)) = self.child.try_wait() {
                        return Err(format!("sickle-serve exited at start-up: {status}"));
                    }
                    if Instant::now() > deadline {
                        return Err(format!("cannot connect to sickle-serve: {e}"));
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }
    }

    fn answered(&self) -> usize {
        self.log.lock().expect("server log poisoned").answered.len()
    }

    /// Waits (2 s at most) until `n` requests have been logged.
    fn wait_logged(&self, n: usize) {
        let deadline = Instant::now() + Duration::from_secs(2);
        while self.answered() < n && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// A set-up: corpus generated and loaded, request stream rendered,
/// server started and both connections open.
struct Setup {
    kinds: Vec<Kind>,
    /// Per request of a pass: its kind and its line.
    stream: Vec<(usize, String)>,
    server: Server,
    conns: Vec<UnixStream>,
}

fn setup(cfg: &Config, round: usize, out: &mut Outcome) -> Result<Setup, String> {
    let t0 = Instant::now();
    let dir = cfg
        .work
        .join(format!("corpus-{}-{round}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let status = Command::new(cfg.bin_dir.join("sickle-corpus"))
        .args(["generate", "--seed", &cfg.corpus_seed.to_string()])
        .args(["--count", &CORPUS_CANDIDATES.to_string()])
        .arg("--out")
        .arg(&dir)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run sickle-corpus: {e}"))?;
    if !status.success() {
        return Err(format!("sickle-corpus generate failed: {status}"));
    }
    let bundles = load_corpus(&dir, &CorpusFilters::default())?;
    let _ = std::fs::remove_dir_all(&dir);
    let mut kinds = Vec::new();
    for b in &bundles {
        kinds.push(Kind {
            line: wire_line(b, &Json::Null)?,
            expected: Some(b.expected.clone()),
        });
    }
    for id in BENCH_TASKS {
        kinds.push(Kind {
            line: format!(r#"{{"id":null,"benchmark":{id},"budget":{BENCH_BUDGET}}}"#),
            expected: None,
        });
    }
    // Every kind equally often; the seed draws the order.
    let mut order: Vec<usize> = (0..PASS_REQUESTS).map(|i| i % kinds.len()).collect();
    Lcg::new(cfg.seed).shuffle(&mut order);
    let stream = order
        .into_iter()
        .enumerate()
        .map(|(i, k)| {
            let line = kinds[k]
                .line
                .replacen("\"id\":null", &format!("\"id\":{i}"), 1);
            (k, line + "\n")
        })
        .collect();
    let socket = cfg
        .work
        .join(format!("serve-{}-{round}.sock", std::process::id()));
    let mut server = Server::spawn(&cfg.bin_dir.join("sickle-serve"), socket)?;
    let mut conns = vec![server.connect()?];
    out.setup_s.push(Timed::since(t0));
    out.speed.probe();
    while conns.len() < CONNECTIONS {
        conns.push(server.connect()?);
    }
    Ok(Setup {
        kinds,
        stream,
        server,
        conns,
    })
}

/// One pass: the request stream over the connections, closed loop. Each
/// response is kept with its client-side latency; failed reads are
/// `None`.
fn pass(setup: &Setup, tracer: Option<&Arc<Tracer>>) -> (Timed, Vec<Option<(String, Timed)>>) {
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<(String, Timed)>>> = Mutex::new(vec![None; setup.stream.len()]);
    let started = Instant::now();
    std::thread::scope(|scope| {
        for conn in &setup.conns {
            let (next, results) = (&next, &results);
            scope.spawn(move || {
                let Ok(read_half) = conn.try_clone() else {
                    return;
                };
                let mut reader = BufReader::new(read_half);
                let mut writer = conn;
                let mut response = String::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some((_, line)) = setup.stream.get(i) else {
                        return;
                    };
                    let span = tracer.map(|t| t.open());
                    let t0 = Instant::now();
                    response.clear();
                    let ok = writer.write_all(line.as_bytes()).is_ok()
                        && matches!(reader.read_line(&mut response), Ok(n) if n > 0);
                    let latency = Timed::since(t0);
                    if let (Some(t), Some(id)) = (tracer, span) {
                        t.close(id, 0, i as u64, "request", t0);
                    }
                    if !ok {
                        return;
                    }
                    results.lock().expect("results poisoned")[i] =
                        Some((std::mem::take(&mut response), latency));
                }
            });
        }
    });
    let wall = Timed::since(started);
    (wall, results.into_inner().expect("results poisoned"))
}

/// Per-pass totals of the checked responses.
#[derive(Default)]
struct Checked {
    stats: StatsSum,
    overheads: Vec<f64>,
    overloaded: usize,
    bytes_out: usize,
}

/// Checks every response of a pass and records latencies and failures.
fn check(setup: &Setup, results: &[Option<(String, Timed)>], out: &mut Outcome) -> Checked {
    let mut checked = Checked::default();
    let mut solved = 0;
    for (i, result) in results.iter().enumerate() {
        out.attempted += 1;
        let Some((line, latency)) = result else {
            out.fail(format!("request {i}: no response"));
            out.failed_latency();
            continue;
        };
        checked.bytes_out += line.len();
        let kind = &setup.kinds[setup.stream[i].0];
        let verdict = match Json::parse(line.trim_end()) {
            Err(e) => Err(format!("unparseable response: {e}")),
            Ok(r) => {
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
                let status = r.get("status").and_then(Json::as_str).unwrap_or("");
                if let Some(stats) = r.get("stats") {
                    checked.stats.add_json(stats, solutions.len());
                    let wall = stats.get("wall_s").and_then(Json::as_f64).unwrap_or(0.0);
                    checked.overheads.push(latency.secs - wall);
                }
                if r.get("id").and_then(Json::as_usize) != Some(i) {
                    Err("response id does not echo the request".to_string())
                } else if status != "ok" {
                    let kind = r
                        .get("error")
                        .and_then(|e| e.get("kind"))
                        .and_then(Json::as_str)
                        .unwrap_or("?");
                    if kind == "overloaded" {
                        checked.overloaded += 1;
                    }
                    Err(format!("status {status:?} ({kind})"))
                } else {
                    match &kind.expected {
                        Some(expected) if &solutions != expected => {
                            Err("solutions differ from the corpus expectation".to_string())
                        }
                        None if r.get("solved").and_then(Json::as_bool) != Some(true) => {
                            Err("benchmark task not solved".to_string())
                        }
                        _ => Ok(()),
                    }
                }
            }
        };
        match verdict {
            Ok(()) => {
                solved += 1;
                out.latency_s.push(*latency);
            }
            Err(e) => {
                out.fail(format!("request {i}: {e}"));
                out.failed_latency();
            }
        }
    }
    out.pass_ops += results.len();
    out.solved.push(solved);
    checked
}

/// In-process timing of the wire layer over the pass's stream: parse and
/// decode each request line, and encode a response for it from a result
/// solved once per kind (untimed).
fn wire_pass(setup: &Setup, tracer: &Tracer) -> Result<usize, String> {
    let session = Session::new();
    let mut results: Vec<Option<SynthResult>> = vec![None; setup.kinds.len()];
    let mut bytes_in = 0;
    for (i, (k, line)) in setup.stream.iter().enumerate() {
        bytes_in += line.len();
        let decode = tracer.open();
        let t0 = Instant::now();
        let wire = Json::parse(line.trim_end())
            .map_err(|e| e.to_string())
            .and_then(|j| WireRequest::from_json(&j).map_err(|e| e.to_string()))
            .map_err(|e| format!("request {i}: wire decode failed: {e}"))?;
        tracer.close(decode, 0, i as u64, "wire.decode", t0);
        if results[*k].is_none() {
            let res = session
                .solve(&wire.request)
                .map_err(|e| format!("request {i}: in-process solve failed: {e}"))?;
            results[*k] = Some(res);
        }
        let result = results[*k].as_ref().expect("solved above");
        let encode = tracer.open();
        let t0 = Instant::now();
        std::hint::black_box(finish_response(&wire, result).render());
        tracer.close(encode, 0, i as u64, "wire.encode", t0);
    }
    Ok(bytes_in)
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setup_run = None;
    out.speed.probe();
    for round in 0..SETUPS {
        // Earlier set-ups' servers stop as they are replaced.
        setup_run = Some(setup(cfg, round, &mut out)?);
    }
    let s = setup_run.expect("at least one set-up");

    // Probes run between passes only: a probe inside a pass would stall
    // both connections.
    let run_pass = |out: &mut Outcome, tracer: Option<&Arc<Tracer>>| {
        let logged = s.server.answered();
        let (wall, results) = pass(&s, tracer);
        out.speed.probe();
        s.server.wait_logged(logged + results.len());
        let checked = check(&s, &results, out);
        (wall, checked, logged)
    };

    // A traced run makes one untraced pass, as the baseline of the
    // tracing overhead.
    let mut plain_wall = 0.0;
    out.repeat_passes(cfg.untraced_seconds(), |out| {
        let wall = run_pass(out, None).0;
        plain_wall = wall.secs;
        Ok(wall)
    })?;
    if !cfg.trace {
        out.peak_rss_mb = peak_rss_mb(Some(s.server.child.id()));
        return Ok(out);
    }
    let tracer = Tracer::new();
    let (traced_wall, checked, logged) = run_pass(&mut out, Some(&tracer));
    let server_log: Vec<LogLine> =
        s.server.log.lock().expect("server log poisoned").answered[logged..].to_vec();
    let shed = s.server.log.lock().expect("server log poisoned").shed;
    out.peak_rss_mb = peak_rss_mb(Some(s.server.child.id()));
    let bytes_in = wire_pass(&s, &tracer)?;

    let l = &mut out.layers;
    checked.stats.fill(l, 0.0);
    let spans = tracer.spans();
    let totals = crate::trace::totals_by_name(&spans);
    let total = |name: &str| totals.get(name).map_or(0.0, |t| t.total_s);
    l.set("wire.decode_s", total("wire.decode"));
    l.set("wire.encode_s", total("wire.encode"));
    l.set("wire.bytes_in", bytes_in as f64);
    l.set("wire.bytes_out", checked.bytes_out as f64);
    l.set("server.overhead_s", checked.overheads.iter().sum());
    l.set("server.overhead_p50_s", median(&checked.overheads));
    l.set(
        "server.answer_s",
        server_log.iter().map(|x| x.answered_s).sum(),
    );
    let max = |f: fn(&LogLine) -> f64| server_log.iter().map(f).fold(0.0, f64::max);
    l.set("server.sessions", max(|x| x.sessions));
    l.set("server.bytes", max(|x| x.bytes));
    l.set("provenance.pool_sets", max(|x| x.sets));
    l.set("server.shed", (shed + checked.overloaded) as f64);
    out.notes.push(checked.stats.accounting(0.0));
    out.notes.push(format!(
        "server peak RSS {:.1} MiB (peak_rss_mb); benchmark process peak RSS in bench.peak_rss_mb",
        out.peak_rss_mb
    ));
    finish_trace(cfg, &tracer, "request", &mut out, plain_wall, traced_wall);
    Ok(out)
}
