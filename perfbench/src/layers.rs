//! Per-layer metrics, measured from outside the program: the counters
//! its calls already return (`SearchStats`, response `stats`, session
//! accessors, the server's log line) and the spans of [`crate::trace`].
//! A metric that reads 0 was not exercised, or cannot be observed from
//! outside, on that workload.

use std::collections::BTreeMap;

use sickle_bench::Json;
use sickle_core::SearchStats;

use crate::trace::{totals_by_name, Span};

/// Per-layer metrics: name, unit. Every traced run reports all of them.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("demogen_s", "s"),
    ("session.solve_s", "s"),
    ("session.overhead_s", "s"),
    ("synth.visited", "count"),
    ("synth.pruned", "count"),
    ("synth.concrete_checked", "count"),
    ("synth.expanded", "count"),
    ("synth.prune_ratio", "ratio"),
    ("synth.expand_s", "s"),
    ("synth.analyze_s", "s"),
    ("synth.materialize_s", "s"),
    ("synth.prefilter_s", "s"),
    ("synth.match_s", "s"),
    ("synth.accept_yield", "ratio"),
    ("synth.stage_coverage", "ratio"),
    ("analyze.calls", "count"),
    ("analyze.busy_s", "s"),
    ("provenance.verdict_hit_ratio", "ratio"),
    ("provenance.pool_sets", "count"),
    ("engine.cache_evictions", "count"),
    ("engine.cache_demotions", "count"),
    ("engine.cache_reevals", "count"),
    ("engine.cache_reeval_s", "s"),
    ("engine.join_s", "s"),
    ("engine.join_rows", "count"),
    ("engine.mem_bytes", "bytes"),
    ("session.reused_verdicts", "count"),
    ("session.invalidated_verdicts", "count"),
    ("edit.cold_over_warm", "ratio"),
    ("wire.decode_s", "s"),
    ("wire.encode_s", "s"),
    ("wire.bytes_in", "bytes"),
    ("wire.bytes_out", "bytes"),
    ("server.overhead_s", "s"),
    ("server.overhead_p50_s", "s"),
    ("server.answer_s", "s"),
    ("server.sessions", "count"),
    ("server.bytes", "bytes"),
    ("server.shed", "count"),
    ("self.op_s", "s"),
    ("self.solve_s", "s"),
    ("self.analyze_s", "s"),
    ("bench.peak_rss_mb", "MiB"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
];

/// The per-layer values of one traced run.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unlisted metric {name}"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Every listed metric, in list order, 0 where unset.
    pub fn report(&self) -> Vec<(&'static str, &'static str, f64)> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, self.get(name)))
            .collect()
    }

    /// Span-derived metrics: analyzer calls and busy time, self time of
    /// the operation, solve and analyze spans, span count.
    pub fn set_spans(&mut self, spans: &[Span], root: &str) {
        let totals = totals_by_name(spans);
        let t = |name: &str| totals.get(name).copied().unwrap_or_default();
        self.set("analyze.calls", t("analyze").count as f64);
        self.set("analyze.busy_s", t("analyze").total_s);
        self.set("self.op_s", t(root).self_s);
        self.set("self.solve_s", t("solve").self_s);
        self.set("self.analyze_s", t("analyze").self_s);
        self.set("trace.spans", spans.len() as f64);
        if t("analyze").count > 0 {
            self.set(
                "synth.prune_ratio",
                self.get("synth.pruned") / t("analyze").count as f64,
            );
        }
    }
}

/// Sums of search statistics over the operations of one pass, read from
/// `SearchStats` in-process or from a response's `stats` object.
#[derive(Debug, Default, Clone)]
pub struct StatsSum {
    pub visited: f64,
    pub pruned: f64,
    pub concrete_checked: f64,
    pub expanded: f64,
    pub elapsed_s: f64,
    pub expand_s: f64,
    pub analyze_s: f64,
    pub materialize_s: f64,
    pub prefilter_s: f64,
    pub match_s: f64,
    pub join_s: f64,
    pub join_rows: f64,
    pub evictions: f64,
    pub demotions: f64,
    pub reevals: f64,
    pub reeval_s: f64,
    pub mem_bytes_max: f64,
    pub reused: f64,
    pub invalidated: f64,
    pub solutions: f64,
}

impl StatsSum {
    pub fn add(&mut self, s: &SearchStats, solutions: usize) {
        self.visited += s.visited as f64;
        self.pruned += s.pruned as f64;
        self.concrete_checked += s.concrete_checked as f64;
        self.expanded += s.expanded as f64;
        self.elapsed_s += s.elapsed.as_secs_f64();
        self.expand_s += s.time_expand.as_secs_f64();
        self.analyze_s += s.time_analyze.as_secs_f64();
        self.materialize_s += s.time_materialize.as_secs_f64();
        self.prefilter_s += s.time_prefilter.as_secs_f64();
        self.match_s += s.time_match.as_secs_f64();
        self.join_s += s.time_join.as_secs_f64();
        self.join_rows += s.join_rows as f64;
        self.evictions += s.cache_evictions as f64;
        self.demotions += s.cache_demotions as f64;
        self.reevals += s.cache_reevals as f64;
        self.reeval_s += s.cache_reeval_time.as_secs_f64();
        self.mem_bytes_max = self.mem_bytes_max.max(s.mem_bytes as f64);
        self.reused += s.reused_verdicts as f64;
        self.invalidated += s.invalidated_verdicts as f64;
        self.solutions += solutions as f64;
    }

    /// Adds a wire response's `stats` object (missing fields read 0).
    pub fn add_json(&mut self, stats: &Json, solutions: usize) {
        let f = |k: &str| stats.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        self.visited += f("visited");
        self.pruned += f("pruned");
        self.concrete_checked += f("concrete_checked");
        self.expanded += f("expanded");
        self.elapsed_s += f("wall_s");
        self.expand_s += f("time_expand_s");
        self.analyze_s += f("time_analyze_s");
        self.materialize_s += f("time_materialize_s");
        self.prefilter_s += f("time_prefilter_s");
        self.match_s += f("time_match_s");
        self.join_s += f("time_join_s");
        self.join_rows += f("join_rows");
        self.evictions += f("cache_evictions");
        self.demotions += f("cache_demotions");
        self.reevals += f("cache_reevals");
        self.reeval_s += f("cache_reeval_s");
        self.mem_bytes_max = self.mem_bytes_max.max(f("mem_bytes"));
        self.reused += f("reused_verdicts");
        self.invalidated += f("invalidated_verdicts");
        self.solutions += solutions as f64;
    }

    fn stage_s(&self) -> f64 {
        self.expand_s + self.analyze_s + self.materialize_s + self.prefilter_s + self.match_s
    }

    /// Writes the `synth.*`, `engine.*` and `session.*` counters. With
    /// `solve_s` (Σ `Session::solve` wall time, 0 when not observable)
    /// also the session overhead and the stage coverage.
    pub fn fill(&self, layers: &mut Layers, solve_s: f64) {
        layers.set("synth.visited", self.visited);
        layers.set("synth.pruned", self.pruned);
        layers.set("synth.concrete_checked", self.concrete_checked);
        layers.set("synth.expanded", self.expanded);
        layers.set("synth.expand_s", self.expand_s);
        layers.set("synth.analyze_s", self.analyze_s);
        layers.set("synth.materialize_s", self.materialize_s);
        layers.set("synth.prefilter_s", self.prefilter_s);
        layers.set("synth.match_s", self.match_s);
        if self.concrete_checked > 0.0 {
            layers.set("synth.accept_yield", self.solutions / self.concrete_checked);
        }
        layers.set("engine.cache_evictions", self.evictions);
        layers.set("engine.cache_demotions", self.demotions);
        layers.set("engine.cache_reevals", self.reevals);
        layers.set("engine.cache_reeval_s", self.reeval_s);
        layers.set("engine.join_s", self.join_s);
        layers.set("engine.join_rows", self.join_rows);
        layers.set("engine.mem_bytes", self.mem_bytes_max);
        layers.set("session.reused_verdicts", self.reused);
        layers.set("session.invalidated_verdicts", self.invalidated);
        if solve_s > 0.0 {
            layers.set("session.solve_s", solve_s);
            layers.set("session.overhead_s", solve_s - self.elapsed_s);
            layers.set("synth.stage_coverage", self.stage_s() / solve_s);
        }
    }

    /// One-line layer accounting for the report.
    pub fn accounting(&self, solve_s: f64) -> String {
        if solve_s <= 0.0 {
            return format!(
                "layer accounting: search stats.elapsed {:.3}s, stage timers {:.3}s \
                 (Session::solve not observable from outside on this workload)",
                self.elapsed_s,
                self.stage_s()
            );
        }
        format!(
            "layer accounting: session.solve_s {solve_s:.3}s = stats.elapsed {:.3}s + \
             session.overhead_s {:.3}s; synth.stage_coverage {:.1}% (stage timers {:.3}s)",
            self.elapsed_s,
            solve_s - self.elapsed_s,
            100.0 * self.stage_s() / solve_s,
            self.stage_s()
        )
    }
}
