//! The in-process workloads, `paper-figs` and `flow-scale`.
//!
//! A pass runs every builtin of the workload once, cold, and renders and
//! checks its reports. Pass `i` of a run at seed `s` overrides the seed
//! grid of the workload's `j`-th builtin with `s + i * (j + 1)`, so one
//! run averages over several inputs and pass 0 of the default seed
//! reproduces the builtins exactly.
//!
//! Untraced passes run through `dcn_runner::run`, the call `xp run`
//! makes. Traced passes run the same points serially through the public
//! executor functions of `dcn-scenarios`, with a span around each call,
//! and must render the same bytes.

use crate::layers::{self, Counts};
use crate::sys::{cpu_s, now, peak_rss_mb, since, threads};
use crate::trace::{self, Tracer};
use crate::verify::{self, Expected};
use crate::{median, prepare, quantile, Opts, RunResult};
use dcn_runner::{entry_key, fnv1a64, point_key, CacheKey, Outcome, RunConfig};
use dcn_scenarios::{
    run_sweep_point_observed, run_trace_entry_observed, sweep_points, trace_entries, EngineKind,
    ScenarioOutput, ScenarioSpec, SweepResult, TraceScenario,
};
use dcn_telemetry::TraceReport;
use std::process::{Command, Stdio};

/// An in-process workload: the builtins one pass runs.
pub struct Workload {
    /// Workload name.
    pub name: &'static str,
    /// Builtins, in run order.
    pub builtins: &'static [&'static str],
    /// Executor threads for untraced passes.
    pub threads: fn() -> usize,
}

/// The paper's packet-level figures.
pub const PAPER_FIGS: Workload = Workload {
    name: "paper-figs",
    builtins: &["fig3", "fig4", "fig6", "fig7", "fig8"],
    threads,
};

/// One flow-engine point at 100,000 hosts.
pub const FLOW_SCALE: Workload = Workload {
    name: "flow-scale",
    builtins: &["fattree-100k"],
    threads: || 1,
};

/// Set-ups timed per run for `setup_s`.
const SETUP_REPS: usize = 200;

/// One rendered report.
pub struct Report {
    /// Builtin name.
    pub name: &'static str,
    /// The seed it ran at (`None` without a seed grid).
    pub seed: Option<u64>,
    /// JSON rendering.
    pub json: String,
    /// CSV rendering.
    pub csv: String,
}

impl Report {
    /// `fnv1a64` of the JSON and of the CSV rendering.
    fn digests(&self) -> (u64, u64) {
        (fnv1a64(self.json.as_bytes()), fnv1a64(self.csv.as_bytes()))
    }
}

/// The in-process workload called `name`.
pub fn workload(name: &str) -> Option<&'static Workload> {
    [&PAPER_FIGS, &FLOW_SCALE]
        .into_iter()
        .find(|w| w.name == name)
}

/// The seed grid of the workload's `j`-th builtin in pass `i`: each
/// builtin steps through seeds at its own stride, so the builtins of one
/// pass see unrelated inputs and their costs do not rise and fall
/// together.
fn pass_seed(seed: u64, i: u64, j: usize) -> u64 {
    seed.wrapping_add(i.wrapping_mul(j as u64 + 1))
}

/// The seed a spec actually ran at (`None` without a seed grid).
fn spec_seed(spec: &ScenarioSpec) -> Option<u64> {
    (!spec.runs_as_entries()).then(|| spec.sweep.seeds[0])
}

/// What an untraced pass measured.
struct Pass {
    wall_s: f64,
    cpu_s: f64,
    /// Latency of every report: set-up, run, render and shape check.
    job_ms: Vec<f64>,
    /// One per builtin: the report, or why there is none or its shape
    /// is wrong.
    reports: Vec<Result<Report, String>>,
    cache_hits: u64,
    cache_misses: u64,
}

/// Pass `i` as `xp run` makes it: every builtin through
/// `dcn_runner::run`, rendered and shape-checked.
fn untraced_pass(w: &Workload, seed: u64, i: u64) -> Pass {
    let (t0, cpu0) = (now(), cpu_s("self").unwrap_or(0.0));
    let mut pass = Pass {
        wall_s: 0.0,
        cpu_s: 0.0,
        job_ms: Vec::new(),
        reports: Vec::new(),
        cache_hits: 0,
        cache_misses: 0,
    };
    let cfg = RunConfig {
        threads: (w.threads)(),
        ..RunConfig::default()
    };
    for (j, &name) in w.builtins.iter().enumerate() {
        let tj = now();
        let report = prepare(name, pass_seed(seed, i, j)).and_then(|(spec, points)| {
            let (out, stats) = dcn_runner::run(&spec, &cfg)?;
            pass.cache_hits += stats.cache_hits;
            pass.cache_misses += stats.cache_misses;
            let (json, csv) = (out.to_json(), out.to_csv());
            verify::check_report(name, points, &json, &csv)?;
            Ok(Report {
                name,
                seed: spec_seed(&spec),
                json,
                csv,
            })
        });
        pass.job_ms.push(since(tj) * 1e3);
        pass.reports.push(report);
    }
    pass.wall_s = since(t0);
    pass.cpu_s = cpu_s("self").unwrap_or(0.0) - cpu0;
    pass
}

/// The child-process side of an untraced pass: run pass `i` and return
/// the lines the parent reads (see [`child_pass`]).
pub fn pass_main(workload_name: &str, seed: u64, i: u64) -> Result<String, String> {
    let w = workload(workload_name).ok_or_else(|| format!("no workload {workload_name:?}"))?;
    let pass = untraced_pass(w, seed, i);
    let mut out = format!(
        "wall {}\ncpu {}\nrss {}\n",
        pass.wall_s,
        pass.cpu_s,
        peak_rss_mb("self").unwrap_or(0.0)
    );
    for ms in &pass.job_ms {
        out.push_str(&format!("job {ms}\n"));
    }
    for r in &pass.reports {
        match r {
            Ok(r) => {
                let (j, c) = r.digests();
                let seed = r.seed.map_or_else(|| "-".to_string(), |s| s.to_string());
                out.push_str(&format!("report {} {seed} {j:016x} {c:016x}\n", r.name));
            }
            Err(e) => out.push_str(&format!("fail {}\n", e.replace('\n', " "))),
        }
    }
    Ok(out)
}

/// What a child pass reported: wall, CPU and peak memory of the pass,
/// and its report latencies.
struct ChildPass {
    wall_s: f64,
    cpu_s: f64,
    rss_mb: f64,
    job_ms: Vec<f64>,
}

/// Run untraced pass `i` in a fresh process, as a user's `xp run` is,
/// so its peak memory is its own. Digests are checked here against
/// `expected`; every report is one checked operation.
fn child_pass(
    w: &Workload,
    opts: &Opts,
    i: u64,
    expected: &[Expected],
    res: &mut RunResult,
) -> Option<ChildPass> {
    let out = Command::new(&opts.exe)
        .args(["pass", w.name, &opts.seed.to_string(), &i.to_string()])
        .stderr(Stdio::inherit())
        .output();
    let text = match &out {
        Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).into_owned(),
        Ok(o) => return child_failed(w, res, format!("pass {i} exited with {}", o.status)),
        Err(e) => return child_failed(w, res, format!("pass {i} did not start: {e}")),
    };
    let mut pass = ChildPass {
        wall_s: 0.0,
        cpu_s: 0.0,
        rss_mb: 0.0,
        job_ms: Vec::new(),
    };
    for line in text.lines() {
        let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
        let num = || rest.parse::<f64>().unwrap_or(f64::NAN);
        match key {
            "wall" => pass.wall_s = num(),
            "cpu" => pass.cpu_s = num(),
            "rss" => pass.rss_mb = num(),
            "job" => pass.job_ms.push(num()),
            "report" => res.check(report_line(rest, expected)),
            "fail" => res.check(Err(rest.to_string())),
            _ => res.check(Err(format!("pass {i}: unexpected line {line:?}"))),
        }
    }
    Some(pass)
}

/// Every report of a pass whose process failed counts as failed.
fn child_failed(w: &Workload, res: &mut RunResult, why: String) -> Option<ChildPass> {
    for _ in w.builtins {
        res.check(Err(why.clone()));
    }
    None
}

/// Check a `report <name> <seed|-> <json> <csv>` line's digests.
fn report_line(rest: &str, expected: &[Expected]) -> Result<(), String> {
    let f: Vec<&str> = rest.split(' ').collect();
    let hex = |x: &str| u64::from_str_radix(x, 16).map_err(|_| format!("bad digest line {rest:?}"));
    let [name, seed, json, csv] = f[..] else {
        return Err(format!("bad report line {rest:?}"));
    };
    verify::check_digests(name, seed.parse().ok(), (hex(json)?, hex(csv)?), expected)
}

/// Check an in-process pass's reports: shape (already folded in) and
/// digests.
fn check_pass(pass: &Pass, expected: &[Expected], res: &mut RunResult) {
    for r in &pass.reports {
        res.check(match r {
            Ok(r) => verify::check_digests(r.name, r.seed, r.digests(), expected),
            Err(e) => Err(e.clone()),
        });
    }
}

/// The span name of one point: the layer that does its work.
fn point_layer(spec: &ScenarioSpec) -> &'static str {
    if spec.analytic().is_some() {
        return "fluid.point";
    }
    match spec.trace().map(|t| &t.scenario) {
        Some(TraceScenario::Rdcn { .. }) => "rdcn.point",
        Some(_) => "telemetry.point",
        None if spec.engine == EngineKind::Flow => "flow.point",
        None => "sim.point",
    }
}

/// Spans whose per-pass totals feed the layer metrics.
const LAYER_SPANS: [&str; 8] = [
    "scenarios.spec",
    "scenarios.reduce",
    "scenarios.render",
    "sim.point",
    "flow.point",
    "telemetry.point",
    "rdcn.point",
    "fluid.point",
];

/// Per-pass span totals of the layer spans, over the traced passes.
#[derive(Default)]
pub struct LayerTimes {
    passes: Vec<[f64; LAYER_SPANS.len()]>,
}

impl LayerTimes {
    /// Fold in one traced pass.
    pub fn add(&mut self, spans: &[trace::Span]) {
        self.passes
            .push(LAYER_SPANS.map(|n| trace::total(spans, n)));
    }

    /// Median per-pass seconds in spans called `name`.
    fn median(&self, name: &str) -> f64 {
        let i = LAYER_SPANS
            .iter()
            .position(|n| *n == name)
            .expect("layer span");
        median(&self.passes.iter().map(|p| p[i]).collect::<Vec<_>>())
    }

    /// Record the `scenarios.*`, `sim.*`, `flow.*`, `workloads.flows`,
    /// `telemetry.busy_s`, `rdcn.busy_s` and `fluid.busy_s` metrics.
    pub fn push(&self, res: &mut RunResult, counts: &Counts) {
        let n = self.passes.len();
        let busy: f64 = LAYER_SPANS[3..].iter().map(|s| self.median(s)).sum();
        res.push(
            "scenarios.spec_ms",
            "ms",
            self.median("scenarios.spec") * 1e3,
            n,
        );
        res.push("scenarios.points", "count", counts.points as f64, 1);
        res.push("scenarios.point_busy_s", "s", busy, n);
        res.push(
            "scenarios.reduce_ms",
            "ms",
            self.median("scenarios.reduce") * 1e3,
            n,
        );
        res.push(
            "scenarios.render_ms",
            "ms",
            self.median("scenarios.render") * 1e3,
            n,
        );
        res.push("telemetry.busy_s", "s", self.median("telemetry.point"), n);
        res.push("rdcn.busy_s", "s", self.median("rdcn.point"), n);
        res.push("fluid.busy_s", "s", self.median("fluid.point"), n);
        let counts = Counts {
            sim_busy_s: self.median("sim.point"),
            flow_busy_s: self.median("flow.point"),
            ..counts.clone()
        };
        counts.push_metrics(res, n);
    }
}

/// The serial, traced twin of an untraced pass: each `(builtin, seed)`
/// is prepared, its points run one by one through the public executor
/// functions, reduced and rendered, each step in its own span. Counters
/// and point outcomes (with their cache keys) are added to `counts` and
/// `outcomes`.
pub fn traced_reports(
    jobs: &[(&'static str, u64)],
    tracer: &Tracer,
    counts: &mut Counts,
    outcomes: &mut Vec<(CacheKey, Outcome)>,
) -> Result<Vec<Report>, String> {
    let mut reports = Vec::new();
    for &(name, seed) in jobs {
        let (spec, _) = tracer.span("scenarios.spec", || prepare(name, seed))?;
        let layer = point_layer(&spec);
        let out = if spec.runs_as_entries() {
            let mut entries = Vec::new();
            for e in trace_entries(&spec) {
                let (entry, stats) = tracer.span(layer, || run_trace_entry_observed(&spec, &e));
                counts.points += 1;
                if let Some(s) = stats {
                    counts.add_packet_trace(&s);
                }
                outcomes.push((
                    entry_key(&spec, &e),
                    Outcome::Trace(Box::new(entry.clone())),
                ));
                entries.push(entry);
            }
            tracer.span("scenarios.reduce", || {
                ScenarioOutput::Trace(TraceReport {
                    name: spec.name.clone(),
                    description: spec.description.clone(),
                    entries,
                })
            })
        } else {
            let mut points = Vec::new();
            for p in sweep_points(&spec) {
                let (o, stats) = tracer.span(layer, || run_sweep_point_observed(&spec, &p));
                counts.points += 1;
                counts.offered_flows += o.offered as u64;
                if spec.engine == EngineKind::Flow {
                    counts.add_flow(&stats);
                } else {
                    counts.add_packet_sweep(&stats);
                }
                outcomes.push((point_key(&spec, &p), Outcome::Sweep(Box::new(o.clone()))));
                points.push(o);
            }
            tracer.span("scenarios.reduce", || {
                ScenarioOutput::Sweep(SweepResult::build(&spec, points))
            })
        };
        let (json, csv) = tracer.span("scenarios.render", || (out.to_json(), out.to_csv()));
        reports.push(Report {
            name,
            seed: spec_seed(&spec),
            json,
            csv,
        });
    }
    Ok(reports)
}

/// Run an in-process workload per `opts`.
pub fn run(w: &Workload, opts: &Opts, expected: &[Expected]) -> RunResult {
    let mut res = RunResult::default();
    if opts.trace {
        run_traced(w, opts, expected, &mut res);
    } else {
        run_untraced(w, opts, expected, &mut res);
    }
    res
}

fn run_untraced(w: &Workload, opts: &Opts, expected: &[Expected], res: &mut RunResult) {
    let mut setup = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let t0 = now();
        for &name in w.builtins {
            // A set-up failure surfaces again, counted, in the passes.
            let _ = prepare(name, opts.seed);
        }
        setup.push(since(t0));
    }
    let t_run = now();
    let (mut wall, mut cpu, mut rss, mut jobs) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for i in 0.. {
        if let Some(pass) = child_pass(w, opts, i, expected, res) {
            wall.push(pass.wall_s);
            cpu.push(pass.cpu_s);
            rss.push(pass.rss_mb);
            jobs.extend(pass.job_ms);
        }
        if since(t_run) >= opts.seconds {
            break;
        }
    }
    res.push("setup_s", "s", median(&setup), setup.len());
    res.push("wall_s", "s", median(&wall), wall.len());
    res.push("cpu_s", "s", median(&cpu), cpu.len());
    res.push("peak_rss_mb", "MB", median(&rss), rss.len());
    res.push("job_p50_ms", "ms", quantile(&jobs, 0.5), jobs.len());
    res.push("job_p90_ms", "ms", quantile(&jobs, 0.9), jobs.len());
}

fn run_traced(w: &Workload, opts: &Opts, expected: &[Expected], res: &mut RunResult) {
    let t_run = now();
    let mut counts = Counts::default();
    let mut outcomes = Vec::new();
    let mut times = LayerTimes::default();
    let (mut untraced, mut traced, mut unaccounted) = (Vec::new(), Vec::new(), Vec::new());
    let (mut hits, mut misses) = (0, 0);
    for i in 0.. {
        let pass = untraced_pass(w, opts.seed, i);
        check_pass(&pass, expected, res);
        untraced.push(pass.wall_s);
        let tracer = Tracer::default();
        let mut pass_counts = Counts::default();
        let mut pass_outcomes = Vec::new();
        let jobs: Vec<(&'static str, u64)> = (w.builtins.iter().enumerate())
            .map(|(j, &b)| (b, pass_seed(opts.seed, i, j)))
            .collect();
        let t0 = now();
        let traced_pass =
            traced_reports(&jobs, &tracer, &mut pass_counts, &mut pass_outcomes).map(|reports| {
                // An untraced report that failed is already counted.
                for t in &reports {
                    let Some(u) = pass.reports.iter().flatten().find(|u| u.name == t.name) else {
                        continue;
                    };
                    tracer.span("harness.verify", || {
                        res.check(verify::same(
                            &format!("{} traced vs untraced", u.name),
                            &format!("{}{}", u.json, u.csv),
                            &format!("{}{}", t.json, t.csv),
                        ))
                    });
                }
            });
        let wall = since(t0);
        if let Err(e) = traced_pass {
            res.check(Err(e));
        }
        let spans = tracer.into_spans();
        traced.push(wall);
        unaccounted.push(wall - trace::self_time_sum(&spans));
        times.add(&spans);
        if i == 0 {
            (hits, misses) = (pass.cache_hits, pass.cache_misses);
            counts = pass_counts;
            outcomes = pass_outcomes;
            res.spans = trace::to_ndjson(w.name, &spans);
        }
        if since(t_run) >= opts.seconds {
            break;
        }
    }
    let n = traced.len();
    times.push(res, &counts);
    layers::push_runner(res, hits, misses, &outcomes);
    layers::push_serve_idle(res);
    layers::push_microcases(res);
    res.push(
        "trace_overhead_s",
        "s",
        median(&traced) - median(&untraced),
        n,
    );
    res.push("unaccounted_s", "s", median(&unaccounted), n);
}
