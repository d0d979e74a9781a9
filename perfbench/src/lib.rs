//! # perfbench
//!
//! The end-to-end and per-layer benchmark of the PowerTCP reproduction.
//! One binary runs three workloads, each from a seed:
//!
//! * `paper-figs` — a cold `xp run` of the builtins `fig3`, `fig4`,
//!   `fig6`, `fig7` and `fig8` through `dcn_runner::run` with two
//!   executor threads and no cache, rendering JSON and CSV per report.
//! * `flow-scale` — a cold run of the 100,000-host `fattree-100k` builtin
//!   on the flow engine, one executor thread.
//! * `serve-mix` — an `xp serve` daemon (2 workers, 1 thread per job, a
//!   fresh cache) driven over loopback by a closed loop of 2 clients
//!   submitting small builtins, a third of them repeats.
//!
//! An untraced run (`--trace 0`) prints the end-to-end metrics. A traced
//! run (`--trace 1`) executes the same work serially with spans around
//! the calls into each crate and prints the per-layer metrics. Every
//! report is checked; a mismatch counts as a failed operation.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-figs --seed 42 --seconds 20 --trace 0
//! ```

#![forbid(unsafe_code)]

pub mod inproc;
pub mod layers;
pub mod serve_mix;
pub mod sys;
pub mod trace;
pub mod verify;

use dcn_scenarios::{builtin, sweep_points, trace_entries, ScenarioSpec};
use std::path::PathBuf;

/// The seed a run uses when none is given; the expected report digests
/// in [`verify::EXPECTED`] were recorded at it.
pub const DEFAULT_SEED: u64 = 42;

/// The workloads, by command-line name.
pub const WORKLOADS: [&str; 3] = ["paper-figs", "flow-scale", "serve-mix"];

/// End-to-end metrics, printed by every untraced run in this order.
pub const END_TO_END: &[&str] = &[
    "setup_s",
    "wall_s",
    "cpu_s",
    "peak_rss_mb",
    "job_p50_ms",
    "job_p90_ms",
];

/// Per-layer metrics, printed by every traced run in this order.
pub const PER_LAYER: &[&str] = &[
    "scenarios.spec_ms",
    "scenarios.points",
    "scenarios.point_busy_s",
    "scenarios.reduce_ms",
    "scenarios.render_ms",
    "sim.events",
    "sim.scheduled",
    "sim.delivered",
    "sim.forwarded",
    "sim.pool_fresh",
    "sim.overflow_share",
    "sim.batched_share",
    "sim.pool_reuse_share",
    "sim.busy_s",
    "sim.ns_per_event",
    "sim.fabric_ns_per_event",
    "sim.queue_ns_per_op",
    "sim.flow_table_ns_per_get",
    "transport.incast256_ns_per_event",
    "cc.powertcp_ns_per_ack",
    "cc.theta_powertcp_ns_per_ack",
    "cc.hpcc_ns_per_ack",
    "cc.dcqcn_ns_per_ack",
    "cc.timely_ns_per_ack",
    "cc.retcp_ns_per_ack",
    "telemetry.trace_ns_per_event",
    "telemetry.busy_s",
    "rdcn.busy_s",
    "fluid.busy_s",
    "workloads.flows",
    "workloads.gen_ms",
    "flow.events",
    "flow.completed",
    "flow.busy_s",
    "flow.us_per_event",
    "flow.core1k_ns_per_flow",
    "flow.core100k_ns_per_flow",
    "runner.cache_hits",
    "runner.cache_misses",
    "runner.hit_share",
    "runner.cache_load_us",
    "runner.cache_store_us",
    "runner.codec_encode_us",
    "runner.codec_decode_us",
    "serve.submit_ms",
    "serve.wait_ms",
    "serve.fetch_ms",
    "serve.exec_ms",
    "serve.overhead_ms",
    "serve.hit_p50_ms",
    "serve.rejected",
    "trace_overhead_s",
    "unaccounted_s",
];

/// What one run is asked to do.
#[derive(Clone, Debug)]
pub struct Opts {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds to keep measuring (at least one pass always runs).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// The benchmark binary, re-executed as the `serve-mix` daemon.
    pub exe: PathBuf,
}

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
    /// Samples the value summarises.
    pub samples: usize,
}

/// The outcome of one run.
#[derive(Clone, Debug, Default)]
pub struct RunResult {
    /// Operations attempted (reports or jobs).
    pub attempted: u64,
    /// Operations that failed: errors, wrong bytes, non-2xx answers,
    /// timeouts.
    pub failed: u64,
    /// Metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Failure descriptions, for the log.
    pub errors: Vec<String>,
    /// Spans of the traced run, rendered as NDJSON.
    pub spans: String,
}

impl RunResult {
    /// Record a metric.
    pub fn push(&mut self, name: &str, unit: &'static str, value: f64, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
            samples,
        });
    }

    /// Record one checked operation.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            self.errors.push(e);
        }
    }

    /// Look a metric up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Failed operations over attempted ones.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The same result with exactly the `names` metrics, in that order.
    pub fn select(&self, names: &[&str]) -> Result<RunResult, String> {
        let metrics = names
            .iter()
            .map(|n| {
                self.metrics
                    .iter()
                    .find(|m| m.name == *n)
                    .cloned()
                    .ok_or_else(|| format!("metric {n} was not measured"))
            })
            .collect::<Result<_, _>>()?;
        Ok(RunResult {
            metrics,
            errors: Vec::new(),
            spans: String::new(),
            ..*self
        })
    }

    /// The last line of the benchmark's output.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit the value carries.
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".into()
    }
}

/// Run one workload.
pub fn run(opts: &Opts, expected: &[verify::Expected]) -> Result<RunResult, String> {
    let res = match opts.workload.as_str() {
        "paper-figs" => Ok(inproc::run(&inproc::PAPER_FIGS, opts, expected)),
        "flow-scale" => Ok(inproc::run(&inproc::FLOW_SCALE, opts, expected)),
        "serve-mix" => serve_mix::run(opts),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {})",
            WORKLOADS.join(", ")
        )),
    };
    // Scratch directories are removed as they are used; drop their
    // parent too once it is empty.
    let _ = std::fs::remove_dir(layers::SCRATCH);
    res
}

/// Rust source of the [`verify::EXPECTED`] table at `seed`: the digests
/// of every report `paper-figs` and `flow-scale` produce.
pub fn print_digests(seed: u64) -> Result<String, String> {
    let mut out = String::new();
    for w in [&inproc::PAPER_FIGS, &inproc::FLOW_SCALE] {
        for &name in w.builtins {
            let (spec, _) = prepare(name, seed)?;
            let report = dcn_scenarios::run_scenario(&spec, sys::threads())?;
            let (json, csv) = (report.to_json(), report.to_csv());
            let seed = if spec.runs_as_entries() {
                "None".to_string()
            } else {
                format!("Some({seed})")
            };
            out.push_str(&format!(
                "    Expected {{\n        name: \"{name}\",\n        seed: {seed},\n        \
                 json: 0x{:016x},\n        csv: 0x{:016x},\n    }},\n",
                dcn_runner::fnv1a64(json.as_bytes()),
                dcn_runner::fnv1a64(csv.as_bytes())
            ));
        }
    }
    Ok(out)
}

/// A builtin with its seed grid replaced by `[seed]`. Timeseries and
/// analytic builtins have no seed grid and come back unchanged.
pub fn seeded(name: &str, seed: u64) -> ScenarioSpec {
    let mut spec = builtin(name).unwrap_or_else(|| panic!("{name} is a builtin"));
    if !spec.runs_as_entries() {
        spec.sweep.seeds = vec![seed];
    }
    spec
}

/// Set-up for one spec as a user pays it: build, validate, TOML round
/// trip and sweep expansion. Returns the spec and its point count.
pub fn prepare(name: &str, seed: u64) -> Result<(ScenarioSpec, usize), String> {
    let spec = seeded(name, seed);
    spec.validate()?;
    if ScenarioSpec::from_toml(&spec.to_toml())? != spec {
        return Err(format!("{name}: TOML round trip changed the spec"));
    }
    let points = if spec.runs_as_entries() {
        trace_entries(&spec).len()
    } else {
        sweep_points(&spec).len()
    };
    Ok((spec, points))
}

/// Linear-interpolated quantile `q` in `[0, 1]` (0 for no samples).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median (0 for no samples).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// splitmix64 step: the benchmark's deterministic generator.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
