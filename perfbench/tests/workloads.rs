//! The benchmark's own tests: shortened runs of every workload print
//! every metric, a wrong expected digest is counted as a failure, and
//! the layers each workload bypasses read exactly zero.

use perfbench::verify::{Expected, EXPECTED};
use perfbench::{run, Opts, RunResult, END_TO_END, PER_LAYER};
use std::path::PathBuf;

/// One pass (`--seconds 0`) of `workload` at the default seed.
fn short_run(workload: &str, trace: bool, expected: &[Expected]) -> RunResult {
    let opts = Opts {
        workload: workload.into(),
        seed: perfbench::DEFAULT_SEED,
        seconds: 0.0,
        trace,
        exe: PathBuf::from(env!("CARGO_BIN_EXE_perfbench")),
    };
    run(&opts, expected).expect("workload runs")
}

/// Both runs of a workload print every listed metric with a unit, and
/// every operation succeeds. Returns the traced run.
fn prints_every_metric(workload: &str) -> RunResult {
    let e2e = short_run(workload, false, EXPECTED);
    assert_eq!(e2e.failed, 0, "{workload}: {:?}", e2e.errors);
    let selected = e2e.select(END_TO_END).expect("every end-to-end metric");
    for m in &selected.metrics {
        assert!(!m.unit.is_empty(), "{workload}: {} has no unit", m.name);
        assert!(m.samples >= 1, "{workload}: {} has no samples", m.name);
        assert!(m.value > 0.0, "{workload}: {} reads {}", m.name, m.value);
    }
    let json = selected.to_json();
    assert!(json.starts_with("{\"correct\": true, "), "{json}");

    let traced = short_run(workload, true, EXPECTED);
    assert_eq!(traced.failed, 0, "{workload}: {:?}", traced.errors);
    let layers = traced.select(PER_LAYER).expect("every per-layer metric");
    assert!(layers.metrics.iter().all(|m| !m.unit.is_empty()));
    assert!(
        !traced.spans.is_empty(),
        "{workload}: the traced run kept no spans"
    );
    traced
}

#[test]
fn paper_figs_runs_the_packet_engine_and_bypasses_the_cache() {
    let t = prints_every_metric("paper-figs");
    assert_eq!(t.get("scenarios.points"), Some(31.0));
    assert!(t.get("sim.events").unwrap() > 0.0);
    assert_eq!(t.get("runner.cache_hits"), Some(0.0));
    assert_eq!(t.get("flow.events"), Some(0.0));
}

#[test]
fn flow_scale_bypasses_the_packet_engine_and_the_cache() {
    let t = prints_every_metric("flow-scale");
    assert_eq!(t.get("sim.events"), Some(0.0));
    assert_eq!(t.get("runner.cache_hits"), Some(0.0));
    assert_eq!(t.get("workloads.flows"), Some(32_402.0));
    assert_eq!(t.get("flow.completed"), Some(32_402.0));
}

#[test]
fn serve_mix_hits_the_cache() {
    let t = prints_every_metric("serve-mix");
    assert!(t.get("runner.cache_hits").unwrap() > 0.0);
    assert!(t.get("serve.hit_p50_ms").unwrap() > 0.0);
    assert_eq!(t.get("serve.rejected"), Some(0.0));
}

#[test]
fn a_wrong_expected_digest_counts_as_a_failure() {
    let corrupted: Vec<Expected> = EXPECTED
        .iter()
        .map(|e| Expected {
            json: if e.name == "fattree-100k" {
                e.json ^ 1
            } else {
                e.json
            },
            ..*e
        })
        .collect();
    let res = short_run("flow-scale", false, &corrupted);
    assert_eq!(res.failed, 1, "{:?}", res.errors);
    assert!(res.failed_frac() > 0.0);
    assert!(res.to_json().starts_with("{\"correct\": false, "));
}

#[test]
fn the_generator_case_draws_flow_scales_population() {
    assert_eq!(perfbench::layers::workloads_gen().1, 32_402);
}
