//! Per-layer metrics of the traced run.
//!
//! Counts come from the engine counters the public executor functions
//! return. Layer cases that `dcn_scenarios::run_bench` already has are
//! called there; the others time a crate's public functions on fixed
//! inputs here.

use crate::sys::{now, since};
use crate::{median, RunResult};
use dcn_runner::{codec, CacheKey, Outcome, ResultCache};
use dcn_sim::{Event, EventQueue, FlowId, FlowTable, NodeId, SimStats};
use powertcp_core::{
    AckInfo, Bandwidth, CcContext, CongestionControl, IntHeader, IntHopMetadata, Tick,
};
use std::hint::black_box;
use std::path::PathBuf;

/// Repetitions of each layer case; the median is reported.
const REPS: usize = 3;

/// Engine counters gathered from one traced pass.
#[derive(Clone, Debug, Default)]
pub struct Counts {
    /// Points and lineup entries executed.
    pub points: u64,
    /// Flows offered by the sweep points.
    pub offered_flows: u64,
    /// Packet-engine counters over every packet simulation.
    pub sim: SimStats,
    /// Events of the packet-engine sweep points alone.
    pub sweep_events: u64,
    /// Flow-engine allocation events.
    pub flow_events: u64,
    /// Flows the flow engine completed.
    pub flow_completed: u64,
    /// Seconds in packet-engine sweep points.
    pub sim_busy_s: f64,
    /// Seconds in flow-engine points.
    pub flow_busy_s: f64,
}

impl Counts {
    /// Fold in a packet-engine sweep point.
    pub fn add_packet_sweep(&mut self, s: &SimStats) {
        self.sweep_events += s.events_processed;
        self.sim.merge(s);
    }

    /// Fold in a packet-engine trace entry (fig4, fig8).
    pub fn add_packet_trace(&mut self, s: &SimStats) {
        self.sim.merge(s);
    }

    /// Fold in a flow-engine point, whose counters ride in the shared
    /// `SimStats` shape (events = allocation events, delivered =
    /// completed flows).
    pub fn add_flow(&mut self, s: &SimStats) {
        self.flow_events += s.events_processed;
        self.flow_completed += s.delivered;
    }

    /// Record the `sim.*`, `workloads.flows` and `flow.*` counts.
    pub fn push_metrics(&self, res: &mut RunResult, n: usize) {
        let s = &self.sim;
        let count = |res: &mut RunResult, name: &str, v: u64| res.push(name, "count", v as f64, 1);
        count(res, "sim.events", s.events_processed);
        count(res, "sim.scheduled", s.events_scheduled);
        count(res, "sim.delivered", s.delivered);
        count(res, "sim.forwarded", s.forwarded);
        count(res, "sim.pool_fresh", s.pool_fresh);
        res.push(
            "sim.overflow_share",
            "ratio",
            ratio(s.overflow_scheduled, s.events_scheduled),
            1,
        );
        res.push(
            "sim.batched_share",
            "ratio",
            ratio(s.batched_events, s.events_processed),
            1,
        );
        res.push(
            "sim.pool_reuse_share",
            "ratio",
            ratio(s.pool_reused, s.pool_reused + s.pool_fresh),
            1,
        );
        res.push("sim.busy_s", "s", self.sim_busy_s, n);
        res.push(
            "sim.ns_per_event",
            "ns",
            per(self.sim_busy_s * 1e9, self.sweep_events),
            n,
        );
        count(res, "workloads.flows", self.offered_flows);
        count(res, "flow.events", self.flow_events);
        count(res, "flow.completed", self.flow_completed);
        res.push("flow.busy_s", "s", self.flow_busy_s, n);
        res.push(
            "flow.us_per_event",
            "us",
            per(self.flow_busy_s * 1e6, self.flow_events),
            n,
        );
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    per(a as f64, b)
}

fn per(x: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        x / n as f64
    }
}

/// Parent of the benchmark's scratch directories, inside the working
/// directory.
pub const SCRATCH: &str = ".perfbench-work";

/// A scratch directory under [`SCRATCH`], removed by the caller.
pub fn scratch_dir(tag: &str) -> PathBuf {
    PathBuf::from(SCRATCH).join(format!("{}-{tag}", std::process::id()))
}

/// Median microseconds of `f` over the items.
fn each_us<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let times: Vec<f64> = items
        .iter()
        .map(|x| {
            let t0 = now();
            f(x);
            since(t0) * 1e6
        })
        .collect();
    median(&times)
}

/// Record the `runner.*` metrics: the run's cache hits and misses, and
/// the per-outcome cost of the codec and the result cache over the
/// workload's own point outcomes.
pub fn push_runner(res: &mut RunResult, hits: u64, misses: u64, outcomes: &[(CacheKey, Outcome)]) {
    res.push("runner.cache_hits", "count", hits as f64, 1);
    res.push("runner.cache_misses", "count", misses as f64, 1);
    res.push("runner.hit_share", "ratio", ratio(hits, hits + misses), 1);
    let dir = scratch_dir("codec");
    let cache = ResultCache::new(&dir);
    let encoded: Vec<String> = outcomes.iter().map(|(_, o)| codec::encode(o)).collect();
    let encode_us = each_us(outcomes, |(_, o)| {
        black_box(codec::encode(o));
    });
    let decode_us = each_us(&encoded, |s| {
        black_box(codec::decode_str(s).expect("encoded outcome decodes"));
    });
    let store_us = each_us(outcomes, |(k, o)| {
        // A failed store shows up as a miss in the load pass below.
        let _ = cache.store(k, o);
    });
    let mut lost = 0u64;
    let load_us = each_us(outcomes, |(k, _)| {
        if cache.load(k).is_none() {
            lost += 1;
        }
    });
    let _ = std::fs::remove_dir_all(&dir);
    res.check(if lost == 0 {
        Ok(())
    } else {
        Err(format!("runner: {lost} stored outcomes did not load back"))
    });
    let n = outcomes.len();
    res.push("runner.cache_load_us", "us", load_us, n);
    res.push("runner.cache_store_us", "us", store_us, n);
    res.push("runner.codec_encode_us", "us", encode_us, n);
    res.push("runner.codec_decode_us", "us", decode_us, n);
}

/// The `serve.*` metrics of a workload that never talks to the daemon.
pub fn push_serve_idle(res: &mut RunResult) {
    for name in [
        "serve.submit_ms",
        "serve.wait_ms",
        "serve.fetch_ms",
        "serve.exec_ms",
        "serve.overhead_ms",
        "serve.hit_p50_ms",
    ] {
        res.push(name, "ms", 0.0, 0);
    }
    res.push("serve.rejected", "count", 0.0, 0);
}

/// Record the layer cases that do not depend on the workload.
pub fn push_microcases(res: &mut RunResult) {
    let cases = dcn_scenarios::run_bench(REPS);
    for (case, metric) in [
        ("fabric_4to1_blast", "sim.fabric_ns_per_event"),
        ("incast_256to1_flows", "transport.incast256_ns_per_event"),
        (
            "incast_16to1_powertcp_trace",
            "telemetry.trace_ns_per_event",
        ),
        ("flow_core_1k", "flow.core1k_ns_per_flow"),
        ("flow_core_100k", "flow.core100k_ns_per_flow"),
    ] {
        let c = cases
            .iter()
            .find(|c| c.name == case)
            .expect("run_bench case");
        res.push(
            metric,
            "ns",
            per(median(&c.wall_ms) * 1e6, c.events),
            c.wall_ms.len(),
        );
    }
    res.push("sim.queue_ns_per_op", "ns", queue_ns_per_op(), REPS);
    res.push(
        "sim.flow_table_ns_per_get",
        "ns",
        flow_table_ns_per_get(),
        REPS,
    );
    cc_ns_per_ack(res);
    res.push("workloads.gen_ms", "ms", workloads_gen().0, REPS);
}

/// `EventQueue` churn: 256 pending timers, each pop schedules one more
/// at a spread of delays (same-tick, serialization, RTT and RTO scales).
fn queue_ns_per_op() -> f64 {
    const PENDING: u64 = 256;
    const OPS: u64 = 200_000;
    let delay = |k: u64| -> u64 {
        match crate::mix(k) % 16 {
            0..=7 => 320_000 + crate::mix(k ^ 1) % 80_000,
            8..=13 => 20_000_000 + crate::mix(k ^ 2) % 5_000_000,
            _ => 100_000_000 + crate::mix(k ^ 3) % 1_600_000_000,
        }
    };
    let ev = |key: u64| Event::HostTimer {
        node: NodeId(0),
        key,
    };
    let times: Vec<f64> = (0..REPS)
        .map(|_| {
            let mut q = EventQueue::new();
            for k in 0..PENDING {
                q.schedule(Tick::from_ps(delay(k)), ev(k));
            }
            let t0 = now();
            let mut acc = 0u64;
            for k in 0..OPS {
                let (at, e) = q.pop().expect("the held set never drains");
                if let Event::HostTimer { key, .. } = e {
                    acc ^= key;
                }
                q.schedule(Tick::from_ps(at.as_ps() + delay(k + PENDING)), ev(k));
            }
            black_box(acc);
            since(t0) * 1e9 / (2 * OPS) as f64
        })
        .collect();
    median(&times)
}

/// Dense `FlowTable` lookups over 4096 live flows in scattered order.
fn flow_table_ns_per_get() -> f64 {
    const FLOWS: u64 = 4096;
    const GETS: u64 = 1 << 20;
    let mut table = FlowTable::new();
    for id in 0..FLOWS {
        table.insert(FlowId(id), id);
    }
    let order: Vec<FlowId> = (0..GETS).map(|k| FlowId(crate::mix(k) % FLOWS)).collect();
    let times: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = now();
            let mut acc = 0u64;
            for id in &order {
                acc = acc.wrapping_add(*table.get(*id).expect("live flow"));
            }
            black_box(acc);
            since(t0) * 1e9 / GETS as f64
        })
        .collect();
    median(&times)
}

/// One ACK of the fixed INT stream.
struct Ack {
    now: Tick,
    seq: u64,
    int: IntHeader,
    rtt: Tick,
}

/// A 4096-ACK stream with three INT hops and varying queues, shaped like
/// the criterion `cc_update` bench.
fn ack_stream() -> Vec<Ack> {
    let bw = Bandwidth::gbps(25);
    let mut now = Tick::from_micros(100);
    let mut tx = 0u64;
    (0..4096u64)
        .map(|i| {
            now += Tick::from_nanos(320);
            tx += 1000;
            let q = ((i * 37) % 64) * 1000;
            let mut int = IntHeader::new();
            for hop in 0..3u32 {
                int.push(IntHopMetadata {
                    node: hop,
                    port: 0,
                    qlen_bytes: q / (u64::from(hop) + 1),
                    ts: now,
                    tx_bytes: tx,
                    bandwidth: bw,
                });
            }
            Ack {
                now,
                seq: (i + 1) * 1000,
                int,
                rtt: Tick::from_nanos(20_000 + (q * 80) / 1000),
            }
        })
        .collect()
}

/// Per-ACK cost of each control law's public `on_ack` on the stream.
fn cc_ns_per_ack(res: &mut RunResult) {
    use cc_baselines::{Dcqcn, Hpcc, ReTcp, Timely};
    use powertcp_core::{PowerTcp, ThetaPowerTcp};
    type Make = fn(CcContext) -> Box<dyn CongestionControl>;
    let ctx = CcContext {
        base_rtt: Tick::from_micros(20),
        host_bw: Bandwidth::gbps(25),
        mtu: 1000,
        expected_flows: 8,
    };
    let stream = ack_stream();
    let laws: [(&str, Make); 6] = [
        ("cc.powertcp_ns_per_ack", |c| {
            Box::new(PowerTcp::new(Default::default(), c))
        }),
        ("cc.theta_powertcp_ns_per_ack", |c| {
            Box::new(ThetaPowerTcp::new(Default::default(), c))
        }),
        ("cc.hpcc_ns_per_ack", |c| {
            Box::new(Hpcc::new(Default::default(), c))
        }),
        ("cc.dcqcn_ns_per_ack", |c| {
            Box::new(Dcqcn::new(Default::default(), c))
        }),
        ("cc.timely_ns_per_ack", |c| {
            Box::new(Timely::new(Default::default(), c))
        }),
        ("cc.retcp_ns_per_ack", |c| {
            Box::new(ReTcp::new(Default::default(), c))
        }),
    ];
    for (name, make) in laws {
        let times: Vec<f64> = (0..REPS * 3)
            .map(|_| {
                let mut cc = make(ctx);
                let t0 = now();
                for a in &stream {
                    cc.on_ack(&AckInfo {
                        now: a.now,
                        ack_seq: a.seq,
                        newly_acked: 1000,
                        snd_nxt: a.seq + 50_000,
                        rtt: a.rtt,
                        int: Some(&a.int),
                        ecn_marked: a.seq % 7 == 0,
                    });
                }
                black_box(cc.cwnd());
                since(t0) * 1e9 / stream.len() as f64
            })
            .collect();
        res.push(name, "ns", median(&times), times.len());
    }
}

/// `poisson_flows` at flow-scale's 100,000-host host map, with the
/// `fattree-100k` builtin's load, size mix, capacity and horizon at the
/// default seed. Returns the median milliseconds and the flow count.
pub fn workloads_gen() -> (f64, usize) {
    use dcn_scenarios::{PoissonSpec, SizeSpec, TopologySpec};
    use dcn_workloads::{poisson_flows, HostMap, PoissonConfig, SizeCdf};
    let spec = crate::seeded("fattree-100k", crate::DEFAULT_SEED);
    let TopologySpec::FatTree {
        hosts_per_tor,
        host_gbps,
        fabric_gbps,
    } = spec.topology
    else {
        unreachable!("fattree-100k is a fat-tree");
    };
    let Some(PoissonSpec {
        sizes: SizeSpec::WebsearchHadoop,
    }) = spec.workload.poisson
    else {
        unreachable!("fattree-100k offers the websearch+hadoop mix");
    };
    let cfg = dcn_sim::FatTreeConfig {
        hosts_per_tor,
        host_bw: Bandwidth::from_bps((host_gbps * 1e9).round() as u64),
        fabric_bw: Bandwidth::from_bps((fabric_gbps * 1e9).round() as u64),
        ..Default::default()
    };
    let n = cfg.num_hosts();
    let map = HostMap {
        hosts: (0..n).map(|i| cfg.host_node_id(i)).collect(),
        rack_of: (0..n).map(|i| i / hosts_per_tor).collect(),
    };
    let tors = (cfg.pods * cfg.tors_per_pod * cfg.aggs_per_pod) as u64;
    let pc = PoissonConfig {
        load: spec.sweep.loads[0],
        fabric_uplink_capacity: Bandwidth::from_bps(cfg.fabric_bw.bps() * tors),
        sizes: SizeCdf::websearch_hadoop(),
        horizon: spec.horizon(),
        inter_rack_only: true,
        seed: crate::DEFAULT_SEED,
        first_flow_id: 1,
    };
    let mut flows = 0;
    let times: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = now();
            flows = black_box(poisson_flows(&pc, &map).len());
            since(t0) * 1e3
        })
        .collect();
    (median(&times), flows)
}
