//! The reference engine: progressive filling by a linear scan over the
//! contended links each round, the simplest statement of the allocation
//! rule. The production [`crate::simulate`] must reproduce its finish
//! times bit for bit and its [`FlowStats`] exactly. Test-only — it is
//! never a runtime alternative.

use crate::{FlowDef, FlowNet, FlowResult, FlowStats, LinkId, EPS_BYTES};

/// One active flow inside the event loop.
#[derive(Clone, Debug)]
struct Active {
    /// Index into the caller's `flows` slice.
    idx: usize,
    seq: u64,
    remaining: f64,
    rate: f64,
}

/// The allocator's persistent view of contended links: sorted link ids
/// with the number of active flows crossing each. Maintained
/// incrementally on admit/retire so a re-allocation never rebuilds it.
#[derive(Default)]
struct LinkLoad {
    ids: Vec<u32>,
    counts: Vec<u32>,
}

impl LinkLoad {
    fn admit(&mut self, path: &[LinkId]) {
        for l in path {
            match self.ids.binary_search(&l.0) {
                Ok(p) => self.counts[p] += 1,
                Err(p) => {
                    self.ids.insert(p, l.0);
                    self.counts.insert(p, 1);
                }
            }
        }
    }

    fn retire(&mut self, path: &[LinkId]) {
        for l in path {
            let p = self
                .ids
                .binary_search(&l.0)
                .expect("retired flow crosses an untracked link");
            self.counts[p] -= 1;
            if self.counts[p] == 0 {
                self.ids.remove(p);
                self.counts.remove(p);
            }
        }
    }

    fn dense(&self, link: LinkId) -> usize {
        self.ids
            .binary_search(&link.0)
            .expect("active flow crosses an untracked link")
    }
}

/// The reference [`crate::simulate`]: same contract, same panics.
pub(crate) fn simulate(
    net: &FlowNet,
    flows: &[FlowDef],
    end_s: f64,
) -> (Vec<FlowResult>, FlowStats) {
    for f in flows {
        assert!(f.start_s.is_finite(), "flow start must be finite");
        for l in &f.path {
            assert!(
                (l.0 as usize) < net.num_links(),
                "flow path references unknown link {}",
                l.0
            );
        }
    }
    let mut order: Vec<usize> = (0..flows.len()).collect();
    order.sort_by(|&a, &b| {
        flows[a]
            .start_s
            .total_cmp(&flows[b].start_s)
            .then(flows[a].seq.cmp(&flows[b].seq))
    });

    let mut finish: Vec<Option<f64>> = vec![None; flows.len()];
    let mut stats = FlowStats::default();
    let mut active: Vec<Active> = Vec::new();
    let mut load = LinkLoad::default();
    let mut next = 0usize; // cursor into `order`
    let mut t = 0.0f64;

    loop {
        if active.is_empty() {
            // Jump straight to the next arrival batch.
            let Some(&first) = order.get(next) else { break };
            t = t.max(flows[first].start_s);
            if t >= end_s {
                break;
            }
        } else {
            // Next event: earliest completion, next arrival, or the end
            // of time — whichever comes first.
            let mut dt_done = f64::INFINITY;
            for f in &active {
                if f.rate > 0.0 {
                    dt_done = dt_done.min((f.remaining / f.rate).max(0.0));
                }
            }
            let t_arrival = order
                .get(next)
                .map_or(f64::INFINITY, |&i| flows[i].start_s.max(t));
            let t_next = (t + dt_done).min(t_arrival).min(end_s);
            let dt = t_next - t;
            if dt > 0.0 {
                for f in &mut active {
                    f.remaining -= f.rate * dt;
                }
            }
            t = t_next;
            // Retire completions in (time, seq) order.
            let mut done: Vec<usize> = (0..active.len())
                .filter(|&k| active[k].remaining <= EPS_BYTES)
                .collect();
            done.sort_by_key(|&k| active[k].seq);
            for &k in done.iter().rev() {
                // Reverse index order keeps earlier swap_remove targets
                // stable; completion bookkeeping below is index-free.
                load.retire(&flows[active[k].idx].path);
            }
            for &k in &done {
                finish[active[k].idx] = Some(t);
                stats.completed += 1;
            }
            let mut k = 0;
            while k < active.len() {
                if active[k].remaining <= EPS_BYTES {
                    active.remove(k);
                } else {
                    k += 1;
                }
            }
            if t >= end_s {
                break;
            }
        }
        // Admit every flow that has arrived by now, in (start, seq) order.
        while let Some(&i) = order.get(next) {
            if flows[i].start_s > t {
                break;
            }
            next += 1;
            if flows[i].path.is_empty() {
                // Zero-cost loopback: transfers instantly.
                finish[i] = Some(t);
                stats.completed += 1;
                continue;
            }
            load.admit(&flows[i].path);
            active.push(Active {
                idx: i,
                seq: flows[i].seq,
                remaining: (flows[i].size_bytes as f64).max(EPS_BYTES * 2.0),
                rate: 0.0,
            });
            stats.arrivals += 1;
        }
        if !active.is_empty() {
            allocate(net, &mut active, &load, flows, &mut stats);
        }
        stats.events += 1;
    }
    stats.censored += active.len() as u64;
    stats.censored += (flows.len() - next) as u64;
    (
        finish
            .into_iter()
            .map(|f| FlowResult { finish_s: f })
            .collect(),
        stats,
    )
}

/// Recompute every active flow's max-min fair rate.
fn allocate(
    net: &FlowNet,
    active: &mut [Active],
    load: &LinkLoad,
    flows: &[FlowDef],
    stats: &mut FlowStats,
) {
    if try_single_bottleneck(net, active, load, stats) {
        return;
    }
    // Progressive filling: repeatedly saturate the most contended link.
    let nlinks = load.ids.len();
    let mut rem: Vec<f64> = load.ids.iter().map(|&id| net.caps[id as usize]).collect();
    let mut cnt: Vec<u32> = load.counts.clone();
    let mut frozen = vec![false; active.len()];
    let mut unfrozen = active.len();
    while unfrozen > 0 {
        let mut best: Option<(usize, f64)> = None;
        for l in 0..nlinks {
            if cnt[l] > 0 {
                let share = rem[l] / cnt[l] as f64;
                if best.is_none_or(|(_, s)| share < s) {
                    best = Some((l, share));
                }
            }
        }
        let Some((bottleneck, share)) = best else {
            // Unreachable while every active flow has a non-empty path;
            // guard against a stall anyway.
            for (k, f) in active.iter_mut().enumerate() {
                if !frozen[k] {
                    f.rate = f64::INFINITY;
                }
            }
            break;
        };
        for (k, f) in active.iter_mut().enumerate() {
            if frozen[k]
                || !flows[f.idx]
                    .path
                    .iter()
                    .any(|l| load.dense(*l) == bottleneck)
            {
                continue;
            }
            frozen[k] = true;
            unfrozen -= 1;
            f.rate = share;
            for l in &flows[f.idx].path {
                let d = load.dense(*l);
                rem[d] = (rem[d] - share).max(0.0);
                cnt[d] -= 1;
            }
        }
        // The bottleneck is exactly saturated; pin it against rounding.
        rem[bottleneck] = 0.0;
        cnt[bottleneck] = 0;
        stats.waterfill_rounds += 1;
    }
}

/// Fast path: when one link is crossed by *every* active flow and its
/// equal split is feasible on all other links, the max-min allocation
/// is the uniform rate `cap / n`. Detects the full-mesh / incast shape
/// in one scan instead of a filling loop.
fn try_single_bottleneck(
    net: &FlowNet,
    active: &mut [Active],
    load: &LinkLoad,
    stats: &mut FlowStats,
) -> bool {
    let n = active.len() as u32;
    let mut shared: Option<(usize, f64)> = None;
    for (l, (&id, &c)) in load.ids.iter().zip(&load.counts).enumerate() {
        if c == n {
            let share = net.caps[id as usize] / n as f64;
            if shared.is_none_or(|(_, s)| share < s) {
                shared = Some((l, share));
            }
        }
    }
    let Some((_, share)) = shared else {
        return false;
    };
    for (&id, &c) in load.ids.iter().zip(&load.counts) {
        if net.caps[id as usize] / c as f64 + 1e-15 < share {
            return false;
        }
    }
    for f in active.iter_mut() {
        f.rate = share;
    }
    stats.fastpath_allocs += 1;
    true
}

mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Run both engines and require bit-identical finish times and equal
    /// counters.
    fn assert_engines_agree(net: &FlowNet, flows: &[FlowDef], end_s: f64) {
        let (got, got_stats) = crate::simulate(net, flows, end_s);
        let (want, want_stats) = simulate(net, flows, end_s);
        let bits = |r: &[FlowResult]| -> Vec<Option<u64>> {
            r.iter().map(|r| r.finish_s.map(f64::to_bits)).collect()
        };
        assert_eq!(bits(&got), bits(&want), "finish times differ: {flows:?}");
        assert_eq!(got_stats, want_stats);
    }

    /// A link capacity: mostly a few round values, so links tie on their
    /// fair shares exactly; sometimes an arbitrary one.
    fn capacity() -> impl Strategy<Value = f64> {
        (0u8..4, 1.0f64..500.0).prop_map(|(pick, x)| match pick {
            0 => 100.0,
            1 => 50.0,
            2 => 300.0,
            _ => x,
        })
    }

    /// A flow over `links` links: a path of 0–6 links (repeats allowed),
    /// sizes and start times drawn from small sets so arrivals and
    /// completions coincide, and seqs that collide now and then.
    fn flow(links: u32, max_start: f64) -> impl Strategy<Value = FlowDef> {
        (
            prop::collection::vec(0..links, 0..=6),
            (0u8..4, 1u64..5_000),
            (0u8..4, 0.0..max_start),
            0u64..64,
        )
            .prop_map(|(path, (sp, sx), (tp, tx), seq)| FlowDef {
                seq,
                size_bytes: match sp {
                    0 => 100,
                    1 => 50,
                    2 => 0,
                    _ => sx,
                },
                start_s: match tp {
                    0 => 0.0,
                    1 => 1.0,
                    2 => 0.5,
                    _ => tx,
                },
                path: path.into_iter().map(LinkId).collect(),
            })
    }

    /// The end of time: unbounded, or early enough to censor flows in
    /// flight and flows not yet started.
    fn end_of_time() -> impl Strategy<Value = f64> {
        (0u8..4, 0.1f64..20.0).prop_map(|(pick, x)| match pick {
            0 => f64::INFINITY,
            1 => 1.0,
            2 => 3.0,
            _ => x,
        })
    }

    fn net_of(caps: &[f64]) -> FlowNet {
        let mut net = FlowNet::new();
        for &c in caps {
            net.add_link(c);
        }
        net
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(600))]

        #[test]
        fn small_nets_match_the_oracle_bit_for_bit(
            (caps, flows, end_s) in (1u32..=8, 0usize..=24).prop_flat_map(|(links, n)| (
                prop::collection::vec(capacity(), links as usize),
                prop::collection::vec(flow(links, 4.0), n),
                end_of_time(),
            ))
        ) {
            assert_engines_agree(&net_of(&caps), &flows, end_s);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        #[test]
        fn crowded_nets_match_the_oracle_bit_for_bit(
            (caps, flows, end_s) in (8u32..=40, 50usize..=200).prop_flat_map(|(links, n)| (
                prop::collection::vec(capacity(), links as usize),
                prop::collection::vec(flow(links, 20.0), n),
                end_of_time(),
            ))
        ) {
            assert_engines_agree(&net_of(&caps), &flows, end_s);
        }
    }

    #[test]
    fn a_share_that_rounding_lowers_is_requeued() {
        // Links 0, 1 and 3 tie at share 0.15. Filling link 0 first
        // freezes two flows on link 3, whose share becomes
        // (0.6 - 0.15 - 0.15) / 2 — an ulp *below* 0.15 in floating
        // point. Link 3 must now go before link 1, so a share can fall
        // within one allocation and the allocator has to re-queue it.
        let residual = (0.6f64 - 0.15 - 0.15) / 2.0;
        assert!(residual < 0.3 / 2.0, "the rounding this case exists for");
        let net = net_of(&[0.3, 0.3, 0.5, 0.6]);
        let flows: Vec<FlowDef> = [&[1][..], &[0, 3], &[1, 3], &[3], &[0, 3]]
            .iter()
            .enumerate()
            .map(|(i, path)| FlowDef {
                seq: i as u64,
                size_bytes: 1,
                start_s: 0.0,
                path: path.iter().map(|&l| LinkId(l)).collect(),
            })
            .collect();
        assert_engines_agree(&net, &flows, f64::INFINITY);
    }

    #[test]
    fn racks_under_shared_uplinks_match_the_oracle() {
        // Fat-tree shape: host NICs plus per-rack up/downlinks shared by
        // many flows, so most events run many filling rounds.
        let (hosts, racks) = (48u64, 4u64);
        let mut caps = vec![100.0; 2 * hosts as usize];
        caps.extend(std::iter::repeat_n(350.0, 2 * racks as usize));
        let rack_link = |dir: u64, rack: u64| LinkId((2 * hosts + dir * racks + rack) as u32);
        let flows: Vec<FlowDef> = (0..600u64)
            .map(|i| {
                let (src, dst) = (i % hosts, (i * 11 + 5) % hosts);
                let mut path = vec![LinkId(src as u32), LinkId((hosts + dst) as u32)];
                let (rs, rd) = (src % racks, dst % racks);
                if rs != rd {
                    path.push(rack_link(0, rs));
                    path.push(rack_link(1, rd));
                }
                FlowDef {
                    seq: i,
                    size_bytes: 20 + (i * 37 % 100) * 3,
                    start_s: (i / 3) as f64 * 0.05,
                    path,
                }
            })
            .collect();
        assert_engines_agree(&net_of(&caps), &flows, f64::INFINITY);
        assert_engines_agree(&net_of(&caps), &flows, 4.0);
    }
}
