//! # dcn-flow
//!
//! A flow-level shared-bandwidth engine: the scale unlock for scenarios
//! the packet simulator cannot reach (100k-host fat-trees, million-flow
//! heavy-tailed mixes).
//!
//! Instead of packets, the unit of simulation is a *flow* — a
//! `(size, start, path)` tuple over an abstract capacitated link set.
//! Between discrete events (flow arrivals and completions) every active
//! flow transfers bytes at the **max-min fair** rate computed by exact
//! water-filling (progressive filling) over the links it crosses:
//! repeatedly find the most contended link, freeze every flow crossing
//! it at that link's fair share, subtract the frozen bandwidth, and
//! recurse on the rest. When all active flows share one global
//! bottleneck — the full-mesh/incast shape — a fast path allocates
//! `capacity / n` to everyone in a single scan.
//!
//! The engine is exactly deterministic: events are processed in
//! `(time, seq)` order (same tie-breaking contract as the packet
//! engine's calendar queue), the allocator saturates links in
//! `(share, link id)` order, and the whole loop is sequential
//! floating-point arithmetic — identical inputs produce bit-identical
//! outputs on any thread or process layout.
//!
//! A filling round costs O(log L + the bottleneck's flows × path
//! length): every link an active flow crosses keeps its incidence list
//! and its initial share in sorted order across events, and rounds take
//! the next bottleneck from that order merged with a small heap of
//! re-queued links. A test-only linear-scan allocator (`oracle.rs`) is
//! the reference this one must match bit for bit.
//!
//! What the abstraction gives up is transport dynamics: no slow start,
//! no congestion-control law, no switch buffers, no drops or PFC. A
//! flow's rate converges instantly to its fair share, so flow-level
//! FCTs are an *ideal lower envelope* for the packet engine's — the
//! cross-check harness in `dcn-scenarios` pins that relationship.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cmp::Reverse;
use std::collections::BinaryHeap;

#[cfg(test)]
mod oracle;

/// Behavioral version of the flow engine.
///
/// Folded into `dcn-runner` cache keys for `engine = "flow"` sweeps the
/// same way `dcn_sim::ENGINE_VERSION` salts packet sweeps: bump it on
/// **any** change that can move a simulated byte (allocator order,
/// completion epsilon, event scheduling), and stale flow-engine cache
/// entries die while packet and analytic entries stay warm.
pub const FLOW_ENGINE_VERSION: &str = "flow-engine-v1";

/// Completion slack in bytes: a flow whose remaining volume drops to or
/// below this after an advance is complete. Absorbs the rounding of
/// `remaining -= rate * dt` without ever stalling the event loop (the
/// next completion is always a strictly positive time away).
const EPS_BYTES: f64 = 1e-6;

/// A directed capacitated link in the abstract network.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub u32);

/// The capacitated link set flows are routed over.
///
/// There is no graph here — routing already happened. A link is just a
/// capacity in bytes/second; a flow's path is the list of links it
/// consumes bandwidth on.
#[derive(Clone, Debug, Default)]
pub struct FlowNet {
    caps: Vec<f64>,
}

impl FlowNet {
    /// An empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a link with the given capacity in bytes per second.
    ///
    /// # Panics
    /// If the capacity is not strictly positive and finite.
    pub fn add_link(&mut self, bytes_per_sec: f64) -> LinkId {
        assert!(
            bytes_per_sec > 0.0 && bytes_per_sec.is_finite(),
            "link capacity must be positive and finite, got {bytes_per_sec}"
        );
        let id = LinkId(self.caps.len() as u32);
        self.caps.push(bytes_per_sec);
        id
    }

    /// Number of links.
    pub fn num_links(&self) -> usize {
        self.caps.len()
    }

    /// Capacity of a link in bytes per second.
    pub fn capacity(&self, link: LinkId) -> f64 {
        self.caps[link.0 as usize]
    }
}

/// One flow offered to the engine.
#[derive(Clone, Debug)]
pub struct FlowDef {
    /// Deterministic tie-breaker: flows arriving at the same instant are
    /// admitted (and, on simultaneous completion, retired) in ascending
    /// `seq` order.
    pub seq: u64,
    /// Flow volume in bytes.
    pub size_bytes: u64,
    /// Arrival time in seconds.
    pub start_s: f64,
    /// Links the flow consumes bandwidth on. An empty path transfers
    /// instantly (the abstraction's zero-cost loopback).
    pub path: Vec<LinkId>,
}

/// Per-flow outcome, aligned with the input slice by index.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FlowResult {
    /// Transfer-complete time in seconds, or `None` if the flow was
    /// still in flight (or had not started) at the simulation end —
    /// i.e. it is right-censored.
    pub finish_s: Option<f64>,
}

/// Engine counters. Observability only — never fold into byte-pinned
/// report payloads (mirrors the `SimStats` contract in `dcn-sim`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlowStats {
    /// Discrete events processed (each followed by one re-allocation).
    pub events: u64,
    /// Flows admitted into the active set.
    pub arrivals: u64,
    /// Flows that finished before the simulation end.
    pub completed: u64,
    /// Flows censored at the simulation end (includes never-started).
    pub censored: u64,
    /// Progressive-filling rounds across all general allocations.
    pub waterfill_rounds: u64,
    /// Allocations served by the single-bottleneck fast path.
    pub fastpath_allocs: u64,
}

/// Marks a link no active flow crosses.
const NO_SLOT: u32 = u32::MAX;

/// Marks a slot with no candidate in the sorted initial order.
const NOT_LISTED: u128 = u128::MAX;

/// One active flow inside the event loop.
#[derive(Clone, Copy, Debug)]
struct Active {
    /// Index into the caller's `flows` slice.
    idx: usize,
    /// The flow's path is `paths[start..end]` of the run's path arena.
    start: u32,
    end: u32,
    remaining: f64,
    rate: f64,
}

/// Sort key of a fair share. Shares are never negative or NaN, and the
/// IEEE bits of a non-negative `f64` order like its value; adding `0.0`
/// folds `-0.0` into `0.0`. So two keys compare exactly as their shares
/// do under `<` and `==`.
fn share_key(share: f64) -> u64 {
    (share + 0.0).to_bits()
}

/// A bottleneck candidate: share key, link id and slot packed high to
/// low into one integer, so candidates order by the smallest share
/// first and, on a tie, the lowest link id — the selection rule of
/// progressive filling.
fn candidate(key: u64, id: u32, slot: usize) -> u128 {
    (key as u128) << 64 | (id as u128) << 32 | slot as u128
}

/// The water-filling allocator. Its buffers live as long as the engine,
/// so a warm event loop never allocates.
///
/// Every link some active flow crosses owns a *slot*: `slot_of`, indexed
/// by raw [`LinkId`], finds it, and the per-slot arrays hold the link's
/// state. Slots and their incidence lists are kept up to date as flows
/// are admitted and retired, and the sorted initial candidates are
/// patched for the slots that changed, so an allocation starts from
/// copies instead of rebuilding them.
#[derive(Default)]
struct Filler {
    /// Raw link id → slot; `NO_SLOT` for a link no active flow crosses.
    slot_of: Vec<u32>,
    /// Slots released by their last flow, for reuse.
    free: Vec<u32>,
    /// Per slot: raw link id and capacity.
    ids: Vec<u32>,
    caps: Vec<f64>,
    /// Per slot: active path entries crossing the link; 0 when free.
    load: Vec<u32>,
    /// Per slot: the active flows crossing the link, by input index,
    /// once per path entry.
    crossing: Vec<Vec<u32>>,
    /// Per slot: its candidate in `sorted`, or `NOT_LISTED`.
    listed: Vec<u128>,
    /// The initial candidate `(cap / load, id)` of every live slot,
    /// ascending — as of the last allocation that filled; slots changed
    /// since are in `changed` and are re-sorted by the next one.
    sorted: Vec<u128>,
    changed: Vec<u32>,
    pending: Vec<bool>,

    // Filling state, reset by every allocation.
    /// Per slot: residual capacity, unfrozen path entries crossing it,
    /// and the key its newest candidate was queued at. Every slot with
    /// `cnt > 0` has a queued candidate keyed `low`, and `low` never
    /// exceeds the key of its current share `rem / cnt`.
    rem: Vec<f64>,
    cnt: Vec<u32>,
    low: Vec<u64>,
    /// Slots whose share changed this round, each listed once.
    dirty: Vec<u32>,
    marked: Vec<bool>,
    /// Candidates queued during this allocation, popped smallest first.
    requeued: BinaryHeap<Reverse<u128>>,
    /// Per input flow: its index in the active set.
    pos: Vec<u32>,
    /// Per active flow: rate fixed in an earlier round.
    frozen: Vec<bool>,
}

impl Filler {
    /// Empty state for a run over `links` links and `flows` flows.
    fn reset(&mut self, links: usize, flows: usize) {
        self.slot_of.clear();
        self.slot_of.resize(links, NO_SLOT);
        self.pos.clear();
        self.pos.resize(flows, 0);
        self.free.clear();
        self.ids.clear();
        self.caps.clear();
        self.load.clear();
        self.listed.clear();
        self.sorted.clear();
        self.changed.clear();
        self.pending.clear();
    }

    /// Register flow `idx`, crossing `path`.
    fn admit(&mut self, idx: usize, path: &[u32], net_caps: &[f64]) {
        for &l in path {
            let slot = match self.slot_of[l as usize] {
                NO_SLOT => self.open(l, net_caps[l as usize]),
                slot => slot as usize,
            };
            self.load[slot] += 1;
            self.crossing[slot].push(idx as u32);
            self.touch(slot);
        }
    }

    /// Give link `l` a slot: a released one if any, else a new one.
    fn open(&mut self, l: u32, cap: f64) -> usize {
        let slot = self.free.pop().map_or_else(
            || {
                let slot = self.ids.len();
                self.ids.push(0);
                self.caps.push(0.0);
                self.load.push(0);
                self.listed.push(NOT_LISTED);
                self.pending.push(false);
                if slot == self.crossing.len() {
                    self.crossing.push(Vec::new());
                }
                self.crossing[slot].clear();
                slot
            },
            |slot| slot as usize,
        );
        self.slot_of[l as usize] = slot as u32;
        self.ids[slot] = l;
        self.caps[slot] = cap;
        slot
    }

    /// Unregister flow `idx`, crossing `path`.
    fn retire(&mut self, idx: usize, path: &[u32]) {
        for &l in path {
            let slot = self.slot_of[l as usize] as usize;
            self.load[slot] -= 1;
            let crossing = &mut self.crossing[slot];
            let at = crossing
                .iter()
                .position(|&f| f == idx as u32)
                .expect("retired flow is listed on its links");
            crossing.swap_remove(at);
            if self.load[slot] == 0 {
                self.slot_of[l as usize] = NO_SLOT;
                self.free.push(slot as u32);
            }
            self.touch(slot);
        }
    }

    /// Note that `slot`'s load changed, or that it was released or reused.
    fn touch(&mut self, slot: usize) {
        if !self.pending[slot] {
            self.pending[slot] = true;
            self.changed.push(slot as u32);
        }
    }

    /// Bring `sorted` up to date with every slot changed since the last
    /// filling allocation. Allocations the fast path serves skip this.
    fn sync_sorted(&mut self) {
        for &slot in &self.changed {
            let slot = slot as usize;
            self.pending[slot] = false;
            if self.listed[slot] != NOT_LISTED {
                let at = self
                    .sorted
                    .binary_search(&self.listed[slot])
                    .expect("a listed candidate is in the sorted order");
                self.sorted.remove(at);
                self.listed[slot] = NOT_LISTED;
            }
            if self.load[slot] > 0 {
                let key = share_key(self.caps[slot] / self.load[slot] as f64);
                let c = candidate(key, self.ids[slot], slot);
                let at = self.sorted.binary_search(&c).unwrap_or_else(|at| at);
                self.sorted.insert(at, c);
                self.listed[slot] = c;
            }
        }
        self.changed.clear();
    }

    /// Fast path: when one link is crossed by *every* active flow and
    /// its equal split is feasible on all other links, the max-min
    /// allocation is the uniform rate `cap / n`. Detects the full-mesh /
    /// incast shape in one scan instead of a filling loop.
    fn single_bottleneck(&self, active: &mut [Active], stats: &mut FlowStats) -> bool {
        let n = active.len() as u32;
        let mut shared: Option<f64> = None;
        for (&cap, &load) in self.caps.iter().zip(&self.load) {
            if load == n {
                let share = cap / n as f64;
                if shared.is_none_or(|s| share < s) {
                    shared = Some(share);
                }
            }
        }
        let Some(share) = shared else {
            return false;
        };
        for (&cap, &load) in self.caps.iter().zip(&self.load) {
            if load > 0 && cap / load as f64 + 1e-15 < share {
                return false;
            }
        }
        for f in active.iter_mut() {
            f.rate = share;
        }
        stats.fastpath_allocs += 1;
        true
    }

    /// Progressive filling: repeatedly saturate the most contended link.
    /// A round takes the smallest candidate — from the sorted initial
    /// ones or the re-queued ones — and walks only the bottleneck's
    /// incidence list and the paths of the flows it freezes.
    fn fill(&mut self, active: &mut [Active], paths: &[u32], stats: &mut FlowStats) {
        self.sync_sorted();
        self.rem.clear();
        self.rem.extend_from_slice(&self.caps);
        self.cnt.clear();
        self.cnt.extend_from_slice(&self.load);
        self.low.clear();
        self.low
            .extend(self.listed.iter().map(|&c| (c >> 64) as u64));
        self.marked.clear();
        self.marked.resize(self.ids.len(), false);
        self.requeued.clear();
        self.frozen.clear();
        self.frozen.resize(active.len(), false);
        for (k, f) in active.iter().enumerate() {
            self.pos[f.idx] = k as u32;
        }

        let mut next = 0; // cursor into `sorted`
        let mut unfrozen = active.len();
        while unfrozen > 0 {
            let top = match (self.sorted.get(next), self.requeued.peek()) {
                (Some(&c), Some(&Reverse(r))) if r < c => self.requeued.pop().map(|r| r.0),
                (Some(&c), _) => {
                    next += 1;
                    Some(c)
                }
                (None, _) => self.requeued.pop().map(|r| r.0),
            };
            let Some(top) = top else {
                // Unreachable while every active flow has a non-empty
                // path; guard against a stall anyway.
                for (f, &frozen) in active.iter_mut().zip(&self.frozen) {
                    if !frozen {
                        f.rate = f64::INFINITY;
                    }
                }
                break;
            };
            let (key, b) = ((top >> 64) as u64, top as u32 as usize);
            if self.cnt[b] == 0 {
                continue; // saturated, or every flow on it is frozen
            }
            let share = self.rem[b] / self.cnt[b] as f64;
            let now = share_key(share);
            if now != key {
                // Out of date. If this was the slot's newest candidate,
                // its share has risen since: re-queue it there.
                if key == self.low[b] {
                    self.low[b] = now;
                    self.requeued.push(Reverse(candidate(now, self.ids[b], b)));
                }
                continue;
            }
            for &f in &self.crossing[b] {
                let k = self.pos[f as usize] as usize;
                if self.frozen[k] {
                    continue;
                }
                self.frozen[k] = true;
                unfrozen -= 1;
                let f = &mut active[k];
                f.rate = share;
                for &l in &paths[f.start as usize..f.end as usize] {
                    let slot = self.slot_of[l as usize] as usize;
                    self.rem[slot] = (self.rem[slot] - share).max(0.0);
                    self.cnt[slot] -= 1;
                    if !self.marked[slot] {
                        self.marked[slot] = true;
                        self.dirty.push(slot as u32);
                    }
                }
            }
            // The bottleneck is exactly saturated; pin it against rounding.
            self.rem[b] = 0.0;
            self.cnt[b] = 0;
            // Rounding can drop a share below its queued key; queue it
            // again so `low` stays a lower bound.
            for &slot in &self.dirty {
                let slot = slot as usize;
                self.marked[slot] = false;
                if self.cnt[slot] > 0 {
                    let now = share_key(self.rem[slot] / self.cnt[slot] as f64);
                    if now < self.low[slot] {
                        self.low[slot] = now;
                        self.requeued
                            .push(Reverse(candidate(now, self.ids[slot], slot)));
                    }
                }
            }
            self.dirty.clear();
            stats.waterfill_rounds += 1;
        }
    }
}

/// Simulate the offered flows over the link set until `end_s`.
///
/// Returns one [`FlowResult`] per input flow (same order) and the
/// engine counters. Flows still unfinished at `end_s` — including flows
/// whose `start_s` is at or beyond it — come back censored
/// (`finish_s == None`).
///
/// # Panics
/// If a flow references a link outside `net`, or a start time is not
/// finite.
pub fn simulate(net: &FlowNet, flows: &[FlowDef], end_s: f64) -> (Vec<FlowResult>, FlowStats) {
    Engine::default().run(net, flows, end_s)
}

/// The event loop's buffers, reusable across runs.
#[derive(Default)]
struct Engine {
    active: Vec<Active>,
    filler: Filler,
}

impl Engine {
    fn run(
        &mut self,
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
        // Every path, flattened once in admission order.
        let total: usize = flows.iter().map(|f| f.path.len()).sum();
        assert!(
            total < u32::MAX as usize && flows.len() < u32::MAX as usize,
            "flow set exceeds u32 indexing"
        );
        let mut paths: Vec<u32> = Vec::with_capacity(total);
        for &i in &order {
            paths.extend(flows[i].path.iter().map(|l| l.0));
        }
        let mut cursor = 0u32; // arena offset of the next admission

        let Engine { active, filler } = self;
        active.clear();
        filler.reset(net.num_links(), flows.len());
        let mut results = vec![FlowResult { finish_s: None }; flows.len()];
        let mut stats = FlowStats::default();
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
                // Next event: earliest completion, next arrival, or the
                // end of time — whichever comes first.
                let mut dt_done = f64::INFINITY;
                for f in active.iter() {
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
                    for f in active.iter_mut() {
                        f.remaining -= f.rate * dt;
                    }
                }
                t = t_next;
                active.retain(|f| {
                    let done = f.remaining <= EPS_BYTES;
                    if done {
                        results[f.idx].finish_s = Some(t);
                        stats.completed += 1;
                        filler.retire(f.idx, &paths[f.start as usize..f.end as usize]);
                    }
                    !done
                });
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
                let start = cursor;
                cursor += flows[i].path.len() as u32;
                if start == cursor {
                    // Zero-cost loopback: transfers instantly.
                    results[i].finish_s = Some(t);
                    stats.completed += 1;
                    continue;
                }
                filler.admit(i, &paths[start as usize..cursor as usize], &net.caps);
                active.push(Active {
                    idx: i,
                    start,
                    end: cursor,
                    remaining: (flows[i].size_bytes as f64).max(EPS_BYTES * 2.0),
                    rate: 0.0,
                });
                stats.arrivals += 1;
            }
            // Recompute every active flow's max-min fair rate.
            if !active.is_empty() && !filler.single_bottleneck(active, &mut stats) {
                filler.fill(active, &paths, &mut stats);
            }
            stats.events += 1;
        }
        stats.censored += active.len() as u64;
        stats.censored += (flows.len() - next) as u64;
        (results, stats)
    }
}

#[cfg(test)]
impl Engine {
    /// Capacity of every buffer the event loop writes to.
    fn capacities(&self) -> Vec<usize> {
        let f = &self.filler;
        let mut caps = vec![
            self.active.capacity(),
            f.slot_of.capacity(),
            f.free.capacity(),
            f.ids.capacity(),
            f.caps.capacity(),
            f.load.capacity(),
            f.crossing.capacity(),
            f.listed.capacity(),
            f.sorted.capacity(),
            f.changed.capacity(),
            f.pending.capacity(),
            f.rem.capacity(),
            f.cnt.capacity(),
            f.low.capacity(),
            f.dirty.capacity(),
            f.marked.capacity(),
            f.requeued.capacity(),
            f.pos.capacity(),
            f.frozen.capacity(),
        ];
        caps.extend(f.crossing.iter().map(Vec::capacity));
        caps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_link_net(cap: f64) -> (FlowNet, LinkId) {
        let mut net = FlowNet::new();
        let l = net.add_link(cap);
        (net, l)
    }

    fn flow(seq: u64, size: u64, start: f64, path: Vec<LinkId>) -> FlowDef {
        FlowDef {
            seq,
            size_bytes: size,
            start_s: start,
            path,
        }
    }

    #[test]
    fn lone_flow_runs_at_link_capacity() {
        let (net, l) = one_link_net(100.0);
        let (res, stats) = simulate(&net, &[flow(0, 250, 0.5, vec![l])], 10.0);
        assert_eq!(res[0].finish_s, Some(3.0));
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.censored, 0);
        // A single flow trivially satisfies the shared-bottleneck shape.
        assert!(stats.fastpath_allocs > 0);
    }

    #[test]
    fn equal_share_then_residual_speedup() {
        // f1=150B and f2=50B split 100B/s evenly; f2 finishes at t=1,
        // then f1 runs alone at full rate: 100 bytes left -> t=2.
        let (net, l) = one_link_net(100.0);
        let defs = [flow(0, 150, 0.0, vec![l]), flow(1, 50, 0.0, vec![l])];
        let (res, stats) = simulate(&net, &defs, 10.0);
        assert_eq!(res[1].finish_s, Some(1.0));
        assert_eq!(res[0].finish_s, Some(2.0));
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.arrivals, 2);
    }

    #[test]
    fn water_filling_matches_the_textbook_example() {
        // A on link1 (cap 100), C on link2 (cap 60), B crosses both.
        // Max-min: link2's share 30 freezes B and C, link1's residual 70
        // goes to A. Sizes chosen so all three finish exactly at t=1.
        let mut net = FlowNet::new();
        let l1 = net.add_link(100.0);
        let l2 = net.add_link(60.0);
        let defs = [
            flow(0, 70, 0.0, vec![l1]),
            flow(1, 30, 0.0, vec![l1, l2]),
            flow(2, 30, 0.0, vec![l2]),
        ];
        let (res, stats) = simulate(&net, &defs, 10.0);
        for r in &res {
            assert_eq!(r.finish_s, Some(1.0), "all rates must be max-min exact");
        }
        assert!(stats.waterfill_rounds >= 2, "two filling rounds expected");
        assert_eq!(stats.fastpath_allocs, 0, "no link is crossed by all flows");
    }

    #[test]
    fn fast_path_agrees_with_general_water_filling() {
        // Incast shape: many flows share one downlink; per-flow uplinks
        // are never binding. The fast path must produce the same rates
        // (observable through finish times) as progressive filling
        // would: cap/n each.
        let mut net = FlowNet::new();
        let down = net.add_link(80.0);
        let ups: Vec<LinkId> = (0..4).map(|_| net.add_link(100.0)).collect();
        let defs: Vec<FlowDef> = ups
            .iter()
            .enumerate()
            .map(|(i, &up)| flow(i as u64, 40, 0.0, vec![up, down]))
            .collect();
        let (res, stats) = simulate(&net, &defs, 10.0);
        // 4 flows at 80/4 = 20 B/s, 40 bytes each -> t=2.
        for r in &res {
            assert_eq!(r.finish_s, Some(2.0));
        }
        assert!(stats.fastpath_allocs > 0);
    }

    #[test]
    fn staggered_arrivals_reallocate() {
        // f0 alone at 100B/s for 1s (100B done), then shares 50/50.
        // f0's remaining 100B takes 2s more -> finishes t=3. f1 (300B)
        // then runs alone from t=3 with 200B left -> t=5.
        let (net, l) = one_link_net(100.0);
        let defs = [flow(0, 200, 0.0, vec![l]), flow(1, 300, 1.0, vec![l])];
        let (res, _) = simulate(&net, &defs, 10.0);
        assert_eq!(res[0].finish_s, Some(3.0));
        assert_eq!(res[1].finish_s, Some(5.0));
    }

    #[test]
    fn end_of_time_censors_in_flight_and_unstarted_flows() {
        let (net, l) = one_link_net(100.0);
        let defs = [
            flow(0, 50, 0.0, vec![l]),
            flow(1, 1_000_000, 0.0, vec![l]),
            flow(2, 10, 99.0, vec![l]),
        ];
        let (res, stats) = simulate(&net, &defs, 2.0);
        assert_eq!(res[0].finish_s, Some(1.0), "50B at a 50B/s split");
        assert_eq!(res[1].finish_s, None);
        assert_eq!(res[2].finish_s, None, "starts after the end of time");
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.censored, 2);
    }

    #[test]
    fn empty_path_transfers_instantly() {
        let (net, _l) = one_link_net(100.0);
        let (res, stats) = simulate(&net, &[flow(0, 1 << 30, 0.25, vec![])], 1.0);
        assert_eq!(res[0].finish_s, Some(0.25));
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn simultaneous_events_tie_break_by_seq_and_repeat_bitwise() {
        let (net, l) = one_link_net(100.0);
        // Input deliberately out of seq order; same start instant.
        let defs = [
            flow(3, 100, 0.0, vec![l]),
            flow(1, 100, 0.0, vec![l]),
            flow(2, 100, 0.0, vec![l]),
        ];
        let (a, sa) = simulate(&net, &defs, 10.0);
        let (b, sb) = simulate(&net, &defs, 10.0);
        assert_eq!(a, b, "bit-identical across runs");
        assert_eq!(sa, sb);
        for r in &a {
            assert_eq!(r.finish_s, Some(3.0), "3 equal flows at 100/3 B/s");
        }
    }

    #[test]
    fn a_warm_engine_runs_without_allocating() {
        // Every buffer the event loop touches lives in `Engine`. A second
        // run of the same flows on a warm engine replays the same events,
        // so if no buffer grows, no event allocated.
        let mut net = FlowNet::new();
        let hosts: Vec<LinkId> = (0..32).map(|_| net.add_link(100.0)).collect();
        let racks: Vec<LinkId> = (0..4).map(|_| net.add_link(300.0)).collect();
        let defs: Vec<FlowDef> = (0..400u64)
            .map(|i| {
                let (src, dst) = ((i % 32) as usize, ((i * 13 + 7) % 32) as usize);
                let mut path = vec![hosts[src], hosts[dst]];
                if src % 4 != dst % 4 {
                    path.extend([racks[src % 4], racks[dst % 4]]);
                }
                flow(i, 50 + i * 31 % 200, i as f64 * 0.1, path)
            })
            .collect();
        let mut engine = Engine::default();
        let cold = engine.run(&net, &defs, f64::INFINITY);
        let warm_caps = engine.capacities();
        let warm = engine.run(&net, &defs, f64::INFINITY);
        assert_eq!(cold, warm);
        assert!(
            warm.1.waterfill_rounds > warm.1.events,
            "general filling ran"
        );
        assert_eq!(
            engine.capacities(),
            warm_caps,
            "a buffer grew on a warm run"
        );
    }

    #[test]
    fn results_align_with_input_order_not_arrival_order() {
        let (net, l) = one_link_net(100.0);
        let defs = [flow(0, 100, 5.0, vec![l]), flow(1, 100, 0.0, vec![l])];
        let (res, _) = simulate(&net, &defs, 20.0);
        assert_eq!(res[1].finish_s, Some(1.0), "earlier arrival, later index");
        assert_eq!(res[0].finish_s, Some(6.0));
    }
}
