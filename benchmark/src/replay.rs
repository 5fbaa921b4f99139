//! The layer replay: the simulator's layers driven from outside, through
//! their public calls, with a span around every call group.
//!
//! The replay builds the same trace, SID map, DevTLB, Prefetch Unit and
//! IOMMU (same pool and budget) that `Simulation::new` builds for the
//! workload, then feeds every trace packet through them in pipeline order
//! (DESIGN.md §10). Calls are grouped in chunks of [`CHUNK`] packets and,
//! within a chunk, layer by layer: all trace fetches, then all predictor
//! observations, all SID resolutions, and so on. One span covers each
//! (chunk, layer) group, so timing costs two clock reads per group, not
//! per call, and the chunk span is the parent of its layer spans.
//!
//! What the replay leaves out is simulated time: there is no PTB, so no
//! drop or retry path, and a packet's arrival time is approximated as its
//! index times the link's inter-arrival gap. Prefetch fills are still
//! delivered at the simulator's documented due point (`history_len`
//! observations after the trigger, the `fill_due_obs` rule of the prefetch
//! stage) rather than at once — an immediate fill would be churned out of
//! the 8-entry Prefetch Buffer long before use. IO page faults live inside
//! the simulator's private fault injector and are not replayed; storms and
//! tenant churn are, through the public invalidation calls.
//!
//! Counts from the replay are close to the real run's but not equal to
//! them; the benchmark takes counts from the real run and only host time
//! per call from here.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

use hypersio_mem::{Iommu, IommuParams, IommuResponse, PoolStats, SpacePool, TenantSpace};
use hypersio_sim::{FaultPlan, LatencyStats, SidMap};
use hypersio_trace::{HyperTrace, TracePacket};
use hypersio_types::{Did, GIova, HPa, PageSize, Sid, SimDuration};
use hypertrio_core::{DevTlb, PrefetchUnit, TlbEntry};

use crate::workloads::RunSpec;

/// Packets per chunk.
const CHUNK: usize = 64;

/// Chunks whose spans are kept for the Chrome trace; totals cover all.
const SPAN_CHUNKS: usize = 4096;

/// Number of [`Layer`]s.
const LAYERS: usize = 12;

/// A replayed call group, in pipeline order (the order of the variants is
/// the index into [`Outcome::layers`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Storm and churn shootdowns due at the chunk's start (DevTLB, PB,
    /// IOMMU invalidation calls).
    Invalidate,
    /// `HyperTrace::next`.
    Trace,
    /// `PrefetchUnit::observe`.
    Observe,
    /// `SidMap::resolve` of each predicted SID.
    SidMap,
    /// `PrefetchUnit::plan_into`.
    Plan,
    /// `Iommu::translate` for each planned prefetch page.
    PrefetchWalk,
    /// `DevTlb::lookup_batch` (and, without a PB, gathering the misses).
    DevTlbLookup,
    /// Due `PrefetchUnit::fill`s and `PrefetchUnit::lookup_batch`,
    /// interleaved per packet as the simulator does.
    PbLookup,
    /// `Iommu::translate_batch` for each packet's PB misses.
    DemandWalk,
    /// `DevTlb::insert` of each walked translation.
    DevTlbFill,
    /// `PrefetchUnit::record_history`.
    History,
    /// `LatencyStats::record`.
    Completion,
}

impl Layer {
    /// The span name: the layer's module, then the call.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Invalidate => "invalidate",
            Layer::Trace => "trace.next",
            Layer::Observe => "prefetch.observe",
            Layer::SidMap => "sid_map.resolve",
            Layer::Plan => "prefetch.plan",
            Layer::PrefetchWalk => "iommu.prefetch_walk",
            Layer::DevTlbLookup => "devtlb.lookup",
            Layer::PbLookup => "prefetch.pb_lookup",
            Layer::DemandWalk => "iommu.demand_walk",
            Layer::DevTlbFill => "devtlb.fill",
            Layer::History => "prefetch.history",
            Layer::Completion => "completion.record",
        }
    }
}

/// Host time and call count of one layer over the whole replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    /// Nanoseconds inside the layer's spans.
    pub ns: u64,
    /// Calls made (per element for batch calls).
    pub calls: u64,
}

impl Totals {
    /// Nanoseconds per call (0 when the layer made none).
    pub fn ns_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64
        }
    }
}

/// One recorded span, in nanoseconds since the replay started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The call group, or `None` for the chunk (parent) span.
    pub layer: Option<Layer>,
    /// Chunk index: the ID shared by a chunk and its layer spans.
    pub chunk: u32,
    /// Start offset.
    pub start_ns: u64,
    /// Duration.
    pub dur_ns: u64,
    /// Of the duration, nanoseconds in `PrefetchUnit::fill` (only for
    /// [`Layer::PbLookup`], whose fills interleave with its lookups).
    pub fill_ns: u64,
}

/// What one replay measured.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Per-layer totals, indexed by `Layer as usize`.
    pub layers: [Totals; LAYERS],
    /// Prefetch fills delivered into the PB (timed inside `PbLookup`).
    pub fills: Totals,
    /// IOMMU invalidation calls (timed inside `Invalidate`).
    pub iommu_invalidations: Totals,
    /// Wall time of the replay loop.
    pub wall_ns: u64,
    /// Spans of the first [`SPAN_CHUNKS`] chunks.
    pub spans: Vec<Span>,
    /// Packets replayed (every trace packet, once).
    pub packets: u64,
    /// DevTLB lookups and hits.
    pub devtlb_lookups: u64,
    /// DevTLB hits.
    pub devtlb_hits: u64,
    /// Requests served by the PB.
    pub pb_served: u64,
    /// The IOMMU's table-pool counters at the end.
    pub pool: PoolStats,
}

impl Outcome {
    /// Totals of `layer`.
    pub fn layer(&self, layer: Layer) -> Totals {
        self.layers[layer as usize]
    }
}

/// Builds the IOMMU exactly as `Simulation::new` does for this workload:
/// the canonical tables from the trace's page inventory, then either one
/// eager space per DID or a lazy pool under the table budget.
pub fn build_iommu(spec: &RunSpec, trace: &HyperTrace) -> Iommu {
    let mut builder = TenantSpace::builder(Did::new(0));
    builder.geometry(spec.params.walk_geometry);
    for &(iova, size, _) in trace.page_inventory().iter() {
        builder.map(iova, size);
    }
    let params = IommuParams {
        dram_latency: spec.params.dram_latency,
        walk_caches: spec.config.walk_caches.clone(),
        context_entries: spec.params.context_entries,
        scheme: spec.params.translation_scheme,
    };
    match spec.params.table_budget {
        None => {
            let dids: Vec<Did> = (0..trace.tenants()).map(Did::new).collect();
            Iommu::new(params, builder.build_many(&dids))
        }
        Some(budget) => Iommu::with_pool(
            params,
            SpacePool::lazy(builder.build(), trace.tenants(), Some(budget)),
        ),
    }
}

/// A prefetched translation waiting for its due point (ordered as the
/// simulator's pending-fill heap: due point, walk completion, DID, page).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Fill {
    due_obs: u64,
    done_ps: u64,
    did: Did,
    iova: GIova,
    /// Index of the packet whose observation issued the prefetch.
    trigger: u64,
    hpa_base: HPa,
    size: PageSize,
}

/// The prefetch stage's delivery rule: a prefetch triggered at observed
/// count `observed` is delivered `history_len - 2` observations later
/// (histories under 2 cannot lead and are due at the trigger).
fn fill_due_obs(observed: u64, history_len: usize) -> u64 {
    match history_len as u64 {
        0 | 1 => observed,
        n => observed + (n - 2),
    }
}

/// A shootdown the fault plan schedules.
#[derive(Debug, Clone, Copy)]
enum Shootdown {
    /// One DID, or every DID when `None`.
    Storm(Option<Did>),
    /// Migration of one DID to a fresh host slab.
    Churn(Did),
}

/// The fault plan's storms and churns in time order (explicit events win
/// ties against the periodic cadence, as in the simulator).
struct Schedule {
    events: Vec<(u64, Shootdown)>,
    next: usize,
    period_ps: Option<u64>,
    next_periodic_ps: u64,
}

impl Schedule {
    fn new(plan: &FaultPlan) -> Schedule {
        let mut events: Vec<(u64, Shootdown)> = plan
            .storms
            .iter()
            .map(|s| (s.at.as_ps(), Shootdown::Storm(s.did)))
            .chain(
                plan.churns
                    .iter()
                    .map(|c| (c.at.as_ps(), Shootdown::Churn(c.did))),
            )
            .collect();
        events.sort_by_key(|&(at, _)| at);
        let period_ps = plan.storm_period.map(SimDuration::as_ps);
        Schedule {
            events,
            next: 0,
            period_ps,
            next_periodic_ps: period_ps.unwrap_or(u64::MAX),
        }
    }

    /// The next shootdown due at or before `now_ps`, if any.
    fn pop_due(&mut self, now_ps: u64) -> Option<Shootdown> {
        let explicit = self.events.get(self.next).map(|&(at, _)| at);
        match (explicit, self.period_ps) {
            (Some(e), _) if e <= now_ps && e <= self.next_periodic_ps => {
                self.next += 1;
                Some(self.events[self.next - 1].1)
            }
            (_, Some(period)) if self.next_periodic_ps <= now_ps => {
                self.next_periodic_ps = self.next_periodic_ps.saturating_add(period);
                Some(Shootdown::Storm(None))
            }
            _ => None,
        }
    }
}

/// Clock for the chunk's layer spans.
struct Spans {
    origin: Instant,
    last: Instant,
    chunk: u32,
    keep: bool,
    out: Vec<Span>,
    layers: [Totals; LAYERS],
}

impl Spans {
    /// Closes the span of `layer` that started at the previous mark.
    fn mark(&mut self, layer: Layer, fill_ns: u64) {
        let now = Instant::now();
        let dur = (now - self.last).as_nanos() as u64;
        self.layers[layer as usize].ns += dur;
        if self.keep {
            self.out.push(Span {
                layer: Some(layer),
                chunk: self.chunk,
                start_ns: (self.last - self.origin).as_nanos() as u64,
                dur_ns: dur,
                fill_ns,
            });
        }
        self.last = now;
    }

    fn add_calls(&mut self, layer: Layer, calls: u64) {
        self.layers[layer as usize].calls += calls;
    }
}

/// Replays every packet of the workload's trace through its layers.
pub fn run(spec: &RunSpec) -> Outcome {
    let mut trace = spec.trace();
    let tenants = trace.tenants();
    let mut sids = SidMap::for_trace(&trace);
    let mut iommu = build_iommu(spec, &trace);
    let cfg = &spec.config;
    let mut devtlb = DevTlb::new(
        cfg.devtlb_geometry,
        cfg.devtlb_partitions,
        cfg.devtlb_policy.clone(),
    );
    let mut unit = cfg
        .prefetch
        .as_ref()
        .map(|pf| PrefetchUnit::new(pf.buffer_entries, pf.history_len, pf.pages_per_prefetch));
    let history_len = unit.as_ref().map_or(0, PrefetchUnit::history_len);
    let params = &spec.params;
    let gap_ps = params.link.inter_arrival().as_ps();
    let pcie_round = params.pcie.round_trip();
    let mut schedule = Schedule::new(&params.fault_plan);
    let mut migrations = 0u64;
    let mut latency = LatencyStats::new();
    let mut fills: BinaryHeap<Reverse<Fill>> = BinaryHeap::new();
    let mut fill_totals = Totals::default();
    let mut iommu_inv = Totals::default();

    // Per-chunk scratch, reused.
    let mut packets: Vec<TracePacket> = Vec::with_capacity(CHUNK);
    let mut predicted: Vec<(usize, Sid)> = Vec::new();
    let mut predicted_dids: Vec<Did> = Vec::new();
    let mut planned: Vec<(usize, Sid, Did, GIova)> = Vec::new();
    let mut pages: Vec<GIova> = Vec::new();
    let mut tlb: Vec<[Option<TlbEntry>; 3]> = vec![[None; 3]; CHUNK];
    let mut pb_iovas: Vec<GIova> = Vec::new();
    let mut pb_nows: Vec<u64> = Vec::new();
    let mut pb_out: Vec<Option<TlbEntry>> = Vec::new();
    // Each packet's PB misses: `miss_at[j]..miss_at[j + 1]` into `misses`.
    let mut misses: Vec<GIova> = Vec::new();
    let mut miss_at: Vec<usize> = Vec::with_capacity(CHUNK + 1);
    let mut walked: Vec<Result<IommuResponse, hypersio_mem::TranslationFault>> = Vec::new();
    let mut responses: Vec<IommuResponse> = Vec::new();
    let mut pkt_latency: Vec<SimDuration> = Vec::with_capacity(CHUNK);

    let (mut devtlb_lookups, mut devtlb_hits, mut pb_served) = (0u64, 0u64, 0u64);
    // Packets so far; packet `index + j` is the `(index + j + 1)`-th
    // observation, as the arrival stage counts them.
    let mut index = 0u64;
    // Request ticks: six per packet (three probes, up to three walks), so
    // ticks stay monotone per packet without knowing the misses up front.
    let mut tick = 0u64;
    let origin = Instant::now();
    let mut spans = Spans {
        origin,
        last: origin,
        chunk: 0,
        keep: true,
        out: Vec::new(),
        layers: [Totals::default(); LAYERS],
    };
    loop {
        let chunk_start = Instant::now();
        spans.last = chunk_start;
        spans.keep = (spans.chunk as usize) < SPAN_CHUNKS;

        // Shootdowns due at the chunk's first arrival.
        let mut invalidated = false;
        while let Some(action) = schedule.pop_due(index * gap_ps) {
            let did = match action {
                Shootdown::Storm(did) => did,
                Shootdown::Churn(did) => Some(did),
            };
            // The simulator skips events naming a DID outside the trace.
            if did.is_some_and(|d| d.raw() >= tenants) {
                continue;
            }
            invalidated = true;
            let t = Instant::now();
            match (action, did) {
                (Shootdown::Churn(d), _) => {
                    iommu.migrate_tenant(d, tenants as u64 + migrations);
                    migrations += 1;
                }
                (_, Some(d)) => {
                    iommu.invalidate_did(d);
                }
                (_, None) => iommu.flush(),
            }
            iommu_inv.ns += (Instant::now() - t).as_nanos() as u64;
            iommu_inv.calls += 1;
            match did {
                Some(did) => {
                    devtlb.invalidate_did(did);
                    if let Some(pf) = unit.as_mut() {
                        pf.invalidate_did(did);
                    }
                    fills.retain(|Reverse(f)| f.did != did);
                }
                None => {
                    devtlb.clear();
                    if let Some(pf) = unit.as_mut() {
                        pf.invalidate_all();
                    }
                    fills.clear();
                }
            }
            spans.add_calls(Layer::Invalidate, 1);
        }
        if invalidated {
            spans.mark(Layer::Invalidate, 0);
        }

        packets.clear();
        packets.extend(trace.by_ref().take(CHUNK));
        if packets.is_empty() {
            break;
        }
        let n = packets.len();
        spans.add_calls(Layer::Trace, n as u64);
        spans.mark(Layer::Trace, 0);

        predicted.clear();
        predicted_dids.clear();
        planned.clear();
        if let Some(pf) = unit.as_mut() {
            for (j, p) in packets.iter().enumerate() {
                if let Some(req) = pf.observe(p.sid) {
                    predicted.push((j, req.sid));
                }
            }
            spans.add_calls(Layer::Observe, n as u64);
            spans.mark(Layer::Observe, 0);

            predicted_dids.extend(predicted.iter().map(|&(_, sid)| sids.resolve(sid.raw())));
            spans.add_calls(Layer::SidMap, predicted.len() as u64);
            spans.mark(Layer::SidMap, 0);

            for (&(j, sid), &did) in predicted.iter().zip(&predicted_dids) {
                pf.plan_into(did, tick + 6 * j as u64, &mut pages);
                planned.extend(pages.iter().map(|&iova| (j, sid, did, iova)));
            }
            spans.add_calls(Layer::Plan, predicted.len() as u64);
            spans.mark(Layer::Plan, 0);

            for &(j, sid, did, iova) in &planned {
                if let Ok(resp) = iommu.translate(sid, did, iova, tick + 6 * j as u64) {
                    let trigger = index + j as u64;
                    fills.push(Reverse(Fill {
                        due_obs: fill_due_obs(trigger + 1, history_len),
                        done_ps: trigger * gap_ps
                            + (params.history_read + pcie_round + resp.latency).as_ps(),
                        did,
                        iova,
                        trigger,
                        hpa_base: HPa::new(resp.hpa.raw() & !resp.size.offset_mask()),
                        size: resp.size,
                    }));
                }
            }
            spans.add_calls(Layer::PrefetchWalk, planned.len() as u64);
            spans.mark(Layer::PrefetchWalk, 0);
        }

        for (j, p) in packets.iter().enumerate() {
            devtlb.lookup_batch(p.sid, p.did, &p.iovas, tick + 6 * j as u64, &mut tlb[j]);
        }
        spans.add_calls(Layer::DevTlbLookup, 3 * n as u64);
        spans.mark(Layer::DevTlbLookup, 0);
        for row in &tlb[..n] {
            devtlb_lookups += 3;
            devtlb_hits += row.iter().filter(|e| e.is_some()).count() as u64;
        }

        // Fills come due between one packet's lookups and the next, so
        // they interleave with the PB probes and are timed on their own.
        misses.clear();
        miss_at.clear();
        let mut fill_ns = 0u64;
        let mut pb_lookups = 0u64;
        for (j, p) in packets.iter().enumerate() {
            let g = index + j as u64;
            let base = tick + 6 * j as u64;
            miss_at.push(misses.len());
            if let Some(pf) = unit.as_mut() {
                let due = |f: &Fill| f.due_obs <= g + 1 && f.trigger < g;
                if fills.peek().is_some_and(|Reverse(f)| due(f)) {
                    let t = Instant::now();
                    while let Some(&Reverse(f)) = fills.peek() {
                        if !due(&f) {
                            break;
                        }
                        fills.pop();
                        if f.done_ps <= g * gap_ps {
                            let entry = TlbEntry {
                                hpa_base: f.hpa_base,
                                size: f.size,
                            };
                            pf.fill(f.did, f.iova, entry, base);
                            fill_totals.calls += 1;
                        }
                    }
                    fill_ns += (Instant::now() - t).as_nanos() as u64;
                }
            }
            pb_iovas.clear();
            pb_nows.clear();
            for (i, (&iova, hit)) in p.iovas.iter().zip(&tlb[j]).enumerate() {
                if hit.is_none() {
                    pb_iovas.push(iova);
                    pb_nows.push(base + i as u64);
                }
            }
            match unit.as_mut() {
                Some(pf) => {
                    pb_out.clear();
                    pb_out.resize(pb_iovas.len(), None);
                    pf.lookup_batch(p.did, &pb_iovas, &pb_nows, &mut pb_out);
                    pb_lookups += pb_iovas.len() as u64;
                    for (&iova, hit) in pb_iovas.iter().zip(&pb_out) {
                        match hit {
                            Some(_) => pb_served += 1,
                            None => misses.push(iova),
                        }
                    }
                }
                None => misses.extend_from_slice(&pb_iovas),
            }
        }
        miss_at.push(misses.len());
        fill_totals.ns += fill_ns;
        if unit.is_some() {
            spans.add_calls(Layer::PbLookup, pb_lookups);
            spans.mark(Layer::PbLookup, fill_ns);
        } else {
            // Without a PB the pass only gathered the DevTLB misses.
            spans.mark(Layer::DevTlbLookup, 0);
        }

        responses.clear();
        for (j, p) in packets.iter().enumerate() {
            let batch = &misses[miss_at[j]..miss_at[j + 1]];
            iommu.translate_batch(p.sid, p.did, batch, tick + 6 * j as u64 + 3, &mut walked);
            responses.extend(
                walked
                    .drain(..)
                    .map(|r| r.expect("trace pages are mapped in every tenant's tables")),
            );
        }
        spans.add_calls(Layer::DemandWalk, misses.len() as u64);
        spans.mark(Layer::DemandWalk, 0);

        pkt_latency.clear();
        for (j, p) in packets.iter().enumerate() {
            let mut worst = params.devtlb_hit;
            for (k, (&iova, resp)) in misses[miss_at[j]..miss_at[j + 1]]
                .iter()
                .zip(&responses[miss_at[j]..miss_at[j + 1]])
                .enumerate()
            {
                let entry = TlbEntry {
                    hpa_base: HPa::new(resp.hpa.raw() & !resp.size.offset_mask()),
                    size: resp.size,
                };
                devtlb.insert(
                    p.sid,
                    p.did,
                    iova,
                    entry,
                    tick + 6 * j as u64 + 3 + k as u64,
                );
                worst = worst.max(pcie_round + resp.latency);
            }
            pkt_latency.push(worst);
        }
        spans.add_calls(Layer::DevTlbFill, misses.len() as u64);
        spans.mark(Layer::DevTlbFill, 0);

        if let Some(pf) = unit.as_mut() {
            for p in &packets {
                for &iova in &p.iovas {
                    pf.record_history(p.did, iova);
                }
            }
            spans.add_calls(Layer::History, 3 * n as u64);
            spans.mark(Layer::History, 0);
        }

        for &l in &pkt_latency {
            latency.record(l);
        }
        spans.add_calls(Layer::Completion, n as u64);
        spans.mark(Layer::Completion, 0);

        if spans.keep {
            let chunk = spans.chunk;
            spans.out.push(Span {
                layer: None,
                chunk,
                start_ns: (chunk_start - origin).as_nanos() as u64,
                dur_ns: (spans.last - chunk_start).as_nanos() as u64,
                fill_ns: 0,
            });
        }
        spans.chunk += 1;
        index += n as u64;
        tick += 6 * n as u64;
    }
    let wall_ns = (Instant::now() - origin).as_nanos() as u64;
    assert_eq!(latency.count(), index, "one completion per replayed packet");
    Outcome {
        layers: spans.layers,
        fills: fill_totals,
        iommu_invalidations: iommu_inv,
        wall_ns,
        spans: spans.out,
        packets: index,
        devtlb_lookups,
        devtlb_hits,
        pb_served,
        pool: iommu.pool_stats(),
    }
}

/// Writes the kept spans as a Chrome trace (open it in Perfetto): one
/// complete event per span, microsecond timestamps, the chunk index as the
/// shared ID in `args`.
pub fn chrome_trace(workload: &str, spans: &[Span]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
    let _ = write!(
        out,
        "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 1, \
         \"args\": {{\"name\": \"replay {workload}\"}}}}"
    );
    for s in spans {
        let name = s.layer.map_or("chunk", Layer::name);
        let _ = write!(
            out,
            ",\n{{\"name\": \"{name}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \
             \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"chunk\": {}",
            s.start_ns as f64 / 1e3,
            s.dur_ns as f64 / 1e3,
            s.chunk
        );
        if s.layer == Some(Layer::PbLookup) {
            let _ = write!(out, ", \"fill_ns\": {}", s.fill_ns);
        }
        out.push_str("}}");
    }
    out.push_str("\n]}\n");
    out
}
