//! The device–system simulation loop (§IV-C of the paper).
//!
//! The loop itself lives in [`Simulation::run_with`]: a short orchestrator
//! that moves each arrival slot through the five pipeline stages of
//! [`crate::pipeline`]. The stages own all mutable run state
//! ([`PipelineState`]); this module owns only construction and the final
//! report assembly.

use std::fmt;

use hypersio_mem::{Iommu, IommuParams, SpacePool, TenantSpace};
use hypersio_obs::{Event, NullObserver, Observer, PacketSpan, SpanComponents};
use hypersio_trace::HyperTrace;
use hypersio_types::{Bandwidth, Did, SimDuration};
use hypertrio_core::{DevTlb, PrefetchUnit, TranslationConfig};

use crate::control::{current_rss_bytes, RunControl, RunOutcome, RSS_CHECK_FRAMES};
use crate::faults::FaultInjector;
use crate::params::SimParams;
use crate::pipeline::{
    ArrivalSource, CompletionStage, Deferred, Fetched, LookupStage, PipelineState, PrefetchStage,
    ReqClock, WalkStage,
};
use crate::report::SimReport;
use crate::sid_map::SidMap;
use crate::slot_pool::SlotPool;

/// Wall-clock nanoseconds the simulator itself spent in each pipeline
/// stage, measured by [`Simulation::run_timed`].
///
/// This times the *simulator's* execution (for `bench_hotpath`'s per-stage
/// breakdown), not simulated time. Stage attribution follows event
/// ownership: fault application and slot fetching are `arrival`; fill
/// delivery, prediction/issue, and history recording are `prefetch`; the
/// DevTLB/PB probe is `lookup`; admission and service (PTB + IOMMU) are
/// `walk`; drop/complete accounting is `completion`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Arrival stage: fault application, trace fetch, slot bookkeeping.
    pub arrival_ns: u64,
    /// Prefetch stage: fill delivery, observation/issue, history updates.
    pub prefetch_ns: u64,
    /// Lookup stage: the batched DevTLB/PB probe.
    pub lookup_ns: u64,
    /// Walk stage: PTB admission/scheduling and IOMMU translation.
    pub walk_ns: u64,
    /// Completion stage: drop/complete accounting and latency tracking.
    pub completion_ns: u64,
}

impl StageTimings {
    /// Total nanoseconds attributed across all five stages.
    pub fn total_ns(&self) -> u64 {
        self.arrival_ns + self.prefetch_ns + self.lookup_ns + self.walk_ns + self.completion_ns
    }
}

/// Arrival slots per pipeline frame. Frame boundaries are the quiescent
/// points where `run_controlled` checkpoints, checks its stop conditions
/// and (every `RSS_CHECK_FRAMES` frames) polls RSS; the length decides
/// only where those points fall, never what is simulated.
const FRAME_SLOTS: usize = 8;

/// Accumulates the interval since the previous mark into `acc` and
/// re-marks. Compiles to nothing when `TIMED` is false.
#[inline]
fn lap<const TIMED: bool>(mark: &mut Option<std::time::Instant>, acc: &mut u64) {
    if TIMED {
        let now = std::time::Instant::now();
        if let Some(prev) = mark.replace(now) {
            *acc += now.duration_since(prev).as_nanos() as u64;
        }
    }
}

/// One simulation run: a [`TranslationConfig`] (the architecture under
/// test), [`SimParams`] (the system latencies), and a [`HyperTrace`] (the
/// workload).
///
/// The model follows §IV-C:
///
/// 1. Packets arrive every `link.inter_arrival()`.
/// 2. Each accepted packet issues three translation requests. Requests that
///    hit the DevTLB or the Prefetch Buffer complete at the hit latency;
///    the rest each occupy a Pending-Translation-Buffer slot for a PCIe
///    round trip plus the IOMMU walk.
/// 3. A packet whose missing translations cannot obtain a PTB slot at
///    arrival is dropped and retried at the next arrival slot.
/// 4. Achieved bandwidth = processed wire bytes / time of last completion.
///
/// Construct, then call [`Simulation::run`].
pub struct Simulation {
    config: TranslationConfig,
    params: SimParams,
    state: PipelineState,
}

impl Simulation {
    /// Builds a simulation, constructing the tenant page tables from the
    /// trace's page inventory: one canonical build, of which every tenant's
    /// [`TenantSpace`] is a view.
    ///
    /// Spaces are stamped eagerly (one per DID `0..N` at construction)
    /// unless [`SimParams::table_budget`] is set — the historical layout,
    /// byte-identical to earlier versions. A table budget switches to a
    /// lazy [`SpacePool`]: spaces are stamped from the canonical layout on
    /// first touch and evicted LRU under the budget. Either pool produces
    /// bit-identical reports.
    pub fn new(config: TranslationConfig, params: SimParams, trace: HyperTrace) -> Self {
        let inventory = trace.page_inventory();
        // Every tenant runs the same OS and driver, so the page inventory —
        // and hence the table *shape* — is shared. Build the canonical
        // layout once and stamp out the per-DID instances instead of
        // replaying the full inventory per tenant (the layout is affine in
        // the DID, see `TenantSpaceBuilder::build_many`).
        let mut b = TenantSpace::builder(Did::new(0));
        b.geometry(params.walk_geometry);
        for &(iova, size, _) in inventory.iter() {
            b.map(iova, size);
        }
        let iommu_params = IommuParams {
            dram_latency: params.dram_latency,
            walk_caches: config.walk_caches.clone(),
            context_entries: params.context_entries,
            scheme: params.translation_scheme,
        };
        let did_bound = trace.tenants();
        let iommu = if params.table_budget.is_none() {
            let dids: Vec<Did> = (0..did_bound).map(Did::new).collect();
            Iommu::new(iommu_params, b.build_many(&dids))
        } else {
            // Lazy pool: the canonical (DID 0) build plus the DID bound.
            let pool = SpacePool::lazy(b.build(), did_bound, params.table_budget);
            Iommu::with_pool(iommu_params, pool)
        };
        let devtlb = DevTlb::new(
            config.devtlb_geometry,
            config.devtlb_partitions,
            config.devtlb_policy.clone(),
        );
        // The prefetch unit's SID- and DID-indexed tables grow on first
        // use; the trace's bounds are what a checkpoint restore accepts.
        let sids = SidMap::for_trace(&trace);
        let prefetch = config.prefetch.as_ref().map(|pf| {
            PrefetchUnit::new(pf.buffer_entries, pf.history_len, pf.pages_per_prefetch)
                .with_bounds(sids.sid_bound(), did_bound)
        });
        let ptb = SlotPool::new(config.ptb_entries);
        let walkers = params.iommu_walkers.map(SlotPool::new);
        let pcie_round = params.pcie.round_trip();
        // An empty plan constructs no injector at all: the fault-free path
        // is byte-identical to a build without fault injection.
        let faults = (!params.fault_plan.is_none())
            .then(|| FaultInjector::new(&params.fault_plan, &inventory, trace.tenants()));
        let state = PipelineState {
            sids,
            completion: CompletionStage::new(
                params.warmup_packets,
                params.link.bytes_delivered(1).raw(),
                params.per_tenant.then(|| trace.tenants()),
            ),
            prefetch: PrefetchStage::new(prefetch, params.history_read, pcie_round),
            lookup: LookupStage::new(devtlb, params.bypass_translation),
            walk: WalkStage::new(iommu, ptb, walkers, pcie_round, params.devtlb_hit),
            arrival: ArrivalSource::new(trace, params.link.inter_arrival()),
            clock: ReqClock::default(),
            faults,
        };
        Simulation {
            config,
            params,
            state,
        }
    }

    /// Runs the trace to completion and returns the report.
    ///
    /// Equivalent to [`Simulation::run_with`] with a [`NullObserver`]: the
    /// observer machinery compiles away entirely, so this is exactly the
    /// uninstrumented loop.
    pub fn run(self) -> SimReport {
        self.run_with(&mut NullObserver)
    }

    /// The architecture under test (checkpoint identity header).
    pub(crate) fn config(&self) -> &TranslationConfig {
        &self.config
    }

    /// The trace behind the arrival stage (checkpoint identity header).
    pub(crate) fn trace(&self) -> &HyperTrace {
        self.state.arrival.trace()
    }

    /// The system parameters (checkpoint identity header).
    pub(crate) fn params(&self) -> &SimParams {
        &self.params
    }

    /// Appends the run's full mutable state to `out` — everything the
    /// packet loop owns, in pipeline order. Only valid at a batch-frame
    /// boundary, where the per-packet scratch buffers are quiescent;
    /// everything not captured here is re-derived bit-identically at
    /// construction (page tables, SID map, fault schedule, walk memo).
    pub(crate) fn snapshot_words(&self, out: &mut Vec<u64>) {
        let st = &self.state;
        st.clock.snapshot_words(out);
        st.arrival.snapshot_words(out);
        st.prefetch.snapshot_words(out);
        st.lookup.snapshot_words(out);
        st.walk.snapshot_words(out);
        st.completion.snapshot_words(out);
        match &st.faults {
            None => out.push(0),
            Some(inj) => {
                out.push(1);
                inj.snapshot_words(out);
            }
        }
    }

    /// Restores state captured by [`Simulation::snapshot_words`] into this
    /// simulation, which must have been freshly constructed with the same
    /// config, params, and trace. Returns `None` — leaving the simulation
    /// in an unspecified state that must be discarded — when the stream is
    /// corrupt or belongs to a different run shape.
    pub(crate) fn restore_words(&mut self, r: &mut hypersio_cache::WordReader<'_>) -> Option<()> {
        let st = &mut self.state;
        st.clock.restore_words(r)?;
        st.arrival.restore_words(r)?;
        st.prefetch.restore_words(r)?;
        st.lookup.restore_words(r)?;
        st.walk.restore_words(r)?;
        st.completion.restore_words(r)?;
        match (r.next()?, st.faults.as_mut()) {
            (0, None) => {}
            (1, Some(inj)) => inj.restore_words(r)?,
            _ => return None,
        }
        r.is_empty().then_some(())
    }

    /// Runs the trace to completion, streaming lifecycle
    /// [`Event`](hypersio_obs::Event)s to `obs`.
    ///
    /// The observer is monomorphized into every stage and every emission
    /// site is guarded by the compile-time constant [`Observer::ENABLED`],
    /// so a disabled observer costs nothing — the simulated behaviour and
    /// the returned report are bit-identical for every observer.
    ///
    /// Events are emitted in nondecreasing *arrival-slot* order, but some
    /// stamps point into the future relative to the slot that emitted them
    /// ([`Event::WalkDone`](hypersio_obs::Event::WalkDone),
    /// [`Event::PtbRelease`](hypersio_obs::Event::PtbRelease),
    /// [`Event::PacketComplete`](hypersio_obs::Event::PacketComplete));
    /// time-bucketing consumers must index by the stamp, not assume
    /// monotonicity.
    pub fn run_with<O: Observer>(self, obs: &mut O) -> SimReport {
        self.run_core::<O, false>(obs).0
    }

    /// Runs the trace to completion, additionally measuring the wall-clock
    /// time the simulator spent in each pipeline stage.
    ///
    /// Timer reads make the instrumented loop slower than [`Simulation::run`]
    /// (which compiles them away via the `TIMED` monomorphization), so use
    /// the untimed run for end-to-end throughput numbers and this one for
    /// the per-stage breakdown; the simulated results are bit-identical.
    pub fn run_timed(self) -> (SimReport, StageTimings) {
        self.run_core::<NullObserver, true>(&mut NullObserver)
    }

    /// Runs the trace under a [`RunControl`]: periodic checkpoints,
    /// cooperative interruption, and the RSS watchdog, all evaluated at
    /// batch-frame boundaries (the only quiescent points; see
    /// `DESIGN.md` §16).
    ///
    /// With an all-default control this is exactly [`Simulation::run_with`]
    /// wrapped in [`RunOutcome::Completed`] — same report, same event
    /// stream. Checkpoint cadence ticks are anchored at simulated time
    /// zero (tick `k` fires at the first frame boundary at or past
    /// `k * checkpoint_every`), so a resumed run checkpoints at the same
    /// boundaries the original would have, and a run interrupted at frame
    /// boundary `B` then resumed emits, in total, exactly the events of an
    /// uninterrupted run: part one ends at `B` and part two starts there.
    pub fn run_controlled<O: Observer>(
        mut self,
        obs: &mut O,
        ctl: &mut RunControl<'_>,
    ) -> RunOutcome {
        let mut timings = StageTimings::default();
        let every_ps = ctl.checkpoint_every.map(|e| e.as_ps()).filter(|&e| e > 0);
        // First cadence tick strictly after the current position, as an
        // absolute multiple of the cadence: resume-invariant.
        let mut next_ckpt_ps =
            every_ps.map(|e| (self.state.arrival.slot_time().as_ps() / e + 1) * e);
        let mut frames: u64 = 0;
        loop {
            if self.run_frame::<O, false>(obs, &mut timings) {
                return RunOutcome::Completed(Box::new(self.finish(obs)));
            }
            frames += 1;
            let now = self.state.arrival.slot_time();
            if let (Some(every), Some(at)) = (every_ps, next_ckpt_ps.as_mut()) {
                if *at <= now.as_ps() {
                    // Catch up past boundaries (a long frame can cross
                    // several ticks); one checkpoint covers them all.
                    while *at <= now.as_ps() {
                        *at += every;
                    }
                    if let Some(sink) = ctl.checkpoint_sink.as_mut() {
                        sink(self.checkpoint_bytes());
                    }
                }
            }
            let stop_timed = ctl.stop_after.is_some_and(|t| now.as_ps() >= t.as_ps());
            if stop_timed || ctl.stop.is_some_and(|stop| stop()) {
                return RunOutcome::Interrupted {
                    checkpoint: self.checkpoint_bytes(),
                };
            }
            if let Some(limit) = ctl.rss_limit_bytes {
                if frames.is_multiple_of(RSS_CHECK_FRAMES) {
                    if let Some(rss) = current_rss_bytes() {
                        if rss > limit {
                            let (spaces, memo) = self.state.walk.relieve_memory_pressure();
                            if O::ENABLED {
                                obs.record(
                                    now.as_ps(),
                                    Event::MemoryPressure {
                                        rss_bytes: rss,
                                        shed_entries: spaces + memo,
                                    },
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// The pipeline loop, monomorphized over the observer and the timing
    /// instrumentation so both compile away when unused.
    ///
    /// Arrival slots are processed in frames of `FRAME_SLOTS` slots.
    /// Within a frame the packets still chain through the stages in exact
    /// arrival order — a packet's DevTLB installs and PTB occupancy must
    /// be visible to the next packet's probe and admission — so the frame
    /// length never changes simulated behaviour; the batch dimension that
    /// pays is *within* each packet, where the request vector probes the
    /// DevTLB/PB as one batch and the miss subset translates as one batch.
    fn run_core<O: Observer, const TIMED: bool>(
        mut self,
        obs: &mut O,
    ) -> (SimReport, StageTimings) {
        let mut timings = StageTimings::default();
        while !self.run_frame::<O, TIMED>(obs, &mut timings) {}
        (self.finish(obs), timings)
    }

    /// Runs one frame (up to `FRAME_SLOTS` arrival slots); returns `true`
    /// once the trace is exhausted. Between calls the pipeline is
    /// quiescent — no per-packet scratch state is live — which is what
    /// makes the frame boundary the checkpoint point.
    fn run_frame<O: Observer, const TIMED: bool>(
        &mut self,
        obs: &mut O,
        timings: &mut StageTimings,
    ) -> bool {
        let st = &mut self.state;
        let mut mark = None;
        {
            // The trip count is deliberately a runtime value known to be
            // at least 1, the loop the compiler saw while the length was a
            // parameter: as a compile-time constant, or opaque without the
            // lower bound, it changed this loop's code generation and moved
            // `sim_pkts_per_s` by 3-10% on some benchmark workloads.
            for _ in 0..std::hint::black_box(FRAME_SLOTS).max(1) {
                let now = st.arrival.slot_time();
                if TIMED {
                    mark = Some(std::time::Instant::now());
                }

                // Fault-plan events (storms, churn) due at or before this
                // slot apply before the slot's packet is fetched, so a
                // shootdown scheduled for time T is visible to the packet
                // arriving at T.
                if let Some(inj) = st.faults.as_mut() {
                    inj.apply_due(now, &mut st.lookup, &mut st.prefetch, &mut st.walk, obs);
                }

                // Stage 1: the packet for this slot — a retried drop
                // (already probed) or the next trace packet, which flows
                // through the prefetch observation (stage 2) and the
                // DevTLB/PB probe (stage 3) exactly once.
                let fetched = st.arrival.fetch(now, obs);
                lap::<TIMED>(&mut mark, &mut timings.arrival_ns);
                let mut work = match fetched {
                    Fetched::Exhausted => return true,
                    Fetched::Idle => {
                        // Only backed-off packets remain and none is
                        // eligible yet; the empty slots pass up to the next
                        // retry or fault event (fault injection only).
                        st.arrival.skip_idle(st.faults.as_ref());
                        continue;
                    }
                    Fetched::Retry(mut work) => {
                        if O::SPANS {
                            // Close the wait segment opened at the drop:
                            // measured to the actual re-fetch slot, the
                            // total is exact whether the retry spin was
                            // iterated or bulk fast-forwarded.
                            work.span.note_refetch(now.as_ps());
                        }
                        work
                    }
                    Fetched::Fresh(packet) => {
                        st.prefetch.deliver_due(
                            st.arrival.observed(),
                            now,
                            st.clock.current(),
                            obs,
                        );
                        st.prefetch.observe_and_issue(
                            packet.sid,
                            now,
                            st.arrival.observed(),
                            &mut st.sids,
                            &mut st.walk,
                            st.faults.as_ref(),
                            st.clock.current(),
                            obs,
                        );
                        lap::<TIMED>(&mut mark, &mut timings.prefetch_ns);
                        let mut work = st.lookup.probe(
                            packet,
                            now,
                            &mut st.prefetch,
                            &mut st.completion,
                            &mut st.clock,
                            &mut st.sids,
                            obs,
                        );
                        lap::<TIMED>(&mut mark, &mut timings.lookup_ns);
                        if O::SPANS {
                            // Seed the span at first arrival: `observed`
                            // was just bumped by the fetch, so the 0-based
                            // sequence number is `observed - 1`.
                            work.span.seq = st.arrival.observed() - 1;
                            work.span.arrival_ps = now.as_ps();
                            work.span.wait_from_ps = now.as_ps();
                        }
                        work
                    }
                };
                // The slot is consumed by this packet whether it is
                // admitted or dropped; the exhausted break never reaches
                // here, so `arrivals` counts exactly the slots that
                // carried a packet.
                st.arrival.consume_slot();

                // IO page faults: a packet touching a not-yet-resident
                // page cannot be translated — it takes the drop/retry path
                // with exponential backoff while the PRI request is
                // serviced, and is terminally dropped once its retry
                // budget is exhausted (the bound that rules out livelock).
                // Native bypass mode skips the check: faults model the
                // translation path.
                if let Some(inj) = st.faults.as_mut() {
                    if !st.lookup.bypass() && inj.packet_blocked(&work.packet, now, obs) {
                        // A retry the simulated clock cannot reach is
                        // terminal too.
                        let delay = inj.backoff_slots(work.fault_retries);
                        if work.fault_retries >= inj.max_retries()
                            || !st.arrival.retry_in_range(delay)
                        {
                            st.completion.record_faulted_drop(work.packet.did, now, obs);
                            let Deferred { misses, .. } = work;
                            st.lookup.reclaim(misses);
                        } else {
                            st.completion.record_drop(work.packet.did, now, obs);
                            if O::SPANS {
                                work.span.note_drop(now.as_ps(), true);
                            }
                            work.fault_retries += 1;
                            st.arrival.defer_after(work, delay);
                        }
                        lap::<TIMED>(&mut mark, &mut timings.completion_ns);
                        continue;
                    }
                }

                // Stage 4 admission: at least one PTB slot free at
                // arrival, or the packet is dropped and retried at the
                // next slot (§IV-C).
                if !st.walk.admit(now, st.lookup.bypass()) {
                    st.completion.record_drop(work.packet.did, now, obs);
                    if O::SPANS {
                        work.span.note_drop(now.as_ps(), false);
                    }
                    // Fast-forward the retry spin: without an observer or a
                    // fault plan, this packet is the only parked one and
                    // will redrop every slot until the PTB frees, so the
                    // intermediate slots can be accounted in bulk instead
                    // of iterated (Base's single-entry PTB spends ~40 slots
                    // per packet here). Per-slot event emission keeps the
                    // slow path when an observer is attached; the report is
                    // bit-identical either way.
                    if !O::ENABLED && st.faults.is_none() {
                        let skipped = st.arrival.fast_forward_drops(st.walk.ptb_earliest_free());
                        st.completion.record_drops_bulk(work.packet.did, skipped);
                        if O::SPANS {
                            // Each skipped slot was one more PTB-full
                            // drop; the wait time itself is closed at the
                            // real retry fetch, so only the count is owed.
                            work.span.note_bulk_drops(skipped);
                        }
                    }
                    st.arrival.defer(work);
                    lap::<TIMED>(&mut mark, &mut timings.completion_ns);
                    continue;
                }

                // Stage 4 service, then stage 5 accounting.
                let (completion, parts) =
                    st.walk
                        .serve(&work, now, &mut st.lookup, &mut st.clock, obs);
                lap::<TIMED>(&mut mark, &mut timings.walk_ns);
                st.prefetch.record_history(&work.packet);
                lap::<TIMED>(&mut mark, &mut timings.prefetch_ns);
                let Deferred {
                    packet,
                    misses,
                    fault_retries,
                    span,
                    ..
                } = work;
                st.lookup.reclaim(misses);
                st.completion
                    .record_complete(packet.did, now, completion, obs);
                if O::SPANS {
                    // The wait side (seed) tiles [arrival, now) and the
                    // service side (serve's critical path) tiles
                    // [now, completion): together the six components sum
                    // exactly to the end-to-end latency.
                    obs.record_span(PacketSpan {
                        seq: span.seq,
                        did: packet.did.raw(),
                        sid: packet.sid.raw(),
                        arrival_ps: span.arrival_ps,
                        service_ps: now.as_ps(),
                        complete_ps: completion.as_ps(),
                        ptb_retries: span.ptb_retries,
                        fault_retries,
                        components: SpanComponents {
                            retry_wait_ps: span.retry_wait_ps,
                            pri_wait_ps: span.pri_wait_ps,
                            ..parts
                        },
                    });
                }
                lap::<TIMED>(&mut mark, &mut timings.completion_ns);
            }
        }
        false
    }

    /// Disassembles the pipeline into the end-of-run report.
    fn finish<O: Observer>(self, obs: &mut O) -> SimReport {
        let Simulation {
            config,
            params,
            state,
        } = self;
        let PipelineState {
            arrival,
            mut prefetch,
            lookup,
            walk,
            completion,
            faults,
            ..
        } = state;
        // Bandwidth is measured after the warm-up window (if any). The
        // interval covers every arrival slot that carried a packet, so
        // achieved bandwidth can never exceed the nominal link rate; the
        // clamp below only absorbs f64 rounding in the division.
        let (t0, p0) = completion.measurement_origin();
        let slots_end = arrival.slot_time();
        let end = completion.last_completion().max(slots_end).max(t0);
        let elapsed = end.duration_since(t0);
        let processed = completion.processed();
        let bytes = params.link.bytes_delivered(processed - p0);
        let achieved = Bandwidth::achieved(bytes, elapsed.max(SimDuration::from_ps(1)));
        let utilization = achieved.utilization_of(params.link.bandwidth()).min(1.0);
        let (l2, l3) = walk.walk_cache_stats();
        // Fills still queued when the trace ends were never delivered:
        // their predicted access never arrived.
        let fills_expired = prefetch.expire_remaining(slots_end, obs);
        let requests = lookup.requests();
        let dropped = completion.dropped();
        let faulted_drops = completion.faulted_drops();
        let fc = faults.map(|i| i.counters()).unwrap_or_default();
        let (packet_latency, per_tenant) = completion.into_accumulators();

        SimReport {
            config_name: config.name,
            workload: arrival.trace().params().kind,
            interleaving: arrival.trace().interleaving(),
            tenants: arrival.trace().tenants(),
            packets_processed: processed,
            packets_dropped: dropped,
            bytes,
            elapsed,
            achieved,
            utilization,
            devtlb: *lookup.devtlb_stats(),
            prefetch_buffer: prefetch.buffer_stats(),
            pb_served_fraction: if requests == 0 {
                0.0
            } else {
                lookup.pb_served() as f64 / requests as f64
            },
            prefetches_issued: prefetch.issued(),
            prefetch_fills_late: prefetch.fills_late(),
            prefetch_fills_expired: fills_expired,
            page_faults: fc.page_faults,
            pri_requests: fc.pri_requests,
            faulted_drops,
            inv_storms: fc.inv_storms,
            tenant_remaps: fc.tenant_remaps,
            iommu: walk.iommu_stats(),
            l2_cache: l2,
            l3_cache: l3,
            translation_requests: requests,
            packet_latency,
            per_tenant,
            latency_breakdown: None,
        }
    }
}

impl fmt::Debug for Simulation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulation")
            .field("config", &self.config.name)
            .field("tenants", &self.state.arrival.trace().tenants())
            .field("workload", &self.state.arrival.trace().params().kind)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypersio_trace::{HyperTraceBuilder, Interleaving, WorkloadKind};
    use hypertrio_core::TranslationConfig;

    fn quick_trace(
        kind: WorkloadKind,
        tenants: u32,
        inter: Interleaving,
        scale: u64,
    ) -> HyperTrace {
        HyperTraceBuilder::new(kind, tenants)
            .interleaving(inter)
            .scale(scale)
            .seed(11)
            .build()
    }

    /// Steady-state measurement: generous trace + warm-up so the
    /// cold-compulsory misses of a scaled-down trace do not dominate.
    fn run_steady(config: TranslationConfig, tenants: u32, scale: u64, warmup: u64) -> SimReport {
        let trace = quick_trace(
            WorkloadKind::Iperf3,
            tenants,
            Interleaving::round_robin(1),
            scale,
        );
        Simulation::new(config, SimParams::paper().with_warmup(warmup), trace).run()
    }

    fn run(config: TranslationConfig, tenants: u32) -> SimReport {
        let trace = quick_trace(
            WorkloadKind::Iperf3,
            tenants,
            Interleaving::round_robin(1),
            2000,
        );
        Simulation::new(config, SimParams::paper(), trace).run()
    }

    #[test]
    fn few_tenants_saturate_link_even_on_base() {
        let report = run_steady(TranslationConfig::base(), 2, 20, 800);
        assert!(
            report.utilization > 0.9,
            "2 tenants should fit the DevTLB: {report}"
        );
    }

    #[test]
    fn base_collapses_at_many_tenants() {
        let report = run_steady(TranslationConfig::base(), 128, 100, 2000);
        assert!(
            report.utilization < 0.25,
            "Base must thrash at 128 tenants: {report}"
        );
        assert!(report.packets_dropped > report.packets_processed);
    }

    #[test]
    fn hypertrio_beats_base_at_scale() {
        let base = run_steady(TranslationConfig::base(), 128, 100, 2000);
        let ht = run_steady(TranslationConfig::hypertrio(), 128, 100, 2000);
        assert!(
            ht.utilization > 2.0 * base.utilization,
            "HyperTRIO {:.3} vs Base {:.3}",
            ht.utilization,
            base.utilization
        );
    }

    #[test]
    fn prefetch_contributes_at_scale() {
        let trace = quick_trace(WorkloadKind::Iperf3, 128, Interleaving::round_robin(1), 100);
        let params = SimParams::paper().with_warmup(2000);
        let no_pf = Simulation::new(
            TranslationConfig::hypertrio().without_prefetch(),
            params.clone(),
            trace.clone(),
        )
        .run();
        let with_pf = Simulation::new(TranslationConfig::hypertrio(), params, trace).run();
        assert!(
            with_pf.utilization > no_pf.utilization,
            "prefetch {:.3} vs none {:.3}",
            with_pf.utilization,
            no_pf.utilization
        );
        assert!(with_pf.pb_served_fraction > 0.1);
        assert!(with_pf.prefetches_issued > 0);
    }

    #[test]
    fn five_level_tables_translate_slower() {
        let trace = quick_trace(WorkloadKind::Iperf3, 64, Interleaving::round_robin(1), 400);
        let four = Simulation::new(
            TranslationConfig::base(),
            SimParams::paper().with_warmup(1000),
            trace.clone(),
        )
        .run();
        let five = Simulation::new(
            TranslationConfig::base(),
            SimParams::paper()
                .with_arch(hypersio_mem::WalkGeometry::X86Nested5)
                .with_warmup(1000),
            trace,
        )
        .run();
        assert!(
            five.utilization <= four.utilization,
            "deeper tables cannot be faster: {:.3} vs {:.3}",
            five.utilization,
            four.utilization
        );
        // Same translation count, strictly more DRAM traffic.
        assert!(five.iommu.dram_accesses > four.iommu.dram_accesses);
    }

    #[test]
    fn native_mode_always_saturates() {
        let trace = quick_trace(WorkloadKind::Iperf3, 64, Interleaving::round_robin(1), 500);
        let report = Simulation::new(
            TranslationConfig::base(),
            SimParams::paper().native(),
            trace,
        )
        .run();
        assert!(report.utilization > 0.99, "{report}");
        assert_eq!(report.packets_dropped, 0);
        assert_eq!(report.iommu.requests, 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run(TranslationConfig::hypertrio(), 16);
        let b = run(TranslationConfig::hypertrio(), 16);
        assert_eq!(a.packets_processed, b.packets_processed);
        assert_eq!(a.achieved, b.achieved);
        assert_eq!(a.iommu.dram_accesses, b.iommu.dram_accesses);
    }

    #[test]
    fn translation_request_accounting() {
        let report = run(TranslationConfig::base(), 4);
        assert_eq!(report.translation_requests, 3 * report.packets_processed);
        assert_eq!(report.devtlb.accesses(), report.translation_requests);
    }

    #[test]
    fn walker_cap_reduces_bandwidth_under_load() {
        let trace = quick_trace(WorkloadKind::Iperf3, 128, Interleaving::round_robin(1), 400);
        let unbounded = Simulation::new(
            TranslationConfig::hypertrio().without_prefetch(),
            SimParams::paper(),
            trace.clone(),
        )
        .run();
        let capped = Simulation::new(
            TranslationConfig::hypertrio().without_prefetch(),
            SimParams::paper().with_iommu_walkers(1),
            trace,
        )
        .run();
        assert!(
            capped.utilization < unbounded.utilization,
            "capped {:.3} vs unbounded {:.3}",
            capped.utilization,
            unbounded.utilization
        );
    }

    #[test]
    fn flat_tables_outperform_nested_walks_under_thrash() {
        // With enough in-flight translations (PTB=32) the walk latency —
        // not the PCIe hop — separates the schemes.
        let config = TranslationConfig::hypertrio().without_prefetch();
        let trace = quick_trace(WorkloadKind::Iperf3, 128, Interleaving::round_robin(1), 200);
        let nested = Simulation::new(
            config.clone(),
            SimParams::paper().with_warmup(2000),
            trace.clone(),
        )
        .run();
        let flat = Simulation::new(
            config,
            SimParams::paper().with_flat_tables().with_warmup(2000),
            trace,
        )
        .run();
        // Partitioned L2 caches keep most nested walks short at this
        // tenant count, so the throughput edge is modest; the decisive
        // difference is the memory traffic below.
        assert!(
            flat.utilization > 1.1 * nested.utilization,
            "flat {:.3} vs nested {:.3}",
            flat.utilization,
            nested.utilization
        );
        // The flat table's whole point: an order of magnitude less
        // memory traffic per translation.
        assert!(flat.iommu.dram_accesses < nested.iommu.dram_accesses / 4);
    }

    #[test]
    fn bdf_derived_sids_work_end_to_end() {
        // Assign SIDs the way a hypervisor would: from a dual-PF SR-IOV
        // device's VF BDFs. Prefetching must still resolve tenants.
        use hypersio_trace::HyperTraceBuilder;
        let nic = hypersio_device::SriovDevice::new(0x3b, 2, 63);
        let tenants = 32u32;
        let sids: Vec<_> = nic
            .assign_interleaved(tenants)
            .into_iter()
            .map(|vf| nic.sid_of(vf))
            .collect();
        let trace = HyperTraceBuilder::new(WorkloadKind::Iperf3, tenants)
            .sids(sids)
            .scale(400)
            .seed(5)
            .build();
        let report = Simulation::new(
            TranslationConfig::hypertrio(),
            SimParams::paper().with_warmup(1000),
            trace,
        )
        .run();
        assert!(report.utilization > 0.5, "{report}");
        assert!(report.prefetches_issued > 0);
    }

    #[test]
    fn elapsed_and_bytes_consistent_with_bandwidth() {
        let report = run(TranslationConfig::base(), 8);
        let recomputed = Bandwidth::achieved(report.bytes, report.elapsed);
        assert_eq!(recomputed, report.achieved);
    }

    #[test]
    fn per_tenant_totals_reconcile_with_aggregates() {
        let trace = quick_trace(WorkloadKind::Iperf3, 8, Interleaving::round_robin(1), 200);
        let report = Simulation::new(
            TranslationConfig::hypertrio(),
            SimParams::paper().with_per_tenant(),
            trace,
        )
        .run();
        let pt = report.per_tenant.as_ref().expect("per-tenant was opted in");
        let dids: Vec<u32> = pt.tenants.iter().map(|t| t.did).collect();
        assert_eq!(dids, (0..8).collect::<Vec<u32>>());
        let packets: u64 = pt.tenants.iter().map(|t| t.packets).sum();
        let drops: u64 = pt.tenants.iter().map(|t| t.drops).sum();
        let bytes: u64 = pt.tenants.iter().map(|t| t.bytes).sum();
        let probes: u64 = pt
            .tenants
            .iter()
            .map(|t| t.devtlb_hits + t.devtlb_misses)
            .sum();
        let latency_samples: u64 = pt.tenants.iter().map(|t| t.latency.count()).sum();
        assert_eq!(packets, report.packets_processed);
        assert_eq!(drops, report.packets_dropped);
        assert_eq!(bytes, report.bytes.raw());
        assert_eq!(probes, report.translation_requests);
        assert_eq!(latency_samples, report.packets_processed);
    }

    #[test]
    fn per_tenant_collection_does_not_change_the_aggregate_report() {
        let trace = quick_trace(WorkloadKind::Iperf3, 8, Interleaving::round_robin(1), 200);
        let plain = Simulation::new(
            TranslationConfig::hypertrio(),
            SimParams::paper(),
            trace.clone(),
        )
        .run();
        assert!(plain.per_tenant.is_none());
        let mut with = Simulation::new(
            TranslationConfig::hypertrio(),
            SimParams::paper().with_per_tenant(),
            trace,
        )
        .run();
        assert!(with.per_tenant.is_some());
        with.per_tenant = None;
        assert_eq!(plain, with);
    }
}
