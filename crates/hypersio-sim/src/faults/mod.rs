//! Deterministic, seeded fault injection (§IV robustness extensions).
//!
//! Real deployments do not run the steady state the paper measures:
//! hypervisors shoot down IOTLB entries when they reclaim memory, migrate
//! tenants between host slabs (remapping every gIOVA→hPA binding), and
//! expose not-present pages that devices must recover from via PRI-style
//! page requests. This module injects those disturbances into the
//! simulation as a declarative, reproducible [`FaultPlan`]:
//!
//! * **Invalidation storms** — per-DID or global shootdowns at scheduled
//!   times (one-shot [`StormEvent`]s and/or a periodic cadence) that
//!   propagate through every translation-caching level: DevTLB, Prefetch
//!   Buffer + IOVA history, pending prefetch fills, and the IOMMU's
//!   L2/L3/nested walk caches.
//! * **Tenant churn** — a [`ChurnEvent`] migrates a DID to a fresh host
//!   slab (its page tables are rebuilt at new host addresses) and performs
//!   the full shootdown a hypervisor would issue afterwards.
//! * **IO page faults** — a seeded fraction of each tenant's pages starts
//!   not-present. A packet touching one raises a PRI-style page request
//!   served after a configurable latency; until then the packet takes the
//!   drop/retry path with bounded exponential backoff, and a packet that
//!   exhausts its retries is terminally dropped (counted separately as a
//!   `faulted_drop` — the injector can never livelock the run).
//!
//! With [`FaultPlan::none`] the injector is not even constructed and the
//! simulation is byte-identical to a run without this module.

mod plan_json;

use std::collections::HashMap;

use hypersio_obs::{Event, Observer};
use hypersio_trace::{PageInventory, TracePacket};
use hypersio_types::{Did, GIova, PageSize, SimDuration, SimTime, SplitMix64};

use crate::pipeline::{LookupStage, PrefetchStage, WalkStage};

/// Retry backoff for packets blocked on a not-present page.
///
/// The n-th retry of a blocked packet is delayed `min(base_slots << n,
/// cap_slots)` arrival slots; after `max_retries` the packet is terminally
/// dropped. The cap bounds the wait, the retry limit bounds the work: the
/// combination makes livelock impossible by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffPolicy {
    /// Delay of the first retry, in arrival slots (minimum 1 applies).
    pub base_slots: u64,
    /// Upper bound on any retry delay, in arrival slots.
    pub cap_slots: u64,
    /// Retries before the packet is terminally dropped.
    pub max_retries: u32,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy {
            base_slots: 1,
            cap_slots: 64,
            max_retries: 8,
        }
    }
}

impl BackoffPolicy {
    /// Delay in arrival slots before retry number `retries` (0-based),
    /// clamped to `1..=cap_slots`.
    pub fn delay_slots(&self, retries: u32) -> u64 {
        let shifted = if retries >= 63 {
            u64::MAX
        } else {
            self.base_slots.saturating_mul(1u64 << retries)
        };
        shifted.clamp(1, self.cap_slots.max(1))
    }
}

/// One scheduled IOTLB invalidation storm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StormEvent {
    /// When the shootdown is issued.
    pub at: SimTime,
    /// The tenant shot down, or `None` for a global shootdown.
    pub did: Option<Did>,
}

/// One scheduled tenant migration (VM moves to a fresh host slab).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnEvent {
    /// When the migration lands.
    pub at: SimTime,
    /// The migrated tenant.
    pub did: Did,
}

/// The longest PRI page-request service latency a plan may set, in µs
/// (1000 s of simulated time): it keeps `now + pri_latency` far inside the
/// picosecond clock. `FaultPlan::validate` and the `--pri-latency-us` flag
/// both check against it.
pub const MAX_PRI_LATENCY_US: u64 = 1_000_000_000;

/// A declarative, seeded fault-injection plan.
///
/// The default ([`FaultPlan::none`]) injects nothing and leaves the
/// simulation byte-identical to an uninstrumented run. Plans can be built
/// programmatically with the `with_*` helpers or loaded from a
/// `fault_plan/v1` JSON file via [`FaultPlan::from_json`].
///
/// # Examples
///
/// ```
/// use hypersio_sim::FaultPlan;
/// use hypersio_types::SimDuration;
///
/// let plan = FaultPlan::none()
///     .with_storm_period(SimDuration::from_us(100))
///     .with_fault_rate(0.01)
///     .with_seed(7);
/// assert!(!plan.is_none());
/// assert!(plan.validate().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// One-shot invalidation storms.
    pub storms: Vec<StormEvent>,
    /// Optional periodic global storm cadence (first storm one period in).
    pub storm_period: Option<SimDuration>,
    /// Tenant migrations.
    pub churns: Vec<ChurnEvent>,
    /// Fraction of each tenant's pages that start not-present (`0.0..=1.0`).
    pub fault_rate: f64,
    /// Service latency of one PRI-style page request.
    pub pri_latency: SimDuration,
    /// Retry backoff for fault-blocked packets.
    pub backoff: BackoffPolicy,
    /// Seed for the not-present page selection.
    pub seed: u64,
}

impl FaultPlan {
    /// The empty plan: no faults, byte-identical simulation.
    pub fn none() -> Self {
        FaultPlan {
            storms: Vec::new(),
            storm_period: None,
            churns: Vec::new(),
            fault_rate: 0.0,
            pri_latency: SimDuration::from_us(10),
            backoff: BackoffPolicy::default(),
            seed: 0,
        }
    }

    /// True when the plan injects nothing at all.
    pub fn is_none(&self) -> bool {
        self.storms.is_empty()
            && self.storm_period.is_none()
            && self.churns.is_empty()
            && self.fault_rate == 0.0
    }

    /// Adds a per-DID shootdown at `at`.
    pub fn with_storm(mut self, at: SimTime, did: Did) -> Self {
        self.storms.push(StormEvent { at, did: Some(did) });
        self
    }

    /// Adds a global shootdown at `at`.
    pub fn with_global_storm(mut self, at: SimTime) -> Self {
        self.storms.push(StormEvent { at, did: None });
        self
    }

    /// Sets a periodic global-storm cadence.
    pub fn with_storm_period(mut self, period: SimDuration) -> Self {
        self.storm_period = Some(period);
        self
    }

    /// Adds a tenant migration at `at`.
    pub fn with_churn(mut self, at: SimTime, did: Did) -> Self {
        self.churns.push(ChurnEvent { at, did });
        self
    }

    /// Sets the not-present page fraction.
    pub fn with_fault_rate(mut self, rate: f64) -> Self {
        self.fault_rate = rate;
        self
    }

    /// Sets the PRI service latency.
    pub fn with_pri_latency(mut self, latency: SimDuration) -> Self {
        self.pri_latency = latency;
        self
    }

    /// Sets the retry backoff policy.
    pub fn with_backoff(mut self, backoff: BackoffPolicy) -> Self {
        self.backoff = backoff;
        self
    }

    /// Sets the page-selection seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Checks the plan for nonsensical values.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first problem found:
    /// a `fault_rate` outside `0.0..=1.0` (or non-finite), a `pri_latency`
    /// above [`MAX_PRI_LATENCY_US`], or a zero `storm_period`.
    pub fn validate(&self) -> Result<(), String> {
        if !self.fault_rate.is_finite() || !(0.0..=1.0).contains(&self.fault_rate) {
            return Err(format!(
                "fault_rate must be within 0.0..=1.0, got {}",
                self.fault_rate
            ));
        }
        if self.pri_latency > SimDuration::from_us(MAX_PRI_LATENCY_US) {
            return Err(format!(
                "pri_latency must be at most {MAX_PRI_LATENCY_US} us, got {} ps",
                self.pri_latency.as_ps()
            ));
        }
        if self.storm_period.is_some_and(|p| p.is_zero()) {
            return Err("storm_period must be positive".to_string());
        }
        Ok(())
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

/// A due scheduled fault.
#[derive(Debug, Clone, Copy)]
enum Action {
    /// Shootdown of one DID, or everything when `None`.
    Storm(Option<Did>),
    /// Migration of one DID to a fresh host slab.
    Churn(Did),
}

/// End-of-run fault counters for the report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct FaultCounters {
    pub(crate) page_faults: u64,
    pub(crate) pri_requests: u64,
    pub(crate) inv_storms: u64,
    pub(crate) tenant_remaps: u64,
}

/// The runtime fault engine: compiled from a [`FaultPlan`] at simulation
/// construction, consulted once per arrival slot.
///
/// Owns the event schedule (one-shot + periodic, applied in time order
/// with explicit events winning ties), the not-present page overlay, and
/// the in-flight PRI requests. The overlay is *orthogonal* to the page
/// tables: a not-present page blocks the packet before PTB admission, so
/// the walk engine (whose tables map every trace page) never observes a
/// translation fault.
pub(crate) struct FaultInjector {
    /// One-shot events, sorted by time (stable: storms before churns).
    schedule: Vec<(u64, Action)>,
    next_event: usize,
    period_ps: Option<u64>,
    next_periodic_ps: u64,
    /// Pages currently not-present: `(did, page base) → page size`.
    unmapped: HashMap<(u32, u64), PageSize>,
    /// In-flight PRI requests: `(did, page base) → ready time (ps)`.
    pri_pending: HashMap<(u32, u64), u64>,
    pri_latency: SimDuration,
    backoff: BackoffPolicy,
    tenants: u32,
    /// Migrations performed so far; fresh slabs are `tenants + count`, so
    /// they can never collide with a live tenant's slab.
    migrations: u64,
    counters: FaultCounters,
}

impl FaultInjector {
    /// Compiles `plan` against the trace's page inventory.
    pub(crate) fn new(plan: &FaultPlan, inventory: &PageInventory, tenants: u32) -> Self {
        let mut schedule: Vec<(u64, Action)> = Vec::new();
        for s in &plan.storms {
            schedule.push((s.at.as_ps(), Action::Storm(s.did)));
        }
        for c in &plan.churns {
            schedule.push((c.at.as_ps(), Action::Churn(c.did)));
        }
        schedule.sort_by_key(|&(at, _)| at);
        let period_ps = plan.storm_period.map(SimDuration::as_ps);
        let mut unmapped = HashMap::new();
        if plan.fault_rate > 0.0 {
            let mut rng = SplitMix64::new(plan.seed);
            for did in 0..tenants {
                for &(iova, size, _) in inventory.iter() {
                    // 53-bit uniform draw in [0, 1): fault_rate = 1.0
                    // marks every page not-present.
                    let draw = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                    if draw < plan.fault_rate {
                        unmapped.insert((did, iova.raw()), size);
                    }
                }
            }
        }
        FaultInjector {
            schedule,
            next_event: 0,
            period_ps,
            next_periodic_ps: period_ps.unwrap_or(u64::MAX),
            unmapped,
            pri_pending: HashMap::new(),
            pri_latency: plan.pri_latency,
            backoff: plan.backoff,
            tenants,
            migrations: 0,
            counters: FaultCounters::default(),
        }
    }

    /// Applies every scheduled fault due at or before `now`, earliest
    /// first (explicit events win ties against the periodic cadence).
    pub(crate) fn apply_due<O: Observer>(
        &mut self,
        now: SimTime,
        lookup: &mut LookupStage,
        prefetch: &mut PrefetchStage,
        walk: &mut WalkStage,
        obs: &mut O,
    ) {
        let now_ps = now.as_ps();
        loop {
            let explicit = self.schedule.get(self.next_event).map(|&(at, _)| at);
            let periodic = self.period_ps.map(|_| self.next_periodic_ps);
            match (explicit, periodic) {
                (Some(e), p) if e <= now_ps && p.is_none_or(|p| e <= p) => {
                    let (_, action) = self.schedule[self.next_event];
                    self.next_event += 1;
                    self.apply(action, now, lookup, prefetch, walk, obs);
                }
                (_, Some(p)) if p <= now_ps => {
                    self.next_periodic_ps =
                        p.saturating_add(self.period_ps.expect("periodic implies a period"));
                    self.apply(Action::Storm(None), now, lookup, prefetch, walk, obs);
                }
                _ => break,
            }
        }
    }

    /// Time (ps) of the earliest scheduled fault not yet applied, if any.
    pub(crate) fn next_due_ps(&self) -> Option<u64> {
        let explicit = self.schedule.get(self.next_event).map(|&(at, _)| at);
        let periodic = self.period_ps.map(|_| self.next_periodic_ps);
        explicit.into_iter().chain(periodic).min()
    }

    /// Applies one fault. Events with an out-of-range DID are skipped
    /// (plan validation reports them; skipping keeps fuzzed plans safe).
    fn apply<O: Observer>(
        &mut self,
        action: Action,
        now: SimTime,
        lookup: &mut LookupStage,
        prefetch: &mut PrefetchStage,
        walk: &mut WalkStage,
        obs: &mut O,
    ) {
        match action {
            Action::Storm(did) => {
                if did.is_some_and(|d| d.raw() >= self.tenants) {
                    return;
                }
                self.counters.inv_storms += 1;
                let (event_did, global) = (did.unwrap_or(Did::new(0)), did.is_none());
                if O::ENABLED {
                    obs.record(
                        now.as_ps(),
                        Event::InvStart {
                            did: event_did,
                            global,
                        },
                    );
                }
                match did {
                    Some(d) => {
                        lookup.invalidate_did(d);
                        prefetch.invalidate_did(d);
                        walk.invalidate_did(d);
                    }
                    None => {
                        lookup.invalidate_all();
                        prefetch.invalidate_all();
                        walk.invalidate_all();
                    }
                }
                if O::ENABLED {
                    obs.record(
                        now.as_ps(),
                        Event::InvDone {
                            did: event_did,
                            global,
                        },
                    );
                }
            }
            Action::Churn(did) => {
                if did.raw() >= self.tenants {
                    return;
                }
                self.counters.tenant_remaps += 1;
                let slab = self.tenants as u64 + self.migrations;
                self.migrations += 1;
                if O::ENABLED {
                    obs.record(now.as_ps(), Event::TenantRemap { did });
                }
                // The IOMMU rebuilds the tenant's tables at the new slab
                // and invalidates its own caches + context entry; the
                // device-side shootdown is ours.
                walk.migrate_tenant(did, slab);
                lookup.invalidate_did(did);
                prefetch.invalidate_did(did);
            }
        }
    }

    /// True when any of `packet`'s pages is currently not-present.
    ///
    /// The first touch of a not-present page raises a PRI-style page
    /// request (serviced `pri_latency` later); subsequent touches while
    /// the request is in flight only count as repeat faults. A touch at or
    /// after the service time maps the page back in.
    pub(crate) fn packet_blocked<O: Observer>(
        &mut self,
        packet: &TracePacket,
        now: SimTime,
        obs: &mut O,
    ) -> bool {
        if self.unmapped.is_empty() {
            return false;
        }
        packet
            .iovas
            .iter()
            .any(|&iova| self.page_blocked(packet.did, iova, now, obs))
    }

    fn page_blocked<O: Observer>(
        &mut self,
        did: Did,
        iova: GIova,
        now: SimTime,
        obs: &mut O,
    ) -> bool {
        let Some((key, _)) = self.unmapped_key(did, iova) else {
            return false;
        };
        match self.pri_pending.get(&key) {
            Some(&ready) if now.as_ps() >= ready => {
                // The page request was served: the page is present again.
                self.unmapped.remove(&key);
                self.pri_pending.remove(&key);
                false
            }
            Some(_) => {
                // Still in flight: a repeat fault on the same page.
                self.counters.page_faults += 1;
                if O::ENABLED {
                    obs.record(now.as_ps(), Event::PageFault { did, iova });
                }
                true
            }
            None => {
                self.counters.page_faults += 1;
                self.counters.pri_requests += 1;
                let ready = now + self.pri_latency;
                self.pri_pending.insert(key, ready.as_ps());
                if O::ENABLED {
                    obs.record(now.as_ps(), Event::PageFault { did, iova });
                    // Stamped at service time, like WalkDone: consumers
                    // bucket by the stamp.
                    obs.record(
                        ready.as_ps(),
                        Event::PageResponse {
                            did,
                            iova,
                            latency_ps: self.pri_latency.as_ps(),
                        },
                    );
                }
                true
            }
        }
    }

    /// True when `iova`'s page is currently not-present (no PRI side
    /// effects — used to keep the prefetcher from installing translations
    /// for pages the tenant cannot use).
    pub(crate) fn page_unmapped(&self, did: Did, iova: GIova) -> bool {
        self.unmapped_key(did, iova).is_some()
    }

    /// Resolves `iova` to its not-present overlay key, trying each page
    /// size the inventory can contain.
    fn unmapped_key(&self, did: Did, iova: GIova) -> Option<((u32, u64), PageSize)> {
        for size in [PageSize::Size4K, PageSize::Size2M, PageSize::Size1G] {
            let key = (did.raw(), iova.raw() & !size.offset_mask());
            if self.unmapped.get(&key) == Some(&size) {
                return Some((key, size));
            }
        }
        None
    }

    /// Retry delay in slots for a packet on its `retries`-th blocked slot.
    pub(crate) fn backoff_slots(&self, retries: u32) -> u64 {
        self.backoff.delay_slots(retries)
    }

    /// Retries before a blocked packet is terminally dropped.
    pub(crate) fn max_retries(&self) -> u32 {
        self.backoff.max_retries
    }

    /// End-of-run counters for the report.
    pub(crate) fn counters(&self) -> FaultCounters {
        self.counters
    }

    /// Appends the injector's mutable state for a run checkpoint: the
    /// schedule cursor, the periodic-storm horizon, the not-present page
    /// overlay and in-flight PRI requests (both in canonical sorted
    /// order), the migration counter, and the report counters. The
    /// schedule itself and the backoff/latency policy are recompiled from
    /// the plan at construction and are not captured.
    pub(crate) fn snapshot_words(&self, out: &mut Vec<u64>) {
        use hypersio_cache::WordCodec;
        out.push(self.next_event as u64);
        out.push(self.next_periodic_ps);
        let mut unmapped: Vec<_> = self.unmapped.iter().collect();
        unmapped.sort();
        out.push(unmapped.len() as u64);
        for (&(did, base), size) in unmapped {
            out.push(did as u64);
            out.push(base);
            size.encode_words(out);
        }
        let mut pending: Vec<_> = self.pri_pending.iter().collect();
        pending.sort();
        out.push(pending.len() as u64);
        for (&(did, base), &ready) in pending {
            out.push(did as u64);
            out.push(base);
            out.push(ready);
        }
        out.push(self.migrations);
        out.extend([
            self.counters.page_faults,
            self.counters.pri_requests,
            self.counters.inv_storms,
            self.counters.tenant_remaps,
        ]);
    }

    /// Restores the injector from a checkpoint stream. The cursor must lie
    /// within the compiled schedule and every overlay key must name a
    /// configured tenant; anything else is corruption.
    pub(crate) fn restore_words(&mut self, r: &mut hypersio_cache::WordReader<'_>) -> Option<()> {
        let next_event = usize::try_from(r.next()?).ok()?;
        if next_event > self.schedule.len() {
            return None;
        }
        self.next_event = next_event;
        self.next_periodic_ps = r.next()?;
        let n = r.len_capped(r.remaining() / 3)?;
        self.unmapped.clear();
        for _ in 0..n {
            let did = u32::try_from(r.next()?).ok()?;
            if did >= self.tenants {
                return None;
            }
            let base = r.next()?;
            let size = r.decode::<PageSize>()?;
            self.unmapped.insert((did, base), size);
        }
        let n = r.len_capped(r.remaining() / 3)?;
        self.pri_pending.clear();
        for _ in 0..n {
            let did = u32::try_from(r.next()?).ok()?;
            if did >= self.tenants {
                return None;
            }
            let base = r.next()?;
            let ready = r.next()?;
            self.pri_pending.insert((did, base), ready);
        }
        self.migrations = r.next()?;
        self.counters = FaultCounters {
            page_faults: r.next()?,
            pri_requests: r.next()?,
            inv_storms: r.next()?,
            tenant_remaps: r.next()?,
        };
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypersio_trace::WorkloadKind;

    fn inventory() -> PageInventory {
        WorkloadKind::Iperf3.params().page_inventory()
    }

    #[test]
    fn none_plan_is_none_and_valid() {
        assert!(FaultPlan::none().is_none());
        assert!(FaultPlan::none().validate().is_ok());
        assert!(!FaultPlan::none().with_fault_rate(0.1).is_none());
        assert!(!FaultPlan::none()
            .with_global_storm(SimTime::from_ps(10))
            .is_none());
        assert!(!FaultPlan::none()
            .with_churn(SimTime::from_ps(10), Did::new(0))
            .is_none());
        assert!(!FaultPlan::none()
            .with_storm_period(SimDuration::from_us(1))
            .is_none());
    }

    #[test]
    fn validation_rejects_bad_rates_and_periods() {
        assert!(FaultPlan::none().with_fault_rate(1.5).validate().is_err());
        assert!(FaultPlan::none().with_fault_rate(-0.1).validate().is_err());
        assert!(FaultPlan::none()
            .with_fault_rate(f64::NAN)
            .validate()
            .is_err());
        assert!(FaultPlan::none()
            .with_storm_period(SimDuration::ZERO)
            .validate()
            .is_err());
        assert!(FaultPlan::none().with_fault_rate(1.0).validate().is_ok());
        let max = SimDuration::from_us(MAX_PRI_LATENCY_US);
        assert!(FaultPlan::none().with_pri_latency(max).validate().is_ok());
        let over = SimDuration::from_ps(max.as_ps() + 1);
        assert!(FaultPlan::none().with_pri_latency(over).validate().is_err());
    }

    #[test]
    fn backoff_never_exceeds_cap_and_never_sleeps_zero() {
        let b = BackoffPolicy {
            base_slots: 2,
            cap_slots: 100,
            max_retries: 200,
        };
        let mut prev = 0;
        for retries in 0..200u32 {
            let d = b.delay_slots(retries);
            assert!(d >= 1, "retry {retries} slept zero slots");
            assert!(d <= 100, "retry {retries} exceeded the cap: {d}");
            assert!(d >= prev, "backoff must be monotone");
            prev = d;
        }
        assert_eq!(b.delay_slots(0), 2);
        assert_eq!(b.delay_slots(1), 4);
        assert_eq!(b.delay_slots(10), 100);
        // Degenerate policies stay safe.
        let zero = BackoffPolicy {
            base_slots: 0,
            cap_slots: 0,
            max_retries: 0,
        };
        assert_eq!(zero.delay_slots(0), 1);
        assert_eq!(zero.delay_slots(63), 1);
        assert_eq!(zero.delay_slots(64), 1);
    }

    #[test]
    fn page_selection_is_deterministic_per_seed() {
        let plan = FaultPlan::none().with_fault_rate(0.3).with_seed(42);
        let a = FaultInjector::new(&plan, &inventory(), 8);
        let b = FaultInjector::new(&plan, &inventory(), 8);
        assert_eq!(a.unmapped, b.unmapped);
        assert!(!a.unmapped.is_empty(), "rate 0.3 must mark some pages");
        let c = FaultInjector::new(&plan.clone().with_seed(43), &inventory(), 8);
        assert_ne!(a.unmapped, c.unmapped, "different seed, different pages");
    }

    #[test]
    fn fault_rate_one_marks_every_page() {
        let plan = FaultPlan::none().with_fault_rate(1.0);
        let inv = inventory();
        let inj = FaultInjector::new(&plan, &inv, 4);
        assert_eq!(inj.unmapped.len(), inv.len() * 4);
    }

    #[test]
    fn pri_round_trip_unblocks_the_page() {
        use hypersio_obs::NullObserver;
        let plan = FaultPlan::none()
            .with_fault_rate(1.0)
            .with_pri_latency(SimDuration::from_ns(100));
        let inv = inventory();
        let mut inj = FaultInjector::new(&plan, &inv, 1);
        let &(page, _, _) = inv.iter().next().expect("inventory is never empty");
        let did = Did::new(0);
        let t0 = SimTime::from_ps(1000);
        // First touch: blocked, one fault, one PRI.
        assert!(inj.page_blocked(did, page, t0, &mut NullObserver));
        assert_eq!(inj.counters().page_faults, 1);
        assert_eq!(inj.counters().pri_requests, 1);
        // Touch while in flight: blocked again, repeat fault, no new PRI.
        assert!(inj.page_blocked(did, page, t0 + SimDuration::from_ns(50), &mut NullObserver));
        assert_eq!(inj.counters().page_faults, 2);
        assert_eq!(inj.counters().pri_requests, 1);
        // Touch after service: unblocked, page mapped for good.
        let after = t0 + SimDuration::from_ns(100);
        assert!(!inj.page_blocked(did, page, after, &mut NullObserver));
        assert!(!inj.page_blocked(did, page, after, &mut NullObserver));
        assert!(!inj.page_unmapped(did, page));
    }

    #[test]
    fn zero_latency_pri_unblocks_on_the_next_touch() {
        use hypersio_obs::NullObserver;
        let plan = FaultPlan::none()
            .with_fault_rate(1.0)
            .with_pri_latency(SimDuration::ZERO);
        let inv = inventory();
        let mut inj = FaultInjector::new(&plan, &inv, 1);
        let &(page, _, _) = inv.iter().next().expect("inventory is never empty");
        let t = SimTime::from_ps(500);
        assert!(inj.page_blocked(Did::new(0), page, t, &mut NullObserver));
        assert!(!inj.page_blocked(Did::new(0), page, t, &mut NullObserver));
    }
}
