//! Fault-injection guarantees, end to end.
//!
//! Three properties anchor the subsystem:
//!
//! 1. **Differential identity** — with [`FaultPlan::none()`] the pipeline
//!    is the exact same machine as one built without fault injection:
//!    every field of the [`SimReport`] matches, at small and large tenant
//!    counts.
//! 2. **Observable degradation** — invalidation storms and IO page faults
//!    actually cost bandwidth, emit their events, and recover: every
//!    packet still terminates (processed or terminally fault-dropped).
//! 3. **No livelock, no panic** — randomized plans (overlapping storms,
//!    churn during PRI service, zero and extreme latencies) always run to
//!    completion with the packet-conservation invariant intact.

use hypersio_obs::{CountingObserver, EventKind};
use hypersio_sim::{BackoffPolicy, FaultPlan, SimParams, SimReport, Simulation};
use hypersio_trace::{HyperTrace, HyperTraceBuilder, Interleaving, WorkloadKind};
use hypersio_types::{Did, SimDuration, SimTime, SplitMix64};
use hypertrio_core::TranslationConfig;

fn trace(tenants: u32, scale: u64, seed: u64) -> HyperTrace {
    HyperTraceBuilder::new(WorkloadKind::Iperf3, tenants)
        .interleaving(Interleaving::round_robin(1))
        .scale(scale)
        .seed(seed)
        .build()
}

/// Total packets a trace will yield (drains a clone).
fn trace_packets(t: &HyperTrace) -> u64 {
    let mut clone = t.clone();
    let mut n = 0u64;
    while clone.next().is_some() {
        n += 1;
    }
    n
}

fn run_with_plan(config: TranslationConfig, t: HyperTrace, plan: FaultPlan) -> SimReport {
    Simulation::new(config, SimParams::paper().with_fault_plan(plan), t).run()
}

/// The conservation invariant: every trace packet either completes or is
/// terminally fault-dropped — nothing is lost and nothing loops forever.
fn assert_conserved(report: &SimReport, total: u64, label: &str) {
    assert_eq!(
        report.packets_processed + report.faulted_drops,
        total,
        "{label}: processed + faulted_drops must equal the trace packet count"
    );
}

#[test]
fn none_plan_is_bit_identical_at_128_tenants() {
    let t = trace(128, 200, 7);
    let plain = Simulation::new(
        TranslationConfig::hypertrio(),
        SimParams::paper(),
        t.clone(),
    )
    .run();
    let with_none = run_with_plan(TranslationConfig::hypertrio(), t, FaultPlan::none());
    assert_eq!(plain, with_none, "FaultPlan::none() must be a no-op");
}

#[test]
fn none_plan_is_bit_identical_at_1024_tenants() {
    let t = trace(1024, 20, 7);
    let plain = Simulation::new(TranslationConfig::base(), SimParams::paper(), t.clone()).run();
    let with_none = run_with_plan(TranslationConfig::base(), t, FaultPlan::none());
    assert_eq!(plain, with_none, "FaultPlan::none() must be a no-op");
}

#[test]
fn storms_emit_events_and_cost_bandwidth() {
    let t = trace(64, 400, 3);
    let total = trace_packets(&t);
    let baseline = Simulation::new(
        TranslationConfig::hypertrio(),
        SimParams::paper(),
        t.clone(),
    )
    .run();

    // A global shootdown every 20 µs: hot DevTLB/PB/walk-cache state is
    // repeatedly destroyed and must be re-walked.
    let plan = FaultPlan::none().with_storm_period(SimDuration::from_us(20));
    let mut obs = CountingObserver::new();
    let stormy = Simulation::new(
        TranslationConfig::hypertrio(),
        SimParams::paper().with_fault_plan(plan),
        t,
    )
    .run_with(&mut obs);

    assert!(stormy.inv_storms > 5, "periodic storms must fire: {stormy}");
    assert_eq!(obs.count(EventKind::InvStart), stormy.inv_storms);
    assert_eq!(obs.count(EventKind::InvDone), stormy.inv_storms);
    assert!(
        stormy.utilization < baseline.utilization,
        "storms must cost bandwidth: {:.3} vs {:.3}",
        stormy.utilization,
        baseline.utilization
    );
    // Storms alone never unmap pages: everything still completes.
    assert_eq!(stormy.faulted_drops, 0);
    assert_conserved(&stormy, total, "storm run");
}

#[test]
fn targeted_storm_only_invalidates_its_tenant() {
    let t = trace(8, 400, 3);
    let total = trace_packets(&t);
    let plan = FaultPlan::none()
        .with_storm(SimTime::ZERO + SimDuration::from_us(10), Did::new(3))
        .with_storm(SimTime::ZERO + SimDuration::from_us(20), Did::new(3));
    let report = run_with_plan(TranslationConfig::hypertrio(), t, plan);
    assert_eq!(report.inv_storms, 2);
    assert_conserved(&report, total, "targeted storm");
}

#[test]
fn tenant_churn_forces_rewalks_but_conserves_packets() {
    let t = trace(16, 400, 9);
    let total = trace_packets(&t);
    let baseline = Simulation::new(
        TranslationConfig::hypertrio(),
        SimParams::paper(),
        t.clone(),
    )
    .run();
    let mut plan = FaultPlan::none();
    for i in 0..8u64 {
        plan = plan.with_churn(
            SimTime::ZERO + SimDuration::from_us(5 + 5 * i),
            Did::new((i % 16) as u32),
        );
    }
    let mut obs = CountingObserver::new();
    let churned = Simulation::new(
        TranslationConfig::hypertrio(),
        SimParams::paper().with_fault_plan(plan),
        t,
    )
    .run_with(&mut obs);
    assert_eq!(churned.tenant_remaps, 8);
    assert_eq!(obs.count(EventKind::TenantRemap), 8);
    // Migration moves the host slab and kills cached state: strictly more DRAM
    // traffic than the undisturbed run.
    assert!(
        churned.iommu.dram_accesses > baseline.iommu.dram_accesses,
        "churn must force re-walks: {} vs {}",
        churned.iommu.dram_accesses,
        baseline.iommu.dram_accesses
    );
    assert_conserved(&churned, total, "churn run");
}

#[test]
fn page_faults_raise_pri_and_eventually_complete() {
    let t = trace(16, 200, 5);
    let total = trace_packets(&t);
    let plan = FaultPlan::none()
        .with_fault_rate(0.05)
        .with_pri_latency(SimDuration::from_us(2))
        .with_seed(42);
    let mut obs = CountingObserver::new();
    let report = Simulation::new(
        TranslationConfig::hypertrio(),
        SimParams::paper().with_fault_plan(plan),
        t,
    )
    .run_with(&mut obs);
    assert!(report.page_faults > 0, "5% unmapped must fault: {report}");
    assert!(report.pri_requests > 0);
    assert!(report.pri_requests <= report.page_faults);
    assert_eq!(obs.count(EventKind::PageFault), report.page_faults);
    assert_eq!(obs.count(EventKind::PageResponse), report.pri_requests);
    assert_eq!(obs.count(EventKind::FaultedDrop), report.faulted_drops);
    assert_conserved(&report, total, "pri run");
}

#[test]
fn exhausted_retries_become_terminal_faulted_drops() {
    // PRI latency far beyond what the backoff budget can wait out: every
    // faulting packet must terminally drop instead of spinning forever.
    let t = trace(8, 100, 5);
    let total = trace_packets(&t);
    let plan = FaultPlan::none()
        .with_fault_rate(0.2)
        .with_pri_latency(SimDuration::from_us(100_000))
        .with_backoff(BackoffPolicy {
            base_slots: 1,
            cap_slots: 4,
            max_retries: 3,
        })
        .with_seed(11);
    let report = run_with_plan(TranslationConfig::hypertrio(), t, plan);
    assert!(
        report.faulted_drops > 0,
        "unserviceable faults must terminally drop: {report}"
    );
    assert_conserved(&report, total, "terminal drop run");
}

#[test]
fn fault_runs_are_deterministic_given_the_plan() {
    let plan = FaultPlan::none()
        .with_storm_period(SimDuration::from_us(50))
        .with_fault_rate(0.03)
        .with_churn(SimTime::ZERO + SimDuration::from_us(30), Did::new(2))
        .with_seed(77);
    let a = run_with_plan(
        TranslationConfig::hypertrio(),
        trace(32, 200, 1),
        plan.clone(),
    );
    let b = run_with_plan(TranslationConfig::hypertrio(), trace(32, 200, 1), plan);
    assert_eq!(
        a, b,
        "same plan + same trace must reproduce bit-identically"
    );
}

/// Seeded pseudo-fuzz: randomized plans must never panic, never livelock,
/// and always conserve packets. Covers overlapping storms, churn during
/// PRI service, zero and extreme latencies, and degenerate backoff.
#[test]
fn randomized_plans_never_panic_or_livelock() {
    let mut rng = SplitMix64::new(0xFAB7_5EED);
    for round in 0..12 {
        let tenants = [2u32, 8, 32][rng.index(3)];
        let t = trace(tenants, 60 + rng.below(100), rng.next_u64());
        let total = trace_packets(&t);

        let mut plan = FaultPlan::none()
            .with_seed(rng.next_u64())
            .with_fault_rate([0.0, 0.01, 0.1, 0.5][rng.index(4)])
            .with_pri_latency(SimDuration::from_ps(
                [0u64, 1, 1_000_000, 10_000_000_000][rng.index(4)],
            ))
            .with_backoff(BackoffPolicy {
                base_slots: 1 + rng.below(4),
                cap_slots: 1 + rng.below(128),
                max_retries: rng.below(6) as u32,
            });
        if rng.below(2) == 0 {
            plan = plan.with_storm_period(SimDuration::from_us(1 + rng.below(40)));
        }
        for _ in 0..rng.below(4) {
            let at = SimTime::ZERO + SimDuration::from_us(rng.below(100));
            // Deliberately allow out-of-range DIDs: the injector must skip
            // them, not panic.
            let did = Did::new(rng.below(2 * tenants as u64) as u32);
            plan = if rng.below(2) == 0 {
                plan.with_storm(at, did)
            } else {
                plan.with_global_storm(at)
            };
        }
        for _ in 0..rng.below(4) {
            let at = SimTime::ZERO + SimDuration::from_us(rng.below(100));
            let did = Did::new(rng.below(2 * tenants as u64) as u32);
            plan = plan.with_churn(at, did);
        }
        plan.validate().expect("generated plans are well-formed");

        let config = if rng.below(2) == 0 {
            TranslationConfig::hypertrio()
        } else {
            TranslationConfig::base()
        };
        let report = run_with_plan(config, t, plan);
        assert_conserved(&report, total, &format!("fuzz round {round}"));
    }
}

/// Runs `plan` on a 16-tenant HyperTRIO trace on a worker thread and
/// returns the report, failing instead of hanging if the run does not end
/// within a minute.
fn run_with_deadline(plan: FaultPlan) -> (SimReport, u64) {
    let t = trace(16, 400, 0);
    let total = trace_packets(&t);
    let (done, report) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = done.send(run_with_plan(TranslationConfig::hypertrio(), t, plan));
    });
    let report = report
        .recv_timeout(std::time::Duration::from_secs(60))
        .expect("the run must finish: idle slots are skipped, not stepped");
    (report, total)
}

#[test]
fn backoffs_past_the_clock_horizon_drop_terminally() {
    // A backoff of 2^53 - 1 slots, which plan validation accepts, is
    // longer than the picosecond clock can represent: every blocked packet
    // is a terminal drop instead of a wait the run could never finish.
    let plan = FaultPlan::from_json(
        r#"{"schema":"fault_plan/v1","fault_rate":0.5,"backoff":{"base_slots":9007199254740991,"cap_slots":9007199254740991}}"#,
    )
    .expect("the plan validates");
    let (report, total) = run_with_deadline(plan);
    assert!(report.faulted_drops > 0, "{report}");
    assert_conserved(&report, total, "horizon run");
}

#[test]
fn long_backoffs_after_trace_exhaustion_skip_the_idle_slots() {
    // 2^40 slots per retry fits the clock; once the trace is exhausted
    // the run jumps from one retry to the next instead of stepping ~10^13
    // idle slots.
    let plan = FaultPlan::none()
        .with_fault_rate(0.5)
        .with_backoff(BackoffPolicy {
            base_slots: 1 << 40,
            cap_slots: 1 << 40,
            max_retries: 3,
        })
        .with_seed(4);
    plan.validate().expect("well-formed plan");
    let (report, total) = run_with_deadline(plan);
    assert_conserved(&report, total, "long backoff run");
    assert!(report.packets_processed > 0, "{report}");
    let slot_ps = SimParams::paper().link.inter_arrival().as_ps();
    assert!(
        report.elapsed.as_ps() >= (1u64 << 40) * slot_ps,
        "the retries waited out their backoff: {report}"
    );
}
