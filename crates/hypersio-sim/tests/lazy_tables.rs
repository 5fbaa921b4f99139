//! Differential equivalence of lazy, budget-evicted page tables.
//!
//! `SimParams::with_table_budget` swaps the eager dense [`SpacePool`] for
//! a lazy one that stamps a tenant's space (a view of the canonical
//! tables) on first touch and LRU-evicts residents past a cap derived from
//! the budget. Laziness changes no result: stamping is deterministic, so a
//! rebuilt space translates exactly as the evicted one did and **every
//! budget must produce bit-identical results to the eager run**. This suite pins that
//! contract at 128 and 1024 tenants for Base and HyperTRIO:
//!
//! 1. **Report equivalence**: an unbounded lazy pool and a one-resident
//!    (budget = 1 byte) pool both produce `SimReport`s equal to the
//!    eager run.
//! 2. **Event-stream equivalence**: the recorded JSONL event streams are
//!    byte-identical — emission *order*, not just totals, is invariant
//!    under lazy materialisation and eviction.
//! 3. **Re-touch correctness**: with a one-resident pool and round-robin
//!    interleaving, every tenant switch after the first round evicts the
//!    resident space and re-stamps the next from the canonical build
//!    (tenants × rounds rebuilds); the run still matches eagerly built
//!    tables exactly, so evicted state is provably reconstructed, not
//!    approximated.

use hypersio_sim::{RingRecorder, SimParams, Simulation};
use hypersio_trace::{HyperTrace, HyperTraceBuilder, WorkloadKind};
use hypertrio_core::TranslationConfig;

const SEED: u64 = 0x9e37_79b9_7f4a_7c15; // the SplitMix64 increment
const RING_CAPACITY: usize = 1 << 20;

/// Unbounded residency, then the harshest budget: one resident space.
const BUDGETS: [u64; 2] = [u64::MAX, 1];

fn configs() -> Vec<TranslationConfig> {
    vec![TranslationConfig::base(), TranslationConfig::hypertrio()]
}

/// A seeded trace; `scale` shrinks with tenant count so both scales run in
/// comparable time.
fn seeded_trace(tenants: u32) -> HyperTrace {
    HyperTraceBuilder::new(WorkloadKind::Websearch, tenants)
        .scale(2000 * tenants as u64 / 128)
        .seed(SEED)
        .build()
}

/// Runs one observed simulation, returning the report and the full
/// JSONL-encoded event stream.
fn run_recorded(
    config: &TranslationConfig,
    tenants: u32,
    table_budget: Option<u64>,
) -> (hypersio_sim::SimReport, Vec<u8>) {
    let mut params = SimParams::paper().with_warmup(200).with_per_tenant();
    if let Some(bytes) = table_budget {
        params = params.with_table_budget(bytes);
    }
    let mut ring = RingRecorder::new(RING_CAPACITY);
    let report = Simulation::new(config.clone(), params, seeded_trace(tenants)).run_with(&mut ring);
    let mut jsonl = Vec::new();
    ring.write_jsonl(&mut jsonl).expect("in-memory write");
    (report, jsonl)
}

fn assert_lazy_matches_eager(tenants: u32) {
    for config in configs() {
        let (eager_report, eager_events) = run_recorded(&config, tenants, None);
        for budget in BUDGETS {
            let (lazy_report, lazy_events) = run_recorded(&config, tenants, Some(budget));
            assert_eq!(
                lazy_report, eager_report,
                "{} @ {tenants} tenants, budget {budget}: report diverged from eager",
                config.name
            );
            assert_eq!(
                lazy_events, eager_events,
                "{} @ {tenants} tenants, budget {budget}: event stream diverged from eager",
                config.name
            );
        }
    }
}

#[test]
fn lazy_tables_match_eager_at_128_tenants() {
    assert_lazy_matches_eager(128);
}

#[test]
fn lazy_tables_match_eager_at_1024_tenants() {
    assert_lazy_matches_eager(1024);
}

/// The re-touch contract in isolation: a one-resident pool under RR1
/// round-robin evicts and re-stamps on every tenant switch — each of the
/// 128 tenants is rebuilt once per round for the whole run — yet the
/// report (including per-tenant rows, which would expose any
/// cross-tenant leakage of a mis-stamped table) equals the eager run's.
#[test]
fn one_resident_pool_rebuilds_evicted_tenants_exactly() {
    let config = TranslationConfig::hypertrio();
    let trace = seeded_trace(128);
    assert_eq!(
        trace.interleaving().to_string(),
        "RR1",
        "the test needs per-packet tenant switches to force churn"
    );
    let eager = Simulation::new(
        config.clone(),
        SimParams::paper().with_warmup(200).with_per_tenant(),
        seeded_trace(128),
    )
    .run();
    let lazy = Simulation::new(
        config,
        SimParams::paper()
            .with_warmup(200)
            .with_per_tenant()
            .with_table_budget(1),
        trace,
    )
    .run();
    assert_eq!(lazy, eager);
    let per_tenant = lazy.per_tenant.expect("per-tenant rows were requested");
    assert_eq!(per_tenant.tenants.len(), 128);
    assert!(
        per_tenant.tenants.iter().all(|t| t.packets > 0),
        "every tenant must have survived eviction churn with traffic intact"
    );
}
