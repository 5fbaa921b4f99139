//! Timed-run equivalence of the batched pipeline.
//!
//! The stage-timing instrumentation of `Simulation::run_timed` is
//! behaviour-free: on seeded (SplitMix64-derived) packet streams at 128
//! tenants, for Base and prefetch-enabled HyperTRIO, its report equals the
//! untimed one. (Frame boundaries, the pipeline's other execution-layout
//! choice, are pinned by `crates/hypersio-sim/tests/checkpoint_resume.rs`:
//! interrupted-and-resumed event streams equal uninterrupted ones.)

use hypersio_sim::{SimParams, Simulation};
use hypersio_trace::{HyperTrace, HyperTraceBuilder, WorkloadKind};
use hypertrio_core::TranslationConfig;

const SEED: u64 = 0x9e37_79b9_7f4a_7c15; // the SplitMix64 increment

/// A seeded 128-tenant trace.
fn seeded_trace() -> HyperTrace {
    HyperTraceBuilder::new(WorkloadKind::Websearch, 128)
        .scale(2000)
        .seed(SEED)
        .build()
}

#[test]
fn timed_run_matches_untimed_run() {
    for config in [TranslationConfig::base(), TranslationConfig::hypertrio()] {
        let name = config.name.clone();
        let untimed = Simulation::new(config.clone(), SimParams::paper(), seeded_trace()).run();
        let (timed, stages) =
            Simulation::new(config, SimParams::paper(), seeded_trace()).run_timed();
        assert_eq!(
            timed, untimed,
            "{name}: timing instrumentation changed the run"
        );
        assert!(
            stages.total_ns() > 0,
            "{name}: instrumented run recorded no stage time"
        );
    }
}
