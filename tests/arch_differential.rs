//! Differential guard for the `WalkGeometry` refactor.
//!
//! The fixtures under `tests/fixtures/` are `sim_report/v1` documents
//! captured by the *pre-refactor* CLI (when the walker was hard-wired to
//! x86 4-level nested paging). The default geometry must keep reproducing
//! them byte-for-byte, and the RISC-V geometries must be deterministic
//! across repeated runs.

use hypertrio::core::TranslationConfig;
use hypertrio::sim::{run_sharded, SimParams, Simulation, WalkGeometry};
use hypertrio::trace::{HyperTraceBuilder, Interleaving, WorkloadKind};

fn trace(kind: WorkloadKind, tenants: u32, scale: u64, seed: u64) -> hypertrio::trace::HyperTrace {
    // Mirrors the CLI's trace_builder: RR1 interleaving is the default.
    HyperTraceBuilder::new(kind, tenants)
        .interleaving(Interleaving::round_robin(1))
        .scale(scale)
        .seed(seed)
        .build()
}

/// `sim --workload iperf3 --tenants 8 --scale 100 --seed 3` (defaults:
/// HyperTRIO config, warmup 1000) must still produce the pre-refactor
/// report byte-for-byte under the default geometry.
#[test]
fn default_geometry_reproduces_pre_refactor_hypertrio_report() {
    let report = Simulation::new(
        TranslationConfig::hypertrio(),
        SimParams::paper().with_warmup(1000),
        trace(WorkloadKind::Iperf3, 8, 100, 3),
    )
    .run();
    assert_eq!(
        report.to_json(),
        include_str!("fixtures/pre_default_report.json"),
        "default (x86-4) run diverged from the pre-refactor capture"
    );
}

/// `sim --workload websearch --tenants 16 --scale 200 --config base`
/// (seed 0, warmup 1000) pinned the Base design the same way.
#[test]
fn default_geometry_reproduces_pre_refactor_base_report() {
    let report = Simulation::new(
        TranslationConfig::base(),
        SimParams::paper().with_warmup(1000),
        trace(WorkloadKind::Websearch, 16, 200, 0),
    )
    .run();
    assert_eq!(
        report.to_json(),
        include_str!("fixtures/pre_base_report.json"),
        "default (x86-4) Base run diverged from the pre-refactor capture"
    );
}

/// Explicit `with_arch(X86Nested4)` is the same thing as the default.
#[test]
fn explicit_x86_4_equals_default() {
    let run = |params: SimParams| {
        Simulation::new(
            TranslationConfig::hypertrio(),
            params.with_warmup(1000),
            trace(WorkloadKind::Iperf3, 8, 100, 3),
        )
        .run()
        .to_json()
    };
    assert_eq!(
        run(SimParams::paper()),
        run(SimParams::paper().with_arch(WalkGeometry::X86Nested4))
    );
}

/// Every geometry runs deterministically: two identical invocations give
/// byte-identical reports, and shallower walks never cost more DRAM.
#[test]
fn all_geometries_run_deterministically() {
    let mut dram = Vec::new();
    for g in WalkGeometry::ALL {
        let run = || {
            Simulation::new(
                TranslationConfig::hypertrio(),
                SimParams::paper().with_arch(g).with_warmup(500),
                trace(WorkloadKind::Iperf3, 16, 100, 7),
            )
            .run()
        };
        let a = run();
        let b = run();
        assert_eq!(a.to_json(), b.to_json(), "{g} not deterministic");
        dram.push((g, a.iommu.dram_accesses));
    }
    let get = |g: WalkGeometry| dram.iter().find(|(x, _)| *x == g).unwrap().1;
    // Deeper tables can only add accesses: sv39x4 <= x86-4 <= x86-5.
    assert!(get(WalkGeometry::RiscvSv39x4) <= get(WalkGeometry::X86Nested4));
    assert!(get(WalkGeometry::X86Nested4) <= get(WalkGeometry::X86Nested5));
}

/// Sharded RISC-V runs merge deterministically: the merged report is
/// bit-identical for every `--jobs` value.
#[test]
fn riscv_sharded_runs_are_jobs_invariant() {
    for g in [WalkGeometry::RiscvSv39x4, WalkGeometry::RiscvSv48x4] {
        let builder = HyperTraceBuilder::new(WorkloadKind::Iperf3, 32)
            .interleaving(Interleaving::round_robin(1))
            .scale(100)
            .seed(11);
        let config = TranslationConfig::hypertrio();
        let params = SimParams::paper().with_arch(g).with_warmup(200);
        let run = |jobs| {
            run_sharded(&config, &params, &builder, 4, jobs, None, None)
                .expect("valid sharded run")
                .0
        };
        assert_eq!(
            run(1).to_json(),
            run(4).to_json(),
            "{g} sharded merge depends on --jobs"
        );
    }
}
