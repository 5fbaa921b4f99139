//! Fig 5: cumulative I/O bandwidth for native vs virtualised (VF)
//! interfaces as the number of concurrent connections grows.
//!
//! The paper measured this on a real Intel host with a 10 Gb/s X540 NIC;
//! we reproduce it in simulation (DESIGN.md §2). The virtualised series
//! uses the Base translation configuration (64-entry DevTLB, one
//! outstanding translation); the native series bypasses translation
//! entirely. The paper's single-connection CPU bottleneck (8.7 of
//! 9.49 Gb/s) is a host-software effect outside this model and is noted in
//! EXPERIMENTS.md.
//!
//! Expected shape: native stays at the line rate for any connection
//! count; the VF series holds the link up to ~8 pairs, then collapses to a
//! small fraction as DevTLB thrashing sets in.
//!
//! Environment: `SCALE` (default 500).

use hypersio_sim::{SimParams, SweepSpec};
use hypersio_trace::WorkloadKind;
use hypertrio_core::TranslationConfig;

fn main() {
    let scale = bench::env_u64("SCALE", 500);
    bench::banner(
        "Fig 5 — native vs VF cumulative bandwidth, 10 Gb/s link (simulated)",
        &format!("iperf3 tenants, Base translation config for the VF series, scale={scale}"),
    );
    let vf = SweepSpec::new(WorkloadKind::Iperf3, TranslationConfig::base(), scale)
        .with_params(SimParams::paper_10g());
    let native = SweepSpec::new(
        WorkloadKind::Iperf3,
        TranslationConfig::base().with_name("native"),
        scale,
    )
    .with_params(SimParams::paper_10g().native());

    bench::print_header("pairs", &["native Gb/s", "VF Gb/s"]);
    for tenants in [1u32, 2, 4, 8, 12, 16, 24, 32] {
        let n = native.simulation(tenants).run();
        let v = vf.simulation(tenants).run();
        bench::print_row(tenants, &[n.gbps(), v.gbps()]);
    }
    println!();
    println!("Paper: both series saturate the link for 2-8 pairs; beyond 8");
    println!("pairs the VF series decays, flattening near 0.5 Gb/s past 16,");
    println!("while the native series is unaffected.");
}
