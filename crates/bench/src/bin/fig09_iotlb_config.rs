//! Fig 9: modeled I/O bandwidth depending on the device translation-cache
//! (IOTLB/DevTLB) configuration and the number of concurrent connections.
//!
//! This is the paper's §IV-D motivating simulation: a Base design with the
//! 64-entry, 8-way set-associative DevTLB (matching the IOTLB entry count
//! of Intel's design) on a 200 Gb/s link. We additionally plot a
//! fully-associative variant of the same capacity to show that the set
//! conflicts, not just capacity, drive the collapse.
//!
//! Expected shape: full bandwidth for a handful of connections, falling
//! sharply once more than ~4 concurrent tenants start evicting each
//! other's entries, mirroring the measured Fig 5 curve.
//!
//! Environment: `SCALE` (default 200), `MAX_TENANTS` (default 256).

use hypersio_cache::CacheGeometry;
use hypersio_sim::{sweep_specs_parallel, SimParams, SweepSpec};
use hypersio_trace::WorkloadKind;
use hypertrio_core::TranslationConfig;

fn main() {
    let scale = bench::env_u64("SCALE", 200);
    let max_tenants = bench::env_u64("MAX_TENANTS", 256) as u32;
    let counts: Vec<u32> = [1u32, 2, 4, 8, 16, 32, 64, 128, 256]
        .into_iter()
        .filter(|&t| t <= max_tenants)
        .collect();
    bench::banner(
        "Fig 9 — modeled bandwidth vs DevTLB configuration and connections",
        &format!("iperf3, 200 Gb/s link, scale={scale}"),
    );

    let params = SimParams::paper().with_warmup(1000);
    let sa = SweepSpec::new(
        WorkloadKind::Iperf3,
        TranslationConfig::base().with_name("64e 8-way"),
        scale,
    )
    .with_params(params.clone());
    let fa = SweepSpec::new(
        WorkloadKind::Iperf3,
        TranslationConfig::base()
            .with_devtlb_geometry(CacheGeometry::fully_associative(64))
            .with_name("64e fully-assoc"),
        scale,
    )
    .with_params(params);

    bench::print_header("conns", &["64e/8w Gb/s", "64e/FA Gb/s"]);
    let series = sweep_specs_parallel(&[sa, fa], &counts, bench::jobs());
    for (a, b) in series[0].iter().zip(&series[1]) {
        bench::print_row(a.tenants, &[a.report.gbps(), b.report.gbps()]);
    }
    println!();
    println!("Paper: maximum achievable bandwidth falls with connection count");
    println!("just as in the measured Fig 5; for an 8-way DevTLB more than 4");
    println!("concurrent connections start evicting each other's entries.");
}
