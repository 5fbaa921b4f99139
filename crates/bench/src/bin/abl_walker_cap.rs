//! Ablation (beyond the paper's figures): limited IOMMU walker concurrency.
//!
//! The paper's performance model treats the IOMMU as fully pipelined; real
//! IOMMUs have a finite number of page-table walkers, so concurrent misses
//! queue. This ablation caps the walker pool at 1/2/4/8/16 (and unbounded)
//! for the HyperTRIO configuration at 256 tenants, showing how walker
//! queueing erodes the PTB's latency hiding — the related-work discussion
//! of highly-threaded GPU walkers (§VI) is exactly about this effect.
//!
//! Environment: `SCALE` (default 100), `TENANTS` (default 256),
//! `JOBS` (worker threads; default = available cores).

use hypersio_sim::{parallel_map, SimParams, SweepSpec};
use hypersio_trace::WorkloadKind;
use hypertrio_core::TranslationConfig;

fn main() {
    let scale = bench::env_u64("SCALE", 100);
    let tenants = bench::env_u64("TENANTS", 256) as u32;
    let jobs = bench::jobs();
    bench::banner(
        "Ablation — IOMMU page-table walker concurrency",
        &format!("iperf3, {tenants} tenants, HyperTRIO config, scale={scale}, jobs={jobs}"),
    );

    println!("{:>10} {:>14} {:>12}", "walkers", "Gb/s", "util %");
    let caps = [Some(1usize), Some(2), Some(4), Some(8), Some(16), None];
    let reports = parallel_map(&caps, jobs, |&walkers| {
        let mut params = SimParams::paper().with_warmup(2000);
        if let Some(w) = walkers {
            params = params.with_iommu_walkers(w);
        }
        SweepSpec::new(WorkloadKind::Iperf3, TranslationConfig::hypertrio(), scale)
            .with_params(params)
            .simulation(tenants)
            .run()
    });
    for (walkers, report) in caps.into_iter().zip(reports) {
        let label = walkers.map_or("inf".to_string(), |w| w.to_string());
        println!(
            "{label:>10} {:>14.2} {:>11.1}%",
            report.gbps(),
            report.utilization * 100.0
        );
    }
    println!();
    println!("Expected: a single walker serialises every miss and prefetch and");
    println!("collapses throughput; a handful of walkers recovers most of the");
    println!("fully-pipelined bandwidth because the PTB bounds the outstanding");
    println!("misses anyway.");
}
