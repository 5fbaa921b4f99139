//! Ablation (beyond the paper's figures): link bandwidth scaling.
//!
//! The paper's introduction motivates HyperTRIO with the move from 100 to
//! 200 and 400 Gb/s Ethernet. This ablation runs the 256-tenant iperf3
//! workload at 50/100/200/400 Gb/s and reports the *absolute* and
//! *fractional* bandwidth each design sustains: the Base design's absolute
//! plateau barely moves with link speed (it is translation-bound), while
//! HyperTRIO tracks the link until the PTB's latency-hiding budget runs
//! out — quantifying the paper's claim that translation, not the link, is
//! the bottleneck.
//!
//! Environment: `SCALE` (default 100), `TENANTS` (default 256),
//! `JOBS` (worker threads; default = available cores).

use hypersio_device::{Link, PacketSpec};
use hypersio_sim::{parallel_map, SimParams, SweepSpec};
use hypersio_trace::WorkloadKind;
use hypersio_types::Bandwidth;
use hypertrio_core::TranslationConfig;

fn main() {
    let scale = bench::env_u64("SCALE", 100);
    let tenants = bench::env_u64("TENANTS", 256) as u32;
    let jobs = bench::jobs();
    bench::banner(
        "Ablation — link bandwidth scaling (translation-bound vs link-bound)",
        &format!("iperf3, {tenants} tenants, scale={scale}, jobs={jobs}"),
    );

    println!(
        "{:>10} {:>14} {:>12} {:>14} {:>12}",
        "link Gb/s", "Base Gb/s", "Base %", "HyperTRIO Gb/s", "HT %"
    );
    // Flatten (link speed × design) onto one pool: 8 independent runs.
    let speeds = [50u64, 100, 200, 400];
    let grid: Vec<(u64, bool)> = speeds
        .iter()
        .flat_map(|&g| [(g, false), (g, true)])
        .collect();
    let cells = parallel_map(&grid, jobs, |&(gbps, hypertrio)| {
        let link = Link::new(Bandwidth::from_gbps(gbps), PacketSpec::ethernet());
        let params = SimParams::paper().with_link(link).with_warmup(2000);
        let config = if hypertrio {
            TranslationConfig::hypertrio()
        } else {
            TranslationConfig::base()
        };
        SweepSpec::new(WorkloadKind::Iperf3, config, scale)
            .with_params(params)
            .simulation(tenants)
            .run()
    });
    for (i, &gbps) in speeds.iter().enumerate() {
        let (base, ht) = (&cells[2 * i], &cells[2 * i + 1]);
        println!(
            "{:>10} {:>14.2} {:>11.1}% {:>14.2} {:>11.1}%",
            gbps,
            base.gbps(),
            base.utilization * 100.0,
            ht.gbps(),
            ht.utilization * 100.0
        );
    }
    println!();
    println!("Expected: the Base plateau is nearly flat in absolute Gb/s (each");
    println!("packet's translations serialise on one PTB entry), so its link");
    println!("fraction halves every doubling; HyperTRIO sustains a high");
    println!("fraction until the 32-entry PTB can no longer cover the");
    println!("bandwidth-delay product of the walk path.");
}
