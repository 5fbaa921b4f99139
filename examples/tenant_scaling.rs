//! Tenant scaling: a compact version of the paper's Fig 10.
//!
//! Sweeps the tenant count for both the Base and HyperTRIO designs across
//! all three workloads and prints the achieved-bandwidth series, showing
//! how the Base design collapses past ~16 tenants while HyperTRIO keeps
//! the link busy.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example tenant_scaling
//! ```
//!
//! Environment:
//! - `SCALE` (default 2000): trace shortening factor; lower = longer runs.
//! - `MAX_TENANTS` (default 256): largest tenant count in the sweep.

use hypertrio::core::TranslationConfig;
use hypertrio::sim::{sweep_specs_parallel, SweepSpec};
use hypertrio::trace::WorkloadKind;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let scale = env_u64("SCALE", 2000);
    let max_tenants = env_u64("MAX_TENANTS", 256) as u32;
    let counts: Vec<u32> = [4u32, 16, 64, 128, 256, 512, 1024]
        .into_iter()
        .filter(|&t| t <= max_tenants)
        .collect();

    println!("Tenant scaling (Fig 10 shape), scale={scale}");
    for workload in WorkloadKind::ALL {
        println!("\n== {workload} ==");
        println!(
            "{:>8} {:>14} {:>14}",
            "tenants", "Base Gb/s", "HyperTRIO Gb/s"
        );
        let base = SweepSpec::new(workload, TranslationConfig::base(), scale);
        let ht = SweepSpec::new(workload, TranslationConfig::hypertrio(), scale);
        let series = sweep_specs_parallel(&[base, ht], &counts, 1);
        for (b, h) in series[0].iter().zip(&series[1]) {
            println!(
                "{:>8} {:>14.2} {:>14.2}",
                b.tenants,
                b.report.gbps(),
                h.report.gbps()
            );
        }
    }
    println!("\nExpected shape: Base flat-lines at a small fraction of 200 Gb/s");
    println!("beyond ~32 tenants; HyperTRIO stays close to the full link.");
}
