//! Fig 10: scalability of I/O bandwidth for the HyperTRIO and Base
//! designs — the paper's headline result.
//!
//! Sweeps tenant counts (4 … 1024) for all three benchmarks under the
//! three interleavings the paper evaluates (RR1, RR4, RAND1), printing one
//! Base and one HyperTRIO series per combination.
//!
//! Expected shape: the Base design does not scale for any interleaving —
//! past ~32 tenants it sits at a small fraction of the 200 Gb/s link —
//! while HyperTRIO stays near the full link for RR interleavings and
//! reaches ~80 % even under the least predictable RAND1 order.
//!
//! Environment: `SCALE` (default 200), `MAX_TENANTS` (default 1024),
//! `JOBS` (worker threads; default = available cores). Set
//! `TIMESERIES_OUT=<path.csv>` to additionally re-run the HyperTRIO
//! websearch/RR1 point at the largest tenant count with the windowed
//! time-series sampler attached and write the per-window CSV there (the
//! table on stdout is unaffected; `WINDOW_US` sets the window, default 10).

use hypersio_sim::{sweep_specs_parallel, SimParams, SweepSpec, TimeSeriesSampler};
use hypersio_trace::{Interleaving, WorkloadKind};
use hypertrio_core::TranslationConfig;

fn main() {
    let scale = bench::env_u64("SCALE", 200);
    let max_tenants = bench::env_u64("MAX_TENANTS", 1024) as u32;
    let jobs = bench::jobs();
    let counts = bench::tenant_axis(max_tenants);
    bench::banner(
        "Fig 10 — scalability of I/O bandwidth, Base vs HyperTRIO",
        &format!("200 Gb/s link, tenants 4..{max_tenants}, scale={scale}, jobs={jobs}"),
    );

    let interleavings = [
        Interleaving::round_robin(1),
        Interleaving::round_robin(4),
        Interleaving::random(1, 1234),
    ];

    for workload in WorkloadKind::ALL {
        for inter in interleavings {
            println!("\n== {workload} / {inter} ==");
            let params = SimParams::paper().with_warmup(2000);
            let base = SweepSpec::new(workload, TranslationConfig::base(), scale)
                .with_interleaving(inter)
                .with_params(params.clone());
            let ht = SweepSpec::new(workload, TranslationConfig::hypertrio(), scale)
                .with_interleaving(inter)
                .with_params(params);
            bench::print_header("tenants", &["Base Gb/s", "HyperTRIO Gb/s", "HT util %"]);
            let series = sweep_specs_parallel(&[base, ht], &counts, jobs);
            for (b, h) in series[0].iter().zip(&series[1]) {
                bench::print_row(
                    b.tenants,
                    &[
                        b.report.gbps(),
                        h.report.gbps(),
                        h.report.utilization * 100.0,
                    ],
                );
            }
        }
    }
    println!();
    println!("Paper: Base is 12-30 Gb/s (<=15%) beyond 32 tenants for every");
    println!("interleaving; HyperTRIO uses up to 100% of the link at 1024");
    println!("tenants for RR and up to ~80% for RAND1.");

    if let Ok(path) = std::env::var("TIMESERIES_OUT") {
        let window_us = bench::env_u64("WINDOW_US", 10);
        let tenants = *counts.last().expect("tenant axis is non-empty");
        let config = TranslationConfig::hypertrio();
        let params = SimParams::paper().with_warmup(2000);
        let mut series = TimeSeriesSampler::new(
            window_us * 1_000_000,
            params.link.bytes_delivered(1).raw(),
            params.link.bandwidth().gbps(),
            config.ptb_entries as u64,
        );
        let spec = SweepSpec::new(WorkloadKind::Websearch, config, scale).with_params(params);
        spec.simulation(tenants).run_with(&mut series);
        if let Err(err) = std::fs::write(&path, series.to_csv()) {
            eprintln!("error: cannot write {path}: {err}");
            std::process::exit(1);
        }
        eprintln!(
            "wrote {}-window time series for websearch/RR1 @ {tenants} tenants to {path}",
            series.rows().len()
        );
    }
}
