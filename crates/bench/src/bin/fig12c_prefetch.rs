//! Fig 12c: improvement from the Translation Prefetching Scheme over the
//! design with only the PTB and partitioned caches.
//!
//! The baseline is the Fig 12b configuration (partitions + 32-entry PTB);
//! the comparison adds the Prefetch Unit (8-entry buffer, 48-access
//! history, 2 pages per tenant). Also reports the fraction of requests
//! served from the Prefetch Buffer (paper: ~45 % for websearch at 1024
//! tenants).
//!
//! Expected shape: prefetching widens the gap as the tenant count grows
//! (paper: up to +30 % for websearch), because the prefetcher's state
//! (buffer + history length) does not have to grow with the tenant count.
//!
//! Environment: `SCALE` (default 200), `MAX_TENANTS` (default 1024),
//! `JOBS` (worker threads; default = available cores). Set
//! `TRACE_OUT=<path.jsonl>` to additionally re-run the with-prefetch
//! websearch point at the largest tenant count with a ring recorder
//! attached and dump the event trace as JSONL there (the table on stdout
//! is unaffected; `TRACE_CAP` bounds retained events, default 65536).

use hypersio_sim::{sweep_specs_parallel, RingRecorder, SimParams, SweepSpec};
use hypersio_trace::WorkloadKind;
use hypertrio_core::TranslationConfig;

fn main() {
    let scale = bench::env_u64("SCALE", 200);
    let max_tenants = bench::env_u64("MAX_TENANTS", 1024) as u32;
    let jobs = bench::jobs();
    let counts = bench::tenant_axis(max_tenants);
    bench::banner(
        "Fig 12c — translation prefetching vs PTB+partitioning alone",
        &format!("scale={scale}, jobs={jobs}"),
    );

    for workload in WorkloadKind::ALL {
        println!("\n== {workload} ==");
        bench::print_header(
            "tenants",
            &["no-PF Gb/s", "with-PF Gb/s", "gain %", "PB served %"],
        );
        let params = SimParams::paper().with_warmup(2000);
        let no_pf = SweepSpec::new(
            workload,
            TranslationConfig::hypertrio()
                .without_prefetch()
                .with_name("PTB+Part"),
            scale,
        )
        .with_params(params.clone());
        let with_pf =
            SweepSpec::new(workload, TranslationConfig::hypertrio(), scale).with_params(params);
        let series = sweep_specs_parallel(&[no_pf, with_pf], &counts, jobs);
        for (x, y) in series[0].iter().zip(&series[1]) {
            let gain = if x.report.gbps() > 0.0 {
                (y.report.gbps() / x.report.gbps() - 1.0) * 100.0
            } else {
                0.0
            };
            bench::print_row(
                x.tenants,
                &[
                    x.report.gbps(),
                    y.report.gbps(),
                    gain,
                    y.report.pb_served_fraction * 100.0,
                ],
            );
        }
    }
    println!();
    println!("Paper: up to +30% for websearch in hyper-tenant configurations,");
    println!("with the Prefetch Buffer supplying a valid translation for ~45%");
    println!("of requests at 1024 tenants; prefetching scales better than");
    println!("simply enlarging the PTB.");

    if let Ok(path) = std::env::var("TRACE_OUT") {
        let cap = bench::env_u64("TRACE_CAP", 65536) as usize;
        let tenants = *counts.last().expect("tenant axis is non-empty");
        let mut ring = RingRecorder::new(cap);
        let spec = SweepSpec::new(
            WorkloadKind::Websearch,
            TranslationConfig::hypertrio(),
            scale,
        )
        .with_params(SimParams::paper().with_warmup(2000));
        spec.simulation(tenants).run_with(&mut ring);
        let write = || -> std::io::Result<()> {
            let mut w = std::io::BufWriter::new(std::fs::File::create(&path)?);
            ring.write_jsonl(&mut w)?;
            std::io::Write::flush(&mut w)
        };
        if let Err(err) = write() {
            eprintln!("error: cannot write {path}: {err}");
            std::process::exit(1);
        }
        eprintln!(
            "wrote event trace for websearch+PF @ {tenants} tenants to {path} \
             ({} events, {} overwritten)",
            ring.len(),
            ring.overwritten()
        );
    }
}
