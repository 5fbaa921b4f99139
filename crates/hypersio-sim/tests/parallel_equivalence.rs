//! The parallel sweep engine's bit-identity guarantee: for any job count,
//! [`sweep_specs_parallel`] must return element-wise identical results to
//! running each point serially — every field of every report, not just the
//! headline bandwidth. The figure binaries rely on this to make `JOBS` a
//! pure wall-clock knob that can never change published numbers.

use hypersio_sim::{parallel_map, sweep_specs_parallel, ExperimentPoint, SimParams, SweepSpec};
use hypersio_trace::{Interleaving, WorkloadKind};
use hypersio_types::SplitMix64;
use hypertrio_core::TranslationConfig;

/// The reference: every point simulated in turn on this thread.
fn sweep_serial(spec: &SweepSpec, counts: &[u32]) -> Vec<ExperimentPoint> {
    counts
        .iter()
        .map(|&tenants| ExperimentPoint {
            tenants,
            report: spec.simulation(tenants).run(),
        })
        .collect()
}

/// One spec's series from the sweep engine.
fn sweep(spec: &SweepSpec, counts: &[u32], jobs: usize) -> Vec<ExperimentPoint> {
    sweep_specs_parallel(std::slice::from_ref(spec), counts, jobs).remove(0)
}

/// Asserts full element-wise equality between two sweep results.
fn assert_points_identical(serial: &[ExperimentPoint], parallel: &[ExperimentPoint], label: &str) {
    assert_eq!(serial.len(), parallel.len(), "{label}: length");
    for (s, p) in serial.iter().zip(parallel) {
        assert_eq!(s.tenants, p.tenants, "{label}: tenant order");
        // SimReport's PartialEq covers every field (packets, drops, bytes,
        // achieved bandwidth, DevTLB/PB/IOMMU stats, latency) with exact
        // f64 comparison; spell out the headline fields anyway so a
        // failure names the number that diverged.
        assert_eq!(
            s.report.packets_processed, p.report.packets_processed,
            "{label}@{}: packets",
            s.tenants
        );
        assert_eq!(
            s.report.packets_dropped, p.report.packets_dropped,
            "{label}@{}: drops",
            s.tenants
        );
        assert_eq!(
            s.report.achieved, p.report.achieved,
            "{label}@{}: achieved bandwidth",
            s.tenants
        );
        assert_eq!(
            s.report.devtlb, p.report.devtlb,
            "{label}@{}: DevTLB stats",
            s.tenants
        );
        assert_eq!(s.report, p.report, "{label}@{}: full report", s.tenants);
    }
}

#[test]
fn parallel_equals_serial_for_two_workloads() {
    let counts = [2u32, 4, 8, 16];
    for (workload, config) in [
        (WorkloadKind::Iperf3, TranslationConfig::hypertrio()),
        (WorkloadKind::Websearch, TranslationConfig::base()),
    ] {
        let spec =
            SweepSpec::new(workload, config, 2000).with_params(SimParams::paper().with_warmup(500));
        let serial = sweep_serial(&spec, &counts);
        for jobs in [1usize, 2, 4, 7] {
            let parallel = sweep(&spec, &counts, jobs);
            assert_points_identical(&serial, &parallel, &format!("{workload}/jobs={jobs}"));
        }
    }
}

#[test]
fn specs_parallel_equals_serial_per_spec() {
    let counts = [2u32, 8];
    let specs = [
        SweepSpec::new(WorkloadKind::Iperf3, TranslationConfig::base(), 3000),
        SweepSpec::new(
            WorkloadKind::Mediastream,
            TranslationConfig::hypertrio(),
            3000,
        )
        .with_interleaving(Interleaving::round_robin(4)),
    ];
    let grouped = sweep_specs_parallel(&specs, &counts, 4);
    for (series, spec) in grouped.iter().zip(&specs) {
        let serial = sweep_serial(spec, &counts);
        assert_points_identical(&serial, series, &spec.workload.to_string());
    }
}

/// Deterministic pseudo-property test: many randomly drawn small sweep
/// configurations (workload, interleaving, seed, tenant subsets, job
/// counts), each checked for serial/parallel bit-identity. The SplitMix64
/// seed is fixed, so the case set is reproducible; it stands in for a
/// proptest-style generator without the external dependency.
#[test]
fn random_small_tenant_sets_are_bit_identical() {
    let mut rng = SplitMix64::new(0x007a_11e1_5eed);
    let workloads = WorkloadKind::ALL;
    for case in 0..12 {
        let workload = workloads[rng.index(workloads.len())];
        let config = if rng.below(2) == 0 {
            TranslationConfig::base()
        } else {
            TranslationConfig::hypertrio()
        };
        let interleaving = match rng.below(3) {
            0 => Interleaving::round_robin(1),
            1 => Interleaving::round_robin(4),
            _ => Interleaving::random(1, rng.next_u64()),
        };
        let seed = rng.below(1 << 20);
        let spec = SweepSpec::new(workload, config, 4000)
            .with_interleaving(interleaving)
            .with_seed(seed)
            .with_params(SimParams::paper().with_warmup(200));
        // 1-3 distinct small tenant counts, any order.
        let mut counts = Vec::new();
        for _ in 0..=rng.below(2) {
            let t = 1 + rng.below(12) as u32;
            if !counts.contains(&t) {
                counts.push(t);
            }
        }
        let jobs = 1 + rng.index(6);
        let serial = sweep_serial(&spec, &counts);
        let parallel = sweep(&spec, &counts, jobs);
        assert_points_identical(
            &serial,
            &parallel,
            &format!("case {case}: {workload}/{interleaving}/seed={seed}/jobs={jobs}"),
        );
    }
}

#[test]
fn parallel_map_preserves_input_order_under_contention() {
    // Many more items than workers, deliberately uneven task sizes.
    let items: Vec<u64> = (0..97).collect();
    let out = parallel_map(&items, 5, |&x| {
        let mut acc = x;
        for _ in 0..(x % 13) * 1000 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
        }
        (x, acc)
    });
    let serial: Vec<(u64, u64)> = items
        .iter()
        .map(|&x| {
            let mut acc = x;
            for _ in 0..(x % 13) * 1000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (x, acc)
        })
        .collect();
    assert_eq!(out, serial);
}
