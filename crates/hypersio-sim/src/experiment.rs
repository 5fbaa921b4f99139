//! Sweep drivers shared by the figure/table reproduction binaries.

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};

use hypersio_trace::{HyperTraceBuilder, Interleaving, WorkloadKind};
use hypertrio_core::TranslationConfig;

use crate::model::Simulation;
use crate::params::SimParams;
use crate::report::SimReport;

/// The tenant counts of the paper's scalability figures (4 … 1024).
pub const PAPER_TENANT_COUNTS: [u32; 9] = [4, 8, 16, 32, 64, 128, 256, 512, 1024];

/// One sweep configuration: a workload × interleaving × architecture.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Workload to generate.
    pub workload: WorkloadKind,
    /// Inter-tenant interleaving.
    pub interleaving: Interleaving,
    /// The architecture under test.
    pub config: TranslationConfig,
    /// System latencies.
    pub params: SimParams,
    /// Request-count divisor (see [`HyperTraceBuilder::scale`]).
    pub scale: u64,
    /// Trace seed.
    pub seed: u64,
}

impl SweepSpec {
    /// Creates a spec with the paper's defaults: RR1, Table II latencies,
    /// seed 0. `scale` shortens the run (1 = paper-sized counts).
    pub fn new(workload: WorkloadKind, config: TranslationConfig, scale: u64) -> Self {
        SweepSpec {
            workload,
            interleaving: Interleaving::round_robin(1),
            config,
            params: SimParams::paper(),
            scale,
            seed: 0,
        }
    }

    /// Sets the interleaving.
    pub fn with_interleaving(mut self, interleaving: Interleaving) -> Self {
        self.interleaving = interleaving;
        self
    }

    /// Sets the system parameters.
    pub fn with_params(mut self, params: SimParams) -> Self {
        self.params = params;
        self
    }

    /// Sets the trace seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns the trace-shortening factor actually used at `tenants`.
    ///
    /// `scale` is interpreted relative to the paper's 1024-tenant traces:
    /// smaller tenant counts get proportionally *longer* per-tenant streams
    /// (`scale * tenants / 1024`, at least 1), so every sweep point covers
    /// a comparable number of packets and cold-start misses are amortised
    /// the same way the paper's full-length traces amortise them.
    pub fn effective_scale(&self, tenants: u32) -> u64 {
        (self.scale * tenants as u64 / 1024).max(1)
    }

    /// Builds the simulation this spec runs at `tenants`: the spec's
    /// trace, configuration, and parameters, ready to [`Simulation::run`]
    /// (or [`Simulation::run_with`] an observer, or
    /// [`Simulation::run_timed`] for the per-stage breakdown).
    ///
    /// # Examples
    ///
    /// ```
    /// use hypersio_sim::SweepSpec;
    /// use hypersio_trace::WorkloadKind;
    /// use hypertrio_core::TranslationConfig;
    ///
    /// let spec = SweepSpec::new(WorkloadKind::Iperf3, TranslationConfig::base(), 5000);
    /// let report = spec.simulation(2).run();
    /// assert_eq!(report.tenants, 2);
    /// ```
    pub fn simulation(&self, tenants: u32) -> Simulation {
        let trace = HyperTraceBuilder::new(self.workload, tenants)
            .interleaving(self.interleaving)
            .scale(self.effective_scale(tenants))
            .seed(self.seed)
            .build();
        Simulation::new(self.config.clone(), self.params.clone(), trace)
    }
}

/// One point of a tenant-count sweep.
#[derive(Debug, Clone)]
pub struct ExperimentPoint {
    /// Tenant count of this point.
    pub tenants: u32,
    /// The full simulation report.
    pub report: SimReport,
}

impl fmt::Display for ExperimentPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:>5} tenants: {:>8.2} Gb/s ({:>5.1}%)",
            self.tenants,
            self.report.gbps(),
            self.report.utilization * 100.0
        )
    }
}

/// Runs several specs across the same tenant axis on up to `jobs` worker
/// threads, returning `results[spec][point]` in input order.
///
/// Every sweep point is an independent simulation (its own trace, caches,
/// and page tables, all derived from the spec's seed), so the points can
/// run on any thread in any order: the output is **bit-identical** for
/// every `jobs` value, and `jobs <= 1` runs serially on the caller's
/// thread. The (spec × tenant-count) grid is flattened into a single task
/// queue, so a slow series cannot serialise the sweep the way per-spec
/// pools would: with `S` specs the largest points of all series run
/// concurrently.
///
/// # Examples
///
/// ```
/// use hypersio_sim::{sweep_specs_parallel, SweepSpec};
/// use hypersio_trace::WorkloadKind;
/// use hypertrio_core::TranslationConfig;
///
/// let spec = SweepSpec::new(WorkloadKind::Iperf3, TranslationConfig::base(), 5000);
/// let points = sweep_specs_parallel(&[spec], &[2, 8], 2).remove(0);
/// assert_eq!(points.len(), 2);
/// assert!(points[0].report.utilization >= points[1].report.utilization);
/// ```
pub fn sweep_specs_parallel(
    specs: &[SweepSpec],
    tenant_counts: &[u32],
    jobs: usize,
) -> Vec<Vec<ExperimentPoint>> {
    let grid: Vec<(usize, u32)> = specs
        .iter()
        .enumerate()
        .flat_map(|(si, _)| tenant_counts.iter().map(move |&t| (si, t)))
        .collect();
    let flat = parallel_map(&grid, jobs, |&(si, tenants)| ExperimentPoint {
        tenants,
        report: specs[si].simulation(tenants).run(),
    });
    let mut out: Vec<Vec<ExperimentPoint>> = specs.iter().map(|_| Vec::new()).collect();
    for ((si, _), point) in grid.into_iter().zip(flat) {
        out[si].push(point);
    }
    out
}

/// Maps `f` over `items` on up to `jobs` scoped threads, returning results
/// in input order. Work is handed out through a shared atomic cursor, so
/// threads that draw short tasks immediately pull the next one.
///
/// This is the engine underneath [`sweep_specs_parallel`], exposed for
/// figure drivers whose rows are not plain tenant sweeps (oracle-policy
/// rows, per-cell configurations).
/// `f` must be a pure function of its item for the output to be
/// reproducible; every simulation entry point in this crate is. `jobs` is
/// clamped to `1..=items.len()`; `jobs <= 1` runs inline on the caller's
/// thread.
///
/// # Panics
///
/// Propagates a panic from `f` after the remaining workers drain.
///
/// # Examples
///
/// ```
/// let squares = hypersio_sim::parallel_map(&[1u64, 2, 3, 4], 4, |&x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn parallel_map<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = jobs.min(items.len()).max(1);
    if workers == 1 {
        return items.iter().map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut chunks: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        done.push((i, f(item)));
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep worker panicked"))
            .collect()
    });
    let mut slots: Vec<Option<R>> = items.iter().map(|_| None).collect();
    for (i, r) in chunks.drain(..).flatten() {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index was dispatched exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One spec's series from the sweep engine.
    fn sweep(spec: &SweepSpec, counts: &[u32], jobs: usize) -> Vec<ExperimentPoint> {
        sweep_specs_parallel(std::slice::from_ref(spec), counts, jobs).remove(0)
    }

    #[test]
    fn sweep_produces_monotone_tenant_labels() {
        let spec = SweepSpec::new(WorkloadKind::Iperf3, TranslationConfig::base(), 5000);
        let points = sweep(&spec, &[2, 4, 8], 1);
        let labels: Vec<u32> = points.iter().map(|p| p.tenants).collect();
        assert_eq!(labels, vec![2, 4, 8]);
    }

    #[test]
    fn effective_scale_is_proportional_and_clamped() {
        let spec = SweepSpec::new(WorkloadKind::Iperf3, TranslationConfig::base(), 200);
        assert_eq!(spec.effective_scale(1024), 200);
        assert_eq!(spec.effective_scale(128), 25);
        assert_eq!(spec.effective_scale(4), 1);
    }

    #[test]
    fn base_utilization_declines_with_tenants() {
        let spec = SweepSpec::new(WorkloadKind::Iperf3, TranslationConfig::base(), 2000);
        let points = sweep(&spec, &[2, 64], 1);
        assert!(
            points[0].report.utilization > points[1].report.utilization,
            "{} vs {}",
            points[0],
            points[1]
        );
    }

    #[test]
    fn spec_builders_apply() {
        let spec = SweepSpec::new(WorkloadKind::Websearch, TranslationConfig::hypertrio(), 100)
            .with_interleaving(Interleaving::random(1, 5))
            .with_seed(7)
            .with_params(SimParams::paper_10g());
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.params.link.bandwidth().gbps(), 10.0);
        assert_eq!(spec.interleaving.to_string(), "RAND1");
    }

    #[test]
    fn point_display_is_tabular() {
        let spec = SweepSpec::new(WorkloadKind::Iperf3, TranslationConfig::base(), 5000);
        let point = &sweep(&spec, &[2], 1)[0];
        let s = point.to_string();
        assert!(s.contains("2 tenants"));
        assert!(s.contains("Gb/s"));
    }

    #[test]
    fn paper_counts_span_4_to_1024() {
        assert_eq!(PAPER_TENANT_COUNTS[0], 4);
        assert_eq!(*PAPER_TENANT_COUNTS.last().unwrap(), 1024);
    }

    #[test]
    fn sweep_spec_is_thread_shippable() {
        // Compile-time guarantee that specs (including Oracle policies,
        // which hold an Arc'd future-access index) can cross thread
        // boundaries — the parallel executor depends on it.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SweepSpec>();
        assert_send_sync::<ExperimentPoint>();
    }

    #[test]
    fn instrumented_run_matches_uninstrumented() {
        let spec = SweepSpec::new(WorkloadKind::Iperf3, TranslationConfig::hypertrio(), 5000);
        let mut counts = hypersio_obs::CountingObserver::default();
        let observed = spec.simulation(4).run_with(&mut counts);
        assert_eq!(observed, spec.simulation(4).run());
        assert_eq!(
            counts.count(hypersio_obs::EventKind::PacketComplete),
            observed.packets_processed
        );
    }

    #[test]
    fn timed_run_matches_untimed_and_attributes_time() {
        let spec = SweepSpec::new(WorkloadKind::Iperf3, TranslationConfig::hypertrio(), 5000);
        let (timed, stages) = spec.simulation(4).run_timed();
        assert_eq!(timed, spec.simulation(4).run());
        assert!(
            stages.total_ns() > 0,
            "no stage time attributed: {stages:?}"
        );
    }

    #[test]
    fn parallel_handles_degenerate_inputs() {
        let spec = SweepSpec::new(WorkloadKind::Iperf3, TranslationConfig::base(), 5000);
        assert!(sweep_specs_parallel(&[], &[2], 4).is_empty());
        assert!(sweep(&spec, &[], 4).is_empty());
        // jobs = 0 is clamped to 1, more jobs than points is clamped down.
        let one = sweep(&spec, &[2], 0);
        assert_eq!(one.len(), 1);
        let extra = sweep(&spec, &[2, 4], 16);
        assert_eq!(extra.len(), 2);
        assert_eq!(extra[0].tenants, 2);
        assert_eq!(extra[1].tenants, 4);
    }

    #[test]
    fn specs_parallel_groups_by_input_order() {
        let specs = vec![
            SweepSpec::new(WorkloadKind::Iperf3, TranslationConfig::base(), 5000),
            SweepSpec::new(WorkloadKind::Iperf3, TranslationConfig::hypertrio(), 5000),
        ];
        let grouped = sweep_specs_parallel(&specs, &[2, 4], 4);
        assert_eq!(grouped.len(), 2);
        for (series, spec) in grouped.iter().zip(&specs) {
            let serial = sweep(spec, &[2, 4], 1);
            assert_eq!(series.len(), 2);
            for (p, s) in series.iter().zip(&serial) {
                assert_eq!(p.tenants, s.tenants);
                assert_eq!(p.report, s.report);
            }
        }
    }
}
