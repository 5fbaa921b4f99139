//! The two kinds of run — timed reps for the end-to-end metrics and the
//! traced pass for the per-layer metrics — and the checks both apply to
//! every simulation they make.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use hypersio_sim::{CountingObserver, EventKind, SimReport, Simulation};

use crate::calibrate::Host;
use crate::metrics::{self, Metric};
use crate::replay::{self, Layer, Span};
use crate::stats::{fnv1a, nearest_rank, Summary};
use crate::workloads::RunSpec;

/// Timed reps a run makes even when its time budget is already spent.
const MIN_REPS: usize = 3;

/// Set-ups timed per rep (the last one is run); `setup_s` is the median
/// of them all.
const SETUPS_PER_REP: usize = 3;

/// Set-up samples per traced round, for the `setup.*` breakdown.
const TRACED_SETUPS: usize = 5;

/// Checked runs per traced round: untimed, `run_timed`, counting, replay.
const ROUND_RUNS: u64 = 4;

/// One metric's value and the samples it was taken from.
#[derive(Debug, Clone)]
pub struct Measured {
    /// The metric.
    pub metric: &'static Metric,
    /// The reported value.
    pub value: f64,
    /// Every sample behind the value (one for a single reading).
    pub samples: Vec<f64>,
}

/// What one benchmark run produced.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Every metric of the run's kind, in table order.
    pub metrics: Vec<Measured>,
    /// Checked runs attempted (simulations, and traced replays).
    pub attempted: u64,
    /// Why each failed run failed (one entry per failed run).
    pub failures: Vec<String>,
    /// Median host slowdown against the reference host over the run.
    pub slowdown: f64,
    /// Replay spans (traced runs only).
    pub spans: Vec<Span>,
}

#[cfg(test)]
impl RunResult {
    /// The value of `name`.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.metric.name == name)
            .map(|m| m.value)
    }
}

/// The report digest: FNV-1a of the JSON report, cut to 53 bits so it
/// survives the trip through a JSON number.
pub fn digest(report: &SimReport) -> u64 {
    fnv1a(report.to_json().as_bytes()) >> 11
}

/// Checks one report's internal accounting and that it equals every other
/// report of the run (`reference` holds the first digest seen).
fn check(
    report: &SimReport,
    trace_packets: u64,
    reference: &mut Option<u64>,
) -> Result<(), String> {
    if report.devtlb.accesses() != report.translation_requests {
        return Err(format!(
            "DevTLB accesses {} != translation requests {}",
            report.devtlb.accesses(),
            report.translation_requests
        ));
    }
    if report.translation_requests != 3 * trace_packets {
        return Err(format!(
            "translation requests {} != 3 x {trace_packets} trace packets",
            report.translation_requests
        ));
    }
    if report.packets_processed + report.faulted_drops != trace_packets {
        return Err(format!(
            "processed {} + faulted drops {} != {trace_packets} trace packets",
            report.packets_processed, report.faulted_drops
        ));
    }
    let d = digest(report);
    match *reference {
        None => *reference = Some(d),
        Some(r) if r != d => return Err(format!("report digest {d:#x} != {r:#x}")),
        Some(_) => {}
    }
    Ok(())
}

/// Builds the result rows of `table` from `samples` (keyed by metric name),
/// reducing each with `reduce`. Panics if a metric has no samples: every
/// metric of a run's kind is always measured.
fn rows(
    table: &'static [Metric],
    mut samples: BTreeMap<&'static str, Vec<f64>>,
    reduce: impl Fn(&'static str, &[f64]) -> f64,
) -> Vec<Measured> {
    table
        .iter()
        .map(|metric| {
            let s = samples
                .remove(metric.name)
                .unwrap_or_else(|| panic!("metric {} was not measured", metric.name));
            Measured {
                metric,
                value: reduce(metric.name, &s),
                samples: s,
            }
        })
        .collect()
}

fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}

/// Timed reps until `budget` is spent (at least [`MIN_REPS`]): throughput
/// of each untimed run with set-up excluded, the time of
/// [`SETUPS_PER_REP`] set-ups before it, and the process's peak RSS at the
/// end. Host times are stated at reference-host speed (see
/// [`crate::calibrate`]), each rep by the reference timings around it.
///
/// `sim_pkts_per_s` is the fastest quartile (p75) of the reps: bursts of
/// host noise only ever slow a rep down, and they hit up to half the reps
/// of a run, so the fast end of the distribution is the steady estimate.
/// `setup_s` is the median.
pub fn end_to_end(spec: &RunSpec, budget: Duration) -> RunResult {
    let trace_packets = spec.trace().count() as u64;
    let (mut pps, mut setup, mut slowdowns) = (Vec::new(), Vec::new(), Vec::new());
    let mut failures = Vec::new();
    let mut reference = None;
    let mut host = Host::new();
    let start = Instant::now();
    while pps.len() < MIN_REPS || start.elapsed() < budget {
        let mut setups = Vec::with_capacity(SETUPS_PER_REP);
        let mut sim = None;
        for _ in 0..SETUPS_PER_REP {
            // One simulation alive at a time, so peak RSS is one run's.
            drop(sim.take());
            let (s, seconds) = spec.setup();
            setups.push(seconds);
            sim = Some(s);
        }
        let sim = sim.expect("at least one set-up per rep");
        let (report, wall) = timed(|| sim.run());
        let slowdown = host.interval();
        slowdowns.push(slowdown);
        pps.push(report.packets_processed as f64 / wall * slowdown);
        setup.extend(setups.iter().map(|s| s / slowdown));
        if let Err(e) = check(&report, trace_packets, &mut reference) {
            failures.push(format!("rep {}: {e}", pps.len()));
        }
    }
    let attempted = pps.len() as u64;
    let rss_mb = bench::peak_rss_bytes() as f64 / (1u64 << 20) as f64;
    let samples = BTreeMap::from([
        ("sim_pkts_per_s", pps),
        ("setup_s", setup),
        ("peak_rss_mb", vec![rss_mb]),
    ]);
    let metrics = rows(&metrics::END_TO_END, samples, |name, s| match name {
        "sim_pkts_per_s" => {
            let mut sorted = s.to_vec();
            sorted.sort_by(f64::total_cmp);
            nearest_rank(&sorted, 0.75)
        }
        _ => median(s),
    });
    RunResult {
        metrics,
        attempted,
        failures,
        slowdown: median(&slowdowns),
        spans: Vec::new(),
    }
}

/// Calls `f`, returning its result and host wall time in seconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Traced rounds until `budget` is spent (at least one). Each round times
/// the set-up halves, runs the workload untimed, under `run_timed` (stage
/// breakdown) and under a `CountingObserver` (event counts), then replays
/// its layers. Every piece is stated at reference-host speed by the
/// reference timings around it. Every metric is the median over rounds;
/// the counts and `model.*` repeat exactly, so their median is their
/// value.
pub fn traced(spec: &RunSpec, budget: Duration) -> RunResult {
    let trace_packets = spec.trace().count() as u64;
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut failures = Vec::new();
    let mut reference = None;
    let mut spans = Vec::new();
    let mut rounds = 0u64;
    let mut host = Host::new();
    let start = Instant::now();
    while rounds == 0 || start.elapsed() < budget {
        let round = traced_round(
            spec,
            trace_packets,
            &mut host,
            &mut reference,
            &mut failures,
        );
        for (name, value) in round.values {
            samples.entry(name).or_default().push(value);
        }
        if rounds == 0 {
            spans = round.spans;
        }
        rounds += 1;
    }
    let slowdown = median(&samples["host.slowdown"]);
    RunResult {
        metrics: rows(&metrics::PER_LAYER, samples, |_, s| median(s)),
        attempted: ROUND_RUNS * rounds,
        failures,
        slowdown,
        spans,
    }
}

struct Round {
    values: Vec<(&'static str, f64)>,
    spans: Vec<Span>,
}

fn traced_round(
    spec: &RunSpec,
    trace_packets: u64,
    host: &mut Host,
    reference: &mut Option<u64>,
    failures: &mut Vec<String>,
) -> Round {
    let (mut trace_build, mut tables, mut sim_new) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..TRACED_SETUPS {
        let (trace, t) = timed(|| spec.trace());
        trace_build.push(t);
        let (iommu, t) = timed(|| replay::build_iommu(spec, &trace));
        tables.push(t);
        drop(iommu);
        let (sim, t) = timed(|| Simulation::new(spec.config.clone(), spec.params.clone(), trace));
        sim_new.push(t);
        drop(sim);
    }
    let setup_slowdown = host.interval();

    let sim = spec.setup().0;
    let (report, wall) = timed(|| sim.run());
    let untimed_slowdown = host.interval();
    let sim = spec.setup().0;
    let ((timed_report, stages), timed_wall) = timed(|| sim.run_timed());
    let timed_slowdown = host.interval();
    let sim = spec.setup().0;
    let mut counts = CountingObserver::new();
    let (counted_report, counted_wall) = timed(|| sim.run_with(&mut counts));
    let counted_slowdown = host.interval();
    let outcome = replay::run(spec);
    let replay_slowdown = host.interval();
    let slowdowns = [
        setup_slowdown,
        untimed_slowdown,
        timed_slowdown,
        counted_slowdown,
        replay_slowdown,
    ];
    let wall = wall / untimed_slowdown;
    let timed_wall = timed_wall / timed_slowdown;
    let counted_wall = counted_wall / counted_slowdown;

    // Each of the round's four runs fails at most once, with every problem
    // it showed.
    let mut checked = |r: &SimReport| -> Vec<String> {
        check(r, trace_packets, reference)
            .err()
            .into_iter()
            .collect()
    };
    let untimed_errs = checked(&report);
    let timed_errs = checked(&timed_report);
    let mut counted_errs = checked(&counted_report);
    let completes = counts.count(EventKind::PacketComplete);
    if completes != counted_report.packets_processed {
        counted_errs.push(format!(
            "{completes} PacketComplete events != {} packets processed",
            counted_report.packets_processed
        ));
    }
    let probes = counts.count(EventKind::DevTlbHit) + counts.count(EventKind::DevTlbMiss);
    if probes != counted_report.translation_requests {
        counted_errs.push(format!(
            "{probes} DevTLB events != {} translation requests",
            counted_report.translation_requests
        ));
    }
    let replay_errs: Vec<String> = (outcome.packets != trace_packets)
        .then(|| {
            format!(
                "{} packets != {trace_packets} trace packets",
                outcome.packets
            )
        })
        .into_iter()
        .collect();
    for (kind, errs) in [
        ("untimed run", untimed_errs),
        ("run_timed run", timed_errs),
        ("counting run", counted_errs),
        ("replay", replay_errs),
    ] {
        if !errs.is_empty() {
            failures.push(format!("{kind}: {}", errs.join("; ")));
        }
    }

    let r = &report;
    let ev = |kind: EventKind| counts.count(kind) as f64;
    let per = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let layer = |l: Layer| outcome.layer(l);
    // Replay host times, at reference-host speed.
    let at_ref = |ns: f64| ns / replay_slowdown;
    let ns = |l: Layer| at_ref(layer(l).ns_per_call());
    let packets = r.packets_processed as f64;
    let stage = |ns: u64| per(ns as f64 / timed_slowdown, packets);
    let requests = r.iommu.requests as f64;
    let issued = r.prefetches_issued as f64;
    let demand_walks = r.iommu.requests.saturating_sub(r.prefetches_issued) as f64;
    let observe = layer(Layer::Observe);
    let ns_per_observe = at_ref(per(
        (observe.ns + layer(Layer::Plan).ns) as f64,
        observe.calls as f64,
    ));
    let pb = layer(Layer::PbLookup);
    let ns_per_pb_lookup = at_ref(per(
        pb.ns.saturating_sub(outcome.fills.ns) as f64,
        pb.calls as f64,
    ));
    let ns_per_fill = at_ref(outcome.fills.ns_per_call());
    let shootdowns = (r.inv_storms + r.tenant_remaps) as f64;
    // Host time the real run's calls would cost at the replay's per-call
    // rates, layer by layer.
    let modelled_ns = trace_packets as f64 * ns(Layer::Trace)
        + trace_packets as f64 * ns_per_observe
        + ev(EventKind::PrefetchPredict) * ns(Layer::SidMap)
        + issued * ns(Layer::PrefetchWalk)
        + r.translation_requests as f64 * ns(Layer::DevTlbLookup)
        + (ev(EventKind::PbHit) + ev(EventKind::PbMiss)) * ns_per_pb_lookup
        + ev(EventKind::PrefetchFill) * ns_per_fill
        + demand_walks * (ns(Layer::DemandWalk) + ns(Layer::DevTlbFill))
        + 3.0 * packets * ns(Layer::History)
        + packets * ns(Layer::Completion)
        + shootdowns * ns(Layer::Invalidate);
    let span_ns: u64 = outcome.layers.iter().map(|t| t.ns).sum();

    let values = vec![
        ("setup.trace_build_s", median(&trace_build) / setup_slowdown),
        ("setup.tables_s", median(&tables) / setup_slowdown),
        ("setup.sim_new_s", median(&sim_new) / setup_slowdown),
        ("stage.arrival_ns_per_pkt", stage(stages.arrival_ns)),
        ("stage.prefetch_ns_per_pkt", stage(stages.prefetch_ns)),
        ("stage.lookup_ns_per_pkt", stage(stages.lookup_ns)),
        ("stage.walk_ns_per_pkt", stage(stages.walk_ns)),
        ("stage.completion_ns_per_pkt", stage(stages.completion_ns)),
        ("stage.timed_overhead", timed_wall / wall),
        ("trace.ns_per_packet", ns(Layer::Trace)),
        ("sid_map.ns_per_resolve", ns(Layer::SidMap)),
        ("devtlb.ns_per_lookup", ns(Layer::DevTlbLookup)),
        ("devtlb.ns_per_fill", ns(Layer::DevTlbFill)),
        ("devtlb.lookups", r.devtlb.accesses() as f64),
        ("devtlb.hit_ratio", r.devtlb.hit_rate()),
        ("prefetch.ns_per_observe", ns_per_observe),
        ("prefetch.ns_per_pb_lookup", ns_per_pb_lookup),
        ("prefetch.ns_per_fill", ns_per_fill),
        ("prefetch.ns_per_history", ns(Layer::History)),
        ("prefetch.issued", issued),
        ("prefetch.useful_ratio", per(ev(EventKind::PbHit), issued)),
        ("prefetch.late", r.prefetch_fills_late as f64),
        ("prefetch.expired", r.prefetch_fills_expired as f64),
        ("prefetch.pb_served_frac", r.pb_served_fraction),
        ("iommu.ns_per_demand_walk", ns(Layer::DemandWalk)),
        ("iommu.ns_per_prefetch_walk", ns(Layer::PrefetchWalk)),
        (
            "iommu.ns_per_invalidate",
            at_ref(outcome.iommu_invalidations.ns_per_call()),
        ),
        ("iommu.requests", requests),
        ("iommu.prefetch_walk_frac", per(issued, requests)),
        (
            "iommu.dram_reads_per_request",
            per(r.iommu.dram_accesses as f64, requests),
        ),
        (
            "iommu.full_walk_ratio",
            per(r.iommu.full_walks as f64, requests),
        ),
        ("iommu.l2_hit_ratio", r.l2_cache.hit_rate()),
        ("iommu.l3_hit_ratio", r.l3_cache.hit_rate()),
        ("iommu.pool_builds", outcome.pool.builds as f64),
        ("iommu.pool_evictions", outcome.pool.evictions as f64),
        ("ptb.drop_frac", r.drop_fraction()),
        ("ptb.allocs", ev(EventKind::PtbAlloc)),
        ("faults.storms", r.inv_storms as f64),
        ("faults.page_faults", r.page_faults as f64),
        ("faults.faulted_drops", r.faulted_drops as f64),
        ("faults.remaps", r.tenant_remaps as f64),
        ("completion.ns_per_record", ns(Layer::Completion)),
        ("obs.counting_overhead", counted_wall / wall),
        ("obs.events_per_pkt", per(counts.total() as f64, packets)),
        ("model.utilization", r.utilization),
        ("model.gbps", r.gbps()),
        (
            "model.latency_p50_ns",
            r.packet_latency.p50().as_ps() as f64 / 1e3,
        ),
        (
            "model.latency_p99_ns",
            r.packet_latency.p99().as_ps() as f64 / 1e3,
        ),
        ("model.report_digest", digest(r) as f64),
        ("layers.coverage", modelled_ns / (wall * 1e9)),
        (
            "replay.span_coverage",
            per(span_ns as f64, outcome.wall_ns as f64),
        ),
        (
            "replay.devtlb_hit_ratio",
            per(outcome.devtlb_hits as f64, outcome.devtlb_lookups as f64),
        ),
        (
            "replay.pb_served_frac",
            per(outcome.pb_served as f64, outcome.devtlb_lookups as f64),
        ),
        ("host.slowdown", median(&slowdowns)),
    ];
    Round {
        values,
        spans: outcome.spans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{Size, Workload};

    #[test]
    fn every_workload_passes_its_checks_at_smoke_size() {
        for w in Workload::ALL {
            let spec = w.spec(1, Size::Smoke);
            let e2e = end_to_end(&spec, Duration::ZERO);
            assert!(e2e.failures.is_empty(), "{}: {:?}", w.name(), e2e.failures);
            assert_eq!(e2e.attempted, MIN_REPS as u64);
            let layered = traced(&spec, Duration::ZERO);
            assert!(
                layered.failures.is_empty(),
                "{}: {:?}",
                w.name(),
                layered.failures
            );
            for m in e2e.metrics.iter().chain(&layered.metrics) {
                assert!(
                    m.value.is_finite(),
                    "{}: {} = {}",
                    w.name(),
                    m.metric.name,
                    m.value
                );
            }
            for name in ["sim_pkts_per_s", "setup_s", "peak_rss_mb"] {
                assert!(e2e.value(name).unwrap() > 0.0, "{}: {name}", w.name());
            }
            let v = |name: &str| layered.value(name).unwrap();
            match w {
                Workload::Base1024 => assert_eq!(v("prefetch.issued"), 0.0),
                Workload::Ht100k => assert!(v("iommu.pool_evictions") > 0.0),
                Workload::Ht1024Storm => {
                    assert!(v("faults.storms") > 0.0 && v("faults.page_faults") > 0.0);
                    assert_eq!(v("faults.remaps"), 2.0);
                }
                Workload::Ht1024 => assert!(v("prefetch.pb_served_frac") > 0.0),
            }

            let packets = spec.trace().count() as u64;
            let outcome = replay::run(&spec);
            assert_eq!(outcome.packets, packets, "{}", w.name());
            assert_eq!(outcome.devtlb_lookups, 3 * packets, "{}", w.name());
            assert_eq!(outcome.layer(Layer::Completion).calls, packets);
        }
    }

    #[test]
    fn the_seed_reaches_the_simulation() {
        let digest_for = |seed| {
            let (sim, _) = Workload::Ht1024.spec(seed, Size::Smoke).setup();
            digest(&sim.run())
        };
        assert_eq!(digest_for(0), digest_for(0));
        assert_ne!(digest_for(0), digest_for(1));
    }

    #[test]
    fn a_mismatching_report_fails_the_check() {
        let spec = Workload::Ht1024.spec(0, Size::Smoke);
        let packets = spec.trace().count() as u64;
        let report = spec.setup().0.run();
        let mut reference = Some(digest(&report) ^ 1);
        assert!(check(&report, packets, &mut reference).is_err());
        assert!(check(&report, packets + 1, &mut None).is_err());
        assert!(check(&report, packets, &mut None).is_ok());
    }
}
