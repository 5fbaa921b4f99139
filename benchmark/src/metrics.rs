//! The metric vocabulary: every name the benchmark reports, its unit, and
//! which direction is better. `BENCHMARK.json` lists the same names (a
//! unit test holds the two together); the bounds live only there.

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name, unique across both tables.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better }
}

use Better::{Higher as H, Lower as L};

/// End-to-end metrics (host time at reference-host speed, measured with
/// tracing off).
pub const END_TO_END: [Metric; 3] = [
    m("sim_pkts_per_s", "pkts/s", H),
    m("setup_s", "s", L),
    m("peak_rss_mb", "MiB", L),
];

/// Per-layer metrics, from the traced pass. Counts and `model.*` come from
/// the real run and repeat exactly; `ns_per_*` come from the layer replay.
pub const PER_LAYER: [Metric; 54] = [
    m("setup.trace_build_s", "s", L),
    m("setup.tables_s", "s", L),
    m("setup.sim_new_s", "s", L),
    m("stage.arrival_ns_per_pkt", "ns", L),
    m("stage.prefetch_ns_per_pkt", "ns", L),
    m("stage.lookup_ns_per_pkt", "ns", L),
    m("stage.walk_ns_per_pkt", "ns", L),
    m("stage.completion_ns_per_pkt", "ns", L),
    m("stage.timed_overhead", "ratio", L),
    m("trace.ns_per_packet", "ns", L),
    m("sid_map.ns_per_resolve", "ns", L),
    m("devtlb.ns_per_lookup", "ns", L),
    m("devtlb.ns_per_fill", "ns", L),
    m("devtlb.lookups", "count", L),
    m("devtlb.hit_ratio", "ratio", H),
    m("prefetch.ns_per_observe", "ns", L),
    m("prefetch.ns_per_pb_lookup", "ns", L),
    m("prefetch.ns_per_fill", "ns", L),
    m("prefetch.ns_per_history", "ns", L),
    m("prefetch.issued", "count", L),
    m("prefetch.useful_ratio", "ratio", H),
    m("prefetch.late", "count", L),
    m("prefetch.expired", "count", L),
    m("prefetch.pb_served_frac", "ratio", H),
    m("iommu.ns_per_demand_walk", "ns", L),
    m("iommu.ns_per_prefetch_walk", "ns", L),
    m("iommu.ns_per_invalidate", "ns", L),
    m("iommu.requests", "count", L),
    m("iommu.prefetch_walk_frac", "ratio", L),
    m("iommu.dram_reads_per_request", "reads/req", L),
    m("iommu.full_walk_ratio", "ratio", L),
    m("iommu.l2_hit_ratio", "ratio", H),
    m("iommu.l3_hit_ratio", "ratio", H),
    m("iommu.pool_builds", "count", L),
    m("iommu.pool_evictions", "count", L),
    m("ptb.drop_frac", "ratio", L),
    m("ptb.allocs", "count", L),
    m("faults.storms", "count", L),
    m("faults.page_faults", "count", L),
    m("faults.faulted_drops", "count", L),
    m("faults.remaps", "count", L),
    m("completion.ns_per_record", "ns", L),
    m("obs.counting_overhead", "ratio", L),
    m("obs.events_per_pkt", "events/pkt", L),
    m("model.utilization", "ratio", H),
    m("model.gbps", "Gb/s", H),
    m("model.latency_p50_ns", "ns", L),
    m("model.latency_p99_ns", "ns", L),
    m("model.report_digest", "hash", L),
    m("layers.coverage", "ratio", H),
    m("replay.span_coverage", "ratio", H),
    m("replay.devtlb_hit_ratio", "ratio", H),
    m("replay.pb_served_frac", "ratio", H),
    m("host.slowdown", "ratio", L),
];

/// The metrics a run reports: end-to-end with tracing off, per-layer with
/// it on.
pub fn for_trace(trace: bool) -> &'static [Metric] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// Looks an end-to-end metric up by name.
pub fn end_to_end(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().find(|m| m.name == name)
}
