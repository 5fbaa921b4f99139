//! HyperSIO's trace-driven device–system performance model.
//!
//! This crate reimplements the paper's §IV-C performance model: packets
//! arrive back-to-back at the nominal link bandwidth; each accepted packet
//! issues three gIOVA translation requests (ring pointer, data buffer,
//! interrupt mailbox); requests are served by the DevTLB / Prefetch Buffer
//! on the device or forwarded over PCIe to the IOMMU for a two-dimensional
//! page-table walk; packets that cannot allocate Pending-Translation-Buffer
//! capacity are dropped and retried at the next arrival slot. At the end of
//! a run the achieved bandwidth is total bytes over total time — lower than
//! nominal exactly when translation is the bottleneck.
//!
//! The latencies are the paper's Table II values ([`SimParams::paper`]);
//! the architectural configuration (DevTLB partitioning, PTB size,
//! prefetching) comes from [`hypertrio_core::TranslationConfig`].
//!
//! # Examples
//!
//! ```
//! use hypersio_sim::{SimParams, Simulation};
//! use hypersio_trace::{HyperTraceBuilder, WorkloadKind};
//! use hypertrio_core::TranslationConfig;
//!
//! let trace = HyperTraceBuilder::new(WorkloadKind::Iperf3, 2).scale(100).build();
//! // A short warm-up keeps cold-compulsory misses out of the measurement.
//! let params = SimParams::paper().with_warmup(100);
//! let report = Simulation::new(TranslationConfig::hypertrio(), params, trace).run();
//! // Two tenants fit comfortably: the link is nearly fully utilised.
//! assert!(report.utilization > 0.9, "got {}", report.utilization);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ckpt;
mod control;
mod error;
mod experiment;
mod faults;
mod latency;
mod model;
mod oracle;
mod params;
mod per_tenant;
mod pipeline;
mod report;
mod shard;
mod sid_map;
mod slot_pool;

pub use ckpt::{CheckpointError, CHECKPOINT_SCHEMA};
pub use control::{current_rss_bytes, RunControl, RunOutcome};
pub use error::SimError;
pub use experiment::{
    parallel_map, sweep_specs_parallel, ExperimentPoint, SweepSpec, PAPER_TENANT_COUNTS,
};
pub use faults::{BackoffPolicy, ChurnEvent, FaultPlan, StormEvent, MAX_PRI_LATENCY_US};
pub use hypersio_mem::WalkGeometry;
pub use latency::LatencyStats;
pub use model::{Simulation, StageTimings};
pub use oracle::devtlb_oracle_for;
pub use params::SimParams;
pub use per_tenant::{FairnessSummary, PerTenantReport, TenantStat};
pub use report::SimReport;
pub use shard::{run_sharded, ShardSupervision};
pub use sid_map::SidMap;
pub use slot_pool::SlotPool;

// Re-export the observability vocabulary so downstream users can drive
// `Simulation::run_with` without naming the obs crate separately.
pub use hypersio_obs::{
    reconstruct_spans, write_chrome_trace, write_jsonl_many, ComponentSums, CountingObserver,
    Event, EventKind, LatencyAttribution, NullObserver, Observer, PacketSpan, Reconstruction,
    RingRecorder, SpanCollector, SpanComponents, TimeSeriesSampler,
};
