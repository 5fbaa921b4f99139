//! The four benchmark workloads, defined once and shared by the timed
//! reps, the traced pass, the layer replay and the smoke test.
//!
//! Each workload is a point the paper or the scale-out work cares about,
//! chosen so that different layers carry the host time (see the README for
//! the layer → end-to-end map):
//!
//! * `ht-1024` — HyperTRIO at the paper's largest scale; every mechanism
//!   (partitioned DevTLB, PB, SID predictor, prefetch walks) is busy.
//! * `base-1024` — Base on the same trace shape: no prefetch unit, demand
//!   walks and the PTB-full drop path do the work. A prefetch-layer change
//!   must not move it.
//! * `ht-100k` — `bench_scale`'s 100k-tenant point: a lazy, budgeted table
//!   pool that restamps and evicts, a 10⁵-entry SID map, and a 170 MiB
//!   working set far beyond L2.
//! * `ht-1024-storm` — `ht-1024` plus a seeded fault plan, so the caches
//!   take invalidations and migrations beside reads and the PRI retry path
//!   runs.

use std::time::Instant;

use hypersio_sim::{FaultPlan, SimParams, Simulation};
use hypersio_trace::{HyperTrace, HyperTraceBuilder, WorkloadKind};
use hypersio_types::{Did, SimDuration, SimTime};
use hypertrio_core::TranslationConfig;

/// `bench_scale`'s default page-table budget.
const TABLE_BUDGET_BYTES: u64 = 256 << 20;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// HyperTRIO, iperf3 RR1, 1024 tenants, eager tables.
    Ht1024,
    /// Base, iperf3 RR1, 1024 tenants, eager tables.
    Base1024,
    /// HyperTRIO, 100,000 tenants × 24 requests, lazy budgeted tables.
    Ht100k,
    /// `Ht1024` under invalidation storms, tenant churn and IO page faults.
    Ht1024Storm,
}

/// How long a workload's trace is: the measured shape, or a tiny one with
/// the same mechanisms for the in-process smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The shape the benchmark measures.
    Full,
    /// A few thousand packets, for tests in debug builds.
    Smoke,
}

impl Workload {
    /// Every workload, in the order they are listed in `BENCHMARK.json`.
    pub const ALL: [Workload; 4] = [
        Workload::Ht1024,
        Workload::Base1024,
        Workload::Ht100k,
        Workload::Ht1024Storm,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Ht1024 => "ht-1024",
            Workload::Base1024 => "base-1024",
            Workload::Ht100k => "ht-100k",
            Workload::Ht1024Storm => "ht-1024-storm",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The simulation this workload runs for `seed`: architecture, system
    /// parameters and trace builder. The seed feeds the trace and the
    /// fault plan; the simulator only sees the generated inputs.
    ///
    /// A rep is kept short (0.4–2 s on a 2-vCPU Xeon VM) so that one
    /// run holds many reps: the 1024-tenant traces are a quarter of a
    /// `scale(16)` run and `ht-100k` gives each tenant a quarter of
    /// `bench_scale`'s 24 requests. Host time per packet is the same at
    /// either length (the caches, tables and pool reach their steady state
    /// within the first pass over the tenants).
    pub fn spec(self, seed: u64, size: Size) -> RunSpec {
        let smoke = size == Size::Smoke;
        let iperf = |tenants: u32| HyperTraceBuilder::new(WorkloadKind::Iperf3, tenants).seed(seed);
        let warmup = if smoke { 200 } else { 2000 };
        // Trace-length divisor of the 1024-tenant workloads.
        let scale = |full: u64| if smoke { 2000 } else { full };
        match self {
            Workload::Ht1024 => RunSpec {
                config: TranslationConfig::hypertrio(),
                params: SimParams::paper().with_warmup(warmup),
                builder: iperf(1024).scale(scale(64)),
            },
            Workload::Base1024 => RunSpec {
                config: TranslationConfig::base(),
                params: SimParams::paper().with_warmup(warmup),
                builder: iperf(1024).scale(scale(32)),
            },
            Workload::Ht100k => {
                // The smoke shape keeps the mechanism — far more tenants
                // than the budget holds — at a size a debug build runs fast.
                let (tenants, budget) = if smoke {
                    (3000, 1 << 20)
                } else {
                    (100_000, TABLE_BUDGET_BYTES)
                };
                RunSpec {
                    config: TranslationConfig::hypertrio(),
                    params: SimParams::paper()
                        .with_warmup(warmup / 2)
                        .with_table_budget(budget),
                    builder: iperf(tenants).requests_per_tenant(6),
                }
            }
            Workload::Ht1024Storm => {
                // Global shootdowns every 500 µs of simulated time, two
                // tenant migrations, and 5% of pages not present at first
                // touch; the smoke shape compresses the schedule into its
                // shorter simulated time.
                let us = |full: u64| SimDuration::from_us(if smoke { full / 25 } else { full });
                let plan = FaultPlan::none()
                    .with_storm_period(us(500))
                    .with_fault_rate(0.05)
                    .with_pri_latency(SimDuration::from_us(10))
                    .with_churn(SimTime::ZERO + us(3_000), Did::new(5))
                    .with_churn(SimTime::ZERO + us(9_000), Did::new(77))
                    .with_seed(seed);
                RunSpec {
                    config: TranslationConfig::hypertrio(),
                    params: SimParams::paper().with_warmup(warmup).with_fault_plan(plan),
                    builder: iperf(1024).scale(scale(64)),
                }
            }
        }
    }
}

/// Everything one simulation of a workload needs.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// The architecture under test.
    pub config: TranslationConfig,
    /// System parameters (warm-up, table budget, fault plan).
    pub params: SimParams,
    /// The seeded trace builder.
    pub builder: HyperTraceBuilder,
}

impl RunSpec {
    /// Builds a fresh trace iterator.
    pub fn trace(&self) -> HyperTrace {
        self.builder.clone().build()
    }

    /// Builds a ready-to-run simulation and returns it with the set-up's
    /// host time in seconds: trace build plus `Simulation::new`.
    pub fn setup(&self) -> (Simulation, f64) {
        let start = Instant::now();
        let sim = Simulation::new(self.config.clone(), self.params.clone(), self.trace());
        (sim, start.elapsed().as_secs_f64())
    }
}
