//! Command-line interface for the `hypertrio` binary.
//!
//! Hand-rolled argument parsing (no external dependencies): subcommands
//! with `--flag value` options, each mapping onto the library API.

use std::fmt;

use hypersio_cache::PolicyKind;
use hypersio_sim::{FaultPlan, SimParams, WalkGeometry, MAX_PRI_LATENCY_US, PAPER_TENANT_COUNTS};
use hypersio_trace::{Interleaving, WorkloadKind};
use hypersio_types::SimDuration;
use hypertrio_core::TranslationConfig;

/// A parsed invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run one simulation and print the report.
    Sim(SimArgs),
    /// Sweep tenant counts and print a bandwidth table.
    Sweep(SimArgs),
    /// Print Table III-style statistics for a trace.
    Trace(SimArgs),
    /// Print the Base and HyperTRIO configuration presets.
    Configs,
    /// Print usage help.
    Help,
}

/// A DevTLB replacement-policy override, fully validated at parse time
/// (so building the configuration can never fail on a policy name).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyChoice {
    /// Least-recently-used replacement.
    Lru,
    /// Least-frequently-used replacement.
    Lfu,
    /// First-in-first-out replacement.
    Fifo,
    /// Seeded random replacement (uses the trace seed).
    Random,
}

impl PolicyChoice {
    /// Parses a `--policy` value.
    fn parse(value: &str) -> Option<Self> {
        match value {
            "lru" => Some(PolicyChoice::Lru),
            "lfu" => Some(PolicyChoice::Lfu),
            "fifo" => Some(PolicyChoice::Fifo),
            "random" => Some(PolicyChoice::Random),
            _ => None,
        }
    }
}

/// Options shared by `sim`, `sweep`, and `trace`.
#[derive(Debug, Clone, PartialEq)]
pub struct SimArgs {
    /// Workload to generate.
    pub workload: WorkloadKind,
    /// Tenant count (the sweep's maximum for `sweep`).
    pub tenants: u32,
    /// Architecture preset: false = Base, true = HyperTRIO.
    pub hypertrio: bool,
    /// Two-stage walk geometry (`--arch`): x86 nested 4-/5-level or
    /// RISC-V Sv39x4/Sv48x4.
    pub arch: WalkGeometry,
    /// Trace-shortening factor.
    pub scale: u64,
    /// Trace seed.
    pub seed: u64,
    /// Interleaving.
    pub interleaving: Interleaving,
    /// DevTLB replacement policy override.
    pub policy: Option<PolicyChoice>,
    /// Warm-up packets excluded from the bandwidth measurement.
    pub warmup: u64,
    /// Worker threads for `sweep` (each sweep point is an independent
    /// simulation; results are bit-identical to a serial sweep).
    pub jobs: usize,
    /// Page-table budget, in MiB, that sizes the lazy table pool's
    /// residency cap. `None` keeps the eager (all-resident) pool.
    pub table_budget_mb: Option<u64>,
    /// Collect per-tenant statistics and print the fairness table (`sim`).
    pub per_tenant: bool,
    /// Write a JSONL event trace to this path (`sim`).
    pub trace_out: Option<String>,
    /// Event-trace ring capacity: the most recent N events are kept.
    pub trace_cap: usize,
    /// Write a windowed time series to this path (`sim`; CSV by default,
    /// JSON when the path ends in `.json`).
    pub timeseries_out: Option<String>,
    /// Time-series window length in simulated microseconds.
    pub window_us: u64,
    /// Write the machine-readable `sim_report/v1` JSON to this path (`sim`).
    pub report_json: Option<String>,
    /// Write per-packet lifecycle spans as Chrome trace-event JSON
    /// (`hypersio-spans/v1`, loadable in Perfetto) to this path (`sim`).
    /// Also attaches the `latency_breakdown` block to the report.
    pub spans_out: Option<String>,
    /// Span ring capacity: the most recent N packet spans are exported
    /// (the latency breakdown always covers every packet).
    pub spans_cap: usize,
    /// Periodic checkpoint cadence in simulated microseconds (`sim`).
    /// Requires `--checkpoint-out`.
    pub checkpoint_every_us: Option<u64>,
    /// Write `hypersio-checkpoint/v1` snapshots to this path (`sim`).
    /// Also arms the SIGINT handler: Ctrl-C stops the run at the next
    /// frame boundary and writes a final checkpoint here.
    pub checkpoint_out: Option<String>,
    /// Resume a `sim` run from a checkpoint file written by
    /// `--checkpoint-out`. The other flags must rebuild the same run
    /// (config, tenants, seed, fault plan, ...); a mismatch is rejected.
    pub resume_from: Option<String>,
    /// Stop gracefully at the first frame boundary at or past this
    /// simulated time (microseconds), exactly as if SIGINT had arrived
    /// there — but deterministically. Requires `--checkpoint-out`.
    pub stop_after_us: Option<u64>,
    /// RSS watchdog limit in MiB (`sim`): when the process grows past
    /// this, re-derivable memory (lazy page-table residency, the walk
    /// memo) is shed. The report is unaffected.
    pub rss_limit_mb: Option<u64>,
    /// Load a declarative `fault_plan/v1` JSON file (`sim`).
    pub fault_plan: Option<String>,
    /// Override/add a periodic global invalidation storm, period in
    /// simulated microseconds (`sim`).
    pub inv_storm_us: Option<u64>,
    /// Override the fraction of pages that start unmapped (`sim`).
    pub fault_rate: Option<f64>,
    /// Override the PRI page-request service latency in microseconds
    /// (`sim`).
    pub pri_latency_us: Option<f64>,
}

impl Default for SimArgs {
    fn default() -> Self {
        SimArgs {
            workload: WorkloadKind::Iperf3,
            tenants: 64,
            hypertrio: true,
            arch: WalkGeometry::X86Nested4,
            scale: 200,
            seed: 0,
            interleaving: Interleaving::round_robin(1),
            policy: None,
            warmup: 1000,
            jobs: default_jobs(),
            table_budget_mb: None,
            per_tenant: false,
            trace_out: None,
            trace_cap: 65536,
            timeseries_out: None,
            window_us: 10,
            report_json: None,
            spans_out: None,
            spans_cap: 65536,
            checkpoint_every_us: None,
            checkpoint_out: None,
            resume_from: None,
            stop_after_us: None,
            rss_limit_mb: None,
            fault_plan: None,
            inv_storm_us: None,
            fault_rate: None,
            pri_latency_us: None,
        }
    }
}

/// Default worker count: every available core.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1)
}

impl SimArgs {
    /// Builds the translation configuration these arguments select.
    pub fn config(&self) -> TranslationConfig {
        let mut config = if self.hypertrio {
            TranslationConfig::hypertrio()
        } else {
            TranslationConfig::base()
        };
        if let Some(policy) = self.policy {
            let kind = match policy {
                PolicyChoice::Lru => PolicyKind::Lru,
                PolicyChoice::Lfu => PolicyKind::Lfu,
                PolicyChoice::Fifo => PolicyKind::Fifo,
                PolicyChoice::Random => PolicyKind::Random { seed: self.seed },
            };
            config = config.with_devtlb_policy(kind);
        }
        config
    }

    /// True when any fault-injection input was given on the command line.
    pub fn wants_faults(&self) -> bool {
        self.fault_plan.is_some()
            || self.inv_storm_us.is_some()
            || self.fault_rate.is_some()
            || self.pri_latency_us.is_some()
    }

    /// Assembles the run's [`FaultPlan`]: the loaded plan file (if any,
    /// already parsed by the caller) with the command-line overrides
    /// applied on top. Returns `FaultPlan::none()` untouched when no
    /// fault-injection input was given, so fault-free runs stay
    /// byte-identical.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] when the combined plan fails validation.
    pub fn assemble_fault_plan(
        &self,
        file_plan: Option<FaultPlan>,
    ) -> Result<FaultPlan, ParseError> {
        if !self.wants_faults() {
            return Ok(FaultPlan::none());
        }
        let mut plan = file_plan.unwrap_or_else(|| FaultPlan::none().with_seed(self.seed));
        if let Some(period_us) = self.inv_storm_us {
            plan = plan.with_storm_period(SimDuration::from_us(period_us));
        }
        if let Some(rate) = self.fault_rate {
            plan = plan.with_fault_rate(rate);
        }
        if let Some(latency_us) = self.pri_latency_us {
            plan = plan.with_pri_latency(SimDuration::from_ps((latency_us * 1e6) as u64));
        }
        plan.validate()
            .map_err(|e| ParseError(format!("invalid fault plan: {e}")))?;
        Ok(plan)
    }

    /// Builds the simulator parameters these arguments select.
    pub fn params(&self) -> SimParams {
        let mut params = SimParams::paper()
            .with_arch(self.arch)
            .with_warmup(self.warmup);
        if self.per_tenant {
            params = params.with_per_tenant();
        }
        if let Some(mb) = self.table_budget_mb {
            params = params.with_table_budget(mb << 20);
        }
        params
    }
}

/// A parse failure with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

/// Usage text printed by `hypertrio help`.
pub const USAGE: &str = "\
hypertrio — HyperTRIO/HyperSIO simulator (ISCA 2020 reproduction)

USAGE:
    hypertrio <COMMAND> [OPTIONS]

COMMANDS:
    sim       run one simulation and print the full report
    sweep     sweep tenant counts (4..TENANTS) and print a bandwidth table
    trace     print Table III-style request statistics for a trace
    configs   print the Base and HyperTRIO presets (Table IV)
    help      print this help

OPTIONS (sim / sweep / trace):
    --workload <iperf3|mediastream|websearch>   workload model  [iperf3]
    --tenants <N>                               tenant count    [64]
    --config <base|hypertrio>                   architecture    [hypertrio]
    --arch <x86-4|x86-5|sv39x4|sv48x4>          walk geometry   [x86-4]
    --scale <N>            divide Table III request counts      [200]
    --seed <N>             trace seed                           [0]
    --interleave <rr1|rr4|rand1>                tenant order    [rr1]
    --policy <lru|lfu|fifo|random>              DevTLB policy   [preset]
    --warmup <N>           packets excluded from measurement    [1000]
    --jobs <N>             worker threads for sweep points
                           (results are identical for any N)    [cores]

SCALE-OUT (sim only; results stay deterministic):
    --table-budget-mb <N>  stamp tenant page tables lazily on first touch
                           and LRU-evict them past N MiB counted at one
                           private table per tenant (a resident tenant
                           is a view of one shared build; the report is
                           bit-identical to the eager default)

OBSERVABILITY (sim only; no effect on the simulated behaviour):
    --per-tenant           collect per-DID stats + fairness summary
    --report-json <path>   write the machine-readable report (sim_report/v1)
    --trace-out <path>     write a JSONL event trace (hypersio-events/v1)
    --trace-cap <N>        event-trace ring capacity             [65536]
    --timeseries-out <path> write a windowed time series
                           (CSV, or JSON when path ends in .json)
    --window-us <N>        time-series window in simulated us    [10]
    --spans-out <path>     write per-packet lifecycle spans as Chrome
                           trace-event JSON (hypersio-spans/v1; open in
                           Perfetto) and add the latency_breakdown block
                           to the report
    --spans-cap <N>        span ring capacity (most recent N packets
                           exported; the breakdown covers all) [65536]

RESILIENCE (sim only; the report stays bit-identical):
    --checkpoint-out <path>   write hypersio-checkpoint/v1 snapshots here
                              and arm SIGINT: Ctrl-C stops at the next
                              frame boundary and writes a final checkpoint
    --checkpoint-every-us <N> also snapshot every N simulated us
                              (requires --checkpoint-out)
    --stop-after-us <N>       stop gracefully at N simulated us, exactly
                              like a (deterministic) SIGINT; requires
                              --checkpoint-out
    --resume-from <path>      resume an interrupted run; the other flags
                              must rebuild the same run (config, tenants,
                              seed, ...) or the file is rejected. The
                              resumed run replays the remainder exactly:
                              report and event tail are byte-identical to
                              an uninterrupted run
    --rss-limit-mb <N>        shed re-derivable memory (lazy page tables,
                              walk memo) when process RSS exceeds N MiB

FAULT INJECTION (sim only; deterministic, seeded):
    --fault-plan <path>    load a declarative fault_plan/v1 JSON file
    --inv-storm <N>        periodic global shootdown every N simulated us
    --fault-rate <F>       fraction of pages initially unmapped (0.0-1.0)
    --pri-latency-us <F>   PRI page-request service latency in us    [10]
";

/// Parses a `flag`'s value: a whole number of simulated microseconds, at
/// least 1, whose picosecond count fits the simulation clock.
fn positive_us(flag: &str, value: &str) -> Result<u64, ParseError> {
    let us: u64 = value
        .parse()
        .map_err(|e| ParseError(format!("bad {flag}: {e}")))?;
    if us == 0 {
        return Err(ParseError(format!("{flag} must be at least 1 (us)")));
    }
    if us.checked_mul(1_000_000).is_none() {
        return Err(ParseError(format!(
            "{flag} {us} overflows the picosecond clock"
        )));
    }
    Ok(us)
}

/// Parses a full argument vector (excluding the program name).
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first invalid token.
pub fn parse(args: &[String]) -> Result<Command, ParseError> {
    let mut it = args.iter();
    let command = match it.next().map(String::as_str) {
        None | Some("help") | Some("--help") | Some("-h") => return Ok(Command::Help),
        Some("configs") => return Ok(Command::Configs),
        Some(cmd @ ("sim" | "sweep" | "trace")) => cmd.to_string(),
        Some(other) => {
            return Err(ParseError(format!(
                "unknown command {other:?}; try `hypertrio help`"
            )));
        }
    };

    let mut parsed = SimArgs::default();
    while let Some(flag) = it.next() {
        // Boolean flags take no value token.
        if flag == "--per-tenant" {
            parsed.per_tenant = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| ParseError(format!("missing value for {flag}")))?;
        match flag.as_str() {
            "--workload" => {
                parsed.workload = match value.as_str() {
                    "iperf3" => WorkloadKind::Iperf3,
                    "mediastream" => WorkloadKind::Mediastream,
                    "websearch" => WorkloadKind::Websearch,
                    other => return Err(ParseError(format!("unknown workload {other:?}"))),
                };
            }
            "--tenants" => {
                parsed.tenants = value
                    .parse()
                    .map_err(|e| ParseError(format!("bad --tenants: {e}")))?;
                if parsed.tenants == 0 {
                    return Err(ParseError("--tenants must be at least 1".into()));
                }
            }
            "--config" => {
                parsed.hypertrio = match value.as_str() {
                    "base" => false,
                    "hypertrio" => true,
                    other => return Err(ParseError(format!("unknown config {other:?}"))),
                };
            }
            "--arch" => {
                parsed.arch = value
                    .parse()
                    .map_err(|e| ParseError(format!("bad --arch: {e}")))?;
            }
            "--scale" => {
                parsed.scale = value
                    .parse()
                    .map_err(|e| ParseError(format!("bad --scale: {e}")))?;
                if parsed.scale == 0 {
                    return Err(ParseError("--scale must be at least 1".into()));
                }
            }
            "--seed" => {
                parsed.seed = value
                    .parse()
                    .map_err(|e| ParseError(format!("bad --seed: {e}")))?;
            }
            "--interleave" => {
                parsed.interleaving = match value.as_str() {
                    "rr1" => Interleaving::round_robin(1),
                    "rr4" => Interleaving::round_robin(4),
                    // Seeded from the final --seed after the loop.
                    "rand1" => Interleaving::random(1, 0),
                    other => return Err(ParseError(format!("unknown interleaving {other:?}"))),
                };
            }
            "--policy" => match PolicyChoice::parse(value) {
                Some(choice) => parsed.policy = Some(choice),
                None => return Err(ParseError(format!("unknown policy {value:?}"))),
            },
            "--warmup" => {
                parsed.warmup = value
                    .parse()
                    .map_err(|e| ParseError(format!("bad --warmup: {e}")))?;
            }
            "--jobs" => {
                parsed.jobs = value
                    .parse()
                    .map_err(|e| ParseError(format!("bad --jobs: {e}")))?;
                if parsed.jobs == 0 {
                    return Err(ParseError("--jobs must be at least 1".into()));
                }
            }
            "--table-budget-mb" => {
                let mb: u64 = value
                    .parse()
                    .map_err(|e| ParseError(format!("bad --table-budget-mb: {e}")))?;
                if mb == 0 {
                    return Err(ParseError("--table-budget-mb must be at least 1".into()));
                }
                parsed.table_budget_mb = Some(mb);
            }
            "--trace-out" => parsed.trace_out = Some(value.clone()),
            "--trace-cap" => {
                parsed.trace_cap = value
                    .parse()
                    .map_err(|e| ParseError(format!("bad --trace-cap: {e}")))?;
                if parsed.trace_cap == 0 {
                    return Err(ParseError("--trace-cap must be at least 1".into()));
                }
            }
            "--timeseries-out" => parsed.timeseries_out = Some(value.clone()),
            "--window-us" => parsed.window_us = positive_us(flag, value)?,
            "--report-json" => parsed.report_json = Some(value.clone()),
            "--spans-out" => parsed.spans_out = Some(value.clone()),
            "--spans-cap" => {
                parsed.spans_cap = value
                    .parse()
                    .map_err(|e| ParseError(format!("bad --spans-cap: {e}")))?;
                if parsed.spans_cap == 0 {
                    return Err(ParseError("--spans-cap must be at least 1".into()));
                }
            }
            "--checkpoint-every-us" => parsed.checkpoint_every_us = Some(positive_us(flag, value)?),
            "--checkpoint-out" => parsed.checkpoint_out = Some(value.clone()),
            "--resume-from" => parsed.resume_from = Some(value.clone()),
            "--stop-after-us" => parsed.stop_after_us = Some(positive_us(flag, value)?),
            "--rss-limit-mb" => {
                let mb: u64 = value
                    .parse()
                    .map_err(|e| ParseError(format!("bad --rss-limit-mb: {e}")))?;
                if mb == 0 {
                    return Err(ParseError("--rss-limit-mb must be at least 1".into()));
                }
                parsed.rss_limit_mb = Some(mb);
            }
            "--fault-plan" => parsed.fault_plan = Some(value.clone()),
            "--inv-storm" => parsed.inv_storm_us = Some(positive_us(flag, value)?),
            "--fault-rate" => {
                let rate: f64 = value
                    .parse()
                    .map_err(|e| ParseError(format!("bad --fault-rate: {e}")))?;
                if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
                    return Err(ParseError(
                        "--fault-rate must be a fraction in 0.0 ..= 1.0".into(),
                    ));
                }
                parsed.fault_rate = Some(rate);
            }
            "--pri-latency-us" => {
                let latency: f64 = value
                    .parse()
                    .map_err(|e| ParseError(format!("bad --pri-latency-us: {e}")))?;
                if !latency.is_finite() || !(0.0..=MAX_PRI_LATENCY_US as f64).contains(&latency) {
                    return Err(ParseError(format!(
                        "--pri-latency-us must be a finite non-negative number of us, \
                         at most {MAX_PRI_LATENCY_US}"
                    )));
                }
                parsed.pri_latency_us = Some(latency);
            }
            other => return Err(ParseError(format!("unknown option {other:?}"))),
        }
    }

    // Cross-flag settings and constraints, applied after the loop so flag
    // order never matters.
    if let Interleaving::Random { burst, .. } = parsed.interleaving {
        parsed.interleaving = Interleaving::random(burst, parsed.seed);
    }
    let min_sweep = PAPER_TENANT_COUNTS[0];
    if command == "sweep" && parsed.tenants < min_sweep {
        return Err(ParseError(format!(
            "sweep --tenants must be at least {min_sweep}, the smallest sweep point"
        )));
    }
    if parsed.checkpoint_every_us.is_some() && parsed.checkpoint_out.is_none() {
        return Err(ParseError(
            "--checkpoint-every-us needs --checkpoint-out (where should the \
             snapshots go?)"
                .into(),
        ));
    }
    if parsed.stop_after_us.is_some() && parsed.checkpoint_out.is_none() {
        return Err(ParseError(
            "--stop-after-us needs --checkpoint-out (the stop writes a \
             checkpoint to resume from)"
                .into(),
        ));
    }
    let wants_checkpointing = parsed.checkpoint_out.is_some() || parsed.resume_from.is_some();
    if wants_checkpointing && parsed.timeseries_out.is_some() {
        return Err(ParseError(
            "--timeseries-out cannot be combined with checkpoint/resume: \
             sampler windows are not part of the snapshot, so the resumed \
             series would silently miss the pre-interrupt windows"
                .into(),
        ));
    }
    if wants_checkpointing && parsed.spans_out.is_some() {
        return Err(ParseError(
            "--spans-out cannot be combined with checkpoint/resume: open \
             span state is not part of the snapshot, so resumed spans would \
             be silently incomplete"
                .into(),
        ));
    }

    Ok(match command.as_str() {
        "sim" => Command::Sim(parsed),
        "sweep" => Command::Sweep(parsed),
        "trace" => Command::Trace(parsed),
        _ => unreachable!("command validated above"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn empty_and_help_aliases() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&argv("help")).unwrap(), Command::Help);
        assert_eq!(parse(&argv("--help")).unwrap(), Command::Help);
        assert_eq!(parse(&argv("-h")).unwrap(), Command::Help);
    }

    #[test]
    fn defaults_apply() {
        let Command::Sim(args) = parse(&argv("sim")).unwrap() else {
            panic!("expected sim");
        };
        assert_eq!(args, SimArgs::default());
    }

    #[test]
    fn full_option_set_parses() {
        let cmd = parse(&argv(
            "sweep --workload websearch --tenants 256 --config base --scale 50 \
             --seed 9 --interleave rr4 --policy lfu --warmup 500 --jobs 3",
        ))
        .unwrap();
        let Command::Sweep(args) = cmd else {
            panic!("expected sweep");
        };
        assert_eq!(args.workload, WorkloadKind::Websearch);
        assert_eq!(args.tenants, 256);
        assert!(!args.hypertrio);
        assert_eq!(args.scale, 50);
        assert_eq!(args.seed, 9);
        assert_eq!(args.interleaving, Interleaving::round_robin(4));
        assert_eq!(args.policy, Some(PolicyChoice::Lfu));
        assert_eq!(args.warmup, 500);
        assert_eq!(args.jobs, 3);
    }

    #[test]
    fn jobs_defaults_to_cores_and_rejects_zero() {
        let Command::Sim(args) = parse(&argv("sim")).unwrap() else {
            panic!("expected sim");
        };
        assert_eq!(args.jobs, default_jobs());
        assert!(args.jobs >= 1);
        let err = parse(&argv("sweep --jobs 0")).unwrap_err();
        assert!(err.0.contains("at least 1"));
    }

    #[test]
    fn rand_interleave_uses_seed() {
        let cmd = parse(&argv("sim --seed 5 --interleave rand1")).unwrap();
        let Command::Sim(args) = cmd else {
            panic!("expected sim");
        };
        assert_eq!(args.interleaving, Interleaving::random(1, 5));
    }

    #[test]
    fn rand_interleave_seed_ignores_flag_order() {
        let seed_first = parse(&argv("sim --tenants 16 --seed 5 --interleave rand1")).unwrap();
        let seed_last = parse(&argv("sim --tenants 16 --interleave rand1 --seed 5")).unwrap();
        assert_eq!(seed_first, seed_last);
    }

    #[test]
    fn errors_are_descriptive() {
        for (input, needle) in [
            ("frobnicate", "unknown command"),
            ("sim --workload dns", "unknown workload"),
            ("sim --tenants", "missing value"),
            ("sim --tenants x", "bad --tenants"),
            ("sim --tenants 0", "at least 1"),
            ("sim --scale 0", "at least 1"),
            ("sim --config weird", "unknown config"),
            ("sim --arch sv57", "bad --arch"),
            ("sim --arch sv57", "sv39x4"),
            ("sim --arch", "missing value"),
            ("sim --interleave rr9", "unknown interleaving"),
            ("sim --policy belady", "unknown policy"),
            ("sim --frob 1", "unknown option"),
            ("sim --inv-storm 0", "at least 1"),
            ("sim --inv-storm x", "bad --inv-storm"),
            ("sim --inv-storm 18446744073709551615", "overflows"),
            ("sim --fault-rate 1.5", "0.0 ..= 1.0"),
            ("sim --fault-rate NaN", "0.0 ..= 1.0"),
            ("sim --fault-rate x", "bad --fault-rate"),
            ("sim --pri-latency-us -3", "non-negative"),
            ("sim --pri-latency-us inf", "non-negative"),
            ("sim --fault-plan", "missing value"),
            ("sweep --tenants 3", "at least 4"),
            ("sim --shards 2", "unknown option"),
            ("sim --max-shard-attempts 2", "unknown option"),
            ("sim --fail-shard 0", "unknown option"),
        ] {
            let err = parse(&argv(input)).unwrap_err();
            assert!(
                err.0.contains(needle),
                "input {input:?}: expected {needle:?} in {err}"
            );
        }
    }

    #[test]
    fn config_selection_and_policy_override() {
        let Command::Sim(args) = parse(&argv("sim --config base --policy lru")).unwrap() else {
            panic!();
        };
        let config = args.config();
        assert_eq!(config.devtlb_policy.name(), "LRU");
        assert_eq!(config.ptb_entries, 1);
        let Command::Sim(args) = parse(&argv("sim --config hypertrio")).unwrap() else {
            panic!();
        };
        assert_eq!(args.config().ptb_entries, 32);
    }

    #[test]
    fn params_carry_warmup() {
        let Command::Sim(args) = parse(&argv("sim --warmup 42")).unwrap() else {
            panic!();
        };
        assert_eq!(args.params().warmup_packets, 42);
    }

    #[test]
    fn arch_flag_selects_the_geometry() {
        let Command::Sim(args) = parse(&argv("sim")).unwrap() else {
            panic!();
        };
        assert_eq!(args.arch, WalkGeometry::X86Nested4);
        assert_eq!(args.params().walk_geometry, WalkGeometry::X86Nested4);
        for g in WalkGeometry::ALL {
            let line = format!("sim --arch {g}");
            let Command::Sim(args) = parse(&argv(&line)).unwrap() else {
                panic!();
            };
            assert_eq!(args.arch, g);
            assert_eq!(args.params().walk_geometry, g);
        }
    }

    #[test]
    fn observability_flags_parse() {
        let Command::Sim(args) = parse(&argv(
            "sim --per-tenant --trace-out /tmp/ev.jsonl --trace-cap 128 \
             --timeseries-out ts.csv --window-us 5 --report-json out.json \
             --spans-out spans.json --spans-cap 512",
        ))
        .unwrap() else {
            panic!("expected sim");
        };
        assert!(args.per_tenant);
        assert_eq!(args.trace_out.as_deref(), Some("/tmp/ev.jsonl"));
        assert_eq!(args.trace_cap, 128);
        assert_eq!(args.timeseries_out.as_deref(), Some("ts.csv"));
        assert_eq!(args.window_us, 5);
        assert_eq!(args.report_json.as_deref(), Some("out.json"));
        assert_eq!(args.spans_out.as_deref(), Some("spans.json"));
        assert_eq!(args.spans_cap, 512);
        assert!(args.params().per_tenant);
        // Spans off by default.
        assert_eq!(SimArgs::default().spans_out, None);
        assert_eq!(SimArgs::default().spans_cap, 65536);
    }

    #[test]
    fn per_tenant_is_a_bare_flag() {
        // Takes no value: the next token must still be parsed as a flag.
        let Command::Sim(args) = parse(&argv("sim --per-tenant --tenants 8")).unwrap() else {
            panic!("expected sim");
        };
        assert!(args.per_tenant);
        assert_eq!(args.tenants, 8);
        // And off by default (also off in params()).
        assert!(!SimArgs::default().per_tenant);
        assert!(!SimArgs::default().params().per_tenant);
    }

    #[test]
    fn observability_flag_errors() {
        for (input, needle) in [
            ("sim --trace-cap 0", "at least 1"),
            ("sim --window-us 0", "at least 1"),
            ("sim --window-us 18446744073709551615", "overflows"),
            ("sim --spans-cap 0", "at least 1"),
            ("sim --spans-cap x", "bad --spans-cap"),
            ("sim --trace-out", "missing value"),
            ("sim --report-json", "missing value"),
            ("sim --spans-out", "missing value"),
        ] {
            let err = parse(&argv(input)).unwrap_err();
            assert!(
                err.0.contains(needle),
                "input {input:?}: expected {needle:?} in {err}"
            );
        }
    }

    #[test]
    fn scale_out_flags_parse_and_wire_params() {
        let Command::Sim(args) = parse(&argv("sim --tenants 64 --table-budget-mb 256")).unwrap()
        else {
            panic!("expected sim");
        };
        assert_eq!(args.table_budget_mb, Some(256));
        assert_eq!(args.params().table_budget, Some(256 << 20));
        // Default: eager tables.
        assert_eq!(SimArgs::default().params().table_budget, None);
    }

    #[test]
    fn scale_out_flag_errors() {
        for (input, needle) in [
            ("sim --table-budget-mb 0", "at least 1"),
            ("sim --table-budget-mb x", "bad --table-budget-mb"),
        ] {
            let err = parse(&argv(input)).unwrap_err();
            assert!(
                err.0.contains(needle),
                "input {input:?}: expected {needle:?} in {err}"
            );
        }
    }

    #[test]
    fn resilience_flags_parse() {
        let Command::Sim(args) = parse(&argv(
            "sim --checkpoint-out ck.bin --checkpoint-every-us 500 --rss-limit-mb 2048",
        ))
        .unwrap() else {
            panic!("expected sim");
        };
        assert_eq!(args.checkpoint_out.as_deref(), Some("ck.bin"));
        assert_eq!(args.checkpoint_every_us, Some(500));
        assert_eq!(args.rss_limit_mb, Some(2048));
        let Command::Sim(args) = parse(&argv("sim --resume-from ck.bin")).unwrap() else {
            panic!("expected sim");
        };
        assert_eq!(args.resume_from.as_deref(), Some("ck.bin"));
        // All off by default: the plain run stays byte-identical.
        let d = SimArgs::default();
        assert_eq!(
            (
                d.checkpoint_every_us,
                d.checkpoint_out,
                d.resume_from,
                d.rss_limit_mb
            ),
            (None, None, None, None)
        );
    }

    #[test]
    fn resilience_flag_errors() {
        for (input, needle) in [
            ("sim --checkpoint-every-us 0", "at least 1"),
            ("sim --checkpoint-every-us x", "bad --checkpoint-every-us"),
            ("sim --checkpoint-every-us 5", "needs --checkpoint-out"),
            ("sim --stop-after-us 0", "at least 1"),
            (
                "sim --checkpoint-out c.bin --stop-after-us 18446744073709551615",
                "overflows",
            ),
            (
                "sim --checkpoint-out c.bin --checkpoint-every-us 18446744073709551615",
                "overflows",
            ),
            ("sim --stop-after-us 5", "needs --checkpoint-out"),
            ("sim --rss-limit-mb 0", "at least 1"),
            (
                "sim --checkpoint-out c.bin --timeseries-out t.csv",
                "cannot",
            ),
            ("sim --resume-from c.bin --spans-out s.json", "cannot"),
        ] {
            let err = parse(&argv(input)).unwrap_err();
            assert!(
                err.0.contains(needle),
                "input {input:?}: expected {needle:?} in {err}"
            );
        }
        // Checkpointing composes with the event ring: the resumed tail
        // concatenates with the interrupted head.
        assert!(parse(&argv("sim --checkpoint-out c.bin --trace-out ev.jsonl")).is_ok());
        assert!(parse(&argv("sim --resume-from c.bin --trace-out ev.jsonl")).is_ok());
    }

    #[test]
    fn configs_command() {
        assert_eq!(parse(&argv("configs")).unwrap(), Command::Configs);
    }

    #[test]
    fn fault_flags_parse_and_assemble() {
        let Command::Sim(args) = parse(&argv(
            "sim --seed 7 --inv-storm 50 --fault-rate 0.02 --pri-latency-us 2.5",
        ))
        .unwrap() else {
            panic!("expected sim");
        };
        assert_eq!(args.inv_storm_us, Some(50));
        assert_eq!(args.fault_rate, Some(0.02));
        assert_eq!(args.pri_latency_us, Some(2.5));
        assert!(args.wants_faults());
        let plan = args.assemble_fault_plan(None).unwrap();
        assert!(!plan.is_none());
        assert_eq!(plan.fault_rate, 0.02);
        assert_eq!(plan.storm_period, Some(SimDuration::from_us(50)));
        assert_eq!(plan.pri_latency, SimDuration::from_ps(2_500_000));
        assert_eq!(plan.seed, 7, "plan seed defaults to the trace seed");
    }

    #[test]
    fn no_fault_flags_assemble_to_the_none_plan() {
        let Command::Sim(args) = parse(&argv("sim --seed 9")).unwrap() else {
            panic!("expected sim");
        };
        assert!(!args.wants_faults());
        let plan = args.assemble_fault_plan(None).unwrap();
        assert!(plan.is_none(), "fault-free runs must stay byte-identical");
    }

    #[test]
    fn overrides_apply_on_top_of_a_file_plan() {
        let file = FaultPlan::none().with_fault_rate(0.5).with_seed(99);
        let Command::Sim(args) = parse(&argv("sim --fault-plan p.json --fault-rate 0.1")).unwrap()
        else {
            panic!("expected sim");
        };
        let plan = args.assemble_fault_plan(Some(file)).unwrap();
        assert_eq!(plan.fault_rate, 0.1, "the flag wins over the file");
        assert_eq!(plan.seed, 99, "untouched file fields survive");
    }
}
