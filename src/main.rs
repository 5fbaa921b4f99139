//! The `hypertrio` command-line tool: run simulations, sweeps, and trace
//! statistics from the shell. See [`cli::USAGE`] or `hypertrio help`.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::process::ExitCode;

use hypersio_sim::{
    run_sharded, sweep_specs_parallel, write_jsonl_many, FaultPlan, NullObserver, RingRecorder,
    RunControl, RunOutcome, ShardSupervision, Simulation, SpanCollector, SweepSpec,
    TimeSeriesSampler,
};
use hypersio_trace::HyperTraceBuilder;
use hypersio_types::SimDuration;
use hypertrio::cli::{self, Command, SimArgs};
use hypertrio::error::SimError;
use hypertrio_core::TranslationConfig;

/// SIGINT capture for graceful interruption (unix only): the handler just
/// flips an atomic the frame loop polls, so all real work — the checkpoint
/// write — happens on the main thread, outside signal context.
#[cfg(unix)]
mod sigint {
    use std::sync::atomic::{AtomicBool, Ordering};

    static STOP: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_sigint(_signum: i32) {
        // Only async-signal-safe work here: one atomic store.
        STOP.store(true, Ordering::SeqCst);
    }

    extern "C" {
        // libc's signal(2); no external crate, no wrapper.
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    const SIGINT: i32 = 2;

    /// Installs the flag-setting handler (replacing default termination).
    pub fn install() {
        unsafe {
            signal(SIGINT, on_sigint);
        }
    }

    /// True once SIGINT has arrived.
    pub fn pending() -> bool {
        STOP.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod sigint {
    /// No signal handling off unix: Ctrl-C terminates as usual and the
    /// last periodic checkpoint is the resume point.
    pub fn install() {}

    /// Never true without a handler.
    pub fn pending() -> bool {
        false
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match cli::parse(&args) {
        Ok(Command::Help) => {
            print!("{}", cli::USAGE);
            Ok(())
        }
        Ok(Command::Configs) => {
            println!("{}", TranslationConfig::base());
            println!("{}", TranslationConfig::hypertrio());
            Ok(())
        }
        Ok(Command::Sim(args)) => run_sim(&args),
        Ok(Command::Sweep(args)) => {
            run_sweep(&args);
            Ok(())
        }
        Ok(Command::Trace(args)) => {
            run_trace(&args);
            Ok(())
        }
        Err(err) => Err(SimError::from(err)),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("error: {err}");
            ExitCode::FAILURE
        }
    }
}

fn trace_builder(args: &SimArgs) -> HyperTraceBuilder {
    HyperTraceBuilder::new(args.workload, args.tenants)
        .interleaving(args.interleaving)
        .scale(args.scale)
        .seed(args.seed)
}

/// Loads and parses `--fault-plan` (if given) and layers the command-line
/// overrides on top.
fn load_fault_plan(args: &SimArgs) -> Result<FaultPlan, SimError> {
    let file_plan = match args.fault_plan.as_ref() {
        None => None,
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|source| SimError::Io {
                path: path.clone(),
                source,
            })?;
            Some(
                FaultPlan::from_json(&text).map_err(|message| SimError::FaultPlan {
                    path: path.clone(),
                    message,
                })?,
            )
        }
    };
    args.assemble_fault_plan(file_plan).map_err(SimError::from)
}

/// The `sim` command. `--shards > 1` deals the tenants across independent
/// device queues, simulated on `--jobs` worker threads and merged
/// deterministically (bit-identical for any `--jobs`). A single queue
/// always runs through `Simulation::run_controlled` with exactly the
/// observers whose output was requested — none means the uninstrumented
/// `NullObserver` loop — so every output flag works alongside every
/// resilience flag the parser accepts, and an all-off control is the
/// plain run.
fn run_sim(args: &SimArgs) -> Result<(), SimError> {
    let config = args.config();
    println!("{config}");
    let params = args.params().with_fault_plan(load_fault_plan(args)?);
    let trace_cap = args.trace_out.as_ref().map(|_| args.trace_cap);
    // The parser admits time series and spans only on a single queue.
    let mut series = args.timeseries_out.as_ref().map(|_| {
        TimeSeriesSampler::new(
            args.window_us * 1_000_000,
            params.link.bytes_delivered(1).raw(),
            params.link.bandwidth().gbps(),
            config.ptb_entries as u64,
        )
    });
    // The span collector is per-tenant aware only when --per-tenant was
    // given, mirroring the report's own per-tenant gating.
    let mut spans = args.spans_out.as_ref().map(|_| {
        let collector = SpanCollector::new(args.spans_cap);
        if args.per_tenant {
            collector.with_per_tenant()
        } else {
            collector
        }
    });
    let (mut report, rings) = if args.shards > 1 {
        println!(
            "{} shards x {} worker thread(s)",
            args.shards,
            args.jobs.min(args.shards as usize)
        );
        // Supervision is armed by either flag; a bare --fail-shard still
        // gets the default retry budget so the injected panic is
        // survivable.
        let supervision =
            (args.max_shard_attempts.is_some() || args.fail_shard.is_some()).then(|| {
                ShardSupervision {
                    max_attempts: args.max_shard_attempts.unwrap_or(3),
                    // Workers snapshot in memory at this cadence so a retry
                    // resumes mid-shard instead of replaying from the start.
                    checkpoint_every: Some(SimDuration::from_us(100)),
                    fail_shard_once: args.fail_shard,
                }
            });
        run_sharded(
            &config,
            &params,
            &trace_builder(args),
            args.shards,
            args.jobs,
            trace_cap,
            supervision.as_ref(),
        )?
    } else {
        let mut ring = trace_cap.map(RingRecorder::new);
        let mut sim = Simulation::new(config, params, trace_builder(args).build());
        if let Some(path) = args.resume_from.as_ref() {
            let bytes = std::fs::read(path).map_err(|source| SimError::Io {
                path: path.clone(),
                source,
            })?;
            sim.resume_from_bytes(&bytes)
                .map_err(|source| SimError::Checkpoint {
                    path: path.clone(),
                    source,
                })?;
            eprintln!("resumed from checkpoint {path}");
        }
        let ckpt_path = args.checkpoint_out.as_ref();
        if ckpt_path.is_some() {
            sigint::install();
        }
        let mut sink = |bytes: Vec<u8>| {
            let path = ckpt_path.expect("sink armed only with a path");
            if let Err(err) = write_atomically(path, &bytes) {
                // A failed periodic snapshot must not kill a healthy run;
                // the previous checkpoint (if any) is still intact on disk.
                eprintln!("warning: could not write checkpoint {path}: {err}");
            }
        };
        let stop = sigint::pending;
        let mut ctl = RunControl {
            checkpoint_every: args.checkpoint_every_us.map(SimDuration::from_us),
            checkpoint_sink: ckpt_path.is_some().then_some(&mut sink as _),
            stop: ckpt_path.is_some().then_some(&stop as _),
            stop_after: args.stop_after_us.map(SimDuration::from_us),
            rss_limit_bytes: args.rss_limit_mb.map(|mb| mb << 20),
            panic_after_frames: None,
        };
        let outcome = match (ring.as_mut(), series.as_mut(), spans.as_mut()) {
            (None, None, None) => sim.run_controlled(&mut NullObserver, &mut ctl),
            (Some(r), None, None) => sim.run_controlled(r, &mut ctl),
            (None, Some(t), None) => sim.run_controlled(t, &mut ctl),
            (None, None, Some(s)) => sim.run_controlled(s, &mut ctl),
            (Some(r), Some(t), None) => sim.run_controlled(&mut (r, t), &mut ctl),
            (Some(r), None, Some(s)) => sim.run_controlled(&mut (r, s), &mut ctl),
            (None, Some(t), Some(s)) => sim.run_controlled(&mut (t, s), &mut ctl),
            (Some(r), Some(t), Some(s)) => sim.run_controlled(&mut (r, (t, s)), &mut ctl),
        };
        let rings: Vec<RingRecorder> = ring.into_iter().collect();
        match outcome {
            RunOutcome::Completed(report) => (*report, rings),
            RunOutcome::Interrupted { checkpoint } => {
                let path = ckpt_path.expect("interruption is only armed with --checkpoint-out");
                write_atomically(path, &checkpoint).map_err(|source| SimError::Io {
                    path: path.clone(),
                    source,
                })?;
                // The events recorded so far still go out: together with
                // the resumed run's trace they form exactly the
                // uninterrupted stream (part one ends at the checkpointed
                // frame boundary).
                write_event_trace(args, &rings)?;
                eprintln!(
                    "interrupted: checkpoint written to {path}; continue with \
                     --resume-from {path} (and the same run flags)"
                );
                return Ok(());
            }
        }
    };
    // Attach the breakdown before any rendering so the printed report and
    // the JSON file agree.
    if let Some(collector) = spans.as_ref() {
        report.latency_breakdown = Some(collector.attribution().clone());
    }
    println!("{report}");

    write_event_trace(args, &rings)?;
    if let (Some(path), Some(series)) = (args.timeseries_out.as_ref(), series.as_ref()) {
        let body = if path.ends_with(".json") {
            series.to_json()
        } else {
            series.to_csv()
        };
        write_file(path, |w| w.write_all(body.as_bytes()))?;
        eprintln!(
            "wrote time series to {path} ({} windows)",
            series.rows().len()
        );
    }
    if let (Some(path), Some(collector)) = (args.spans_out.as_ref(), spans.as_ref()) {
        write_file(path, |w| collector.write_chrome_trace(w))?;
        eprintln!(
            "wrote packet spans to {path} ({} spans, {} overwritten)",
            collector.len(),
            collector.overwritten()
        );
    }
    if let Some(path) = args.report_json.as_ref() {
        write_file(path, |w| w.write_all(report.to_json().as_bytes()))?;
        eprintln!("wrote report JSON to {path}");
    }
    Ok(())
}

/// Writes the `--trace-out` event stream, if requested: one ring per
/// shard (one for a single queue) merged in shard order.
fn write_event_trace(args: &SimArgs, rings: &[RingRecorder]) -> Result<(), SimError> {
    let Some(path) = args.trace_out.as_ref() else {
        return Ok(());
    };
    write_file(path, |w| write_jsonl_many(rings, w))?;
    let recorded: usize = rings.iter().map(RingRecorder::len).sum();
    let overwritten: u64 = rings.iter().map(RingRecorder::overwritten).sum();
    eprintln!("wrote event trace to {path} ({recorded} events, {overwritten} overwritten)");
    Ok(())
}

/// Writes `bytes` via a temporary file and rename, so an interrupt or
/// crash mid-write can never corrupt the previous checkpoint at `path`.
fn write_atomically(path: &str, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

/// Writes a file through the closure, mapping I/O failures to [`SimError`].
fn write_file<F>(path: &str, write: F) -> Result<(), SimError>
where
    F: FnOnce(&mut BufWriter<File>) -> std::io::Result<()>,
{
    let attempt = || -> std::io::Result<()> {
        let mut w = BufWriter::new(File::create(path)?);
        write(&mut w)?;
        w.flush()
    };
    attempt().map_err(|source| SimError::Io {
        path: path.to_string(),
        source,
    })
}

fn run_sweep(args: &SimArgs) {
    let config = args.config();
    println!("{config}");
    let spec = SweepSpec::new(args.workload, config, args.scale)
        .with_interleaving(args.interleaving)
        .with_params(args.params())
        .with_seed(args.seed);
    let counts: Vec<u32> = hypersio_sim::PAPER_TENANT_COUNTS
        .into_iter()
        .filter(|&t| t <= args.tenants)
        .collect();
    // Sweep points are independent simulations; the parallel path is
    // bit-identical to a serial sweep for any --jobs value.
    for point in sweep_specs_parallel(&[spec], &counts, args.jobs).remove(0) {
        println!("{point}");
    }
}

fn run_trace(args: &SimArgs) {
    let trace = trace_builder(args).build();
    println!(
        "{} tenants, {} interleaving, scale {}",
        trace.tenants(),
        trace.interleaving(),
        args.scale
    );
    println!("{}", trace.stats());
}
