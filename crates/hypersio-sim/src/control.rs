//! Run control for production-length simulations: periodic checkpoints,
//! cooperative interruption, and the RSS watchdog.
//!
//! A [`RunControl`] is polled by [`Simulation::run_controlled`] at every
//! batch-frame boundary — the only point where the pipeline's per-packet
//! scratch state is quiescent and a checkpoint is well-defined (see
//! `DESIGN.md` §16). Every knob defaults to off, and an all-default
//! control leaves the run bit-identical to [`Simulation::run_with`].
//!
//! [`Simulation::run_controlled`]: crate::Simulation::run_controlled
//! [`Simulation::run_with`]: crate::Simulation::run_with

use hypersio_types::SimDuration;

use crate::report::SimReport;

/// How many frames pass between RSS watchdog polls. Reading
/// `/proc/self/status` is cheap but not free; at 8 arrival slots per frame
/// this samples every 512 slots.
pub(crate) const RSS_CHECK_FRAMES: u64 = 64;

/// Knobs for a controlled run. All default to off; see the module docs.
#[derive(Default)]
pub struct RunControl<'a> {
    /// Checkpoint cadence in *simulated* time. At the first frame boundary
    /// at or past each cadence tick, the run snapshots itself and hands
    /// the encoded bytes to [`RunControl::checkpoint_sink`]. Cadence ticks
    /// are anchored at simulated time zero, so a resumed run checkpoints
    /// at the same boundaries as the original.
    pub checkpoint_every: Option<SimDuration>,
    /// Receives each periodic checkpoint (`hypersio-checkpoint/v1` bytes).
    /// The sink must not panic; persisting to disk should write to a
    /// temporary file and rename, so an interrupt mid-write never corrupts
    /// the previous checkpoint.
    pub checkpoint_sink: Option<&'a mut dyn FnMut(Vec<u8>)>,
    /// Polled at every frame boundary; returning `true` stops the run and
    /// yields [`RunOutcome::Interrupted`] with a checkpoint taken at that
    /// exact boundary. Typically backed by an `AtomicBool` flipped from a
    /// SIGINT handler.
    pub stop: Option<&'a dyn Fn() -> bool>,
    /// Stop at the first frame boundary at or past this *simulated* time,
    /// exactly as if [`RunControl::stop`] had fired there. Unlike a
    /// wall-clock signal this is deterministic, which is what the
    /// interrupt-resume byte-compare tests (and the `resume` section of
    /// `scripts/smoke.sh`) need.
    pub stop_after: Option<SimDuration>,
    /// Resident-set-size limit in bytes. Polled every
    /// `RSS_CHECK_FRAMES` (64) frames; when the process RSS exceeds the
    /// limit, the run sheds re-derivable memory (lazy page-table
    /// residency, the walk memo) and emits
    /// [`Event::MemoryPressure`](hypersio_obs::Event::MemoryPressure).
    /// Shedding is model-transparent — the report stays bit-identical —
    /// but the watchdog reads wall-clock process state, so the *event
    /// stream* gains pressure events that depend on the host.
    pub rss_limit_bytes: Option<u64>,
    /// Test knob: panic after this many frames (first attempt only in the
    /// shard supervisor). Exists so panic containment and retry can be
    /// exercised deterministically; never set it in production runs.
    pub panic_after_frames: Option<u64>,
}

/// Outcome of [`Simulation::run_controlled`].
///
/// [`Simulation::run_controlled`]: crate::Simulation::run_controlled
pub enum RunOutcome {
    /// The trace ran to completion.
    Completed(Box<SimReport>),
    /// The stop flag was raised; the run state was captured at the frame
    /// boundary where it stopped. Resuming from this checkpoint replays
    /// the rest of the run bit-identically.
    Interrupted {
        /// Encoded `hypersio-checkpoint/v1` bytes.
        checkpoint: Vec<u8>,
    },
}

/// Current resident-set size of this process in bytes, read from
/// `/proc/self/status` (`VmRSS`). `None` where procfs is unavailable.
pub fn current_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rss_probe_reads_a_live_value_on_linux() {
        if !std::path::Path::new("/proc/self/status").exists() {
            return;
        }
        let rss = current_rss_bytes().expect("procfs is mounted");
        // A running test binary holds at least a page and less than a TiB.
        assert!(rss > 4096 && rss < (1 << 40), "implausible RSS {rss}");
    }

    #[test]
    fn default_control_is_fully_off() {
        let ctl = RunControl::default();
        assert!(ctl.checkpoint_every.is_none());
        assert!(ctl.checkpoint_sink.is_none());
        assert!(ctl.stop.is_none());
        assert!(ctl.stop_after.is_none());
        assert!(ctl.rss_limit_bytes.is_none());
        assert!(ctl.panic_after_frames.is_none());
    }
}
