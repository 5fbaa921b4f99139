//! Zero-cost observability for the HyperSIO simulator.
//!
//! The simulation loop is generic over an [`Observer`]; every emission
//! site is guarded by `if O::ENABLED`, a constant the compiler resolves
//! at monomorphization time. Running with [`NullObserver`] therefore
//! compiles to exactly the uninstrumented loop — same machine code shape,
//! same outputs, same speed — while swapping in a live observer captures
//! the full event stream with no changes to the model.
//!
//! The crate provides:
//!
//! - [`Event`] / [`EventKind`] — the structured lifecycle-event taxonomy
//!   (packet, PTB, DevTLB, Prefetch Buffer, page walk, prefetch).
//! - [`Observer`] — the sink trait, plus combinators: tuples fan out to
//!   two observers, `&mut O` forwards.
//! - [`CountingObserver`] — per-kind event counts that reconcile with the
//!   end-of-run `SimReport` aggregates.
//! - [`RingRecorder`] — bounded binary ring buffer of [`EventRecord`]s
//!   with a JSONL exporter.
//! - [`PacketSpan`] / [`SpanCollector`] / [`LatencyAttribution`] —
//!   per-packet lifecycle spans whose components sum exactly to the
//!   end-to-end latency, with a deterministic Chrome trace-event exporter
//!   ([`write_chrome_trace`], schema `hypersio-spans/v1`, Perfetto-ready)
//!   and an offline reconstructor ([`reconstruct_spans`]) over recorded
//!   event streams.
//! - [`TimeSeriesSampler`] — fixed-window time series (Gb/s, utilization,
//!   DevTLB hit rate, PTB/walker occupancy) with CSV/JSON export.
//! - [`jain_index`] — Jain's fairness index over per-tenant allocations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod observer;
mod ring;
mod span;
mod timeseries;

pub use event::{Event, EventKind, ALL_EVENT_KINDS, EVENT_KINDS};
pub use observer::{CountingObserver, NullObserver, Observer};
pub use ring::{EventRecord, RingRecorder, RECORD_BYTES};
pub use span::{
    reconstruct_spans, write_chrome_trace, ComponentSums, LatencyAttribution, PacketSpan,
    Reconstruction, SpanCollector, SpanComponents,
};
pub use timeseries::{TimeSeriesSampler, WindowRow};

/// Jain's fairness index over per-tenant allocations:
/// `(Σx)² / (n · Σx²)`.
///
/// Ranges from `1/n` (one tenant gets everything) to `1.0` (perfectly
/// equal shares). Returns `1.0` for an empty or all-zero slice — nothing
/// was allocated, so nothing was allocated unfairly.
///
/// # Examples
///
/// ```
/// use hypersio_obs::jain_index;
///
/// assert_eq!(jain_index(&[5.0, 5.0, 5.0, 5.0]), 1.0);
/// assert_eq!(jain_index(&[1.0, 0.0, 0.0, 0.0]), 0.25);
/// ```
pub fn jain_index(xs: &[f64]) -> f64 {
    let sum: f64 = xs.iter().sum();
    let sum_sq: f64 = xs.iter().map(|x| x * x).sum();
    if sum_sq == 0.0 {
        return 1.0;
    }
    (sum * sum) / (xs.len() as f64 * sum_sq)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jain_equal_shares_is_one() {
        assert!((jain_index(&[3.0, 3.0, 3.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn jain_single_hog_is_one_over_n() {
        let n = 8;
        let mut xs = vec![0.0; n];
        xs[2] = 42.0;
        assert!((jain_index(&xs) - 1.0 / n as f64).abs() < 1e-12);
    }

    #[test]
    fn jain_degenerate_inputs() {
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
    }

    #[test]
    fn jain_partial_skew_between_bounds() {
        let j = jain_index(&[4.0, 2.0, 1.0, 1.0]);
        assert!(j > 0.25 && j < 1.0);
    }
}
