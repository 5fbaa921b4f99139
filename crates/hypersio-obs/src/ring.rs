//! Compact binary ring-buffer event recorder with a JSONL exporter.

use std::fmt::Write as _;
use std::io::{self, Write};

use crate::event::{Event, EventKind};
use crate::observer::Observer;

/// Size in bytes of one encoded [`EventRecord`].
pub const RECORD_BYTES: usize = 32;

/// One fixed-width binary event record: timestamp, payload words, tenant,
/// and kind tag (three bytes of padding keep the record at a power of two).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventRecord {
    /// Simulated timestamp in picoseconds.
    pub at_ps: u64,
    /// First payload word (meaning depends on [`EventRecord::kind`]).
    pub a: u64,
    /// Second payload word.
    pub b: u64,
    /// Tenant DID (0 for events without one).
    pub did: u32,
    /// The event kind tag.
    pub kind: EventKind,
}

impl EventRecord {
    /// Encodes `event` at `at_ps` into a record.
    pub fn new(at_ps: u64, event: Event) -> Self {
        let (kind, did, a, b) = event.encode();
        EventRecord {
            at_ps,
            a,
            b,
            did,
            kind,
        }
    }

    /// Reconstructs the original [`Event`].
    pub fn event(&self) -> Event {
        self.kind.decode(self.did, self.a, self.b)
    }

    /// Serializes to the fixed [`RECORD_BYTES`]-byte little-endian layout.
    pub fn to_bytes(&self) -> [u8; RECORD_BYTES] {
        let mut out = [0u8; RECORD_BYTES];
        out[0..8].copy_from_slice(&self.at_ps.to_le_bytes());
        out[8..16].copy_from_slice(&self.a.to_le_bytes());
        out[16..24].copy_from_slice(&self.b.to_le_bytes());
        out[24..28].copy_from_slice(&self.did.to_le_bytes());
        out[28] = self.kind as u8;
        out
    }

    /// Deserializes a record; `None` if the kind tag is invalid.
    pub fn from_bytes(bytes: &[u8; RECORD_BYTES]) -> Option<Self> {
        let kind = EventKind::from_tag(bytes[28])?;
        Some(EventRecord {
            at_ps: u64::from_le_bytes(bytes[0..8].try_into().expect("8 bytes")),
            a: u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes")),
            b: u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes")),
            did: u32::from_le_bytes(bytes[24..28].try_into().expect("4 bytes")),
            kind,
        })
    }

    /// Writes the record as one JSON object (no trailing newline).
    ///
    /// Kind-specific payload fields get descriptive names (`latency_ps`,
    /// `iova`, …); fields that do not apply to the kind are omitted.
    pub fn write_json(&self, out: &mut String) {
        let _ = write!(
            out,
            r#"{{"t_ps":{},"kind":"{}""#,
            self.at_ps,
            self.kind.name()
        );
        match self.event() {
            Event::PacketArrival { sid, did } => {
                let _ = write!(out, r#","did":{},"sid":{}"#, did.raw(), sid.raw());
            }
            Event::PacketDrop { did } | Event::PacketRetry { did } => {
                let _ = write!(out, r#","did":{}"#, did.raw());
            }
            Event::PacketComplete { did, latency_ps } => {
                let _ = write!(out, r#","did":{},"latency_ps":{}"#, did.raw(), latency_ps);
            }
            Event::PtbAlloc { start_ps, end_ps } => {
                let _ = write!(out, r#","start_ps":{start_ps},"end_ps":{end_ps}"#);
            }
            Event::PtbRelease => {}
            Event::DevTlbHit { did }
            | Event::DevTlbMiss { did }
            | Event::DevTlbEvict { did }
            | Event::PbHit { did }
            | Event::PbMiss { did }
            | Event::PbEvict { did } => {
                let _ = write!(out, r#","did":{}"#, did.raw());
            }
            Event::WalkStart { did, iova } => {
                let _ = write!(out, r#","did":{},"iova":{}"#, did.raw(), iova.raw());
            }
            Event::WalkDone { did, latency_ps } => {
                let _ = write!(out, r#","did":{},"latency_ps":{}"#, did.raw(), latency_ps);
            }
            Event::PrefetchPredict { sid } => {
                let _ = write!(out, r#","sid":{}"#, sid.raw());
            }
            Event::PrefetchIssue { did, iova }
            | Event::PrefetchFill { did, iova }
            | Event::PrefetchLate { did, iova }
            | Event::PrefetchExpire { did, iova } => {
                let _ = write!(out, r#","did":{},"iova":{}"#, did.raw(), iova.raw());
            }
            Event::InvStart { did, global } | Event::InvDone { did, global } => {
                let _ = write!(out, r#","did":{},"global":{}"#, did.raw(), global);
            }
            Event::TenantRemap { did } | Event::FaultedDrop { did } => {
                let _ = write!(out, r#","did":{}"#, did.raw());
            }
            Event::PageFault { did, iova } => {
                let _ = write!(out, r#","did":{},"iova":{}"#, did.raw(), iova.raw());
            }
            Event::PageResponse {
                did,
                iova,
                latency_ps,
            } => {
                let _ = write!(
                    out,
                    r#","did":{},"iova":{},"latency_ps":{}"#,
                    did.raw(),
                    iova.raw(),
                    latency_ps
                );
            }
            Event::MemoryPressure {
                rss_bytes,
                shed_entries,
            } => {
                let _ = write!(
                    out,
                    r#","rss_bytes":{rss_bytes},"shed_entries":{shed_entries}"#
                );
            }
        }
        out.push('}');
    }
}

/// An [`Observer`] that records every event into a bounded in-memory ring
/// of fixed-width binary records, overwriting the oldest once full.
///
/// Bounded memory makes full-fidelity tracing safe at any simulation
/// length: a long run keeps the most recent `capacity` events (the
/// steady-state tail, which is what the bandwidth measurement covers) and
/// counts what it overwrote.
///
/// # Examples
///
/// ```
/// use hypersio_obs::{Event, Observer, RingRecorder};
/// use hypersio_types::Did;
///
/// let mut ring = RingRecorder::new(2);
/// for t in 0..5u64 {
///     ring.record(t, Event::PacketDrop { did: Did::new(t as u32) });
/// }
/// assert_eq!(ring.len(), 2);
/// assert_eq!(ring.overwritten(), 3);
/// let stamps: Vec<u64> = ring.iter().map(|r| r.at_ps).collect();
/// assert_eq!(stamps, vec![3, 4]); // oldest-first, most recent survive
/// ```
#[derive(Debug, Clone)]
pub struct RingRecorder {
    records: Vec<EventRecord>,
    capacity: usize,
    /// Index of the oldest record once the ring has wrapped.
    head: usize,
    overwritten: u64,
}

impl RingRecorder {
    /// Creates a recorder holding at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring needs at least one slot");
        RingRecorder {
            records: Vec::new(),
            capacity,
            head: 0,
            overwritten: 0,
        }
    }

    /// Returns the number of records currently held.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns true if no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Returns the ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Returns how many records were overwritten after the ring filled.
    pub fn overwritten(&self) -> u64 {
        self.overwritten
    }

    /// Iterates the held records oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &EventRecord> {
        self.records[self.head..]
            .iter()
            .chain(self.records[..self.head].iter())
    }

    /// Writes the trace as JSON Lines: one meta line, then one object per
    /// record, oldest first.
    ///
    /// The meta line carries an explicit `truncated` marker (true when the
    /// ring wrapped and overwrote older events) so a partial trace can
    /// never be silently read as a complete one — span reconstruction and
    /// other consumers must check it before treating the stream as the
    /// whole run.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_jsonl<W: Write>(&self, w: &mut W) -> io::Result<()> {
        writeln!(
            w,
            r#"{{"schema":"hypersio-events/v1","recorded":{},"overwritten":{},"truncated":{},"record_bytes":{}}}"#,
            self.len(),
            self.overwritten,
            self.overwritten > 0,
            RECORD_BYTES
        )?;
        let mut line = String::with_capacity(96);
        for record in self.iter() {
            line.clear();
            record.write_json(&mut line);
            line.push('\n');
            w.write_all(line.as_bytes())?;
        }
        Ok(())
    }
}

impl Observer for RingRecorder {
    #[inline]
    fn record(&mut self, at_ps: u64, event: Event) {
        let record = EventRecord::new(at_ps, event);
        if self.records.len() < self.capacity {
            self.records.push(record);
        } else {
            self.records[self.head] = record;
            self.head = (self.head + 1) % self.capacity;
            self.overwritten += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypersio_types::{Did, GIova, Sid};

    #[test]
    fn record_binary_round_trip() {
        let events = [
            Event::PacketArrival {
                sid: Sid::new(9),
                did: Did::new(4),
            },
            Event::WalkStart {
                did: Did::new(2),
                iova: GIova::new(0xbbe0_1000),
            },
            Event::PtbAlloc {
                start_ps: 7,
                end_ps: 900_007,
            },
        ];
        for (t, ev) in events.into_iter().enumerate() {
            let rec = EventRecord::new(t as u64 * 100, ev);
            let bytes = rec.to_bytes();
            assert_eq!(bytes.len(), RECORD_BYTES);
            let back = EventRecord::from_bytes(&bytes).unwrap();
            assert_eq!(back, rec);
            assert_eq!(back.event(), ev);
        }
    }

    #[test]
    fn invalid_tag_rejected() {
        let mut bytes = [0u8; RECORD_BYTES];
        bytes[28] = 200;
        assert!(EventRecord::from_bytes(&bytes).is_none());
    }

    #[test]
    fn ring_keeps_most_recent_in_order() {
        let mut ring = RingRecorder::new(3);
        for t in 0..10u64 {
            ring.record(t, Event::PtbRelease);
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.overwritten(), 7);
        let stamps: Vec<u64> = ring.iter().map(|r| r.at_ps).collect();
        assert_eq!(stamps, vec![7, 8, 9]);
    }

    #[test]
    fn jsonl_has_meta_plus_one_line_per_record() {
        let mut ring = RingRecorder::new(8);
        ring.record(
            10,
            Event::PacketComplete {
                did: Did::new(1),
                latency_ps: 2000,
            },
        );
        ring.record(
            20,
            Event::PrefetchIssue {
                did: Did::new(2),
                iova: GIova::new(0x1000),
            },
        );
        let mut out = Vec::new();
        ring.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains(r#""schema":"hypersio-events/v1""#));
        assert!(lines[0].contains(r#""recorded":2"#));
        assert!(lines[0].contains(r#""truncated":false"#));
        assert!(lines[1].contains(r#""kind":"packet_complete""#));
        assert!(lines[1].contains(r#""latency_ps":2000"#));
        assert!(lines[2].contains(r#""kind":"prefetch_issue""#));
        assert!(lines[2].contains(r#""iova":4096"#));
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_capacity_rejected() {
        let _ = RingRecorder::new(0);
    }
}
