//! The structured event taxonomy emitted by the simulation loop.
//!
//! # Emission ownership
//!
//! Each of the 26 kinds is emitted by exactly one stage of the simulator's
//! pipeline (`hypersio-sim`'s `pipeline` module; stage graph in
//! `DESIGN.md` §10) — ownership is part of the stream's contract, since
//! emission *order* within an arrival slot follows stage order:
//!
//! * **Arrival** — [`Event::PacketArrival`], [`Event::PacketRetry`].
//! * **Prefetch** — [`Event::PrefetchPredict`], [`Event::PrefetchIssue`],
//!   [`Event::PrefetchFill`], [`Event::PrefetchLate`],
//!   [`Event::PrefetchExpire`], [`Event::PbEvict`], plus
//!   [`Event::WalkStart`]/[`Event::WalkDone`] for the walks it issues
//!   (interleaved with its `Prefetch*` events).
//! * **Lookup** — [`Event::DevTlbHit`], [`Event::DevTlbMiss`],
//!   [`Event::DevTlbEvict`], [`Event::PbHit`], [`Event::PbMiss`].
//! * **Walk** — [`Event::PtbAlloc`], [`Event::PtbRelease`], and demand
//!   [`Event::WalkStart`]/[`Event::WalkDone`].
//! * **Completion** — [`Event::PacketDrop`], [`Event::PacketComplete`],
//!   [`Event::FaultedDrop`].
//! * **Fault injector** (`hypersio-sim`'s `faults` module, DESIGN.md §11)
//!   — [`Event::InvStart`], [`Event::InvDone`], [`Event::TenantRemap`],
//!   [`Event::PageFault`], [`Event::PageResponse`].
//! * **Run supervision** (`hypersio-sim`'s controlled-run loop,
//!   DESIGN.md §16) — [`Event::MemoryPressure`]. This is operational
//!   telemetry, not packet lifecycle: it appears only when the RSS
//!   watchdog is engaged and is absent from undisturbed runs.

use hypersio_types::{Did, GIova, Sid};

/// One lifecycle event in the device–system simulation.
///
/// Events cover the full life of a packet (arrival, drop, retry,
/// completion), the shared structures it passes through (PTB slots, DevTLB
/// and Prefetch Buffer probes and evictions, IOMMU walks), and the
/// prefetcher's pipeline (predict → issue → fill/late/expire). Every event
/// is stamped with the simulated time at which the [`crate::Observer`]
/// receives it.
///
/// The enum is `Copy` and encodes losslessly into a fixed-width
/// [`crate::EventRecord`] (see [`Event::encode`] / [`EventKind::decode`]),
/// which is what the binary ring buffer stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A new packet was observed on the link (once per trace packet).
    PacketArrival {
        /// Source ID carried by the packet.
        sid: Sid,
        /// Owning tenant.
        did: Did,
    },
    /// A packet could not allocate a PTB slot and was dropped.
    PacketDrop {
        /// Owning tenant.
        did: Did,
    },
    /// A previously dropped packet re-entered service at a later slot.
    PacketRetry {
        /// Owning tenant.
        did: Did,
    },
    /// All of a packet's translations completed.
    PacketComplete {
        /// Owning tenant.
        did: Did,
        /// Arrival-to-last-translation service latency.
        latency_ps: u64,
    },
    /// A PTB slot was occupied for one in-flight translation.
    PtbAlloc {
        /// Time the slot actually starts serving this translation.
        start_ps: u64,
        /// Time the slot becomes free again.
        end_ps: u64,
    },
    /// A PTB slot was released (stamped at the release time).
    PtbRelease,
    /// A DevTLB probe found its translation.
    DevTlbHit {
        /// Requesting tenant.
        did: Did,
    },
    /// A DevTLB probe missed.
    DevTlbMiss {
        /// Requesting tenant.
        did: Did,
    },
    /// A DevTLB fill evicted another tenant-visible entry.
    DevTlbEvict {
        /// Tenant that owned the evicted entry.
        did: Did,
    },
    /// A Prefetch Buffer probe found its translation.
    PbHit {
        /// Requesting tenant.
        did: Did,
    },
    /// A Prefetch Buffer probe missed.
    PbMiss {
        /// Requesting tenant.
        did: Did,
    },
    /// A Prefetch Buffer fill evicted an entry.
    PbEvict {
        /// Tenant that owned the evicted entry.
        did: Did,
    },
    /// An IOMMU page-table walk started.
    WalkStart {
        /// Tenant whose tables are walked.
        did: Did,
        /// The gIOVA being translated.
        iova: GIova,
    },
    /// An IOMMU walk finished (stamped at the completion time).
    WalkDone {
        /// Tenant whose tables were walked.
        did: Did,
        /// IOMMU-side latency of this walk (including walker queueing).
        latency_ps: u64,
    },
    /// The SID-predictor proposed a tenant to prefetch for.
    PrefetchPredict {
        /// The predicted next Source ID.
        sid: Sid,
    },
    /// A prefetch translation was issued to the IOMMU.
    PrefetchIssue {
        /// Tenant prefetched for.
        did: Did,
        /// Page being prefetched.
        iova: GIova,
    },
    /// A completed prefetch was delivered into the Prefetch Buffer.
    PrefetchFill {
        /// Tenant prefetched for.
        did: Did,
        /// Page that was filled.
        iova: GIova,
    },
    /// A prefetch walk had not finished by its delivery point; the fill
    /// was discarded.
    PrefetchLate {
        /// Tenant prefetched for.
        did: Did,
        /// Page whose fill was late.
        iova: GIova,
    },
    /// A prefetch was still queued when the trace ended; its predicted
    /// access never arrived.
    PrefetchExpire {
        /// Tenant prefetched for.
        did: Did,
        /// Page whose fill expired undelivered.
        iova: GIova,
    },
    /// An invalidation storm (IOTLB shootdown) began.
    InvStart {
        /// Tenant being shot down (0 and `global` for a global storm).
        did: Did,
        /// True for a global (all-DID) shootdown.
        global: bool,
    },
    /// An invalidation storm finished sweeping every cache level.
    InvDone {
        /// Tenant that was shot down (0 and `global` for a global storm).
        did: Did,
        /// True for a global (all-DID) shootdown.
        global: bool,
    },
    /// A tenant's VM migrated: its host page table was re-stamped at a new
    /// location and its translations shot down.
    TenantRemap {
        /// The migrated tenant.
        did: Did,
    },
    /// A packet touched an unmapped page; a PRI-style page request is (or
    /// already was) outstanding for it.
    PageFault {
        /// Faulting tenant.
        did: Did,
        /// The unmapped gIOVA.
        iova: GIova,
    },
    /// The OS serviced a page request; the page is mapped from the stamped
    /// time onward (stamped at service completion, like `WalkDone`).
    PageResponse {
        /// Tenant whose page was mapped.
        did: Did,
        /// The now-mapped gIOVA.
        iova: GIova,
        /// Service latency of the page request.
        latency_ps: u64,
    },
    /// A packet exhausted its fault-retry budget and was terminally
    /// dropped (graceful degradation instead of livelock).
    FaultedDrop {
        /// Owning tenant.
        did: Did,
    },
    /// The RSS watchdog crossed its limit and shed re-derivable memory
    /// (lazy page-table residency and the walk memo). Model-transparent:
    /// everything shed is rebuilt bit-identically on demand.
    MemoryPressure {
        /// Observed resident-set size when the limit was crossed, bytes.
        rss_bytes: u64,
        /// Re-derivable entries shed (resident tenant spaces + walk-memo
        /// entries).
        shed_entries: u64,
    },
}

/// Discriminant of an [`Event`], used as the binary record tag and for
/// per-kind counting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// [`Event::PacketArrival`].
    PacketArrival = 0,
    /// [`Event::PacketDrop`].
    PacketDrop = 1,
    /// [`Event::PacketRetry`].
    PacketRetry = 2,
    /// [`Event::PacketComplete`].
    PacketComplete = 3,
    /// [`Event::PtbAlloc`].
    PtbAlloc = 4,
    /// [`Event::PtbRelease`].
    PtbRelease = 5,
    /// [`Event::DevTlbHit`].
    DevTlbHit = 6,
    /// [`Event::DevTlbMiss`].
    DevTlbMiss = 7,
    /// [`Event::DevTlbEvict`].
    DevTlbEvict = 8,
    /// [`Event::PbHit`].
    PbHit = 9,
    /// [`Event::PbMiss`].
    PbMiss = 10,
    /// [`Event::PbEvict`].
    PbEvict = 11,
    /// [`Event::WalkStart`].
    WalkStart = 12,
    /// [`Event::WalkDone`].
    WalkDone = 13,
    /// [`Event::PrefetchPredict`].
    PrefetchPredict = 14,
    /// [`Event::PrefetchIssue`].
    PrefetchIssue = 15,
    /// [`Event::PrefetchFill`].
    PrefetchFill = 16,
    /// [`Event::PrefetchLate`].
    PrefetchLate = 17,
    /// [`Event::PrefetchExpire`].
    PrefetchExpire = 18,
    /// [`Event::InvStart`].
    InvStart = 19,
    /// [`Event::InvDone`].
    InvDone = 20,
    /// [`Event::TenantRemap`].
    TenantRemap = 21,
    /// [`Event::PageFault`].
    PageFault = 22,
    /// [`Event::PageResponse`].
    PageResponse = 23,
    /// [`Event::FaultedDrop`].
    FaultedDrop = 24,
    /// [`Event::MemoryPressure`].
    MemoryPressure = 25,
}

/// Number of distinct [`EventKind`]s (array-size for per-kind counters).
pub const EVENT_KINDS: usize = 26;

/// All kinds, in tag order (`ALL[k as usize] == k`).
pub const ALL_EVENT_KINDS: [EventKind; EVENT_KINDS] = [
    EventKind::PacketArrival,
    EventKind::PacketDrop,
    EventKind::PacketRetry,
    EventKind::PacketComplete,
    EventKind::PtbAlloc,
    EventKind::PtbRelease,
    EventKind::DevTlbHit,
    EventKind::DevTlbMiss,
    EventKind::DevTlbEvict,
    EventKind::PbHit,
    EventKind::PbMiss,
    EventKind::PbEvict,
    EventKind::WalkStart,
    EventKind::WalkDone,
    EventKind::PrefetchPredict,
    EventKind::PrefetchIssue,
    EventKind::PrefetchFill,
    EventKind::PrefetchLate,
    EventKind::PrefetchExpire,
    EventKind::InvStart,
    EventKind::InvDone,
    EventKind::TenantRemap,
    EventKind::PageFault,
    EventKind::PageResponse,
    EventKind::FaultedDrop,
    EventKind::MemoryPressure,
];

impl EventKind {
    /// Returns the kind for a binary tag, if valid.
    pub fn from_tag(tag: u8) -> Option<EventKind> {
        ALL_EVENT_KINDS.get(tag as usize).copied()
    }

    /// The snake_case name used in JSONL output.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::PacketArrival => "packet_arrival",
            EventKind::PacketDrop => "packet_drop",
            EventKind::PacketRetry => "packet_retry",
            EventKind::PacketComplete => "packet_complete",
            EventKind::PtbAlloc => "ptb_alloc",
            EventKind::PtbRelease => "ptb_release",
            EventKind::DevTlbHit => "devtlb_hit",
            EventKind::DevTlbMiss => "devtlb_miss",
            EventKind::DevTlbEvict => "devtlb_evict",
            EventKind::PbHit => "pb_hit",
            EventKind::PbMiss => "pb_miss",
            EventKind::PbEvict => "pb_evict",
            EventKind::WalkStart => "walk_start",
            EventKind::WalkDone => "walk_done",
            EventKind::PrefetchPredict => "prefetch_predict",
            EventKind::PrefetchIssue => "prefetch_issue",
            EventKind::PrefetchFill => "prefetch_fill",
            EventKind::PrefetchLate => "prefetch_late",
            EventKind::PrefetchExpire => "prefetch_expire",
            EventKind::InvStart => "inv_start",
            EventKind::InvDone => "inv_done",
            EventKind::TenantRemap => "tenant_remap",
            EventKind::PageFault => "page_fault",
            EventKind::PageResponse => "page_response",
            EventKind::FaultedDrop => "faulted_drop",
            EventKind::MemoryPressure => "memory_pressure",
        }
    }

    /// Reconstructs the [`Event`] from the binary payload produced by
    /// [`Event::encode`].
    pub fn decode(self, did: u32, a: u64, b: u64) -> Event {
        let did = Did::new(did);
        match self {
            EventKind::PacketArrival => Event::PacketArrival {
                sid: Sid::new(a as u32),
                did,
            },
            EventKind::PacketDrop => Event::PacketDrop { did },
            EventKind::PacketRetry => Event::PacketRetry { did },
            EventKind::PacketComplete => Event::PacketComplete { did, latency_ps: a },
            EventKind::PtbAlloc => Event::PtbAlloc {
                start_ps: a,
                end_ps: b,
            },
            EventKind::PtbRelease => Event::PtbRelease,
            EventKind::DevTlbHit => Event::DevTlbHit { did },
            EventKind::DevTlbMiss => Event::DevTlbMiss { did },
            EventKind::DevTlbEvict => Event::DevTlbEvict { did },
            EventKind::PbHit => Event::PbHit { did },
            EventKind::PbMiss => Event::PbMiss { did },
            EventKind::PbEvict => Event::PbEvict { did },
            EventKind::WalkStart => Event::WalkStart {
                did,
                iova: GIova::new(a),
            },
            EventKind::WalkDone => Event::WalkDone { did, latency_ps: a },
            EventKind::PrefetchPredict => Event::PrefetchPredict {
                sid: Sid::new(a as u32),
            },
            EventKind::PrefetchIssue => Event::PrefetchIssue {
                did,
                iova: GIova::new(a),
            },
            EventKind::PrefetchFill => Event::PrefetchFill {
                did,
                iova: GIova::new(a),
            },
            EventKind::PrefetchLate => Event::PrefetchLate {
                did,
                iova: GIova::new(a),
            },
            EventKind::PrefetchExpire => Event::PrefetchExpire {
                did,
                iova: GIova::new(a),
            },
            EventKind::InvStart => Event::InvStart {
                did,
                global: a != 0,
            },
            EventKind::InvDone => Event::InvDone {
                did,
                global: a != 0,
            },
            EventKind::TenantRemap => Event::TenantRemap { did },
            EventKind::PageFault => Event::PageFault {
                did,
                iova: GIova::new(a),
            },
            EventKind::PageResponse => Event::PageResponse {
                did,
                iova: GIova::new(a),
                latency_ps: b,
            },
            EventKind::FaultedDrop => Event::FaultedDrop { did },
            EventKind::MemoryPressure => Event::MemoryPressure {
                rss_bytes: a,
                shed_entries: b,
            },
        }
    }
}

impl Event {
    /// Returns this event's kind.
    pub fn kind(&self) -> EventKind {
        match self {
            Event::PacketArrival { .. } => EventKind::PacketArrival,
            Event::PacketDrop { .. } => EventKind::PacketDrop,
            Event::PacketRetry { .. } => EventKind::PacketRetry,
            Event::PacketComplete { .. } => EventKind::PacketComplete,
            Event::PtbAlloc { .. } => EventKind::PtbAlloc,
            Event::PtbRelease => EventKind::PtbRelease,
            Event::DevTlbHit { .. } => EventKind::DevTlbHit,
            Event::DevTlbMiss { .. } => EventKind::DevTlbMiss,
            Event::DevTlbEvict { .. } => EventKind::DevTlbEvict,
            Event::PbHit { .. } => EventKind::PbHit,
            Event::PbMiss { .. } => EventKind::PbMiss,
            Event::PbEvict { .. } => EventKind::PbEvict,
            Event::WalkStart { .. } => EventKind::WalkStart,
            Event::WalkDone { .. } => EventKind::WalkDone,
            Event::PrefetchPredict { .. } => EventKind::PrefetchPredict,
            Event::PrefetchIssue { .. } => EventKind::PrefetchIssue,
            Event::PrefetchFill { .. } => EventKind::PrefetchFill,
            Event::PrefetchLate { .. } => EventKind::PrefetchLate,
            Event::PrefetchExpire { .. } => EventKind::PrefetchExpire,
            Event::InvStart { .. } => EventKind::InvStart,
            Event::InvDone { .. } => EventKind::InvDone,
            Event::TenantRemap { .. } => EventKind::TenantRemap,
            Event::PageFault { .. } => EventKind::PageFault,
            Event::PageResponse { .. } => EventKind::PageResponse,
            Event::FaultedDrop { .. } => EventKind::FaultedDrop,
            Event::MemoryPressure { .. } => EventKind::MemoryPressure,
        }
    }

    /// Packs the event into `(kind, did, a, b)` — the payload of one
    /// binary [`crate::EventRecord`]. Lossless: `kind.decode(did, a, b)`
    /// reproduces the event exactly.
    pub fn encode(&self) -> (EventKind, u32, u64, u64) {
        match *self {
            Event::PacketArrival { sid, did } => {
                (EventKind::PacketArrival, did.raw(), sid.raw() as u64, 0)
            }
            Event::PacketDrop { did } => (EventKind::PacketDrop, did.raw(), 0, 0),
            Event::PacketRetry { did } => (EventKind::PacketRetry, did.raw(), 0, 0),
            Event::PacketComplete { did, latency_ps } => {
                (EventKind::PacketComplete, did.raw(), latency_ps, 0)
            }
            Event::PtbAlloc { start_ps, end_ps } => (EventKind::PtbAlloc, 0, start_ps, end_ps),
            Event::PtbRelease => (EventKind::PtbRelease, 0, 0, 0),
            Event::DevTlbHit { did } => (EventKind::DevTlbHit, did.raw(), 0, 0),
            Event::DevTlbMiss { did } => (EventKind::DevTlbMiss, did.raw(), 0, 0),
            Event::DevTlbEvict { did } => (EventKind::DevTlbEvict, did.raw(), 0, 0),
            Event::PbHit { did } => (EventKind::PbHit, did.raw(), 0, 0),
            Event::PbMiss { did } => (EventKind::PbMiss, did.raw(), 0, 0),
            Event::PbEvict { did } => (EventKind::PbEvict, did.raw(), 0, 0),
            Event::WalkStart { did, iova } => (EventKind::WalkStart, did.raw(), iova.raw(), 0),
            Event::WalkDone { did, latency_ps } => (EventKind::WalkDone, did.raw(), latency_ps, 0),
            Event::PrefetchPredict { sid } => (EventKind::PrefetchPredict, 0, sid.raw() as u64, 0),
            Event::PrefetchIssue { did, iova } => {
                (EventKind::PrefetchIssue, did.raw(), iova.raw(), 0)
            }
            Event::PrefetchFill { did, iova } => {
                (EventKind::PrefetchFill, did.raw(), iova.raw(), 0)
            }
            Event::PrefetchLate { did, iova } => {
                (EventKind::PrefetchLate, did.raw(), iova.raw(), 0)
            }
            Event::PrefetchExpire { did, iova } => {
                (EventKind::PrefetchExpire, did.raw(), iova.raw(), 0)
            }
            Event::InvStart { did, global } => (EventKind::InvStart, did.raw(), global as u64, 0),
            Event::InvDone { did, global } => (EventKind::InvDone, did.raw(), global as u64, 0),
            Event::TenantRemap { did } => (EventKind::TenantRemap, did.raw(), 0, 0),
            Event::PageFault { did, iova } => (EventKind::PageFault, did.raw(), iova.raw(), 0),
            Event::PageResponse {
                did,
                iova,
                latency_ps,
            } => (EventKind::PageResponse, did.raw(), iova.raw(), latency_ps),
            Event::FaultedDrop { did } => (EventKind::FaultedDrop, did.raw(), 0, 0),
            Event::MemoryPressure {
                rss_bytes,
                shed_entries,
            } => (EventKind::MemoryPressure, 0, rss_bytes, shed_entries),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Event> {
        vec![
            Event::PacketArrival {
                sid: Sid::new(7),
                did: Did::new(3),
            },
            Event::PacketDrop { did: Did::new(1) },
            Event::PacketRetry { did: Did::new(1) },
            Event::PacketComplete {
                did: Did::new(2),
                latency_ps: 123_456,
            },
            Event::PtbAlloc {
                start_ps: 10,
                end_ps: 900_010,
            },
            Event::PtbRelease,
            Event::DevTlbHit { did: Did::new(0) },
            Event::DevTlbMiss { did: Did::new(9) },
            Event::DevTlbEvict { did: Did::new(4) },
            Event::PbHit { did: Did::new(5) },
            Event::PbMiss { did: Did::new(5) },
            Event::PbEvict { did: Did::new(6) },
            Event::WalkStart {
                did: Did::new(8),
                iova: GIova::new(0xbbe0_0000),
            },
            Event::WalkDone {
                did: Did::new(8),
                latency_ps: 2_400_000,
            },
            Event::PrefetchPredict { sid: Sid::new(42) },
            Event::PrefetchIssue {
                did: Did::new(11),
                iova: GIova::new(0x3480_0000),
            },
            Event::PrefetchFill {
                did: Did::new(11),
                iova: GIova::new(0x3480_0000),
            },
            Event::PrefetchLate {
                did: Did::new(12),
                iova: GIova::new(0x1000),
            },
            Event::PrefetchExpire {
                did: Did::new(13),
                iova: GIova::new(0x2000),
            },
            Event::InvStart {
                did: Did::new(14),
                global: false,
            },
            Event::InvDone {
                did: Did::new(0),
                global: true,
            },
            Event::TenantRemap { did: Did::new(15) },
            Event::PageFault {
                did: Did::new(16),
                iova: GIova::new(0xf000_1000),
            },
            Event::PageResponse {
                did: Did::new(16),
                iova: GIova::new(0xf000_1000),
                latency_ps: 10_000_000,
            },
            Event::FaultedDrop { did: Did::new(17) },
            Event::MemoryPressure {
                rss_bytes: 6_442_450_944,
                shed_entries: 12_345,
            },
        ]
    }

    #[test]
    fn every_kind_round_trips_through_encode() {
        let events = samples();
        assert_eq!(events.len(), EVENT_KINDS, "one sample per kind");
        for ev in events {
            let (kind, did, a, b) = ev.encode();
            assert_eq!(kind, ev.kind());
            assert_eq!(kind.decode(did, a, b), ev);
        }
    }

    #[test]
    fn tags_are_dense_and_invertible() {
        for (i, kind) in ALL_EVENT_KINDS.iter().enumerate() {
            assert_eq!(*kind as usize, i);
            assert_eq!(EventKind::from_tag(i as u8), Some(*kind));
        }
        assert_eq!(EventKind::from_tag(EVENT_KINDS as u8), None);
        assert_eq!(EventKind::from_tag(255), None);
    }

    #[test]
    fn names_are_unique_snake_case() {
        let mut names: Vec<&str> = ALL_EVENT_KINDS.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EVENT_KINDS);
        for n in names {
            assert!(n
                .chars()
                .all(|c| c.is_ascii_lowercase() || c == '_' || c.is_ascii_digit()));
        }
    }
}
