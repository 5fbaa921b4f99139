//! Completion stage: packet latency, warm-up bookkeeping, and per-tenant
//! accumulation.

use hypersio_obs::{Event, Observer};
use hypersio_types::{Did, SimTime};

use crate::latency::LatencyStats;
use crate::per_tenant::{PerTenantReport, TenantStat};

/// Stage 5 — where served packets are accounted.
///
/// Owns everything the end-of-run report aggregates from the packet
/// lifecycle: processed/dropped counts, the packet-latency histogram, the
/// warm-up window marker, the last completion time (which fixes the
/// bandwidth measurement interval), and the opt-in per-DID accumulators.
///
/// The lookup stage also feeds the per-tenant hit/miss counters through
/// [`CompletionStage::note_devtlb`] / [`CompletionStage::note_pb_hit`]:
/// probes happen at arrival, but their per-tenant attribution is report
/// accumulation and lives here with the rest of it.
///
/// Emits [`Event::PacketDrop`] and [`Event::PacketComplete`].
pub(crate) struct CompletionStage {
    processed: u64,
    dropped: u64,
    faulted_drops: u64,
    last_completion: SimTime,
    /// `(time, packets)` at warm-up end, once reached.
    warmup_end: Option<(SimTime, u64)>,
    warmup_packets: u64,
    packet_latency: LatencyStats,
    bytes_per_packet: u64,
    /// Opt-in per-DID accumulators, indexed by DID.
    tenants: Option<Vec<TenantStat>>,
}

impl CompletionStage {
    /// Creates the stage; `per_tenant` carries the tenant count when
    /// per-DID collection was opted in.
    pub(crate) fn new(warmup_packets: u64, bytes_per_packet: u64, per_tenant: Option<u32>) -> Self {
        CompletionStage {
            processed: 0,
            dropped: 0,
            faulted_drops: 0,
            last_completion: SimTime::ZERO,
            warmup_end: None,
            warmup_packets,
            packet_latency: LatencyStats::new(),
            bytes_per_packet,
            tenants: per_tenant.map(|count| {
                (0..count)
                    .map(|did| TenantStat {
                        did,
                        ..TenantStat::default()
                    })
                    .collect()
            }),
        }
    }

    /// Attributes a DevTLB probe outcome to its tenant.
    pub(crate) fn note_devtlb(&mut self, did: Did, hit: bool) {
        if let Some(acc) = self.tenants.as_mut() {
            let t = &mut acc[did.raw() as usize];
            if hit {
                t.devtlb_hits += 1;
            } else {
                t.devtlb_misses += 1;
            }
        }
    }

    /// Attributes a Prefetch Buffer hit to its tenant.
    pub(crate) fn note_pb_hit(&mut self, did: Did) {
        if let Some(acc) = self.tenants.as_mut() {
            acc[did.raw() as usize].pb_hits += 1;
        }
    }

    /// Accounts a PTB-full drop (the packet retries at the next slot).
    pub(crate) fn record_drop<O: Observer>(&mut self, did: Did, now: SimTime, obs: &mut O) {
        self.dropped += 1;
        if O::ENABLED {
            obs.record(now.as_ps(), Event::PacketDrop { did });
        }
        if let Some(acc) = self.tenants.as_mut() {
            acc[did.raw() as usize].drops += 1;
        }
    }

    /// Accounts `n` PTB-full drops at once (the fast-forwarded retry spin
    /// of a blocked packet; see `ArrivalSource::fast_forward_drops`). Only
    /// reachable with a disabled observer, so no events are owed.
    pub(crate) fn record_drops_bulk(&mut self, did: Did, n: u64) {
        self.dropped += n;
        if let Some(acc) = self.tenants.as_mut() {
            acc[did.raw() as usize].drops += n;
        }
    }

    /// Accounts a terminal fault drop: the packet exhausted its retry
    /// budget on a not-present page and leaves the pipeline for good
    /// (never counted as processed).
    pub(crate) fn record_faulted_drop<O: Observer>(&mut self, did: Did, now: SimTime, obs: &mut O) {
        self.faulted_drops += 1;
        if O::ENABLED {
            obs.record(now.as_ps(), Event::FaultedDrop { did });
        }
        if let Some(acc) = self.tenants.as_mut() {
            acc[did.raw() as usize].faulted_drops += 1;
        }
    }

    /// Accounts a served packet: latency sample, per-tenant shares, the
    /// completion horizon, and the warm-up marker.
    pub(crate) fn record_complete<O: Observer>(
        &mut self,
        did: Did,
        now: SimTime,
        completion: SimTime,
        obs: &mut O,
    ) {
        self.processed += 1;
        let latency = completion.duration_since(now);
        self.packet_latency.record(latency);
        if O::ENABLED {
            obs.record(
                completion.as_ps(),
                Event::PacketComplete {
                    did,
                    latency_ps: latency.as_ps(),
                },
            );
        }
        if let Some(acc) = self.tenants.as_mut() {
            let t = &mut acc[did.raw() as usize];
            t.packets += 1;
            t.bytes += self.bytes_per_packet;
            t.latency.record(latency);
        }
        self.last_completion = self.last_completion.max(completion);
        if self.warmup_end.is_none()
            && self.warmup_packets > 0
            && self.processed >= self.warmup_packets
        {
            self.warmup_end = Some((completion, self.processed));
        }
    }

    /// The `(time, packets)` origin of the bandwidth measurement: the end
    /// of the warm-up window if one was configured and the run got past
    /// it, otherwise time zero.
    pub(crate) fn measurement_origin(&self) -> (SimTime, u64) {
        match self.warmup_end {
            Some((t, p)) if p < self.processed => (t, p),
            _ => (SimTime::ZERO, 0),
        }
    }

    /// Packets fully served.
    pub(crate) fn processed(&self) -> u64 {
        self.processed
    }

    /// Packets dropped for PTB exhaustion or a fault backoff (each later
    /// retried).
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Packets terminally dropped after exhausting their fault retries.
    pub(crate) fn faulted_drops(&self) -> u64 {
        self.faulted_drops
    }

    /// Completion time of the last packet to finish.
    pub(crate) fn last_completion(&self) -> SimTime {
        self.last_completion
    }

    /// Appends the stage's full state for a run checkpoint: the scalar
    /// counters, the warm-up marker, the latency histogram, and the
    /// optional per-tenant accumulators.
    pub(crate) fn snapshot_words(&self, out: &mut Vec<u64>) {
        out.push(self.processed);
        out.push(self.dropped);
        out.push(self.faulted_drops);
        out.push(self.last_completion.as_ps());
        match self.warmup_end {
            None => out.push(0),
            Some((t, p)) => {
                out.push(1);
                out.push(t.as_ps());
                out.push(p);
            }
        }
        self.packet_latency.snapshot_words(out);
        match &self.tenants {
            None => out.push(0),
            Some(acc) => {
                out.push(1);
                out.push(acc.len() as u64);
                for t in acc {
                    t.snapshot_words(out);
                }
            }
        }
    }

    /// Restores the stage from a checkpoint stream. The per-tenant table's
    /// presence and slot count are fixed at construction, so a mismatch is
    /// a foreign checkpoint and is rejected.
    pub(crate) fn restore_words(&mut self, r: &mut hypersio_cache::WordReader<'_>) -> Option<()> {
        self.processed = r.next()?;
        self.dropped = r.next()?;
        self.faulted_drops = r.next()?;
        self.last_completion = SimTime::from_ps(r.next()?);
        self.warmup_end = match r.next()? {
            0 => None,
            1 => Some((SimTime::from_ps(r.next()?), r.next()?)),
            _ => return None,
        };
        self.packet_latency.restore_words(r)?;
        match (r.next()?, self.tenants.as_mut()) {
            (0, None) => {}
            (1, Some(acc)) => {
                if r.next()? != acc.len() as u64 {
                    return None;
                }
                for t in acc.iter_mut() {
                    t.restore_words(r)?;
                }
            }
            _ => return None,
        }
        Some(())
    }

    /// Consumes the stage into its report payloads: the latency histogram
    /// and the optional per-tenant table.
    pub(crate) fn into_accumulators(self) -> (LatencyStats, Option<PerTenantReport>) {
        (
            self.packet_latency,
            self.tenants.map(|tenants| PerTenantReport { tenants }),
        )
    }
}
