//! SID → DID resolution shared by the arrival and prefetch paths.

use hypersio_trace::HyperTrace;
use hypersio_types::{Did, Sid};

/// Resolves Source IDs (arbitrary BDF-derived values) to the owning
/// Domain ID.
///
/// The map is one flat table indexed by raw SID that holds DID + 1, with 0
/// marking an unregistered SID, so a resolution is one load whatever the
/// tenant count. The table spans `0..=` the largest registered SID, which
/// [`Sid::BOUND`] caps at 2^24 entries. It is allocated zeroed, so only
/// the pages holding registered SIDs become resident: sparse BDF-derived
/// SIDs cost address space, not memory.
///
/// # Examples
///
/// ```
/// use hypersio_sim::SidMap;
/// use hypersio_types::Did;
///
/// let mut map = SidMap::from_pairs(vec![(0x100, Did::new(0)), (0x101, Did::new(1))]);
/// assert_eq!(map.resolve(0x101), Did::new(1));
/// assert_eq!(map.resolve_uncached(0x102), None);
/// ```
#[derive(Debug, Clone)]
pub struct SidMap {
    /// DID + 1 per raw SID; 0 means the SID is not registered.
    dids: Vec<u32>,
    /// Number of registered SIDs.
    registered: usize,
}

impl SidMap {
    /// Builds the map from arbitrary `(sid, did)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if two pairs carry the same SID (SIDs identify exactly one
    /// tenant), if a SID is not below [`Sid::BOUND`], or if a DID is
    /// `u32::MAX`.
    pub fn from_pairs(pairs: Vec<(u32, Did)>) -> Self {
        let max_sid = pairs.iter().map(|&(sid, _)| sid).max();
        if let Some(max_sid) = max_sid {
            assert!(
                max_sid < Sid::BOUND,
                "SID {max_sid:#x} is not below the SID bound {:#x}",
                Sid::BOUND
            );
        }
        let mut dids = vec![0u32; max_sid.map_or(0, |s| s as usize + 1)];
        for &(sid, did) in &pairs {
            let slot = &mut dids[sid as usize];
            assert!(*slot == 0, "duplicate SID {sid:#x}");
            *slot = did.raw().checked_add(1).expect("DID u32::MAX is reserved");
        }
        SidMap {
            dids,
            registered: pairs.len(),
        }
    }

    /// Builds the map for a trace: tenant `i`'s SID resolves to `Did(i)`.
    pub fn for_trace(trace: &HyperTrace) -> Self {
        Self::from_pairs(
            trace
                .tenant_sids()
                .into_iter()
                .zip(0..)
                .map(|(sid, did)| (sid.raw(), Did::new(did)))
                .collect(),
        )
    }

    /// Resolves `sid` to its DID.
    ///
    /// # Panics
    ///
    /// Panics if `sid` was not registered at construction — every SID on
    /// the link belongs to a configured tenant.
    #[inline]
    pub fn resolve(&mut self, sid: u32) -> Did {
        self.resolve_uncached(sid)
            .expect("every trace SID is registered at construction")
    }

    /// Resolves `sid` without the registration check of
    /// [`SidMap::resolve`]: `None` for an unregistered SID.
    #[inline]
    pub fn resolve_uncached(&self, sid: u32) -> Option<Did> {
        match self.dids.get(sid as usize) {
            Some(&slot) if slot != 0 => Some(Did::new(slot - 1)),
            _ => None,
        }
    }

    /// Returns one past the largest registered SID (0 when empty): the
    /// size of a SID-indexed table that covers every registered SID.
    pub fn sid_bound(&self) -> u32 {
        self.dids.len() as u32
    }

    /// Returns the number of registered SIDs.
    pub fn len(&self) -> usize {
        self.registered
    }

    /// Returns true if no SIDs are registered.
    pub fn is_empty(&self) -> bool {
        self.registered == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypersio_trace::{HyperTraceBuilder, WorkloadKind};
    use hypersio_types::SplitMix64;

    /// The map this table replaced: `(sid, did)` pairs sorted by SID and
    /// probed by binary search. Kept as the reference the dense table must
    /// agree with.
    struct SortedSlice(Vec<(u32, Did)>);

    impl SortedSlice {
        fn new(mut pairs: Vec<(u32, Did)>) -> Self {
            pairs.sort_unstable_by_key(|&(sid, _)| sid);
            SortedSlice(pairs)
        }

        fn resolve(&self, sid: u32) -> Option<Did> {
            self.0
                .binary_search_by_key(&sid, |&(s, _)| s)
                .ok()
                .map(|i| self.0[i].1)
        }
    }

    /// Resolves every registered SID, plus a seeded mix of registered and
    /// unregistered probes, through both maps.
    fn assert_matches_sorted_slice(pairs: Vec<(u32, Did)>, seed: u64) {
        let reference = SortedSlice::new(pairs.clone());
        let mut map = SidMap::from_pairs(pairs.clone());
        assert_eq!(map.len(), pairs.len());
        for &(sid, did) in &pairs {
            assert_eq!(map.resolve(sid), did, "registered {sid:#x}");
        }
        let span = pairs.iter().map(|&(s, _)| s as u64 + 2).max().unwrap_or(2);
        let mut rng = SplitMix64::new(seed);
        for _ in 0..4096 {
            let sid = if rng.below(2) == 0 {
                pairs[rng.index(pairs.len())].0
            } else {
                rng.below(span) as u32
            };
            assert_eq!(
                map.resolve_uncached(sid),
                reference.resolve(sid),
                "{sid:#x}"
            );
        }
        for sid in [0, 1, Sid::BOUND - 1, Sid::BOUND, u32::MAX] {
            assert_eq!(
                map.resolve_uncached(sid),
                reference.resolve(sid),
                "{sid:#x}"
            );
        }
    }

    #[test]
    fn cached_resolution_matches_sorted_slice_lookup_at_1024_tenants() {
        // Every SID of a 1024-tenant trace resolves through the dense table
        // exactly as the sorted-slice binary search does, in an order that
        // repeats SIDs and interleaves pairs.
        let trace = HyperTraceBuilder::new(WorkloadKind::Iperf3, 1024)
            .scale(5000)
            .seed(42)
            .build();
        let mut map = SidMap::for_trace(&trace);
        assert_eq!(map.len(), 1024);
        let sids: Vec<u32> = trace.tenant_sids().iter().map(|s| s.raw()).collect();
        let reference = SortedSlice::new(
            sids.iter()
                .zip(0..)
                .map(|(&s, d)| (s, Did::new(d)))
                .collect(),
        );
        for &sid in &sids {
            assert_eq!(Some(map.resolve(sid)), reference.resolve(sid));
            assert_eq!(Some(map.resolve(sid)), reference.resolve(sid));
        }
        for pair in sids.chunks(2) {
            for &sid in pair.iter().chain(pair.iter().rev()) {
                assert_eq!(Some(map.resolve(sid)), reference.resolve(sid));
            }
        }
    }

    #[test]
    fn dense_table_matches_sorted_slice_for_default_bdf_and_sparse_sids() {
        // Default SIDs (the DID itself), at several tenant counts.
        for tenants in [1u32, 7, 64, 1000] {
            let pairs = (0..tenants).map(|d| (d, Did::new(d))).collect();
            assert_matches_sorted_slice(pairs, u64::from(tenants));
        }
        // SR-IOV VF SIDs derived from BDFs, handed out interleaved.
        let nic = hypersio_device::SriovDevice::new(0x3b, 2, 63);
        let pairs = nic
            .assign_interleaved(64)
            .into_iter()
            .enumerate()
            .map(|(i, vf)| (nic.sid_of(vf).raw(), Did::new(i as u32)))
            .collect();
        assert_matches_sorted_slice(pairs, 9);
        // A sparse set reaching the largest allowed SID.
        let pairs = vec![
            (100, Did::new(2)),
            (200, Did::new(0)),
            (0xff_ffff, Did::new(1)),
        ];
        assert_matches_sorted_slice(pairs, 10);
    }

    #[test]
    fn custom_trace_sids_resolve_to_their_lane_index() {
        let sids: Vec<Sid> = [0x310, 0x118, 0x200].map(Sid::new).to_vec();
        let trace = HyperTraceBuilder::new(WorkloadKind::Iperf3, 3)
            .sids(sids.clone())
            .scale(5000)
            .build();
        let mut map = SidMap::for_trace(&trace);
        assert_eq!(map.len(), 3);
        for (did, sid) in (0..).zip(&sids) {
            assert_eq!(map.resolve(sid.raw()), Did::new(did));
        }
        assert_eq!(map.sid_bound(), 0x311);
    }

    #[test]
    fn bdf_derived_sids_resolve() {
        let nic = hypersio_device::SriovDevice::new(0x3b, 2, 63);
        let pairs: Vec<(u32, Did)> = nic
            .assign_interleaved(8)
            .into_iter()
            .enumerate()
            .map(|(i, vf)| (nic.sid_of(vf).raw(), Did::new(i as u32)))
            .collect();
        let expected = pairs.clone();
        let mut map = SidMap::from_pairs(pairs);
        for (sid, did) in expected {
            assert_eq!(map.resolve(sid), did);
        }
    }

    #[test]
    fn unknown_sid_is_none_uncached() {
        let map = SidMap::from_pairs(vec![(7, Did::new(0))]);
        assert_eq!(map.resolve_uncached(8), None);
        assert_eq!(map.resolve_uncached(6), None);
        assert!(!map.is_empty());
        assert!(SidMap::from_pairs(Vec::new()).is_empty());
    }

    #[test]
    #[should_panic(expected = "duplicate SID")]
    fn duplicate_sids_rejected() {
        let _ = SidMap::from_pairs(vec![(7, Did::new(0)), (7, Did::new(1))]);
    }

    #[test]
    #[should_panic(expected = "SID bound")]
    fn sid_at_the_bound_rejected_before_allocating() {
        let _ = SidMap::from_pairs(vec![(Sid::BOUND, Did::new(0))]);
    }

    #[test]
    #[should_panic(expected = "registered at construction")]
    fn unknown_sid_panics_on_resolve() {
        let mut map = SidMap::from_pairs(vec![(7, Did::new(0))]);
        let _ = map.resolve(9);
    }
}
