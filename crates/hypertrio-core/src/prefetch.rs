//! The translation prefetching scheme (§III): Prefetch Buffer,
//! SID-predictor, and per-DID IOVA history reader.

use std::collections::VecDeque;
use std::fmt;

use hypersio_cache::{CacheStats, FullyAssocCache, PolicyKind, WordReader};
use hypersio_types::{Did, GIova, Sid};

use crate::devtlb::{DevTlbKey, TlbEntry};

/// A prefetch decision: which tenant to prefetch for next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchRequest {
    /// The predicted next Source ID.
    pub sid: Sid,
}

/// The SID-predictor: a direct-mapped table from the currently active SID
/// to the SID predicted to be active `history_len` requests later.
///
/// Hardware load balancing gives each tenant a regular share of the request
/// stream (§III), so "who comes `H` requests after tenant *s*" is highly
/// stable (for RR arbitration it is exactly periodic). The predictor learns
/// it online: when a request from SID *t* arrives, the SID seen `H` requests
/// earlier is recorded as predicting *t*. Predicting `H` ahead gives the
/// prefetch enough lead time to hide the memory latency of the history
/// fetch and translation.
///
/// The table is a flat array indexed by raw SID, as in hardware. It grows
/// to cover a SID on the SID's first use; SIDs must be below
/// [`Sid::BOUND`].
///
/// # Examples
///
/// ```
/// use hypersio_types::Sid;
/// use hypertrio_core::SidPredictor;
///
/// let mut p = SidPredictor::new(2);
/// // Round-robin arrivals 0,1,2,0,1,2...
/// for i in 0..12u32 {
///     p.observe(Sid::new(i % 3));
/// }
/// // Two steps after tenant 0 comes tenant 2.
/// assert_eq!(p.predict(Sid::new(0)), Some(Sid::new(2)));
/// ```
#[derive(Debug, Clone)]
pub struct SidPredictor {
    history_len: usize,
    window: VecDeque<Sid>,
    /// Learned `predecessor -> successor` mappings: indexed by the
    /// predecessor's raw SID, holding the successor's raw SID + 1 (0: no
    /// mapping learned yet).
    table: Vec<u32>,
    /// SIDs a checkpoint may restore, as set by [`SidPredictor::set_bound`].
    bound: usize,
    predictions: u64,
    hits_possible: u64,
}

impl SidPredictor {
    /// Creates a predictor with the given history length (the paper finds
    /// 48 optimal for its system, Table IV).
    ///
    /// # Panics
    ///
    /// Panics if `history_len` is zero.
    pub fn new(history_len: usize) -> Self {
        assert!(history_len > 0, "history length must be at least 1");
        SidPredictor {
            history_len,
            window: VecDeque::with_capacity(history_len + 1),
            table: Vec::new(),
            bound: 0,
            predictions: 0,
            hits_possible: 0,
        }
    }

    /// Declares the SIDs in use to be `0..sid_bound`: a checkpoint then
    /// restores SIDs below this bound (or below the size the table has
    /// grown to, if larger). The table still grows on first use.
    ///
    /// # Panics
    ///
    /// Panics if `sid_bound` exceeds [`Sid::BOUND`].
    pub(crate) fn set_bound(&mut self, sid_bound: u32) {
        assert!(
            sid_bound <= Sid::BOUND,
            "SID bound {sid_bound:#x} is too large"
        );
        self.bound = sid_bound as usize;
    }

    /// Returns the configured history length.
    pub fn history_len(&self) -> usize {
        self.history_len
    }

    /// Reconfigures the history length (the host updates this register when
    /// tenants are added/removed or bandwidth allocations change).
    ///
    /// Learned mappings are kept; the observation window is trimmed.
    ///
    /// # Panics
    ///
    /// Panics if `history_len` is zero.
    pub fn set_history_len(&mut self, history_len: usize) {
        assert!(history_len > 0, "history length must be at least 1");
        self.history_len = history_len;
        while self.window.len() > self.history_len + 1 {
            self.window.pop_front();
        }
    }

    /// Records an arrival from `sid`, training the table.
    ///
    /// # Panics
    ///
    /// Panics if `sid` is not below [`Sid::BOUND`].
    pub fn observe(&mut self, sid: Sid) {
        assert!(sid.raw() < Sid::BOUND, "{sid} is not below the SID bound");
        self.window.push_back(sid);
        if self.window.len() > self.history_len {
            // The SID `history_len` steps back now predicts `sid`.
            let past = self.window[self.window.len() - 1 - self.history_len].raw() as usize;
            if past >= self.table.len() {
                grow_zeroed(&mut self.table, past + 1);
            }
            self.table[past] = sid.raw() + 1;
            if self.window.len() > self.history_len + 1 {
                self.window.pop_front();
            }
        }
    }

    /// Predicts the SID expected `history_len` requests after `current`.
    pub fn predict(&mut self, current: Sid) -> Option<Sid> {
        self.predictions += 1;
        let p = match self.table.get(current.raw() as usize) {
            Some(&next) if next != 0 => Some(Sid::new(next - 1)),
            _ => None,
        };
        if p.is_some() {
            self.hits_possible += 1;
        }
        p
    }

    /// Returns (predictions made, predictions that had a table entry).
    pub fn coverage(&self) -> (u64, u64) {
        (self.predictions, self.hits_possible)
    }

    /// Appends the predictor's mutable state (observation window, learned
    /// mappings in ascending-SID order, coverage counters) to a checkpoint
    /// word stream.
    fn snapshot_words(&self, out: &mut Vec<u64>) {
        out.push(self.window.len() as u64);
        out.extend(self.window.iter().map(|s| s.raw() as u64));
        let learned = || {
            self.table
                .iter()
                .enumerate()
                .filter(|&(_, &next)| next != 0)
        };
        out.push(learned().count() as u64);
        for (sid, &next) in learned() {
            out.push(sid as u64);
            out.push(u64::from(next - 1));
        }
        out.push(self.predictions);
        out.push(self.hits_possible);
    }

    /// Restores the state written by [`SidPredictor::snapshot_words`].
    /// Every SID read must lie below the bound or the grown table size;
    /// no table is sized from the stream.
    fn restore_words(&mut self, r: &mut WordReader<'_>) -> Option<()> {
        let len = self.bound.max(self.table.len());
        self.table.clear();
        self.table.resize(len, 0);
        let bound = len as u64;
        let sid = |r: &mut WordReader<'_>| {
            let raw = r.next()?;
            (raw < bound).then_some(raw as u32)
        };
        let n = r.len_capped(self.history_len + 1)?;
        self.window.clear();
        for _ in 0..n {
            self.window.push_back(Sid::new(sid(r)?));
        }
        let n = r.len_capped(r.remaining() / 2)?;
        for _ in 0..n {
            let key = sid(r)?;
            let value = sid(r)?;
            self.table[key as usize] = value + 1;
        }
        self.predictions = r.next()?;
        self.hits_possible = r.next()?;
        Some(())
    }
}

/// Grows `table` with zeroes to `len` entries: the cold path of a first
/// use past its size.
#[cold]
#[inline(never)]
fn grow_zeroed<T: Copy + Default>(table: &mut Vec<T>, len: usize) {
    table.resize(len, T::default());
}

/// The per-DID history of recently used gIOVAs, kept in main memory.
///
/// The chipset-side IOVA history reader fetches the most recent entries for
/// a predicted tenant and issues translation requests for them. Keeping the
/// history in main memory makes the hardware cost independent of tenant
/// count (§III) — only the small reader state machine lives on the chipset.
///
/// The model keeps it the same way: one slab of `depth` page words per DID
/// plus a one-byte length per DID, indexed directly by DID. The slab grows
/// to cover a DID on its first record.
///
/// # Examples
///
/// ```
/// use hypersio_types::{Did, GIova};
/// use hypertrio_core::IovaHistoryReader;
///
/// let mut h = IovaHistoryReader::new(8);
/// h.record(Did::new(0), GIova::new(0xbbe0_0000));
/// h.record(Did::new(0), GIova::new(0xbbe0_0042)); // same page: coalesced
/// h.record(Did::new(0), GIova::new(0x3480_0000));
/// assert_eq!(
///     h.recent(Did::new(0), 2),
///     vec![GIova::new(0x3480_0000), GIova::new(0xbbe0_0000)]
/// );
/// ```
#[derive(Debug, Clone)]
pub struct IovaHistoryReader {
    depth: usize,
    /// Most-recent-first page-granule history: DID `d`'s ring is
    /// `pages[d * depth..][..lens[d]]`.
    pages: Vec<u64>,
    /// Remembered pages per DID (at most `depth`).
    lens: Vec<u8>,
    /// DIDs a checkpoint may restore, as set by
    /// [`IovaHistoryReader::set_bound`].
    bound: usize,
    fetches: u64,
}

/// Granule at which history entries are coalesced (4 KB pages; consecutive
/// accesses to the same page collapse into one entry).
const HISTORY_PAGE_SHIFT: u32 = 12;

impl IovaHistoryReader {
    /// Creates a history with `depth` remembered pages per tenant.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero or above 255.
    pub fn new(depth: usize) -> Self {
        assert!(depth > 0, "history depth must be at least 1");
        assert!(
            depth <= u8::MAX as usize,
            "history depth must be at most 255"
        );
        IovaHistoryReader {
            depth,
            pages: Vec::new(),
            lens: Vec::new(),
            bound: 0,
            fetches: 0,
        }
    }

    /// Declares the DIDs in use to be `0..did_bound`: a checkpoint then
    /// restores DIDs below this bound (or below the size the slab has
    /// grown to, if larger). The slab still grows on first use.
    pub(crate) fn set_bound(&mut self, did_bound: u32) {
        self.bound = did_bound as usize;
    }

    /// Grows the slab to cover DIDs `0..dids`: the cold path of a first
    /// record past its size.
    #[cold]
    #[inline(never)]
    fn grow(&mut self, dids: usize) {
        grow_zeroed(&mut self.lens, dids);
        grow_zeroed(&mut self.pages, dids * self.depth);
    }

    /// Records a translated gIOVA for `did` (called on every completed
    /// translation, as the IOMMU writes the running history to memory).
    pub fn record(&mut self, did: Did, iova: GIova) {
        let page = iova.raw() >> HISTORY_PAGE_SHIFT << HISTORY_PAGE_SHIFT;
        let d = did.index();
        if d >= self.lens.len() {
            self.grow(d + 1);
        }
        let ring = &mut self.pages[d * self.depth..(d + 1) * self.depth];
        let len = self.lens[d] as usize;
        // A re-recorded page moves to the front; otherwise every entry
        // shifts back one and the oldest falls off a full ring.
        let (shifted, len) = match ring[..len].iter().position(|&p| p == page) {
            Some(pos) => (pos, len),
            None if len == self.depth => (len - 1, len),
            None => (len, len + 1),
        };
        ring.copy_within(..shifted, 1);
        ring[0] = page;
        self.lens[d] = len as u8;
    }

    /// Returns the `n` most recently used pages of `did`, most recent first.
    ///
    /// Each call models one memory fetch by the history reader.
    pub fn recent(&mut self, did: Did, n: usize) -> Vec<GIova> {
        let mut pages = Vec::new();
        self.recent_into(did, n, &mut pages);
        pages
    }

    /// Allocation-free variant of [`Self::recent`]: clears `out` and fills
    /// it with the `n` most recently used pages, most recent first. Counts
    /// one memory fetch, exactly like `recent`.
    pub fn recent_into(&mut self, did: Did, n: usize, out: &mut Vec<GIova>) {
        self.fetches += 1;
        out.clear();
        out.extend(self.ring(did).iter().take(n).map(|&p| GIova::new(p)));
    }

    /// `did`'s remembered pages, most recent first (empty for a DID
    /// never recorded).
    fn ring(&self, did: Did) -> &[u64] {
        let d = did.index();
        match self.lens.get(d) {
            Some(&len) => &self.pages[d * self.depth..][..len as usize],
            None => &[],
        }
    }

    /// Returns the number of history fetches performed.
    pub fn fetches(&self) -> u64 {
        self.fetches
    }

    /// Discards the remembered pages of `did` (the hypervisor resets the
    /// in-memory history when it shoots down that domain's translations —
    /// the recorded gIOVAs would otherwise drive prefetches of mappings
    /// that no longer exist).
    pub fn forget(&mut self, did: Did) {
        if let Some(len) = self.lens.get_mut(did.index()) {
            *len = 0;
        }
    }

    /// Discards every tenant's remembered pages (global shootdown).
    pub fn forget_all(&mut self) {
        self.lens.fill(0);
    }

    /// Appends the reader's mutable state (the non-empty rings in
    /// ascending-DID order, fetch counter) to a checkpoint word stream.
    fn snapshot_words(&self, out: &mut Vec<u64>) {
        out.push(self.lens.iter().filter(|&&len| len != 0).count() as u64);
        for (d, _) in self.lens.iter().enumerate().filter(|&(_, &len)| len != 0) {
            let ring = self.ring(Did::new(d as u32));
            out.push(d as u64);
            out.push(ring.len() as u64);
            out.extend_from_slice(ring);
        }
        out.push(self.fetches);
    }

    /// Restores the state written by [`IovaHistoryReader::snapshot_words`].
    /// Every DID read must lie below the bound or the grown slab size; no
    /// slab is sized from the stream.
    fn restore_words(&mut self, r: &mut WordReader<'_>) -> Option<()> {
        let dids = self.bound.max(self.lens.len());
        self.lens.clear();
        self.lens.resize(dids, 0);
        self.pages.resize(dids * self.depth, 0);
        let tenants = r.len_capped(r.remaining())?;
        for _ in 0..tenants {
            let d = usize::try_from(r.next()?).ok()?;
            if d >= self.lens.len() {
                return None;
            }
            let len = r.len_capped(self.depth)?;
            let ring = &mut self.pages[d * self.depth..][..len];
            for page in ring.iter_mut() {
                *page = r.next()?;
            }
            self.lens[d] = len as u8;
        }
        self.fetches = r.next()?;
        Some(())
    }
}

/// Configuration and state of the on-device Prefetch Unit plus the
/// chipset-side history reader.
///
/// The unit is consulted *concurrently* with the DevTLB: a PB hit supplies
/// the translation without any PCIe traffic. On a PB miss the SID-predictor
/// proposes a tenant to prefetch for; the model then reads that tenant's
/// two most-recent gIOVAs from memory and translates them through the
/// IOMMU, filling the PB (and warming the walk caches as a side effect).
pub struct PrefetchUnit {
    buffer: FullyAssocCache<DevTlbKey, TlbEntry>,
    predictor: SidPredictor,
    history: IovaHistoryReader,
    pages_per_prefetch: usize,
}

impl PrefetchUnit {
    /// Creates a prefetch unit.
    ///
    /// The paper's configuration (Table IV): `pb_entries = 8`,
    /// `history_len = 48`, `pages_per_prefetch = 2`, with a history depth
    /// matching the pages fetched per prefetch.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero.
    pub fn new(pb_entries: usize, history_len: usize, pages_per_prefetch: usize) -> Self {
        assert!(pages_per_prefetch > 0, "must prefetch at least one page");
        PrefetchUnit {
            buffer: FullyAssocCache::new(pb_entries, PolicyKind::Lru),
            predictor: SidPredictor::new(history_len),
            history: IovaHistoryReader::new(pages_per_prefetch.max(4)),
            pages_per_prefetch,
        }
    }

    /// Declares the tenant population: SIDs `0..sid_bound` and DIDs
    /// `0..did_bound`. Both tables still grow on first use; the bounds
    /// are what a checkpoint restore accepts. A unit built by
    /// [`PrefetchUnit::new`] alone restores only SIDs and DIDs below the
    /// sizes its tables have grown to.
    ///
    /// # Panics
    ///
    /// Panics if `sid_bound` exceeds [`Sid::BOUND`].
    pub fn with_bounds(mut self, sid_bound: u32, did_bound: u32) -> Self {
        self.predictor.set_bound(sid_bound);
        self.history.set_bound(did_bound);
        self
    }

    /// Returns the number of pages fetched per prefetch (paper: 2).
    pub fn pages_per_prefetch(&self) -> usize {
        self.pages_per_prefetch
    }

    /// Returns the SID-predictor history length (paper: 48).
    pub fn history_len(&self) -> usize {
        self.predictor.history_len()
    }

    /// Checks the Prefetch Buffer for `iova` (probing 2 MB then 4 KB tags).
    ///
    /// The two granule tags are probed in one fused pass; exactly one hit
    /// or miss is recorded, identical to a 2 MB peek followed by a single
    /// policy-visible lookup.
    pub fn lookup(&mut self, did: Did, iova: GIova, now: u64) -> Option<TlbEntry> {
        use hypersio_types::PageSize;
        let key_2m = DevTlbKey::new(did, iova, PageSize::Size2M);
        let key_4k = DevTlbKey::new(did, iova, PageSize::Size4K);
        self.buffer.lookup_fused(&key_2m, &key_4k, now).copied()
    }

    /// Probes the Prefetch Buffer for a batch of gIOVAs, each at its own
    /// access index, exactly as sequential [`Self::lookup`] calls would —
    /// one recorded hit or miss per element. The per-element `nows` are
    /// explicit because the caller probes only the DevTLB-miss subset of a
    /// request batch, whose request indices are not contiguous.
    ///
    /// # Panics
    ///
    /// Panics if `iovas`, `nows`, and `out` lengths differ.
    pub fn lookup_batch(
        &mut self,
        did: Did,
        iovas: &[GIova],
        nows: &[u64],
        out: &mut [Option<TlbEntry>],
    ) {
        assert_eq!(iovas.len(), nows.len(), "lookup_batch length mismatch");
        assert_eq!(
            iovas.len(),
            out.len(),
            "lookup_batch buffer length mismatch"
        );
        for ((&iova, &now), slot) in iovas.iter().zip(nows.iter()).zip(out.iter_mut()) {
            *slot = self.lookup(did, iova, now);
        }
    }

    /// Observes an arrival from `sid` and, if the predictor has a mapping,
    /// returns the prefetch to launch.
    pub fn observe(&mut self, sid: Sid) -> Option<PrefetchRequest> {
        self.predictor.observe(sid);
        self.predictor
            .predict(sid)
            .map(|sid| PrefetchRequest { sid })
    }

    /// Records a completed translation in the per-DID history.
    pub fn record_history(&mut self, did: Did, iova: GIova) {
        self.history.record(did, iova);
    }

    /// Reads the most recent pages to prefetch for `did`.
    pub fn history_pages(&mut self, did: Did) -> Vec<GIova> {
        let n = self.pages_per_prefetch;
        self.history.recent(did, n)
    }

    /// Plans one prefetch for `did`: reads the tenant's recent pages from
    /// history (one memory fetch) and filters out pages already resident in
    /// the Prefetch Buffer, returning the pages the caller should translate
    /// and later [`PrefetchUnit::fill`].
    ///
    /// The residency probes count in the PB statistics exactly like demand
    /// lookups (hardware shares the tag port).
    pub fn plan(&mut self, did: Did, now: u64) -> Vec<GIova> {
        let mut pages = Vec::new();
        self.plan_into(did, now, &mut pages);
        pages
    }

    /// Allocation-free variant of [`Self::plan`]: clears `out` and fills it
    /// with the pages to translate. History fetch and residency-probe
    /// accounting are identical to `plan`.
    pub fn plan_into(&mut self, did: Did, now: u64, out: &mut Vec<GIova>) {
        let n = self.pages_per_prefetch;
        self.history.recent_into(did, n, out);
        out.retain(|&iova| self.lookup(did, iova, now).is_none());
    }

    /// Installs a prefetched translation into the Prefetch Buffer.
    ///
    /// Returns the entry evicted to make room, if any (the 8-entry PB
    /// churns under load; eviction visibility is what the observability
    /// layer uses to report PB pressure).
    pub fn fill(
        &mut self,
        did: Did,
        iova: GIova,
        entry: TlbEntry,
        now: u64,
    ) -> Option<(DevTlbKey, TlbEntry)> {
        let key = DevTlbKey::new(did, iova, entry.size);
        self.buffer.insert(key, entry, now)
    }

    /// Shoots down everything the unit holds for `did`: the Prefetch
    /// Buffer entries (which would otherwise keep serving stale gIOVA→hPA
    /// translations after an invalidation) and the per-DID IOVA history
    /// (which would re-prefetch the invalidated pages). Returns the number
    /// of PB entries removed.
    pub fn invalidate_did(&mut self, did: Did) -> usize {
        self.history.forget(did);
        self.buffer.invalidate_matching(|k| k.did == did)
    }

    /// Global shootdown: drops every PB entry and every tenant's history.
    /// Returns the number of PB entries removed.
    pub fn invalidate_all(&mut self) -> usize {
        self.history.forget_all();
        let removed = self.buffer.len();
        self.buffer.clear();
        removed
    }

    /// Returns Prefetch Buffer statistics (hits = requests served without
    /// touching the DevTLB/IOMMU path).
    pub fn buffer_stats(&self) -> &CacheStats {
        self.buffer.stats()
    }

    /// Returns predictor coverage: (predictions made, table hits).
    pub fn predictor_coverage(&self) -> (u64, u64) {
        self.predictor.coverage()
    }

    /// Returns the number of history fetches performed.
    pub fn history_fetches(&self) -> u64 {
        self.history.fetches()
    }

    /// Appends the unit's full mutable state — Prefetch Buffer slab,
    /// SID-predictor, and IOVA histories — to a checkpoint word stream.
    pub fn snapshot_words(&self, out: &mut Vec<u64>) {
        self.buffer.snapshot_words(out);
        self.predictor.snapshot_words(out);
        self.history.snapshot_words(out);
    }

    /// Restores the state written by [`PrefetchUnit::snapshot_words`] into
    /// this identically configured unit. Returns `None` on a corrupt
    /// stream.
    pub fn restore_words(&mut self, r: &mut WordReader<'_>) -> Option<()> {
        self.buffer.restore_words(r)?;
        self.predictor.restore_words(r)?;
        self.history.restore_words(r)
    }
}

impl fmt::Debug for PrefetchUnit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PrefetchUnit")
            .field("pb_capacity", &self.buffer.capacity())
            .field("history_len", &self.predictor.history_len())
            .field("pages_per_prefetch", &self.pages_per_prefetch)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypersio_types::{HPa, PageSize};

    #[test]
    fn predictor_learns_round_robin() {
        let mut p = SidPredictor::new(4);
        for round in 0..8u32 {
            for t in 0..8u32 {
                p.observe(Sid::new(t));
                let _ = round;
            }
        }
        // Four steps after tenant 1 comes tenant 5.
        assert_eq!(p.predict(Sid::new(1)), Some(Sid::new(5)));
        // Wrap-around: four steps after 6 comes 2.
        assert_eq!(p.predict(Sid::new(6)), Some(Sid::new(2)));
    }

    #[test]
    fn predictor_needs_warmup() {
        let mut p = SidPredictor::new(4);
        p.observe(Sid::new(0));
        assert_eq!(p.predict(Sid::new(0)), None);
        let (asked, hit) = p.coverage();
        assert_eq!((asked, hit), (1, 0));
    }

    #[test]
    fn predictor_adapts_to_changed_order() {
        let mut p = SidPredictor::new(1);
        for _ in 0..4 {
            p.observe(Sid::new(0));
            p.observe(Sid::new(1));
        }
        assert_eq!(p.predict(Sid::new(0)), Some(Sid::new(1)));
        // Tenant 2 replaces tenant 1 in the rotation.
        for _ in 0..4 {
            p.observe(Sid::new(0));
            p.observe(Sid::new(2));
        }
        assert_eq!(p.predict(Sid::new(0)), Some(Sid::new(2)));
    }

    #[test]
    fn set_history_len_trims_window() {
        let mut p = SidPredictor::new(16);
        for t in 0..32u32 {
            p.observe(Sid::new(t));
        }
        p.set_history_len(2);
        p.observe(Sid::new(100));
        p.observe(Sid::new(101));
        // Window is now short but training continues.
        assert_eq!(p.predict(Sid::new(100)), None); // 100 maps 2 ahead, not yet seen
        p.observe(Sid::new(102));
        assert_eq!(p.predict(Sid::new(100)), Some(Sid::new(102)));
    }

    #[test]
    fn history_is_mru_first_and_coalesced() {
        let mut h = IovaHistoryReader::new(4);
        let did = Did::new(0);
        h.record(did, GIova::new(0x1000));
        h.record(did, GIova::new(0x2000));
        h.record(did, GIova::new(0x1abc)); // page 0x1000 again -> moves to front
        assert_eq!(
            h.recent(did, 4),
            vec![GIova::new(0x1000), GIova::new(0x2000)]
        );
    }

    #[test]
    fn history_depth_is_bounded() {
        let mut h = IovaHistoryReader::new(2);
        let did = Did::new(3);
        for i in 0..10u64 {
            h.record(did, GIova::new(i * 0x1000));
        }
        assert_eq!(h.recent(did, 10).len(), 2);
    }

    #[test]
    fn history_unknown_did_is_empty() {
        let mut h = IovaHistoryReader::new(2);
        assert!(h.recent(Did::new(42), 2).is_empty());
        assert_eq!(h.fetches(), 1);
    }

    #[test]
    fn unit_end_to_end_prefetch_flow() {
        let mut pu = PrefetchUnit::new(8, 2, 2);
        let entry = TlbEntry {
            hpa_base: HPa::new(0x7000_0000),
            size: PageSize::Size2M,
        };
        // Tenant 1's history is populated by earlier completions.
        pu.record_history(Did::new(1), GIova::new(0xbbe0_0000));
        // Warm the predictor with RR over 3 tenants.
        let mut req = None;
        for _ in 0..6 {
            for t in 0..3u32 {
                req = pu.observe(Sid::new(t));
            }
        }
        // After observing tenant 2, the predictor proposes a tenant (2 steps
        // ahead of 2 in RR(3) = tenant 1).
        let req = req.expect("predictor trained");
        assert_eq!(req.sid, Sid::new(1));
        // The model fetches tenant 1's recent pages and fills the PB.
        let pages = pu.history_pages(Did::new(1));
        assert_eq!(pages, vec![GIova::new(0xbbe0_0000)]);
        pu.fill(Did::new(1), pages[0], entry, 100);
        // A later request from tenant 1 hits the PB.
        let hit = pu
            .lookup(Did::new(1), GIova::new(0xbbe0_1234), 101)
            .unwrap();
        assert_eq!(hit.translate(GIova::new(0xbbe0_1234)).raw(), 0x7000_1234);
        assert_eq!(pu.buffer_stats().hits(), 1);
    }

    #[test]
    fn shootdown_regression_pb_must_not_serve_stale_entries() {
        // Regression for the latent invalidation gap: before
        // `invalidate_did` existed, a DID shootdown cleared the DevTLB but
        // the PB kept serving the stale gIOVA→hPA mapping and the history
        // kept re-planning prefetches of it.
        let mut pu = PrefetchUnit::new(8, 48, 2);
        let did = Did::new(3);
        let iova = GIova::new(0xbbe0_0000);
        let entry = TlbEntry {
            hpa_base: HPa::new(0x7000_0000),
            size: PageSize::Size2M,
        };
        pu.record_history(did, iova);
        pu.fill(did, iova, entry, 0);
        assert!(pu.lookup(did, iova, 1).is_some());
        assert_eq!(pu.history_pages(did), vec![GIova::new(0xbbe0_0000)]);

        assert_eq!(pu.invalidate_did(did), 1);
        assert!(
            pu.lookup(did, iova, 2).is_none(),
            "PB served a stale translation after its DID was shot down"
        );
        assert!(
            pu.history_pages(did).is_empty(),
            "history would re-prefetch invalidated pages"
        );

        // Another tenant's state is untouched.
        let other = Did::new(4);
        pu.record_history(other, GIova::new(0x1000));
        pu.fill(
            other,
            GIova::new(0x1000),
            TlbEntry {
                hpa_base: HPa::new(0x8000_0000),
                size: PageSize::Size4K,
            },
            3,
        );
        pu.invalidate_did(did);
        assert!(pu.lookup(other, GIova::new(0x1000), 4).is_some());

        // Global shootdown drops everything.
        assert_eq!(pu.invalidate_all(), 1);
        assert!(pu.lookup(other, GIova::new(0x1000), 5).is_none());
        assert!(pu.history_pages(other).is_empty());
    }

    #[test]
    fn pb_miss_is_single_stat() {
        let mut pu = PrefetchUnit::new(8, 48, 2);
        assert!(pu.lookup(Did::new(0), GIova::new(0x1000), 0).is_none());
        assert_eq!(pu.buffer_stats().accesses(), 1);
    }

    /// The predictor the flat table replaced: the same window, learning
    /// into a hash map. The reference the table must agree with.
    struct MapPredictor {
        history_len: usize,
        window: VecDeque<Sid>,
        table: std::collections::HashMap<Sid, Sid>,
        predictions: u64,
        hits_possible: u64,
    }

    impl MapPredictor {
        fn new(history_len: usize) -> Self {
            MapPredictor {
                history_len,
                window: VecDeque::new(),
                table: Default::default(),
                predictions: 0,
                hits_possible: 0,
            }
        }

        fn set_history_len(&mut self, history_len: usize) {
            self.history_len = history_len;
            while self.window.len() > self.history_len + 1 {
                self.window.pop_front();
            }
        }

        fn observe(&mut self, sid: Sid) {
            self.window.push_back(sid);
            if self.window.len() > self.history_len {
                let past = self.window[self.window.len() - 1 - self.history_len];
                self.table.insert(past, sid);
                if self.window.len() > self.history_len + 1 {
                    self.window.pop_front();
                }
            }
        }

        fn predict(&mut self, current: Sid) -> Option<Sid> {
            self.predictions += 1;
            let p = self.table.get(&current).copied();
            self.hits_possible += u64::from(p.is_some());
            p
        }

        fn snapshot_words(&self, out: &mut Vec<u64>) {
            out.push(self.window.len() as u64);
            out.extend(self.window.iter().map(|s| s.raw() as u64));
            let mut entries: Vec<(Sid, Sid)> = self.table.iter().map(|(&k, &v)| (k, v)).collect();
            entries.sort_unstable();
            out.push(entries.len() as u64);
            for (k, v) in entries {
                out.push(k.raw() as u64);
                out.push(v.raw() as u64);
            }
            out.push(self.predictions);
            out.push(self.hits_possible);
        }
    }

    /// The history the slab replaced: one ring per DID in a hash map.
    struct MapHistory {
        depth: usize,
        histories: std::collections::HashMap<Did, VecDeque<GIova>>,
        fetches: u64,
    }

    impl MapHistory {
        fn record(&mut self, did: Did, iova: GIova) {
            let page = GIova::new(iova.raw() >> HISTORY_PAGE_SHIFT << HISTORY_PAGE_SHIFT);
            let h = self.histories.entry(did).or_default();
            if let Some(pos) = h.iter().position(|&p| p == page) {
                h.remove(pos);
            }
            h.push_front(page);
            h.truncate(self.depth);
        }

        fn recent(&mut self, did: Did, n: usize) -> Vec<GIova> {
            self.fetches += 1;
            self.histories
                .get(&did)
                .map(|h| h.iter().take(n).copied().collect())
                .unwrap_or_default()
        }

        fn snapshot_words(&self, out: &mut Vec<u64>) {
            let mut dids: Vec<Did> = self.histories.keys().copied().collect();
            dids.sort_unstable();
            out.push(dids.len() as u64);
            for did in dids {
                let ring = &self.histories[&did];
                out.push(did.raw() as u64);
                out.push(ring.len() as u64);
                out.extend(ring.iter().map(|p| p.raw()));
            }
            out.push(self.fetches);
        }
    }

    #[test]
    fn flat_predictor_matches_the_map_predictor_under_random_operations() {
        for (seed, sids, sized) in [(1u64, 3u32, false), (2, 40, true), (3, 1000, false)] {
            let mut rng = hypersio_types::SplitMix64::new(seed);
            let history_len = 1 + rng.index(8);
            let mut flat = SidPredictor::new(history_len);
            if sized {
                flat.set_bound(sids);
            }
            let mut map = MapPredictor::new(history_len);
            for step in 0..20_000u32 {
                match rng.below(100) {
                    // Mostly round-robin arrivals, with random interlopers.
                    0..=59 => {
                        let sid = Sid::new(step % sids);
                        flat.observe(sid);
                        map.observe(sid);
                    }
                    60..=79 => {
                        let sid = Sid::new(rng.below(sids as u64) as u32);
                        flat.observe(sid);
                        map.observe(sid);
                    }
                    80..=98 => {
                        // Probe past the largest SID too.
                        let sid = Sid::new(rng.below(sids as u64 + 2) as u32);
                        assert_eq!(flat.predict(sid), map.predict(sid), "step {step}");
                    }
                    _ => {
                        let len = 1 + rng.index(8);
                        flat.set_history_len(len);
                        map.set_history_len(len);
                    }
                }
            }
            assert_eq!(flat.coverage(), (map.predictions, map.hits_possible));
            let (mut a, mut b) = (Vec::new(), Vec::new());
            flat.snapshot_words(&mut a);
            map.snapshot_words(&mut b);
            assert_eq!(a, b, "checkpoint words, seed {seed}");
        }
    }

    #[test]
    fn history_slab_matches_the_map_history_under_random_operations() {
        for dids in [1u32, 2, 7, 64] {
            for depth in [1usize, 4] {
                let mut rng = hypersio_types::SplitMix64::new(u64::from(dids) * 10 + depth as u64);
                let mut slab = IovaHistoryReader::new(depth);
                if dids == 7 {
                    slab.set_bound(dids);
                }
                let mut map = MapHistory {
                    depth,
                    histories: Default::default(),
                    fetches: 0,
                };
                for step in 0..20_000 {
                    let did = Did::new(rng.below(u64::from(dids)) as u32);
                    match rng.below(100) {
                        0..=69 => {
                            // Few distinct pages, so re-records are common.
                            let page = rng.below(2 * depth as u64 + 2) << HISTORY_PAGE_SHIFT;
                            let iova = GIova::new(0x3480_0000 + page + rng.below(4096));
                            slab.record(did, iova);
                            map.record(did, iova);
                        }
                        70..=94 => {
                            let n = rng.index(depth + 2);
                            assert_eq!(slab.recent(did, n), map.recent(did, n), "step {step}");
                        }
                        95..=98 => {
                            slab.forget(did);
                            map.histories.remove(&did);
                        }
                        _ => {
                            slab.forget_all();
                            map.histories.clear();
                        }
                    }
                }
                assert_eq!(slab.fetches(), map.fetches);
                let (mut a, mut b) = (Vec::new(), Vec::new());
                slab.snapshot_words(&mut a);
                map.snapshot_words(&mut b);
                assert_eq!(a, b, "checkpoint words, {dids} DIDs, depth {depth}");
            }
        }
    }

    #[test]
    fn restore_rejects_sids_and_dids_at_the_bound() {
        let unit = || PrefetchUnit::new(8, 4, 2).with_bounds(16, 16);
        // Predictor stream: window, learned pairs, coverage counters.
        let predictor = |window: &[u64], pairs: &[u64]| {
            let mut words = vec![window.len() as u64];
            words.extend_from_slice(window);
            words.push(pairs.len() as u64 / 2);
            words.extend_from_slice(pairs);
            words.extend([0, 0]);
            words
        };
        for (words, ok) in [
            (predictor(&[15], &[15, 15]), true),
            (predictor(&[16], &[]), false),
            (predictor(&[], &[16, 0]), false),
            (predictor(&[], &[0, 16]), false),
            (predictor(&[], &[u64::MAX, 0]), false),
        ] {
            let mut pu = unit();
            let restored = pu.predictor.restore_words(&mut WordReader::new(&words));
            assert_eq!(restored.is_some(), ok, "{words:?}");
            assert_eq!(pu.predictor.table.len(), 16, "{words:?}");
        }
        // History stream: rings of (did, len, pages), fetch counter.
        for (did, ok) in [(15u64, true), (16, false), (u64::MAX, false)] {
            let words = [1, did, 1, 0x1000, 0];
            let mut pu = unit();
            let restored = pu.history.restore_words(&mut WordReader::new(&words));
            assert_eq!(restored.is_some(), ok, "DID {did:#x}");
            assert_eq!(
                (pu.history.lens.len(), pu.history.pages.len()),
                (16, 16 * 4),
                "DID {did:#x}"
            );
        }
        // A unit that was never sized restores nothing but empty state.
        let mut pu = PrefetchUnit::new(8, 4, 2);
        assert!(pu
            .history
            .restore_words(&mut WordReader::new(&[1, 0, 1, 0x1000, 0]))
            .is_none());
        assert!(pu.history.lens.is_empty());
    }

    #[test]
    fn unsized_unit_grows_on_first_use_and_matches_a_sized_one() {
        let mut grown = PrefetchUnit::new(8, 2, 2);
        let mut sized = PrefetchUnit::new(8, 2, 2).with_bounds(64, 64);
        for i in 0..200u32 {
            let sid = Sid::new((i * 7) % 64);
            assert_eq!(grown.observe(sid), sized.observe(sid));
            grown.record_history(Did::new(sid.raw()), GIova::new(u64::from(i) << 12));
            sized.record_history(Did::new(sid.raw()), GIova::new(u64::from(i) << 12));
        }
        let (mut a, mut b) = (Vec::new(), Vec::new());
        grown.snapshot_words(&mut a);
        sized.snapshot_words(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "SID bound")]
    fn predictor_rejects_sids_past_the_bound() {
        SidPredictor::new(1).observe(Sid::new(Sid::BOUND));
    }

    #[test]
    #[should_panic(expected = "history length")]
    fn zero_history_rejected() {
        let _ = SidPredictor::new(0);
    }

    #[test]
    #[should_panic(expected = "at least one page")]
    fn zero_prefetch_pages_rejected() {
        let _ = PrefetchUnit::new(8, 48, 0);
    }
}
