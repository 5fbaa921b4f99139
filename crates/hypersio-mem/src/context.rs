//! Context cache: BDF → context-entry lookup ("CC"/"CE" in the paper's
//! Fig 3).

use hypersio_cache::{CacheKey, FullyAssocCache, OracleKey, PolicyKind};
use hypersio_types::{Bdf, Did};

/// A context entry: the per-device configuration the IOMMU reads before it
/// can translate for that device.
///
/// Holds the domain ID assigned by the host and (implicitly, via the DID)
/// the roots of the tenant's translation tables.
///
/// # Examples
///
/// ```
/// use hypersio_mem::ContextEntry;
/// use hypersio_types::Did;
///
/// let ce = ContextEntry::new(Did::new(5));
/// assert_eq!(ce.did(), Did::new(5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ContextEntry {
    did: Did,
}

impl ContextEntry {
    /// Creates a context entry for domain `did`.
    pub fn new(did: Did) -> Self {
        ContextEntry { did }
    }

    /// Returns the domain ID.
    pub fn did(&self) -> Did {
        self.did
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct BdfKey(Bdf);

impl CacheKey for BdfKey {
    fn set_selector(&self) -> u64 {
        self.0.routing_id() as u64
    }
}

impl OracleKey for BdfKey {
    fn oracle_code(&self) -> u64 {
        self.0.routing_id() as u64
    }
}

impl hypersio_cache::WordCodec for BdfKey {
    const WORDS: usize = 1;

    fn encode_words(&self, out: &mut Vec<u64>) {
        out.push(self.0.routing_id() as u64);
    }

    fn decode_words(words: &[u64]) -> Option<Self> {
        let raw = u32::try_from(*words.first()?).ok()?;
        Some(BdfKey(Bdf::from_routing_id(raw)))
    }
}

/// The IOMMU's context cache.
///
/// On a miss, hardware reads the root-table entry and the context entry
/// from memory (two DRAM accesses) — [`ContextCache::lookup_or_fetch`]
/// reports how many such reads the access cost so the caller can charge
/// them.
///
/// # Examples
///
/// ```
/// use hypersio_mem::{ContextCache, ContextEntry};
/// use hypersio_types::{Bdf, Did};
///
/// let mut cc = ContextCache::new(64);
/// cc.install(Bdf::new(7), ContextEntry::new(Did::new(7)));
/// let (ce, memory_reads) = cc.lookup_or_fetch(Bdf::new(7), 0).unwrap();
/// assert_eq!(memory_reads, 2); // cold miss fetches root + context entry
/// let (_, memory_reads) = cc.lookup_or_fetch(Bdf::new(7), 1).unwrap();
/// assert_eq!(memory_reads, 0); // now cached
/// ```
#[derive(Debug)]
pub struct ContextCache {
    /// The architected context table (in "memory"): every configured
    /// device, indexed by routing ID and holding its DID + 1 (0: not
    /// configured). Probed on every context-cache miss — at 1024 tenants
    /// the 64-entry cache thrashes and nearly every translate lands here —
    /// so a probe is one load. It grows to cover the largest installed
    /// routing ID.
    table: Vec<u32>,
    cache: FullyAssocCache<BdfKey, ContextEntry>,
}

/// DRAM reads charged for a context-cache miss (root entry + context entry).
pub(crate) const CONTEXT_MISS_READS: u64 = 2;

impl ContextCache {
    /// Creates a context cache with `entries` slots (LRU).
    pub fn new(entries: usize) -> Self {
        ContextCache {
            table: Vec::new(),
            cache: FullyAssocCache::new(entries, PolicyKind::Lru),
        }
    }

    /// Installs (or replaces) the context entry for `bdf` in the in-memory
    /// context table, as the hypervisor does when assigning a VF.
    ///
    /// # Panics
    ///
    /// Panics if the entry's DID is `u32::MAX`.
    pub fn install(&mut self, bdf: Bdf, entry: ContextEntry) {
        let id = bdf.routing_id() as usize;
        if id >= self.table.len() {
            self.table.resize(id + 1, 0);
        }
        self.table[id] = entry
            .did()
            .raw()
            .checked_add(1)
            .expect("DID u32::MAX is reserved");
    }

    /// Looks up the context entry for `bdf`, fetching from memory on a miss.
    ///
    /// Returns the entry and the number of DRAM reads the lookup cost
    /// (0 on a cache hit, 2 on a miss).
    ///
    /// Returns `None` if no context entry was ever installed for `bdf` —
    /// the device is not configured and the request must fault.
    pub fn lookup_or_fetch(&mut self, bdf: Bdf, now: u64) -> Option<(ContextEntry, u64)> {
        let key = BdfKey(bdf);
        if let Some(entry) = self.cache.lookup(&key, now) {
            return Some((*entry, 0));
        }
        let entry = match self.table.get(bdf.routing_id() as usize) {
            Some(&did) if did != 0 => ContextEntry::new(Did::new(did - 1)),
            _ => return None,
        };
        self.cache.insert(key, entry, now);
        Some((entry, CONTEXT_MISS_READS))
    }

    /// Invalidates the cached entry for `bdf` (e.g. after reassignment).
    pub fn invalidate(&mut self, bdf: Bdf) {
        let _ = self.cache.invalidate(&BdfKey(bdf));
    }

    /// Returns cache statistics.
    pub fn stats(&self) -> &hypersio_cache::CacheStats {
        self.cache.stats()
    }

    /// Appends the *cache* contents (not the architected table, which the
    /// IOMMU re-derives from tenant residency) to a checkpoint stream.
    pub fn snapshot_words(&self, out: &mut Vec<u64>) {
        self.cache.snapshot_words(out);
    }

    /// Restores the cache contents captured by [`Self::snapshot_words`].
    /// Returns `None` (leaving the cache in an unspecified but safe state)
    /// if the stream is corrupt.
    pub fn restore_words(&mut self, r: &mut hypersio_cache::WordReader<'_>) -> Option<()> {
        self.cache.restore_words(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unconfigured_device_is_none() {
        let mut cc = ContextCache::new(4);
        assert_eq!(cc.lookup_or_fetch(Bdf::new(1), 0), None);
    }

    #[test]
    fn miss_then_hit_costs() {
        let mut cc = ContextCache::new(4);
        cc.install(Bdf::new(1), ContextEntry::new(Did::new(1)));
        let (_, reads) = cc.lookup_or_fetch(Bdf::new(1), 0).unwrap();
        assert_eq!(reads, 2);
        let (_, reads) = cc.lookup_or_fetch(Bdf::new(1), 1).unwrap();
        assert_eq!(reads, 0);
    }

    #[test]
    fn capacity_evictions_refetch() {
        let mut cc = ContextCache::new(2);
        for i in 0..3u16 {
            cc.install(Bdf::new(i), ContextEntry::new(Did::new(i as u32)));
        }
        for i in 0..3u16 {
            cc.lookup_or_fetch(Bdf::new(i), i as u64).unwrap();
        }
        // Bdf 0 was LRU-evicted by the third fill.
        let (_, reads) = cc.lookup_or_fetch(Bdf::new(0), 10).unwrap();
        assert_eq!(reads, 2);
    }

    #[test]
    fn invalidate_forces_refetch() {
        let mut cc = ContextCache::new(4);
        cc.install(Bdf::new(9), ContextEntry::new(Did::new(9)));
        cc.lookup_or_fetch(Bdf::new(9), 0).unwrap();
        cc.invalidate(Bdf::new(9));
        let (_, reads) = cc.lookup_or_fetch(Bdf::new(9), 1).unwrap();
        assert_eq!(reads, 2);
    }

    #[test]
    fn table_is_indexed_by_the_full_routing_id() {
        let mut cc = ContextCache::new(4);
        let far = Bdf::from_routing_id(0x2_0005);
        cc.install(far, ContextEntry::new(Did::new(70_000)));
        cc.install(Bdf::new(5), ContextEntry::new(Did::new(0)));
        assert_eq!(
            cc.lookup_or_fetch(far, 0).unwrap().0.did(),
            Did::new(70_000)
        );
        assert_eq!(
            cc.lookup_or_fetch(Bdf::new(5), 1).unwrap().0.did(),
            Did::new(0)
        );
        for unconfigured in [Bdf::new(4), Bdf::new(6), Bdf::from_routing_id(0x3_0000)] {
            assert_eq!(cc.lookup_or_fetch(unconfigured, 2), None, "{unconfigured}");
        }
    }

    #[test]
    fn reinstall_updates_entry() {
        let mut cc = ContextCache::new(4);
        cc.install(Bdf::new(3), ContextEntry::new(Did::new(3)));
        cc.lookup_or_fetch(Bdf::new(3), 0).unwrap();
        cc.install(Bdf::new(3), ContextEntry::new(Did::new(33)));
        cc.invalidate(Bdf::new(3));
        let (ce, _) = cc.lookup_or_fetch(Bdf::new(3), 1).unwrap();
        assert_eq!(ce.did(), Did::new(33));
    }
}
