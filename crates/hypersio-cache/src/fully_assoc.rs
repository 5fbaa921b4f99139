//! Fully-associative cache (single-set convenience wrapper).

use std::fmt;

use crate::geometry::CacheGeometry;
use crate::policy::{OracleKey, PolicyKind};
use crate::set_assoc::{CacheKey, SetAssocCache};
use crate::stats::CacheStats;

/// A fully-associative cache: any key may occupy any entry.
///
/// Used for HyperTRIO's 8-entry Prefetch Buffer and for the Fig 11c study of
/// a hypothetical fully-associative DevTLB with oracle replacement. This is
/// a thin wrapper over [`SetAssocCache`] with a single set, kept as its own
/// type so APIs can demand full associativity where the paper does.
///
/// # Examples
///
/// ```
/// use hypersio_cache::{FullyAssocCache, PolicyKind};
///
/// let mut pb: FullyAssocCache<u64, u64> = FullyAssocCache::new(8, PolicyKind::Lru);
/// pb.insert(1, 100, 0);
/// assert_eq!(pb.lookup(&1, 1), Some(&100));
/// assert_eq!(pb.capacity(), 8);
/// ```
pub struct FullyAssocCache<K, V> {
    inner: SetAssocCache<K, V>,
}

impl<K: CacheKey + OracleKey, V> FullyAssocCache<K, V> {
    /// Creates a fully-associative cache with `entries` slots.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero.
    pub fn new(entries: usize, policy: PolicyKind) -> Self {
        let geometry = CacheGeometry::fully_associative(entries);
        FullyAssocCache {
            inner: SetAssocCache::new(geometry, policy),
        }
    }

    /// Returns the number of slots.
    pub fn capacity(&self) -> usize {
        self.inner.geometry().entries()
    }

    /// Looks up `key`; see [`SetAssocCache::lookup`].
    pub fn lookup(&mut self, key: &K, now: u64) -> Option<&V> {
        self.inner.lookup(key, now)
    }

    /// Looks up `primary` and, only if absent, `secondary`, recording
    /// exactly one hit or miss; see [`SetAssocCache::lookup_fused`].
    pub fn lookup_fused(&mut self, primary: &K, secondary: &K, now: u64) -> Option<&V> {
        self.inner.lookup_fused(primary, secondary, now)
    }

    /// Returns the cached value without touching statistics or policy state.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.inner.peek(key)
    }

    /// Returns true if `key` is cached, without recording an access.
    pub fn contains(&self, key: &K) -> bool {
        self.inner.contains(key)
    }

    /// Inserts `key → value`; see [`SetAssocCache::insert`].
    pub fn insert(&mut self, key: K, value: V, now: u64) -> Option<(K, V)> {
        self.inner.insert(key, value, now)
    }

    /// Removes `key` if present, returning its value.
    pub fn invalidate(&mut self, key: &K) -> Option<V> {
        self.inner.invalidate(key)
    }

    /// Removes every entry whose key matches `pred`; see
    /// [`SetAssocCache::invalidate_matching`].
    pub fn invalidate_matching(&mut self, pred: impl FnMut(&K) -> bool) -> usize {
        self.inner.invalidate_matching(pred)
    }

    /// Removes every entry (statistics are kept).
    pub fn clear(&mut self) {
        self.inner.clear();
    }

    /// Returns the number of occupied entries.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Returns true if no entries are occupied.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Returns accumulated access statistics.
    pub fn stats(&self) -> &CacheStats {
        self.inner.stats()
    }

    /// Resets the statistics counters (contents are untouched).
    pub fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }

    /// Iterates over all occupied `(key, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.inner.iter()
    }
}

impl<K, V> FullyAssocCache<K, V>
where
    K: CacheKey + OracleKey + crate::snapshot::WordCodec,
    V: crate::snapshot::WordCodec,
{
    /// Appends the cache's full mutable state to a checkpoint word stream;
    /// see [`SetAssocCache::snapshot_words`].
    pub fn snapshot_words(&self, out: &mut Vec<u64>) {
        self.inner.snapshot_words(out);
    }

    /// Restores the state written by [`FullyAssocCache::snapshot_words`];
    /// see [`SetAssocCache::restore_words`].
    pub fn restore_words(&mut self, r: &mut crate::snapshot::WordReader<'_>) -> Option<()> {
        self.inner.restore_words(r)
    }
}

impl<K, V> fmt::Debug for FullyAssocCache<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FullyAssocCache")
            .field("capacity", &self.inner.geometry().entries())
            .field("occupied", &self.inner.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyKind;

    #[test]
    fn any_key_can_use_any_slot() {
        // Keys that would conflict in a set-assoc cache coexist here.
        let mut c: FullyAssocCache<u64, u64> = FullyAssocCache::new(4, PolicyKind::Lru);
        for k in [0u64, 4, 8, 12] {
            c.insert(k, k, k);
        }
        assert_eq!(c.len(), 4);
        for k in [0u64, 4, 8, 12] {
            assert!(c.contains(&k));
        }
    }

    #[test]
    fn evicts_lru_when_full() {
        let mut c: FullyAssocCache<u64, u64> = FullyAssocCache::new(2, PolicyKind::Lru);
        c.insert(1, 1, 0);
        c.insert(2, 2, 1);
        c.lookup(&1, 2);
        assert_eq!(c.insert(3, 3, 3), Some((2, 2)));
    }

    #[test]
    fn capacity_reports_entries() {
        let c: FullyAssocCache<u64, u64> = FullyAssocCache::new(8, PolicyKind::Fifo);
        assert_eq!(c.capacity(), 8);
        assert!(c.is_empty());
    }

    #[test]
    fn stats_pass_through() {
        let mut c: FullyAssocCache<u64, u64> = FullyAssocCache::new(2, PolicyKind::Lru);
        c.lookup(&9, 0);
        assert_eq!(c.stats().misses(), 1);
        c.reset_stats();
        assert_eq!(c.stats().misses(), 0);
    }

    #[test]
    fn invalidate_and_clear() {
        let mut c: FullyAssocCache<u64, u64> = FullyAssocCache::new(2, PolicyKind::Lru);
        c.insert(1, 10, 0);
        assert_eq!(c.invalidate(&1), Some(10));
        c.insert(2, 20, 1);
        c.clear();
        assert!(c.is_empty());
    }
}
