//! Generic set-associative cache over a flat, set-major slot slab.

use std::fmt;
use std::hash::Hash;

use crate::geometry::CacheGeometry;
use crate::policy::{OracleKey, PolicyKind, PolicyState};
use crate::snapshot::{WordCodec, WordReader};
use crate::stats::CacheStats;

/// Keys insertable into the caches of this crate.
///
/// [`CacheKey::set_selector`] supplies the bits used to pick the set (row);
/// for TLB-like structures this is normally the virtual page number, so
/// adjacent pages map to adjacent sets — the behaviour that makes identical
/// gIOVA layouts across tenants collide in the same rows (§IV-D).
pub trait CacheKey: Eq + Hash + Clone {
    /// Returns the value whose low bits select the cache set.
    fn set_selector(&self) -> u64;
}

#[derive(Debug, Clone)]
struct Entry<K, V> {
    key: K,
    value: V,
}

/// Tag stored for vacant slots. A live key whose code happens to equal this
/// value is still found correctly: every tag match is confirmed against the
/// stored key, so the sentinel only has to make vacant slots *unlikely* to
/// match, never impossible.
const VACANT_TAG: u64 = u64::MAX;

/// A sets × ways associative cache with a statically dispatched replacement
/// policy.
///
/// Slots live in one contiguous, set-major slab (`set * ways + way`), with
/// the policy metadata in a parallel flat array — no per-set `Vec`s, no
/// boxed policy object, and no allocation on the lookup/insert path (victim
/// selection consults the occupants in place).
///
/// All lookups and insertions take `now`, a monotonically increasing access
/// index (the simulator's trace position) that orders LRU/FIFO decisions and
/// anchors the Belady oracle.
///
/// # Examples
///
/// ```
/// use hypersio_cache::{CacheGeometry, CacheKey, OracleKey, PolicyKind, SetAssocCache};
///
/// #[derive(Debug, Clone, PartialEq, Eq, Hash)]
/// struct Vpn(u64);
/// impl CacheKey for Vpn {
///     fn set_selector(&self) -> u64 {
///         self.0
///     }
/// }
/// impl OracleKey for Vpn {
///     fn oracle_code(&self) -> u64 {
///         self.0
///     }
/// }
///
/// let g = CacheGeometry::new(4, 2);
/// let mut cache: SetAssocCache<Vpn, &str> = SetAssocCache::new(g, PolicyKind::Lru);
/// cache.insert(Vpn(0), "a", 0);
/// cache.insert(Vpn(2), "b", 1); // same set (2 sets), second way
/// let evicted = cache.insert(Vpn(4), "c", 2); // set full: LRU evicts Vpn(0)
/// assert_eq!(evicted, Some((Vpn(0), "a")));
/// ```
pub struct SetAssocCache<K, V> {
    geometry: CacheGeometry,
    /// `Some(sets - 1)` when the set count is a power of two (all paper
    /// geometries are), so `set_index` is a mask instead of a division.
    set_mask: Option<u64>,
    /// Set-major slot slab: slot `set * ways + way`.
    slots: Box<[Option<Entry<K, V>>]>,
    /// SoA tag slab parallel to `slots`: `tags[i]` is the oracle code of the
    /// key in `slots[i]`, or [`VACANT_TAG`] when vacant. Probes scan this
    /// contiguous `u64` vector (one or two cache lines per row) and only
    /// touch the wider `slots` entry to confirm a tag match, so the common
    /// miss compares ways without loading any key material.
    tags: Box<[u64]>,
    /// Occupied-way count per set. Steady-state inserts hit full sets, and
    /// this counter lets them skip the vacancy scan over the wide `slots`
    /// entries and go straight to victim selection.
    set_len: Box<[u32]>,
    policy: PolicyState,
    stats: CacheStats,
    occupied: usize,
}

impl<K, V> SetAssocCache<K, V> {
    /// Creates an empty cache with the given geometry and policy.
    pub fn new(geometry: CacheGeometry, policy: PolicyKind) -> Self {
        let mut slots = Vec::new();
        slots.resize_with(geometry.entries(), || None);
        SetAssocCache {
            geometry,
            set_mask: geometry.set_mask(),
            slots: slots.into_boxed_slice(),
            tags: vec![VACANT_TAG; geometry.entries()].into_boxed_slice(),
            set_len: vec![0; geometry.sets()].into_boxed_slice(),
            policy: PolicyState::new(&policy, geometry),
            stats: CacheStats::new(),
            occupied: 0,
        }
    }

    /// Returns the cache geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// Returns accumulated access statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets the statistics counters (contents are untouched).
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Removes every entry (statistics are kept).
    pub fn clear(&mut self) {
        for (idx, slot) in self.slots.iter_mut().enumerate() {
            if slot.take().is_some() {
                self.policy.on_invalidate(idx);
            }
        }
        self.tags.fill(VACANT_TAG);
        self.set_len.fill(0);
        self.occupied = 0;
    }

    /// Removes every entry whose key matches `pred` (a targeted shootdown,
    /// e.g. "all entries of DID 7"). Each removal is counted as an
    /// invalidation in the statistics. Returns the number removed.
    pub fn invalidate_matching(&mut self, mut pred: impl FnMut(&K) -> bool) -> usize {
        let mut removed = 0;
        let (slots, tags, set_len, policy, stats) = (
            &mut self.slots,
            &mut self.tags,
            &mut self.set_len,
            &mut self.policy,
            &mut self.stats,
        );
        let ways = self.geometry.ways();
        for (idx, slot) in slots.iter_mut().enumerate() {
            if slot.as_ref().is_some_and(|e| pred(&e.key)) {
                slot.take();
                tags[idx] = VACANT_TAG;
                set_len[idx / ways] -= 1;
                policy.on_invalidate(idx);
                stats.record_invalidation();
                removed += 1;
            }
        }
        self.occupied -= removed;
        removed
    }

    /// Returns the number of occupied entries (tracked, O(1)).
    pub fn len(&self) -> usize {
        self.occupied
    }

    /// Returns true if no entries are occupied.
    pub fn is_empty(&self) -> bool {
        self.occupied == 0
    }

    /// Iterates over all occupied `(key, value)` pairs in set/way order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.slots
            .iter()
            .filter_map(|slot| slot.as_ref().map(|e| (&e.key, &e.value)))
    }
}

impl<K: CacheKey + OracleKey, V> SetAssocCache<K, V> {
    #[inline]
    fn set_index(&self, key: &K) -> usize {
        let selector = key.set_selector();
        match self.set_mask {
            Some(mask) => (selector & mask) as usize,
            None => (selector % self.geometry.sets() as u64) as usize,
        }
    }

    /// Returns the slab index of the first slot of `key`'s row.
    #[inline]
    fn row_base(&self, key: &K) -> usize {
        self.set_index(key) * self.geometry.ways()
    }

    /// Scans `key`'s row for its way: a branch-light linear pass over the
    /// contiguous tag vector, confirming each tag match against the stored
    /// key (tag equality alone is never trusted — codes may collide, and a
    /// live key may even share [`VACANT_TAG`]).
    #[inline]
    fn find_way(&self, base: usize, ways: usize, tag: u64, key: &K) -> Option<usize> {
        for (way, &t) in self.tags[base..base + ways].iter().enumerate() {
            if t == tag
                && self.slots[base + way]
                    .as_ref()
                    .is_some_and(|e| &e.key == key)
            {
                return Some(way);
            }
        }
        None
    }

    /// Looks up `key`, recording a hit or miss and updating policy state.
    ///
    /// Returns the cached value on a hit.
    pub fn lookup(&mut self, key: &K, now: u64) -> Option<&V> {
        let ways = self.geometry.ways();
        let base = self.row_base(key);
        match self.find_way(base, ways, key.oracle_code(), key) {
            Some(way) => {
                self.stats.record_hit();
                self.policy.on_hit(base, way, ways, now);
                self.slots[base + way].as_ref().map(|e| &e.value)
            }
            None => {
                self.stats.record_miss();
                None
            }
        }
    }

    /// Looks up `primary` and, only if it is absent, `secondary` — recording
    /// exactly one hit or miss overall. This is the fused two-granule probe
    /// used by TLB-like callers (2 MiB superpage key first, then the 4 KiB
    /// key): behaviourally identical to `peek(primary)` followed by
    /// `lookup(primary)` on presence / `lookup(secondary)` on absence, but
    /// with a single scan of the primary row.
    pub fn lookup_fused(&mut self, primary: &K, secondary: &K, now: u64) -> Option<&V> {
        let ways = self.geometry.ways();
        let base = self.row_base(primary);
        if let Some(way) = self.find_way(base, ways, primary.oracle_code(), primary) {
            self.stats.record_hit();
            self.policy.on_hit(base, way, ways, now);
            return self.slots[base + way].as_ref().map(|e| &e.value);
        }
        self.lookup(secondary, now)
    }

    /// Returns the cached value without touching statistics or policy state.
    pub fn peek(&self, key: &K) -> Option<&V> {
        let base = self.row_base(key);
        let ways = self.geometry.ways();
        self.find_way(base, ways, key.oracle_code(), key)
            .and_then(|way| self.slots[base + way].as_ref().map(|e| &e.value))
    }

    /// Returns true if `key` is cached, without recording an access.
    pub fn contains(&self, key: &K) -> bool {
        self.peek(key).is_some()
    }

    /// Inserts `key → value`, evicting per policy if the set is full.
    ///
    /// Returns the evicted entry, if any. Re-inserting a present key updates
    /// its value in place (no eviction, counted as a fill).
    pub fn insert(&mut self, key: K, value: V, now: u64) -> Option<(K, V)> {
        let ways = self.geometry.ways();
        let base = self.row_base(&key);
        let tag = key.oracle_code();
        self.stats.record_fill();

        // Update in place if present.
        if let Some(way) = self.find_way(base, ways, tag, &key) {
            self.policy.on_fill(base, way, ways, now);
            let old = self.slots[base + way].replace(Entry { key, value });
            debug_assert!(old.is_some());
            return None;
        }

        // Use a vacant way if there is one; the per-set occupancy counter
        // lets the steady-state (full-set) insert skip this scan entirely.
        let set = base / ways;
        if (self.set_len[set] as usize) < ways {
            let row = &mut self.slots[base..base + ways];
            let way = row
                .iter()
                .position(Option::is_none)
                .expect("set below capacity has a vacant way");
            self.policy.on_fill(base, way, ways, now);
            row[way] = Some(Entry { key, value });
            self.tags[base + way] = tag;
            self.set_len[set] += 1;
            self.occupied += 1;
            return None;
        }

        // Set is full: pick the victim in place (no occupant snapshot, no
        // key clones — the oracle reads codes straight out of the slab).
        let (slots, policy) = (&self.slots, &mut self.policy);
        let way = policy.victim(base, ways, now, |w| {
            slots[base + w]
                .as_ref()
                .expect("victim consulted on a full set")
                .key
                .oracle_code()
        });
        assert!(way < ways, "policy returned out-of-range victim way {way}");
        self.stats.record_eviction();
        self.policy.on_fill(base, way, ways, now);
        let evicted = self.slots[base + way].replace(Entry { key, value });
        self.tags[base + way] = tag;
        evicted.map(|e| (e.key, e.value))
    }

    /// Removes `key` if present, returning its value.
    pub fn invalidate(&mut self, key: &K) -> Option<V> {
        let base = self.row_base(key);
        let ways = self.geometry.ways();
        let way = self.find_way(base, ways, key.oracle_code(), key)?;
        self.stats.record_invalidation();
        self.policy.on_invalidate(base + way);
        self.tags[base + way] = VACANT_TAG;
        self.set_len[base / ways] -= 1;
        self.occupied -= 1;
        self.slots[base + way].take().map(|e| e.value)
    }
}

impl<K: CacheKey + OracleKey + WordCodec, V: WordCodec> SetAssocCache<K, V> {
    /// Appends the cache's full mutable state — every occupied slot, the
    /// replacement-policy metadata, and the statistics — to a checkpoint
    /// word stream. Re-inserting the entries into a fresh cache would not
    /// reproduce the policy metadata (LRU timestamps, LFU counters, the
    /// RANDOM RNG), so the raw slab is copied verbatim.
    pub fn snapshot_words(&self, out: &mut Vec<u64>) {
        out.push(self.slots.len() as u64);
        for slot in self.slots.iter() {
            match slot {
                Some(e) => {
                    out.push(1);
                    e.key.encode_words(out);
                    e.value.encode_words(out);
                }
                None => out.push(0),
            }
        }
        self.policy.snapshot_words(out);
        self.stats.encode_words(out);
    }

    /// Restores the state written by [`SetAssocCache::snapshot_words`]
    /// into this identically configured cache (same geometry and policy).
    /// Returns `None` on any truncated, out-of-range, or mismatched
    /// stream — never panics and never half-applies (callers discard the
    /// cache on failure).
    pub fn restore_words(&mut self, r: &mut WordReader<'_>) -> Option<()> {
        if r.next()? != self.slots.len() as u64 {
            return None;
        }
        self.clear();
        let ways = self.geometry.ways();
        for idx in 0..self.slots.len() {
            match r.next()? {
                0 => {}
                1 => {
                    let key: K = r.decode()?;
                    let value: V = r.decode()?;
                    self.tags[idx] = key.oracle_code();
                    self.set_len[idx / ways] += 1;
                    self.occupied += 1;
                    self.slots[idx] = Some(Entry { key, value });
                }
                _ => return None,
            }
        }
        self.policy.restore_words(r)?;
        self.stats = r.decode()?;
        Some(())
    }
}

impl<K, V> fmt::Debug for SetAssocCache<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SetAssocCache")
            .field("geometry", &self.geometry)
            .field("occupied", &self.occupied)
            .field("stats", &self.stats)
            .finish()
    }
}

impl CacheKey for u64 {
    fn set_selector(&self) -> u64 {
        *self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyKind;

    fn lru_cache(entries: usize, ways: usize) -> SetAssocCache<u64, u64> {
        SetAssocCache::new(CacheGeometry::new(entries, ways), PolicyKind::Lru)
    }

    #[test]
    fn miss_then_hit() {
        let mut c = lru_cache(8, 2);
        assert_eq!(c.lookup(&5, 0), None);
        c.insert(5, 50, 1);
        assert_eq!(c.lookup(&5, 2), Some(&50));
        assert_eq!(c.stats().hits(), 1);
        assert_eq!(c.stats().misses(), 1);
    }

    #[test]
    fn keys_map_to_sets_by_selector_mod_sets() {
        let mut c = lru_cache(8, 2); // 4 sets
        c.insert(1, 1, 0);
        c.insert(5, 5, 1); // same set as 1
        c.insert(9, 9, 2); // evicts 1 (LRU)
        assert!(!c.contains(&1));
        assert!(c.contains(&5));
        assert!(c.contains(&9));
        assert_eq!(c.stats().evictions(), 1);
    }

    #[test]
    fn non_power_of_two_sets_fall_back_to_modulo() {
        let mut c = lru_cache(12, 2); // 6 sets: modulo path
        assert_eq!(c.set_mask, None);
        c.insert(1, 1, 0);
        c.insert(7, 7, 1); // 7 % 6 == 1: same set as key 1
        c.insert(13, 13, 2); // evicts 1 (LRU)
        assert!(!c.contains(&1));
        assert!(c.contains(&7));
        assert!(c.contains(&13));
    }

    #[test]
    fn insert_existing_key_updates_in_place() {
        let mut c = lru_cache(4, 2);
        c.insert(1, 10, 0);
        let evicted = c.insert(1, 20, 1);
        assert_eq!(evicted, None);
        assert_eq!(c.peek(&1), Some(&20));
        assert_eq!(c.len(), 1);
        assert_eq!(c.stats().evictions(), 0);
    }

    #[test]
    fn eviction_returns_victim_pair() {
        let mut c = lru_cache(2, 2); // one set, two ways
        c.insert(1, 10, 0);
        c.insert(2, 20, 1);
        let evicted = c.insert(3, 30, 2);
        assert_eq!(evicted, Some((1, 10)));
    }

    #[test]
    fn lru_respects_hit_recency() {
        let mut c = lru_cache(2, 2);
        c.insert(1, 10, 0);
        c.insert(2, 20, 1);
        c.lookup(&1, 2); // 1 now most recent
        let evicted = c.insert(3, 30, 3);
        assert_eq!(evicted, Some((2, 20)));
    }

    #[test]
    fn invalidate_removes_and_counts() {
        let mut c = lru_cache(4, 2);
        c.insert(1, 10, 0);
        assert_eq!(c.invalidate(&1), Some(10));
        assert_eq!(c.invalidate(&1), None);
        assert_eq!(c.stats().invalidations(), 1);
        assert!(c.is_empty());
    }

    #[test]
    fn invalidate_matching_sweeps_and_counts() {
        let mut c = lru_cache(8, 2);
        for k in 0..6u64 {
            c.insert(k, k * 10, k);
        }
        // Sweep the even keys.
        let removed = c.invalidate_matching(|k| k % 2 == 0);
        assert_eq!(removed, 3);
        assert_eq!(c.len(), 3);
        assert_eq!(c.stats().invalidations(), 3);
        for k in 0..6u64 {
            assert_eq!(c.contains(&k), k % 2 == 1, "key {k}");
        }
        // Vacated ways are reusable without evictions.
        c.insert(0, 0, 10);
        assert_eq!(c.stats().evictions(), 0);
        // A sweep matching nothing removes nothing.
        assert_eq!(c.invalidate_matching(|_| false), 0);
    }

    #[test]
    fn vacancy_reused_after_invalidate() {
        let mut c = lru_cache(2, 2);
        c.insert(1, 10, 0);
        c.insert(2, 20, 1);
        c.invalidate(&1);
        // Fill goes into the vacancy; nothing evicted.
        assert_eq!(c.insert(3, 30, 2), None);
        assert_eq!(c.stats().evictions(), 0);
    }

    #[test]
    fn peek_and_contains_do_not_count() {
        let mut c = lru_cache(4, 2);
        c.insert(1, 10, 0);
        let _ = c.peek(&1);
        let _ = c.contains(&2);
        assert_eq!(c.stats().accesses(), 0);
    }

    #[test]
    fn clear_empties_but_keeps_stats() {
        let mut c = lru_cache(4, 2);
        c.insert(1, 10, 0);
        c.lookup(&1, 1);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.stats().hits(), 1);
    }

    #[test]
    fn iter_yields_occupied_entries() {
        let mut c = lru_cache(8, 2);
        c.insert(1, 10, 0);
        c.insert(2, 20, 1);
        let mut pairs: Vec<(u64, u64)> = c.iter().map(|(k, v)| (*k, *v)).collect();
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(1, 10), (2, 20)]);
    }

    #[test]
    fn full_cache_capacity_is_respected() {
        let mut c = lru_cache(8, 4);
        for k in 0..100u64 {
            c.insert(k, k, k);
        }
        assert_eq!(c.len(), 8);
    }

    #[test]
    fn len_tracks_fill_invalidate_clear() {
        let mut c = lru_cache(8, 2);
        assert_eq!(c.len(), 0);
        c.insert(1, 1, 0);
        c.insert(2, 2, 1);
        assert_eq!(c.len(), 2);
        c.insert(1, 11, 2); // in-place update: occupancy unchanged
        assert_eq!(c.len(), 2);
        c.invalidate(&2);
        assert_eq!(c.len(), 1);
        c.clear();
        assert_eq!(c.len(), 0);
        // Evicting replacements keep occupancy at capacity.
        for k in 0..20u64 {
            c.insert(k, k, k);
        }
        assert_eq!(c.len(), 8);
    }

    #[test]
    fn debug_shows_occupancy() {
        let mut c = lru_cache(4, 2);
        c.insert(1, 1, 0);
        assert!(format!("{c:?}").contains("occupied: 1"));
    }

    /// A key whose oracle code is constant (and for one variant equal to the
    /// vacant-slot sentinel): every row scan sees colliding tags and must
    /// fall back to full-key confirmation.
    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    struct Clashing(u64, u64);
    impl CacheKey for Clashing {
        fn set_selector(&self) -> u64 {
            0
        }
    }
    impl crate::policy::OracleKey for Clashing {
        fn oracle_code(&self) -> u64 {
            self.1
        }
    }

    #[test]
    fn colliding_tags_are_confirmed_by_full_key() {
        for tag in [42, VACANT_TAG] {
            let mut c: SetAssocCache<Clashing, u64> =
                SetAssocCache::new(CacheGeometry::new(4, 4), PolicyKind::Lru);
            for k in 0..4u64 {
                c.insert(Clashing(k, tag), k * 10, k);
            }
            for k in 0..4u64 {
                assert_eq!(c.lookup(&Clashing(k, tag), 10 + k), Some(&(k * 10)));
                assert_eq!(c.peek(&Clashing(k, tag)), Some(&(k * 10)));
            }
            assert_eq!(c.lookup(&Clashing(9, tag), 20), None);
            assert_eq!(c.invalidate(&Clashing(2, tag)), Some(20));
            assert_eq!(c.len(), 3);
        }
    }

    #[test]
    fn fused_lookup_matches_peek_then_lookup() {
        // Primary present: one hit, primary's value, primary's recency.
        let mut fused = lru_cache(8, 2);
        let mut split = lru_cache(8, 2);
        for c in [&mut fused, &mut split] {
            c.insert(1, 10, 0);
            c.insert(5, 50, 1);
        }
        assert_eq!(fused.lookup_fused(&1, &5, 2).copied(), Some(10));
        let split_got = if split.peek(&1).is_some() {
            split.lookup(&1, 2).copied()
        } else {
            split.lookup(&5, 2).copied()
        };
        assert_eq!(split_got, Some(10));
        assert_eq!(fused.stats().hits(), split.stats().hits());
        assert_eq!(fused.stats().accesses(), 1);

        // Primary absent: falls through to secondary, still one access.
        assert_eq!(fused.lookup_fused(&3, &5, 3).copied(), Some(50));
        assert_eq!(fused.stats().accesses(), 2);
        assert_eq!(fused.stats().hits(), 2);
        // Both absent: exactly one miss.
        assert_eq!(fused.lookup_fused(&3, &7, 4), None);
        assert_eq!(fused.stats().accesses(), 3);
        assert_eq!(fused.stats().misses(), 1);
    }

    #[test]
    fn snapshot_round_trip_preserves_contents_policy_and_stats() {
        use crate::snapshot::WordReader;
        for kind in [
            PolicyKind::Lru,
            PolicyKind::Lfu,
            PolicyKind::Fifo,
            PolicyKind::Random { seed: 11 },
        ] {
            let name = kind.name();
            let mut original: SetAssocCache<u64, u64> =
                SetAssocCache::new(CacheGeometry::new(8, 2), kind.clone());
            for k in 0..12u64 {
                original.insert(k, k * 10, k);
            }
            original.lookup(&3, 20);
            original.lookup(&99, 21);
            let mut words = Vec::new();
            original.snapshot_words(&mut words);
            let mut restored: SetAssocCache<u64, u64> =
                SetAssocCache::new(CacheGeometry::new(8, 2), kind);
            let mut r = WordReader::new(&words);
            assert_eq!(restored.restore_words(&mut r), Some(()), "{name}");
            assert!(r.is_empty(), "{name}: stream fully consumed");
            assert_eq!(restored.len(), original.len(), "{name}");
            assert_eq!(restored.stats(), original.stats(), "{name}");
            let mut a: Vec<_> = original.iter().map(|(k, v)| (*k, *v)).collect();
            let mut b: Vec<_> = restored.iter().map(|(k, v)| (*k, *v)).collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "{name}");
            // The restored cache continues exactly like the original:
            // identical victims on the next inserts.
            for k in 100..110u64 {
                assert_eq!(
                    original.insert(k, k, k),
                    restored.insert(k, k, k),
                    "{name}: divergent victim at key {k}"
                );
            }
        }
    }

    #[test]
    fn snapshot_restore_rejects_corrupt_streams() {
        use crate::snapshot::WordReader;
        let mut c = lru_cache(4, 2);
        c.insert(1, 10, 0);
        let mut words = Vec::new();
        c.snapshot_words(&mut words);
        // Truncation at every prefix fails cleanly.
        for cut in 0..words.len() {
            let mut fresh = lru_cache(4, 2);
            let mut r = WordReader::new(&words[..cut]);
            assert_eq!(fresh.restore_words(&mut r), None, "cut at {cut}");
        }
        // A wrong slot count fails.
        let mut wrong = words.clone();
        wrong[0] = 9999;
        let mut fresh = lru_cache(4, 2);
        assert_eq!(fresh.restore_words(&mut WordReader::new(&wrong)), None);
        // An invalid presence flag fails.
        let mut bad_flag = words.clone();
        bad_flag[1] = 7;
        let mut fresh = lru_cache(4, 2);
        assert_eq!(fresh.restore_words(&mut WordReader::new(&bad_flag)), None);
    }
}
