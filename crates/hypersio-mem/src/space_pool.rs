//! Tenant-space pools: eager (dense) or lazy with budgeted residency.
//!
//! A [`SpacePool`] is the IOMMU's view of "which tenants have page
//! tables". The dense variant is the classic eager construction — every
//! tenant's [`TenantSpace`] built up front, indexed by DID — and is what
//! all paper-scale (≤ 1024 tenants) runs use. The lazy variant holds only
//! the canonical build and stamps a tenant's space on first touch,
//! evicting the least-recently-touched resident space when a host-memory
//! budget would be exceeded.
//!
//! Every space in either variant is a view of the canonical build
//! ([`TenantSpace::stamp`]): two shared tables plus the tenant's slab
//! offset, a few dozen bytes whatever the page inventory. A resident
//! tenant owns no table. The residency cap is still the budget divided by
//! [`TenantSpace::per_tenant_bytes`], the size of one private host table,
//! so the cap, the build and eviction counters and the checkpointed pool
//! state keep the values they had when each resident space held its own
//! copy of the table.
//!
//! Eviction is *transparent to the model*: stamping is deterministic, so
//! a rebuilt space translates exactly as the evicted one did and every
//! cached translation (DevTLB, walk caches, memo) remains correct without
//! shootdowns. Eviction models the simulator reclaiming its own memory,
//! not the hypervisor unmapping a tenant.
//!
//! The lazy pool's residency is kept in flat arrays: a per-DID slot
//! number and a slab of resident spaces with their touch ticks, so the
//! per-translate residency check and touch are array loads, not hash
//! probes. Only the recency queue and the slab overrides of migrated
//! tenants are kept beside them.

use std::collections::VecDeque;

use hypersio_types::fxhash::FxBuildHasher;
use hypersio_types::Did;

use crate::space::TenantSpace;

type FxMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// Counters describing a pool's build/eviction behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Spaces stamped on demand (0 for a dense pool).
    pub builds: u64,
    /// Spaces evicted to stay under the budget.
    pub evictions: u64,
    /// Spaces currently resident.
    pub resident: usize,
    /// Residency cap derived from the budget (`usize::MAX` = unbounded).
    pub max_resident: usize,
}

/// A pool of per-tenant address spaces, eager or lazily materialised.
///
/// # Examples
///
/// ```
/// use hypersio_mem::{SpacePool, TenantSpace};
/// use hypersio_types::{Did, GIova, PageSize};
///
/// let mut b = TenantSpace::builder(Did::new(0));
/// b.map(GIova::new(0xbbe0_0000), PageSize::Size2M);
/// let canonical = b.build();
/// // Budget for roughly two resident tenants out of 100.
/// let budget = canonical.per_tenant_bytes() * 2;
/// let mut pool = SpacePool::lazy(canonical, 100, Some(budget));
/// pool.ensure(Did::new(77));
/// assert!(pool.get(Did::new(77)).lookup(GIova::new(0xbbe0_0042)).is_some());
/// assert_eq!(pool.stats().builds, 1);
/// ```
pub struct SpacePool {
    variant: Variant,
}

enum Variant {
    Dense(Vec<TenantSpace>),
    Lazy(Box<LazyPool>),
}

struct LazyPool {
    /// The canonical (DID-0, slab-0) build every space is stamped from.
    canonical: TenantSpace,
    tenants: u32,
    /// Per DID: the index + 1 of its slot in `slots`, or 0 when the DID is
    /// not resident. Grows to cover a DID on its first build.
    slot_of: Vec<u32>,
    /// Resident spaces. A slot listed in `free` holds an evicted space
    /// that the next build overwrites.
    slots: Vec<Resident>,
    free: Vec<u32>,
    /// Touch order, oldest first; entries whose tick no longer matches the
    /// DID's touch tick are stale and skipped (lazy deletion). Compacted
    /// when it outgrows the resident set so memory stays bounded.
    lru: VecDeque<(u64, u32)>,
    /// Current host slab of tenants migrated away from their default
    /// (`slab == did`); consulted when re-stamping after eviction.
    slab_overrides: FxMap<u32, u64>,
    max_resident: usize,
    tick: u64,
    builds: u64,
    evictions: u64,
}

/// One resident space and the tick of its most recent touch.
struct Resident {
    space: TenantSpace,
    touched: u64,
}

impl SpacePool {
    /// Wraps eagerly built spaces; `spaces[i]` must belong to `Did(i)`.
    ///
    /// # Panics
    ///
    /// Panics if the spaces are not indexed by DID.
    pub fn dense(spaces: Vec<TenantSpace>) -> Self {
        for (i, space) in spaces.iter().enumerate() {
            assert!(
                space.did().index() == i,
                "spaces must be indexed by DID: slot {i} holds {}",
                space.did()
            );
        }
        SpacePool {
            variant: Variant::Dense(spaces),
        }
    }

    /// Creates a lazy pool over `tenants` tenants stamped on demand from
    /// `canonical` (a slab-0 build of the shared page inventory).
    ///
    /// `budget_bytes` caps the resident spaces at `budget_bytes /`
    /// [`TenantSpace::per_tenant_bytes`]; at least one space is always
    /// allowed. `None` means unbounded residency (lazy build, no
    /// eviction).
    ///
    /// # Panics
    ///
    /// Panics if `tenants` is zero, or if `canonical` is not a slab-0
    /// build (`host_slab() == 0` and `host_delta() == 0`, as a DID-0
    /// build that was never migrated is).
    pub fn lazy(canonical: TenantSpace, tenants: u32, budget_bytes: Option<u64>) -> Self {
        assert!(tenants > 0, "at least one tenant is required");
        assert!(
            canonical.is_canonical(),
            "a lazy pool stamps from a slab-0 build, not {} in slab {}",
            canonical.did(),
            canonical.host_slab()
        );
        let per_space = canonical.per_tenant_bytes().max(1);
        let max_resident = match budget_bytes {
            None => usize::MAX,
            Some(b) => ((b / per_space) as usize).max(1),
        };
        SpacePool {
            variant: Variant::Lazy(Box::new(LazyPool {
                canonical,
                tenants,
                slot_of: Vec::new(),
                slots: Vec::new(),
                free: Vec::new(),
                lru: VecDeque::new(),
                slab_overrides: FxMap::default(),
                max_resident,
                tick: 0,
                builds: 0,
                evictions: 0,
            })),
        }
    }

    /// Returns the number of tenants the pool can serve.
    pub fn tenants(&self) -> u32 {
        match &self.variant {
            Variant::Dense(spaces) => spaces.len() as u32,
            Variant::Lazy(pool) => pool.tenants,
        }
    }

    /// Returns whether this pool materialises spaces lazily.
    pub fn is_lazy(&self) -> bool {
        matches!(self.variant, Variant::Lazy(_))
    }

    /// Makes `did`'s space resident (stamping and, if needed, evicting)
    /// and refreshes its recency. Returns `true` when the space was newly
    /// built — the caller owes the on-demand context-entry install.
    ///
    /// # Panics
    ///
    /// Panics if `did` is out of range.
    pub fn ensure(&mut self, did: Did) -> bool {
        let pool = match &mut self.variant {
            Variant::Dense(spaces) => {
                assert!(did.index() < spaces.len(), "unknown tenant {did}");
                return false;
            }
            Variant::Lazy(pool) => pool,
        };
        assert!(did.raw() < pool.tenants, "unknown tenant {did}");
        let key = did.raw();
        pool.tick += 1;
        let tick = pool.tick;
        if let Some(slot) = pool.slot(key) {
            pool.slots[slot].touched = tick;
            pool.push_lru(tick, key);
            return false;
        }
        while pool.resident() >= pool.max_resident && pool.evict_lru() {}
        let slab = pool.slab_overrides.get(&key).copied().unwrap_or(key as u64);
        let space = pool.canonical.stamp(did, slab);
        pool.insert(key, space, tick);
        pool.push_lru(tick, key);
        pool.builds += 1;
        true
    }

    /// Returns `did`'s space. Lazy pools require a preceding
    /// [`SpacePool::ensure`] for the same DID (the translate path always
    /// pairs them).
    ///
    /// # Panics
    ///
    /// Panics if `did` is out of range, or (lazy) not resident.
    pub fn get(&self, did: Did) -> &TenantSpace {
        match &self.variant {
            Variant::Dense(spaces) => &spaces[did.index()],
            Variant::Lazy(pool) => {
                let slot = pool
                    .slot(did.raw())
                    .expect("ensure() must materialise a space before get()");
                &pool.slots[slot].space
            }
        }
    }

    /// Relocates `did`'s host-side memory to slab `slab` (see
    /// [`TenantSpace::migrate_to_slab`]). For a lazy pool the new slab is
    /// also recorded so a post-eviction rebuild re-stamps at the tenant's
    /// *current* home, not its original one.
    ///
    /// # Panics
    ///
    /// Panics if `did` is out of range.
    pub fn migrate(&mut self, did: Did, slab: u64) {
        match &mut self.variant {
            Variant::Dense(spaces) => spaces[did.index()].migrate_to_slab(slab),
            Variant::Lazy(pool) => {
                assert!(did.raw() < pool.tenants, "unknown tenant {did}");
                pool.slab_overrides.insert(did.raw(), slab);
                if let Some(slot) = pool.slot(did.raw()) {
                    pool.slots[slot].space.migrate_to_slab(slab);
                }
            }
        }
    }

    /// Returns build/eviction counters.
    pub fn stats(&self) -> PoolStats {
        match &self.variant {
            Variant::Dense(spaces) => PoolStats {
                builds: 0,
                evictions: 0,
                resident: spaces.len(),
                max_resident: usize::MAX,
            },
            Variant::Lazy(pool) => PoolStats {
                builds: pool.builds,
                evictions: pool.evictions,
                resident: pool.resident(),
                max_resident: pool.max_resident,
            },
        }
    }

    /// The dense pool's DID-indexed spaces.
    ///
    /// # Panics
    ///
    /// Panics on a lazy pool, whose resident set is not dense.
    pub fn dense_spaces(&self) -> &[TenantSpace] {
        match &self.variant {
            Variant::Dense(spaces) => spaces,
            Variant::Lazy(_) => panic!("a lazy pool has no dense space slice"),
        }
    }

    /// DIDs of currently resident spaces, ascending (dense: every tenant).
    pub fn resident_dids(&self) -> Vec<Did> {
        match &self.variant {
            Variant::Dense(spaces) => (0..spaces.len() as u32).map(Did::new).collect(),
            Variant::Lazy(pool) => pool.resident_touches().map(|(did, _)| did).collect(),
        }
    }

    /// Halves a lazy pool's residency cap (never below one space) and
    /// evicts least-recently-touched spaces until the survivors fit —
    /// the graceful-degradation response to host memory pressure. Safe
    /// because eviction is model-transparent (see the module docs): a
    /// later touch re-stamps an identical view. Returns the number of
    /// spaces evicted; a dense pool is untouched and returns 0.
    pub fn shrink_residency(&mut self) -> u64 {
        let pool = match &mut self.variant {
            Variant::Dense(_) => return 0,
            Variant::Lazy(pool) => pool,
        };
        pool.max_resident = (pool.max_resident / 2).max(1);
        let before = pool.evictions;
        while pool.resident() > pool.max_resident && pool.evict_lru() {}
        pool.evictions - before
    }

    /// Appends the pool's mutable state to a checkpoint stream: slab
    /// placement for a dense pool; residency metadata (recency order,
    /// slab overrides, counters) for a lazy one. Resident spaces are
    /// *not* serialised — stamping is deterministic, so restore re-stamps
    /// identical views of the canonical build.
    pub fn snapshot_words(&self, out: &mut Vec<u64>) {
        match &self.variant {
            Variant::Dense(spaces) => {
                out.push(0);
                out.push(spaces.len() as u64);
                let moved: Vec<(u64, u64)> = spaces
                    .iter()
                    .enumerate()
                    .filter(|(i, s)| s.host_slab() != *i as u64)
                    .map(|(i, s)| (i as u64, s.host_slab()))
                    .collect();
                out.push(moved.len() as u64);
                for (did, slab) in moved {
                    out.push(did);
                    out.push(slab);
                }
            }
            Variant::Lazy(pool) => {
                out.push(1);
                out.push(pool.tenants as u64);
                out.push(pool.max_resident as u64);
                out.push(pool.tick);
                out.push(pool.builds);
                out.push(pool.evictions);
                let mut overrides: Vec<(u32, u64)> =
                    pool.slab_overrides.iter().map(|(&d, &s)| (d, s)).collect();
                overrides.sort_unstable();
                out.push(overrides.len() as u64);
                for (did, slab) in overrides {
                    out.push(did as u64);
                    out.push(slab);
                }
                out.push(pool.resident() as u64);
                for (did, touched) in pool.resident_touches() {
                    out.push(did.raw() as u64);
                    out.push(touched);
                }
                out.push(pool.lru.len() as u64);
                for &(tick, did) in pool.lru.iter() {
                    out.push(tick);
                    out.push(did as u64);
                }
            }
        }
    }

    /// Restores state captured by [`Self::snapshot_words`] into a freshly
    /// constructed pool of the same shape (variant, tenant count, dense
    /// spaces at their default slabs). Lazy residents are re-stamped from
    /// the canonical build at their recorded slabs. Returns `None` on a
    /// corrupt stream or a shape mismatch.
    pub fn restore_words(&mut self, r: &mut hypersio_cache::WordReader<'_>) -> Option<()> {
        match (r.next()?, &mut self.variant) {
            (0, Variant::Dense(spaces)) => {
                if r.next()? != spaces.len() as u64 {
                    return None;
                }
                let moved = r.len_capped(spaces.len())?;
                for _ in 0..moved {
                    let did = usize::try_from(r.next()?).ok()?;
                    let slab = r.next()?;
                    spaces.get_mut(did)?.migrate_to_slab(slab);
                }
                Some(())
            }
            (1, Variant::Lazy(pool)) => {
                if r.next()? != pool.tenants as u64 {
                    return None;
                }
                pool.max_resident = usize::try_from(r.next()?).ok()?;
                if pool.max_resident == 0 {
                    return None;
                }
                pool.tick = r.next()?;
                pool.builds = r.next()?;
                pool.evictions = r.next()?;
                pool.slab_overrides.clear();
                let overrides = r.len_capped(r.remaining() / 2)?;
                for _ in 0..overrides {
                    let did = u32::try_from(r.next()?).ok()?;
                    if did >= pool.tenants {
                        return None;
                    }
                    let slab = r.next()?;
                    pool.slab_overrides.insert(did, slab);
                }
                pool.slot_of.fill(0);
                pool.slots.clear();
                pool.free.clear();
                let resident = r.len_capped(r.remaining() / 2)?;
                if resident > pool.max_resident {
                    return None;
                }
                for _ in 0..resident {
                    let did = u32::try_from(r.next()?).ok()?;
                    if did >= pool.tenants || pool.slot(did).is_some() {
                        return None;
                    }
                    let touched = r.next()?;
                    let slab = pool.slab_overrides.get(&did).copied().unwrap_or(did as u64);
                    let space = pool.canonical.stamp(Did::new(did), slab);
                    pool.insert(did, space, touched);
                }
                pool.lru.clear();
                let lru = r.len_capped(r.remaining() / 2)?;
                for _ in 0..lru {
                    let tick = r.next()?;
                    let did = u32::try_from(r.next()?).ok()?;
                    pool.lru.push_back((tick, did));
                }
                Some(())
            }
            _ => None,
        }
    }
}

impl LazyPool {
    /// Number of resident spaces.
    fn resident(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// `did`'s slot index, if it is resident.
    #[inline]
    fn slot(&self, did: u32) -> Option<usize> {
        slot_index(&self.slot_of, did)
    }

    /// Resident DIDs with their touch ticks, in ascending DID order.
    fn resident_touches(&self) -> impl Iterator<Item = (Did, u64)> + '_ {
        self.slot_of
            .iter()
            .enumerate()
            .filter(|&(_, &slot)| slot != 0)
            .map(|(did, &slot)| (Did::new(did as u32), self.slots[slot as usize - 1].touched))
    }

    /// Makes `space` resident for `did`, touched at `tick`.
    fn insert(&mut self, did: u32, space: TenantSpace, tick: u64) {
        let resident = Resident {
            space,
            touched: tick,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = resident;
                slot
            }
            None => {
                self.slots.push(resident);
                self.slots.len() as u32 - 1
            }
        };
        let did = did as usize;
        if did >= self.slot_of.len() {
            self.slot_of.resize(did + 1, 0);
        }
        self.slot_of[did] = slot + 1;
    }

    /// Evicts the least-recently-touched resident space, skipping stale
    /// queue entries. Returns `false` if the queue ran dry first (the
    /// resident set and the queue out of sync: a bug).
    fn evict_lru(&mut self) -> bool {
        while let Some((tick, did)) = self.lru.pop_front() {
            if touch_tick(&self.slot_of, &self.slots, did) == Some(tick) {
                let slot = std::mem::take(&mut self.slot_of[did as usize]);
                self.free.push(slot - 1);
                self.evictions += 1;
                return true;
            }
        }
        false
    }

    fn push_lru(&mut self, tick: u64, did: u32) {
        self.lru.push_back((tick, did));
        // Lazy deletion leaves stale entries behind; compact once they
        // dominate so the queue stays O(resident).
        if self.lru.len() > 2 * self.resident().max(32) {
            let (slot_of, slots) = (&self.slot_of, &self.slots);
            self.lru
                .retain(|&(t, d)| touch_tick(slot_of, slots, d) == Some(t));
        }
    }
}

/// The slot index `slot_of` records for `did`, if it is resident.
#[inline]
fn slot_index(slot_of: &[u32], did: u32) -> Option<usize> {
    match slot_of.get(did as usize) {
        Some(&slot) if slot != 0 => Some(slot as usize - 1),
        _ => None,
    }
}

/// The tick of `did`'s most recent touch, if it is resident.
fn touch_tick(slot_of: &[u32], slots: &[Resident], did: u32) -> Option<u64> {
    slot_index(slot_of, did).map(|slot| slots[slot].touched)
}

impl std::fmt::Debug for SpacePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("SpacePool")
            .field("lazy", &self.is_lazy())
            .field("tenants", &self.tenants())
            .field("stats", &stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypersio_types::{GIova, PageSize};

    fn canonical() -> TenantSpace {
        let mut b = TenantSpace::builder(Did::new(0));
        b.map(GIova::new(0x3480_0000), PageSize::Size4K);
        b.map(GIova::new(0xbbe0_0000), PageSize::Size2M);
        b.build()
    }

    fn budget_for(spaces: usize) -> Option<u64> {
        Some(canonical().per_tenant_bytes() * spaces as u64)
    }

    #[test]
    fn lazy_pool_matches_dense_translations() {
        let dids: Vec<Did> = (0..8).map(Did::new).collect();
        let dense = SpacePool::dense(
            TenantSpace::builder(Did::new(0))
                .map(GIova::new(0x3480_0000), PageSize::Size4K)
                .map(GIova::new(0xbbe0_0000), PageSize::Size2M)
                .build_many(&dids),
        );
        let mut lazy = SpacePool::lazy(canonical(), 8, budget_for(2));
        for &did in &dids {
            lazy.ensure(did);
            let iova = GIova::new(0xbbe0_0042);
            assert_eq!(
                lazy.get(did).lookup(iova).unwrap(),
                dense.get(did).lookup(iova).unwrap(),
                "{did}"
            );
        }
    }

    #[test]
    fn budget_caps_residency_and_evicts_lru() {
        let mut pool = SpacePool::lazy(canonical(), 100, budget_for(2));
        assert!(pool.ensure(Did::new(0)));
        assert!(pool.ensure(Did::new(1)));
        // Touch 0 so 1 becomes the LRU victim.
        assert!(!pool.ensure(Did::new(0)));
        assert!(pool.ensure(Did::new(2)));
        let stats = pool.stats();
        assert_eq!(stats.resident, 2);
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.max_resident, 2);
        // 1 was evicted; re-touching rebuilds it.
        assert!(pool.ensure(Did::new(1)));
        assert_eq!(pool.stats().builds, 4);
    }

    #[test]
    fn rebuild_after_eviction_is_bit_identical() {
        let mut pool = SpacePool::lazy(canonical(), 100, budget_for(1));
        pool.ensure(Did::new(7));
        let before = pool
            .get(Did::new(7))
            .lookup(GIova::new(0xbbe0_0042))
            .unwrap();
        let layout_before = pool.get(Did::new(7)).layout_id();
        pool.ensure(Did::new(8)); // evicts 7
        pool.ensure(Did::new(7)); // rebuilds 7
        let space = pool.get(Did::new(7));
        assert_eq!(space.lookup(GIova::new(0xbbe0_0042)).unwrap(), before);
        assert_eq!(
            space.layout_id(),
            layout_before,
            "memo sharing must survive"
        );
    }

    #[test]
    fn migration_survives_eviction() {
        let mut pool = SpacePool::lazy(canonical(), 100, budget_for(1));
        pool.ensure(Did::new(3));
        pool.migrate(Did::new(3), 55);
        let after_migrate = pool
            .get(Did::new(3))
            .lookup(GIova::new(0xbbe0_0000))
            .unwrap();
        pool.ensure(Did::new(4)); // evicts 3
        pool.ensure(Did::new(3)); // rebuild must land in slab 55
        assert_eq!(pool.get(Did::new(3)).host_slab(), 55);
        assert_eq!(
            pool.get(Did::new(3))
                .lookup(GIova::new(0xbbe0_0000))
                .unwrap(),
            after_migrate
        );
    }

    #[test]
    fn migrating_a_nonresident_tenant_records_the_override() {
        let mut pool = SpacePool::lazy(canonical(), 100, budget_for(4));
        pool.migrate(Did::new(9), 70);
        pool.ensure(Did::new(9));
        assert_eq!(pool.get(Did::new(9)).host_slab(), 70);
    }

    #[test]
    fn unbounded_lazy_pool_never_evicts() {
        let mut pool = SpacePool::lazy(canonical(), 1000, None);
        for i in 0..200 {
            pool.ensure(Did::new(i));
        }
        let stats = pool.stats();
        assert_eq!(stats.resident, 200);
        assert_eq!(stats.evictions, 0);
    }

    /// The lazy pool's recency queue length.
    fn lru_len(pool: &SpacePool) -> usize {
        match &pool.variant {
            Variant::Lazy(inner) => inner.lru.len(),
            Variant::Dense(_) => unreachable!("a dense pool keeps no queue"),
        }
    }

    #[test]
    fn lru_queue_stays_bounded_under_retouch() {
        let mut pool = SpacePool::lazy(canonical(), 10, budget_for(4));
        for round in 0..10_000u32 {
            pool.ensure(Did::new(round % 4));
            let bound = 2 * pool.stats().resident.max(32) + 1;
            assert!(
                lru_len(&pool) <= bound,
                "lru queue grew to {}",
                lru_len(&pool)
            );
        }
        assert_eq!(pool.stats().resident, 4);
    }

    /// Ensures, migrations and a residency shrink that exercise eviction,
    /// stale-entry skips, slab overrides and queue compaction.
    fn scripted_pool() -> SpacePool {
        let mut pool = SpacePool::lazy(canonical(), 16, budget_for(4));
        for d in [3u32, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5] {
            pool.ensure(Did::new(d));
        }
        pool.migrate(Did::new(7), 40);
        pool.migrate(Did::new(5), 41);
        for d in [7u32, 8, 5, 5, 5] {
            pool.ensure(Did::new(d));
        }
        pool.shrink_residency();
        for d in [0u32, 7, 15].into_iter().chain([0; 71]).chain([7]) {
            pool.ensure(Did::new(d));
        }
        pool
    }

    #[test]
    fn snapshot_words_match_the_hash_map_residency() {
        // Recorded from the pool that kept residency in two hash maps; the
        // checkpoint body must not change with the bookkeeping.
        let pool = scripted_pool();
        let mut words = Vec::new();
        pool.snapshot_words(&mut words);
        assert_eq!(
            words,
            [
                1, 16, 2, 91, 15, 13, 2, 5, 41, 7, 40, 2, 0, 90, 7, 91, 9, 83, 0, 84, 0, 85, 0, 86,
                0, 87, 0, 88, 0, 89, 0, 90, 0, 91, 7
            ]
        );
        assert_eq!(
            pool.stats(),
            PoolStats {
                builds: 15,
                evictions: 13,
                resident: 2,
                max_resident: 2
            }
        );
        // The words restore into a fresh pool and snapshot back unchanged.
        let mut restored = SpacePool::lazy(canonical(), 16, budget_for(4));
        restored
            .restore_words(&mut hypersio_cache::WordReader::new(&words))
            .unwrap();
        let mut again = Vec::new();
        restored.snapshot_words(&mut again);
        assert_eq!(again, words);
        assert_eq!(restored.resident_dids(), vec![Did::new(0), Did::new(7)]);
        assert_eq!(restored.get(Did::new(7)).host_slab(), 40);
    }

    #[test]
    fn restore_rejects_duplicate_and_out_of_range_residents() {
        let mut words = Vec::new();
        scripted_pool().snapshot_words(&mut words);
        // The resident list follows the overrides: count, then
        // (did, touched) pairs.
        let list = 11;
        assert_eq!(&words[list..list + 5], &[2, 0, 90, 7, 91]);
        for (did, ok) in [(0u64, true), (7, false), (16, false), (u64::MAX, false)] {
            let mut corrupt = words.clone();
            // 0 keeps the stream; 7 lists DID 7 twice.
            corrupt[list + 1] = did;
            let mut pool = SpacePool::lazy(canonical(), 16, budget_for(4));
            let restored = pool.restore_words(&mut hypersio_cache::WordReader::new(&corrupt));
            assert_eq!(restored.is_some(), ok, "first resident {did:#x}");
            let Variant::Lazy(inner) = &pool.variant else {
                unreachable!()
            };
            // Tables grow only per accepted resident, never from a count
            // or DID read from the stream.
            assert!(inner.slot_of.len() <= 16, "{did:#x}");
            assert!(inner.slots.len() <= 2, "{did:#x}");
        }
    }

    #[test]
    fn lazy_matches_eager_under_sv39x4() {
        use crate::WalkGeometry;
        // Satellite check: lazy stamping must be identity-preserving for
        // the widened-root geometry too, at both thrash scales.
        for tenants in [128u32, 1024] {
            let dids: Vec<Did> = (0..tenants).map(Did::new).collect();
            let mut b = TenantSpace::builder(Did::new(0));
            b.geometry(WalkGeometry::RiscvSv39x4)
                .map(GIova::new(0x3480_0000), PageSize::Size4K)
                .map(GIova::new(0xbbe0_0000), PageSize::Size2M);
            let eager = SpacePool::dense(b.build_many(&dids));
            let canonical = {
                let mut b = TenantSpace::builder(Did::new(0));
                b.geometry(WalkGeometry::RiscvSv39x4)
                    .map(GIova::new(0x3480_0000), PageSize::Size4K)
                    .map(GIova::new(0xbbe0_0000), PageSize::Size2M);
                b.build()
            };
            let budget = Some(canonical.per_tenant_bytes() * 3);
            let mut lazy = SpacePool::lazy(canonical, tenants, budget);
            for &did in &dids {
                lazy.ensure(did);
                for iova in [GIova::new(0x3480_0123), GIova::new(0xbbe4_5678)] {
                    assert_eq!(
                        lazy.get(did).lookup(iova).unwrap(),
                        eager.get(did).lookup(iova).unwrap(),
                        "{did} {tenants} tenants"
                    );
                }
                assert_eq!(lazy.get(did).geometry(), WalkGeometry::RiscvSv39x4);
            }
            assert!(lazy.stats().evictions > 0, "budget should force evictions");
        }
    }

    #[test]
    #[should_panic(expected = "unknown tenant")]
    fn out_of_range_did_rejected() {
        let mut pool = SpacePool::lazy(canonical(), 4, None);
        pool.ensure(Did::new(4));
    }

    #[test]
    #[should_panic(expected = "slab-0 build")]
    fn lazy_pool_rejects_a_non_canonical_source() {
        // A DID-5 build sits in slab 5: every tenant stamped from it would
        // translate into slab 5 + its own, while reporting its own slab.
        let mut b = TenantSpace::builder(Did::new(5));
        b.map(GIova::new(0xbbe0_0000), PageSize::Size2M);
        let _ = SpacePool::lazy(b.build(), 8, None);
    }

    #[test]
    #[should_panic(expected = "indexed by DID")]
    fn dense_pool_requires_did_indexing() {
        let mut b = TenantSpace::builder(Did::new(3));
        b.map(GIova::new(0x3480_0000), PageSize::Size4K);
        let _ = SpacePool::dense(vec![b.build()]);
    }
}
