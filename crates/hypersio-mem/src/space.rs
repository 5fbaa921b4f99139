//! Per-tenant address spaces: paired guest and host page tables.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hypersio_types::{Did, GIova, GPa, HPa, PageSize};

use crate::geometry::WalkGeometry;
use crate::page_table::{InlineWalkPath, PageTableError, RadixTable, WalkPath};

/// Base of the guest-physical region where each tenant's guest page-table
/// nodes are placed.
const GUEST_TABLE_BASE: u64 = 0x4000_0000;

/// Base of the guest-physical region backing mapped data pages.
const GUEST_DATA_BASE: u64 = 0x8000_0000;

/// Size of the host-physical slab reserved per tenant (enough for every page
/// a workload tenant maps: 32 × 2 MB data buffers plus table nodes and 4 KB
/// pages, with headroom).
pub(crate) const HOST_SLAB_PER_TENANT: u64 = 256 * 1024 * 1024;

/// Issues process-unique layout identities (see [`TenantSpace::layout_id`]).
/// Two spaces share an id only when they were stamped from the same
/// canonical build, which is what makes cross-tenant memo sharing sound.
static NEXT_LAYOUT_ID: AtomicU64 = AtomicU64::new(0);

fn next_layout_id() -> u64 {
    NEXT_LAYOUT_ID.fetch_add(1, Ordering::Relaxed)
}

/// Builder assembling one tenant's [`TenantSpace`] from its page inventory.
///
/// # Examples
///
/// ```
/// use hypersio_mem::TenantSpace;
/// use hypersio_types::{Did, GIova, PageSize};
///
/// let mut builder = TenantSpace::builder(Did::new(3));
/// builder.map(GIova::new(0x3480_0000), PageSize::Size4K);
/// builder.map(GIova::new(0xbbe0_0000), PageSize::Size2M);
/// let space = builder.build();
/// assert_eq!(space.did(), Did::new(3));
/// assert!(space.lookup(GIova::new(0xbbe0_0042)).is_some());
/// ```
pub struct TenantSpaceBuilder {
    did: Did,
    pages: Vec<(GIova, PageSize)>,
    geometry: WalkGeometry,
}

impl TenantSpaceBuilder {
    /// Creates a builder for tenant `did`
    /// ([`WalkGeometry::X86Nested4`] tables by default).
    pub fn new(did: Did) -> Self {
        TenantSpaceBuilder {
            did,
            pages: Vec::new(),
            geometry: WalkGeometry::X86Nested4,
        }
    }

    /// Builds the tenant's tables in the given walk geometry: guest and
    /// host level counts, G-stage root widening, and the full-walk cost
    /// (`G x (H + 1) + H` memory accesses: 24 for x86-4, 35 for x86-5, 15
    /// for Sv39x4, 24 for Sv48x4) all derive from it.
    pub fn geometry(&mut self, geometry: WalkGeometry) -> &mut Self {
        self.geometry = geometry;
        self
    }

    /// Legacy shim for the x86 geometries: `levels`-deep radix tables in
    /// both dimensions (4 maps to [`WalkGeometry::X86Nested4`], 5 to
    /// [`WalkGeometry::X86Nested5`]). Prefer
    /// [`TenantSpaceBuilder::geometry`].
    ///
    /// # Panics
    ///
    /// Panics if `levels` is not 4 or 5.
    pub fn levels(&mut self, levels: u8) -> &mut Self {
        self.geometry(match levels {
            4 => WalkGeometry::X86Nested4,
            5 => WalkGeometry::X86Nested5,
            other => panic!("no x86 nested geometry with {other} levels"),
        })
    }

    /// Adds a gIOVA page to the tenant's device-visible mapping.
    ///
    /// Duplicate pages are tolerated (mapped once); the address is truncated
    /// to the page boundary.
    pub fn map(&mut self, iova: GIova, size: PageSize) -> &mut Self {
        self.pages.push((iova.page(size).base(), size));
        self
    }

    /// Builds the paired guest and host tables.
    ///
    /// Layout is fully deterministic given the page list and DID:
    /// - guest data frames are allocated bump-style from a per-tenant
    ///   guest-physical base *identical across tenants* (same OS + driver,
    ///   §IV-D), so two tenants mapping the same gIOVAs also get the same
    ///   gPAs — maximising cache-index conflicts exactly as in the paper;
    /// - host frames come from a per-DID slab, so different tenants get
    ///   different hPAs (true isolation at the host level).
    ///
    /// # Panics
    ///
    /// Panics if the page inventory overflows the per-tenant host slab,
    /// or if two added pages overlap with different sizes.
    pub fn build(&self) -> TenantSpace {
        self.build_with_did(self.did)
    }

    /// Builds the paired tables for every DID in `dids`, sharing the work.
    ///
    /// The layout produced by [`TenantSpaceBuilder::build`] is *affine in
    /// the DID*: the guest dimension (table nodes, data frames) is
    /// DID-independent by design (§IV-D — same OS and driver in every
    /// tenant), and every host-side address is `canonical + did * slab`
    /// because host frames and host table nodes are bump-allocated in an
    /// identical, DID-independent order from per-DID slab bases that are
    /// one uniform stride apart. (The stride is a multiple of every page
    /// alignment that fits in a slab, so alignment padding is identical
    /// across DIDs too.) This method exploits that: it replays the page
    /// inventory once to build the canonical DID-0 space, then
    /// [stamps](TenantSpace::stamp) each requested tenant as a view of it
    /// — turning the O(tenants × pages) construction into
    /// O(pages + tenants), with one pair of tables in memory.
    ///
    /// Every space translates and walks exactly as `build()` for its DID
    /// would: same lookups, same host walk paths.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`TenantSpaceBuilder::build`].
    pub fn build_many(&self, dids: &[Did]) -> Vec<TenantSpace> {
        let canonical = self.build_with_did(Did::new(0));
        dids.iter()
            .map(|&did| canonical.stamp(did, did.raw() as u64))
            .collect()
    }

    fn build_with_did(&self, did: Did) -> TenantSpace {
        let host_slab_base = 0x10_0000_0000 + did.raw() as u64 * HOST_SLAB_PER_TENANT;
        let mut host_next = host_slab_base;
        let mut alloc_host = move || {
            let a = host_next;
            host_next += 4096;
            a
        };

        let mut guest_table_next = GUEST_TABLE_BASE;
        let mut alloc_guest_node = move || {
            let a = guest_table_next;
            guest_table_next += 4096;
            a
        };

        let mut guest = RadixTable::new(self.geometry.guest_levels(), &mut alloc_guest_node);
        let mut guest_data_next = GUEST_DATA_BASE;

        let mut mapped: Vec<(GIova, PageSize)> = Vec::new();
        for &(iova, size) in &self.pages {
            if mapped.iter().any(|&(existing, _)| existing == iova) {
                continue;
            }
            // Align the guest-data bump pointer to the page size.
            let align = size.bytes();
            guest_data_next = (guest_data_next + align - 1) & !(align - 1);
            let gpa = guest_data_next;
            guest_data_next += align;
            match guest.map(iova.raw(), gpa, size, &mut alloc_guest_node) {
                Ok(()) => mapped.push((iova, size)),
                Err(PageTableError::AlreadyMapped { .. }) => {}
                Err(e) => panic!("guest mapping failed for {iova}: {e}"),
            }
        }

        // Host table: every guest-physical page the device walk can touch
        // must be mapped — the guest table nodes themselves plus the data
        // frames. Host table nodes live in host memory and need no mapping.
        let mut host_table_next = 0x20_0000_0000 + did.raw() as u64 * HOST_SLAB_PER_TENANT;
        let mut alloc_host_node = move || {
            let a = host_table_next;
            host_table_next += 4096;
            a
        };
        // The host (G-stage) table: RISC-V x4 geometries widen its root
        // level by 2 bits; x86 geometries pass 0 and build exactly the
        // pre-geometry table.
        let mut host = RadixTable::with_root_widening(
            self.geometry.host_levels(),
            self.geometry.host_root_extra_bits(),
            &mut alloc_host_node,
        );

        let guest_node_addrs: Vec<u64> = {
            let mut v: Vec<u64> = guest.node_addrs().collect();
            v.sort_unstable();
            v
        };
        for node in guest_node_addrs {
            let hpa = alloc_host();
            host.map(node, hpa, PageSize::Size4K, &mut alloc_host_node)
                .expect("guest table nodes are distinct 4K pages");
        }
        for &(iova, size) in &mapped {
            let gpa = guest
                .translate(iova.raw())
                .expect("just mapped in the guest table");
            // Host frames mirror the guest alignment.
            let hpa = match size {
                PageSize::Size4K => alloc_host(),
                PageSize::Size2M | PageSize::Size1G => {
                    // Burn allocator space up to alignment, then take a run.
                    let mut base = alloc_host();
                    while base & size.offset_mask() != 0 {
                        base = alloc_host();
                    }
                    // Reserve the rest of the huge frame.
                    for _ in 0..(size.bytes() / 4096 - 1) {
                        let _ = alloc_host();
                    }
                    base
                }
            };
            assert!(
                hpa + size.bytes() <= host_slab_base + HOST_SLAB_PER_TENANT,
                "tenant {did} page inventory overflows its host slab"
            );
            host.map(gpa & !size.offset_mask(), hpa, size, &mut alloc_host_node)
                .expect("guest data frames are distinct");
        }

        TenantSpace {
            did,
            geometry: self.geometry,
            guest: Arc::new(guest),
            host: Arc::new(host),
            host_slab: did.raw() as u64,
            layout_id: next_layout_id(),
            host_delta: 0,
            page_count: mapped.len(),
        }
    }
}

/// One tenant's translation state: its guest table (gIOVA → gPA, nodes in
/// guest-physical memory) and host table (gPA → hPA).
///
/// Every guest-physical address the device-side walk can touch — guest
/// table nodes and data frames — is mapped in the host table, so the
/// two-dimensional walker never faults on a nested access.
pub struct TenantSpace {
    did: Did,
    /// The walk geometry both tables were built in; siblings stamped from
    /// one canonical build always share it.
    geometry: WalkGeometry,
    /// Guest table, shared across all spaces stamped from one canonical
    /// build: the guest dimension is DID-independent (same OS + driver,
    /// §IV-D) and never mutated after construction, so a million tenants
    /// reference one copy.
    guest: Arc<RadixTable>,
    /// Host table in *canonical* coordinates, shared the same way: every
    /// sibling's host table is this one shifted by its `host_delta`, so a
    /// space is a view and never owns a copy. The shift is applied only
    /// where host-side results leave the space ([`TenantSpace::lookup`],
    /// [`TenantSpace::host_walk_inline`]).
    host: Arc<RadixTable>,
    /// Index of the host-physical slab the host table currently lives in
    /// (`did` at build time; bumped by [`TenantSpace::migrate_to_slab`]).
    host_slab: u64,
    /// Identity of the canonical layout this space was stamped from.
    /// Spaces produced by one [`TenantSpaceBuilder::build_many`] call share
    /// an id; each [`TenantSpaceBuilder::build`] gets a fresh one.
    layout_id: u64,
    /// Offset of every host-side address relative to the shared `host`
    /// table (`slab * HOST_SLAB_PER_TENANT` at stamp-out time, adjusted by
    /// each migration). The guest dimension is canonical as-is.
    host_delta: u64,
    page_count: usize,
}

impl TenantSpace {
    /// Starts building a tenant space for `did`.
    pub fn builder(did: Did) -> TenantSpaceBuilder {
        TenantSpaceBuilder::new(did)
    }

    /// Returns the tenant's domain ID.
    pub fn did(&self) -> Did {
        self.did
    }

    /// Returns the walk geometry this space was built in.
    pub fn geometry(&self) -> WalkGeometry {
        self.geometry
    }

    /// Returns the number of distinct device-visible pages.
    pub fn page_count(&self) -> usize {
        self.page_count
    }

    /// Returns the index of the host slab currently backing this tenant.
    pub fn host_slab(&self) -> u64 {
        self.host_slab
    }

    /// Relocates the tenant's host-side memory to slab `slab`, as a VM
    /// migration does: every host frame and host table node moves to the
    /// new slab while the guest dimension (same OS, same driver, same
    /// gIOVAs and gPAs) is untouched. Only the view's offset changes; no
    /// table is copied. Callers must shoot down every cached translation
    /// of this DID afterwards — the old hPAs are stale.
    pub fn migrate_to_slab(&mut self, slab: u64) {
        let delta = slab
            .wrapping_sub(self.host_slab)
            .wrapping_mul(HOST_SLAB_PER_TENANT);
        self.host_delta = self.host_delta.wrapping_add(delta);
        self.host_slab = slab;
    }

    /// Whether this space can be [stamped](TenantSpace::stamp) from: its
    /// host table sits in slab 0 with no offset, as a DID-0 build that was
    /// never migrated does.
    pub(crate) fn is_canonical(&self) -> bool {
        self.host_slab == 0 && self.host_delta == 0
    }

    /// Stamps out the sibling space for `did` hosted in slab `slab` from
    /// this *canonical* (DID-0, slab-0) space: both tables are shared by
    /// reference, the host side is offset into the slab, and the layout
    /// identity is inherited — exactly what
    /// [`TenantSpaceBuilder::build_many`] produces for `slab == did`, and
    /// what a lazy pool rebuilds on first touch or after eviction. It
    /// costs two reference-count increments, whatever the table size.
    ///
    /// Stamping is deterministic: the same `(canonical, did, slab)` always
    /// yields the same translations, which is why eviction plus rebuild
    /// cannot change any of them.
    ///
    /// # Panics
    ///
    /// Panics unless this space is canonical (`host_slab() == 0` and
    /// `host_delta() == 0`): a view of any other build would place every
    /// tenant in the wrong slab.
    pub fn stamp(&self, did: Did, slab: u64) -> TenantSpace {
        assert!(
            self.is_canonical(),
            "stamp from the canonical (DID 0, slab 0) build, not {} in slab {}",
            self.did,
            self.host_slab
        );
        TenantSpace {
            did,
            geometry: self.geometry,
            guest: Arc::clone(&self.guest),
            host: Arc::clone(&self.host),
            host_slab: slab,
            layout_id: self.layout_id,
            host_delta: slab.wrapping_mul(HOST_SLAB_PER_TENANT),
            page_count: self.page_count,
        }
    }

    /// Rough heap footprint of one *private* host table of this layout —
    /// the host table's sparse maps. A stamped space is a view and owns no
    /// table, so this is not what it holds: it is the size of the table it
    /// would hold if materialised, kept as the unit a host-memory budget
    /// is divided by to give a lazy pool's resident-space cap, so the
    /// cap, the pool counters and checkpoints keep their values.
    pub fn per_tenant_bytes(&self) -> u64 {
        // FxHashMap entry ≈ key + value + capacity slack; 64 B/PTE and
        // 16 B/node-address are deliberately generous.
        (self.host.entry_count() as u64) * 64 + (self.host.node_count() as u64) * 16 + 256
    }

    /// Returns the identity of the canonical layout this space shares with
    /// its [`TenantSpaceBuilder::build_many`] siblings.
    ///
    /// Two spaces with the same id share one guest table and one host
    /// table and differ only by a uniform [`TenantSpace::host_delta`]
    /// shift — the invariant [`crate::WalkMemo`] relies on to share
    /// functional walk results across tenants.
    pub fn layout_id(&self) -> u64 {
        self.layout_id
    }

    /// Returns the uniform offset of this space's host-side addresses from
    /// the shared host table's (wrapping arithmetic).
    pub fn host_delta(&self) -> u64 {
        self.host_delta
    }

    /// Returns the guest table (gIOVA → gPA).
    pub fn guest_table(&self) -> &RadixTable {
        &self.guest
    }

    /// Walks the guest table for `iova`.
    ///
    /// # Errors
    ///
    /// Returns the guest-table error if `iova` is not device-visible.
    pub fn guest_walk(&self, iova: GIova) -> Result<WalkPath, PageTableError> {
        self.guest.walk(iova.raw())
    }

    /// Walks the host table for `gpa`.
    ///
    /// # Errors
    ///
    /// Returns the host-table error if `gpa` is unmapped (which would be a
    /// builder bug for addresses produced by [`TenantSpace::guest_walk`]).
    pub fn host_walk(&self, gpa: GPa) -> Result<WalkPath, PageTableError> {
        self.host_walk_inline(gpa).map(|path| path.to_walk_path())
    }

    /// Allocation-free [`TenantSpace::guest_walk`] (the walker's hot path).
    ///
    /// # Errors
    ///
    /// Returns the guest-table error if `iova` is not device-visible.
    pub fn guest_walk_inline(&self, iova: GIova) -> Result<InlineWalkPath, PageTableError> {
        self.guest.walk_inline(iova.raw())
    }

    /// Allocation-free [`TenantSpace::host_walk`] (the walker's hot path).
    /// The path is this tenant's: every host address in it is shifted by
    /// [`TenantSpace::host_delta`].
    ///
    /// # Errors
    ///
    /// Returns the host-table error if `gpa` is unmapped.
    pub fn host_walk_inline(&self, gpa: GPa) -> Result<InlineWalkPath, PageTableError> {
        self.host
            .walk_inline(gpa.raw())
            .map(|path| path.shifted(self.host_delta))
    }

    /// Full (uncached) functional translation: gIOVA → hPA, with the page
    /// size of the guest leaf.
    pub fn lookup(&self, iova: GIova) -> Option<(HPa, PageSize)> {
        let gpath = self.guest.walk_inline(iova.raw()).ok()?;
        let gpa = gpath.translate(iova.raw());
        let hpa = self.host.translate(gpa)?.wrapping_add(self.host_delta);
        Some((HPa::new(hpa), gpath.size))
    }
}

impl fmt::Debug for TenantSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TenantSpace")
            .field("did", &self.did)
            .field("pages", &self.page_count)
            .field("guest_nodes", &self.guest.node_count())
            .field("host_nodes", &self.host.node_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's per-tenant inventory (1 + 32 × 2 MB + 70 × 4 KB pages).
    fn paper_builder(did: u32) -> TenantSpaceBuilder {
        let mut b = TenantSpace::builder(Did::new(did));
        b.map(GIova::new(0x3480_0000), PageSize::Size4K);
        for i in 0..32u64 {
            b.map(GIova::new(0xbbe0_0000 + i * 0x20_0000), PageSize::Size2M);
        }
        for i in 0..70u64 {
            b.map(GIova::new(0xf000_0000 + i * 0x1000), PageSize::Size4K);
        }
        b
    }

    fn paper_tenant(did: u32) -> TenantSpace {
        paper_builder(did).build()
    }

    /// Asserts that `view` translates and walks exactly like `per_did` (a
    /// fresh per-DID build at the view's slab) and like the canonical host
    /// table materialised at that slab with [`RadixTable::rebased`]: the
    /// lookup of every page in `pages`, and the host walk (PTE addresses,
    /// PTEs, target) of every gPA a nested walk touches — each guest table
    /// node and each mapped page's frame.
    fn assert_view_matches(
        view: &TenantSpace,
        per_did: &TenantSpace,
        canonical: &TenantSpace,
        pages: &[(GIova, PageSize)],
    ) {
        let slab = per_did.host_slab();
        assert_eq!(view.host_slab(), slab);
        assert_eq!(view.geometry(), per_did.geometry());
        assert_eq!(view.page_count(), per_did.page_count());
        assert_eq!(view.guest_table(), per_did.guest_table(), "guest table");
        let oracle = canonical.host.rebased(slab * HOST_SLAB_PER_TENANT);
        let mut gpas: Vec<u64> = view.guest_table().node_addrs().collect();
        for &(iova, _) in pages {
            let got = view.lookup(iova).expect("mapped page");
            assert_eq!(
                Some(got),
                per_did.lookup(iova),
                "lookup {iova}, slab {slab}"
            );
            let gpa = view.guest_walk_inline(iova).unwrap().translate(iova.raw());
            assert_eq!(Some(got.0.raw()), oracle.translate(gpa), "oracle {iova}");
            gpas.push(gpa);
        }
        for gpa in gpas {
            let got = view.host_walk_inline(GPa::new(gpa)).unwrap();
            let want = per_did.host_walk_inline(GPa::new(gpa)).unwrap();
            assert_eq!(
                got, want,
                "host walk of {gpa:#x} vs per-DID build, slab {slab}"
            );
            let want = oracle.walk_inline(gpa).unwrap();
            assert_eq!(got, want, "host walk of {gpa:#x} vs oracle, slab {slab}");
        }
    }

    #[test]
    fn builds_paper_inventory() {
        let space = paper_tenant(0);
        assert_eq!(space.page_count(), 103);
        assert!(space.lookup(GIova::new(0x3480_0000)).is_some());
        assert!(space
            .lookup(GIova::new(0xbbe0_0000 + 31 * 0x20_0000))
            .is_some());
        assert!(space
            .lookup(GIova::new(0xf000_0000 + 69 * 0x1000))
            .is_some());
        assert!(space.lookup(GIova::new(0xdead_0000)).is_none());
    }

    #[test]
    fn duplicates_collapse() {
        let mut b = TenantSpace::builder(Did::new(0));
        b.map(GIova::new(0x1000), PageSize::Size4K);
        b.map(GIova::new(0x1fff), PageSize::Size4K); // same page
        let space = b.build();
        assert_eq!(space.page_count(), 1);
    }

    #[test]
    fn guest_layout_identical_across_tenants() {
        // Same driver/OS => same gIOVAs *and* same gPAs (§IV-D conflict
        // generator); host frames differ.
        let a = paper_tenant(0);
        let b = paper_tenant(1);
        let iova = GIova::new(0xbbe0_0000);
        let ga = a.guest_walk(iova).unwrap().translate(iova.raw());
        let gb = b.guest_walk(iova).unwrap().translate(iova.raw());
        assert_eq!(ga, gb);
        let (ha, _) = a.lookup(iova).unwrap();
        let (hb, _) = b.lookup(iova).unwrap();
        assert_ne!(ha, hb);
    }

    #[test]
    fn nested_walk_never_faults_on_guest_nodes() {
        let space = paper_tenant(2);
        // Every guest table node must be host-mapped.
        for node in space.guest_table().node_addrs() {
            assert!(
                space.host_walk(GPa::new(node)).is_ok(),
                "guest node {node:#x} not host-mapped"
            );
        }
    }

    #[test]
    fn huge_page_host_frames_are_aligned() {
        let space = paper_tenant(0);
        let (hpa, size) = space.lookup(GIova::new(0xbbe0_0000)).unwrap();
        assert_eq!(size, PageSize::Size2M);
        assert_eq!(hpa.raw() & PageSize::Size2M.offset_mask(), 0);
    }

    #[test]
    fn offsets_survive_translation() {
        let space = paper_tenant(0);
        let base = space.lookup(GIova::new(0xbbe0_0000)).unwrap().0;
        let off = space.lookup(GIova::new(0xbbe0_0000 + 0x1_2345)).unwrap().0;
        assert_eq!(off.raw() - base.raw(), 0x1_2345);
    }

    #[test]
    fn distinct_tenants_have_distinct_host_slabs() {
        let a = paper_tenant(0);
        let b = paper_tenant(1);
        let (ha, _) = a.lookup(GIova::new(0x3480_0000)).unwrap();
        let (hb, _) = b.lookup(GIova::new(0x3480_0000)).unwrap();
        assert!(ha.raw() < 0x10_0000_0000 + HOST_SLAB_PER_TENANT);
        assert!(hb.raw() >= 0x10_0000_0000 + HOST_SLAB_PER_TENANT);
    }

    #[test]
    fn five_level_spaces_translate_identically() {
        let mut b4 = TenantSpace::builder(Did::new(0));
        b4.map(GIova::new(0xbbe0_0000), PageSize::Size2M);
        let s4 = b4.build();
        let mut b5 = TenantSpace::builder(Did::new(0));
        b5.levels(5).map(GIova::new(0xbbe0_0000), PageSize::Size2M);
        let s5 = b5.build();
        let iova = GIova::new(0xbbe0_1234);
        // Same functional translation, one extra level in each walk.
        assert_eq!(s4.lookup(iova).unwrap().0, s5.lookup(iova).unwrap().0);
        assert_eq!(
            s4.guest_walk(iova).unwrap().ptes.len() + 1,
            s5.guest_walk(iova).unwrap().ptes.len()
        );
    }

    #[test]
    fn build_many_is_bit_identical_to_per_did_builds() {
        let b = paper_builder(0);
        let canonical = b.build();
        let dids = [Did::new(0), Did::new(1), Did::new(7), Did::new(1023)];
        let fleet = b.build_many(&dids);
        assert_eq!(fleet.len(), dids.len());
        for (space, &did) in fleet.iter().zip(&dids) {
            let per = paper_tenant(did.raw());
            assert_eq!(space.did(), per.did());
            assert_view_matches(space, &per, &canonical, &b.pages);
        }
    }

    #[test]
    fn build_many_respects_five_levels() {
        let mut b = TenantSpace::builder(Did::new(0));
        b.levels(5)
            .map(GIova::new(0xbbe0_0000), PageSize::Size2M)
            .map(GIova::new(0x3480_0000), PageSize::Size4K);
        let canonical = b.build();
        let fleet = b.build_many(&[Did::new(4)]);
        let mut per = TenantSpace::builder(Did::new(4));
        per.levels(5)
            .map(GIova::new(0xbbe0_0000), PageSize::Size2M)
            .map(GIova::new(0x3480_0000), PageSize::Size4K);
        let per = per.build();
        assert_eq!(fleet[0].geometry(), WalkGeometry::X86Nested5);
        assert_view_matches(&fleet[0], &per, &canonical, &b.pages);
        let host = fleet[0].host_walk(GPa::new(GUEST_TABLE_BASE)).unwrap();
        assert_eq!(host.ptes.len(), 5, "five-level host walk");
    }

    #[test]
    #[should_panic(expected = "stamp from the canonical")]
    fn stamp_rejects_a_non_canonical_source() {
        // A DID-5 build already sits in slab 5; a view of it stamped at
        // slab 0 would translate into slab 5.
        let _ = paper_tenant(5).stamp(Did::new(0), 0);
    }

    #[test]
    fn migration_moves_host_frames_and_keeps_guest_layout() {
        // Each link of the chain (including a move to a lower slab) must
        // equal a fresh build at the destination slab.
        let b = paper_builder(0);
        let canonical = b.build();
        let mut space = canonical.stamp(Did::new(0), 0);
        for slab in [5u64, 2, 1023, 0] {
            space.migrate_to_slab(slab);
            let fresh = paper_tenant(slab as u32);
            assert_view_matches(&space, &fresh, &canonical, &b.pages);
        }

        let mut space = paper_tenant(0);
        let iova = GIova::new(0xbbe0_0000);
        let (before, size) = space.lookup(iova).unwrap();
        let guest_before = space.guest_walk(iova).unwrap().translate(iova.raw());
        assert_eq!(space.host_slab(), 0);

        space.migrate_to_slab(5);
        assert_eq!(space.host_slab(), 5);
        let (after, size_after) = space.lookup(iova).unwrap();
        assert_eq!(size, size_after);
        assert_eq!(after.raw(), before.raw() + 5 * HOST_SLAB_PER_TENANT);
        // Guest dimension untouched.
        let guest_after = space.guest_walk(iova).unwrap().translate(iova.raw());
        assert_eq!(guest_before, guest_after);

        // Migrating again (including to a lower slab) keeps translating.
        space.migrate_to_slab(2);
        let (back, _) = space.lookup(iova).unwrap();
        assert_eq!(back.raw(), before.raw() + 2 * HOST_SLAB_PER_TENANT);
    }

    #[test]
    fn riscv_spaces_translate_like_x86_spaces() {
        // The functional mapping (gIOVA -> hPA) is geometry-independent:
        // only the table shapes (and hence walk costs) differ.
        let mut bx = TenantSpace::builder(Did::new(0));
        bx.map(GIova::new(0xbbe0_0000), PageSize::Size2M);
        bx.map(GIova::new(0x3480_0000), PageSize::Size4K);
        let x86 = bx.build();
        for geom in [WalkGeometry::RiscvSv39x4, WalkGeometry::RiscvSv48x4] {
            let mut br = TenantSpace::builder(Did::new(0));
            br.geometry(geom)
                .map(GIova::new(0xbbe0_0000), PageSize::Size2M)
                .map(GIova::new(0x3480_0000), PageSize::Size4K);
            let rv = br.build();
            assert_eq!(rv.geometry(), geom);
            for iova in [GIova::new(0xbbe0_1234), GIova::new(0x3480_0042)] {
                assert_eq!(rv.lookup(iova).unwrap().0, x86.lookup(iova).unwrap().0);
            }
            assert_eq!(
                rv.guest_walk(GIova::new(0x3480_0042)).unwrap().ptes.len(),
                geom.guest_levels() as usize
            );
            // The widened G-stage root spans four frames, so the first node
            // allocated below it (on the walk of the first gPA mapped, the
            // lowest guest node) sits 16 KiB past the root.
            let host = rv.host_walk(GPa::new(GUEST_TABLE_BASE)).unwrap();
            assert_eq!(
                host.pte_addrs[1] & !0xfff,
                (host.pte_addrs[0] & !0xfff) + 0x4000
            );
        }
    }

    #[test]
    #[should_panic(expected = "overflows its host slab")]
    fn one_gig_device_buffers_exceed_the_slab_model() {
        // 1 GiB leaves are modelled at the table and walker level (see the
        // RadixTable and geometry tests); a 1 GiB *device-visible buffer*
        // cannot be host-backed inside the 256 MiB per-tenant slab, and
        // the builder says so instead of corrupting the layout.
        let mut b = TenantSpace::builder(Did::new(0));
        b.geometry(WalkGeometry::RiscvSv39x4)
            .map(GIova::new(0x8000_0000), PageSize::Size1G);
        let _ = b.build();
    }

    #[test]
    fn riscv_stamping_matches_per_did_builds() {
        let builder = |did: Did, geom: WalkGeometry| {
            let mut b = TenantSpace::builder(did);
            b.geometry(geom);
            b.map(GIova::new(0x3480_0000), PageSize::Size4K);
            for i in 0..8u64 {
                b.map(GIova::new(0xbbe0_0000 + i * 0x20_0000), PageSize::Size2M);
            }
            b
        };
        for geom in [WalkGeometry::RiscvSv39x4, WalkGeometry::RiscvSv48x4] {
            let b = builder(Did::new(0), geom);
            let canonical = b.build();
            let dids = [Did::new(0), Did::new(3), Did::new(511)];
            let fleet = b.build_many(&dids);
            for (space, &did) in fleet.iter().zip(&dids) {
                let per = builder(did, geom).build();
                assert_eq!(space.geometry(), geom);
                assert_view_matches(space, &per, &canonical, &b.pages);
            }
        }
    }

    #[test]
    fn riscv_migration_keeps_translating() {
        let mut b = TenantSpace::builder(Did::new(0));
        b.geometry(WalkGeometry::RiscvSv48x4)
            .map(GIova::new(0xbbe0_0000), PageSize::Size2M);
        let mut space = b.build();
        let iova = GIova::new(0xbbe0_0042);
        let before = space.lookup(iova).unwrap().0;
        space.migrate_to_slab(9);
        let after = space.lookup(iova).unwrap().0;
        assert_eq!(after.raw(), before.raw() + 9 * HOST_SLAB_PER_TENANT);
        assert_eq!(space.geometry(), WalkGeometry::RiscvSv48x4);
    }

    #[test]
    #[should_panic(expected = "no x86 nested geometry")]
    fn levels_shim_rejects_non_x86_depths() {
        let mut b = TenantSpace::builder(Did::new(0));
        b.levels(3);
    }

    #[test]
    fn debug_mentions_counts() {
        let space = paper_tenant(0);
        let s = format!("{space:?}");
        assert!(s.contains("pages: 103"));
    }
}
