//! PCIe and IOMMU identifier newtypes.

use std::fmt;

/// PCIe Bus/Device/Function triplet identifying a requester on the fabric.
///
/// In SR-IOV systems each virtual function (VF) appears as its own BDF, so a
/// BDF uniquely identifies a tenant's device endpoint. The packed 16-bit
/// encoding follows PCIe: `bus[15:8] | device[7:3] | function[2:0]`.
///
/// One 16-bit encoding covers a single PCIe segment group (65 536
/// requester IDs). Hyper-tenant setups with more endpoints than that span
/// multiple segment groups, so the full routing identity is 32 bits:
/// `segment[31:16] | bus[15:8] | device[7:3] | function[2:0]`
/// (see [`Bdf::routing_id`]). The 16-bit constructors and accessors keep
/// their segment-0 meaning.
///
/// # Examples
///
/// ```
/// use hypersio_types::Bdf;
///
/// let bdf = Bdf::from_parts(0x3b, 4, 2);
/// assert_eq!(bdf.bus(), 0x3b);
/// assert_eq!(bdf.device(), 4);
/// assert_eq!(bdf.function(), 2);
/// assert_eq!(format!("{bdf}"), "3b:04.2");
///
/// let far = Bdf::from_routing_id(0x0002_3b22);
/// assert_eq!(far.segment(), 2);
/// assert_eq!(format!("{far}"), "0002:3b:04.2");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bdf(u32);

impl Bdf {
    /// Creates a segment-0 BDF from its packed 16-bit PCIe encoding.
    pub const fn new(raw: u16) -> Self {
        Bdf(raw as u32)
    }

    /// Creates a BDF from its full 32-bit routing identity (segment group
    /// in the upper 16 bits).
    pub const fn from_routing_id(raw: u32) -> Self {
        Bdf(raw)
    }

    /// Creates a segment-0 BDF from separate bus, device, and function
    /// numbers.
    ///
    /// # Panics
    ///
    /// Panics if `device >= 32` or `function >= 8`, which are unrepresentable
    /// in the PCIe encoding.
    pub fn from_parts(bus: u8, device: u8, function: u8) -> Self {
        assert!(device < 32, "PCIe device number must be < 32");
        assert!(function < 8, "PCIe function number must be < 8");
        Bdf(((bus as u32) << 8) | ((device as u32) << 3) | function as u32)
    }

    /// Returns the packed 16-bit encoding within this BDF's segment group.
    pub const fn raw(self) -> u16 {
        self.0 as u16
    }

    /// Returns the full 32-bit routing identity (segment group + BDF).
    pub const fn routing_id(self) -> u32 {
        self.0
    }

    /// Returns the PCIe segment group (0 for single-segment systems).
    pub const fn segment(self) -> u16 {
        (self.0 >> 16) as u16
    }

    /// Returns the bus number.
    pub const fn bus(self) -> u8 {
        (self.0 >> 8) as u8
    }

    /// Returns the device number (0..32).
    pub const fn device(self) -> u8 {
        ((self.0 >> 3) & 0x1f) as u8
    }

    /// Returns the function number (0..8).
    pub const fn function(self) -> u8 {
        (self.0 & 0x7) as u8
    }
}

impl fmt::Display for Bdf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.segment() != 0 {
            write!(f, "{:04x}:", self.segment())?;
        }
        write!(
            f,
            "{:02x}:{:02x}.{:x}",
            self.bus(),
            self.device(),
            self.function()
        )
    }
}

impl From<u16> for Bdf {
    fn from(raw: u16) -> Self {
        Bdf(raw as u32)
    }
}

/// Source ID carried by every translation request reaching the DevTLB.
///
/// The paper uses the SID (assigned by the hypervisor when a VF is given to a
/// tenant) as the partitioning key for the Partitioned DevTLB, because it is
/// stable, tenant-independent, and known at configuration time (§III).
/// Numerically it is the requester's [`Bdf`], but the two are kept as
/// distinct types because SIDs index predictor/partition state while BDFs
/// index the PCIe fabric.
///
/// # Examples
///
/// ```
/// use hypersio_types::Sid;
///
/// let sid = Sid::new(42);
/// // Low-bit group match used by coarse DevTLB partitioning:
/// assert_eq!(sid.low_bits(3), 42 % 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Sid(u32);

impl Sid {
    /// Exclusive upper bound on the SIDs a trace may carry (2^24).
    ///
    /// The simulator's SID-indexed tables (the SID → DID map and the
    /// SID-predictor) are flat arrays sized by the largest SID, so the
    /// bound caps each at 2^24 four-byte entries: 64 MiB of address space,
    /// of which only the touched pages become resident. Default SIDs equal
    /// DIDs, and BDF-derived SIDs of segment-0 devices are 16 bits.
    pub const BOUND: u32 = 1 << 24;

    /// Creates a SID from its raw value.
    pub const fn new(raw: u32) -> Self {
        Sid(raw)
    }

    /// Returns the raw value.
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// Returns the low `bits` bits of the SID, used for group partition tags.
    ///
    /// `bits == 0` always returns 0 (a single shared group); `bits >= 32`
    /// returns the full SID.
    pub const fn low_bits(self, bits: u32) -> u32 {
        if bits == 0 {
            0
        } else if bits >= 32 {
            self.0
        } else {
            self.0 & ((1 << bits) - 1)
        }
    }
}

impl fmt::Display for Sid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sid{}", self.0)
    }
}

impl From<Bdf> for Sid {
    fn from(bdf: Bdf) -> Self {
        Sid(bdf.routing_id())
    }
}

impl From<u32> for Sid {
    fn from(raw: u32) -> Self {
        Sid(raw)
    }
}

/// IOMMU Domain ID, configured by the host in the tenant's context entry.
///
/// The DID names the second-level (host) address space used for the nested
/// part of the two-dimensional walk, and keys the IOTLB and page-walk caches.
///
/// # Examples
///
/// ```
/// use hypersio_types::Did;
///
/// assert_eq!(Did::new(3).raw(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Did(u32);

impl Did {
    /// Creates a DID from its raw value.
    pub const fn new(raw: u32) -> Self {
        Did(raw)
    }

    /// Returns the raw value.
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// Returns the DID as a `usize` index into per-domain tables.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Did {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "did{}", self.0)
    }
}

impl From<u32> for Did {
    fn from(raw: u32) -> Self {
        Did(raw)
    }
}

/// Process Address Space Identifier (optional per-process tag within a SID).
///
/// Carried alongside the SID on translation requests in scalable-IOV setups;
/// the reproduction models one address space per tenant so the PASID is kept
/// for API fidelity but defaults to zero.
///
/// # Examples
///
/// ```
/// use hypersio_types::Pasid;
///
/// assert_eq!(Pasid::default().raw(), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Pasid(u32);

impl Pasid {
    /// Creates a PASID from its raw value.
    pub const fn new(raw: u32) -> Self {
        Pasid(raw)
    }

    /// Returns the raw value.
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for Pasid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pasid{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bdf_round_trips_parts() {
        let bdf = Bdf::from_parts(0xff, 31, 7);
        assert_eq!(bdf.bus(), 0xff);
        assert_eq!(bdf.device(), 31);
        assert_eq!(bdf.function(), 7);
    }

    #[test]
    fn bdf_zero_is_default() {
        assert_eq!(Bdf::default(), Bdf::from_parts(0, 0, 0));
    }

    #[test]
    #[should_panic(expected = "device number")]
    fn bdf_rejects_large_device() {
        let _ = Bdf::from_parts(0, 32, 0);
    }

    #[test]
    #[should_panic(expected = "function number")]
    fn bdf_rejects_large_function() {
        let _ = Bdf::from_parts(0, 0, 8);
    }

    #[test]
    fn bdf_display_format() {
        assert_eq!(format!("{}", Bdf::from_parts(1, 2, 3)), "01:02.3");
    }

    #[test]
    fn bdf_routing_id_round_trips_segments() {
        let bdf = Bdf::from_routing_id(0x0007_0103);
        assert_eq!(bdf.segment(), 7);
        assert_eq!(bdf.raw(), 0x0103);
        assert_eq!(bdf.routing_id(), 0x0007_0103);
        assert_eq!(format!("{bdf}"), "0007:01:00.3");
        // Segment-0 construction is unchanged by the widening.
        assert_eq!(Bdf::new(0x0103), Bdf::from_routing_id(0x0103));
        assert_eq!(Sid::from(bdf).raw(), 0x0007_0103);
    }

    #[test]
    fn sid_from_bdf_preserves_raw() {
        let bdf = Bdf::from_parts(2, 1, 0);
        assert_eq!(Sid::from(bdf).raw(), bdf.raw() as u32);
    }

    #[test]
    fn sid_low_bits_edge_cases() {
        let sid = Sid::new(0b1011_0110);
        assert_eq!(sid.low_bits(0), 0);
        assert_eq!(sid.low_bits(1), 0);
        assert_eq!(sid.low_bits(3), 0b110);
        assert_eq!(sid.low_bits(8), 0b1011_0110);
        assert_eq!(sid.low_bits(32), sid.raw());
        assert_eq!(sid.low_bits(40), sid.raw());
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Did::new(1));
        set.insert(Did::new(1));
        set.insert(Did::new(2));
        assert_eq!(set.len(), 2);
        assert!(Sid::new(1) < Sid::new(2));
    }

    #[test]
    fn display_impls_are_nonempty() {
        assert_eq!(format!("{}", Sid::new(9)), "sid9");
        assert_eq!(format!("{}", Did::new(9)), "did9");
        assert_eq!(format!("{}", Pasid::new(9)), "pasid9");
    }
}
