//! A slow-memory-tier backing store for the MTL's pressure path.
//!
//! §3.4 makes the MTL responsible for deciding which VB pages occupy
//! physical frames and which sit in slower memory. [`SlowTierBackend`]
//! implements `vbi_core`'s [`PressureBackend`] on top of this crate's
//! [`HeteroMemory`] latency model: evicted pages live in the slow tier
//! (functionally an in-memory [`BackingStore`]), and every store / load /
//! duplicate charges the simulated device cycles the tier would cost.
//! Installed per shard via `Mtl::set_backing`, it turns the engine's
//! evict-on-allocation-failure path into a two-tier capacity model.

use vbi_core::swap::{BackingStore, PageData, PressureBackend};
use vbi_core::translate::SwapSlot;
use vbi_core::{Result, VbiError};

use super::memory::{HeteroKind, HeteroMemory, Policy, PAGE_BYTES};

/// The region ID the backend charges its traffic to — the tier holds one
/// undifferentiated pool of swapped pages.
const SWAP_REGION: usize = 0;

/// A capacity-optionally-bounded backing store whose traffic is priced by a
/// [`HeteroMemory`] slow tier.
///
/// ```
/// use vbi_core::swap::PressureBackend;
/// use vbi_sim::hetero::{HeteroKind, SlowTierBackend};
///
/// let mut tier = SlowTierBackend::new(HeteroKind::PcmDram, Some(2));
/// let a = tier.try_store(Box::new([1u8; 4096])).expect("capacity left");
/// let _b = tier.try_store(Box::new([2u8; 4096])).expect("capacity left");
/// assert!(tier.try_store(Box::new([3u8; 4096])).is_err(), "bounded at 2 pages");
/// assert_eq!(tier.load(a).expect("stored")[0], 1);
/// assert!(tier.tier_cycles() > 0, "device traffic was priced");
/// ```
#[derive(Debug)]
pub struct SlowTierBackend {
    pages: BackingStore,
    tier: HeteroMemory,
    capacity_pages: Option<u64>,
    cycles: u64,
}

impl SlowTierBackend {
    /// Creates a slow-tier backend of the given device kind, optionally
    /// bounded to `capacity_pages` slots (payload and zero slots alike —
    /// a zero slot still occupies tier bookkeeping).
    pub fn new(kind: HeteroKind, capacity_pages: Option<u64>) -> Self {
        // No fast region: the whole store is the slow side of the device,
        // which is exactly what makes eviction to it expensive. Placement
        // policy is irrelevant with zero fast bytes.
        let mut tier = HeteroMemory::new(kind, 0, Policy::Unaware, u64::MAX);
        tier.register_region(SWAP_REGION, capacity_pages.unwrap_or(1 << 20) * PAGE_BYTES);
        Self { pages: BackingStore::new(), tier, capacity_pages, cycles: 0 }
    }

    /// Boxes the backend for `Mtl::set_backing` / service installation.
    pub fn boxed(self) -> Box<dyn PressureBackend> {
        Box::new(self)
    }

    fn at_capacity(&self) -> bool {
        self.capacity_pages.is_some_and(|cap| self.pages.len() as u64 >= cap)
    }

    /// One device access for `slot`, charged to the accumulated cycles.
    fn charge(&mut self, slot: SwapSlot) {
        self.cycles += self.tier.access(SWAP_REGION, slot.0 * PAGE_BYTES);
    }
}

impl PressureBackend for SlowTierBackend {
    fn try_store(&mut self, data: PageData) -> core::result::Result<SwapSlot, PageData> {
        if self.at_capacity() {
            return Err(data);
        }
        let slot = self.pages.store(data);
        self.charge(slot);
        Ok(slot)
    }

    fn try_store_zero(&mut self) -> Option<SwapSlot> {
        // Zero pages occupy a slot but move no payload over the device.
        if self.at_capacity() {
            return None;
        }
        Some(self.pages.store_zero())
    }

    fn load(&mut self, slot: SwapSlot) -> Option<PageData> {
        let data = self.pages.load(slot);
        if data.is_some() {
            self.charge(slot);
        }
        data
    }

    fn peek(&self, slot: SwapSlot) -> Option<&PageData> {
        self.pages.peek(slot)
    }

    fn duplicate(&mut self, slot: SwapSlot) -> Result<SwapSlot> {
        if self.at_capacity() {
            return Err(VbiError::BackingStoreFull {
                capacity_pages: self.capacity_pages.unwrap_or(0),
            });
        }
        let had_payload = self.pages.peek(slot).is_some();
        let dup = self.pages.duplicate(slot);
        if had_payload {
            self.charge(slot);
            self.charge(dup);
        }
        Ok(dup)
    }

    fn discard(&mut self, slot: SwapSlot) {
        self.pages.discard(slot);
    }

    fn len(&self) -> usize {
        self.pages.len()
    }

    fn zero_len(&self) -> usize {
        self.pages.zero_len()
    }

    fn stored_bytes(&self) -> u64 {
        self.pages.stored_bytes()
    }

    fn capacity_pages(&self) -> Option<u64> {
        self.capacity_pages
    }

    fn tier_cycles(&self) -> u64 {
        self.cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vbi_core::vm::VmId;
    use vbi_core::{Mtl, SizeClass, VbProperties, VbiConfig};

    #[test]
    fn roundtrip_charges_device_cycles() {
        let mut t = SlowTierBackend::new(HeteroKind::TlDram, None);
        let slot = t.try_store(Box::new([9u8; 4096])).unwrap();
        let after_store = t.tier_cycles();
        assert!(after_store > 0);
        let back = t.load(slot).unwrap();
        assert_eq!(back[0], 9);
        assert!(t.tier_cycles() > after_store, "the load cost cycles too");
    }

    #[test]
    fn zero_slots_cost_no_device_traffic_but_occupy_capacity() {
        let mut t = SlowTierBackend::new(HeteroKind::PcmDram, Some(1));
        let z = t.try_store_zero().unwrap();
        assert_eq!(t.tier_cycles(), 0);
        assert_eq!(t.len(), 1);
        assert!(t.try_store_zero().is_none(), "the zero slot filled the bound");
        assert!(t.try_store(Box::new([1u8; 4096])).is_err());
        t.discard(z);
        assert!(t.try_store_zero().is_some());
    }

    #[test]
    fn duplicate_respects_the_capacity_bound() {
        let mut t = SlowTierBackend::new(HeteroKind::PcmDram, Some(1));
        let slot = t.try_store(Box::new([4u8; 4096])).unwrap();
        assert!(matches!(t.duplicate(slot), Err(VbiError::BackingStoreFull { capacity_pages: 1 })));
    }

    #[test]
    fn mtl_evicts_into_the_slow_tier_and_faults_back() {
        let config = VbiConfig { phys_frames: 256, ..VbiConfig::vbi_full() };
        let mut m = Mtl::new(config);
        m.set_backing(SlowTierBackend::new(HeteroKind::PcmDram, None).boxed()).unwrap();
        let vb = m.find_free_vb(SizeClass::Kib128, VmId::HOST).unwrap();
        m.enable_vb(vb, VbProperties::NONE).unwrap();
        for page in 0..16u64 {
            m.write_u64(vb.address(page << 12).unwrap(), page + 1).unwrap();
        }
        let evicted = m.reclaim_frames(8);
        assert_eq!(evicted, 8);
        for page in 0..16u64 {
            assert_eq!(m.read_u64(vb.address(page << 12).unwrap()).unwrap(), page + 1);
        }
        let stats = m.stats();
        assert_eq!(stats.evictions, 8);
        assert_eq!(stats.faults_in, 8);
        assert!(m.backing().tier_cycles() > 0, "eviction traffic hit the slow tier");
        assert_eq!(m.backing().len(), 0, "every page faulted back in");
    }
}
