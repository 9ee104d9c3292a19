//! Capacity-bounded in-memory block store.
//!
//! The cache the eviction policies fight over. The store itself is
//! policy-free: it tracks sizes, capacity and pins, and refuses inserts that
//! do not fit — choosing *what* to evict to make space is the policy's job,
//! driven by the cluster runtime.
//!
//! Residency and pin tables are [`SlotMap`]s: dense per-slot vectors when
//! the store is built over a [`BlockSlots`] arena
//! ([`MemoryStore::with_slots`], what the engine runs on), a plain
//! `HashMap` otherwise. The dense backing removes hashing from every
//! `contains`/`insert`/`remove` on the simulator's per-access path;
//! behavior is identical either way (`tests/proptest_store.rs` drives both
//! backings through one shadow model).

use refdist_dag::{BlockId, BlockSlots, SlotMap, TenantMap};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Why an insert was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertError {
    /// Not enough free space; the caller must evict first.
    NeedsEviction {
        /// Bytes that must be freed before the insert can succeed.
        shortfall: u64,
    },
    /// The block is larger than the whole store and can never fit.
    TooLarge,
}

/// Per-tenant quota accounting, present only when the store serves a
/// multi-tenant combined application (see `refdist_dag::tenant`).
#[derive(Debug, Clone)]
struct Tenancy {
    map: Arc<TenantMap>,
    /// Per-tenant byte quota on this store. A tenant whose resident bytes
    /// would exceed it must evict its *own* blocks to get back under.
    quota: u64,
    /// Resident bytes per tenant.
    used: Vec<u64>,
    /// Evictable (unpinned resident) bytes per tenant — bounds how far a
    /// tenant can shrink itself, which gates quota-driven eviction.
    evictable: Vec<u64>,
}

impl Tenancy {
    #[inline]
    fn tenant(&self, block: BlockId) -> usize {
        self.map.tenant_of(block.rdd) as usize
    }
}

/// In-memory block store with byte capacity and pin counting.
///
/// Pinned blocks are in use by running tasks and must not be evicted —
/// Spark's `MemoryStore` has the same notion via block read locks.
#[derive(Debug, Clone)]
pub struct MemoryStore {
    capacity: u64,
    used: u64,
    /// Bytes reserved by execution memory (Spark's unified memory manager:
    /// shuffles borrow from the storage region for the duration of a stage).
    reserved: u64,
    blocks: SlotMap<u64>,
    pins: SlotMap<u32>,
    /// Unpinned resident blocks with sizes, kept sorted by id so the
    /// eviction hot path gets its candidate set without a per-pressure-event
    /// collect + sort. Maintained on insert/remove/pin/unpin/drain.
    evictable: BTreeMap<BlockId, u64>,
    /// Per-tenant quota accounting; `None` (the default and the entire
    /// single-app path) is byte-invisible.
    tenancy: Option<Tenancy>,
}

impl MemoryStore {
    /// A hash-backed store with the given byte capacity.
    pub fn new(capacity: u64) -> Self {
        MemoryStore {
            capacity,
            used: 0,
            reserved: 0,
            blocks: SlotMap::hashed(),
            pins: SlotMap::hashed(),
            evictable: BTreeMap::new(),
            tenancy: None,
        }
    }

    /// A store whose residency tables are dense vectors over `slots`.
    pub fn with_slots(capacity: u64, slots: Arc<BlockSlots>) -> Self {
        MemoryStore {
            capacity,
            used: 0,
            reserved: 0,
            blocks: SlotMap::dense(Arc::clone(&slots)),
            pins: SlotMap::dense(slots),
            evictable: BTreeMap::new(),
            tenancy: None,
        }
    }

    /// Enforce a per-tenant byte `quota` over the submissions of `map`.
    /// Must be called while the store is empty; inserts that would push a
    /// tenant over its quota then report the extra bytes as part of the
    /// eviction shortfall (the cluster layer evicts that tenant's own
    /// blocks first), or [`InsertError::TooLarge`] when the tenant cannot
    /// shrink itself far enough.
    pub fn enable_tenancy(&mut self, map: Arc<TenantMap>, quota: u64) {
        assert!(self.is_empty(), "tenancy must be enabled on an empty store");
        let n = map.num_tenants();
        self.tenancy = Some(Tenancy {
            map,
            quota,
            used: vec![0; n],
            evictable: vec![0; n],
        });
    }

    /// Adopt a newer slot-arena snapshot (streaming admission): the dense
    /// residency and pin tables grow to the new capacity, keeping every
    /// entry. No-op on hash-backed stores.
    pub fn adopt(&mut self, slots: &Arc<BlockSlots>) {
        self.blocks.adopt(Arc::clone(slots));
        self.pins.adopt(Arc::clone(slots));
    }

    /// Resident bytes of one tenant (0 when tenancy is disabled).
    pub fn tenant_used(&self, tenant: u32) -> u64 {
        self.tenancy
            .as_ref()
            .and_then(|t| t.used.get(tenant as usize).copied())
            .unwrap_or(0)
    }

    /// Total capacity in bytes.
    #[inline]
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently occupied by blocks.
    #[inline]
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Bytes currently reserved by execution memory.
    #[inline]
    pub fn reserved(&self) -> u64 {
        self.reserved
    }

    /// Reserve `bytes` for execution memory (0 releases the reservation).
    /// The caller is responsible for evicting first if blocks currently
    /// occupy the reserved span; until then `free()` saturates at zero.
    pub fn set_reserved(&mut self, bytes: u64) {
        self.reserved = bytes.min(self.capacity);
    }

    /// Bytes currently free for block storage.
    #[inline]
    pub fn free(&self) -> u64 {
        self.capacity.saturating_sub(self.used + self.reserved)
    }

    /// Number of resident blocks.
    #[inline]
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the store holds no blocks.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Whether `block` is resident.
    #[inline]
    pub fn contains(&self, block: BlockId) -> bool {
        self.blocks.contains(block)
    }

    /// Size of a resident block.
    #[inline]
    pub fn size_of(&self, block: BlockId) -> Option<u64> {
        self.blocks.get(block).copied()
    }

    /// Insert a block. Re-inserting a resident block is a no-op (Spark keeps
    /// the existing entry).
    ///
    /// With tenancy enabled, bytes the owning tenant is over its quota by
    /// are folded into the reported shortfall; since the cluster layer
    /// evicts the over-quota tenant's own blocks first, freeing the
    /// shortfall always restores the quota. When the tenant cannot free
    /// enough of its own bytes (the rest are pinned), the insert is
    /// rejected as `TooLarge` rather than looping on an unmeetable demand.
    pub fn insert(&mut self, block: BlockId, size: u64) -> Result<(), InsertError> {
        if self.blocks.contains(block) {
            return Ok(());
        }
        if size > self.capacity {
            return Err(InsertError::TooLarge);
        }
        let global_shortfall = size.saturating_sub(self.free());
        if let Some(t) = &self.tenancy {
            let tid = t.tenant(block);
            if size > t.quota {
                return Err(InsertError::TooLarge);
            }
            let tenant_over = (t.used[tid] + size).saturating_sub(t.quota);
            let shortfall = global_shortfall.max(tenant_over);
            if shortfall > 0 {
                if t.evictable[tid] < tenant_over {
                    return Err(InsertError::TooLarge);
                }
                return Err(InsertError::NeedsEviction { shortfall });
            }
        } else if global_shortfall > 0 {
            return Err(InsertError::NeedsEviction {
                shortfall: global_shortfall,
            });
        }
        if let Some(t) = &mut self.tenancy {
            let tid = t.tenant(block);
            t.used[tid] += size;
            t.evictable[tid] += size;
        }
        self.blocks.insert(block, size);
        self.evictable.insert(block, size);
        self.used += size;
        Ok(())
    }

    /// Remove a block, returning its size if it was resident.
    ///
    /// # Panics
    /// Panics if the block is pinned — evicting a block a task is reading is
    /// a runtime bug.
    pub fn remove(&mut self, block: BlockId) -> Option<u64> {
        if let Some(size) = self.blocks.remove(block) {
            assert!(!self.is_pinned(block), "evicting pinned block {block}");
            self.evictable.remove(&block);
            self.used -= size;
            if let Some(t) = &mut self.tenancy {
                let tid = t.tenant(block);
                t.used[tid] -= size;
                t.evictable[tid] -= size;
            }
            Some(size)
        } else {
            None
        }
    }

    /// Pin a resident block against eviction (counted; pins nest).
    pub fn pin(&mut self, block: BlockId) {
        debug_assert!(self.contains(block), "pinning non-resident {block}");
        match self.pins.get_mut(block) {
            Some(c) => *c += 1,
            None => {
                self.pins.insert(block, 1);
            }
        }
        if let Some(size) = self.evictable.remove(&block) {
            if let Some(t) = &mut self.tenancy {
                let tid = t.tenant(block);
                t.evictable[tid] -= size;
            }
        }
    }

    /// Release one pin.
    pub fn unpin(&mut self, block: BlockId) {
        match self.pins.get_mut(block) {
            Some(c) if *c > 1 => *c -= 1,
            Some(_) => {
                self.pins.remove(block);
                if let Some(&size) = self.blocks.get(block) {
                    self.evictable.insert(block, size);
                    if let Some(t) = &mut self.tenancy {
                        let tid = t.tenant(block);
                        t.evictable[tid] += size;
                    }
                }
            }
            None => debug_assert!(false, "unpinning unpinned {block}"),
        }
    }

    /// Whether the block is currently pinned.
    #[inline]
    pub fn is_pinned(&self, block: BlockId) -> bool {
        self.pins.contains(block)
    }

    /// Remove every resident block (node failure), returning them sorted by
    /// id for deterministic downstream processing.
    ///
    /// # Panics
    /// Panics if any block is pinned: failing a node while tasks hold reads
    /// is a runtime bug in this simulator (failures are injected at stage
    /// boundaries).
    pub fn drain(&mut self) -> Vec<(BlockId, u64)> {
        assert!(self.pins.is_empty(), "draining store with pinned blocks");
        let mut all: Vec<(BlockId, u64)> = self.blocks.iter().map(|(b, &s)| (b, s)).collect();
        all.sort_unstable();
        self.blocks.clear();
        self.used = 0;
        self.evictable.clear();
        if let Some(t) = &mut self.tenancy {
            t.used.fill(0);
            t.evictable.fill(0);
        }
        all
    }

    /// Iterate over resident blocks and their sizes (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = (BlockId, u64)> + '_ {
        self.blocks.iter().map(|(b, &s)| (b, s))
    }

    /// Resident blocks that are evictable (not pinned), ascending by id.
    pub fn evictable(&self) -> impl Iterator<Item = (BlockId, u64)> + '_ {
        self.evictable.iter().map(|(&b, &s)| (b, s))
    }

    /// The maintained evictable set (unpinned resident blocks → sizes),
    /// sorted by id — the candidate map handed to
    /// `CachePolicy::select_victims` with no per-call allocation.
    pub fn evictable_set(&self) -> &BTreeMap<BlockId, u64> {
        &self.evictable
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use refdist_dag::RddId;

    fn blk(r: u32, p: u32) -> BlockId {
        BlockId::new(RddId(r), p)
    }

    /// Run a test body against both backings; the dense arena covers rdds
    /// 0..4 × partitions 0..4 (every block the tests touch).
    fn both(f: impl Fn(MemoryStore)) {
        f(MemoryStore::new(100));
        let slots = Arc::new(BlockSlots::from_counts((0..4).map(|r| (RddId(r), 4))));
        f(MemoryStore::with_slots(100, slots));
    }

    #[test]
    fn insert_and_accounting() {
        both(|mut m| {
            m.insert(blk(0, 0), 40).unwrap();
            m.insert(blk(0, 1), 30).unwrap();
            assert_eq!(m.used(), 70);
            assert_eq!(m.free(), 30);
            assert_eq!(m.len(), 2);
            assert!(m.contains(blk(0, 0)));
            assert_eq!(m.size_of(blk(0, 1)), Some(30));
        });
    }

    #[test]
    fn insert_reports_shortfall() {
        both(|mut m| {
            m.insert(blk(0, 0), 80).unwrap();
            assert_eq!(
                m.insert(blk(0, 1), 50),
                Err(InsertError::NeedsEviction { shortfall: 30 })
            );
            // Store unchanged on failure.
            assert_eq!(m.used(), 80);
            assert!(!m.contains(blk(0, 1)));
        });
    }

    #[test]
    fn oversized_block_is_too_large() {
        both(|mut m| {
            assert_eq!(m.insert(blk(0, 0), 101), Err(InsertError::TooLarge));
        });
    }

    #[test]
    fn reinsert_is_noop() {
        both(|mut m| {
            m.insert(blk(0, 0), 40).unwrap();
            m.insert(blk(0, 0), 40).unwrap();
            assert_eq!(m.used(), 40);
            assert_eq!(m.len(), 1);
        });
    }

    #[test]
    fn remove_returns_size() {
        both(|mut m| {
            m.insert(blk(0, 0), 40).unwrap();
            assert_eq!(m.remove(blk(0, 0)), Some(40));
            assert_eq!(m.remove(blk(0, 0)), None);
            assert_eq!(m.used(), 0);
        });
    }

    #[test]
    fn pins_nest() {
        both(|mut m| {
            m.insert(blk(0, 0), 40).unwrap();
            m.pin(blk(0, 0));
            m.pin(blk(0, 0));
            m.unpin(blk(0, 0));
            assert!(m.is_pinned(blk(0, 0)));
            m.unpin(blk(0, 0));
            assert!(!m.is_pinned(blk(0, 0)));
        });
    }

    #[test]
    #[should_panic(expected = "evicting pinned block")]
    fn removing_pinned_block_panics() {
        let mut m = MemoryStore::new(100);
        m.insert(blk(0, 0), 40).unwrap();
        m.pin(blk(0, 0));
        m.remove(blk(0, 0));
    }

    #[test]
    fn evictable_excludes_pinned() {
        both(|mut m| {
            m.insert(blk(0, 0), 40).unwrap();
            m.insert(blk(0, 1), 40).unwrap();
            m.pin(blk(0, 0));
            let ev: Vec<_> = m.evictable().map(|(b, _)| b).collect();
            assert_eq!(ev, vec![blk(0, 1)]);
        });
    }

    #[test]
    fn evictable_set_tracks_pins_and_removals() {
        both(|mut m| {
            m.insert(blk(1, 0), 30).unwrap();
            m.insert(blk(0, 0), 20).unwrap();
            // Sorted by id, with sizes.
            let set: Vec<_> = m.evictable_set().iter().map(|(&b, &s)| (b, s)).collect();
            assert_eq!(set, vec![(blk(0, 0), 20), (blk(1, 0), 30)]);
            // Pinning hides a block; unpinning the last pin restores it.
            m.pin(blk(0, 0));
            m.pin(blk(0, 0));
            assert!(!m.evictable_set().contains_key(&blk(0, 0)));
            m.unpin(blk(0, 0));
            assert!(!m.evictable_set().contains_key(&blk(0, 0)));
            m.unpin(blk(0, 0));
            assert_eq!(m.evictable_set().get(&blk(0, 0)), Some(&20));
            // Removal and drain clear entries.
            m.remove(blk(1, 0));
            assert!(!m.evictable_set().contains_key(&blk(1, 0)));
            m.drain();
            assert!(m.evictable_set().is_empty());
        });
    }

    #[test]
    fn exact_fit_succeeds() {
        both(|mut m| {
            m.insert(blk(0, 0), 100).unwrap();
            assert_eq!(m.free(), 0);
        });
    }

    #[test]
    fn drain_empties_the_store() {
        both(|mut m| {
            m.insert(blk(1, 0), 30).unwrap();
            m.insert(blk(0, 1), 20).unwrap();
            let drained = m.drain();
            assert_eq!(drained, vec![(blk(0, 1), 20), (blk(1, 0), 30)]);
            assert_eq!(m.used(), 0);
            assert!(m.is_empty());
        });
    }

    #[test]
    #[should_panic(expected = "pinned")]
    fn drain_with_pins_panics() {
        let mut m = MemoryStore::new(100);
        m.insert(blk(0, 0), 10).unwrap();
        m.pin(blk(0, 0));
        m.drain();
    }

    #[test]
    fn reservation_shrinks_free_space() {
        both(|mut m| {
            m.insert(blk(0, 0), 40).unwrap();
            m.set_reserved(30);
            assert_eq!(m.free(), 30);
            assert_eq!(
                m.insert(blk(0, 1), 50),
                Err(InsertError::NeedsEviction { shortfall: 20 })
            );
            m.set_reserved(0);
            assert!(m.insert(blk(0, 1), 50).is_ok());
        });
    }

    #[test]
    fn over_reservation_saturates_free() {
        both(|mut m| {
            m.insert(blk(0, 0), 80).unwrap();
            m.set_reserved(90); // blocks still occupy the span; free saturates
            assert_eq!(m.free(), 0);
            assert_eq!(m.reserved(), 90);
            // Reservations are capped at capacity.
            m.set_reserved(500);
            assert_eq!(m.reserved(), 100);
        });
    }

    /// Two tenants: rdds 0..2 belong to tenant 0, rdds 2..4 to tenant 1.
    fn tenant_store(capacity: u64, quota: u64) -> MemoryStore {
        let mut m = MemoryStore::new(capacity);
        m.enable_tenancy(Arc::new(TenantMap::new(&[2, 2], &[0, 1])), quota);
        m
    }

    #[test]
    fn quota_counts_per_tenant() {
        let mut m = tenant_store(100, 60);
        m.insert(blk(0, 0), 40).unwrap();
        m.insert(blk(2, 0), 40).unwrap();
        assert_eq!(m.tenant_used(0), 40);
        assert_eq!(m.tenant_used(1), 40);
        m.remove(blk(0, 0));
        assert_eq!(m.tenant_used(0), 0);
    }

    #[test]
    fn over_quota_insert_demands_own_eviction() {
        let mut m = tenant_store(200, 60);
        m.insert(blk(0, 0), 40).unwrap();
        // 40 + 30 = 70 > 60 although the store has plenty of global room:
        // the shortfall is exactly the over-quota amount.
        assert_eq!(
            m.insert(blk(0, 1), 30),
            Err(InsertError::NeedsEviction { shortfall: 10 })
        );
        // Evicting the tenant's own block clears the way.
        m.remove(blk(0, 0));
        m.insert(blk(0, 1), 30).unwrap();
        // The other tenant is unaffected throughout.
        m.insert(blk(2, 0), 60).unwrap();
    }

    #[test]
    fn quota_shortfall_combines_with_global_pressure() {
        let mut m = tenant_store(100, 90);
        m.insert(blk(0, 0), 60).unwrap();
        m.insert(blk(2, 0), 30).unwrap();
        // Global shortfall 30, tenant-over 10: the larger wins.
        assert_eq!(
            m.insert(blk(0, 1), 40),
            Err(InsertError::NeedsEviction { shortfall: 30 })
        );
    }

    #[test]
    fn unmeetable_quota_is_too_large() {
        let mut m = tenant_store(200, 60);
        // Larger than the quota can never fit.
        assert_eq!(m.insert(blk(0, 0), 61), Err(InsertError::TooLarge));
        // Over quota with the tenant's resident bytes all pinned: evicting
        // its own blocks cannot help, so the insert must not loop.
        m.insert(blk(0, 0), 50).unwrap();
        m.pin(blk(0, 0));
        assert_eq!(m.insert(blk(0, 1), 20), Err(InsertError::TooLarge));
        m.unpin(blk(0, 0));
        assert_eq!(
            m.insert(blk(0, 1), 20),
            Err(InsertError::NeedsEviction { shortfall: 10 })
        );
    }

    #[test]
    fn tenancy_accounting_survives_pins_and_drain() {
        let mut m = tenant_store(100, 100);
        m.insert(blk(0, 0), 30).unwrap();
        m.insert(blk(2, 0), 20).unwrap();
        m.pin(blk(0, 0));
        m.pin(blk(0, 0));
        m.unpin(blk(0, 0));
        m.unpin(blk(0, 0));
        m.pin(blk(2, 0));
        m.unpin(blk(2, 0));
        assert_eq!(m.tenant_used(0), 30);
        assert_eq!(m.tenant_used(1), 20);
        m.drain();
        assert_eq!(m.tenant_used(0), 0);
        assert_eq!(m.tenant_used(1), 0);
    }

    #[test]
    #[should_panic(expected = "empty store")]
    fn tenancy_on_nonempty_store_panics() {
        let mut m = MemoryStore::new(100);
        m.insert(blk(0, 0), 10).unwrap();
        m.enable_tenancy(Arc::new(TenantMap::new(&[4], &[0])), 50);
    }

    #[test]
    fn zero_capacity_store_rejects_everything() {
        let mut m = MemoryStore::new(0);
        assert_eq!(m.insert(blk(0, 0), 1), Err(InsertError::TooLarge));
        assert!(m.insert(blk(0, 1), 0).is_ok()); // zero-size fits anywhere
    }
}
