//! Property tests for the block-storage layer: byte accounting and the
//! pin/reserve rules must survive arbitrary operation sequences, on both
//! table backings — the hash-backed one (`MemoryStore::new`,
//! `BlockMaster::new`) and the slot-indexed one the engine runs on
//! (`with_slots`).

use proptest::prelude::*;
use refdist_dag::{BlockId, BlockSlots, RddId};
use refdist_store::{BlockMaster, InsertError, MemoryStore, NodeId};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

#[derive(Debug, Clone)]
enum Op {
    Insert(u8, u64),
    Remove(u8),
    Pin(u8),
    Unpin(u8),
    Reserve(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), 0u64..64).prop_map(|(b, s)| Op::Insert(b, s)),
        any::<u8>().prop_map(Op::Remove),
        any::<u8>().prop_map(Op::Pin),
        any::<u8>().prop_map(Op::Unpin),
        (0u64..256).prop_map(Op::Reserve),
    ]
}

fn blk(b: u8) -> BlockId {
    BlockId::new(RddId(b as u32 % 16), b as u32 / 16)
}

/// A slot arena over every block `blk` can name: 16 RDDs × 16 partitions.
fn arena() -> Arc<BlockSlots> {
    Arc::new(BlockSlots::from_counts((0..16).map(|r| (RddId(r), 16))))
}

proptest! {
    #[test]
    fn memory_store_accounting_invariants(
        capacity in 0u64..256,
        ops in prop::collection::vec(op_strategy(), 0..200),
        dense in any::<bool>(),
    ) {
        let mut store = if dense {
            MemoryStore::with_slots(capacity, arena())
        } else {
            MemoryStore::new(capacity)
        };
        // Shadow model: block -> size, plus pin counts.
        let mut model: HashMap<BlockId, u64> = HashMap::new();
        let mut pins: HashMap<BlockId, u32> = HashMap::new();
        let mut reserved = 0u64;

        for op in ops {
            match op {
                Op::Insert(b, size) => {
                    let b = blk(b);
                    let already = model.contains_key(&b);
                    match store.insert(b, size) {
                        Ok(()) => {
                            if !already {
                                // Must have fit in the free span, which
                                // saturates when a reservation overlaps
                                // resident blocks.
                                let free = capacity
                                    .saturating_sub(model.values().sum::<u64>() + reserved);
                                prop_assert!(size <= free);
                                model.insert(b, size);
                            }
                        }
                        Err(InsertError::TooLarge) => {
                            prop_assert!(size > capacity);
                            prop_assert!(!already);
                        }
                        Err(InsertError::NeedsEviction { shortfall }) => {
                            prop_assert!(!already);
                            let free = capacity
                                .saturating_sub(model.values().sum::<u64>() + reserved);
                            prop_assert_eq!(shortfall, size - free);
                        }
                    }
                }
                Op::Remove(b) => {
                    let b = blk(b);
                    if pins.contains_key(&b) {
                        continue; // removing pinned blocks panics by design
                    }
                    let removed = store.remove(b);
                    prop_assert_eq!(removed, model.remove(&b));
                }
                Op::Pin(b) => {
                    let b = blk(b);
                    if model.contains_key(&b) {
                        store.pin(b);
                        *pins.entry(b).or_insert(0) += 1;
                    }
                }
                Op::Unpin(b) => {
                    let b = blk(b);
                    if let Some(c) = pins.get_mut(&b) {
                        store.unpin(b);
                        *c -= 1;
                        if *c == 0 {
                            pins.remove(&b);
                        }
                    }
                }
                Op::Reserve(r) => {
                    store.set_reserved(r);
                    reserved = r.min(capacity);
                }
            }
            // Core invariants after every step.
            let used: u64 = model.values().sum();
            prop_assert_eq!(store.used(), used);
            prop_assert_eq!(store.len(), model.len());
            prop_assert_eq!(store.free(), capacity.saturating_sub(used + reserved));
            prop_assert!(store.used() + store.free() <= capacity);
            for (&b, &s) in &model {
                prop_assert_eq!(store.size_of(b), Some(s));
            }
            for &b in pins.keys() {
                prop_assert!(store.is_pinned(b));
            }
            let resident: BTreeSet<BlockId> = store.iter().map(|(b, _)| b).collect();
            prop_assert_eq!(resident, model.keys().copied().collect::<BTreeSet<_>>());
            // Evictable excludes exactly the pinned blocks.
            let evictable = store.evictable().count();
            prop_assert_eq!(evictable, model.len() - pins.len());
        }
    }

    #[test]
    fn block_master_tracks_registrations(
        events in prop::collection::vec((any::<u8>(), 0u32..4, any::<bool>(), any::<bool>()), 0..200),
        dense in any::<bool>(),
    ) {
        // (block, node, memory?, register?)
        let mut master = if dense {
            BlockMaster::with_slots(arena())
        } else {
            BlockMaster::new()
        };
        let mut mem: HashMap<(BlockId, NodeId), ()> = HashMap::new();
        let mut disk: HashMap<(BlockId, NodeId), ()> = HashMap::new();
        for (b, n, memory, reg) in events {
            let b = blk(b);
            let n = NodeId(n);
            match (memory, reg) {
                (true, true) => {
                    master.register_memory(b, n);
                    mem.insert((b, n), ());
                }
                (true, false) => {
                    master.unregister_memory(b, n);
                    mem.remove(&(b, n));
                }
                (false, true) => {
                    master.register_disk(b, n);
                    disk.insert((b, n), ());
                }
                (false, false) => {
                    master.unregister_disk(b, n);
                    disk.remove(&(b, n));
                }
            }
            prop_assert_eq!(
                master.in_memory_anywhere(b),
                mem.keys().any(|(bb, _)| *bb == b)
            );
            prop_assert_eq!(
                master.anywhere(b),
                mem.keys().any(|(bb, _)| *bb == b) || disk.keys().any(|(bb, _)| *bb == b)
            );
            // best_source prefers local memory > local disk > remote memory
            // > remote disk, and returns None iff the block is nowhere.
            match master.best_source(b, n) {
                None => prop_assert!(!master.anywhere(b)),
                Some((src, in_mem)) => {
                    if in_mem {
                        prop_assert!(mem.contains_key(&(b, src)));
                    } else {
                        prop_assert!(disk.contains_key(&(b, src)));
                        // If it chose disk at a remote node, there is no
                        // memory copy anywhere and no local disk copy...
                        if src != n {
                            prop_assert!(!mem.keys().any(|(bb, _)| *bb == b));
                            prop_assert!(!disk.contains_key(&(b, n)));
                        }
                    }
                    if mem.contains_key(&(b, n)) {
                        prop_assert_eq!((src, in_mem), (n, true));
                    }
                }
            }
            // One entry per memory-resident block, whatever the backing.
            let mut resident: Vec<BlockId> = master.memory_resident().collect();
            resident.sort_unstable();
            let expected: BTreeSet<BlockId> = mem.keys().map(|&(bb, _)| bb).collect();
            prop_assert_eq!(resident, expected.into_iter().collect::<Vec<_>>());
        }
    }
}
