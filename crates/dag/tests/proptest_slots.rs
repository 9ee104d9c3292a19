//! Property test pinning the dense `SlotMap` backing to the hash backing.
//!
//! The dense backing iterates through an occupancy bitset rather than the
//! whole value table, so its output is only correct while that bitset and
//! the values agree. Random `insert`/`remove`/`get`/`clear`/`adopt`
//! sequences run on a sparse, large arena (at least 4096 slots, at most 64
//! live entries: the shape of one node's recency table over a streaming
//! serve arena) against a hash-backed model. After every step the dense
//! map must list exactly the model's entries, strictly ascending by slot,
//! and report the model's length.

use proptest::prelude::*;
use refdist_dag::{BlockId, BlockSlots, RddId, SlotArena, SlotMap};
use std::sync::Arc;

/// Partitions per cached RDD.
const PARTS: u32 = 64;
/// RDDs of the first admitted application: 64 x 64 = 4096 slots.
const FIRST_RDDS: u32 = 64;
/// RDDs of every application admitted by an `adopt` step (512 slots).
const GROW_RDDS: u32 = 8;
/// Upper bound on live entries; inserts turn into removes at the bound.
const LIVE_CAP: usize = 64;

fn admit(arena: &mut SlotArena, first: u32, rdds: u32) {
    let counts: Vec<(RddId, u32)> = (first..first + rdds).map(|r| (RddId(r), PARTS)).collect();
    arena.admit(&counts);
}

/// The block addressed by `pick` among the `rdds` covered RDDs.
fn block_at(pick: u32, rdds: u32) -> BlockId {
    BlockId::new(RddId((pick / PARTS) % rdds), pick % PARTS)
}

/// Check the dense map against the model after one step (panics on a
/// mismatch, like every `prop_assert`).
fn check(dense: &SlotMap<u64>, model: &SlotMap<u64>, slots: &BlockSlots) {
    let got: Vec<(BlockId, u64)> = dense.iter().map(|(b, &v)| (b, v)).collect();
    let mut want: Vec<(BlockId, u64)> = model.iter().map(|(b, &v)| (b, v)).collect();
    want.sort_unstable_by_key(|&(b, _)| slots.slot(b));
    prop_assert_eq!(&got, &want);
    prop_assert!(
        got.windows(2)
            .all(|w| slots.slot(w[0].0).unwrap() < slots.slot(w[1].0).unwrap()),
        "dense iteration must ascend strictly by slot"
    );
    prop_assert_eq!(dense.len(), model.len());
    prop_assert_eq!(dense.is_empty(), model.is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn dense_slotmap_matches_hash_model(
        ops in prop::collection::vec((any::<u8>(), any::<u32>(), any::<u64>()), 1..400)
    ) {
        let mut arena = SlotArena::new();
        admit(&mut arena, 0, FIRST_RDDS);
        let mut rdds = FIRST_RDDS;
        let mut slots = Arc::new(arena.snapshot());
        prop_assert!(slots.len() >= 4096);

        let mut dense: SlotMap<u64> = SlotMap::dense(Arc::clone(&slots));
        let mut model: SlotMap<u64> = SlotMap::hashed();
        for &(kind, pick, val) in &ops {
            match kind % 32 {
                // Insert (or overwrite); at the live bound, remove instead.
                0..=13 => {
                    let b = block_at(pick, rdds);
                    if model.len() >= LIVE_CAP && !model.contains(b) {
                        let victim = model.iter().map(|(b, _)| b).min().unwrap();
                        prop_assert_eq!(dense.remove(victim), model.remove(victim));
                    } else {
                        prop_assert_eq!(dense.insert(b, val), model.insert(b, val));
                    }
                }
                // Remove: an existing entry when there is one, else a miss.
                14..=23 => {
                    let mut live: Vec<BlockId> = model.iter().map(|(b, _)| b).collect();
                    live.sort_unstable();
                    let b = if live.is_empty() {
                        block_at(pick, rdds)
                    } else {
                        live[pick as usize % live.len()]
                    };
                    prop_assert_eq!(dense.remove(b), model.remove(b));
                }
                // Point lookups, present or not.
                24..=29 => {
                    let b = block_at(pick, rdds);
                    prop_assert_eq!(dense.get(b), model.get(b));
                    prop_assert_eq!(dense.contains(b), model.contains(b));
                    if let (Some(d), Some(m)) = (dense.get_mut(b), model.get_mut(b)) {
                        *d ^= val;
                        *m ^= val;
                    }
                }
                30 => {
                    dense.clear();
                    model.clear();
                }
                // Grow the arena: admit one more application and adopt the
                // new snapshot; existing entries keep their slots.
                _ => {
                    admit(&mut arena, rdds, GROW_RDDS);
                    rdds += GROW_RDDS;
                    slots = Arc::new(arena.snapshot());
                    dense.adopt(Arc::clone(&slots));
                    model.adopt(Arc::clone(&slots));
                }
            }
            check(&dense, &model, &slots);
        }

        // Reuse after a clear, then growth through adopt: entries on both
        // sides of the old capacity list in slot order.
        dense.clear();
        model.clear();
        check(&dense, &model, &slots);
        let old_cap = slots.len() as u32;
        admit(&mut arena, rdds, GROW_RDDS);
        let grown = rdds + GROW_RDDS;
        slots = Arc::new(arena.snapshot());
        dense.adopt(Arc::clone(&slots));
        model.adopt(Arc::clone(&slots));
        for (i, b) in [
            block_at(old_cap - 1, rdds),
            block_at(0, rdds),
            BlockId::new(RddId(grown - 1), PARTS - 1),
            BlockId::new(RddId(rdds), 0),
        ]
        .into_iter()
        .enumerate()
        {
            prop_assert_eq!(dense.insert(b, i as u64), model.insert(b, i as u64));
            check(&dense, &model, &slots);
        }
        prop_assert_eq!(dense.len(), 4);
        prop_assert_eq!(
            slots.slot(BlockId::new(RddId(grown - 1), PARTS - 1)),
            Some(old_cap + GROW_RDDS * PARTS - 1)
        );
    }
}
