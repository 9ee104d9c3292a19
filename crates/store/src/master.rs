//! Cluster-wide block location registry (Spark's `BlockManagerMaster`).
//!
//! Nodes report block placement changes here; tasks resolving a remote read
//! and the MRD prefetcher resolving a source copy query it. Each block's
//! holders are a small sorted `Vec<NodeId>` so lookups are deterministic
//! (lowest node id wins a remote-source tie, exactly as the previous
//! `BTreeSet` representation ordered them); the per-block tables are
//! [`SlotMap`]s — dense vectors when built over a [`BlockSlots`] arena
//! ([`BlockMaster::with_slots`], what the engine runs on), hash maps
//! otherwise. The engine checks [`BlockMaster::memory_resident`] against a
//! rescan of every node's store at each stage in debug builds.

use crate::NodeId;
use refdist_dag::{BlockId, BlockSlots, SlotMap};
use std::sync::Arc;

/// A block's holders: ascending node ids, no duplicates.
type NodeVec = Vec<NodeId>;

fn insert_node(set: &mut NodeVec, node: NodeId) {
    if let Err(pos) = set.binary_search(&node) {
        set.insert(pos, node);
    }
}

/// Tracks which nodes hold each block in memory and on disk.
#[derive(Debug, Clone)]
pub struct BlockMaster {
    memory: SlotMap<NodeVec>,
    disk: SlotMap<NodeVec>,
}

impl Default for BlockMaster {
    fn default() -> Self {
        Self::new()
    }
}

impl BlockMaster {
    /// Empty hash-backed registry.
    pub fn new() -> Self {
        BlockMaster {
            memory: SlotMap::hashed(),
            disk: SlotMap::hashed(),
        }
    }

    /// Empty registry with dense per-slot tables over `slots`.
    pub fn with_slots(slots: Arc<BlockSlots>) -> Self {
        BlockMaster {
            memory: SlotMap::dense(Arc::clone(&slots)),
            disk: SlotMap::dense(slots),
        }
    }

    /// Adopt a newer slot-arena snapshot (streaming admission); see
    /// [`SlotMap::adopt`].
    pub fn adopt(&mut self, slots: &Arc<BlockSlots>) {
        self.memory.adopt(Arc::clone(slots));
        self.disk.adopt(Arc::clone(slots));
    }

    fn register(table: &mut SlotMap<NodeVec>, block: BlockId, node: NodeId) {
        match table.get_mut(block) {
            Some(set) => insert_node(set, node),
            None => {
                table.insert(block, vec![node]);
            }
        }
    }

    fn unregister(table: &mut SlotMap<NodeVec>, block: BlockId, node: NodeId) {
        if let Some(set) = table.get_mut(block) {
            if let Ok(pos) = set.binary_search(&node) {
                set.remove(pos);
            }
            if set.is_empty() {
                table.remove(block);
            }
        }
    }

    /// Record that `node` holds `block` in memory.
    pub fn register_memory(&mut self, block: BlockId, node: NodeId) {
        Self::register(&mut self.memory, block, node);
    }

    /// Record that `node` holds `block` on disk.
    pub fn register_disk(&mut self, block: BlockId, node: NodeId) {
        Self::register(&mut self.disk, block, node);
    }

    /// Record that `node` no longer holds `block` in memory.
    pub fn unregister_memory(&mut self, block: BlockId, node: NodeId) {
        Self::unregister(&mut self.memory, block, node);
    }

    /// Record that `node` no longer holds `block` on disk.
    pub fn unregister_disk(&mut self, block: BlockId, node: NodeId) {
        Self::unregister(&mut self.disk, block, node);
    }

    /// De-register every copy `node` held, memory and disk — the bulk form
    /// of executor loss (Spark's `removeBlockManager`). Equivalent to
    /// calling [`unregister_memory`](Self::unregister_memory) /
    /// [`unregister_disk`](Self::unregister_disk) per block the node held.
    pub fn unregister_node(&mut self, node: NodeId) {
        for table in [&mut self.memory, &mut self.disk] {
            let held: Vec<BlockId> = table
                .iter()
                .filter(|(_, set)| set.binary_search(&node).is_ok())
                .map(|(b, _)| b)
                .collect();
            for b in held {
                Self::unregister(table, b, node);
            }
        }
    }

    /// Nodes holding `block` in memory, ascending.
    pub fn memory_locations(&self, block: BlockId) -> impl Iterator<Item = NodeId> + '_ {
        self.memory.get(block).into_iter().flatten().copied()
    }

    /// Nodes holding `block` on disk, ascending.
    pub fn disk_locations(&self, block: BlockId) -> impl Iterator<Item = NodeId> + '_ {
        self.disk.get(block).into_iter().flatten().copied()
    }

    /// Whether any node holds `block` in memory.
    pub fn in_memory_anywhere(&self, block: BlockId) -> bool {
        self.memory.contains(block)
    }

    /// Every block resident in at least one node's memory, one entry per
    /// block. Dense registries iterate in slot order — ascending `BlockId`
    /// within one application's slot range, and globally only over a
    /// whole-spec arena (a streaming arena recycles ranges); hash-backed
    /// ones in arbitrary order. Callers needing a global order must sort.
    /// A dense registry walks its occupancy bitset: O(arena slots / 64 +
    /// resident blocks).
    pub fn memory_resident(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.memory.iter().map(|(b, _)| b)
    }

    /// Whether any node holds `block` at all.
    pub fn anywhere(&self, block: BlockId) -> bool {
        self.memory.contains(block) || self.disk.contains(block)
    }

    /// Best source to read `block` from, from `reader`'s point of view:
    /// local memory, then local disk, then remote memory, then remote disk.
    /// Returns the chosen node and whether that copy is in memory.
    pub fn best_source(&self, block: BlockId, reader: NodeId) -> Option<(NodeId, bool)> {
        let mem = self.memory.get(block);
        if let Some(set) = mem {
            if set.binary_search(&reader).is_ok() {
                return Some((reader, true));
            }
        }
        let disk = self.disk.get(block);
        if let Some(set) = disk {
            if set.binary_search(&reader).is_ok() {
                return Some((reader, false));
            }
        }
        if let Some(&n) = mem.and_then(|set| set.first()) {
            return Some((n, true));
        }
        if let Some(&n) = disk.and_then(|set| set.first()) {
            return Some((n, false));
        }
        None
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
    /// 0..1 × partitions 0..4.
    fn both(f: impl Fn(BlockMaster)) {
        f(BlockMaster::new());
        let slots = Arc::new(BlockSlots::from_counts([(RddId(0), 4)]));
        f(BlockMaster::with_slots(slots));
    }

    #[test]
    fn register_and_lookup() {
        both(|mut m| {
            m.register_memory(blk(0, 0), NodeId(1));
            m.register_disk(blk(0, 0), NodeId(2));
            assert_eq!(
                m.memory_locations(blk(0, 0)).collect::<Vec<_>>(),
                vec![NodeId(1)]
            );
            assert_eq!(
                m.disk_locations(blk(0, 0)).collect::<Vec<_>>(),
                vec![NodeId(2)]
            );
            assert!(m.in_memory_anywhere(blk(0, 0)));
            assert!(m.anywhere(blk(0, 0)));
        });
    }

    #[test]
    fn unregister_cleans_up() {
        both(|mut m| {
            m.register_memory(blk(0, 0), NodeId(1));
            m.unregister_memory(blk(0, 0), NodeId(1));
            assert!(!m.in_memory_anywhere(blk(0, 0)));
            assert!(!m.anywhere(blk(0, 0)));
            // Unregistering again is harmless.
            m.unregister_memory(blk(0, 0), NodeId(1));
        });
    }

    #[test]
    fn double_register_keeps_one_entry() {
        both(|mut m| {
            m.register_memory(blk(0, 0), NodeId(1));
            m.register_memory(blk(0, 0), NodeId(1));
            assert_eq!(m.memory_locations(blk(0, 0)).count(), 1);
            m.unregister_memory(blk(0, 0), NodeId(1));
            assert!(!m.in_memory_anywhere(blk(0, 0)));
        });
    }

    #[test]
    fn best_source_prefers_local_memory() {
        both(|mut m| {
            m.register_memory(blk(0, 0), NodeId(0));
            m.register_memory(blk(0, 0), NodeId(1));
            assert_eq!(m.best_source(blk(0, 0), NodeId(1)), Some((NodeId(1), true)));
        });
    }

    #[test]
    fn best_source_prefers_local_disk_over_remote_memory() {
        both(|mut m| {
            m.register_memory(blk(0, 0), NodeId(2));
            m.register_disk(blk(0, 0), NodeId(1));
            assert_eq!(
                m.best_source(blk(0, 0), NodeId(1)),
                Some((NodeId(1), false))
            );
        });
    }

    #[test]
    fn best_source_falls_back_to_remote() {
        both(|mut m| {
            m.register_disk(blk(0, 0), NodeId(3));
            assert_eq!(
                m.best_source(blk(0, 0), NodeId(0)),
                Some((NodeId(3), false))
            );
            assert_eq!(m.best_source(blk(0, 3), NodeId(0)), None);
        });
    }

    #[test]
    fn remote_memory_beats_remote_disk() {
        both(|mut m| {
            m.register_disk(blk(0, 0), NodeId(1));
            m.register_memory(blk(0, 0), NodeId(2));
            assert_eq!(m.best_source(blk(0, 0), NodeId(0)), Some((NodeId(2), true)));
        });
    }

    #[test]
    fn memory_resident_is_deduped_across_nodes() {
        both(|mut m| {
            m.register_memory(blk(0, 1), NodeId(0));
            m.register_memory(blk(0, 1), NodeId(1));
            m.register_memory(blk(0, 0), NodeId(1));
            m.register_disk(blk(0, 2), NodeId(0)); // disk-only: not resident
            let mut got: Vec<BlockId> = m.memory_resident().collect();
            got.sort_unstable();
            assert_eq!(got, vec![blk(0, 0), blk(0, 1)]);
            m.unregister_memory(blk(0, 0), NodeId(1));
            assert_eq!(m.memory_resident().count(), 1);
        });
    }

    #[test]
    fn unregister_node_sweeps_both_tables() {
        both(|mut m| {
            m.register_memory(blk(0, 0), NodeId(1));
            m.register_memory(blk(0, 1), NodeId(1));
            m.register_memory(blk(0, 1), NodeId(2));
            m.register_disk(blk(0, 2), NodeId(1));
            m.register_disk(blk(0, 3), NodeId(2));
            m.unregister_node(NodeId(1));
            assert!(!m.anywhere(blk(0, 0)));
            assert!(!m.anywhere(blk(0, 2)));
            // Copies on surviving nodes are untouched.
            assert_eq!(
                m.memory_locations(blk(0, 1)).collect::<Vec<_>>(),
                vec![NodeId(2)]
            );
            assert_eq!(
                m.disk_locations(blk(0, 3)).collect::<Vec<_>>(),
                vec![NodeId(2)]
            );
            // Re-registration after a rejoin works as usual.
            m.register_memory(blk(0, 0), NodeId(1));
            assert!(m.in_memory_anywhere(blk(0, 0)));
        });
    }

    #[test]
    fn deterministic_remote_choice() {
        both(|mut m| {
            m.register_memory(blk(0, 0), NodeId(5));
            m.register_memory(blk(0, 0), NodeId(3));
            // Sorted holder list: the lowest node id wins.
            assert_eq!(m.best_source(blk(0, 0), NodeId(0)), Some((NodeId(3), true)));
        });
    }
}
