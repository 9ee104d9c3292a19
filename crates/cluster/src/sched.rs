//! Incrementally maintained task-slot index for the scheduler hot path.
//!
//! A linear scheduler finds a task's slot by scanning: a `min_by_key` over
//! the home node's cores per task, plus — when delay scheduling is on — a
//! flat-map over *all* nodes × cores per task for the cluster-wide earliest
//! slot. Both scans are linear in cluster size, which dominates
//! large-cluster runs (O(tasks × nodes × cores) per stage).
//!
//! [`SlotIndex`] keeps the same information in ordered sets updated in
//! O(log n) per task completion:
//!
//! * per node, a `BTreeSet<(free_time, slot)>` whose `first()` is exactly
//!   [`linear_home`]'s `min_by_key(|(i, &t)| (t, *i))` — earliest free
//!   time, lowest slot index on a tie;
//! * cluster-wide, a `BTreeSet<(free_time, node, slot)>` whose `first()` is
//!   exactly [`linear_global`]'s `min_by_key(|&(n, i, t)| (t, n, i))` —
//!   earliest free time, then lowest node, then lowest slot. Maintained
//!   only when delay scheduling can ask for it.
//!
//! The two scans stay here as the index's oracle. The engine
//! `debug_assert`s every index query against them over its authoritative
//! slot table, so every debug-build simulation checks each placement, and
//! the unit tests below drive the index through random commits.

use refdist_simcore::SimTime;
use std::collections::BTreeSet;

/// Earliest-free slot of one node by linear scan: `(slot, free_time)`,
/// lowest slot index on ties. The oracle for [`SlotIndex::earliest_on`].
pub(crate) fn linear_home(slots: &[SimTime]) -> (usize, SimTime) {
    let (i, &t) = slots
        .iter()
        .enumerate()
        .min_by_key(|(i, &t)| (t, *i))
        .expect("nodes have at least one core");
    (i, t)
}

/// Cluster-wide earliest slot by linear scan: `(node, slot, free_time)`,
/// lowest node then lowest slot on ties. The oracle for
/// [`SlotIndex::earliest_global`].
pub(crate) fn linear_global(free: &[Vec<SimTime>]) -> (usize, usize, SimTime) {
    free.iter()
        .enumerate()
        .flat_map(|(n, slots)| slots.iter().enumerate().map(move |(i, &t)| (n, i, t)))
        .min_by_key(|&(n, i, t)| (t, n, i))
        .expect("cluster has slots")
}

/// Ordered view over per-node task-slot free times. The authoritative free
/// times stay in the engine's `slots` table; the index mirrors them.
#[derive(Debug, Clone)]
pub(crate) struct SlotIndex {
    /// Per node: (free_time, slot), ascending.
    per_node: Vec<BTreeSet<(SimTime, u32)>>,
    /// Cluster-wide: (free_time, node, slot), ascending; `None` when the
    /// global minimum is never queried (no delay scheduling).
    global: Option<BTreeSet<(SimTime, u32, u32)>>,
}

impl SlotIndex {
    /// Index over `free` (per node, per slot free times), tracking the
    /// cluster-wide order only when `track_global` is set.
    pub fn new(free: &[Vec<SimTime>], track_global: bool) -> Self {
        let per_node: Vec<BTreeSet<(SimTime, u32)>> = free
            .iter()
            .map(|slots| {
                slots
                    .iter()
                    .enumerate()
                    .map(|(i, &t)| (t, i as u32))
                    .collect()
            })
            .collect();
        let global = track_global.then(|| {
            free.iter()
                .enumerate()
                .flat_map(|(n, slots)| {
                    slots
                        .iter()
                        .enumerate()
                        .map(move |(i, &t)| (t, n as u32, i as u32))
                })
                .collect()
        });
        SlotIndex { per_node, global }
    }

    /// Earliest-free slot on `node`: `(slot, free_time)`, lowest slot index
    /// on ties.
    #[inline]
    pub fn earliest_on(&self, node: usize) -> (usize, SimTime) {
        let &(t, i) = self.per_node[node]
            .first()
            .expect("nodes have at least one core");
        (i as usize, t)
    }

    /// Cluster-wide earliest slot: `(node, slot, free_time)`, lowest node
    /// then lowest slot on ties.
    ///
    /// # Panics
    /// Panics when the index was built without global tracking.
    #[inline]
    pub fn earliest_global(&self) -> (usize, usize, SimTime) {
        let &(t, n, i) = self
            .global
            .as_ref()
            .expect("global slot order not tracked")
            .first()
            .expect("cluster has slots");
        (n as usize, i as usize, t)
    }

    /// Record that `(node, slot)` moved from free time `old` to `new`.
    #[inline]
    pub fn commit(&mut self, node: usize, slot: usize, old: SimTime, new: SimTime) {
        let removed = self.per_node[node].remove(&(old, slot as u32));
        debug_assert!(removed, "index out of sync with the slot table");
        self.per_node[node].insert((new, slot as u32));
        if let Some(g) = &mut self.global {
            let removed = g.remove(&(old, node as u32, slot as u32));
            debug_assert!(removed, "global index out of sync with the slot table");
            g.insert((new, node as u32, slot as u32));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_linear_scans_through_random_commits() {
        // Deterministic xorshift so the test needs no rand dependency.
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut free: Vec<Vec<SimTime>> = (0..5).map(|_| vec![SimTime::ZERO; 3]).collect();
        let mut idx = SlotIndex::new(&free, true);
        for step in 0..500 {
            for (n, node_free) in free.iter().enumerate() {
                assert_eq!(idx.earliest_on(n), linear_home(node_free), "step {step}");
            }
            assert_eq!(idx.earliest_global(), linear_global(&free), "step {step}");
            let n = (next() % free.len() as u64) as usize;
            let s = (next() % free[n].len() as u64) as usize;
            // Mix fresh times with repeats of existing ones so ties happen.
            let t = SimTime(next() % 8);
            let old = std::mem::replace(&mut free[n][s], t);
            idx.commit(n, s, old, t);
        }
    }

    #[test]
    fn ties_break_on_lowest_slot_then_node() {
        let free = vec![
            vec![SimTime(5), SimTime(2), SimTime(2)],
            vec![SimTime(2), SimTime(9)],
        ];
        let idx = SlotIndex::new(&free, true);
        assert_eq!(idx.earliest_on(0), (1, SimTime(2)));
        assert_eq!(idx.earliest_global(), (0, 1, SimTime(2)));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "global index out of sync")]
    fn global_drift_is_caught_at_commit() {
        let free = vec![vec![SimTime::ZERO; 2]; 2];
        let mut idx = SlotIndex::new(&free, true);
        // Per-node sets intact, global order lost: only the global removal
        // can notice.
        idx.global.as_mut().unwrap().clear();
        idx.commit(1, 0, SimTime::ZERO, SimTime(5));
    }

    #[test]
    #[should_panic(expected = "global slot order not tracked")]
    fn untracked_global_queries_panic() {
        let idx = SlotIndex::new(&[vec![SimTime::ZERO]], false);
        let _ = idx.earliest_global();
    }
}
