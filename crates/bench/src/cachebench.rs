//! Cache hot-path benchmark harness (ISSUE 2).
//!
//! Two pieces, shared by the `victim_selection` criterion bench, the
//! `bench_cache` binary that emits `BENCH_baseline.json` / `BENCH_pr2.json`,
//! and the protocol-equivalence test in `tests/determinism.rs`:
//!
//! * [`NaiveScan`] — a wrapper that forces any policy back onto the
//!   pre-index eviction protocol (re-collect the sorted candidate list, ask
//!   for ONE victim, notify `on_remove`, repeat), exactly as the old
//!   `evict_one` loop drove it. Wrapping a policy in it reproduces the
//!   baseline cost profile without keeping dead code around.
//! * [`Churn`] — a steady-state eviction churn driver: a full cache of `n`
//!   unit-size blocks where every step inserts one block and must evict one
//!   first. Step cost is dominated by victim selection, so `ns/step` for the
//!   naive wrapper vs. the indexed policy measures the O(n)-scan vs.
//!   O(log n)-index gap directly.

use refdist_core::{DistanceMetric, MrdConfig, MrdMode, MrdPolicy};
use refdist_dag::{AppProfile, BlockId, BlockSlots, JobId, RddId, RddRefs, StageId, StageTouches};
use refdist_policies::{CachePolicy, PolicyKind};
use refdist_store::NodeId;
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::sync::Arc;

/// The single node the churn driver runs on.
pub const NODE: NodeId = NodeId(0);

/// Number of distinct RDDs the churn block universe is spread over.
const RDDS: u32 = 64;

/// How often the driver advances the stage clock (exercises the MRD table
/// broadcast / lazy-rebuild path without dominating the churn cost).
const STAGE_PERIOD: u64 = 2048;

/// Constructor for one benched policy instance.
pub type PolicyBuilder = fn() -> Box<dyn CachePolicy>;

/// Policies the cache benches compare, by display name.
pub fn bench_policies() -> Vec<(&'static str, PolicyBuilder)> {
    vec![
        ("LRU", || PolicyKind::Lru.build()),
        ("FIFO", || PolicyKind::Fifo.build()),
        ("LRC", || PolicyKind::Lrc.build()),
        ("MemTune", || PolicyKind::MemTune.build()),
        ("MRD", || {
            Box::new(MrdPolicy::new(MrdConfig {
                mode: MrdMode::Full,
                metric: DistanceMetric::Stage,
                ..Default::default()
            }))
        }),
    ]
}

/// Forces a policy onto the pre-index, one-victim-at-a-time eviction
/// protocol by overriding [`CachePolicy::select_victims`] with the old
/// `evict_one` loop: collect the sorted candidate list, `pick_victim`,
/// notify the inner policy's `on_remove`, repeat until the shortfall is
/// covered.
///
/// Because the inner policy is told about each removal *during* selection
/// (as the old runtime did), the wrapper swallows the runtime's follow-up
/// `on_remove` for those victims so the inner policy is not notified twice.
pub struct NaiveScan {
    inner: Box<dyn CachePolicy>,
    pending: HashSet<(NodeId, BlockId)>,
}

impl NaiveScan {
    /// Wrap `inner` in the naive protocol.
    pub fn new(inner: Box<dyn CachePolicy>) -> Self {
        NaiveScan {
            inner,
            pending: HashSet::new(),
        }
    }
}

impl CachePolicy for NaiveScan {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn attach_slots(&mut self, slots: &Arc<BlockSlots>) {
        self.inner.attach_slots(slots);
    }

    fn on_job_submit(&mut self, job: JobId, visible: &AppProfile) {
        self.inner.on_job_submit(job, visible);
    }

    fn on_stage_start(&mut self, stage: StageId, visible: &AppProfile) {
        self.inner.on_stage_start(stage, visible);
    }

    fn on_insert(&mut self, node: NodeId, block: BlockId) {
        self.inner.on_insert(node, block);
    }

    fn on_access(&mut self, node: NodeId, block: BlockId) {
        self.inner.on_access(node, block);
    }

    fn on_remove(&mut self, node: NodeId, block: BlockId) {
        if !self.pending.remove(&(node, block)) {
            self.inner.on_remove(node, block);
        }
    }

    fn pick_victim(&mut self, node: NodeId, candidates: &[BlockId]) -> Option<BlockId> {
        self.inner.pick_victim(node, candidates)
    }

    fn select_victims(
        &mut self,
        node: NodeId,
        shortfall: u64,
        resident: &BTreeMap<BlockId, u64>,
    ) -> Vec<BlockId> {
        let mut candidates: Vec<BlockId> = resident.keys().copied().collect();
        let mut victims = Vec::new();
        let mut freed = 0u64;
        while freed < shortfall && !candidates.is_empty() {
            let Some(victim) = self.inner.pick_victim(node, &candidates) else {
                break;
            };
            let Ok(pos) = candidates.binary_search(&victim) else {
                break;
            };
            candidates.remove(pos);
            self.inner.on_remove(node, victim);
            self.pending.insert((node, victim));
            freed += resident[&victim];
            victims.push(victim);
        }
        victims
    }

    fn purge_candidates(&mut self, in_memory: &[BlockId]) -> Vec<BlockId> {
        self.inner.purge_candidates(in_memory)
    }

    fn prefetch_order(&mut self, node: NodeId, missing: &[BlockId]) -> Vec<BlockId> {
        self.inner.prefetch_order(node, missing)
    }

    fn wants_prefetch(&self) -> bool {
        self.inner.wants_prefetch()
    }
}

/// A profile covering the churn block universe: RDD r is referenced at three
/// stages derived from r, so MRD sees a mix of finite and infinite
/// distances, LRC sees varied reference counts, and MemTune sees a rolling
/// needed-window.
fn churn_profile() -> AppProfile {
    let mut per_rdd = BTreeMap::new();
    let mut per_stage = vec![StageTouches::default(); 40];
    for r in 0..RDDS {
        let base = r % 16;
        let stages = [base, base + 3, base + 9];
        per_rdd.insert(
            RddId(r),
            RddRefs {
                rdd: RddId(r),
                stages: stages.iter().map(|&s| StageId(s)).collect(),
                jobs: stages.iter().map(|&s| JobId(s / 5)).collect(),
            },
        );
        for &s in &stages {
            per_stage[s as usize].reads.push(RddId(r));
        }
    }
    AppProfile {
        per_rdd,
        per_stage,
        stage_job: (0..40).map(|s| JobId(s / 5)).collect(),
        num_jobs: 8,
    }
}

/// Steady-state eviction churn driver for one policy instance.
///
/// The cache starts full with `n` unit-size blocks; every [`Churn::step`]
/// touches one recently inserted block, then inserts the oldest evicted
/// block back, which forces exactly one eviction through
/// [`CachePolicy::select_victims`]. Residency stays at `n` forever, so each
/// step is one complete insert-under-pressure event — the hot path the
/// runtime's `free_up` drives.
pub struct Churn {
    policy: Box<dyn CachePolicy>,
    resident: BTreeMap<BlockId, u64>,
    spare: VecDeque<BlockId>,
    recent: Vec<BlockId>,
    profile: AppProfile,
    steps: u64,
    stage: u32,
    rng: u64,
}

impl Churn {
    /// A churn driver over `n` resident blocks (plus an `n/4` spare pool).
    /// `naive` wraps the policy in [`NaiveScan`].
    pub fn new(build: fn() -> Box<dyn CachePolicy>, n: usize, naive: bool) -> Self {
        Self::with_mode(build, n, naive, false)
    }

    /// [`Churn::new`] with an explicit state mode: `dense` offers the policy
    /// a [`BlockSlots`] arena covering the whole churn universe before any
    /// other hook, exactly as the runtime always does. Policies
    /// without slot-indexed state ignore it.
    pub fn with_mode(
        build: fn() -> Box<dyn CachePolicy>,
        n: usize,
        naive: bool,
        dense: bool,
    ) -> Self {
        let mut policy = if naive {
            Box::new(NaiveScan::new(build())) as Box<dyn CachePolicy>
        } else {
            build()
        };
        if dense {
            let universe = n + (n / 4).max(1);
            let parts = universe.div_ceil(RDDS as usize) as u32;
            let arena = Arc::new(BlockSlots::from_counts(
                (0..RDDS).map(|r| (RddId(r), parts)),
            ));
            policy.attach_slots(&arena);
        }
        let profile = churn_profile();
        policy.on_job_submit(JobId(0), &profile);
        policy.on_stage_start(StageId(0), &profile);
        let universe = n + (n / 4).max(1);
        let mut resident = BTreeMap::new();
        let mut spare = VecDeque::new();
        for i in 0..universe {
            let b = BlockId::new(RddId(i as u32 % RDDS), (i / RDDS as usize) as u32);
            if i < n {
                resident.insert(b, 1);
                policy.on_insert(NODE, b);
            } else {
                spare.push_back(b);
            }
        }
        Churn {
            policy,
            resident,
            spare,
            recent: Vec::with_capacity(64),
            profile,
            steps: 0,
            stage: 0,
            rng: 0x9e3779b97f4a7c15,
        }
    }

    fn next_rand(&mut self) -> u64 {
        // SplitMix64: deterministic, cheap, state in one word.
        self.rng = self.rng.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// One churn step: occasional stage advance, one access, one
    /// insert-under-pressure (evicting exactly one block). Returns the
    /// victim so callers can check protocol equivalence.
    pub fn step(&mut self) -> BlockId {
        self.steps += 1;
        if self.steps.is_multiple_of(STAGE_PERIOD) && self.stage < 39 {
            self.stage += 1;
            self.policy
                .on_stage_start(StageId(self.stage), &self.profile);
        }
        if !self.recent.is_empty() {
            let idx = self.next_rand() as usize % self.recent.len();
            let touched = self.recent[idx];
            if self.resident.contains_key(&touched) {
                self.policy.on_access(NODE, touched);
            }
        }
        let incoming = self.spare.pop_front().expect("spare pool never empties");
        let victims = self.policy.select_victims(NODE, 1, &self.resident);
        let &victim = victims.first().expect("a full cache always has a victim");
        for &v in &victims {
            assert!(self.resident.remove(&v).is_some(), "non-resident victim");
            self.policy.on_remove(NODE, v);
            self.spare.push_back(v);
        }
        self.resident.insert(incoming, 1);
        self.policy.on_insert(NODE, incoming);
        if self.recent.len() < 64 {
            self.recent.push(incoming);
        } else {
            self.recent[(self.steps % 64) as usize] = incoming;
        }
        victim
    }

    /// Number of resident blocks (constant across steps).
    pub fn len(&self) -> usize {
        self.resident.len()
    }

    /// Whether the cache is empty (never, after construction with n > 0).
    pub fn is_empty(&self) -> bool {
        self.resident.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_keeps_residency_constant() {
        let (_, build) = bench_policies()[0];
        let mut c = Churn::new(build, 100, false);
        for _ in 0..300 {
            c.step();
        }
        assert_eq!(c.len(), 100);
        assert!(!c.is_empty());
    }

    #[test]
    fn naive_wrapper_matches_indexed_for_every_policy() {
        for (name, build) in bench_policies() {
            let mut naive = Churn::new(build, 64, true);
            let mut indexed = Churn::new(build, 64, false);
            for i in 0..512 {
                let a = naive.step();
                let b = indexed.step();
                assert_eq!(a, b, "victim diverged at step {i} for {name}");
            }
        }
    }

    #[test]
    fn dense_state_matches_hashed_for_every_policy() {
        for (name, build) in bench_policies() {
            let mut hashed = Churn::with_mode(build, 64, false, false);
            let mut dense = Churn::with_mode(build, 64, false, true);
            for i in 0..512 {
                let a = hashed.step();
                let b = dense.step();
                assert_eq!(a, b, "victim diverged at step {i} for {name}");
            }
        }
    }
}
