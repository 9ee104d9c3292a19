//! A forwarding [`CachePolicy`] that times every hook of the policy it wraps.
//!
//! The wrapper changes no decision: each trait method forwards to the
//! wrapped policy with the same arguments and returns its result unchanged,
//! so a traced run's reports equal the untraced run's (the crate's
//! `traced_equals_untraced` test checks this for every policy the benchmark
//! uses). Counts are deterministic; times are host nanoseconds.

use refdist_dag::{AppProfile, BlockId, BlockSlots, JobId, StageId};
use refdist_policies::CachePolicy;
use refdist_store::NodeId;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Per-hook work and time of one or more policy instances.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HookStats {
    /// `select_victims` and `pick_victim`.
    pub victim_ns: u64,
    pub victim_calls: u64,
    /// Resident entries offered to victim selection.
    pub victim_candidates: u64,
    pub victims_returned: u64,
    /// `prefetch_order`.
    pub prefetch_ns: u64,
    pub prefetch_calls: u64,
    pub prefetch_candidates: u64,
    /// `purge_candidates`.
    pub purge_ns: u64,
    pub purge_candidates: u64,
    /// `on_insert`, `on_access` and `on_remove`.
    pub bookkeeping_ns: u64,
    pub bookkeeping_calls: u64,
    /// `on_access` alone: one call per memory hit.
    pub access_calls: u64,
    /// `on_job_submit` and `on_stage_start`.
    pub profile_ns: u64,
}

impl HookStats {
    /// Host nanoseconds spent inside any timed hook.
    pub fn hook_ns(&self) -> u64 {
        self.victim_ns + self.prefetch_ns + self.purge_ns + self.bookkeeping_ns + self.profile_ns
    }

    /// The same stats with every time zeroed: what must repeat exactly.
    pub fn counts(&self) -> HookStats {
        HookStats {
            victim_ns: 0,
            prefetch_ns: 0,
            purge_ns: 0,
            bookkeeping_ns: 0,
            profile_ns: 0,
            ..*self
        }
    }

    pub fn merge(&mut self, o: &HookStats) {
        self.victim_ns += o.victim_ns;
        self.victim_calls += o.victim_calls;
        self.victim_candidates += o.victim_candidates;
        self.victims_returned += o.victims_returned;
        self.prefetch_ns += o.prefetch_ns;
        self.prefetch_calls += o.prefetch_calls;
        self.prefetch_candidates += o.prefetch_candidates;
        self.purge_ns += o.purge_ns;
        self.purge_candidates += o.purge_candidates;
        self.bookkeeping_ns += o.bookkeeping_ns;
        self.bookkeeping_calls += o.bookkeeping_calls;
        self.access_calls += o.access_calls;
        self.profile_ns += o.profile_ns;
    }
}

/// Where timed policies deposit their stats when dropped. One sink collects
/// every policy instance of a run (a serve stream builds one per admission).
pub type Sink = Arc<Mutex<HookStats>>;

/// The forwarding timer. Stats accumulate locally, without locking, and
/// reach the sink when the policy is dropped.
pub struct Timed {
    inner: Box<dyn CachePolicy>,
    local: HookStats,
    sink: Sink,
}

impl Timed {
    pub fn new(inner: Box<dyn CachePolicy>, sink: &Sink) -> Timed {
        Timed {
            inner,
            local: HookStats::default(),
            sink: Arc::clone(sink),
        }
    }
}

impl Drop for Timed {
    fn drop(&mut self) {
        // A poisoned sink means a simulation thread panicked; that panic is
        // what gets reported, so the stats are simply dropped here.
        if let Ok(mut s) = self.sink.lock() {
            s.merge(&self.local);
        }
    }
}

fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

impl CachePolicy for Timed {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn attach_slots(&mut self, slots: &Arc<BlockSlots>) {
        self.inner.attach_slots(slots);
    }

    fn on_job_submit(&mut self, job: JobId, visible: &AppProfile) {
        let t = Instant::now();
        self.inner.on_job_submit(job, visible);
        self.local.profile_ns += elapsed_ns(t);
    }

    fn on_stage_start(&mut self, stage: StageId, visible: &AppProfile) {
        let t = Instant::now();
        self.inner.on_stage_start(stage, visible);
        self.local.profile_ns += elapsed_ns(t);
    }

    fn on_insert(&mut self, node: NodeId, block: BlockId) {
        let t = Instant::now();
        self.inner.on_insert(node, block);
        self.local.bookkeeping_ns += elapsed_ns(t);
        self.local.bookkeeping_calls += 1;
    }

    fn on_access(&mut self, node: NodeId, block: BlockId) {
        let t = Instant::now();
        self.inner.on_access(node, block);
        self.local.bookkeeping_ns += elapsed_ns(t);
        self.local.bookkeeping_calls += 1;
        self.local.access_calls += 1;
    }

    fn on_remove(&mut self, node: NodeId, block: BlockId) {
        let t = Instant::now();
        self.inner.on_remove(node, block);
        self.local.bookkeeping_ns += elapsed_ns(t);
        self.local.bookkeeping_calls += 1;
    }

    fn on_node_join(&mut self, node: NodeId) {
        self.inner.on_node_join(node);
    }

    fn pick_victim(&mut self, node: NodeId, candidates: &[BlockId]) -> Option<BlockId> {
        let t = Instant::now();
        let v = self.inner.pick_victim(node, candidates);
        self.local.victim_ns += elapsed_ns(t);
        self.local.victim_calls += 1;
        self.local.victim_candidates += candidates.len() as u64;
        self.local.victims_returned += u64::from(v.is_some());
        v
    }

    fn select_victims(
        &mut self,
        node: NodeId,
        shortfall: u64,
        resident: &BTreeMap<BlockId, u64>,
    ) -> Vec<BlockId> {
        let t = Instant::now();
        let v = self.inner.select_victims(node, shortfall, resident);
        self.local.victim_ns += elapsed_ns(t);
        self.local.victim_calls += 1;
        self.local.victim_candidates += resident.len() as u64;
        self.local.victims_returned += v.len() as u64;
        v
    }

    fn purge_candidates(&mut self, in_memory: &[BlockId]) -> Vec<BlockId> {
        let t = Instant::now();
        let v = self.inner.purge_candidates(in_memory);
        self.local.purge_ns += elapsed_ns(t);
        self.local.purge_candidates += in_memory.len() as u64;
        v
    }

    fn wants_purge(&self) -> bool {
        self.inner.wants_purge()
    }

    fn prefetch_order(&mut self, node: NodeId, missing: &[BlockId]) -> Vec<BlockId> {
        let t = Instant::now();
        let v = self.inner.prefetch_order(node, missing);
        self.local.prefetch_ns += elapsed_ns(t);
        self.local.prefetch_calls += 1;
        self.local.prefetch_candidates += missing.len() as u64;
        v
    }

    fn wants_prefetch(&self) -> bool {
        self.inner.wants_prefetch()
    }
}
