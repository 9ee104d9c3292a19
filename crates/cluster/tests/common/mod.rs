//! The decision recorder shared by the cluster differential suites.

use refdist_dag::{AppProfile, BlockId, BlockSlots, JobId, StageId};
use refdist_policies::CachePolicy;
use refdist_store::NodeId;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Every eviction batch and purge decision, in call order.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Log {
    pub victims: Vec<(NodeId, Vec<BlockId>)>,
    pub purges: Vec<Vec<BlockId>>,
}

/// A [`Log`] shared out of the policy box, so runs that consume their
/// policies (the serve driver) still expose the sequences. Recorders that
/// share one log capture the *global* call sequence, interleaving included.
pub type SharedLog = Arc<Mutex<Log>>;

/// Wraps a policy, forwards every [`CachePolicy`] method to it, and logs
/// its victim and purge decisions, so runs can be compared on their
/// decision *sequences*, not just the aggregate report.
pub struct Recorder {
    inner: Box<dyn CachePolicy>,
    log: SharedLog,
}

impl Recorder {
    /// Record `inner`'s decisions into `log`.
    pub fn new(inner: Box<dyn CachePolicy>, log: &SharedLog) -> Self {
        Recorder {
            inner,
            log: Arc::clone(log),
        }
    }

    /// Record `inner`'s decisions into a fresh log.
    pub fn wrap(inner: Box<dyn CachePolicy>) -> (Self, SharedLog) {
        let log = SharedLog::default();
        (Recorder::new(inner, &log), log)
    }
}

/// A copy of the decisions logged so far.
pub fn snapshot(log: &SharedLog) -> Log {
    log.lock().unwrap().clone()
}

impl CachePolicy for Recorder {
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
        self.inner.on_remove(node, block);
    }
    fn on_node_join(&mut self, node: NodeId) {
        self.inner.on_node_join(node);
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
        let v = self.inner.select_victims(node, shortfall, resident);
        self.log.lock().unwrap().victims.push((node, v.clone()));
        v
    }
    fn purge_candidates(&mut self, in_memory: &[BlockId]) -> Vec<BlockId> {
        let p = self.inner.purge_candidates(in_memory);
        self.log.lock().unwrap().purges.push(p.clone());
        p
    }
    fn prefetch_order(&mut self, node: NodeId, missing: &[BlockId]) -> Vec<BlockId> {
        self.inner.prefetch_order(node, missing)
    }
    fn wants_prefetch(&self) -> bool {
        self.inner.wants_prefetch()
    }
    fn wants_purge(&self) -> bool {
        self.inner.wants_purge()
    }
}
