//! MRDmanager: the centralized component owning the MRD table (paper §4.2).
//!
//! Receives reference-distance profiles from the [`crate::AppProfiler`]
//! (`updateReferenceDistance`), advances the table as execution proceeds
//! from stage to stage (`newReferenceDistance`), issues the cluster-wide
//! purge order for RDDs whose distance has gone infinite, and replicates the
//! table to each node's [`crate::CacheMonitor`] (`sendReferenceDistance`),
//! counting the broadcast messages so the communication overhead of §4.4 can
//! be measured.
//!
//! The replica a sync sends is built once per table version, for the slot
//! arena the policy attached ([`MrdManager::attach_slots`]), and every
//! monitor on that arena shares it by `Arc`. The message count is unchanged:
//! one per monitor per version.

use crate::distance::DistanceMetric;
use crate::monitor::{CacheMonitor, TableReplica};
use crate::table::MrdTable;
use refdist_dag::{AppProfile, BlockSlots, JobId, RddId, StageId};
use std::sync::Arc;

/// The centralized MRD manager.
#[derive(Debug, Clone)]
pub struct MrdManager {
    table: MrdTable,
    metric: DistanceMetric,
    /// RDDs already purged, so repeated purge orders are not re-issued.
    purged: Vec<RddId>,
    /// Number of table replications sent to monitors.
    broadcasts: u64,
    /// The arena the shared replica is indexed by (the policy's monitors
    /// attach the same one); `None` until attached.
    slots: Option<Arc<BlockSlots>>,
    /// Replica of the table at its current version, built on the first
    /// sync after a change and shared by every monitor on `slots`.
    replica: Option<Arc<TableReplica>>,
}

impl MrdManager {
    /// New manager measuring distances with `metric`.
    pub fn new(metric: DistanceMetric) -> Self {
        MrdManager {
            table: MrdTable::new(metric),
            metric,
            purged: Vec::new(),
            broadcasts: 0,
            slots: None,
            replica: None,
        }
    }

    /// Build shared replicas for monitors over `slots` from now on.
    pub fn attach_slots(&mut self, slots: &Arc<BlockSlots>) {
        self.slots = Some(Arc::clone(slots));
        self.replica = None;
    }

    /// The distance metric in use.
    pub fn metric(&self) -> DistanceMetric {
        self.metric
    }

    /// Read access to the MRD table.
    pub fn table(&self) -> &MrdTable {
        &self.table
    }

    /// Total table replications sent to monitors so far.
    pub fn broadcasts(&self) -> u64 {
        self.broadcasts
    }

    /// A job's DAG became visible: fold its references into the table
    /// (`updateReferenceDistance`) and, under the job metric, advance the
    /// execution point to this job.
    pub fn on_job_submit(&mut self, job: JobId, visible: &AppProfile) {
        self.table.merge_profile(visible);
        if self.metric == DistanceMetric::Job {
            self.table.advance_to(job.0);
        }
    }

    /// Execution advanced to `stage`: decrement all distances accordingly
    /// (`newReferenceDistance`). Under the job metric stage starts do not
    /// move the execution point.
    pub fn on_stage_start(&mut self, stage: StageId) {
        if self.metric == DistanceMetric::Stage {
            self.table.advance_to(stage.0);
        }
    }

    /// RDDs whose reference distance is infinite and that have not been
    /// purged yet — the targets of the next cluster-wide purge order
    /// (Algorithm 1 lines 13–17). Marks them purged.
    pub fn take_purge_order(&mut self) -> Vec<RddId> {
        let fresh: Vec<RddId> = self
            .table
            .infinite_rdds()
            .filter(|r| !self.purged.contains(r))
            .collect();
        self.purged.extend(&fresh);
        fresh
    }

    /// RDDs currently known to be dead (purged or infinite).
    pub fn is_dead(&self, rdd: RddId) -> bool {
        self.purged.contains(&rdd) || !self.table.distance(rdd).is_finite()
    }

    /// Synchronize a monitor's replica if it is stale
    /// (`sendReferenceDistance` / `getReferenceDistance`). Returns whether a
    /// message was sent.
    pub fn sync_monitor(&mut self, monitor: &mut CacheMonitor) -> bool {
        let version = self.table.version();
        if monitor.table_version() == Some(version) {
            return false;
        }
        if self.replica.as_ref().is_none_or(|r| r.version() != version) {
            let fresh = TableReplica::new(self.table.clone(), self.slots.as_ref());
            self.replica = Some(Arc::new(fresh));
        }
        monitor.receive_replica(self.replica.as_ref().expect("built above"));
        self.broadcasts += 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::RefDistance;
    use refdist_dag::{BlockId, RddRefs};
    use refdist_store::NodeId;
    use std::collections::BTreeMap;

    fn profile(entries: &[(u32, &[u32], &[u32])]) -> AppProfile {
        let mut per_rdd = BTreeMap::new();
        for &(r, stages, jobs) in entries {
            per_rdd.insert(
                RddId(r),
                RddRefs {
                    rdd: RddId(r),
                    stages: stages.iter().map(|&s| StageId(s)).collect(),
                    jobs: jobs.iter().map(|&j| JobId(j)).collect(),
                },
            );
        }
        AppProfile {
            per_rdd,
            per_stage: vec![],
            stage_job: Vec::new().into(),
            num_jobs: 0,
        }
    }

    #[test]
    fn stage_metric_advances_on_stages() {
        let mut m = MrdManager::new(DistanceMetric::Stage);
        m.on_job_submit(JobId(0), &profile(&[(0, &[2, 6], &[0, 1])]));
        assert_eq!(m.table().distance(RddId(0)), RefDistance::Finite(2));
        m.on_stage_start(StageId(3));
        assert_eq!(m.table().distance(RddId(0)), RefDistance::Finite(3));
    }

    #[test]
    fn job_metric_advances_on_jobs() {
        let mut m = MrdManager::new(DistanceMetric::Job);
        m.on_job_submit(JobId(0), &profile(&[(0, &[2, 6], &[0, 1])]));
        assert_eq!(m.table().distance(RddId(0)), RefDistance::Finite(0));
        m.on_stage_start(StageId(5)); // ignored under job metric
        assert_eq!(m.table().distance(RddId(0)), RefDistance::Finite(0));
        m.on_job_submit(JobId(1), &profile(&[(0, &[2, 6], &[0, 1])]));
        assert_eq!(m.table().distance(RddId(0)), RefDistance::Finite(0));
    }

    #[test]
    fn purge_order_fires_once_per_rdd() {
        let mut m = MrdManager::new(DistanceMetric::Stage);
        m.on_job_submit(JobId(0), &profile(&[(0, &[1], &[0]), (1, &[5], &[0])]));
        m.on_stage_start(StageId(2));
        assert_eq!(m.take_purge_order(), vec![RddId(0)]);
        assert!(m.take_purge_order().is_empty());
        assert!(m.is_dead(RddId(0)));
        assert!(!m.is_dead(RddId(1)));
        m.on_stage_start(StageId(6));
        assert_eq!(m.take_purge_order(), vec![RddId(1)]);
    }

    #[test]
    fn monitors_on_one_arena_share_one_replica_per_version() {
        let slots = Arc::new(BlockSlots::from_counts((0..4).map(|r| (RddId(r), 8))));
        let mut m = MrdManager::new(DistanceMetric::Stage);
        m.attach_slots(&slots);
        m.on_job_submit(
            JobId(0),
            &profile(&[(0, &[3, 7], &[0]), (1, &[5], &[0]), (2, &[], &[])]),
        );
        let mut mons: Vec<CacheMonitor> = (0..25)
            .map(|n| {
                let mut mon = CacheMonitor::new(NodeId(n));
                mon.attach_slots(&slots);
                mon
            })
            .collect();
        for mon in &mut mons {
            assert!(m.sync_monitor(mon));
        }
        // One allocation, one message per monitor.
        let first = Arc::clone(mons[0].replica());
        assert!(mons.iter().all(|mon| Arc::ptr_eq(mon.replica(), &first)));
        assert_eq!(m.broadcasts(), 25);
        assert!(mons.iter().all(|mon| mon.syncs() == 1));

        // A new version builds exactly one new replica, shared by all.
        m.on_stage_start(StageId(4));
        for mon in &mut mons {
            assert!(m.sync_monitor(mon));
        }
        let second = Arc::clone(mons[0].replica());
        assert!(!Arc::ptr_eq(&first, &second));
        assert!(mons.iter().all(|mon| Arc::ptr_eq(mon.replica(), &second)));
        // The monitors, the manager's cache and `second` hold it; nothing
        // else was built for this version.
        assert_eq!(Arc::strong_count(&second), 25 + 2);
        assert_eq!(m.broadcasts(), 50);
        assert!(mons.iter().all(|mon| mon.syncs() == 2));

        // Monitors with no arena or another arena get private replicas
        // that read the same distances.
        let other = Arc::new(BlockSlots::from_counts((0..4).map(|r| (RddId(r), 8))));
        let mut bare = CacheMonitor::new(NodeId(25));
        let mut foreign = CacheMonitor::new(NodeId(26));
        foreign.attach_slots(&other);
        assert!(m.sync_monitor(&mut bare));
        assert!(m.sync_monitor(&mut foreign));
        assert!(!Arc::ptr_eq(bare.replica(), &second));
        assert!(!Arc::ptr_eq(foreign.replica(), &second));
        assert_eq!(m.broadcasts(), 52);
        for b in slots.iter() {
            let want = m.table().distance(b.rdd);
            assert_eq!(mons[0].distance(b), want);
            assert_eq!(bare.distance(b), want);
            assert_eq!(foreign.distance(b), want);
        }
        assert_eq!(
            mons[0].distance(BlockId::new(RddId(0), 0)),
            RefDistance::Finite(3)
        );
        assert_eq!(
            mons[0].distance(BlockId::new(RddId(2), 0)),
            RefDistance::Infinite
        );
    }

    #[test]
    fn monitor_sync_counts_broadcasts() {
        let mut m = MrdManager::new(DistanceMetric::Stage);
        let mut mon = CacheMonitor::new(NodeId(0));
        m.on_job_submit(JobId(0), &profile(&[(0, &[3], &[0])]));
        assert!(m.sync_monitor(&mut mon));
        assert!(!m.sync_monitor(&mut mon)); // already fresh
        assert_eq!(m.broadcasts(), 1);
        m.on_stage_start(StageId(1));
        assert!(m.sync_monitor(&mut mon));
        assert_eq!(m.broadcasts(), 2);
    }
}
