//! The benchmark's three workloads: why each was chosen, what each per-layer
//! metric is predicted to move on it, and how its inputs are built from the
//! seed.
//!
//! Arrivals are open-loop Poisson in simulated time; the host runs one
//! simulation after another (the paper sweep on one worker thread).

use refdist_bench::{cache_for_fraction, PolicySpec};
use refdist_cluster::{
    AdmissionPolicy, ArrivalProcess, ClusterConfig, QuotaKind, ResilienceConfig, ServeConfig,
    ServeSched, ServeSim, SimConfig, Simulation,
};
use refdist_core::{AppProfiler, ProfileMode};
use refdist_dag::{AppBuilder, AppPlan, AppSpec, BlockSlots, StorageLevel};
use refdist_workloads::{Workload, WorkloadParams};
use std::sync::Arc;
use std::time::Instant;

/// One benchmark workload.
pub struct WorkloadDef {
    pub name: &'static str,
    /// Why the workload is in the benchmark (also in `BENCHMARK.json`).
    pub why: &'static str,
    /// Per-layer metric -> end-to-end metric it should move on this
    /// workload.
    pub predictions: &'static [&'static str],
    pub kind: Kind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    PaperSweep,
    ServeChurn,
    WideCluster,
}

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "paper_sweep",
        why: "the paper's own Fig. 4 grid: cache pressure works victim selection, bookkeeping and \
              MRD prefetch on a 25-node cluster where placement is cheap; no serve code runs",
        predictions: &[
            "workloads.build_s, dag.plan_s, core.profile_s -> setup_s",
            "policies.victim_s -> sim_tasks_per_s",
            "policies.bookkeeping_s -> sim_tasks_per_s",
            "store.wasted_prefetches, store.prefetch_useful_ratio -> mrd_jct_vs_evict_only",
            "sweep.parallel_efficiency -> sim_tasks_per_s",
            "report.build_s -> sim_tasks_per_s (about 0.3 ms per 210-cell pass: too small to claim)",
        ],
        kind: Kind::PaperSweep,
    },
    WorkloadDef {
        name: "serve_churn",
        why: "an 8-tenant CC/SP/PageRank/KMeans stream above saturation (ungated, 64 to 512 subs \
              grew active apps 11 to 110 and RSS 28 to 1853 MB), held by a shed gate under node \
              churn and task faults",
        predictions: &[
            "workloads.build_s -> setup_s (plans are built at admission, so dag.plan_s and \
             core.profile_s are 0 here)",
            "policies.victim_s -> subs_per_s (the largest policy hook here)",
            "dag.admission_us_per_sub -> subs_per_s only through dag.admission_share, \
             predicted under 1%: an admission speed-up alone should not move subs_per_s",
            "store.wasted_prefetches -> jct_p99_s, slo_met_frac",
            "serve.shed, serve.app_retries -> served_frac, slo_met_frac",
            "faults.* -> slo_met_frac",
            "serve.peak_active_apps, serve.peak_arena_slots -> peak_rss_mb",
        ],
        kind: Kind::ServeChurn,
    },
    WorkloadDef {
        name: "wide_cluster",
        why: "a 1024-node x 4-core iterative app whose cache holds its dataset: placement, the \
              event queue and engine bookkeeping work; eviction and prefetch are bypassed",
        predictions: &[
            "workloads.build_s, dag.plan_s, core.profile_s -> setup_s",
            "cluster.engine_self_s -> sim_tasks_per_s",
            "policies.bookkeeping_s -> sim_tasks_per_s",
            "policies.victim_s, policies.prefetch_plan_s: zero work, so a victim-selection or \
             prefetch change is predicted not to move any metric here",
            "faults.spec_launched, faults.spec_wins -> sim_jct_s",
        ],
        kind: Kind::WideCluster,
    },
];

pub fn find(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// SplitMix64: derives decorrelated per-cell seeds from the workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut x =
        (seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F)).wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Host seconds of each set-up step.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub build_s: f64,
    pub plan_s: f64,
    pub profile_s: f64,
    pub total_s: f64,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// One application with its run-independent artifacts.
pub struct App {
    pub spec: AppSpec,
    pub plan: AppPlan,
    pub profiler: Arc<AppProfiler>,
    pub arena: Arc<BlockSlots>,
}

impl App {
    fn prepare(spec: AppSpec, t: &mut SetupTimes) -> App {
        let s = Instant::now();
        let plan = AppPlan::build(&spec);
        t.plan_s += secs(s);
        let s = Instant::now();
        let profiler = Arc::new(AppProfiler::new(&spec, &plan, ProfileMode::Recurring));
        let arena = Arc::new(BlockSlots::new(&spec));
        t.profile_s += secs(s);
        App {
            spec,
            plan,
            profiler,
            arena,
        }
    }

    pub fn simulation(&self, cfg: SimConfig) -> Simulation<'_> {
        Simulation::with_artifacts(
            &self.spec,
            &self.plan,
            Arc::clone(&self.profiler),
            Arc::clone(&self.arena),
            cfg,
        )
    }
}

// ---------------------------------------------------------------- paper_sweep

pub const SWEEP_POLICIES: [PolicySpec; 5] = [
    PolicySpec::Lru,
    PolicySpec::Lrc,
    PolicySpec::MemTune,
    PolicySpec::MrdEvict,
    PolicySpec::MrdFull,
];
pub const SWEEP_FRACTIONS: [f64; 3] = [0.2, 0.4, 0.6];

/// One (workload, policy, cache fraction) cell of the paper sweep.
pub struct Cell {
    pub app: usize,
    pub policy: PolicySpec,
    pub fraction: usize,
    pub cfg: SimConfig,
}

pub struct Sweep {
    pub apps: Vec<App>,
    pub cells: Vec<Cell>,
}

/// The 14 SparkBench workloads x 5 policies x 3 cache fractions on the
/// paper's main cluster. Cells of one (workload, fraction) pair share a
/// simulation seed so the policies are compared on identical runs.
pub fn sweep_setup(seed: u64) -> (Sweep, SetupTimes) {
    let mut t = SetupTimes::default();
    let start = Instant::now();
    let cluster = ClusterConfig::main_cluster();
    let params = WorkloadParams::default();
    let mut apps = Vec::new();
    let mut cells = Vec::new();
    for (wi, &w) in Workload::sparkbench().iter().enumerate() {
        let s = Instant::now();
        let spec = w.build(&params);
        t.build_s += secs(s);
        for (fi, &f) in SWEEP_FRACTIONS.iter().enumerate() {
            let cache = cache_for_fraction(&spec, &cluster, f);
            let sim_seed = mix(seed, (wi * SWEEP_FRACTIONS.len() + fi) as u64);
            for &policy in &SWEEP_POLICIES {
                cells.push(Cell {
                    app: wi,
                    policy,
                    fraction: fi,
                    cfg: SimConfig::new(cluster.with_cache(cache)).with_seed(sim_seed),
                });
            }
        }
        apps.push(App::prepare(spec, &mut t));
    }
    t.total_s = secs(start);
    (Sweep { apps, cells }, t)
}

// ---------------------------------------------------------------- serve_*

/// Templates of the serve stream, cycled in submission order.
pub const SERVE_MIX: [Workload; 4] = [
    Workload::ConnectedComponents,
    Workload::ShortestPaths,
    Workload::PageRank,
    Workload::KMeans,
];
/// Independent streams, each with its own seed. Their union damps how much
/// one seed's arrival and fault pattern moves the results: with 12 streams
/// the JCT p99 of `serve_churn`, set by the few app retries in its tail,
/// still had an interquartile spread of 23% of its median over ten seeds.
/// The timed phase cycles through them, one stream per pass.
pub const SERVE_STREAMS: u64 = 24;
/// Streams the LRU and MRD-evict comparator runs replay.
pub const COMPARATOR_STREAMS: usize = 8;
pub const SERVE_SUBMISSIONS: usize = 128;
pub const SERVE_TENANTS: u32 = 8;
pub const SERVE_CACHE_FRACTION: f64 = 0.4;
/// Mean arrival gap: above saturation, so the shed gate and the faults
/// decide what is served.
pub const CHURN_GAP_US: u64 = 8_000_000;
pub const CHURN_MAX_ACTIVE: u32 = 8;
pub const CHURN_DEADLINE_US: u64 = 180_000_000;
/// Per-node mean time between failures and to repair.
pub const CHURN_MTBF_US: u64 = 600_000_000;
pub const CHURN_MTTR_US: u64 = 60_000_000;
pub const CHURN_TASK_FAILURE_P: f64 = 0.01;

pub struct ServeInputs {
    pub specs: Vec<AppSpec>,
    /// Template index of each submission.
    pub order: Vec<usize>,
    /// One configuration per stream.
    pub cfgs: Vec<ServeConfig>,
}

impl ServeInputs {
    pub fn sims(&self) -> Vec<ServeSim<'_>> {
        let subs: Vec<(&AppSpec, u32)> = self
            .order
            .iter()
            .enumerate()
            .map(|(i, &t)| (&self.specs[t], i as u32 % SERVE_TENANTS))
            .collect();
        self.cfgs
            .iter()
            .map(|cfg| ServeSim::new(&subs, cfg.clone()))
            .collect()
    }
}

/// The serve streams: templates cycled in submission order and
/// round-robined over the tenants, Poisson arrivals, fair-share, no quota,
/// a cache of 40% of the largest template's footprint on the main cluster,
/// node churn, task failures with a two-attempt budget, app retries and a
/// max-active shed gate.
pub fn serve_setup(seed: u64) -> (ServeInputs, SetupTimes) {
    let mut t = SetupTimes::default();
    let start = Instant::now();
    let params = WorkloadParams {
        partitions: 48,
        scale: 0.2,
        iterations: None,
    };
    let specs: Vec<AppSpec> = SERVE_MIX.iter().map(|w| w.build(&params)).collect();
    t.build_s = secs(start);
    let cluster = ClusterConfig::main_cluster();
    let cache = specs
        .iter()
        .map(|s| cache_for_fraction(s, &cluster, SERVE_CACHE_FRACTION))
        .max()
        .unwrap_or(1)
        .max(1);
    let cfgs = (0..SERVE_STREAMS)
        .map(|k| {
            let mut sim = SimConfig::new(cluster.with_cache(cache)).with_seed(mix(seed, k));
            sim.faults.node_churn(CHURN_MTBF_US, CHURN_MTTR_US);
            sim.faults.task_failure_p = CHURN_TASK_FAILURE_P;
            sim.faults.max_task_attempts = 2;
            let resilience = ResilienceConfig {
                max_app_attempts: 3,
                admission: AdmissionPolicy::Shed,
                max_active_apps: Some(CHURN_MAX_ACTIVE),
                deadline_us: Some(CHURN_DEADLINE_US),
                ..Default::default()
            };
            ServeConfig {
                sim,
                arrivals: ArrivalProcess::Poisson {
                    mean_gap_us: CHURN_GAP_US,
                },
                sched: ServeSched::FairShare,
                quota: QuotaKind::Unlimited,
                upfront: false,
                intern: true,
                resilience,
            }
        })
        .collect();
    let inputs = ServeInputs {
        specs,
        order: (0..SERVE_SUBMISSIONS)
            .map(|i| i % SERVE_MIX.len())
            .collect(),
        cfgs,
    };
    drop(inputs.sims());
    t.total_s = secs(start);
    (inputs, t)
}

// ---------------------------------------------------------------- wide_cluster

pub const WIDE_NODES: u32 = 1024;
pub const WIDE_JOBS: usize = 60;

/// A wide iterative app: 8 partitions per node, one cached dataset reused
/// by every shuffle job, on a cluster whose cache holds the whole dataset,
/// with delay scheduling, a 4x straggler (chosen by the seed) and
/// speculation.
pub fn wide_setup(seed: u64) -> (App, SimConfig, SetupTimes) {
    let mut t = SetupTimes::default();
    let start = Instant::now();
    let parts = WIDE_NODES * 8;
    let block = 256 * 1024;
    let mut b = AppBuilder::new("wide");
    let input = b.input("in", parts, block, 2_000);
    let data = b.narrow("data", input, block, 5_000);
    b.persist(data, StorageLevel::MemoryAndDisk);
    for i in 0..WIDE_JOBS {
        let s = b.shuffle(format!("agg{i}"), &[data], parts, block / 4, 1_000);
        b.action(format!("job{i}"), s);
    }
    let spec = b.build();
    t.build_s = secs(start);
    let app = App::prepare(spec, &mut t);
    let mut cfg = SimConfig::new(ClusterConfig::tiny(WIDE_NODES, 1 << 40)).with_seed(seed);
    cfg.cluster.cores_per_node = 4;
    cfg.delay_scheduling_us = Some(5_000);
    cfg.faults
        .slow_node((mix(seed, 7) % u64::from(WIDE_NODES)) as u32, 4.0);
    cfg.faults.speculation_quantile = 0.75;
    t.total_s = secs(start);
    (app, cfg, t)
}
