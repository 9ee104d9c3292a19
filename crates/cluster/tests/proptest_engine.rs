//! Property test driving the engine through randomized applications ×
//! cluster configurations × every policy: compute jitter, execution-memory
//! churn, delay scheduling, node failure, crash-and-rejoin and adaptive
//! thresholds.
//!
//! In debug builds the engine checks itself at every stage and task
//! placement against three oracles: the slot index against linear scans
//! (`sched::linear_home`, `sched::linear_global`), the master's memory
//! residency against a rescan of every node's store, and each node's
//! incremental prefetch candidate set against a rescan of the cached RDDs.
//! These runs are what feed those oracles adversarial inputs. Each run must
//! also replay: a second run of the same case gives a byte-identical
//! `RunReport` (including the full access trace) and identical victim/purge
//! decision sequences as observed through the policy interface.

mod common;

use common::{Log, Recorder};
use proptest::prelude::*;
use refdist_cluster::{ClusterConfig, RunReport, SimConfig, Simulation};
use refdist_core::{DistanceMetric, MrdConfig, MrdMode, MrdPolicy, ProfileMode};
use refdist_dag::{AppBuilder, AppPlan, AppSpec, StorageLevel};
use refdist_policies::{CachePolicy, PolicyKind};

/// Parameters of a randomized iterative application.
#[derive(Debug, Clone)]
struct AppParams {
    iters: usize,
    parts: u32,
    block_kb: u64,
    mem_only: bool,
    two_rdds: bool,
}

fn build_app(p: &AppParams) -> AppSpec {
    let block = p.block_kb * 256 * 1024;
    let level = if p.mem_only {
        StorageLevel::MemoryOnly
    } else {
        StorageLevel::MemoryAndDisk
    };
    let mut b = AppBuilder::new("diff-app");
    let input = b.input("in", p.parts, block, 2_000);
    let hot = b.narrow("hot", input, block, 5_000);
    b.persist(hot, level);
    if p.two_rdds {
        let cold = b.narrow("cold", input, block, 5_000);
        b.persist(cold, level);
        let both = b.narrow_multi("both", &[hot, cold], 1024, 100);
        b.action("create", both);
        for i in 0..p.iters {
            let s = b.shuffle(format!("hot{i}"), &[hot], p.parts, 1024, 500);
            b.action(format!("jh{i}"), s);
        }
        let s = b.shuffle("coldref", &[cold], p.parts, 1024, 500);
        b.action("jc", s);
    } else {
        for i in 0..p.iters {
            let s = b.shuffle(format!("agg{i}"), &[hot], p.parts, block / 4, 1_000);
            b.action(format!("job{i}"), s);
        }
    }
    b.build()
}

/// Parameters of a randomized cluster configuration.
#[derive(Debug, Clone)]
struct CfgParams {
    nodes: u32,
    cache_frac: f64,
    exec_mem: f64,
    jitter: f64,
    seed: u64,
    adaptive: bool,
    failure: bool,
    rejoin: bool,
    delay: Option<u64>,
}

fn build_cfg(c: &CfgParams, spec: &AppSpec) -> SimConfig {
    let footprint: u64 = spec
        .cached_rdds()
        .map(|r| r.num_partitions as u64 * r.block_size)
        .sum();
    let per_node = ((footprint as f64 * c.cache_frac) / c.nodes as f64) as u64;
    let mut cfg = SimConfig::new(ClusterConfig::tiny(c.nodes, per_node));
    cfg.seed = c.seed;
    cfg.compute_jitter = c.jitter;
    cfg.exec_mem_fraction = c.exec_mem;
    cfg.adaptive_threshold = c.adaptive;
    cfg.delay_scheduling_us = c.delay;
    cfg.collect_trace = true;
    if c.failure {
        cfg.faults.node_failure(c.nodes - 1, 2);
    }
    if c.rejoin {
        // A second crash with downtime and a cold rejoin: the oracles and
        // the replay must hold through migration and resync too.
        cfg.faults.crash_with_rejoin(0, 1, 2);
    }
    cfg
}

type Build = Box<dyn Fn() -> Box<dyn CachePolicy>>;

/// Every policy family: the five baselines plus MRD in all three modes and
/// with job-granular distances.
fn all_policies() -> Vec<(&'static str, Build)> {
    let mut v: Vec<(&'static str, Build)> = vec![
        ("lru", Box::new(|| PolicyKind::Lru.build())),
        ("fifo", Box::new(|| PolicyKind::Fifo.build())),
        ("random", Box::new(|| PolicyKind::Random.build())),
        ("lrc", Box::new(|| PolicyKind::Lrc.build())),
        ("memtune", Box::new(|| PolicyKind::MemTune.build())),
    ];
    for (name, mode, metric) in [
        ("mrd-evict", MrdMode::EvictOnly, DistanceMetric::Stage),
        ("mrd-prefetch", MrdMode::PrefetchOnly, DistanceMetric::Stage),
        ("mrd-full", MrdMode::Full, DistanceMetric::Stage),
        ("mrd-full-job", MrdMode::Full, DistanceMetric::Job),
    ] {
        v.push((
            name,
            Box::new(move || {
                Box::new(MrdPolicy::new(MrdConfig {
                    mode,
                    metric,
                    ..Default::default()
                }))
            }),
        ));
    }
    v
}

fn run_once(spec: &AppSpec, plan: &AppPlan, cfg: SimConfig, build: &Build) -> (RunReport, Log) {
    let (mut rec, log) = Recorder::wrap(build());
    let report = Simulation::new(spec, plan, ProfileMode::Recurring, cfg).run(&mut rec);
    (report, common::snapshot(&log))
}

/// Run the case under every policy (the engine's debug oracles check each
/// stage), then require a second run to replay it exactly.
fn assert_checked_and_replayed(p: &AppParams, c: &CfgParams) {
    let spec = build_app(p);
    let plan = AppPlan::build(&spec);
    for (name, build) in all_policies() {
        let (report, log) = run_once(&spec, &plan, build_cfg(c, &spec), &build);
        let (again, again_log) = run_once(&spec, &plan, build_cfg(c, &spec), &build);
        assert_eq!(
            format!("{report:?}"),
            format!("{again:?}"),
            "report did not replay for {name} on {p:?} {c:?}"
        );
        assert_eq!(
            log, again_log,
            "decisions did not replay for {name} on {p:?} {c:?}"
        );
    }
}

fn app_strategy() -> impl Strategy<Value = AppParams> {
    (1usize..4, 1u32..8, 1u64..4, any::<bool>(), any::<bool>()).prop_map(
        |(iters, parts, block_kb, mem_only, two_rdds)| AppParams {
            iters,
            parts,
            block_kb,
            mem_only,
            two_rdds,
        },
    )
}

fn cfg_strategy() -> impl Strategy<Value = CfgParams> {
    (
        (
            1u32..4,
            prop_oneof![Just(0.0), Just(0.3), Just(0.6), Just(2.0)],
            prop_oneof![Just(0.0), Just(0.3)],
            prop_oneof![Just(0.0), Just(0.1)],
        ),
        (
            any::<u16>(),
            any::<bool>(),
            any::<bool>(),
            any::<bool>(),
            prop_oneof![Just(None), Just(Some(0u64)), Just(Some(10_000u64))],
        ),
    )
        .prop_map(
            |((nodes, cache_frac, exec_mem, jitter), (seed, adaptive, failure, rejoin, delay))| {
                CfgParams {
                    nodes,
                    cache_frac,
                    exec_mem,
                    jitter,
                    seed: seed as u64,
                    adaptive,
                    failure,
                    rejoin: rejoin && nodes > 1,
                    delay,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn random_engine_runs_pass_the_oracles_and_replay(
        app in app_strategy(),
        cfg in cfg_strategy(),
    ) {
        assert_checked_and_replayed(&app, &cfg);
    }
}

/// Deterministic spot-check of the pressure-heavy corner (cache far smaller
/// than the working set, execution-memory churn on, prefetching active), so
/// the oracles' coverage does not rest on random sampling alone.
#[test]
fn heavy_pressure_passes_the_oracles_and_replays() {
    let app = AppParams {
        iters: 3,
        parts: 7,
        block_kb: 2,
        mem_only: false,
        two_rdds: true,
    };
    let cfg = CfgParams {
        nodes: 2,
        cache_frac: 0.3,
        exec_mem: 0.3,
        jitter: 0.1,
        seed: 7,
        adaptive: true,
        failure: true,
        rejoin: true,
        delay: Some(10_000),
    };
    assert_checked_and_replayed(&app, &cfg);
}
