//! Differential property test for fault-plan transparency.
//!
//! The fault-injection subsystem lives directly on [`SimConfig::faults`], so
//! every simulation now runs "through" it. The safety claim that makes that
//! acceptable: a plan that cannot draw a fault is *byte-invisible*. A default
//! (empty) plan — and, stronger, an inert plan whose probabilities are all
//! zero but whose retry/backoff knobs are tweaked — must produce reports,
//! task placements, access traces, and policy decision sequences identical
//! to a run that predates the subsystem entirely. This is what keeps every
//! golden file, BENCH number, and sweep key from PRs 1–4 valid.

mod common;

use common::{Log, Recorder};
use proptest::prelude::*;
use refdist_cluster::{ClusterConfig, FaultPlan, RunReport, SimConfig, Simulation};
use refdist_core::{MrdPolicy, ProfileMode};
use refdist_dag::{AppBuilder, AppPlan, AppSpec, StorageLevel};
use refdist_policies::{CachePolicy, PolicyKind};

#[derive(Debug, Clone)]
struct Params {
    iters: usize,
    parts: u32,
    block_kb: u64,
    mem_only: bool,
    nodes: u32,
    cache_frac: f64,
    jitter: f64,
    seed: u64,
}

fn build_app(p: &Params) -> AppSpec {
    let block = p.block_kb * 256 * 1024;
    let level = if p.mem_only {
        StorageLevel::MemoryOnly
    } else {
        StorageLevel::MemoryAndDisk
    };
    let mut b = AppBuilder::new("fault-diff-app");
    let input = b.input("in", p.parts, block, 2_000);
    let hot = b.narrow("hot", input, block, 5_000);
    b.persist(hot, level);
    for i in 0..p.iters {
        let s = b.shuffle(format!("agg{i}"), &[hot], p.parts, block / 4, 1_000);
        b.action(format!("job{i}"), s);
    }
    b.build()
}

fn build_cfg(p: &Params, spec: &AppSpec) -> SimConfig {
    let footprint: u64 = spec
        .cached_rdds()
        .map(|r| r.num_partitions as u64 * r.block_size)
        .sum();
    let per_node = ((footprint as f64 * p.cache_frac) / p.nodes as f64) as u64;
    let mut cfg = SimConfig::new(ClusterConfig::tiny(p.nodes, per_node));
    cfg.seed = p.seed;
    cfg.compute_jitter = p.jitter;
    cfg.collect_trace = true;
    cfg.collect_placements = true;
    cfg
}

/// A plan that *looks* configured but can never draw a fault: all
/// probabilities zero, no scripted events, no speculation — only the
/// retry/backoff knobs differ from the default. If any of those knobs leaks
/// into a fault-free run, this catches it.
fn inert_plan() -> FaultPlan {
    FaultPlan {
        max_task_attempts: 9,
        retry_backoff_us: 1,
        max_backoff_us: 2,
        ..FaultPlan::default()
    }
}

type Build = Box<dyn Fn() -> Box<dyn CachePolicy>>;

fn all_policies() -> Vec<(&'static str, Build)> {
    vec![
        ("lru", Box::new(|| PolicyKind::Lru.build()) as Build),
        ("fifo", Box::new(|| PolicyKind::Fifo.build())),
        ("random", Box::new(|| PolicyKind::Random.build())),
        ("lrc", Box::new(|| PolicyKind::Lrc.build())),
        ("memtune", Box::new(|| PolicyKind::MemTune.build())),
        ("mrd", Box::new(|| Box::new(MrdPolicy::full()))),
    ]
}

fn run_once(spec: &AppSpec, plan: &AppPlan, cfg: SimConfig, build: &Build) -> (RunReport, Log) {
    let (mut rec, log) = Recorder::wrap(build());
    let report = Simulation::new(spec, plan, ProfileMode::Recurring, cfg).run(&mut rec);
    (report, common::snapshot(&log))
}

fn assert_invisible(p: &Params) {
    let spec = build_app(p);
    let plan = AppPlan::build(&spec);
    for (name, build) in all_policies() {
        let clean_cfg = build_cfg(p, &spec);
        assert!(clean_cfg.faults.is_empty(), "default plan must be empty");
        let mut inert_cfg = build_cfg(p, &spec);
        inert_cfg.faults = inert_plan();
        assert!(
            inert_cfg.faults.is_empty(),
            "inert plan must count as empty"
        );
        let (clean_report, clean_rec) = run_once(&spec, &plan, clean_cfg, &build);
        let (inert_report, inert_rec) = run_once(&spec, &plan, inert_cfg, &build);
        assert!(clean_report.faults.is_empty(), "fault-free run drew faults");
        assert_eq!(clean_report.faults.aborts, 0);
        assert!(clean_report.aborted.is_none());
        assert_eq!(
            format!("{clean_report:?}"),
            format!("{inert_report:?}"),
            "report diverged for {name} on {p:?}"
        );
        assert_eq!(
            clean_rec.victims, inert_rec.victims,
            "victim sequence diverged for {name} on {p:?}"
        );
        assert_eq!(
            clean_rec.purges, inert_rec.purges,
            "purge sequence diverged for {name} on {p:?}"
        );
    }
}

fn params_strategy() -> impl Strategy<Value = Params> {
    (
        (1usize..4, 1u32..8, 1u64..4, any::<bool>()),
        (
            1u32..4,
            prop_oneof![Just(0.3), Just(0.6), Just(2.0)],
            prop_oneof![Just(0.0), Just(0.1)],
            any::<u16>(),
        ),
    )
        .prop_map(
            |((iters, parts, block_kb, mem_only), (nodes, cache_frac, jitter, seed))| Params {
                iters,
                parts,
                block_kb,
                mem_only,
                nodes,
                cache_frac,
                jitter,
                seed: seed as u64,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn empty_fault_plan_is_byte_invisible(p in params_strategy()) {
        assert_invisible(&p);
    }
}

/// An aborting run must attribute the abort: the `StageAbort` carries the
/// application index (always 0 in the single-app engine) and the abort is
/// counted in `FaultStats`, so serve-mode reports stay attributable when a
/// tenant's submission dies mid-stream.
#[test]
fn aborts_carry_the_app_id_and_are_counted() {
    let p = Params {
        iters: 2,
        parts: 3,
        block_kb: 1,
        mem_only: false,
        nodes: 2,
        cache_frac: 2.0,
        jitter: 0.0,
        seed: 11,
    };
    let spec = build_app(&p);
    let plan = AppPlan::build(&spec);
    let mut cfg = build_cfg(&p, &spec);
    cfg.faults.task_failure_p = 1.0;
    cfg.faults.max_task_attempts = 2;
    let (report, _) = run_once(&spec, &plan, cfg, &all_policies()[0].1);
    let abort = report.aborted.expect("certain failure must abort");
    assert_eq!(abort.app, 0, "single-app engine stamps app 0");
    assert_eq!(report.faults.aborts, 1);
    assert!(report
        .summary()
        .contains(&format!("ABORTED at stage {} (app 0", abort.stage.0)));
}

/// Deterministic spot-check of the pressure-heavy corner, so the
/// transparency claim does not rest on random sampling alone.
#[test]
fn empty_fault_plan_is_invisible_under_pressure() {
    assert_invisible(&Params {
        iters: 3,
        parts: 7,
        block_kb: 2,
        mem_only: false,
        nodes: 3,
        cache_frac: 0.3,
        jitter: 0.1,
        seed: 7,
    });
}
