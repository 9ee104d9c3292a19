//! Scheduler scaling: whole simulations on the incrementally maintained slot
//! index, with delay scheduling on and a straggler injected, at growing
//! cluster sizes. Complements the
//! `bench_sched` protocol binary (which records the cross-PR JSON files);
//! this suite is the statistically sampled criterion view, and its `--test`
//! mode is part of the CI smoke run.
//!
//! The `artifact_sharing` group measures what cross-cell artifact sharing
//! saves a sweep: per-cell `Simulation::new` + `run` (profiler and arena
//! rebuilt every run) against a shared-artifact `run_with_scratch` loop.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use refdist_cluster::{ClusterConfig, EngineScratch, SimConfig, Simulation};
use refdist_core::ProfileMode;
use refdist_dag::{AppBuilder, AppPlan, AppSpec, StorageLevel};
use refdist_policies::PolicyKind;
use std::hint::black_box;

/// Wide iterative app: 8 partitions per node (multiple task waves per node
/// per stage), one cached dataset reused by 4 jobs.
fn sched_app(nodes: u32) -> AppSpec {
    let parts = nodes * 8;
    let block = 256 * 1024;
    let mut b = AppBuilder::new("sched-scaling");
    let input = b.input("in", parts, block, 2_000);
    let data = b.narrow("data", input, block, 5_000);
    b.persist(data, StorageLevel::MemoryAndDisk);
    for i in 0..4 {
        let s = b.shuffle(format!("agg{i}"), &[data], parts, block / 4, 1_000);
        b.action(format!("job{i}"), s);
    }
    b.build()
}

fn bench_sched_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("sched_scaling");
    for nodes in [8u32, 64] {
        let spec = sched_app(nodes);
        let plan = AppPlan::build(&spec);
        let tasks: u64 = plan.stages.iter().map(|s| s.num_tasks as u64).sum();
        let mut cfg = SimConfig::new(ClusterConfig::tiny(nodes, 1 << 40));
        cfg.cluster.cores_per_node = 4;
        cfg.delay_scheduling_us = Some(5_000);
        cfg.faults.slow_node(0, 4.0);
        let sim = Simulation::new(&spec, &plan, ProfileMode::Recurring, cfg);
        group.throughput(Throughput::Elements(tasks));
        group.bench_with_input(
            BenchmarkId::new("indexed", format!("{nodes}n")),
            &sim,
            |b, sim| {
                b.iter(|| {
                    let mut p = PolicyKind::Lru.build();
                    black_box(sim.run(&mut *p))
                });
            },
        );
    }
    group.finish();
}

fn bench_artifact_sharing(c: &mut Criterion) {
    let mut group = c.benchmark_group("artifact_sharing");
    let nodes = 8u32;
    let spec = sched_app(nodes);
    let plan = AppPlan::build(&spec);
    let cfg = SimConfig::new(ClusterConfig::tiny(nodes, 1 << 40));

    // Per-cell rebuild: what every sweep cell paid before sharing.
    group.bench_function("rebuild_per_run", |b| {
        b.iter(|| {
            let sim = Simulation::new(&spec, &plan, ProfileMode::Recurring, cfg.clone());
            let mut p = PolicyKind::Lru.build();
            black_box(sim.run(&mut *p))
        });
    });

    // Shared profiler/arena + recycled engine buffers.
    let base = Simulation::new(&spec, &plan, ProfileMode::Recurring, cfg.clone());
    group.bench_function("shared_artifacts", |b| {
        let mut scratch = EngineScratch::default();
        b.iter(|| {
            let (profiler, arena) = base.artifacts();
            let sim = Simulation::with_artifacts(&spec, &plan, profiler, arena, cfg.clone());
            let mut p = PolicyKind::Lru.build();
            black_box(sim.run_with_scratch(&mut *p, &mut scratch))
        });
    });
    group.finish();
}

criterion_group!(benches, bench_sched_scaling, bench_artifact_sharing);
criterion_main!(benches);
