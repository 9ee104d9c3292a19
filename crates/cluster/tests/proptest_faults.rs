//! Property tests for the fault-injection subsystem: randomized
//! [`FaultPlan`]s (scripted crashes with and without rejoin, slowdown
//! windows, stochastic task/fetch/disk failures, speculation) × randomized
//! iterative apps × representative policies.
//!
//! Every sampled run must (a) terminate, (b) keep the block accounting
//! conserved — every miss is resolved by exactly one of disk hit or
//! recomputation, fault-forced recomputes are a subset of all recomputes,
//! speculative copies all resolve to a win or a loss, one placement per
//! task regardless of retries — and (c) be bit-deterministic: running the
//! identical configuration twice gives byte-identical reports.

use proptest::prelude::*;
use refdist_cluster::{
    AdmissionPolicy, ArrivalProcess, ClusterConfig, CrashEvent, FaultPlan, QuotaKind,
    ResilienceConfig, ServeConfig, ServeSched, ServeSim, SimConfig, Simulation, Slowdown,
};
use refdist_core::{MrdPolicy, ProfileMode};
use refdist_dag::{AppBuilder, AppPlan, AppSpec, StorageLevel};
use refdist_policies::{CachePolicy, PolicyKind};

#[derive(Debug, Clone)]
struct Params {
    iters: usize,
    parts: u32,
    block_kb: u64,
    nodes: u32,
    cache_frac: f64,
    seed: u64,
    crashes: Vec<(u32, u32, Option<u32>)>,
    slowdown: Option<(u32, f64, u32, Option<u32>)>,
    task_p: f64,
    fetch_p: f64,
    disk_p: f64,
    spec_q: f64,
    max_attempts: u32,
}

fn build_app(p: &Params) -> AppSpec {
    let block = p.block_kb * 256 * 1024;
    let mut b = AppBuilder::new("fault-prop-app");
    let input = b.input("in", p.parts, block, 2_000);
    let hot = b.narrow("hot", input, block, 5_000);
    b.persist(hot, StorageLevel::MemoryAndDisk);
    for i in 0..p.iters {
        let s = b.shuffle(format!("agg{i}"), &[hot], p.parts, block / 4, 1_000);
        b.action(format!("job{i}"), s);
    }
    b.build()
}

fn build_plan(p: &Params) -> FaultPlan {
    let mut plan = FaultPlan {
        task_failure_p: p.task_p,
        fetch_failure_p: p.fetch_p,
        disk_failure_p: p.disk_p,
        speculation_quantile: p.spec_q,
        max_task_attempts: p.max_attempts,
        // Small backoffs keep randomized-abort runs short.
        retry_backoff_us: 1_000,
        max_backoff_us: 8_000,
        ..Default::default()
    };
    for &(node, at_stage, rejoin) in &p.crashes {
        plan.crashes.push(CrashEvent {
            node: node % p.nodes,
            at_stage,
            // A rejoin needs surviving nodes to carry the downtime.
            rejoin_after: rejoin.filter(|_| p.nodes > 1),
        });
    }
    if let Some((node, factor, from, until)) = p.slowdown {
        plan.slowdowns.push(Slowdown {
            node: node % p.nodes,
            factor,
            from_stage: from,
            until_stage: until.map(|u| from + u),
        });
    }
    plan.validate().expect("sampled plans are valid");
    plan
}

fn build_cfg(p: &Params, spec: &AppSpec) -> SimConfig {
    let footprint: u64 = spec
        .cached_rdds()
        .map(|r| r.num_partitions as u64 * r.block_size)
        .sum();
    let per_node = ((footprint as f64 * p.cache_frac) / p.nodes as f64) as u64;
    let mut cfg = SimConfig::new(ClusterConfig::tiny(p.nodes, per_node));
    cfg.seed = p.seed;
    cfg.collect_placements = true;
    cfg.faults = build_plan(p);
    cfg
}

fn policies() -> Vec<Box<dyn CachePolicy>> {
    vec![
        PolicyKind::Lru.build(),
        PolicyKind::Lrc.build(),
        Box::new(MrdPolicy::full()),
    ]
}

fn check(p: &Params) {
    let spec = build_app(p);
    let plan = AppPlan::build(&spec);
    for mut policy in policies() {
        let cfg = build_cfg(p, &spec);
        let report = Simulation::new(&spec, &plan, ProfileMode::Recurring, cfg).run(&mut *policy);
        let name = &report.policy;
        let s = &report.stats;
        let f = &report.faults;

        // Block accounting: every miss resolves through disk or lineage,
        // never both; fault-forced recomputes are a subset of recomputes.
        assert!(
            s.disk_hits + s.recomputes <= s.misses,
            "miss accounting broken for {name} on {p:?}: {s:?}"
        );
        assert!(
            f.fault_recomputes <= s.recomputes,
            "fault recomputes exceed recomputes for {name} on {p:?}: {f:?} vs {s:?}"
        );

        // Fault accounting closes.
        assert!(f.retries <= f.task_failures, "{name} on {p:?}: {f:?}");
        assert_eq!(
            f.spec_wins + f.spec_losses,
            f.spec_launched,
            "unresolved speculative copy for {name} on {p:?}: {f:?}"
        );
        assert!(f.rejoins <= f.crashes, "{name} on {p:?}: {f:?}");
        if let Some(a) = &report.aborted {
            assert_eq!(a.attempts, p.max_attempts, "{name} on {p:?}");
            assert!(f.task_failures >= p.max_attempts as u64, "{name} on {p:?}");
        } else {
            assert_eq!(f.retries, f.task_failures, "{name} on {p:?}: {f:?}");
        }
        if build_plan(p).is_empty() {
            assert!(f.is_empty(), "faults from an empty plan: {name} on {p:?}");
            assert!(report.aborted.is_none());
        }

        // One placement per task, no matter how many retries or copies.
        let placements = report.placements.as_ref().expect("placements requested");
        assert_eq!(
            placements.len() as u64,
            report.tasks,
            "placement count diverged from tasks for {name} on {p:?}"
        );

        // Bit-determinism: the identical configuration replays exactly.
        let mut policy2 = policies()
            .into_iter()
            .find(|q| q.name() == *name)
            .expect("same policy");
        let cfg2 = build_cfg(p, &spec);
        let report2 =
            Simulation::new(&spec, &plan, ProfileMode::Recurring, cfg2).run(&mut *policy2);
        assert_eq!(
            format!("{report:?}"),
            format!("{report2:?}"),
            "nondeterministic run for {name} on {p:?}"
        );
    }
}

fn params_strategy() -> impl Strategy<Value = Params> {
    let crash = (
        any::<u32>(),
        0u32..6,
        prop_oneof![Just(None), Just(Some(1)), Just(Some(3))],
    );
    let slowdown = (
        any::<u32>(),
        prop_oneof![Just(2.0), Just(8.0)],
        0u32..4,
        prop_oneof![Just(None), Just(Some(2u32))],
    );
    (
        (1usize..4, 1u32..8, 1u64..4, 1u32..4),
        (
            prop_oneof![Just(0.3), Just(0.6), Just(2.0)],
            any::<u16>(),
            proptest::collection::vec(crash, 0..3),
            prop_oneof![Just(None), slowdown.prop_map(Some)],
        ),
        (
            prop_oneof![Just(0.0), Just(0.05), Just(0.3)],
            prop_oneof![Just(0.0), Just(0.1)],
            prop_oneof![Just(0.0), Just(0.1)],
            prop_oneof![Just(0.0), Just(0.5), Just(0.75)],
            1u32..5,
        ),
    )
        .prop_map(
            |(
                (iters, parts, block_kb, nodes),
                (cache_frac, seed, crashes, slowdown),
                (task_p, fetch_p, disk_p, spec_q, max_attempts),
            )| Params {
                iters,
                parts,
                block_kb,
                nodes,
                cache_frac,
                seed: seed as u64,
                crashes,
                slowdown,
                task_p,
                fetch_p,
                disk_p,
                spec_q,
                max_attempts,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn randomized_fault_plans_terminate_and_conserve_accounting(p in params_strategy()) {
        check(&p);
    }
}

/// Randomized serve-mode resilience: a streaming multi-tenant run under
/// node churn, app-level retry, and overload admission control.
#[derive(Debug, Clone)]
struct ServeParams {
    apps: usize,
    tenants: u32,
    gap_us: u64,
    seed: u64,
    /// Churn mean-time-between-failures, ms; 0 disables churn.
    mtbf_ms: u64,
    retries: u32,
    max_active: Option<u32>,
    admission: u8,
    deadline_ms: Option<u64>,
    fair: bool,
}

fn serve_template() -> AppSpec {
    let block = 256 * 1024;
    let mut b = AppBuilder::new("serve-prop-app");
    let input = b.input("in", 4, block, 2_000);
    let hot = b.narrow("hot", input, block, 5_000);
    b.persist(hot, StorageLevel::MemoryAndDisk);
    for i in 0..2 {
        let s = b.shuffle(format!("agg{i}"), &[hot], 4, block / 4, 1_000);
        b.action(format!("job{i}"), s);
    }
    b.build()
}

/// Every sampled churn+retry+admission stream must (a) terminate, (b)
/// partition its submissions exactly into shed / aborted / completed, (c)
/// respect the retry budget and shed only under an active Shed cap, and (d)
/// replay byte-identically from the same seed.
fn serve_check(p: &ServeParams) {
    let spec = serve_template();
    let subs: Vec<(&AppSpec, u32)> = (0..p.apps).map(|i| (&spec, i as u32 % p.tenants)).collect();
    let admission = match p.admission % 3 {
        0 => AdmissionPolicy::Queue,
        1 => AdmissionPolicy::Shed,
        _ => AdmissionPolicy::Degrade,
    };
    let nodes = 2u32;
    let footprint: u64 = spec
        .cached_rdds()
        .map(|r| r.num_partitions as u64 * r.block_size)
        .sum();
    let per_node = ((footprint as f64 * 0.5) / nodes as f64) as u64;
    let run = || {
        let mut sim = SimConfig::new(ClusterConfig::tiny(nodes, per_node));
        sim.seed = p.seed;
        if p.mtbf_ms > 0 {
            let mtbf_us = p.mtbf_ms * 1_000;
            sim.faults.node_churn(mtbf_us, (mtbf_us / 3).max(1));
        }
        let serve = ServeSim::new(
            &subs,
            ServeConfig {
                sim,
                arrivals: ArrivalProcess::Poisson {
                    mean_gap_us: p.gap_us,
                },
                sched: if p.fair {
                    ServeSched::FairShare
                } else {
                    ServeSched::Fifo
                },
                quota: QuotaKind::Unlimited,
                upfront: false,
                intern: true,
                resilience: ResilienceConfig {
                    max_app_attempts: p.retries + 1,
                    // Small backoffs keep churned streams short.
                    retry_backoff_us: 1_000,
                    max_retry_backoff_us: 8_000,
                    admission,
                    max_active_apps: p.max_active,
                    queue_cap: None,
                    deadline_us: p.deadline_ms.map(|d| d * 1_000),
                },
            },
        );
        serve.run_with(|_| PolicyKind::Lru.build())
    };
    let rep = run();
    let n = p.apps;
    assert_eq!(rep.reports.len(), n, "one report per submission: {p:?}");
    assert_eq!(rep.completions.len(), n);
    let shed: Vec<bool> = match &rep.resilience {
        Some(r) => r.shed.clone(),
        None => vec![false; n],
    };
    let (mut shed_c, mut aborted_c, mut done_c) = (0usize, 0usize, 0usize);
    for (i, &was_shed) in shed.iter().enumerate() {
        let r = &rep.reports[i];
        assert!(
            rep.completions[i] >= rep.arrivals[i],
            "time ran backwards for submission {i}: {p:?}"
        );
        if was_shed {
            shed_c += 1;
            assert_eq!(r.app_attempts, 0, "shed submissions never run: {p:?}");
            assert_eq!(
                rep.completions[i], rep.arrivals[i],
                "a shed submission completes at its arrival: {p:?}"
            );
            assert!(r.aborted.is_none(), "shed and aborted overlap: {p:?}");
        } else if r.aborted.is_some() {
            aborted_c += 1;
        } else {
            done_c += 1;
        }
        if let Some(res) = &rep.resilience {
            assert!(
                res.app_attempts[i] <= p.retries + 1,
                "retry budget overrun for submission {i}: {p:?}"
            );
            assert_eq!(res.app_attempts[i] == 0, shed[i], "{p:?}");
        }
    }
    // The stream partitions exactly: shed + aborted + completed = submitted.
    assert_eq!(shed_c + aborted_c + done_c, n, "{p:?}");
    // Shedding needs an active-app cap with the Shed policy.
    if p.max_active.is_none() || admission != AdmissionPolicy::Shed {
        assert_eq!(shed_c, 0, "shed without a Shed cap: {p:?}");
    }
    // Aborts are only reachable through churn crashes in this plan.
    if p.mtbf_ms == 0 {
        assert_eq!(aborted_c, 0, "abort without any fault source: {p:?}");
    }
    // Byte-determinism: the identical stream replays exactly.
    let rep2 = run();
    assert_eq!(
        format!("{:?}", rep.reports),
        format!("{:?}", rep2.reports),
        "nondeterministic serve replay: {p:?}"
    );
    assert_eq!(rep.summary(), rep2.summary(), "{p:?}");
    assert_eq!(rep.resilience, rep2.resilience, "{p:?}");
}

fn serve_params_strategy() -> impl Strategy<Value = ServeParams> {
    (
        (
            1usize..6,
            1u32..4,
            prop_oneof![Just(0u64), Just(5_000), Just(50_000)],
        ),
        (
            any::<u16>(),
            prop_oneof![Just(0u64), Just(20), Just(100)],
            0u32..3,
        ),
        (
            prop_oneof![Just(None), Just(Some(1u32)), Just(Some(2))],
            0u8..3,
            prop_oneof![Just(None), Just(Some(1u64)), Just(Some(10_000))],
            any::<bool>(),
        ),
    )
        .prop_map(
            |(
                (apps, tenants, gap_us),
                (seed, mtbf_ms, retries),
                (max_active, admission, deadline_ms, fair),
            )| ServeParams {
                apps,
                tenants,
                gap_us,
                seed: seed as u64,
                mtbf_ms,
                retries,
                max_active,
                admission,
                deadline_ms,
                fair,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn randomized_resilient_serve_streams_terminate_and_partition(p in serve_params_strategy()) {
        serve_check(&p);
    }
}

/// Deterministic spot-check of the resilient-serve corner: fast churn, a
/// retry budget, a tight Shed cap and a deadline, all at once.
#[test]
fn churned_shedding_serve_stream_partitions_and_replays() {
    serve_check(&ServeParams {
        apps: 5,
        tenants: 2,
        gap_us: 5_000,
        seed: 11,
        mtbf_ms: 20,
        retries: 2,
        max_active: Some(1),
        admission: 1, // Shed
        deadline_ms: Some(10_000),
        fair: true,
    });
}

/// Deterministic spot-check combining every fault class at once: two
/// crashes (one with downtime), a slowdown window, all three stochastic
/// processes, and speculation — under cache pressure.
#[test]
fn kitchen_sink_fault_plan_terminates_and_accounts() {
    check(&Params {
        iters: 3,
        parts: 7,
        block_kb: 2,
        nodes: 3,
        cache_frac: 0.3,
        seed: 11,
        crashes: vec![(2, 1, None), (0, 2, Some(2))],
        slowdown: Some((1, 8.0, 0, Some(3))),
        task_p: 0.05,
        fetch_p: 0.1,
        disk_p: 0.1,
        spec_q: 0.5,
        max_attempts: 4,
    });
}
