//! The hook timer must not change a simulation: for every policy the
//! benchmark runs, a traced run's reports equal the untraced run's. Also
//! checks that `BENCHMARK.json` declares exactly the workloads and metrics
//! the benchmark prints.

use refdist_bench::{cache_for_fraction, PolicySpec};
use refdist_cluster::{
    AdmissionPolicy, ArrivalProcess, ClusterConfig, QuotaKind, ResilienceConfig, ServeConfig,
    ServeSched, ServeSim, SimConfig, Simulation,
};
use refdist_core::ProfileMode;
use refdist_dag::{AppPlan, AppSpec};
use refdist_perfbench::timer::{HookStats, Sink, Timed};
use refdist_perfbench::{parse_args, workloads, END_TO_END, PER_LAYER};
use refdist_workloads::{Workload, WorkloadParams};
use std::sync::{Arc, Mutex};

/// Every policy the benchmark's workloads run.
const POLICIES: [PolicySpec; 5] = [
    PolicySpec::Lru,
    PolicySpec::Lrc,
    PolicySpec::MemTune,
    PolicySpec::MrdEvict,
    PolicySpec::MrdFull,
];

fn sink() -> Sink {
    Arc::new(Mutex::new(HookStats::default()))
}

fn small(w: Workload) -> AppSpec {
    w.build(&WorkloadParams {
        partitions: 16,
        scale: 0.05,
        iterations: None,
    })
}

#[test]
fn traced_solo_runs_equal_untraced_runs() {
    let spec = small(Workload::PageRank);
    let plan = AppPlan::build(&spec);
    let cluster = ClusterConfig::tiny(4, 0);
    let cache = cache_for_fraction(&spec, &cluster, 0.3);
    let mut cfg = SimConfig::new(cluster.with_cache(cache)).with_seed(9);
    cfg.delay_scheduling_us = Some(5_000);
    cfg.faults.slow_node(1, 3.0);
    cfg.faults.speculation_quantile = 0.75;
    let sim = Simulation::new(&spec, &plan, ProfileMode::Recurring, cfg);
    for policy in POLICIES {
        let plain = sim.run(&mut *policy.build(None));
        let s = sink();
        let traced = sim.run(&mut Timed::new(policy.build(None), &s));
        assert_eq!(
            format!("{plain:?}"),
            format!("{traced:?}"),
            "{}",
            policy.name()
        );
        let h = *s.lock().unwrap();
        assert!(h.victim_calls > 0, "{}: no cache pressure", policy.name());
        assert_eq!(h.access_calls, plain.stats.hits, "{}", policy.name());
    }
}

#[test]
fn traced_serve_streams_equal_untraced_streams() {
    let specs = [small(Workload::ShortestPaths), small(Workload::KMeans)];
    let subs: Vec<(&AppSpec, u32)> = (0..12).map(|i| (&specs[i % 2], i as u32 % 3)).collect();
    let cluster = ClusterConfig::tiny(3, 0);
    let cache = cache_for_fraction(&specs[0], &cluster, 0.4);
    // Churn, task failures, retries and a shed gate: every hook, node joins
    // included, gets called.
    let mut sim = SimConfig::new(cluster.with_cache(cache)).with_seed(4);
    sim.faults.node_churn(2_000_000, 500_000);
    sim.faults.task_failure_p = 0.02;
    sim.faults.max_task_attempts = 2;
    let serve = ServeSim::new(
        &subs,
        ServeConfig {
            sim,
            arrivals: ArrivalProcess::Poisson {
                mean_gap_us: 200_000,
            },
            sched: ServeSched::FairShare,
            quota: QuotaKind::Unlimited,
            upfront: false,
            intern: true,
            resilience: ResilienceConfig {
                max_app_attempts: 3,
                admission: AdmissionPolicy::Shed,
                max_active_apps: Some(4),
                deadline_us: Some(10_000_000),
                ..Default::default()
            },
        },
    );
    for policy in POLICIES {
        let plain = serve.run_with(|_| policy.build(None));
        let s = sink();
        let traced = serve.run_with(|_| Box::new(Timed::new(policy.build(None), &s)));
        assert_eq!(
            format!("{plain:?}"),
            format!("{traced:?}"),
            "{}",
            policy.name()
        );
        let crashes: u64 = plain.reports.iter().map(|r| r.faults.crashes).sum();
        assert!(crashes > 0, "the stream must exercise node churn");
        let hits: u64 = plain.reports.iter().map(|r| r.stats.hits).sum();
        assert_eq!(s.lock().unwrap().access_calls, hits, "{}", policy.name());
    }
}

#[test]
fn benchmark_json_declares_what_the_benchmark_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let names = |section: &str| -> Vec<String> {
        let start = json.find(&format!("\"{section}\"")).expect(section);
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section ends")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').unwrap()].to_string())
            .collect()
    };
    let expect = |t: &[(&str, &str)]| t.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
    assert_eq!(names("end_to_end"), expect(END_TO_END));
    assert_eq!(names("per_layer"), expect(PER_LAYER));
    let wl: Vec<String> = workloads::WORKLOADS
        .iter()
        .map(|w| w.name.to_string())
        .collect();
    assert_eq!(names("workloads"), wl);
    for w in workloads::WORKLOADS {
        assert!(
            json.contains(&format!("\"why\": \"{}\"", w.why)),
            "{}",
            w.name
        );
        assert!(w.why.len() <= 200, "{}", w.name);
    }
    for (n, u) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(
            json.contains(&format!("\"name\": \"{n}\", \"unit\": \"{u}\"")),
            "{n} must be declared with unit {u}"
        );
    }
}

#[test]
fn arguments_are_checked() {
    let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
    let ok = parse_args(&args(
        "--workload serve_churn --seed 3 --seconds 10 --trace 1",
    ))
    .unwrap();
    assert_eq!(
        (ok.workload.name, ok.seed, ok.trace),
        ("serve_churn", 3, true)
    );
    for bad in [
        "--workload nope --seed 3 --seconds 10 --trace 0",
        "--workload serve_churn --seed -1 --seconds 10 --trace 0",
        "--workload serve_churn --seed 3 --seconds 0 --trace 0",
        "--workload serve_churn --seed 3 --seconds 10 --trace 2",
        "--workload serve_churn --seed 3 --seconds 10",
        "--workload serve_churn --seed 3 --seconds 10 --trace 0 --extra 1",
    ] {
        assert!(parse_args(&args(bad)).is_err(), "{bad}");
    }
}
