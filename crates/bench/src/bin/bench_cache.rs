//! Cache hot-path benchmark: measures the eviction / simulation hot path
//! under three protocols and writes each side to a machine-readable file in
//! the working directory:
//!
//! * `bench_cache_naive.json` — `naive`: the pre-index re-scan protocol
//!   (`NaiveScan`).
//! * `bench_cache_indexed.json` — `indexed`: the ordered-index
//!   `select_victims` path.
//! * `bench_cache_dense.json` — `dense`: the indexed path with slot-indexed
//!   policy state (the configuration the runtime uses).
//!
//! The macro rows run the engine on its one (slot-indexed) block state:
//! `naive` wraps the policy in `NaiveScan`, and `indexed` reuses the `dense`
//! measurement, the engine code path being the same. The checked-in
//! `BENCH_baseline.json`, `BENCH_pr2.json` and `BENCH_pr3.json` were
//! recorded by an earlier version of this binary (their macro rows on a
//! hash-backed engine block state that has since been removed); they stay
//! as history, which is why a run writes fresh files under other names
//! rather than over them. Compare a fresh run with
//! `bench_diff bench_cache_naive.json bench_cache_dense.json`.
//!
//! All three files come from one invocation on one machine, so any pair is
//! comparable. One record per line: micro records report `ns_per_evict` for
//! one churn step (access + insert-under-pressure + one eviction) at a given
//! cache population; macro records report `ms_total` for a complete
//! eviction-heavy simulation. `bench_diff` joins two files and prints
//! speedups (and gates CI regressions with `--check`).
//!
//! `REFDIST_QUICK=1` shrinks populations and measurement windows for smoke
//! runs (the output files are still written).

use refdist_bench::{bench_policies, cache_for_fraction, Churn, ExpContext, NaiveScan, PolicySpec};
use refdist_cluster::{SimConfig, Simulation};
use refdist_core::ProfileMode;
use refdist_dag::AppPlan;
use refdist_policies::CachePolicy;
use refdist_workloads::Workload;
use std::fmt::Write as _;
use std::time::Instant;

/// Measurement protocols, in historical order, one output file each.
const PROTOCOLS: [&str; 3] = ["naive", "indexed", "dense"];

struct Record {
    suite: &'static str,
    bench: String,
    policy: String,
    blocks: usize,
    protocol: &'static str,
    metric: &'static str,
    value: f64,
}

impl Record {
    fn to_json(&self) -> String {
        format!(
            "{{\"suite\":\"{}\",\"bench\":\"{}\",\"policy\":\"{}\",\"blocks\":{},\"protocol\":\"{}\",\"{}\":{:.2}}}",
            self.suite, self.bench, self.policy, self.blocks, self.protocol, self.metric, self.value
        )
    }
}

fn quick() -> bool {
    std::env::var("REFDIST_QUICK").is_ok_and(|v| v != "0")
}

/// Mean ns per churn step, measured over a time-boxed window after warmup.
fn time_churn(build: fn() -> Box<dyn CachePolicy>, blocks: usize, naive: bool, dense: bool) -> f64 {
    let mut churn = Churn::with_mode(build, blocks, naive, dense);
    let budget_ms: u64 = if quick() { 40 } else { 400 };
    let warmup = (blocks / 8).clamp(32, 2_000);
    for _ in 0..warmup {
        churn.step();
    }
    let mut steps: u64 = 0;
    let start = Instant::now();
    loop {
        for _ in 0..32 {
            std::hint::black_box(churn.step());
        }
        steps += 32;
        if start.elapsed().as_millis() as u64 >= budget_ms || steps >= 200_000 {
            break;
        }
    }
    start.elapsed().as_secs_f64() * 1e9 / steps as f64
}

/// One eviction-heavy simulation workload; returns (best-of-reps wall ms,
/// hit ratio). Best-of keeps the record robust to scheduler noise; the hit
/// ratio is identical across reps and protocols (asserted by the caller).
fn time_macro(policy: PolicySpec, naive: bool) -> (f64, f64) {
    let mut ctx = ExpContext::main().quick();
    if quick() {
        ctx.params.partitions = 32;
        ctx.params.scale = 0.1;
    } else {
        // Larger than the CI-quick scale so eviction churn, not fixed setup
        // cost, dominates the wall time.
        ctx.params.partitions = 256;
        ctx.params.scale = 1.0;
    }
    let spec = Workload::ConnectedComponents.build(&ctx.params);
    let plan = AppPlan::build(&spec);
    // A cache covering 20% of the cached footprint keeps the runtime under
    // constant eviction pressure — the free_up hot path dominates.
    let cache = cache_for_fraction(&spec, &ctx.cluster, 0.2).max(1);
    let reps = if quick() { 1 } else { 3 };
    let mut best_ms = f64::INFINITY;
    let mut hits = 0.0;
    for _ in 0..reps {
        let cfg = SimConfig::new(ctx.cluster.with_cache(cache)).with_seed(ctx.seed);
        let mut p: Box<dyn CachePolicy> = if naive {
            Box::new(NaiveScan::new(policy.build(None)))
        } else {
            policy.build(None)
        };
        let start = Instant::now();
        let report = Simulation::new(&spec, &plan, ProfileMode::Recurring, cfg).run(&mut *p);
        best_ms = best_ms.min(start.elapsed().as_secs_f64() * 1e3);
        hits = report.hit_ratio();
    }
    (best_ms, hits)
}

fn main() {
    // One record vector per output file, index-aligned with PROTOCOLS.
    let mut records: [Vec<Record>; 3] = [Vec::new(), Vec::new(), Vec::new()];

    let populations: &[usize] = if quick() {
        &[1_000, 10_000]
    } else {
        &[1_000, 10_000, 100_000]
    };

    println!("== micro: evict_churn (ns/evict, lower is better) ==");
    println!(
        "{:<10} {:>8} {:>14} {:>14} {:>14} {:>9}",
        "policy", "blocks", "naive", "indexed", "dense", "speedup"
    );
    for &blocks in populations {
        for (name, build) in bench_policies() {
            let naive_ns = time_churn(build, blocks, true, false);
            let indexed_ns = time_churn(build, blocks, false, false);
            // The baseline policies keep no slot-indexed state of their own
            // (`attach_slots` is a no-op for them), so their dense churn is
            // the indexed code path verbatim — reuse the measurement rather
            // than re-sampling the same code and reporting noise as a delta.
            let dense_ns = if name == "MRD" {
                time_churn(build, blocks, false, true)
            } else {
                indexed_ns
            };
            println!(
                "{:<10} {:>8} {:>11.0} ns {:>11.0} ns {:>11.0} ns {:>8.1}x",
                name,
                blocks,
                naive_ns,
                indexed_ns,
                dense_ns,
                naive_ns / dense_ns
            );
            for (i, (out, value)) in records
                .iter_mut()
                .zip([naive_ns, indexed_ns, dense_ns])
                .enumerate()
            {
                out.push(Record {
                    suite: "micro",
                    bench: "evict_churn".into(),
                    policy: name.into(),
                    blocks,
                    protocol: PROTOCOLS[i],
                    metric: "ns_per_evict",
                    value,
                });
            }
        }
    }

    println!();
    println!("== macro: ConnectedComponents @ 20% cache (ms, lower is better) ==");
    println!(
        "{:<10} {:>12} {:>12} {:>12} {:>9}",
        "policy", "naive", "indexed", "dense", "speedup"
    );
    for policy in [PolicySpec::Lru, PolicySpec::MrdFull] {
        // `indexed` and `dense` are one engine code path: one measurement.
        let dense = time_macro(policy, false);
        let row = [time_macro(policy, true), dense, dense];
        let (naive_ms, naive_hits) = row[0];
        let (indexed_ms, _) = row[1];
        let (dense_ms, _) = row[2];
        for &(_, hits) in &row {
            assert!(
                (naive_hits - hits).abs() < 1e-12,
                "protocols disagree on behavior for {}: hit ratio {naive_hits} vs {hits}",
                policy.name()
            );
        }
        println!(
            "{:<10} {:>9.0} ms {:>9.0} ms {:>9.0} ms {:>8.2}x",
            policy.name(),
            naive_ms,
            indexed_ms,
            dense_ms,
            naive_ms / dense_ms
        );
        for (i, (out, (ms, _))) in records.iter_mut().zip(&row).enumerate() {
            out.push(Record {
                suite: "macro",
                bench: "cc_sweep".into(),
                policy: policy.name().into(),
                blocks: 0,
                protocol: PROTOCOLS[i],
                metric: "ms_total",
                value: *ms,
            });
        }
    }

    let paths = PROTOCOLS.map(|p| format!("bench_cache_{p}.json"));
    for (path, records) in paths.iter().zip(&records) {
        let mut out = String::from("[\n");
        for (i, r) in records.iter().enumerate() {
            let sep = if i + 1 == records.len() { "\n" } else { ",\n" };
            let _ = write!(out, "{}{}", r.to_json(), sep);
        }
        out.push_str("]\n");
        std::fs::write(path, out).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("wrote {path} ({} records)", records.len());
    }
}
