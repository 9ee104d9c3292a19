//! Operational behaviours beyond the steady state: worker failure (§4.4
//! fault tolerance), straggler routing via delay scheduling, and the
//! adaptive prefetch threshold (the paper's future-work item).
//!
//! ```sh
//! cargo run --release --example operational_features
//! ```

use refdist::prelude::*;

fn main() {
    let params = WorkloadParams {
        partitions: 32,
        scale: 0.2,
        iterations: None,
    };
    let spec = Workload::ConnectedComponents.build(&params);
    let plan = AppPlan::build(&spec);
    let footprint: u64 = spec.cached_rdds().map(|r| r.total_size()).sum();

    let mut cluster = ClusterConfig::main_cluster();
    cluster.nodes = 6;
    let cache = (footprint as f64 * 0.4 / cluster.nodes as f64) as u64;
    let base = SimConfig::new(cluster.with_cache(cache));

    // --- baseline ----------------------------------------------------------
    let mut mrd = MrdPolicy::full();
    let healthy = Simulation::new(&spec, &plan, ProfileMode::Recurring, base.clone()).run(&mut mrd);
    println!("baseline:            {}", healthy.summary());

    // --- worker failure ------------------------------------------------------
    // Node 2 loses its executor a third of the way through the run.
    let mut cfg = base.clone();
    cfg.faults
        .node_failure(2, plan.active_stage_count() as u32 / 3);
    let mut mrd = MrdPolicy::full();
    let failed = Simulation::new(&spec, &plan, ProfileMode::Recurring, cfg).run(&mut mrd);
    println!(
        "with node failure:   {} ({} blocks lost, re-acquired from lineage/disk)",
        failed.summary(),
        failed.stats.lost_blocks
    );

    // --- straggler + delay scheduling ---------------------------------------
    let mut slow = base.clone();
    slow.faults.slow_node(0, 6.0);
    let mut mrd = MrdPolicy::full();
    let straggling =
        Simulation::new(&spec, &plan, ProfileMode::Recurring, slow.clone()).run(&mut mrd);
    let mut routed_cfg = slow;
    routed_cfg.delay_scheduling_us = Some(20_000);
    let mut mrd = MrdPolicy::full();
    let routed = Simulation::new(&spec, &plan, ProfileMode::Recurring, routed_cfg).run(&mut mrd);
    println!(
        "6x straggler:        JCT {:.1}s strict-home vs {:.1}s with delay scheduling",
        straggling.jct_secs(),
        routed.jct_secs()
    );

    // --- adaptive prefetch threshold ------------------------------------------
    let mut bad = base.clone();
    bad.prefetch_threshold = 0.05; // deliberately too aggressive
    bad.max_prefetch_per_node = usize::MAX;
    let mut mrd = MrdPolicy::new(MrdConfig {
        prefetch_horizon: 0,
        ..Default::default()
    });
    let fixed = Simulation::new(&spec, &plan, ProfileMode::Recurring, bad.clone()).run(&mut mrd);
    let mut adaptive_cfg = bad;
    adaptive_cfg.adaptive_threshold = true;
    let mut mrd = MrdPolicy::new(MrdConfig {
        prefetch_horizon: 0,
        ..Default::default()
    });
    let adaptive =
        Simulation::new(&spec, &plan, ProfileMode::Recurring, adaptive_cfg).run(&mut mrd);
    println!(
        "bad 5% threshold:    {} wasted prefetches fixed vs {} adaptive (JCT {:.1}s vs {:.1}s)",
        fixed.stats.wasted_prefetches,
        adaptive.stats.wasted_prefetches,
        fixed.jct_secs(),
        adaptive.jct_secs()
    );
}
