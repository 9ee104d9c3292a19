//! Library implementations of the experiment binaries that run on the
//! [`crate::sweep`] engine.
//!
//! Each `*_text` function renders one experiment's full stdout and returns
//! it as a `String`: the `exp_*` binaries just print it, and the golden-file
//! tests (`tests/golden/`) snapshot it. Everything here is deterministic for
//! a fixed [`ExpContext`] — parallelism comes from the sweep engine, whose
//! aggregation order is canonical regardless of worker count.

use crate::{
    cache_for_fraction, pool_map, run_one, run_sweep, ExpContext, PolicySpec, SweepGrid,
    SweepOptions, SWEEP_FRACTIONS,
};
use refdist_cluster::{RunReport, SimConfig, Simulation};
use refdist_core::{MrdConfig, MrdPolicy, ProfileMode, TieBreak};
use refdist_dag::{AppPlan, AppSpec, RddId, RefAnalyzer, StageId, StorageLevel};
use refdist_metrics::{geomean, BarChart, Summary, TextTable};
use refdist_workloads::Workload;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Figure 2 — per-stage policy metrics across the ConnectedComponents
/// workflow (no simulations; pure DAG analysis).
pub fn fig2_text(ctx: &ExpContext) -> String {
    let mut ctx = ctx.clone();
    // A compact CC instance keeps the table readable.
    ctx.params.iterations = Some(4);
    let spec = Workload::ConnectedComponents.build(&ctx.params);
    let plan = AppPlan::build(&spec);
    let profile = RefAnalyzer::new(&spec, &plan).profile();

    // The interesting RDDs: cached, referenced at least twice.
    let rdds: Vec<RddId> = profile
        .per_rdd
        .values()
        .filter(|r| r.count() >= 2)
        .map(|r| r.rdd)
        .collect();

    // Total references per RDD (LRC's initial count).
    let totals: HashMap<RddId, usize> = rdds
        .iter()
        .map(|&r| (r, profile.refs(r).unwrap().count()))
        .collect();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 2: per-stage policy metrics for {} (cached RDDs with >=2 refs)",
        spec.name
    );
    let _ = writeln!(
        out,
        "cell = LRU idle / LRC remaining / MRD distance ('-' = not created yet, inf = dead)\n"
    );

    let mut header: Vec<String> = vec!["Stage".into(), "Job".into()];
    header.extend(rdds.iter().map(|r| spec.rdd(*r).name.clone()));
    let mut t = TextTable::new(header);

    for stage in &plan.stages {
        let mut row = vec![stage.id.to_string(), stage.job.to_string()];
        for &r in &rdds {
            let refs = profile.refs(r).unwrap();
            let creation = refs.stages[0];
            if stage.id < creation {
                row.push("-".into());
                continue;
            }
            // LRU: stages since the most recent reference at or before now.
            let last_ref = refs
                .stages
                .iter()
                .rev()
                .find(|&&s| s <= stage.id)
                .copied()
                .unwrap_or(creation);
            let lru = stage.id.0 - last_ref.0;
            // LRC: total minus references consumed so far.
            let consumed = refs.stages.iter().filter(|&&s| s <= stage.id).count();
            let lrc = totals[&r] - consumed;
            // MRD: distance to the next reference strictly after now (a
            // reference *at* the current stage is being consumed now).
            let mrd = match refs.next_ref_at_or_after(StageId(stage.id.0 + 1)) {
                Some(s) => (s.0 - stage.id.0).to_string(),
                None => "inf".into(),
            };
            let referenced_now = refs.stages.contains(&stage.id);
            let mark = if referenced_now { "*" } else { "" };
            row.push(format!("{mark}{lru}/{lrc}/{mrd}"));
        }
        t.row(row);
    }
    let _ = writeln!(out, "{}", t.render());
    let _ = writeln!(out, "'*' marks a stage that references the RDD.");
    let _ = writeln!(
        out,
        "Observations (paper §3.3): LRU punishes reference gaps; LRC strands\n\
         single-reference RDDs behind high-count peers; MRD keeps whichever\n\
         block is referenced next and marks dead data inf for eager eviction."
    );
    out
}

/// Figure 4 — best performance of MRD modes against LRU on the Main
/// cluster, over a full (workload × policy × cache-size) sweep grid.
pub fn fig4_text(ctx: &ExpContext, opts: &SweepOptions) -> String {
    let modes = [
        PolicySpec::MrdEvict,
        PolicySpec::MrdPrefetch,
        PolicySpec::MrdFull,
    ];
    let grid = SweepGrid::new(
        Workload::sparkbench().to_vec(),
        vec![
            PolicySpec::Lru,
            PolicySpec::MrdEvict,
            PolicySpec::MrdPrefetch,
            PolicySpec::MrdFull,
        ],
    )
    .fractions(SWEEP_FRACTIONS)
    .seeds(&[ctx.seed]);
    let res = run_sweep(&grid, ctx, opts);

    let rows: Vec<(Workload, [f64; 3], (f64, f64))> = Workload::sparkbench()
        .iter()
        .map(|&w| {
            let mut best = [f64::INFINITY; 3];
            let mut best_hits = (1.0, 1.0); // (lru, full mrd) at full MRD's best
            for (k, &m) in modes.iter().enumerate() {
                if let Some((norm, lru_hit, mrd_hit)) = res.best_normalized(w, PolicySpec::Lru, m) {
                    best[k] = norm;
                    if m == PolicySpec::MrdFull {
                        best_hits = (lru_hit, mrd_hit);
                    }
                }
            }
            (w, best, best_hits)
        })
        .collect();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 4: Normalized JCT vs LRU (best cache point per mode)\n"
    );
    let mut t = TextTable::new([
        "Workload",
        "Evict-only",
        "Prefetch-only",
        "Full MRD",
        "LRU hit%",
        "MRD hit%",
        "JobType",
    ]);
    let (mut e, mut p, mut f) = (vec![], vec![], vec![]);
    for (w, best, hits) in &rows {
        e.push(best[0]);
        p.push(best[1]);
        f.push(best[2]);
        t.row([
            w.short_name().to_string(),
            format!("{:.2}", best[0]),
            format!("{:.2}", best[1]),
            format!("{:.2}", best[2]),
            format!("{:.1}", hits.0 * 100.0),
            format!("{:.1}", hits.1 * 100.0),
            w.job_type().to_string(),
        ]);
    }
    let _ = writeln!(out, "{}", t.render());

    let mut chart = BarChart::new("Full MRD normalized JCT (shorter is better, 1.0 = LRU)")
        .width(40)
        .scale_to(1.0);
    for (w, best, _) in &rows {
        chart.row(w.short_name(), best[2]);
    }
    let _ = writeln!(out, "{}", chart.render());

    let mean = |v: &[f64]| Summary::of(v).map(|s| s.mean).unwrap_or(1.0);
    let _ = writeln!(
        out,
        "Average normalized JCT: evict-only {:.2} (paper 0.62), prefetch-only {:.2} (paper 0.67), full {:.2} (paper 0.53)",
        mean(&e),
        mean(&p),
        mean(&f)
    );
    let _ = writeln!(
        out,
        "Geomean normalized JCT: evict-only {:.2}, prefetch-only {:.2}, full {:.2}",
        geomean(&e).unwrap_or(1.0),
        geomean(&p).unwrap_or(1.0),
        geomean(&f).unwrap_or(1.0)
    );
    let best_full = rows
        .iter()
        .min_by(|a, b| a.1[2].total_cmp(&b.1[2]))
        .unwrap();
    let worst_full = rows
        .iter()
        .max_by(|a, b| a.1[2].total_cmp(&b.1[2]))
        .unwrap();
    let _ = writeln!(
        out,
        "Full MRD: best {} at {:.2} (paper: SCC at 0.20), weakest {} at {:.2} (paper: DT at 0.88)",
        best_full.0.short_name(),
        best_full.1[2],
        worst_full.0.short_name(),
        worst_full.1[2]
    );
    out
}

/// Figure 5 — MRD vs LRC on the LRC-comparison cluster.
pub fn fig5_text(ctx: &ExpContext, opts: &SweepOptions) -> String {
    let workloads = [
        Workload::ConnectedComponents,
        Workload::PageRank,
        Workload::SvdPlusPlus,
        Workload::KMeans,
        Workload::StronglyConnectedComponents,
        Workload::LabelPropagation,
    ];
    let grid = SweepGrid::new(
        workloads.to_vec(),
        vec![PolicySpec::Lru, PolicySpec::Lrc, PolicySpec::MrdFull],
    )
    .fractions(SWEEP_FRACTIONS)
    .seeds(&[ctx.seed]);
    let res = run_sweep(&grid, ctx, opts);

    // Paper methodology: best value per policy across cache sizes.
    let rows: Vec<(Workload, f64, f64)> = workloads
        .iter()
        .map(|&w| {
            let lrc = res
                .best_normalized(w, PolicySpec::Lru, PolicySpec::Lrc)
                .map_or(f64::INFINITY, |(n, _, _)| n);
            let mrd = res
                .best_normalized(w, PolicySpec::Lru, PolicySpec::MrdFull)
                .map_or(f64::INFINITY, |(n, _, _)| n);
            (w, lrc, mrd)
        })
        .collect();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 5: MRD vs LRC (normalized JCT vs LRU, LRC cluster)\n"
    );
    let mut t = TextTable::new(["Workload", "LRC", "MRD", "MRD vs LRC improvement"]);
    let mut improvements = vec![];
    for (w, lrc, mrd) in &rows {
        let imp = 1.0 - mrd / lrc;
        improvements.push(imp);
        t.row([
            w.short_name().to_string(),
            format!("{lrc:.2}"),
            format!("{mrd:.2}"),
            format!("{:.0}%", imp * 100.0),
        ]);
    }
    let _ = writeln!(out, "{}", t.render());
    let s = Summary::of(&improvements).unwrap();
    let _ = writeln!(
        out,
        "MRD improves on LRC by up to {:.0}% and {:.0}% on average (paper: up to 45%, avg 30%)",
        s.max * 100.0,
        s.mean * 100.0
    );
    out
}

/// Table 1 — reference-distance characteristics of all 20 workloads,
/// measured on our synthetic DAGs beside the paper's published values.
pub fn table1_text(ctx: &ExpContext, threads: usize) -> String {
    /// Paper Table 1 values: (avg job, max job, avg stage, max stage).
    fn paper(w: Workload) -> (f64, u32, f64, u32) {
        use Workload::*;
        match w {
            KMeans => (5.15, 16, 5.34, 19),
            LinearRegression => (1.24, 5, 1.76, 8),
            LogisticRegression => (1.53, 6, 2.00, 9),
            Svm => (1.48, 6, 1.96, 10),
            DecisionTree => (2.71, 9, 4.38, 15),
            MatrixFactorization => (1.56, 7, 3.31, 18),
            PageRank => (1.74, 5, 6.08, 19),
            TriangleCount => (0.07, 1, 1.23, 6),
            ShortestPaths => (0.19, 1, 1.19, 4),
            LabelPropagation => (7.19, 22, 28.37, 85),
            SvdPlusPlus => (3.51, 11, 6.82, 23),
            ConnectedComponents => (1.30, 4, 5.31, 16),
            StronglyConnectedComponents => (7.77, 24, 29.96, 90),
            PregelOperation => (1.28, 4, 5.45, 16),
            HiSort => (0.00, 0, 0.00, 0),
            HiWordCount => (0.00, 0, 0.00, 0),
            HiTeraSort => (0.22, 1, 0.22, 1),
            HiPageRank => (0.00, 0, 0.09, 2),
            HiBayes => (2.09, 7, 3.23, 9),
            HiKMeans => (6.08, 19, 6.60, 25),
        }
    }

    let all: Vec<Workload> = Workload::sparkbench()
        .iter()
        .chain(Workload::hibench())
        .copied()
        .collect();

    let rows = pool_map(&all, threads, |_, &w| {
        let spec = w.build(&ctx.params);
        let plan = AppPlan::build(&spec);
        let profile = RefAnalyzer::new(&spec, &plan).profile();
        (w, RefAnalyzer::distance_stats(&profile))
    });

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 1: Reference distance characteristics (measured vs paper)\n"
    );
    let mut t = TextTable::new([
        "Workload",
        "AvgJob",
        "AvgJob(paper)",
        "MaxJob",
        "MaxJob(paper)",
        "AvgStage",
        "AvgStage(paper)",
        "MaxStage",
        "MaxStage(paper)",
    ]);
    let mut suite_break_done = false;
    for (w, d) in &rows {
        if !suite_break_done && Workload::hibench().contains(w) {
            t.row(["-- HiBench --", "", "", "", "", "", "", "", ""]);
            suite_break_done = true;
        }
        let (pj, pmj, ps, pms) = paper(*w);
        t.row([
            w.short_name().to_string(),
            format!("{:.2}", d.avg_job),
            format!("{pj:.2}"),
            d.max_job.to_string(),
            pmj.to_string(),
            format!("{:.2}", d.avg_stage),
            format!("{ps:.2}"),
            d.max_stage.to_string(),
            pms.to_string(),
        ]);
    }
    let _ = writeln!(out, "{}", t.render());
    out
}

fn run_mrd(spec: &AppSpec, plan: &AppPlan, cfg: SimConfig, mrd: MrdConfig) -> RunReport {
    let mut p = MrdPolicy::new(mrd);
    Simulation::new(spec, plan, ProfileMode::Recurring, cfg).run(&mut p)
}

/// Extension ablations (DESIGN.md §4b): tie-breaking, prefetch horizon,
/// execution-memory churn, fixed vs adaptive prefetch threshold, and vertex
/// storage level. Independent configurations run on the worker pool.
pub fn ablations_text(ctx: &ExpContext, threads: usize) -> String {
    const FRACTION: f64 = 0.4;
    let mut out = String::new();

    // --- 1. Tie-breaking -------------------------------------------------
    let _ = writeln!(
        out,
        "Ablation 1: distance tie-breaking (full MRD, normalized JCT vs LRU)\n"
    );
    let workloads = [
        Workload::KMeans,
        Workload::DecisionTree,
        Workload::ConnectedComponents,
        Workload::StronglyConnectedComponents,
    ];
    let mut t = TextTable::new(["Workload", "MRU tiebreak", "LRU tiebreak"]);
    let rows = pool_map(&workloads, threads, |_, &w| {
        let spec = w.build(&ctx.params);
        let plan = AppPlan::build(&spec);
        let cache = cache_for_fraction(&spec, &ctx.cluster, FRACTION).max(1);
        let cfg = SimConfig::new(ctx.cluster.with_cache(cache)).with_seed(ctx.seed);
        let lru = run_one(
            &spec,
            &plan,
            ctx,
            cache,
            PolicySpec::Lru,
            ProfileMode::Recurring,
        );
        let mru = run_mrd(&spec, &plan, cfg.clone(), MrdConfig::default());
        let lru_tie = run_mrd(
            &spec,
            &plan,
            cfg,
            MrdConfig {
                tie_break: TieBreak::Lru,
                ..Default::default()
            },
        );
        [
            w.short_name().to_string(),
            format!("{:.2}", mru.normalized_jct(&lru)),
            format!("{:.2}", lru_tie.normalized_jct(&lru)),
        ]
    });
    for row in rows {
        t.row(row);
    }
    let _ = writeln!(out, "{}", t.render());
    let _ = writeln!(
        out,
        "An LRU tiebreak thrashes intra-stage scans (KM/DT); MRU is Belady-consistent.\n"
    );

    // --- 2. Prefetch horizon ---------------------------------------------
    let _ = writeln!(
        out,
        "Ablation 2: prefetch horizon (full MRD on SCC, normalized JCT vs LRU)\n"
    );
    let spec = Workload::StronglyConnectedComponents.build(&ctx.params);
    let plan = AppPlan::build(&spec);
    let cache = cache_for_fraction(&spec, &ctx.cluster, 0.25).max(1);
    let lru = run_one(
        &spec,
        &plan,
        ctx,
        cache,
        PolicySpec::Lru,
        ProfileMode::Recurring,
    );
    let mut t = TextTable::new([
        "Horizon",
        "Normalized JCT",
        "Prefetches",
        "Prefetch hits",
        "Wasted",
    ]);
    let horizons = [1u32, 3, 6, 12, 0 /* unlimited */];
    let rows = pool_map(&horizons, threads, |_, &horizon| {
        let cfg = SimConfig::new(ctx.cluster.with_cache(cache)).with_seed(ctx.seed);
        let r = run_mrd(
            &spec,
            &plan,
            cfg,
            MrdConfig {
                prefetch_horizon: horizon,
                ..Default::default()
            },
        );
        [
            if horizon == 0 {
                "unlimited".into()
            } else {
                horizon.to_string()
            },
            format!("{:.2}", r.normalized_jct(&lru)),
            r.stats.prefetches.to_string(),
            r.stats.prefetch_hits.to_string(),
            r.stats.wasted_prefetches.to_string(),
        ]
    });
    for row in rows {
        t.row(row);
    }
    let _ = writeln!(out, "{}", t.render());
    let _ = writeln!(
        out,
        "Far horizons waste transfers on blocks the next reservation evicts.\n"
    );

    // --- 3. Execution-memory fraction --------------------------------------
    let _ = writeln!(
        out,
        "Ablation 3: execution-memory churn (full MRD on CC, normalized JCT vs LRU at same fraction)\n"
    );
    let spec = Workload::ConnectedComponents.build(&ctx.params);
    let plan = AppPlan::build(&spec);
    let cache = cache_for_fraction(&spec, &ctx.cluster, 0.5).max(1);
    let mut t = TextTable::new(["exec fraction", "LRU JCT(s)", "MRD JCT(s)", "Normalized"]);
    let fracs = [0.0f64, 0.15, 0.3, 0.5];
    let rows = pool_map(&fracs, threads, |_, &frac| {
        let mut cfg = SimConfig::new(ctx.cluster.with_cache(cache)).with_seed(ctx.seed);
        cfg.exec_mem_fraction = frac;
        let mut lru_p = PolicySpec::Lru.build(None);
        let lru =
            Simulation::new(&spec, &plan, ProfileMode::Recurring, cfg.clone()).run(&mut *lru_p);
        let mrd = run_mrd(&spec, &plan, cfg, MrdConfig::default());
        [
            format!("{frac:.2}"),
            format!("{:.1}", lru.jct_secs()),
            format!("{:.1}", mrd.jct_secs()),
            format!("{:.2}", mrd.normalized_jct(&lru)),
        ]
    });
    for row in rows {
        t.row(row);
    }
    let _ = writeln!(out, "{}", t.render());
    let _ = writeln!(
        out,
        "More churn hurts both policies but widens MRD's edge: its victims matter more.\n"
    );

    // --- 4. Prefetch threshold: fixed sweep vs adaptive --------------------
    // Under the default per-stage cap and horizon the force-prefetch path
    // rarely fires, so the threshold is exercised with the prefetcher
    // uncapped and the horizon unlimited (the paper's Algorithm 1 has
    // neither bound) on SCC.
    let _ = writeln!(
        out,
        "Ablation 4: prefetch threshold — fixed sweep vs adaptive (paper future work)\n"
    );
    // The threshold only binds when a block is a sizeable fraction of the
    // cache (otherwise "fits in free" decides everything); coarse
    // partitioning makes blocks big enough to exercise the forced path.
    let mut coarse = ctx.params;
    coarse.partitions = 24;
    let spec = Workload::StronglyConnectedComponents.build(&coarse);
    let plan = AppPlan::build(&spec);
    let cache = cache_for_fraction(&spec, &ctx.cluster, 0.12).max(1);
    let mut t = TextTable::new(["Threshold", "JCT(s)", "Prefetches", "Wasted"]);
    let mut base = SimConfig::new(ctx.cluster.with_cache(cache)).with_seed(ctx.seed);
    base.max_prefetch_per_node = usize::MAX;
    // (label, threshold, adaptive) in presentation order.
    let cases = [
        ("fixed 0.05", 0.05f64, false),
        ("fixed 0.25", 0.25, false),
        ("fixed 0.60", 0.6, false),
        ("adaptive (from 0.05)", 0.05, true),
        ("adaptive (from 0.25)", 0.25, true),
    ];
    let rows = pool_map(&cases, threads, |_, &(label, thr, adaptive)| {
        let mut cfg = base.clone();
        cfg.prefetch_threshold = thr;
        cfg.adaptive_threshold = adaptive;
        let r = run_mrd(
            &spec,
            &plan,
            cfg,
            MrdConfig {
                prefetch_horizon: 0,
                ..Default::default()
            },
        );
        [
            label.to_string(),
            format!("{:.1}", r.jct_secs()),
            r.stats.prefetches.to_string(),
            r.stats.wasted_prefetches.to_string(),
        ]
    });
    for row in rows {
        t.row(row);
    }
    let _ = writeln!(out, "{}", t.render());
    let _ = writeln!(
        out,
        "Lower thresholds force far more wasteful prefetch-evictions; the adaptive rule\nrecovers even from a bad initial setting — the paper's future-work item.\n"
    );

    // --- 5. Vertex storage level -------------------------------------------
    let _ = writeln!(
        out,
        "Ablation 5: MEMORY_AND_DISK vs MEMORY_ONLY cached data (CC, full MRD vs LRU)\n"
    );
    let mut t = TextTable::new([
        "Storage",
        "LRU JCT(s)",
        "MRD JCT(s)",
        "Normalized",
        "LRU recomputes",
    ]);
    let variants = [false, true];
    let rows = pool_map(&variants, threads, |_, &memory_only| {
        let mut spec = Workload::ConnectedComponents.build(&ctx.params);
        if memory_only {
            for r in &mut spec.rdds {
                if r.storage.is_cached() {
                    r.storage = StorageLevel::MemoryOnly;
                }
            }
        }
        let plan = AppPlan::build(&spec);
        let cache = cache_for_fraction(&spec, &ctx.cluster, 0.4).max(1);
        let cfg = SimConfig::new(ctx.cluster.with_cache(cache)).with_seed(ctx.seed);
        let mut lru_p = PolicySpec::Lru.build(None);
        let lru =
            Simulation::new(&spec, &plan, ProfileMode::Recurring, cfg.clone()).run(&mut *lru_p);
        let mrd = run_mrd(&spec, &plan, cfg, MrdConfig::default());
        [
            if memory_only {
                "MEMORY_ONLY"
            } else {
                "MEMORY_AND_DISK"
            }
            .to_string(),
            format!("{:.1}", lru.jct_secs()),
            format!("{:.1}", mrd.jct_secs()),
            format!("{:.2}", mrd.normalized_jct(&lru)),
            lru.stats.recomputes.to_string(),
        ]
    });
    for row in rows {
        t.row(row);
    }
    let _ = writeln!(out, "{}", t.render());
    let _ = writeln!(
        out,
        "Under MEMORY_ONLY every bad eviction becomes a recompute cascade —\nthe regime where eviction policy matters most (and prefetch least)."
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_ctx() -> ExpContext {
        let mut ctx = ExpContext::main().quick();
        ctx.params.partitions = 8;
        ctx.params.scale = 0.02;
        ctx.cluster.nodes = 4;
        ctx
    }

    #[test]
    fn fig2_text_renders_metric_cells() {
        let out = fig2_text(&tiny_ctx());
        assert!(out.contains("Figure 2"));
        assert!(out.contains("inf"));
    }

    #[test]
    fn table1_text_covers_both_suites() {
        let out = table1_text(&tiny_ctx(), 2);
        assert!(out.contains("-- HiBench --"));
        for &w in Workload::sparkbench() {
            assert!(out.contains(w.short_name()), "missing {}", w.short_name());
        }
    }

    #[test]
    fn fig5_text_reports_improvements() {
        let mut ctx = tiny_ctx();
        ctx.cluster = refdist_cluster::ClusterConfig::lrc_cluster();
        ctx.cluster.nodes = 4;
        let out = fig5_text(&ctx, &SweepOptions::default().threads(2));
        assert!(out.contains("Figure 5"));
        assert!(out.contains("MRD improves on LRC"));
    }
}
