//! End-to-end benchmark of the refdist simulator.
//!
//! One invocation runs one workload (see [`workloads`]) for a fixed host
//! time and prints, as its last stdout line, one JSON object with the
//! end-to-end metrics (`--trace 0`) or the per-layer split (`--trace 1`).
//! Every number is either *host* time (what the simulator costs) or *sim*
//! time (what the modelled cluster would take); sim metrics and every
//! per-layer count are deterministic for a given seed.
//!
//! The simulator is reached only through its public API. Before any number
//! is printed the run checks the simulated output (`check_runs`,
//! `check_output`) and exits non-zero when a check fails.

pub mod timer;
pub mod workloads;

use refdist_bench::{pool_map, PolicySpec};
use refdist_cluster::{FaultStats, RunReport, SchedStats, ServeReport, ServeSim, Simulation};
use refdist_core::AppProfiler;
use refdist_dag::{remap_plan, remap_profile, AppSpec, TemplateCache};
use refdist_store::CacheStats;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use timer::{HookStats, Sink, Timed};
use workloads::{Kind, WorkloadDef};

/// End-to-end metrics, printed by `--trace 0`, with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("sim_tasks_per_s", "tasks/s"),
    ("cell_ms_p50", "ms"),
    ("cell_ms_p95", "ms"),
    ("subs_per_s", "subs/s"),
    ("peak_rss_mb", "MB"),
    ("sim_jct_s", "s"),
    ("mrd_jct_vs_lru", "ratio"),
    ("mrd_jct_vs_evict_only", "ratio"),
    ("jct_p50_s", "s"),
    ("jct_p99_s", "s"),
    ("slo_met_frac", "fraction"),
    ("served_frac", "fraction"),
];

/// Per-layer metrics, printed by `--trace 1`, with their units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.build_s", "s"),
    ("dag.plan_s", "s"),
    ("core.profile_s", "s"),
    ("dag.admission_us_per_sub", "us"),
    ("dag.template_hit_ratio", "ratio"),
    ("dag.admission_share", "fraction"),
    ("policies.victim_s", "s"),
    ("policies.victim_calls", "count"),
    ("policies.victim_candidates", "count"),
    ("policies.victims_returned", "count"),
    ("policies.prefetch_plan_s", "s"),
    ("policies.prefetch_calls", "count"),
    ("policies.prefetch_candidates", "count"),
    ("policies.purge_s", "s"),
    ("policies.purge_candidates", "count"),
    ("policies.bookkeeping_s", "s"),
    ("policies.bookkeeping_calls", "count"),
    ("policies.profile_update_s", "s"),
    ("policies.share", "fraction"),
    ("cluster.engine_self_s", "s"),
    ("cluster.tasks", "count"),
    ("cluster.home_placements", "count"),
    ("cluster.remote_placements", "count"),
    ("cluster.home_ratio", "ratio"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("store.hit_ratio", "ratio"),
    ("store.evictions", "count"),
    ("store.purges", "count"),
    ("store.bytes_evicted", "bytes"),
    ("store.disk_hits", "count"),
    ("store.recomputes", "count"),
    ("store.remote_hits", "count"),
    ("store.prefetches", "count"),
    ("store.prefetch_hits", "count"),
    ("store.wasted_prefetches", "count"),
    ("store.prefetch_useful_ratio", "ratio"),
    ("store.bad_victims", "count"),
    ("serve.peak_active_apps", "count"),
    ("serve.peak_arena_slots", "count"),
    ("serve.peak_resident_blocks", "count"),
    ("serve.distinct_templates", "count"),
    ("serve.cross_evictions", "count"),
    ("serve.queue_p99_s", "s"),
    ("serve.shed", "count"),
    ("serve.app_retries", "count"),
    ("serve.deadline_misses", "count"),
    ("faults.task_failures", "count"),
    ("faults.retries", "count"),
    ("faults.crashes", "count"),
    ("faults.rejoins", "count"),
    ("faults.fault_recomputes", "count"),
    ("faults.spec_launched", "count"),
    ("faults.spec_wins", "count"),
    ("sweep.threads", "count"),
    ("sweep.parallel_efficiency", "ratio"),
    ("report.build_s", "s"),
    ("trace.overhead_frac", "fraction"),
    ("trace.prediction_misses", "count"),
];

/// Command-line arguments.
pub struct Args {
    pub workload: &'static WorkloadDef,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub const USAGE: &str =
    "usage: refdist-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workloads::find(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

// ------------------------------------------------------------------ helpers

/// Nearest-rank percentile of an unsorted sample.
fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((v.len() as f64) * q).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

fn geomean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Stable fingerprint of a report's full debug form: equal fingerprints
/// within one process mean byte-identical reports.
fn fingerprint<T: std::fmt::Debug>(items: &[T]) -> u64 {
    let mut h = DefaultHasher::new();
    for it in items {
        format!("{it:?}").hash(&mut h);
    }
    h.finish()
}

// ------------------------------------------------------------------ passes

/// What one pass produced: a pass is the workload's fixed unit of work
/// (the whole paper grid, the serve streams, one wide run).
enum Output {
    Runs(Vec<RunReport>),
    Serve(Vec<ServeReport>),
}

impl Output {
    fn fingerprint(&self) -> u64 {
        match self {
            Output::Runs(r) => fingerprint(r),
            Output::Serve(s) => fingerprint(s),
        }
    }

    fn reports(&self) -> Box<dyn Iterator<Item = &RunReport> + '_> {
        match self {
            Output::Runs(r) => Box::new(r.iter()),
            Output::Serve(s) => Box::new(s.iter().flat_map(|s| s.reports.iter())),
        }
    }

    fn submissions(&self) -> usize {
        self.reports().count()
    }

    fn tasks(&self) -> u64 {
        self.reports().map(|r| r.tasks).sum()
    }
}

/// Host timings of one pass.
struct Pass {
    /// Wall time of the simulations and their report summaries.
    wall_s: f64,
    /// Host time of each simulation in the pass.
    cell_s: Vec<f64>,
    /// Simulated tasks and submissions of each simulation in the pass.
    cell_work: Vec<(u64, usize)>,
    /// Time spent building report summaries.
    report_s: f64,
    hooks: HookStats,
    /// Which part of the workload the pass ran (a serve stream).
    part: usize,
    tasks: u64,
    subs: usize,
    /// Fingerprint of the pass's reports.
    fingerprint: u64,
    /// The reports themselves, until the phase digests them.
    output: Option<Output>,
}

/// The prepared workload, ready to run passes.
enum Prepared<'a> {
    Sweep(&'a workloads::Sweep),
    Serve(&'a workloads::ServeInputs, &'a [ServeSim<'a>]),
    Wide(&'a workloads::App, &'a Simulation<'a>),
}

/// Sweep worker threads. One: on a host with few cores, a second thread
/// measures its contention with the first, not the simulator.
const SWEEP_THREADS: usize = 1;

fn policy(spec: PolicySpec, sink: Option<&Sink>) -> Box<dyn refdist_policies::CachePolicy> {
    let p = spec.build(None);
    match sink {
        Some(s) => Box::new(Timed::new(p, s)),
        None => p,
    }
}

impl Prepared<'_> {
    /// Independently runnable parts of the workload: one per serve stream.
    fn parts(&self) -> usize {
        match self {
            Prepared::Serve(_, sims) => sims.len(),
            _ => 1,
        }
    }

    /// Run one part of the workload's main configuration, with every policy
    /// wrapped in the hook timer when `traced`.
    fn pass(&self, traced: bool, part: usize) -> Pass {
        let sink: Sink = Arc::new(Mutex::new(HookStats::default()));
        let sink_ref = traced.then_some(&sink);
        let start = Instant::now();
        let (output, cell_s) = match self {
            Prepared::Sweep(sw) => {
                let out: Vec<(RunReport, f64)> = pool_map(&sw.cells, SWEEP_THREADS, |_, c| {
                    let mut p = policy(c.policy, sink_ref);
                    let sim = sw.apps[c.app].simulation(c.cfg.clone());
                    let t = Instant::now();
                    let r = sim.run(&mut *p);
                    (r, t.elapsed().as_secs_f64())
                });
                let (reports, cells) = out.into_iter().unzip();
                (Output::Runs(reports), cells)
            }
            Prepared::Serve(_, sims) => {
                let r = sims[part].run_with(|_| policy(PolicySpec::MrdFull, sink_ref));
                let s = start.elapsed().as_secs_f64();
                (Output::Serve(vec![r]), vec![s])
            }
            Prepared::Wide(_, sim) => {
                let mut p = policy(PolicySpec::Lru, sink_ref);
                let t = Instant::now();
                let r = sim.run(&mut *p);
                let s = t.elapsed().as_secs_f64();
                drop(p);
                (Output::Runs(vec![r]), vec![s])
            }
        };
        let t = Instant::now();
        match &output {
            Output::Runs(rs) => {
                for r in rs {
                    black_box(r.summary());
                }
            }
            Output::Serve(ss) => {
                for s in ss {
                    black_box(s.summary());
                    black_box(s.merged_report().summary());
                }
            }
        }
        let report_s = t.elapsed().as_secs_f64();
        let wall_s = start.elapsed().as_secs_f64();
        let hooks = *sink.lock().expect("no simulation thread panicked");
        let cell_work = match &output {
            Output::Runs(rs) => rs.iter().map(|r| (r.tasks, 1)).collect(),
            Output::Serve(ss) => ss
                .iter()
                .map(|s| (s.reports.iter().map(|r| r.tasks).sum(), s.reports.len()))
                .collect(),
        };
        Pass {
            wall_s,
            cell_s,
            cell_work,
            report_s,
            hooks,
            part,
            tasks: output.tasks(),
            subs: output.submissions(),
            fingerprint: output.fingerprint(),
            output: Some(output),
        }
    }

    /// The same workload under `spec` instead of its main policy, for the
    /// MRD-vs-baseline ratios of the serve and wide workloads (the paper
    /// sweep has every policy in its grid). Serve comparators run the first
    /// [`workloads::COMPARATOR_STREAMS`] streams.
    fn comparator(&self, spec: PolicySpec) -> Output {
        match self {
            Prepared::Sweep(_) => unreachable!("the paper sweep carries its own comparators"),
            Prepared::Serve(_, sims) => Output::Serve(
                sims[..workloads::COMPARATOR_STREAMS]
                    .iter()
                    .map(|s| s.run_with(|_| spec.build(None)))
                    .collect(),
            ),
            Prepared::Wide(_, sim) => Output::Runs(vec![sim.run(&mut *spec.build(None))]),
        }
    }
}

/// Passes of one timed phase.
#[derive(Default)]
struct Phase {
    passes: Vec<Pass>,
    /// Fingerprint of each part's first pass, which every later pass of
    /// that part must reproduce.
    reference: Vec<u64>,
    /// Digest of each part's first pass, in part order.
    digests: Vec<Digest>,
}

impl Phase {
    /// Record a pass, digesting the reports of each part's first pass and
    /// dropping all reports.
    fn push(&mut self, kind: Kind, mut p: Pass) {
        let out = p.output.take().expect("a fresh pass has reports");
        if p.part == self.reference.len() {
            self.reference.push(p.fingerprint);
            self.digests.push(Digest::new(kind, &out));
        }
        self.passes.push(p);
    }

    /// After an untimed warm-up pass of part 0 (the first pass of a
    /// process runs on cold caches and a cold allocator):
    ///
    /// Untraced: run every part once, then cycle through the parts until
    /// `seconds` of host time have been measured. The first cycle gives the
    /// simulated metrics.
    ///
    /// Traced: alternate untraced and traced passes of part 0, so that drift
    /// in the host's speed hits both alike.
    ///
    /// A batch of set-ups runs before every untraced pass (see [`Setups`]).
    /// Returns the untraced and the traced phase.
    fn run(
        prep: &Prepared,
        kind: Kind,
        seconds: f64,
        traced: bool,
        setups: &mut Setups,
    ) -> (Phase, Phase) {
        let (mut plain, mut timed) = (Phase::default(), Phase::default());
        let parts = if traced { 1 } else { prep.parts() };
        drop(prep.pass(false, 0));
        let mut measured = 0.0;
        let mut i = 0;
        while i < parts || measured < seconds {
            setups.batch();
            let p = prep.pass(false, i % parts);
            measured += p.wall_s;
            plain.push(kind, p);
            if traced {
                let p = prep.pass(true, 0);
                measured += p.wall_s;
                timed.push(kind, p);
            }
            i += 1;
        }
        (plain, timed)
    }

    /// The digest of every part's first pass.
    fn digest(&self) -> Digest {
        Digest::merge(&self.digests)
    }

    fn median(&self, f: impl Fn(&Pass) -> f64) -> f64 {
        median(&self.passes.iter().map(f).collect::<Vec<_>>())
    }

    /// Each distinct simulation cell's median host seconds over its repeats
    /// in the phase, with the cell's simulated tasks and submissions.
    fn cell_medians(&self) -> Vec<(f64, u64, usize)> {
        type Repeats = (Vec<f64>, (u64, usize));
        let mut by_cell: std::collections::BTreeMap<(usize, usize), Repeats> = Default::default();
        for p in &self.passes {
            for (i, (&s, &work)) in p.cell_s.iter().zip(&p.cell_work).enumerate() {
                by_cell
                    .entry((p.part, i))
                    .or_insert_with(|| (Vec::new(), work))
                    .0
                    .push(s);
            }
        }
        by_cell
            .into_values()
            .map(|(times, (tasks, subs))| (median(&times), tasks, subs))
            .collect()
    }

    /// Median over passes of simulated tasks per host second.
    fn tasks_per_s(&self) -> f64 {
        self.median(|p| p.tasks as f64 / p.wall_s)
    }

    fn subs(&self) -> usize {
        self.passes.iter().map(|p| p.subs).sum()
    }
}

// ------------------------------------------------------------------ checks

/// Checks that hold for every simulated report. Returns one line per
/// violation.
fn check_runs<'a>(
    kind: Kind,
    reports: impl Iterator<Item = &'a RunReport>,
    shed: &[bool],
) -> Vec<String> {
    let mut bad = Vec::new();
    let fault_free = kind != Kind::ServeChurn;
    for (i, r) in reports.enumerate() {
        let s = &r.stats;
        let node_hits: u64 = r.per_node.iter().map(|n| n.hits).sum();
        let node_misses: u64 = r.per_node.iter().map(|n| n.misses).sum();
        if !r.per_node.is_empty() && (node_hits != s.hits || node_misses != s.misses) {
            bad.push(format!(
                "run {i}: hits + misses = {} + {} but the nodes saw {node_hits} + {node_misses}",
                s.hits, s.misses
            ));
        }
        if s.disk_hits + s.recomputes > s.misses || s.prefetch_hits > s.hits {
            bad.push(format!(
                "run {i}: cache sub-counters exceed their totals: {s:?}"
            ));
        }
        if s.bad_victims != 0 {
            bad.push(format!("run {i}: {} bad victim selections", s.bad_victims));
        }
        if fault_free && r.aborted.is_some() {
            bad.push(format!(
                "run {i}: aborted on a fault-free workload: {:?}",
                r.aborted
            ));
        }
        if shed.get(i).copied().unwrap_or(false) && r.tasks != 0 {
            bad.push(format!("run {i}: shed but ran {} tasks", r.tasks));
        }
        // Pressure evictions only: MRD's end-of-life purges are not pressure.
        if kind == Kind::WideCluster && s.evictions != 0 {
            bad.push(format!(
                "run {i}: wide_cluster evicted {} blocks; its cache must hold the dataset",
                s.evictions
            ));
        }
    }
    bad
}

/// Shed flag of every submission of a serve stream.
fn shed_flags(s: &ServeReport) -> Vec<bool> {
    match &s.resilience {
        Some(r) => r.shed.clone(),
        None => vec![false; s.reports.len()],
    }
}

/// Checks of one pass's whole output.
fn check_output(kind: Kind, out: &Output) -> Vec<String> {
    match out {
        Output::Runs(rs) => check_runs(kind, rs.iter(), &[]),
        Output::Serve(ss) => {
            let mut bad = Vec::new();
            for s in ss {
                let n = s.reports.len();
                let shed = shed_flags(s);
                bad.extend(check_runs(kind, s.reports.iter(), &shed));
                let shed_n = shed.iter().filter(|&&x| x).count();
                let aborted = s.reports.iter().filter(|r| r.aborted.is_some()).count();
                let completed = (0..n)
                    .filter(|&i| {
                        !shed[i] && s.reports[i].aborted.is_none() && s.reports[i].tasks > 0
                    })
                    .count();
                if completed + shed_n + aborted != n {
                    bad.push(format!(
                        "completed {completed} + shed {shed_n} + aborted {aborted} != submitted {n}"
                    ));
                }
            }
            bad
        }
    }
}

// ------------------------------------------------------------------ metrics

/// A named metric value with its unit.
pub type Metrics = Vec<(&'static str, f64, &'static str)>;

fn push(m: &mut Metrics, table: &[(&'static str, &'static str)], name: &'static str, v: f64) {
    let unit = table
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric {name} is not declared"));
    m.push((name, v, unit));
}

/// Serve-layer counts (zero for non-serve workloads).
#[derive(Default, Clone)]
struct ServeLayer {
    peak_active_apps: u64,
    peak_arena_slots: u64,
    peak_resident_blocks: u64,
    distinct_templates: u64,
    cross_evictions: u64,
    shed: u64,
    app_retries: u64,
    deadline_misses: u64,
}

/// What the metrics need from one part's reports. A part is digested as
/// soon as it first runs and its reports are dropped, so that the peak
/// memory the benchmark reports is the simulator's, not retained reports'.
#[derive(Default, Clone)]
struct Digest {
    /// JCT of every solo run in order, seconds (the paper sweep's cells).
    run_jcts: Vec<f64>,
    /// Completion minus arrival of each completed submission, seconds.
    jcts: Vec<f64>,
    submissions: usize,
    /// Completed submissions that met their deadline (all of them when no
    /// deadline applies).
    met: usize,
    /// Sum of solo JCTs and serve makespans, seconds.
    jct_total_s: f64,
    stats: CacheStats,
    sched: SchedStats,
    faults: FaultStats,
    serve: ServeLayer,
    /// Queue delay of each admitted serve submission, seconds.
    queue_s: Vec<f64>,
    /// Failed output checks.
    failures: Vec<String>,
}

impl Digest {
    fn new(kind: Kind, out: &Output) -> Digest {
        let mut d = Digest {
            failures: check_output(kind, out),
            ..Digest::default()
        };
        for r in out.reports() {
            d.stats.merge(&r.stats);
            d.sched.home_placements += r.sched.home_placements;
            d.sched.remote_placements += r.sched.remote_placements;
            d.faults.merge(&r.faults);
        }
        match out {
            Output::Runs(rs) => {
                for r in rs {
                    d.run_jcts.push(r.jct_secs());
                    d.jct_total_s += r.jct_secs();
                    d.submissions += 1;
                    if r.aborted.is_none() {
                        d.jcts.push(r.jct_secs());
                        d.met += 1;
                    }
                }
            }
            Output::Serve(ss) => {
                for s in ss {
                    d.add_stream(s);
                }
            }
        }
        d
    }

    fn add_stream(&mut self, s: &ServeReport) {
        let l = &mut self.serve;
        l.peak_active_apps = l.peak_active_apps.max(s.peak_active_apps);
        l.peak_arena_slots = l.peak_arena_slots.max(s.peak_arena_slots);
        l.peak_resident_blocks = l.peak_resident_blocks.max(s.peak_resident_blocks);
        l.distinct_templates = l.distinct_templates.max(s.distinct_templates as u64);
        for (i, row) in s.cross_evictions.iter().enumerate() {
            for (j, &c) in row.iter().enumerate() {
                if i != j {
                    l.cross_evictions += c;
                }
            }
        }
        self.jct_total_s += s.makespan.as_secs_f64();
        let res = s.resilience.as_ref();
        if let Some(r) = res {
            l.shed += r.shed_count();
            l.app_retries += r.total_retries();
        }
        for i in 0..s.reports.len() {
            self.submissions += 1;
            let shed = res.is_some_and(|r| r.shed[i]);
            let met = res.and_then(|r| r.met_deadline(i, s.arrivals[i], s.completions[i]));
            if let Some(r) = res.filter(|_| !shed) {
                self.queue_s.push(r.queue_delay_us[i] as f64 / 1e6);
            }
            if met == Some(false) {
                self.serve.deadline_misses += 1;
            }
            if shed || s.reports[i].aborted.is_some() {
                continue;
            }
            self.jcts
                .push(s.completions[i].saturating_sub(s.arrivals[i]) as f64 / 1e6);
            if met != Some(false) {
                self.met += 1;
            }
        }
    }

    fn merge<'a>(ds: impl IntoIterator<Item = &'a Digest>) -> Digest {
        let mut m = Digest::default();
        for d in ds {
            m.run_jcts.extend(&d.run_jcts);
            m.jcts.extend(&d.jcts);
            m.submissions += d.submissions;
            m.met += d.met;
            m.jct_total_s += d.jct_total_s;
            m.stats.merge(&d.stats);
            m.sched.home_placements += d.sched.home_placements;
            m.sched.remote_placements += d.sched.remote_placements;
            m.faults.merge(&d.faults);
            let (l, o) = (&mut m.serve, &d.serve);
            l.peak_active_apps = l.peak_active_apps.max(o.peak_active_apps);
            l.peak_arena_slots = l.peak_arena_slots.max(o.peak_arena_slots);
            l.peak_resident_blocks = l.peak_resident_blocks.max(o.peak_resident_blocks);
            l.distinct_templates = l.distinct_templates.max(o.distinct_templates);
            l.cross_evictions += o.cross_evictions;
            l.shed += o.shed;
            l.app_retries += o.app_retries;
            l.deadline_misses += o.deadline_misses;
            m.queue_s.extend(&d.queue_s);
            m.failures.extend(d.failures.iter().cloned());
        }
        m
    }

    fn mean_jct(&self) -> f64 {
        self.jcts.iter().sum::<f64>() / self.jcts.len().max(1) as f64
    }
}

/// Geomean over (workload, fraction) of `num` JCT / `den` JCT in the paper
/// sweep.
fn sweep_ratio(sw: &workloads::Sweep, jcts: &[f64], num: PolicySpec, den: PolicySpec) -> f64 {
    let mut ratios = Vec::new();
    for (ci, c) in sw.cells.iter().enumerate() {
        if c.policy != num {
            continue;
        }
        let base = sw
            .cells
            .iter()
            .position(|d| d.app == c.app && d.fraction == c.fraction && d.policy == den)
            .expect("every (workload, fraction) pair runs every policy");
        ratios.push(jcts[ci] / jcts[base]);
    }
    geomean(&ratios)
}

/// The end-to-end metrics of an untraced run, and the failed checks of its
/// comparator runs.
fn end_to_end(
    kind: Kind,
    prep: &Prepared,
    setup_s: f64,
    phase: &Phase,
) -> Result<(Metrics, Vec<String>), String> {
    // Read before the comparator runs, so that it is the peak of the
    // workload's own configuration.
    let rss_mb = peak_rss_mb()?;
    let d = phase.digest();
    // Host metrics come from each cell's median over its repeats, which a
    // burst of contention on the host moves less than it moves a whole pass.
    let cells = phase.cell_medians();
    let cell_ms: Vec<f64> = cells.iter().map(|c| c.0 * 1e3).collect();
    let host_s: f64 = cells.iter().map(|c| c.0).sum();
    let tasks: u64 = cells.iter().map(|c| c.1).sum();
    let subs: usize = cells.iter().map(|c| c.2).sum();
    let mut bad = Vec::new();
    let (vs_lru, vs_evict) = match prep {
        Prepared::Sweep(sw) => (
            sweep_ratio(sw, &d.run_jcts, PolicySpec::MrdFull, PolicySpec::Lru),
            sweep_ratio(sw, &d.run_jcts, PolicySpec::MrdFull, PolicySpec::MrdEvict),
        ),
        _ => {
            let lru = Digest::new(kind, &prep.comparator(PolicySpec::Lru));
            let evict = Digest::new(kind, &prep.comparator(PolicySpec::MrdEvict));
            bad.extend(lru.failures.iter().chain(&evict.failures).cloned());
            // Serve comparators replay a prefix of the streams: compare like
            // with like.
            let parts = match prep {
                Prepared::Serve(..) => workloads::COMPARATOR_STREAMS,
                _ => 1,
            };
            let mrd = Digest::merge(&phase.digests[..parts]).mean_jct();
            (ratio(mrd, lru.mean_jct()), ratio(mrd, evict.mean_jct()))
        }
    };
    let mut m = Metrics::new();
    let mut put = |name, v| push(&mut m, END_TO_END, name, v);
    put("setup_s", setup_s);
    put("sim_tasks_per_s", tasks as f64 / host_s);
    put("cell_ms_p50", percentile(&cell_ms, 0.5));
    put("cell_ms_p95", percentile(&cell_ms, 0.95));
    put("subs_per_s", subs as f64 / host_s);
    put("peak_rss_mb", rss_mb);
    put("sim_jct_s", d.jct_total_s);
    put("mrd_jct_vs_lru", vs_lru);
    put("mrd_jct_vs_evict_only", vs_evict);
    let n = d.submissions as f64;
    put("jct_p50_s", percentile(&d.jcts, 0.5));
    put("jct_p99_s", percentile(&d.jcts, 0.99));
    put("slo_met_frac", d.met as f64 / n);
    put("served_frac", d.jcts.len() as f64 / n);
    Ok((m, bad))
}

/// The submission sequence a traced pass (part 0) admits, with each
/// submission's RDD-id offset: the input of the admission replay.
fn admissions<'a>(prep: &'a Prepared) -> Vec<(&'a AppSpec, u32)> {
    match prep {
        Prepared::Sweep(sw) => sw.cells.iter().map(|c| (&sw.apps[c.app].spec, 0)).collect(),
        Prepared::Serve(inputs, sims) => {
            let map = sims[0].tenant_map();
            inputs
                .order
                .iter()
                .enumerate()
                .map(|(i, &t)| (&inputs.specs[t], map.offset(i)))
                .collect()
        }
        Prepared::Wide(app, _) => vec![(&app.spec, 0)],
    }
}

/// Replays template-interned admission (`TemplateCache::intern`, rebase,
/// profiler) over a submission sequence, one template cache per pass as in
/// the simulator. Returns the median host microseconds per submission and
/// the number of distinct templates.
fn admission_replay(subs: &[(&AppSpec, u32)]) -> (f64, usize) {
    let mut per_sub = Vec::new();
    let mut distinct = 0;
    let start = Instant::now();
    while per_sub.len() < 5 || (start.elapsed().as_secs_f64() < 0.2 && per_sub.len() < 1000) {
        let t = Instant::now();
        let mut cache = TemplateCache::new();
        for &(spec, off) in subs {
            let tpl = cache.intern(spec);
            black_box(remap_plan(&tpl.plan, off));
            black_box(AppProfiler::from_shared(
                spec.name.clone(),
                remap_profile(&tpl.profile, off),
            ));
        }
        per_sub.push(t.elapsed().as_secs_f64() * 1e6 / subs.len() as f64);
        distinct = cache.len();
    }
    (median(&per_sub), distinct)
}

/// The per-layer split of a traced run; informational lines (predictions,
/// the largest layer) go to `lines`.
fn per_layer(
    def: &WorkloadDef,
    prep: &Prepared,
    setup: &workloads::SetupTimes,
    untraced: &Phase,
    traced: &Phase,
    lines: &mut Vec<String>,
) -> Metrics {
    let d = traced.digest();
    let h = &traced.passes[0].hooks;
    let ns = |v: u64| v as f64 / 1e9;
    let cell_sum = |p: &Pass| p.cell_s.iter().sum::<f64>();
    let victim_s = traced.median(|p| ns(p.hooks.victim_ns));
    let prefetch_s = traced.median(|p| ns(p.hooks.prefetch_ns));
    let purge_s = traced.median(|p| ns(p.hooks.purge_ns));
    let bookkeeping_s = traced.median(|p| ns(p.hooks.bookkeeping_ns));
    let profile_s = traced.median(|p| ns(p.hooks.profile_ns));
    let hooks_share = traced.median(|p| ns(p.hooks.hook_ns()) / cell_sum(p));
    let engine_self_s = traced.median(|p| cell_sum(p) - ns(p.hooks.hook_ns()));
    let report_s = traced.median(|p| p.report_s);
    let threads = match prep {
        Prepared::Sweep(_) => SWEEP_THREADS,
        _ => 1,
    };
    let efficiency = untraced.median(|p| cell_sum(p) / (p.wall_s * threads as f64));

    let subs = admissions(prep);
    let (adm_us, distinct) = admission_replay(&subs);
    let adm_s = adm_us * 1e-6 * subs.len() as f64;
    let adm_share = adm_s / untraced.median(cell_sum);
    let overhead = 1.0 - traced.tasks_per_s() / untraced.tasks_per_s();

    let (stats, sched, faults, sl) = (&d.stats, &d.sched, &d.faults, &d.serve);

    // Checked predictions: zero victim and prefetch work on wide_cluster;
    // on serve_churn, admission under 1% of the run and victim selection the
    // largest policy hook.
    let mut checks: Vec<(bool, String)> = Vec::new();
    match def.kind {
        Kind::WideCluster => checks.push((
            h.victim_calls == 0 && h.prefetch_calls == 0,
            format!(
                "zero victim-selection and prefetch work ({} victim calls, {} prefetch calls)",
                h.victim_calls, h.prefetch_calls
            ),
        )),
        Kind::ServeChurn => checks.push((
            adm_share < 0.01,
            format!("admission under 1% of the run ({:.4}%)", adm_share * 100.0),
        )),
        _ => {}
    }

    let layers = [
        ("policies.victim", victim_s),
        ("policies.prefetch_plan", prefetch_s),
        ("policies.purge", purge_s),
        ("policies.bookkeeping", bookkeeping_s),
        ("policies.profile_update", profile_s),
        ("cluster.engine_self", engine_self_s),
        ("dag.admission", adm_s),
        ("report.build", report_s),
    ];
    let total: f64 = layers.iter().map(|l| l.1).sum();
    let largest = layers
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("layers are listed");
    let hook = layers[..5]
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("hook layers are listed");
    lines.push(format!(
        "largest layer on {}: {} ({:.1}% of the traced pass); largest policy hook: {} ({:.1}%)",
        def.name,
        largest.0,
        100.0 * largest.1 / total,
        hook.0,
        100.0 * hook.1 / total
    ));
    if def.kind == Kind::ServeChurn {
        checks.push((
            hook.0 == "policies.victim",
            format!(
                "victim selection is the largest policy hook (it is {})",
                hook.0
            ),
        ));
    }
    for (holds, what) in &checks {
        let verdict = if *holds { "holds" } else { "DOES NOT HOLD" };
        lines.push(format!("prediction {}: {what}: {verdict}", def.name));
    }
    let misses = checks.iter().filter(|c| !c.0).count();
    for p in def.predictions {
        lines.push(format!("predicted on {}: {p}", def.name));
    }

    let mut m = Metrics::new();
    let mut put = |name, v| push(&mut m, PER_LAYER, name, v);
    let c = |v: u64| v as f64;
    put("workloads.build_s", setup.build_s);
    put("dag.plan_s", setup.plan_s);
    put("core.profile_s", setup.profile_s);
    put("dag.admission_us_per_sub", adm_us);
    put(
        "dag.template_hit_ratio",
        1.0 - distinct as f64 / subs.len() as f64,
    );
    put("dag.admission_share", adm_share);
    put("policies.victim_s", victim_s);
    put("policies.victim_calls", c(h.victim_calls));
    put("policies.victim_candidates", c(h.victim_candidates));
    put("policies.victims_returned", c(h.victims_returned));
    put("policies.prefetch_plan_s", prefetch_s);
    put("policies.prefetch_calls", c(h.prefetch_calls));
    put("policies.prefetch_candidates", c(h.prefetch_candidates));
    put("policies.purge_s", purge_s);
    put("policies.purge_candidates", c(h.purge_candidates));
    put("policies.bookkeeping_s", bookkeeping_s);
    put("policies.bookkeeping_calls", c(h.bookkeeping_calls));
    put("policies.profile_update_s", profile_s);
    put("policies.share", hooks_share);
    put("cluster.engine_self_s", engine_self_s);
    put("cluster.tasks", c(traced.passes[0].tasks));
    put("cluster.home_placements", c(sched.home_placements));
    put("cluster.remote_placements", c(sched.remote_placements));
    put(
        "cluster.home_ratio",
        ratio(
            c(sched.home_placements),
            c(sched.home_placements + sched.remote_placements),
        ),
    );
    put("store.hits", c(stats.hits));
    put("store.misses", c(stats.misses));
    put("store.hit_ratio", stats.hit_ratio());
    put("store.evictions", c(stats.evictions));
    put("store.purges", c(stats.purges));
    put("store.bytes_evicted", c(stats.bytes_evicted));
    put("store.disk_hits", c(stats.disk_hits));
    put("store.recomputes", c(stats.recomputes));
    put("store.remote_hits", c(stats.remote_hits));
    put("store.prefetches", c(stats.prefetches));
    put("store.prefetch_hits", c(stats.prefetch_hits));
    put("store.wasted_prefetches", c(stats.wasted_prefetches));
    put(
        "store.prefetch_useful_ratio",
        ratio(c(stats.prefetch_hits), c(stats.prefetches)),
    );
    put("store.bad_victims", c(stats.bad_victims));
    put("serve.peak_active_apps", c(sl.peak_active_apps));
    put("serve.peak_arena_slots", c(sl.peak_arena_slots));
    put("serve.peak_resident_blocks", c(sl.peak_resident_blocks));
    put("serve.distinct_templates", c(sl.distinct_templates));
    put("serve.cross_evictions", c(sl.cross_evictions));
    put("serve.queue_p99_s", percentile(&d.queue_s, 0.99));
    put("serve.shed", c(sl.shed));
    put("serve.app_retries", c(sl.app_retries));
    put("serve.deadline_misses", c(sl.deadline_misses));
    put("faults.task_failures", c(faults.task_failures));
    put("faults.retries", c(faults.retries));
    put("faults.crashes", c(faults.crashes));
    put("faults.rejoins", c(faults.rejoins));
    put("faults.fault_recomputes", c(faults.fault_recomputes));
    put("faults.spec_launched", c(faults.spec_launched));
    put("faults.spec_wins", c(faults.spec_wins));
    put("sweep.threads", threads as f64);
    put("sweep.parallel_efficiency", efficiency);
    put("report.build_s", report_s);
    put("trace.overhead_frac", overhead);
    put("trace.prediction_misses", misses as f64);
    m
}

// ------------------------------------------------------------------ run

/// The result line: every metric by name with its unit.
pub fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// The workload's set-up, repeated in batches spread over the whole run,
/// so that its median sees the same host as the timed passes. Serve and
/// wide set-ups take about 0.1 ms, so thousands of repeats are what makes
/// their median repeat from run to run.
struct Setups<'a> {
    setup: &'a mut dyn FnMut() -> workloads::SetupTimes,
    times: Vec<workloads::SetupTimes>,
}

impl Setups<'_> {
    /// Host seconds of one batch: at least one set-up.
    const BATCH_S: f64 = 0.05;

    fn batch(&mut self) {
        let start = Instant::now();
        loop {
            self.times.push((self.setup)());
            if start.elapsed().as_secs_f64() >= Self::BATCH_S {
                return;
            }
        }
    }

    /// The median of each set-up step over every repeat.
    fn medians(&self) -> workloads::SetupTimes {
        let med = |g: fn(&workloads::SetupTimes) -> f64| {
            median(&self.times.iter().map(g).collect::<Vec<_>>())
        };
        workloads::SetupTimes {
            build_s: med(|t| t.build_s),
            plan_s: med(|t| t.plan_s),
            profile_s: med(|t| t.profile_s),
            total_s: med(|t| t.total_s),
        }
    }
}

/// What a run printed: informational lines, then the result.
pub struct RunOutput {
    pub lines: Vec<String>,
    pub correct: bool,
    pub attempted: usize,
    pub failures: Vec<String>,
    pub metrics: Metrics,
}

/// Run one benchmark invocation.
pub fn run(args: &Args) -> Result<RunOutput, String> {
    let seed = args.seed;
    match args.workload.kind {
        Kind::PaperSweep => {
            let (sw, _) = workloads::sweep_setup(seed);
            let setup = &mut || workloads::sweep_setup(seed).1;
            measure(args, &Prepared::Sweep(&sw), setup)
        }
        Kind::ServeChurn => {
            let (inputs, _) = workloads::serve_setup(seed);
            let sims = inputs.sims();
            let setup = &mut || workloads::serve_setup(seed).1;
            measure(args, &Prepared::Serve(&inputs, &sims), setup)
        }
        Kind::WideCluster => {
            let (app, cfg, _) = workloads::wide_setup(seed);
            let sim = app.simulation(cfg);
            let setup = &mut || workloads::wide_setup(seed).2;
            measure(args, &Prepared::Wide(&app, &sim), setup)
        }
    }
}

fn measure(
    args: &Args,
    prep: &Prepared,
    setup: &mut dyn FnMut() -> workloads::SetupTimes,
) -> Result<RunOutput, String> {
    let kind = args.workload.kind;
    let mut lines = Vec::new();
    let mut setups = Setups {
        setup,
        times: Vec::new(),
    };
    let (phases, metrics, mut failures) = if args.trace {
        let (untraced, traced) = Phase::run(prep, kind, args.seconds, true, &mut setups);
        let setup = setups.medians();
        let m = per_layer(args.workload, prep, &setup, &untraced, &traced, &mut lines);
        let mut bad = Vec::new();
        let counts = traced.passes[0].hooks.counts();
        if traced.passes.iter().any(|p| p.hooks.counts() != counts) {
            bad.push("hook counts differ between identical traced passes".to_string());
        }
        let hits = traced.digest().stats.hits;
        if hits != counts.access_calls {
            bad.push(format!(
                "the policies saw {} accesses but the store counted {hits} hits",
                counts.access_calls
            ));
        }
        (vec![untraced, traced], m, bad)
    } else {
        let (phase, _) = Phase::run(prep, kind, args.seconds, false, &mut setups);
        let (m, bad) = end_to_end(kind, prep, setups.medians().total_s, &phase)?;
        (vec![phase], m, bad)
    };
    // Every pass, traced or not, must reproduce the first pass of its part.
    let reference = &phases[0].reference;
    for phase in &phases {
        failures.extend(phase.digest().failures);
        if phase
            .passes
            .iter()
            .any(|p| p.fingerprint != reference[p.part])
        {
            failures.push(
                "the same seed gave different reports within one process, \
                 or the traced run's reports differ from the untraced run's"
                    .into(),
            );
        }
    }
    let attempted = phases.iter().map(Phase::subs).sum();
    Ok(RunOutput {
        lines,
        correct: failures.is_empty(),
        attempted,
        failures,
        metrics,
    })
}
