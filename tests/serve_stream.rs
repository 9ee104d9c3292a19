//! Long-stream serve smoke tests (tier-1): the streaming driver must hold
//! its two load-bearing promises at four-digit stream lengths —
//!
//! 1. **Equivalence**: a streaming run is byte-identical to the
//!    build-everything-upfront reference on the same stream (reports,
//!    completions, eviction matrix, summary).
//! 2. **O(active) state**: the slot arena's high-water mark tracks *peak
//!    concurrency*, not stream length — retired submissions' slot ranges
//!    are recycled into later admissions.

use refdist::cluster::{
    ArrivalProcess, ClusterConfig, QuotaKind, ServeConfig, ServeReport, ServeSched, ServeSim,
    SimConfig,
};
use refdist::prelude::*;

/// A small two-job iterative app: one cached RDD reused by both jobs.
fn little_app(parts: u32) -> AppSpec {
    let block = 64 * 1024;
    let mut b = AppBuilder::new("stream-app");
    let input = b.input("in", parts, block, 2_000);
    let data = b.narrow("data", input, block, 5_000);
    b.persist(data, StorageLevel::MemoryAndDisk);
    for i in 0..2 {
        let s = b.shuffle(format!("agg{i}"), &[data], parts, block / 8, 500);
        b.action(format!("job{i}"), s);
    }
    b.build()
}

fn stream_cfg(seed: u64) -> SimConfig {
    let mut cfg = SimConfig::new(ClusterConfig::tiny(2, 512 * 1024));
    cfg.seed = seed;
    cfg.compute_jitter = 0.0;
    cfg.exec_mem_fraction = 0.0;
    cfg
}

fn run(n: usize, tenants: u32, upfront: bool) -> ServeReport {
    let spec = little_app(2);
    let subs: Vec<(&AppSpec, u32)> = (0..n).map(|i| (&spec, i as u32 % tenants)).collect();
    let serve = ServeSim::new(
        &subs,
        ServeConfig {
            sim: stream_cfg(42),
            // Mean gap well below one app's runtime, so submissions overlap
            // and the cache stays contended, but far fewer than `n` apps
            // are ever live at once.
            arrivals: ArrivalProcess::Poisson {
                mean_gap_us: 40_000,
            },
            sched: ServeSched::FairShare,
            quota: QuotaKind::EqualShare,
            upfront,
            intern: true,
            resilience: Default::default(),
        },
    );
    serve.run((0..n).map(|_| PolicyKind::Lru.build()).collect())
}

#[test]
fn thousand_submission_stream_is_bounded_and_equivalent() {
    const N: usize = 1_000;
    let st = run(N, 4, false);
    let up = run(N, 4, true);

    // Equivalence with the upfront reference, field for field (the peak
    // fields differ by design: that is the point of streaming).
    assert_eq!(format!("{:?}", up.reports), format!("{:?}", st.reports));
    assert_eq!(up.arrivals, st.arrivals);
    assert_eq!(up.completions, st.completions);
    assert_eq!(up.tenants, st.tenants);
    assert_eq!(up.cross_evictions, st.cross_evictions);
    assert_eq!(up.makespan, st.makespan);
    assert_eq!(up.summary(), st.summary());
    assert_eq!(up.peak_resident_blocks, st.peak_resident_blocks);
    assert_eq!(up.peak_resident_bytes, st.peak_resident_bytes);

    // The upfront arena holds the whole stream; the streaming arena must
    // track peak concurrency instead. With ~25 stages of work per app and
    // a 40ms mean gap, concurrency stays two orders of magnitude below the
    // stream length — give the bound generous slack so timing tweaks do
    // not make this flaky, while still pinning the O(active) claim.
    assert_eq!(st.reports.len(), N);
    assert!(
        st.peak_active_apps < N as u64 / 10,
        "peak active {} should be far below the stream length {N}",
        st.peak_active_apps
    );
    assert!(
        st.peak_arena_slots < up.peak_arena_slots / 10,
        "streaming arena ({} slots) should be far below the upfront arena \
         ({} slots)",
        st.peak_arena_slots,
        up.peak_arena_slots
    );
    // And the arena actually recycled ranges rather than growing per app:
    // its high-water mark is bounded by what the peak-active cohort needs.
    let slots_per_app = 2; // one cached RDD x two partitions
    assert!(
        st.peak_arena_slots <= (st.peak_active_apps + 1) * slots_per_app,
        "arena {} slots vs {} active apps",
        st.peak_arena_slots,
        st.peak_active_apps
    );
    // Interned admission planned the structure once: 1000 submissions of a
    // single template leave exactly one cache entry, not one per admission.
    assert_eq!(st.distinct_templates, 1);
    assert_eq!(up.distinct_templates, 0); // upfront never interns
}

#[test]
fn template_cache_is_bounded_by_distinct_structures() {
    // A 1k-submission stream cycling through three structurally distinct
    // templates: the cache must hold at most one entry per structure, no
    // matter how long the stream runs. Renaming alone must not split a
    // template.
    const N: usize = 1_000;
    let a = little_app(2);
    let b = little_app(3); // different partition count => different structure
    let mut renamed = little_app(2);
    renamed.name = "same-shape-different-name".into();
    let specs = [&a, &b, &renamed];
    let subs: Vec<(&AppSpec, u32)> = (0..N).map(|i| (specs[i % 3], i as u32 % 4)).collect();
    let serve = ServeSim::new(
        &subs,
        ServeConfig {
            sim: stream_cfg(42),
            arrivals: ArrivalProcess::Poisson {
                mean_gap_us: 40_000,
            },
            sched: ServeSched::FairShare,
            quota: QuotaKind::EqualShare,
            upfront: false,
            intern: true,
            resilience: Default::default(),
        },
    );
    let report = serve.run((0..N).map(|_| PolicyKind::Lru.build()).collect());
    assert_eq!(report.reports.len(), N);
    // `a` and `renamed` share one template; `b` differs structurally.
    assert_eq!(report.distinct_templates, 2);
}

#[test]
fn streaming_and_upfront_agree_on_fifo_and_quotas() {
    // A shorter stream across the other scheduler/quota corner, so tier-1
    // covers both dispatch disciplines end to end.
    let spec = little_app(2);
    let subs: Vec<(&AppSpec, u32)> = (0..64).map(|i| (&spec, i % 3)).collect();
    for quota in [QuotaKind::Unlimited, QuotaKind::Bytes(128 * 1024)] {
        let mk = |upfront: bool| {
            let serve = ServeSim::new(
                &subs,
                ServeConfig {
                    sim: stream_cfg(7),
                    arrivals: ArrivalProcess::Poisson {
                        mean_gap_us: 25_000,
                    },
                    sched: ServeSched::Fifo,
                    quota,
                    upfront,
                    intern: true,
                    resilience: Default::default(),
                },
            );
            serve.run((0..subs.len()).map(|_| PolicyKind::Lru.build()).collect())
        };
        let up = mk(true);
        let st = mk(false);
        assert_eq!(format!("{:?}", up.reports), format!("{:?}", st.reports));
        assert_eq!(up.summary(), st.summary());
        assert!(st.peak_arena_slots <= up.peak_arena_slots);
    }
}
