//! Event-queue micro-benchmarks: the calendar queue on the schedule shapes
//! the simulator actually produces. `fill_drain` is the speculation pattern (schedule a whole
//! stage's completions, then pop them all), `interleaved` is the steady
//! hold-one-schedule-one regime of a long event loop, and the schedules
//! cover uniform offsets, bursty same-instant floods, and serve-style
//! arrival gaps with far-future outliers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use refdist_simcore::{EventQueue, SimTime};
use std::hint::black_box;

/// SplitMix64 — deterministic schedules without pulling a rand dependency
/// into the bench crate.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Per-event scheduling offsets (added to the queue's virtual `now`).
fn schedule(shape: &str, n: usize) -> Vec<u64> {
    let mut s = 0x5eed_0000 + n as u64;
    (0..n)
        .map(|i| match shape {
            // Uniformly random short offsets: dense days.
            "uniform" => splitmix(&mut s) % 10_000,
            // Floods of same-instant events with occasional jumps: the
            // FIFO-tie-break stress case.
            "bursty" => {
                if i.is_multiple_of(64) {
                    splitmix(&mut s) % 100_000
                } else {
                    0
                }
            }
            // Serve-style arrivals: geometric-ish gaps plus rare far-future
            // outliers that force the calendar's sparse-lap jump.
            "arrivals" => {
                let r = splitmix(&mut s);
                if r.is_multiple_of(257) {
                    1 << 28
                } else {
                    r % 200_000
                }
            }
            _ => unreachable!("unknown schedule shape"),
        })
        .collect()
}

/// Schedule `n` events, then drain the queue dry (the speculation pattern),
/// at 10k and 250k events.
fn bench_fill_drain(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue/fill_drain");
    for n in [10_000usize, 250_000] {
        for shape in ["uniform", "bursty", "arrivals"] {
            let offsets = schedule(shape, n);
            group.throughput(Throughput::Elements(n as u64));
            group.bench_with_input(
                BenchmarkId::new("calendar", format!("{shape}/{n}")),
                &offsets,
                |b, offsets| {
                    let mut q = EventQueue::new();
                    b.iter(|| {
                        q.clear();
                        for (i, &dt) in offsets.iter().enumerate() {
                            q.schedule(SimTime(q.now().0 + dt), i as u32);
                        }
                        let mut last = 0u64;
                        while let Some((t, p)) = q.pop() {
                            last = t.0 ^ p as u64;
                        }
                        black_box(last)
                    });
                },
            );
        }
    }
    group.finish();
}

/// Keep ~256 events in flight, scheduling one for each pop (the event-loop
/// steady state).
fn bench_interleaved(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue/interleaved");
    let n = 10_000usize;
    let live = 256usize;
    for shape in ["uniform", "arrivals"] {
        let offsets = schedule(shape, n);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(
            BenchmarkId::new("calendar", shape),
            &offsets,
            |b, offsets| {
                let mut q = EventQueue::new();
                b.iter(|| {
                    q.clear();
                    q.reserve(live);
                    let mut acc = 0u64;
                    for (i, &dt) in offsets.iter().enumerate() {
                        q.schedule(SimTime(q.now().0 + dt), i as u32);
                        if q.len() > live {
                            let (t, p) = q.pop().unwrap();
                            acc ^= t.0 ^ p as u64;
                        }
                    }
                    while let Some((t, p)) = q.pop() {
                        acc ^= t.0 ^ p as u64;
                    }
                    black_box(acc)
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_fill_drain, bench_interleaved);
criterion_main!(benches);
