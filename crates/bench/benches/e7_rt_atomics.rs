//! Experiment E7: the grouped object on real hardware atomics.
//!
//! Benchmarks lock-free vs mutex-based grouped objects under real thread
//! contention, plus the hardware-CAS consensus cell, and prints a
//! throughput-shape table (lock-free should win under contention).

use std::sync::atomic::{AtomicU64, Ordering};

use subconsensus_bench::harness::{BenchmarkId, Criterion};
use subconsensus_bench::{criterion_group, criterion_main};
use subconsensus_rt::{CasConsensus, Grouped, LockFreeGrouped, LockedGrouped};

/// Runs `proposers` threads, each proposing `per_thread` values across
/// many fresh objects; returns the total number of completed proposals.
fn contend<G: Grouped, F: Fn() -> G + Sync>(make: F, proposers: usize, rounds: usize) -> u64 {
    let completed = AtomicU64::new(0);
    for _ in 0..rounds {
        let obj = make();
        std::thread::scope(|s| {
            for t in 0..proposers {
                let obj = &obj;
                let completed = &completed;
                s.spawn(move || {
                    if obj.propose(1 + t as u64).is_some() {
                        completed.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
    }
    completed.load(Ordering::Relaxed)
}

fn bench(c: &mut Criterion) {
    println!("\nE7 — real-atomics grouped object (group 2), shape: lock-free ≥ locked\n");

    let mut g = c.benchmark_group("e7_grouped_contention");
    g.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        g.bench_with_input(
            BenchmarkId::new("lock_free", threads),
            &threads,
            |b, &threads| {
                b.iter(|| contend(|| LockFreeGrouped::new(2, threads.max(2)), threads, 20))
            },
        );
        g.bench_with_input(
            BenchmarkId::new("locked", threads),
            &threads,
            |b, &threads| b.iter(|| contend(|| LockedGrouped::new(2, threads.max(2)), threads, 20)),
        );
    }
    g.finish();

    let mut g = c.benchmark_group("e7_cas_consensus");
    g.sample_size(10);
    for threads in [2usize, 4, 8] {
        g.bench_with_input(
            BenchmarkId::new("propose", threads),
            &threads,
            |b, &proposers| {
                b.iter(|| {
                    let c = CasConsensus::new();
                    std::thread::scope(|s| {
                        for t in 0..proposers {
                            let c = &c;
                            s.spawn(move || c.propose(1 + t as u64));
                        }
                    });
                    c.read()
                })
            },
        );
    }
    g.finish();

    // Single-thread hot path.
    c.bench_function("e7_lock_free_solo_propose", |b| {
        b.iter_with_setup(
            || LockFreeGrouped::new(4, 1024),
            |obj| {
                for v in 1..=1024u64 {
                    let _ = obj.propose(v);
                }
                obj
            },
        )
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
