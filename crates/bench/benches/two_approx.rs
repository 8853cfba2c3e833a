//! E10/E3 runtime: the Theorem V.2 pipeline (binary search + LP + LST
//! rounding + Algorithms 2+3) as instance size grows.
//!
//! Set `HSCHED_BENCH_LARGE=1` for the scale-axis rows (E11) at
//! m ∈ {100, 256, 1024}; the defaults keep the CI smoke job fast.

use bench::fixtures;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hsched_core::approx::{singleton_times, two_approx};
use hsched_core::lst::{lst_assign, lst_lower_bound};
use laminar::topology;
use workloads::{random, rng};

fn bench_two_approx(c: &mut Criterion) {
    let mut g = c.benchmark_group("two_approx");
    g.sample_size(10);
    let mut sizes = vec![(8usize, 3usize), (16, 4), (24, 6), (32, 8), (50, 20)];
    if std::env::var("HSCHED_BENCH_LARGE").is_ok() {
        sizes.extend([(64, 100), (64, 256), (64, 1024)]);
    }
    for (n, m) in sizes {
        let inst = fixtures::e10_instance(n, m, 7);
        g.bench_with_input(BenchmarkId::from_parameter(format!("n{n}_m{m}")), &inst, |b, inst| {
            b.iter(|| std::hint::black_box(two_approx(inst)))
        });
    }
    g.finish();
}

/// The cold exact rounding alone — `two_approx`'s one exact LP solve,
/// on the offline benchmark's instance shape (n = 48 overhead instance on
/// `semi_partitioned(16)`, at the LST lower bound, which is `T*` there).
fn bench_lst_round(c: &mut Criterion) {
    let mut g = c.benchmark_group("lst_round");
    g.sample_size(10);
    let inst =
        random::overhead_instance(topology::semi_partitioned(16), 48, 1, 20, 1, 4, &mut rng(11))
            .with_singletons();
    let (p, m) = (singleton_times(&inst), inst.num_machines());
    let t = lst_lower_bound(&p, m);
    assert!(lst_assign(&p, m, t).is_some(), "the lower bound is feasible here");
    g.bench_with_input(BenchmarkId::from_parameter("n48_semi16"), &p, |b, p| {
        b.iter(|| std::hint::black_box(lst_assign(p, m, t)))
    });
    g.finish();
}

criterion_group!(benches, bench_two_approx, bench_lst_round);
criterion_main!(benches);
