//! E7 (Property 2.1): time to find, exhaustively, the failure of each
//! MIS candidate on C3.

use criterion::{criterion_group, criterion_main, Criterion};
use ftcolor_checker::ModelChecker;
use ftcolor_core::mis::{mis_violation, EagerMis, LocalMaxMis};
use ftcolor_model::Topology;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e7_mis_impossible");
    g.sample_size(10);
    let topo = Topology::cycle(3).unwrap();

    // Claim check once: both candidates fail.
    let o = ModelChecker::new(&LocalMaxMis, &topo, vec![1, 2, 3])
        .with_jobs(1)
        .explore(mis_violation)
        .unwrap();
    assert!(o.safety_violation.is_some() || o.livelock.is_some());

    g.bench_function("localmax_c3_exhaustive", |b| {
        b.iter(|| {
            ModelChecker::new(&LocalMaxMis, &topo, vec![1, 2, 3])
                .with_jobs(1)
                .explore(mis_violation)
                .unwrap()
        });
    });
    g.bench_function("eager_c3_exhaustive", |b| {
        b.iter(|| {
            ModelChecker::new(&EagerMis, &topo, vec![1, 2, 3])
                .with_jobs(1)
                .explore(mis_violation)
                .unwrap()
        });
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
