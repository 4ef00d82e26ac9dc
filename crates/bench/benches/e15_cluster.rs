//! E15 (cluster substrate): throughput of the real-process substrate's
//! deterministic core — the node state machine driven over the wire
//! codec (every frame encoded and re-decoded, as the pipes would), and
//! journal replay of the committed golden trace. The OS-process parts
//! (spawn, SIGKILL, pipe scheduling) are wall-clock-bound and measured
//! by the E2E suite, not Criterion.

use std::collections::VecDeque;
use std::path::Path;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ftcolor_cluster::{replay_trace, ClusterTrace};
use ftcolor_core::FiveColoringPatched;
use ftcolor_model::inputs;
use ftcolor_net::{Body, Frame, NodeCore, ORCHESTRATOR};

/// Drives a ring of `n` in-process [`NodeCore`]s to a full coloring,
/// round-tripping every frame through the JSON wire codec — the
/// cluster substrate minus the operating system. Returns the colors.
fn ring_to_completion(n: usize, seed: u64) -> Vec<Option<u64>> {
    let alg = FiveColoringPatched;
    let ids = inputs::random_unique(n, 10_000, seed);
    let mut queue: VecDeque<Frame> = VecDeque::new();
    let mut cores: Vec<NodeCore<FiveColoringPatched>> = (0..n)
        .map(|i| {
            let mut nb = vec![(i + n - 1) % n, (i + 1) % n];
            nb.sort_unstable();
            NodeCore::new(&alg, i, nb, ids[i])
        })
        .collect();
    let mut out: Vec<Frame> = Vec::new();
    for core in &mut cores {
        core.start(&mut out);
        queue.extend(out.drain(..));
    }
    let mut colors: Vec<Option<u64>> = vec![None; n];
    while let Some(frame) = queue.pop_front() {
        let frame = Frame::decode(&frame.encode()).expect("wire round trip");
        if frame.dest == ORCHESTRATOR {
            if let Body::Decide(d) = &frame.body {
                colors[frame.src] = serde_json::from_value(d.output.clone()).ok();
            }
            continue;
        }
        cores[frame.dest].on_frame(frame, &mut out);
        queue.extend(out.drain(..));
    }
    colors
}

fn golden_trace() -> Option<ClusterTrace> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures/cluster_alg2p_c5_crash.json");
    let text = std::fs::read_to_string(path).ok()?;
    ClusterTrace::from_json(&text).ok()
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e15_cluster");
    g.sample_size(10);

    // Claim check once: the codec-coupled ring still colors properly.
    let colors = ring_to_completion(16, 5);
    assert!(colors.iter().all(|c| matches!(c, Some(0..=4))));
    assert!((0..16).all(|i| colors[i] != colors[(i + 1) % 16]));

    for n in [10usize, 100, 1_000] {
        g.bench_with_input(BenchmarkId::new("core_ring_codec", n), &n, |b, &n| {
            b.iter(|| ring_to_completion(n, 7));
        });
    }

    if let Some(trace) = golden_trace() {
        replay_trace(&FiveColoringPatched, &trace).expect("golden trace replays");
        g.bench_function("replay_golden_c5_crash", |b| {
            b.iter(|| replay_trace(&FiveColoringPatched, &trace).expect("replays"));
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
