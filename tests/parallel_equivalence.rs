//! Differential harness: the model checker must be **bit-identical** to
//! a deliberately naive reference oracle (`oracle/mod.rs`, written only
//! against the public `Execution`/`Topology` API) on every instance, at
//! every thread count.
//!
//! The matrix covers the paper's algorithm spectrum — Algorithm 1
//! (wait-free, acyclic graph), Algorithm 2 (the crash livelock),
//! Algorithm 2 patched (infinite space: exercises truncation), and the
//! eager MIS candidate (a genuine safety violation) — over four
//! topologies (C3, C4, C5, and the path P4, whose endpoint processes
//! have degree 1) and thread counts 1, 2, and 8. For every cell we
//! assert *full structural equality* of the outcomes: configuration and
//! edge counts, termination accounting, the safety-violation witness
//! schedule, the livelock witness (prefix and cycle), the first-seen
//! output order, the truncation flag, and the exact worst-case bound.
//!
//! Any divergence — a differently-ordered witness, an off-by-one count,
//! a schedule-dependent merge — fails loudly with the instance and
//! thread count in the message.

mod oracle;

use ftcolor::checker::ModelChecker;
use ftcolor::core::mis::{mis_violation, EagerMis};
use ftcolor::core::{FiveColoring, FiveColoringPatched, SixColoring};
use ftcolor::model::{Algorithm, Topology};
use std::fmt::Debug;
use std::hash::Hash;

const JOB_COUNTS: [usize; 3] = [1, 2, 8];

/// Topologies of the matrix: three cycles and a path (degree-1 ends).
fn topologies() -> Vec<Topology> {
    vec![
        Topology::cycle(3).unwrap(),
        Topology::cycle(4).unwrap(),
        Topology::cycle(5).unwrap(),
        Topology::path(4).unwrap(),
    ]
}

/// IDs for an `n`-process instance: distinct, deliberately non-monotone.
fn ids_for(n: usize) -> Vec<u64> {
    (0..n as u64).map(|i| (i * 7 + 3) % 17).collect()
}

/// Runs the oracle once and the model checker at every thread count,
/// asserting the complete outcomes (and the exact worst-case bounds)
/// are equal.
fn assert_equivalent<A>(
    label: &str,
    alg: &A,
    topo: &Topology,
    cap: usize,
    safety: impl Fn(&Topology, &[Option<A::Output>]) -> Option<String> + Sync + Copy,
) where
    A: Algorithm + Sync,
    A::Input: From<u64> + Clone + Sync,
    A::State: Eq + Hash + Send + Sync,
    A::Reg: Eq + Hash + Send + Sync,
    A::Output: Eq + Hash + Send + Sync + Debug,
{
    let tname = topo.name();
    let ids: Vec<A::Input> = ids_for(topo.len()).into_iter().map(Into::into).collect();
    let (expected, expected_worst) = oracle::check(alg, topo, ids.clone(), cap, safety);
    for jobs in JOB_COUNTS {
        let checker = ModelChecker::new(alg, topo, ids.clone())
            .with_max_configs(cap)
            .with_jobs(jobs);
        let got = checker.explore(safety).unwrap();
        assert_eq!(
            expected, got,
            "{label} on {tname}: outcome diverged from the oracle at jobs={jobs}"
        );
        // Spot-assert the witness components so a future PartialEq
        // change on the outcome struct cannot silently weaken the test.
        assert_eq!(expected.configs, got.configs, "{label}/{tname}/jobs={jobs}");
        assert_eq!(expected.edges, got.edges, "{label}/{tname}/jobs={jobs}");
        assert_eq!(
            expected.safety_violation, got.safety_violation,
            "{label}/{tname}/jobs={jobs}"
        );
        assert_eq!(
            expected.livelock, got.livelock,
            "{label}/{tname}/jobs={jobs}"
        );
        assert_eq!(
            expected.outputs_seen, got.outputs_seen,
            "{label}/{tname}/jobs={jobs}"
        );
        let worst = checker.exact_worst_case().unwrap();
        assert_eq!(
            expected_worst, worst,
            "{label} on {tname}: worst-case bound diverged at jobs={jobs}"
        );
    }
}

fn coloring_safety(topo: &Topology, outs: &[Option<u64>]) -> Option<String> {
    if let Some((a, b)) = topo.first_conflict(outs) {
        return Some(format!("conflict on edge {a}-{b}"));
    }
    outs.iter()
        .flatten()
        .find(|&&c| c > 4)
        .map(|c| format!("color {c} outside the palette"))
}

fn pair_safety(topo: &Topology, outs: &[Option<ftcolor::core::PairColor>]) -> Option<String> {
    topo.first_conflict(outs)
        .map(|(a, b)| format!("conflict on edge {a}-{b}"))
}

#[test]
fn algorithm_1_matches_everywhere() {
    for topo in topologies() {
        assert_equivalent("Alg1", &SixColoring, &topo, 300_000, pair_safety);
    }
}

#[test]
fn algorithm_2_matches_everywhere() {
    // C5 is the big one (its full graph runs past the cap, exercising
    // identical truncation); the rest complete exhaustively.
    for topo in topologies() {
        assert_equivalent("Alg2", &FiveColoring, &topo, 60_000, coloring_safety);
    }
}

#[test]
fn algorithm_2_patched_matches_under_truncation() {
    // The patch's counter makes the state space infinite: every
    // instance truncates, so this is the pure truncation-equivalence
    // case — the cap must bite at exactly the same node.
    for topo in topologies() {
        assert_equivalent(
            "Alg2-patched",
            &FiveColoringPatched,
            &topo,
            20_000,
            coloring_safety,
        );
    }
}

#[test]
fn eager_mis_matches_including_violation_witness() {
    // EagerMis has real safety violations; the witness schedule (the
    // BFS-first, lexicographically smallest counterexample) must be the
    // same schedule, not merely "some" violation.
    for topo in topologies() {
        assert_equivalent("EagerMis", &EagerMis, &topo, 150_000, mis_violation);
    }
}

#[test]
fn violation_witness_is_schedule_for_schedule_identical() {
    // The canonical witness from the paper's MIS discussion: EagerMis
    // on C4 with ids [5,9,2,1] reaches adjacent In/In. Compare the
    // witness schedule step by step at every thread count.
    let topo = Topology::cycle(4).unwrap();
    let ids = vec![5u64, 9, 2, 1];
    let expected = oracle::check(&EagerMis, &topo, ids.clone(), usize::MAX, mis_violation)
        .0
        .safety_violation
        .expect("the oracle finds the In/In violation");
    for jobs in JOB_COUNTS {
        let got = ModelChecker::new(&EagerMis, &topo, ids.clone())
            .with_jobs(jobs)
            .explore(mis_violation)
            .unwrap()
            .safety_violation
            .expect("the model checker finds the In/In violation");
        assert_eq!(expected.description, got.description, "jobs={jobs}");
        assert_eq!(
            expected.schedule.len(),
            got.schedule.len(),
            "witness length diverged at jobs={jobs}"
        );
        for (t, (e, g)) in expected.schedule.iter().zip(&got.schedule).enumerate() {
            assert_eq!(e, g, "witness step {t} diverged at jobs={jobs}");
        }
    }
}
