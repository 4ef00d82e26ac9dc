//! A deliberately naive reference model checker: the oracle the real
//! engine is compared against.
//!
//! It uses nothing but the public `Execution`/`Topology` API. Every
//! successor is a cloned `Execution`, every configuration key is a plain
//! `(states, registers, outputs)` tuple, and the BFS, the DFS back-edge
//! search and the worst-case DP are all written out here, with no
//! packing, interning, hashing tricks or threads. Its exploration order
//! is the one the engine documents — FIFO BFS, node ids assigned in
//! (parent id, ascending subset mask) order, DFS roots and edges in id
//! order — so it reproduces the engine's outcome field for field.

use ftcolor::checker::{ExploreStats, LivelockWitness, ModelCheckOutcome, SafetyViolation};
use ftcolor::model::schedule::ActivationSet;
use ftcolor::model::{Algorithm, Execution, ProcessId, Topology};
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::Hash;

type Key<A> = (
    Vec<<A as Algorithm>::State>,
    Vec<Option<<A as Algorithm>::Reg>>,
    Vec<Option<<A as Algorithm>::Output>>,
);

fn key_of<A: Algorithm>(exec: &Execution<'_, A>) -> Key<A> {
    let n = exec.topology().len();
    let states = (0..n).map(|i| exec.state(ProcessId(i)).clone()).collect();
    (states, exec.registers().to_vec(), exec.outputs().to_vec())
}

/// Every non-empty subset of `working`, by ascending bitmask (bit `i`
/// activates `working[i]`).
fn subsets(working: &[ProcessId]) -> Vec<ActivationSet> {
    (1u32..1 << working.len())
        .map(|mask| {
            let picked = (0..working.len()).filter(|i| mask & (1 << i) != 0);
            ActivationSet::of(picked.map(|i| working[i]))
        })
        .collect()
}

/// Explores every configuration reachable from the initial one (at most
/// `cap` of them) and returns the outcome the model checker must report
/// plus the exact worst case it must compute (`None` when the graph is
/// cyclic or the exploration was truncated).
pub fn check<A: Algorithm>(
    alg: &A,
    topo: &Topology,
    inputs: Vec<A::Input>,
    cap: usize,
    safety: impl Fn(&Topology, &[Option<A::Output>]) -> Option<String>,
) -> (ModelCheckOutcome<A::Output>, Option<u64>)
where
    A::State: Eq + Hash,
    A::Reg: Eq + Hash,
    A::Output: Eq + Hash,
{
    let root = Execution::new(alg, topo, inputs);
    let mut ids: HashMap<Key<A>, usize> = HashMap::from([(key_of(&root), 0)]);
    let mut parent: Vec<Option<(usize, ActivationSet)>> = vec![None];
    let mut edges: Vec<Vec<(usize, ActivationSet)>> = vec![Vec::new()];
    let mut queue = VecDeque::from([(0usize, root)]);
    let (mut edge_count, mut terminal, mut truncated) = (0, 0, false);
    let mut violation: Option<(usize, String)> = None;
    let (mut outputs_seen, mut seen) = (Vec::new(), HashSet::new());

    while let Some((id, exec)) = queue.pop_front() {
        for o in exec.outputs().iter().flatten() {
            if seen.insert(o.clone()) {
                outputs_seen.push(o.clone());
            }
        }
        if violation.is_none() {
            violation = safety(topo, exec.outputs()).map(|desc| (id, desc));
        }
        if exec.all_returned() {
            terminal += 1;
            continue;
        }
        if edges.len() >= cap {
            truncated = true;
            continue;
        }
        for set in subsets(exec.working()) {
            let mut next = exec.clone();
            next.step_with(&set);
            let fresh = edges.len();
            let to = *ids.entry(key_of(&next)).or_insert(fresh);
            if to == fresh {
                parent.push(Some((id, set.clone())));
                edges.push(Vec::new());
                queue.push_back((to, next));
            }
            edges[id].push((to, set));
            edge_count += 1;
        }
    }

    let schedule_to = |mut id: usize| {
        let mut sched = Vec::new();
        while let Some((p, set)) = &parent[id] {
            sched.push(set.clone());
            id = *p;
        }
        sched.reverse();
        sched
    };
    let (livelock, postorder) = match dfs(&edges) {
        Err((entry, cycle)) => {
            let prefix = schedule_to(entry);
            (Some(LivelockWitness { prefix, cycle }), None)
        }
        Ok(postorder) => (None, Some(postorder)),
    };
    let worst = postorder
        .filter(|_| !truncated)
        .map(|order| worst_case(&edges, &order, topo.len()));
    let outcome = ModelCheckOutcome {
        configs: edges.len(),
        edges: edge_count,
        fully_terminated_configs: terminal,
        safety_violation: violation.map(|(id, description)| SafetyViolation {
            description,
            schedule: schedule_to(id),
        }),
        livelock,
        outputs_seen,
        truncated,
        lossy: false,
        stats: ExploreStats::default(),
    };
    (outcome, worst)
}

/// Depth-first search from every unvisited node in id order, edges in
/// insertion order. The first back edge found ends the search with the
/// cycle it closes: `(entry node, activation sets around the loop)`.
/// An acyclic graph yields its nodes in post-order instead.
type Edges = [Vec<(usize, ActivationSet)>];
fn dfs(edges: &Edges) -> Result<Vec<usize>, (usize, Vec<ActivationSet>)> {
    let (mut on_path, mut done) = (vec![false; edges.len()], vec![false; edges.len()]);
    let mut postorder = Vec::with_capacity(edges.len());
    for start in 0..edges.len() {
        if done[start] {
            continue;
        }
        // The current path: (node, index of the edge it follows next).
        let mut path = vec![(start, 0usize)];
        on_path[start] = true;
        while let Some(&mut (u, ref mut next)) = path.last_mut() {
            let Some((v, _)) = edges[u].get(*next) else {
                on_path[u] = false;
                done[u] = true;
                postorder.push(u);
                path.pop();
                continue;
            };
            *next += 1;
            if on_path[*v] {
                let from = path.iter().position(|&(w, _)| w == *v).unwrap();
                let cycle = path[from..]
                    .iter()
                    .map(|&(w, taken)| edges[w][taken - 1].1.clone())
                    .collect();
                return Err((*v, cycle));
            }
            if !done[*v] {
                on_path[*v] = true;
                path.push((*v, 0));
            }
        }
    }
    Ok(postorder)
}

/// The largest number of activations any one process receives along any
/// path from the root of an acyclic graph: per process, the longest path
/// where an edge weighs 1 when its activation set names that process.
fn worst_case(edges: &Edges, postorder: &[usize], n: usize) -> u64 {
    let mut best = vec![vec![0u64; n]; edges.len()];
    for &u in postorder {
        let mut row = vec![0u64; n];
        for (v, set) in &edges[u] {
            for (i, slot) in row.iter_mut().enumerate() {
                let hit = matches!(set, ActivationSet::Only(ps) if ps.contains(&ProcessId(i)));
                *slot = (*slot).max(best[*v][i] + u64::from(hit));
            }
        }
        best[u] = row;
    }
    best[0].iter().copied().max().unwrap_or(0)
}
