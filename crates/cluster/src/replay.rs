//! Deterministic replay of a recorded cluster trace.
//!
//! A live cluster run races on wall clocks, so it cannot be re-run
//! from its seed — but its journal can be *re-verified*. The replayer
//! walks the [`ClusterTrace`] journal in order, driving one in-process
//! [`NodeCore`] replica per node (the same state machine the live node
//! binary wraps, running the register protocol described in
//! [`ftcolor_net::node`]):
//!
//! * every [`ClusterEntry::Deliver`] is fed to the destination
//!   replica, and whatever the replica emits is queued in that node's
//!   FIFO *outbox*;
//! * every [`ClusterEntry::Send`] must match the front of its source
//!   node's outbox — i.e. the journaled frame must be exactly what an
//!   honest node would have said next. Two documented tolerances
//!   cover the router-ordering races a live run legitimately
//!   produces: timer-driven `snapshot_req` retransmits (the replica
//!   has no clock, so they are accepted when their round is not ahead
//!   of the replica), and register reads the orchestrator served for
//!   a dead node (matched against the replayed register cache);
//! * decisions are collected from journaled `decide` frames — which
//!   the outbox match has just proven equal to what the replica
//!   computed — and must reproduce the trace's recorded outputs
//!   byte-identically, along with its crashed and stalled sets.
//!
//! The result implements [`SubstrateReport`], so a replayed fixture
//! feeds the same conformance oracles as every other substrate.

use std::borrow::Cow;
use std::collections::VecDeque;

use ftcolor_model::{Algorithm, ProcessId, SubstrateReport};
use ftcolor_net::{snapshot_resp, store, Body, Frame, NodeCore, Obs};
use serde::{Deserialize, Serialize, Value};

use crate::trace::{ClusterEntry, ClusterTrace, SendFate};

/// The verdict of a successful replay.
#[derive(Debug, Clone)]
pub struct ReplayReport<O> {
    /// Output of each node, decoded from the verified `decide` frames.
    pub outputs: Vec<Option<O>>,
    /// The round each node decided in (0 for nodes without a decision).
    pub rounds: Vec<u64>,
    /// Nodes the journal SIGKILLed before a decision was observed.
    pub crashed: Vec<ProcessId>,
    /// Nodes that neither crashed nor decided.
    pub stalled: Vec<ProcessId>,
    /// Journal entries verified.
    pub entries_verified: usize,
}

impl<O> SubstrateReport<O> for ReplayReport<O> {
    fn outputs(&self) -> &[Option<O>] {
        &self.outputs
    }

    fn crashed_ids(&self) -> &[ProcessId] {
        &self.crashed
    }
}

/// Replays `trace` against in-process replicas of the node state
/// machine and cross-checks every journal entry. The `alg` must be the
/// algorithm the trace was recorded with (its registry name is in
/// `trace.alg`; `crate::replay_named` dispatches on it).
///
/// # Errors
///
/// Returns a divergence message (with the offending sequence number)
/// when the journal could not have been produced by honest nodes
/// running `alg`, or when the re-derived outcome differs from the
/// recorded one.
pub fn replay_trace<A>(alg: &A, trace: &ClusterTrace) -> Result<ReplayReport<A::Output>, String>
where
    A: Algorithm<Input = u64>,
    A::Reg: Serialize + Deserialize,
    A::Output: Serialize + Deserialize,
{
    let n = trace.n;
    if trace.ids.len() != n {
        return Err(format!("replay: {} ids for n = {n}", trace.ids.len()));
    }
    if trace.outputs.len() != n {
        return Err(format!(
            "replay: {} recorded outputs for n = {n}",
            trace.outputs.len()
        ));
    }

    let mut replicas: Vec<Option<NodeCore<A>>> = (0..n).map(|_| None).collect();
    // Frames an honest node would have emitted, not yet journaled.
    let mut outbox: Vec<VecDeque<Frame>> = vec![VecDeque::new(); n];
    // Responses the orchestrator owes on behalf of dead nodes.
    let mut synth: Vec<VecDeque<Frame>> = vec![VecDeque::new(); n];
    // The router's register cache, rebuilt from journaled writes.
    let mut cache: Vec<Obs> = vec![None; n];
    let mut killed = vec![false; n];
    let mut observed: Vec<Option<Value>> = vec![None; n];
    let mut observed_round = vec![0u64; n];
    // The replicas' output buffer, reused across entries.
    let mut out: Vec<Frame> = Vec::new();

    for (idx, entry) in trace.entries.iter().enumerate() {
        let seq = entry.seq();
        if seq != idx as u64 {
            return Err(format!(
                "replay: journal seq {seq} at position {idx} (must be gap-free)"
            ));
        }
        match entry {
            ClusterEntry::Crash { node, .. } => {
                if *node >= n {
                    return Err(format!(
                        "replay: crash of out-of-range node {node} (seq {seq})"
                    ));
                }
                // The pipe may still hold frames the node emitted
                // before dying, so its outbox is *not* cleared.
                killed[*node] = true;
            }
            ClusterEntry::Deliver { frame, .. } => {
                let dest = frame.dest;
                if dest >= n {
                    return Err(format!("replay: delivery to node {dest} (seq {seq})"));
                }
                if let Body::Init(init) = &frame.body {
                    if init.node != dest {
                        return Err(format!(
                            "replay: init for node {} delivered to {dest} (seq {seq})",
                            init.node
                        ));
                    }
                    if replicas[dest].is_some() {
                        return Err(format!("replay: node {dest} initialized twice (seq {seq})"));
                    }
                    let mut core =
                        NodeCore::new(alg, dest, init.neighbors.clone(), trace.ids[dest]);
                    core.start(&mut out);
                    outbox[dest].extend(out.drain(..));
                    replicas[dest] = Some(core);
                } else if killed[dest] {
                    // Only reads reach a dead node — the orchestrator
                    // serves them from its register cache; queue the
                    // response it owes so the journaled send matches.
                    let Body::SnapshotReq(r) = &frame.body else {
                        return Err(format!(
                            "replay: `{}` delivered to dead node {dest} (seq {seq})",
                            frame.body.kind()
                        ));
                    };
                    synth[dest].push_back(Frame {
                        src: dest,
                        dest: frame.src,
                        body: snapshot_resp(&cache[dest], r.round),
                    });
                } else if let Some(core) = replicas[dest].as_mut() {
                    core.on_frame(frame.clone(), &mut out);
                    outbox[dest].extend(out.drain(..));
                }
                // No replica and not dead: an uninitialized (wedged)
                // node; the live process buffered the frame unread.
            }
            ClusterEntry::Send { frame, fate, .. } => {
                let src = frame.src;
                if src >= n {
                    return Err(format!("replay: send from node {src} (seq {seq})"));
                }
                // Rebuild the router's register cache exactly as the
                // live router did: from every surfaced write.
                if let Body::Write(w) = &frame.body {
                    store(&mut cache[src], w.round, Cow::Borrowed(&w.value));
                }
                // A cache-served read is journaled right after the
                // delivery that caused it, so it is matched first: the
                // replica of a dead node may hold an identical response
                // the killed process never got to send, and consuming
                // that one instead would strand the synthesized frame.
                if synth[src].front() == Some(frame) {
                    synth[src].pop_front();
                } else if outbox[src].front() == Some(frame) {
                    outbox[src].pop_front();
                } else if !is_tolerated_retransmit(frame, replicas[src].as_ref()) {
                    return Err(format!(
                        "replay: node {src} journaled `{}` -> {} (seq {seq}) but an honest \
                         replica would next say {:?}",
                        frame.body.kind(),
                        frame.dest,
                        outbox[src].front().map(|f| f.body.kind()),
                    ));
                }
                if let Body::Decide(d) = &frame.body {
                    if *fate != SendFate::Control {
                        return Err(format!("replay: fault-injected decide (seq {seq})"));
                    }
                    if observed[src].is_none() {
                        observed[src] = Some(d.output.clone());
                        observed_round[src] = d.round;
                    }
                }
            }
        }
    }

    // The journal must re-derive the recorded outcome, byte for byte.
    let replayed: Vec<Value> = observed
        .iter()
        .map(|o| o.clone().unwrap_or(Value::Null))
        .collect();
    let replayed_json = serde_json::to_string(&replayed).expect("values encode");
    let recorded_json = serde_json::to_string(&trace.outputs).expect("values encode");
    if replayed_json != recorded_json {
        return Err(format!(
            "replay: outputs diverge\n  recorded: {recorded_json}\n  replayed: {replayed_json}"
        ));
    }
    let crashed_ids: Vec<usize> = (0..n)
        .filter(|&i| killed[i] && observed[i].is_none())
        .collect();
    if crashed_ids != trace.crashed {
        return Err(format!(
            "replay: crashed set diverges (recorded {:?}, replayed {crashed_ids:?})",
            trace.crashed
        ));
    }
    let stalled_ids: Vec<usize> = (0..n)
        .filter(|&i| !killed[i] && observed[i].is_none())
        .collect();
    if stalled_ids != trace.stalled {
        return Err(format!(
            "replay: stalled set diverges (recorded {:?}, replayed {stalled_ids:?})",
            trace.stalled
        ));
    }

    let outputs: Vec<Option<A::Output>> = observed
        .iter()
        .map(|slot| match slot {
            None => Ok(None),
            Some(v) => serde_json::from_value::<A::Output>(v.clone())
                .map(Some)
                .map_err(|e| format!("replay: decoding a verified output: {e}")),
        })
        .collect::<Result<_, String>>()?;

    Ok(ReplayReport {
        outputs,
        rounds: observed_round,
        crashed: crashed_ids.into_iter().map(ProcessId).collect(),
        stalled: stalled_ids.into_iter().map(ProcessId).collect(),
        entries_verified: trace.entries.len(),
    })
}

/// A journaled frame that misses the outbox is still honest when it is
/// a timer-driven `snapshot_req` retransmit: the replica keeps no
/// clock, so it never *queues* retransmits, but an honest node only
/// ever retransmits its current round's request — accept requests that
/// are not ahead of the replica.
fn is_tolerated_retransmit<A>(frame: &Frame, replica: Option<&NodeCore<A>>) -> bool
where
    A: Algorithm,
    A::Reg: Serialize + Deserialize,
{
    let Body::SnapshotReq(r) = &frame.body else {
        return false;
    };
    replica.is_some_and(|core| r.round <= core.round())
}
