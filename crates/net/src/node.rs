//! The register protocol: one sans-IO state machine per node.
//!
//! # Protocol
//!
//! The paper's model (§2) gives every process an SWMR register and
//! local immediate snapshots. Both message-passing substrates emulate
//! it the same way. Every node hosts two co-located roles:
//!
//! * a **process** running the algorithm's state machine (crashable),
//!   and
//! * a **register server** holding the process's SWMR register
//!   (substrate memory — it keeps answering `snapshot_req` after its
//!   process crashes or returns, exactly as the paper's shared
//!   registers survive process crashes).
//!
//! One asynchronous round of a process unfolds as messages:
//!
//! 1. **Publish** ([`NodeCore::publish`]): the process encodes
//!    `publish(state)` as a `write` to its own register.
//! 2. **Own write** ([`NodeCore::apply_own_write`]): the register
//!    applies it with freshness stamp `round + 1`, and the process
//!    sends, per neighbor in topology order, a `write` broadcast
//!    (mirror warm-up — loss is harmless) and then a `snapshot_req`.
//! 3. **Serve** ([`NodeCore::deliver`]): a neighbor's register server
//!    answers `snapshot_req` with [`snapshot_resp`] — its current value
//!    and stamp. `write` broadcasts warm the receiver's per-neighbor
//!    mirror. Every register slot uses the same stamp-monotone
//!    [`store`], so reordered or duplicated writes cannot roll it back.
//! 4. **Commit**: once every neighbor answered this round (duplicates
//!    and stale rounds are idempotent), the view per neighbor is the
//!    fresher of response and mirror — the merge observes a value the
//!    register held at or after the request, equivalent to a later
//!    read, so still a regular-register read. The algorithm steps and
//!    the commit is reported to the driver as a [`Step`]; the core never
//!    starts the next round on its own.
//!
//! Reads therefore always linearize after the process's own write, and
//! final register values of returned or crashed processes stay
//! readable — the two properties the paper's safety arguments need.
//!
//! # Drivers
//!
//! The core owns no clock, RNG, I/O or fault model, and its sends go
//! into a caller-owned buffer, so each driver keeps its own timing. The
//! simulator (`crate::sim`) delivers the own write over a loopback hop
//! and arms per-`(round, neighbor)` retransmit timers off
//! [`NodeCore::owes`]. The cluster node and trace replayer
//! (`ftcolor-cluster`) use the chained [`NodeCore::start`] /
//! [`NodeCore::on_frame`], which apply the own write at once and start
//! the next round right after a commit.

use std::borrow::Cow;

use ftcolor_model::{Algorithm, Neighborhood, ProcessId, Step};
use serde::{Deserialize, Serialize, Value};

use crate::msg::{Body, Decide, Frame, InitOk, SnapshotReq, SnapshotResp, Write, ORCHESTRATOR};

/// A register observation: `None` = never written, else the encoded
/// value and its freshness stamp (writer round + 1).
pub type Obs = Option<(Value, u64)>;

/// The freshness stamp of an observation (0 = never written).
fn obs_stamp(o: &Obs) -> u64 {
    o.as_ref().map_or(0, |(_, s)| *s)
}

/// The stamp-monotone register store: applies the `write` of `round`
/// (stamp `round + 1`) to `slot` only when it is strictly fresher than
/// what the slot holds. A borrowed value is cloned only when stored.
pub fn store(slot: &mut Obs, round: u64, value: Cow<'_, Value>) {
    let stamp = round + 1;
    if stamp > obs_stamp(slot) {
        *slot = Some((value.into_owned(), stamp));
    }
}

/// A register server's answer to a `snapshot_req` of `round`: the
/// register's current value and stamp (`null` and 0 when never
/// written).
pub fn snapshot_resp(reg: &Obs, round: u64) -> Body {
    let (value, stamp) = match reg {
        Some((v, s)) => (Some(v.clone()), *s),
        None => (None, 0),
    };
    Body::SnapshotResp(SnapshotResp {
        round,
        value,
        stamp,
    })
}

/// Where a process is in its life and inside its current round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Between rounds, waiting for the driver to publish.
    Idle,
    /// Published; the own write has not landed yet.
    AwaitWrite,
    /// Own write applied; collecting `snapshot_resp`s.
    Snapshotting,
    /// The algorithm returned; only the register server remains.
    Returned,
    /// The driver crashed the process; only the register server remains.
    Crashed,
}

/// One node's protocol state machine: deterministic, I/O-free.
pub struct NodeCore<'a, A: Algorithm> {
    alg: &'a A,
    id: usize,
    neighbors: Vec<usize>,
    state: A::State,
    phase: Phase,
    round: u64,
    /// The node's own SWMR register (the register-server storage).
    reg: Obs,
    /// Last `write` broadcast received per neighbor position.
    mirror: Vec<Obs>,
    /// Responses collected this round (`None` = not yet answered).
    resp: Vec<Option<Obs>>,
    /// Neighbors still owing a response this round.
    owed: usize,
}

impl<'a, A> NodeCore<'a, A>
where
    A: Algorithm,
    A::Reg: Serialize + Deserialize,
{
    /// Builds the state machine for node `id` with the given neighbors
    /// (in topology order) and algorithm input.
    pub fn new(alg: &'a A, id: usize, neighbors: Vec<usize>, input: A::Input) -> Self {
        let deg = neighbors.len();
        NodeCore {
            alg,
            id,
            neighbors,
            state: alg.init(ProcessId(id), input),
            phase: Phase::Idle,
            round: 0,
            reg: None,
            mirror: vec![None; deg],
            resp: vec![None; deg],
            owed: 0,
        }
    }

    /// The current 0-based round number.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Rounds committed so far (the committed round of the latest
    /// commit is this minus one).
    pub fn rounds_committed(&self) -> u64 {
        self.round + u64::from(self.phase == Phase::Returned)
    }

    /// The neighbors, in topology order.
    pub fn neighbors(&self) -> &[usize] {
        &self.neighbors
    }

    /// `true` while the process neither returned nor crashed.
    pub fn is_working(&self) -> bool {
        !matches!(self.phase, Phase::Returned | Phase::Crashed)
    }

    /// `true` once the driver crashed the process.
    pub fn is_crashed(&self) -> bool {
        self.phase == Phase::Crashed
    }

    /// Crashes the process; its register server keeps serving. Returns
    /// whether the process was still working.
    pub fn crash(&mut self) -> bool {
        let was_working = self.is_working();
        if was_working {
            self.phase = Phase::Crashed;
        }
        was_working
    }

    /// `true` while the neighbor at position `pos` still owes its
    /// response to this process's `round` snapshot — the condition a
    /// retransmit timer checks before firing.
    pub fn owes(&self, round: u64, pos: usize) -> bool {
        self.phase == Phase::Snapshotting && self.round == round && self.resp[pos].is_none()
    }

    /// Round operation 1: publish. Returns the `write` of the current
    /// round for the driver to apply with
    /// [`apply_own_write`](Self::apply_own_write), or `None` unless the
    /// process is working and between rounds.
    pub fn publish(&mut self) -> Option<Write> {
        if self.phase != Phase::Idle {
            return None;
        }
        self.phase = Phase::AwaitWrite;
        Some(Write {
            round: self.round,
            value: self.alg.publish(&self.state).to_value(),
        })
    }

    /// Round operation 2: the own write lands. The register always
    /// applies it (a write in flight when the process crashed still
    /// happened). If it is the write the process awaits, the snapshot
    /// starts: per neighbor, a `write` then a `snapshot_req` go into
    /// `out`. A node of degree 0 commits at once.
    pub fn apply_own_write(&mut self, w: Write, out: &mut Vec<Frame>) -> Option<Step<A::Output>> {
        let Write { round, value } = w;
        let live = self.phase == Phase::AwaitWrite && self.round == round;
        if !live || self.neighbors.is_empty() {
            store(&mut self.reg, round, Cow::Owned(value));
            return live.then(|| self.commit());
        }
        store(&mut self.reg, round, Cow::Borrowed(&value));
        self.phase = Phase::Snapshotting;
        self.owed = self.neighbors.len();
        let mut send = |dest, value| {
            out.push(self.frame(dest, Body::Write(Write { round, value })));
            out.push(self.frame(dest, Body::SnapshotReq(SnapshotReq { round })));
        };
        // The last broadcast takes the value itself: one clone per
        // neighbor besides it, plus the register's copy.
        let (&last, rest) = self.neighbors.split_last().expect("degree >= 1");
        for &q in rest {
            send(q, value.clone());
        }
        send(last, value);
        None
    }

    /// Feeds one frame from another node through the state machine:
    /// a `write` warms the mirror, a `snapshot_req` is answered into
    /// `out`, a `snapshot_resp` may commit the round. Unknown senders,
    /// stale rounds, duplicate responses and control frames are
    /// ignored — a node must survive anything the network hands it.
    pub fn deliver(&mut self, frame: Frame, out: &mut Vec<Frame>) -> Option<Step<A::Output>> {
        match frame.body {
            Body::Write(w) => {
                if let Some(pos) = self.neighbor_pos(frame.src) {
                    store(&mut self.mirror[pos], w.round, Cow::Owned(w.value));
                }
                None
            }
            Body::SnapshotReq(r) => {
                out.push(self.frame(frame.src, snapshot_resp(&self.reg, r.round)));
                None
            }
            Body::SnapshotResp(r) => self.on_resp(frame.src, r),
            Body::Init(_) | Body::InitOk(_) | Body::Decide(_) => None,
        }
    }

    fn on_resp(&mut self, src: usize, r: SnapshotResp) -> Option<Step<A::Output>> {
        let pos = self.neighbor_pos(src)?;
        if !self.owes(r.round, pos) {
            return None; // stale round, or a duplicate response
        }
        self.resp[pos] = Some(r.value.map(|v| (v, r.stamp)));
        self.owed -= 1;
        (self.owed == 0).then(|| self.commit())
    }

    /// All responses in: merge views, run the algorithm step.
    fn commit(&mut self) -> Step<A::Output> {
        let view: Vec<Option<A::Reg>> = self
            .resp
            .iter_mut()
            .zip(&self.mirror)
            .map(|(resp, mirror)| {
                // The response is consumed; the mirror persists, so it
                // is cloned — but only when it wins, which on a healthy
                // link it never does (a response ties-or-beats a mirror
                // of the same stamp).
                let resp = resp
                    .take()
                    .expect("commit only fires once every neighbor answered");
                let merged = if obs_stamp(mirror) > obs_stamp(&resp) {
                    mirror.clone()
                } else {
                    resp
                };
                merged.map(|(v, _)| {
                    serde_json::from_value::<A::Reg>(v).expect("register payloads decode")
                })
            })
            .collect();
        let step = self.alg.step(&mut self.state, &Neighborhood::new(&view));
        match step {
            Step::Continue => {
                self.round += 1;
                self.phase = Phase::Idle;
            }
            Step::Return(_) => self.phase = Phase::Returned,
        }
        step
    }

    fn neighbor_pos(&self, who: usize) -> Option<usize> {
        self.neighbors.iter().position(|&q| q == who)
    }

    fn frame(&self, dest: usize, body: Body) -> Frame {
        Frame {
            src: self.id,
            dest,
            body,
        }
    }
}

/// The chained entry points of the real-process cluster: no loopback
/// hop, no pause between a commit and the next round.
impl<A> NodeCore<'_, A>
where
    A: Algorithm,
    A::Reg: Serialize + Deserialize,
    A::Output: Serialize,
{
    /// Acknowledges `init` and starts round 0: `init_ok`, then the
    /// first round's broadcasts and requests go into `out`.
    pub fn start(&mut self, out: &mut Vec<Frame>) {
        out.push(self.frame(ORCHESTRATOR, Body::InitOk(InitOk { node: self.id })));
        // Round 0 starts exactly like a round after a `Continue`.
        self.run_rounds(Some(Step::Continue), out);
    }

    /// [`deliver`](Self::deliver), then chains a commit straight into
    /// the next round, or into a `decide` frame once the algorithm
    /// returned.
    pub fn on_frame(&mut self, frame: Frame, out: &mut Vec<Frame>) {
        let step = self.deliver(frame, out);
        self.run_rounds(step, out);
    }

    /// The retransmit batch: a fresh `snapshot_req` into `out` for every
    /// neighbor still owing a response this round (none once the
    /// algorithm returned). The caller's timer policy decides how often
    /// to fire it.
    pub fn retransmits(&self, out: &mut Vec<Frame>) {
        for (pos, &q) in self.neighbors.iter().enumerate() {
            if self.owes(self.round, pos) {
                out.push(self.frame(q, Body::SnapshotReq(SnapshotReq { round: self.round })));
            }
        }
    }

    fn run_rounds(&mut self, mut step: Option<Step<A::Output>>, out: &mut Vec<Frame>) {
        while let Some(s) = step {
            step = match s {
                Step::Continue => self.publish().and_then(|w| self.apply_own_write(w, out)),
                Step::Return(o) => {
                    let output = o.to_value();
                    let round = self.round;
                    out.push(self.frame(ORCHESTRATOR, Body::Decide(Decide { round, output })));
                    None
                }
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftcolor_core::SixColoring;

    fn req(src: usize, round: u64) -> Frame {
        Frame {
            src,
            dest: 0,
            body: Body::SnapshotReq(SnapshotReq { round }),
        }
    }

    fn resp(src: usize, round: u64) -> Frame {
        Frame {
            src,
            dest: 0,
            body: Body::SnapshotResp(SnapshotResp {
                round,
                value: None,
                stamp: 0,
            }),
        }
    }

    /// The single `snapshot_resp` a `snapshot_req` must produce.
    fn answer(core: &mut NodeCore<SixColoring>, round: u64) -> SnapshotResp {
        let mut out = Vec::new();
        assert!(core.deliver(req(1, round), &mut out).is_none());
        let [Frame {
            dest: 1,
            body: Body::SnapshotResp(r),
            ..
        }] = out.as_slice()
        else {
            panic!("one snapshot_resp to the reader expected, got {out:?}");
        };
        r.clone()
    }

    /// Drives a 3-cycle of cores to termination by hand-routing frames.
    #[test]
    fn three_cores_color_a_triangle_free_cycle() {
        let alg = SixColoring;
        let ids = [17u64, 4, 99];
        let mut cores: Vec<NodeCore<SixColoring>> = (0..3)
            .map(|i| {
                let nb = vec![(i + 2) % 3, (i + 1) % 3];
                NodeCore::new(&alg, i, nb, ids[i])
            })
            .collect();
        let mut wire: Vec<Frame> = Vec::new();
        for c in &mut cores {
            c.start(&mut wire);
        }
        let mut outputs: Vec<Option<Value>> = vec![None; 3];
        let mut out = Vec::new();
        let mut hops = 0;
        while let Some(f) = wire.pop() {
            hops += 1;
            assert!(hops < 10_000, "protocol must terminate");
            if f.dest == ORCHESTRATOR {
                if let Body::Decide(d) = f.body {
                    outputs[f.src] = Some(d.output);
                }
                continue;
            }
            cores[f.dest].on_frame(f, &mut out);
            wire.append(&mut out);
        }
        for (i, o) in outputs.iter().enumerate() {
            assert!(o.is_some(), "node {i} must decide");
            assert!(!cores[i].is_working(), "node {i} returned");
        }
        for i in 0..3 {
            assert_ne!(outputs[i], outputs[(i + 1) % 3], "proper coloring");
        }
    }

    #[test]
    fn register_server_answers_before_and_after_deciding() {
        let alg = SixColoring;
        let mut core = NodeCore::new(&alg, 0, vec![2, 1], 5u64);
        // Before start: register never written.
        let r = answer(&mut core, 0);
        assert_eq!(r.stamp, 0);
        assert!(r.value.is_none());
        // After start: the round-0 write is visible with stamp 1.
        core.start(&mut Vec::new());
        let r = answer(&mut core, 0);
        assert_eq!(r.stamp, 1);
        assert!(r.value.is_some());
    }

    #[test]
    fn duplicate_and_stale_responses_are_ignored() {
        let alg = SixColoring;
        let mut core = NodeCore::new(&alg, 0, vec![2, 1], 5u64);
        let mut out = Vec::new();
        core.start(&mut out);
        out.clear();
        core.on_frame(resp(2, 7), &mut out);
        assert!(out.is_empty(), "stale round ignored");
        core.on_frame(resp(2, 0), &mut out);
        assert!(out.is_empty(), "first resp pends");
        core.on_frame(resp(2, 0), &mut out);
        assert!(out.is_empty(), "duplicate ignored");
        assert_eq!(core.rounds_committed(), 0, "commit needs all answers");
        core.on_frame(resp(1, 0), &mut out);
        assert!(!out.is_empty(), "second resp commits the round");
        assert_eq!(core.rounds_committed(), 1);
    }

    #[test]
    fn retransmits_cover_exactly_the_pending_neighbors() {
        let alg = SixColoring;
        let mut core = NodeCore::new(&alg, 0, vec![2, 1], 5u64);
        let mut rt = Vec::new();
        core.retransmits(&mut rt);
        assert!(rt.is_empty(), "nothing pending pre-start");
        core.start(&mut Vec::new());
        core.retransmits(&mut rt);
        assert_eq!(rt.len(), 2);
        core.on_frame(resp(2, 0), &mut Vec::new());
        rt.clear();
        core.retransmits(&mut rt);
        assert_eq!(rt.len(), 1, "answered neighbor drops off the timer");
        assert_eq!(rt[0].dest, 1);
    }

    /// The simulator's loopback hop leaves a window in which the
    /// process can crash with its own write in flight. The write still
    /// happened (a legal §2 crash point): the register applies it and
    /// serves it, but the dead process starts no snapshot.
    #[test]
    fn own_write_landing_after_a_crash_updates_the_register_only() {
        let alg = SixColoring;
        let mut core = NodeCore::new(&alg, 0, vec![2, 1], 5u64);
        let w = core.publish().expect("an idle working process publishes");
        assert!(core.crash(), "the process was working");
        assert!(!core.crash(), "a crash happens once");
        let mut out = Vec::new();
        assert!(core.apply_own_write(w.clone(), &mut out).is_none());
        assert!(out.is_empty(), "a crashed process sends no snapshot_req");
        let r = answer(&mut core, 0);
        assert_eq!((r.value, r.stamp), (Some(w.value), 1));
        assert!(!core.owes(0, 0) && !core.owes(0, 1), "no timers to arm");
        assert!(
            core.publish().is_none(),
            "a crashed process never publishes"
        );
    }
}
