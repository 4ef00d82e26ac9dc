//! The discrete-event network simulator.
//!
//! Each node runs the register protocol of [`crate::node`] (its
//! [`NodeCore`] state machine); this module is the driver that adds
//! time and faults around it:
//!
//! * the own-register `write` travels over a **loopback** link —
//!   reliable, one tick, never drawn against the fault plan, but still
//!   encoded and decoded like any frame;
//! * every other send crosses the fault-prone network: its fate (drop,
//!   partition cut, delay, duplicate) is drawn or replayed per send;
//! * each `snapshot_req` arms a retransmit timer for its
//!   `(round, neighbor)` that resends every `rto` ticks until answered;
//! * after a commit the next round's activation is jittered;
//! * planned crashes stop the process, and reads its register server
//!   answers afterwards are counted as `served_dead_reads`.
//!
//! # Determinism
//!
//! All network nondeterminism (drop/delay/duplicate/reorder draws) comes
//! from one RNG seeded with `cfg.seed`, consumed in send order; all
//! timing nondeterminism (activation jitter) from a second stream
//! derived from the same seed. Events sit in a calendar queue ordered
//! by `(time, tick)` with a monotonic tie-break tick. There is no
//! `Instant::now` anywhere in the simulation path, so a `(seed, plan)`
//! pair fully determines the run: byte-identical delivery trace,
//! identical coloring. [`replay_net`] re-runs a recorded trace without
//! touching the network RNG at all.

use ftcolor_model::{Algorithm, ProcessId, Step, Topology};
use ftcolor_runtime::{RtEvent, RtEventKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::calendar::EventQueue;
use crate::faults::FaultPlan;
use crate::msg::{Body, Frame, SnapshotReq};
use crate::node::NodeCore;
use crate::trace::{DeliveryTrace, Mode, Outcome, TraceEntry};
use crate::wire::{Codec, FrameCodec, Payload, WireStats};

/// Simulation parameters (everything except the fault plan).
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Seed for both the network and the timing RNG streams.
    pub seed: u64,
    /// Maximum extra activation delay per round (uniform in
    /// `0..=act_jitter` logical ticks).
    pub act_jitter: u64,
    /// Retransmit timeout for unanswered `snapshot_req`s (ticks).
    pub rto: u64,
    /// Hard cap on logical time; still-working processes at the cap are
    /// reported as stalled.
    pub max_time: u64,
    /// Record an [`RtEvent`] log of the round-commit serialization (see
    /// [`NetReport::events`]).
    pub record_events: bool,
    /// Wire encoding for frames in flight (default [`Codec::Json`]).
    /// Codec choice never changes semantics: fault fates are drawn per
    /// send in send order, before any encoding happens, so the trace and
    /// verdicts are byte-identical across codecs.
    pub codec: Codec,
}

impl NetConfig {
    /// Defaults: jitter 3, rto 16, max_time 100 000, no event log,
    /// JSON codec.
    pub fn new(seed: u64) -> Self {
        NetConfig {
            seed,
            act_jitter: 3,
            rto: 16,
            max_time: 100_000,
            record_events: false,
            codec: Codec::Json,
        }
    }

    /// Sets the activation jitter amplitude.
    #[must_use]
    pub fn act_jitter(mut self, ticks: u64) -> Self {
        self.act_jitter = ticks;
        self
    }

    /// Sets the retransmit timeout.
    #[must_use]
    pub fn rto(mut self, ticks: u64) -> Self {
        self.rto = ticks.max(1);
        self
    }

    /// Sets the logical-time cap.
    #[must_use]
    pub fn max_time(mut self, ticks: u64) -> Self {
        self.max_time = ticks;
        self
    }

    /// Enables (or disables) the round-commit event log.
    #[must_use]
    pub fn record_events(mut self, on: bool) -> Self {
        self.record_events = on;
        self
    }

    /// Sets the wire codec for frames in flight.
    #[must_use]
    pub fn codec(mut self, codec: Codec) -> Self {
        self.codec = codec;
        self
    }
}

/// Message and event counters for one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetStats {
    /// Network messages sent (loopback register writes excluded).
    pub sent: u64,
    /// Network messages delivered (primary copies).
    pub delivered: u64,
    /// Messages lost to per-link drop probability.
    pub dropped: u64,
    /// Messages lost to active partition windows.
    pub partition_dropped: u64,
    /// Extra duplicate copies injected.
    pub duplicated: u64,
    /// `snapshot_req` retransmissions.
    pub retransmits: u64,
    /// Loopback register writes (reliable, not network messages).
    pub loopback_writes: u64,
    /// `snapshot_req`s answered by the register server of a *crashed*
    /// process — substrate memory outliving its process, the property
    /// the paper's crash-surviving registers need.
    pub served_dead_reads: u64,
    /// Discrete events processed by the simulator loop.
    pub events_processed: u64,
}

/// The result of a simulated network run.
#[derive(Debug, Clone)]
pub struct NetReport<O> {
    /// Output of each process (`None` = crashed or stalled).
    pub outputs: Vec<Option<O>>,
    /// Rounds committed by each process.
    pub rounds: Vec<u64>,
    /// Processes that executed their planned crash.
    pub crashed: Vec<ProcessId>,
    /// Processes still working when the run stopped (partitioned away
    /// forever, or the time cap fired).
    pub stalled: Vec<ProcessId>,
    /// Logical time at which the run stopped.
    pub time: u64,
    /// Round-commit serialization log (empty unless
    /// [`NetConfig::record_events`] was set). One contiguous
    /// Lock*/Write/Read*/Unlock* block per committed round, in commit
    /// order — this records the commit-time serialization of each
    /// round, not raw message timings.
    pub events: Vec<RtEvent>,
    /// The delivery trace: every network send and its fate.
    pub trace: DeliveryTrace,
    /// Message/event counters.
    pub stats: NetStats,
    /// The wire codec this run used.
    pub codec: Codec,
    /// Frame/byte/pool counters for the run's codec.
    pub wire: WireStats,
}

impl<O> NetReport<O> {
    /// `true` when every process returned an output.
    pub fn all_returned(&self) -> bool {
        self.outputs.iter().all(Option::is_some)
    }
}

impl<O> ftcolor_model::SubstrateReport<O> for NetReport<O> {
    fn outputs(&self) -> &[Option<O>] {
        &self.outputs
    }

    fn crashed_ids(&self) -> &[ProcessId] {
        &self.crashed
    }
    // `all_correct_returned` keeps the default: a *stalled* process is
    // not crashed, so it fails the wait-freedom premise — exactly the
    // behavior the never-heals partition test pins down.
}

/// Runs `alg` on the simulated network under `plan`, drawing all fault
/// decisions from `cfg.seed`.
///
/// # Panics
///
/// Panics if `inputs.len() != topo.len()`, or if a register payload
/// fails to round-trip through the JSON codec (a bug, not an input
/// condition).
pub fn run_net<A>(
    alg: &A,
    topo: &Topology,
    inputs: Vec<A::Input>,
    plan: &FaultPlan,
    cfg: &NetConfig,
) -> NetReport<A::Output>
where
    A: Algorithm,
    A::Reg: Serialize + Deserialize,
{
    Sim::new(alg, topo, inputs, plan, cfg, Mode::record(cfg.seed)).run()
}

/// Re-runs a recorded [`DeliveryTrace`] bit-for-bit: the network RNG is
/// never consulted, every send takes the fate the trace recorded for
/// it. `plan` is still needed for its crash schedule (crashes are plan
/// events, not network draws).
///
/// # Panics
///
/// Panics if the trace diverges from the run (different send sequence)
/// — which means trace and `(alg, topo, inputs, plan, cfg)` don't
/// belong together.
pub fn replay_net<A>(
    alg: &A,
    topo: &Topology,
    inputs: Vec<A::Input>,
    plan: &FaultPlan,
    cfg: &NetConfig,
    trace: &DeliveryTrace,
) -> NetReport<A::Output>
where
    A: Algorithm,
    A::Reg: Serialize + Deserialize,
{
    Sim::new(alg, topo, inputs, plan, cfg, Mode::replay(trace)).run()
}

// ------------------------------------------------------------ internals

enum Ev {
    /// A frame arrives at its destination (encoded in the run's codec,
    /// or carried typed when the codec skips byte serialization).
    Deliver { payload: Payload },
    /// A process starts its next round.
    Activate { node: usize },
    /// Retransmit timer for one `snapshot_req`.
    Retransmit { node: usize, round: u64, nbr: usize },
    /// A process crashes (from the fault plan).
    Crash { node: usize },
}

struct Sim<'a, A: Algorithm> {
    plan: &'a FaultPlan,
    cfg: &'a NetConfig,
    cores: Vec<NodeCore<'a, A>>,
    outputs: Vec<Option<A::Output>>,
    queue: EventQueue<Ev>,
    now: u64,
    timing_rng: StdRng,
    mode: Mode,
    trace: DeliveryTrace,
    stats: NetStats,
    codec: FrameCodec,
    events: Vec<RtEvent>,
    /// Count of processes still working — maintained at the two status
    /// transitions so the event loop's stop check is O(1), not an O(n)
    /// scan per event.
    working: usize,
    /// The cores' output buffer, reused across calls.
    out: Vec<Frame>,
}

impl<'a, A> Sim<'a, A>
where
    A: Algorithm,
    A::Reg: Serialize + Deserialize,
{
    fn new(
        alg: &'a A,
        topo: &'a Topology,
        inputs: Vec<A::Input>,
        plan: &'a FaultPlan,
        cfg: &'a NetConfig,
        mode: Mode,
    ) -> Self {
        let n = topo.len();
        assert_eq!(inputs.len(), n, "one input per node");
        let cores = inputs
            .into_iter()
            .enumerate()
            .map(|(i, input)| {
                let neighbors = topo.neighbors(ProcessId(i)).iter().map(|q| q.index());
                NodeCore::new(alg, i, neighbors.collect(), input)
            })
            .collect();
        let mut sim = Sim {
            plan,
            cfg,
            cores,
            outputs: (0..n).map(|_| None).collect(),
            queue: EventQueue::new(),
            now: 0,
            // A disjoint stream for timing: jitter draws must not
            // perturb fault draws (or replay would change timing).
            timing_rng: StdRng::seed_from_u64(cfg.seed ^ 0x9E37_79B9_7F4A_7C15),
            mode,
            trace: DeliveryTrace::default(),
            stats: NetStats::default(),
            codec: FrameCodec::new(cfg.codec),
            events: Vec::new(),
            working: n,
            out: Vec::new(),
        };
        for node in 0..n {
            let jitter = sim.jitter();
            sim.queue.push(1 + jitter, Ev::Activate { node });
        }
        for c in &plan.crashes {
            if c.node < n {
                sim.queue.push(c.at.max(1), Ev::Crash { node: c.node });
            }
        }
        sim
    }

    fn jitter(&mut self) -> u64 {
        if self.cfg.act_jitter == 0 {
            0
        } else {
            self.timing_rng.gen_range(0..=self.cfg.act_jitter)
        }
    }

    fn run(mut self) -> NetReport<A::Output> {
        while let Some((at, ev)) = self.queue.pop() {
            if self.working == 0 {
                break;
            }
            if at > self.cfg.max_time {
                self.now = self.cfg.max_time;
                break;
            }
            self.now = at;
            self.stats.events_processed += 1;
            match ev {
                Ev::Crash { node } => {
                    if self.cores[node].crash() {
                        self.working -= 1;
                    }
                }
                Ev::Activate { node } => self.on_activate(node),
                Ev::Deliver { payload } => self.on_deliver(payload),
                Ev::Retransmit { node, round, nbr } => self.on_retransmit(node, round, nbr),
            }
        }
        let ids = |keep: fn(&NodeCore<'a, A>) -> bool| -> Vec<ProcessId> {
            (0..self.cores.len())
                .filter(|&i| keep(&self.cores[i]))
                .map(ProcessId)
                .collect()
        };
        let crashed = ids(NodeCore::is_crashed);
        let stalled = ids(NodeCore::is_working);
        NetReport {
            outputs: self.outputs,
            rounds: self.cores.iter().map(NodeCore::rounds_committed).collect(),
            crashed,
            stalled,
            time: self.now,
            events: self.events,
            trace: self.trace,
            stats: self.stats,
            codec: self.codec.codec(),
            wire: self.codec.stats(),
        }
    }

    /// Round operation 1: publish over loopback. Loopback is the
    /// process's access to its own register: reliable, one tick, never
    /// drawn against the fault plan. It still goes through the codec: a
    /// real co-located register server would parse the frame too, so
    /// the loopback leg is honest hot-path work.
    fn on_activate(&mut self, node: usize) {
        let Some(w) = self.cores[node].publish() else {
            return;
        };
        let payload = self.codec.encode(Frame {
            src: node,
            dest: node,
            body: Body::Write(w),
        });
        self.stats.loopback_writes += 1;
        self.queue.push(self.now + 1, Ev::Deliver { payload });
    }

    fn on_deliver(&mut self, payload: Payload) {
        let frame = self.codec.decode(payload);
        let node = frame.dest;
        let mut out = std::mem::take(&mut self.out);
        let core = &mut self.cores[node];
        let step = match frame.body {
            Body::Write(w) if frame.src == node => core.apply_own_write(w, &mut out),
            _ => {
                // Register servers are substrate memory: they answer
                // even when their process crashed or returned.
                if matches!(frame.body, Body::SnapshotReq(_)) && core.is_crashed() {
                    self.stats.served_dead_reads += 1;
                }
                core.deliver(frame, &mut out)
            }
        };
        // Sends leave in the core's order; each `snapshot_req` (one per
        // neighbor, in neighbor order) arms its retransmit timer right
        // after it is sent.
        let mut nbr = 0;
        for f in out.drain(..) {
            let req = match f.body {
                Body::SnapshotReq(SnapshotReq { round }) => Some(round),
                _ => None,
            };
            self.send(f);
            if let Some(round) = req {
                self.queue
                    .push(self.now + self.cfg.rto, Ev::Retransmit { node, round, nbr });
                nbr += 1;
            }
        }
        self.out = out;
        if let Some(step) = step {
            self.on_commit(node, step);
        }
    }

    fn on_retransmit(&mut self, node: usize, round: u64, nbr: usize) {
        if !self.cores[node].owes(round, nbr) {
            return; // answered (or round moved on): timer dies
        }
        self.stats.retransmits += 1;
        self.send(Frame {
            src: node,
            dest: self.cores[node].neighbors()[nbr],
            body: Body::SnapshotReq(SnapshotReq { round }),
        });
        self.queue
            .push(self.now + self.cfg.rto, Ev::Retransmit { node, round, nbr });
    }

    /// A round committed: log it, then schedule the next activation or
    /// collect the output.
    fn on_commit(&mut self, node: usize, step: Step<A::Output>) {
        if self.cfg.record_events {
            let core = &self.cores[node];
            let round = core.rounds_committed() - 1;
            emit_round_block(&mut self.events, node, round, core.neighbors());
        }
        match step {
            Step::Continue => {
                let jitter = self.jitter();
                self.queue
                    .push(self.now + 1 + jitter, Ev::Activate { node });
            }
            Step::Return(o) => {
                self.outputs[node] = Some(o);
                self.working -= 1;
                // The register server keeps serving the final value.
            }
        }
    }

    /// The fault-prone network path. Draws (or replays) this send's
    /// fate, records it in the trace, schedules deliveries. The fate is
    /// drawn *before* any encoding — fates depend only on (plan, rng,
    /// time, link), so codec choice cannot perturb the trace, and
    /// dropped sends are never serialized at all.
    fn send(&mut self, frame: Frame) {
        let kind = frame
            .body
            .trace_kind()
            .expect("only register-protocol frames cross the simulated network");
        let (from, to) = (frame.src, frame.dest);
        self.stats.sent += 1;
        let seq = self.trace.entries.len() as u64;
        let (outcome, dup_at) = self.mode.decide(self.plan, self.now, from, to, kind, seq);
        match outcome {
            Outcome::Deliver { at } => {
                self.stats.delivered += 1;
                let payload = self.codec.encode(frame);
                // Copy for the duplicate first, but schedule the primary
                // first: tick order (the tie-break) must match the
                // original primary-then-duplicate schedule.
                let dup = dup_at.map(|_| self.codec.copy(&payload));
                self.queue.push(at, Ev::Deliver { payload });
                if let (Some(d), Some(dup)) = (dup_at, dup) {
                    self.stats.duplicated += 1;
                    self.queue.push(d, Ev::Deliver { payload: dup });
                }
            }
            Outcome::Drop => self.stats.dropped += 1,
            Outcome::PartitionDrop => self.stats.partition_dropped += 1,
        }
        self.trace.entries.push(TraceEntry {
            seq,
            t: self.now,
            from,
            to,
            kind,
            outcome,
            dup_at,
        });
    }
}

/// One contiguous Lock*/Write/Read*/Unlock* block recording a round's
/// commit-time serialization (same shape the OS-thread runtime emits,
/// so the `ftcolor-analyze` race rules apply). `seq` is the event's
/// position in the whole log.
fn emit_round_block(events: &mut Vec<RtEvent>, node: usize, round: u64, neighbors: &[usize]) {
    let mut closed: Vec<usize> = neighbors.to_vec();
    closed.push(node);
    closed.sort_unstable();
    closed.dedup();
    let block = closed
        .iter()
        .map(|&r| (r, RtEventKind::Lock))
        .chain([(node, RtEventKind::Write)])
        .chain(neighbors.iter().map(|&r| (r, RtEventKind::Read)))
        .chain(closed.iter().map(|&r| (r, RtEventKind::Unlock)));
    for (register, kind) in block {
        events.push(RtEvent {
            seq: events.len() as u64,
            process: node,
            round,
            register,
            kind,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftcolor_core::{PairColor, SixColoring};
    use ftcolor_model::inputs;

    fn cycle(n: usize) -> Topology {
        Topology::cycle(n).expect("cycles need n >= 3")
    }

    fn assert_proper(topo: &Topology, outputs: &[Option<PairColor>]) {
        for p in 0..topo.len() {
            for q in topo.neighbors(ProcessId(p)) {
                if let (Some(a), Some(b)) = (&outputs[p], &outputs[q.index()]) {
                    assert_ne!(a, b, "neighbors {p} and {} share a color", q.index());
                }
            }
        }
    }

    #[test]
    fn clean_network_colors_the_cycle() {
        let topo = cycle(5);
        let ids = inputs::random_unique(5, 10_000, 7);
        let report = run_net(
            &SixColoring,
            &topo,
            ids,
            &FaultPlan::default(),
            &NetConfig::new(42),
        );
        assert!(report.all_returned(), "stalled: {:?}", report.stalled);
        assert_proper(&topo, &report.outputs);
        assert!(report.stats.sent > 0, "snapshots travel over the network");
        assert_eq!(report.stats.dropped, 0, "a clean plan drops nothing");
    }

    #[test]
    fn same_seed_same_plan_is_byte_identical() {
        let topo = cycle(8);
        let ids = inputs::random_unique(8, 10_000, 3);
        let plan = FaultPlan::lossy(0.2);
        let a = run_net(&SixColoring, &topo, ids.clone(), &plan, &NetConfig::new(9));
        let b = run_net(&SixColoring, &topo, ids, &plan, &NetConfig::new(9));
        assert_eq!(a.trace.to_json(), b.trace.to_json(), "byte-identical trace");
        assert_eq!(a.outputs, b.outputs, "identical coloring");
        assert_eq!(a.rounds, b.rounds);
    }

    #[test]
    fn replay_reproduces_a_lossy_run_without_the_rng() {
        let topo = cycle(8);
        let ids = inputs::random_unique(8, 10_000, 5);
        let mut plan = FaultPlan::lossy(0.25);
        plan.duplicate = 0.1;
        plan.reorder = 0.15;
        let cfg = NetConfig::new(13);
        let orig = run_net(&SixColoring, &topo, ids.clone(), &plan, &cfg);
        assert!(orig.all_returned());
        let again = replay_net(&SixColoring, &topo, ids, &plan, &cfg, &orig.trace);
        assert_eq!(again.outputs, orig.outputs);
        assert_eq!(again.trace, orig.trace, "replay echoes the trace");
        assert_eq!(again.time, orig.time);
    }

    #[test]
    fn a_crashed_node_stops_but_neighbors_still_terminate() {
        let topo = cycle(5);
        let ids = inputs::random_unique(5, 10_000, 1);
        let plan = FaultPlan::default().with_crash(2, 3);
        let report = run_net(&SixColoring, &topo, ids, &plan, &NetConfig::new(4));
        if report.crashed == vec![ProcessId(2)] {
            assert_eq!(report.outputs[2], None);
        }
        for p in [0, 1, 3, 4] {
            assert!(
                report.outputs[p].is_some(),
                "correct process {p} must terminate (stalled: {:?})",
                report.stalled
            );
        }
        assert!(report.stalled.is_empty());
        assert_proper(&topo, &report.outputs);
    }

    #[test]
    fn codec_choice_never_changes_semantics() {
        let topo = cycle(8);
        let ids = inputs::random_unique(8, 10_000, 3);
        let mut plan = FaultPlan::lossy(0.2);
        plan.duplicate = 0.1;
        plan.reorder = 0.15;
        let base = NetConfig::new(9).record_events(true);
        let json = run_net(&SixColoring, &topo, ids.clone(), &plan, &base);
        for codec in [Codec::Binary, Codec::Typed] {
            let cfg = base.clone().codec(codec);
            let other = run_net(&SixColoring, &topo, ids.clone(), &plan, &cfg);
            assert_eq!(other.outputs, json.outputs, "{codec:?} coloring");
            assert_eq!(other.trace, json.trace, "{codec:?} trace");
            assert_eq!(other.events, json.events, "{codec:?} event log");
            assert_eq!(other.stats, json.stats, "{codec:?} counters");
            assert_eq!(other.time, json.time, "{codec:?} clock");
            // Byte accounting: typed charges the measured binary size.
            assert!(json.wire.bytes_on_wire > other.wire.bytes_on_wire);
        }
        let binary = run_net(
            &SixColoring,
            &topo,
            ids.clone(),
            &plan,
            &base.clone().codec(Codec::Binary),
        );
        let typed = run_net(
            &SixColoring,
            &topo,
            ids,
            &plan,
            &base.clone().codec(Codec::Typed),
        );
        assert_eq!(
            binary.wire.bytes_on_wire, typed.wire.bytes_on_wire,
            "typed mode charges exactly the binary frame sizes"
        );
        assert_eq!(typed.wire.frames_encoded, 0, "typed never serializes");
        assert!(binary.wire.pool_hits > 0, "steady state reuses buffers");
    }

    #[test]
    fn dead_register_servers_keep_answering_and_are_counted() {
        let topo = cycle(5);
        let ids = inputs::random_unique(5, 10_000, 1);
        // Crash node 2 early: its neighbors still need its register.
        let plan = FaultPlan::default().with_crash(2, 3);
        let report = run_net(&SixColoring, &topo, ids, &plan, &NetConfig::new(4));
        if report.crashed == vec![ProcessId(2)] {
            assert!(
                report.stats.served_dead_reads > 0,
                "neighbors read the crashed node's register"
            );
        }
    }

    #[test]
    fn event_log_blocks_are_contiguous_per_round() {
        let topo = cycle(5);
        let ids = inputs::random_unique(5, 10_000, 2);
        let cfg = NetConfig::new(11).record_events(true);
        let report = run_net(&SixColoring, &topo, ids, &FaultPlan::default(), &cfg);
        assert!(!report.events.is_empty());
        for w in report.events.windows(2) {
            assert_eq!(w[0].seq + 1, w[1].seq, "seq is gap-free");
        }
        // Each commit block: 3 locks, 1 write, 2 reads, 3 unlocks.
        assert_eq!(report.events.len() % 9, 0);
    }
}
