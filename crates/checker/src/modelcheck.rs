//! Exhaustive schedule exploration for small instances.
//!
//! The paper's theorems quantify over *all* schedules — every interleaving
//! of activation sets and every crash pattern. For small instances this
//! universal quantification is checkable exactly: the executor is
//! deterministic given an activation set, so the execution space is the
//! graph whose nodes are reachable *configurations* (private states +
//! registers + outputs of all processes) and whose edges are the
//! `2^|working| − 1` possible non-empty activation sets.
//!
//! [`ModelChecker::explore`] performs a BFS over this graph and checks:
//!
//! * a **safety predicate** at every reachable configuration. Because a
//!   crash is just the absence of future activations, the partial outputs
//!   at *any* reachable configuration are exactly the final outputs of
//!   some crash-terminated execution — so checking every configuration
//!   covers every crash pattern with no extra machinery;
//! * **termination**: a cycle in the configuration graph is a schedule
//!   that activates working processes forever without any of them
//!   returning — a wait-freedom violation. Cycles are detected by
//!   depth-first search and returned as a replayable
//!   [`LivelockWitness`] (reach the cycle, then loop its activation sets
//!   forever).
//!
//! # Compact exploration core
//!
//! Configurations are stored as packed interned buffers
//! ([`ftcolor_model::encode::CfgKey`]): the visited-set, the frontier,
//! and the parent links never hold an [`Execution`] or a heap tuple.
//! Successors are generated **clone-free** by step/undo on a scratch
//! execution — step with a subset, re-encode only the touched slots
//! (incrementally updating the configuration hash), then restore those
//! slots from the parent's buffer. Key equality compares the packed
//! buffers themselves, so deduplication is exact.
//!
//! Transitions are stored **packed** — `(target, subset bitmask, frame
//! automorphism)` in 12 bytes — and decoded against the source node's
//! working set only when a witness needs materializing; at millions of
//! configurations this keeps the edge arena an order of magnitude
//! smaller than heap-allocated activation sets would be.
//!
//! # Determinism at every thread count
//!
//! Node ids are assigned in (parent id, activation-subset index) order,
//! so the explored graph is a pure function of the instance. The engine
//! keeps it that way under parallelism with a **level-synchronized
//! BFS**:
//!
//! 1. **Expand (parallel).** The current frontier (one BFS level) is
//!    split into per-worker index ranges; workers claim chunks from
//!    their own range and *steal* from the back of the largest remaining
//!    range when they run dry. Each worker decodes frontier nodes into
//!    its own scratch [`Execution`] and computes the expensive part: the
//!    safety predicate, the terminal check, and one packed successor key
//!    per activation subset, consulting the sharded visited-set
//!    (partitioned by the keys' precomputed `u64` hashes, one
//!    `parking_lot::Mutex`-guarded shard each) to classify successors
//!    already discovered in previous levels. The visited-set is *frozen*
//!    during this phase, so reads race with nothing.
//! 2. **Merge (sequential, canonical order).** Workers' results are
//!    reassembled by frontier index and folded in ascending node-id
//!    order: first-seen output collection, lowest-id-wins safety
//!    violation (BFS parent chains order witnesses by (length, discovery
//!    order)), terminal counting, the configuration-cap check, new-id
//!    assignment in (parent, subset) order, and the dedup-statistics
//!    counters. Duplicates discovered concurrently within one level are
//!    resolved here, deterministically, never by race outcome.
//!
//! Cycle detection and the worst-case DP then run on the resulting edge
//! list, so every outcome — witnesses, counts, `outputs_seen` order,
//! `exact_worst_case` — is bit-identical at every `--jobs` value.
//!
//! # Reduced and alternative-storage modes
//!
//! With [`ModelChecker::with_symmetry`] every configuration is
//! canonicalized under the cycle's automorphism group before
//! deduplication, exploring one representative per orbit — see
//! [`crate::symmetry`] for the soundness contract and the witness
//! de-canonicalization that keeps every surfaced schedule concretely
//! replayable on the original instance. Representatives are elected by
//! run-independent value hashes, so symmetry runs stay thread-count
//! independent too.
//!
//! With [`ModelChecker::with_por`] the checker applies certified
//! **partial-order reduction** (see [`crate::por`]): activation subsets
//! that merely interleave commuting, non-adjacent activations are
//! skipped, guarded — like symmetry — by a per-algorithm certificate
//! ([`ftcolor_model::Algorithm::por_certificate`]) that is additionally
//! cross-examined by a dynamic commutation probe before exploration
//! starts. POR composes with symmetry: reduction happens on the
//! canonical representative's working set, and since every reduced edge
//! is a real edge, witness de-canonicalization is unchanged.
//!
//! [`ModelChecker::with_extmem`] swaps the sharded in-RAM visited-set
//! for the disk-backed [`ExtVisited`] store. The expand phase then
//! classifies *every* successor as fresh (no concurrent disk probing);
//! the merge phase first resolves the level's fresh keys in one batched
//! streaming pass over the sorted runs (delayed duplicate detection),
//! then falls back to a level-local exact map — the same two-tier lookup
//! the RAM path performs, so every counter and id assignment is
//! bit-identical to the in-RAM run. Only the key→id map is budgeted:
//! the node arena and edge lists stay RAM-resident.
//!
//! [`ModelChecker::with_bloom`] replaces the visited-set with a lossy
//! Bloom filter for falsification-only sweeps: duplicate suppression
//! keeps no node ids, so suppressed edges are dropped from the graph and
//! cycle detection is impossible — outcomes carry `lossy = true`, report
//! `livelock: None` categorically, and never compare equal to sound
//! runs. Safety violations found this way are still real (their parent
//! chains are intact and replayable); a clean Bloom run certifies
//! nothing, and the honest false-positive budget is reported in
//! [`ExploreStats::bloom_fp_per_million`].
//!
//! Experiment E6 runs this on `C3`–`C5` for Algorithms 1–3 (finding the
//! crash-livelock of Algorithms 2/3 automatically, and verifying
//! Algorithm 1 clean); E7 runs it on the MIS candidates.

use crate::extmem::{BloomVisited, ExtVisited, ExtmemConfig, BLOOM_HASHES};
use crate::por::{self, PorContext};
use crate::stats::ExploreStats;
use crate::symmetry::{CycleSymmetry, SIGMA_ID};
use ftcolor_model::encode::{CfgKey, ConfigCodec, PassthroughBuild};
use ftcolor_model::schedule::ActivationSet;
use ftcolor_model::sweep::{default_jobs, RangeQueue};
use ftcolor_model::{Algorithm, Execution, ProcessId, Topology};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::hash::Hash;
use std::time::Instant;

/// A safety violation found at a reachable configuration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SafetyViolation {
    /// Human-readable description produced by the safety predicate.
    pub description: String,
    /// A schedule (from the initial configuration) reaching the violating
    /// configuration; crash everyone there to realize the violation.
    pub schedule: Vec<ActivationSet>,
}

/// A wait-freedom violation: a reachable cycle in the configuration
/// graph.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LivelockWitness {
    /// Activation sets leading from the initial configuration to the
    /// cycle entry.
    pub prefix: Vec<ActivationSet>,
    /// Activation sets around the cycle (repeat forever to starve every
    /// process activated in them).
    pub cycle: Vec<ActivationSet>,
}

/// Result of an exhaustive exploration.
///
/// Implements `PartialEq` so differential harnesses can assert that two
/// explorations (e.g. at different thread counts) produced *identical*
/// results, field for field. The [`stats`](Self::stats) field carries
/// wall-clock-dependent performance counters and is deliberately
/// **excluded** from equality.
#[derive(Debug, Clone)]
pub struct ModelCheckOutcome<O> {
    /// Number of distinct reachable configurations.
    pub configs: usize,
    /// Number of explored transitions.
    pub edges: usize,
    /// Number of configurations in which every process has returned.
    pub fully_terminated_configs: usize,
    /// First safety violation found, if any.
    pub safety_violation: Option<SafetyViolation>,
    /// A livelock witness, if the configuration graph has a cycle.
    pub livelock: Option<LivelockWitness>,
    /// Every distinct output value observed across all configurations,
    /// in first-seen BFS order (deterministic: exploration order is a
    /// pure function of the instance, never of hashing or thread count).
    pub outputs_seen: Vec<O>,
    /// Whether exploration was truncated by the configuration cap (all
    /// reported facts still hold for the explored subgraph).
    pub truncated: bool,
    /// Whether the exploration was **lossy** (Bloom-filter visited set):
    /// false positives may have silently pruned unexplored states, so a
    /// clean lossy run proves nothing — only found violations (which are
    /// exact, replayable witnesses) count. Always `false` for the sound
    /// exploration modes.
    pub lossy: bool,
    /// Performance counters for this exploration (configs/sec, memory,
    /// dedup hit-rate). Not part of equality: wall-clock varies.
    pub stats: ExploreStats,
}

impl<O: PartialEq> PartialEq for ModelCheckOutcome<O> {
    fn eq(&self, other: &Self) -> bool {
        self.configs == other.configs
            && self.edges == other.edges
            && self.fully_terminated_configs == other.fully_terminated_configs
            && self.safety_violation == other.safety_violation
            && self.livelock == other.livelock
            && self.outputs_seen == other.outputs_seen
            && self.truncated == other.truncated
            && self.lossy == other.lossy
    }
}

impl<O> ModelCheckOutcome<O> {
    /// `true` when no safety violation and no livelock were found and
    /// exploration was complete **and sound** (a lossy Bloom run never
    /// counts as clean, no matter what it saw).
    pub fn clean(&self) -> bool {
        self.safety_violation.is_none() && self.livelock.is_none() && !self.truncated && !self.lossy
    }
}

impl<O: fmt::Debug> fmt::Display for ModelCheckOutcome<O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "configs={} edges={} terminal={} safety={} livelock={} truncated={}",
            self.configs,
            self.edges,
            self.fully_terminated_configs,
            self.safety_violation.as_ref().map_or("ok", |_| "VIOLATED"),
            self.livelock.as_ref().map_or("none", |_| "FOUND"),
            self.truncated
        )?;
        if self.lossy {
            write!(f, " lossy=true")?;
        }
        Ok(())
    }
}

/// Exploration failed structurally (e.g. the instance is too large).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelCheckError {
    /// The per-process input list has the wrong length.
    InputLengthMismatch,
    /// Symmetry reduction was requested on a topology whose automorphism
    /// group the checker cannot certify (only single cycles qualify).
    SymmetryUnsupported,
    /// Symmetry reduction was requested for an algorithm that does not
    /// certify [`Algorithm::relabel_view`], so the checker cannot apply
    /// graph automorphisms to its states soundly.
    ///
    /// [`Algorithm::relabel_view`]: ftcolor_model::Algorithm::relabel_view
    SymmetryUncertifiedAlgorithm,
    /// Partial-order reduction was requested for an algorithm whose
    /// [`Algorithm::por_certificate`] returns
    /// [`ftcolor_model::PorCert::Uncertified`] — the checker refuses to
    /// skip interleavings without an independence promise to verify.
    ///
    /// [`Algorithm::por_certificate`]: ftcolor_model::Algorithm::por_certificate
    PorUncertifiedAlgorithm,
    /// The algorithm *claims* a POR certificate, but the dynamic
    /// commutation/termination probe refuted it on this instance; the
    /// payload describes the first observed contradiction. No reduced
    /// exploration is attempted.
    PorCertificateViolation(String),
    /// Both the external-memory and the Bloom visited-set modes were
    /// requested; they are mutually exclusive.
    VisitedModeConflict,
    /// The external-memory visited set hit an I/O error (payload is the
    /// formatted [`std::io::Error`]; kept as a string so the error type
    /// stays `Eq`/comparable in differential tests).
    ExtmemIo(String),
}

impl fmt::Display for ModelCheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelCheckError::InputLengthMismatch => write!(f, "one input per node required"),
            ModelCheckError::SymmetryUnsupported => {
                write!(f, "symmetry reduction requires a cycle topology")
            }
            ModelCheckError::SymmetryUncertifiedAlgorithm => {
                write!(
                    f,
                    "symmetry reduction requires the algorithm to certify relabel_view"
                )
            }
            ModelCheckError::PorUncertifiedAlgorithm => {
                write!(
                    f,
                    "partial-order reduction requires the algorithm to certify por_certificate"
                )
            }
            ModelCheckError::PorCertificateViolation(why) => {
                write!(f, "POR certificate refuted by the dynamic probe: {why}")
            }
            ModelCheckError::VisitedModeConflict => {
                write!(
                    f,
                    "the external-memory and Bloom visited-set modes are mutually exclusive"
                )
            }
            ModelCheckError::ExtmemIo(e) => {
                write!(f, "external-memory visited set I/O failed: {e}")
            }
        }
    }
}

impl std::error::Error for ModelCheckError {}

/// Every non-empty subset of `working`, as activation sets — the full
/// branching of the adversary at one configuration.
///
/// # Panics
///
/// Panics if `working` has 24 or more entries (the instance is far too
/// large for exhaustive exploration anyway).
pub fn all_nonempty_subsets(working: &[ProcessId]) -> Vec<ActivationSet> {
    subsets_with_masks(working)
        .into_iter()
        .map(|(_, set)| set)
        .collect()
}

/// [`all_nonempty_subsets`] paired with each subset's bitmask over
/// `working` (bit `i` activates `working[i]`) — the packed form stored
/// in [`Edge`]s. Masks enumerate ascending, so every exploration mode
/// branches in the same deterministic order.
fn subsets_with_masks(working: &[ProcessId]) -> Vec<(u32, ActivationSet)> {
    let k = working.len();
    assert!(k < 24, "subset enumeration needs a small instance");
    (1..(1u32 << k))
        .map(|mask| (mask, decode_mask(mask, working)))
        .collect()
}

/// Expands a packed subset bitmask back into an activation set against
/// the source configuration's (ascending) working list.
fn decode_mask(mask: u32, working: &[ProcessId]) -> ActivationSet {
    ActivationSet::of(
        (0..working.len())
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| working[i]),
    )
}

/// One transition of the configuration graph, packed: target node, the
/// bitmask of the activation subset taken (over the **source** node's
/// ascending working list — decode with [`decode_mask`]), and the
/// automorphism that canonicalized the raw successor (`SIGMA_ID`
/// outside symmetry mode). 12 bytes, `Copy`: at millions of
/// configurations the edge arena stays RAM-resident where heap
/// activation sets would not.
#[derive(Debug, Clone, Copy)]
struct Edge {
    to: u32,
    mask: u32,
    sig: u16,
}

/// BFS parent link: parent id, activation-subset bitmask (in the
/// parent's frame), canonicalizing automorphism of the edge.
type ParentLink = Option<(u32, u32, u16)>;

/// Number of hash-partitioned shards in the visited-set. A power of two
/// comfortably above any realistic worker count, so shard collisions
/// between concurrent readers are rare.
const SHARDS: usize = 64;

/// A visited-set hash-partitioned into independently locked shards.
///
/// Shard choice reuses the key's precomputed run-independent `u64`
/// configuration hash, so the partition is a pure function of the key —
/// identical across runs, threads, and machines — and the inner maps
/// skip rehashing entirely ([`PassthroughBuild`]).
struct ShardedMap {
    shards: Vec<Mutex<HashMap<CfgKey, usize, PassthroughBuild>>>,
}

impl ShardedMap {
    fn new() -> Self {
        ShardedMap {
            shards: (0..SHARDS)
                .map(|_| Mutex::new(HashMap::with_hasher(PassthroughBuild::default())))
                .collect(),
        }
    }

    fn shard_of(key: &CfgKey) -> usize {
        (key.hash as usize) % SHARDS
    }

    fn get(&self, key: &CfgKey) -> Option<usize> {
        self.shards[Self::shard_of(key)].lock().get(key).copied()
    }

    fn insert(&self, key: CfgKey, id: usize) {
        self.shards[Self::shard_of(&key)].lock().insert(key, id);
    }
}

/// The visited-set backing an exploration: exact in-RAM (default),
/// exact external-memory, or lossy Bloom.
enum Backend {
    Ram(ShardedMap),
    Ext(ExtVisited),
    Bloom(BloomVisited),
}

/// One successor computed during the parallel expand phase: the
/// activation-subset bitmask taken (over the source configuration's
/// ascending working list), the canonicalizing automorphism, and either
/// the already-known target id or the packed key for merge-phase
/// resolution. In the external-memory and Bloom modes every child is
/// `Fresh` — the store is consulted only during the merge.
enum Child {
    /// The configuration was already visited in an earlier level.
    Known(usize, u32, u16),
    /// Not yet in the visited-set at expand time; the merge phase
    /// resolves same-level duplicates and assigns the canonical id.
    Fresh(CfgKey, u32, u16),
}

/// Everything the merge phase needs about one expanded frontier node.
struct Expansion<O> {
    /// Outputs present at this configuration, in process order.
    outputs: Vec<O>,
    /// Safety-predicate result at this configuration.
    violation: Option<String>,
    /// Every process has returned: no successors.
    terminal: bool,
    /// Successors in activation-subset (mask) order; empty when terminal
    /// or when expansion is globally disabled (cap already reached).
    children: Vec<Child>,
    /// Activation subsets POR pruned at this node (`0` outside `--por`).
    /// Credited by the merge phase only when the node actually expands,
    /// so capped nodes don't count.
    pruned: u64,
}

/// The explored (possibly quotiented) configuration graph plus the
/// bookkeeping `explore` and `exact_worst_case` report.
struct Graph<O> {
    edges: Vec<Vec<Edge>>,
    parents: Vec<ParentLink>,
    /// Packed key of every node, indexed by id — the decode arena for
    /// witness reconstruction (edges store subset bitmasks, which only
    /// mean something against the source node's working list).
    nodes: Vec<CfgKey>,
    configs: usize,
    edge_count: usize,
    fully_terminated: usize,
    truncated: bool,
    /// Lowest-id violating configuration and its description.
    first_violation: Option<(usize, String)>,
    outputs_seen: Vec<O>,
    /// Bloom mode: duplicate suppression lost edges, so the graph is a
    /// subgraph of the real one and cycle detection is off the table.
    lossy: bool,
    stats: ExploreStats,
    sym: Option<CycleSymmetry>,
    root_sig: u16,
}

/// Exhaustive, multi-threaded model checker for an algorithm on a small
/// topology. Outcomes are identical at every worker count.
///
/// ```
/// use ftcolor_checker::ModelChecker;
/// use ftcolor_core::SixColoring;
/// use ftcolor_model::Topology;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let topo = Topology::cycle(3)?;
/// let safety = |topo: &Topology, outs: &[Option<_>]| {
///     topo.first_conflict(outs).map(|(a, b)| format!("conflict {a}-{b}"))
/// };
/// let outcome = ModelChecker::new(&SixColoring, &topo, vec![10, 20, 30]).explore(safety)?;
/// assert!(outcome.clean(), "{outcome}");
/// let one = ModelChecker::new(&SixColoring, &topo, vec![10, 20, 30])
///     .with_jobs(1)
///     .explore(safety)?;
/// assert_eq!(outcome, one); // bit-identical, whatever the thread count
/// # Ok(())
/// # }
/// ```
pub struct ModelChecker<'a, A: Algorithm> {
    alg: &'a A,
    topo: &'a Topology,
    inputs: Vec<A::Input>,
    max_configs: usize,
    jobs: usize,
    symmetry: bool,
    por: bool,
    extmem: Option<ExtmemConfig>,
    bloom: Option<u64>,
}

/// The former name of [`ModelChecker`], kept for existing callers.
pub type ParallelModelChecker<'a, A> = ModelChecker<'a, A>;

impl<'a, A: Algorithm + Sync> ModelChecker<'a, A>
where
    A::State: Eq + Hash + Send + Sync,
    A::Reg: Eq + Hash + Send + Sync,
    A::Output: Eq + Hash + Send + Sync,
    A::Input: Clone + Sync,
{
    /// Creates a checker with the default configuration cap (2,000,000)
    /// and one worker per available CPU.
    pub fn new(alg: &'a A, topo: &'a Topology, inputs: Vec<A::Input>) -> Self {
        ModelChecker {
            alg,
            topo,
            inputs,
            max_configs: 2_000_000,
            jobs: default_jobs(),
            symmetry: false,
            por: false,
            extmem: None,
            bloom: None,
        }
    }

    /// Overrides the configuration cap; exploration beyond it returns a
    /// truncated (but still sound for the explored part) outcome.
    pub fn with_max_configs(mut self, cap: usize) -> Self {
        self.max_configs = cap.max(1);
        self
    }

    /// Sets the worker count; `0` means one worker per available CPU.
    /// The outcome is identical for every value — only wall-clock
    /// changes.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = if jobs == 0 { default_jobs() } else { jobs };
        self
    }

    /// Enables **symmetry reduction**: configurations are canonicalized
    /// under the cycle's automorphism group and one representative per
    /// orbit is explored. Verdicts (safety / livelock / truncation) are
    /// provably identical to full exploration; `configs`/`edges` counts
    /// shrink by up to `2n` and all witnesses are de-canonicalized to
    /// concrete schedules. Two soundness guards apply: exploration fails
    /// with [`ModelCheckError::SymmetryUnsupported`] unless the topology
    /// is a single cycle, and with
    /// [`ModelCheckError::SymmetryUncertifiedAlgorithm`] unless the
    /// algorithm certifies `Algorithm::relabel_view` (the group action
    /// must reindex view-position-indexed state data when an
    /// automorphism flips the order a process sees its neighbors in).
    pub fn with_symmetry(mut self, on: bool) -> Self {
        self.symmetry = on;
        self
    }

    /// Enables certified **partial-order reduction** (see [`crate::por`]
    /// for the construction and soundness proofs): only connected
    /// activation subsets are branched on — and, for algorithms
    /// certifying solo termination, only subsets of the canonical
    /// working component. Safety, livelock, and truncation verdicts are
    /// preserved, every witness remains a concretely replayable
    /// schedule, and the reduction composes with
    /// [`Self::with_symmetry`].
    ///
    /// Two guards apply before any reduced exploration: the algorithm
    /// must certify [`ftcolor_model::Algorithm::por_certificate`]
    /// (otherwise [`ModelCheckError::PorUncertifiedAlgorithm`]) and the
    /// certificate must survive a dynamic commutation/termination probe
    /// on the actual instance (otherwise
    /// [`ModelCheckError::PorCertificateViolation`]).
    ///
    /// [`Self::exact_worst_case`] deliberately ignores this flag: the
    /// staircase defers activations in ways that preserve verdicts but
    /// not the per-path activation-count maximum.
    pub fn with_por(mut self, on: bool) -> Self {
        self.por = on;
        self
    }

    /// Backs the visited-set with the external-memory store of
    /// [`crate::extmem`]: the key→id map spills to sorted on-disk runs
    /// past `config.ram_budget_bytes` and duplicates are detected in
    /// batched streaming passes. Outcomes (dedup statistics included)
    /// are bit-identical to in-RAM runs; only the node arena and edge
    /// lists remain RAM-resident. Mutually exclusive with
    /// [`Self::with_bloom`].
    pub fn with_extmem(mut self, config: ExtmemConfig) -> Self {
        self.extmem = Some(config);
        self
    }

    /// Replaces the visited-set with a lossy Bloom filter of `bits`
    /// bits (rounded up; minimum 1024) for falsification-only sweeps.
    /// [`Self::explore`] outcomes then carry `lossy = true`: safety
    /// violations are still sound and replayable, but livelock
    /// detection is disabled and a clean run certifies nothing (a false
    /// positive may have pruned real states — the estimated budget is
    /// reported in [`ExploreStats::bloom_fp_per_million`]).
    /// [`Self::exact_worst_case`] ignores this mode and always uses a
    /// sound visited-set. Mutually exclusive with [`Self::with_extmem`].
    pub fn with_bloom(mut self, bits: u64) -> Self {
        self.bloom = Some(bits);
        self
    }

    /// The worker count this checker will use.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Explores the reachable configuration graph with `jobs` workers,
    /// checking `safety` at every configuration (return
    /// `Some(description)` to flag a violation) and searching for
    /// livelock cycles.
    ///
    /// # Errors
    ///
    /// Returns [`ModelCheckError::InputLengthMismatch`] when inputs
    /// don't match the topology,
    /// [`ModelCheckError::SymmetryUnsupported`] /
    /// [`ModelCheckError::SymmetryUncertifiedAlgorithm`] when symmetry
    /// reduction cannot be applied soundly,
    /// [`ModelCheckError::PorUncertifiedAlgorithm`] /
    /// [`ModelCheckError::PorCertificateViolation`] when POR is enabled
    /// without a (dynamically validated) certificate,
    /// [`ModelCheckError::VisitedModeConflict`] when both external-
    /// memory and Bloom modes are requested, and
    /// [`ModelCheckError::ExtmemIo`] on run-file I/O failures.
    pub fn explore(
        &self,
        safety: impl Fn(&Topology, &[Option<A::Output>]) -> Option<String> + Sync,
    ) -> Result<ModelCheckOutcome<A::Output>, ModelCheckError> {
        let (g, codec) = self.explore_graph(&safety, true, self.por, true)?;
        let mut decode_scratch = self.scratch()?;
        let mut working_of = |id: usize| -> Vec<ProcessId> {
            codec.restore(&mut decode_scratch, &g.nodes[id]);
            decode_scratch.working().to_vec()
        };
        let safety_violation = g.first_violation.as_ref().map(|(id, desc)| {
            let (schedule, _) = g.frame_schedule(*id, &mut working_of);
            // Outside symmetry mode the parent chain *is* the concrete
            // schedule. In symmetry mode it was de-canonicalized, so the
            // description is regenerated by a concrete replay (falling
            // back to the canonical-frame one if the predicate — against
            // the contract — is not symmetry-invariant).
            let description = match g.sym {
                None => desc.clone(),
                Some(_) => {
                    let mut exec = Execution::new(self.alg, self.topo, self.inputs.clone());
                    for set in &schedule {
                        exec.step_with(set);
                    }
                    safety(self.topo, exec.outputs()).unwrap_or_else(|| desc.clone())
                }
            };
            SafetyViolation {
                description,
                schedule,
            }
        });
        // A lossy (Bloom) graph is missing every suppressed edge, so any
        // cycle verdict on it would be noise — livelock detection is
        // categorically off.
        let livelock = if g.lossy {
            None
        } else {
            find_cycle(&g.edges)
                .map(|(entry, raw)| g.livelock_witness(entry, &raw, &mut working_of))
        };
        Ok(ModelCheckOutcome {
            configs: g.configs,
            edges: g.edge_count,
            fully_terminated_configs: g.fully_terminated,
            safety_violation,
            livelock,
            outputs_seen: g.outputs_seen,
            truncated: g.truncated,
            lossy: g.lossy,
            stats: g.stats,
        })
    }

    /// Computes the **exact worst-case round complexity** over *all*
    /// schedules: the maximum, over every execution path in the
    /// configuration graph, of the largest per-process activation count.
    ///
    /// Requires the configuration graph to be acyclic (i.e. the
    /// algorithm wait-free on this instance — e.g. Algorithm 1, as
    /// certified by [`ModelChecker::explore`]); with a cycle the worst
    /// case is unbounded and `None` is returned. Exploration is capped
    /// like `explore`; a truncated exploration also returns `None`. POR
    /// and Bloom modes are deliberately not applied here (the DP needs
    /// every path and every edge); the external-memory mode is, since it
    /// is exact.
    ///
    /// This turns the paper's *bounds* (`⌊3n/2⌋ + 4` for Algorithm 1)
    /// into exact constants for small instances — experiment E6 reports
    /// them.
    ///
    /// # Errors
    ///
    /// Returns [`ModelCheckError::InputLengthMismatch`] when inputs
    /// don't match the topology.
    pub fn exact_worst_case(&self) -> Result<Option<u64>, ModelCheckError> {
        Ok(self.exact_worst_case_with_stats()?.0)
    }

    /// [`Self::exact_worst_case`] plus the exploration's performance
    /// counters, so truncated (`Ok((None, _))`) runs can report the work
    /// they did instead of silently discarding it.
    ///
    /// # Errors
    ///
    /// Returns [`ModelCheckError::InputLengthMismatch`] when inputs
    /// don't match the topology.
    pub fn exact_worst_case_with_stats(
        &self,
    ) -> Result<(Option<u64>, ExploreStats), ModelCheckError> {
        let (g, codec) = self.explore_graph(
            &|_: &Topology, _: &[Option<A::Output>]| None,
            false,
            false,
            false,
        )?;
        if g.truncated {
            return Ok((None, g.stats)); // truncated: cannot certify
        }
        let mut decode_scratch = self.scratch()?;
        let mut working_of = |id: usize| -> Vec<ProcessId> {
            codec.restore(&mut decode_scratch, &g.nodes[id]);
            decode_scratch.working().to_vec()
        };
        let w = g.worst_case(self.topo.len(), &mut working_of);
        Ok((w, g.stats))
    }

    /// A fresh execution in the initial configuration.
    fn scratch(&self) -> Result<Execution<'a, A>, ModelCheckError> {
        Execution::try_new(self.alg, self.topo, self.inputs.clone())
            .map_err(|_| ModelCheckError::InputLengthMismatch)
    }

    /// Level-synchronized BFS: parallel expand, canonical sequential
    /// merge. See the module docs for why the result does not depend on
    /// the worker count.
    fn explore_graph(
        &self,
        safety: &(impl Fn(&Topology, &[Option<A::Output>]) -> Option<String> + Sync),
        track_outputs: bool,
        use_por: bool,
        allow_lossy: bool,
    ) -> Result<(Graph<A::Output>, ConfigCodec<A>), ModelCheckError> {
        if self.extmem.is_some() && self.bloom.is_some() {
            return Err(ModelCheckError::VisitedModeConflict);
        }
        let t0 = Instant::now();
        let template = self.scratch()?;
        let sym = if self.symmetry {
            let group = CycleSymmetry::for_topology(self.topo)
                .ok_or(ModelCheckError::SymmetryUnsupported)?;
            // The group action must be able to reindex view-position-
            // indexed state data. The hook's return value is
            // state-independent by contract, so probing one (discarded)
            // state clone certifies the algorithm.
            let mut probe = template.state(ProcessId(0)).clone();
            if !self.alg.relabel_view(&mut probe, &[1, 0]) {
                return Err(ModelCheckError::SymmetryUncertifiedAlgorithm);
            }
            Some(group)
        } else {
            None
        };
        // POR gate: certificate resolved, then cross-examined
        // dynamically before any reduced run.
        let por = if use_por && self.por {
            let staircase = por::staircase_for(self.alg.por_certificate())
                .ok_or(ModelCheckError::PorUncertifiedAlgorithm)?;
            por::certify_dynamic(self.alg, self.topo, &self.inputs, staircase)
                .map_err(ModelCheckError::PorCertificateViolation)?;
            Some(PorContext::new(self.topo, staircase))
        } else {
            None
        };
        let codec: ConfigCodec<A> = ConfigCodec::new(self.topo.len());
        let root = codec.encode(&template);
        let (root, root_sig) = match &sym {
            Some(s) => s.canonicalize(&codec, self.alg, true, &root),
            None => (root, SIGMA_ID),
        };

        let io_err = |e: std::io::Error| ModelCheckError::ExtmemIo(e.to_string());
        let mut backend = match (&self.extmem, self.bloom) {
            (Some(cfg), _) => {
                let mut store = ExtVisited::new(cfg, 3 * self.topo.len()).map_err(io_err)?;
                store
                    .insert_batch([(root.clone(), node_id32(0))])
                    .map_err(io_err)?;
                Backend::Ext(store)
            }
            (None, Some(bits)) if allow_lossy => {
                let mut filter = BloomVisited::new(bits);
                filter.insert(&root);
                Backend::Bloom(filter)
            }
            _ => {
                let map = ShardedMap::new();
                map.insert(root.clone(), 0);
                Backend::Ram(map)
            }
        };

        let mut g = Graph {
            edges: vec![Vec::new()],
            parents: vec![None],
            nodes: vec![root.clone()],
            configs: 1,
            edge_count: 0,
            fully_terminated: 0,
            truncated: false,
            first_violation: None,
            outputs_seen: Vec::new(),
            lossy: matches!(backend, Backend::Bloom(_)),
            stats: ExploreStats::default(),
            sym,
            root_sig,
        };
        let mut seen_set: HashSet<A::Output> = HashSet::new();
        let (mut dedup_hits, mut dedup_lookups) = (0u64, 0u64);
        let (mut por_pruned, mut bloom_suppressed) = (0u64, 0u64);

        let mut frontier: Vec<(usize, CfgKey)> = vec![(0, root)];
        while !frontier.is_empty() {
            // Once the cap has been reached, no node of this or any later
            // level may expand (each is flagged as truncated) — skip the
            // successor work entirely.
            let expand = g.configs < self.max_configs;
            let shared = match &backend {
                Backend::Ram(m) => Some(m),
                Backend::Ext(_) | Backend::Bloom(_) => None,
            };
            let results = self.expand_level(
                &template,
                &codec,
                g.sym.as_ref(),
                por.as_ref(),
                &frontier,
                safety,
                shared,
                expand,
                track_outputs,
            );

            // External-memory mode: one batched streaming pass over the
            // sorted runs resolves every key this level produced against
            // all earlier levels (delayed duplicate detection). Looking
            // up keys whose parent node the merge will later skip (cap)
            // is harmless — lookups don't mutate bookkeeping.
            let resolved: HashMap<CfgKey, usize, PassthroughBuild> =
                if let Backend::Ext(store) = &mut backend {
                    let queries: Vec<CfgKey> = results
                        .iter()
                        .flat_map(|r| {
                            r.children.iter().filter_map(|c| match c {
                                Child::Fresh(key, _, _) => Some(key.clone()),
                                Child::Known(..) => None,
                            })
                        })
                        .collect();
                    store
                        .batch_lookup(&queries)
                        .map_err(io_err)?
                        .into_iter()
                        .map(|(k, id)| (k, id as usize))
                        .collect()
                } else {
                    HashMap::default()
                };
            // Exact ids assigned to keys first seen in *this* level
            // (external-memory and Bloom modes); the RAM path keeps them
            // in the sharded map directly.
            let mut level_new: HashMap<CfgKey, usize, PassthroughBuild> = HashMap::default();
            let mut new_records: Vec<(CfgKey, u32)> = Vec::new();

            // ---- merge, in ascending node-id order ----
            let mut next_frontier: Vec<(usize, CfgKey)> = Vec::new();
            for ((id, _), result) in frontier.iter().zip(results) {
                let id = *id;
                if track_outputs {
                    for o in result.outputs {
                        if seen_set.insert(o.clone()) {
                            g.outputs_seen.push(o);
                        }
                    }
                }
                if g.first_violation.is_none() {
                    if let Some(desc) = result.violation {
                        g.first_violation = Some((id, desc));
                    }
                }
                if result.terminal {
                    g.fully_terminated += 1;
                    continue;
                }
                if g.configs >= self.max_configs {
                    g.truncated = true;
                    continue;
                }
                por_pruned += result.pruned;
                for child in result.children {
                    dedup_lookups += 1;
                    let (key, mask, sig) = match child {
                        Child::Known(nid, mask, sig) => {
                            dedup_hits += 1;
                            g.push_edge(id, nid, mask, sig);
                            continue;
                        }
                        Child::Fresh(key, mask, sig) => (key, mask, sig),
                    };
                    let next_id = match &mut backend {
                        Backend::Ram(map) => match map.get(&key) {
                            // Discovered by an earlier node of this level.
                            Some(nid) => {
                                dedup_hits += 1;
                                nid
                            }
                            None => {
                                map.insert(key.clone(), g.edges.len());
                                g.admit(id, key, mask, sig, &mut next_frontier)
                            }
                        },
                        Backend::Ext(_) => {
                            match resolved.get(&key).or_else(|| level_new.get(&key)).copied() {
                                Some(nid) => {
                                    dedup_hits += 1;
                                    nid
                                }
                                None => {
                                    let nid = g.edges.len();
                                    level_new.insert(key.clone(), nid);
                                    new_records.push((key.clone(), node_id32(nid)));
                                    g.admit(id, key, mask, sig, &mut next_frontier)
                                }
                            }
                        }
                        Backend::Bloom(filter) => {
                            if let Some(&nid) = level_new.get(&key) {
                                dedup_hits += 1;
                                nid
                            } else if filter.contains(&key) {
                                // Claimed visited, but no id survives —
                                // the edge cannot be recorded. This is
                                // the lossiness: real duplicates lose
                                // their back-edges (no cycle detection)
                                // and false positives prune reachable
                                // states.
                                dedup_hits += 1;
                                bloom_suppressed += 1;
                                continue;
                            } else {
                                filter.insert(&key);
                                level_new.insert(key.clone(), g.edges.len());
                                g.admit(id, key, mask, sig, &mut next_frontier)
                            }
                        }
                    };
                    g.push_edge(id, next_id, mask, sig);
                }
            }
            if let Backend::Ext(store) = &mut backend {
                store.insert_batch(new_records.drain(..)).map_err(io_err)?;
            }
            frontier = next_frontier;
        }

        let (s, r, o) = codec.interned_counts();
        // Rough visited-set footprint: per-config packed buffer + map
        // entry + the node arena's key clone, plus the interner arenas.
        let per_config = codec.approx_bytes_per_config() + std::mem::size_of::<CfgKey>();
        g.stats = ExploreStats::measure(
            g.configs,
            t0.elapsed(),
            (g.configs * per_config + codec.approx_interner_bytes()) as u64,
            dedup_hits,
            dedup_lookups,
            (s + r + o) as u64,
        );
        g.stats.por_pruned_sets = por_pruned;
        match &backend {
            Backend::Ram(_) => {}
            Backend::Ext(store) => {
                let s = store.stats();
                g.stats.extmem_spills = s.spills;
                g.stats.extmem_disk_bytes = s.disk_bytes;
                g.stats.extmem_merge_passes = s.merge_passes;
            }
            Backend::Bloom(filter) => {
                g.stats.bloom_bits = filter.nbits();
                g.stats.bloom_hashes = u64::from(BLOOM_HASHES);
                g.stats.bloom_insertions = filter.insertions();
                g.stats.bloom_suppressed_edges = bloom_suppressed;
                g.stats.bloom_fp_per_million = filter.est_fp_per_million();
            }
        }
        Ok((g, codec))
    }

    /// The parallel phase: expands every frontier node, returning one
    /// [`Expansion`] per node *in frontier order*. Each worker owns a
    /// scratch execution and generates successors clone-free by
    /// step/undo. The visited-set (when present — the external-memory
    /// and Bloom modes defer all classification to the merge) is only
    /// read here, never written.
    #[allow(clippy::too_many_arguments)]
    fn expand_level(
        &self,
        template: &Execution<'a, A>,
        codec: &ConfigCodec<A>,
        sym: Option<&CycleSymmetry>,
        por: Option<&PorContext>,
        frontier: &[(usize, CfgKey)],
        safety: &(impl Fn(&Topology, &[Option<A::Output>]) -> Option<String> + Sync),
        visited: Option<&ShardedMap>,
        expand: bool,
        track_outputs: bool,
    ) -> Vec<Expansion<A::Output>> {
        let expand_one = |scratch: &mut Execution<'a, A>, key: &CfgKey| -> Expansion<A::Output> {
            codec.restore(scratch, key);
            let outputs = if track_outputs {
                scratch.outputs().iter().flatten().cloned().collect()
            } else {
                Vec::new()
            };
            // The predicate is pure, so evaluating it at configurations
            // the merge ignores (those after the first violation) changes
            // nothing observable.
            let violation = safety(self.topo, scratch.outputs());
            let terminal = scratch.all_returned();
            let mut children = Vec::new();
            let mut pruned = 0u64;
            if !terminal && expand {
                let subsets = match por {
                    Some(p) => {
                        let reduced = p.reduced_subsets(scratch.working());
                        pruned = ((1u64 << scratch.working().len()) - 1) - reduced.len() as u64;
                        reduced
                    }
                    None => subsets_with_masks(scratch.working()),
                };
                for (mask, set) in subsets {
                    let touched = scratch.step_with(&set);
                    let succ = codec.encode_delta(key, scratch, &touched);
                    let (succ, sig) = match sym {
                        Some(s) => s.canonicalize(codec, self.alg, true, &succ),
                        None => (succ, SIGMA_ID),
                    };
                    children.push(match visited.and_then(|v| v.get(&succ)) {
                        Some(nid) => Child::Known(nid, mask, sig),
                        None => Child::Fresh(succ, mask, sig),
                    });
                    codec.restore_procs(scratch, &key.packed, &touched);
                }
            }
            Expansion {
                outputs,
                violation,
                terminal,
                children,
                pruned,
            }
        };

        let workers = self.jobs.min(frontier.len()).max(1);
        if workers == 1 {
            let mut scratch = template.clone();
            return frontier
                .iter()
                .map(|(_, key)| expand_one(&mut scratch, key))
                .collect();
        }

        // Per-worker index ranges with back-half stealing: worker w owns
        // an even slice of the frontier and raids the fullest remaining
        // range when its own is exhausted.
        let queues: Vec<RangeQueue> = (0..workers)
            .map(|w| {
                let lo = frontier.len() * w / workers;
                let hi = frontier.len() * (w + 1) / workers;
                RangeQueue::new(lo, hi)
            })
            .collect();
        let chunk = (frontier.len() / (workers * 8)).max(1);

        let mut results: Vec<Option<Expansion<A::Output>>> =
            (0..frontier.len()).map(|_| None).collect();
        let mut parts = crossbeam::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let queues = &queues;
                    let expand_one = &expand_one;
                    s.spawn(move |_| {
                        let mut scratch = template.clone();
                        let mut local: Vec<(usize, Expansion<A::Output>)> = Vec::new();
                        let mut run = |range: std::ops::Range<usize>| {
                            for i in range {
                                local.push((i, expand_one(&mut scratch, &frontier[i].1)));
                            }
                        };
                        loop {
                            if let Some(range) = queues[w].claim(chunk) {
                                run(range);
                                continue;
                            }
                            // Own range dry: steal from whoever has the
                            // most left (scan order fixed, outcome not —
                            // but results are reassembled by index, so
                            // scheduling can't leak into the output).
                            let victim = (0..workers)
                                .filter(|&v| v != w)
                                .max_by_key(|&v| queues[v].remaining());
                            match victim.and_then(|v| queues[v].steal()) {
                                Some(range) => run(range),
                                None => break,
                            }
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("model-check worker panicked"))
                .collect::<Vec<_>>()
        })
        .expect("model-check worker panicked");

        for (i, expansion) in parts.drain(..).flatten() {
            results[i] = Some(expansion);
        }
        results
            .into_iter()
            .map(|r| r.expect("every frontier index expanded exactly once"))
            .collect()
    }
}

impl<O> Graph<O> {
    /// Appends a freshly discovered node to the graph arenas and the next
    /// frontier, returning its id. Shared by every visited-set backend so
    /// the (parent, subset)-order id assignment is written once.
    fn admit(
        &mut self,
        parent: usize,
        key: CfgKey,
        mask: u32,
        sig: u16,
        next_frontier: &mut Vec<(usize, CfgKey)>,
    ) -> usize {
        let nid = self.edges.len();
        self.edges.push(Vec::new());
        self.parents.push(Some((node_id32(parent), mask, sig)));
        self.nodes.push(key.clone());
        next_frontier.push((nid, key));
        self.configs += 1;
        nid
    }

    fn push_edge(&mut self, from: usize, to: usize, mask: u32, sig: u16) {
        self.edges[from].push(Edge {
            to: node_id32(to),
            mask,
            sig,
        });
        self.edge_count += 1;
    }

    /// Walks the BFS parent chain from node `id` back to the root and
    /// returns the concrete schedule reaching it from the initial
    /// configuration, plus the frame permutation `τ` at `id` (concrete
    /// process = `τ[canonical]`; `SIGMA_ID` outside symmetry mode).
    /// `working_of` resolves a node id to its configuration's working
    /// list so each stored mask can be decoded in its parent's frame. In
    /// symmetry mode every canonical-frame activation set is mapped
    /// through the cumulative frame automorphism back to the original
    /// instance's process labels.
    fn frame_schedule(
        &self,
        mut id: usize,
        working_of: &mut impl FnMut(usize) -> Vec<ProcessId>,
    ) -> (Vec<ActivationSet>, u16) {
        let mut chain: Vec<(ActivationSet, u16)> = Vec::new();
        while let Some((p, mask, sig)) = &self.parents[id] {
            id = *p as usize;
            chain.push((decode_mask(*mask, &working_of(id)), *sig));
        }
        chain.reverse();
        let Some(s) = &self.sym else {
            return (chain.into_iter().map(|(set, _)| set).collect(), SIGMA_ID);
        };
        // Concrete root = inv(root_sig) · canonical root.
        let mut tau = s.invert(self.root_sig);
        let mut sched = Vec::with_capacity(chain.len());
        for (set, sig) in chain {
            sched.push(s.apply_to_set(tau, &set));
            tau = s.compose(tau, s.invert(sig));
        }
        (sched, tau)
    }

    /// Materializes a concrete [`LivelockWitness`] from a [`find_cycle`]
    /// lasso. In symmetry mode the quotient cycle closes only up to an
    /// automorphism `ρ` (the composition of the inverted edge
    /// canonicalizers), so the concrete cycle is the quotient cycle
    /// **unrolled `order(ρ)` times** with the frame permutation advanced
    /// per edge — after which the concrete configuration genuinely
    /// repeats.
    fn livelock_witness(
        &self,
        entry: usize,
        raw: &[(usize, u32, u16)],
        working_of: &mut impl FnMut(usize) -> Vec<ProcessId>,
    ) -> LivelockWitness {
        let cycle: Vec<(ActivationSet, u16)> = raw
            .iter()
            .map(|&(src, mask, sig)| (decode_mask(mask, &working_of(src)), sig))
            .collect();
        let (prefix, mut tau) = self.frame_schedule(entry, working_of);
        let Some(s) = &self.sym else {
            return LivelockWitness {
                prefix,
                cycle: cycle.into_iter().map(|(set, _)| set).collect(),
            };
        };
        let rho = cycle
            .iter()
            .fold(SIGMA_ID, |acc, (_, sig)| s.compose(acc, s.invert(*sig)));
        let passes = s.order(rho);
        let mut sets = Vec::with_capacity(passes * cycle.len());
        for _ in 0..passes {
            for (set, sig) in &cycle {
                sets.push(s.apply_to_set(tau, set));
                tau = s.compose(tau, s.invert(*sig));
            }
        }
        LivelockWitness {
            prefix,
            cycle: sets,
        }
    }

    /// Exact worst-case per-process activation count over all paths of an
    /// **acyclic** configuration graph with `n` processes: topological
    /// order via Kahn's algorithm, then a per-process max-activation DP.
    /// Returns `None` when the graph has a cycle (unbounded worst case).
    ///
    /// In symmetry mode each edge relabels the per-process counters
    /// through its canonicalizing automorphism, so every DP entry is the
    /// count vector of a *concrete* path and the maximum over the
    /// quotient equals the maximum over the full graph.
    fn worst_case(
        &self,
        n: usize,
        working_of: &mut impl FnMut(usize) -> Vec<ProcessId>,
    ) -> Option<u64> {
        let edges = &self.edges;
        let m = edges.len();
        let mut indeg = vec![0usize; m];
        for outs in edges {
            for e in outs {
                indeg[e.to as usize] += 1;
            }
        }
        let mut order = Vec::with_capacity(m);
        let mut q: VecDeque<usize> = (0..m).filter(|&v| indeg[v] == 0).collect();
        while let Some(u) = q.pop_front() {
            order.push(u);
            for e in &edges[u] {
                indeg[e.to as usize] -= 1;
                if indeg[e.to as usize] == 0 {
                    q.push_back(e.to as usize);
                }
            }
        }
        if order.len() != m {
            return None; // cyclic
        }

        let mut best: Vec<Vec<u64>> = vec![vec![0; n]; m];
        let mut answer = 0u64;
        for &u in &order {
            answer = answer.max(best[u].iter().copied().max().unwrap_or(0));
            let from = best[u].clone();
            let working = working_of(u);
            for e in &edges[u] {
                for (i, &acts) in from.iter().enumerate() {
                    // Mask bit j activates working[j]; process i is
                    // activated iff it sits at such a position in the
                    // working list.
                    let inc = u64::from(
                        working
                            .iter()
                            .position(|p| p.index() == i)
                            .is_some_and(|j| e.mask & (1 << j) != 0),
                    );
                    // Successor-frame index of source-frame process i.
                    let j = match &self.sym {
                        Some(s) => s.perm(e.sig)[i] as usize,
                        None => i,
                    };
                    best[e.to as usize][j] = best[e.to as usize][j].max(acts + inc);
                }
            }
        }
        Some(answer)
    }
}

/// A livelock lasso: the cycle's entry node plus, per edge around the
/// loop, the `(source node, subset bitmask, edge automorphism)` triple.
type Lasso = (usize, Vec<(usize, u32, u16)>);

/// Finds a cycle in the configuration graph via iterative DFS with
/// tri-color marking; returns the cycle entry node and, per edge around
/// the cycle, the `(source node, subset bitmask, edge automorphism)`
/// triple — decode each mask against its source node's working list
/// ([`decode_mask`]) to materialize the activation sets.
///
/// Invariant used for witness extraction: after taking edge index `ei`
/// out of node `u`, the stack entry stores `ei + 1`, so the edge from
/// `stack[w]` toward `stack[w+1]` (or the closing back edge, for the top
/// entry) is always `edges[node][stored_ei − 1]`.
fn find_cycle(edges: &[Vec<Edge>]) -> Option<Lasso> {
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Gray,
        Black,
    }
    let n = edges.len();
    let mut color = vec![Color::White; n];
    for start in 0..n {
        if color[start] != Color::White {
            continue;
        }
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        color[start] = Color::Gray;
        while let Some(&(u, ei)) = stack.last() {
            if ei >= edges[u].len() {
                color[u] = Color::Black;
                stack.pop();
                continue;
            }
            stack.last_mut().expect("nonempty").1 = ei + 1;
            let v = edges[u][ei].to as usize;
            match color[v] {
                Color::White => {
                    color[v] = Color::Gray;
                    stack.push((v, 0));
                }
                Color::Gray => {
                    // Back edge u → v closes the cycle v … u → v.
                    let pos = stack
                        .iter()
                        .position(|&(w, _)| w == v)
                        .expect("gray node is on the stack");
                    let cycle = stack[pos..]
                        .iter()
                        .map(|&(node, next_ei)| {
                            let e = &edges[node][next_ei - 1];
                            (node, e.mask, e.sig)
                        })
                        .collect();
                    return Some((v, cycle));
                }
                Color::Black => {}
            }
        }
    }
    None
}

/// Narrows a node id for packed [`Edge`]/[`ParentLink`] storage. Caps
/// keep explorations far below `2^32` nodes; a hypothetical overflow
/// panics rather than corrupting the graph.
fn node_id32(id: usize) -> u32 {
    u32::try_from(id).expect("node ids fit in u32")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftcolor_core::mis::{mis_violation, EagerMis, LocalMaxMis};
    use ftcolor_core::{FiveColoring, SixColoring};

    /// Safety predicate for coloring: proper + palette.
    fn coloring_safety(
        palette: u64,
    ) -> impl Fn(&Topology, &[Option<u64>]) -> Option<String> + Sync {
        move |topo, outputs| {
            if let Some((a, b)) = topo.first_conflict(outputs) {
                return Some(format!("conflict on edge {a}-{b}"));
            }
            outputs
                .iter()
                .flatten()
                .find(|&&c| c >= palette)
                .map(|c| format!("color {c} outside palette"))
        }
    }

    fn pair_safety(
        max_weight: u64,
    ) -> impl Fn(&Topology, &[Option<ftcolor_core::PairColor>]) -> Option<String> + Sync {
        move |topo, outputs| {
            if let Some((a, b)) = topo.first_conflict(outputs) {
                return Some(format!("conflict on edge {a}-{b}"));
            }
            outputs
                .iter()
                .flatten()
                .find(|c| c.weight() > max_weight)
                .map(|c| format!("color {c} outside palette"))
        }
    }

    /// Replays `prefix`, then `cycle`, asserting the configuration
    /// repeats without every process having returned.
    fn assert_livelock_replays<A: Algorithm>(
        alg: &A,
        topo: &Topology,
        ids: Vec<A::Input>,
        lw: &LivelockWitness,
    ) where
        A::State: PartialEq + fmt::Debug,
        A::Reg: PartialEq + fmt::Debug,
        A::Output: PartialEq + fmt::Debug,
    {
        let mut exec = Execution::new(alg, topo, ids);
        for set in &lw.prefix {
            exec.step_with(set);
        }
        let probe = |e: &Execution<'_, A>| {
            (0..topo.len())
                .map(|i| {
                    (
                        e.state(ProcessId(i)).clone(),
                        e.register(ProcessId(i)).cloned(),
                        e.outputs()[i].clone(),
                    )
                })
                .collect::<Vec<_>>()
        };
        let before = probe(&exec);
        for set in &lw.cycle {
            exec.step_with(set);
        }
        assert_eq!(
            probe(&exec),
            before,
            "cycle must return to the same configuration"
        );
        assert!(!exec.all_returned());
    }

    /// A unique scratch directory under the system tempdir; removed by
    /// the caller.
    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("ftcolor-mc-{tag}-{}", std::process::id()))
    }

    #[test]
    fn algorithm_1_is_clean_on_c3() {
        let topo = Topology::cycle(3).unwrap();
        let mc = ModelChecker::new(&SixColoring, &topo, vec![0, 1, 2]);
        let outcome = mc.explore(pair_safety(2)).unwrap();
        assert!(outcome.clean(), "{outcome}");
        assert!(outcome.fully_terminated_configs > 0);
        assert!(outcome.configs > 10);
        assert!(outcome.stats.dedup_lookups > 0);
        assert!(outcome.stats.peak_visited_bytes > 0);
    }

    #[test]
    fn algorithm_2_is_safe_on_c3_but_has_the_livelock() {
        // Exhaustive over C3: safety always holds; the crash-style
        // livelock (see alg2's finding test) is found automatically as a
        // cycle in the configuration graph.
        let topo = Topology::cycle(3).unwrap();
        let mc = ModelChecker::new(&FiveColoring, &topo, vec![0, 1, 2]);
        let outcome = mc.explore(coloring_safety(5)).unwrap();
        assert!(outcome.safety_violation.is_none(), "{outcome}");
        assert!(!outcome.truncated, "{outcome}");
        assert!(outcome.fully_terminated_configs > 0);
        let lw = outcome.livelock.expect("alg2 livelock");
        assert_livelock_replays(&FiveColoring, &topo, vec![0, 1, 2], &lw);
    }

    #[test]
    fn eager_mis_violation_is_found_on_c4() {
        let topo = Topology::cycle(4).unwrap();
        let mc = ModelChecker::new(&EagerMis, &topo, vec![5, 9, 2, 1]);
        let outcome = mc.explore(mis_violation).unwrap();
        let v = outcome.safety_violation.expect("violation must be found");
        assert!(v.description.contains("In/In"), "{}", v.description);
        // The witness schedule replays to the violation.
        let mut exec = Execution::new(&EagerMis, &topo, vec![5, 9, 2, 1]);
        for set in &v.schedule {
            exec.step_with(set);
        }
        assert!(mis_violation(&topo, exec.outputs()).is_some());
    }

    #[test]
    fn local_max_mis_fails_both_ways_on_c3() {
        // Exhaustive exploration finds, automatically, BOTH failure modes
        // Property 2.1 predicts some execution must exhibit:
        //
        // * a safety violation — the stale-In retraction race: p0 claims
        //   In while alone, retracts on re-check when p1 appears, but p1
        //   already committed Out against the stale claim; crash the
        //   rest, and p1 is Out with no terminating In neighbor;
        // * a livelock — a starvation cycle where a process is activated
        //   forever behind a frozen undecided register.
        let topo = Topology::cycle(3).unwrap();
        let mc = ModelChecker::new(&LocalMaxMis, &topo, vec![1, 2, 3]);
        let outcome = mc.explore(mis_violation).unwrap();
        let v = outcome
            .safety_violation
            .as_ref()
            .expect("stale-In retraction violation");
        assert!(
            v.description.contains("no terminating In neighbor"),
            "{}",
            v.description
        );
        // Replay the safety witness.
        let mut exec = Execution::new(&LocalMaxMis, &topo, vec![1, 2, 3]);
        for set in &v.schedule {
            exec.step_with(set);
        }
        assert!(mis_violation(&topo, exec.outputs()).is_some());

        let lw = outcome.livelock.expect("starvation cycle must exist");
        assert_livelock_replays(&LocalMaxMis, &topo, vec![1, 2, 3], &lw);
    }

    #[test]
    fn subset_enumeration_is_complete() {
        let working: Vec<ProcessId> = (0..3).map(ProcessId).collect();
        let subsets = all_nonempty_subsets(&working);
        assert_eq!(subsets.len(), 7);
        let mut distinct = std::collections::HashSet::new();
        for s in &subsets {
            distinct.insert(format!("{s:?}"));
        }
        assert_eq!(distinct.len(), 7);
    }

    #[test]
    fn outcomes_do_not_depend_on_the_worker_count() {
        let topo = Topology::cycle(4).unwrap();
        let run = |jobs: usize| {
            ModelChecker::new(&EagerMis, &topo, vec![5, 9, 2, 1])
                .with_jobs(jobs)
                .explore(mis_violation)
                .unwrap()
        };
        let one = run(1);
        assert!(one.safety_violation.is_some());
        for jobs in [2, 3, 8] {
            let par = run(jobs);
            assert_eq!(one, par, "jobs={jobs}");
            // Dedup statistics replay the same bookkeeping exactly.
            assert_eq!(one.stats.dedup_lookups, par.stats.dedup_lookups);
            assert_eq!(one.stats.dedup_hits, par.stats.dedup_hits);
        }
    }

    #[test]
    fn truncation_does_not_depend_on_the_worker_count() {
        let topo = Topology::cycle(4).unwrap();
        for cap in [1, 7, 50, 333] {
            let run = |jobs: usize| {
                ModelChecker::new(&FiveColoring, &topo, vec![0, 1, 2, 3])
                    .with_max_configs(cap)
                    .with_jobs(jobs)
                    .explore(coloring_safety(5))
                    .unwrap()
            };
            let one = run(1);
            assert!(one.truncated, "cap={cap}");
            assert_eq!(one, run(4), "cap={cap}");
        }
    }

    #[test]
    fn symmetry_mode_shrinks_the_graph_and_keeps_the_verdict() {
        // [0, 1, 0, 1] is a proper initial coloring invariant under the
        // rotation-by-2 subgroup, so orbits genuinely collapse.
        let topo = Topology::cycle(4).unwrap();
        let full = ModelChecker::new(&SixColoring, &topo, vec![0, 1, 0, 1])
            .explore(pair_safety(2))
            .unwrap();
        let reduced = ModelChecker::new(&SixColoring, &topo, vec![0, 1, 0, 1])
            .with_symmetry(true)
            .explore(pair_safety(2))
            .unwrap();
        assert!(full.clean() && reduced.clean());
        assert!(
            reduced.configs < full.configs,
            "symmetric instance must quotient: {} vs {}",
            reduced.configs,
            full.configs
        );
    }

    #[test]
    fn symmetry_guard_rejects_non_cycles() {
        let topo = Topology::path(3).unwrap();
        let err = ModelChecker::new(&SixColoring, &topo, vec![0, 1, 2])
            .with_symmetry(true)
            .explore(pair_safety(2))
            .unwrap_err();
        assert_eq!(err, ModelCheckError::SymmetryUnsupported);
    }

    #[test]
    fn symmetry_livelock_witness_replays_concretely() {
        let topo = Topology::cycle(3).unwrap();
        let run = |jobs: usize| {
            ModelChecker::new(&FiveColoring, &topo, vec![0, 1, 2])
                .with_symmetry(true)
                .with_jobs(jobs)
                .explore(coloring_safety(5))
                .unwrap()
        };
        let outcome = run(1);
        assert_eq!(outcome, run(8));
        let lw = outcome
            .livelock
            .expect("alg2 livelock survives the quotient");
        assert_livelock_replays(&FiveColoring, &topo, vec![0, 1, 2], &lw);
    }

    #[test]
    fn por_prunes_and_does_not_depend_on_the_worker_count() {
        let topo = Topology::cycle(4).unwrap();
        let run = |jobs: usize| {
            ModelChecker::new(&SixColoring, &topo, vec![0, 1, 2, 3])
                .with_por(true)
                .with_jobs(jobs)
                .explore(pair_safety(2))
                .unwrap()
        };
        let one = run(1);
        assert!(one.clean() && one.stats.por_pruned_sets > 0);
        for jobs in [2, 8] {
            let par = run(jobs);
            assert_eq!(one, par, "jobs={jobs}");
            assert_eq!(one.stats.por_pruned_sets, par.stats.por_pruned_sets);
            assert_eq!(one.stats.dedup_lookups, par.stats.dedup_lookups);
        }
    }

    #[test]
    fn por_refuses_uncertified_algorithms() {
        let topo = Topology::cycle(3).unwrap();
        let err = ModelChecker::new(&EagerMis, &topo, vec![5, 9, 2])
            .with_por(true)
            .explore(mis_violation)
            .unwrap_err();
        assert_eq!(err, ModelCheckError::PorUncertifiedAlgorithm);
    }

    #[test]
    fn extmem_is_bit_identical_to_ram_even_when_spilling() {
        let topo = Topology::cycle(4).unwrap();
        let ram = ModelChecker::new(&FiveColoring, &topo, vec![0, 1, 2, 3])
            .with_jobs(4)
            .explore(coloring_safety(5))
            .unwrap();
        let dir = scratch_dir("extmem");
        // A zero budget forces a spill after every level — the worst
        // case for delayed duplicate detection.
        let ext = ModelChecker::new(&FiveColoring, &topo, vec![0, 1, 2, 3])
            .with_jobs(4)
            .with_extmem(ExtmemConfig {
                dir: dir.clone(),
                ram_budget_bytes: 0,
            })
            .explore(coloring_safety(5))
            .unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(ram, ext);
        assert_eq!(ram.stats.dedup_hits, ext.stats.dedup_hits);
        assert_eq!(ram.stats.dedup_lookups, ext.stats.dedup_lookups);
        assert!(ext.stats.extmem_spills > 0);
        assert!(ext.stats.extmem_disk_bytes > 0);
    }

    #[test]
    fn bloom_is_lossy_but_violations_stay_sound() {
        let topo = Topology::cycle(4).unwrap();
        let exact = ModelChecker::new(&EagerMis, &topo, vec![5, 9, 2, 1])
            .explore(mis_violation)
            .unwrap();
        // Generously sized filter: no false positives expected, so the
        // first (lowest-id) violation matches the exact run's.
        let lossy = ModelChecker::new(&EagerMis, &topo, vec![5, 9, 2, 1])
            .with_bloom(1 << 20)
            .explore(mis_violation)
            .unwrap();
        assert!(lossy.lossy);
        assert!(lossy.livelock.is_none());
        assert!(!lossy.clean());
        assert_eq!(exact.safety_violation, lossy.safety_violation);
        assert!(lossy.stats.bloom_insertions > 0);
        assert_ne!(exact, lossy); // lossy runs never compare equal
    }

    #[test]
    fn extmem_and_bloom_together_are_refused() {
        let topo = Topology::cycle(3).unwrap();
        let dir = scratch_dir("conflict");
        let err = ModelChecker::new(&SixColoring, &topo, vec![0, 1, 2])
            .with_extmem(ExtmemConfig {
                dir: dir.clone(),
                ram_budget_bytes: 1 << 20,
            })
            .with_bloom(1 << 16)
            .explore(pair_safety(2))
            .unwrap_err();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(err, ModelCheckError::VisitedModeConflict);
    }

    #[test]
    fn jobs_zero_means_auto() {
        let topo = Topology::cycle(3).unwrap();
        let mc = ModelChecker::new(&SixColoring, &topo, vec![0, 1, 2]).with_jobs(0);
        assert!(mc.jobs() >= 1);
    }

    #[test]
    fn range_queue_claims_and_steals_disjointly() {
        let q = RangeQueue::new(0, 100);
        let a = q.claim(10).unwrap();
        let b = q.steal().unwrap();
        let c = q.claim(1000).unwrap();
        assert_eq!(a, 0..10);
        assert_eq!(b, 55..100);
        assert_eq!(c, 10..55);
        assert!(q.claim(1).is_none());
        assert!(q.steal().is_none());
    }
}

#[cfg(test)]
mod exact_tests {
    use super::*;
    use ftcolor_core::{FiveColoring, SixColoring};

    #[test]
    fn exact_worst_case_for_algorithm_1_on_c3() {
        let topo = Topology::cycle(3).unwrap();
        let mc = ModelChecker::new(&SixColoring, &topo, vec![0, 1, 2]);
        let exact = mc.exact_worst_case().unwrap().expect("acyclic");
        // The Theorem 3.1 bound is ⌊9/2⌋ + 4 = 8; the true worst case
        // must not exceed it and must be at least 2 (round 1 always
        // conflicts under simultaneous wake-up).
        assert!(exact <= 8, "exact {exact} exceeds the proven bound");
        assert!(exact >= 2);
        let one = ModelChecker::new(&SixColoring, &topo, vec![0, 1, 2])
            .with_jobs(1)
            .exact_worst_case()
            .unwrap();
        assert_eq!(one, Some(exact), "the bound does not depend on jobs");
    }

    #[test]
    fn exact_worst_case_is_input_arrangement_sensitive() {
        let topo = Topology::cycle(4).unwrap();
        let mc_chain = ModelChecker::new(&SixColoring, &topo, vec![0, 1, 2, 3]);
        let chain = mc_chain.exact_worst_case().unwrap().unwrap();
        let mc_alt = ModelChecker::new(&SixColoring, &topo, vec![0, 2, 1, 3]);
        let alt = mc_alt.exact_worst_case().unwrap().unwrap();
        assert!(chain <= 10 && alt <= 10);
        // Both obey Theorem 3.1; the monotone-chain input cannot be
        // easier than the alternating-ish one.
        assert!(chain >= alt, "chain {chain} vs alt {alt}");
    }

    #[test]
    fn cyclic_graphs_yield_none() {
        // Algorithm 2 on C3 has the documented livelock: unbounded.
        let topo = Topology::cycle(3).unwrap();
        let mc = ModelChecker::new(&FiveColoring, &topo, vec![0, 1, 2]);
        assert_eq!(mc.exact_worst_case().unwrap(), None);
    }

    #[test]
    fn truncated_worst_case_still_reports_stats() {
        let topo = Topology::cycle(3).unwrap();
        let mc = ModelChecker::new(&SixColoring, &topo, vec![0, 1, 2]).with_max_configs(5);
        let (w, stats) = mc.exact_worst_case_with_stats().unwrap();
        assert_eq!(w, None, "cap of 5 certifies nothing");
        assert!(stats.dedup_lookups > 0, "but the work done is reported");
    }

    #[test]
    fn symmetry_preserves_exact_worst_case() {
        let topo = Topology::cycle(4).unwrap();
        for inputs in [vec![0u64, 1, 2, 3], vec![7, 7, 7, 7], vec![3, 1, 3, 1]] {
            let full = ModelChecker::new(&SixColoring, &topo, inputs.clone())
                .exact_worst_case()
                .unwrap();
            let reduced = ModelChecker::new(&SixColoring, &topo, inputs.clone())
                .with_symmetry(true)
                .exact_worst_case()
                .unwrap();
            assert_eq!(full, reduced, "inputs {inputs:?}");
        }
    }
}
