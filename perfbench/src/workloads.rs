//! The three workloads: inputs generated from the benchmark seed, the
//! untraced end-to-end run through the entry point each `ftcolor`
//! subcommand calls, and the traced run that calls the layers one by
//! one inside spans.
//!
//! Every run checks its own output; a failed check is reported, never
//! panicked on, so `run.py` can count it against the runs attempted.

use std::collections::BTreeMap;
use std::sync::Mutex;

use ftcolor_analyze::{check_events, net_run};
use ftcolor_batch::{
    run_service, ArrivalPlan, BatchConfig, BatchEngine, BatchOutcome, InstanceSpec, ServiceConfig,
    Termination, WorkloadGen, WorkloadSpec,
};
use ftcolor_checker::{ModelCheckOutcome, ParallelModelChecker, Shrinker, ShrunkLivelock};
use ftcolor_core::{FiveColoring, FiveColoringPatched};
use ftcolor_model::{inputs, Topology};
use ftcolor_net::{run_net, Codec, FaultPlan, NetConfig};

use crate::spans::Trace;

/// Worker threads for the multi-threaded paths (the target box has 2 CPUs).
pub const JOBS: usize = 2;
/// Registry entry the netsim workload runs.
const NETSIM_ALG: &str = "alg2p";
/// Identifier universe `analyze::net_run` draws netsim ids from.
const NET_ID_UNIVERSE: u64 = 10_000;
/// Palette of the five-coloring algorithms.
const PALETTE: u64 = 5;
/// Configuration cap of `ftcolor modelcheck` (never reached on C5).
const MAX_CONFIGS: usize = 2_000_000;
/// Instances generated and admitted per span in the traced fleet run, so
/// the span count stays small while generation and admission interleave.
const ADMIT_CHUNK: u64 = 4096;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `ftcolor netsim` on a lossy network with one crash.
    NetsimLossy,
    /// `ftcolor serve` with a burst of small instances.
    ServeFleet,
    /// `ftcolor modelcheck` of Algorithm 2 on C5.
    ModelcheckC5,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::NetsimLossy,
        Workload::ServeFleet,
        Workload::ModelcheckC5,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::NetsimLossy => "netsim-lossy",
            Workload::ServeFleet => "serve-fleet",
            Workload::ModelcheckC5 => "modelcheck-c5",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input scale: the measured size, or a tiny one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark measures.
    Full,
    /// Sizes that finish in well under a second (the smoke tests).
    #[cfg_attr(not(test), allow(dead_code))]
    Tiny,
}

/// SplitMix64 finalizer: derives independent program seeds from the
/// benchmark seed.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt;
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// netsim-lossy inputs: ring size, the program seed (ids and both RNG
/// streams) and the fault plan.
#[derive(Debug, Clone)]
pub struct NetsimInputs {
    /// Ring size.
    pub n: usize,
    /// Seed handed to the program.
    pub seed: u64,
    /// Drop 0.05, delays in `[1, 4]`, one seeded crash at tick 6.
    pub plan: FaultPlan,
}

impl NetsimInputs {
    /// Generates the inputs for benchmark seed `seed`.
    pub fn generate(size: Size, seed: u64) -> Self {
        let n: usize = match size {
            Size::Full => 10_000,
            Size::Tiny => 200,
        };
        let victim = mix(seed, 0xc4a5_11ed) % n as u64;
        let mut plan = FaultPlan::lossy(0.05)
            .with_crash(usize::try_from(victim).expect("victim < n fits usize"), 6);
        plan.delay_max = 4;
        NetsimInputs {
            n,
            seed: mix(seed, 0x0e75_1a00),
            plan,
        }
    }

    /// The `ftcolor netsim --codec binary` configuration.
    pub fn config(&self) -> NetConfig {
        NetConfig::new(self.seed)
            .record_events(true)
            .codec(Codec::Binary)
    }
}

/// serve-fleet inputs: 500,000 C5 instances of Algorithm 2-patched in
/// one burst, random schedules with p = 0.5, crash noise 0.1.
pub fn fleet_config(size: Size, seed: u64) -> ServiceConfig {
    ServiceConfig {
        n: 5,
        instances: match size {
            Size::Full => 500_000,
            Size::Tiny => 2_000,
        },
        rate: 1e9,
        seed: mix(seed, 0xf1ee_7000),
        sync: false,
        p: 0.5,
        crash_prob: 0.1,
        crash_horizon: 8,
        universe: 64,
        fuel: 100_000,
        quantum: 8,
        jobs: JOBS,
    }
}

/// modelcheck-c5 inputs (the seed is not used: every schedule is
/// explored) and the exact reachable graph size.
fn modelcheck_instance(size: Size) -> (Vec<u64>, usize, usize) {
    match size {
        Size::Full => ((0..5).collect(), 1_445_019, 8_746_774),
        Size::Tiny => ((0..3).collect(), 761, 1_468),
    }
}

/// The safety predicate `ftcolor modelcheck` checks for the
/// five-coloring algorithms.
fn coloring_safety(topo: &Topology, outs: &[Option<u64>]) -> Option<String> {
    if let Some((a, b)) = topo.first_conflict(outs) {
        return Some(format!("conflict on edge {a}-{b}"));
    }
    outs.iter()
        .flatten()
        .find(|&&c| c >= PALETTE)
        .map(|c| format!("color {c} outside the palette"))
}

fn color_index(c: &u64) -> usize {
    usize::try_from(*c).expect("color fits usize")
}

/// What one untraced run produced.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// Units of work the run completed: simulator events, colorings or
    /// configurations.
    pub work: u64,
    /// Deterministic fingerprint that must repeat at the same seed.
    pub digest: String,
    /// Failed output checks (empty = correct).
    pub failures: Vec<String>,
}

/// One untraced run through the public entry point of the workload's
/// `ftcolor` subcommand. `setup_done` is called right before the first
/// call into the main layer; when it returns `false` the run stops there.
pub fn end_to_end(
    w: Workload,
    size: Size,
    seed: u64,
    setup_done: impl FnOnce() -> bool,
) -> Option<Verdict> {
    match w {
        Workload::NetsimLossy => {
            let inp = NetsimInputs::generate(size, seed);
            let cfg = inp.config();
            if !setup_done() {
                return None;
            }
            let Some(out) = net_run(NETSIM_ALG, inp.n, inp.seed, &inp.plan, &cfg) else {
                return Some(Verdict {
                    work: 0,
                    digest: String::new(),
                    failures: vec!["net_run refused the instance".into()],
                });
            };
            let s = &out.summary;
            let mut failures = Vec::new();
            check(&mut failures, s.valid, "coloring oracle violated");
            check(&mut failures, s.palette_ok, "color outside the palette");
            check(
                &mut failures,
                s.all_correct_returned && s.stalled.is_empty(),
                "a correct process did not return",
            );
            check(&mut failures, s.race_diags == 0, "race diagnostics");
            Some(Verdict {
                work: s.stats.events_processed,
                digest: s.trace_digest.clone(),
                failures,
            })
        }
        Workload::ServeFleet => {
            let cfg = fleet_config(size, seed);
            if !setup_done() {
                return None;
            }
            let (s, _) = run_service(&FiveColoringPatched, "alg2p", 5, color_index, &cfg);
            let mut failures = Vec::new();
            check(&mut failures, s.valid, "service verdict invalid");
            check(&mut failures, s.stalled == 0, "stalled instances");
            check(
                &mut failures,
                s.completed == cfg.instances,
                "not every instance completed",
            );
            Some(Verdict {
                work: s.completed,
                digest: s.outputs_digest,
                failures,
            })
        }
        Workload::ModelcheckC5 => {
            let (ids, configs, edges) = modelcheck_instance(size);
            let topo = Topology::cycle(ids.len()).expect("C5 is a cycle");
            let mc = checker(&topo, ids.clone(), JOBS);
            if !setup_done() {
                return None;
            }
            let outcome = mc.explore(coloring_safety).map_err(|e| e.to_string());
            let shrunk = shrink(&outcome, &topo, ids, JOBS);
            Some(modelcheck_verdict(
                &outcome,
                shrunk.as_ref(),
                (configs, edges),
            ))
        }
    }
}

/// The checker `ftcolor modelcheck --alg alg2 --jobs <jobs>` builds.
fn checker(topo: &Topology, ids: Vec<u64>, jobs: usize) -> ParallelModelChecker<'_, FiveColoring> {
    ParallelModelChecker::new(&FiveColoring, topo, ids)
        .with_max_configs(MAX_CONFIGS)
        .with_jobs(jobs)
        .with_symmetry(false)
        .with_por(false)
}

/// Shrinks the livelock the exploration found, as `ftcolor modelcheck` does.
fn shrink(
    outcome: &Result<ModelCheckOutcome<u64>, String>,
    topo: &Topology,
    ids: Vec<u64>,
    jobs: usize,
) -> Option<ShrunkLivelock> {
    let lw = outcome.as_ref().ok()?.livelock.as_ref()?;
    Shrinker::new(&FiveColoring, topo, ids)
        .with_jobs(jobs)
        .shrink_livelock(lw)
}

fn check(failures: &mut Vec<String>, ok: bool, what: &str) {
    if !ok {
        failures.push(what.to_string());
    }
}

fn modelcheck_verdict(
    outcome: &Result<ModelCheckOutcome<u64>, String>,
    shrunk: Option<&ShrunkLivelock>,
    expected: (usize, usize),
) -> Verdict {
    let o = match outcome {
        Ok(o) => o,
        Err(e) => {
            return Verdict {
                work: 0,
                digest: String::new(),
                failures: vec![format!("explore failed: {e}")],
            }
        }
    };
    let mut failures = Vec::new();
    check(
        &mut failures,
        o.safety_violation.is_none(),
        "safety violated",
    );
    check(&mut failures, !o.truncated, "exploration truncated");
    check(
        &mut failures,
        o.livelock.is_some(),
        "the Alg 2 livelock was not found",
    );
    check(
        &mut failures,
        (o.configs, o.edges) == expected,
        "reachable graph size differs from the exhaustive count",
    );
    check(
        &mut failures,
        shrunk.is_some_and(|s| !s.witness.cycle.is_empty() && s.stats.shrunk_slots > 0),
        "no non-empty shrunk livelock witness",
    );
    let (slots, replays) = shrunk.map_or((0, 0), |s| (s.stats.shrunk_slots, s.stats.replays));
    Verdict {
        work: o.configs as u64,
        digest: format!("{}/{}/{slots}/{replays}", o.configs, o.edges),
        failures,
    }
}

/// What one traced run produced.
#[derive(Debug, Clone)]
pub struct Traced {
    /// Per-layer metrics measured on this workload (layers the workload
    /// bypasses are absent).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Deterministic fingerprint that must repeat at the same seed.
    pub digest: String,
    /// Wall time of the traced pass that mirrors the end-to-end run.
    pub wall_s: f64,
    /// Failed output or jobs-invariance checks (empty = correct).
    pub failures: Vec<String>,
}

/// One traced run: every layer call of the end-to-end command in its
/// own span, plus (on the multi-threaded workloads) a second pass at one
/// worker for the jobs-2 speed-up.
pub fn traced(w: Workload, size: Size, seed: u64) -> Traced {
    let mut tr = Trace::new();
    let mut metrics = BTreeMap::new();
    let (root, digest, failures) = match w {
        Workload::NetsimLossy => trace_netsim(size, seed, &mut tr, &mut metrics),
        Workload::ServeFleet => trace_fleet(size, seed, &mut tr, &mut metrics),
        Workload::ModelcheckC5 => trace_modelcheck(size, &mut tr, &mut metrics),
    };
    metrics.insert("trace.unattributed_ratio", tr.unattributed_ratio(root));
    Traced {
        metrics,
        digest,
        wall_s: tr.duration_s(root),
        failures,
    }
}

type Metrics = BTreeMap<&'static str, f64>;

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn trace_netsim(
    size: Size,
    seed: u64,
    tr: &mut Trace,
    m: &mut Metrics,
) -> (usize, String, Vec<String>) {
    let root = tr.enter("pass");
    let (inp, cfg, topo, ids) = tr.time("bench.setup", || {
        let inp = NetsimInputs::generate(size, seed);
        let cfg = inp.config();
        let topo = Topology::cycle(inp.n).expect("the ring has n >= 3");
        let ids = inputs::random_unique(inp.n, NET_ID_UNIVERSE, inp.seed);
        (inp, cfg, topo, ids)
    });
    let report = tr.time("net.run_net", || {
        run_net(&FiveColoringPatched, &topo, ids, &inp.plan, &cfg)
    });
    let diags = tr.time("analyze.check_events", || {
        check_events(NETSIM_ALG, &topo, &report.events)
    });
    let digest = tr.time("net.trace_digest", || report.trace.digest());
    let failures = tr.time("bench.verify", || {
        let mut f = Vec::new();
        check(
            &mut f,
            topo.is_proper_partial_coloring(&report.outputs),
            "coloring oracle violated",
        );
        check(
            &mut f,
            report.outputs.iter().flatten().all(|&c| c < PALETTE),
            "color outside the palette",
        );
        check(
            &mut f,
            report.stalled.is_empty()
                && report
                    .outputs
                    .iter()
                    .enumerate()
                    .all(|(i, o)| o.is_some() || report.crashed.iter().any(|p| p.index() == i)),
            "a correct process did not return",
        );
        check(&mut f, diags.is_empty(), "race diagnostics");
        f
    });
    tr.exit(root);

    let events = report.events.len() as u64;
    let check_s = tr.total_s(root, "analyze.check_events");
    m.insert("analyze.check_events_s", check_s);
    m.insert("analyze.register_events", events as f64);
    m.insert(
        "analyze.ns_per_register_event",
        if events == 0 {
            0.0
        } else {
            check_s * 1e9 / events as f64
        },
    );
    m.insert("analyze.race_diags", diags.len() as f64);
    let s = &report.stats;
    m.insert("net.run_net_s", tr.total_s(root, "net.run_net"));
    m.insert("net.events", s.events_processed as f64);
    m.insert("net.sent", s.sent as f64);
    m.insert("net.retransmits", s.retransmits as f64);
    m.insert("net.wire_bytes", report.wire.bytes_on_wire as f64);
    m.insert("net.delivered_ratio", ratio(s.delivered, s.sent));
    m.insert(
        "net.pool_hit_ratio",
        ratio(
            report.wire.pool_hits,
            report.wire.pool_hits + report.wire.pool_misses,
        ),
    );
    m.insert("net.trace_digest_s", tr.total_s(root, "net.trace_digest"));
    bench_spans(tr, root, m);
    (root, format!("{digest:016x}"), failures)
}

/// The benchmark's own top-level spans.
fn bench_spans(tr: &Trace, root: usize, m: &mut Metrics) {
    m.insert("bench.setup_s", tr.total_s(root, "bench.setup"));
    m.insert("bench.verify_s", tr.total_s(root, "bench.verify"));
}

/// Order-independent fold of fleet outcomes (the sink runs on whichever
/// worker retires an instance).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct FleetAcc {
    returned: u64,
    crashed: u64,
    stalled: u64,
    activations: u64,
    improper: u64,
    off_palette: u64,
    digest_add: u64,
    digest_xor: u64,
}

impl FleetAcc {
    fn fold(&mut self, o: &BatchOutcome<u64>) {
        let term = match o.termination {
            Termination::Returned => {
                self.returned += 1;
                0
            }
            Termination::Crashed => {
                self.crashed += 1;
                1
            }
            Termination::Stalled => {
                self.stalled += 1;
                2
            }
        };
        let mut h = fnv(0xcbf2_9ce4_8422_2325, o.index as u64);
        h = fnv(h, term);
        h = fnv(h, o.time_steps);
        self.improper += ring_conflicts(&o.outputs);
        for c in &o.outputs {
            if c.is_some_and(|c| c >= PALETTE) {
                self.off_palette += 1;
            }
            h = fnv(h, c.map_or(0, |c| c + 1));
        }
        for &a in &o.activations {
            self.activations += a;
            h = fnv(h, a);
        }
        self.digest_add = self.digest_add.wrapping_add(h);
        self.digest_xor ^= h;
    }
}

/// Ring edges `(i, i + 1 mod n)` whose two ends returned the same color.
fn ring_conflicts(outputs: &[Option<u64>]) -> u64 {
    let n = outputs.len();
    (0..n)
        .filter(|&i| outputs[i].is_some() && outputs[i] == outputs[(i + 1) % n])
        .count() as u64
}

fn fnv(mut h: u64, word: u64) -> u64 {
    for b in word.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Everything a fleet pass computes that must not depend on `jobs`.
#[derive(Debug, Clone, PartialEq, Eq)]
struct FleetFacts {
    acc: FleetAcc,
    rounds: u64,
    interned: (usize, usize, usize),
}

/// The batched path of `batch::run_service`, one layer call per span.
fn fleet_pass(
    cfg: &ServiceConfig,
    tr: &mut Trace,
    root_name: &'static str,
) -> (usize, FleetFacts, usize, Vec<String>) {
    let root = tr.enter(root_name);
    let (mut engine, mut gen) = tr.time("bench.setup", || {
        let engine = BatchEngine::new(
            &FiveColoringPatched,
            cfg.n,
            BatchConfig {
                jobs: cfg.jobs,
                quantum: cfg.quantum,
                record_traces: false,
            },
        );
        let gen = WorkloadGen::new(
            cfg.seed,
            WorkloadSpec {
                n: cfg.n,
                universe: cfg.universe,
                sync: cfg.sync,
                p: cfg.p,
                crash_prob: cfg.crash_prob,
                crash_horizon: cfg.crash_horizon,
                fuel: cfg.fuel,
            },
        );
        (engine, gen)
    });
    let plan = tr.time("batch.arrival", || {
        ArrivalPlan::generate(cfg.seed, cfg.rate, cfg.instances)
    });
    let acc = Mutex::new(FleetAcc::default());
    let sink = |o: BatchOutcome<u64>| {
        acc.lock().expect("no sink panicked").fold(&o);
    };
    let max_rounds = plan.rounds() as u64 + cfg.fuel / u64::from(cfg.quantum.max(1)) + 16;
    let mut admitted = 0u64;
    while (admitted < cfg.instances || engine.in_flight() > 0) && engine.rounds() < max_rounds {
        let mut due = plan.arrivals(engine.rounds());
        while due > 0 {
            let k = due.min(ADMIT_CHUNK);
            let specs: Vec<InstanceSpec> = tr.time("batch.arrival", || {
                (0..k).map(|_| gen.next_spec()).collect()
            });
            tr.time("batch.admit", || {
                for s in &specs {
                    engine.admit(s);
                }
            });
            due -= k;
            admitted += k;
        }
        tr.time("batch.run_round", || engine.run_round(&sink));
    }
    let facts = FleetFacts {
        acc: acc.into_inner().expect("no sink panicked"),
        rounds: engine.rounds(),
        interned: engine.interned_counts(),
    };
    let interner_bytes = engine.approx_interner_bytes();
    let failures = tr.time("bench.verify", || {
        let a = &facts.acc;
        let mut f = Vec::new();
        check(&mut f, a.improper == 0, "adjacent processes share a color");
        check(&mut f, a.off_palette == 0, "color outside the palette");
        check(&mut f, a.stalled == 0, "stalled instances");
        check(
            &mut f,
            a.returned + a.crashed + a.stalled == cfg.instances,
            "not every instance completed",
        );
        f
    });
    tr.exit(root);
    (root, facts, interner_bytes, failures)
}

fn trace_fleet(
    size: Size,
    seed: u64,
    tr: &mut Trace,
    m: &mut Metrics,
) -> (usize, String, Vec<String>) {
    let cfg = fleet_config(size, seed);
    let (root, facts, interner_bytes, mut failures) = fleet_pass(&cfg, tr, "pass");
    let one = ServiceConfig {
        jobs: 1,
        ..cfg.clone()
    };
    let (root1, facts1, _, _) = fleet_pass(&one, tr, "pass.jobs1");
    check(
        &mut failures,
        facts1 == facts,
        "jobs 1 and jobs 2 disagree on the fleet outcomes",
    );

    let run_round_s = tr.total_s(root, "batch.run_round");
    m.insert("batch.arrival_s", tr.total_s(root, "batch.arrival"));
    m.insert("batch.admit_s", tr.total_s(root, "batch.admit"));
    m.insert("batch.run_round_s", run_round_s);
    m.insert("batch.round_max_s", tr.max_s(root, "batch.run_round"));
    m.insert("batch.rounds", facts.rounds as f64);
    let a = &facts.acc;
    m.insert("batch.total_activations", a.activations as f64);
    m.insert("batch.interned_states", facts.interned.0 as f64);
    m.insert("batch.interned_regs", facts.interned.1 as f64);
    m.insert(
        "batch.interner_bytes_per_instance",
        interner_bytes as f64 / cfg.instances as f64,
    );
    m.insert(
        "batch.jobs2_speedup",
        tr.total_s(root1, "batch.run_round") / run_round_s,
    );
    bench_spans(tr, root, m);
    let digest = format!("{:016x}{:016x}", a.digest_add, a.digest_xor);
    (root, digest, failures)
}

/// What a modelcheck pass found, compared across worker counts.
type McFacts = (
    Result<ModelCheckOutcome<u64>, String>,
    Option<ShrunkLivelock>,
);

fn modelcheck_pass(
    size: Size,
    jobs: usize,
    tr: &mut Trace,
    root_name: &'static str,
) -> (usize, McFacts, Verdict) {
    let root = tr.enter(root_name);
    let (ids, topo, expected) = tr.time("bench.setup", || {
        let (ids, configs, edges) = modelcheck_instance(size);
        let topo = Topology::cycle(ids.len()).expect("C5 is a cycle");
        (ids, topo, (configs, edges))
    });
    let mc = tr.time("checker.new", || checker(&topo, ids.clone(), jobs));
    let outcome = tr.time("checker.explore", || {
        mc.explore(coloring_safety).map_err(|e| e.to_string())
    });
    let shrunk = tr.time("checker.shrink", || shrink(&outcome, &topo, ids, jobs));
    let verdict = tr.time("bench.verify", || {
        modelcheck_verdict(&outcome, shrunk.as_ref(), expected)
    });
    tr.exit(root);
    (root, (outcome, shrunk), verdict)
}

fn trace_modelcheck(size: Size, tr: &mut Trace, m: &mut Metrics) -> (usize, String, Vec<String>) {
    let (root, facts, verdict) = modelcheck_pass(size, JOBS, tr, "pass");
    let mut failures = verdict.failures;
    let (root1, facts1, _) = modelcheck_pass(size, 1, tr, "pass.jobs1");
    check(
        &mut failures,
        facts1 == facts,
        "jobs 1 and jobs 2 disagree on the exploration or the shrunk witness",
    );

    let explore_s = tr.total_s(root, "checker.explore");
    m.insert("checker.new_s", tr.total_s(root, "checker.new"));
    m.insert("checker.explore_s", explore_s);
    if let Ok(o) = &facts.0 {
        m.insert("checker.configs", o.configs as f64);
        m.insert("checker.edges", o.edges as f64);
        m.insert(
            "checker.dedup_hit_ratio",
            ratio(o.stats.dedup_hits, o.stats.dedup_lookups),
        );
        m.insert(
            "checker.peak_visited_bytes",
            o.stats.peak_visited_bytes as f64,
        );
        m.insert(
            "checker.visited_bytes_per_config",
            ratio(o.stats.peak_visited_bytes, o.configs as u64),
        );
    }
    m.insert("checker.shrink_s", tr.total_s(root, "checker.shrink"));
    m.insert(
        "checker.shrink_replays",
        facts.1.as_ref().map_or(0.0, |s| s.stats.replays as f64),
    );
    m.insert(
        "checker.jobs2_speedup",
        tr.total_s(root1, "checker.explore") / explore_s,
    );
    bench_spans(tr, root, m);
    (root, verdict.digest, failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(w: Workload, seed: u64) -> String {
        let v = end_to_end(w, Size::Tiny, seed, || true).expect("the run is not cut at setup");
        assert!(v.failures.is_empty(), "{}: {:?}", w.name(), v.failures);
        v.digest
    }

    #[test]
    fn a_new_seed_changes_the_outputs_and_the_same_seed_repeats_them() {
        for w in [Workload::NetsimLossy, Workload::ServeFleet] {
            assert_eq!(digest(w, 7), digest(w, 7), "{}", w.name());
            assert_ne!(digest(w, 7), digest(w, 8), "{}", w.name());
        }
    }

    #[test]
    fn the_seed_reaches_the_generated_inputs() {
        let (a, b) = (
            NetsimInputs::generate(Size::Full, 1),
            NetsimInputs::generate(Size::Full, 2),
        );
        assert_ne!(a.seed, b.seed);
        assert_eq!(a.plan.crashes.len(), 1);
        assert!(a.plan.crashes[0].node < a.n);
        assert_eq!(NetsimInputs::generate(Size::Full, 1).plan, a.plan);
        assert_ne!(
            fleet_config(Size::Full, 1).seed,
            fleet_config(Size::Full, 2).seed
        );
    }

    #[test]
    fn setup_only_stops_before_the_main_layer() {
        for w in Workload::ALL {
            let mut called = false;
            assert!(end_to_end(w, Size::Tiny, 3, || {
                called = true;
                false
            })
            .is_none());
            assert!(called, "{}", w.name());
        }
    }

    #[test]
    fn every_workload_passes_its_checks_at_tiny_size() {
        for w in Workload::ALL {
            let v = end_to_end(w, Size::Tiny, 5, || true).expect("full run");
            assert!(v.failures.is_empty(), "{}: {:?}", w.name(), v.failures);
            assert!(v.work > 0, "{}", w.name());
            let t = traced(w, Size::Tiny, 5);
            assert!(
                t.failures.is_empty(),
                "{} traced: {:?}",
                w.name(),
                t.failures
            );
            assert!(t.wall_s > 0.0);
            let u = t.metrics["trace.unattributed_ratio"];
            assert!((0.0..=1.0).contains(&u), "{}: {u}", w.name());
            assert_eq!(traced(w, Size::Tiny, 5).digest, t.digest, "{}", w.name());
        }
    }

    #[test]
    fn each_workload_reports_its_own_layers() {
        let names = |w| {
            traced(w, Size::Tiny, 2)
                .metrics
                .into_keys()
                .collect::<Vec<_>>()
        };
        let netsim = names(Workload::NetsimLossy);
        assert!(netsim.contains(&"analyze.check_events_s"));
        assert!(netsim.contains(&"net.trace_digest_s"));
        assert!(!netsim
            .iter()
            .any(|n| n.starts_with("batch.") || n.starts_with("checker.")));
        assert!(names(Workload::ServeFleet).contains(&"batch.jobs2_speedup"));
        assert!(names(Workload::ModelcheckC5).contains(&"checker.jobs2_speedup"));
    }
}
