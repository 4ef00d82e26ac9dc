//! `ftcolor` — command-line front end for the reproduction.
//!
//! ```text
//! ftcolor color      --alg alg3 --n 16 --input staircase --sched random --timeline
//! ftcolor modelcheck --alg alg2 --ids 0,1,2 --jobs 4
//! ftcolor fuzz       --alg alg2 --ids 0,1,2 --generations 200 --jobs 4
//! ```
//!
//! Every subcommand is one entry of [`CMDS`]: its name, what it does,
//! its flag table and the function that runs it. The usage text, the
//! check that each flag belongs to the subcommand, the defaults and
//! every `bad --X` error all come from those tables; `ftcolor help`
//! prints them.

use ftcolor::analyze::{self, render_json, Diagnostic, RuleId};
use ftcolor::batch::ServiceConfig;
use ftcolor::checker::shrink::{ShrinkStats, WITNESS_SCHEMA};
use ftcolor::checker::{
    ExtmemConfig, FuzzConfig, LivelockWitness, ModelChecker, SafetyViolation, ScheduleFuzzer,
    Shrinker, Witness, WitnessFixture,
};
use ftcolor::cluster::{self, ClusterOptions, ClusterSummary, ClusterTrace};
use ftcolor::core::mis::{mis_violation, EagerMis, MisOutput};
use ftcolor::model::render::{render_ring_coloring, render_schedule, render_timeline};
use ftcolor::model::{inputs, Topology};
use ftcolor::net::{Codec, FaultPlan, NetConfig};
use ftcolor::prelude::*;
use serde::Serialize;
use std::collections::HashMap;
use std::fmt::Display;
use std::hash::Hash;
use std::process::ExitCode;
use std::str::FromStr;

fn main() -> ExitCode {
    // A reader that closes stdout early (`ftcolor … | head`) ends the
    // run quietly, as a filter killed by SIGPIPE would. Restoring the
    // SIGPIPE default instead would also kill `ftcolor cluster` when it
    // writes to a node that a fault plan has just SIGKILLed.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info.payload_as_str().unwrap_or_default();
        if msg.starts_with("failed printing to stdout") && msg.contains("Broken pipe") {
            std::process::exit(0);
        }
        default_hook(info);
    }));

    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((name, rest)) = args.split_first() else {
        eprintln!("{}", usage(CMDS));
        return ExitCode::FAILURE;
    };
    if matches!(name.as_str(), "help" | "--help" | "-h") {
        println!("{}", usage(CMDS));
        return ExitCode::SUCCESS;
    }
    let Some(cmd) = CMDS.iter().find(|c| c.name == name) else {
        eprintln!("error: unknown subcommand `{name}`");
        return ExitCode::FAILURE;
    };
    let cmd_usage = usage(std::slice::from_ref(cmd));
    if rest.iter().any(|a| a == "--help" || a == "-h") {
        println!("{cmd_usage}");
        return ExitCode::SUCCESS;
    }
    let result = Opts::parse(cmd, rest)
        .map_err(|e| format!("{e}\n\n{cmd_usage}"))
        .and_then(|opts| (cmd.run)(&opts));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One flag a subcommand accepts.
struct Flag {
    name: &'static str,
    /// How the usage shows the flag's value; `None` for a switch.
    value: Option<&'static str>,
    default: Option<&'static str>,
    /// The only values the flag takes, when it takes a fixed few.
    choices: &'static [&'static str],
    help: &'static str,
}

/// `flag!("name" VALUE = "default" in CHOICES => "help")` declares a
/// flag that takes a value (the default and the choices are optional);
/// `flag!("name" => "help")` declares a switch.
macro_rules! flag {
    (@or $none:expr) => { $none };
    (@or $none:expr, $some:expr) => { $some };
    ($name:literal $($value:ident $(= $default:literal)? $(in $choices:expr)?)? => $help:literal) => {
        Flag {
            name: $name,
            value: flag!(@or None $(, Some(stringify!($value)))?),
            default: flag!(@or None $($(, Some($default))?)?),
            choices: flag!(@or &[] $($(, $choices)?)?),
            help: $help,
        }
    };
}

/// A subcommand: its flag table and the function that runs it.
struct Cmd {
    name: &'static str,
    about: &'static str,
    flags: &'static [Flag],
    run: fn(&Opts) -> Result<(), String>,
}

impl Cmd {
    const fn new(name: &'static str, run: fn(&Opts) -> Result<(), String>) -> Cmd {
        Cmd {
            name,
            about: "",
            flags: &[],
            run,
        }
    }

    const fn about(self, about: &'static str) -> Cmd {
        Cmd { about, ..self }
    }

    const fn flags(self, flags: &'static [Flag]) -> Cmd {
        Cmd { flags, ..self }
    }

    fn flag(&self, name: &str) -> Option<&'static Flag> {
        self.flags.iter().find(|f| f.name == name)
    }
}

/// The paper's coloring algorithms and their patched variants.
const COLORINGS: &[&str] = &["alg1", "alg2", "alg2p", "alg3", "alg3p"];

const N: Flag = flag!("n" N = "8" => "ring size");
const IDS: Flag = flag!("ids" LIST => "identifiers, e.g. 5,11,7 (instead of --n and --input)");
const INPUT: Flag = flag!("input" KIND = "random"
    in &["staircase", "staircase-poly", "random", "alternating", "organ-pipe"]
    => "identifier pattern for --n");
const SEED: Flag = flag!("seed" K = "0" => "u64 seed");
const JOBS: Flag = flag!("jobs" J = "1" => "worker threads, 0 = all CPUs; results are identical");
const FORMAT: Flag = flag!("format" F = "text" in &["text", "json"] => "output format");
const RULES: Flag = flag!("rules" CODES => "keep only these rule codes, e.g. FTC-SWMR-001");
const FAULTS: Flag = flag!("faults" JSON = "{}" => "fault plan; {} is a clean network, \
    '{\"drop\":0.1,\"crashes\":[{\"node\":2,\"at\":5}]}' drops and crashes");
const EMIT_TRACE: Flag = flag!("emit-trace" => "include the full trace in the output");

const CMDS: &[Cmd] = &[
    Cmd::new("color", |o| with_alg(o, o.str("alg"), Color(o)))
        .about("run a coloring algorithm on a ring and print the result")
        .flags(&[
            flag!("alg" A = "alg3" in COLORINGS => "algorithm"),
            N,
            IDS,
            INPUT,
            SEED,
            flag!("sched" S = "random" in &["sync", "rr", "random", "solo", "wave"] => "schedule"),
            flag!("timeline" => "print the step-by-step execution"),
        ]),
    Cmd::new("modelcheck", |o| with_alg(o, o.str("alg"), Modelcheck(o)))
        .about("explore every schedule on a small ring; report safety and livelock")
        .flags(&[
            flag!("alg" A = "alg2" in COLORINGS => "algorithm"),
            N,
            IDS,
            INPUT,
            SEED,
            flag!("max-configs" M = "2000000" => "exploration cap"),
            JOBS,
            flag!("symmetry" => "explore one configuration per rotation/reflection orbit"),
            flag!("por" => "certified partial-order reduction (refused without a certificate)"),
            flag!("extmem" DIR => "spill the visited set to sorted run files under DIR"),
            flag!("extmem-budget" BYTES = "268435456" => "RAM for the --extmem buffer"),
            flag!("bloom" BITS => "LOSSY Bloom-filter visited set: finds violations, proves nothing"),
            FORMAT,
        ]),
    Cmd::new("fuzz", |o| with_alg(o, o.str("alg"), Fuzz(o)))
        .about("evolutionary adversarial schedule search (violations are shrunk)")
        .flags(&[
            flag!("alg" A = "alg2" in &["alg2", "alg2p", "alg3", "alg3p"] => "algorithm"),
            N,
            IDS,
            INPUT,
            SEED,
            flag!("generations" G = "150" => "fuzzer generations"),
            JOBS,
        ]),
    Cmd::new("shrink", cmd_shrink)
        .about("delta-debug a witness file to locally minimal form")
        .flags(&[
            flag!("in" FILE => "a witness fixture, safety violation, livelock witness or trace"),
            flag!("out" FILE => "write the shrunk result as a witness fixture"),
            flag!("alg" A = "alg2" in &["alg1", "alg2", "alg2p", "alg3", "alg3p", "eagermis"]
                => "algorithm, unless --in is a fixture"),
            N,
            IDS,
            INPUT,
            SEED,
            JOBS,
            flag!("bound" B => "shrink a trace as an activation-bound overrun (> B)"),
        ]),
    Cmd::new("analyze", cmd_analyze)
        .about("lint shipped algorithms against the model contract; race-check the runtime")
        .flags(&[
            flag!("alg" NAME = "all" => "a registry name, rt for the runtime race matrix, or all"),
            flag!("sizes" LIST = "5,8" => "cycle sizes to lint on"),
            RULES,
            FORMAT,
        ]),
    Cmd::new("certify", cmd_certify)
        .about("certify registry algorithms by abstract interpretation")
        .flags(&[
            flag!("alg" NAME = "all" => "a registry name, or all"),
            flag!("domain-colors" C = "5" => "candidate-color bound of the view domains"),
            RULES,
            FORMAT,
        ]),
    Cmd::new("netsim", cmd_netsim)
        .about("run registry algorithms on the simulated network under a fault plan")
        .flags(&[
            flag!("alg" NAME = "all" => "a registry name, or all"),
            N,
            SEED,
            flag!("max-time" T = "100000" => "logical-time budget"),
            FAULTS,
            flag!("codec" C = "json" in &["json", "binary", "typed"] => "wire encoding"),
            FORMAT,
            EMIT_TRACE,
        ]),
    Cmd::new("serve", |o| with_alg(o, o.str("alg"), Serve(o)))
        .about("drive a seeded open-loop fleet of rings through the batch engine")
        .flags(&[
            flag!("alg" A = "alg2p" in COLORINGS => "algorithm"),
            flag!("n" N = "5" => "ring size"),
            flag!("instances" I = "1000" => "instances to admit (1 = one materialized ring)"),
            flag!("rate" R = "64" => "arrivals per sweep round"),
            SEED,
            flag!("sched" S = "random" in &["sync", "random"] => "schedule"),
            flag!("p" P = "0.5" => "random-subset inclusion probability"),
            flag!("crash-prob" P = "0" => "per-instance crash-noise probability"),
            flag!("crash-horizon" T = "8" => "latest noise crash time"),
            flag!("universe" U = "64" => "identifier universe size"),
            flag!("fuel" F = "100000" => "per-instance step budget"),
            flag!("quantum" Q = "8" => "schedule steps per sweep visit"),
            JOBS,
            FORMAT,
        ]),
    Cmd::new("cluster", cmd_cluster)
        .about("run a ring of real node processes, or re-verify a recorded trace")
        .flags(&[
            flag!("alg" NAME = "alg2p" => "alg1, alg2, alg2p, alg3, alg3p, or all"),
            flag!("n" N = "5" => "ring size"),
            SEED,
            FAULTS,
            flag!("rto-ms" MS = "25" => "node retransmit timeout"),
            flag!("pace-ms" MS = "15" => "node pause per round, so SIGKILLs land mid-protocol"),
            flag!("tick-ms" MS = "5" => "wall time per fault-plan tick, from the last init_ok"),
            flag!("max-wall-ms" MS = "30000" => "wall-clock cap before the run times out"),
            flag!("codec" C = "json" in &["json", "binary"] => "wire encoding"),
            FORMAT,
            EMIT_TRACE,
            flag!("record" FILE => "write the recorded trace to FILE"),
            flag!("replay" FILE => "re-verify a recorded trace offline instead of a live run"),
        ]),
    Cmd::new("node", |o| cluster::node_main(o.codec()))
        .about("one cluster node, spawned by `ftcolor cluster`; frames on stdin/stdout")
        .flags(&[flag!("codec" C = "json" in &["json", "binary"] => "wire encoding")]),
];

/// The usage text for `cmds`, generated from their flag tables.
fn usage(cmds: &[Cmd]) -> String {
    let mut text = String::from(
        "ftcolor — wait-free coloring of the asynchronous cycle (PODC 2022 reproduction)\n\n\
         USAGE: ftcolor <subcommand> [--flag [VALUE]]...\n\
         `ftcolor help` lists every subcommand; --help or -h after one lists its flags.\n",
    );
    for cmd in cmds {
        text += &format!("\nftcolor {} — {}\n", cmd.name, cmd.about);
        for f in cmd.flags {
            let mut help = f.help.to_string();
            if !f.choices.is_empty() {
                help += &format!(": {}", f.choices.join(" | "));
            }
            if let Some(default) = f.default {
                help += &format!(" (default {default})");
            }
            let head = format!("{} {}", f.name, f.value.unwrap_or_default());
            text += &format!("  --{head:<22}{help}\n");
        }
    }
    text
}

fn bad(name: &str, e: impl Display) -> String {
    format!("bad --{name}: {e}")
}

fn not_one_of(name: &str, value: &str, choices: &[&str]) -> String {
    let choices = choices.join("|");
    format!("unknown --{name} `{value}` (expected {choices})")
}

/// The flags given to one subcommand, checked against its table.
struct Opts {
    cmd: &'static Cmd,
    given: HashMap<&'static str, String>,
}

impl Opts {
    fn parse(cmd: &'static Cmd, args: &[String]) -> Result<Opts, String> {
        let mut given = HashMap::new();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let flag = arg
                .strip_prefix("--")
                .and_then(|key| cmd.flag(key))
                .ok_or_else(|| format!("`ftcolor {}` has no flag `{arg}`", cmd.name))?;
            let value = match flag.value {
                Some(_) => args.next().cloned().ok_or(format!("{arg} needs a value"))?,
                None => String::new(),
            };
            if !flag.choices.is_empty() && !flag.choices.contains(&value.as_str()) {
                return Err(not_one_of(flag.name, &value, flag.choices));
            }
            if given.insert(flag.name, value).is_some() {
                return Err(format!("{arg} given twice to `ftcolor {}`", cmd.name));
            }
        }
        Ok(Opts { cmd, given })
    }

    fn flag(&self, name: &str) -> &'static Flag {
        let cmd = self.cmd.name;
        self.cmd
            .flag(name)
            .unwrap_or_else(|| panic!("`ftcolor {cmd}` declares no --{name}"))
    }

    /// The text of `--name` as given, else its default.
    fn raw(&self, name: &str) -> Option<&str> {
        let given = self.given.get(name).map(String::as_str);
        given.or(self.flag(name).default)
    }

    /// The text of `--name`, for a flag that has a default.
    fn str(&self, name: &str) -> &str {
        self.raw(name).expect("the flag has a default")
    }

    /// Whether the switch `--name` was given.
    fn on(&self, name: &str) -> bool {
        self.given.contains_key(self.flag(name).name)
    }

    /// Parses one value of `--name`: the one place flag text becomes a
    /// typed value, so every `bad --X` parse error comes from here.
    fn parse_as<T: FromStr<Err: Display>>(name: &str, text: &str) -> Result<T, String> {
        text.parse().map_err(|e| bad(name, e))
    }

    /// `--name` (or its default) parsed as `T`; `None` when it has neither.
    fn get<T: FromStr<Err: Display>>(&self, name: &str) -> Result<Option<T>, String> {
        self.raw(name)
            .map(|text| Opts::parse_as(name, text))
            .transpose()
    }

    /// `--name` parsed as `T`, for a flag that has a default.
    fn val<T: FromStr<Err: Display>>(&self, name: &str) -> Result<T, String> {
        Opts::parse_as(name, self.str(name))
    }

    /// `--name` as a comma-separated list of `T`.
    fn list<T: FromStr<Err: Display>>(&self, name: &str) -> Result<Option<Vec<T>>, String> {
        let items = |text: &str| {
            text.split(',')
                .map(|s| Opts::parse_as(name, s.trim()))
                .collect()
        };
        self.raw(name).map(items).transpose()
    }

    fn json(&self) -> bool {
        self.str("format") == "json"
    }

    /// The `--codec` the table admitted.
    fn codec(&self) -> Codec {
        Codec::parse(self.str("codec")).expect("every --codec choice names a codec")
    }
}

/// What the subcommands need to know about an algorithm beyond
/// [`Algorithm`]: the safety predicate `modelcheck`, `fuzz` and `shrink`
/// check, the palette and color index `serve` checks outputs against,
/// and how `color --timeline` draws a register.
trait CliAlg:
    Algorithm<
        Input = u64,
        State: Eq + Hash + Send + Sync,
        Reg: Eq + Hash + Send + Sync,
        Output: Eq + Hash + Send + Sync,
    > + Sync
{
    const PALETTE: usize;
    fn safety(topo: &Topology, outs: &[Option<Self::Output>]) -> Option<String>;
    fn color_index(out: &Self::Output) -> usize;
    fn cell(reg: &Self::Reg) -> String;
}

/// A subcommand's work, generic over the algorithm `--alg` names.
trait AlgTask {
    fn run<A: CliAlg>(self, alg: &A, name: &str) -> Result<(), String>;
}

/// One row per algorithm that `--alg` can name:
/// `"name" => Type: palette, safety, |output| color index, |register| cell;`.
/// Besides the `CliAlg` impls it defines `with_alg`, the one map from
/// `--alg` names to algorithm types.
macro_rules! cli_algs {
    ($($name:literal => $alg:ident: $palette:literal, $safety:expr,
        |$out:ident| $color:expr, |$reg:ident| $cell:expr;)*) => {
        $(impl CliAlg for $alg {
            const PALETTE: usize = $palette;
            fn safety(topo: &Topology, outs: &[Option<Self::Output>]) -> Option<String> {
                $safety(topo, outs)
            }
            fn color_index($out: &Self::Output) -> usize {
                $color
            }
            fn cell($reg: &Self::Reg) -> String {
                $cell
            }
        })*

        /// Runs `task` on the algorithm `name`, if `--alg` of `opts`'s
        /// subcommand accepts it.
        fn with_alg(opts: &Opts, name: &str, task: impl AlgTask) -> Result<(), String> {
            let accepted = opts.flag("alg").choices;
            match name {
                _ if !accepted.contains(&name) => Err(not_one_of("alg", name, accepted)),
                $($name => task.run(&$alg, name),)*
                other => unreachable!("--alg {other} is accepted but names no algorithm"),
            }
        }
    };
}

cli_algs! {
    "alg1" => SixColoring: 6,
        |t: &Topology, o| t.first_conflict(o).map(|(a, b)| format!("conflict {a}-{b}")),
        |c| index(c.flat_index()), |r| format!("{}", r.color);
    "alg2" => FiveColoring: 5, coloring_safety, |c| index(*c), |r| format!("({},{})", r.a, r.b);
    "alg2p" => FiveColoringPatched: 5, coloring_safety, |c| index(*c),
        |r| format!("({},{})c{}", r.a, r.b, r.c);
    "alg3" => FastFiveColoring: 5, coloring_safety, |c| index(*c),
        |r| format!("x{}({},{})", r.x, r.a, r.b);
    "alg3p" => FastFiveColoringPatched: 5, coloring_safety, |c| index(*c),
        |r| format!("x{}({},{})c{}", r.x, r.a, r.b, r.c);
    "eagermis" => EagerMis: 2, mis_violation, |o| usize::from(*o == MisOutput::In),
        |r| format!("{r:?}");
}

fn coloring_safety(topo: &Topology, outs: &[Option<u64>]) -> Option<String> {
    if let Some((a, b)) = topo.first_conflict(outs) {
        return Some(format!("conflict on edge {a}-{b}"));
    }
    let c = outs.iter().flatten().find(|&&c| c > 4)?;
    Some(format!("color {c} outside the palette"))
}

fn index(color: u64) -> usize {
    usize::try_from(color).expect("color index fits usize")
}

/// `--ids`, else `--n` identifiers in the `--input` pattern.
fn ring_ids(opts: &Opts) -> Result<Vec<u64>, String> {
    if let Some(ids) = opts.list("ids")? {
        return Ok(ids);
    }
    let n: usize = opts.val("n")?;
    Ok(match opts.str("input") {
        "staircase" => inputs::staircase(n),
        "staircase-poly" => inputs::staircase_poly(n),
        "alternating" => inputs::alternating(n),
        "organ-pipe" => inputs::organ_pipe(n),
        "random" => inputs::random_unique(n, (n as u64).pow(3).max(64), opts.val("seed")?),
        other => unreachable!("--input {other} is outside the flag table"),
    })
}

fn make_schedule(kind: &str, n: usize, seed: u64) -> Box<dyn Schedule> {
    match kind {
        "sync" => Box::new(Synchronous::new()),
        "rr" => Box::new(RoundRobin::new()),
        "random" => Box::new(RandomSubset::new(seed, 0.5)),
        "solo" => Box::new(SoloRunner::ascending(n)),
        "wave" => Box::new(Wave::new(n, 3, 2)),
        other => unreachable!("--sched {other} is outside the flag table"),
    }
}

/// A JSON object with `fields` in order.
fn object(fields: Vec<(&str, serde::Value)>) -> serde::Value {
    let fields = fields.into_iter().map(|(k, v)| (k.to_string(), v));
    serde::Value::Object(fields.collect())
}

fn print_json(value: &impl Serialize) -> Result<(), String> {
    let text = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    println!("{text}");
    Ok(())
}

fn print_shrunk_header(stats: &ShrinkStats) {
    println!(
        "shrunk witness ({} -> {} activation slots, {} replays):",
        stats.original_slots, stats.shrunk_slots, stats.replays
    );
}

fn print_livelock(lw: &LivelockWitness) {
    println!("{}", render_schedule(&lw.prefix));
    println!("-- cycle --");
    println!("{}", render_schedule(&lw.cycle));
}

/// `ftcolor color`: runs one coloring algorithm and prints the outcome.
struct Color<'a>(&'a Opts);

impl AlgTask for Color<'_> {
    fn run<A: CliAlg>(self, alg: &A, _: &str) -> Result<(), String> {
        let ids = ring_ids(self.0)?;
        let seed = self.0.val("seed")?;
        println!("ids: {ids:?}");
        let topo = Topology::cycle(ids.len()).map_err(|e| e.to_string())?;
        let sched = make_schedule(self.0.str("sched"), ids.len(), seed);
        let mut exec = Execution::new(alg, &topo, ids);
        if self.0.on("timeline") {
            println!("{}", render_timeline(&mut exec, sched, 100_000, A::cell));
        } else {
            exec.run(sched, 10_000_000).map_err(|e| e.to_string())?;
        }
        println!("coloring: {}", render_ring_coloring(exec.outputs()));
        println!(
            "max activations: {}",
            topo.nodes()
                .map(|p| exec.activation_count(p))
                .max()
                .unwrap_or(0)
        );
        let proper = topo.is_proper_partial_coloring(exec.outputs());
        println!("proper: {proper}");
        if !proper {
            return Err("output is not a proper coloring (bug!)".into());
        }
        Ok(())
    }
}

/// `ftcolor modelcheck`: explores every schedule and prints the verdict
/// with shrunk witnesses.
struct Modelcheck<'a>(&'a Opts);

impl AlgTask for Modelcheck<'_> {
    fn run<A: CliAlg>(self, alg: &A, name: &str) -> Result<(), String> {
        let opts = self.0;
        let ids = ring_ids(opts)?;
        if ids.len() > 7 {
            return Err("modelcheck needs a small instance (≤ 7 processes)".into());
        }
        let (jobs, symmetry, por) = (opts.val("jobs")?, opts.on("symmetry"), opts.on("por"));
        let topo = Topology::cycle(ids.len()).map_err(|e| e.to_string())?;
        let mut mc = ModelChecker::new(alg, &topo, ids.clone())
            .with_max_configs(opts.val("max-configs")?)
            .with_jobs(jobs)
            .with_symmetry(symmetry)
            .with_por(por);
        if let Some(dir) = opts.raw("extmem") {
            let ram_budget_bytes = opts.val("extmem-budget")?;
            mc = mc.with_extmem(ExtmemConfig {
                dir: dir.into(),
                ram_budget_bytes,
            });
        }
        if let Some(bits) = opts.get("bloom")? {
            mc = mc.with_bloom(bits);
        }
        let o = mc.explore(A::safety).map_err(|e| e.to_string())?;
        if opts.json() {
            // `verdict` is the symmetry-invariant part: counts shrink under
            // --symmetry, these booleans must not (CI diffs it between modes).
            let verdict = object(vec![
                ("safety_violated", o.safety_violation.is_some().to_value()),
                ("livelock_found", o.livelock.is_some().to_value()),
                ("truncated", o.truncated.to_value()),
            ]);
            let description = o.safety_violation.as_ref().map(|v| &v.description);
            return print_json(&object(vec![
                ("alg", name.to_value()),
                ("ids", ids.to_value()),
                ("symmetry", symmetry.to_value()),
                ("por", por.to_value()),
                ("lossy", o.lossy.to_value()),
                ("jobs", jobs.to_value()),
                ("verdict", verdict),
                ("safety_description", description.to_value()),
                ("configs", o.configs.to_value()),
                ("edges", o.edges.to_value()),
                (
                    "fully_terminated_configs",
                    o.fully_terminated_configs.to_value(),
                ),
                ("stats", o.stats.to_value()),
            ]));
        }
        println!("{o}");
        println!("{}", o.stats);
        let sh = Shrinker::new(alg, &topo, ids).with_jobs(jobs);
        if let Some(v) = &o.safety_violation {
            println!("safety violation: {}", v.description);
            println!("{}", render_schedule(&v.schedule));
            if let Some(s) = sh.shrink_safety(&v.schedule, &A::safety) {
                print_shrunk_header(&s.stats);
                println!("{}", render_schedule(&s.schedule));
            }
        }
        if let Some(lw) = &o.livelock {
            println!("livelock witness (prefix then repeat cycle):");
            print_livelock(lw);
            if let Some(s) = sh.shrink_livelock(lw) {
                print_shrunk_header(&s.stats);
                print_livelock(&s.witness);
            }
        }
        Ok(())
    }
}

/// `ftcolor fuzz`: searches for starving or violating schedules and
/// shrinks violations.
struct Fuzz<'a>(&'a Opts);

impl AlgTask for Fuzz<'_> {
    fn run<A: CliAlg>(self, alg: &A, _: &str) -> Result<(), String> {
        let config = FuzzConfig {
            generations: self.0.val("generations")?,
            seed: self.0.val("seed")?,
            jobs: self.0.val("jobs")?,
            ..FuzzConfig::default()
        };
        let ids = ring_ids(self.0)?;
        let topo = Topology::cycle(ids.len()).map_err(|e| e.to_string())?;
        let report = ScheduleFuzzer::new(alg, &topo, ids.clone(), config).run(A::safety);
        println!(
            "best score: {} over {} executions",
            report.best_score, report.evaluated
        );
        if report.best_score >= 1000 {
            println!("starvation found! best schedule:");
            println!("{}", render_schedule(&report.best_schedule));
        }
        if let Some(v) = &report.safety_violation {
            println!("SAFETY VIOLATION: {v}");
            if let Some(genome) = &report.violating_schedule {
                let sh = Shrinker::new(alg, &topo, ids).with_jobs(self.0.val("jobs")?);
                if let Some(s) = sh.shrink_safety(genome, &A::safety) {
                    print_shrunk_header(&s.stats);
                    println!("{}", render_schedule(&s.schedule));
                }
            }
        }
        Ok(())
    }
}

/// What `--in` turned out to hold: a ready witness, or a bare schedule
/// (trace) whose violation class is determined by `--bound`/the
/// algorithm's safety predicate.
enum ShrinkInput {
    Witness(Witness),
    Schedule(Vec<ActivationSet>),
}

fn cmd_shrink(opts: &Opts) -> Result<(), String> {
    let path = opts.raw("in").ok_or("shrink needs --in <file>")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let value: serde::Value =
        serde_json::from_str(&text).map_err(|e| format!("{path} is not JSON: {e}"))?;
    let serde::Value::Object(pairs) = &value else {
        return Err(format!("{path} must hold a JSON object"));
    };
    let has = |k: &str| pairs.iter().any(|(key, _)| key == k);

    // Shape-detect the four accepted formats; fixtures are
    // self-describing, everything else takes --alg/--ids from the flags.
    let (alg_name, ids, input) = if has("schema") {
        let fx: WitnessFixture = serde_json::from_value(value.clone())
            .map_err(|e| format!("{path} is not a witness fixture: {e}"))?;
        (fx.alg, fx.ids, ShrinkInput::Witness(fx.raw))
    } else {
        let alg = opts.str("alg").to_string();
        let ids = ring_ids(opts)?;
        let input = if has("description") {
            let v: SafetyViolation = serde_json::from_value(value.clone())
                .map_err(|e| format!("{path} is not a safety violation: {e}"))?;
            ShrinkInput::Witness(Witness::Safety(v))
        } else if has("prefix") {
            let lw: LivelockWitness = serde_json::from_value(value.clone())
                .map_err(|e| format!("{path} is not a livelock witness: {e}"))?;
            ShrinkInput::Witness(Witness::Livelock(lw))
        } else if has("steps") {
            let tr: Trace = serde_json::from_value(value.clone())
                .map_err(|e| format!("{path} is not a trace: {e}"))?;
            ShrinkInput::Schedule(tr.into_steps())
        } else {
            return Err(format!(
                "{path}: unrecognized witness shape (expected a fixture, a safety \
                 violation, a livelock witness, or a trace)"
            ));
        };
        (alg, ids, input)
    };
    with_alg(opts, &alg_name, Shrink { opts, ids, input })
}

/// `ftcolor shrink`: shrinks the input, prints the minimal witness,
/// replay-verifies it, and optionally writes a schema-v2 fixture.
struct Shrink<'a> {
    opts: &'a Opts,
    ids: Vec<u64>,
    input: ShrinkInput,
}

impl AlgTask for Shrink<'_> {
    fn run<A: CliAlg>(self, alg: &A, name: &str) -> Result<(), String> {
        let bound: Option<u64> = self.opts.get("bound")?;
        let topo = Topology::cycle(self.ids.len()).map_err(|e| e.to_string())?;
        let sh = Shrinker::new(alg, &topo, self.ids.clone()).with_jobs(self.opts.val("jobs")?);
        let (raw, shrunk, stats) = match self.input {
            ShrinkInput::Witness(w) => {
                let (s, stats) = sh.shrink_witness(&w, &A::safety).ok_or(
                    "input witness does not reproduce its violation class on this \
                     instance (check --alg/--ids)",
                )?;
                (w, s, stats)
            }
            ShrinkInput::Schedule(steps) => {
                let (description, s) = match bound {
                    Some(b) => (
                        format!("activation bound overrun (> {b})"),
                        sh.shrink_overrun(&steps, b)
                            .ok_or(format!("trace never exceeds the bound {b}"))?,
                    ),
                    None => {
                        let s = sh.shrink_safety(&steps, &A::safety).ok_or(
                            "trace does not reproduce a safety violation (pass --bound to \
                             shrink an activation-bound overrun instead)",
                        )?;
                        (s.description.clone().unwrap_or_default(), s)
                    }
                };
                let raw = SafetyViolation {
                    description: description.clone(),
                    schedule: steps,
                };
                let shrunk = SafetyViolation {
                    description,
                    schedule: s.schedule,
                };
                (Witness::Safety(raw), Witness::Safety(shrunk), s.stats)
            }
        };
        // Independent replay check of the shrunk form (overrun witnesses are
        // outside `reproduces`' two classes; shrink_overrun verified them).
        if bound.is_none() && !sh.reproduces(&shrunk, &A::safety) {
            return Err("internal error: shrunk witness failed replay verification".into());
        }
        let class = match &shrunk {
            Witness::Safety(_) => "safety",
            Witness::Livelock(_) => "livelock",
        };
        println!("class: {class}");
        println!(
            "activation slots: {} -> {} ({} candidate replays)",
            stats.original_slots, stats.shrunk_slots, stats.replays
        );
        match &shrunk {
            Witness::Safety(v) => {
                println!("description: {}", v.description);
                println!("{}", render_schedule(&v.schedule));
            }
            Witness::Livelock(lw) => print_livelock(lw),
        }
        if let Some(out) = self.opts.raw("out") {
            let fixture = WitnessFixture {
                schema: WITNESS_SCHEMA.to_string(),
                alg: name.to_string(),
                ids: self.ids,
                raw,
                shrunk,
            };
            let json = serde_json::to_string_pretty(&fixture).map_err(|e| e.to_string())?;
            std::fs::write(out, json + "\n").map_err(|e| format!("cannot write {out}: {e}"))?;
            println!("wrote {out}");
        }
        Ok(())
    }
}

/// `--rules` as a filter on diagnostics; every rule passes without it.
fn rule_filter(opts: &Opts) -> Result<impl Fn(&Diagnostic) -> bool, String> {
    let code = |c: &String| RuleId::from_code(c).ok_or_else(|| format!("unknown rule code `{c}`"));
    let rules: Option<Vec<RuleId>> = match opts.list::<String>("rules")? {
        Some(codes) => Some(codes.iter().map(code).collect::<Result<_, _>>()?),
        None => None,
    };
    Ok(move |d: &Diagnostic| rules.as_ref().is_none_or(|r| r.contains(&d.rule)))
}

/// The error for an `--alg` that is not a registry entry.
fn unknown_registry_alg(alg: &str, or: &str) -> String {
    let shipped = analyze::SHIPPED.join(", ");
    format!("unknown --alg `{alg}` (expected one of {shipped}, {or}`all`)")
}

/// `ftcolor analyze`: run the contract linter over registry entries
/// (and/or the runtime race matrix) and exit nonzero on any unwaived
/// diagnostic — the same gate CI enforces.
fn cmd_analyze(opts: &Opts) -> Result<(), String> {
    let sizes: Vec<usize> = opts.list("sizes")?.expect("--sizes has a default");
    let keep = rule_filter(opts)?;
    let alg = opts.str("alg");
    let cfg = analyze::LintConfig::default();

    let mut diags: Vec<Diagnostic> = Vec::new();
    if alg == "all" {
        for report in analyze::analyze_all(&sizes, &cfg) {
            diags.extend(report.diagnostics);
        }
    } else if alg != "rt" {
        let report = analyze::analyze_alg(alg, &sizes, &cfg)
            .ok_or_else(|| unknown_registry_alg(alg, "`rt`, or "))?;
        diags.extend(report.diagnostics);
    }
    if matches!(alg, "all" | "rt") {
        diags.extend(analyze::race_matrix());
    }
    diags.retain(&keep);

    let unwaived = diags.iter().filter(|d| !d.waived).count();
    if opts.json() {
        println!("{}", render_json(&diags));
    } else {
        for d in &diags {
            println!("{}", d.render());
        }
        println!(
            "analyze: {} diagnostic(s), {unwaived} unwaived",
            diags.len()
        );
    }
    if unwaived > 0 {
        return Err(format!("{unwaived} unwaived diagnostic(s)"));
    }
    Ok(())
}

/// `ftcolor certify`: statically certify registry algorithms by
/// abstract interpretation over their certified view domains, and exit
/// nonzero on any unwaived finding — the same gate CI enforces.
fn cmd_certify(opts: &Opts) -> Result<(), String> {
    let colors: u64 = opts.val("domain-colors")?;
    let keep = rule_filter(opts)?;
    let alg = opts.str("alg");
    let cfg = analyze::CertifyConfig::default();

    let mut reports = if alg == "all" {
        analyze::certify_all(colors, &cfg)
    } else {
        let report = analyze::certify_alg(alg, colors, &cfg);
        vec![report.ok_or_else(|| unknown_registry_alg(alg, "or "))?]
    };
    for r in &mut reports {
        r.diagnostics.retain(&keep);
    }

    let unwaived: usize = reports.iter().map(|r| r.unwaived().count()).sum();
    if opts.json() {
        println!("{}", analyze::render_cert_json(&reports));
    } else {
        for r in &reports {
            for d in &r.diagnostics {
                println!("{}", d.render());
            }
            let s = &r.stats;
            let verdict = if s.reachable_states == 0 {
                "not certifiable (see waived finding)".to_string()
            } else {
                let solo = match s.solo_bound {
                    Some(b) => format!("solo bound {b}"),
                    None => "no solo bound".to_string(),
                };
                format!(
                    "{} states ({} decided), {} transitions, {} view regs, {solo}",
                    s.reachable_states, s.decided_states, s.transitions, s.view_regs
                )
            };
            println!("certify {}: {verdict}", r.name);
        }
        println!("certify: {unwaived} unwaived finding(s)");
    }
    if unwaived > 0 {
        return Err(format!("{unwaived} unwaived finding(s)"));
    }
    Ok(())
}

/// The algorithms `--alg` names: all of `all` for `all`, else the one.
fn all_or_one<'a>(opts: &'a Opts, all: &[&'a str]) -> Vec<&'a str> {
    match opts.str("alg") {
        "all" => all.to_vec(),
        one => vec![one],
    }
}

/// `--faults`, checked against an `n`-node ring.
fn fault_plan(opts: &Opts, n: usize) -> Result<FaultPlan, String> {
    let plan: FaultPlan = serde_json::from_str(opts.str("faults")).map_err(|e| bad("faults", e))?;
    plan.check(n).map_err(|e| bad("faults", e))?;
    Ok(plan)
}

/// `ftcolor netsim`: run registry algorithms on the message-passing
/// network substrate under a seeded fault plan and report the outcome.
/// Exits nonzero on an oracle violation, a palette violation, a race
/// diagnostic, or an unexpected stall — documented-flaw entries (the
/// `termination-only` oracle) are exempt from the stall check only,
/// never from safety.
fn cmd_netsim(opts: &Opts) -> Result<(), String> {
    let n: usize = opts.val("n")?;
    // `analyze::net_run` answers `None` for a ring it cannot build as
    // well as for an unknown algorithm, so check the ring here first.
    Topology::cycle(n).map_err(|e| bad("n", e))?;
    let seed: u64 = opts.val("seed")?;
    let plan = fault_plan(opts, n)?;
    let emit_trace = opts.on("emit-trace");
    let cfg = NetConfig::new(seed)
        .max_time(opts.val("max-time")?)
        .record_events(true)
        .codec(opts.codec());

    let mut failures: Vec<String> = Vec::new();
    let mut items: Vec<serde::Value> = Vec::new();
    for name in all_or_one(opts, &analyze::SHIPPED) {
        let out = analyze::net_run(name, n, seed, &plan, &cfg)
            .ok_or_else(|| unknown_registry_alg(name, "or "))?;
        let s = &out.summary;
        if !s.valid {
            failures.push(format!("{name}: oracle violation ({})", s.oracle));
        }
        if !s.palette_ok {
            failures.push(format!("{name}: color outside the declared palette"));
        }
        if s.race_diags > 0 {
            failures.push(format!("{name}: {} race diagnostic(s)", s.race_diags));
        }
        if !s.all_correct_returned && s.oracle != "termination-only" {
            failures.push(format!("{name}: stalled processes {:?}", s.stalled));
        }
        if opts.json() {
            let mut v = s.to_value();
            if emit_trace {
                if let serde::Value::Object(pairs) = &mut v {
                    pairs.push(("trace".to_string(), out.trace.to_value()));
                }
            }
            items.push(v);
            continue;
        }
        println!(
            "{name}: n={} seed={} oracle={} valid={} palette_ok={} returned={}",
            s.n, s.seed, s.oracle, s.valid, s.palette_ok, s.all_correct_returned
        );
        println!(
            "  colors: {:?}  crashed: {:?}  stalled: {:?}",
            s.colors, s.crashed, s.stalled
        );
        println!(
            "  rounds_max={} time={} sent={} delivered={} dropped={} \
             duplicated={} retransmits={}",
            s.rounds_max,
            s.time,
            s.stats.sent,
            s.stats.delivered,
            s.stats.dropped + s.stats.partition_dropped,
            s.stats.duplicated,
            s.stats.retransmits
        );
        println!("  trace: {} sends, digest {}", s.trace_len, s.trace_digest);
        println!(
            "  wire: codec={} encoded={} decoded={} bytes={} pool {}/{} hit",
            s.wire_codec,
            s.wire_frames_encoded,
            s.wire_frames_decoded,
            s.wire_bytes,
            s.wire_pool_hits,
            s.wire_pool_hits + s.wire_pool_misses
        );
        if emit_trace {
            println!("  {}", out.trace.to_json());
        }
    }
    if opts.json() {
        print_json(&serde::Value::Array(items))?;
    }
    if !failures.is_empty() {
        return Err(failures.join("; "));
    }
    Ok(())
}

/// `ftcolor cluster`: run registry algorithms on a ring of real node
/// processes under a fault plan (crashes become SIGKILL), or — with
/// `--replay` — re-verify a recorded trace offline. Exits nonzero on a
/// coloring violation, a palette violation, or an unexpected stall.
fn cmd_cluster(opts: &Opts) -> Result<(), String> {
    if let Some(path) = opts.raw("replay") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let trace = ClusterTrace::from_json(&text)?;
        let summary = cluster::cluster_replay(&trace)?;
        print_cluster_summary(&summary, opts.json(), "replay")?;
        return cluster_verdict(&[summary]);
    }

    let n: usize = opts.val("n")?;
    let seed: u64 = opts.val("seed")?;
    let plan = fault_plan(opts, n)?;
    let copts = ClusterOptions {
        rto_ms: opts.val("rto-ms")?,
        pace_ms: opts.val("pace-ms")?,
        tick_ms: opts.val::<u64>("tick-ms")?.max(1),
        max_wall_ms: opts.val("max-wall-ms")?,
        codec: opts.codec(),
        ..ClusterOptions::default()
    };
    let emit_trace = opts.on("emit-trace");

    let mut summaries = Vec::new();
    for name in all_or_one(opts, cluster::CLUSTER_ALGS) {
        let outcome = cluster::cluster_run(name, n, seed, &plan, &copts)?;
        if let Some(path) = opts.raw("record") {
            std::fs::write(path, outcome.trace.to_json_pretty() + "\n")
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("wrote {path}");
        }
        print_cluster_summary(&outcome.summary, opts.json(), "live")?;
        if emit_trace {
            println!("  {}", outcome.trace.to_json());
        }
        summaries.push(outcome.summary);
    }
    cluster_verdict(&summaries)
}

/// `ftcolor serve`: runs a fleet through the batch engine and prints its
/// summary.
struct Serve<'a>(&'a Opts);

impl AlgTask for Serve<'_> {
    fn run<A: CliAlg>(self, alg: &A, name: &str) -> Result<(), String> {
        let opts = self.0;
        let cfg = ServiceConfig {
            n: opts.val("n")?,
            instances: opts.val("instances")?,
            rate: opts.val("rate")?,
            seed: opts.val("seed")?,
            sync: opts.str("sched") == "sync",
            p: opts.val("p")?,
            crash_prob: opts.val("crash-prob")?,
            crash_horizon: opts.val("crash-horizon")?,
            universe: opts.val("universe")?,
            fuel: opts.val("fuel")?,
            quantum: opts.val("quantum")?,
            jobs: opts.val("jobs")?,
        };
        Topology::cycle(cfg.n).map_err(|e| bad("n", e))?;
        if cfg.instances == 0 {
            return Err("serve needs --instances >= 1".into());
        }
        if cfg.instances > 1 && cfg.universe < cfg.n as u64 {
            return Err(format!(
                "--universe {} cannot hold {} distinct identifiers",
                cfg.universe, cfg.n
            ));
        }
        if cfg.rate.is_nan() || cfg.rate <= 0.0 {
            return Err("serve needs --rate > 0".into());
        }
        if cfg.quantum == 0 {
            return Err("serve needs --quantum >= 1".into());
        }
        for (flag, p) in [("p", cfg.p), ("crash-prob", cfg.crash_prob)] {
            if !(0.0..=1.0).contains(&p) {
                return Err(bad(flag, format!("{p} is not a probability in [0, 1]")));
            }
        }
        let (summary, timings) =
            ftcolor::batch::run_service(alg, name, A::PALETTE, A::color_index, &cfg);
        // Wall-clock facts go to stderr only: stdout is deterministic and
        // byte-identical at every --jobs value (the golden test pins this).
        eprintln!(
            "serve: {} instances in {} ms ({} colorings/s, {} jobs, peak RSS {} KiB)",
            summary.completed,
            timings.elapsed_ms,
            timings.colorings_per_sec,
            timings.jobs,
            timings.peak_rss_kib
        );
        if opts.json() {
            print_json(&summary)?;
        } else {
            println!(
                "{}: n={} instances={} rate={} seed={} sched={} valid={}",
                summary.algorithm,
                summary.n,
                summary.instances,
                summary.rate,
                summary.seed,
                summary.sched,
                summary.valid
            );
            println!(
                "  completed={} returned={} crashed={} stalled={} proper={} palette={}",
                summary.completed,
                summary.returned,
                summary.crashed,
                summary.stalled,
                summary.proper_ok,
                summary.palette_ok
            );
            println!(
                "  rounds={} latency p50/p99/max = {}/{}/{} sweeps  colors={:?}",
                summary.rounds,
                summary.latency_p50,
                summary.latency_p99,
                summary.latency_max,
                summary.color_histogram
            );
            println!(
                "  steps={} activations={} (max {})  interned s/r/o = {}/{}/{}  digest={}",
                summary.total_steps,
                summary.total_activations,
                summary.max_activations,
                summary.interned_states,
                summary.interned_regs,
                summary.interned_outputs,
                summary.outputs_digest
            );
        }
        if summary.valid {
            Ok(())
        } else {
            Err(format!(
                "service verdict invalid: completed={}/{} stalled={} proper={} palette={}",
                summary.completed,
                summary.instances,
                summary.stalled,
                summary.proper_ok,
                summary.palette_ok
            ))
        }
    }
}

fn print_cluster_summary(s: &ClusterSummary, json: bool, mode: &str) -> Result<(), String> {
    if json {
        let mut v = s.to_value();
        if let serde::Value::Object(pairs) = &mut v {
            pairs.push(("mode".to_string(), mode.to_value()));
        }
        return print_json(&v);
    }
    println!(
        "{}: n={} seed={} mode={mode} valid={} palette_ok={} returned={}",
        s.alg, s.n, s.seed, s.valid, s.palette_ok, s.all_correct_returned
    );
    println!(
        "  colors: {:?}  crashed: {:?}  stalled: {:?}  timed_out={}",
        s.colors, s.crashed, s.stalled, s.timed_out
    );
    println!(
        "  rounds_max={} wall_ms={} sent={} delivered={} dropped={} \
         dead_reads={} malformed={}",
        s.rounds_max,
        s.wall_ms,
        s.stats.sent,
        s.stats.delivered,
        s.stats.dropped + s.stats.partition_dropped,
        s.stats.served_dead_reads,
        s.stats.malformed
    );
    println!(
        "  trace: {} entries, digest {}",
        s.trace_len, s.trace_digest
    );
    Ok(())
}

fn cluster_verdict(summaries: &[ClusterSummary]) -> Result<(), String> {
    let mut failures = Vec::new();
    for s in summaries {
        if !s.valid {
            failures.push(format!("{}: coloring violation", s.alg));
        }
        if !s.palette_ok {
            failures.push(format!("{}: color outside the declared palette", s.alg));
        }
        if !s.all_correct_returned {
            failures.push(format!("{}: stalled nodes {:?}", s.alg, s.stalled));
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(cmd: &'static Cmd, args: &[&str]) -> Result<Opts, String> {
        let args: Vec<String> = args.iter().map(ToString::to_string).collect();
        Opts::parse(cmd, &args)
    }

    struct Noop;

    impl AlgTask for Noop {
        fn run<A: CliAlg>(self, _: &A, _: &str) -> Result<(), String> {
            Ok(())
        }
    }

    /// The tables parse every choice they list, and the code that
    /// interprets `--alg`, `--input`, `--sched` and `--codec` handles it.
    #[test]
    fn every_choice_in_the_tables_is_handled() {
        for cmd in CMDS {
            for f in cmd.flags {
                for &choice in f.choices {
                    let o = opts(cmd, &[&format!("--{}", f.name), choice]).unwrap();
                    match f.name {
                        "alg" => with_alg(&o, choice, Noop).unwrap(),
                        "input" => assert_eq!(ring_ids(&o).unwrap().len(), 8),
                        "sched" if cmd.name == "color" => drop(make_schedule(choice, 5, 0)),
                        "codec" => assert_eq!(o.codec().name(), choice),
                        _ => {}
                    }
                }
            }
        }
    }

    #[test]
    fn flags_outside_the_table_are_refused() {
        let color = &CMDS[0];
        let err = |args: &[&str]| opts(color, args).err().unwrap();
        assert_eq!(err(&["--sed", "5"]), "`ftcolor color` has no flag `--sed`");
        assert_eq!(err(&["5"]), "`ftcolor color` has no flag `5`");
        assert_eq!(
            err(&["--seed", "1", "--seed", "2"]),
            "--seed given twice to `ftcolor color`"
        );
        assert_eq!(err(&["--seed"]), "--seed needs a value");
        assert!(err(&["--alg", "eagermis"]).starts_with("unknown --alg `eagermis`"));
        let o = opts(color, &["--n", "x", "--ids", "1,y"]).unwrap();
        assert!(o.val::<usize>("n").unwrap_err().starts_with("bad --n: "));
        assert!(o.list::<u64>("ids").unwrap_err().starts_with("bad --ids: "));
        let o = opts(color, &["--ids", "5, 11,7"]).unwrap();
        assert_eq!(o.list("ids"), Ok(Some(vec![5u64, 11, 7])));
        assert_eq!(o.val::<usize>("n"), Ok(8));
    }

    /// Every flag written after `ftcolor -- <cmd>` in the docs and in CI
    /// is in that subcommand's table, so a stale flag fails here.
    #[test]
    fn documented_invocations_use_declared_flags() {
        for doc in ["README.md", "EXPERIMENTS.md", ".github/workflows/ci.yml"] {
            let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(doc);
            let text = std::fs::read_to_string(&path).unwrap().replace("\\\n", " ");
            let mut seen = 0;
            for (at, _) in text.match_indices("ftcolor -- ") {
                let line = text[at..].lines().next().unwrap_or_default();
                let mut words = line
                    .split_whitespace()
                    .skip(2)
                    .take_while(|w| !matches!(*w, "|" | ">" | "#" | "&&" | ";"));
                let name = words.next().unwrap_or_default();
                let cmd = CMDS.iter().find(|c| c.name == name);
                let cmd = cmd.unwrap_or_else(|| panic!("{doc}: no subcommand `{name}`"));
                for flag in words.filter_map(|w| w.strip_prefix("--")) {
                    assert!(
                        cmd.flag(flag).is_some(),
                        "{doc}: `ftcolor {name}` has no --{flag}"
                    );
                }
                seen += 1;
            }
            assert!(
                seen > 0 || doc == "EXPERIMENTS.md",
                "{doc}: no invocations found"
            );
        }
    }
}
