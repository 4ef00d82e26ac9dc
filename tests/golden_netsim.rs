//! Golden pins for the discrete-event network simulator.
//!
//! `run_net` is a pure function of `(alg, topology, inputs, plan,
//! config)`: one seeded RNG stream for fault draws, one for activation
//! jitter, and a logical clock. This suite pins everything a run
//! reports — the delivery-trace digest, the message counters, per-node
//! round counts, the stop time, the outputs and a digest of the
//! round-commit event log — for three algorithms under four fault
//! scenarios on C8 and C16. Every case runs under both the `json` and
//! the `binary` codec and must match the same row: codec choice never
//! changes semantics.
//!
//! Any change to the register protocol, the event queue's tie-breaking,
//! the fault-draw order or the RNG consumption shows up here as a diff.
//! To re-bless after an intentional change, run
//!
//! ```text
//! cargo test --test golden_netsim
//! ```
//!
//! and paste the table the failure message prints over [`GOLDEN`].

use std::fmt::{Display, Write as _};

use ftcolor::model::{inputs, Algorithm, Topology};
use ftcolor::net::trace::fnv1a;
use ftcolor::net::{run_net, Codec, FaultPlan, NetConfig, NetReport, Partition};
use ftcolor::prelude::*;

/// Scenario names, in table order.
const SCENARIOS: [&str; 4] = ["clean", "lossy", "crash", "partition"];

fn plan(scenario: &str) -> FaultPlan {
    match scenario {
        "clean" => FaultPlan::default(),
        "lossy" => {
            let mut p = FaultPlan::lossy(0.2);
            p.duplicate = 0.1;
            p.reorder = 0.15;
            p
        }
        "crash" => FaultPlan::default().with_crash(2, 3),
        "partition" => FaultPlan::default().with_partition(Partition::window(3, 120, vec![5])),
        other => unreachable!("unknown scenario {other}"),
    }
}

/// One line summarizing a run: every field the suite pins.
fn render<O: Display>(r: &NetReport<O>) -> String {
    let s = &r.stats;
    let mut events = String::new();
    for e in &r.events {
        let _ = write!(
            events,
            "{} {} {} {} {:?};",
            e.seq, e.process, e.round, e.register, e.kind
        );
    }
    let outputs: Vec<String> = r
        .outputs
        .iter()
        .map(|o| {
            o.as_ref()
                .map_or_else(|| "-".to_string(), ToString::to_string)
        })
        .collect();
    format!(
        "trace={:016x} sent={} delivered={} dropped={} cut={} dup={} rtx={} loop={} dead={} \
         ev={} rounds={:?} time={} outputs=[{}] events={}:{:016x}",
        r.trace.digest(),
        s.sent,
        s.delivered,
        s.dropped,
        s.partition_dropped,
        s.duplicated,
        s.retransmits,
        s.loopback_writes,
        s.served_dead_reads,
        s.events_processed,
        r.rounds,
        r.time,
        outputs.join(" "),
        r.events.len(),
        fnv1a(events.as_bytes()),
    )
}

fn run_one<A>(alg: &A, n: usize, scenario: &str, codec: Codec) -> String
where
    A: Algorithm<Input = u64>,
    A::Reg: serde::Serialize + serde::Deserialize,
    A::Output: Display,
{
    let seed = 7 + n as u64;
    let topo = Topology::cycle(n).expect("n >= 3");
    let ids = inputs::random_unique(n, 10_000, seed);
    let cfg = NetConfig::new(seed).record_events(true).codec(codec);
    render(&run_net(alg, &topo, ids, &plan(scenario), &cfg))
}

fn run_case(alg: &str, n: usize, scenario: &str, codec: Codec) -> String {
    match alg {
        "alg1" => run_one(&SixColoring, n, scenario, codec),
        "alg2p" => run_one(&FiveColoringPatched, n, scenario, codec),
        "alg3p" => run_one(&FastFiveColoringPatched, n, scenario, codec),
        other => unreachable!("unknown algorithm {other}"),
    }
}

/// `(alg, n, scenario, rendered run)`, recorded before the register
/// protocol moved into the shared sans-IO node core.
const GOLDEN: &[(&str, usize, &str, &str)] = &[
    ("alg1", 8, "clean", "trace=d6f5c73e6e8f5f2c sent=114 delivered=114 dropped=0 cut=0 dup=0 rtx=0 loop=19 dead=0 ev=182 rounds=[2, 2, 2, 2, 3, 3, 3, 2] time=30 outputs=[(0,1) (1,1) (1,0) (0,1) (1,0) (0,0) (0,1) (1,0)] events=171:602ccfaf1eef69a3"),
    ("alg1", 8, "lossy", "trace=1bb53480f08bbd01 sent=116 delivered=99 dropped=17 cut=0 dup=7 rtx=14 loop=15 dead=0 ev=178 rounds=[2, 1, 2, 2, 3, 2, 1, 2] time=113 outputs=[(0,1) (0,0) (1,0) (0,1) (1,0) (1,1) (0,0) (1,0)] events=135:381c08cd8e02ad55"),
    ("alg1", 8, "crash", "trace=2f77c5a83add7724 sent=102 delivered=102 dropped=0 cut=0 dup=0 rtx=0 loop=18 dead=4 ev=159 rounds=[2, 2, 0, 2, 3, 3, 3, 2] time=28 outputs=[(0,1) (1,1) - (0,1) (1,0) (0,0) (0,1) (1,0)] events=153:8e31abad35dbb42d"),
    ("alg1", 8, "partition", "trace=2ebb1ba3280ea292 sent=147 delivered=112 dropped=0 cut=35 dup=0 rtx=32 loop=19 dead=0 ev=210 rounds=[2, 2, 2, 2, 3, 3, 3, 2] time=156 outputs=[(0,1) (1,1) (1,0) (0,1) (1,0) (0,0) (0,1) (1,0)] events=171:695caacd9a7ecadf"),
    ("alg1", 16, "clean", "trace=60fd5555e9aa1ef9 sent=204 delivered=204 dropped=0 cut=0 dup=0 rtx=0 loop=34 dead=0 ev=310 rounds=[3, 3, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2] time=26 outputs=[(0,1) (1,0) (0,1) (1,1) (1,0) (0,1) (1,1) (1,0) (1,1) (0,1) (1,0) (0,1) (1,0) (0,1) (1,1) (1,0)] events=306:d20148574ec4b423"),
    ("alg1", 16, "lossy", "trace=25664278021221cd sent=226 delivered=183 dropped=43 cut=0 dup=15 rtx=32 loop=29 dead=0 ev=345 rounds=[2, 2, 1, 2, 2, 2, 1, 2, 2, 1, 2, 2, 2, 2, 2, 2] time=97 outputs=[(1,1) (1,0) (0,0) (1,1) (1,0) (0,1) (0,0) (1,0) (1,1) (0,0) (1,0) (0,1) (1,0) (0,2) (1,1) (2,0)] events=261:7ec8e89c9d429f12"),
    ("alg1", 16, "crash", "trace=eae75a7823555c62 sent=186 delivered=186 dropped=0 cut=0 dup=0 rtx=0 loop=32 dead=4 ev=289 rounds=[3, 2, 0, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2] time=26 outputs=[(0,1) (1,1) - (1,1) (1,0) (0,1) (1,1) (1,0) (1,1) (0,1) (1,0) (0,1) (1,0) (0,1) (1,1) (1,0)] events=279:b88eebdf44469eb2"),
    ("alg1", 16, "partition", "trace=144966eb60c078e1 sent=236 delivered=200 dropped=0 cut=36 dup=0 rtx=32 loop=34 dead=0 ev=360 rounds=[3, 3, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2] time=147 outputs=[(0,1) (1,0) (0,1) (1,1) (2,0) (0,1) (1,1) (1,0) (1,1) (0,1) (1,0) (0,1) (1,0) (0,1) (1,1) (1,0)] events=306:68075e8aefcda441"),
    ("alg2p", 8, "clean", "trace=b318410a2784bc26 sent=162 delivered=162 dropped=0 cut=0 dup=0 rtx=0 loop=27 dead=0 ev=266 rounds=[3, 3, 2, 4, 5, 5, 3, 2] time=46 outputs=[0 2 1 0 1 0 2 1] events=243:b238964787797e0c"),
    ("alg2p", 8, "lossy", "trace=b3ec6610ce4ed32d sent=155 delivered=131 dropped=24 cut=0 dup=8 rtx=17 loop=21 dead=0 ev=238 rounds=[3, 2, 2, 3, 3, 4, 2, 2] time=90 outputs=[0 2 1 0 1 0 3 1] events=189:c25d4668faf4119a"),
    ("alg2p", 8, "crash", "trace=87b1e22b6c7d4dbb sent=150 delivered=150 dropped=0 cut=0 dup=0 rtx=0 loop=26 dead=9 ev=247 rounds=[3, 4, 0, 5, 3, 5, 3, 2] time=44 outputs=[0 2 - 2 1 0 2 1] events=225:dc792301a57103c6"),
    ("alg2p", 8, "partition", "trace=9b8c197882e45bcc sent=177 delivered=142 dropped=0 cut=35 dup=0 rtx=32 loop=24 dead=0 ev=266 rounds=[3, 3, 2, 4, 5, 3, 2, 2] time=166 outputs=[0 2 1 2 4 3 2 1] events=216:e9584e7ce56797cb"),
    ("alg2p", 16, "clean", "trace=a56707411afa38cb sent=318 delivered=318 dropped=0 cut=0 dup=0 rtx=0 loop=53 dead=0 ev=520 rounds=[5, 5, 3, 3, 2, 3, 4, 3, 4, 4, 2, 2, 2, 4, 5, 2] time=46 outputs=[0 2 0 2 1 0 1 2 1 0 1 0 1 0 3 1] events=477:cd2a638cb984797f"),
    ("alg2p", 16, "lossy", "trace=4b6c0dec0fe8892a sent=325 delivered=267 dropped=58 cut=0 dup=25 rtx=45 loop=42 dead=0 ev=504 rounds=[4, 3, 3, 3, 2, 3, 2, 3, 3, 1, 2, 2, 3, 3, 4, 1] time=119 outputs=[3 2 0 2 1 0 1 0 2 0 1 0 2 0 2 0] events=378:06f68ef084e30e8e"),
    ("alg2p", 16, "crash", "trace=ca4f0698c086d457 sent=240 delivered=240 dropped=0 cut=0 dup=0 rtx=0 loop=41 dead=6 ev=373 rounds=[3, 3, 0, 3, 2, 3, 3, 2, 3, 3, 2, 3, 2, 3, 3, 2] time=28 outputs=[2 1 - 2 1 0 2 1 2 0 1 0 1 0 2 1] events=360:fab5a98950fff78a"),
    ("alg2p", 16, "partition", "trace=80d52bcdd5ab2cbc sent=278 delivered=242 dropped=0 cut=36 dup=0 rtx=32 loop=41 dead=0 ev=430 rounds=[3, 3, 2, 3, 2, 3, 2, 2, 3, 4, 2, 2, 2, 3, 3, 2] time=150 outputs=[2 1 0 1 2 0 2 1 2 0 1 0 1 0 2 1] events=369:8b141d8c42957bd9"),
    ("alg3p", 8, "clean", "trace=2339c15bf6064fc1 sent=144 delivered=144 dropped=0 cut=0 dup=0 rtx=0 loop=24 dead=0 ev=230 rounds=[3, 3, 2, 4, 4, 3, 3, 2] time=37 outputs=[0 2 1 2 3 1 0 1] events=216:d3bb24f0aa1c9f0d"),
    ("alg3p", 8, "lossy", "trace=dc8eeb235911fc62 sent=161 delivered=136 dropped=25 cut=0 dup=8 rtx=17 loop=22 dead=0 ev=248 rounds=[3, 2, 2, 5, 4, 3, 1, 2] time=133 outputs=[0 2 1 2 3 1 0 1] events=198:a231af625ce0907f"),
    ("alg3p", 8, "crash", "trace=511ecf7aaf09736f sent=168 delivered=168 dropped=0 cut=0 dup=0 rtx=0 loop=29 dead=11 ev=279 rounds=[3, 3, 0, 8, 6, 3, 3, 2] time=71 outputs=[0 1 - 3 2 1 0 1] events=252:e99be0338ab80aad"),
    ("alg3p", 8, "partition", "trace=4580fb314e8faa85 sent=171 delivered=136 dropped=0 cut=35 dup=0 rtx=32 loop=23 dead=0 ev=254 rounds=[3, 3, 2, 4, 4, 3, 2, 2] time=159 outputs=[0 2 1 2 1 3 2 1] events=207:ec93ce864d8a0129"),
    ("alg3p", 16, "clean", "trace=4b15b63b525128d5 sent=288 delivered=288 dropped=0 cut=0 dup=0 rtx=0 loop=48 dead=0 ev=456 rounds=[3, 3, 3, 3, 2, 3, 4, 3, 4, 4, 2, 2, 2, 4, 4, 2] time=34 outputs=[0 1 0 2 1 0 1 2 1 0 1 0 1 0 3 1] events=432:b461bd10d7699499"),
    ("alg3p", 16, "lossy", "trace=7d28a00777dbf111 sent=356 delivered=293 dropped=63 cut=0 dup=26 rtx=47 loop=47 dead=0 ev=553 rounds=[4, 3, 3, 3, 2, 3, 2, 3, 3, 1, 2, 2, 3, 3, 6, 4] time=122 outputs=[2 1 3 2 1 0 1 0 2 0 1 0 2 0 3 1] events=423:5f1e276613e10a51"),
    ("alg3p", 16, "crash", "trace=ca4f0698c086d457 sent=240 delivered=240 dropped=0 cut=0 dup=0 rtx=0 loop=41 dead=6 ev=373 rounds=[3, 3, 0, 3, 2, 3, 3, 2, 3, 3, 2, 3, 2, 3, 3, 2] time=28 outputs=[0 1 - 2 1 0 2 1 2 0 1 0 1 0 2 1] events=360:fab5a98950fff78a"),
    ("alg3p", 16, "partition", "trace=80d52bcdd5ab2cbc sent=278 delivered=242 dropped=0 cut=36 dup=0 rtx=32 loop=41 dead=0 ev=430 rounds=[3, 3, 2, 3, 2, 3, 2, 2, 3, 4, 2, 2, 2, 3, 3, 2] time=150 outputs=[0 1 0 1 2 0 2 1 2 0 1 0 1 0 2 1] events=369:8b141d8c42957bd9"),
];

#[test]
fn netsim_runs_match_the_golden_table() {
    let mut actual = Vec::new();
    for alg in ["alg1", "alg2p", "alg3p"] {
        for n in [8usize, 16] {
            for scenario in SCENARIOS {
                let json = run_case(alg, n, scenario, Codec::Json);
                let binary = run_case(alg, n, scenario, Codec::Binary);
                assert_eq!(json, binary, "{alg} C{n} {scenario}: codecs disagree");
                actual.push((alg, n, scenario, json));
            }
        }
    }
    let matches = actual.len() == GOLDEN.len()
        && actual
            .iter()
            .zip(GOLDEN)
            .all(|((a, n, s, line), (ga, gn, gs, gline))| {
                a == ga && n == gn && s == gs && line == gline
            });
    if !matches {
        let mut table = String::from("const GOLDEN: &[(&str, usize, &str, &str)] = &[\n");
        for (alg, n, scenario, line) in &actual {
            let _ = writeln!(table, "    (\"{alg}\", {n}, \"{scenario}\", \"{line}\"),");
        }
        table.push_str("];\n");
        for ((a, n, s, line), (ga, gn, gs, gline)) in actual.iter().zip(GOLDEN) {
            if (a, n, s, line.as_str()) != (ga, gn, gs, *gline) {
                eprintln!("first mismatch: {a} C{n} {s}\n  got:    {line}\n  pinned: {gline}");
                break;
            }
        }
        panic!("netsim runs drifted from the golden table; recorded table:\n{table}");
    }
}
