//! `perfbench`: one run of one workload, printed as a JSON line.
//!
//! ```text
//! perfbench setup --workload W --seed N   set up, stop before the main layer
//! perfbench e2e   --workload W --seed N   untraced run through the CLI entry point
//! perfbench trace --workload W --seed N   traced run, one span per layer call
//! ```
//!
//! `run.py` starts a fresh process per run and turns these lines into the
//! benchmark's metrics. Timestamps are Unix nanoseconds so `run.py` can
//! measure from the moment it started the process.

mod spans;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{SystemTime, UNIX_EPOCH};

use ftcolor_batch::service::peak_rss_kib;
use workloads::{end_to_end, traced, Size, Workload};

const USAGE: &str = "usage: perfbench <setup|e2e|trace> --workload <name> --seed <n>";

fn unix_ns() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number (non-finite values, which JSON cannot carry, read 0).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn json_list(items: &[String]) -> String {
    let parts: Vec<String> = items.iter().map(|s| json_str(s)).collect();
    format!("[{}]", parts.join(","))
}

struct Args {
    mode: String,
    workload: Workload,
    seed: u64,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mode = args.first().ok_or("missing mode")?.clone();
    if !matches!(mode.as_str(), "setup" | "e2e" | "trace") {
        return Err(format!("unknown mode `{mode}`"));
    }
    let (mut workload, mut seed) = (None, None);
    let mut rest = args[1..].iter();
    while let Some(flag) = rest.next() {
        let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("bad --seed: {e}"))?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        mode,
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let line = match a.mode.as_str() {
        "setup" | "e2e" => {
            let go_on = a.mode == "e2e";
            let mut setup_ns = 0;
            let verdict = end_to_end(a.workload, Size::Full, a.seed, || {
                setup_ns = unix_ns();
                go_on
            });
            let done_ns = unix_ns();
            match verdict {
                None => format!("{{\"ok\":true,\"setup_unix_ns\":{setup_ns}}}"),
                Some(v) => format!(
                    "{{\"ok\":{},\"failures\":{},\"setup_unix_ns\":{setup_ns},\
                     \"done_unix_ns\":{done_ns},\"work\":{},\"digest\":{},\"peak_rss_kib\":{}}}",
                    v.failures.is_empty(),
                    json_list(&v.failures),
                    v.work,
                    json_str(&v.digest),
                    peak_rss_kib()
                ),
            }
        }
        _ => {
            let t = traced(a.workload, Size::Full, a.seed);
            let metrics: Vec<String> = t
                .metrics
                .iter()
                .map(|(k, v)| format!("{}:{}", json_str(k), json_num(*v)))
                .collect();
            format!(
                "{{\"ok\":{},\"failures\":{},\"digest\":{},\"wall_s\":{},\"metrics\":{{{}}}}}",
                t.failures.is_empty(),
                json_list(&t.failures),
                json_str(&t.digest),
                json_num(t.wall_s),
                metrics.join(",")
            )
        }
    };
    println!("{line}");
    ExitCode::SUCCESS
}
