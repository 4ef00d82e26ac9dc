#!/usr/bin/env python3
"""Runs the ftcolor netsim, serve and modelcheck benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` binary from source (into $CARGO_TARGET_DIR, by
default `.bench_build` at the repository root), then runs one workload
closed-loop: one fresh process at a time, each a whole batch job.

--trace 0  repeats untraced runs for about --seconds and reports the
           end-to-end metrics of BENCHMARK.json as medians over the runs.
--trace 1  pairs an untraced run with a traced one (one span per layer
           call) and reports the per-layer metrics of BENCHMARK.json.

Every run checks its outputs, and the deterministic fingerprint of every
run at one seed must repeat; a run that fails either counts in `failed`.
The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Runs of the untraced loop never go below this count, whatever --seconds.
MIN_RUNS = 2
# Extra processes per run that only set up, so setup_s is a median of many.
SETUP_PROBES = 40
# Every process of a run, the build aside, ends within this many seconds.
RUN_BUDGET_S = 170


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    spec_path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(spec_path.read_text())
    except (OSError, ValueError) as e:
        die(f"cannot read {spec_path}: {e}")
    return spec


def build():
    """Builds the benchmark binary and returns its path."""
    if not (ROOT / "crates").is_dir():
        die("the repository's crates/ directory is missing; nothing to build")
    env = dict(os.environ)
    target = Path(env.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    env["CARGO_TARGET_DIR"] = str(target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        die(f"build failed: {e}")
    if done.returncode != 0:
        die(f"build failed with exit code {done.returncode}")
    exe = target / "release" / "perfbench"
    if not exe.is_file():
        die(f"build produced no {exe}")
    return exe


def child(exe, mode, workload, seed, deadline):
    """Runs one perfbench process; returns (spawn time in ns, its JSON record
    or None when it crashed, missed the deadline or printed garbage)."""
    cmd = [str(exe), mode, "--workload", workload, "--seed", str(seed)]
    spawn_ns = time.time_ns()
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"perfbench: {mode} run of {workload} ran out of time", file=sys.stderr)
        return spawn_ns, None
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        print(f"perfbench: {mode} run of {workload} exited {done.returncode}",
              file=sys.stderr)
        return spawn_ns, None
    try:
        return spawn_ns, json.loads(done.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        print(f"perfbench: {mode} run of {workload} printed no record", file=sys.stderr)
        return spawn_ns, None


class Tally:
    """Counts runs and their failures, including fingerprints that do not
    repeat at the same seed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digests = {}

    def record(self, kind, rec):
        self.attempted += 1
        ok = rec is not None and rec["ok"]
        if rec is not None:
            for f in rec.get("failures", []):
                print(f"perfbench: check failed: {f}", file=sys.stderr)
            first = self.digests.setdefault(kind, rec["digest"])
            if first != rec["digest"]:
                print(f"perfbench: {kind} fingerprint {rec['digest']} != {first} "
                      "at the same seed", file=sys.stderr)
                ok = False
        if not ok:
            self.failed += 1


def e2e_sample(exe, workload, seed, deadline, tally):
    """One untraced run: (wall_s, setup_s, peak RSS MiB, work/s), or None."""
    spawn_ns, rec = child(exe, "e2e", workload, seed, deadline)
    tally.record("e2e", rec)
    if rec is None:
        return None
    wall = (rec["done_unix_ns"] - spawn_ns) / 1e9
    setup = (rec["setup_unix_ns"] - spawn_ns) / 1e9
    return wall, setup, rec["peak_rss_kib"] / 1024, rec["work"] / wall


def end_to_end(exe, workload, seed, seconds, tally):
    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    samples = []
    while True:
        s = e2e_sample(exe, workload, seed, deadline, tally)
        if s is None:
            break
        samples.append(s)
        elapsed = time.monotonic() - start
        per_run = elapsed / len(samples)
        if len(samples) >= MIN_RUNS and elapsed + per_run > seconds:
            break
    if not samples:
        die(f"no run of {workload} produced a result")
    setups = [s[1] for s in samples]
    for _ in range(SETUP_PROBES):
        spawn_ns, rec = child(exe, "setup", workload, seed, deadline)
        if rec is None:
            die(f"set-up of {workload} failed")
        setups.append((rec["setup_unix_ns"] - spawn_ns) / 1e9)
    print(f"perfbench: wall_s of each run: {[round(s[0], 4) for s in samples]}",
          file=sys.stderr)
    return {
        "wall_s": statistics.median(s[0] for s in samples),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": statistics.median(s[2] for s in samples),
        "work_per_s": statistics.median(s[3] for s in samples),
    }


def traced(exe, workload, seed, seconds, tally):
    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    walls, traced_walls, metrics = [], [], {}
    while True:
        s = e2e_sample(exe, workload, seed, deadline, tally)
        _, rec = child(exe, "trace", workload, seed, deadline)
        tally.record("trace", rec)
        if s is None or rec is None:
            break
        walls.append(s[0])
        traced_walls.append(rec["wall_s"])
        for k, v in rec["metrics"].items():
            metrics.setdefault(k, []).append(v)
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(walls) > seconds:
            break
    if not walls:
        die(f"no traced run of {workload} produced a result")
    out = {k: statistics.median(v) for k, v in metrics.items()}
    out["trace.overhead_ratio"] = statistics.median(traced_walls) / statistics.median(walls)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    a = ap.parse_args()

    spec = load_spec()
    if a.workload not in {w["name"] for w in spec["workloads"]}:
        die(f"unknown workload {a.workload!r}")
    if not 0 <= a.seed < 2**64:
        die("--seed must fit in 64 unsigned bits")
    exe = build()

    tally = Tally()
    if a.trace:
        wanted = spec["per_layer"]
        got = traced(exe, a.workload, a.seed, a.seconds, tally)
    else:
        wanted = spec["end_to_end"]
        got = end_to_end(exe, a.workload, a.seed, a.seconds, tally)
    names = {m["name"] for m in wanted}
    unknown = sorted(set(got) - names)
    if unknown:
        die(f"measured metrics missing from BENCHMARK.json: {unknown}")
    # A per-layer metric of a layer this workload bypasses reads 0.
    metrics = {m["name"]: {"value": got.get(m["name"], 0.0), "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
