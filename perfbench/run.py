#!/usr/bin/env python3
"""Repository benchmark entry point (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a source checkout. The first call configures and
builds the measuring program and seemore_node from source into
$CARGO_TARGET_DIR (default .bench_build); later calls only rebuild what
changed. Per-run scratch directories and trace files go to .bench_run/.

The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850

# failover-sim's virtual-time metrics: two runs of one seed must agree on
# every one of them, bit for bit.
VIRTUAL_END_TO_END = ["throughput_kreqs", "latency_p50_ms", "latency_p90_ms"]
VIRTUAL_PER_LAYER = [
    "failed_frac", "outage_ms", "smr.retransmissions",
    "consensus.reqs_per_batch", "consensus.msgs_per_req",
    "seemore.view_changes", "seemore.equivocations", "sim.events_per_req",
    "net.msgs_per_req", "net.wire_bytes_per_req",
]


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return path if path.is_absolute() else ROOT / path


def build():
    """Configure and build; False when the sources are not there."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(out),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(out), "-j", jobs,
         "--target", "perfbench", "seemore_node"],
    ]
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, cwd=ROOT)
        except (OSError, subprocess.TimeoutExpired) as err:
            log(f"perfbench: build step failed: {err}")
            return False
        if done.returncode != 0:
            log(f"perfbench: build step failed: {' '.join(step)}")
            return False
    return True


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def run_driver(workload, seed, seconds, trace):
    """Run one measurement; returns (result dict, stdout lines) or None."""
    run_root = ROOT / ".bench_run"
    run_root.mkdir(exist_ok=True)
    cmd = [str(build_dir() / "perfbench"), f"--workload={workload}",
           f"--seed={seed}", f"--seconds={seconds}", f"--trace={trace}",
           f"--node-binary={build_dir() / 'seemore_node'}",
           f"--run-root={run_root}", f"--git-sha={git_sha()}"]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            cwd=ROOT, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # The driver and every node process it spawned share the session.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log("perfbench: the measuring program timed out")
        return None
    lines = stdout.splitlines()
    if proc.returncode != 0 or not lines:
        log(f"perfbench: the measuring program failed ({proc.returncode})")
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("perfbench: the last line is not a result object")
        return None
    return result, lines[:-1]


def check_result(result, trace):
    """Problems with the result's shape (empty when it meets the contract)."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append("failed must be a whole number")
    expected = declared_metrics(trace)
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        problems.append(f"metrics missing {missing} extra {extra}")
    for name, entry in metrics.items():
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name} is not a finite number")
        if name in expected and entry.get("unit") != expected[name]:
            problems.append(f"{name} unit {entry.get('unit')} != "
                            f"{expected[name]}")
    return problems


def measure(args):
    if not build():
        return 1
    outcome = run_driver(args.workload, args.seed, args.seconds, args.trace)
    if outcome is None:
        return 1
    result, lines = outcome
    for line in lines:
        print(line)
    problems = check_result(result, args.trace)
    if problems:
        log("perfbench: malformed result: " + "; ".join(problems))
        return 1
    print(json.dumps(result), flush=True)
    return 0


def self_test():
    """A tiny-window pass of every workload in both modes, plus two
    failover-sim runs of one seed that must agree on every virtual metric."""
    if not build():
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    seen = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            outcome = run_driver(workload, 7, 1, trace)
            label = f"{workload} --trace {trace}"
            if outcome is None:
                failures.append(f"{label}: no result")
                continue
            result = outcome[0]
            problems = check_result(result, trace)
            if not result.get("correct"):
                problems.append("correctness gate refused a run")
            failures += [f"{label}: {p}" for p in problems]
            seen[(workload, trace)] = result.get("metrics", {})
            log(f"self-test {label}: {'ok' if not problems else 'FAILED'}")
    for trace, names in ((0, VIRTUAL_END_TO_END), (1, VIRTUAL_PER_LAYER)):
        again = run_driver("failover-sim", 7, 1, trace)
        first = seen.get(("failover-sim", trace), {})
        if again is None:
            failures.append("failover-sim repeat: no result")
            continue
        for name in names:
            a = first.get(name, {}).get("value")
            b = again[0]["metrics"].get(name, {}).get("value")
            if a is None or a != b:
                failures.append(f"failover-sim {name}: {a} then {b}")
    for failure in failures:
        log("self-test: " + failure)
    print("self-test: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.workload:
        parser.error("--workload is required")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
