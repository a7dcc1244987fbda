#!/usr/bin/env python3
"""Build the perfbench package from source and run one or every workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <lint-verify|serve-zipf|all> \
        [--seed N] [--seconds N] [--trace 0|1]

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The exit code is non-zero
when the build fails or any output check fails. Build output goes to
standard error; the build lands in `$CARGO_TARGET_DIR` (default
`.bench_build`).

Besides the per-op checks inside the binary, this script checks that the
deterministic work counters of a run equal those of every earlier run of
the same binary, workload, seed, length and trace mode in this build
directory: a changed count means the work changed, not the speed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["lint-verify", "serve-zipf"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Build the release binary; return its path, or None on failure."""
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        log("no crates/ next to perfbench/: nothing to build")
        return None
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        log(f"build failed: {err}")
        return None
    if done.returncode != 0:
        log(f"build failed with exit code {done.returncode}")
        return None
    return os.path.join(target, "release", "perfbench")


def run_one(binary, workload, seed, seconds, trace):
    """Run one workload; return its result object, or None."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    # One malloc arena: with one per worker thread, the heap glibc keeps
    # resident differs by ~15% from run to run and swamps peak RSS.
    env = dict(os.environ, MALLOC_ARENA_MAX="1")
    try:
        done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        log(f"{workload}: {err}")
        return None
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2:
        log(f"{workload}: exit code {done.returncode}, no result")
        return None
    try:
        info, result = json.loads(lines[-2]), json.loads(lines[-1])
    except json.JSONDecodeError as err:
        log(f"{workload}: unreadable result: {err}")
        return None
    if done.returncode != 0:
        result["correct"] = False
    metrics = declared_metrics(trace, result["metrics"])
    if metrics is None:
        result["correct"] = False
        result["failed"] += 1
    else:
        result["metrics"] = metrics
    if not check_counters(binary, workload, seed, seconds, trace, info["counters"]):
        result["correct"] = False
        result["failed"] += 1
    print(json.dumps(info), flush=True)
    return result


def declared_metrics(trace, reported):
    """The run's metrics in BENCHMARK.json's order, or None.

    An untraced run must report exactly the declared end-to-end metrics.
    A traced run reports the per-layer metrics of the layers its
    workload calls; every other declared layer reads 0.
    """
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    wrong = {name: m["unit"] for name, m in reported.items() if units.get(name) != m["unit"]}
    missing = [m["name"] for m in declared if m["name"] not in reported]
    if wrong or (missing and not trace):
        log(f"metrics {wrong} undeclared, {missing} missing, against BENCHMARK.json")
        return None
    return {m["name"]: reported.get(m["name"], {"value": 0, "unit": m["unit"]})
            for m in declared}


def check_counters(binary, workload, seed, seconds, trace, counters):
    """Compare the run's work counters with earlier runs of this binary."""
    with open(binary, "rb") as f:
        build_id = hashlib.sha256(f.read()).hexdigest()[:16]
    store = os.path.join(os.path.dirname(binary), "perfbench-counters")
    os.makedirs(store, exist_ok=True)
    path = os.path.join(store, f"{build_id}-{workload}-{seed}-{seconds}-{trace}.json")
    if os.path.exists(path):
        with open(path) as f:
            earlier = json.load(f)
        if earlier != counters:
            log(f"{workload}: work counters {counters} differ from an earlier run's {earlier}")
            return False
        return True
    with open(path, "w") as f:
        json.dump(counters, f, sort_keys=True)
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 1
    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result = run_one(binary, name, args.seed, args.seconds, args.trace)
        if result is None:
            return 1
        results[name] = result
        for metric, m in result["metrics"].items():
            log(f"{name:12} {metric:30} {m['value']:>16.6g} {m['unit']}")
        log(f"{name:12} {'fail_ratio':30} {result['failed'] / result['attempted']:>16.6g} "
            f"({result['failed']} of {result['attempted']} ops)")

    if len(results) == 1:
        final = results[args.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
