#!/usr/bin/env python3
"""Build and run the xdblas benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selfcheck

Run from the root of a checkout. The first run configures and builds the
library and the benchmark binary from source into $CARGO_TARGET_DIR
(default .bench_build) under the checkout; later runs only rebuild what
changed. Each workload runs in a fresh process. The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}. The exit
status is 0 only when every op matched its sequential reference.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["serve-small", "submit-tiny", "blas-large", "shard-chain"]
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 600


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the benchmark binary; return its path."""
    out = build_dir() / "perfbench"
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(out / ".build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (out / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(out), "--target", "xdbench",
                      "-j", jobs])
        for cmd in steps:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
            if proc.returncode != 0:
                raise RuntimeError(f"build step failed: {' '.join(cmd)}")
    return out / "xdbench"


def run_one(binary, workload, seed, seconds, trace, extra=()):
    """Run one workload in a fresh process; return (exit code, result)."""
    traces = build_dir() / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--trace-out", str(traces / f"{workload}-seed{seed}.json"), *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        log(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return (proc.returncode or 1), None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return (proc.returncode or 1), None
    return proc.returncode, result


def selfcheck(binary):
    """Every metric BENCHMARK.json names prints with its unit on every
    workload, and a corrupted reference digest trips the correctness gate."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            rc, res = run_one(binary, workload, 7, 1, trace)
            if rc != 0 or res is None or not res["correct"]:
                problems.append(f"{workload} trace={trace}: rc={rc}")
                continue
            for m in spec[key]:
                got = res["metrics"].get(m["name"])
                if got is None or got.get("unit") != m["unit"]:
                    problems.append(f"{workload} trace={trace}: {m['name']} "
                                    f"missing or not in {m['unit']}")
    rc, res = run_one(binary, "submit-tiny", 7, 1, 0, ["--corrupt-digest"])
    if rc == 0 or res is None or res["correct"] or res["failed"] == 0:
        problems.append("a corrupted digest did not trip the correctness gate")
    for p in problems:
        log("selfcheck FAIL:", p)
    log("selfcheck:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=2005)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args()
    if not args.selfcheck and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    try:
        binary = build()
    except (OSError, RuntimeError, subprocess.TimeoutExpired) as e:
        log(f"run.py: {e}")
        return 2
    if args.selfcheck:
        return selfcheck(binary)

    names = WORKLOADS if args.workload == "all" else [args.workload]
    results, worst = {}, 0
    for name in names:
        try:
            rc, res = run_one(binary, name, args.seed, args.seconds, args.trace)
        except subprocess.TimeoutExpired:
            log(f"run.py: {name} timed out")
            return 2
        if res is None:
            log(f"run.py: {name} printed no result (exit {rc})")
            return rc or 1
        results[name] = res
        worst = worst or rc
        if len(names) > 1:
            print(json.dumps({"workload": name, **res}), flush=True)
    if len(names) == 1:
        print(json.dumps(results[names[0]]), flush=True)
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }), flush=True)
    return worst


if __name__ == "__main__":
    sys.exit(main())
