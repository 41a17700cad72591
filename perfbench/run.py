#!/usr/bin/env python3
"""Builds and runs the dissent end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S   # all three, untraced
    python3 perfbench/run.py --selftest                            # benchmark self-tests

Run from the repository root. The first call configures and builds the
benchmark (Release) under .bench_build/; later calls only rebuild what
changed. The last line of stdout is the result JSON; the process exits
nonzero when a correctness check fails or the printed metrics differ from
the ones BENCHMARK.json lists.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
TRACE_DIR = ROOT / ".bench_build" / "traces"
WORKLOADS = ["microblog-256", "bulk-64", "tcp-fleet-100"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build(target):
    if not (ROOT / "src" / "core" / "engine.h").is_file():
        log(f"dissent sources not found under {ROOT / 'src'}")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cfg = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release", *gen]
        if subprocess.run(cfg, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", str(BUILD_DIR), "--target", target, "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def source_id():
    """The git commit when there is one, else a digest of the source tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return [(m["name"], m["unit"]) for m in spec[key]]


def run_one(workload, seed, seconds, trace, commit):
    TRACE_DIR.mkdir(parents=True, exist_ok=True)
    cmd = [str(BUILD_DIR / "perfbench"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--commit", commit]
    if trace:
        cmd += ["--trace-out", str(TRACE_DIR / f"{workload}-seed{seed}.csv")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: timed out after {RUN_TIMEOUT_S} s")
        return None, []
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if not lines:
        log(f"{workload}: no output (exit {proc.returncode})")
        return None, []
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"{workload}: last line is not JSON")
        return None, lines
    got = [(name, m["unit"]) for name, m in result["metrics"].items()]
    if got != expected_metrics(trace):
        log(f"{workload}: metrics differ from BENCHMARK.json: {got}")
        return None, lines
    if proc.returncode != 0 or not result["correct"]:
        result["correct"] = False
    return result, lines


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=54)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    if args.selftest:
        if not build("perfbench_test"):
            return 3
        return subprocess.run([str(BUILD_DIR / "perfbench_test")]).returncode
    if args.workload is None:
        ap.error("--workload is required")
    if not build("perfbench"):
        return 3
    commit = source_id()

    if args.workload != "all":
        result, lines = run_one(args.workload, args.seed, args.seconds, args.trace, commit)
        if result is None:
            for line in lines:
                print(line, file=sys.stderr)
            return 4
        for line in lines[:-1]:
            print(line)
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    summary = {}
    ok = True
    for w in WORKLOADS:
        result, lines = run_one(w, args.seed, args.seconds, 0, commit)
        for line in lines[:-1]:
            print(line)
        if result is None:
            ok = False
            continue
        ok &= result["correct"]
        summary[w] = result
        print(f"{w}: correct={result['correct']} ops={result['attempted']} "
              f"ops_failed={result['failed']}")
        for name, m in result["metrics"].items():
            print(f"  {name:18s} {m['value']:14.4f} {m['unit']}")
    print(json.dumps(summary))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
