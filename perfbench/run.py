#!/usr/bin/env python3
"""Build and run the pvsim benchmark on one workload.

    python3 perfbench/run.py [--workload NAME|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Run from the root of a source checkout. Without --workload it runs
every workload in workloads/ and ends with a summary table.

The first run configures and builds perfbench/ (the simulator library
from src/ plus the pvbench program) in Release mode under
.bench_build/; later runs only rebuild what changed. The pvbench
report goes to stdout, and its last line is the JSON result. If the
simulator crashes or hangs, this script prints a failed result in its
place. If the benchmark cannot be built or started, it exits non-zero
and prints no result.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
SPANS = ROOT / ".bench_build" / "spans"
WORKLOADS = HERE / "workloads"
# Per run: the build check, then pvbench, which overruns its
# --seconds budget by at most one repetition plus the layer replays.
PVBENCH_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                   stdout=sys.stderr, check=True)
    return BUILD / "pvbench"


def source_hash():
    """SHA-256 over the simulator sources and the benchmark itself."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            if "__pycache__" in path.parts:
                continue
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown (not a git checkout)"


def failed_result(pvbench_stdout):
    """Result for a pvbench run that died: its finished attempts plus the
    one it died in, which failed."""
    attempted = sum(1 for line in pvbench_stdout.splitlines()
                    if line.startswith("attempt "))
    return ('{"correct": false, "attempted": %d, "failed": 1, '
            '"metrics": {}}' % (attempted + 1))


def run_workload(exe, workload, args):
    """Run pvbench on one workload, echoing its report. Returns the
    exit status for this script and the JSON result line printed."""
    cmd = [str(exe), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workload-dir", str(WORKLOADS),
           "--span-file", str(SPANS / f"{workload}-seed{args.seed}.json"),
           "--commit", commit(), "--source-hash", source_hash()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=PVBENCH_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        out = e.stdout.decode() if isinstance(e.stdout, bytes) else (
            e.stdout or "")
        sys.stdout.write(out)
        log(f"pvbench exceeded {PVBENCH_TIMEOUT_S} s and was stopped")
        result = failed_result(out)
        print(result)
        return 0, result
    sys.stdout.write(proc.stdout)
    if proc.returncode == 2:
        log("pvbench could not start")
        return 2, None
    if proc.returncode != 0:
        # A panic or fatal error inside the simulator ends pvbench
        # mid-run: that run failed.
        log(f"pvbench ended with status {proc.returncode}")
        result = failed_result(proc.stdout)
        print(result)
        return 0, result
    return 0, proc.stdout.splitlines()[-1]


def summarize(results):
    """Table of every workload's metrics, then one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0,
                "metrics": {}}
    print("\nsummary")
    for workload, line in results:
        r = json.loads(line)
        combined["correct"] = combined["correct"] and r["correct"]
        combined["attempted"] += r["attempted"]
        combined["failed"] += r["failed"]
        for name, m in r["metrics"].items():
            print(f"{workload:22} {name:28} {m['value']:<24.6g} {m['unit']}")
            combined["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(combined))


def main():
    names = sorted(p.stem for p in WORKLOADS.glob("*.json"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    help="one of %s, or all (default)" % ", ".join(names))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    workloads = names if args.workload == "all" else [args.workload]
    if not set(workloads) <= set(names):
        log(f"unknown workload {args.workload!r} (one of: "
            f"{', '.join(names)}, all)")
        return 2
    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2
    SPANS.mkdir(parents=True, exist_ok=True)

    results = []
    for workload in workloads:
        status, line = run_workload(exe, workload, args)
        if status != 0:
            return status
        results.append((workload, line))
    if len(results) > 1:
        summarize(results)
    return 0


if __name__ == "__main__":
    sys.exit(main())
