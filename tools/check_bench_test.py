#!/usr/bin/env python3
"""Self-test of the bench gate on the committed smoke baselines.

The baselines must pass check_bench.py against themselves (every
sanity and victim-pair gate holds on the recorded smoke run), and a
copy whose victim-on rows show the same availability-redirect rate
as their victim-off twins must fail: the victim buffer then buys
nothing, which is what the pair gate exists to catch.

    check_bench_test.py [BASELINE_DIR]   (default: tools/baselines)
"""

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))


def gate(baseline_dir, fig9, qos):
    return subprocess.run(
        [
            sys.executable, os.path.join(HERE, "check_bench.py"),
            "--baseline-dir", baseline_dir,
            "--fig9", fig9, "--qos", qos,
        ],
        capture_output=True, text=True,
    )


def main():
    baseline_dir = sys.argv[1] if len(sys.argv) > 1 else (
        os.path.join(HERE, "baselines")
    )
    fig9 = os.path.join(baseline_dir, "BENCH_fig9.smoke.json")
    qos = os.path.join(baseline_dir, "BENCH_qos.smoke.json")

    res = gate(baseline_dir, fig9, qos)
    if res.returncode != 0:
        print(res.stdout + res.stderr)
        print("FAIL: the committed smoke baselines do not pass the gate")
        return 1

    with open(fig9) as f:
        artifact = json.load(f)
    rows = [r for s in artifact["scenarios"] for r in s["rows"]]
    off = {
        (r["mix"], r["edge_stability"]): r
        for r in rows if r["victim_entries"] == 0
    }
    for r in rows:
        if r["victim_entries"] > 0:
            twin = off[(r["mix"], r["edge_stability"])]
            r["virtualized_avail_redirect_pct"] = (
                twin["virtualized_avail_redirect_pct"]
            )
    with tempfile.TemporaryDirectory() as tmp:
        mutated = os.path.join(tmp, "BENCH_fig9.json")
        with open(mutated, "w") as f:
            json.dump(artifact, f)
        res = gate(baseline_dir, mutated, qos)
    if res.returncode == 0 or "buys nothing" not in res.stdout:
        print(res.stdout + res.stderr)
        print("FAIL: victim-on redirects equal to off passed the gate")
        return 1
    print("check_bench_test: baselines pass, victim-neutral copy fails")
    return 0


if __name__ == "__main__":
    sys.exit(main())
