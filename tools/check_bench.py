#!/usr/bin/env python3
"""Bench-regression gate for the CI smoke runs.

Compares freshly produced BENCH_*.json artifacts against the
committed baselines in tools/baselines/ with a tolerance band, and
fails (exit 1) on drift — so a PR that silently degrades the
dedicated-vs-virtualized deltas, the stepping harness, or the QoS
protection result breaks the build instead of only uploading a
different artifact.

The fig9 and qos artifacts are `pvsim run ... --json-out` outputs:
a header plus one object per scenario ({name, kind, rows, ...}).
Rows are matched to the baseline by (scenario name, row key), so a
fresh artifact must run the same scenario files as its baseline:

    pvsim run scenarios/fig9-mixed.json \
        scenarios/fig9-mixed-victim.json --json-out BENCH_fig9.json
    pvsim run scenarios/qos-presets.json \
        scenarios/qos-hetero-64core.json --json-out BENCH_qos.json

What is gated, and why these tolerances:

* fig9 (--fig9): per-(scenario, mix, stability) row, the
  dedicated-vs-virtualized speedup delta must stay within
  --fig9-tol-pp percentage points of the baseline, hit rates within
  --hit-tol-pp, and IPCs within --ipc-rel-tol relative. The smoke
  run is deterministic for a given source tree (fixed seeds,
  matched pairs), so the band only needs to absorb
  compiler/platform floating-point wiggle. Every row must also have
  nonzero IPCs on both sides, and every row at edge stability
  >= 0.9 a dedicated hit rate >= 60% — the regression this catches
  is the branch stream silently collapsing back to unlearnable.
* fig9 victim pairs: each row run with victim_entries > 0 is paired
  with the victim_entries == 0 row of the same (mix, stability) in
  the same artifact (the victim scenarios differ from their twins
  only in victim_entries, so the pair shares seeds and budgets).
  Gated within the fresh artifact, so host-independent: the pair
  must be matched (identical dedicated IPCs), both virtualized IPCs
  nonzero, the buffer must have served misses (victim_hits > 0),
  the on side's availability-redirect rate must land strictly below
  the off side's (the mechanism's reason to exist), and the IPC
  delta of the two rows' batch-mean virtualized IPCs must not fall
  below -(--victim-ipc-tol-pp) percent — victim retention is allowed
  to be IPC-neutral, never an IPC tax.
* stepping (BENCH_stepping.json): the threaded harness must report
  bit_identical=true (the correctness property), every throughput
  must be positive, and the structural speedups that PRs 2/4 bought
  (bulk-fread trace replay, pooled payload allocation) must not
  collapse; wall-clock noise on shared CI runners is absorbed by
  generous floors on the *ratios*, never on absolute rates.
* qos (--qos): per-(scenario, setting) row, availability-redirect
  and protection percentages within --hit-tol-pp of the baseline
  and a nonzero IPC. Per qos scenario, the baseline setting must
  show contention (nonzero redirects) and the best setting must
  protect the BTB by >= 10% relative — the experiment's reason to
  exist. Per qos_hetero scenario: four cluster rows, nonzero IPCs
  for the reference and protected runs, BTB traffic in every
  cluster, and at least one protected cluster (BTB weight above the
  aggressor's, or floors) better off than its all-equal reference.
* scenarios (--pvsim + --scenarios DIR...): each corpus directory
  must pass `pvsim validate` (strict parse, unknown-key rejection,
  round-trip stability, buildable systems) and every file's
  fingerprint must match the directory's committed MANIFEST.json — a
  scenario edit without a manifest refresh (or a serialization
  change that silently moves canonical forms) fails the build.
  Regenerate with:
      pvsim fingerprint DIR --json > DIR/MANIFEST.json

Usage (CI runs this from build-release/):
  check_bench.py --baseline-dir ../tools/baselines \
      --fig9 BENCH_fig9.json --stepping BENCH_stepping.json \
      --qos BENCH_qos.json \
      --pvsim ./pvsim --scenarios ../scenarios ../scenarios/full
Any artifact flag may be omitted to skip that gate.
"""

import argparse
import json
import subprocess
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


class Gate:
    def __init__(self):
        self.failures = []
        self.checks = 0

    def check(self, ok, msg):
        self.checks += 1
        if not ok:
            self.failures.append(msg)
            print(f"FAIL: {msg}")

    def close(self, band, tol, label):
        self.check(
            abs(band) <= tol,
            f"{label}: drift {band:+.4f} exceeds tolerance {tol}",
        )


def scenario_results(artifact, kind):
    """The artifact's result objects of one scenario kind."""
    return [
        s for s in artifact.get("scenarios", []) if s.get("kind") == kind
    ]


def fig9_rows(artifact):
    return {
        (s["name"], r["mix"], round(r["edge_stability"], 6)): r
        for s in scenario_results(artifact, "fig9")
        for r in s["rows"]
    }


def check_fig9(gate, current, baseline, tol_pp, hit_tol_pp, ipc_rel):
    base_rows = fig9_rows(baseline)
    cur_rows = fig9_rows(current)
    gate.check(
        set(base_rows) <= set(cur_rows),
        f"fig9: rows missing vs baseline: "
        f"{sorted(set(base_rows) - set(cur_rows))}",
    )
    for key, base in base_rows.items():
        cur = cur_rows.get(key)
        if cur is None:
            continue
        label = f"fig9 {key[0]} {key[1]}@{key[2]}"
        gate.close(
            cur["speedup_pct"] - base["speedup_pct"],
            tol_pp,
            f"{label} speedup_pct",
        )
        for field in ("dedicated_hit_pct", "virtualized_hit_pct"):
            gate.close(
                cur[field] - base[field], hit_tol_pp,
                f"{label} {field}",
            )
        for field in ("dedicated_ipc", "virtualized_ipc"):
            b = base[field]
            gate.check(b > 0, f"{label} baseline {field} is zero")
            if b > 0:
                gate.close(
                    cur[field] / b - 1.0, ipc_rel,
                    f"{label} {field} (relative)",
                )
    for key, cur in cur_rows.items():
        label = f"fig9 {key[0]} {key[1]}@{key[2]}"
        for field in ("dedicated_ipc", "virtualized_ipc"):
            gate.check(cur[field] > 0, f"{label}: zero {field}")
        if cur["edge_stability"] >= 0.9:
            gate.check(
                cur["dedicated_hit_pct"] >= 60.0,
                f"{label}: dedicated hit rate "
                f"{cur['dedicated_hit_pct']:.1f}% below 60% — the "
                f"branch stream is no longer learnable",
            )


def check_fig9_victim(gate, current, ipc_tol_pp):
    """Gate each PVCache victim-buffer pair within the fresh artifact
    (off and on are matched rows produced by the same host and tree,
    so no committed baseline is needed)."""
    rows = [
        r for s in scenario_results(current, "fig9") for r in s["rows"]
    ]
    offs = {}
    for r in rows:
        if r.get("victim_entries", 0) == 0:
            offs.setdefault((r["mix"], round(r["edge_stability"], 6)), r)
    pairs = [
        (offs.get((r["mix"], round(r["edge_stability"], 6))), r)
        for r in rows
        if r.get("victim_entries", 0) > 0
    ]
    gate.check(
        bool(pairs), "fig9: no victim-buffer rows in the artifact"
    )
    for off, on in pairs:
        label = (
            f"fig9 victim ({on['mix']}@{on['edge_stability']}, "
            f"{on['victim_entries']} entries)"
        )
        gate.check(
            off is not None,
            f"{label}: no victim_entries == 0 twin row to pair with",
        )
        if off is None:
            continue
        gate.check(
            on["dedicated_ipc"] == off["dedicated_ipc"],
            f"{label}: dedicated IPCs differ "
            f"({off['dedicated_ipc']} vs {on['dedicated_ipc']}) — "
            f"the rows are not a matched pair",
        )
        for side, run in (("off", off), ("on", on)):
            gate.check(
                run["virtualized_ipc"] > 0,
                f"{label}: {side} side zero IPC",
            )
        gate.check(
            on["victim_hits"] > 0,
            f"{label}: victim-on run recorded no victim hits",
        )
        off_redir = off["virtualized_avail_redirect_pct"]
        on_redir = on["virtualized_avail_redirect_pct"]
        gate.check(
            on_redir < off_redir,
            f"{label}: on-side availability redirects "
            f"{on_redir:.2f}% not strictly below off-side "
            f"{off_redir:.2f}% — the victim buffer buys nothing",
        )
        ipc_delta = (
            100.0 * (on["virtualized_ipc"] / off["virtualized_ipc"] - 1.0)
            if off["virtualized_ipc"] > 0
            else 0.0
        )
        gate.check(
            ipc_delta >= -ipc_tol_pp,
            f"{label}: IPC delta {ipc_delta:+.2f}% below "
            f"-{ipc_tol_pp}% — the victim buffer has become an IPC "
            f"tax",
        )
        improvement = (
            100.0 * (off_redir - on_redir) / off_redir
            if off_redir > 0
            else 0.0
        )
        print(
            f"{label}: redirects {off_redir:.2f}% -> {on_redir:.2f}% "
            f"({improvement:+.1f}% relative), ipc {ipc_delta:+.3f}%, "
            f"victim hits {on['victim_hits']}"
        )


def check_stepping(gate, current):
    pair = current.get("harness_matched_pair", {})
    gate.check(
        pair.get("bit_identical") is True,
        "stepping: threaded harness no longer bit-identical",
    )
    for section, rates in current.items():
        if not isinstance(rates, dict):
            continue
        for field, value in rates.items():
            if field.endswith("_per_s"):
                gate.check(
                    isinstance(value, (int, float)) and value > 0,
                    f"stepping: {section}.{field} is not positive",
                )
    # Structural wins (same-process base/fast ratios, so stable on
    # noisy runners): bulk-fread replay bought ~2.5x, pooled
    # payloads ~3.3x. Gate well below the measured values — these
    # floors catch a regression to the pre-optimization path, not
    # run-to-run noise.
    floors = {"trace_file_replay": 1.3, "payload_alloc": 1.5}
    for section, floor in floors.items():
        speedup = current.get(section, {}).get("speedup", 0)
        gate.check(
            speedup >= floor,
            f"stepping: {section}.speedup {speedup:.2f} below "
            f"floor {floor} — structural optimization regressed",
        )


def qos_rows(artifact):
    return {
        (s["name"], r["setting"]): r
        for s in scenario_results(artifact, "qos")
        for r in s["rows"]
    }


def check_qos(gate, current, baseline, hit_tol_pp):
    base_rows = qos_rows(baseline)
    cur_rows = qos_rows(current)
    gate.check(
        set(base_rows) <= set(cur_rows),
        f"qos: settings missing vs baseline: "
        f"{sorted(set(base_rows) - set(cur_rows))}",
    )
    for key, base in base_rows.items():
        cur = cur_rows.get(key)
        if cur is None:
            continue
        for field in ("avail_redirect_pct", "avail_improvement_pct"):
            gate.close(
                cur[field] - base[field], hit_tol_pp,
                f"qos {key[0]} {key[1]} {field}",
            )
    for s in scenario_results(current, "qos"):
        rows = s["rows"]
        for r in rows:
            gate.check(
                r["ipc"] > 0, f"qos {s['name']} {r['setting']}: zero IPC"
            )
        gate.check(
            bool(rows) and rows[0]["avail_redirect_pct"] > 0,
            f"qos {s['name']}: baseline setting shows no "
            f"availability redirects — no contention to measure",
        )
        best = max(
            (r["avail_improvement_pct"] for r in rows), default=0.0
        )
        gate.check(
            best >= 10.0,
            f"qos {s['name']}: no setting protects the BTB by >= 10% "
            f"relative (best {best:.1f}%)",
        )
    for s in scenario_results(current, "qos_hetero"):
        label = f"qos heterogeneous {s['name']}"
        clusters = s["rows"]
        gate.check(
            len(clusters) == 4,
            f"{label}: expected 4 cluster rows, got {len(clusters)}",
        )
        for side in ("reference", "protected"):
            gate.check(
                s.get(side, {}).get("ipc", 0) > 0,
                f"{label} {side}: zero IPC",
            )
        for c in clusters:
            gate.check(
                c["btb_hit_pct"] > 0,
                f"{label} {c['cluster']}: BTB tenant starved (zero "
                f"hit rate)",
            )
            print(
                f"{label} {c['cluster']}: protection "
                f"{c['avail_improvement_pct']:+.1f}%"
            )
        best = max(
            (
                c["avail_improvement_pct"]
                for c in clusters
                if c["btb_weight"] > c["aggressor_weight"]
                or c["contract"] == "equal+floor"
            ),
            default=0.0,
        )
        gate.check(
            best > 0.0,
            f"{label}: no protected cluster improves BTB availability "
            f"over the all-equal reference (best {best:.1f}%)",
        )


def check_scenarios(gate, pvsim, scenarios_dir):
    """Validate one corpus directory and pin its fingerprints to the
    directory's MANIFEST.json."""
    manifest_path = f"{scenarios_dir}/MANIFEST.json"
    res = subprocess.run(
        [pvsim, "validate", scenarios_dir],
        capture_output=True, text=True,
    )
    sys.stdout.write(res.stdout)
    sys.stderr.write(res.stderr)
    gate.check(
        res.returncode == 0,
        f"scenarios: `pvsim validate {scenarios_dir}` failed "
        f"(exit {res.returncode})",
    )

    res = subprocess.run(
        [pvsim, "fingerprint", scenarios_dir, "--json"],
        capture_output=True, text=True,
    )
    gate.check(
        res.returncode == 0,
        f"scenarios: `pvsim fingerprint` failed "
        f"(exit {res.returncode}): {res.stderr.strip()}",
    )
    if res.returncode != 0:
        return
    live = json.loads(res.stdout)
    committed = load(manifest_path)
    gate.check(
        set(live) == set(committed),
        f"scenarios: corpus/manifest file sets differ "
        f"(only in corpus: {sorted(set(live) - set(committed))}, "
        f"only in manifest: {sorted(set(committed) - set(live))}) "
        f"— regenerate {manifest_path}",
    )
    for name in sorted(set(live) & set(committed)):
        gate.check(
            live[name] == committed[name],
            f"scenarios: {name} fingerprint drift "
            f"(manifest {committed[name]}, live {live[name]}) — "
            f"regenerate {manifest_path}",
        )


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    ap.add_argument("--baseline-dir", default="tools/baselines")
    ap.add_argument("--fig9", help="fresh BENCH_fig9.json")
    ap.add_argument("--stepping", help="fresh BENCH_stepping.json")
    ap.add_argument("--qos", help="fresh BENCH_qos.json")
    ap.add_argument("--pvsim", help="path to the pvsim binary")
    ap.add_argument(
        "--scenarios", nargs="+", default=[],
        help="scenario corpus directories to validate, each pinned "
        "to its own MANIFEST.json",
    )
    ap.add_argument(
        "--fig9-tol-pp", type=float, default=1.0,
        help="abs tolerance on fig9 speedup_pct (percentage points)",
    )
    ap.add_argument(
        "--hit-tol-pp", type=float, default=6.0,
        help="abs tolerance on hit/redirect percentages (points)",
    )
    ap.add_argument(
        "--ipc-rel-tol", type=float, default=0.15,
        help="relative tolerance on per-row IPC values",
    )
    ap.add_argument(
        "--victim-ipc-tol-pp", type=float, default=3.0,
        help="max IPC loss of a victim-on row's virtualized side "
        "over its victim-off twin (percent)",
    )
    args = ap.parse_args()

    gate = Gate()
    if args.fig9:
        fig9_cur = load(args.fig9)
        check_fig9(
            gate, fig9_cur,
            load(f"{args.baseline_dir}/BENCH_fig9.smoke.json"),
            args.fig9_tol_pp, args.hit_tol_pp, args.ipc_rel_tol,
        )
        check_fig9_victim(gate, fig9_cur, args.victim_ipc_tol_pp)
    if args.stepping:
        check_stepping(gate, load(args.stepping))
    if args.pvsim:
        for scenarios_dir in args.scenarios:
            check_scenarios(gate, args.pvsim, scenarios_dir)
    if args.qos:
        check_qos(
            gate, load(args.qos),
            load(f"{args.baseline_dir}/BENCH_qos.smoke.json"),
            args.hit_tol_pp,
        )

    if not gate.checks:
        print("check_bench: nothing to check (pass --fig9/...)")
        return 1
    if gate.failures:
        print(
            f"check_bench: {len(gate.failures)} of {gate.checks} "
            f"checks FAILED"
        )
        return 1
    print(f"check_bench: all {gate.checks} checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
