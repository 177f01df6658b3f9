"""Steadiness mode: two interleaved sets of runs of every workload.

Run i of both sets uses --seed i; which set goes first alternates with i.
For every end-to-end metric and workload it prints each set's median and
quartiles, the spread (quartile distance over the median) and the gap
between the two medians against the metric's bound; for the times, also
the spreads they would have without scaling by the speed probe. It also
checks that both sets fail the same share of operations, that every
(workload, input) gave identical output digests in every run, and that
two traced runs of the same seed count exactly the same per-layer work,
and gives the tracing overhead against an untraced run of that seed. Each run is its own
process, started after the previous one has ended. The full report goes to
benchmarks/out/steadiness.json.
"""

from __future__ import annotations

import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"


def one_run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict, list, float]:
    cmd = [
        sys.executable, str(BENCH / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    op_seconds = [float(t) for t in re.findall(r"^operation \d+ \S+: ([\d.]+) s$", proc.stderr, re.M)]
    scale = float(re.search(r"^speed probe: .*; scale ([\d.]+)$", proc.stderr, re.M).group(1))
    return json.loads(lines[-1]), json.loads(lines[-2])["digests"], op_seconds, scale


def quartiles(values) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steadiness(runs: int, seconds: float) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = {w: {"A": [], "B": []} for w in workloads}
    seen: dict = {}
    ok = True
    report = {"runs": runs, "seconds": seconds, "metrics": {}, "traced": {}, "op_seconds": {}}

    for i in range(runs):
        for w in workloads:
            for s in ("A", "B") if i % 2 == 0 else ("B", "A"):
                result, digests, op_seconds, scale = one_run(w, i, seconds, 0)
                result["scale"] = scale
                results[w][s].append(result)
                report["op_seconds"].setdefault(w, {}).setdefault(s, []).append(op_seconds)
                for key, digest in digests.items():
                    seen.setdefault((w, key), set()).add(digest)
                print(f"{w} set {s} seed {i}: {json.dumps(result)}", file=sys.stderr, flush=True)

    print(f"{'workload':10} {'metric':12} {'set A median [Q1, Q3]':>34} {'spread':>7} "
          f"{'set B median [Q1, Q3]':>34} {'spread':>7} {'gap':>7} {'bound':>6} "
          f"{'unscaled spreads':>17}")
    for w in workloads:
        for metric, bound in bounds.items():
            row = {}
            for s in ("A", "B"):
                values = [r["metrics"][metric]["value"] for r in results[w][s]]
                q1, med, q3 = quartiles(values)
                row[s] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                          "min": min(values), "values": values}
                # the same times before scaling by the speed probe
                raw = [v / r["scale"] for v, r in zip(values, results[w][s])]
                rq1, rmed, rq3 = quartiles(raw)
                row[s]["unscaled_spread"] = (rq3 - rq1) / rmed
                ok &= min(values) > 0
            gap = row["B"]["median"] / row["A"]["median"] - 1.0
            row["gap"] = gap
            ok &= abs(gap) <= bound
            if metric != "setup_s":
                ok &= max(row["A"]["spread"], row["B"]["spread"]) <= bound
            report["metrics"].setdefault(w, {})[metric] = row
            a, b = row["A"], row["B"]
            print(f"{w:10} {metric:12} "
                  f"{a['median']:12.5g} [{a['q1']:9.5g}, {a['q3']:9.5g}] {a['spread']:7.2%} "
                  f"{b['median']:12.5g} [{b['q1']:9.5g}, {b['q3']:9.5g}] {b['spread']:7.2%} "
                  f"{gap:+7.2%} {bound:6.0%} "
                  + (f"{a['unscaled_spread']:8.2%} {b['unscaled_spread']:8.2%}"
                     if metric.endswith("_s") else ""))
        shares = {
            s: sum(r["failed"] for r in results[w][s]) / sum(r["attempted"] for r in results[w][s])
            for s in ("A", "B")
        }
        correct = all(r["correct"] for s in ("A", "B") for r in results[w][s])
        ok &= correct and shares["A"] == shares["B"]
        print(f"{w}: failed share A {shares['A']:.4f}, B {shares['B']:.4f}; all correct: {correct}")
        report["metrics"][w]["failed_share"] = shares

    mismatched = sorted(f"{w}/{key}" for (w, key), d in seen.items() if len(d) > 1)
    ok &= not mismatched
    print(f"digests: {len(seen)} (workload, input) pairs, mismatched: {mismatched or 'none'}")
    report["digest_pairs"], report["digest_mismatches"] = len(seen), mismatched

    # an untraced run between two traced runs of the same seed, so that the
    # machine's drift over minutes stays out of the tracing overhead
    for w in workloads:
        first = one_run(w, 0, seconds, 1)[0]
        untraced = one_run(w, 0, seconds, 0)[0]["metrics"]["op_s"]["value"]
        second = one_run(w, 0, seconds, 1)[0]
        counts = {k: (v["value"], second["metrics"][k]["value"])
                  for k, v in first["metrics"].items() if v["unit"] == "count"}
        same = all(a == b for a, b in counts.values())
        ok &= same
        traced = statistics.mean([first["metrics"]["traced.op_s"]["value"],
                                  second["metrics"]["traced.op_s"]["value"]])
        report["traced"][w] = {"runs": [first["metrics"], second["metrics"]],
                               "counts_identical": same, "untraced_op_s": untraced,
                               "overhead_s": traced - untraced}
        print(f"{w}: traced counts identical: {same}; tracing overhead on op_s "
              f"{traced - untraced:+.4f} s ({traced / untraced - 1:+.2%})")

    OUT.mkdir(exist_ok=True)
    (OUT / "steadiness.json").write_text(json.dumps(report, indent=1))
    print(f"steady: {ok}")
    return 0 if ok else 1
