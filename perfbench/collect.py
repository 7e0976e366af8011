#!/usr/bin/env python3
"""Run the benchmark over sets of seeds and summarise spread and agreement.

    python3 perfbench/collect.py --seeds 11-20 [--seeds 21-30]
        [--workloads eval-world,...] [--traced] [--out perfbench/baseline.json]

Runs are made one after another, each as its own process, with
BENCHMARK.json's command and run_seconds; each --seeds value is one set,
and every workload runs its first set before any workload runs the
next. For every end-to-end metric and set it prints the median and the
distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, and marks
it steady when that share is below a third of the metric's bound. For
every set after the first it prints by how much each median is worse
than the first set's, and whether that stays within the bound. --traced
adds one traced run per workload, on its default seed from plan.json (so
its digests are checked too), for the per-layer figures; --out writes
everything, with the machine, as JSON, and is rewritten as each
workload's set completes. The exit code is 0 only if every metric is
steady and every set agrees with the first.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PLAN = json.loads((ROOT / "perfbench" / "plan.json").read_text())


def run_once(workload, seed, trace):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(SPEC["run_seconds"]),
                             "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    machine = next((json.loads(line.split(" ", 1)[1]) for line in lines
                    if line.startswith("machine ")), None)
    return json.loads(lines[-1]), machine, lines[1:-1], wall


def parse_seeds(text):
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def summarise(values):
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def worse_by(metric, first, later):
    """Share of the first median by which the later one is worse."""
    change = (later - first) / first
    return change if metric["better"] == "lower" else -change


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", action="append")
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in SPEC["workloads"]))
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    seed_sets = [parse_seeds(text) for text in args.seeds or ["11-20"]]
    workloads = args.workloads.split(",")
    metrics = SPEC["end_to_end"]

    report = {"run_seconds": SPEC["run_seconds"], "machine": None,
              "sets": [], "agreement": {}, "per_layer": {}}

    def save():
        if args.out:
            Path(args.out).write_text(json.dumps(report, indent=1) + "\n")

    ok = True
    for n, seeds in enumerate(seed_sets, 1):
        summary = {}
        report["sets"].append({"seeds": seeds, "end_to_end": summary})
        for workload in workloads:
            values = {m["name"]: [] for m in metrics}
            walls = []
            for seed in seeds:
                result, report["machine"], _, wall = run_once(workload, seed, 0)
                if not result["correct"] or result["failed"]:
                    sys.exit(f"{workload} seed {seed}: {result}")
                for name, vals in values.items():
                    vals.append(result["metrics"][name]["value"])
                walls.append(wall)
            print(f"set {n} {workload:14s} one run takes "
                  f"{min(walls):.1f} .. {max(walls):.1f} s of wall time",
                  flush=True)
            summary[workload] = {"run_wall_s": walls}
            for m in metrics:
                s = summarise(values[m["name"]])
                summary[workload][m["name"]] = s
                steady = s["spread"] < m["bound"] / 3
                ok &= steady
                print(f"set {n} {workload:14s} {m['name']:12s} "
                      f"median {s['median']:12.6g}  spread "
                      f"{100 * s['spread']:5.1f}% of median  bound "
                      f"{100 * m['bound']:4.0f}%  "
                      f"{'steady' if steady else 'NOT STEADY'}", flush=True)
            save()

    first = report["sets"][0]["end_to_end"]
    for n, later in enumerate(report["sets"][1:], 2):
        for workload in workloads:
            rows = report["agreement"].setdefault(workload, {})
            for m in metrics:
                a = first[workload][m["name"]]["median"]
                b = later["end_to_end"][workload][m["name"]]["median"]
                worse = worse_by(m, a, b)
                agrees = worse <= m["bound"]
                ok &= agrees
                rows[m["name"]] = {"first_median": a, "later_median": b,
                                   "worse_by": worse, "bound": m["bound"],
                                   "agrees": agrees}
                print(f"set {n} vs 1 {workload:14s} {m['name']:12s} "
                      f"{a:12.6g} -> {b:12.6g}  worse by "
                      f"{100 * worse:6.1f}%  bound {100 * m['bound']:4.0f}%  "
                      f"{'agrees' if agrees else 'DISAGREES'}", flush=True)

    if args.traced:
        for workload in workloads:
            seed = PLAN["workloads"][workload]["default_seed"]
            result, _, lines, _wall = run_once(workload, seed, 1)
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} traced seed {seed}: {result}")
            report["per_layer"][workload] = {
                "seed": seed, "report": lines,
                "metrics": {k: v["value"] for k, v in result["metrics"].items()}}
    save()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
