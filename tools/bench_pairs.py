#!/usr/bin/env python3
"""Summarize paired benchmark runs of two trees into one BENCH record.

Each tree is a checkout in which ``python3 bench/run.py --workload W --seed N
--trace 0`` has been run for the same workloads and seeds, so that its
``.bench_out/W-seedN-trace0.json`` records exist.  A pair is one seed of one
workload on both trees.  For every end-to-end metric of ``BENCHMARK.json``
the summary gives each side's median and quartiles, the number of pairs the
change won (ties count for neither side) and the relative change of the
median, next to the metric's regression bound.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --out BENCH_<n>.json
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORD = re.compile(r"(?P<workload>.+)-seed(?P<seed>\d+)-trace0\.json$")


def records(tree: str) -> dict:
    """{(workload, seed): record} for the untraced records of one tree."""
    found = {}
    for path in glob.glob(os.path.join(tree, ".bench_out", "*-trace0.json")):
        match = RECORD.search(os.path.basename(path))
        if match:
            with open(path, encoding="utf-8") as fh:
                found[(match["workload"], int(match["seed"]))] = json.load(fh)
    return found


def spread(values: list) -> dict:
    """Median and quartiles; a single run is its own quartiles."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(parent: dict, change: dict, spec: dict) -> dict:
    workloads = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        seeds = sorted(seed for w, seed in parent.keys() & change.keys() if w == workload)
        if not seeds:
            continue
        pairs = [(parent[workload, s], change[workload, s]) for s in seeds]
        metrics = {}
        for metric in spec["end_to_end"]:
            name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
            old = [p["result"]["metrics"][name]["value"] for p, _ in pairs]
            new = [c["result"]["metrics"][name]["value"] for _, c in pairs]
            base, after = spread(old), spread(new)
            metrics[name] = {
                "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
                "parent": base, "change": after,
                "median_change": (after["median"] - base["median"]) / base["median"],
                "pairs_won": sum(sign * (b - a) > 0.0 for a, b in zip(old, new)),
                "pairs_lost": sum(sign * (b - a) < 0.0 for a, b in zip(old, new)),
            }
        workloads[workload] = {
            "seeds": seeds, "pairs": len(seeds),
            "seconds": pairs[0][0]["seconds"],
            "src_sha256": {"parent": pairs[0][0]["src_sha256"],
                           "change": pairs[0][1]["src_sha256"]},
            "metrics": metrics,
        }
    env = next(iter(change.values()))["env"]
    return {"env": env, "workloads": workloads}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--out", required=True, help="path of the JSON summary")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parent, change = records(args.parent), records(args.change)
    for tree, found in ((args.parent, parent), (args.change, change)):
        if not found:
            print(f"error: no .bench_out/*-trace0.json records in {tree}", file=sys.stderr)
            return 1
    if not parent.keys() & change.keys():
        print(f"error: {args.parent} and {args.change} share no (workload, seed) pair",
              file=sys.stderr)
        return 1
    summary = summarize(parent, change, spec)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for workload, entry in summary["workloads"].items():
        for name, m in entry["metrics"].items():
            print(f"{workload} {name}: {m['parent']['median']:.4g} -> "
                  f"{m['change']['median']:.4g} ({100 * m['median_change']:+.1f}%), "
                  f"won {m['pairs_won']}/{entry['pairs']}, "
                  f"parent IQR {m['parent']['iqr']:.3g}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
