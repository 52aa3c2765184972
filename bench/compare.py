#!/usr/bin/env python3
"""Compare two sets of benchmark runs, parent against change.

    python3 bench/compare.py runs/parent runs/change

Each directory holds the records that ``run.py --out FILE`` writes, any
number of workloads, ten or more runs each. Prints one row per workload
and metric: both sides' median and quartiles, the share of pairs the
change won (the i-th parent run against the i-th change run, in the
order they were started, so alternate the sides when running them), and
a verdict:

- ``improved``: the change wins at least 9 of 10 pairs and the medians
  differ by more than the parent's interquartile range;
- ``worse``: the change's median is worse than the parent's by more than
  the metric's bound from BENCHMARK.json (per-layer metrics have no bound:
  the mirror of ``improved``);
- ``unresolved``: either side's interquartile range, as a share of its
  median, is wider than the bound, unless every change run beats every
  parent run;
- ``same`` otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(directory: Path) -> dict:
    """{(workload, trace): [record, ...]} in the order the runs started."""
    runs = defaultdict(list)
    for path in sorted(directory.glob("*.json")):
        rec = json.loads(path.read_text())
        runs[(rec["workload"], rec["trace"])].append(rec)
    for recs in runs.values():
        recs.sort(key=lambda r: r["started_at"])
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(parent: list[float], change: list[float], higher_better: bool,
            bound: float | None) -> tuple[str, float]:
    """(verdict, share of pairs won by the change)."""
    sign = 1.0 if higher_better else -1.0
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    losses = sum(sign * (c - p) < 0 for p, c in pairs)
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    gap = sign * (cm - pm)
    share = wins / len(pairs) if pairs else 0.0
    spread = max((p3 - p1) / abs(pm) if pm else 0.0, (c3 - c1) / abs(cm) if cm else 0.0)
    separated = (min(change) > max(parent)) if higher_better else (max(change) < min(parent))
    if pairs and wins >= 0.9 * len(pairs) and gap > p3 - p1:
        return "improved", share
    if bound is not None:
        if spread > bound and not separated:
            return "unresolved", share
        if -gap > bound * abs(pm):
            return "worse", share
    elif pairs and losses >= 0.9 * len(pairs) and -gap > p3 - p1:
        return "worse", share
    return "same", share


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args(argv)

    spec = json.loads(BENCHMARK.read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = load_runs(args.parent), load_runs(args.change)
    print(f"{'workload':8s} {'metric':42s} {'unit':10s} {'parent median [q1, q3]':34s} "
          f"{'change median [q1, q3]':34s} {'delta':>8s} {'won':>5s}  verdict")
    for key in sorted(set(parent) & set(change)):
        workload, trace = key
        ps, cs = parent[key], change[key]
        for side, recs in (("parent", ps), ("change", cs)):
            att = sum(r["result"]["attempted"] for r in recs)
            fail = sum(r["result"]["failed"] for r in recs)
            print(f"{workload:8s} [{side}: {len(recs)} runs, trace {trace}, "
                  f"{fail}/{att} operations failed, "
                  f"{sum(not r['result']['correct'] for r in recs)} incorrect runs]")
        for name, m in metrics.items():
            pv = [r["result"]["metrics"][name]["value"] for r in ps
                  if name in r["result"]["metrics"]]
            cv = [r["result"]["metrics"][name]["value"] for r in cs
                  if name in r["result"]["metrics"]]
            if not pv or not cv:
                continue
            p1, pm, p3 = quartiles(pv)
            c1, cm, c3 = quartiles(cv)
            word, won = verdict(pv, cv, m["better"] == "higher", m.get("bound"))
            delta = (cm - pm) / abs(pm) if pm else float("nan")
            cells = [f"{med:.5g} [{q1:.5g}, {q3:.5g}]" for q1, med, q3 in
                     ((p1, pm, p3), (c1, cm, c3))]
            print(f"{workload:8s} {name:42s} {m['unit']:10s} {cells[0]:34s} {cells[1]:34s} "
                  f"{delta:>+8.1%} {won:>5.0%}  {word}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
