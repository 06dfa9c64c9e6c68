"""Compare two sets of ``--trace 0`` results, a parent's and a change's.

Runs of one workload are paired in start order.  For each (workload,
end-to-end metric) pair the verdict is:

* ``improved``: at least ten pairs, run in alternating order; the change wins
  at least nine tenths of them (ties count for neither); and the medians
  differ by more than the distance between the parent's quartiles;
* ``unresolved``: the parent's quartile distance exceeds the metric's bound,
  or there are fewer than two runs a side, unless every run of the change
  reads better than every run of the parent;
* ``worse``: the change's median is worse than the parent's by more than the
  bound;
* ``no worse``: otherwise.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(directory: str) -> dict:
    """``--trace 0`` results by workload, in start order."""
    runs = defaultdict(list)
    for path in Path(directory).glob("*.json"):
        res = json.loads(path.read_text())
        if res.get("trace") == 0:
            runs[res["workload"]].append(res)
    return {w: sorted(r, key=lambda x: x["started_at"]) for w, r in runs.items()}


def verdict(parent: list, change: list, alternating: bool, lower_better: bool,
            bound: float) -> tuple[str, int]:
    """(verdict, pairs the change won); see the module docstring."""
    sign = 1.0 if lower_better else -1.0
    pairs = list(zip(parent, change))
    wins = sum(sign * (p - c) > 0 for p, c in pairs)
    dominated = (max(change) < min(parent)) if lower_better else (min(change) > max(parent))
    if len(parent) < 2 or len(change) < 2:
        return ("no worse" if dominated else "unresolved"), wins
    pm, cm = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    gain = sign * (pm - cm)
    if (len(pairs) >= MIN_PAIRS and alternating and wins >= WIN_SHARE * len(pairs)
            and gain > q3 - q1):
        return "improved", wins
    if dominated:
        return "no worse", wins
    if (q3 - q1) > bound * abs(pm):
        return "unresolved", wins
    if -gain > bound * abs(pm):
        return "worse", wins
    return "no worse", wins


def _alternating(parent: list, change: list) -> bool:
    firsts = [p["started_at"] < c["started_at"] for p, c in zip(parent, change)]
    return all(a != b for a, b in zip(firsts, firsts[1:]))


def _summary(values: list) -> str:
    if len(values) < 2:
        return f"{values[0]:.4g}" if values else "-"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{statistics.median(values):.4g} [{q1:.4g}, {q3:.4g}]"


def main(parent_dir: str, change_dir: str) -> int:
    metrics = json.loads(SPEC.read_text())["end_to_end"]
    parent, change = load(parent_dir), load(change_dir)
    print(f"{'workload':<11} {'metric':<17} {'parent median [q1, q3]':<34} "
          f"{'change median [q1, q3]':<34} {'wins':<7} verdict")
    any_worse = False
    for workload in sorted(set(parent) | set(change)):
        p_runs, c_runs = parent.get(workload, []), change.get(workload, [])
        alternating = _alternating(p_runs, c_runs)
        for m in metrics:
            pv = [r["metrics"][m["name"]]["value"] for r in p_runs]
            cv = [r["metrics"][m["name"]]["value"] for r in c_runs]
            if not pv or not cv:
                result, wins = "unresolved", 0
            else:
                result, wins = verdict(pv, cv, alternating, m["better"] == "lower", m["bound"])
            any_worse |= result == "worse"
            print(f"{workload:<11} {m['name']:<17} {_summary(pv):<34} {_summary(cv):<34} "
                  f"{wins}/{min(len(pv), len(cv)):<5} {result}")
        if not alternating:
            print(f"{workload:<11} (runs were not in alternating order; no gain can be claimed)")
    return 1 if any_worse else 0
