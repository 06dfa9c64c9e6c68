"""Correctness gate for the reports of the benchmark's CLI calls.

A report is compared field by field with the reference stored under
``reference/<workload>/`` from a run at ``RECORDED_SEED``:

* integers, strings, booleans and nulls must match exactly;
* floats must agree within ``FLOAT_TOL * max(1, |reference|)``.  Quadrature
  accepts a value at 5e-9 relative (``dist.expectation``) or 1e-6
  (``dist.quad_checked``), so the tolerance is set at the looser of the two
  and a more accurate integrator is not flagged.

At any other seed only the fields that do not depend on the seed (oracle
values, configuration, replicate count) are compared.  Every report also has
to pass the invariants of its command, at any seed and size.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

from workloads import RECORDED_SEED, Call

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
FLOAT_TOL = 1e-6

# Report fields whose value does not depend on the seed.
SEED_FREE = frozenset({
    "experiment", "config", "R", "columns",
    "limit_triangle_probability", "limit_cov_given_edge", "limit_corr_given_edge",
    "split_support", "split_support_witness", "conditional_poisson_rate",
    "mean_identity", "symmetry_count",
})


def load(path: Path):
    """A JSON report as a dict, or a CSV table as a list of rows of numbers."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        return json.loads(text)
    rows = list(csv.reader(text.splitlines()))
    return [rows[0]] + [[json.loads(v) for v in row] for row in rows[1:]]


def differences(got, want, where: str = ".") -> list[str]:
    """Field-level differences between a report and its reference."""
    if isinstance(want, float):
        if isinstance(got, bool) or not isinstance(got, (int, float)) or not (
                abs(got - want) <= FLOAT_TOL * max(1.0, abs(want))):
            return [f"{where}: {got!r} not within {FLOAT_TOL:g} of {want!r}"]
        return []
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: shape differs"]
        return [d for i, (g, w) in enumerate(zip(got, want))
                for d in differences(g, w, f"{where}[{i}]")]
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{where}: keys differ"]
        return [d for k in sorted(want) for d in differences(got[k], want[k], f"{where}.{k}")]
    if type(got) is not type(want) or got != want:
        return [f"{where}: {got!r} != {want!r}"]
    return []


def _is_count(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def invariants(call: Call, report) -> list[str]:
    """Checks that hold for the report of ``call`` at any seed and size."""
    argv = call.argv
    errors = []

    def need(ok: bool, what: str) -> None:
        if not ok:
            errors.append(what)

    if isinstance(report, list):  # limits table
        need(len(report) > 1 and all(len(r) == len(report[0]) for r in report),
             "table is empty or ragged")
        if report[0] == ["t", "cdf"]:
            cdf = [r[1] for r in report[1:]]
            need(all(0.0 <= v <= 1.0 for v in cdf), "limit cdf leaves [0, 1]")
            need(all(a <= b + FLOAT_TOL for a, b in zip(cdf, cdf[1:])), "limit cdf decreases")
        return errors
    if call.seed is not None:
        need(report.get("seed") == call.seed, "seed differs from --seed")
    if "--R" in argv:
        need(report.get("R") == int(argv[argv.index("--R") + 1]), "R differs from --R")
    gof = report.get("gof")
    if gof is not None:
        need(0.0 <= gof["pvalue"] <= 1.0 and gof["stat"] >= 0.0, "gof out of range")
    if argv[0] == "triangles":
        n, t = int(argv[argv.index("--n") + 1]), report["triangles"]
        need(_is_count(t), "triangle count is not a nonnegative integer")
        need(math.isclose(report["triangle_density"], t / math.comb(n, 3), rel_tol=1e-12),
             "triangle density is not triangles / C(n, 3)")
    if argv[0] == "motif":
        count, sym = report["ordered_tuples"], report["symmetry_count"]
        need(_is_count(count) and _is_count(report["subgraph_count"]),
             "census counts are not nonnegative integers")
        need(count == report["subgraph_count"] * sym, "ordered tuples != subgraphs * symmetries")
        est = report.get("motif_probability_mc", {}).get("estimate", 0.0)
        need(0.0 <= est <= 1.0, "motif probability estimate leaves [0, 1]")
    if argv[0] == "limits":
        for key in ("edge_probability", "triangle_probability"):
            need(0.0 <= report[key] <= 1.0, f"{key} leaves [0, 1]")
        need(report["triangle_kernel_variance"] >= 0.0, "negative kernel variance")
    return errors


def check(workload: str, seed: int, call: Call, path: Path, smoke: bool) -> list[str]:
    """Every failure of the report at ``path``; empty when it passes."""
    try:
        report = load(path)
    except (OSError, ValueError, IndexError) as exc:
        return [f"unreadable report: {exc}"]
    try:
        errors = invariants(call, report)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed report: {exc!r}"]
    if smoke:
        return errors
    ref_path = REFERENCE_DIR / workload / call.report_name
    if not ref_path.exists():
        return errors + [f"no reference {ref_path.name}"]
    want = load(ref_path)
    if call.seed is not None and seed != RECORDED_SEED:
        want = {k: v for k, v in want.items() if k in SEED_FREE}
        report = {k: v for k, v in report.items() if k in SEED_FREE}
    return errors + differences(report, want)
