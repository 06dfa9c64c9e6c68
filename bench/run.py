#!/usr/bin/env python3
"""threshnet benchmark: fixed matrices of CLI calls, timed end to end, plus a
traced run for per-layer numbers.

Run from the repository root::

    python3 bench/run.py --workload montecarlo --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload oracle --seed 1 --seconds 30 --trace 1
    python3 bench/run.py --self-test
    python3 bench/run.py --compare PARENT_RESULTS_DIR CHANGE_RESULTS_DIR
    python3 bench/run.py --record

``--trace 0`` runs each call of the workload's matrix (``workloads.py``) as
its own process, one at a time: a closed loop with one client and
``THRESHNET_THREADS=1``.  It repeats the matrix until ``--seconds`` have
passed and reports each call's median.  It also times ``import
threshnet.cli`` in fresh interpreters (``setup_s``).  ``--trace 1`` calls
``threshnet.cli.main`` in process instead, alternating untraced passes with
passes traced by ``spans.py``, and reports per-layer metrics.  Every report
goes through the correctness gate (``gate.py``) and must repeat byte for byte
across passes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result,
with provenance and the sha256 of every report, is written to
``.bench_work/results/``; ``--compare`` reads two such directories.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path
from time import perf_counter

import compare
import gate
from spans import COUNTERS, TRACED, Tracer
from workloads import MATRICES, RECORDED_SEED, matrix

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# One thread everywhere.  The program does no BLAS-sized linear algebra, and
# idle OpenBLAS workers otherwise add a varying ~0.2 s of CPU time per call.
SINGLE_THREAD = {"THRESHNET_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                 "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC), **SINGLE_THREAD)
CHILD_TIMEOUT_S = 120.0
MIN_PASSES = 3  # passes, each with one import timing, before a run may end
IMPORT_PACKAGES = ("scipy", "numpy", "threshnet")

END_TO_END_UNITS = {
    "wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "replicates_per_s": "1/s",
}


def layer_units() -> dict:
    units = {f"setup.{p}_s": "s" for p in IMPORT_PACKAGES}
    for name, _, _ in TRACED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({name: "count" for name in COUNTERS})
    units.update({"spatial.radial_cache_hit_ratio": "ratio", "cli.report_bytes": "bytes",
                  "trace.wall_s": "s", "trace.untraced_wall_s": "s", "trace.overhead_s": "s"})
    return units


# ---------------------------------------------------------------------------
# provenance


def _git_head() -> str | None:
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_head": _git_head(),
    }


# ---------------------------------------------------------------------------
# one call as a child process


def run_child(args: list, cwd: Path, stderr=subprocess.DEVNULL):
    """Run ``python args`` to completion; (wall s, cpu s, max rss MB, exit code)."""
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, *args], cwd=cwd, env=CHILD_ENV,
                            stdout=subprocess.DEVNULL, stderr=stderr)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode


def _outputs(out: Path, call) -> list[Path]:
    stem = Path(call.report_name).stem
    return sorted(p for p in out.iterdir() if p.name == call.report_name
                  or p.name.startswith(stem + "_"))


def _clean(out: Path, call) -> None:
    for p in _outputs(out, call):
        p.unlink()


def _digest(out: Path, call) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in _outputs(out, call)}


class Ledger:
    """Attempted and failed calls, and the report digests every pass must repeat."""

    def __init__(self, workload: str, seed: int, smoke: bool):
        self.workload, self.seed, self.smoke = workload, seed, smoke
        self.attempted = 0
        self.errors: list[str] = []
        self.digests: dict = {}
        self.failed = 0

    def record(self, call, out: Path, code) -> None:
        self.attempted += 1
        problems = [] if code == 0 else [f"exit code {code}"]
        if not problems:
            digest = _digest(out, call)
            if call.name not in self.digests:
                self.digests[call.name] = digest
                problems = gate.check(self.workload, self.seed, call,
                                      out / call.report_name, self.smoke)
            elif digest != self.digests[call.name]:
                problems = ["report bytes differ from the first pass"]
        if problems:
            self.failed += 1
            self.errors.extend(f"{call.name}: {p}" for p in problems)


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ---------------------------------------------------------------------------
# --trace 0: end-to-end metrics


def time_import() -> float:
    """Wall time of ``import threshnet.cli`` in a fresh interpreter."""
    return run_child(["-c", "import threshnet.cli"], ROOT)[0]


def measure(workload: str, seed: int, seconds: float, smoke: bool = False,
            min_passes: int = MIN_PASSES) -> dict:
    calls = matrix(workload, seed, smoke)
    out = _fresh_dir(WORK / "out" / workload)
    time_import()  # warm-up: writes the bytecode caches
    ledger = Ledger(workload, seed, smoke)
    setup = []
    samples = {c.name: [] for c in calls}  # (wall, cpu, rss) per pass
    start = perf_counter()
    while len(setup) < min_passes or perf_counter() - start < seconds:
        setup.append(time_import())
        for call in calls:
            _clean(out, call)
            wall, cpu, rss, code = run_child(
                ["-m", "threshnet.cli", *call.argv, "--out", call.report_name], out)
            ledger.record(call, out, code)
            samples[call.name].append((wall, cpu, rss))

    def med(call, i):
        return statistics.median(s[i] for s in samples[call.name])

    replicate_calls = [c for c in calls if c.replicates]
    metrics = {
        "wall_s": sum(med(c, 0) for c in calls),
        "cpu_s": sum(med(c, 1) for c in calls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(med(c, 2) for c in calls),
        "replicates_per_s": sum(c.replicates for c in replicate_calls)
        / sum(med(c, 0) for c in replicate_calls),
    }
    return {
        "ledger": ledger,
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
        "passes": len(samples[calls[0].name]),
        "calls": {c.name: {"argv": list(c.argv), "wall_s": [s[0] for s in samples[c.name]],
                           "cpu_s": [s[1] for s in samples[c.name]],
                           "rss_mb": [s[2] for s in samples[c.name]]} for c in calls},
        "setup_s": setup,
    }


# ---------------------------------------------------------------------------
# --trace 1: per-layer metrics


def import_times(runs: int) -> dict:
    """Median self time per package of ``import threshnet.cli``, from ``-X importtime``."""
    totals = {p: [] for p in IMPORT_PACKAGES}
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import threshnet.cli"],
                              cwd=ROOT, env=CHILD_ENV, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=True)
        micros = dict.fromkeys(IMPORT_PACKAGES, 0)
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, _, module = (f.strip() for f in line[len("import time:"):].split("|"))
            if not self_us.isdigit():
                continue  # the header line
            package = module.split(".")[0]
            if package in micros:
                micros[package] += int(self_us)
        for p in IMPORT_PACKAGES:
            totals[p].append(micros[p] / 1e6)
    return {f"setup.{p}_s": statistics.median(v) for p, v in totals.items()}


def inprocess_pass(calls, out: Path, ledger: Ledger, tracer: Tracer | None = None) -> dict:
    """Call ``threshnet.cli.main`` once per call; per-call wall time and span
    coverage.  The library's lru caches are cleared before each call, as a
    fresh process would start."""
    cli = sys.modules["threshnet.cli"]
    cached = (sys.modules["threshnet.spatial"]._radial_intensity_cached,
              sys.modules["threshnet.motifs"]._pattern_table)
    result = {"wall_s": {}, "coverage": {}, "report_bytes": 0}
    for call in calls:
        _clean(out, call)
        for fn in cached:
            fn.cache_clear()
        argv = [*call.argv, "--out", str(out / call.report_name)]
        start = perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # a crash is a failed call, not a failed benchmark
            code = repr(exc)
        end = perf_counter()
        ledger.record(call, out, code)
        result["wall_s"][call.name] = end - start
        result["report_bytes"] += sum(p.stat().st_size for p in _outputs(out, call))
        if tracer is not None:
            info = cached[0].cache_info()
            tracer.counts["spatial.radial_cache_hits"] += info.hits
            tracer.counts["spatial.radial_cache_misses"] += info.misses
            result["coverage"][call.name] = tracer.covered(start, end) / (end - start)
    return result


def measure_traced(workload: str, seed: int, seconds: float, smoke: bool = False,
                   import_runs: int = 3) -> dict:
    calls = matrix(workload, seed, smoke)
    out = _fresh_dir(WORK / "out" / workload)
    layers = import_times(import_runs)
    os.environ.update(SINGLE_THREAD)  # before numpy is imported
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.import_module("threshnet.cli")
    ledger = Ledger(workload, seed, smoke)
    plain, traced = [], []
    start = perf_counter()
    while True:
        plain.append(inprocess_pass(calls, out, ledger))
        tracer = Tracer()
        tracer.install()
        try:
            traced.append((inprocess_pass(calls, out, ledger, tracer), tracer))
        finally:
            tracer.uninstall()
        if perf_counter() - start >= seconds:
            break

    last = traced[-1][1]
    for name, _, _ in TRACED:
        layers[f"{name}.calls"] = last.calls[name]
        layers[f"{name}.self_s"] = statistics.median(t.self_s[name] for _, t in traced)
    for name in COUNTERS:
        layers[name] = last.counts[name]
    lookups = last.counts["spatial.radial_cache_hits"] + last.counts["spatial.radial_cache_misses"]
    layers["spatial.radial_cache_hit_ratio"] = (
        last.counts["spatial.radial_cache_hits"] / lookups if lookups else 0.0)
    layers["cli.report_bytes"] = traced[-1][0]["report_bytes"]
    layers["trace.wall_s"] = statistics.median(sum(p["wall_s"].values()) for p, _ in traced)
    layers["trace.untraced_wall_s"] = statistics.median(sum(p["wall_s"].values()) for p in plain)
    layers["trace.overhead_s"] = layers["trace.wall_s"] - layers["trace.untraced_wall_s"]

    spans_path = WORK / "spans" / f"{workload}-seed{seed}.json"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    spans_path.write_text(json.dumps(last.span_dicts()))
    units = layer_units()
    return {
        "ledger": ledger,
        "metrics": {k: {"value": layers[k], "unit": units[k]} for k in units},
        "passes": len(traced),
        "coverage": traced[-1][0]["coverage"],
        "spans_path": str(spans_path.relative_to(ROOT)),
    }


# ---------------------------------------------------------------------------
# modes


def run(args) -> int:
    started = time.time()
    prov = provenance()
    if args.trace:
        res = measure_traced(args.workload, args.seed, args.seconds)
    else:
        res = measure(args.workload, args.seed, args.seconds)
    ledger = res.pop("ledger")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "started_at": started, "provenance": prov,
              "attempted": ledger.attempted, "failed": ledger.failed,
              "failed_ratio": ledger.failed / ledger.attempted, "errors": ledger.errors,
              "report_sha256": ledger.digests, **res}
    path = WORK / "results" / f"{args.workload}-trace{args.trace}-seed{args.seed}-{time.time_ns()}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for err in ledger.errors:
        print(f"FAILED {err}")
    print(f"{args.workload}: {res['passes']} passes, failed_ratio "
          f"{record['failed_ratio']:.3g} ({ledger.failed}/{ledger.attempted}), "
          f"nproc {prov['nproc']}, loadavg {prov['loadavg'][0]:.2f}, result {path.relative_to(ROOT)}")
    print(json.dumps({"correct": not ledger.errors, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": res["metrics"]}))
    return 0


def record_references() -> int:
    """Store every call's report at RECORDED_SEED as the gate's reference."""
    for workload in MATRICES:
        out = _fresh_dir(WORK / "out" / workload)
        ref = _fresh_dir(gate.REFERENCE_DIR / workload)
        for call in matrix(workload, RECORDED_SEED):
            code = run_child(["-m", "threshnet.cli", *call.argv, "--out", call.report_name], out)[3]
            if code != 0:
                print(f"{workload}/{call.name}: exit code {code}", file=sys.stderr)
                return 1
            shutil.copyfile(out / call.report_name, ref / call.report_name)
            print(f"recorded {workload}/{call.report_name}")
    return 0


def self_test() -> int:
    """Smoke-size check of every workload in both modes."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in MATRICES:
        plain = measure(workload, RECORDED_SEED, 0, smoke=True, min_passes=1)
        traced = measure_traced(workload, RECORDED_SEED, 0, smoke=True, import_runs=1)
        for mode, res, key in (("trace 0", plain, "end_to_end"), ("trace 1", traced, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                problems.append(f"{workload} {mode}: metrics {sorted(set(got) ^ set(want))} "
                                f"or their units differ from BENCHMARK.json")
            problems.extend(f"{workload} {mode}: {e}" for e in res["ledger"].errors)
        for name, share in traced["coverage"].items():
            if share < 0.9:
                problems.append(f"{workload}/{name}: spans cover {share:.1%} of the call")
        for name, digest in plain["ledger"].digests.items():
            if traced["ledger"].digests.get(name) != digest:
                problems.append(f"{workload}/{name}: traced report differs from the untraced one")
        print(f"{workload}: coverage min {min(traced['coverage'].values()):.1%}, "
              f"{len(plain['ledger'].digests)} reports compared")
    for p in problems:
        print(f"FAIL {p}")
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(MATRICES))
    parser.add_argument("--seed", type=int, default=RECORDED_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--self-test", action="store_true", help="smoke-size check of both modes")
    mode.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                      help="compare two directories of --trace 0 results")
    mode.add_argument("--record", action="store_true",
                      help="store the reports at the recorded seed as references")
    args = parser.parse_args()
    if args.compare:
        return compare.main(*args.compare)
    if not (SRC / "threshnet" / "cli.py").is_file():
        print(f"bench: no threshnet sources under {SRC}", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.record:
        return record_references()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
