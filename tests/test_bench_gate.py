"""The benchmark's full-size calls at its recorded seed pass its own gate.

``bench/workloads.py`` and ``bench/gate.py`` are evaluated in memory, the
gate finding ``workloads`` through a patched ``sys.modules`` entry, so the
suite imports nothing from ``bench/`` and writes nothing there; the reports
go to a temporary directory and are compared with ``bench/reference``."""

import runpy
import sys
import types
from pathlib import Path

import pytest

from threshnet import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"
WORKLOADS = runpy.run_path(str(BENCH / "workloads.py"))


@pytest.mark.parametrize("workload", sorted(WORKLOADS["MATRICES"]))
def test_bench_full_size_calls_pass_the_gate(tmp_path, monkeypatch, workload):
    module = types.ModuleType("workloads")
    module.__dict__.update(WORKLOADS)
    monkeypatch.setitem(sys.modules, "workloads", module)
    gate = runpy.run_path(str(BENCH / "gate.py"))
    seed = WORKLOADS["RECORDED_SEED"]
    for call in WORKLOADS["matrix"](workload, seed):
        out = tmp_path / call.report_name
        assert cli.main([*call.argv, "--out", str(out)]) == 0, call.name
        assert gate["check"](workload, seed, call, out, smoke=False) == [], call.name
