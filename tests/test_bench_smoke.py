"""The benchmark's smoke-size calls run through the CLI and write strict JSON.

``bench/workloads.py`` is evaluated in memory, so the suite imports nothing
from ``bench/`` and writes nothing there; the reports go to a temporary
directory."""

import json
import runpy
from pathlib import Path

import pytest

from threshnet import cli

WORKLOADS = runpy.run_path(
    str(Path(__file__).resolve().parent.parent / "bench" / "workloads.py"))


def _refuse(constant: str):
    raise ValueError(f"non-standard JSON constant {constant}")


@pytest.mark.parametrize("workload", sorted(WORKLOADS["MATRICES"]))
def test_bench_smoke_calls_run(tmp_path, workload):
    for call in WORKLOADS["matrix"](workload, 0, smoke=True):
        out = tmp_path / call.report_name
        assert cli.main([*call.argv, "--out", str(out)]) == 0, call.name
        if out.suffix == ".json":
            json.loads(out.read_text(), parse_constant=_refuse)
