"""The benchmark's smoke-size calls run through the CLI, write strict JSON,
and give identical bytes when called twice.

``bench/workloads.py`` is evaluated in memory, so the suite imports nothing
from ``bench/`` and writes nothing there; the reports go to temporary
directories."""

import json
import runpy
from pathlib import Path

import pytest

from threshnet import cli

WORKLOADS = runpy.run_path(
    str(Path(__file__).resolve().parent.parent / "bench" / "workloads.py"))


def _refuse(constant: str):
    raise ValueError(f"non-standard JSON constant {constant}")


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", sorted(WORKLOADS["MATRICES"]))
def test_bench_smoke_calls_run(tmp_path, workload):
    # each call runs once into each directory: the report and its _ecdf.csv
    # and _hist.csv files must come out byte for byte the same
    for call in WORKLOADS["matrix"](workload, 0, smoke=True):
        written = []
        for run in ("first", "second"):
            out_dir = tmp_path / call.name / run
            out_dir.mkdir(parents=True)
            out = out_dir / call.report_name
            assert cli.main([*call.argv, "--out", str(out)]) == 0, call.name
            if out.suffix == ".json":
                json.loads(out.read_text(), parse_constant=_refuse)
            written.append(_files(out_dir))
        assert call.report_name in written[0], call.name
        assert written[0] == written[1], call.name
