"""The names and parameter positions that the benchmark harness in ``bench/``
hooks into.  ``bench/`` is read as source text and never imported, so the
suite writes nothing there."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _literal(path: Path, name: str):
    """The literal value assigned to ``name`` at the top level of ``path``."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} is not assigned in {path.name}")


def _resolve(module: str, attr: str):
    obj = importlib.import_module(module)
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


TRACED = _literal(BENCH / "spans.py", "TRACED")


@pytest.mark.parametrize("span, module, attr", TRACED, ids=[span for span, _, _ in TRACED])
def test_traced_functions_resolve(span, module, attr):
    assert callable(_resolve(module, attr))


@pytest.mark.parametrize("module, attr", [
    ("threshnet.spatial", "_radial_intensity_cached"),
    ("threshnet.motifs", "_pattern_table"),
])
def test_cleared_caches_exist(module, attr):
    assert attr in (BENCH / "run.py").read_text()
    assert callable(_resolve(module, attr).cache_clear)


@pytest.mark.parametrize("module, function, parameter, position", [
    ("threshnet.dist", "expectation", "g", 1),
    ("threshnet.dist", "quad_checked", "f", 0),
    ("threshnet.stats", "run_replicates", "replicates", 2),
    ("threshnet.stats", "ks_statistic", "cdf", 1),
    ("threshnet.motifs", "count_motif_tuples", "g", 0),
    ("threshnet.motifs", "count_motif_tuples", "motif", 1),
])
def test_hooked_parameter_positions(module, function, parameter, position):
    assert f'{position}, "{parameter}")' in (BENCH / "spans.py").read_text()
    names = list(inspect.signature(_resolve(module, function)).parameters)
    assert names.index(parameter) == position


def test_sample_size_position():
    # spans.py counts draws from args[2], counting self
    assert 'args[2] if len(args) > 2 else kwargs.get("size")' in (BENCH / "spans.py").read_text()
    names = list(inspect.signature(_resolve("threshnet.dist", "WeightDistribution.sample")).parameters)
    assert names.index("size") == 2
