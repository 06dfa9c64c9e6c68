"""The suite's own pytest configuration: a failing property test must not
end the run before the tests after it."""

import subprocess
import sys
import tomllib
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

_PAIR = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_a_failing_property(x):
    assert x < 0


def test_b_failing_plain():
    assert False
'''


def test_a_failing_property_test_does_not_abort_the_run(tmp_path):
    # a failing hypothesis test followed by a failing plain test, in a child
    # pytest under this repository's filterwarnings: both must be reported
    filters = tomllib.loads(PYPROJECT.read_text())["tool"]["pytest"]["ini_options"][
        "filterwarnings"]
    (tmp_path / "pyproject.toml").write_text(
        "[tool.pytest.ini_options]\nfilterwarnings = [\n"
        + "".join(f"    {f!r},\n" for f in filters) + "]\n")
    (tmp_path / "test_pair.py").write_text(_PAIR)
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in child.stdout + child.stderr
    assert child.returncode == 1 and "2 failed" in child.stdout
