"""The pytest settings of pyproject.toml, checked on a small suite of their
own: a failing Hypothesis test is reported as one failure, and the tests
after it still run."""

import pathlib
import subprocess
import sys

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"

SUITE = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(x):
    assert x < 10


def test_after_it_passes():
    pass
"""


def test_failing_property_is_reported_and_the_run_goes_on(tmp_path):
    # under filterwarnings = ["error"] alone, Hypothesis's report hook raised
    # a DeprecationWarning that ended the run with an INTERNALERROR
    (tmp_path / "test_suite.py").write_text(SUITE)
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_suite.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
    assert "FAILED test_suite.py::test_property_fails" in out
    assert proc.returncode == 1
