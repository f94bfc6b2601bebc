"""The quick examples run end to end as subprocesses.

Each case finishes in about a second.  ``paper_tables.py`` at a real
scale and ``fuzz_campaign.py`` take longer; the library code behind them
is covered by ``tests/test_claims.py`` and ``tests/test_fuzz.py``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


def _run(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    return subprocess.run(
        [sys.executable, str(REPO / "examples" / argv[0]), *argv[1:]],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("argv, shows", [
    (("quickstart.py",), ("control independence speedup",)),
    (("lint_workloads.py", "0.12"), (
        "compress: 0 error(s), 0 warning(s), 1 suppressed", "RECONVERGENCE.",
    )),
    (("parallel_study.py", "--list"), ("figure17",)),
])
def test_example_exits_zero(argv, shows):
    result = _run(*argv)
    assert result.returncode == 0, result.stderr
    for text in shows:
        assert text in result.stdout


#: the start of the usage line each example prints on a bad argument
USAGE = {
    "paper_tables.py": "usage: python examples/paper_tables.py [scale]",
    "lint_workloads.py": "usage: python examples/lint_workloads.py [scale]",
    "parallel_study.py": "usage: parallel_study.py [-h]",
    "fuzz_campaign.py": "usage: fuzz_campaign.py [-h]",
}


@pytest.mark.parametrize("argv", [
    ("paper_tables.py", "abc"),
    ("paper_tables.py", "0.1", "0.2"),
    ("paper_tables.py", "-5"),
    ("lint_workloads.py", "--strcit"),
    ("lint_workloads.py", "abc"),
    ("lint_workloads.py", "-5"),
    ("lint_workloads.py", "0.1", "0.2"),
    # values the library validators reject, caught before any run
    ("parallel_study.py", "--scale", "-5"),
    ("parallel_study.py", "--names", "nope"),
    ("parallel_study.py", "--experiments", "nope"),
    ("parallel_study.py", "--jobs", "0"),
    ("fuzz_campaign.py", "--scale", "-5", "--cases", "1"),
    ("fuzz_campaign.py", "--cases", "0"),
    ("fuzz_campaign.py", "--timeout", "0"),
    ("fuzz_campaign.py", "--budget-seconds", "-1"),
])
def test_bad_argument_exits_two_with_usage(argv):
    result = _run(*argv)
    assert result.returncode == 2
    assert result.stderr.startswith(USAGE[argv[0]])
    assert "Traceback" not in result.stderr
