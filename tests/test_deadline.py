"""Every tier-1 test runs under a deadline (``conftest.TEST_DEADLINE_S``):
a test that never ends fails with ``TimeoutError`` instead of stalling
the suite."""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

TESTS = Path(__file__).parent

PLANTED = """
import conftest

conftest.TEST_DEADLINE_S = 1.0  # the planted suite's own deadline


def test_forever():
    while True:
        pass


def test_after_it():
    assert True
"""


def test_a_planted_endless_loop_fails_at_its_deadline(tmp_path):
    """A suite whose first test is ``while True`` -- under the tier-1 hook,
    loaded from this directory's ``conftest.py`` with its deadline set to
    1 s -- fails that test with the hook's ``TimeoutError``, then runs the
    next one."""
    (tmp_path / "test_planted.py").write_text(PLANTED)
    path = os.pathsep.join([str(TESTS), str(TESTS.parent / "src")])
    started = time.perf_counter()
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "conftest", "-p", "no:cacheprovider",
         "test_planted.py"],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
    assert "TimeoutError: test_planted.py::test_forever ran past its 1 s deadline" in run.stdout
    assert time.perf_counter() - started < 30
