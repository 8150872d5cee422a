"""Shared fixtures for the benchmark's self-tests.

Run with ``PYTHONPATH=src python -m pytest bench/tests -q``.  The
modules under ``bench/`` are scripts, not a package, so the directory
goes on ``sys.path`` here.
"""

import json
import os
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
for path in (BENCH_DIR, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)


def run_bench(*args, cwd=ROOT, script="run.py"):
    """``bench/<script>`` in a fresh interpreter, as a user runs it."""
    return subprocess.run(
        [sys.executable, os.path.join("bench", script), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


@pytest.fixture(scope="session")
def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def smoke(tmp_path_factory):
    """One ``run.py --smoke`` for the whole session: the results
    document plus the directory holding the span files."""
    out_dir = tmp_path_factory.mktemp("smoke")
    proc = run_bench("--smoke", "--out-dir", str(out_dir))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    with open(out_dir / "smoke.json") as fh:
        results = json.load(fh)
    return {"results": results, "dir": out_dir, "stdout": proc.stdout}
