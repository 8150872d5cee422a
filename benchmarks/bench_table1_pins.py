"""Table 1's BPPA observations and verdicts, pinned at the repo
benchmark's configuration (``scale=0.4``, seed 1).

The same per-row digest as ``tests/test_table1_pins.py`` (which pins
``scale=0.2`` at seeds 1-3), over the sweep the ``table1`` workload of
``bench/`` times.  A faster P1 charge must leave every digest as it is.

Run with::

    PYTHONPATH=src python -m pytest -q benchmarks/bench_table1_pins.py

(with ``pytest-benchmark`` installed, ``--benchmark-only`` also times
the build once).
"""

from __future__ import annotations

from repro.core.table1 import build_table
from tests.test_table1_pins import assert_pinned

SCALE = 0.4
SEED = 1

PINNED = {
    1: "658de937e4e62fee", 2: "fe6f37b39ac6566a",
    3: "4dad9ac2144f9b44", 4: "a4ccb8028523e740",
    5: "22adcf0bcb4489a6", 6: "44af1104312732e1",
    7: "79330e7c52befaeb", 8: "8b59d1f8654f3acc",
    9: "9125cf043bab55bb", 10: "a4ccb8028523e740",
    11: "59784aa5ecbd3d5a", 12: "43114f2ba6abcbda",
    13: "deb8fc267d44d212", 14: "55b0b96c3f09d31e",
    15: "76debc50446eb07c", 16: "3f6ea2bac3b2e176",
    17: "658de937e4e62fee", 18: "1570c230535d3592",
    19: "27832b8c9f9b33bc", 20: "036272277c3f5f8d",
}


def test_bench_configuration_is_pinned(benchmark):
    table = benchmark.pedantic(
        lambda: build_table(seed=SEED, scale=SCALE), rounds=1, iterations=1
    )
    assert_pinned(table, PINNED, f"scale={SCALE} seed={SEED}")


if __name__ == "__main__":
    # Spawn-context hygiene (as in bench_table1.py): children that
    # re-import __main__ must not relaunch the bench.
    import sys

    import pytest

    sys.exit(pytest.main([__file__, *sys.argv[1:]]))
