"""Shared machinery for the benchmark harness.

``pytest benchmarks/ --benchmark-only`` regenerates every Table 1 row
(and the supporting figure-level claims), asserts the measured
verdicts against the paper, and times the vertex-centric runs.  The
regenerated table is accumulated across benches and written to
``benchmarks/table1_output.txt`` at the end of the session.

Without ``pytest-benchmark`` installed, plain ``pytest benchmarks/``
runs the same assertions: the fallback ``benchmark`` fixture below
calls each benchmarked function once and times nothing.
"""

from __future__ import annotations

import os

import pytest

from repro.core.report import format_row_lines, format_table

# Rows collected by the bench_table1 benches, keyed by row number.
_COLLECTED = {}

#: Row 14's "more work" verdict is a documented borderline cell — the
#: measured expected work of the randomized matching is Θ(m) with an
#: O(log n) round count, so the growth sits between the decision
#: bands and the verdict can fall either way.  The paper's Yes is the
#: worst-case O(m log n) bound.  See EXPERIMENTS.md.
DOCUMENTED_DIVERGENCES = {14: {"more_work"}}


try:
    import pytest_benchmark  # noqa: F401 - provides ``benchmark``
except ImportError:

    class _CallOnce:
        """The ``benchmark`` fixture's call surface, minus the timing:
        the function runs exactly once and its result is returned."""

        def __call__(self, function, *args, **kwargs):
            return function(*args, **kwargs)

        def pedantic(self, target, args=(), kwargs=None, **_rounds):
            return target(*args, **(kwargs or {}))

    @pytest.fixture
    def benchmark():
        return _CallOnce()


def record_row(row) -> None:
    _COLLECTED[row.spec.row] = row


def assert_row_matches_paper(row) -> None:
    """Assert both verdict columns, honoring documented divergences."""
    spec = row.spec
    allowed = DOCUMENTED_DIVERGENCES.get(spec.row, set())
    if "more_work" not in allowed:
        assert row.result.more_work == spec.paper_more_work, (
            f"row {spec.row} more-work verdict: measured "
            f"{row.result.more_work}, paper says "
            f"{spec.paper_more_work}; "
            f"ratios={[round(r, 2) for r in row.result.ratios]}"
        )
    if "bppa" not in allowed:
        assert row.result.bppa.is_bppa == spec.paper_bppa, (
            f"row {spec.row} BPPA verdict: measured "
            f"{row.result.bppa.is_bppa} "
            f"(violated: {row.result.bppa.failures()}), paper says "
            f"{spec.paper_bppa}"
        )


@pytest.fixture(scope="session", autouse=True)
def _write_table_at_session_end():
    yield
    if not _COLLECTED:
        return
    rows = [_COLLECTED[k] for k in sorted(_COLLECTED)]
    text = format_table(rows)
    details = []
    for row in rows:
        details.extend(format_row_lines(row))
        details.append("")
    out_path = os.path.join(
        os.path.dirname(__file__), "table1_output.txt"
    )
    with open(out_path, "w") as handle:
        handle.write(text)
        handle.write("\n\n")
        handle.write("\n".join(details))
    print("\n" + text)
    print(f"\n(full per-row details written to {out_path})")
