"""The count-then-place scatter compile builds today's plans.

``kernels._compile_scatter_lane`` compiles a lane's scatter plan from
the flat adjacency columns without a container per destination;
``tests/scatter_reference.py`` keeps the per-edge bucket algorithm it
replaced.  Drawn adjacencies — hubs above ``_GROUP_MAX`` contributors,
empty rows, a dangling row, one to seven lanes — must compile to
identical plans: every column, with the getters compared by what they
return on a probe.

Degree scatters a constant ``1.0`` and compiles the count stage alone
(``kernels._count_stage``).  Over the same drawn adjacencies its
order, counts and send tallies are the full plan's, and its seed
record, merged per destination, is the record ``kernels._emit`` lays
out through the full plan for ``[1.0] * n`` — with no combiner, sum,
min and a non-associative fold.
"""

from __future__ import annotations

import operator
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.degree import DegreeCentrality
from repro.bsp import kernels
from repro.bsp.fabric import LaneRecord, _planned
from repro.bsp.vertex import VertexState
from repro.bsp.worker import Worker
from tests.conftest import record_buckets
from tests.scatter_reference import adjacency_of, reference_scatter_lane


@st.composite
def lanes_of_rows(draw):
    """``(rows, remote_out, cuts)``: rows of distinct targets, the
    first ``hub_rows`` of them holding the hubs, and the lane ranges'
    boundaries."""
    n_dst = draw(st.integers(1, 40))
    n_rows = draw(st.sampled_from([0, 1, 7, 90, 160]) | st.integers(0, 160))
    hubs = draw(st.lists(st.integers(0, n_dst - 1), max_size=2, unique=True))
    hub_rows = draw(st.sampled_from([0, 3, kernels._GROUP_MAX + 1, 140]))
    rows = []
    for i in range(n_rows):
        row = draw(
            st.lists(st.integers(0, n_dst - 1), max_size=6, unique=True)
        )
        if i < hub_rows:
            for hub in hubs:
                if hub not in row:
                    row.insert(draw(st.integers(0, len(row))), hub)
        rows.append(row)
    if rows:
        dangling = draw(st.none() | st.integers(0, n_rows - 1))
        if dangling is not None:
            rows[dangling] = None
    # A row's remote count is at most its length (0 when empty).
    remote_out = [draw(st.integers(0, len(row or ()))) for row in rows]
    n_lanes = draw(st.integers(1, 7))
    cuts = sorted(
        draw(
            st.lists(
                st.integers(0, n_rows),
                min_size=n_lanes - 1, max_size=n_lanes - 1,
            )
        )
    )
    return rows, remote_out, [0, *cuts, n_rows]


def _view(plan, probe):
    """Every column of ``plan``, getters applied to ``probe``."""
    if plan is None:
        return None

    def apply(getter):
        return None if getter is None else getter(probe)

    return {
        "n": plan.n,
        "value_getter": apply(plan.value_getter),
        "degs": plan.degs.tolist(),
        "order": plan.order.tolist(),
        "s_dst": plan.s_dst.tolist(),
        "s_get": apply(plan.s_get),
        "groups": [
            (count, dsts.tolist(), [apply(g) for g in getters])
            for count, dsts, getters in plan.groups
        ],
        "m_dst": plan.m_dst.tolist(),
        "m_get": [apply(g) for g in plan.m_get],
        "m_cnt": plan.m_cnt.tolist(),
        "sent": plan.sent,
        "remote": plan.remote,
    }


@settings(max_examples=150, deadline=None)
@given(drawn=lanes_of_rows())
def test_count_then_place_matches_the_bucket_compile(drawn):
    rows, remote_out, bounds = drawn
    adjacency = adjacency_of(rows, remote_out)
    probe = [f"v{i}" for i in range(len(rows) + 1)]
    got, want = [], []
    for lo, hi in zip(bounds, bounds[1:]):
        got.append(kernels._compile_scatter_lane(lo, hi, adjacency))
        want.append(reference_scatter_lane(lo, hi, rows, remote_out))
        assert _view(got[-1], probe) == _view(want[-1], probe), (lo, hi)


def test_a_hub_above_the_group_limit_is_fat():
    n = kernels._GROUP_MAX + 3
    rows = [[0, 1 + i % 2] for i in range(n)]
    plan = kernels._compile_scatter_lane(0, n, adjacency_of(rows))
    assert plan.m_dst.tolist() == [0]
    assert plan.m_cnt.tolist() == [n]
    assert [count for count, _d, _g in plan.groups] == [n // 2, n - n // 2]


#: Degree's combiners: none, sum, min and a non-associative fold whose
#: result tells the fold's order and seed apart.
COMBINES = [None, operator.add, min, lambda a, b: a + 2 * b]


def _merged(record, combine):
    """``{destination: (count, payload bits)}`` of ``record``."""
    if combine is None:
        return {
            dst: (len(msgs), [m.hex() for m in msgs])
            for dst, msgs in record_buckets(record)
        }
    assert len(record.payloads) == len(record.touched)
    return {
        dst: (count, [payload.hex()])
        for dst, payload, count in zip(*record)
    }


def _degree_seed(lo, hi, rows, adjacency, combine):
    """``(plan, record)`` of degree's seed over ``[lo, hi)``, as the
    kernel compiles and runs it on one lane (``None, None`` when the
    compile declines)."""
    lane = SimpleNamespace(
        base=0, start=lo, stop=hi, worker=Worker(0), combine=combine,
        states=[VertexState(i) for i in range(len(rows))],
        **adjacency._asdict(),
    )
    plan = kernels.DegreeKernel.compile(lane, DegreeCentrality())
    if plan is None:
        return None, None
    host = SimpleNamespace(_program=DegreeCentrality(), _tracker=None)
    _executed, payloads = kernels.DegreeKernel.run(host, lane, plan, "seed")
    return plan, _planned(plan, payloads)


@settings(max_examples=150, deadline=None)
@given(drawn=lanes_of_rows())
def test_the_count_stage_gives_the_full_plans_record(drawn):
    rows, remote_out, bounds = drawn
    adjacency = adjacency_of(rows, remote_out)
    for lo, hi in zip(bounds, bounds[1:]):
        full = kernels._compile_scatter_lane(lo, hi, adjacency)
        for combine in COMBINES:
            plan, record = _degree_seed(lo, hi, rows, adjacency, combine)
            if full is None:
                assert plan is None and None in rows[lo:hi], (lo, hi)
                break
            assert plan.order.tolist() == full.order.tolist()
            assert dict(zip(*plan.shape())) == dict(zip(*full.shape()))
            assert (plan.sent, plan.remote) == (full.sent, full.remote)
            touched, counts = full.shape()
            want = LaneRecord(
                touched, kernels._emit(full, [1.0] * full.n, combine), counts
            )
            assert _merged(record, combine) == _merged(want, combine)
