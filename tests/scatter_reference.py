"""A test-side reference for the scatter-plan compile.

:func:`reference_scatter_lane` is the per-edge bucket algorithm the
vectorized kernels compiled their plans with before the count-then-
place pass replaced it: one message-position list per destination,
filled in send order, then cut into single, grouped and fat
destinations.  It plays the part ``tests/oracle.py`` plays for the
engine: slow, obvious, and sharing nothing with
``repro.bsp.kernels._compile_scatter_lane`` but the plan type, so
``tests/test_scatter_compile.py`` can hold the two to identical plans.
"""

from __future__ import annotations

import operator
from array import array

from repro.bsp import kernels
from repro.graph.partition import Adjacency


def adjacency_of(rows, remote_out=None) -> Adjacency:
    """``rows`` (one list of target indices per position, ``None`` for
    a dangling row) as the flat columns the engine compiles."""
    out_start, out_dst = array("q", [0]), array("q")
    for row in rows:
        out_dst.extend(row or ())
        out_start.append(len(out_dst))
    dangling = frozenset(i for i, row in enumerate(rows) if row is None)
    remote = array("q", remote_out or [0] * len(rows))
    return Adjacency(out_start, out_dst, remote, dangling)


def reference_scatter_lane(lo, hi, rows, remote_out):
    """The plan of positions ``[lo, hi)`` of ``rows``, by buckets."""
    senders, degs, buckets, order = [], array("d"), {}, []
    sent = remote = k = 0
    for i in range(lo, hi):
        nbrs = rows[i]
        if nbrs is None:
            return None
        if not nbrs:
            continue
        senders.append(i - lo)
        degs.append(float(len(nbrs)))
        for dst in nbrs:
            if dst not in buckets:
                buckets[dst] = []
                order.append(dst)
            buckets[dst].append(k)
        sent += len(nbrs)
        remote += remote_out[i]
        k += 1
    plan = kernels._ScatterLane()
    plan.n, plan.degs, plan.sent, plan.remote = k, degs, sent, remote
    if not k:
        plan.value_getter = None
    elif senders[-1] - senders[0] + 1 == k:
        plan.value_getter = operator.itemgetter(
            slice(senders[0], senders[-1] + 1)
        )
    else:
        plan.value_getter = operator.itemgetter(*senders)
    plan.order = array("q", order)
    singles = [d for d in order if len(buckets[d]) == 1]
    plan.s_dst = array("q", singles)
    plan.s_get = kernels._column_getter(
        [buckets[d][0] for d in singles]
    ) if singles else None
    grouped = {}
    for dst in order:
        if 1 < len(buckets[dst]) <= kernels._GROUP_MAX:
            grouped.setdefault(len(buckets[dst]), []).append(dst)
    plan.groups = tuple(
        (count, array("q", dsts), tuple(
            kernels._column_getter([buckets[d][j] for d in dsts])
            for j in range(count)
        ))
        for count, dsts in sorted(grouped.items())
    )
    fat = [d for d in order if len(buckets[d]) > kernels._GROUP_MAX]
    plan.m_dst = array("q", fat)
    plan.m_get = tuple(operator.itemgetter(*buckets[d]) for d in fat)
    plan.m_cnt = array("q", [len(buckets[d]) for d in fat])
    return plan
