"""Oracle-differential harness for the vectorized kernel tier.

The vectorized kernels (:mod:`repro.bsp.kernels`) promise *byte
identity* with the reference dict path — not approximate equality, not
"same up to float noise".  This suite pins that promise three ways:

1. **End-to-end differentials**: every registered workload runs on the
   reference path and on the vectorized tier (serial and process-
   parallel, both transports, clean and faulted) and the results are
   compared entry by entry through ``pickle`` — values, ``RunStats``
   ledgers, BPPA observations and aggregate history.

2. **Unit-level bit-exactness**: the scatter/gather primitives the
   kernels are built from are run against a per-vertex oracle fold on
   adversarial floats — NaN, signed zeros, subnormals, integers at the
   2**53 representability edge — and compared bit for bit through
   ``struct.pack``.

3. **A poisoned control**: the module-level fold seams are monkey-
   patched with a deliberately re-associated (but mathematically
   equal) summation, and the harness must *catch* the divergence —
   proving the oracle is sensitive to the exact failure mode the
   kernels could realistically introduce.
"""

from __future__ import annotations

import math
import multiprocessing
import operator
import pickle
import struct
from array import array
from functools import reduce

import pytest

import repro.bsp.kernels as kernels
from repro.algorithms.cc_hashmin import HashMinComponents
from repro.algorithms.degree import DegreeCentrality
from repro.algorithms.pagerank import PageRank
from repro.algorithms.sssp import SingleSourceShortestPaths
from repro.algorithms.wcc import WeaklyConnectedComponents
from repro.bsp import (
    MinCombiner,
    PregelEngine,
    SumCombiner,
    create_engine,
    crash_plan,
    drop_plan,
)
from repro.core.report import format_trace_report
from repro.graph import erdos_renyi_graph
from repro.graph.graph import Graph
from repro.trace.recorder import TraceRecorder

#: Every workload with a registered vectorized kernel, with its
#: natural combiner class.
WORKLOADS = [
    ("pagerank", lambda: PageRank(num_supersteps=8), SumCombiner),
    ("wcc", lambda: WeaklyConnectedComponents(), MinCombiner),
    ("hashmin", lambda: HashMinComponents(), MinCombiner),
    ("degree", lambda: DegreeCentrality(), SumCombiner),
]

FAULT_MODES = [
    ("clean", None),
    ("crash", lambda: crash_plan(superstep=1, worker=0, seed=9)),
    ("msg-drop", lambda: drop_plan(rate=0.25, seed=9)),
]


def graph_undirected():
    return erdos_renyi_graph(40, 0.12, seed=11)


def graph_directed():
    return erdos_renyi_graph(40, 0.10, seed=12, directed=True)


def canonical(result):
    """Byte-exact, sharing-independent digest of a run (same contract
    as the differential fuzz suite)."""
    return (
        [
            (repr(k), pickle.dumps(v))
            for k, v in sorted(
                result.values.items(), key=lambda kv: repr(kv[0])
            )
        ],
        pickle.dumps(result.stats),
        pickle.dumps(result.bppa),
        [pickle.dumps(h) for h in result.aggregate_history],
    )


def run_serial(graph, make_program, combiner_cls, *, vectorize,
               make_plan=None, trace=None, num_workers=4):
    kwargs = dict(
        num_workers=num_workers, track_bppa=True, seed=0, trace=trace
    )
    if combiner_cls is not None:
        kwargs["combiner"] = combiner_cls()
    if make_plan is not None:
        kwargs["checkpoint_interval"] = 2
        kwargs["fault_plan"] = make_plan()
    if vectorize:
        kwargs["use_vectorized"] = True
    else:
        kwargs["use_fast_path"] = False
    engine = PregelEngine(graph, make_program(), **kwargs)
    return engine.run()


def tiers_of(result):
    return [w.kernel_tier for w in result.stats.wall]


# ---------------------------------------------------------------------
# End-to-end differentials, serial
# ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "fault_name,make_plan", FAULT_MODES, ids=[f[0] for f in FAULT_MODES]
)
@pytest.mark.parametrize("use_combiner", [True, False],
                         ids=["comb", "nocomb"])
@pytest.mark.parametrize(
    "wl_name,make_program,combiner_cls",
    WORKLOADS,
    ids=[w[0] for w in WORKLOADS],
)
def test_serial_oracle_differential(
    wl_name, make_program, combiner_cls, use_combiner, fault_name,
    make_plan,
):
    """Reference vs vectorized, faulty-vs-faulty included: the same
    fault plan runs on both paths and the recovered results must stay
    byte-identical."""
    graph = graph_undirected()
    comb = combiner_cls if use_combiner else None
    ref = run_serial(graph, make_program, comb, vectorize=False,
                     make_plan=make_plan)
    vec = run_serial(graph, make_program, comb, vectorize=True,
                     make_plan=make_plan)
    assert canonical(vec) == canonical(ref), (
        f"{wl_name}/{fault_name}: vectorized tier diverged from the "
        "reference path"
    )
    tiers = tiers_of(vec)
    if make_plan is not None:
        # The exactness proofs do not cover replayed supersteps: a
        # fault injector pins the whole run to the per-vertex pass.
        assert "vectorized" not in tiers, (wl_name, fault_name, tiers)
    else:
        assert "vectorized" in tiers, (wl_name, tiers)


def test_serial_oracle_differential_directed_graph():
    graph = graph_directed()
    for wl_name, make_program, combiner_cls in WORKLOADS:
        ref = run_serial(graph, make_program, combiner_cls,
                         vectorize=False)
        vec = run_serial(graph, make_program, combiner_cls,
                         vectorize=True)
        assert canonical(vec) == canonical(ref), wl_name
        assert "vectorized" in tiers_of(vec), wl_name


# ---------------------------------------------------------------------
# End-to-end differentials, process-parallel (both transports)
# ---------------------------------------------------------------------


@pytest.mark.parametrize("transport", ["pickle", "columnar"])
@pytest.mark.parametrize(
    "wl_name,make_program,combiner_cls",
    WORKLOADS,
    ids=[w[0] for w in WORKLOADS],
)
def test_parallel_oracle_differential(wl_name, make_program,
                                      combiner_cls, transport):
    graph = graph_undirected()
    ref = run_serial(graph, make_program, combiner_cls,
                     vectorize=False, num_workers=2)
    engine = create_engine(
        graph, make_program(), backend="parallel", num_workers=2,
        combiner=combiner_cls(), track_bppa=True, seed=0,
        transport=transport,
    )
    par = engine.run()
    assert canonical(par) == canonical(ref), (wl_name, transport)
    assert engine.parallel_disabled_reason is None
    # Ranks run the same registered kernels as the serial engine; the
    # pool must actually have vectorized, not silently stayed dense.
    assert "vectorized" in tiers_of(par), tiers_of(par)


@pytest.mark.parametrize("transport", ["pickle", "columnar"])
@pytest.mark.parametrize(
    "fault_name,make_plan",
    FAULT_MODES[1:],
    ids=[f[0] for f in FAULT_MODES[1:]],
)
def test_parallel_faulted_oracle(transport, fault_name, make_plan):
    """Faulty-vs-faulty across the process boundary: the pool's
    recovered PageRank must match the faulted reference run byte for
    byte, and the fault injector must pin the ranks to the per-vertex
    pass."""
    graph = graph_undirected()
    make_program = WORKLOADS[0][1]
    ref = run_serial(graph, make_program, SumCombiner,
                     vectorize=False, make_plan=make_plan,
                     num_workers=2)
    engine = create_engine(
        graph, make_program(), backend="parallel", num_workers=2,
        combiner=SumCombiner(), track_bppa=True, seed=0,
        transport=transport, checkpoint_interval=2,
        fault_plan=make_plan(),
    )
    par = engine.run()
    assert canonical(par) == canonical(ref), (transport, fault_name)
    assert "vectorized" not in tiers_of(par), tiers_of(par)


# ---------------------------------------------------------------------
# Tier reporting: per-superstep fallback is visible and honest
# ---------------------------------------------------------------------


def test_min_label_kernels_fall_back_on_superstep_zero():
    """WCC and Hash-Min gather candidates per vertex on superstep 0
    (wake-all) and vectorize every steady superstep after it — the
    wall profile must show exactly that, per superstep."""
    graph = graph_undirected()
    for make_program, combiner_cls in [
        (WeaklyConnectedComponents, MinCombiner),
        (HashMinComponents, MinCombiner),
    ]:
        vec = run_serial(graph, lambda: make_program(), combiner_cls,
                         vectorize=True)
        tiers = tiers_of(vec)
        assert tiers[0] == "dense", tiers
        assert len(tiers) >= 2, tiers
        assert all(t == "vectorized" for t in tiers[1:]), tiers


def test_whole_run_vectorized_workloads():
    graph = graph_undirected()
    for make_program, combiner_cls in [
        (lambda: PageRank(num_supersteps=8), SumCombiner),
        (DegreeCentrality, SumCombiner),
    ]:
        vec = run_serial(graph, make_program, combiner_cls,
                         vectorize=True)
        tiers = tiers_of(vec)
        assert tiers and all(t == "vectorized" for t in tiers), tiers


def test_trace_report_renders_kernel_tier_section():
    graph = graph_undirected()
    rec = TraceRecorder()
    run_serial(graph, lambda: PageRank(num_supersteps=4), SumCombiner,
               vectorize=True, trace=rec)
    report = format_trace_report(list(rec.events()))
    assert "== kernel tiers (last run) ==" in report
    assert "vectorized" in report

    ref_rec = TraceRecorder()
    run_serial(graph, lambda: PageRank(num_supersteps=4), SumCombiner,
               vectorize=False, trace=ref_rec)
    ref_report = format_trace_report(list(ref_rec.events()))
    # The reference path never leaves the reference kernel, so the
    # section is omitted entirely.
    assert "== kernel tiers" not in ref_report


# ---------------------------------------------------------------------
# use_vectorized=True is a requirement, not a hint
# ---------------------------------------------------------------------


def test_use_vectorized_requires_fast_path():
    with pytest.raises(ValueError, match="dense fast path"):
        PregelEngine(
            graph_undirected(), PageRank(num_supersteps=4),
            use_fast_path=False, use_vectorized=True,
        )


def test_use_vectorized_requires_registered_kernel():
    with pytest.raises(ValueError, match="no vectorized kernel"):
        PregelEngine(
            graph_undirected(), SingleSourceShortestPaths(0),
            use_vectorized=True,
        )


# ---------------------------------------------------------------------
# Float-edge bit-exactness of the scatter primitives
# ---------------------------------------------------------------------


def _bits(x):
    return struct.pack("<d", x)


def _oracle_scatter(dense_out, shares, combine):
    """The per-vertex path's combining enqueue sequence: for each
    sender in ascending order, fold its share into every destination
    pairwise in arrival order, never seeding with a literal zero."""
    acc = {}
    cnt = {}
    order = []
    k = 0
    for nbrs in dense_out:
        if not nbrs:
            continue
        value = shares[k]
        k += 1
        for dst in nbrs:
            if cnt.get(dst, 0):
                acc[dst] = combine(acc[dst], value)
                cnt[dst] += 1
            else:
                acc[dst] = value
                cnt[dst] = 1
                order.append(dst)
    return acc, cnt, order


#: Adversarial share values: NaN, signed zeros, subnormals (smallest
#: positive double among them), exact powers, and odd integers at the
#: 2**53 edge where ``x + 1.0 == x``.
EDGE_FLOATS = [
    float("nan"),
    -0.0,
    0.0,
    5e-324,
    -5e-324,
    1e-310,
    2.0**53,
    -(2.0**53),
    2.0**53 - 1.0,
    1.0,
    -1.0,
    1e16,
    -1e16,
    0.1,
    -0.1,
    2.0**-1022,
]


def _edge_topology():
    """A scatter shape that exercises every lane bucket class: one fat
    destination (> _GROUP_MAX contributors), grouped destinations of
    several contributor counts, and single-contributor destinations."""
    n_senders = kernels._GROUP_MAX + 8
    dense_out = []
    for i in range(n_senders):
        row = [0]  # dst 0 goes fat: every sender contributes
        if i < 24:
            row.append(1 + i % 3)  # dsts 1..3: grouped (8 each)
        if i < 6:
            row.append(4 + i % 2)  # dsts 4..5: grouped (3 each)
        if i == 7:
            row.append(6)  # dst 6: single contributor
        dense_out.append(row)
    return dense_out


@pytest.mark.parametrize("combine", [operator.add, min, max],
                         ids=["sum", "min", "max"])
def test_scatter_combined_is_bit_exact_on_edge_floats(combine):
    dense_out = _edge_topology()
    n_senders = len(dense_out)
    shares = [
        EDGE_FLOATS[i % len(EDGE_FLOATS)] for i in range(n_senders)
    ]
    remote_out = [0] * n_senders
    lane = kernels._compile_scatter_lane(
        0, n_senders, dense_out, remote_out
    )
    assert lane is not None
    assert lane.m_dst and lane.groups and len(lane.s_dst), (
        "topology must cover fat, grouped and single destinations"
    )
    n_dst = 7
    acc = [None] * n_dst
    cnt = array("q", [0]) * n_dst
    kernels._scatter_combined(lane, shares, acc, cnt, combine)
    want_acc, want_cnt, _ = _oracle_scatter(dense_out, shares, combine)
    for dst in range(n_dst):
        assert cnt[dst] == want_cnt.get(dst, 0), dst
        if dst in want_acc:
            assert _bits(acc[dst]) == _bits(want_acc[dst]), (
                f"dst {dst}: {acc[dst]!r} != {want_acc[dst]!r} bitwise"
            )


def test_scatter_combined_preserves_negative_zero():
    # A fold seeded with a literal 0.0 would turn (-0.0) + (-0.0)
    # into +0.0; the kernels must seed with the first message itself.
    dense_out = [[0], [0]]
    lane = kernels._compile_scatter_lane(0, 2, dense_out, [0, 0])
    acc = [None]
    cnt = array("q", [0])
    kernels._scatter_combined(
        lane, [-0.0, -0.0], acc, cnt, operator.add
    )
    assert _bits(acc[0]) == _bits(-0.0)
    assert cnt[0] == 2


def test_scatter_lists_matches_arrival_order_with_fresh_buckets():
    dense_out = _edge_topology()
    n_senders = len(dense_out)
    shares = [
        EDGE_FLOATS[i % len(EDGE_FLOATS)] for i in range(n_senders)
    ]
    lane = kernels._compile_scatter_lane(
        0, n_senders, dense_out, [0] * n_senders
    )
    acc = [None] * 7
    kernels._scatter_lists(lane, shares, acc)
    want_acc, _, _ = _oracle_scatter(
        dense_out, shares, lambda a, b: a  # unused
    )
    # Arrival order, bit for bit.
    oracle_buckets = {}
    k = 0
    for nbrs in dense_out:
        if not nbrs:
            continue
        for dst in nbrs:
            oracle_buckets.setdefault(dst, []).append(shares[k])
        k += 1
    for dst, want in oracle_buckets.items():
        got = acc[dst]
        assert [_bits(v) for v in got] == [_bits(v) for v in want], dst
    # Buckets must be fresh list instances (delivery adopts them).
    ids = [id(b) for b in acc if b is not None]
    assert len(ids) == len(set(ids))


def test_affine_matches_scalar_formula_bitwise():
    totals = EDGE_FLOATS + [123.456, 2.0**52 + 0.5]
    scale, shift = 0.85, 0.15
    got = kernels._affine(totals, scale, shift)
    want = [shift + scale * t for t in totals]
    assert [_bits(g) for g in got] == [_bits(w) for w in want]


# ---------------------------------------------------------------------
# Float-edge vertex ids through the min-label kernels, end to end
# ---------------------------------------------------------------------


def _float_edge_graph():
    """Connected graph whose vertex ids are adversarial floats: the
    min-label programs propagate the ids themselves, so label
    comparisons run straight through the subnormal/2**53 regimes."""
    ids = [
        5e-324, -5e-324, 1e-310, 2.0**53, 2.0**53 - 1.0,
        -(2.0**53), 0.0, 1.0, -1.0, 2.0**-1022,
    ]
    g = Graph(directed=False)
    for v in ids:
        g.add_vertex(v)
    for a, b in zip(ids, ids[1:]):
        g.add_edge(a, b)
    g.add_edge(ids[0], ids[-1])
    g.add_edge(ids[2], ids[7])
    return g


@pytest.mark.parametrize("use_combiner", [True, False],
                         ids=["comb", "nocomb"])
@pytest.mark.parametrize("make_program",
                         [WeaklyConnectedComponents, HashMinComponents],
                         ids=["wcc", "hashmin"])
def test_min_label_kernels_bit_exact_on_float_edge_ids(
    make_program, use_combiner
):
    graph = _float_edge_graph()
    comb = MinCombiner if use_combiner else None
    ref = run_serial(graph, make_program, comb, vectorize=False)
    vec = run_serial(graph, make_program, comb, vectorize=True)
    assert canonical(vec) == canonical(ref)
    assert "vectorized" in tiers_of(vec)
    # All labels collapse to the component minimum, bit for bit.
    want = min(v for v in ref.values)
    assert all(_bits(v) == _bits(want) for v in vec.values.values())


# ---------------------------------------------------------------------
# The poisoned control: a re-associated fold must be *caught*
# ---------------------------------------------------------------------


def _reassociated_segment_folder(combine):
    """Mathematically equal, floating-point different: fold each
    destination's messages in *reversed* arrival order."""
    return lambda msgs: reduce(combine, reversed(list(msgs)))


def _reassociated_group_fold(combine, getters, shares):
    columns = [getter(shares) for getter in getters]
    carry = columns[-1]
    for column in reversed(columns[:-1]):
        carry = list(map(combine, carry, column))
    return carry


def test_oracle_catches_reassociated_summation(monkeypatch):
    """Swap both module-level fold seams for reversed-order folds and
    prove the differential harness detects the divergence — i.e. the
    byte-identity oracle is sharp enough to catch exactly the class
    of bug a vectorized summation could introduce.  (Reversal is
    associativity-equivalent: any failure here is purely float
    non-associativity, the thing the kernels promise never to
    exploit.)"""
    graph = erdos_renyi_graph(40, 0.15, seed=1)

    def pagerank():
        return PageRank(num_supersteps=8)

    ref = run_serial(graph, pagerank, SumCombiner, vectorize=False)
    clean = run_serial(graph, pagerank, SumCombiner, vectorize=True)
    assert canonical(clean) == canonical(ref)

    monkeypatch.setattr(
        kernels, "_segment_folder", _reassociated_segment_folder
    )
    monkeypatch.setattr(
        kernels, "_group_fold", _reassociated_group_fold
    )
    poisoned = run_serial(graph, pagerank, SumCombiner, vectorize=True)
    assert canonical(poisoned) != canonical(ref), (
        "the oracle failed to catch a re-associated summation — the "
        "differential harness has lost its bit-level sensitivity"
    )
    if "fork" in multiprocessing.get_all_start_methods():
        # Forked ranks inherit the patched seams: the pool path runs
        # the same fold code, so the oracle must catch it there too.
        pooled = create_engine(
            graph, pagerank(), backend="parallel", num_workers=4,
            combiner=SumCombiner(), track_bppa=True, seed=0,
            mp_start_method="fork",
        ).run()
        assert "vectorized" in tiers_of(pooled)
        assert canonical(pooled) != canonical(ref)
        assert canonical(pooled) == canonical(poisoned)
    # The damage is confined to float values (last-bit drift), which
    # is precisely why byte-level comparison is required: plain
    # approximate equality would have passed.
    for vid, value in poisoned.values.items():
        assert value == pytest.approx(ref.values[vid], rel=1e-9)


def test_monkeypatch_seams_are_the_live_code_paths(monkeypatch):
    """The poisoned control is only meaningful if the kernels really
    route through the module-level seams; spy on both and pin the
    bucket classification, so a refactor that inlines the folds fails
    here instead of silently blunting the control."""
    calls = []
    real_segment_folder = kernels._segment_folder
    real_group_fold = kernels._group_fold

    def spy_segment_folder(combine):
        calls.append("segment")
        return real_segment_folder(combine)

    def spy_group_fold(combine, getters, shares):
        calls.append("group")
        return real_group_fold(combine, getters, shares)

    monkeypatch.setattr(
        kernels, "_segment_folder", spy_segment_folder
    )
    monkeypatch.setattr(kernels, "_group_fold", spy_group_fold)

    # A 3-contributor destination is grouped (<= _GROUP_MAX) and must
    # fire the group seam.
    grouped = kernels._compile_scatter_lane(
        0, 3, [[0], [0], [0]], [0, 0, 0]
    )
    assert grouped.groups and not len(grouped.m_dst)
    acc, cnt = [None], array("q", [0])
    kernels._scatter_combined(
        grouped, [1.0, 2.0, 3.0], acc, cnt, operator.add
    )
    assert calls == ["group"] and acc[0] == 6.0 and cnt[0] == 3

    # A destination fatter than _GROUP_MAX must hit the segment-
    # folder seam instead.
    calls.clear()
    n = kernels._GROUP_MAX + 1
    fat = kernels._compile_scatter_lane(0, n, [[0]] * n, [0] * n)
    assert len(fat.m_dst) and not fat.groups
    acc, cnt = [None], array("q", [0])
    kernels._scatter_combined(
        fat, [1.0] * n, acc, cnt, operator.add
    )
    assert calls == ["segment"] and acc[0] == float(n) and cnt[0] == n
