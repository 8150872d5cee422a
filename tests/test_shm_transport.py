"""The shared-memory columnar transport: lane codec, segment
lifecycle, the lane record and the effect-set codec across every
carrier, end-to-end byte identity, per-column degradation, and leak
hygiene (``repro.bsp.shm_transport``, ``repro.bsp.fabric``)."""

from __future__ import annotations

import math
import os
import pickle
import struct
import tempfile
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.pagerank import PageRank
from repro.bsp import shm_transport
from repro.bsp.combiner import Combiner, resolve_combiner
from repro.bsp.engine import create_engine
from repro.bsp.fabric import DenseLane, LaneRecord
from repro.bsp.shm_transport import (
    DOWN_LANES,
    SEG_PREFIX,
    UP_LANES,
    ColumnarSegment,
    encode_lane,
    sweep_leaked_segments,
)
from repro.bsp.worker import Worker
from repro.graph import barabasi_albert_graph, erdos_renyi_graph
from tests.conftest import WORKLOADS
from tests.test_differential_fuzz import canonical


def _repro_segments():
    try:
        return [
            n for n in os.listdir("/dev/shm")
            if n.startswith(SEG_PREFIX)
        ]
    except OSError:  # pragma: no cover - non-/dev/shm platform
        return []


# ---------------------------------------------------------------------
# Lane codec
# ---------------------------------------------------------------------


class TestEncodeLane:
    def test_float_lane_is_bit_exact(self):
        vals = [
            0.15,
            -0.0,
            float("inf"),
            float("-inf"),
            float("nan"),
            5e-324,
            1.7976931348623157e308,
        ]
        code, column = encode_lane(vals)
        assert code == "d"
        back = column.tolist()
        # Bit-level comparison: NaN != NaN under ==, and -0.0 == 0.0
        # would mask a sign flip.
        assert [
            math.copysign(1.0, v) if v == 0 else v for v in back
        ] == pytest.approx(
            [math.copysign(1.0, v) if v == 0 else v for v in vals],
            nan_ok=True,
        )
        assert [pickle.dumps(v) for v in back] == [
            pickle.dumps(v) for v in vals
        ]

    def test_int_lane_roundtrips(self):
        vals = [0, -1, 2**62, -(2**62), 41]
        code, column = encode_lane(vals)
        assert code == "q"
        assert column.tolist() == vals

    def test_empty_lane_encodes(self):
        code, column = encode_lane([])
        assert len(column) == 0

    def test_rejects_mixed_types(self):
        assert encode_lane([1, 2.0]) is None

    def test_rejects_bools(self):
        # True pickles differently from 1; coercing it into an int64
        # lane would break byte identity.
        assert encode_lane([True, False]) is None
        assert encode_lane([1, True]) is None

    def test_rejects_non_numeric(self):
        assert encode_lane(["a", "b"]) is None
        assert encode_lane([(1, 2)]) is None
        assert encode_lane([{"depth": 0}]) is None
        assert encode_lane([None]) is None

    def test_rejects_out_of_range_ints(self):
        assert encode_lane([2**63]) is None
        assert encode_lane([0, -(2**63) - 1]) is None


# ---------------------------------------------------------------------
# Segment lifecycle
# ---------------------------------------------------------------------


class TestColumnarSegment:
    def test_write_read_roundtrip_via_attachment(self):
        seg = ColumnarSegment(
            10, [(0, 5), (5, 10)], combining=True, tracking=True
        )
        try:
            other = ColumnarSegment.attach(seg.descriptor)
            try:
                floats = array("d", [0.5, -1.25, float("inf")])
                ints = array("q", [3, -7, 2**40])
                seg.write(1, "up_values", floats)
                seg.write(1, "up_executed", ints)
                assert other.read(1, "up_values", "d", 3) == floats
                assert other.read(1, "up_executed", "q", 3) == ints
                # Ranks' lanes do not alias each other.
                assert other.read(0, "up_values", "d", 3) == array(
                    "d", [0.0, 0.0, 0.0]
                )
            finally:
                other.close()
        finally:
            seg.destroy()

    def test_attach_reconstructs_identical_layout(self):
        seg = ColumnarSegment(
            8, [(0, 8)], combining=False, tracking=False
        )
        try:
            other = ColumnarSegment.attach(seg.descriptor)
            assert other._offsets == seg._offsets
            assert other.size == seg.size
            other.close()
        finally:
            seg.destroy()

    def test_write_overflow_raises_never_truncates(self):
        seg = ColumnarSegment(
            4, [(0, 4)], combining=False, tracking=False
        )
        try:
            cap = seg.cap(0, "up_executed")
            with pytest.raises(ValueError):
                seg.write(
                    0, "up_executed", array("q", [0] * (cap + 1))
                )
        finally:
            seg.destroy()

    def test_close_and_unlink_are_idempotent(self):
        seg = ColumnarSegment(
            4, [(0, 4)], combining=False, tracking=False
        )
        name = seg.name
        seg.destroy()
        seg.destroy()
        seg.close()
        seg.unlink()
        assert name not in _repro_segments()

    def test_segment_names_carry_creator_pid(self):
        seg = ColumnarSegment(
            4, [(0, 4)], combining=False, tracking=False
        )
        try:
            assert seg.name.startswith(SEG_PREFIX)
            pid_hex = seg.name[len(SEG_PREFIX):].split("_")[0]
            assert int(pid_hex, 16) == os.getpid()
        finally:
            seg.destroy()


def test_sweep_reaps_dead_pid_segments_only():
    # A segment "created" by a certainly-dead pid must be swept; a
    # live-pid segment (ours) must survive.
    dead_pid = 0x7FFFFFF0
    with pytest.raises(OSError):
        os.kill(dead_pid, 0)
    from multiprocessing import resource_tracker, shared_memory

    leaked = shared_memory.SharedMemory(
        name=f"{SEG_PREFIX}{dead_pid:x}_deadbeef",
        create=True,
        size=64,
    )
    # Simulate the creator's death: its resource tracker would have
    # died with it, so retire this process's registration up front
    # (otherwise the tracker warns about the already-swept name at
    # interpreter exit).
    resource_tracker.unregister(leaked._name, "shared_memory")
    leaked.close()
    live = ColumnarSegment(
        4, [(0, 4)], combining=False, tracking=False
    )
    try:
        removed = sweep_leaked_segments()
        assert f"{SEG_PREFIX}{dead_pid:x}_deadbeef" in removed
        assert live.name in _repro_segments()
    finally:
        live.destroy()
    assert f"{SEG_PREFIX}{dead_pid:x}_deadbeef" not in (
        _repro_segments()
    )


# ---------------------------------------------------------------------
# The lane record across its four carriers
# ---------------------------------------------------------------------

NUM_SLOTS = 12


class _KeepLast(Combiner):
    """Folds to the latest message, so a combining slot holds exactly
    the value a strategy drew (and ``cnt`` the number of sends)."""

    def combine(self, a, b):
        return b


def _lane(combiner):
    worker = Worker(0)
    worker.range_start, worker.range_stop = 0, NUM_SLOTS
    return DenseLane(
        worker, 0, [], None, [], [],
        {i: i for i in range(NUM_SLOTS)}, [0] * NUM_SLOTS, combiner,
    )


def _sig(value):
    """Bit- and type-exact identity of one message (``==`` would pass
    ``-0.0`` for ``0.0``, ``True`` for ``1`` and fail ``nan``)."""
    if type(value) is float:
        return float, struct.pack("<d", value)
    return type(value), repr(value)


def _slots(lane):
    """Occupied slots of the lane's accumulators, as signatures."""
    out = {}
    for d in range(NUM_SLOTS):
        if lane.cnt is not None:
            if lane.cnt[d]:
                out[d] = (_sig(lane.acc[d]), lane.cnt[d])
        elif lane.acc[d] is not None:
            out[d] = [_sig(m) for m in lane.acc[d]]
    return out


def _in_memory(record):
    return record


def _spill_file(record):
    with tempfile.TemporaryFile() as fh:
        pickle.dump(record, fh, pickle.HIGHEST_PROTOCOL)
        fh.seek(0)
        return pickle.load(fh)


def _through_codec(seg, record):
    columns, _ = shm_transport.decode_reply(
        seg, 0, shm_transport.encode_reply(seg, 0, record._asdict())
    )
    return LaneRecord(**columns)


def _segment(record):
    seg = ColumnarSegment(
        NUM_SLOTS, [(0, NUM_SLOTS)], combining=True, tracking=False
    )
    try:
        return _through_codec(seg, record)
    finally:
        seg.destroy()


def _header_only(record):
    return _through_codec(None, record)


CARRIERS = [_in_memory, _spill_file, _segment, _header_only]

_FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [-0.0, float("nan"), float("inf"), float("-inf")]
)
_INTS = st.integers(-(2**63), 2**63 - 1)
_ANYTHING = st.one_of(
    _FLOATS,
    _INTS,
    st.integers(2**63, 2**70),
    st.booleans(),
    st.none(),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)
#: A lane's sends, ``(destination, message)`` in send order: all
#: floats or all in-range ints (typed columns), or anything (mixed).
_SENDS = st.one_of(
    *(
        st.lists(
            st.tuples(st.integers(0, NUM_SLOTS - 1), messages),
            max_size=40,
        )
        for messages in (_FLOATS, _INTS, _ANYTHING)
    )
)


@pytest.mark.parametrize("carry", CARRIERS)
@pytest.mark.parametrize(
    "combiner", [_KeepLast(), None], ids=["combining", "plain"]
)
@settings(max_examples=60, deadline=None)
@given(sends=_SENDS)
def test_lane_record_round_trips_every_carrier(carry, combiner, sends):
    lane = _lane(combiner)
    for dst, message in sends:
        lane.enqueue(None, dst, message)
    before = _slots(lane)
    assert list(before) == sorted(set(lane.touched))
    held = [lane.acc[d] for d in lane.touched]
    if combiner is None:
        held = [m for bucket in held for m in bucket]

    record = lane.detach(lane.touched)
    assert _slots(lane) == {}
    assert record.touched.tolist() == lane.touched
    floats = all(type(m) is float for m in held)
    ints = all(type(m) is int and -(2**63) <= m < 2**63 for m in held)
    assert (type(record.payloads) is array) == (floats or ints)

    lane.adopt(carry(record))
    assert _slots(lane) == before


def _effect_columns(n):
    """One column per name of the effect set, ``n`` entries each."""
    ints = array("q", range(n))
    floats = array("d", (i / 7 for i in range(n)))
    columns = {key: ints for key in UP_LANES}
    columns.update(values=floats, payloads=floats, agg_val=floats)
    return columns


def _same_columns(found, want):
    assert found.keys() == want.keys()
    for key, column in want.items():
        assert type(found[key]) is type(column), key
        assert found[key] == column, key


class TestEffectSetCodec:
    def test_every_column_in_segment(self):
        seg = ColumnarSegment(64, [(0, 64)], combining=True, tracking=True)
        try:
            columns = _effect_columns(5)
            placed, pipe = shm_transport.encode_reply(seg, 0, columns)
            assert set(placed) == set(UP_LANES) and not pipe
            found, columnar = shm_transport.decode_reply(
                seg, 0, (placed, pipe)
            )
            assert columnar
            _same_columns(found, columns)
        finally:
            seg.destroy()

    def test_tiny_capacity_forces_every_column_to_the_header(self):
        # A one-slot layout: every lane is shorter than its column
        # (the data lane's floor is 1024 slots, the aggregate lanes'
        # 256).
        seg = ColumnarSegment(1, [(0, 1)], combining=True, tracking=True)
        try:
            columns = _effect_columns(1025)
            placed, pipe = shm_transport.encode_reply(seg, 0, columns)
            assert not placed and set(pipe) == set(UP_LANES)
            found, columnar = shm_transport.decode_reply(
                seg, 0, (placed, pipe)
            )
            assert not columnar
            _same_columns(found, columns)
        finally:
            seg.destroy()

    def test_untyped_and_laneless_columns_ride_the_header(self):
        seg = ColumnarSegment(64, [(0, 64)], combining=True, tracking=False)
        try:
            columns = _effect_columns(5)
            columns["values"] = [{"depth": 0}, None, 2**70, True, -0.0]
            columns["mutations"] = ("a mutation log",)
            placed, pipe = shm_transport.encode_reply(seg, 0, columns)
            # No tracker lanes in this layout either.
            assert set(pipe) == {
                "values", "mutations",
                "tr_sent", "tr_recv", "tr_ops", "tr_size",
            }
            found, columnar = shm_transport.decode_reply(
                seg, 0, (placed, pipe)
            )
            assert not columnar
            _same_columns(found, columns)
        finally:
            seg.destroy()

    def test_no_segment_is_the_same_reply_all_in_the_header(self):
        columns = _effect_columns(5)
        placed, pipe = shm_transport.encode_reply(None, 0, columns)
        assert not placed
        found, columnar = shm_transport.decode_reply(
            None, 0, (placed, pipe)
        )
        assert not columnar
        _same_columns(found, columns)

    def test_inbound_batch_both_ways(self):
        record = LaneRecord.from_buckets(
            [3, 1], [[0.5, -0.0], [float("inf")]]
        )
        seg = ColumnarSegment(8, [(0, 8)], combining=False, tracking=False)
        try:
            for carrier in (seg, None):
                wire = shm_transport.encode_inbound(
                    carrier, 0, record._asdict()
                )
                assert set(wire[0]) == (
                    set(DOWN_LANES) if carrier else set()
                )
                columns, columnar = shm_transport.decode_inbound(
                    carrier, 0, wire
                )
                assert columnar == (carrier is not None)
                assert [
                    (d, [_sig(m) for m in msgs])
                    for d, msgs in LaneRecord(**columns).buckets()
                ] == [
                    (3, [_sig(0.5), _sig(-0.0)]),
                    (1, [_sig(float("inf"))]),
                ]
        finally:
            seg.destroy()


# ---------------------------------------------------------------------
# End to end through the engine
# ---------------------------------------------------------------------


def _run(graph, make_prog, natural, **kw):
    engine = create_engine(
        graph,
        make_prog(),
        combiner=resolve_combiner(natural),
        num_workers=4,
        **kw,
    )
    return engine, engine.run()


def _boundary_bytes(result):
    return sum(w.total_payload_bytes for w in (result.stats.wall or []))


def test_columnar_pagerank_identical_and_smaller():
    # (graph, floor on pickle / columnar boundary bytes).  The pipe
    # carries a near-constant header per rank on the columnar tier
    # and every column on the pickle tier, so the ratio grows with the
    # edge count: 7x on the 60-vertex graph, 32x on Barabasi-Albert
    # (300, k=8), where the floor is the 10x the transport promises.
    cases = [
        (erdos_renyi_graph(60, 0.10, seed=3), 1),
        (barabasi_albert_graph(300, 8, seed=1), 10),
    ]
    make_prog = lambda: PageRank(num_supersteps=10)
    for graph, min_reduction in cases:
        _, ref = _run(graph, make_prog, "sum", backend="serial")
        shm_engine, shm_res = _run(
            graph, make_prog, "sum", backend="parallel",
            transport="columnar",
        )
        pik_engine, pik_res = _run(
            graph, make_prog, "sum", backend="parallel",
            transport="pickle",
        )
        assert canonical(shm_res) == canonical(ref)
        assert canonical(pik_res) == canonical(ref)
        assert shm_engine.transport_tier == "columnar"
        assert shm_engine.transport_disabled_reason is None
        # Float values + combined float payloads: every pool
        # superstep crosses fully columnar.
        assert shm_engine.columnar_supersteps > 0
        assert (
            shm_engine.columnar_supersteps
            == shm_engine.parallel_supersteps
        )
        assert shm_engine.pickle_supersteps == 0
        # The point of the transport: fewer serialized boundary bytes.
        assert (
            _boundary_bytes(shm_res) * min_reduction
            < _boundary_bytes(pik_res)
        )


def test_every_workload_identical_on_both_transports():
    for name, graph, make_prog, natural in WORKLOADS:
        _, ref = _run(graph, make_prog, natural, backend="serial")
        _, shm_res = _run(
            graph, make_prog, natural, backend="parallel",
            transport="columnar",
        )
        _, pik_res = _run(
            graph, make_prog, natural, backend="parallel",
            transport="pickle",
        )
        assert canonical(shm_res) == canonical(ref), name
        assert canonical(pik_res) == canonical(ref), name


def test_non_conforming_values_spill_but_stay_identical():
    # BFS-tree's values are dicts: the value column must degrade to
    # the pickled spill while everything else stays columnar, and the
    # run must remain byte-identical.
    name, graph, make_prog, natural = next(
        w for w in WORKLOADS if w[0] == "bfs-tree"
    )
    _, ref = _run(graph, make_prog, natural, backend="serial")
    engine, res = _run(
        graph, make_prog, natural, backend="parallel",
        transport="columnar",
    )
    assert canonical(res) == canonical(ref)
    assert engine.transport_tier == "columnar"
    assert engine.parallel_supersteps > 0
    # The spilled value column makes these supersteps mixed-tier.
    assert engine.columnar_supersteps == 0
    assert engine.pickle_supersteps == engine.parallel_supersteps


def test_pickle_transport_creates_no_segment():
    graph = erdos_renyi_graph(40, 0.1, seed=5)
    before = set(_repro_segments())
    engine, _ = _run(
        graph,
        lambda: PageRank(num_supersteps=5),
        "sum",
        backend="parallel",
        transport="pickle",
    )
    assert engine._segment is None
    assert set(_repro_segments()) == before


def test_no_shared_memory_runs_the_same_reply_over_the_pipe(monkeypatch):
    # Segment creation fails on the coordinator: the pool must still
    # run, every column in the pipe header, and leak nothing.
    def unavailable(*args, **kwargs):
        raise OSError("no shared memory here")

    monkeypatch.setattr(shm_transport, "ColumnarSegment", unavailable)
    graph = erdos_renyi_graph(40, 0.1, seed=5)
    make_prog = lambda: PageRank(num_supersteps=5)
    before = set(_repro_segments())
    _, ref = _run(graph, make_prog, "sum", backend="serial")
    engine, res = _run(
        graph, make_prog, "sum", backend="parallel",
        transport="columnar",
    )
    assert canonical(res) == canonical(ref)
    assert engine.parallel_disabled_reason is None
    assert engine.parallel_supersteps > 0
    assert engine.transport_tier == "pickle"
    assert "OSError" in engine.transport_disabled_reason
    assert "no shared memory here" in engine.transport_disabled_reason
    assert engine.columnar_supersteps == 0
    assert engine.pickle_supersteps == engine.parallel_supersteps
    assert set(_repro_segments()) == before


def test_auto_is_columnar():
    graph = erdos_renyi_graph(30, 0.1, seed=5)
    engine, _ = _run(
        graph,
        lambda: PageRank(num_supersteps=4),
        "sum",
        backend="parallel",
    )
    assert engine.transport_tier == "columnar"
    assert engine.columnar_supersteps > 0


def test_transport_kwarg_validated():
    graph = erdos_renyi_graph(10, 0.2, seed=1)
    with pytest.raises(ValueError, match="transport"):
        create_engine(
            graph,
            PageRank(num_supersteps=2),
            backend="parallel",
            transport="carrier-pigeon",
        )


def test_clean_run_leaves_no_segments():
    graph = erdos_renyi_graph(40, 0.1, seed=7)
    before = set(_repro_segments())
    _run(
        graph,
        lambda: PageRank(num_supersteps=5),
        "sum",
        backend="parallel",
        transport="columnar",
    )
    assert set(_repro_segments()) == before


def test_payload_bytes_exposed_per_superstep():
    graph = erdos_renyi_graph(40, 0.1, seed=7)
    _, res = _run(
        graph,
        lambda: PageRank(num_supersteps=5),
        "sum",
        backend="parallel",
        transport="columnar",
    )
    assert res.stats.wall
    for wall in res.stats.wall:
        assert wall.payload_bytes is not None
        assert len(wall.payload_bytes) == 4
        assert wall.total_payload_bytes > 0
    # Serial runs cross no process boundary.
    _, ser = _run(graph, lambda: PageRank(num_supersteps=5), "sum",
                  backend="serial")
    assert all(w.total_payload_bytes == 0 for w in ser.stats.wall)
