"""Typed columns: the lane codec, the lane record across every
carrier, and the columns a pool superstep moves over the rank pipe
(``repro.bsp.columns``, ``repro.bsp.fabric``, ``repro.bsp.parallel``)."""

from __future__ import annotations

import math
import pickle
import struct
import tempfile
from array import array
from multiprocessing import Pipe

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.pagerank import PageRank
from repro.bsp.columns import encode_lane, typed_column
from repro.bsp.combiner import Combiner, resolve_combiner
from repro.bsp.engine import create_engine
from repro.bsp.fabric import DenseLane, LaneRecord
from repro.bsp.parallel import _recv_msg, _send_msg
from repro.bsp.worker import Worker
from repro.graph import barabasi_albert_graph, erdos_renyi_graph
from tests.conftest import WORKLOADS, record_buckets
from tests.scatter_reference import adjacency_of
from tests.test_differential_fuzz import canonical


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
# The lane record across its three carriers
# ---------------------------------------------------------------------

NUM_DESTINATIONS = 12


class _KeepLast(Combiner):
    """Folds to the latest message, so a combining lane holds for a
    destination exactly the value a strategy drew (and the number of
    sends)."""

    def combine(self, a, b):
        return b


def _lane(combiner):
    return DenseLane(
        Worker(0), (0, NUM_DESTINATIONS), 0, [], None, adjacency_of([]),
        {i: i for i in range(NUM_DESTINATIONS)}, [0] * NUM_DESTINATIONS,
        combiner,
    )


def _sig(value):
    """Bit- and type-exact identity of one message (``==`` would pass
    ``-0.0`` for ``0.0``, ``True`` for ``1`` and fail ``nan``)."""
    if type(value) is float:
        return float, struct.pack("<d", value)
    return type(value), repr(value)


def _mail(lane):
    """The lane's mail by destination, as signatures."""
    if lane.combine is not None:
        return {
            d: (_sig(m), lane.folded.get(d, 1)) for d, m in lane.mail.items()
        }
    return {d: [_sig(m) for m in bucket] for d, bucket in lane.mail.items()}


def _record_mail(record, combining):
    """A record's entries by destination, as :func:`_mail` signs a
    lane's mail."""
    if combining:
        return {
            d: (_sig(m), n)
            for d, m, n in zip(record.touched, record.payloads, record.counts)
        }
    return {
        d: [_sig(m) for m in bucket] for d, bucket in record_buckets(record)
    }


def _in_memory(record):
    return record


def _spill_file(record):
    with tempfile.TemporaryFile() as fh:
        pickle.dump(record, fh, pickle.HIGHEST_PROTOCOL)
        fh.seek(0)
        return pickle.load(fh)


def _rank_pipe(record):
    """As a pool step carries it: inside the framed pipe message."""
    receiver, sender = Pipe(duplex=False)
    with receiver, sender:
        _send_msg(sender, ("ok", {}, record._asdict()))
        _cmd, _scalars, columns = _recv_msg(receiver)
    return LaneRecord(**columns)


CARRIERS = [_in_memory, _spill_file, _rank_pipe]

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
            st.tuples(st.integers(0, NUM_DESTINATIONS - 1), messages),
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
    enqueue = lane.enqueue
    for dst, message in sends:
        enqueue(None, dst, message)
    before = _mail(lane)
    first_touch = list(dict.fromkeys(dst for dst, _message in sends))
    assert list(before) == first_touch
    held = list(lane.mail.values())
    if combiner is None:
        held = [m for bucket in held for m in bucket]

    record = lane.detach()
    assert lane.mail == {} and lane.folded == {}
    assert list(record.touched) == first_touch
    # Typed as the spill tier and the rank reply carry it.
    record = record._replace(payloads=typed_column(record.payloads))
    floats = all(type(m) is float for m in held)
    ints = all(type(m) is int and -(2**63) <= m < 2**63 for m in held)
    assert (type(record.payloads) is array) == (floats or ints)

    back = _record_mail(carry(record), combiner is not None)
    assert list(back) == first_touch
    assert back == before


# ---------------------------------------------------------------------
# End to end through the engine
# ---------------------------------------------------------------------


def _run(graph, make_prog, natural, num_workers=4, **kw):
    engine = create_engine(
        graph,
        make_prog(),
        combiner=resolve_combiner(natural),
        num_workers=num_workers,
        **kw,
    )
    return engine, engine.run()


@pytest.mark.parametrize("num_workers", [1, 4])
def test_pagerank_moves_only_typed_columns(num_workers):
    # Float values and combined float payloads: every column of every
    # rank, both ways, crosses as a typed array on every superstep.
    graph = barabasi_albert_graph(300, 8, seed=1)
    make_prog = lambda: PageRank(num_supersteps=10)
    _, ref = _run(graph, make_prog, "sum", num_workers, backend="serial")
    engine, res = _run(
        graph, make_prog, "sum", num_workers, backend="parallel"
    )
    assert canonical(res) == canonical(ref)
    assert engine.parallel_supersteps == res.stats.num_supersteps == 11
    assert engine.columnar_supersteps == engine.parallel_supersteps


def test_non_conforming_values_spill_but_stay_identical():
    # BFS-tree's values are dicts: the value column stays a plain list
    # while everything else is typed, and the run must remain
    # byte-identical.
    name, graph, make_prog, natural = next(
        w for w in WORKLOADS if w[0] == "bfs-tree"
    )
    _, ref = _run(graph, make_prog, natural, backend="serial")
    engine, res = _run(graph, make_prog, natural, backend="parallel")
    assert canonical(res) == canonical(ref)
    assert engine.parallel_supersteps > 0
    # The list-typed value column makes these supersteps mixed.
    assert engine.columnar_supersteps == 0


def test_transport_kwarg_validated():
    # "pickle": the pipe is the only transport, not one to ask for.
    graph = erdos_renyi_graph(10, 0.2, seed=1)
    for transport in ("carrier-pigeon", "pickle"):
        with pytest.raises(ValueError, match="transport"):
            create_engine(
                graph,
                PageRank(num_supersteps=2),
                backend="parallel",
                transport=transport,
            )


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
