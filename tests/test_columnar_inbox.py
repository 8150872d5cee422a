"""The dense plane's inbox is columns, not one list per destination.

Delivery appends every destination's messages to one flat column and
records their offset and count by position, so the objects the cyclic
garbage collector tracks for an inbox are a handful of lists, whatever
the number of destinations.  Pinned here, host-independently:

* **objects**: after a PageRank delivery on a 2000-vertex
  Barabási–Albert graph, the GC-tracked objects reachable from the
  fabric's inbox — and from a pool rank's inbox while its pass runs —
  number O(1), where one list per destination would be ~2000;
* **order**: a delivery that puts one destination's messages in the
  wrong worker order must be caught by the oracle differential.
"""

from __future__ import annotations

import gc
from collections import defaultdict
from itertools import chain

import pytest

from repro.algorithms.pagerank import PageRank
from repro.bsp import VertexProgram, create_engine
from repro.bsp import parallel
from repro.bsp.combiner import SumCombiner
from repro.bsp.fabric import MessageFabric
from repro.errors import BSPError
from repro.graph import barabasi_albert_graph
from tests.conftest import plain_record
from tests.test_differential_fuzz import _assert_same_runs, _run_case

#: Generous for the four inbox columns; one list per destination
#: would be ~2000 here.
MAX_TRACKED = 8


def _tracked_reachable(roots) -> int:
    """How many GC-tracked objects are reachable from ``roots``, not
    counting (or following) classes: a typed column refers to its
    ``array`` type, which is not part of the inbox."""
    seen = set()
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        if not gc.is_tracked(obj):
            continue
        seen.add(id(obj))
        stack.extend(gc.get_referents(obj))
    return len(seen)


def _inbox(holder, names):
    """The inbox of a fabric or a lane: every attribute named
    ``in_*``."""
    return [getattr(holder, n) for n in names if n.startswith("in_")]


@pytest.fixture(scope="module")
def ba_graph():
    return barabasi_albert_graph(2000, 8, seed=1)


def test_fabric_inbox_holds_no_container_per_destination(
    ba_graph, monkeypatch
):
    engine = create_engine(
        ba_graph, PageRank(num_supersteps=3), combiner=SumCombiner(),
        num_workers=2, track_bppa=False,
    )
    fabric = engine._fabric
    counts = []
    deliver = MessageFabric.deliver_fast

    def counting(self, superstep, mutated):
        delivered = deliver(self, superstep, mutated)
        counts.append(
            (delivered, _tracked_reachable(_inbox(self, vars(self))))
        )
        return delivered

    monkeypatch.setattr(MessageFabric, "deliver_fast", counting)
    engine.run()
    assert len(counts) == 4
    for delivered, tracked in counts[:-1]:
        assert delivered >= ba_graph.num_vertices
        assert tracked <= MAX_TRACKED, (delivered, tracked)
    assert fabric.in_msgs == []  # the last pass drained it


def test_rank_inbox_holds_no_container_per_destination(
    ba_graph, monkeypatch
):
    """The ranks of a pool, stepped in-process: superstep 0 seeds the
    mail, superstep 1 is counted while each rank's pass runs."""
    engine = create_engine(
        ba_graph, PageRank(num_supersteps=3), backend="parallel",
        combiner=SumCombiner(), num_workers=2, track_bppa=False,
    )
    parts = [
        parallel._PartitionRuntime(rank, engine._init_payload(rank))
        for rank in range(2)
    ]
    owner_of = parts[0].lane.owner_of
    mail = defaultdict(list)
    for part in parts:
        _scalars, columns = part.step(
            0, True, {}, [plain_record([], [])], None, None
        )
        for slot, message in zip(columns["touched"], columns["payloads"]):
            mail[slot].append(message)
    inbound = [([], []) for _ in parts]
    for slot, messages in mail.items():
        slots, buckets = inbound[owner_of[slot]]
        slots.append(slot)
        buckets.append(messages)
    counted = []
    lane_pass = parallel.lane_compute_pass

    def counting(host, lane, *args):
        names = type(lane).__slots__
        counted.append(_tracked_reachable(_inbox(lane, names)))
        return lane_pass(host, lane, *args)

    monkeypatch.setattr(parallel, "lane_compute_pass", counting)
    for rank, part in enumerate(parts):
        scalars, _columns = part.step(
            1, False, {}, [plain_record(*inbound[rank])],
            None, None,
        )
        assert scalars["active"] == len(part.states)
    assert len(counted) == 2
    assert max(counted) <= MAX_TRACKED, counted
    assert sum(len(slots) for slots, _ in inbound) == ba_graph.num_vertices


class RecordOrder(VertexProgram):
    """Each vertex keeps the ids it heard from, in arrival order — so
    any reordering of one destination's messages changes a value."""

    name = "record-order"

    def compute(self, v, msgs, ctx):
        if ctx.superstep == 0:
            v.value = ()
            ctx.send_to_neighbors(v, v.id)
        else:
            v.value = v.value + tuple(msgs)
            if ctx.superstep < 3:
                ctx.send_to_neighbors(v, v.id)
            else:
                v.vote_to_halt()


def _assert_oracle_agrees(graph):
    recipe = {"use_combiner": False}
    results = {
        backend: _run_case(
            graph, RecordOrder, None, recipe, backend, 2, None
        )[1]
        for backend in ("reference", "fast")
    }
    _assert_same_runs(results, "poisoned control")


def test_poisoned_control_worker_order_is_caught(monkeypatch):
    """Swap the two workers' blocks of one destination's messages
    after delivery: the oracle differential must notice."""
    graph = barabasi_albert_graph(200, 4, seed=3)
    _assert_oracle_agrees(graph)  # sound before the poison
    deliver = MessageFabric.deliver_fast
    poisoned = []

    def held(part):
        """``{destination: messages}`` of the record a lane handed the
        barrier (no combiner here: one count per message)."""
        if part is None or part[1] is None:
            return {}
        record = part[1]
        return dict(zip(record.touched, record.counts))

    def reordering(self, superstep, mutated):
        # The first destination both workers wrote to, in the merged
        # first-touch order, and how many messages worker 0 holds for
        # it.
        first, second = (held(part) for part in self.parts[:2])
        dirty = dict.fromkeys(chain.from_iterable(
            part[0] for part in self.parts if part is not None
        ))
        target = next(
            (
                (dst, first[dst])
                for dst in dirty
                if dst in first and dst in second
            ),
            None,
        )
        delivered = deliver(self, superstep, mutated)
        if target is not None and not poisoned:
            dst, head = target
            lo = self.in_start[dst]
            hi = lo + self.in_count[dst]
            msgs = self.in_msgs
            msgs[lo:hi] = msgs[lo + head:hi] + msgs[lo:lo + head]
            poisoned.append(dst)
        return delivered

    monkeypatch.setattr(MessageFabric, "deliver_fast", reordering)
    with pytest.raises((AssertionError, BSPError)):
        _assert_oracle_agrees(graph)
    assert poisoned
