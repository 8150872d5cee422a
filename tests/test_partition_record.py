"""The partition is recorded once: the fabric's dense index.

Which worker owns which vertex, and in what order it runs them, is
``MessageFabric.dense`` and nothing else.  After every run — through
barrier removals and additions, a vertex removed and re-added at one
barrier, and a crash rolled back across a mutating barrier — the
dense index cut at its ranges must be the oracle's per-worker id
lists (``tests/oracle.py``), whose workers run their ids in graph
order, then in the order barriers added them.  String ids reach their
owner through ``stable_hash``, so this suite also runs under two
``PYTHONHASHSEED`` salts in CI.
"""

import pickle

import pytest

from repro.bsp import VertexProgram, create_engine, crash_plan
from repro.graph import Graph, erdos_renyi_graph

from tests.oracle import _Interpreter


class Churn(VertexProgram):
    """Gossip over a topology that changes at barriers 1 and 2.

    The anchor (the first vertex) removes some vertices, adds fresh
    ones wired to itself, and at barrier 1 removes and re-adds one
    vertex (removals apply first, so it comes back with no edges,
    last on its worker).  Every vertex sends to its neighbours each
    superstep, so mail to removed vertices is in flight."""

    name = "churn"

    def __init__(self, ids, fresh):
        self.anchor, self.reborn = ids[0], ids[2]
        self.leave = {1: ids[1::5], 2: ids[3::7]}
        self.join = {1: fresh[:3], 2: fresh[3:]}

    def initial_value(self, vertex_id, graph):
        return 0

    def compute(self, v, msgs, ctx):
        if ctx.superstep >= 4:
            v.vote_to_halt()
            return
        v.value += len(msgs)
        ctx.send_to_neighbors(v, 1)
        step = ctx.superstep
        if v.id != self.anchor or step not in self.leave:
            return
        for vid in self.leave[step]:
            ctx.remove_vertex(vid)
        if step == 1:
            ctx.remove_vertex(self.reborn)
            ctx.add_vertex(self.reborn, value=0)
        for vid in self.join[step]:
            ctx.add_vertex(vid, value=0)
            ctx.add_edge(v.id, vid)
            ctx.add_edge(vid, v.id)


def _inputs(kind):
    """A graph with ``kind`` ids, and five fresh ids of that kind."""
    source = erdos_renyi_graph(36, 0.12, seed=7)
    if kind == "int":
        return source, list(range(100, 105))
    name = "v{}".format
    graph = Graph(directed=source.directed)
    for v in source.vertices():
        graph.add_vertex(name(v))
    for u, v in source.edges():
        graph.add_edge(name(u), name(v))
    return graph.freeze(), [f"new{i}" for i in range(5)]


#: (checkpoint interval, crash superstep): rolled back to the baseline
#: across barrier 1's mutation, and to a checkpoint taken after it
#: across barrier 2's.
FAULTS = {
    "none": None, "crash-to-baseline": (3, 2), "crash-to-mutated": (2, 3),
}


@pytest.mark.parametrize("fault", list(FAULTS))
@pytest.mark.parametrize("backend", ["serial", "parallel"])
@pytest.mark.parametrize("workers", [1, 2, 4, 7])
@pytest.mark.parametrize("kind", ["int", "str"])
def test_the_dense_index_is_the_oracles_partition(
    kind, workers, backend, fault
):
    graph, fresh = _inputs(kind)
    ids = list(graph.vertices())
    kwargs = {}
    if FAULTS[fault] is not None:
        interval, superstep = FAULTS[fault]
        kwargs = dict(
            checkpoint_interval=interval,
            fault_plan=crash_plan(superstep=superstep, seed=1),
        )
    engine = create_engine(
        graph, Churn(ids, fresh), backend=backend, num_workers=workers,
        **kwargs,
    )
    result = engine.run()
    if kwargs:
        assert result.stats.recovery_attempts == 1
    if backend == "parallel":  # the pool ran until the first mutation
        assert engine.parallel_supersteps >= 1
    oracle = _Interpreter(graph, Churn(ids, fresh), workers, None, 0)
    expected = oracle.run()
    dense = engine._fabric.dense
    assert [dense.id_of[a:b] for a, b in dense.ranges] == oracle.ids
    assert pickle.dumps(result.values) == pickle.dumps(expected.values)
    # The run moved vertices between and within workers.
    assert sorted(map(str, dense.id_of)) != sorted(map(str, ids))
