"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.algorithms.bfs_tree import BFSTree
from repro.algorithms.cc_hashmin import HashMinComponents
from repro.algorithms.pagerank import PageRank
from repro.algorithms.sssp import SingleSourceShortestPaths
from repro.algorithms.wcc import WeaklyConnectedComponents
from repro.bsp import SumAggregator, VertexProgram
from repro.graph import (
    connected_erdos_renyi_graph,
    erdos_renyi_graph,
    path_graph,
    random_tree,
)

# ---------------------------------------------------------------------
# The canonical workload set: one entry per core algorithm, with the
# graph it runs on and the natural combiner for its messages ("sum" /
# "min", resolvable via repro.bsp.combiner.resolve_combiner).  Shared
# by the execution-path equivalence suite and any test that wants to
# sweep "every program we care about".
# ---------------------------------------------------------------------

_WORKLOAD_UNDIRECTED = erdos_renyi_graph(50, 0.10, seed=2)
_WORKLOAD_DIRECTED = erdos_renyi_graph(50, 0.08, seed=5, directed=True)

WORKLOADS = [
    (
        "pagerank",
        _WORKLOAD_UNDIRECTED,
        lambda: PageRank(num_supersteps=12),
        "sum",
    ),
    (
        "sssp",
        _WORKLOAD_UNDIRECTED,
        lambda: SingleSourceShortestPaths(0),
        "min",
    ),
    (
        "wcc",
        _WORKLOAD_DIRECTED,
        lambda: WeaklyConnectedComponents(),
        "min",
    ),
    (
        "hashmin",
        _WORKLOAD_UNDIRECTED,
        lambda: HashMinComponents(),
        "min",
    ),
    ("bfs-tree", _WORKLOAD_UNDIRECTED, lambda: BFSTree(0), "min"),
]


class EdgeTouch(VertexProgram):
    """Edits ``out_edges`` in place, then fans out along them.

    Superstep ``prune_at`` deletes every vertex's first out-edge (at
    0 this is the ROADMAP "Fix first" repro: the lane's compiled row
    used to keep sending along it); superstep ``rewire_at`` replaces
    the first edge by one to another vertex — same row length,
    different row.
    """

    name = "edge-touch"

    def __init__(self, rounds=3, prune_at=0, rewire_at=None):
        self.rounds = rounds
        self.prune_at = prune_at
        self.rewire_at = rewire_at

    def compute(self, v, msgs, ctx):
        step = ctx.superstep
        v.value = len(msgs) if step == 0 else v.value + len(msgs)
        if step == self.prune_at and v.out_edges:
            del v.out_edges[next(iter(v.out_edges))]
        if step == self.rewire_at and v.out_edges:
            del v.out_edges[next(iter(v.out_edges))]
            v.out_edges[(7 * v.id + 3) % ctx.num_vertices] = 1.0
        if step < self.rounds:
            ctx.send_to_neighbors(v, 1)
        else:
            v.vote_to_halt()


class FrontierScript(VertexProgram):
    """Every way a vertex enters or leaves the frontier, with each
    vertex's behaviour drawn from ``seed``.

    A vertex's script is ``(linger, chatty, pick)``: it stays awake
    for ``linger`` supersteps *without mail* before voting to halt, a
    message re-wakes it (and restarts the count), and a ``chatty``
    vertex sends along one seeded out-edge — every fifth one along all
    of them — each time it runs.  Vertex ``actor`` never halts before
    ``horizon``; at ``grow_at`` it adds the vertex ``"born"`` by
    barrier mutation (which must run the next superstep, without
    mail), at ``edit_at`` it deletes its first out-edge in place.
    ``master_compute`` wakes every vertex after superstep ``wake_at``.
    The value ``(runs, total, idle)`` and the ``runs`` aggregate count
    every visit, so a skipped or an extra one changes the result.
    """

    name = "frontier-script"

    def __init__(
        self, seed, horizon=9, actor=0,
        wake_at=None, grow_at=None, edit_at=None,
    ):
        self.seed = seed
        self.horizon = horizon
        self.actor = actor
        self.wake_at = wake_at
        self.grow_at = grow_at
        self.edit_at = edit_at

    def aggregators(self):
        return {"runs": SumAggregator()}

    def initial_value(self, vertex_id, graph):
        return (0, 0, 0)

    def master_compute(self, master):
        if master.superstep == self.wake_at:
            master.activate_all()

    def compute(self, v, msgs, ctx):
        step = ctx.superstep
        rnd = random.Random(f"{self.seed}-{v.id!r}")
        linger, chatty = rnd.randrange(4), rnd.random() < 0.35
        pick = rnd.randrange(1 << 16)
        runs, total, idle = v.value
        idle = 0 if msgs else idle + 1
        v.value = (runs + 1, total + sum(msgs), idle)
        ctx.aggregate("runs", 1)
        acting = v.id == self.actor
        if acting and step == self.grow_at:
            ctx.add_vertex("born", value=(0, 0, 0))
            ctx.add_edge(v.id, "born")
        if acting and step == self.edit_at and v.out_edges:
            del v.out_edges[next(iter(v.out_edges))]
        if step >= self.horizon:
            v.vote_to_halt()
            return
        if chatty and v.out_edges:
            if pick % 5 == 0:
                ctx.send_to_neighbors(v, step + 1)
            else:
                targets = list(v.out_edges)
                ctx.send(targets[(pick + step) % len(targets)], step + 1)
        if idle >= linger and not acting:
            v.vote_to_halt()


@pytest.fixture
def small_path():
    return path_graph(8)


@pytest.fixture
def small_er():
    """A small connected random graph."""
    return connected_erdos_renyi_graph(30, 0.12, seed=7)


@pytest.fixture
def sparse_er():
    """A (possibly disconnected) sparse random graph."""
    return erdos_renyi_graph(40, 0.05, seed=11)


@pytest.fixture
def small_tree():
    return random_tree(25, seed=3)


def assert_same_partition(labels_a, labels_b):
    """Assert two labelings induce the same partition of the keys.

    Component ids are arbitrary (smallest vertex vs root id …), so we
    compare the *partitions* they induce rather than the raw labels.
    """
    assert set(labels_a) == set(labels_b)
    mapping = {}
    reverse = {}
    for key in labels_a:
        a, b = labels_a[key], labels_b[key]
        if a in mapping:
            assert mapping[a] == b, f"partition mismatch at {key!r}"
        else:
            mapping[a] = b
        if b in reverse:
            assert reverse[b] == a, f"partition mismatch at {key!r}"
        else:
            reverse[b] = a
