"""One frozen CSR topology per run.

Every run's adjacency is one immutable ``CsrSnapshot`` — the caller's,
or the input ``Graph`` frozen at construction — and a vertex gets its
``out_edges``/``in_edges`` dicts only when the per-vertex tier first
runs its lane (or a mutation edits its row).  Pinned here:

* **never built**: the vectorized tiers, the BPPA tracker feed and the
  checkpoint baseline read the columns, so a vectorized run leaves
  every row on the frozen topology, serially and on the pool;
* **copy semantics**: editing the input graph after ``create_engine``
  does not reach the run;
* **a real dict**: a program sees the same private dict on every
  visit, and its in-place edits survive a checkpoint and a rollback
  exactly as the oracle says;
* **only what it edits**: a barrier mutation materializes the rows it
  edits and no other, and ``TopologySnapshot.holds`` judges a
  materialized row by its frozen row;
* **memory**: building an engine costs a bounded number of bytes per
  directed edge, which the per-vertex dict copies did not meet.

``REPRO_FUZZ_WORKERS`` narrows the pool's worker counts, as in the
differential fuzz matrix.
"""

from __future__ import annotations

import gc
import os
import pickle
import tracemalloc
from functools import partial

import pytest

from repro.algorithms.cc_hashmin import HashMinComponents
from repro.algorithms.degree import DegreeCentrality
from repro.algorithms.pagerank import PageRank
from repro.bsp import (
    PregelEngine,
    SumCombiner,
    VertexProgram,
    create_engine,
    crash_plan,
    fabric as fabric_module,
)
from repro.bsp.checkpoint import take_checkpoint
from repro.bsp.state import apply_mutations
from repro.graph import (
    Graph,
    barabasi_albert_graph,
    erdos_renyi_graph,
)
from tests.conftest import EdgeTouch, assert_held_to_oracle, oracle_result

WORKER_COUNTS = [2]
_env = os.environ.get("REPRO_FUZZ_WORKERS")
if _env:
    WORKER_COUNTS = [int(w) for w in _env.split(",") if w.strip()]

UNDIRECTED = erdos_renyi_graph(60, 0.1, seed=3)
DIRECTED = erdos_renyi_graph(60, 0.08, seed=4, directed=True)


def _materialized(engine):
    return [
        vid for vid, state in engine._store.states.items()
        if state.out_edges is not None or state.in_edges is not None
    ]


def _materializations(monkeypatch):
    """Record the vertex count of every lane materialization."""
    calls = []
    original = fabric_module.edge_dicts

    def recording(rows):
        calls.append(len(rows[0][0]))
        return original(rows)

    monkeypatch.setattr(fabric_module, "edge_dicts", recording)
    return calls


# ---------------------------------------------------------------------
# Vectorized runs never build an edge dict
# ---------------------------------------------------------------------

VECTORIZED = [
    ("pagerank", UNDIRECTED, lambda: PageRank(num_supersteps=6)),
    ("pagerank-directed", DIRECTED, lambda: PageRank(num_supersteps=6)),
    ("degree", UNDIRECTED, DegreeCentrality),
    ("degree-directed", DIRECTED, DegreeCentrality),
]


@pytest.mark.parametrize("track_bppa", [False, True], ids=["plain", "bppa"])
@pytest.mark.parametrize(
    "name,graph,make", VECTORIZED, ids=[v[0] for v in VECTORIZED]
)
def test_serial_vectorized_run_builds_no_row(
    monkeypatch, name, graph, make, track_bppa
):
    calls = _materializations(monkeypatch)
    engine = create_engine(
        graph, make(), combiner=SumCombiner(), num_workers=3,
        track_bppa=track_bppa,
    )
    result = engine.run()
    assert {w.kernel_tier for w in result.stats.wall} == {"vectorized"}
    assert _materialized(engine) == []
    assert calls == []
    oracle = oracle_result(
        graph, make(), num_workers=3, combiner=SumCombiner()
    )
    if track_bppa:  # the oracle always tracks
        assert_held_to_oracle(result, oracle)
    assert pickle.dumps(result.values) == pickle.dumps(oracle.values)


@pytest.mark.parametrize("num_workers", WORKER_COUNTS)
@pytest.mark.parametrize("track_bppa", [False, True], ids=["plain", "bppa"])
@pytest.mark.parametrize(
    "name,graph,make", VECTORIZED, ids=[v[0] for v in VECTORIZED]
)
def test_pool_vectorized_run_builds_no_row(
    name, graph, make, track_bppa, num_workers
):
    engine = create_engine(
        graph, make(), backend="parallel", combiner=SumCombiner(),
        num_workers=num_workers, track_bppa=track_bppa,
    )
    result = engine.run()
    assert engine.parallel_disabled_reason is None
    assert engine.parallel_supersteps == result.num_supersteps
    assert _materialized(engine) == []
    serial = create_engine(
        graph, make(), combiner=SumCombiner(), num_workers=num_workers,
        track_bppa=track_bppa,
    ).run()
    assert pickle.dumps(result.values) == pickle.dumps(serial.values)
    assert result.bppa == serial.bppa


@pytest.mark.parametrize("track_bppa", [False, True], ids=["plain", "bppa"])
def test_hashmin_builds_rows_only_on_its_per_vertex_superstep(
    monkeypatch, track_bppa
):
    # Superstep 0 (candidate gathering) is per-vertex by design and
    # materializes each lane once; every later superstep is the
    # vectorized min-propagation kernel and builds nothing.
    calls = _materializations(monkeypatch)
    engine = create_engine(
        UNDIRECTED, HashMinComponents(), num_workers=3,
        track_bppa=track_bppa,
    )
    result = engine.run()
    tiers = [w.kernel_tier for w in result.stats.wall]
    assert tiers[0] == "dense"
    assert set(tiers[1:]) == {"vectorized"}
    assert len(calls) == 3 and sum(calls) == UNDIRECTED.num_vertices
    assert len(_materialized(engine)) == UNDIRECTED.num_vertices
    oracle = oracle_result(UNDIRECTED, HashMinComponents(), num_workers=3)
    if track_bppa:  # the oracle always tracks
        assert_held_to_oracle(result, oracle)
    assert pickle.dumps(result.values) == pickle.dumps(oracle.values)


@pytest.mark.parametrize("num_workers", WORKER_COUNTS)
def test_pool_hashmin_leaves_the_coordinator_rows_frozen(num_workers):
    engine = create_engine(
        UNDIRECTED, HashMinComponents(), backend="parallel",
        num_workers=num_workers,
    )
    result = engine.run()
    assert engine.parallel_supersteps == result.num_supersteps
    assert _materialized(engine) == []
    assert result.values == create_engine(
        UNDIRECTED, HashMinComponents(), num_workers=num_workers
    ).run().values


# ---------------------------------------------------------------------
# Copy semantics
# ---------------------------------------------------------------------


class Relay(VertexProgram):
    """Streams ``(sender, weight)`` along every out-edge for a few
    supersteps, so the values record the rows and their weights."""

    name = "relay"

    def compute(self, v, msgs, ctx):
        v.value = (v.value or ()) + (tuple(sorted(msgs)),)
        if ctx.superstep >= 3:
            v.vote_to_halt()
            return
        for target, weight in v.out_edges.items():
            ctx.send(target, (v.id, weight))


@pytest.mark.parametrize("backend", ["serial", "parallel"])
@pytest.mark.parametrize(
    "graph", [UNDIRECTED, DIRECTED], ids=["undirected", "directed"]
)
def test_editing_the_input_graph_after_construction_changes_nothing(
    graph, backend
):
    clean = create_engine(
        graph.copy(), Relay(), backend=backend, num_workers=2
    ).run()
    edited = graph.to_graph()  # a snapshot input, thawed to edit
    engine = create_engine(edited, Relay(), backend=backend, num_workers=2)
    vertices = list(edited.vertices())
    for u, v in list(edited.edges())[:10]:
        edited.remove_edge(u, v)
    edited.add_edge(vertices[0], vertices[-1], weight=7.5)
    edited.set_weight(*next(iter(edited.edges())), 2.0)
    result = engine.run()
    assert pickle.dumps(result.values) == pickle.dumps(clean.values)
    assert result.stats == clean.stats


# ---------------------------------------------------------------------
# A program gets one real dict, and its edits survive recovery
# ---------------------------------------------------------------------


class SameDict(VertexProgram):
    """Records whether ``out_edges`` is the very dict it saw first."""

    name = "same-dict"

    def __init__(self):
        self.seen = {}

    def compute(self, v, msgs, ctx):
        assert type(v.out_edges) is dict
        first = self.seen.setdefault(v.id, v.out_edges)
        v.value = (v.value or 0) + (first is v.out_edges)
        if ctx.superstep < 4:
            ctx.send_to_neighbors(v, 1)
        else:
            v.vote_to_halt()


def test_a_program_sees_one_dict_per_vertex():
    result = PregelEngine(DIRECTED, SameDict(), num_workers=3).run()
    assert set(result.values.values()) == {5}


@pytest.mark.parametrize(
    "graph", [UNDIRECTED, DIRECTED], ids=["undirected", "directed"]
)
# (1, 3): the edit makes the checkpoint at 2 carry its own topology,
# which the crash rolls back to.  (0, 1): the crash rolls back to the
# checkpoint at 0, which shares the baseline, so the restored rows are
# frozen again and the replayed superstep 0 edits fresh dicts.
@pytest.mark.parametrize("prune_at,crash_at", [(1, 3), (0, 1)])
def test_in_place_edit_checkpoint_rollback_matches_the_oracle(
    graph, prune_at, crash_at
):
    make = partial(EdgeTouch, rounds=5, prune_at=prune_at)
    result = PregelEngine(
        graph, make(), num_workers=3, checkpoint_interval=2,
        fault_plan=crash_plan(superstep=crash_at, worker=1, seed=2),
    ).run()
    assert result.stats.recovery_attempts == 1
    oracle = oracle_result(graph, make(), num_workers=3)
    assert_held_to_oracle(result, oracle, faulted=True)
    assert pickle.dumps(result.values) == pickle.dumps(oracle.values)


# ---------------------------------------------------------------------
# Mutations materialize what they edit; holds judges materialized rows
# ---------------------------------------------------------------------


def test_a_barrier_mutation_materializes_exactly_the_rows_it_edits():
    engine = PregelEngine(DIRECTED, PageRank(), num_workers=3)
    u, v = next(iter(DIRECTED.edges()))
    log = engine._ctx._mutations
    log.remove_edges.append((u, v))
    assert apply_mutations(engine) is True
    assert sorted(_materialized(engine)) == sorted({u, v})
    assert v not in engine._store.states[u].out_edges
    assert u not in engine._store.states[v].in_edges


def _weighted(directed):
    g = Graph(directed=directed)
    g.add_edge(0, 1, weight=2.5)
    g.add_edge(1, 2, weight=0.0)
    g.add_edge(2, 0, weight=1.5)
    g.add_edge(1, 0, weight=3.0)
    return g


@pytest.mark.parametrize("directed", [False, True], ids=["und", "dir"])
def test_holds_judges_materialized_rows_by_their_frozen_rows(directed):
    engine = PregelEngine(
        _weighted(directed), PageRank(), num_workers=2,
        checkpoint_interval=2,
    )
    store = engine._store
    assert take_checkpoint(engine, 0).topology is None
    # Materialized but unedited: still the baseline.
    for state in store.states.values():
        store.materialize(state)
    assert take_checkpoint(engine, 0).topology is None
    # An equal float of another object is the same weight ...
    row = store.states[1].out_edges
    row[2] = float("0.0")
    assert take_checkpoint(engine, 0).topology is None
    # ... a sign, a type or an order is not.
    for changed in (-0.0, 0, False):
        row[2] = changed
        assert take_checkpoint(engine, 0).topology is not None
    row[2] = 0.0
    assert take_checkpoint(engine, 0).topology is None
    first = next(iter(row))
    row[first] = row.pop(first)  # same keys and weights, new order
    assert take_checkpoint(engine, 0).topology is not None


# ---------------------------------------------------------------------
# What an engine costs to build
# ---------------------------------------------------------------------

#: Bytes ``tracemalloc`` sees allocated by building a ``PregelEngine``
#: over a BA graph, per directed edge (two per undirected edge).  The
#: per-vertex dict copies cost about 68 (BA 5k, k=8: 80k directed
#: edges); the CSR topology, the dense index and the adjacency about
#: 38.
CONSTRUCT_BYTES_PER_EDGE = 50


def test_engine_construction_bytes_per_directed_edge():
    graph = barabasi_albert_graph(5000, 8, seed=1)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        engine = PregelEngine(
            graph, PageRank(num_supersteps=4), combiner=SumCombiner(),
            num_workers=2, track_bppa=False,
        )
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    grown = sum(d.size_diff for d in after.compare_to(before, "filename"))
    per_edge = grown / (2 * graph.num_edges)
    assert per_edge <= CONSTRUCT_BYTES_PER_EDGE, per_edge
    assert _materialized(engine) == []
