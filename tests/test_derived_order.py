"""Derived graphs keep their source's vertex and row order.

A snapshot's thaw (``to_graph``), ``copy``, ``subgraph`` over all of
its vertices and, directed, ``reverse().reverse()`` must give back the
snapshot's own ids and columns for every pinned generator case: a
derived graph that re-inserts edges in ``edges()`` order reorders
undirected rows and directed in-rows, and so the messages of a run
over it.  ``subgraph`` takes its vertex order from the source, never
from the collection it is given, so a set of string ids gives the same
snapshot under every ``PYTHONHASHSEED`` (the determinism job runs this
module under two salts).
"""

from __future__ import annotations

import pytest

from repro.graph import Graph
from tests.test_generator_pins import CASES, frozen_digest

DERIVED = {
    "thaw": lambda s: s.to_graph().freeze(),
    "copy": lambda s: s.copy(),
    "subgraph-all": lambda s: s.subgraph(list(s.vertices())),
    "reverse-twice": lambda s: s.reverse().reverse(),
}


@pytest.mark.parametrize("derive", sorted(DERIVED))
@pytest.mark.parametrize("case", sorted(CASES))
def test_derived_graph_has_source_columns(case, derive):
    source = CASES[case]()
    assert frozen_digest(DERIVED[derive](source)) == frozen_digest(source)


def _string_ids():
    g = Graph(directed=True)
    names = [f"v{i:02d}" for i in range(40)]
    for i, name in enumerate(names):
        g.add_vertex(name, label=i % 3)
    for i in range(40):
        g.add_edge(names[i], names[(7 * i + 3) % 40], weight=float(i))
        g.add_edge(names[(5 * i + 1) % 40], names[i])
    return g.freeze(), names


def test_subgraph_of_a_set_keeps_source_vertex_order():
    source, names = _string_ids()
    kept = set(names[::2])
    sub = source.subgraph(kept)
    assert list(sub.vertices()) == names[::2]
    assert frozen_digest(sub) == frozen_digest(
        source.subgraph(names[::2])
    )
    for v in names[::2]:
        assert list(sub.out_edge_items(v)) == [
            (u, w) for u, w in source.out_edge_items(v) if u in kept
        ]
        assert list(sub.in_neighbors(v)) == [
            u for u in source.in_neighbors(v) if u in kept
        ]


def test_subgraph_of_every_vertex_set_is_the_source():
    source, names = _string_ids()
    assert frozen_digest(source.subgraph(set(names))) == frozen_digest(
        source
    )
