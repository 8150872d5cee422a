"""Tests for sequential graph/dual/strong simulation."""

import pytest

from repro.graph import Graph, random_labeled_digraph, random_query_graph
from repro.sequential import (
    ball,
    dual_simulation,
    graph_simulation,
    has_match,
    query_radius,
    strong_simulation,
)


def labeled(edges, labels, directed=True):
    g = Graph(directed=directed)
    for v, lab in labels.items():
        g.add_vertex(v, label=lab)
    for u, v in edges:
        g.add_edge(u, v)
    return g.freeze()


@pytest.fixture
def triangle_query():
    """A -> B -> C -> A."""
    return labeled(
        [(0, 1), (1, 2), (2, 0)], {0: "A", 1: "B", 2: "C"}
    )


@pytest.fixture
def chain_query():
    """A -> B."""
    return labeled([(0, 1)], {0: "A", 1: "B"})


class TestGraphSimulation:
    def test_exact_copy_matches(self, triangle_query):
        sim = graph_simulation(triangle_query.copy(), triangle_query)
        assert sim == {0: {0}, 1: {1}, 2: {2}}
        assert has_match(sim)

    def test_label_mismatch_empty(self, chain_query):
        data = labeled([(0, 1)], {0: "X", 1: "Y"})
        sim = graph_simulation(data, chain_query)
        assert not has_match(sim)

    def test_missing_child_prunes(self, chain_query):
        # A vertex labeled A with no B successor must not match.
        data = labeled(
            [(0, 1)], {0: "A", 1: "B", 2: "A"}
        )
        sim = graph_simulation(data, chain_query)
        assert sim[0] == {0}
        assert sim[1] == {1}

    def test_simulation_allows_cycles_unlike_isomorphism(
        self, triangle_query
    ):
        # A 6-cycle A->B->C->A->B->C matches a 3-cycle query: this is
        # the relation-vs-function distinction the paper highlights.
        data = labeled(
            [(i, (i + 1) % 6) for i in range(6)],
            {0: "A", 1: "B", 2: "C", 3: "A", 4: "B", 5: "C"},
        )
        sim = graph_simulation(data, triangle_query)
        assert sim[0] == {0, 3}
        assert sim[1] == {1, 4}
        assert sim[2] == {2, 5}

    def test_child_only_ignores_parents(self, chain_query):
        # Extra predecessor of a B vertex is fine for plain simulation.
        data = labeled(
            [(0, 1), (2, 1)], {0: "A", 1: "B", 2: "Z"}
        )
        sim = graph_simulation(data, chain_query)
        assert 1 in sim[1]


class TestDualSimulation:
    def test_dual_subset_of_simulation(self):
        data = random_labeled_digraph(40, 0.08, labels="ABC", seed=1)
        query = random_query_graph(4, labels="ABC", seed=2)
        sim = graph_simulation(data, query)
        dual = dual_simulation(data, query)
        for q in query.vertices():
            assert dual[q] <= sim[q]

    def test_parent_condition_prunes(self, chain_query):
        # B vertex with no A predecessor fails dual simulation.
        data = labeled(
            [(0, 1)], {0: "A", 1: "B", 2: "B"}
        )
        sim = graph_simulation(data, chain_query)
        dual = dual_simulation(data, chain_query)
        # Child-only simulation keeps both B vertices (B has no
        # children in the query); dual prunes the orphan.
        assert sim[1] == {1, 2}
        assert dual[1] == {1}

    def test_dual_on_exact_copy(self, triangle_query):
        dual = dual_simulation(triangle_query.copy(), triangle_query)
        assert dual == {0: {0}, 1: {1}, 2: {2}}


class TestStrongSimulation:
    def test_query_radius(self, triangle_query, chain_query):
        assert query_radius(chain_query) == 1
        assert query_radius(triangle_query) == 1

    def test_ball_membership(self):
        data = labeled(
            [(0, 1), (1, 2), (2, 3)],
            {0: "A", 1: "B", 2: "A", 3: "B"},
        )
        assert ball(data, 1, 1) == {0, 1, 2}
        assert ball(data, 1, 2) == {0, 1, 2, 3}
        assert ball(data, 0, 0) == {0}

    def test_strong_subset_of_dual(self):
        data = random_labeled_digraph(30, 0.1, labels="AB", seed=3)
        query = random_query_graph(3, labels="AB", seed=4)
        dual = dual_simulation(data, query)
        strong = strong_simulation(data, query)
        dual_image = set().union(*dual.values()) if dual else set()
        for center, relation in strong.items():
            assert center in dual_image
            for q in query.vertices():
                assert relation[q] <= dual[q]

    def test_strong_on_exact_copy(self, triangle_query):
        strong = strong_simulation(triangle_query.copy(), triangle_query)
        assert strong  # the copy itself is a perfect subgraph
        for relation in strong.values():
            assert has_match(relation)

    def test_strong_rejects_distant_fake(self, chain_query):
        # Data: A -> B (true match) and isolated A, B far apart with
        # no edge between them.
        data = labeled(
            [(0, 1)], {0: "A", 1: "B", 2: "A", 3: "B"}
        )
        strong = strong_simulation(data, chain_query)
        assert set(strong) == {0, 1}

    def test_no_match_returns_empty(self, triangle_query):
        data = labeled([(0, 1)], {0: "A", 1: "B"})
        assert strong_simulation(data, triangle_query) == {}
