"""Property-based tests (hypothesis) for the substrate invariants."""

import enum
import math
from collections import OrderedDict, defaultdict, namedtuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bsp import SumCombiner, VertexProgram, run_program
from repro.graph import (
    Graph,
    HashPartitioner,
    connected_components,
    erdos_renyi_graph,
    partition_counts,
)
from repro.metrics import growth_exponent, state_atoms
from tests.oracle import reference_atoms

try:
    import numpy
except ImportError:  # pragma: no cover - numpy is optional
    numpy = None

# Small random edge lists over a bounded vertex universe.
edge_lists = st.lists(
    st.tuples(st.integers(0, 14), st.integers(0, 14)),
    min_size=0,
    max_size=40,
)


def build(edges, directed=False):
    g = Graph(directed=directed)
    for v in range(15):
        g.add_vertex(v)
    for u, v in edges:
        if u != v:
            g.add_edge(u, v)
    return g.freeze()


class TestGraphInvariants:
    @given(edge_lists)
    def test_undirected_symmetry(self, edges):
        g = build(edges)
        for u, v in g.edges():
            assert g.has_edge(v, u)

    @given(edge_lists)
    def test_handshake_lemma(self, edges):
        g = build(edges)
        assert sum(g.degree(v) for v in g.vertices()) == 2 * g.num_edges

    @given(edge_lists)
    def test_directed_degree_sums(self, edges):
        g = build(edges, directed=True)
        out_sum = sum(g.out_degree(v) for v in g.vertices())
        in_sum = sum(g.in_degree(v) for v in g.vertices())
        assert out_sum == in_sum == g.num_edges

    @given(edge_lists)
    def test_copy_equality(self, edges):
        g = build(edges)
        h = g.copy()
        assert h.num_vertices == g.num_vertices
        assert h.num_edges == g.num_edges
        for u, v in g.edges():
            assert h.has_edge(u, v)

    @given(edge_lists)
    def test_components_partition_vertices(self, edges):
        g = build(edges)
        comps = connected_components(g)
        union = set()
        total = 0
        for c in comps:
            union |= c
            total += len(c)
        assert union == set(g.vertices())
        assert total == g.num_vertices

    @given(edge_lists)
    def test_reverse_twice_is_identity(self, edges):
        g = build(edges, directed=True)
        rr = g.reverse().reverse()
        assert sorted(map(tuple, rr.edges())) == sorted(
            map(tuple, g.edges())
        )


class TestPartitionInvariants:
    @given(st.integers(1, 8), st.integers(0, 40))
    def test_every_vertex_assigned_exactly_once(self, workers, n):
        g = erdos_renyi_graph(n, 0.2, seed=1)
        counts = partition_counts(g, HashPartitioner(workers), workers)
        assert sum(counts) == n


class Flood(VertexProgram):
    """Each vertex floods its id once; values = sorted neighbor ids."""

    def compute(self, v, msgs, ctx):
        if ctx.superstep == 0:
            v.value = []
            ctx.send_to_neighbors(v, v.id)
        else:
            v.value = sorted(set(v.value) | set(msgs))
        v.vote_to_halt()


class TestEngineInvariants:
    @settings(deadline=None, max_examples=25)
    @given(edge_lists, st.integers(1, 6))
    def test_flood_delivers_exactly_neighbors(self, edges, workers):
        g = build(edges)
        r = run_program(g, Flood(), num_workers=workers)
        for v in g.vertices():
            assert r.values[v] == sorted(g.neighbors(v))

    @settings(deadline=None, max_examples=25)
    @given(edge_lists, st.integers(1, 6))
    def test_worker_count_does_not_change_answers(self, edges, workers):
        g = build(edges)
        base = run_program(g, Flood(), num_workers=1)
        other = run_program(g, Flood(), num_workers=workers)
        assert base.values == other.values

    @settings(deadline=None, max_examples=25)
    @given(edge_lists)
    def test_message_conservation(self, edges):
        g = build(edges)
        r = run_program(g, Flood(), num_workers=3)
        # Flood sends exactly one message per directed edge.
        assert r.stats.total_messages == 2 * g.num_edges
        for s in r.stats.supersteps:
            assert sum(s.sent_logical) == sum(s.received_logical)

    @settings(deadline=None, max_examples=20)
    @given(edge_lists, st.integers(1, 5))
    def test_combiner_never_increases_network_traffic(
        self, edges, workers
    ):
        class CountIn(VertexProgram):
            def compute(self, v, msgs, ctx):
                if ctx.superstep == 0:
                    ctx.send_to_neighbors(v, 1)
                else:
                    v.value = sum(msgs)
                v.vote_to_halt()

        g = build(edges)
        plain = run_program(g, CountIn(), num_workers=workers)
        combined = run_program(
            g, CountIn(), num_workers=workers, combiner=SumCombiner()
        )
        assert combined.values == plain.values
        assert (
            combined.stats.total_network_messages
            <= plain.stats.total_network_messages
        )


class _Label(str):
    """A str subclass: the general rule, one atom."""


class _Colour(enum.IntEnum):
    RED = 1
    BLUE = 2


_Pair = namedtuple("_Pair", "left right")


class _Attrs:
    """An object whose ``__dict__`` is its storage."""

    def __init__(self, payload):
        self.payload = payload
        self.tag = "t"


class _Slotted:
    """No ``__dict__``: one atom whatever it holds."""

    __slots__ = ("payload",)

    def __init__(self, payload):
        self.payload = payload


#: Hashable leaves: every exact scalar type (NaN and -0.0 included),
#: ``None``, and scalars of a subclass or foreign type.
_hashable = st.one_of(
    st.booleans(), st.integers(), st.floats(), st.complex_numbers(),
    st.text(max_size=3), st.binary(max_size=3), st.none(),
    st.builds(_Label, st.text(max_size=3)), st.sampled_from(_Colour),
    *([st.floats().map(numpy.float64)] if numpy is not None else []),
)
_keys = st.one_of(_hashable, st.tuples(_hashable, _hashable))

#: Nested vertex values: builtin containers, their subclasses and
#: objects, to any depth.
vertex_values = st.recursive(
    _hashable,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.sets(_hashable, max_size=4),
        st.frozensets(_keys, max_size=4),
        st.dictionaries(_keys, children, max_size=4),
        st.dictionaries(_keys, children, max_size=3).map(OrderedDict),
        st.dictionaries(_keys, children, max_size=3).map(
            lambda d: defaultdict(list, d)
        ),
        st.builds(_Pair, children, children),
        st.builds(_Attrs, children),
        st.builds(_Slotted, children),
    ),
    max_leaves=24,
)


class TestMetricsInvariants:
    @given(vertex_values)
    @settings(max_examples=300)
    def test_state_atoms_matches_the_recursive_definition(self, value):
        # The runtime dispatches exact builtin types; the oracle's copy
        # is the plain recursive rule every type once went through.
        assert state_atoms(value) == reference_atoms(value)

    @given(
        st.recursive(
            st.one_of(
                st.none(), st.integers(), st.floats(allow_nan=False),
                st.text(max_size=3),
            ),
            lambda children: st.one_of(
                st.lists(children, max_size=4),
                st.dictionaries(st.integers(0, 5), children, max_size=4),
            ),
            max_leaves=20,
        )
    )
    def test_state_atoms_nonnegative(self, value):
        assert state_atoms(value) >= 0

    @given(
        st.integers(2, 6),
        st.floats(0.1, 3.0),
        st.floats(1.0, 100.0),  # keep ys >= 1: the estimator clamps below 1
    )
    def test_growth_exponent_recovers_power_law(self, k, expo, scale):
        xs = [2.0**i for i in range(2, 2 + k + 1)]
        ys = [scale * x**expo for x in xs]
        assert math.isclose(
            growth_exponent(xs, ys), expo, rel_tol=1e-6, abs_tol=1e-6
        )
