"""Synthetic graph families used by tests, examples and the benchmark.

The paper's Table 1 is asymptotic, so the reproduction sweeps controlled
families that exercise each regime the analysis distinguishes:

* **paths / cycles** — diameter ``δ = Θ(n)``; worst case for Hash-Min.
* **Erdős–Rényi / Barabási–Albert** — small diameter; the "typical"
  regime for PageRank, CC, SSSP, betweenness.
* **complete graphs** — the ``K = O(n)`` worst case for MIS coloring.
* **random trees** — rows 8–9 (Euler tour, pre/post-order traversal).
* **bipartite graphs** — row 14 (bipartite maximal matching).
* **labeled digraphs + pattern graphs** — rows 18–20 (simulation).

All generators take an explicit ``seed`` so every experiment is
deterministic and reproducible.  Each builds through the mutable
:class:`~repro.graph.graph.Graph`, freezes it once
(:meth:`Graph.freeze <repro.graph.graph.Graph.freeze>`), drops the
builder and returns the snapshot, so a run never re-freezes its input
and no dict graph sits beside it.  ``to_graph()`` thaws one for editing.
"""

from __future__ import annotations

import itertools
import random
from typing import List, Optional, Sequence, Tuple

from repro.graph.graph import Graph
from repro.graph.snapshot import CsrSnapshot


def _path(n: int) -> Graph:
    g = Graph()
    for v in range(n):
        g.add_vertex(v)
    for v in range(n - 1):
        g.add_edge(v, v + 1)
    return g


def path_graph(n: int) -> CsrSnapshot:
    """The path ``0 - 1 - ... - (n-1)``; diameter ``n - 1``."""
    return _path(n).freeze()


def cycle_graph(n: int) -> CsrSnapshot:
    """The cycle on ``n`` vertices; diameter ``⌊n/2⌋``."""
    g = _path(n)
    if n > 2:
        g.add_edge(n - 1, 0)
    return g.freeze()


def star_graph(n: int) -> CsrSnapshot:
    """A star: center ``0`` joined to leaves ``1 .. n-1``."""
    g = Graph()
    g.add_vertex(0)
    for v in range(1, n):
        g.add_edge(0, v)
    return g.freeze()


def _complete(n: int) -> Graph:
    g = Graph()
    for v in range(n):
        g.add_vertex(v)
    for u, v in itertools.combinations(range(n), 2):
        g.add_edge(u, v)
    return g


def complete_graph(n: int) -> CsrSnapshot:
    """The complete graph ``K_n`` — worst case for MIS coloring."""
    return _complete(n).freeze()


def grid_graph(rows: int, cols: int) -> CsrSnapshot:
    """A 2-D grid; vertices are ``(r, c)`` tuples.

    Useful as a road-network stand-in: bounded degree, large diameter.
    """
    g = Graph()
    for r in range(rows):
        for c in range(cols):
            g.add_vertex((r, c))
    for r in range(rows):
        for c in range(cols):
            if r + 1 < rows:
                g.add_edge((r, c), (r + 1, c))
            if c + 1 < cols:
                g.add_edge((r, c), (r, c + 1))
    return g.freeze()


def _erdos_renyi(n: int, p: float, seed: int, directed: bool) -> Graph:
    rng = random.Random(seed)
    g = Graph(directed=directed)
    for v in range(n):
        g.add_vertex(v)
    if directed:
        pairs = ((u, v) for u in range(n) for v in range(n) if u != v)
    else:
        pairs = itertools.combinations(range(n), 2)
    for u, v in pairs:
        if rng.random() < p:
            g.add_edge(u, v)
    return g


def erdos_renyi_graph(
    n: int, p: float, seed: int = 0, directed: bool = False
) -> CsrSnapshot:
    """G(n, p): every (ordered, if directed) pair is an edge w.p. ``p``."""
    return _erdos_renyi(n, p, seed, directed).freeze()


def _connected_erdos_renyi(n: int, p: float, seed: int) -> Graph:
    rng = random.Random(seed)
    g = _erdos_renyi(n, p, seed, False)
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        g.add_edge(order[i], order[rng.randrange(i)])
    return g


def connected_erdos_renyi_graph(
    n: int, p: float, seed: int = 0
) -> CsrSnapshot:
    """G(n, p) patched to be connected.

    A random spanning-tree skeleton guarantees connectivity; the ER edges
    are laid on top.  Used by workloads whose sequential reference
    assumes connectivity (diameter, SSSP on one component, …).
    """
    return _connected_erdos_renyi(n, p, seed).freeze()


def barabasi_albert_graph(n: int, k: int, seed: int = 0) -> CsrSnapshot:
    """Preferential-attachment scale-free graph.

    Each new vertex attaches to ``k`` existing vertices chosen with
    probability proportional to their current degree (by sampling from
    the repeated-endpoints list, the classic BA construction).
    """
    if n <= k:
        return complete_graph(max(n, 1))
    rng = random.Random(seed)
    g = _complete(k + 1)
    endpoints: List[int] = []
    for u, v in g.edges():
        endpoints.extend((u, v))
    for v in range(k + 1, n):
        targets = set()
        while len(targets) < k:
            targets.add(rng.choice(endpoints))
        g.add_vertex(v)
        for t in targets:
            g.add_edge(v, t)
            endpoints.extend((v, t))
    return g.freeze()


def random_tree(n: int, seed: int = 0) -> CsrSnapshot:
    """A uniformly random labeled tree (random attachment)."""
    rng = random.Random(seed)
    g = Graph()
    g.add_vertex(0)
    for v in range(1, n):
        g.add_edge(v, rng.randrange(v))
    return g.freeze()


def balanced_binary_tree(depth: int) -> CsrSnapshot:
    """A complete binary tree of the given depth (root ``0``)."""
    g = Graph()
    g.add_vertex(0)
    n = 2 ** (depth + 1) - 1
    for v in range(1, n):
        g.add_edge(v, (v - 1) // 2)
    return g.freeze()


def caterpillar_tree(spine: int, legs: int) -> CsrSnapshot:
    """A caterpillar: a path of ``spine`` vertices, each with ``legs``
    pendant leaves.  A tree with large diameter and varying degrees."""
    g = _path(spine)
    nxt = spine
    for s in range(spine):
        for _ in range(legs):
            g.add_edge(s, nxt)
            nxt += 1
    return g.freeze()


def random_weighted_graph(
    n: int,
    p: float,
    seed: int = 0,
    min_weight: float = 1.0,
    max_weight: float = 100.0,
    connected: bool = True,
    distinct_weights: bool = True,
) -> CsrSnapshot:
    """A weighted undirected graph for MST / SSSP / matching workloads.

    ``distinct_weights=True`` assigns every edge a unique weight, which
    makes the minimum spanning tree unique — convenient for verifying
    the vertex-centric Boruvka against sequential Prim edge-by-edge.
    """
    rng = random.Random(seed)
    if connected:
        g = _connected_erdos_renyi(n, p, seed)
    else:
        g = _erdos_renyi(n, p, seed, False)
    edges = list(g.edges())
    if distinct_weights:
        weights = rng.sample(range(1, 10 * len(edges) + 1), len(edges))
        for (u, v), w in zip(edges, weights):
            g.set_weight(u, v, float(w))
    else:
        for u, v in edges:
            g.set_weight(u, v, rng.uniform(min_weight, max_weight))
    return g.freeze()


def random_bipartite_graph(
    n_left: int, n_right: int, p: float, seed: int = 0
) -> Tuple[CsrSnapshot, Sequence, Sequence]:
    """A random bipartite graph.

    Returns ``(graph, left_ids, right_ids)``.  Left vertices are
    ``("L", i)`` and right vertices ``("R", j)`` so partition membership
    is recoverable from the id alone — the Pregel bipartite-matching
    program keys its phases off that tag.
    """
    rng = random.Random(seed)
    g = Graph()
    left = [("L", i) for i in range(n_left)]
    right = [("R", j) for j in range(n_right)]
    for v in left + right:
        g.add_vertex(v)
    for u in left:
        for v in right:
            if rng.random() < p:
                g.add_edge(u, v)
    return g.freeze(), left, right


def random_labeled_digraph(
    n: int,
    p: float,
    labels: Sequence[str],
    seed: int = 0,
) -> CsrSnapshot:
    """A random directed graph with vertex labels drawn from ``labels``.

    The data-graph side of the simulation workloads (rows 18–20).
    """
    rng = random.Random(seed)
    g = _erdos_renyi(n, p, seed, True)
    for v in range(n):
        g.set_label(v, rng.choice(list(labels)))
    return g.freeze()


def random_query_graph(
    n: int,
    labels: Sequence[str],
    seed: int = 0,
    extra_edge_prob: float = 0.3,
) -> CsrSnapshot:
    """A small connected labeled query (pattern) graph.

    A random arborescence keeps it connected; extra forward/backward
    edges give it cycles so dual simulation differs from plain
    simulation.
    """
    rng = random.Random(seed)
    g = Graph(directed=True)
    g.add_vertex(0, label=rng.choice(list(labels)))
    for v in range(1, n):
        g.add_vertex(v, label=rng.choice(list(labels)))
        g.add_edge(rng.randrange(v), v)
    for u in range(n):
        for v in range(n):
            if u != v and not g.has_edge(u, v):
                if rng.random() < extra_edge_prob / n:
                    g.add_edge(u, v)
    return g.freeze()


def linked_list_graph(n: int, seed: Optional[int] = None) -> CsrSnapshot:
    """A directed path encoding a linked list for list-ranking (§3.4.2).

    Each vertex points to its *predecessor*; the head has none.  With a
    ``seed`` the vertex ids are shuffled so that list order is unrelated
    to id order, as the paper stipulates ("the elements in L can be
    provided as input in any arbitrary order").
    """
    ids = list(range(n))
    if seed is not None:
        random.Random(seed).shuffle(ids)
    g = Graph(directed=True)
    for v in ids:
        g.add_vertex(v)
    for i in range(1, n):
        g.add_edge(ids[i], ids[i - 1])  # edge to predecessor
    return g.freeze()
