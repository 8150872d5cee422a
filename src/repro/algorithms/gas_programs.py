"""GAS (PowerGraph-style) renderings of three Table 1 workloads.

These are the paradigm-comparison companions to the Pregel programs:
same answers, different communication shape.  The bench
``benchmarks/bench_gas.py`` measures the difference the paper's §1
alludes to — GAS's per-worker gather pre-aggregation flattens the
``h``-relation that Pregel hubs suffer.
"""

from __future__ import annotations

import math
from typing import Any, Hashable

from repro.algorithms.cc_hashmin import repr_key
from repro.bsp.gas import GASProgram, GASResult, NeighborView, run_gas
from repro.graph.graph import Graph


class PageRankGAS(GASProgram):
    """Delta-tolerance PageRank in gather-apply-scatter form."""

    name = "pagerank-gas"

    def __init__(self, damping: float = 0.85, tolerance: float = 1e-10):
        if not 0.0 < damping < 1.0:
            raise ValueError("damping must be in (0, 1)")
        self.damping = damping
        self.tolerance = tolerance
        self._n = 1

    def initial_value(self, vertex_id, graph) -> float:
        self._n = max(graph.num_vertices, 1)
        return 1.0 / self._n

    def gather(self, source: NeighborView, weight: float) -> float:
        return source.value / max(source.out_degree, 1)

    def fold(self, a: float, b: float) -> float:
        return a + b

    def identity(self) -> float:
        return 0.0

    def apply(self, vertex_id, old: float, total: float) -> float:
        return (1.0 - self.damping) / self._n + self.damping * total

    def should_scatter(self, old: float, new: float) -> bool:
        return abs(new - old) > self.tolerance


class SsspGAS(GASProgram):
    """Shortest paths: gather-min over in-edges, scatter on improve."""

    name = "sssp-gas"

    def __init__(self, source: Hashable):
        self.source = source

    def initial_value(self, vertex_id, graph) -> float:
        return 0.0 if vertex_id == self.source else math.inf

    def gather(self, source: NeighborView, weight: float) -> float:
        return source.value + weight

    def fold(self, a: float, b: float) -> float:
        return a if a <= b else b

    def apply(self, vertex_id, old: float, total: Any) -> float:
        if total is None:
            return old
        return old if old <= total else total

    def should_scatter(self, old: float, new: float) -> bool:
        return new < old


class HashMinGAS(GASProgram):
    """Connected components: gather-min of neighbor labels."""

    name = "hash-min-gas"

    def initial_value(self, vertex_id, graph) -> Any:
        return vertex_id

    def gather(self, source: NeighborView, weight: float) -> Any:
        return source.value

    def fold(self, a: Any, b: Any) -> Any:
        return a if repr_key(a) <= repr_key(b) else b

    def apply(self, vertex_id, old: Any, total: Any) -> Any:
        if total is None:
            return old
        return old if repr_key(old) <= repr_key(total) else total

    def should_scatter(self, old: Any, new: Any) -> bool:
        return repr_key(new) < repr_key(old)


def pagerank_gas(
    graph: Graph,
    damping: float = 0.85,
    tolerance: float = 1e-10,
    **engine_kwargs,
) -> GASResult:
    """Run GAS PageRank to tolerance convergence."""
    return run_gas(
        graph, PageRankGAS(damping, tolerance), **engine_kwargs
    )


def sssp_gas(
    graph: Graph, source: Hashable, **engine_kwargs
) -> GASResult:
    """Run GAS SSSP from ``source``."""
    return run_gas(graph, SsspGAS(source), **engine_kwargs)


def hash_min_gas(graph: Graph, **engine_kwargs) -> GASResult:
    """Run GAS connected components."""
    return run_gas(graph, HashMinGAS(), **engine_kwargs)
