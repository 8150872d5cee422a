"""Hopcroft–Tarjan biconnected components (Table 1 row 5's sequential
reference, ``O(m + n)``).

Biconnected components partition the *edges*; articulation points are
the vertices shared by more than one component.  Implemented
iteratively so deep DFS trees (path graphs) do not hit the recursion
limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Hashable, List, Optional, Set, Tuple

from repro.graph.snapshot import CsrSnapshot
from repro.metrics.opcounter import OpCounter, ensure_counter


@dataclass
class BiconnectivityResult:
    """Edge components, articulation points and bridges."""

    components: List[Set[Tuple[Hashable, Hashable]]] = field(
        default_factory=list
    )
    articulation_points: Set[Hashable] = field(default_factory=set)

    @property
    def bridges(self) -> List[Tuple[Hashable, Hashable]]:
        """Bridges are exactly the single-edge components."""
        return [next(iter(c)) for c in self.components if len(c) == 1]

    def edge_component_labels(self) -> Dict[FrozenSet, int]:
        """Map each (frozenset) edge to its component index."""
        labels: Dict[FrozenSet, int] = {}
        for i, comp in enumerate(self.components):
            for u, v in comp:
                labels[frozenset((u, v))] = i
        return labels

    def vertex_components(self) -> List[Set[Hashable]]:
        """Components as vertex sets (networkx's convention)."""
        return [
            {x for e in comp for x in e} for comp in self.components
        ]


def biconnected_components(
    graph: CsrSnapshot, counter: Optional[OpCounter] = None
) -> BiconnectivityResult:
    """Hopcroft–Tarjan DFS with an edge stack — ``O(m + n)``."""
    ops = ensure_counter(counter)
    disc: Dict[Hashable, int] = {}
    low: Dict[Hashable, int] = {}
    index = 0
    result = BiconnectivityResult()
    edge_stack: List[Tuple[Hashable, Hashable]] = []

    for start in graph.vertices():
        ops.add()
        if start in disc:
            continue
        disc[start] = low[start] = index
        index += 1
        root_children = 0
        # Frames: (vertex, parent, iterator over neighbors).
        stack = [(start, None, iter(graph.sorted_neighbors(start)))]
        while stack:
            v, parent, nbrs = stack[-1]
            child_found = False
            for w in nbrs:
                ops.add()
                if w not in disc:
                    edge_stack.append((v, w))
                    disc[w] = low[w] = index
                    index += 1
                    if v == start:
                        root_children += 1
                    stack.append(
                        (w, v, iter(graph.sorted_neighbors(w)))
                    )
                    child_found = True
                    break
                if w != parent and disc[w] < disc[v]:
                    # Back edge.
                    edge_stack.append((v, w))
                    if disc[w] < low[v]:
                        low[v] = disc[w]
            if child_found:
                continue
            stack.pop()
            ops.add()
            if not stack:
                continue
            u = stack[-1][0]
            if low[v] < low[u]:
                low[u] = low[v]
            if low[v] >= disc[u]:
                # u separates v's subtree: pop one component.
                comp: Set[Tuple[Hashable, Hashable]] = set()
                while edge_stack:
                    e = edge_stack.pop()
                    comp.add(e)
                    ops.add()
                    if e == (u, v):
                        break
                result.components.append(comp)
                if u != start or root_children > 1:
                    result.articulation_points.add(u)
    return result
