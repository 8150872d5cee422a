"""Sequential graph coloring via maximal independent sets (Table 1
row 12's reference).

The paper's sequential comparator is coloring by repeatedly peeling a
*lexicographically-first* maximal independent set (LF-MIS): scan the
remaining vertices in id order, adding a vertex whenever none of its
neighbors was already added this phase — ``O(m)`` per phase, ``O(Km)``
total for ``K`` color classes.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Set, Tuple

from repro.graph.snapshot import CsrSnapshot
from repro.metrics.opcounter import OpCounter, ensure_counter


def lexicographically_first_mis(
    graph: CsrSnapshot,
    active: Set[Hashable],
    counter: Optional[OpCounter] = None,
) -> Set[Hashable]:
    """The LF-MIS of the subgraph induced by ``active``."""
    ops = ensure_counter(counter)
    mis: Set[Hashable] = set()
    for v in sorted(active, key=repr):
        ops.add()
        blocked = False
        for u in graph.neighbors(v):
            ops.add()
            if u in mis:
                blocked = True
                break
        if not blocked:
            mis.add(v)
    return mis


def greedy_mis_coloring(
    graph: CsrSnapshot, counter: Optional[OpCounter] = None
) -> Tuple[Dict[Hashable, int], int]:
    """Color by peeling LF-MIS phases.

    Returns ``(colors, num_colors)``; adjacent vertices always get
    different colors because each color class is independent.
    """
    ops = ensure_counter(counter)
    active: Set[Hashable] = set(graph.vertices())
    colors: Dict[Hashable, int] = {}
    color = 0
    while active:
        mis = lexicographically_first_mis(graph, active, ops)
        for v in mis:
            colors[v] = color
            ops.add()
        active -= mis
        color += 1
    return colors, color


def greedy_sequential_coloring(
    graph: CsrSnapshot, counter: Optional[OpCounter] = None
) -> Tuple[Dict[Hashable, int], int]:
    """Classic first-fit greedy coloring in id order — ``O(m + n)``.

    Not the paper's comparator (kept for ablation benches: it shows
    how much the MIS formulation costs even sequentially).
    """
    ops = ensure_counter(counter)
    colors: Dict[Hashable, int] = {}
    max_color = -1
    for v in sorted(graph.vertices(), key=repr):
        ops.add()
        taken: List[int] = []
        for u in graph.neighbors(v):
            ops.add()
            if u in colors:
                taken.append(colors[u])
        taken_set = set(taken)
        c = 0
        while c in taken_set:
            c += 1
        colors[v] = c
        if c > max_color:
            max_color = c
    return colors, max_color + 1
