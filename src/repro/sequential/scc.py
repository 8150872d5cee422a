"""Tarjan's strongly connected components (Table 1 row 7's sequential
reference, ``O(m + n)``), implemented iteratively."""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional

from repro.graph.snapshot import CsrSnapshot
from repro.metrics.opcounter import OpCounter, ensure_counter


def strongly_connected_components(
    graph: CsrSnapshot, counter: Optional[OpCounter] = None
) -> Dict[Hashable, Hashable]:
    """SCC labels: each vertex maps to the smallest vertex of its SCC.

    Classic Tarjan with an explicit frame stack.
    """
    ops = ensure_counter(counter)
    disc: Dict[Hashable, int] = {}
    low: Dict[Hashable, int] = {}
    on_stack: Dict[Hashable, bool] = {}
    scc_stack: List[Hashable] = []
    label: Dict[Hashable, Hashable] = {}
    index = 0

    for start in graph.vertices():
        ops.add()
        if start in disc:
            continue
        disc[start] = low[start] = index
        index += 1
        scc_stack.append(start)
        on_stack[start] = True
        frames = [(start, iter(graph.sorted_neighbors(start)))]
        while frames:
            v, nbrs = frames[-1]
            advanced = False
            for w in nbrs:
                ops.add()
                if w not in disc:
                    disc[w] = low[w] = index
                    index += 1
                    scc_stack.append(w)
                    on_stack[w] = True
                    frames.append(
                        (w, iter(graph.sorted_neighbors(w)))
                    )
                    advanced = True
                    break
                if on_stack.get(w) and disc[w] < low[v]:
                    low[v] = disc[w]
            if advanced:
                continue
            frames.pop()
            ops.add()
            if frames:
                u = frames[-1][0]
                if low[v] < low[u]:
                    low[u] = low[v]
            if low[v] == disc[v]:
                # v is the root of an SCC: pop its members.
                members: List[Hashable] = []
                while True:
                    w = scc_stack.pop()
                    on_stack[w] = False
                    members.append(w)
                    ops.add()
                    if w == v:
                        break
                color = min(members)
                for w in members:
                    label[w] = color
    return label
