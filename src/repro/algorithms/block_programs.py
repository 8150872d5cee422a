"""Subgraph-centric programs: §3.8's analytics done the way the
paper says they should be.

* :class:`BlockTriangleCounting` — each block counts internal
  triangles locally for free and fetches each *external* neighbor's
  adjacency exactly once; network traffic is proportional to the
  partition cut, not to ``Σ C(d(v), 2)`` wedge messages.
* :class:`BlockHashMin` — connected components with block-local label
  propagation run to a fixpoint inside each superstep; only cross-block
  frontier updates hit the network, collapsing the Θ(δ) global
  supersteps to Θ(block-graph diameter).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Set, Tuple

from repro.algorithms.cc_hashmin import repr_key
from repro.bsp.block import (
    BlockContext,
    BlockProgram,
    BlockResult,
    BlockView,
    run_blocks,
)
from repro.graph.graph import Graph


class BlockTriangleCounting(BlockProgram):
    """Three supersteps: request external adjacency, answer, count.

    Triangles ``u < v < w`` (by id order) are counted by the block
    owning ``u``, so every triangle is counted exactly once no matter
    how it straddles blocks.
    """

    name = "block-triangles"

    def __init__(self):
        self._adj_cache: Dict[int, Dict[Hashable, Set]] = {}

    def compute(
        self,
        block: BlockView,
        messages: List,
        ctx: BlockContext,
    ) -> None:
        if ctx.superstep == 0:
            # Request adjacency of every external neighbor, once.
            external: Set[Hashable] = set()
            for nbrs in block.boundary.values():
                external.update(nbrs)
            for v in sorted(external, key=repr):
                ctx.send(v, ("req", block.index))
            ctx.charge(len(external))
            self._adj_cache[block.index] = {}
            if not external:
                self._count(block, ctx)
                ctx.vote_to_halt()
        elif ctx.superstep == 1:
            # Answer requests with the requested vertex's adjacency.
            asked: Set[Tuple] = set()
            for target, (tag, requester) in messages:
                if tag != "req" or (target, requester) in asked:
                    continue
                asked.add((target, requester))
                nbrs = tuple(block.subgraph.neighbors(target)) + tuple(
                    block.boundary.get(target, ())
                )
                ctx.charge(len(nbrs))
                # Reply addressed to any vertex of the requesting
                # block; route via a representative vertex id.
                ctx.send(
                    self._representative(requester),
                    ("adj", target, frozenset(nbrs)),
                )
            ctx.vote_to_halt()
        else:
            cache = self._adj_cache[block.index]
            for _target, (tag, vertex_id, nbrs) in [
                (t, m) for t, m in messages if m[0] == "adj"
            ]:
                cache[vertex_id] = set(nbrs)
                ctx.charge(len(nbrs))
            self._count(block, ctx)
            ctx.vote_to_halt()

    # The engine routes messages by vertex; a block is addressed via
    # one of its vertices.  The representative map is installed by
    # :func:`block_triangle_count` before the run.
    _representatives: Dict[int, Hashable] = {}

    def _representative(self, block_index: int) -> Hashable:
        return self._representatives[block_index]

    def _count(self, block: BlockView, ctx: BlockContext) -> None:
        cache = self._adj_cache.get(block.index, {})
        local = block.subgraph

        def neighbors_of(x) -> Set:
            if local.has_vertex(x):
                out = set(local.neighbors(x))
                out.update(block.boundary.get(x, ()))
                return out
            return cache.get(x, set())

        count = 0
        for u in block.vertices:
            u_key = repr_key(u)
            u_nbrs = [
                x for x in neighbors_of(u) if repr_key(x) > u_key
            ]
            ctx.charge(len(u_nbrs))
            for v in sorted(u_nbrs, key=repr_key):
                v_nbrs = neighbors_of(v)
                for w in u_nbrs:
                    if repr_key(w) > repr_key(v) and w in v_nbrs:
                        count += 1
                        ctx.charge(1)
        # Store the block total on its smallest vertex.
        anchor = min(block.vertices, key=repr_key)
        block.values[anchor] = (block.values[anchor] or 0) + count


def block_triangle_count(
    graph: Graph, **engine_kwargs
) -> Tuple[int, BlockResult]:
    """Total triangles via the subgraph-centric protocol."""
    program = BlockTriangleCounting()
    from repro.bsp.block import BlockEngine

    engine = BlockEngine(graph, program, **engine_kwargs)
    program._representatives = {
        b.index: min(b.vertices, key=repr_key)
        for b in engine._blocks
        if b.vertices
    }
    result = engine.run()
    total = sum(v for v in result.values.values() if v)
    return total, result


class BlockHashMin(BlockProgram):
    """Connected components with in-block fixpoints per superstep."""

    name = "block-hash-min"

    def compute(
        self,
        block: BlockView,
        messages: List,
        ctx: BlockContext,
    ) -> None:
        values = block.values
        if ctx.superstep == 0:
            for v in block.vertices:
                values[v] = v
        changed: Set[Hashable] = set(
            block.vertices if ctx.superstep == 0 else ()
        )
        for target, label in messages:
            if repr_key(label) < repr_key(values[target]):
                values[target] = label
                changed.add(target)
        # Local fixpoint: propagate inside the block for free.
        frontier = list(changed)
        while frontier:
            v = frontier.pop()
            ctx.charge(1)
            for u in block.subgraph.neighbors(v):
                if repr_key(values[v]) < repr_key(values[u]):
                    values[u] = values[v]
                    changed.add(u)
                    frontier.append(u)
        # Only boundary updates cross the network.
        for v in changed:
            for u in block.boundary.get(v, ()):
                ctx.send(u, values[v])
        ctx.vote_to_halt()


def block_hash_min(
    graph: Graph, **engine_kwargs
) -> Tuple[Dict[Hashable, Hashable], BlockResult]:
    """Connected components; returns ``(labels, result)``."""
    result = run_blocks(graph, BlockHashMin(), **engine_kwargs)
    return dict(result.values), result
