"""The vertex-program abstraction: Pregel's ``vertex.compute()``.

Subclass :class:`VertexProgram` and implement :meth:`compute`; the
engine calls it once per active vertex per superstep with the messages
sent to that vertex in the previous superstep.  Superstep 0 runs on
every vertex with an empty message list, as in Pregel.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Hashable, List

from repro.bsp.context import ComputeContext, MasterContext
from repro.bsp.vertex import VertexState
from repro.graph.graph import Graph
from repro.metrics.bppa import state_atoms


class VertexProgram(ABC):
    """Base class for all vertex-centric algorithms in this package.

    Subclasses may also carry *global* state (a phase marker advanced
    by :meth:`master_compute`, mirrors Giraph's master computation);
    such state must be treated as replicated-and-synchronized, never as
    a hidden channel between vertices.
    """

    #: Human-readable name used in reports and error messages.
    name: str = "vertex-program"

    #: Whether the process-parallel backend may execute this program's
    #: partitions in worker processes.  Declare ``False`` for programs
    #: whose ``compute`` breaks partition isolation: drawing from the
    #: run's shared ``ctx.random`` stream (its consumption order is
    #: inherently sequential across workers), or mutating shared
    #: program/topology state in place.  The parallel backend then
    #: degrades to the (byte-identical) serial path up front instead
    #: of discovering the violation mid-run.  RNG consumption is also
    #: detected dynamically as a safety net, so leaving this ``True``
    #: on a randomized program is slow (one discarded superstep) but
    #: never incorrect.
    parallel_safe: bool = True

    def initial_value(self, vertex_id: Hashable, graph: Graph) -> Any:
        """The value each vertex starts with (default ``None``)."""
        return None

    @abstractmethod
    def compute(
        self,
        vertex: VertexState,
        messages: List[Any],
        ctx: ComputeContext,
    ) -> None:
        """The per-vertex, per-superstep computation."""

    def master_compute(self, master: MasterContext) -> None:
        """Optional global hook run between supersteps."""

    def aggregators(self) -> dict:
        """Aggregators this program uses: ``{name: Aggregator}``."""
        return {}

    def state_size(self, vertex: VertexState) -> int:
        """Storage charged to this vertex for BPPA property P1.

        Default: the number of elementary items in ``vertex.value``.
        Programs whose value holds bookkeeping that a real
        implementation would not store may override.
        """
        return state_atoms(vertex.value)
