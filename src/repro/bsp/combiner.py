"""Pregel combiners: sender-side message reduction.

When a program's messages to a common destination can be folded into
one (min, max, sum, …) a combiner cuts network traffic.  The engine
applies the combiner per ``(sending worker, destination vertex)`` pair,
mirroring Pregel's worker-local combining, and records both the logical
message count (what the program emitted — used for local work ``w``)
and the combined network count (what crosses the wire — used for the
``h``-relation in the cost model).

The engine folds at one of two points depending on its execution path
(see ``docs/performance.md``):

* the **reference dict path** buffers every logical message as a
  ``(src_worker, message)`` tuple and folds at delivery time;
* the **dense fast path** folds *at send time* into a per-
  ``(destination, sending worker)`` slot, so a superstep buffers
  O(occupied slots) instead of O(logical messages).

Both paths fold messages in exactly the same (send) order, so a
combiner only needs to be deterministic — it does not need to be
commutative for the two paths to agree bit-for-bit (though Pregel
semantics still expect commutative + associative folds, since message
arrival order is unspecified in a real cluster).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Dict, Optional, Type, Union


class Combiner(ABC):
    """A commutative, associative binary fold over messages."""

    @abstractmethod
    def combine(self, a: Any, b: Any) -> Any:
        """Fold two messages addressed to the same vertex into one."""


class MinCombiner(Combiner):
    """Keep the smallest message (Hash-Min, SSSP)."""

    def combine(self, a, b):
        return a if a <= b else b


class MaxCombiner(Combiner):
    """Keep the largest message."""

    def combine(self, a, b):
        return a if a >= b else b


class SumCombiner(Combiner):
    """Add messages (PageRank mass, counting)."""

    def combine(self, a, b):
        return a + b


#: Name -> class registry for surfaces that take a combiner by name
#: (the workload tables of the differential suites under ``tests/``).
COMBINERS: Dict[str, Type[Combiner]] = {
    "min": MinCombiner,
    "max": MaxCombiner,
    "sum": SumCombiner,
}


def resolve_combiner(
    spec: Union[None, str, Combiner, Type[Combiner]],
) -> Optional[Combiner]:
    """Normalize a combiner spec to an instance (or ``None``).

    Accepts ``None``, a registry name (``"min"``/``"max"``/``"sum"``),
    a :class:`Combiner` instance, or a :class:`Combiner` subclass.
    """
    if spec is None or isinstance(spec, Combiner):
        return spec
    if isinstance(spec, str):
        try:
            return COMBINERS[spec]()
        except KeyError:
            raise ValueError(
                f"unknown combiner {spec!r}; "
                f"known: {sorted(COMBINERS)}"
            ) from None
    if isinstance(spec, type) and issubclass(spec, Combiner):
        return spec()
    raise TypeError(f"cannot interpret {spec!r} as a combiner")
