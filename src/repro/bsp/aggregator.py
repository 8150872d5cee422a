"""Pregel aggregators: commutative-associative global reductions.

Vertices contribute values during superstep ``S`` via
``ctx.aggregate(name, value)``; the reduced result is visible to every
vertex in superstep ``S + 1`` (and to ``master_compute`` right after
``S``), exactly as in Pregel.
"""

from __future__ import annotations

import operator
import sys
from abc import ABC, abstractmethod
from functools import reduce
from typing import Any, Dict


def _left_fold(values, start=0):
    return reduce(operator.add, values, start)


#: ``start + v0 + v1 + ...`` in that order: the program's ``total += m``
#: loop.  That is ``sum`` itself before CPython 3.12; from 3.12 on
#: ``sum`` compensates float rounding (gh-100425), so it is spelled out.
left_sum = sum if sys.version_info < (3, 12) else _left_fold


class Aggregator(ABC):
    """Base class: an identity element plus a binary reduction."""

    @abstractmethod
    def initial(self) -> Any:
        """The identity value at the start of each superstep."""

    @abstractmethod
    def reduce(self, current: Any, value: Any) -> Any:
        """Fold ``value`` into the running ``current``."""


class SumAggregator(Aggregator):
    """Numeric sum (identity 0)."""

    def initial(self):
        return 0

    def reduce(self, current, value):
        return current + value


class CountAggregator(SumAggregator):
    """Counts contributions; vertices typically aggregate ``1``."""


class MinAggregator(Aggregator):
    """Minimum; identity ``None`` (no contribution)."""

    def initial(self):
        return None

    def reduce(self, current, value):
        if current is None:
            return value
        return value if value < current else current


class MaxAggregator(Aggregator):
    """Maximum; identity ``None`` (no contribution)."""

    def initial(self):
        return None

    def reduce(self, current, value):
        if current is None:
            return value
        return value if value > current else current


class AndAggregator(Aggregator):
    """Logical conjunction (identity True) — "did every vertex …?"."""

    def initial(self):
        return True

    def reduce(self, current, value):
        return bool(current and value)


class OrAggregator(Aggregator):
    """Logical disjunction (identity False) — "did any vertex …?"."""

    def initial(self):
        return False

    def reduce(self, current, value):
        return bool(current or value)


class AggregateSink:
    """The Pregel engine's running reductions of one superstep: the
    compute context's ``aggregate`` is the bound :meth:`aggregate`.
    :meth:`reset` re-seeds ``current`` with every aggregator's
    ``initial()``, so an unknown name raises ``KeyError`` exactly as
    the registry lookup would."""

    __slots__ = ("aggregators", "current")

    def __init__(self, aggregators: Dict[str, Aggregator]):
        self.aggregators = aggregators
        self.current: Dict[str, Any] = {}

    def reset(self) -> None:
        self.current = {
            name: agg.initial() for name, agg in self.aggregators.items()
        }

    def aggregate(self, name: str, value: Any) -> None:
        current = self.current
        current[name] = self.aggregators[name].reduce(current[name], value)

    def aggregate_many(self, name: str, values) -> None:
        """Fold ``values`` into aggregator ``name`` in order — the
        reduce sequence of one :meth:`aggregate` call per value."""
        current = self.current
        aggregator = self.aggregators[name]
        if type(aggregator) is SumAggregator:
            current[name] = left_sum(values, current[name])
        else:
            current[name] = reduce(aggregator.reduce, values, current[name])
