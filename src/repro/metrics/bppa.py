"""Empirical checker for Balanced Practical Pregel Algorithms (§2.2).

A Pregel algorithm is a BPPA when, for every vertex ``v`` with (total)
degree ``d(v)``:

* **P1** storage is ``O(d(v))``;
* **P2** per-superstep compute time is ``O(d(v))``;
* **P3** per-superstep messages sent/received are ``O(d(v))``;
* **P4** the algorithm terminates in ``O(log n)`` supersteps.

The tracker observes every ``compute()`` call the engine makes and
keeps, per run, the *worst balance factor* for each property: e.g. for
P3 the maximum over all vertices and supersteps of
``messages_sent / (d(v) + 1)``.  A single run can only measure
constants; the Table 1 harness therefore runs a size sweep and fits the
growth of each factor (and of the superstep count against ``log2 n``)
to produce the asymptotic verdict — see
:mod:`repro.metrics.complexity`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Hashable, Iterable, Tuple


#: Exact types counted by dispatch; subclasses take the general rule.
_SCALARS = frozenset((bool, int, float, complex, str, bytes))
_FLAT = frozenset((list, tuple, set, frozenset))


def state_atoms(value: Any) -> int:
    """Count the elementary items in a (possibly nested) vertex value.

    Scalars count 1; containers count the sum of their items, so a
    history set of ``k`` vertex ids costs ``k`` — exactly the storage
    notion P1 reasons about.  Cycles are not expected in vertex state
    and are not handled.  Exact builtin types are dispatched on
    ``type(value)``: a container starts from one atom per item and
    recurses only into the items that are not scalars.  Every other
    type, subclasses included, takes the ``isinstance`` rule below,
    which gives the same count.
    """
    kind = type(value)
    if kind in _SCALARS:
        return 1
    if kind is dict:
        # The item loops are inline: a helper call per container costs
        # more than the loop it would share.
        count = 2 * len(value)
        for item in value:
            if type(item) not in _SCALARS:
                count += state_atoms(item) - 1
        for item in value.values():
            if type(item) not in _SCALARS:
                count += state_atoms(item) - 1
        return count
    if kind in _FLAT:
        count = len(value)
        for item in value:
            if type(item) not in _SCALARS:
                count += state_atoms(item) - 1
        return count
    if value is None:
        return 0
    if isinstance(value, (bool, int, float, complex, str, bytes)):
        return 1
    if isinstance(value, dict):
        return sum(
            state_atoms(k) + state_atoms(v) for k, v in value.items()
        )
    if isinstance(value, (list, tuple, set, frozenset)):
        return sum(state_atoms(item) for item in value)
    if hasattr(value, "__dict__"):
        return state_atoms(vars(value))
    return 1


@dataclass
class BppaObservation:
    """Worst-case balance factors observed during one run.

    Each factor is the max over vertices (and supersteps, where
    applicable) of ``quantity / (d(v) + 1)``; ``+1`` avoids division by
    zero on isolated vertices and only tightens the check.
    """

    n: int
    num_supersteps: int = 0
    storage_factor: float = 0.0     # P1
    compute_factor: float = 0.0     # P2
    message_factor: float = 0.0     # P3 (max of sent and received)

    def as_dict(self) -> Dict[str, float]:
        return {
            "n": self.n,
            "supersteps": self.num_supersteps,
            "P1_storage_factor": self.storage_factor,
            "P2_compute_factor": self.compute_factor,
            "P3_message_factor": self.message_factor,
        }


class BppaTracker:
    """Online tracker fed by the engine, one per run.

    Parameters
    ----------
    degrees:
        Map of vertex id to its degree in the *input* graph (``d(v)``
        for undirected graphs, ``d_in + d_out`` for directed ones) —
        the balance denominators of the BPPA definition.
    """

    def __init__(self, degrees: Dict[Hashable, int]):
        self._degrees = degrees
        self.observation = BppaObservation(n=len(degrees))

    def record_vertex(
        self,
        vertex_id: Hashable,
        sent: int,
        received: int,
        compute_ops: float,
        storage: int,
    ) -> None:
        """Record one vertex's activity in the current superstep."""
        denom = self._degrees.get(vertex_id, 0) + 1
        obs = self.observation
        msg_factor = max(sent, received) / denom
        if msg_factor > obs.message_factor:
            obs.message_factor = msg_factor
        ops_factor = compute_ops / denom
        if ops_factor > obs.compute_factor:
            obs.compute_factor = ops_factor
        storage_factor = storage / denom
        if storage_factor > obs.storage_factor:
            obs.storage_factor = storage_factor

    def record_superstep(self) -> None:
        self.observation.num_supersteps += 1

    def restricted(self, ids: Iterable[Hashable]) -> "BppaTracker":
        """A fresh tracker over ``ids``' degrees only — a process-
        parallel rank's slice."""
        degrees = self._degrees
        return BppaTracker({v: degrees.get(v, 0) for v in ids})

    def maxima(self) -> Tuple[float, float, float]:
        """The P1, P2 and P3 factors observed so far."""
        obs = self.observation
        return obs.storage_factor, obs.compute_factor, obs.message_factor

    def fold(self, maxima: Tuple[float, float, float]) -> None:
        """Fold another tracker's :meth:`maxima` in.  A running
        maximum does not depend on the order it sees rows in, so
        folding the trackers of disjoint slices equals one tracker
        fed every row."""
        obs = self.observation
        storage, compute, message = maxima
        if storage > obs.storage_factor:
            obs.storage_factor = storage
        if compute > obs.compute_factor:
            obs.compute_factor = compute
        if message > obs.message_factor:
            obs.message_factor = message


@dataclass
class BppaVerdict:
    """Asymptotic verdict over a size sweep, one flag per property."""

    p1_storage_balanced: bool
    p2_compute_balanced: bool
    p3_messages_balanced: bool
    p4_logarithmic_supersteps: bool

    @property
    def is_bppa(self) -> bool:
        return (
            self.p1_storage_balanced
            and self.p2_compute_balanced
            and self.p3_messages_balanced
            and self.p4_logarithmic_supersteps
        )

    @property
    def is_balanced(self) -> bool:
        """Properties 1–3 only — the paper's "balanced Pregel
        algorithm" (e.g. PageRank and Hash-Min are balanced but fail
        P4)."""
        return (
            self.p1_storage_balanced
            and self.p2_compute_balanced
            and self.p3_messages_balanced
        )

    def failures(self) -> list:
        """Names of the violated properties, in order."""
        out = []
        if not self.p1_storage_balanced:
            out.append("P1-storage")
        if not self.p2_compute_balanced:
            out.append("P2-compute")
        if not self.p3_messages_balanced:
            out.append("P3-messages")
        if not self.p4_logarithmic_supersteps:
            out.append("P4-supersteps")
        return out
