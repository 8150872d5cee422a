"""Typed columns: the one encoding of a column of values.

A column whose values are *exactly* floats, or *exactly* ints within
int64 range, is held as a typed ``array`` — compact, bulk-copied at C
speed, and bit-exact (CPython floats *are* float64, and in-range ints
convert losslessly).  Any other column stays a plain list, so the
encoding never constrains what a program may compute with.

The dense plane's lane records (:mod:`repro.bsp.fabric`), the
checkpoint columns (:mod:`repro.bsp.checkpoint`,
:mod:`repro.bsp.durability`) and the process-parallel backend's
step/reply messages (:mod:`repro.bsp.parallel`, which pickles them
over the rank pipe) all type their columns here.
"""

from __future__ import annotations

from array import array
from typing import Any, List, Optional, Sequence, Tuple

#: ``array`` typecodes of the two fixed-width numeric column types.
LANE_FLOAT = "d"  # IEEE-754 float64 — CPython's float, bit-exact
LANE_INT = "q"  # int64 — exact for every int in range


def encode_lane(values: Sequence[Any]) -> Optional[Tuple[str, array]]:
    """Encode a column as a typed array, or ``None`` if it does not
    conform (the caller then keeps the plain list).

    Conforming means *exactly* ``float`` or *exactly* ``int`` (within
    int64 range) throughout — checked with C-speed ``type`` mapping,
    never coercion: ``array('d', [3])`` would silently turn the int 3
    into 3.0 and break byte-identity, and ``bool`` is excluded because
    ``type(True)`` is not ``int`` under this check (True pickles
    differently from 1).  Empty columns encode as an empty float lane.
    """
    kinds = set(map(type, values))
    if kinds == {float}:
        return LANE_FLOAT, array(LANE_FLOAT, values)
    if kinds == {int}:
        try:
            return LANE_INT, array(LANE_INT, values)
        except OverflowError:
            return None
    if not kinds:
        return LANE_FLOAT, array(LANE_FLOAT)
    return None


def typed_column(values: List[Any]):
    """``values`` as the typed array :func:`encode_lane` makes of it,
    or ``values`` itself when it does not conform."""
    encoded = encode_lane(values)
    return values if encoded is None else encoded[1]
