"""Host-speed probe: what the end-to-end timings are corrected by.

The hosts this benchmark runs on are small shared VMs whose effective
CPU speed drifts by 20-30% over seconds to minutes (process CPU time
drifts with it, the guest sees no steal).  Medians over the ten or so
repetitions that fit one invocation inherit the whole drift: ten
invocations of one commit spread 16-27% between their quartiles, wider
than any bound worth having.  So every timed repetition is bracketed by
two runs of a fixed pure-Python kernel, and its seconds are scaled by
``REFERENCE_S / mean(probe before, probe after)`` — seconds as they
would have read had the host run at reference speed throughout.  On a
quiet host the factor is a constant and nothing changes; on a drifting
one the spread between invocations drops about threefold (measured:
0.19 → 0.05-0.07 on ``pagerank-ba`` and ``sssp-grid``).

The kernel touches nothing of the program under test, so a change to
the program cannot move it.  It mixes what the program's hot loops
are made of — dict read-modify-write, float arithmetic, list slicing,
int boxing — over a working set of ~2 MB; its size hardly matters
(25k- and 400k-vertex variants tracked the drift equally well), its
duration does (~150 ms; 40 ms probes were a third noisier).
"""

from __future__ import annotations

import random
from array import array
from time import perf_counter

#: The probe's duration on the sizing host in its fast state.  Only
#: fixes the unit: corrected seconds are near raw seconds there.
REFERENCE_S = 0.150

_VERTICES = 25_000
_DEGREE = 8
_PASSES = 5


class HostSpeed:
    """Build the kernel's input once; ``probe()`` times one run."""

    def __init__(self) -> None:
        rng = random.Random(7)
        self._adjacency = array(
            "l",
            (
                rng.randrange(_VERTICES)
                for _ in range(_VERTICES * _DEGREE)
            ),
        )
        self.probes = []

    def probe(self) -> float:
        adjacency = self._adjacency
        start = perf_counter()
        for _ in range(_PASSES):
            acc = {}
            get = acc.get
            for i in range(_VERTICES):
                share = (i + 1.0) / _DEGREE
                base = i * _DEGREE
                for j in adjacency[base:base + _DEGREE]:
                    acc[j] = get(j, 0.0) + share
        elapsed = perf_counter() - start
        self.probes.append(elapsed)
        return elapsed

    def correction(self) -> float:
        """Probe now, and return what to multiply raw seconds measured
        since the previous probe by."""
        before = self.probes[-1]
        return REFERENCE_S / ((before + self.probe()) / 2)
