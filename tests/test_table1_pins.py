"""Pins every Table 1 row's BPPA observations and verdicts.

For each row, each size of its sweep contributes the exact ``repr`` of
the three balance factors (P1 storage, P2 compute, P3 messages) of its
``BppaObservation``, the observation's superstep count, the graph's
``n`` and the vertex-centric side's message and work totals; the row
adds its More-Work and BPPA bits.  The lines are hashed per row and
compared with the committed digests below, so a change to how the
runtime charges P1-P3, counts supersteps or decides a verdict fails
here and names the row, even when the verdict itself survives.

The digests were recorded before the P1 charge was re-implemented by
type dispatch; they must not be edited to make a change pass.  Set
state (Luby's MIS, bipartite matching) iterates in hash order, so the
determinism job runs this module under several ``PYTHONHASHSEED``
values.  ``benchmarks/bench_table1_pins.py`` holds the same pin at
the repo benchmark's configuration (``scale=0.4``, seed 1).
"""

from __future__ import annotations

import hashlib
from typing import Dict, Sequence

import pytest

from repro.core.table1 import build_table

SCALE = 0.2


def row_digests(table: Sequence) -> Dict[int, str]:
    """Row number -> first 16 hex digits of the row's SHA-256."""
    digests = {}
    for row in table:
        lines = []
        for m in row.result.measurements:
            obs = m.bppa
            lines.append(
                f"{m.size} n={m.n} supersteps={obs.num_supersteps} "
                f"P1={obs.storage_factor!r} P2={obs.compute_factor!r} "
                f"P3={obs.message_factor!r} msgs={m.vc_messages} "
                f"work={m.vc_work!r}"
            )
        lines.append(
            f"more_work={row.result.more_work} "
            f"is_bppa={row.result.bppa.is_bppa}"
        )
        text = "\n".join(lines).encode()
        digests[row.spec.row] = hashlib.sha256(text).hexdigest()[:16]
    return digests


def assert_pinned(table, pinned: Dict[int, str], label: str) -> None:
    got = row_digests(table)
    changed = [r for r in sorted(pinned) if got.get(r) != pinned[r]]
    assert not changed, (
        f"{label}: rows {changed} no longer give their pinned BPPA "
        f"observations and verdicts; got "
        f"{ {r: got.get(r) for r in changed} }"
    )


PINNED = {
    1: {
        1: "efbd607680b8f7c6", 2: "552bcb48ecfa44ed",
        3: "ea439166d7587c14", 4: "ec7110c3366e86e1",
        5: "9753b726d4c1db31", 6: "11338a25ca61d56c",
        7: "1716980aaf45931a", 8: "ab258591ebf37265",
        9: "8c3de34eff042485", 10: "ec7110c3366e86e1",
        11: "3e7bcfe0a8b8eae6", 12: "4402ee36bb36db89",
        13: "51f5fe922cf1359d", 14: "b979406babf7c40f",
        15: "8b7935e7b8bf821d", 16: "ef016673dade92b4",
        17: "efbd607680b8f7c6", 18: "ee3f9cd2c0a1d40b",
        19: "151d3d867f61280c", 20: "5a6a0aaa95b1fb3d",
    },
    2: {
        1: "efbd607680b8f7c6", 2: "ffa36ebf4d9bbdab",
        3: "ea439166d7587c14", 4: "ec7110c3366e86e1",
        5: "d8d79bd25d998ad9", 6: "11338a25ca61d56c",
        7: "1716980aaf45931a", 8: "0cded4cfb11608b1",
        9: "8c3de34eff042485", 10: "ec7110c3366e86e1",
        11: "b6f36d907ba48e32", 12: "b3a5397bb861d0b2",
        13: "51f5fe922cf1359d", 14: "8311f519e10025c0",
        15: "75bf820924955f20", 16: "ef016673dade92b4",
        17: "efbd607680b8f7c6", 18: "ee3f9cd2c0a1d40b",
        19: "151d3d867f61280c", 20: "5a6a0aaa95b1fb3d",
    },
    3: {
        1: "efbd607680b8f7c6", 2: "ac744ddfdefe89ca",
        3: "ea439166d7587c14", 4: "ec7110c3366e86e1",
        5: "f9efc43d3b3abf0f", 6: "11338a25ca61d56c",
        7: "1716980aaf45931a", 8: "f324afa9a6ec2384",
        9: "8c3de34eff042485", 10: "ec7110c3366e86e1",
        11: "f75d84978e06738b", 12: "749480d59fb883be",
        13: "51f5fe922cf1359d", 14: "e264ceb98fd9672b",
        15: "70ac1db81d33b629", 16: "ef016673dade92b4",
        17: "efbd607680b8f7c6", 18: "ee3f9cd2c0a1d40b",
        19: "151d3d867f61280c", 20: "5a6a0aaa95b1fb3d",
    },
}


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_table1_observations_and_verdicts_are_pinned(seed):
    table = build_table(seed=seed, scale=SCALE)
    assert len(table) == 20
    assert_pinned(table, PINNED[seed], f"scale={SCALE} seed={seed}")
