"""Tests for the BPPA tracker, state sizing and verdicts."""

import enum
from collections import OrderedDict, defaultdict, namedtuple

import pytest

from repro.metrics import BppaTracker, BppaVerdict, state_atoms


class TestStateAtoms:
    def test_scalars(self):
        assert state_atoms(None) == 0
        assert state_atoms(5) == 1
        assert state_atoms(2.5) == 1
        assert state_atoms("abc") == 1
        assert state_atoms(True) == 1

    def test_containers(self):
        assert state_atoms([1, 2, 3]) == 3
        assert state_atoms({1, 2}) == 2
        assert state_atoms((1, (2, 3))) == 3
        assert state_atoms({"a": 1, "b": [2, 3]}) == 5

    def test_object_with_dict(self):
        class Value:
            def __init__(self):
                self.x = 1
                self.history = {1, 2, 3}

        assert state_atoms(Value()) == 1 + 1 + 3 + 1  # keys + values

    def test_empty_containers(self):
        assert state_atoms([]) == 0
        assert state_atoms({}) == 0

    def test_none_inside_containers_counts_nothing(self):
        assert state_atoms([None, 1, None]) == 1
        assert state_atoms({"parent": None, "depth": None}) == 2
        assert state_atoms({None: None}) == 0


class TestSubclassesTakeTheGeneralRule:
    """Types that are not exactly a builtin scalar or container fall
    through to the ``isinstance`` rule and count as they always did."""

    def test_str_subclass_is_one_atom(self):
        class Label(str):
            pass

        assert state_atoms(Label("abc")) == 1
        assert state_atoms([Label("a"), Label("b")]) == 2

    def test_int_enum_is_one_atom(self):
        class Colour(enum.IntEnum):
            RED = 1

        assert state_atoms(Colour.RED) == 1
        assert state_atoms({Colour.RED: (Colour.RED, 2)}) == 3

    def test_numpy_scalars_are_one_atom(self):
        numpy = pytest.importorskip("numpy")
        assert state_atoms(numpy.float64(2.5)) == 1
        assert state_atoms([numpy.float64(1.0), numpy.int64(3)]) == 2

    def test_ordered_dict_counts_keys_and_values(self):
        assert state_atoms(OrderedDict(a=1, b=[2, 3])) == 5

    def test_defaultdict_counts_keys_and_values(self):
        value = defaultdict(set, {"seen": {1, 2, 3}, "next": None})
        assert state_atoms(value) == 1 + 3 + 1

    def test_namedtuple_counts_its_fields(self):
        Pair = namedtuple("Pair", "left right")
        assert state_atoms(Pair(1, (2, None))) == 2

    def test_slots_object_is_one_atom(self):
        class Slotted:
            __slots__ = ("history",)

            def __init__(self):
                self.history = {1, 2, 3}

        assert state_atoms(Slotted()) == 1


class TestTracker:
    def test_records_worst_factors(self):
        t = BppaTracker({1: 2, 2: 4})
        t.record_vertex(1, sent=3, received=1, compute_ops=6, storage=9)
        t.record_vertex(2, sent=1, received=1, compute_ops=1, storage=1)
        obs = t.observation
        assert obs.message_factor == 1.0  # 3 / (2 + 1)
        assert obs.compute_factor == 2.0  # 6 / 3
        assert obs.storage_factor == 3.0  # 9 / 3
        assert obs.n == 2

    def test_received_dominates_when_larger(self):
        t = BppaTracker({1: 0})
        t.record_vertex(1, sent=0, received=5, compute_ops=1, storage=0)
        assert t.observation.message_factor == 5.0

    def test_supersteps_counted(self):
        t = BppaTracker({})
        t.record_superstep()
        t.record_superstep()
        assert t.observation.num_supersteps == 2

    def test_unknown_vertex_uses_zero_degree(self):
        t = BppaTracker({})
        t.record_vertex("ghost", 2, 0, 1, 0)
        assert t.observation.message_factor == 2.0

    def test_as_dict(self):
        t = BppaTracker({1: 1})
        d = t.observation.as_dict()
        assert set(d) == {
            "n",
            "supersteps",
            "P1_storage_factor",
            "P2_compute_factor",
            "P3_message_factor",
        }


class TestVerdict:
    def test_is_bppa_requires_all_four(self):
        v = BppaVerdict(True, True, True, True)
        assert v.is_bppa and v.is_balanced
        assert v.failures() == []

    def test_balanced_but_not_bppa(self):
        # PageRank's profile: balanced per superstep, too many rounds.
        v = BppaVerdict(True, True, True, False)
        assert v.is_balanced
        assert not v.is_bppa
        assert v.failures() == ["P4-supersteps"]

    def test_failures_listing(self):
        v = BppaVerdict(False, True, False, False)
        assert v.failures() == ["P1-storage", "P3-messages", "P4-supersteps"]
