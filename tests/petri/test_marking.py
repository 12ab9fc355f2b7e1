"""Unit tests for the immutable Marking class."""

import pytest

from repro.petri import Marking


class TestConstruction:
    def test_empty_marking(self):
        m = Marking()
        assert len(m) == 0
        assert m.total_tokens() == 0

    def test_zero_entries_dropped(self):
        m = Marking({"p1": 1, "p2": 0})
        assert "p2" not in m
        assert m["p2"] == 0

    def test_negative_tokens_rejected(self):
        with pytest.raises(ValueError):
            Marking({"p1": -1})

    def test_construction_from_pairs(self):
        m = Marking([("a", 2), ("b", 1)])
        assert m["a"] == 2 and m["b"] == 1


class TestEqualityAndHashing:
    def test_equal_markings_equal_hash(self):
        m1 = Marking({"p1": 1, "p2": 2})
        m2 = Marking({"p2": 2, "p1": 1, "p3": 0})
        assert m1 == m2
        assert hash(m1) == hash(m2)

    def test_unequal_markings(self):
        assert Marking({"p1": 1}) != Marking({"p1": 2})

    def test_comparison_with_plain_dict(self):
        assert Marking({"p1": 1}) == {"p1": 1, "p2": 0}

    def test_usable_as_dict_key(self):
        d = {Marking({"p": 1}): "x"}
        assert d[Marking({"p": 1})] == "x"


class TestQueries:
    def test_total_and_max(self):
        m = Marking({"a": 1, "b": 2})
        assert m.total_tokens() == 3
        assert m.max_tokens() == 2


class TestUpdates:
    def test_add_returns_new_marking(self):
        m = Marking({"a": 1})
        m2 = m.add(["a", "b"])
        assert m == Marking({"a": 1})
        assert m2 == Marking({"a": 2, "b": 1})

    def test_remove(self):
        m = Marking({"a": 2, "b": 1})
        assert m.remove(["a", "b"]) == Marking({"a": 1})

    def test_remove_below_zero_rejected(self):
        with pytest.raises(ValueError):
            Marking({"a": 1}).remove(["b"])

    def test_add_then_remove_roundtrip(self):
        m = Marking({"x": 1})
        assert m.add(["y"]).remove(["y"]) == m
