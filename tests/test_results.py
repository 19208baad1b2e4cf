"""A lasso is an immutable, hashable value whose repr is frozen; WorkerStats compare by counter."""

import pytest

from cyclone import Lasso, WorkerStats


def test_a_lasso_is_an_immutable_hashable_value():
    a = Lasso((0, 1), (1, 2), 0)
    assert a == Lasso((0, 1), (1, 2), 0)
    assert hash(a) == hash(Lasso((0, 1), (1, 2), 0))
    assert len({a, Lasso((0, 1), (1, 2), 0), Lasso((0, 1), (1, 2), 1)}) == 2
    assert a != Lasso((0, 1), (1, 2), 1)
    assert a != ((0, 1), (1, 2), 0)
    for name in ("stem", "cycle", "accept_index", "other"):
        with pytest.raises(AttributeError):
            setattr(a, name, ())
    with pytest.raises(AttributeError):
        del a.stem
    assert a.stem == (0, 1)


def test_a_lassos_repr_is_frozen():
    # tests/test_schedules.py hashes this text into FROZEN_GRID
    assert repr(Lasso((0, 1), (1, 2), 0)) == "Lasso(stem=(0, 1), cycle=(1, 2), accept_index=0)"
    assert repr(Lasso((3,), (3,), 0)) == "Lasso(stem=(3,), cycle=(3,), accept_index=0)"


def test_worker_stats_are_equal_when_every_counter_is():
    assert WorkerStats(blue_expansions=3, waits=1) == WorkerStats(3, 0, 0, 0, 1)
    assert WorkerStats(blue_expansions=3) != WorkerStats(blue_expansions=3, dangerous_marks=1)
    # another class is left to decide, so a tuple of the same counters is not equal
    assert WorkerStats().__eq__((0,) * 7) is NotImplemented
    assert WorkerStats() != (0,) * 7
