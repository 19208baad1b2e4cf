"""A lasso is an immutable, hashable value whose repr is frozen."""

import pytest

from cyclone import Lasso


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

