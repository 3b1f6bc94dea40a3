"""The frozen slot base behind SBParams, Decomposition and Polynomial.

Each class must behave as the frozen dataclass it replaced: ==, hash and
repr are compared against a dataclass twin with the same name and fields,
and fields cannot be reassigned.  The constructors' checks are tested with
each class (test_generacci, test_numerics).
"""

import copy
import dataclasses
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genquilt.generacci import Decomposition, SBParams
from genquilt.numerics import Polynomial

SB_ARGS = st.tuples(st.integers(1, 4), st.integers(1, 4))
DECOMPOSITION_ARGS = st.lists(st.integers(1, 12), unique=True, max_size=4).flatmap(
    lambda idx: st.tuples(
        st.just(tuple(sorted(idx, reverse=True))),
        st.lists(st.integers(0, 3), min_size=len(idx), max_size=len(idx)).map(tuple),
    )
)
POLYNOMIAL_ARGS = st.tuples(
    st.lists(st.integers(-2, 2), max_size=3), st.integers(1, 2) | st.integers(-2, -1)
).map(lambda t: (tuple(t[0]) + (t[1],),))

CASES = [(SBParams, SB_ARGS), (Decomposition, DECOMPOSITION_ARGS), (Polynomial, POLYNOMIAL_ARGS)]
TWINS = {
    cls: dataclasses.make_dataclass(cls.__name__, cls.__slots__, frozen=True) for cls, _ in CASES
}
SAMPLES = [SBParams(2, 3), Decomposition((5, 1), (5, 1)), Polynomial((-1, 0, 1))]


@pytest.mark.parametrize("cls,args", [pytest.param(*case, id=case[0].__name__) for case in CASES])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_matches_a_frozen_dataclass(cls, args, data):
    x = data.draw(args)
    y = data.draw(st.just(x) | args)
    twin = TWINS[cls]
    a, b = cls(*x), cls(*y)
    assert (a == b) == (twin(*x) == twin(*y))
    assert (a != b) == (twin(*x) != twin(*y))
    assert hash(a) == hash(twin(*x))
    assert repr(a) == repr(twin(*x))
    # unlike a NamedTuple, never equal to a bare tuple or to another class
    assert a != x and a != twin(*x)


@pytest.mark.parametrize("record", SAMPLES, ids=repr)
def test_fields_cannot_be_assigned(record):
    field = record.__slots__[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("record", SAMPLES, ids=repr)
def test_copy_and_pickle_round_trip(record):
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is type(record) and clone == record

