"""The value records' contract: read-only where frozen, equal and hashed by
value, equal only to their own class, and picklable."""

import pickle

import pytest

from csidhsim.action import PrivateKey, PublicKey
from csidhsim.datapath import CycleCost
from csidhsim.fp import FieldElement
from csidhsim.params import CsidhParams
from csidhsim.trace import CostTable


def _toy():
    """A fresh toy419 set, so two records never share one by identity."""
    return CsidhParams("toy419", (3, 5, 7), 1)


# name -> (build one record, its constructor arguments, a field, frozen)
RECORDS = {
    "CsidhParams": (_toy, lambda: ("toy419", (3, 5, 7), 1), "p", True),
    "FieldElement": (lambda: FieldElement(5, _toy()),
                     lambda: (5, _toy()), "value", True),
    "PrivateKey": (lambda: PrivateKey([1, 0, -1], _toy()),
                   lambda: ((1, 0, -1), _toy()), "exponents", True),
    "PublicKey": (lambda: PublicKey(22), lambda: (22,), "A", True),
    "CostTable": (CostTable, lambda: (CostTable().costs, CostTable().overhead),
                  "costs", False),
    "CycleCost": (lambda: CycleCost(22), lambda: (22,), "cycles", True),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_contract(name):
    build, args, field, frozen = RECORDS[name]
    a, b = build(), build()

    if frozen:
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(b, field))
        with pytest.raises(AttributeError):
            setattr(a, "extra", 1)
        with pytest.raises(AttributeError):
            delattr(a, field)
    assert a == b and not a != b and a is not b
    if frozen:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)

    # Equal only to its own class: never to a bare tuple of its values,
    # nor to another record type.
    assert a != args() and args() != a
    assert a != tuple(args()[:1])
    for other, (build_other, *_) in RECORDS.items():
        if other != name:
            assert a != build_other()
    if name in ("PublicKey", "CycleCost"):
        assert PublicKey(22) != CycleCost(22)

    copy = pickle.loads(pickle.dumps(a))
    assert type(copy) is type(a) and copy == a
    if frozen:
        assert hash(copy) == hash(a)
        with pytest.raises(AttributeError):
            setattr(copy, field, getattr(a, field))


def test_private_key_pickles_its_exponents_as_a_tuple():
    sk = pickle.loads(pickle.dumps(PrivateKey([1, 0, -1], _toy())))
    assert sk.exponents == (1, 0, -1) and type(sk.exponents) is tuple
