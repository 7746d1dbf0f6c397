"""The value records' contract: read-only, equal by value, hashed by value
where their fields hash, equal only to their own class, and picklable."""

import inspect
import pickle

import pytest

from csidhsim import records
from csidhsim.action import ActionConfig, PrivateKey, PublicKey
from csidhsim.datapath import AluActivity, CycleCost
from csidhsim.fp import FieldElement
from csidhsim.params import CsidhParams
from csidhsim.trace import CostTable


def _toy():
    """A fresh toy419 set, so two records never share one by identity."""
    return CsidhParams("toy419", (3, 5, 7), 1)


# name -> (build one record, its constructor arguments, a field, hashable)
RECORDS = {
    "CsidhParams": (_toy, lambda: ("toy419", (3, 5, 7), 1), "p", True),
    "FieldElement": (lambda: FieldElement(5, _toy()),
                     lambda: (5, _toy()), "value", True),
    "PrivateKey": (lambda: PrivateKey([1, 0, -1], _toy()),
                   lambda: ((1, 0, -1), _toy()), "exponents", True),
    "PublicKey": (lambda: PublicKey(22), lambda: (22,), "A", True),
    "ActionConfig": (ActionConfig, lambda: (True,), "constant_time", True),
    # Its fields are dicts: read-only, but not hashable.
    "CostTable": (CostTable, lambda: (CostTable().costs, CostTable().overhead),
                  "costs", False),
    "CycleCost": (lambda: CycleCost(22), lambda: (22,), "cycles", True),
    "AluActivity": (lambda: AluActivity(((True,) * 3,)),
                    lambda: (((True,) * 3,),), "cycles", True),
}


def test_one_record_base():
    # `records` defines one base, and every record derives from it.
    bases = [obj for obj in vars(records).values() if inspect.isclass(obj)]
    assert bases == [records.Record]
    for build, *_ in RECORDS.values():
        assert isinstance(build(), records.Record)


@pytest.mark.parametrize("name", RECORDS)
def test_record_contract(name):
    build, args, field, hashable = RECORDS[name]
    a, b = build(), build()

    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError):
        setattr(a, "extra", 1)
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert a == b and not a != b and a is not b
    if hashable:
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
    if hashable:
        assert hash(copy) == hash(a)
    with pytest.raises(AttributeError):
        setattr(copy, field, getattr(a, field))


def test_private_key_pickles_its_exponents_as_a_tuple():
    sk = pickle.loads(pickle.dumps(PrivateKey([1, 0, -1], _toy())))
    assert sk.exponents == (1, 0, -1) and type(sk.exponents) is tuple
