"""The package's value records: equal values compare and hash equal, no field
can be assigned, and the checked types refuse bad input however they are built.

The checked types (``ModelParams``, ``SetDescriptor``, ``ProductPermutation``,
``HittingQuery``, ``CountChain`` and ``SimConfig``) are slotted classes that
equal only their own kind; the plain results are named tuples.  The resolvent
caches key on ``ModelParams``, so its hash must follow its value.
"""

import copy
import pickle
import re

import numpy as np
import pytest

from ehrenfest import closedforms, exact, hitting, mc, model, oracle, resolvent
from ehrenfest.model import ModelParams, ProductPermutation, SetDescriptor, _Record

P = ModelParams(3, 2)
SINGLETON = SetDescriptor.singleton((2, 2))

# each record type, and a function building one value of it afresh
RECORDS = {
    "ModelParams": lambda: ModelParams(np.int64(3), 2),
    "SetDescriptor": lambda: SetDescriptor.count(1, 3),
    "ProductPermutation": lambda: ProductPermutation(((2, 1, 3), (1, 3, 2))),
    "HittingQuery": lambda: hitting.HittingQuery(P, [1, 1], SINGLETON),
    "CtmcStats": lambda: hitting.ctmc_stats(hitting.HittingQuery(P, (1, 1), SINGLETON)),
    "HittingSummary": lambda: hitting.summarize(hitting.HittingQuery(P, (1, 1), SetDescriptor.count(0)), 3, (1,)),
    "TwoPointStats": lambda: closedforms.two_point_stats(P, 0, 1, 1),
    "SameUrnStats": lambda: closedforms.same_urn_stats(P, (1, 2)),
    "CountChain": lambda: closedforms.CountChain(ModelParams(3, 3)),
    "CommuteCheck": lambda: closedforms.network_commute_check(ModelParams(3, 3), 0, 2),
    "KernelIncrements": lambda: resolvent.kernel_increments(P),
    "SimConfig": lambda: mc.SimConfig(np.int64(50), 3, "ctmc", (0.5,)),
    "TransformEstimate": lambda: mc.empirical_transform(np.array([1.0, 2.0]), [0.5])[0],
    "SimSummary": lambda: mc.sample_hitting(P, (1, 1), SINGLETON, mc.SimConfig(50, 3, grid=(0.5,))),
}


def test_every_record_type_is_covered():
    records = {
        name for module in (model, exact, resolvent, hitting, closedforms, oracle, mc)
        for name, value in vars(module).items()
        if isinstance(value, type) and value.__module__ == module.__name__ and not name.startswith("_")
        and (issubclass(value, _Record) or hasattr(value, "_fields"))
    }
    assert records == set(RECORDS)


@pytest.mark.parametrize("name", RECORDS)
def test_equal_values_compare_and_hash_equal(name):
    first, second = RECORDS[name](), RECORDS[name]()
    assert first is not second and type(first).__name__ == name
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert repr(first) == repr(second) and repr(first).startswith(f"{name}(")


@pytest.mark.parametrize("name", RECORDS)
def test_no_field_can_be_assigned(name):
    record = RECORDS[name]()
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("name", ["ModelParams", "SetDescriptor", "ProductPermutation", "HittingQuery", "CountChain",
                                  "SimConfig"])
def test_checked_types_equal_only_their_own_kind(name):
    record = RECORDS[name]()
    assert record != record._values and record != tuple(record._values)
    assert copy.copy(record) == record == pickle.loads(pickle.dumps(record))


def test_query_compares_its_request_not_what_it_derived():
    query = RECORDS["HittingQuery"]()
    assert query.start == (1, 1) and query.rows
    assert query != hitting.HittingQuery(P, (1, 2), SINGLETON)
    assert "rows" not in repr(query) and "payload" not in repr(query)


def test_model_caches_key_on_value():
    resolvent.kernel_coefficients(ModelParams(5, 4), 2)
    before = resolvent.kernel_coefficients.cache_info()
    resolvent.kernel_coefficients(ModelParams(np.int32(5), 4), 2)
    after = resolvent.kernel_coefficients.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


# a valid value of each checked type, and bad input to it as (arguments, keyword arguments, message): the
# messages are the checks' own
VALID = {ModelParams: ModelParams(3, 2), ProductPermutation: ProductPermutation(((1, 2), (2, 1))),
         mc.SimConfig: mc.SimConfig(10, 1)}
REFUSED = [
    (ModelParams, (1, 2), {}, "need at least 2 urns, got 1"),
    (ModelParams, (), {"urns": 3, "balls": 0}, "need at least 1 ball, got 0"),
    (ModelParams, (3.0, 2), {}, "urns 3.0 is not an integer"),
    (ModelParams, (3,), {"balls": True}, "balls True is not an integer"),
    (ProductPermutation, (((1, 1), (1, 2)),), {}, "not a permutation of 1..2: (1, 1)"),
    (ProductPermutation, (), {"maps": ((1, 2), (2, 3))}, "not a permutation of 1..2: (2, 3)"),
    (mc.SimConfig, (0, 1), {}, "need at least one replica"),
    (mc.SimConfig, (), {"replicas": 10, "seed": -1}, "seed -1 is outside 0..2**128 - 1"),
    (mc.SimConfig, (10, 2**128), {}, "seed 340282366920938463463374607431768211456 is outside 0..2**128 - 1"),
    (mc.SimConfig, (10, 1), {"mode": "jump"}, "unknown mode 'jump'"),
    (mc.SimConfig, (1.5, 1), {}, "replicas 1.5 is not an integer"),
    (mc.SimConfig, (10, "7"), {}, "seed '7' is not an integer"),
]


@pytest.mark.parametrize("cls, args, kwargs, message", REFUSED, ids=lambda v: getattr(v, "__name__", None))
def test_bad_input_is_refused_on_every_construction_path(cls, args, kwargs, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        cls(*args, **kwargs)
    # a record holding the bad values unchecked, as no public path builds one: a copy or an unpickled
    # record is rebuilt by the constructor, so its checks run again
    forged = object.__new__(cls)
    values = {**dict(zip(cls._fields, VALID[cls]._values)), **dict(zip(cls._fields, args)), **kwargs}
    forged._set(*values.values())
    for rebuild in (copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))):
        with pytest.raises(ValueError, match=re.escape(message)):
            rebuild(forged)
    assert copy.copy(VALID[cls]) == VALID[cls] == pickle.loads(pickle.dumps(VALID[cls]))
