"""The package's record classes: built by keyword and default, immutable, and
equal by value.

The checked records derive from linalg.Record and the plain ones are
NamedTuples; both name their fields in ``_fields`` and copy with
``_replace``.
"""

import math
import pickle

import pytest

from spinfridge import (
    BcsResult,
    BcsRound,
    BiasState,
    ExchangeReport,
    FridgeConfig,
    GateStep,
    PauliString,
    SpinSpec,
    WorkLedgerEntry,
    compile_exchange,
)
from spinfridge.cooling import PRNG_ID
from spinfridge.linalg import PAULI_X

ROUND = BcsRound(1, 0.8, 0.79, 125)
# per class: its values in field order, and the keywords that build the same
# record, in another order, leaving out each field that has a default
RECORDS = [
    (FridgeConfig, (1.0, 3.0, 2.0, 2.0, 2.0, 10.0, math.pi / 2), {}),
    (FridgeConfig, (1.0, 3.0, 2.0, 3.0, 2.0, 10.0, 0.5), {"theta": 0.5, "T1": 3.0}),
    (SpinSpec, (1.0, 2.0), {"T": 2.0, "E": 1.0}),
    (WorkLedgerEntry, (3, 0.5, 0.25, -0.75, 0.0, 1.5),
     {"cumulative_work": 1.5, "net_work": 0.0, "dW2": -0.75, "dQ1": 0.25, "dW1": 0.5,
      "step_index": 3}),
    (PauliString, ("XYZ", 1.0), {"letters": "XYZ"}),
    (BiasState, (0.5, 10), {"n_bits": 10, "epsilon": 0.5}),
    (GateStep, ("X@1", PAULI_X), {"generator": PAULI_X, "label": "X@1"}),
    (ExchangeReport, tuple(0.1 * k for k in range(10)),
     dict(zip(reversed(ExchangeReport._fields), reversed([0.1 * k for k in range(10)])))),
    (BcsRound, (1, 0.8, 0.79, 125),
     {"retained_bits": 125, "empirical_bias": 0.79, "analytic_bias": 0.8, "round_index": 1}),
    (BcsResult, ((ROUND,), BiasState(0.79, 125), 7, PRNG_ID),
     {"seed": 7, "final": BiasState(0.79, 125), "rounds": (ROUND,)}),
]


@pytest.mark.parametrize("cls, values, keywords", RECORDS,
                         ids=[f"{cls.__name__}-{k}" for k, (cls, _, _) in enumerate(RECORDS)])
def test_a_record_builds_by_keyword_and_default_is_immutable_and_equal_by_value(
        cls, values, keywords):
    record = cls(**keywords)
    assert len(cls._fields) == len(values)
    assert record == cls(*values)
    assert tuple(getattr(record, name) for name in cls._fields) == values
    # equal inputs compare equal and hash alike; a copy keeps the class and the
    # fields (an Operator copy is a new Operator, equal only to itself)
    assert record == cls(**keywords) and hash(record) == hash(cls(*values))
    assert record._replace() == record
    copied = pickle.loads(pickle.dumps(record))
    assert type(copied) is cls and repr(copied) == repr(record)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert tuple(getattr(record, name) for name in cls._fields) == values


def test_replace_checks_the_new_record():
    assert FridgeConfig()._replace(T1=3.0) == FridgeConfig(T1=3.0)
    with pytest.raises(ValueError, match="T1 must be positive and finite"):
        FridgeConfig()._replace(T1=-1.0)
    with pytest.raises(TypeError):
        FridgeConfig()._replace(T4=1.0)
    with pytest.raises(ValueError, match="bias must lie in"):
        BiasState(0.5, 10)._replace(epsilon=2.0)


def test_a_bias_state_bit_count_follows_the_count_rule():
    for n_bits in (2.5, True, 10.0):
        with pytest.raises(ValueError, match="^bit count must be an integer, got "):
            BiasState(0.5, n_bits)
    with pytest.raises(ValueError, match="^bit count must be nonnegative"):
        BiasState(0.5, -2)


def test_a_record_of_another_class_is_never_equal():
    assert SpinSpec(1.0, 2.0) != BiasState(1.0, 2)
    assert SpinSpec(1.0, 2.0) != (1.0, 2.0)
    assert SpinSpec(1.0, 2.0) != SpinSpec(1.0, 3.0)


def test_a_compiled_sequence_is_immutable_and_equal_only_to_itself():
    seq = compile_exchange(0.5)
    for name in ("theta", "labels", "layout", "unitaries"):
        with pytest.raises(AttributeError):
            setattr(seq, name, getattr(seq, name))
        with pytest.raises(AttributeError):
            delattr(seq, name)
    assert seq == seq and seq != compile_exchange(0.5)
    assert seq.theta == 0.5
