"""The result and option records keep the behaviour they had as dataclasses.

Each of the ten records is pinned on its constructor (positional, keyword
and default arguments), equality and hash (or unhashability), repr text,
validation messages and, for the frozen ones, `FrozenInstanceError` on
assignment and deletion.  The expected values are those of the dataclass
versions of these classes.
"""

import dataclasses

import pytest

from dgb import (DEGLEX, DEGREVLEX, LEX, CompletionOptions, CompletionStatus, LinearRelation,
                 OrderingSpec, PairStats, SigmaBasis, VerificationReport)
from dgb.cli import ProblemFile, RunReport
from dgb.field import CoeffText
from helpers import make_ring

RING = make_ring(1, ("x",))
F = RING.var("x", (1,)) - RING.var("x", (0,))
RING_REPR = "DifferenceRing(Signature(r=1, symbols=('x',), parameters=()))"
STATUS = CompletionStatus("complete")

# class, frozen, fields in order, values given positionally, the defaults of
# the trailing fields, repr of the positional instance
RECORDS = [
    (CoeffText, True, ("negative", "body", "atomic"), (True, "3/4", False), {},
     "CoeffText(negative=True, body='3/4', atomic=False)"),
    (OrderingSpec, True, ("shift_order", "shift_priority", "symbol_order", "symbol_priority"),
     (DEGLEX, (1, 0), DEGREVLEX, (0,)),
     {"shift_order": DEGREVLEX, "shift_priority": None, "symbol_order": LEX,
      "symbol_priority": None},
     "OrderingSpec(shift_order='deglex', shift_priority=(1, 0), symbol_order='degrevlex', "
     "symbol_priority=(0,))"),
    (LinearRelation, True, ("symbol_index", "shift_index", "coefficients"), (0, 0, (-1, 0, 1)),
     {}, "LinearRelation(symbol_index=0, shift_index=0, coefficients=(-1, 0, 1))"),
    (CompletionOptions, True, ("use_chain_criterion", "max_pair_budget"), (False, 7),
     {"use_chain_criterion": True, "max_pair_budget": 200_000},
     "CompletionOptions(use_chain_criterion=False, max_pair_budget=7)"),
    (CompletionStatus, True, ("kind", "order_bound"), ("complete_up_to_order", 3),
     {"order_bound": None}, "CompletionStatus(kind='complete_up_to_order', order_bound=3)"),
    (PairStats, False, ("generated", "killed_product", "killed_sigma", "killed_chain",
                        "killed_truncation", "reduced_to_zero", "new_elements", "sweeps"),
     (1, 2, 3, 4, 5, 6, 7, 8),
     {"generated": 0, "killed_product": 0, "killed_sigma": 0, "killed_chain": 0,
      "killed_truncation": 0, "reduced_to_zero": 0, "new_elements": 0, "sweeps": 1},
     "PairStats(generated=1, killed_product=2, killed_sigma=3, killed_chain=4, "
     "killed_truncation=5, reduced_to_zero=6, new_elements=7, sweeps=8)"),
    (SigmaBasis, False, ("ring", "elements", "status", "stats"),
     (RING, (F,), STATUS, PairStats(generated=2)), {"stats": PairStats()},
     f"SigmaBasis(ring={RING_REPR}, elements=(<x(1) - x(0)>,), "
     "status=CompletionStatus(kind='complete', order_bound=None), "
     "stats=PairStats(generated=2, killed_product=0, killed_sigma=0, killed_chain=0, "
     "killed_truncation=0, reduced_to_zero=0, new_elements=0, sweeps=1))"),
    (VerificationReport, False, ("ok", "failures", "checked_pairs"), (False, [(0, 0)], 4),
     {"checked_pairs": 0}, "VerificationReport(ok=False, failures=[(0, 0)], checked_pairs=4)"),
    (ProblemFile, False, ("ring", "polynomials", "permutation"), (RING, [F], ((1, 2),)),
     {"permutation": None},
     f"ProblemFile(ring={RING_REPR}, polynomials=[<x(1) - x(0)>], permutation=((1, 2),))"),
    (RunReport, False, ("command", "status", "exit_code", "config", "fields",
                        "wall_clock_seconds"),
     ("reduce", "reduced", 0, {"poly": "x(0)"}, {"remainder": "0"}, 1.5),
     {"fields": {}, "wall_clock_seconds": 0.0},
     "RunReport(command='reduce', status='reduced', exit_code=0, config={'poly': 'x(0)'}, "
     "fields={'remainder': '0'}, wall_clock_seconds=1.5)"),
]
IDS = [record[0].__name__ for record in RECORDS]
FIELDS = "cls, frozen, names, args, defaults, text"


def _records(frozen):
    return pytest.mark.parametrize(FIELDS, [r for r in RECORDS if r[1] == frozen],
                                   ids=[r[0].__name__ for r in RECORDS if r[1] == frozen])


def _values(record, names):
    return tuple(getattr(record, name) for name in names)


@pytest.mark.parametrize(FIELDS, RECORDS, ids=IDS)
def test_constructor_positional_keyword_and_defaults(cls, frozen, names, args, defaults, text):
    by_position = cls(*args)
    by_keyword = cls(**dict(zip(reversed(names), reversed(args))))
    assert _values(by_position, names) == _values(by_keyword, names) == args
    required = args[:len(names) - len(defaults)]
    assert _values(cls(*required), names) == required + tuple(defaults.values())
    assert list(defaults) == list(names[len(required):])
    with pytest.raises(TypeError):
        cls(*args, None)  # one argument too many
    with pytest.raises(TypeError, match="colour"):
        cls(*args, colour=1)
    with pytest.raises(TypeError, match=names[0]):
        cls(*args, **{names[0]: args[0]})  # given twice
    if required:
        with pytest.raises(TypeError, match=names[len(required) - 1]):
            cls(*required[:-1])


@pytest.mark.parametrize(FIELDS, RECORDS, ids=IDS)
def test_repr_equality_and_hash(cls, frozen, names, args, defaults, text):
    record, twin = cls(*args), cls(*args)
    assert repr(record) == text
    assert record == twin and not record != twin
    assert record != args and record != None  # noqa: E711 - other types never compare equal
    other = cls(*args[:-1], defaults.get(names[-1], (1,)))
    assert record != other
    if frozen:
        assert hash(record) == hash(twin) == hash(args)
        assert len({record, twin, other}) == 2
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)


@_records(frozen=True)
def test_frozen_records_refuse_assignment(cls, frozen, names, args, defaults, text):
    record = cls(*args)
    with pytest.raises(dataclasses.FrozenInstanceError,
                       match=f"cannot assign to field '{names[0]}'"):
        setattr(record, names[0], args[0])
    with pytest.raises(dataclasses.FrozenInstanceError,
                       match=f"cannot delete field '{names[-1]}'"):
        delattr(record, names[-1])
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.anything = 1
    assert _values(record, names) == args


@_records(frozen=False)
def test_mutable_records_take_assignment(cls, frozen, names, args, defaults, text):
    record = cls(*args)
    setattr(record, names[-1], "changed")
    assert getattr(record, names[-1]) == "changed"
    assert record != cls(*args)


def test_factory_defaults_are_fresh_for_each_instance():
    first, second = SigmaBasis(RING, (), STATUS), SigmaBasis(RING, (), STATUS)
    assert first.stats == second.stats == PairStats() and first.stats is not second.stats
    first, second = RunReport("verify", "verified", 0, {}), RunReport("verify", "verified", 0, {})
    assert first.fields == second.fields == {} and first.fields is not second.fields


@pytest.mark.parametrize("make, message", [
    (lambda: OrderingSpec(shift_order="grlex"), "unknown shift order 'grlex'"),
    (lambda: OrderingSpec(LEX, None, "grlex"), "unknown symbol order 'grlex'"),
    (lambda: LinearRelation(0, 0, ()), "a relation needs at least the top coefficient"),
    (lambda: LinearRelation(0, 0, (1, 2)), "relation must be monic in its top power"),
    (lambda: CompletionOptions(max_pair_budget=0), "budget caps must be positive"),
    (lambda: CompletionOptions(True, -1), "budget caps must be positive"),
])
def test_validation_messages(make, message):
    with pytest.raises(ValueError) as err:
        make()
    assert str(err.value) == message


def test_methods_of_the_records():
    assert str(CompletionStatus("complete_up_to_order", 3)) == "complete_up_to_order(3)"
    assert str(STATUS) == "complete"
    assert bool(VerificationReport(True, [])) and not VerificationReport(False, [(0, 0)])
    basis = SigmaBasis(RING, (F,), STATUS)
    assert list(basis) == [F] and len(basis) == 1
    assert LinearRelation(0, 0, (-1, 0, 1)).degree == 2


@pytest.mark.parametrize(FIELDS, RECORDS, ids=IDS)
def test_as_dict_lists_the_fields_in_order(cls, frozen, names, args, defaults, text):
    record = cls(*args)
    assert record.as_dict() == dict(zip(names, args))
    assert list(record.as_dict()) == list(names)
    assert tuple(record.as_dict().values()) == args
