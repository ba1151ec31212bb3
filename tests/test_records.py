"""The methods generated for every record class: the syntax nodes,
Signature, the models, and the prover's and oracle's records."""
import importlib
import pickle
from pathlib import Path

import pytest

from pdl4.oracle import EnumerationSpec
from pdl4.semantics import ProgramDenotation, load_model, to_four_model
from pdl4.syntax import (
    And,
    At,
    Atomic,
    Bottom,
    Box,
    Choice,
    Diamond,
    Formula,
    Implies,
    Neg,
    Nominal,
    Or,
    Program,
    PropVar,
    Seq,
    SignedFormula,
    Signature,
    Star,
    Test,
)
from pdl4.tableau import BranchStatus, ProofStats, TableauLimits, TableauResult

p, a = PropVar("p"), Atomic("a")
SIG = Signature(frozenset({"p"}), frozenset({"i"}), frozenset({"a"}))
MODEL = load_model(Path(__file__).parent / "data" / "example1.model")
NODES = [
    Formula(), Program(), p, Nominal("i"), Bottom(), Neg(p), And(p, Nominal("i")),
    Or(p, Bottom()), Implies(p, p), At("i", p), Diamond(a, p), Box(Star(a), p), a,
    Seq(a, a), Choice(a, Test(p)), Star(a), Test(p), SignedFormula(p, True),
]
RECORDS = NODES + [
    SIG, MODEL, ProgramDenotation(frozenset(), frozenset({("w", "w")})), to_four_model(MODEL),
    TableauLimits(), ProofStats(steps=3), BranchStatus("ignorable", "dia-star", p, "i"),
    TableauResult("proved"), EnumerationSpec(SIG, 2),
]
MUTABLE = (ProofStats, TableauLimits, TableauResult)


def test_every_record_class_has_a_case():
    found = set()
    for name in ("syntax", "semantics", "tableau", "oracle", "fourval", "cli"):
        module = importlib.import_module(f"pdl4.{name}")
        for value in vars(module).values():
            if (
                isinstance(value, type)
                and value.__module__ == module.__name__
                and "__match_args__" in vars(value)
                and not issubclass(value, tuple)  # a NamedTuple
            ):
                found.add(value)
    assert found == {type(record) for record in RECORDS}


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: type(record).__name__)
def test_generated_methods(record):
    cls, names = type(record), type(record).__match_args__
    values = tuple(getattr(record, name) for name in names)
    shown = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(record) == f"{cls.__name__}({shown})"
    copy = cls(*values)
    assert copy == record and copy is not record and not copy != record
    assert record != values and record != object()
    if cls in MUTABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
        setattr(copy, names[0], "changed")
        assert getattr(copy, names[0]) == "changed" and copy != record
    else:
        for name in names:
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(record, name, getattr(record, name))
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(record, name)
        try:
            expected = hash(values)
        except TypeError:  # a model's fields hold dicts
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(record) == expected
    if isinstance(record, (Formula, Program, SignedFormula, Signature)):
        again = pickle.loads(pickle.dumps(record))
        assert again == record and hash(again) == hash(record)
        assert repr(again) == repr(record)


def test_each_result_gets_its_own_stats():
    first, second = TableauResult("proved"), TableauResult("proved")
    assert first.stats == ProofStats() and first.stats is not second.stats
