import os
import pickle
import random
import subprocess
import sys
import weakref
from dataclasses import FrozenInstanceError, fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    ParseError,
    Program,
    PropVar,
    Seq,
    SignedFormula,
    Signature,
    Star,
    Test,
    actions_of,
    cneg,
    fischer_ladner_closure,
    iff,
    nominals_of,
    parse_formula,
    parse_program,
    propositions_of,
    render,
    render_program,
    top,
)
from pdl4 import syntax
from pdl4.generators import random_formula, random_program

p, q = PropVar("p"), PropVar("q")
a, b = Atomic("a"), Atomic("b")


def _precedence_cases():
    """(id, parse, print, [(tree, parenthesised)]) for each ordered pair of
    entries of each operator table, each prefix against each formula entry
    and each postfix against each program entry."""
    cases = []
    sorts = (
        ("formula", syntax._FORMULA_OPS, parse_formula, render, p, q),
        ("program", syntax._PROGRAM_OPS, parse_program, render_program, a, b),
    )
    for sort, ops, parse, show, x, y in sorts:
        for outer, (outer_prec, outer_build, right_assoc) in ops.items():
            for inner, (inner_prec, inner_build, _) in ops.items():
                sub = inner_build(x, y)
                same = inner_prec == outer_prec
                nestings = [
                    (outer_build(sub, y), inner_prec < outer_prec or (same and right_assoc)),
                    (outer_build(x, sub), inner_prec < outer_prec or (same and not right_assoc)),
                ]
                cases.append((f"{sort}-{inner}-in-{outer}", parse, show, nestings))
    prefixes = {
        "!": Neg, "~": cneg, "@": lambda f: At("i", f),
        "<>": lambda f: Diamond(a, f), "[]": lambda f: Box(a, f),
    }
    for name, prefix in prefixes.items():
        for entry, (_, build, _) in syntax._FORMULA_OPS.items():
            nestings = [(prefix(build(p, q)), True), (build(prefix(p), q), False), (build(p, prefix(q)), False)]
            cases.append((f"prefix-{name}-{entry}", parse_formula, render, nestings))
    for entry, (_, build, _) in syntax._PROGRAM_OPS.items():
        nestings = [(Star(build(a, b)), True), (build(Star(a), b), False), (build(Test(p), Star(a)), False)]
        cases.append((f"postfix-*?-{entry}", parse_program, render_program, nestings))
    for entry, (_, build, _) in syntax._FORMULA_OPS.items():
        nestings = [(Test(build(p, q)), True)]
        cases.append((f"postfix-?-{entry}", parse_program, render_program, nestings))
    return cases


_PRECEDENCE_CASES = _precedence_cases()


class TestParsing:
    def test_at_diamond_nominal(self):
        assert parse_formula("@'i <a>'j") == At("i", Diamond(a, Nominal("j")))

    def test_negated_sequence_modality(self):
        expected = Neg(Diamond(Seq(a, b), And(Neg(p), q)))
        assert parse_formula("!<a;b>(!p & q)") == expected

    def test_classical_negation_desugars(self):
        assert parse_formula("~p") == Implies(p, Bottom())

    def test_true_desugars(self):
        assert parse_formula("true") == Implies(Bottom(), Bottom())

    def test_precedence_chain(self):
        # unary > & > | > ->, with -> right associative
        assert parse_formula("!p & q | r -> s -> t") == Implies(
            Or(And(Neg(p), q), PropVar("r")),
            Implies(PropVar("s"), PropVar("t")),
        )

    @pytest.mark.parametrize("case", _PRECEDENCE_CASES, ids=[c[0] for c in _PRECEDENCE_CASES])
    def test_precedence(self, case):
        # Each nesting is printed with parentheses exactly where the table
        # requires them, and reads back as the same tree.
        _, parse, show, nestings = case
        for tree, parenthesised in nestings:
            text = show(tree)
            assert ("(" in text) == parenthesised, text
            assert parse(text) == tree, text

    def test_at_binds_tightly(self):
        assert parse_formula("@'i p & q") == And(At("i", p), q)

    def test_program_operators(self):
        assert parse_program("a;b+c*") == Choice(Seq(a, b), Star(Atomic("c")))
        assert parse_program("p?;a") == Seq(Test(p), a)
        assert parse_program("(p & q)?") == Test(And(p, q))
        assert parse_program("(a+b)*") == Star(Choice(a, b))

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_formula("p & & q")
        assert err.value.position == 4

    def test_error_on_trailing_input(self):
        with pytest.raises(ParseError):
            parse_formula("p q")

    def test_error_on_bad_character(self):
        with pytest.raises(ParseError):
            parse_formula("p % q")

    def test_deep_nesting_is_a_parse_error(self):
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_formula("!" * 3000 + "p")
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_program("(" * 3000 + "a" + ")" * 3000)

    def test_deep_parentheses_parse(self):
        # a formula parenthesis costs the parser two frames, a program one three
        assert parse_formula("(" * 300 + "p" + ")" * 300) == p
        assert parse_program("(" * 250 + "a" + ")" * 250) == a

    def test_tests_nested_in_programs_parse_in_linear_time(self, monkeypatch):
        # Each level opens a group that is first read as a test formula and
        # then, when no '?' follows it, reread as a program.
        program = "a"
        for _ in range(12):
            program = f"(<{program}>p?;a)"
        text = f"<{program}>p"
        calls = 0
        unary = syntax._Parser.unary  # every formula operand passes here

        def counting(parser):
            nonlocal calls
            calls += 1
            return unary(parser)

        monkeypatch.setattr(syntax._Parser, "unary", counting)
        f = parse_formula(text)
        assert isinstance(f, Diamond) and isinstance(f.program, Seq)
        assert calls <= 5 * len(syntax._tokenize(text))

    def test_abandoned_test_readings_release_their_errors(self, monkeypatch):
        # A failed test reading is remembered, but not by its ParseError:
        # a kept error would hold its traceback's frames alive until the
        # parse ends.  So once prog_primary returns, every error raised
        # inside it has been dropped.
        program = "a"
        for _ in range(6):
            program = f"(<{program}>p?;a)"
        errors = []
        init = ParseError.__init__

        def recording(self, *args):
            init(self, *args)
            errors.append(weakref.ref(self))

        prog_primary = syntax._Parser.prog_primary
        alive_after_return = []

        def checking(parser):
            prog = prog_primary(parser)
            alive_after_return.extend(e for e in errors if e() is not None)
            return prog

        monkeypatch.setattr(ParseError, "__init__", recording)
        monkeypatch.setattr(syntax._Parser, "prog_primary", checking)
        assert isinstance(parse_formula(f"<{program}>p"), Diamond)
        assert errors and not alive_after_return


class TestRendering:
    def test_bottom(self):
        assert render(Bottom()) == "false"

    def test_box_star(self):
        assert render(At("i", Box(Star(a), p))) == "@'i [a*]p"

    def test_classical_negation_resugars(self):
        assert render(Implies(p, Bottom())) == "~p"
        assert render(top()) == "true"

    def test_tests_of_atoms_and_true_print_bare(self):
        assert render_program(Test(top())) == "true?"
        assert render_program(Test(Bottom())) == "false?"
        assert render_program(Test(cneg(top()))) == "(~true)?"
        assert render_program(Test(Implies(Bottom(), p))) == "(false -> p)?"
        assert render_program(Test(Implies(p, Bottom()))) == "(~p)?"

    def test_minus_form(self):
        assert str(SignedFormula(p, minus=True)) == "(p)-"

    def test_minimal_parentheses(self):
        f = parse_formula("(p -> q) -> r")
        assert render(f) == "(p -> q) -> r"
        g = parse_formula("p -> (q -> r)")
        assert render(g) == "p -> q -> r"


def _signature():
    return Signature(
        frozenset({"p", "q"}), frozenset({"i", "j"}), frozenset({"a", "b"})
    )


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 6), st.randoms(use_true_random=False))
def test_parse_render_round_trip(depth, rng):
    f = random_formula(rng, _signature(), depth)
    assert parse_formula(render(f)) == f


def test_render_round_trip_programs():
    rng = random.Random(5)
    sig = _signature()
    from pdl4.generators import random_program

    for _ in range(300):
        prog = random_program(rng, sig, 3)
        assert parse_program(render_program(prog)) == prog


class TestNameCollection:
    def test_mixed(self):
        f = At("i", Diamond(a, Nominal("j")))
        assert nominals_of(f) == {"i", "j"}
        assert actions_of(f) == {"a"}

    def test_bottom_is_empty(self):
        assert nominals_of(Bottom()) == frozenset()
        assert actions_of(Bottom()) == frozenset()

    def test_inside_programs(self):
        f = Diamond(Seq(Test(p), b), Nominal("i"))
        assert nominals_of(f) == {"i"}
        assert actions_of(f) == {"b"}
        assert propositions_of(f) == {"p"}


def _nodes(x):
    """x and every node below it, in leftmost-first order."""
    out = [x]
    for f in fields(x):
        value = getattr(x, f.name)
        if isinstance(value, (Formula, Program)):
            out.extend(_nodes(value))
    return out


def _first_occurrence_nominals(x):
    names = [
        node.name if isinstance(node, Nominal) else node.nominal
        for node in _nodes(x)
        if isinstance(node, (Nominal, At))
    ]
    return tuple(dict.fromkeys(names))


class TestCachedNodeValues:
    def _corpus(self):
        rng = random.Random(41)
        sig = _signature()
        for _ in range(300):
            yield random_formula(rng, sig, rng.randint(0, 6))
            yield random_program(rng, sig, rng.randint(0, 3))

    def test_hash_is_structural(self):
        for x in self._corpus():
            if isinstance(x, Program):
                copy = parse_program(render_program(x))
            else:
                copy = parse_formula(render(x))
            assert copy == x and copy is not x
            assert hash(copy) == hash(x)
            for node in _nodes(x):
                values = tuple(getattr(node, f.name) for f in fields(node))
                assert hash(node) == hash(values)

    def test_signed_formula_hash(self):
        f = parse_formula("@'i <a*>(p & 'j)")
        for minus in (False, True):
            sf = SignedFormula(f, minus)
            assert hash(sf) == hash((f, minus))
            assert sf.nominals == ("i", "j")

    def test_nominals_in_first_occurrence_order(self):
        for x in self._corpus():
            for node in _nodes(x):
                assert node.nominals == _first_occurrence_nominals(node)
        f = parse_formula("@'j (<a>'i & @'j 'k | [('i)?]'j)")
        assert f.nominals == ("j", "i", "k")

    def test_rebuilt_from_field_values(self):
        for x in self._corpus():
            for node in _nodes(x):
                copy = type(node)(*(getattr(node, f.name) for f in fields(node)))
                assert copy == node and copy is not node
                assert hash(copy) == hash(node)
                assert copy.nominals == node.nominals
                assert repr(copy) == repr(node)

    def test_fields_are_frozen(self):
        f = parse_formula("@'i <a*>(p & 'j)")
        with pytest.raises(FrozenInstanceError):
            f.nominal = "j"
        with pytest.raises(FrozenInstanceError):
            SignedFormula(f).minus = True
        assert f == parse_formula("@'i <a*>(p & 'j)")

    def test_signed_formula_arguments(self):
        f = parse_formula("<a>'i")
        assert SignedFormula(f).minus is False
        assert SignedFormula(f) == SignedFormula(f, False)
        assert SignedFormula(f, minus=True) == SignedFormula(formula=f, minus=True)
        assert SignedFormula(f, minus=True).minus is True
        assert SignedFormula(f, minus=True) != SignedFormula(f)
        assert SignedFormula(f, minus=True).nominals == ("i",)

    def test_wrong_argument_count(self):
        for build in (
            lambda: And(p),
            lambda: And(p, q, p),
            lambda: Bottom(p),
            lambda: At("i"),
            lambda: SignedFormula(),
            lambda: SignedFormula(p, True, False),
            lambda: Neg(body=p, left=q),
        ):
            with pytest.raises(TypeError):
                build()

    def test_pickle_rebuilds_the_cache(self):
        # A cached hash is only valid in the process that computed it; the
        # child runs under a different string-hash seed.
        f = parse_formula("@'i <a*>(p & 'j)")
        script = (
            "import pickle, sys\n"
            "from pdl4.syntax import parse_formula\n"
            "f = pickle.loads(sys.stdin.buffer.read())\n"
            "assert f == parse_formula(%r)\n"
            "assert f in {parse_formula(%r)}\n" % (render(f), render(f))
        )
        for seed in ("1", "2"):
            done = subprocess.run(
                [sys.executable, "-c", script],
                input=pickle.dumps(f),
                env={
                    **os.environ,
                    "PYTHONHASHSEED": seed,
                    "PYTHONPATH": os.pathsep.join(sys.path),
                },
                capture_output=True,
            )
            assert done.returncode == 0, done.stderr.decode()


class TestSignature:
    def test_disjointness_enforced(self):
        with pytest.raises(ValueError):
            Signature(frozenset({"p"}), frozenset(), frozenset({"p"}))

    def test_of_formulas(self):
        sig = Signature.of([parse_formula("@'i <a>(p & 'j)")])
        assert sig.propositions == {"p"}
        assert sig.nominals == {"i", "j"}
        assert sig.actions == {"a"}


class TestFischerLadnerClosure:
    def test_atom(self):
        assert fischer_ladner_closure(SignedFormula(p)) == {p, Neg(p)}

    def test_minus_box_star(self):
        boxstar = Box(Star(a), p)
        unfold = Box(a, boxstar)
        closure = fischer_ladner_closure(SignedFormula(boxstar, minus=True))
        assert closure == {boxstar, Neg(boxstar), unfold, Neg(unfold), p, Neg(p)}

    def test_diamond_test(self):
        f = Diamond(Test(q), p)
        closure = fischer_ladner_closure(SignedFormula(f))
        assert closure == {
            f,
            Neg(f),
            And(q, p),
            Neg(And(q, p)),
            q,
            Neg(q),
            p,
            Neg(p),
        }

    def test_minus_root_contains_body(self):
        f = parse_formula("<a>(p | q)")
        closure = fischer_ladner_closure(SignedFormula(f, minus=True))
        assert f in closure

    def test_negation_closure(self):
        # every member that is not itself negated has its negation present
        f = parse_formula("[a*](p -> <b>(q & 'i))")
        closure = fischer_ladner_closure(SignedFormula(f))
        for member in closure:
            if not isinstance(member, Neg):
                assert Neg(member) in closure

    def test_finite_on_random_corpus(self):
        rng = random.Random(99)
        sig = _signature()
        for _ in range(1000):
            f = random_formula(rng, sig, rng.randint(0, 8))
            closure = fischer_ladner_closure(SignedFormula(f, minus=bool(rng.getrandbits(1))))
            assert len(closure) < 10_000

    def test_iterable_roots_union(self):
        c1 = fischer_ladner_closure(SignedFormula(p))
        c2 = fischer_ladner_closure(SignedFormula(q))
        both = fischer_ladner_closure([SignedFormula(p), SignedFormula(q)])
        assert both == c1 | c2


def test_derived_forms():
    assert cneg(p) == Implies(p, Bottom())
    assert top() == Implies(Bottom(), Bottom())
    assert iff(p, q) == And(Implies(p, q), Implies(q, p))
