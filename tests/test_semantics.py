import random
from collections import Counter
from pathlib import Path

import pytest

import reference_checker as reference

from pdl4.fourval import FourValue
from pdl4.generators import random_formula, random_model, random_program
from pdl4.invariants import four_valued_agreement, program_axioms
from pdl4.semantics import (
    CompositeProgramError,
    FourModel,
    Model,
    ModelError,
    diagram,
    from_four_model,
    globally_satisfies,
    interpret_program,
    load_model,
    parse_model,
    satisfies,
    satisfying_worlds,
    serialize_model,
    to_four_model,
    value4,
    _Labeller,
)
from pdl4.syntax import (
    At,
    Atomic,
    Bottom,
    Box,
    Choice,
    Diamond,
    Implies,
    Neg,
    Nominal,
    Or,
    PropVar,
    Seq,
    SignedFormula,
    Signature,
    Star,
    Test,
    parse_formula,
    render,
)

DATA = Path(__file__).parent / "data"

p, q = PropVar("p"), PropVar("q")
a = Atomic("a")


@pytest.fixture
def example_map():
    """Five-state model with one action, a transition that is both
    confirmed and denied, and a both-valued proposition."""
    return load_model(str(DATA / "example1.model"))


def two_world_model(**overrides):
    base = dict(
        worlds=frozenset({"u", "v"}),
        pos_rel={"a": frozenset()},
        neg_rel={"a": frozenset()},
        naming={},
        pos_val={"p": frozenset()},
        neg_val={"p": frozenset()},
    )
    base.update(overrides)
    return Model(**base)


class TestModelValidation:
    def test_empty_domain_rejected(self):
        with pytest.raises(ModelError):
            Model(frozenset(), {}, {}, {}, {}, {})

    def test_unknown_world_in_relation(self):
        with pytest.raises(ModelError):
            two_world_model(pos_rel={"a": frozenset({("u", "zz")})})

    def test_nominal_names_unknown_world(self):
        with pytest.raises(ModelError):
            two_world_model(naming={"i": "zz"})

    def test_is_named(self, example_map):
        assert example_map.is_named()
        assert not two_world_model().is_named()


class TestProgramInterpretation:
    def test_atomic_on_example(self, example_map):
        den = interpret_program(example_map, a)
        assert den.pos == frozenset({("w1", "w2"), ("w4", "w3")})
        everything = {(u, v) for u in example_map.worlds for v in example_map.worlds}
        assert den.neg_complement == frozenset(
            everything - {("w1", "w2"), ("w1", "w3")}
        )
        assert len(den.neg_complement) == 23

    def test_star_of_empty_is_identity(self):
        m = two_world_model()
        den = interpret_program(m, Star(a))
        assert den.pos == frozenset({("u", "u"), ("v", "v")})

    def test_test_programs_from_set_builders(self):
        # pos collects worlds satisfying the condition; the stored negative
        # side is the complement, the diagonal where the negation fails
        m = two_world_model()
        den_bottom = interpret_program(m, Test(Bottom()))
        assert den_bottom.pos == frozenset()
        assert den_bottom.neg_complement == frozenset()
        den_neg_bottom = interpret_program(m, Test(Neg(Bottom())))
        diagonal = frozenset({("u", "u"), ("v", "v")})
        assert den_neg_bottom.pos == diagonal
        assert den_neg_bottom.neg_complement == diagonal

    def test_unknown_action(self):
        with pytest.raises(ModelError):
            interpret_program(two_world_model(), Atomic("zz"))

    def test_sequence_composes_both_sides(self):
        m = two_world_model(
            pos_rel={"a": frozenset({("u", "v")})},
            neg_rel={"a": frozenset({("u", "u"), ("u", "v"), ("v", "u")})},
        )
        den = interpret_program(m, Seq(a, a))
        assert den.pos == frozenset()
        # complement of neg is {(v,v)}, composed with itself stays {(v,v)}
        assert den.neg_complement == frozenset({("v", "v")})

    def test_choice_unions_both_sides(self, example_map):
        den_a = interpret_program(example_map, a)
        den = interpret_program(example_map, Choice(a, a))
        assert den.pos == den_a.pos
        assert den.neg_complement == den_a.neg_complement


class TestSatisfaction:
    def test_negated_diamond_on_example(self, example_map):
        assert satisfies(example_map, "w1", parse_formula("!<a>'k"))
        assert satisfies(example_map, "w1", parse_formula("!<a>'j"))
        assert not satisfies(example_map, "w2", parse_formula("!<a>'j"))

    def test_bottom_clauses(self, example_map):
        for w in example_map.worlds:
            assert not satisfies(example_map, w, Bottom())
            assert satisfies(example_map, w, Neg(Bottom()))

    def test_excluded_middle_classical_but_not_paraconsistent(self):
        m = two_world_model()
        for w in m.worlds:
            assert satisfies(m, w, parse_formula("p | ~p"))
            assert not satisfies(m, w, parse_formula("p | !p"))

    def test_unknown_world_and_name(self, example_map):
        with pytest.raises(ModelError):
            satisfies(example_map, "w9", p)
        with pytest.raises(ModelError):
            satisfies(example_map, "w1", Nominal("zz"))
        with pytest.raises(ModelError):
            satisfies(example_map, "w1", PropVar("zz"))

    def test_global_satisfaction(self, example_map):
        assert globally_satisfies(example_map, parse_formula("@'l p & @'l !p"))
        assert globally_satisfies(
            example_map, SignedFormula(parse_formula("@'m p"), minus=True)
        )
        single = Model(frozenset({"w"}), {}, {}, {}, {}, {})
        assert globally_satisfies(single, SignedFormula(Bottom(), minus=True))


class TestFourValuedSemantics:
    def test_access_value_is_relation_value(self, example_map):
        fm = to_four_model(example_map)
        # (w1,w2) carries both positive and negative evidence
        for w in fm.worlds:
            assert value4(fm, w, parse_formula("@'i <a>'j")) is FourValue.B
            assert value4(fm, w, parse_formula("@'i <a>'k")) is FourValue.F
            assert value4(fm, w, parse_formula("@'l <a>'k")) is FourValue.T
            assert value4(fm, w, Bottom()) is FourValue.F

    def test_all_neither_valuation_gives_neither(self):
        fm = to_four_model(two_world_model())
        for w in fm.worlds:
            assert value4(fm, w, Or(p, Neg(p))) is FourValue.N

    def test_composite_programs_rejected(self, example_map):
        fm = to_four_model(example_map)
        with pytest.raises(CompositeProgramError):
            value4(fm, "w1", Diamond(Star(a), p))

    def test_nominal_uniqueness_enforced(self):
        with pytest.raises(ModelError):
            FourModel(
                frozenset({"u", "v"}),
                {},
                {
                    ("i", "u"): FourValue.T,
                    ("i", "v"): FourValue.T,
                },
                frozenset({"i"}),
            )


class TestModelConversions:
    def test_both_evidence_reads_b(self, example_map):
        fm = to_four_model(example_map)
        assert fm.rel["a"][("w1", "w2")] is FourValue.B
        assert fm.rel["a"][("w4", "w3")] is FourValue.T
        assert fm.rel["a"][("w1", "w3")] is FourValue.F
        assert fm.rel["a"][("w2", "w2")] is FourValue.N
        assert fm.val[("p", "w4")] is FourValue.B
        assert fm.val[("q", "w3")] is FourValue.F
        assert fm.val[("q", "w5")] is FourValue.N
        assert fm.val[("i", "w1")] is FourValue.T
        assert fm.val[("i", "w2")] is FourValue.F

    def test_round_trip(self, example_map):
        assert from_four_model(to_four_model(example_map)) == example_map

    def test_round_trip_random(self):
        rng = random.Random(3)
        sig = Signature(frozenset({"p"}), frozenset({"i", "j"}), frozenset({"a"}))
        for _ in range(50):
            m = random_model(rng, sig, 4)
            assert from_four_model(to_four_model(m)) == m

    def test_round_trip_other_direction(self, example_map):
        fm = to_four_model(example_map)
        again = to_four_model(from_four_model(fm))
        assert again == fm


class TestDiagram:
    def test_example_diagram_is_exactly_thirteen(self, example_map):
        expected = {
            parse_formula(text)
            for text in [
                "@'i <a>'j",
                "@'l <a>'k",
                "@'i !<a>'j",
                "@'i !<a>'k",
                "@'j p",
                "@'k !q",
                "@'l p",
                "@'l !p",
                "@'i 'i",
                "@'j 'j",
                "@'k 'k",
                "@'l 'l",
                "@'m 'm",
            ]
        }
        assert diagram(example_map) == frozenset(expected)

    def test_single_world_trivial_diagram(self):
        m = Model(frozenset({"w"}), {}, {}, {"i": "w"}, {}, {})
        assert diagram(m) == frozenset({At("i", Nominal("i"))})

    def test_adding_transition_adds_one_line(self, example_map):
        widened = Model(
            example_map.worlds,
            {"a": example_map.pos_rel["a"] | {("w1", "w3")}},
            example_map.neg_rel,
            example_map.naming,
            example_map.pos_val,
            example_map.neg_val,
        )
        assert diagram(widened) - diagram(example_map) == {
            parse_formula("@'i <a>'k")
        }

    def test_unnamed_world_rejected(self):
        with pytest.raises(ModelError):
            diagram(two_world_model())


class TestModelFiles:
    def test_round_trip(self, example_map):
        text = serialize_model(example_map)
        assert parse_model(text) == example_map
        assert serialize_model(parse_model(text)) == text

    def test_comments_and_blanks(self):
        text = "worlds: u v  # two states\n\n# nothing else\nprop p pos: u\nprop p neg:\n"
        m = parse_model(text)
        assert m.pos_val["p"] == frozenset({"u"})
        assert m.neg_val["p"] == frozenset()

    def test_missing_side_means_empty(self):
        m = parse_model("worlds: u\naction a pos: (u,u)\n")
        assert m.neg_rel["a"] == frozenset()

    def test_errors(self):
        with pytest.raises(ModelError):
            parse_model("prop p pos: u\n")  # no worlds line
        with pytest.raises(ModelError):
            parse_model("worlds: u\nname i u\n")
        with pytest.raises(ModelError):
            parse_model("worlds: u\naction a pos: u,u\n")
        with pytest.raises(ModelError):
            parse_model("worlds: u\nnonsense: 1\n")


def _sig(props=("p", "q"), noms=("i", "j"), acts=("a", "b")):
    return Signature(frozenset(props), frozenset(noms), frozenset(acts))


class TestSemanticProperties:
    def test_two_presentations_agree(self):
        disagreements, _ = four_valued_agreement(random.Random(41), _sig(), 150, 8, 4, 5)
        assert disagreements == []

    def test_k_axiom_valid_on_samples(self):
        rng = random.Random(43)
        sig = _sig()
        for _ in range(80):
            m = random_model(rng, sig, 4)
            phi = random_formula(rng, sig, 2)
            psi = random_formula(rng, sig, 2)
            k_axiom = Implies(
                Box(a, Implies(phi, psi)), Implies(Box(a, phi), Box(a, psi))
            )
            for w in m.worlds:
                assert satisfies(m, w, k_axiom)

    def test_classical_duality_of_modalities(self):
        rng = random.Random(47)
        sig = _sig()
        cneg = lambda f: Implies(f, Bottom())
        for _ in range(80):
            m = random_model(rng, sig, 3)
            phi = random_formula(rng, sig, 2)
            lhs, rhs = cneg(Diamond(a, phi)), Box(a, cneg(phi))
            for form_l, form_r in ((lhs, rhs), (Neg(lhs), Neg(rhs))):
                for w in m.worlds:
                    assert satisfies(m, w, form_l) == satisfies(m, w, form_r)

    def test_paraconsistent_negation_is_not_dual(self):
        # some model distinguishes !<a>p from [a]!p
        m = Model(
            frozenset({"w"}),
            {"a": frozenset()},
            {"a": frozenset()},
            {},
            {"p": frozenset()},
            {"p": frozenset()},
        )
        assert satisfies(m, "w", Box(a, Neg(p)))
        assert not satisfies(m, "w", Neg(Diamond(a, p)))

    def test_negation_swap_law(self):
        rng = random.Random(53)
        sig = _sig()
        cneg = lambda f: Implies(f, Bottom())
        for _ in range(80):
            m = random_model(rng, sig, 3)
            phi = random_formula(rng, sig, 2)
            lhs, rhs = Neg(cneg(phi)), cneg(Neg(phi))
            for form_l, form_r in ((lhs, rhs), (Neg(lhs), Neg(rhs))):
                for w in m.worlds:
                    assert satisfies(m, w, form_l) == satisfies(m, w, form_r)

    def test_test_program_negative_side_algebra(self):
        # the stored negative side of a test is the diagonal minus the
        # positive side of the negated test
        rng = random.Random(59)
        sig = _sig()
        for _ in range(60):
            m = random_model(rng, sig, 3)
            phi = random_formula(rng, sig, 3)
            den = interpret_program(m, Test(phi))
            den_neg = interpret_program(m, Test(Neg(phi)))
            diagonal = frozenset((w, w) for w in m.worlds)
            assert den.neg_complement == diagonal - den_neg.pos

    def test_star_closure_invariants(self):
        rng = random.Random(61)
        sig = _sig()
        for _ in range(60):
            m = random_model(rng, sig, 4)
            alpha = random_program(rng, sig, 2)
            den_alpha = interpret_program(m, alpha)
            den_star = interpret_program(m, Star(alpha))
            diagonal = frozenset((w, w) for w in m.worlds)
            assert diagonal <= den_star.pos
            composed = {
                (x, z)
                for x, y in den_star.pos
                for y2, z in den_alpha.pos
                if y == y2
            }
            assert composed <= den_star.pos
            assert (
                reference.reflexive_transitive_closure(den_star.pos, m.worlds)
                == den_star.pos
            )

    def test_program_axioms_hold_world_by_world(self):
        violations, _ = program_axioms(random.Random(67), _sig(), 80, 3)
        assert violations == []


def _nested_formula(rng, sig, depth):
    """A formula whose programs hold stars and tests, the tests holding
    formulas with composite programs and tests of their own."""
    if depth == 0:
        return random_formula(rng, sig, rng.randint(0, 2))
    inner = _nested_formula(rng, sig, depth - 1)
    alpha = random_program(rng, sig, 2)
    program = rng.choice(
        [
            Star(Seq(Test(inner), alpha)),
            Choice(Test(Neg(inner)), Star(alpha)),
            Seq(alpha, Star(Test(inner))),
        ]
    )
    modal = rng.choice([Diamond, Box])(program, _nested_formula(rng, sig, depth - 1))
    return rng.choice([modal, Neg(modal), At("i", modal), Implies(modal, inner)])


class _CountingDict(dict):
    """A memo that counts how often each key is stored."""

    def __init__(self):
        super().__init__()
        self.stores = Counter()

    def __setitem__(self, key, value):
        self.stores[key] += 1
        super().__setitem__(key, value)


def _complete_model(n, **valuation):
    worlds = frozenset(f"w{k}" for k in range(n))
    every = frozenset((u, v) for u in worlds for v in worlds)
    props = sorted(valuation)
    return Model(
        worlds,
        {"a": every, "b": every},
        {"a": frozenset(), "b": frozenset()},
        {},
        {prop: frozenset(valuation[prop]) for prop in props},
        {prop: frozenset() for prop in props},
    )


class TestLabellingChecker:
    """The labelling checker against the recursive reference checker in
    tests/reference_checker.py."""

    def test_satisfies_agrees_with_reference(self):
        rng = random.Random(71)
        sig = _sig()
        for _ in range(120):
            m = random_model(rng, sig, 5)
            for _ in range(6):
                if rng.random() < 0.5:
                    f = random_formula(rng, sig, rng.randint(1, 4))
                else:
                    f = _nested_formula(rng, sig, rng.randint(1, 2))
                for g in (f, Neg(f)):
                    expected = {w for w in m.worlds if reference.satisfies(m, w, g)}
                    for w in m.worlds:
                        assert satisfies(m, w, g) == (w in expected), (
                            render(g),
                            serialize_model(m),
                        )
                    assert satisfying_worlds(m, g) == expected
                    assert globally_satisfies(m, g) == (expected == m.worlds)

    def test_interpret_program_agrees_with_reference(self):
        rng = random.Random(73)
        sig = _sig()
        for _ in range(120):
            m = random_model(rng, sig, 5)
            alpha = random_program(rng, sig, 3, test_depth=2)
            if rng.random() < 0.5:
                alpha = Seq(Star(Test(_nested_formula(rng, sig, 1))), alpha)
            assert interpret_program(m, alpha) == reference.interpret_program(m, alpha), (
                str(alpha),
                serialize_model(m),
            )

    def test_deep_chains_label_each_subformula_once(self):
        # |W|^10 = 6^10 world visits for the recursive reference checker
        cases = [
            ("[a]" * 10 + "p", {"p": {f"w{k}" for k in range(6)}}, True, 1),
            ("[a]" * 10 + "p", {"p": {"w0", "w1", "w2", "w3", "w4"}}, False, 1),
            ("<(a;b)*>" * 10 + "p", {"p": {"w3"}}, True, 4),
            ("<(a;b)*>" * 10 + "p", {"p": set()}, False, 4),
        ]
        for text, valuation, everywhere, programs in cases:
            m = _complete_model(6, **valuation)
            f = parse_formula(text)
            labeller = _Labeller(m)
            labeller.labels = _CountingDict(), _CountingDict()
            labeller.programs = _CountingDict(), _CountingDict()
            assert labeller.label(f) == (0b111111 if everywhere else 0)
            # one positive label for each of the 10 modal subformulas (the
            # model keeps the label of p) and one positive successor table
            # for each subprogram, each stored once
            assert [len(memo) for memo in labeller.labels] == [10, 0]
            assert [len(memo) for memo in labeller.programs] == [programs, 0]
            for memo in labeller.labels + labeller.programs:
                assert set(memo.stores.values()) <= {1}
            assert all(satisfies(m, w, f) == everywhere for w in m.worlds)

    def test_atoms_outside_the_signature_are_errors(self):
        # every atom is read, even where a short-circuit would skip it
        m = two_world_model(pos_val={"p": frozenset({"u"})})
        for text in ("p | zz", "[a]zz", "!(~p & zz)", "@'i p", "<b>p"):
            with pytest.raises(ModelError):
                satisfies(m, "u", parse_formula(text))
            with pytest.raises(ModelError):
                globally_satisfies(m, parse_formula(text))

    def test_deep_negation_chain(self):
        # one recursion level per formula level, like the parser
        m = two_world_model(pos_val={"p": frozenset({"u"})})
        f = parse_formula("!" * 800 + "p")
        assert satisfying_worlds(m, f) == {"u"}
        assert satisfying_worlds(m, Neg(f)) == frozenset()
