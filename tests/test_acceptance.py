"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete."""
import random
import time
from pathlib import Path

from pdl4.generators import random_formula
from pdl4.oracle import CeilingExceeded, EnumerationSpec, countermodel_search
from pdl4.semantics import diagram, globally_satisfies, load_model, serialize_model
from pdl4.syntax import Signature, iff, parse_formula, render
from pdl4.tableau import TableauLimits, prove_consequence, prove_validity

DATA = Path(__file__).parent / "data"

GENEROUS_LIMITS = TableauLimits(max_steps=500_000)


def _report(number, text):
    print(f"ACCEPTANCE {number} PASS: {text}")


def test_criterion_1_example_diagram_golden():
    started = time.monotonic()
    model = load_model(str(DATA / "example1.model"))
    produced = {render(f) for f in diagram(model)}
    expected = {
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
    }
    assert produced == expected
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    _report(1, f"diagram is exactly the 13 expected statements ({elapsed:.3f}s)")


# The laws are imported where they run: perfbench imports this module for
# its corpus and has no use for them.


def test_criterion_2_two_semantics_agree():
    from pdl4.invariants import four_valued_agreement

    started = time.monotonic()
    signature = Signature(
        frozenset({"p", "q"}), frozenset({"i", "j"}), frozenset({"a", "b"})
    )
    disagreements, checks = four_valued_agreement(
        random.Random(20_240_201), signature, 500, 50, 4, 5
    )
    elapsed = time.monotonic() - started
    assert disagreements == []
    assert elapsed < 60.0
    _report(2, f"satisfaction matches the four-valued reading on {checks} checks ({elapsed:.1f}s)")


def test_criterion_3_program_axioms():
    from pdl4.invariants import program_axioms

    started = time.monotonic()
    signature = Signature(
        frozenset({"p", "q"}), frozenset({"i"}), frozenset({"a", "b"})
    )
    violations, checks = program_axioms(random.Random(20_240_202), signature, 200, 4)
    elapsed = time.monotonic() - started
    assert violations == []
    assert elapsed < 120.0
    _report(3, f"all 8 program schemes hold plain and negated on {checks} checks ({elapsed:.1f}s)")


def _validity_set():
    parse = parse_formula
    return [
        parse("[a](p -> q) -> ([a]p -> [a]q)"),
        parse("(p & ~p) -> false"),
        parse("p | ~p"),
        iff(parse("~<a>p"), parse("[a]~p")),
        iff(parse("<a;b>p"), parse("<a><b>p")),
        iff(parse("[a+b]p"), parse("[a]p & [b]p")),
        iff(parse("[q?]p"), parse("q -> p")),
        iff(parse("[a*]p"), parse("p & [a][a*]p")),
    ]


def test_criterion_4_validity_regression():
    limits = TableauLimits(max_steps=100_000)
    for formula in _validity_set():
        result = prove_validity(formula, limits)
        assert result.proved, render(formula)
        assert result.stats.steps <= 100_000
    _report(4, f"{len(_validity_set())} validities proved within the step bound")


def _non_validity_set():
    parse = parse_formula
    return [
        parse("p | !p"),
        parse("(p & !p) -> false"),
        iff(parse("!<a>p"), parse("[a]!p")),
        parse("~p -> !p"),
        parse("!p -> ~p"),
        iff(parse("!~p"), parse("p")),
    ]


def test_criterion_5_non_validity_regression():
    for formula in _non_validity_set():
        result = prove_validity(formula, GENEROUS_LIMITS)
        assert result.refuted, render(formula)
        model = result.countermodel
        assert len(model.worlds) <= 3, render(formula)
        assert not globally_satisfies(model, formula)
    _report(5, f"{len(_non_validity_set())} non-validities refuted with small verified countermodels")


def _count_stars(node) -> int:
    from pdl4.syntax import Star as StarNode, _children

    own = 1 if isinstance(node, StarNode) else 0
    return own + sum(_count_stars(child) for child in _children(node))


def _draw_formula(rng, signature, depth, star_budget):
    """Random formula with at most star_budget iteration programs; heavy
    star nesting blows tableau sizes out of review range without adding
    coverage beyond the dedicated loop-check suite."""
    while True:
        formula = random_formula(rng, signature, depth, program_depth=2)
        if _count_stars(formula) <= star_budget:
            return formula


def _consequence_corpus(count=200):
    """Seeded corpus: propositional, relational, and mixed signatures, all
    exhaustively checkable at three worlds."""
    rng = random.Random(20_240_203)
    signatures = [
        Signature(frozenset({"p", "q"}), frozenset(), frozenset()),
        Signature(frozenset(), frozenset({"i"}), frozenset({"a"})),
        Signature(frozenset({"p"}), frozenset({"i"}), frozenset({"a"})),
        Signature(frozenset({"p"}), frozenset(), frozenset({"a"})),
    ]
    problems = []
    for k in range(count):
        signature = signatures[k % len(signatures)]
        star_budget = 2
        hypotheses = []
        for _ in range(rng.randint(0, 2)):
            hypothesis = _draw_formula(rng, signature, rng.randint(1, 4), min(star_budget, 1))
            star_budget -= _count_stars(hypothesis)
            hypotheses.append(hypothesis)
        goal = _draw_formula(rng, signature, rng.randint(1, 4), max(star_budget, 0))
        problems.append((hypotheses, goal))
    return problems


def test_default_limits_decide_the_gate():
    # The gate's own tests prove under GENEROUS_LIMITS; the CLI's default
    # limits must decide every one of its problems too.
    for index, (hypotheses, goal) in enumerate(_consequence_corpus()):
        result = prove_consequence(hypotheses, goal, TableauLimits())
        assert not result.exhausted, index
        if index == 6:  # without backjumping it runs past 100,000 steps
            assert result.proved and result.stats.steps <= 1_000


def _cross_check_with_oracle(max_worlds):
    """Prove each gate problem and search it exhaustively up to max_worlds.
    Prints and returns the problems where the two disagree, or where a
    countermodel fails the checker; the refutations whose countermodel
    needs more worlds; the indices the oracle's ceiling refuses; and the
    proved and refuted counts."""
    confirmed_divergences = []
    bounded_only = []
    refused = []
    proved = refuted = 0
    for index, (hypotheses, goal) in enumerate(_consequence_corpus()):
        result = prove_consequence(hypotheses, goal, GENEROUS_LIMITS)
        assert not result.exhausted, (list(map(render, hypotheses)), render(goal))
        spec = EnumerationSpec.for_formulas(hypotheses + [goal], max_worlds)
        try:
            witness = countermodel_search(hypotheses, goal, spec)
        except CeilingExceeded:
            refused.append(index)
            continue
        if result.proved:
            proved += 1
            if witness is not None:
                confirmed_divergences.append((hypotheses, goal, witness))
        else:
            refuted += 1
            model = result.countermodel
            checker_ok = all(
                globally_satisfies(model, h) for h in hypotheses
            ) and not globally_satisfies(model, goal)
            if not checker_ok:
                confirmed_divergences.append((hypotheses, goal, model))
            if witness is None:
                # only legitimate when the tableau model needs more worlds
                if len(model.worlds) <= max_worlds:
                    confirmed_divergences.append((hypotheses, goal, model))
                else:
                    bounded_only.append((hypotheses, goal, len(model.worlds)))
    for hypotheses, goal, evidence in confirmed_divergences:
        print(
            "DIVERGENCE:",
            [render(h) for h in hypotheses],
            "|=",
            render(goal),
            serialize_model(evidence) if evidence is not None else None,
        )
    for hypotheses, goal, size in bounded_only:
        print(
            "bounded-only divergence (triaged: countermodel needs",
            size,
            "worlds):",
            [render(h) for h in hypotheses],
            "|=",
            render(goal),
        )
    return confirmed_divergences, bounded_only, refused, proved, refuted


def test_criterion_6_prover_agrees_with_oracle():
    started = time.monotonic()
    divergences, bounded_only, refused, proved, refuted = _cross_check_with_oracle(3)
    elapsed = time.monotonic() - started
    assert not divergences
    assert not refused
    _report(
        6,
        f"200 consequence problems agree with the exhaustive oracle "
        f"(proved {proved}, refuted {refuted}, bounded-only {len(bounded_only)}, {elapsed:.0f}s)",
    )


def test_prover_agrees_with_oracle_at_four_worlds():
    # the scan's ceiling counts the models it visits, so at four worlds
    # it refuses only these six of the gate's problems
    divergences, _, refused, _, _ = _cross_check_with_oracle(4)
    assert not divergences
    assert refused == [6, 58, 95, 157, 161, 179]


def test_criterion_7_refutations_verified_by_checker():
    """Re-verifies every refutation from the regression sets with the
    model checker directly (the prover's own verification stays on too)."""
    verified = 0
    for formula in _non_validity_set():
        result = prove_validity(formula, GENEROUS_LIMITS, verify=False)
        assert result.refuted
        assert not globally_satisfies(result.countermodel, formula)
        verified += 1
    rng = random.Random(20_240_204)
    signature = Signature(frozenset({"p", "q"}), frozenset({"i"}), frozenset({"a"}))
    for _ in range(120):
        hypotheses = [
            _draw_formula(rng, signature, rng.randint(1, 4), 1)
            for _ in range(rng.randint(0, 2))
        ]
        goal = _draw_formula(rng, signature, rng.randint(1, 4), 1)
        result = prove_consequence(hypotheses, goal, GENEROUS_LIMITS, verify=False)
        assert not result.exhausted
        if result.refuted:
            model = result.countermodel
            for hypothesis in hypotheses:
                assert globally_satisfies(model, hypothesis), render(hypothesis)
            assert not globally_satisfies(model, goal), render(goal)
            verified += 1
    assert verified > 40
    _report(7, f"{verified} extracted countermodels verified against every root")


BLOCKING_FAMILY = [
    (["~p"], "~<a*>p"),
    (["~q"], "~<b*>q"),
    (["~p"], "~<(a;a)*>p"),
    (["~p"], "~<(a+b)*>p"),
    (["~p"], "~<(a;b)*>p"),
    (["~p", "~q"], "~<a*>(p | q)"),
    (["~p & ~q"], "~<a*>q"),
    (["~p"], "@'i ~<a*>p"),
    (["~p"], "~<a*><a>p"),
    (["~p"], "~<a;a*>p"),
    (["[a*]~p"], "~<a*>p"),
    (["~p"], "~<(p|q)?;a*>p"),
]


def test_criterion_8_termination_and_loop_check():
    # star-under-diamond inputs whose deferral chain only stops because the
    # inclusion check blocks the existential expansion
    for hypotheses, goal in BLOCKING_FAMILY:
        result = prove_consequence(
            [parse_formula(h) for h in hypotheses],
            parse_formula(goal),
            GENEROUS_LIMITS,
        )
        assert not result.exhausted, goal
        assert result.proved, goal
        assert result.stats.blocked_existentials >= 1, goal
    # and the other suites run without hitting limits
    for formula in _validity_set() + _non_validity_set():
        assert not prove_validity(formula, GENEROUS_LIMITS).exhausted
    _report(
        8,
        f"no resource exhaustion; loop check blocked expansion on all "
        f"{len(BLOCKING_FAMILY)} divergence-prone inputs",
    )


def test_criterion_9_algebra_exhaustive():
    from pdl4.invariants import algebra_laws

    started = time.monotonic()
    failures = algebra_laws()
    elapsed = time.monotonic() - started
    assert failures == []
    assert elapsed < 1.0
    _report(9, f"algebra laws hold over the full value space ({elapsed:.3f}s)")
