"""The laws of Belnap's four-valued algebra, of the two-relation semantics
with composite programs, and of the prover and oracle built on them, each
stated once.  A law returns its counterexamples (a sampled law its number
of checks too) instead of raising, so it still checks under ``python -O``.
``pdl4 selftest`` runs ``SELFTEST``, small draws of each law; the
acceptance criteria and the tests call the same laws on larger ones."""
from __future__ import annotations

import random

from .fourval import VALUES, cneg4, designated, imp4, join_t, leq_t, meet_t, neg4
from .generators import random_formula, random_model, random_program
from .oracle import EnumerationSpec, countermodel_search, enumerate_models
from .semantics import globally_satisfies, satisfying_worlds, serialize_model, to_four_model, value4
from .syntax import Box, Choice, Diamond, Formula, Neg, Seq, Signature, Star, Test
from .syntax import parse_formula, render, unfold
from .tableau import prove_consequence, prove_validity


def _signature(propositions: str, nominals: str, actions: str) -> Signature:
    return Signature(*(frozenset(names.split()) for names in (propositions, nominals, actions)))


def _show(model) -> str:
    return "; ".join(serialize_model(model).splitlines())


def algebra_laws() -> list[str]:
    """Over the whole value space: both negations are involutions, ``!``
    swaps meet and join, meet and implication form a residuated pair, and
    ``x -> y`` is designated exactly when x is not or y is."""
    found: list[str] = []

    def law(holds: bool, text: str, *values) -> None:
        if not holds:
            found.append(f"{text} fails at {', '.join(map(str, values))}")

    for x in VALUES:
        law(neg4(neg4(x)) is x, "!!x = x", x)
        law(cneg4(cneg4(x)) is x, "~~x = x", x)
        for y in VALUES:
            law(neg4(meet_t(x, y)) is join_t(neg4(x), neg4(y)), "!(x & y) = !x | !y", x, y)
            law(neg4(join_t(x, y)) is meet_t(neg4(x), neg4(y)), "!(x | y) = !x & !y", x, y)
            bridge = designated(imp4(x, y)) == ((not designated(x)) or designated(y))
            law(bridge, "x -> y designated iff x is not or y is", x, y)
            for z in VALUES:
                residuated = leq_t(meet_t(x, y), z) == leq_t(x, imp4(y, z))
                law(residuated, "x & y <= z iff x <= y -> z", x, y, z)
    return found


def parser_round_trip() -> list[str]:
    """Parsing a printed formula gives the formula back."""
    rng = random.Random(11)
    signature = _signature("p q", "i j", "a b")
    formulas = [random_formula(rng, signature, rng.randint(0, 5)) for _ in range(200)]
    return [render(f) for f in formulas if parse_formula(render(f)) != f]


def four_valued_agreement(
    rng: random.Random, signature: Signature, models: int, formulas: int, max_worlds: int,
    max_depth: int,
) -> tuple[list[str], int]:
    """A world satisfies a star-free formula exactly when the formula's
    four-valued value there is designated: `formulas` random formulas on
    each of `models` random models."""
    found, checks = [], 0
    for _ in range(models):
        model = random_model(rng, signature, max_worlds)
        four = to_four_model(model)
        for _ in range(formulas):
            f = random_formula(rng, signature, rng.randint(1, max_depth), atomic_programs=True)
            holding = satisfying_worlds(model, f)
            for w in sorted(model.worlds):
                checks += 1
                if (w in holding) != designated(value4(four, w, f)):
                    found.append(f"{render(f)} at {w} of {_show(model)}")
    return found, checks


def program_schemes(alpha, beta, phi, psi) -> list[tuple[Formula, Formula]]:
    """Each box and diamond over a composite program, paired with its
    one-step unfolding, the conclusion the prover's rule draws from it: the
    two sides hold at the same worlds."""
    return [
        (f, unfold(f))
        for wrap in (Box, Diamond)
        for f in (wrap(Seq(alpha, beta), phi), wrap(Choice(alpha, beta), phi),
                  wrap(Test(psi), phi), wrap(Star(alpha), phi))
    ]


def program_axioms(
    rng: random.Random, signature: Signature, draws: int, max_worlds: int
) -> tuple[list[str], int]:
    """Every program scheme holds world by world, plain and under ``!``,
    on `draws` random models, each with its own random instance."""
    found, checks = [], 0
    for _ in range(draws):
        model = random_model(rng, signature, max_worlds)
        phi, psi = random_formula(rng, signature, 2), random_formula(rng, signature, 2)
        alpha, beta = random_program(rng, signature, 2), random_program(rng, signature, 2)
        for lhs, rhs in program_schemes(alpha, beta, phi, psi):
            for left, right in ((lhs, rhs), (Neg(lhs), Neg(rhs))):
                on_left, on_right = satisfying_worlds(model, left), satisfying_worlds(model, right)
                for w in sorted(model.worlds):
                    checks += 1
                    if (w in on_left) != (w in on_right):
                        found.append(f"{render(left)} vs {render(right)} at {w} of {_show(model)}")
    return found, checks


def prover_regression() -> list[str]:
    """Fixed validities are proved, fixed non-validities refuted by checked
    countermodels, and ~p |= ~<a*>p proved through the loop check."""
    found = []
    for text in (
        "[a](p -> q) -> ([a]p -> [a]q)",
        "p | ~p",
        "(p & ~p) -> false",
        "(~<a>p -> [a]~p) & ([a]~p -> ~<a>p)",
        "([a*]p -> p & [a][a*]p) & (p & [a][a*]p -> [a*]p)",
    ):
        if not prove_validity(parse_formula(text)).proved:
            found.append(f"{text} is not proved")
    for text in ("p | !p", "~p -> !p", "(!<a>p -> [a]!p) & ([a]!p -> !<a>p)"):
        result = prove_validity(parse_formula(text))
        if not result.refuted or globally_satisfies(result.countermodel, parse_formula(text)):
            found.append(f"{text} is not refuted by a countermodel")
    blocking = prove_consequence([parse_formula("~p")], parse_formula("~<a*>p"))
    if not (blocking.proved and blocking.stats.blocked_existentials >= 1):
        found.append("~p |= ~<a*>p is not proved through a blocked existential")
    return found


def oracle_enumeration() -> list[str]:
    """One world carries four models over p and 'i; ``p | !p`` has a
    one-world countermodel, ``p | ~p`` none up to two worlds."""
    found = []
    count = len(list(enumerate_models(EnumerationSpec(_signature("p", "i", ""), 1))))
    if count != 4:
        found.append(f"{count} one-world models over p and 'i, not 4")
    spec = EnumerationSpec.for_formulas([parse_formula("p")], 2)
    model = countermodel_search([], parse_formula("p | !p"), spec)
    if model is None or len(model.worlds) != 1:
        found.append("p | !p has no one-world countermodel")
    model = countermodel_search([], parse_formula("p | ~p"), spec)
    if model is not None:
        found.append(f"p | ~p has the countermodel {_show(model)}")
    return found


SELFTEST = [
    ("four-valued algebra laws", algebra_laws),
    ("parser round trip", parser_round_trip),
    ("four-valued vs two-relation agreement", lambda: four_valued_agreement(
        random.Random(23), _signature("p q", "i", "a"), 40, 10, 3, 4)[0]),
    ("composite program axioms", lambda: program_axioms(
        random.Random(37), _signature("p q", "i", "a b"), 25, 3)[0]),
    ("prover regression", prover_regression),
    ("oracle enumeration", oracle_enumeration),
]
