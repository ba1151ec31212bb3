"""Command-line front end: model checking, diagram extraction, proving,
bounded countermodel search, and the built-in selftest.

Exit status: 0 when the query holds (PROVED / globally satisfied / no
bounded countermodel / selftest green), 1 when it fails (REFUTED, a
countermodel exists, a check fails), 2 on usage, input or resource
errors, 3 on an internal error (a prover or oracle consistency check
failed, which indicates a defect, not an answer)."""
from __future__ import annotations

import argparse
import os
import random
import sys
from typing import Optional, Sequence

from . import __version__
from .fourval import VALUES, cneg4, designated, imp4, join_t, leq_t, meet_t, neg4
from .generators import random_formula, random_model, random_program
from .oracle import (
    CeilingExceeded,
    DEFAULT_CEILING,
    EnumerationSpec,
    OracleError,
    enumerate_models,
    find_model,
)
from .semantics import (
    Model,
    ModelError,
    diagram,
    globally_satisfies,
    load_model,
    satisfies,
    satisfying_worlds,
    serialize_model,
    to_four_model,
    value4,
)
from .syntax import (
    And,
    Box,
    Choice,
    Diamond,
    Formula,
    Implies,
    Neg,
    Or,
    ParseError,
    Seq,
    SignedFormula,
    Signature,
    Star,
    Test,
    parse_formula,
    render,
)
from .tableau import (
    TableauError,
    TableauLimits,
    prove_from_roots,
)

USAGE_ERROR = 2
INTERNAL_ERROR = 3


class CliError(Exception):
    """Input or usage problem; reported on stderr with exit status 2."""


def _env_number(name: str, convert: type, noun: str) -> Optional[float]:
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return None
    try:
        return convert(raw)
    except ValueError:
        raise CliError(f"environment variable {name} must be {noun}, got {raw!r}")


# Longest input echoed in full in a parse error.
ECHO_LIMIT = 60


def _parse(text: str) -> Formula:
    try:
        return parse_formula(text)
    except ParseError as exc:
        shown = repr(text)
        if len(text) > ECHO_LIMIT:
            shown = f"{text[:ECHO_LIMIT]!r}... ({len(text)} characters)"
        raise CliError(f"cannot parse formula {shown}: {exc}")


def _load_model(path: str) -> Model:
    try:
        return load_model(path)
    except OSError as exc:
        raise CliError(f"cannot read model file {path}: {exc}")
    except ModelError as exc:
        raise CliError(f"bad model file {path}: {exc}")


def _read_assertions(path: str) -> tuple[list[SignedFormula], Optional[Formula]]:
    """Assertion files: `assert: f` lines for global hypotheses, `deny: f`
    for minus-form root members, one `query: f` goal line."""
    roots: list[SignedFormula] = []
    query: Optional[Formula] = None
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        raise CliError(f"cannot read assertion file {path}: {exc}")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise CliError(f"{path}:{lineno}: expected assert:/deny:/query: directive")
        keyword, body = (part.strip() for part in line.split(":", 1))
        if keyword == "assert":
            roots.append(SignedFormula(_parse(body)))
        elif keyword == "deny":
            roots.append(SignedFormula(_parse(body), minus=True))
        elif keyword == "query":
            if query is not None:
                raise CliError(f"{path}:{lineno}: more than one query line")
            query = _parse(body)
        else:
            raise CliError(f"{path}:{lineno}: unknown directive {keyword!r}")
    return roots, query


def _gather_roots(args) -> tuple[list[SignedFormula], Formula]:
    """Roots for prove/oracle: hypotheses plus the goal."""
    if args.assertions:
        roots, query = _read_assertions(args.assertions)
        if args.formula is not None:
            if query is not None:
                raise CliError("query given both on the command line and in the file")
            query = _parse(args.formula)
        if query is None:
            raise CliError("no query: give --formula or a query: line")
        return roots, query
    if args.formula is None:
        raise CliError("a formula is required (--formula or --assertions)")
    roots = [SignedFormula(_parse(text)) for text in (args.assume or [])]
    return roots, _parse(args.formula)


def _limits(args) -> TableauLimits:
    steps = args.steps
    if steps is None:
        steps = _env_number("PDL4_MAX_STEPS", int, "an integer")
    time_limit = args.time_limit
    if time_limit is None:
        time_limit = _env_number("PDL4_TIME_LIMIT", float, "a number")
    limits = TableauLimits()
    if steps is not None:
        limits.max_steps = steps
    if time_limit is not None:
        limits.time_limit = time_limit
    return limits


def _max_worlds(args) -> int:
    if args.max_worlds is not None:
        return args.max_worlds
    from_env = _env_number("PDL4_MAX_WORLDS", int, "an integer")
    return 3 if from_env is None else from_env


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_check(args) -> int:
    model = _load_model(args.model)
    formulas = [_parse(text) for text in args.formula]
    machine = args.format == "machine"
    all_hold = True
    for f in formulas:
        if machine:
            print(f"check {render(f)}")
        else:
            print(f"formula: {render(f)}")
        holding = satisfying_worlds(model, f)
        for w in sorted(model.worlds):
            value = w in holding
            if machine:
                print(f"{w} {int(value)}")
            else:
                print(f"  {w}: {'yes' if value else 'no'}")
        holds_everywhere = holding == model.worlds
        if machine:
            print(f"global {int(holds_everywhere)}")
        else:
            print(f"  global: {'yes' if holds_everywhere else 'no'}")
        all_hold &= holds_everywhere
    return 0 if all_hold else 1


def _cmd_diagram(args) -> int:
    model = _load_model(args.model)
    try:
        lines = sorted(render(f) for f in diagram(model))
    except ModelError as exc:
        raise CliError(str(exc))
    for line in lines:
        print(line)
    return 0


def _cmd_prove(args, empty_hypotheses: bool = False) -> int:
    roots, query = _gather_roots(args)
    if empty_hypotheses and roots:
        raise CliError("valid takes a bare formula, not hypotheses")
    roots = roots + [SignedFormula(query, minus=True)]
    result = prove_from_roots(roots, _limits(args), transcript=args.transcript)
    machine = args.format == "machine"
    if result.transcript:
        for line in result.transcript:
            print(line)
    if result.exhausted:
        print(
            f"resource limit reached after {result.stats.steps} steps",
            file=sys.stderr,
        )
        return USAGE_ERROR
    stats = result.stats
    if result.proved:
        print("PROVED" if machine else f"PROVED (steps={stats.steps}, branches={stats.branches})")
        return 0
    if machine:
        print("REFUTED")
        print(serialize_model(result.countermodel), end="")
    else:
        print(f"REFUTED (steps={stats.steps}, branches={stats.branches})")
        print("countermodel:")
        print(serialize_model(result.countermodel), end="")
    return 1


def _cmd_oracle(args) -> int:
    roots, query = _gather_roots(args)
    roots = roots + [SignedFormula(query, minus=True)]
    signature = Signature.of(roots)
    spec = EnumerationSpec(
        signature,
        _max_worlds(args),
        sample_count=args.samples,
        seed=args.seed,
        ceiling=args.ceiling,
    )
    try:
        model = find_model(roots, spec)
    except CeilingExceeded as exc:
        print(f"search space too large: {exc}", file=sys.stderr)
        return USAGE_ERROR
    if model is None:
        print("NONE-UP-TO-BOUND")
        return 0
    print(serialize_model(model), end="")
    return 1


# ---------------------------------------------------------------------------
# Selftest


def _selftest_fourval() -> None:
    for x in VALUES:
        assert neg4(neg4(x)) is x
        assert cneg4(cneg4(x)) is x
        for y in VALUES:
            assert neg4(meet_t(x, y)) is join_t(neg4(x), neg4(y))
            assert designated(imp4(x, y)) == ((not designated(x)) or designated(y))
            for z in VALUES:
                assert leq_t(meet_t(x, y), z) == leq_t(x, imp4(y, z))


def _selftest_roundtrip() -> None:
    rng = random.Random(11)
    sig = Signature(frozenset({"p", "q"}), frozenset({"i", "j"}), frozenset({"a", "b"}))
    for _ in range(200):
        f = random_formula(rng, sig, rng.randint(0, 5))
        assert parse_formula(render(f)) == f, render(f)


def _selftest_four_valued_agreement() -> None:
    rng = random.Random(23)
    sig = Signature(frozenset({"p", "q"}), frozenset({"i"}), frozenset({"a"}))
    for _ in range(40):
        model = random_model(rng, sig, 3)
        four = to_four_model(model)
        for _ in range(10):
            f = random_formula(rng, sig, rng.randint(1, 4), atomic_programs=True)
            for w in model.worlds:
                assert satisfies(model, w, f) == designated(value4(four, w, f))


def _selftest_program_axioms() -> None:
    rng = random.Random(37)
    sig = Signature(frozenset({"p", "q"}), frozenset({"i"}), frozenset({"a", "b"}))
    for _ in range(25):
        model = random_model(rng, sig, 3)
        phi = random_formula(rng, sig, 2)
        psi = random_formula(rng, sig, 2)
        alpha = random_program(rng, sig, 2)
        beta = random_program(rng, sig, 2)
        pairs = [
            (Box(Seq(alpha, beta), phi), Box(alpha, Box(beta, phi))),
            (Box(Choice(alpha, beta), phi), And(Box(alpha, phi), Box(beta, phi))),
            (Box(Test(psi), phi), Implies(psi, phi)),
            (Box(Star(alpha), phi), And(phi, Box(alpha, Box(Star(alpha), phi)))),
            (Diamond(Seq(alpha, beta), phi), Diamond(alpha, Diamond(beta, phi))),
            (Diamond(Choice(alpha, beta), phi), Or(Diamond(alpha, phi), Diamond(beta, phi))),
            (Diamond(Test(psi), phi), And(psi, phi)),
            (Diamond(Star(alpha), phi), Or(phi, Diamond(alpha, Diamond(Star(alpha), phi)))),
        ]
        for lhs, rhs in pairs:
            for a, b in ((lhs, rhs), (Neg(lhs), Neg(rhs))):
                for w in model.worlds:
                    assert satisfies(model, w, a) == satisfies(model, w, b)


def _selftest_prover() -> None:
    cases_proved = [
        "[a](p -> q) -> ([a]p -> [a]q)",
        "p | ~p",
        "(p & ~p) -> false",
        "(~<a>p -> [a]~p) & ([a]~p -> ~<a>p)",
        "([a*]p -> p & [a][a*]p) & (p & [a][a*]p -> [a*]p)",
    ]
    for text in cases_proved:
        result = prove_from_roots(
            [SignedFormula(parse_formula(text), minus=True)], TableauLimits()
        )
        assert result.proved, text
    cases_refuted = ["p | !p", "~p -> !p", "(!<a>p -> [a]!p) & ([a]!p -> !<a>p)"]
    for text in cases_refuted:
        result = prove_from_roots(
            [SignedFormula(parse_formula(text), minus=True)], TableauLimits()
        )
        assert result.refuted, text
        goal = parse_formula(text)
        assert not globally_satisfies(result.countermodel, goal)
    blocking = prove_from_roots(
        [
            SignedFormula(parse_formula("~p")),
            SignedFormula(parse_formula("~<a*>p"), minus=True),
        ],
        TableauLimits(),
    )
    assert blocking.proved and blocking.stats.blocked_existentials >= 1


def _selftest_oracle() -> None:
    sig = Signature(frozenset({"p"}), frozenset({"i"}), frozenset())
    assert len(list(enumerate_models(EnumerationSpec(sig, 1)))) == 4
    goal = parse_formula("p | !p")
    spec = EnumerationSpec.for_formulas([goal], 2)
    model = find_model([SignedFormula(goal, minus=True)], spec)
    assert model is not None and len(model.worlds) == 1
    assert find_model([SignedFormula(parse_formula("p | ~p"), minus=True)], spec) is None


def _cmd_selftest(args) -> int:
    suites = [
        ("four-valued algebra laws", _selftest_fourval),
        ("parser round trip", _selftest_roundtrip),
        ("four-valued vs two-relation agreement", _selftest_four_valued_agreement),
        ("composite program axioms", _selftest_program_axioms),
        ("prover regression", _selftest_prover),
        ("oracle enumeration", _selftest_oracle),
    ]
    failures = 0
    for name, suite in suites:
        try:
            suite()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"ok {name}")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# Argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdl4",
        description="Four-valued dynamic hybrid logic: check, prove, search.",
    )
    parser.add_argument("--version", action="version", version=f"pdl4 {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="evaluate formulas on a model file")
    check.add_argument("--model", required=True)
    check.add_argument("--formula", action="append", required=True)
    check.add_argument("--format", choices=("text", "machine"), default="text")
    check.set_defaults(func=_cmd_check)

    diag = sub.add_parser("diagram", help="print the diagram of a named model")
    diag.add_argument("--model", required=True)
    diag.set_defaults(func=_cmd_diagram)

    for name, helptext, is_valid in (
        ("prove", "decide global consequence with the tableau prover", False),
        ("valid", "decide validity (consequence from nothing)", True),
    ):
        cmd = sub.add_parser(name, help=helptext)
        cmd.add_argument("--formula", help="goal formula")
        if not is_valid:
            cmd.add_argument(
                "--assume", action="append", help="hypothesis, repeatable"
            )
            cmd.add_argument("--assertions", help="assert:/deny:/query: file")
        else:
            cmd.set_defaults(assume=None, assertions=None)
        cmd.add_argument("--steps", type=int, help="step bound (PDL4_MAX_STEPS)")
        cmd.add_argument(
            "--time-limit", type=float, help="seconds bound (PDL4_TIME_LIMIT)"
        )
        cmd.add_argument("--transcript", action="store_true")
        cmd.add_argument("--format", choices=("text", "machine"), default="text")
        cmd.set_defaults(func=_cmd_prove, empty_hypotheses=is_valid)

    oracle = sub.add_parser("oracle", help="bounded brute-force countermodel search")
    oracle.add_argument("--formula")
    oracle.add_argument("--assume", action="append")
    oracle.add_argument("--assertions")
    oracle.add_argument(
        "--max-worlds", type=int, help="world bound (PDL4_MAX_WORLDS, default 3)"
    )
    oracle.add_argument("--samples", type=int, help="randomized mode sample count")
    oracle.add_argument("--seed", type=int, default=0)
    oracle.add_argument(
        "--ceiling",
        type=int,
        default=DEFAULT_CEILING,
        help="most models an exhaustive search may scan at one world count "
        "(default %(default)s); exit 2 above it",
    )
    oracle.set_defaults(func=_cmd_oracle)

    selftest = sub.add_parser("selftest", help="run the built-in invariant suites")
    selftest.set_defaults(func=_cmd_selftest)
    return parser


def run(argv: Sequence[str]) -> int:
    parser = _build_parser()
    args = parser.parse_args(list(argv))
    try:
        if getattr(args, "empty_hypotheses", False):
            return args.func(args, empty_hypotheses=True)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except RecursionError:
        # formulas deeper than the stack, in the checker, prover or oracle
        print("error: input nested too deeply", file=sys.stderr)
        return USAGE_ERROR
    except (TableauError, OracleError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL_ERROR
    except ValueError as exc:
        # covers model errors, signature clashes, bad numeric inputs
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
