"""Command-line front end: model checking, diagram extraction, proving,
bounded countermodel search, and the built-in selftest.

Exit status: 0 when the query holds (PROVED / globally satisfied / no
bounded countermodel / selftest green), 1 when it fails (REFUTED, a
countermodel exists, a check fails), 2 on usage, input or resource
errors, 3 on an internal error (a prover or oracle consistency check
failed, or any other defect; never 1, which would read as an answer).

Each subcommand imports the engine it runs when it runs: `prove` and
`valid` the tableau prover, `oracle` the model search, `selftest` the
laws; `check` and `diagram` load neither engine."""
from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from . import __version__
from .semantics import (
    Model,
    ModelError,
    diagram,
    load_model,
    satisfying_worlds,
    serialize_model,
)
from .syntax import (
    Formula,
    ParseError,
    SignedFormula,
    Signature,
    parse_formula,
    render,
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


def _gather_roots(args) -> list[SignedFormula]:
    """Roots for prove/oracle: the hypotheses plus the goal's minus form."""
    if args.assertions:
        roots, query = _read_assertions(args.assertions)
        if args.formula is not None:
            if query is not None:
                raise CliError("query given both on the command line and in the file")
            query = _parse(args.formula)
        if query is None:
            raise CliError("no query: give --formula or a query: line")
    elif args.formula is None:
        raise CliError("a formula is required (--formula or --assertions)")
    else:
        roots = [SignedFormula(_parse(text)) for text in (args.assume or [])]
        query = _parse(args.formula)
    return roots + [SignedFormula(query, minus=True)]


def _limits(args):
    from .tableau import TableauLimits

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


def _cmd_prove(args) -> int:
    from .tableau import prove_from_roots

    roots = _gather_roots(args)
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
    from .oracle import DEFAULT_CEILING, CeilingExceeded, EnumerationSpec, find_model

    roots = _gather_roots(args)
    signature = Signature.of(roots)
    spec = EnumerationSpec(
        signature,
        _max_worlds(args),
        sample_count=args.samples,
        seed=args.seed,
        ceiling=DEFAULT_CEILING if args.ceiling is None else args.ceiling,
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


def _cmd_selftest(args) -> int:
    from .invariants import SELFTEST  # only selftest reads the laws

    failed = False
    for name, law in SELFTEST:
        found = law()
        print(f"FAIL {name}: {found[0]}" if found else f"ok {name}")
        failed |= bool(found)
    return 1 if failed else 0


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
        cmd.set_defaults(func=_cmd_prove)

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
        # oracle.DEFAULT_CEILING, written out so that parsing loads no oracle
        help="most models an exhaustive search may scan at one world count "
        "(default 134217728); exit 2 above it",
    )
    oracle.set_defaults(func=_cmd_oracle)

    selftest = sub.add_parser("selftest", help="run the built-in invariant suites")
    selftest.set_defaults(func=_cmd_selftest)
    return parser


def run(argv: Sequence[str]) -> int:
    parser = _build_parser()
    args = parser.parse_args(list(argv))
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except RecursionError:
        # formulas deeper than the stack, in the checker, prover or oracle
        print("error: input nested too deeply", file=sys.stderr)
        return USAGE_ERROR
    except ValueError as exc:
        # covers model errors, signature clashes, bad numeric inputs
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:
        # a failed prover or oracle self-check, or any other defect
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
