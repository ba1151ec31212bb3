"""prove-corpus: the acceptance gate's prover inputs under the CLI's
default limits, one `pdl4 prove` equivalent per operation (parse the
problem text, then prove_from_roots with TableauLimits())."""
from __future__ import annotations

import random
from pathlib import Path

from pdl4.oracle import EnumerationSpec, find_model
from pdl4.semantics import globally_satisfies
from pdl4.syntax import SignedFormula, fischer_ladner_closure, parse_formula, render
from pdl4.tableau import TableauError, extract_model, initialize, prove_from_roots

import corpus
from common import OpFailed, read_problems, write_problems

FAST_PASSES = 20
# Operations that fail at every run today; see the README.
PROBLEM_6 = f"c{corpus.PROBLEM_6:03d}"
EXPECTED_FAILURES = {PROBLEM_6, "r0"}
# Random models tried against each proof when checking it.
PROOF_SAMPLES = 60

# ProofStats fields reported as per-layer counts.
COUNTERS = ("steps", "branches", "closed_branches", "ignorable_branches",
            "blocked_existentials", "fresh_nominals")


def families():
    """(tag, id prefix, [(hypotheses, goal)]) of the gate's fixed families
    and the reproducer."""
    def parsed(pairs):
        return [([parse_formula(h) for h in hyps], parse_formula(goal)) for hyps, goal in pairs]

    return [
        ("valid", "v", [([], goal) for goal in corpus.validity_set()]),
        ("invalid", "n", [([], goal) for goal in corpus.non_validity_set()]),
        ("blocking", "b", parsed(corpus.BLOCKING_FAMILY)),
        ("reproducer", "r", parsed([corpus.REPRODUCER])),
    ]


def generate(seed: int, out: Path) -> None:
    problems = [
        (f"c{k:03d}", "corpus", render(goal), [render(h) for h in hyps])
        for k, (hyps, goal) in enumerate(corpus.consequence_corpus())
    ]
    for tag, prefix, pairs in families():
        problems.extend(
            (f"{prefix}{k}", tag, render(goal), [render(h) for h in hyps])
            for k, (hyps, goal) in enumerate(pairs)
        )
    random.Random(seed).shuffle(problems)
    write_problems(out / "problems.txt", problems)


def setup(indir: Path):
    return read_problems(indir / "problems.txt")


def round_ops(state):
    """Every problem once, with the fast ones repeated in passes before and
    after problem 6: a pass takes 0.3 s, and a median taken over so short a
    window moved by a quarter between runs with the machine's load."""
    fast = [op for op in state if op[0] != PROBLEM_6]
    slow = [op for op in state if op[0] == PROBLEM_6]
    half = FAST_PASSES // 2
    return fast * half + slow + fast * (FAST_PASSES - half)


def op_id(op) -> str:
    return op[0]


def _roots(op) -> list[SignedFormula]:
    _, _, goal, hyps = op
    roots = [SignedFormula(parse_formula(h)) for h in hyps]
    roots.append(SignedFormula(parse_formula(goal), minus=True))
    return roots


def run(state, op):
    try:
        result = prove_from_roots(_roots(op))
    except TableauError as exc:
        raise OpFailed(type(exc).__name__) from None
    if result.exhausted:
        raise OpFailed(f"exhausted after {result.stats.steps} steps")
    return result.verdict, result.countermodel, result.stats.blocked_existentials


EXPECTED_VERDICT = {"valid": "proved", "invalid": "refuted", "blocking": "proved", "reproducer": "proved"}


def check(state, op, output, seed: int) -> str | None:
    verdict, model, blocked = output
    pid, tag, _, _ = op
    roots = _roots(op)
    want = EXPECTED_VERDICT.get(tag)
    if want is not None and verdict != want:
        return f"{pid}: {verdict}, the gate expects {want}"
    if tag == "blocking" and blocked < 1:
        return f"{pid}: proved without blocking an existential"
    if verdict == "refuted":
        if not all(globally_satisfies(model, sf) for sf in roots):
            return f"{pid}: the countermodel fails a hypothesis or satisfies the goal"
        return None
    spec = EnumerationSpec.for_formulas(roots, 3, sample_count=PROOF_SAMPLES, seed=seed)
    if find_model(roots, spec) is not None:
        return f"{pid}: proved, but a sampled model refutes it"
    return None


def trace(state, tracer, seed: int):
    """One traced round; returns (outputs, failed ids, per-layer metrics)."""
    outputs, failed = {}, set()
    p6_steps = 0
    for op in state:
        pid = op[0]
        with tracer.span("prove.op", pid):
            with tracer.span("syntax.parse"):
                roots = _roots(op)
            with tracer.span("syntax.closure"):
                fischer_ladner_closure(roots)
            with tracer.span("tableau.init"):
                initialize(roots)
            try:
                with tracer.span("tableau.prove"):
                    result = prove_from_roots(roots, verify=False)
            except TableauError:
                failed.add(pid)
                continue
            stats = result.stats
            for name in COUNTERS:
                tracer.count(f"tableau.{name}", getattr(stats, name))
            if pid == PROBLEM_6:
                p6_steps = stats.steps
            if result.exhausted:
                failed.add(pid)
                continue
            if result.refuted:
                with tracer.span("tableau.extract"):
                    extract_model(result.open_branch)
                with tracer.span("semantics.verify"):
                    verified = all(globally_satisfies(result.countermodel, sf) for sf in roots)
                if not verified:
                    failed.add(pid)
                    continue
            outputs[pid] = (result.verdict, result.countermodel, stats.blocked_existentials)

    def saturation(pid=None):
        return (tracer.seconds("tableau.prove", pid) - tracer.seconds("tableau.init", pid)
                - tracer.seconds("tableau.extract", pid))

    metrics = {
        "syntax.closure_ms": 1e3 * tracer.seconds("syntax.closure"),
        "tableau.init_ms": 1e3 * tracer.seconds("tableau.init"),
        "tableau.saturate_ms": 1e3 * saturation(),
        "tableau.extract_ms": 1e3 * tracer.seconds("tableau.extract"),
        "tableau.verify_ms": 1e3 * tracer.seconds("semantics.verify"),
        "tableau.p6_steps_per_s": p6_steps / saturation(PROBLEM_6),
        "tableau.rest_steps_per_s": (tracer.counts["tableau.steps"] - p6_steps)
        / (saturation() - saturation(PROBLEM_6)),
    }
    for name in COUNTERS:
        metrics[f"tableau.{name}"] = tracer.counts.get(f"tableau.{name}", 0)
    return outputs, failed, metrics
