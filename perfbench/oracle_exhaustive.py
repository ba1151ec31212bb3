"""oracle-exhaustive: countermodel_search at the gate's bound of three
worlds on the consequence corpus.  Every search that finds a witness and
every search over a small signature is run; of the full three-world
vector scans over the two large signatures ({p, a}: 16,781,328 models,
{p, 'i, a}: 50,339,856 models) one of each is drawn."""
from __future__ import annotations

import random
from pathlib import Path

from pdl4.oracle import (
    VECTOR_THRESHOLD,
    EnumerationSpec,
    countermodel_search,
    find_model,
    search_space_size,
)
from pdl4.semantics import globally_satisfies
from pdl4.syntax import SignedFormula, parse_formula, render
from pdl4.tableau import prove_from_roots

import corpus
from common import read_problems, write_problems

EXPECTED_FAILURES: set[str] = set()
MAX_WORLDS = 3

# Corpus problems whose three-world search over a large signature finds no
# witness, so the vector path scans every model.  Problem 6 is left out:
# the check of a no-witness answer needs a prover verdict, and under the
# default limits the prover exhausts on problem 6 (prove-corpus counts that).
NO_WITNESS_PA = [11, 15, 19, 39, 47, 51, 59, 78, 90, 95, 111, 119, 131, 163, 175, 179, 187]
NO_WITNESS_PIA = [10, 54, 58, 82, 86, 94, 110, 134, 150, 166, 174]
# The draw is made with a fixed seed, not the run seed: single full scans
# differ up to fourfold in cost (1.1-6.7 s and 3.9-16.2 s measured), so a
# per-run draw would move a run's throughput by more than any bound.
DRAW_SEED = 20_240_203


def drawn_scans() -> dict[int, str]:
    rng = random.Random(DRAW_SEED)
    return {rng.choice(NO_WITNESS_PA): "scan-pa", rng.choice(NO_WITNESS_PIA): "scan-pia"}


def generate(seed: int, out: Path) -> None:
    skipped = set(NO_WITNESS_PA) | set(NO_WITNESS_PIA) | {corpus.PROBLEM_6}
    drawn = drawn_scans()
    searches = []
    for k, (hyps, goal) in enumerate(corpus.consequence_corpus()):
        if k in skipped and k not in drawn:
            continue
        searches.append((f"c{k:03d}", drawn.get(k, "fixed"), render(goal), [render(h) for h in hyps]))
    random.Random(seed).shuffle(searches)
    write_problems(out / "searches.txt", searches)


def setup(indir: Path):
    return [
        (pid, tag, [parse_formula(h) for h in hyps], parse_formula(goal))
        for pid, tag, goal, hyps in read_problems(indir / "searches.txt")
    ]


def round_ops(state):
    """Two passes over the short searches, in seeded order, one before and
    one after the 50.3M-model scan, then the 16.8M-model scan.  A single
    5 s window of short searches moved their median by a seventh between
    runs with the machine's load."""
    rest = [op for op in state if op[1] == "fixed"]
    scan = {op[1]: op for op in state if op[1] != "fixed"}
    return rest + [scan["scan-pia"]] + rest + [scan["scan-pa"]]


def op_id(op) -> str:
    return op[0]


def _spec(hyps, goal, max_worlds=MAX_WORLDS) -> EnumerationSpec:
    return EnumerationSpec.for_formulas(hyps + [goal], max_worlds)


def run(state, op):
    _, _, hyps, goal = op
    return countermodel_search(hyps, goal, _spec(hyps, goal))


def _roots(hyps, goal):
    return [SignedFormula(h) for h in hyps] + [SignedFormula(goal, minus=True)]


def check(state, op, witness, seed: int) -> str | None:
    pid, _, hyps, goal = op
    roots = _roots(hyps, goal)
    if witness is not None:
        if not all(globally_satisfies(witness, sf) for sf in roots):
            return f"{pid}: the witness fails a root"
        n = len(witness.worlds)
        if n > 1 and find_model(roots, _spec(hyps, goal, n - 1)) is not None:
            return f"{pid}: the {n}-world witness is not world-minimal"
        return None
    result = prove_from_roots(roots)
    if result.proved or (result.refuted and len(result.countermodel.worlds) > MAX_WORLDS):
        return None
    return f"{pid}: no witness up to {MAX_WORLDS} worlds, but the prover says {result.verdict}"


def _world_count_size(hyps, goal, n: int) -> int:
    size = search_space_size(_spec(hyps, goal, n))
    return size - search_space_size(_spec(hyps, goal, n - 1)) if n > 1 else size


def trace(state, tracer, seed: int):
    """One traced round; each search is repeated at world bounds 1..3 so the
    time of world count n is the bound-n search minus the bound-(n-1) one."""
    outputs = {}
    per_n = {n: 0.0 for n in range(1, MAX_WORLDS + 1)}
    per_path = {"plain": 0.0, "vector": 0.0}
    space = 0
    scan_seconds = witness_seconds = 0.0
    for op in state:
        pid, _, hyps, goal = op
        roots = _roots(hyps, goal)
        previous = 0.0
        with tracer.span("oracle.search", pid):
            for n in range(1, MAX_WORLDS + 1):
                with tracer.span(f"oracle.bound{n}") as span:
                    witness = find_model(roots, _spec(hyps, goal, n))
                elapsed = span[2] - span[1]
                size = _world_count_size(hyps, goal, n)
                path = "vector" if size > VECTOR_THRESHOLD and n <= 4 else "plain"
                per_n[n] += elapsed - previous
                per_path[path] += elapsed - previous
                previous = elapsed
                if witness is not None:
                    break
        outputs[pid] = witness
        if witness is None:
            space += search_space_size(_spec(hyps, goal))
            scan_seconds += previous
        else:
            witness_seconds += previous
    metrics = {f"oracle.n{n}_ms": 1e3 * per_n[n] for n in per_n}
    metrics.update({
        "oracle.plain_ms": 1e3 * per_path["plain"],
        "oracle.vector_ms": 1e3 * per_path["vector"],
        "oracle.space_models": space,
        "oracle.scan_models_per_s": space / scan_seconds,
        "oracle.witness_ms": 1e3 * witness_seconds,
    })
    return outputs, set(), metrics
