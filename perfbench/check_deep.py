"""check-deep: `pdl4 check` equivalents, one per operation: parse a formula
text and run satisfies at every world of a dense model.  Formulas have
composite programs (; + * ?) and an exact modal depth of 1 to 6; models
have 4 to 8 worlds.  Beside the seeded mix, every round runs the same
fixed modal chains, whose cost grows exponentially with their depth."""
from __future__ import annotations

import random
from pathlib import Path

from pdl4.semantics import Model, interpret_program, parse_model, satisfies, serialize_model
from pdl4.syntax import (
    And,
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
    Star,
    Test,
    cneg,
    parse_formula,
    render,
)

from fourread import FourReading

EXPECTED_FAILURES: set[str] = set()

DEPTHS = range(1, 7)
WORLD_COUNTS = range(4, 9)
MODELS_PER_COUNT = 40
OPS = 4000
# Pair density of the positive relations and of the negative ones.
POS_DENSITY = 0.6
NEG_DENSITY = 0.4
# A drawn formula is redrawn when evaluating it without short-circuits
# would visit more than this many (world, subformula) pairs: a few such
# operations would otherwise decide a run's throughput alone.
VISIT_CAP = 100_000

# The fixed chains: [π]^d p and <π>^d q for each program π and depth d on
# one model whose relations hold every pair, where p holds everywhere and
# q nowhere, so that no evaluation short-circuits.  They do not depend on
# the seed and are not capped.  A round runs each chain CHAIN_PASSES times,
# so that the 36 depth-6 runs (56-92 ms each on the reference machine) are
# the slowest operations and the tail lies inside them, not at their edge
# next to the heaviest seeded formulas (up to 58 ms).
CHAIN_WORLDS = 5
CHAIN_PROGRAMS = ("a", "a;b", "a+b", "(a;b)*", "q?+a", "a;b*")
CHAIN_PASSES = 3

PROPS = ("p", "q")
NOMINALS = ("i", "j")
ACTIONS = ("a", "b")


# ---------------------------------------------------------------------------
# Generation


def random_dense_model(rng: random.Random, n: int) -> Model:
    """Each relation holds exactly its density's share of the pairs and each
    valuation half the worlds, so models of one size differ in shape only."""
    worlds = [f"w{k}" for k in range(n)]
    pairs = [(u, v) for u in worlds for v in worlds]

    def relation(density):
        return {a: frozenset(rng.sample(pairs, round(density * len(pairs)))) for a in ACTIONS}

    def valuation():
        return {p: frozenset(rng.sample(worlds, n // 2)) for p in PROPS}

    return Model(
        frozenset(worlds), relation(POS_DENSITY), relation(NEG_DENSITY),
        {i: rng.choice(worlds) for i in NOMINALS}, valuation(), valuation(),
    )


def chain_model() -> Model:
    worlds = [f"w{k}" for k in range(CHAIN_WORLDS)]
    every = frozenset((u, v) for u in worlds for v in worlds)
    return Model(
        frozenset(worlds), dict.fromkeys(ACTIONS, every), dict.fromkeys(ACTIONS, frozenset()),
        dict(zip(NOMINALS, worlds)), {"p": frozenset(worlds), "q": frozenset()},
        {"p": frozenset(), "q": frozenset(worlds)},
    )


def chains() -> list[tuple[int, str]]:
    """(depth, formula text) of every fixed chain."""
    return [
        (depth, render(parse_formula(open_ * depth + atom)))
        for program in CHAIN_PROGRAMS
        for open_, atom in ((f"[{program}]", "p"), (f"<{program}>", "q"))
        for depth in DEPTHS
    ]


def _literal(rng):
    atom = rng.choice([PropVar("p"), PropVar("q"), Nominal("i"), Nominal("j")])
    return Neg(atom) if rng.random() < 0.3 else atom


def _program(rng, depth, star_allowed=True):
    if depth <= 0:
        return Atomic(rng.choice(ACTIONS))
    kinds = ["atomic", "seq", "choice", "test"] + (["star"] if star_allowed else [])
    kind = rng.choice(kinds)
    if kind == "atomic":
        return Atomic(rng.choice(ACTIONS))
    if kind == "test":
        return Test(_literal(rng) if rng.random() < 0.7 else And(_literal(rng), _literal(rng)))
    if kind == "star":
        return Star(_program(rng, depth - 1, False))
    make = Seq if kind == "seq" else Choice
    return make(_program(rng, depth - 1, star_allowed), _program(rng, depth - 1, star_allowed))


def random_deep_formula(rng: random.Random, depth: int):
    """A formula of modal depth exactly `depth`."""
    if depth == 0:
        return _literal(rng) if rng.random() < 0.9 else Bottom()
    body = random_deep_formula(rng, depth - 1)
    if rng.random() < 0.3:
        other = random_deep_formula(rng, rng.randint(0, depth - 1))
        body = rng.choice([And, Or, Implies])(body, other)
    modal = rng.choice([Diamond, Box])(_program(rng, 2), body)
    wrap = rng.random()
    if wrap < 0.25:
        return Neg(modal)
    if wrap < 0.35:
        return At(rng.choice(NOMINALS), modal)
    if wrap < 0.45:
        return cneg(modal)
    return modal


def _relation(program, model: Model, worlds) -> set:
    """Pairs a program may relate under either polarity (tests as identity)."""
    if isinstance(program, Atomic):
        everything = {(u, v) for u in worlds for v in worlds}
        return set(model.pos_rel[program.name]) | (everything - model.neg_rel[program.name])
    if isinstance(program, Test):
        return {(w, w) for w in worlds}
    if isinstance(program, Choice):
        return _relation(program.left, model, worlds) | _relation(program.right, model, worlds)
    if isinstance(program, Seq):
        first = _relation(program.first, model, worlds)
        second = _relation(program.second, model, worlds)
        return {(u, x) for u, v in first for y, x in second if v == y}
    closure = _relation(program.body, model, worlds) | {(w, w) for w in worlds}
    while True:
        wider = closure | {(u, x) for u, v in closure for y, x in closure if v == y}
        if wider == closure:
            return closure
        closure = wider


def visit_bound(formula, model: Model) -> int:
    """(world, subformula) visits of an evaluation at every world that
    never short-circuits: an upper bound on the checker's work."""
    worlds = sorted(model.worlds)

    def visits(f) -> dict:
        if isinstance(f, (PropVar, Nominal, Bottom)):
            return dict.fromkeys(worlds, 1)
        if isinstance(f, Neg):
            body = visits(f.body)
            return {w: 1 + body[w] for w in worlds}
        if isinstance(f, (And, Or, Implies)):
            left, right = visits(f.left), visits(f.right)
            return {w: 1 + left[w] + right[w] for w in worlds}
        if isinstance(f, At):
            there = visits(f.body)[model.naming[f.nominal]]
            return dict.fromkeys(worlds, 1 + there)
        body = visits(f.body)
        out = dict.fromkeys(worlds, 1)
        for u, v in _relation(f.program, model, worlds):
            out[u] += body[v]
        return out

    return sum(visits(formula).values())


def generate(seed: int, out: Path) -> None:
    rng = random.Random(seed)
    models = [
        random_dense_model(rng, n) for n in WORLD_COUNTS for _ in range(MODELS_PER_COUNT)
    ]
    lines = []
    for k in range(OPS):
        depth = DEPTHS[k % len(DEPTHS)]
        index = k % len(models)
        while True:
            formula = random_deep_formula(rng, depth)
            if visit_bound(formula, models[index]) <= VISIT_CAP:
                break
        lines.append(f"{index}\tmix\t{depth}\t{render(formula)}\n")
    models.append(chain_model())
    lines += [f"{len(models) - 1}\tchain\t{depth}\t{text}\n" for depth, text in chains()] * CHAIN_PASSES
    rng.shuffle(lines)
    (out / "models").mkdir()
    for k, model in enumerate(models):
        (out / "models" / f"m{k:03d}.model").write_text(serialize_model(model), encoding="utf-8")
    (out / "ops.txt").write_text("".join(lines), encoding="utf-8")


# ---------------------------------------------------------------------------
# Running


def setup(indir: Path):
    paths = sorted((indir / "models").glob("m*.model"))
    texts = [p.read_text(encoding="utf-8") for p in paths]
    models = [parse_model(text) for text in texts]
    ops = []
    for k, line in enumerate((indir / "ops.txt").read_text(encoding="utf-8").splitlines()):
        index, kind, depth, text = line.split("\t")
        ops.append((f"{kind}{k:04d}", int(depth), models[int(index)], text))
    return {"texts": texts, "ops": ops}


def round_ops(state):
    return state["ops"]


def op_id(op) -> str:
    return op[0]


def run(state, op):
    _, _, model, text = op
    formula = parse_formula(text)
    return tuple(satisfies(model, w, formula) for w in sorted(model.worlds))


def check(state, op, bits, seed: int) -> str | None:
    oid, _, model, text = op
    if FourReading(model).bits(parse_formula(text)) != bits:
        return f"{oid}: the checker disagrees with the four-valued reading of {text}"
    return None


def _programs(f, found: set) -> set:
    if isinstance(f, (Diamond, Box)):
        found.add(f.program)
        _programs(f.body, found)
    elif isinstance(f, (Neg, At)):
        _programs(f.body, found)
    elif isinstance(f, (And, Or, Implies)):
        _programs(f.left, found)
        _programs(f.right, found)
    return found


def trace(state, tracer, seed: int):
    """One traced pass over the operations, with each formula's programs
    interpreted on their own before the satisfies calls.  The time by
    modal depth is taken over the fixed chains."""
    for text in state["texts"]:
        with tracer.span("semantics.load_model"):
            parse_model(text)
    outputs = {}
    by_depth: dict[int, list[float]] = {d: [] for d in DEPTHS}
    world_checks = 0
    for oid, depth, model, text in state["ops"]:
        with tracer.span("check.op", oid):
            with tracer.span("syntax.parse") as parse_span:
                formula = parse_formula(text)
            with tracer.span("semantics.denotation"):
                for program in _programs(formula, set()):
                    interpret_program(model, program)
            with tracer.span("semantics.satisfies") as sat_span:
                outputs[oid] = tuple(satisfies(model, w, formula) for w in sorted(model.worlds))
        world_checks += len(model.worlds)
        if oid.startswith("chain"):
            by_depth[depth].append(parse_span[2] - parse_span[1] + sat_span[2] - sat_span[1])
    satisfies_s = tracer.seconds("semantics.satisfies")
    metrics = {
        "syntax.parse_ms": 1e3 * tracer.seconds("syntax.parse"),
        "semantics.load_model_ms": 1e3 * tracer.seconds("semantics.load_model"),
        "semantics.denotation_ms": 1e3 * tracer.seconds("semantics.denotation"),
        "semantics.satisfies_ms": 1e3 * satisfies_s,
        "semantics.world_checks_per_s": world_checks / satisfies_s,
    }
    for depth, times in by_depth.items():
        metrics[f"semantics.depth{depth}_ms"] = 1e3 * sum(times) / len(times)
    return outputs, set(), metrics
