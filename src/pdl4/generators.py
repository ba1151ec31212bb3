"""Seeded random formulas, programs and models for the built-in selftest
and the regression suites."""
from __future__ import annotations

import random
from typing import Optional

from .semantics import Model
from .syntax import (
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
    Signature,
    Star,
    Test,
)


_BINARY = {"and": And, "or": Or, "implies": Implies, "seq": Seq, "choice": Choice}


def random_program(
    rng: random.Random,
    signature: Signature,
    depth: int,
    test_depth: int = 1,
) -> Program:
    """Random program over the signature's actions; tests draw shallow
    formulas so program size stays under control."""
    actions = sorted(signature.actions)
    if not actions:
        return Test(random_formula(rng, signature, test_depth, atomic_programs=True))
    if depth <= 0:
        return Atomic(rng.choice(actions))
    kind = rng.choice(("atomic", "seq", "choice", "star", "test"))
    if kind == "atomic":
        return Atomic(rng.choice(actions))

    def sub() -> Program:
        return random_program(rng, signature, depth - 1, test_depth)

    if kind in _BINARY:
        return _BINARY[kind](sub(), sub())
    if kind == "star":
        return Star(sub())
    return Test(random_formula(rng, signature, test_depth, atomic_programs=True))


def random_formula(
    rng: random.Random,
    signature: Signature,
    depth: int,
    atomic_programs: bool = False,
    program_depth: int = 2,
) -> Formula:
    """Random formula of bounded depth.  With atomic_programs the result
    stays in the star-free hybrid fragment the four-valued valuation is
    defined on."""
    props = sorted(signature.propositions)
    noms = sorted(signature.nominals)
    acts = sorted(signature.actions)
    atoms: list[str] = []
    if props:
        atoms.append("prop")
    if noms:
        atoms.append("nominal")
    atoms.append("bottom")
    if depth <= 0:
        kind = rng.choice(atoms if len(atoms) == 1 else atoms + ["prop"] * (3 if props else 0))
        if kind == "prop":
            return PropVar(rng.choice(props))
        if kind == "nominal":
            return Nominal(rng.choice(noms))
        return Bottom()
    kinds = ["neg", "and", "or", "implies", "atom"]
    if noms:
        kinds.append("at")
    if acts:
        kinds.extend(("diamond", "box"))
    kind = rng.choice(kinds)
    if kind == "atom":
        return random_formula(rng, signature, 0, atomic_programs, program_depth)

    def sub() -> Formula:
        return random_formula(rng, signature, depth - 1, atomic_programs, program_depth)

    if kind == "neg":
        return Neg(sub())
    if kind in _BINARY:
        return _BINARY[kind](sub(), sub())
    if kind == "at":
        return At(rng.choice(noms), sub())
    if atomic_programs:
        program = Atomic(rng.choice(acts))
    else:
        program = random_program(rng, signature, program_depth)
    return (Diamond if kind == "diamond" else Box)(program, sub())


def random_model(
    rng: random.Random,
    signature: Signature,
    max_worlds: int,
    n_worlds: Optional[int] = None,
) -> Model:
    """Random model: each relation pair and valuation membership is drawn
    independently at probability 1/2, nominals uniformly."""
    n = n_worlds if n_worlds is not None else rng.randint(1, max_worlds)
    worlds = [f"w{k}" for k in range(n)]
    pairs = [(u, v) for u in worlds for v in worlds]
    pos_rel = {
        a: frozenset(pq for pq in pairs if rng.random() < 0.5)
        for a in sorted(signature.actions)
    }
    neg_rel = {
        a: frozenset(pq for pq in pairs if rng.random() < 0.5)
        for a in sorted(signature.actions)
    }
    naming = {i: rng.choice(worlds) for i in sorted(signature.nominals)}
    pos_val = {
        p: frozenset(w for w in worlds if rng.random() < 0.5)
        for p in sorted(signature.propositions)
    }
    neg_val = {
        p: frozenset(w for w in worlds if rng.random() < 0.5)
        for p in sorted(signature.propositions)
    }
    return Model(frozenset(worlds), pos_rel, neg_rel, naming, pos_val, neg_val)
