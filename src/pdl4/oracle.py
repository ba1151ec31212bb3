"""Brute-force search over small finite models, used both as a
countermodel finder and as an independent cross-check of the prover.

Enumeration is canonical: worlds are always w0..w(n-1) (so relabelling
the domain itself is never enumerated) and the component order is fixed
(world count ascending, then nomination, relations and valuations in
sorted-name order, each component counting up).  Exhaustive mode refuses
search spaces above the configured ceiling.

Large exhaustive sweeps run through a vectorised evaluator over model
indices; any candidate it finds is re-checked with the reference model
checker before being returned, and the scan order matches plain
enumeration, so both paths return the same (enumeration-first,
world-minimal) countermodel.  Sharded scans would have to merge on the
lowest candidate index to keep that guarantee.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from math import prod
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .semantics import Model, globally_satisfies
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
    SignedFormula,
    Signature,
    Star,
    Test,
)

DEFAULT_CEILING = 1 << 27

# Below this many models per world count the plain generator is used even
# in exhaustive mode; above it the vectorised scan takes over.
VECTOR_THRESHOLD = 1 << 14


class CeilingExceeded(ValueError):
    """Exhaustive enumeration would exceed the configured ceiling."""


class OracleError(RuntimeError):
    """The vectorised scan and the model checker disagree on a model;
    indicates an oracle defect."""


@dataclass(frozen=True)
class EnumerationSpec:
    """What to enumerate: a signature, a world bound, and either
    exhaustive mode (sample_count None) or seeded random sampling."""

    signature: Signature
    max_worlds: int
    sample_count: Optional[int] = None
    seed: int = 0
    ceiling: int = DEFAULT_CEILING

    def __post_init__(self) -> None:
        if self.max_worlds < 1:
            raise ValueError("max_worlds must be at least 1")

    @property
    def exhaustive(self) -> bool:
        return self.sample_count is None

    @classmethod
    def for_formulas(
        cls,
        formulas: Sequence[Union[Formula, SignedFormula]],
        max_worlds: int,
        sample_count: Optional[int] = None,
        seed: int = 0,
        ceiling: int = DEFAULT_CEILING,
    ) -> "EnumerationSpec":
        return cls(Signature.of(formulas), max_worlds, sample_count, seed, ceiling)


def _radices(sig: Signature, n: int) -> list[int]:
    radii: list[int] = []
    radii.extend(n for _ in sorted(sig.nominals))
    for _ in sorted(sig.actions):
        radii.extend((1 << (n * n), 1 << (n * n)))
    for _ in sorted(sig.propositions):
        radii.extend((1 << n, 1 << n))
    return radii


def search_space_size(spec: EnumerationSpec) -> int:
    """Raw number of models the exhaustive stream would yield."""
    return sum(
        prod(_radices(spec.signature, n)) for n in range(1, spec.max_worlds + 1)
    )


def _decode(sig: Signature, n: int, combo: Sequence[int]) -> Model:
    worlds = [f"w{k}" for k in range(n)]
    it = iter(combo)
    naming = {i: worlds[next(it)] for i in sorted(sig.nominals)}
    pos_rel: dict[str, frozenset[tuple[str, str]]] = {}
    neg_rel: dict[str, frozenset[tuple[str, str]]] = {}
    for a in sorted(sig.actions):
        masks = (next(it), next(it))
        for mask, target in zip(masks, (pos_rel, neg_rel)):
            target[a] = frozenset(
                (worlds[u], worlds[v])
                for u in range(n)
                for v in range(n)
                if mask >> (u * n + v) & 1
            )
    pos_val: dict[str, frozenset[str]] = {}
    neg_val: dict[str, frozenset[str]] = {}
    for p in sorted(sig.propositions):
        masks = (next(it), next(it))
        for mask, target in zip(masks, (pos_val, neg_val)):
            target[p] = frozenset(worlds[w] for w in range(n) if mask >> w & 1)
    return Model(frozenset(worlds), pos_rel, neg_rel, naming, pos_val, neg_val)


def _exhaustive_combos(radii: Sequence[int]) -> Iterator[tuple[int, ...]]:
    combo = [0] * len(radii)
    while True:
        yield tuple(combo)
        for k in range(len(radii) - 1, -1, -1):
            combo[k] += 1
            if combo[k] < radii[k]:
                break
            combo[k] = 0
        else:
            return


def enumerate_models(spec: EnumerationSpec) -> Iterator[Model]:
    """Stream models in canonical order (exhaustive) or as a seeded
    sample with each membership drawn independently at probability 1/2."""
    sig = spec.signature
    if spec.exhaustive:
        if search_space_size(spec) > spec.ceiling:
            raise CeilingExceeded(
                f"exhaustive space {search_space_size(spec)} exceeds ceiling {spec.ceiling}"
            )
        for n in range(1, spec.max_worlds + 1):
            for combo in _exhaustive_combos(_radices(sig, n)):
                yield _decode(sig, n, combo)
        return
    rng = random.Random(spec.seed)
    for _ in range(spec.sample_count):
        n = rng.randint(1, spec.max_worlds)
        combo: list[int] = []
        for _ in sorted(sig.nominals):
            combo.append(rng.randrange(n))
        for _ in sorted(sig.actions):
            combo.append(rng.getrandbits(n * n))
            combo.append(rng.getrandbits(n * n))
        for _ in sorted(sig.propositions):
            combo.append(rng.getrandbits(n))
            combo.append(rng.getrandbits(n))
        yield _decode(sig, n, combo)


# ---------------------------------------------------------------------------
# Vectorised satisfaction over a block of model indices


class _VectorBlock:
    """Satisfaction sets, as per-world bitmasks, for a contiguous block of
    exhaustive model indices at a fixed world count."""

    def __init__(self, sig: Signature, n: int, indices: np.ndarray, rows_table: np.ndarray):
        self.n = n
        self.full = (1 << n) - 1
        radii = _radices(sig, n)
        place = [0] * len(radii)
        acc = 1
        for k in range(len(radii) - 1, -1, -1):
            place[k] = acc
            acc *= radii[k]
        components = [
            (indices // place[k]) % radii[k] for k in range(len(radii))
        ]
        it = iter(components)
        self.nominal_world = {i: next(it).astype(np.int64) for i in sorted(sig.nominals)}
        pair_full = (1 << (n * n)) - 1
        self.pos_rows: dict[str, np.ndarray] = {}
        self.negc_rows: dict[str, np.ndarray] = {}
        for a in sorted(sig.actions):
            pos_mask = next(it)
            neg_mask = next(it)
            self.pos_rows[a] = rows_table[pos_mask]
            self.negc_rows[a] = rows_table[pair_full ^ neg_mask]
        self.pos_val: dict[str, np.ndarray] = {}
        self.neg_val: dict[str, np.ndarray] = {}
        for p in sorted(sig.propositions):
            self.pos_val[p] = next(it).astype(np.uint16)
            self.neg_val[p] = next(it).astype(np.uint16)
        self.size = len(indices)
        self._sat_cache: dict[tuple[Formula, bool], np.ndarray] = {}
        self._prog_cache: dict[tuple[Program, bool], np.ndarray] = {}

    # relation rows, shape (size, n), row w at column w

    def _identity_rows(self) -> np.ndarray:
        rows = np.empty((self.size, self.n), dtype=np.uint16)
        for w in range(self.n):
            rows[:, w] = 1 << w
        return rows

    def _compose_rows(self, r1: np.ndarray, r2: np.ndarray) -> np.ndarray:
        out = np.zeros_like(r1)
        for w in range(self.n):
            row = out[:, w]
            for u in range(self.n):
                hit = ((r1[:, w] >> u) & 1).astype(bool)
                row |= np.where(hit, r2[:, u], 0).astype(np.uint16)
        return out

    def _star_rows(self, rows: np.ndarray) -> np.ndarray:
        closure = rows | self._identity_rows()
        # squaring twice covers all paths for domains of up to four worlds
        for _ in range(max(1, (self.n - 1).bit_length())):
            closure = closure | self._compose_rows(closure, closure)
        return closure

    def prog_rows(self, program: Program, negative: bool) -> np.ndarray:
        key = (program, negative)
        hit = self._prog_cache.get(key)
        if hit is not None:
            return hit
        if isinstance(program, Atomic):
            table = self.negc_rows if negative else self.pos_rows
            out = table[program.name]
        elif isinstance(program, Seq):
            out = self._compose_rows(
                self.prog_rows(program.first, negative),
                self.prog_rows(program.second, negative),
            )
        elif isinstance(program, Choice):
            out = self.prog_rows(program.left, negative) | self.prog_rows(
                program.right, negative
            )
        elif isinstance(program, Star):
            out = self._star_rows(self.prog_rows(program.body, negative))
        elif isinstance(program, Test):
            cond = program.condition
            hold = (
                (self.full ^ self.sat(cond, True)) & self.full
                if negative
                else self.sat(cond, False)
            )
            out = np.zeros((self.size, self.n), dtype=np.uint16)
            for w in range(self.n):
                out[:, w] = ((hold >> w) & 1) << w
        else:
            raise TypeError(f"not a program: {program!r}")
        self._prog_cache[key] = out
        return out

    # satisfaction masks

    def sat(self, f: Formula, negated: bool) -> np.ndarray:
        key = (f, negated)
        hit = self._sat_cache.get(key)
        if hit is not None:
            return hit
        out = self._sat_neg(f) if negated else self._sat(f)
        self._sat_cache[key] = out
        return out

    def _at_broadcast(self, values: np.ndarray, nominal: str) -> np.ndarray:
        bit = (values >> self.nominal_world[nominal]) & 1
        return np.where(bit.astype(bool), self.full, 0).astype(np.uint16)

    def _diamond(self, rows: np.ndarray, body: np.ndarray) -> np.ndarray:
        out = np.zeros(self.size, dtype=np.uint16)
        for w in range(self.n):
            hit = (rows[:, w] & body) != 0
            out |= (hit.astype(np.uint16)) << w
        return out

    def _box(self, rows: np.ndarray, body: np.ndarray) -> np.ndarray:
        out = np.zeros(self.size, dtype=np.uint16)
        missing = (self.full ^ body) & self.full
        for w in range(self.n):
            ok = (rows[:, w] & missing) == 0
            out |= (ok.astype(np.uint16)) << w
        return out

    def _sat(self, f: Formula) -> np.ndarray:
        if isinstance(f, PropVar):
            return self.pos_val[f.name]
        if isinstance(f, Nominal):
            return (np.uint16(1) << self.nominal_world[f.name]).astype(np.uint16)
        if isinstance(f, Bottom):
            return np.zeros(self.size, dtype=np.uint16)
        if isinstance(f, And):
            return self.sat(f.left, False) & self.sat(f.right, False)
        if isinstance(f, Or):
            return self.sat(f.left, False) | self.sat(f.right, False)
        if isinstance(f, Implies):
            return ((self.full ^ self.sat(f.left, False)) | self.sat(f.right, False)) & np.uint16(self.full)
        if isinstance(f, At):
            return self._at_broadcast(self.sat(f.body, False), f.nominal)
        if isinstance(f, Diamond):
            return self._diamond(self.prog_rows(f.program, False), self.sat(f.body, False))
        if isinstance(f, Box):
            return self._box(self.prog_rows(f.program, False), self.sat(f.body, False))
        if isinstance(f, Neg):
            return self.sat(f.body, True)
        raise TypeError(f"not a formula: {f!r}")

    def _sat_neg(self, f: Formula) -> np.ndarray:
        if isinstance(f, PropVar):
            return self.neg_val[f.name]
        if isinstance(f, Nominal):
            return (np.uint16(self.full) ^ (np.uint16(1) << self.nominal_world[f.name])).astype(np.uint16)
        if isinstance(f, Bottom):
            return np.full(self.size, self.full, dtype=np.uint16)
        if isinstance(f, Neg):
            return self.sat(f.body, False)
        if isinstance(f, And):
            return self.sat(f.left, True) | self.sat(f.right, True)
        if isinstance(f, Or):
            return self.sat(f.left, True) & self.sat(f.right, True)
        if isinstance(f, Implies):
            return ((self.full ^ self.sat(f.left, True)) & self.sat(f.right, True)) & np.uint16(self.full)
        if isinstance(f, At):
            return self._at_broadcast(self.sat(f.body, True), f.nominal)
        if isinstance(f, Diamond):
            return self._box(self.prog_rows(f.program, True), self.sat(f.body, True))
        if isinstance(f, Box):
            return self._diamond(self.prog_rows(f.program, True), self.sat(f.body, True))
        raise TypeError(f"not a formula: {f!r}")

    def holds_globally(self, sf: SignedFormula) -> np.ndarray:
        everywhere = self.sat(sf.formula, False) == self.full
        return ~everywhere if sf.minus else everywhere


def _rows_table(n: int) -> np.ndarray:
    masks = np.arange(1 << (n * n), dtype=np.int64)
    table = np.empty((1 << (n * n), n), dtype=np.uint16)
    for u in range(n):
        table[:, u] = (masks >> (u * n)) & ((1 << n) - 1)
    return table


def _vector_first_match(
    roots: Sequence[SignedFormula], sig: Signature, n: int, total: int
) -> Optional[int]:
    rows_table = _rows_table(n)
    chunk = 1 << 19
    for start in range(0, total, chunk):
        indices = np.arange(start, min(start + chunk, total), dtype=np.int64)
        block = _VectorBlock(sig, n, indices, rows_table)
        good = np.ones(len(indices), dtype=bool)
        for sf in roots:
            good &= block.holds_globally(sf)
            if not good.any():
                break
        hits = np.flatnonzero(good)
        if len(hits):
            return start + int(hits[0])
    return None


# ---------------------------------------------------------------------------
# Search


def find_model(
    roots: Sequence[Union[SignedFormula, Formula]], spec: EnumerationSpec
) -> Optional[Model]:
    """First enumerated model globally satisfying every signed root
    (minus roots must fail globally), or None within the bound."""
    normalized = [
        r if isinstance(r, SignedFormula) else SignedFormula(r) for r in roots
    ]
    sig = spec.signature
    if not spec.exhaustive:
        for model in enumerate_models(spec):
            if all(globally_satisfies(model, sf) for sf in normalized):
                return model
        return None
    if search_space_size(spec) > spec.ceiling:
        raise CeilingExceeded(
            f"exhaustive space {search_space_size(spec)} exceeds ceiling {spec.ceiling}"
        )
    for n in range(1, spec.max_worlds + 1):
        radii = _radices(sig, n)
        total = prod(radii)
        if total > VECTOR_THRESHOLD and n <= 4:
            index = _vector_first_match(normalized, sig, n, total)
            if index is None:
                continue
            # positional decode, most significant component first
            combo = []
            rest = index
            for k in range(len(radii)):
                place = prod(radii[k + 1:])
                digit, rest = divmod(rest, place)
                combo.append(digit)
            model = _decode(sig, n, combo)
            for sf in normalized:
                if not globally_satisfies(model, sf):
                    raise OracleError(
                        "vectorised scan disagrees with the model checker; "
                        f"index {index} at {n} worlds"
                    )
            return model
        for combo in _exhaustive_combos(radii):
            model = _decode(sig, n, combo)
            if all(globally_satisfies(model, sf) for sf in normalized):
                return model
    return None


def countermodel_search(
    hypotheses: Sequence[Formula], goal: Formula, spec: EnumerationSpec
) -> Optional[Model]:
    """A model satisfying the hypotheses globally but not the goal, or
    None; absence only establishes consequence up to the world bound.
    In exhaustive mode the result is world-minimal."""
    roots = [SignedFormula(h) for h in hypotheses]
    roots.append(SignedFormula(goal, minus=True))
    return find_model(roots, spec)
