"""Brute-force search over small finite models, used both as a
countermodel finder and as an independent cross-check of the prover.

Enumeration is canonical: worlds are always w0..w(n-1) (so relabelling
the domain itself is never enumerated) and the component order is fixed
(world count ascending, then nomination, relations and valuations in
sorted-name order, each component counting up).  Exhaustive mode refuses
search spaces above the configured ceiling.

Exhaustive search is one bitsliced scan: bit m of a Python int stands for
one model, and the satisfaction clauses are applied with & and | across
all the models of a chunk at once.  Within a world count a model's index
is its nomination, whose digits are the only ones of radix n, followed by
a plain binary number of relation and valuation bits.  So the scan loops
over nominations in index order and, under each, over chunks of 2^c
consecutive binary parts in ascending order; in a chunk, a component bit
below bit c is the fixed pattern "bit k of m" and one at or above bit c
is constant.  The first witness is the lowest set bit of the roots' AND in
the first chunk that has one, so it is the enumeration-first model, and,
world counts being scanned in ascending order, world-minimal.  Every
witness is decoded to a Model and re-checked with the reference model
checker before it is returned.  Sharded scans would have to merge on the
lowest witness index to keep that guarantee.

Above one world the scan enumerates only the components the roots read,
a cone-of-influence reduction.  Each relation and valuation has a positive
and a negative component, and polarity flips only at Neg, so a root often
reads one of the two, or neither.  The one-world pass labels every root on
every chunk and records each (name, negated) component read; larger world
counts lay out only those, in the same order, so a pruned index is an
order-preserving embedding of the full index with the unread bits at 0.
No root's verdict depends on an unread component, so the enumeration-first
witness has each at 0 and the pruned scan meets it first.  The ceiling
still counts the raw space.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import prod
from typing import AbstractSet, Iterator, Optional, Sequence, Union

from .semantics import Model, ModelError, globally_satisfies
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

# The benchmark's traced round labels a world count above this many models
# "vector" and one below it "plain"; the search itself has one path.
VECTOR_THRESHOLD = 1 << 14

# log2 of the models per chunk of the bitsliced scan, each label an int of
# 2^17 bits (16 KiB).  One pass of the benchmark's 173 searches took 0.047-
# 0.054 s at 17 bits, as long at 16, 18 and 20 bits with larger ints, 0.06 s
# at 14 and 0.10 s at 12 (2-core VM, Python 3.11).
_CHUNK_BITS = 17


class CeilingExceeded(ValueError):
    """Exhaustive enumeration would exceed the configured ceiling."""


class OracleError(RuntimeError):
    """The bitsliced scan found a witness that the reference model checker
    rejects; indicates an oracle defect."""


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
        if self.sample_count is not None and self.sample_count < 1:
            raise ValueError("sample_count must be at least 1")

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
    """The radix of each component of a model index at n worlds, most
    significant first: nominations, then relations and valuations."""
    relations = [1 << (n * n)] * (2 * len(sig.actions))
    return [n] * len(sig.nominals) + relations + [1 << n] * (2 * len(sig.propositions))


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
# Bitsliced scan


@lru_cache(maxsize=None)
def _bit_patterns(c: int) -> tuple[int, ...]:
    """Entry k has bit m set, for m < 2^c, exactly when bit k of m is set.
    Built by doubling a period, since dividing 2^c-bit ints costs more than
    the scan itself."""
    patterns = []
    for k in range(c):
        half = 1 << k
        pattern, period = ((1 << half) - 1) << half, 2 * half
        while period < 1 << c:
            pattern |= pattern << period
            period *= 2
        patterns.append(pattern)
    return tuple(patterns)


def _layout(
    sig: Signature, n: int, components: AbstractSet[tuple[str, bool]]
) -> tuple[dict[tuple[str, bool], int], int]:
    """Where the given (name, negated) relation and valuation components
    sit in the binary part of a model index at n worlds, in the full
    layout's order (actions, then propositions, each sorted, a positive
    component above its negative one, the last lowest): the offset of each
    one's lowest bit, and the part's width."""
    parts = [(a, n * n) for a in sorted(sig.actions)]
    parts += [(p, n) for p in sorted(sig.propositions)]
    offsets: dict[tuple[str, bool], int] = {}
    width = 0
    for name, size in reversed(parts):
        for key in ((name, True), (name, False)):
            if key in components:
                offsets[key] = width
                width += size
    return offsets, width


class _Chunk:
    """Satisfaction over 2^c consecutive models at n worlds that share one
    nomination, bitsliced: bit m of an int stands for the chunk's model m.
    A (subformula, polarity) is labelled as n ints, the models in which it
    holds at each world, and a (subprogram, polarity) as an n×n matrix, the
    models in which each pair is in its positive relation or in the
    complement of its negative one.  The clauses are _Labeller's with & and
    | taken across models, each label computed once per chunk.  Each
    (name, negated) component read is added to reads."""

    def __init__(
        self, offsets: dict[tuple[str, bool], int], n: int, named: dict[str, int],
        c: int, chunk: int, reads: set[tuple[str, bool]],
    ):
        self.offsets = offsets
        self.reads = reads
        self.n = n
        self.named = named
        self.c = c
        self.chunk = chunk
        self.low = _bit_patterns(c)
        self.full = (1 << (1 << c)) - 1
        self.labels: tuple[dict[Formula, list[int]], dict[Formula, list[int]]] = ({}, {})
        self.programs: tuple[
            dict[Program, list[list[int]]], dict[Program, list[list[int]]]
        ] = ({}, {})

    def _bits(self, name: str, negated: bool, count: int) -> list[int]:
        """The models having each of the count bits of a component set."""
        self.reads.add((name, negated))
        base = self.offsets[name, negated]
        return [
            self.low[pos] if pos < self.c
            else self.full if self.chunk >> (pos - self.c) & 1 else 0
            for pos in range(base, base + count)
        ]

    def label(self, f: Formula, negated: bool = False) -> list[int]:
        """Per world, the models satisfying f, or !f when negated.  Both
        polarities are handled here, one call per formula level."""
        memo = self.labels[negated]
        out = memo.get(f)
        if out is not None:
            return out
        n, full, label = self.n, self.full, self.label
        if isinstance(f, PropVar):
            out = self._bits(f.name, negated, n)
        elif isinstance(f, Nominal):
            on, off = (0, full) if negated else (full, 0)
            out = [on if w == self.named[f.name] else off for w in range(n)]
        elif isinstance(f, Bottom):
            out = [full if negated else 0] * n
        elif isinstance(f, Neg):
            out = label(f.body, not negated)
        elif isinstance(f, (And, Or, Implies)):
            # !(f & g) is !f | !g, !(f | g) is !f & !g, !(f -> g) is ~!f & !g
            left, right = label(f.left, negated), label(f.right, negated)
            if isinstance(f, Implies):
                if negated:
                    out = [(full ^ x) & y for x, y in zip(left, right)]
                else:
                    out = [(full ^ x) | y for x, y in zip(left, right)]
            elif isinstance(f, And) != negated:
                out = [x & y for x, y in zip(left, right)]
            else:
                out = [x | y for x, y in zip(left, right)]
        elif isinstance(f, At):
            out = [label(f.body, negated)[self.named[f.nominal]]] * n
        elif isinstance(f, (Diamond, Box)):
            # <π>f: some successor satisfies f, [π]f: all do; negated, both
            # read !f over the negative complement with some and all swapped
            rows, body = self.rows(f.program, negated), label(f.body, negated)
            if isinstance(f, Diamond) != negated:
                out = [_some(row, body) for row in rows]
            else:
                missing = [full ^ x for x in body]
                out = [full ^ _some(row, missing) for row in rows]
        else:
            raise TypeError(f"not a formula: {f!r}")
        memo[f] = out
        return out

    def rows(self, program: Program, negated: bool = False) -> list[list[int]]:
        """Per pair (u, v) of worlds, the models in which the pair is in the
        program's positive relation, or in the complement of its negative
        relation when negated."""
        memo = self.programs[negated]
        out = memo.get(program)
        if out is not None:
            return out
        n, full = self.n, self.full
        if isinstance(program, Atomic):
            pairs = self._bits(program.name, negated, n * n)
            if negated:
                pairs = [full ^ x for x in pairs]
            out = [pairs[u * n:(u + 1) * n] for u in range(n)]
        elif isinstance(program, Seq):
            first, second = self.rows(program.first, negated), self.rows(program.second, negated)
            columns = list(zip(*second))
            out = [[_some(row, column) for column in columns] for row in first]
        elif isinstance(program, Choice):
            left, right = self.rows(program.left, negated), self.rows(program.right, negated)
            out = [[x | y for x, y in zip(a, b)] for a, b in zip(left, right)]
        elif isinstance(program, Star):
            # Warshall's closure, starting from the identity
            out = [list(row) for row in self.rows(program.body, negated)]
            for w in range(n):
                out[w][w] = full
            for k in range(n):
                through = out[k]
                for row in out:
                    via = row[k]
                    if via:
                        for v in range(n):
                            row[v] |= via & through[v]
        elif isinstance(program, Test):
            cond = program.condition
            if negated:
                holds = [full ^ x for x in self.label(cond, True)]
            else:
                holds = self.label(cond)
            out = [[holds[u] if u == v else 0 for v in range(n)] for u in range(n)]
        else:
            raise TypeError(f"not a program: {program!r}")
        memo[program] = out
        return out

    def holds_globally(self, sf: SignedFormula) -> int:
        """The models in which the signed formula holds globally."""
        everywhere = self.full
        for x in self.label(sf.formula):
            everywhere &= x
        return self.full ^ everywhere if sf.minus else everywhere


def _some(row: Sequence[int], column: Sequence[int]) -> int:
    """The models in which some world is in both row and column."""
    out = 0
    for x, y in zip(row, column):
        out |= x & y
    return out


def _chunks(
    roots: Sequence[SignedFormula], sig: Signature, n: int,
    components: AbstractSet[tuple[str, bool]], reads: set[tuple[str, bool]],
) -> Iterator[tuple[int, int]]:
    """For each chunk of the models at n worlds over the given components,
    in index order: the index of its first model, and the models in it
    satisfying every root.  The components read are added to reads.  At
    one world every root is labelled; above it a chunk stops at the first
    root that leaves no model."""
    offsets, width = _layout(sig, n, components)
    c = min(width, _CHUNK_BITS)
    nominals = sorted(sig.nominals)
    for naming, worlds in enumerate(product(range(n), repeat=len(nominals))):
        named = dict(zip(nominals, worlds))
        for chunk in range(1 << (width - c)):
            block = _Chunk(offsets, n, named, c, chunk, reads)
            good = block.full
            for sf in roots:
                good &= block.holds_globally(sf)
                if not good and n > 1:
                    break
            yield (naming << width) + (chunk << c), good


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
    read = full = frozenset(product(sig.actions | sig.propositions, (False, True)))
    for n in range(1, spec.max_worlds + 1):
        reads: set[tuple[str, bool]] = set()
        try:
            index = next(
                (base + (good & -good).bit_length() - 1
                 for base, good in _chunks(normalized, sig, n, read, reads) if good),
                None,
            )
        except KeyError as exc:  # the chunk's only lookups by name
            key = exc.args[0]
            name = key[0] if isinstance(key, tuple) else key
            raise ModelError(f"{name!r} is not in the signature") from None
        if index is None:
            if n == 1:
                read = frozenset(reads)
            continue
        if read != full:  # move each read component to its full position
            offsets, width = _layout(sig, n, read)
            full_offsets, full_width = _layout(sig, n, full)
            naming, binary = divmod(index, 1 << width)
            index = naming << full_width
            for key, at in offsets.items():
                size = n * n if key[0] in sig.actions else n
                index |= (binary >> at & ((1 << size) - 1)) << full_offsets[key]
        # positional decode, most significant component first
        radii = _radices(sig, n)
        combo = [index // prod(radii[k + 1:]) % radii[k] for k in range(len(radii))]
        model = _decode(sig, n, combo)
        for sf in normalized:
            if not globally_satisfies(model, sf):
                raise OracleError(
                    "bitsliced scan disagrees with the model checker; "
                    f"index {index} at {n} worlds"
                )
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
