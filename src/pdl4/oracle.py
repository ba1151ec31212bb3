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

from .semantics import Model, globally_satisfies
from .syntax import Formula, SignedFormula, Signature

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
            from ._vector import _vector_first_match

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
