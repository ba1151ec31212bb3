"""Finite two-relation models, composite-program interpretation, the
satisfaction relation, the equivalent four-valued model presentation, and
diagram extraction.

A model carries, per atomic action, separate evidence-of-presence and
evidence-of-absence relations, and per proposition separate positive and
negative valuations.  Positive modal formulas are read over the positive
relation; negated modal formulas are read over the *complement* of the
negative relation, which is only effective on a finite domain, so all
relations here are explicit pair sets.

The two-relation checker labels: a formula denotes a set of worlds, held
as a bitmask over the worlds in sorted order, and each program a
successor mask per world for its positive relation and for the
complement of its negative relation.  Each (subformula, polarity) and
each (subprogram, polarity) is labelled once, bottom-up, from the labels
of its parts, so checking a formula f costs O(|f|·|W|²) bit operations
whatever its modal depth.  Every atom of the formula is read, so an atom
outside the model's signature is a ModelError even where a short-circuit
would never reach it.

Models are immutable after construction (a model converts each relation
and valuation to bitmasks when the checker first reads it, and keeps the
result); satisfaction and interpretation are pure and safe for concurrent
evaluation (formula and program labels are per-call).
"""
from __future__ import annotations

import re
from typing import Iterable, Mapping, Union

from .fourval import FourValue, designated, imp4, join_t, meet_t, neg4
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
    _record,
)

Pair = tuple[str, str]


class ModelError(ValueError):
    """Malformed model, or a formula outside the model's signature."""


class CompositeProgramError(ModelError):
    """Raised by the four-valued valuation when it meets a composite
    program; callers must use the two-relation checker for those."""


# ---------------------------------------------------------------------------
# Models


def _freeze_rel(rel: Mapping[str, Iterable[Pair]]) -> dict[str, frozenset[Pair]]:
    return {name: frozenset(pairs) for name, pairs in rel.items()}


def _freeze_val(val: Mapping[str, Iterable[str]]) -> dict[str, frozenset[str]]:
    return {name: frozenset(worlds) for name, worlds in val.items()}


@_record
class Model:
    """Finite model with positive/negative relations and valuations and a
    total nomination map.

    The proposition and action signature is given by the valuation and
    relation map keys; an action or proposition with no evidence at all
    still needs its (empty) entry to be in signature.
    """

    worlds: frozenset[str]
    pos_rel: Mapping[str, frozenset[Pair]]
    neg_rel: Mapping[str, frozenset[Pair]]
    naming: Mapping[str, str]
    pos_val: Mapping[str, frozenset[str]]
    neg_val: Mapping[str, frozenset[str]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "worlds", frozenset(self.worlds))
        object.__setattr__(self, "pos_rel", _freeze_rel(self.pos_rel))
        object.__setattr__(self, "neg_rel", _freeze_rel(self.neg_rel))
        object.__setattr__(self, "naming", dict(self.naming))
        object.__setattr__(self, "pos_val", _freeze_val(self.pos_val))
        object.__setattr__(self, "neg_val", _freeze_val(self.neg_val))
        if not self.worlds:
            raise ModelError("the domain must be nonempty")
        if set(self.pos_rel) != set(self.neg_rel):
            raise ModelError("positive and negative relations must cover the same actions")
        if set(self.pos_val) != set(self.neg_val):
            raise ModelError("positive and negative valuations must cover the same propositions")
        for rel in (self.pos_rel, self.neg_rel):
            for name, pairs in rel.items():
                for u, v in pairs:
                    if u not in self.worlds or v not in self.worlds:
                        raise ModelError(f"relation {name} mentions unknown world")
        for val in (self.pos_val, self.neg_val):
            for name, members in val.items():
                if not members <= self.worlds:
                    raise ModelError(f"valuation of {name} mentions unknown world")
        for nominal, world in self.naming.items():
            if world not in self.worlds:
                raise ModelError(f"nominal {nominal} names unknown world {world}")
        sig = Signature(
            frozenset(self.pos_val), frozenset(self.naming), frozenset(self.pos_rel)
        )
        object.__setattr__(self, "_signature", sig)
        object.__setattr__(self, "_bits", _Bits(self))

    @property
    def signature(self) -> Signature:
        return self._signature  # type: ignore[attr-defined]

    def named_world(self, nominal: str) -> str:
        try:
            return self.naming[nominal]
        except KeyError:
            raise ModelError(f"unknown nominal {nominal!r}") from None

    def is_named(self) -> bool:
        """Whether every world is named by at least one nominal."""
        return set(self.naming.values()) == set(self.worlds)


class _Bits:
    """A model as bitmasks: world k of the sorted worlds is bit k, a
    valuation is the mask of its worlds, and a relation is a tuple of
    successor masks, row k for world k.  Each relation and valuation is
    converted when first read and kept, since a model never changes; a
    check that stops early converts only what it read."""

    # every model makes one: slots keep it small, and it refers to the
    # model's maps, not to the model, which would make a reference cycle
    __slots__ = (
        "worlds", "index", "full", "_rel", "_val", "_relations", "_valuations"
    )

    def __init__(self, model: Model):
        self.worlds = tuple(sorted(model.worlds))
        self.index = {w: k for k, w in enumerate(self.worlds)}
        self.full = (1 << len(self.worlds)) - 1
        self._rel = model.pos_rel, model.neg_rel
        self._val = model.pos_val, model.neg_val
        self._relations: dict[tuple[str, bool], tuple[int, ...]] = {}
        self._valuations: dict[tuple[str, bool], int] = {}

    def relation(self, action: str, negated: bool) -> tuple[int, ...]:
        """Successor masks of the action's positive relation, or of the
        complement of its negative relation when negated."""
        key = (action, negated)
        rows = self._relations.get(key)
        if rows is None:
            rel = self._rel[negated]
            if action not in rel:
                raise ModelError(f"unknown action {action!r}")
            out = [0] * len(self.worlds)
            for u, v in rel[action]:
                out[self.index[u]] |= 1 << self.index[v]
            rows = tuple(self.full ^ row for row in out) if negated else tuple(out)
            self._relations[key] = rows
        return rows

    def valuation(self, prop: str, negated: bool) -> int:
        """Worlds in the proposition's positive valuation, or in its
        negative one when negated."""
        key = (prop, negated)
        mask = self._valuations.get(key)
        if mask is None:
            val = self._val[negated]
            if prop not in val:
                raise ModelError(f"unknown proposition {prop!r}")
            mask = 0
            for w in val[prop]:
                mask |= 1 << self.index[w]
            self._valuations[key] = mask
        return mask

    def worlds_of(self, mask: int) -> frozenset[str]:
        return frozenset(w for k, w in enumerate(self.worlds) if mask >> k & 1)

    def pairs_of(self, rows: tuple[int, ...]) -> frozenset[Pair]:
        return frozenset(
            (u, v) for u, row in zip(self.worlds, rows) for v in self.worlds_of(row)
        )


@_record
class ProgramDenotation:
    """Interpretation of a program: the positive relation and the
    *complement* of the negative relation, matching how negated modal
    formulas are evaluated."""

    pos: frozenset[Pair]
    neg_complement: frozenset[Pair]


@_record
class FourModel:
    """The same information as a Model, presented as four-valued relation
    and valuation functions.  The valuation is total on
    (propositions + nominals) x worlds and assigns each nominal t at
    exactly one world and f elsewhere."""

    worlds: frozenset[str]
    rel: Mapping[str, Mapping[Pair, FourValue]]
    val: Mapping[tuple[str, str], FourValue]
    nominals: frozenset[str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "worlds", frozenset(self.worlds))
        object.__setattr__(self, "rel", {a: dict(m) for a, m in self.rel.items()})
        object.__setattr__(self, "val", dict(self.val))
        object.__setattr__(self, "nominals", frozenset(self.nominals))
        if not self.worlds:
            raise ModelError("the domain must be nonempty")
        for action, table in self.rel.items():
            if set(table) != {(u, v) for u in self.worlds for v in self.worlds}:
                raise ModelError(f"relation for {action} must be total on world pairs")
        atoms = {name for name, _ in self.val}
        for name in atoms:
            for w in self.worlds:
                if (name, w) not in self.val:
                    raise ModelError(f"valuation must be total; missing ({name}, {w})")
        for i in self.nominals:
            marks = [w for w in self.worlds if self.val.get((i, w)) is FourValue.T]
            if len(marks) != 1:
                raise ModelError(f"nominal {i} must be t at exactly one world")
            for w in self.worlds:
                if w not in marks and self.val[(i, w)] is not FourValue.F:
                    raise ModelError(f"nominal {i} must be f away from its world")

    def named_world(self, nominal: str) -> str:
        for w in self.worlds:
            if self.val.get((nominal, w)) is FourValue.T:
                return w
        raise ModelError(f"unknown nominal {nominal!r}")


# ---------------------------------------------------------------------------
# Two-relation satisfaction


class _Labeller:
    """Satisfaction over one model by labelling: the mask of the worlds
    satisfying each (subformula, polarity), and the successor masks of each
    (subprogram, polarity), each computed once from the labels of its parts
    and kept for the labeller's lifetime only (the model itself keeps the
    masks of its propositions and atomic actions)."""

    def __init__(self, model: Model):
        self.model = model
        self.bits: _Bits = model._bits  # type: ignore[attr-defined]
        # each memo holds the positive side, then the negated one
        self.labels: tuple[dict[Formula, int], dict[Formula, int]] = ({}, {})
        self.programs: tuple[
            dict[Program, tuple[int, ...]], dict[Program, tuple[int, ...]]
        ] = ({}, {})

    def label(self, f: Formula, negated: bool = False) -> int:
        """Worlds satisfying f, or its negation !f when negated.  Both
        polarities are handled here, one call per formula level, so any
        formula the parser accepts stays within the recursion limit."""
        bits = self.bits
        if isinstance(f, PropVar):
            # the model keeps these labels itself
            return bits.valuation(f.name, negated)
        memo = self.labels[negated]
        mask = memo.get(f)
        if mask is not None:
            return mask
        label = self.label
        if isinstance(f, Nominal):
            mask = 1 << bits.index[self.model.named_world(f.name)]
            if negated:
                mask ^= bits.full
        elif isinstance(f, Bottom):
            mask = bits.full if negated else 0
        elif isinstance(f, Neg):
            mask = label(f.body, not negated)
        elif isinstance(f, (And, Or, Implies)):
            # !(f & g) is !f | !g, !(f | g) is !f & !g, !(f -> g) is ~!f & !g
            left, right = label(f.left, negated), label(f.right, negated)
            if isinstance(f, Implies):
                mask = (bits.full ^ left) & right if negated else (bits.full ^ left) | right
            elif isinstance(f, And) != negated:
                mask = left & right
            else:
                mask = left | right
        elif isinstance(f, At):
            named = bits.index[self.model.named_world(f.nominal)]
            mask = bits.full if label(f.body, negated) >> named & 1 else 0
        elif isinstance(f, (Diamond, Box)):
            # <π>f: some successor satisfies f, [π]f: all do; negated, both
            # read !f over the negative complement with some and all swapped
            rows, body = self.rows(f.program, negated), label(f.body, negated)
            if isinstance(f, Diamond) != negated:
                mask = sum(1 << w for w, row in enumerate(rows) if row & body)
            else:
                missing = bits.full ^ body
                mask = sum(1 << w for w, row in enumerate(rows) if not row & missing)
        else:
            raise TypeError(f"not a formula: {f!r}")
        memo[f] = mask
        return mask

    def rows(self, program: Program, negated: bool = False) -> tuple[int, ...]:
        """Successor masks of the program's positive relation, or of the
        complement of its negative relation when negated."""
        memo = self.programs[negated]
        rows = memo.get(program)
        if rows is not None:
            return rows
        bits = self.bits
        if isinstance(program, Atomic):
            rows = bits.relation(program.name, negated)
        elif isinstance(program, Seq):
            second = self.rows(program.second, negated)
            rows = tuple(_image(second, row) for row in self.rows(program.first, negated))
        elif isinstance(program, Choice):
            left, right = self.rows(program.left, negated), self.rows(program.right, negated)
            rows = tuple(x | y for x, y in zip(left, right))
        elif isinstance(program, Star):
            # Warshall's closure, starting from the identity
            closure = [row | (1 << w) for w, row in enumerate(self.rows(program.body, negated))]
            for k, through in enumerate(closure):
                for w, row in enumerate(closure):
                    if row >> k & 1:
                        closure[w] = row | through
            rows = tuple(closure)
        elif isinstance(program, Test):
            cond = program.condition
            holds = (bits.full ^ self.label(cond, True)) if negated else self.label(cond)
            rows = tuple(holds & (1 << w) for w in range(len(bits.worlds)))
        else:
            raise TypeError(f"not a program: {program!r}")
        memo[program] = rows
        return rows


def _image(rows: tuple[int, ...], mask: int) -> int:
    """Successors, under rows, of the worlds in mask."""
    out = 0
    for w, row in enumerate(rows):
        if mask >> w & 1:
            out |= row
    return out


def interpret_program(model: Model, program: Program) -> ProgramDenotation:
    """Positive relation and negative-relation complement of a program."""
    ev = _Labeller(model)
    return ProgramDenotation(
        ev.bits.pairs_of(ev.rows(program)), ev.bits.pairs_of(ev.rows(program, True))
    )


def satisfying_worlds(model: Model, formula: Formula) -> frozenset[str]:
    """The worlds at which the formula holds."""
    return model._bits.worlds_of(_Labeller(model).label(formula))


def satisfies(model: Model, world: str, formula: Formula) -> bool:
    """Local satisfaction at a world."""
    if world not in model.worlds:
        raise ModelError(f"unknown world {world!r}")
    return bool(_Labeller(model).label(formula) >> model._bits.index[world] & 1)


def globally_satisfies(
    model: Model, sf: Union[SignedFormula, Formula]
) -> bool:
    """Global satisfaction: a plain formula must hold at every world; a
    minus formula asserts that the body fails at some world."""
    if isinstance(sf, Formula):
        sf = SignedFormula(sf)
    holds_everywhere = _Labeller(model).label(sf.formula) == model._bits.full
    return not holds_everywhere if sf.minus else holds_everywhere


# ---------------------------------------------------------------------------
# Four-valued satisfaction


def value4(fm: FourModel, world: str, f: Formula) -> FourValue:
    """Four-valued value of a formula whose modal operators are applied to
    atomic programs only."""
    if world not in fm.worlds:
        raise ModelError(f"unknown world {world!r}")
    return _value4(fm, world, f)


def _value4(fm: FourModel, w: str, f: Formula) -> FourValue:
    if isinstance(f, (PropVar, Nominal)):
        try:
            return fm.val[(f.name, w)]
        except KeyError:
            raise ModelError(f"unknown atom {f.name!r}") from None
    if isinstance(f, Bottom):
        return FourValue.F
    if isinstance(f, Neg):
        return neg4(_value4(fm, w, f.body))
    if isinstance(f, And):
        return meet_t(_value4(fm, w, f.left), _value4(fm, w, f.right))
    if isinstance(f, Or):
        return join_t(_value4(fm, w, f.left), _value4(fm, w, f.right))
    if isinstance(f, Implies):
        return imp4(_value4(fm, w, f.left), _value4(fm, w, f.right))
    if isinstance(f, At):
        return _value4(fm, fm.named_world(f.nominal), f.body)
    if isinstance(f, (Diamond, Box)):
        prog = f.program
        if not isinstance(prog, Atomic):
            raise CompositeProgramError(
                "four-valued evaluation is defined for atomic programs only; "
                "use the two-relation checker for composite programs"
            )
        if prog.name not in fm.rel:
            raise ModelError(f"unknown action {prog.name!r}")
        table = fm.rel[prog.name]
        if isinstance(f, Diamond):
            out = FourValue.F
            for v in fm.worlds:
                out = join_t(out, meet_t(table[(w, v)], _value4(fm, v, f.body)))
            return out
        out = FourValue.T
        for v in fm.worlds:
            out = meet_t(out, imp4(table[(w, v)], _value4(fm, v, f.body)))
        return out
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Conversions between the two presentations


# The four-valued reading of (positive evidence, negative evidence).
_READING = {
    (True, True): FourValue.B,
    (True, False): FourValue.T,
    (False, True): FourValue.F,
    (False, False): FourValue.N,
}


def to_four_model(model: Model) -> FourModel:
    """Four-valued presentation: membership in both relations (or both
    valuations) reads as b, positive only as t, negative only as f,
    neither as n; nominals are t exactly at their named world."""
    rel: dict[str, dict[Pair, FourValue]] = {}
    for action in model.pos_rel:
        pos, neg = model.pos_rel[action], model.neg_rel[action]
        rel[action] = {
            (u, v): _READING[(u, v) in pos, (u, v) in neg]
            for u in model.worlds
            for v in model.worlds
        }
    val: dict[tuple[str, str], FourValue] = {}
    for p in model.pos_val:
        for w in model.worlds:
            val[(p, w)] = _READING[w in model.pos_val[p], w in model.neg_val[p]]
    for i, named in model.naming.items():
        for w in model.worlds:
            val[(i, w)] = FourValue.T if w == named else FourValue.F
    return FourModel(model.worlds, rel, val, frozenset(model.naming))


def from_four_model(fm: FourModel) -> Model:
    """Inverse presentation change; t/b map into the positive side and
    f/b into the negative side."""
    pos_rel: dict[str, frozenset[Pair]] = {}
    neg_rel: dict[str, frozenset[Pair]] = {}
    for action, table in fm.rel.items():
        pos_rel[action] = frozenset(pair for pair, v in table.items() if designated(v))
        neg_rel[action] = frozenset(pair for pair, v in table.items() if designated(neg4(v)))
    props = {name for name, _ in fm.val} - fm.nominals
    pos_val = {p: frozenset(w for w in fm.worlds if designated(fm.val[(p, w)])) for p in props}
    neg_val = {p: frozenset(w for w in fm.worlds if designated(neg4(fm.val[(p, w)]))) for p in props}
    naming = {i: fm.named_world(i) for i in fm.nominals}
    return Model(fm.worlds, pos_rel, neg_rel, naming, pos_val, neg_val)


# ---------------------------------------------------------------------------
# Diagram


def diagram(model: Model) -> frozenset[Formula]:
    """The set of irreducible statements the model globally satisfies:
    local properties @'i p and @'i !p, transitions @'i <a>'j, absent
    transitions @'i !<a>'j, and equalities @'i 'j.

    Defined for named models only (every world carries a nominal)."""
    if not model.is_named():
        unnamed = sorted(set(model.worlds) - set(model.naming.values()))
        raise ModelError(f"unnamed worlds present: {', '.join(unnamed)}")
    ev = _Labeller(model)
    nominals = sorted(model.naming)
    candidates: list[Formula] = []
    for i in nominals:
        for p in sorted(model.pos_val):
            candidates.append(At(i, PropVar(p)))
            candidates.append(At(i, Neg(PropVar(p))))
        for a in sorted(model.pos_rel):
            for j in nominals:
                candidates.append(At(i, Diamond(Atomic(a), Nominal(j))))
                candidates.append(At(i, Neg(Diamond(Atomic(a), Nominal(j)))))
        for j in nominals:
            candidates.append(At(i, Nominal(j)))
    # @-statements are world independent: each labels every world or none.
    return frozenset(f for f in candidates if ev.label(f))


# ---------------------------------------------------------------------------
# Model file format

# Line-oriented text:  `worlds: w1 w2`, `name 'i = w1`,
# `action a pos: (w1,w2) (w2,w1)`, `action a neg: (w1,w2)`,
# `prop p pos: w1`, `prop p neg:`, `#` comments.  Missing pos/neg lines
# mean empty sets.

_PAIR_RE = re.compile(r"\(\s*([A-Za-z0-9_]+)\s*,\s*([A-Za-z0-9_]+)\s*\)")


def _parse_pairs(text: str, lineno: int) -> list[Pair]:
    pairs = []
    rest = text.strip()
    pos = 0
    while pos < len(rest):
        if rest[pos].isspace():
            pos += 1
            continue
        m = _PAIR_RE.match(rest, pos)
        if not m:
            raise ModelError(f"line {lineno}: malformed pair list {rest[pos:]!r}")
        pairs.append((m.group(1), m.group(2)))
        pos = m.end()
    return pairs


def parse_model(text: str) -> Model:
    """Parse the line-oriented model format."""
    worlds: list[str] = []
    naming: dict[str, str] = {}
    pos_rel: dict[str, set[Pair]] = {}
    neg_rel: dict[str, set[Pair]] = {}
    pos_val: dict[str, set[str]] = {}
    neg_val: dict[str, set[str]] = {}
    seen_worlds = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("worlds:"):
            worlds.extend(line[len("worlds:"):].split())
            seen_worlds = True
        elif line.startswith("name "):
            body = line[len("name "):]
            if "=" not in body:
                raise ModelError(f"line {lineno}: expected name 'i = w")
            nominal, world = (part.strip() for part in body.split("=", 1))
            if not nominal.startswith("'"):
                raise ModelError(f"line {lineno}: nominals are written with a leading '")
            naming[nominal[1:]] = world
        elif line.startswith(("action ", "prop ")):
            kind, body = line.split(" ", 1)
            head, colon, rest = body.partition(":")
            parts = head.split()
            if not colon or len(parts) != 2 or parts[1] not in ("pos", "neg"):
                raise ModelError(f"line {lineno}: expected {kind} {kind[0]} pos:/neg:")
            name, side = parts
            if kind == "action":
                pos, neg, members = pos_rel, neg_rel, _parse_pairs(rest, lineno)
            else:
                pos, neg, members = pos_val, neg_val, rest.split()
            pos.setdefault(name, set())
            neg.setdefault(name, set())
            (pos if side == "pos" else neg)[name].update(members)
        else:
            raise ModelError(f"line {lineno}: unrecognised directive {line!r}")
    if not seen_worlds:
        raise ModelError("missing worlds: line")
    return Model(
        frozenset(worlds),
        {a: frozenset(v) for a, v in pos_rel.items()},
        {a: frozenset(v) for a, v in neg_rel.items()},
        naming,
        {p: frozenset(v) for p, v in pos_val.items()},
        {p: frozenset(v) for p, v in neg_val.items()},
    )


def load_model(path: str) -> Model:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_model(handle.read())


def serialize_model(model: Model) -> str:
    """Canonical text form; serialising a parsed model is stable."""
    lines = ["worlds: " + " ".join(sorted(model.worlds))]
    for nominal in sorted(model.naming):
        lines.append(f"name '{nominal} = {model.naming[nominal]}")
    for action in sorted(model.pos_rel):
        for side, rel in (("pos", model.pos_rel), ("neg", model.neg_rel)):
            pairs = " ".join(f"({u},{v})" for u, v in sorted(rel[action]))
            lines.append(f"action {action} {side}:" + (" " + pairs if pairs else ""))
    for prop in sorted(model.pos_val):
        for side, val in (("pos", model.pos_val), ("neg", model.neg_val)):
            members = " ".join(sorted(val[prop]))
            lines.append(f"prop {prop} {side}:" + (" " + members if members else ""))
    return "\n".join(lines) + "\n"
