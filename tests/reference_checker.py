"""The recursive two-relation checker that `pdl4.semantics` used before it
labelled subformulas bottom-up, kept unchanged as the reference the
labelling checker is tested against.

It evaluates a formula at one world at a time, re-walking a modal body
for every successor, so its cost grows as |W|^d in the modal depth d;
use it on small models only."""
from __future__ import annotations

from pdl4.semantics import Model, ModelError, Pair, ProgramDenotation
from pdl4.syntax import (
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
    Star,
    Test,
)


def compose(r: frozenset[Pair], s: frozenset[Pair]) -> frozenset[Pair]:
    by_source: dict[str, set[str]] = {}
    for u, v in s:
        by_source.setdefault(u, set()).add(v)
    return frozenset(
        (x, z) for x, y in r for z in by_source.get(y, ()))


def reflexive_transitive_closure(
    r: frozenset[Pair], worlds: frozenset[str]
) -> frozenset[Pair]:
    """Closure by iterated squaring to a fixpoint."""
    closure = r | frozenset((w, w) for w in worlds)
    while True:
        squared = closure | compose(closure, closure)
        if squared == closure:
            return closure
        closure = squared


class _Evaluator:
    """Satisfaction over one model with per-call memoisation of program
    denotations (star and nested tests make naive recomputation blow up)."""

    def __init__(self, model: Model):
        self.model = model
        self._memo: dict[Program, ProgramDenotation] = {}

    def denotation(self, program: Program) -> ProgramDenotation:
        hit = self._memo.get(program)
        if hit is not None:
            return hit
        result = self._interpret(program)
        self._memo[program] = result
        return result

    def _interpret(self, program: Program) -> ProgramDenotation:
        m = self.model
        if isinstance(program, Atomic):
            if program.name not in m.pos_rel:
                raise ModelError(f"unknown action {program.name!r}")
            everything = frozenset((u, v) for u in m.worlds for v in m.worlds)
            return ProgramDenotation(
                m.pos_rel[program.name], everything - m.neg_rel[program.name]
            )
        if isinstance(program, Seq):
            a = self.denotation(program.first)
            b = self.denotation(program.second)
            return ProgramDenotation(
                compose(a.pos, b.pos),
                compose(a.neg_complement, b.neg_complement),
            )
        if isinstance(program, Choice):
            a = self.denotation(program.left)
            b = self.denotation(program.right)
            return ProgramDenotation(
                a.pos | b.pos, a.neg_complement | b.neg_complement
            )
        if isinstance(program, Star):
            a = self.denotation(program.body)
            return ProgramDenotation(
                reflexive_transitive_closure(a.pos, self.model.worlds),
                reflexive_transitive_closure(a.neg_complement, self.model.worlds),
            )
        if isinstance(program, Test):
            cond = program.condition
            pos = frozenset(
                (w, w) for w in m.worlds if self.satisfies(w, cond)
            )
            neg_complement = frozenset(
                (w, w) for w in m.worlds if not self.satisfies(w, Neg(cond))
            )
            return ProgramDenotation(pos, neg_complement)
        raise TypeError(f"not a program: {program!r}")

    def successors(self, pairs: frozenset[Pair], w: str) -> list[str]:
        return [v for u, v in pairs if u == w]

    def satisfies(self, w: str, f: Formula) -> bool:
        model = self.model
        if isinstance(f, PropVar):
            if f.name not in model.pos_val:
                raise ModelError(f"unknown proposition {f.name!r}")
            return w in model.pos_val[f.name]
        if isinstance(f, Nominal):
            return w == model.named_world(f.name)
        if isinstance(f, Bottom):
            return False
        if isinstance(f, And):
            return self.satisfies(w, f.left) and self.satisfies(w, f.right)
        if isinstance(f, Or):
            return self.satisfies(w, f.left) or self.satisfies(w, f.right)
        if isinstance(f, Implies):
            return (not self.satisfies(w, f.left)) or self.satisfies(w, f.right)
        if isinstance(f, At):
            return self.satisfies(model.named_world(f.nominal), f.body)
        if isinstance(f, Diamond):
            pairs = self.denotation(f.program).pos
            return any(self.satisfies(v, f.body) for v in self.successors(pairs, w))
        if isinstance(f, Box):
            pairs = self.denotation(f.program).pos
            return all(self.satisfies(v, f.body) for v in self.successors(pairs, w))
        if isinstance(f, Neg):
            return self._satisfies_neg(w, f.body)
        raise TypeError(f"not a formula: {f!r}")

    def _satisfies_neg(self, w: str, body: Formula) -> bool:
        """Satisfaction of the negation of body, pushed one level."""
        model = self.model
        if isinstance(body, PropVar):
            if body.name not in model.neg_val:
                raise ModelError(f"unknown proposition {body.name!r}")
            return w in model.neg_val[body.name]
        if isinstance(body, Nominal):
            return w != model.named_world(body.name)
        if isinstance(body, Bottom):
            return True
        if isinstance(body, Neg):
            return self.satisfies(w, body.body)
        if isinstance(body, And):
            return self._satisfies_neg(w, body.left) or self._satisfies_neg(w, body.right)
        if isinstance(body, Or):
            return self._satisfies_neg(w, body.left) and self._satisfies_neg(w, body.right)
        if isinstance(body, Implies):
            return (not self._satisfies_neg(w, body.left)) and self._satisfies_neg(
                w, body.right
            )
        if isinstance(body, At):
            return self._satisfies_neg(model.named_world(body.nominal), body.body)
        if isinstance(body, Diamond):
            pairs = self.denotation(body.program).neg_complement
            return all(
                self._satisfies_neg(v, body.body) for v in self.successors(pairs, w)
            )
        if isinstance(body, Box):
            pairs = self.denotation(body.program).neg_complement
            return any(
                self._satisfies_neg(v, body.body) for v in self.successors(pairs, w)
            )
        raise TypeError(f"not a formula: {body!r}")


def interpret_program(model: Model, program: Program) -> ProgramDenotation:
    """Positive relation and negative-relation complement of a program."""
    return _Evaluator(model).denotation(program)


def satisfies(model: Model, world: str, formula: Formula) -> bool:
    """Local satisfaction at a world."""
    if world not in model.worlds:
        raise ModelError(f"unknown world {world!r}")
    return _Evaluator(model).satisfies(world, formula)
