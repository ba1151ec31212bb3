"""An independent reading of two-relation satisfaction, used to check the
checker's answers: composite programs are rewritten to atomic ones with
the program schemes of the acceptance gate,

    [a;b]f = [a][b]f      [a+b]f = [a]f & [b]f      [g?]f = g -> f
    <a;b>f = <a><b>f      <a+b>f = <a>f | <b>f      <g?>f = g & f
    a* = (true? + a)^(|W|-1),

which hold plain and negated, and the result is evaluated with value4 on
to_four_model.  The rewrite is exponential as a tree (every choice copies
its body), so it is evaluated as a graph: each subformula's four values are
stored under a fresh atom, and each connective is one value4 call on a
formula whose arguments are such atoms.  value4 is compositional, so this
equals value4 of the rewritten tree."""
from __future__ import annotations

from pdl4.fourval import designated
from pdl4.semantics import Model, to_four_model, value4
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
    top,
)


class FourReading:
    def __init__(self, model: Model):
        self.four = to_four_model(model)
        self.worlds = sorted(model.worlds)
        self._fresh = 0

    def bits(self, formula) -> tuple[bool, ...]:
        """Designation of the formula at each world, in sorted world order."""
        values = self.value(formula)
        return tuple(designated(values[w]) for w in self.worlds)

    def _atom(self, values) -> PropVar:
        # Names outside the parser's syntax, so they cannot clash.  The
        # valuation dict belongs to this reading's own FourModel.
        name = f"_v{self._fresh}"
        self._fresh += 1
        for w in self.worlds:
            self.four.val[(name, w)] = values[w]
        return PropVar(name)

    def _apply(self, formula):
        return {w: value4(self.four, w, formula) for w in self.worlds}

    def value(self, f):
        if isinstance(f, (PropVar, Nominal, Bottom)):
            return self._apply(f)
        if isinstance(f, Neg):
            return self._apply(Neg(self._atom(self.value(f.body))))
        if isinstance(f, (And, Or, Implies)):
            return self._apply(type(f)(self._atom(self.value(f.left)), self._atom(self.value(f.right))))
        if isinstance(f, At):
            return self._apply(At(f.nominal, self._atom(self.value(f.body))))
        if isinstance(f, (Diamond, Box)):
            return self._modal(type(f), f.program, self.value(f.body))
        raise TypeError(f"not a formula: {f!r}")

    def _modal(self, kind, program, body):
        if isinstance(program, Atomic):
            return self._apply(kind(program, self._atom(body)))
        if isinstance(program, Seq):
            return self._modal(kind, program.first, self._modal(kind, program.second, body))
        if isinstance(program, Choice):
            join = And if kind is Box else Or
            left = self._modal(kind, program.left, body)
            right = self._modal(kind, program.right, body)
            return self._apply(join(self._atom(left), self._atom(right)))
        if isinstance(program, Test):
            condition = self._atom(self.value(program.condition))
            join = Implies if kind is Box else And
            return self._apply(join(condition, self._atom(body)))
        if isinstance(program, Star):
            step = Choice(Test(top()), program.body)
            for _ in range(len(self.worlds) - 1):
                body = self._modal(kind, step, body)
            return body
        raise TypeError(f"not a program: {program!r}")
