"""Abstract syntax, concrete parser and printer for four-valued dynamic
hybrid formulas, plus the Fischer-Ladner closure.

Formulas and programs are immutable trees; every value in this module is
safe to share between threads, and parsing is reentrant.

Concrete grammar (ASCII):

    formula  :=  implic
    implic   :=  disj ('->' implic)?             right associative
    disj     :=  conj ('|' conj)*
    conj     :=  unary ('&' unary)*
    unary    :=  '!' unary | '~' unary | '@' NOMINAL unary
              |  '<' program '>' unary | '[' program ']' unary | atom
    atom     :=  'false' | 'true' | IDENT | NOMINAL | '(' formula ')'

    program  :=  choice
    choice   :=  seq ('+' seq)*
    seq      :=  postfix (';' postfix)*
    postfix  :=  primary '*'*
    primary  :=  formula '?' | IDENT | '(' program ')'

Identifiers are ``[a-z][a-z0-9_]*``; nominals carry a leading apostrophe
(``'i``) so their namespace is lexically disjoint.  ``~f`` abbreviates
``f -> false`` and ``true`` abbreviates ``~false``; both are expanded at
parse time and re-sugared by the printer.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, fields
from typing import Iterable, Iterator, NamedTuple, Optional, Union


# ---------------------------------------------------------------------------
# AST


class _Node:
    """Shared behaviour of syntax nodes.

    Each node computes two values once, at construction, from its
    children's cached ones: its structural hash, equal to the hash the
    dataclass would generate (the hash of the tuple of its fields), and
    ``nominals``, the nominal names occurring in it (at atom or @
    position) in leftmost-first order without repeats.  Hashing a node and
    listing its nominals therefore cost O(1) at any depth.  Equality stays
    the dataclass's structural comparison."""

    _nominal_field: Optional[str] = None  # the field holding a nominal name
    nominals: tuple[str, ...]

    def __post_init__(self) -> None:
        # The frozen dataclass __init__ has set exactly the fields, in
        # declaration order; the caches go into the same instance dict.
        state = self.__dict__
        values = tuple(state.values())
        found: tuple[str, ...] = ()
        if self._nominal_field is not None:
            found = (state[self._nominal_field],)
        for value in values:
            if isinstance(value, _Node) and value.nominals:
                more = value.nominals
                found = tuple(dict.fromkeys(found + more)) if found else more
        state["_hash"] = hash(values)
        state["nominals"] = found

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild from the fields: a cached string hash is only valid in
        # the process that computed it.
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


def _node(cls):
    """Declare a syntax node: a frozen dataclass with the cached values."""
    cls = dataclass(frozen=True)(cls)
    cls.__hash__ = _Node.__hash__  # the dataclass installs a recursive one
    return cls


@_node
class Formula(_Node):
    """Base class for formula nodes."""

    def __str__(self) -> str:
        return render(self)


@_node
class Program(_Node):
    """Base class for program nodes."""

    def __str__(self) -> str:
        return render_program(self)


@_node
class PropVar(Formula):
    name: str


@_node
class Nominal(Formula):
    name: str

    _nominal_field = "name"


@_node
class Bottom(Formula):
    pass


@_node
class Neg(Formula):
    """Paraconsistent negation.  Classical negation is the derived form
    ``Implies(f, Bottom())`` and never a distinct node."""

    body: Formula


@_node
class And(Formula):
    left: Formula
    right: Formula


@_node
class Or(Formula):
    left: Formula
    right: Formula


@_node
class Implies(Formula):
    left: Formula
    right: Formula


@_node
class At(Formula):
    nominal: str
    body: Formula

    _nominal_field = "nominal"


@_node
class Diamond(Formula):
    program: Program
    body: Formula


@_node
class Box(Formula):
    program: Program
    body: Formula


@_node
class Atomic(Program):
    name: str


@_node
class Seq(Program):
    first: Program
    second: Program


@_node
class Choice(Program):
    left: Program
    right: Program


@_node
class Star(Program):
    body: Program


@_node
class Test(Program):
    condition: Formula

    __test__ = False  # keep pytest from collecting the AST node


@_node
class SignedFormula(_Node):
    """A formula or its minus form.  ``minus`` applies at top level only;
    a minus-marked formula asserts global *failure* of the body."""

    formula: Formula
    minus: bool = False

    def __str__(self) -> str:
        if self.minus:
            return f"({render(self.formula)})-"
        return render(self.formula)


def cneg(f: Formula) -> Formula:
    """Classical negation ~f, the derived form f -> false."""
    return Implies(f, Bottom())


def top() -> Formula:
    """The derived constant true, i.e. ~false."""
    return Implies(Bottom(), Bottom())


def iff(f: Formula, g: Formula) -> Formula:
    """Biconditional (f -> g) & (g -> f)."""
    return And(Implies(f, g), Implies(g, f))


# ---------------------------------------------------------------------------
# Signatures and name collection


@dataclass(frozen=True)
class Signature:
    """The vocabulary of a formula set or model: three pairwise disjoint
    name sets."""

    propositions: frozenset[str] = frozenset()
    nominals: frozenset[str] = frozenset()
    actions: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        clashes = (
            (self.propositions & self.nominals)
            | (self.propositions & self.actions)
            | (self.nominals & self.actions)
        )
        if clashes:
            raise ValueError(
                "signature namespaces must be disjoint; shared names: "
                + ", ".join(sorted(clashes))
            )

    def union(self, other: "Signature") -> "Signature":
        return Signature(
            self.propositions | other.propositions,
            self.nominals | other.nominals,
            self.actions | other.actions,
        )

    @classmethod
    def of(cls, items: Iterable[Union[Formula, Program, SignedFormula]]) -> "Signature":
        items = list(items)
        props, acts = _atoms(items)
        noms = {name for item in items for name in item.nominals}
        return cls(frozenset(props), frozenset(noms), frozenset(acts))


Syntax = Union[Formula, Program, SignedFormula]


def _children(x: Syntax) -> Iterator[Syntax]:
    if isinstance(x, SignedFormula):
        yield x.formula
    elif isinstance(x, Neg):
        yield x.body
    elif isinstance(x, (And, Or, Implies)):
        yield x.left
        yield x.right
    elif isinstance(x, At):
        yield x.body
    elif isinstance(x, (Diamond, Box)):
        yield x.program
        yield x.body
    elif isinstance(x, Seq):
        yield x.first
        yield x.second
    elif isinstance(x, Choice):
        yield x.left
        yield x.right
    elif isinstance(x, Star):
        yield x.body
    elif isinstance(x, Test):
        yield x.condition


def nominals_of(x: Syntax) -> frozenset[str]:
    """All nominal names occurring in x, at either @ or atom position."""
    return frozenset(x.nominals)


def actions_of(x: Syntax) -> frozenset[str]:
    """All atomic action names occurring in x."""
    return frozenset(_atoms([x])[1])


def propositions_of(x: Syntax) -> frozenset[str]:
    """All propositional variable names occurring in x."""
    return frozenset(_atoms([x])[0])


def _atoms(items: Iterable[Syntax]) -> tuple[set[str], set[str]]:
    """The proposition and action names occurring in items, found in one
    walk that visits each distinct subterm once."""
    props: set[str] = set()
    acts: set[str] = set()
    stack = list(items)
    seen: set[Syntax] = set()
    while stack:
        x = stack.pop()
        if x in seen:
            continue
        seen.add(x)
        if isinstance(x, PropVar):
            props.add(x.name)
        elif isinstance(x, Atomic):
            acts.add(x.name)
        else:
            stack.extend(_children(x))
    return props, acts


# ---------------------------------------------------------------------------
# Tokenizer


class ParseError(ValueError):
    """Syntax error with character position and the expected token set."""

    def __init__(self, message: str, position: int, expected: tuple[str, ...] = ()):
        self.message = message
        self.position = position
        self.expected = expected
        detail = f"{message} at position {position}"
        if expected:
            detail += " (expected " + " or ".join(expected) + ")"
        super().__init__(detail)


class _Token(NamedTuple):
    kind: str
    value: str
    pos: int


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<nominal>'[a-z][a-z0-9_]*)
  | (?P<ident>[a-z][a-z0-9_]*)
  | (?P<arrow>->)
  | (?P<punct>[&|!~@<>\[\]();+*?])
    """,
    re.VERBOSE,
)

_KEYWORDS = {"false", "true"}


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        group, word = m.lastgroup, m.group()
        if group == "punct":
            tokens.append(_Token(word, word, pos))
        elif group == "ident":
            tokens.append(_Token(word if word in _KEYWORDS else "ident", word, pos))
        elif group == "nominal":
            tokens.append(_Token("nominal", word[1:], pos))
        elif group == "arrow":
            tokens.append(_Token("->", "->", pos))
        pos = m.end()
    tokens.append(_Token("eof", "", len(text)))
    return tokens


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        # formula() by start position: (formula, end position), or the
        # arguments of the ParseError it raised.  A test in a program
        # reparses the tokens a failed test reading consumed, which would
        # otherwise take time exponential in the nesting.  Failures are kept
        # as plain arguments and raised afresh: a kept ParseError would hold
        # its traceback's frames alive, and every re-raise would lengthen it.
        self.formulas: dict[int, tuple[Formula, int]] = {}
        self.failures: dict[int, tuple[str, int, tuple[str, ...]]] = {}

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"unexpected {tok.value or 'end of input'!r}", tok.pos, (kind,))
        return self.advance()

    # formulas

    def formula(self) -> Formula:
        start = self.pos
        failure = self.failures.get(start)
        if failure is not None:
            raise ParseError(*failure)
        known = self.formulas.get(start)
        if known is not None:
            f, self.pos = known
            return f
        try:
            f = self.disj()
            if self.peek().kind == "->":
                self.advance()
                f = Implies(f, self.formula())
        except ParseError as exc:
            self.failures[start] = (exc.message, exc.position, exc.expected)
            raise
        self.formulas[start] = (f, self.pos)
        return f

    def disj(self) -> Formula:
        out = self.conj()
        while self.peek().kind == "|":
            self.advance()
            out = Or(out, self.conj())
        return out

    def conj(self) -> Formula:
        out = self.unary()
        while self.peek().kind == "&":
            self.advance()
            out = And(out, self.unary())
        return out

    def unary(self) -> Formula:
        tok = self.peek()
        if tok.kind == "!":
            self.advance()
            return Neg(self.unary())
        if tok.kind == "~":
            self.advance()
            return cneg(self.unary())
        if tok.kind == "@":
            self.advance()
            name = self.expect("nominal")
            return At(name.value, self.unary())
        if tok.kind == "<":
            self.advance()
            prog = self.program()
            self.expect(">")
            return Diamond(prog, self.unary())
        if tok.kind == "[":
            self.advance()
            prog = self.program()
            self.expect("]")
            return Box(prog, self.unary())
        return self.atom()

    def atom(self) -> Formula:
        tok = self.peek()
        if tok.kind == "false":
            self.advance()
            return Bottom()
        if tok.kind == "true":
            self.advance()
            return top()
        if tok.kind == "ident":
            self.advance()
            return PropVar(tok.value)
        if tok.kind == "nominal":
            self.advance()
            return Nominal(tok.value)
        if tok.kind == "(":
            self.advance()
            f = self.formula()
            self.expect(")")
            return f
        raise ParseError(
            f"unexpected {tok.value or 'end of input'!r}",
            tok.pos,
            ("proposition", "nominal", "false", "true", "("),
        )

    # programs

    def program(self) -> Program:
        out = self.prog_seq()
        while self.peek().kind == "+":
            self.advance()
            out = Choice(out, self.prog_seq())
        return out

    def prog_seq(self) -> Program:
        out = self.prog_postfix()
        while self.peek().kind == ";":
            self.advance()
            out = Seq(out, self.prog_postfix())
        return out

    def prog_postfix(self) -> Program:
        out = self.prog_primary()
        while self.peek().kind == "*":
            self.advance()
            out = Star(out)
        return out

    def prog_primary(self) -> Program:
        # A test is a formula followed by '?'.  Since an identifier or a
        # parenthesised group can open either a formula or a program, try
        # the test reading first and backtrack when '?' does not follow.
        mark = self.pos
        try:
            condition = self.formula()
            if self.peek().kind == "?":
                self.advance()
                return Test(condition)
        except ParseError:
            pass
        self.pos = mark
        tok = self.peek()
        if tok.kind == "ident":
            self.advance()
            return Atomic(tok.value)
        if tok.kind == "(":
            self.advance()
            prog = self.program()
            self.expect(")")
            return prog
        raise ParseError(
            f"unexpected {tok.value or 'end of input'!r}",
            tok.pos,
            ("action", "test", "("),
        )


def _parse_all(text: str, start):
    parser = _Parser(_tokenize(text))
    try:
        tree = start(parser)
    except RecursionError:
        raise ParseError("input nested too deeply", parser.peek().pos) from None
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(f"trailing input {tok.value!r}", tok.pos, ("end of input",))
    return tree


def parse_formula(text: str) -> Formula:
    """Parse a formula; raises ParseError with position on bad input,
    including input nested deeper than the interpreter's recursion limit."""
    return _parse_all(text, _Parser.formula)


def parse_program(text: str) -> Program:
    """Parse a program; raises ParseError with position on bad input,
    including input nested deeper than the interpreter's recursion limit."""
    return _parse_all(text, _Parser.program)


# ---------------------------------------------------------------------------
# Printer

# Formula precedence levels: -> is 0 (right associative), | is 1, & is 2,
# prefixes are 3, atoms 4.  Programs: + is 0, ; is 1, postfix */? and atoms 2.


def render(f: Formula) -> str:
    """Render a formula so that parse_formula(render(f)) == f.

    The classical-negation pattern Implies(x, Bottom) is re-sugared to ~x,
    and Implies(Bottom, Bottom) to true.
    """
    return _render_f(f, 0)


def _render_f(f: Formula, context: int) -> str:
    if isinstance(f, Implies) and f.right == Bottom():
        if f.left == Bottom():
            return "true"
        return "~" + _render_f(f.left, 3)
    if isinstance(f, PropVar):
        return f.name
    if isinstance(f, Nominal):
        return "'" + f.name
    if isinstance(f, Bottom):
        return "false"
    if isinstance(f, Neg):
        return "!" + _render_f(f.body, 3)
    if isinstance(f, At):
        return f"@'{f.nominal} " + _render_f(f.body, 3)
    if isinstance(f, Diamond):
        return f"<{render_program(f.program)}>" + _render_f(f.body, 3)
    if isinstance(f, Box):
        return f"[{render_program(f.program)}]" + _render_f(f.body, 3)
    if isinstance(f, And):
        text = _render_f(f.left, 2) + " & " + _render_f(f.right, 3)
        return f"({text})" if context > 2 else text
    if isinstance(f, Or):
        text = _render_f(f.left, 1) + " | " + _render_f(f.right, 2)
        return f"({text})" if context > 1 else text
    if isinstance(f, Implies):
        text = _render_f(f.left, 1) + " -> " + _render_f(f.right, 0)
        return f"({text})" if context > 0 else text
    raise TypeError(f"not a formula: {f!r}")


def render_program(p: Program) -> str:
    """Render a program so that parse_program(render_program(p)) == p."""
    return _render_p(p, 0)


def _render_p(p: Program, context: int) -> str:
    if isinstance(p, Atomic):
        return p.name
    if isinstance(p, Star):
        return _render_p(p.body, 2) + "*"
    if isinstance(p, Test):
        cond = p.condition
        if isinstance(cond, (PropVar, Nominal, Bottom)) or cond == top():
            return _render_f(cond, 4) + "?"
        return "(" + render(cond) + ")?"
    if isinstance(p, Seq):
        text = _render_p(p.first, 1) + ";" + _render_p(p.second, 2)
        return f"({text})" if context > 1 else text
    if isinstance(p, Choice):
        text = _render_p(p.left, 0) + "+" + _render_p(p.right, 1)
        return f"({text})" if context > 0 else text
    raise TypeError(f"not a program: {p!r}")


# ---------------------------------------------------------------------------
# Fischer-Ladner closure


def _closure_steps(f: Formula) -> list[Formula]:
    """One decomposition step of the closure construction."""
    if isinstance(f, Neg):
        return [f.body]
    if isinstance(f, (And, Or, Implies)):
        return [f.left, f.right]
    if isinstance(f, At):
        return [f.body]
    if isinstance(f, (Diamond, Box)):
        wrap = Diamond if isinstance(f, Diamond) else Box
        out: list[Formula] = [f.body]
        prog = f.program
        if isinstance(prog, Seq):
            out.append(wrap(prog.first, wrap(prog.second, f.body)))
        elif isinstance(prog, Choice):
            out.append(wrap(prog.left, f.body))
            out.append(wrap(prog.right, f.body))
        elif isinstance(prog, Star):
            out.append(wrap(prog.body, wrap(prog, f.body)))
        elif isinstance(prog, Test):
            if isinstance(f, Diamond):
                out.append(And(prog.condition, f.body))
            else:
                out.append(Implies(prog.condition, f.body))
        return out
    return []


def fischer_ladner_closure(
    root: Union[SignedFormula, Formula, Iterable[Union[SignedFormula, Formula]]],
) -> frozenset[Formula]:
    """Least formula set containing the root and closed under decomposition,
    program unfolding and single paraconsistent negation.

    Computed as a worklist fixpoint; the result is finite.  A minus root
    contributes its body.  An iterable of roots yields the union closure.
    """
    if isinstance(root, (SignedFormula, Formula)):
        roots: list[Union[SignedFormula, Formula]] = [root]
    else:
        roots = list(root)
    closure: set[Formula] = set()
    todo: list[Formula] = [
        r.formula if isinstance(r, SignedFormula) else r for r in roots
    ]
    while todo:
        f = todo.pop()
        if f in closure:
            continue
        closure.add(f)
        todo.extend(_closure_steps(f))
        if not isinstance(f, Neg):
            todo.append(Neg(f))
    return frozenset(closure)
