"""Abstract syntax, concrete parser and printer for four-valued dynamic
hybrid formulas, plus the one-step unfolding of composite programs and
the Fischer-Ladner closure.  The closure holds each tableau rule's
conclusions, since it steps through the same ``unfold`` the rules read.

Formulas and programs are immutable trees; every value in this module is
safe to share between threads, and parsing is reentrant.

Concrete grammar (ASCII), with the binary operators and their precedence
and associativity given by ``_FORMULA_OPS`` and ``_PROGRAM_OPS``:

    formula  :=  unary (('->' | '|' | '&') unary)*
    unary    :=  '!' unary | '~' unary | '@' NOMINAL unary
              |  '<' program '>' unary | '[' program ']' unary
              |  'false' | 'true' | IDENT | NOMINAL | '(' formula ')'

    program  :=  postfix (('+' | ';') postfix)*
    postfix  :=  primary '*'*
    primary  :=  formula '?' | IDENT | '(' program ')'

Identifiers are ``[a-z][a-z0-9_]*``; nominals carry a leading apostrophe
(``'i``) so their namespace is lexically disjoint.  ``~f`` abbreviates
``f -> false`` and ``true`` abbreviates ``~false``; both are expanded at
parse time and re-sugared by the printer.
"""
from __future__ import annotations

import re
from typing import Iterable, Optional, Union


# ---------------------------------------------------------------------------
# AST


class _Node:
    """Shared behaviour of syntax nodes.

    A node is built in one call, by the constructor that ``_record``
    generates for its class.  That constructor writes the fields, in
    declaration order, straight into the instance dict, and with them the
    values cached for the node's lifetime:

    - ``_hash``, the hash of the tuple of the fields, so a node and the
      tuple of its fields hash alike.  A hash of the children's cached ints
      would differ, since ``hash(int)`` reduces modulo 2**61 - 1.
    - ``nominals``, the nominal names occurring in the node (at atom or @
      position) in leftmost-first order without repeats, merged from the
      children's.

    Hashing a node and listing its nominals therefore cost O(1) at any
    depth.  Equality compares the cached hashes, then the field tuples,
    recursing into the children; where that recursion would pass the
    interpreter's limit, both trees are walked from an explicit stack
    instead, so equality has no depth limit either."""

    _nominal_field: Optional[str] = None  # the field holding a nominal name
    nominals: tuple[str, ...]

    def __hash__(self) -> int:
        return self._hash

    def _walk(self, other: "_Node") -> bool:
        stack = [(self, other)]
        while stack:
            x, y = stack.pop()
            if x.__class__ is not y.__class__ or x._hash != y._hash:
                return False
            for name in x.__match_args__:
                mine, theirs = x.__dict__[name], y.__dict__[name]
                if isinstance(mine, _Node):
                    if mine is not theirs:  # a shared subtree is equal unwalked
                        stack.append((mine, theirs))
                elif mine != theirs:
                    return False
        return True

    def __reduce__(self):
        # Rebuild from the fields: a cached hash is valid in one process only.
        return type(self), tuple(self.__dict__[name] for name in self.__match_args__)


def _refuse(self, name: str, *value: object) -> None:
    raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


def _record(cls=None, *, frozen: bool = True):
    """Declare a record class: its annotated fields, in order, are its
    ``__match_args__``, a class attribute of a field's name its default.
    One ``exec`` writes ``__init__`` (which sets the fields, then calls
    any ``__post_init__``), ``__repr__``, ``__eq__`` over the field tuple
    (see ``_Node`` for a deep tree) and, but for a node, ``__hash__``
    (None if mutable).  A frozen record refuses assignment and deletion.
    A node's child is a field annotated ``Formula`` or ``Program``."""
    if cls is None:
        return lambda cls: _record(cls, frozen=frozen)
    annotations = cls.__dict__.get("__annotations__", {})
    names = cls.__match_args__ = tuple(annotations)
    namespace = {f"_default_{name}": cls.__dict__[name] for name in names if name in cls.__dict__}
    namespace["_set"] = object.__setattr__
    params = ["self"] + [f"{n}=_default_{n}" if f"_default_{n}" in namespace else n for n in names]
    shown = ", ".join(f"{name}={{self.{name}!r}}" for name in names)
    methods = [f'def __repr__(self):\n    return f"{{self.__class__.__qualname__}}({shown})"']
    mine, theirs = ("".join(f"{side}.{n}, " for n in names) for side in ("self", "other"))
    compare = f"return ({mine}) == ({theirs})"
    # A node's constructor fills its instance dict, for At: d = self.__dict__;
    # d['nominal'] = nominal; d['body'] = body; d['_hash'] = ...; d['nominals'].
    # Other records set attributes, which read faster than from a built dict.
    node = issubclass(cls, _Node)
    store = "d[{0!r}] = {0}" if node else "_set(self, {0!r}, {0})"
    body = (["d = self.__dict__"] if node else []) + [store.format(name) for name in names]
    if node:
        body.append(f"d['_hash'] = hash(({''.join(f'{name}, ' for name in names)}))")
        cls._child_fields = tuple(n for n in names if annotations[n] in ("Formula", "Program"))
        parts = [f"{name}.nominals" for name in cls._child_fields]
        if cls._nominal_field is not None:
            parts.insert(0, f"({cls._nominal_field},)")
        body.append(f"found = {parts[0] if parts else '()'}")
        for part in parts[1:]:
            body.append(f"more = {part}")
            body.append("if more: found = tuple(dict.fromkeys(found + more)) if found else more")
        body.append("d['nominals'] = found")
        # Past the recursion limit, the frames nearest it walk instead.
        compare = (
            "if self._hash != other._hash:\n        return False\n    try:\n        "
            f"{compare}\n    except RecursionError:\n        return self._walk(other)"
        )
    else:
        methods.append(f"def __hash__(self):\n    return hash(({mine}))" if frozen else "__hash__ = None")
    methods.append(
        "def __eq__(self, other):\n    if other.__class__ is not self.__class__:\n"
        f"        return NotImplemented\n    {compare}"
    )
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    methods.append(f"def __init__({', '.join(params)}):\n    " + "\n    ".join(body))
    exec("\n".join(methods), namespace, made := {})
    for name, method in made.items():
        setattr(cls, name, method)
    if frozen:
        cls.__setattr__ = cls.__delattr__ = _refuse
    return cls


@_record
class Formula(_Node):
    """Base class for formula nodes."""

    def __str__(self) -> str:
        return render(self)


@_record
class Program(_Node):
    """Base class for program nodes."""

    def __str__(self) -> str:
        return render_program(self)


@_record
class PropVar(Formula):
    name: str


@_record
class Nominal(Formula):
    name: str

    _nominal_field = "name"


@_record
class Bottom(Formula):
    pass


@_record
class Neg(Formula):
    """Paraconsistent negation.  Classical negation is the derived form
    ``Implies(f, Bottom())`` and never a distinct node."""

    body: Formula


@_record
class And(Formula):
    left: Formula
    right: Formula


@_record
class Or(Formula):
    left: Formula
    right: Formula


@_record
class Implies(Formula):
    left: Formula
    right: Formula


@_record
class At(Formula):
    nominal: str
    body: Formula

    _nominal_field = "nominal"


@_record
class Diamond(Formula):
    program: Program
    body: Formula


@_record
class Box(Formula):
    program: Program
    body: Formula


@_record
class Atomic(Program):
    name: str


@_record
class Seq(Program):
    first: Program
    second: Program


@_record
class Choice(Program):
    left: Program
    right: Program


@_record
class Star(Program):
    body: Program


@_record
class Test(Program):
    condition: Formula

    __test__ = False  # keep pytest from collecting the AST node


@_record
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


@_record
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


def _children(x: Syntax) -> list[Syntax]:
    return [getattr(x, name) for name in x._child_fields]


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
# Operator table

# The binary operators of each sort, by token: (precedence, node class,
# right associative).  A higher precedence binds tighter.  The prefixes
# (! ~ @'i <prog> [prog]) and the postfixes (* ?) bind tighter than every
# entry.  These two tables are the only statement of precedence: the
# parser and the printer both read them.
_FORMULA_OPS = {"->": (0, Implies, True), "|": (1, Or, False), "&": (2, And, False)}
_PROGRAM_OPS = {"+": (0, Choice, False), ";": (1, Seq, False)}


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


_TOKEN_RE = re.compile(
    r"""
    \s+
  | (?P<nominal>'[a-z][a-z0-9_]*)
  | (?P<ident>[a-z][a-z0-9_]*)
  | (?P<punct>->|[&|!~@<>\[\]();+*?])
  | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)

_KEYWORDS = {"false", "true"}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """The tokens of text as (kind, value, character position), ending in
    an eof token at len(text)."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        group, word = m.lastgroup, m.group()
        if group == "punct":
            tokens.append((word, word, m.start()))
        elif group == "ident":
            tokens.append((word if word in _KEYWORDS else "ident", word, m.start()))
        elif group == "nominal":
            tokens.append(("nominal", word[1:], m.start()))
        elif group == "bad":
            raise ParseError(f"unexpected character {word!r}", m.start())
    tokens.append(("eof", "", len(text)))
    return tokens


def _unexpected(token: tuple[str, str, int], expected: tuple[str, ...]) -> ParseError:
    return ParseError(f"unexpected {token[1] or 'end of input'!r}", token[2], expected)


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]]):
        self.tokens = tokens
        self.pos = 0
        # A formula read at floor 0, by start position: (formula, end
        # position), or the arguments of the ParseError it raised.  A test in
        # a program reparses the tokens a failed test reading consumed, which
        # would otherwise take time exponential in the nesting.  Failures are
        # kept as plain arguments and raised afresh: a kept ParseError would
        # hold its traceback's frames alive, and every re-raise would
        # lengthen it.
        self.formulas: dict[int, tuple[Formula, int]] = {}
        self.failures: dict[int, tuple[str, int, tuple[str, ...]]] = {}

    def expect(self, kind: str) -> str:
        token = self.tokens[self.pos]
        if token[0] != kind:
            raise _unexpected(token, (kind,))
        self.pos += 1
        return token[1]

    def climb(self, ops: dict, floor: int = 0):
        """Precedence climbing over one sort, the sort whose table is
        ``ops``: operands joined by the entries of ``ops`` whose precedence
        is ``floor`` or more.  A flat chain is read in this loop; only a
        tighter right operand recurses.

        The memo above is read and written here, for formulas at floor 0,
        so that a parenthesised formula costs two frames: this and unary."""
        formulas = ops is _FORMULA_OPS
        memo = formulas and floor == 0
        if memo:
            start = self.pos
            failure = self.failures.get(start)
            if failure is not None:
                raise ParseError(*failure)
            known = self.formulas.get(start)
            if known is not None:
                tree, self.pos = known
                return tree
        try:
            tree = self.unary() if formulas else self.prog_postfix()
            while True:
                entry = ops.get(self.tokens[self.pos][0])
                if entry is None or entry[0] < floor:
                    break
                self.pos += 1
                precedence, build, right_assoc = entry
                tree = build(tree, self.climb(ops, precedence + (not right_assoc)))
        except ParseError as exc:
            if memo:
                self.failures[start] = (exc.message, exc.position, exc.expected)
            raise
        if memo:
            self.formulas[start] = (tree, self.pos)
        return tree

    def unary(self) -> Formula:
        token = self.tokens[self.pos]
        kind = token[0]
        self.pos += 1
        if kind == "!":
            return Neg(self.unary())
        if kind == "~":
            return cneg(self.unary())
        if kind == "@":
            name = self.expect("nominal")
            return At(name, self.unary())
        if kind == "<":
            prog = self.climb(_PROGRAM_OPS)
            self.expect(">")
            return Diamond(prog, self.unary())
        if kind == "[":
            prog = self.climb(_PROGRAM_OPS)
            self.expect("]")
            return Box(prog, self.unary())
        if kind == "ident":
            return PropVar(token[1])
        if kind == "nominal":
            return Nominal(token[1])
        if kind == "false":
            return Bottom()
        if kind == "true":
            return top()
        if kind == "(":
            f = self.climb(_FORMULA_OPS)
            self.expect(")")
            return f
        self.pos -= 1  # a RecursionError handler reads the token at pos
        raise _unexpected(token, ("proposition", "nominal", "false", "true", "("))

    def prog_postfix(self) -> Program:
        prog = self.prog_primary()
        while self.tokens[self.pos][0] == "*":
            self.pos += 1
            prog = Star(prog)
        return prog

    def prog_primary(self) -> Program:
        # A test is a formula followed by '?'.  Since an identifier or a
        # parenthesised group can open either a formula or a program, try
        # the test reading first and backtrack when '?' does not follow.
        mark = self.pos
        try:
            condition = self.climb(_FORMULA_OPS)
            if self.tokens[self.pos][0] == "?":
                self.pos += 1
                return Test(condition)
        except ParseError:
            pass
        self.pos = mark
        token = self.tokens[mark]
        if token[0] == "ident":
            self.pos += 1
            return Atomic(token[1])
        if token[0] == "(":
            self.pos += 1
            prog = self.climb(_PROGRAM_OPS)
            self.expect(")")
            return prog
        raise _unexpected(token, ("action", "test", "("))


def _parse_all(text: str, ops: dict):
    parser = _Parser(_tokenize(text))
    try:
        tree = parser.climb(ops)
    except RecursionError:
        raise ParseError("input nested too deeply", parser.tokens[parser.pos][2]) from None
    token = parser.tokens[parser.pos]
    if token[0] != "eof":
        raise ParseError(f"trailing input {token[1]!r}", token[2], ("end of input",))
    return tree


def parse_formula(text: str) -> Formula:
    """Parse a formula; raises ParseError with position on bad input,
    including input nested deeper than the interpreter's recursion limit."""
    return _parse_all(text, _FORMULA_OPS)


def parse_program(text: str) -> Program:
    """Parse a program; raises ParseError with position on bad input,
    including input nested deeper than the interpreter's recursion limit."""
    return _parse_all(text, _PROGRAM_OPS)


# ---------------------------------------------------------------------------
# Printer

# Each binary node class: its printed operator, precedence and associativity.
_INFIX = {
    build: (f" {token} " if ops is _FORMULA_OPS else token, precedence, right_assoc)
    for ops in (_FORMULA_OPS, _PROGRAM_OPS)
    for token, (precedence, build, right_assoc) in ops.items()
}
# The context of a prefix's or postfix's operand: tighter than every entry.
_TIGHT = 1 + max(precedence for _, precedence, _ in _INFIX.values())


def render(f: Formula) -> str:
    """Render a formula so that parse_formula(render(f)) == f.

    The classical-negation pattern Implies(x, Bottom) is re-sugared to ~x,
    and Implies(Bottom, Bottom) to true.
    """
    if not isinstance(f, Formula):
        raise TypeError(f"not a formula: {f!r}")
    return _render(f, 0)


def render_program(p: Program) -> str:
    """Render a program so that parse_program(render_program(p)) == p."""
    if not isinstance(p, Program):
        raise TypeError(f"not a program: {p!r}")
    return _render(p, 0)


def _render(x: Union[Formula, Program], context: int) -> str:
    """x printed as an operand read at precedence ``context``: parenthesised
    when its own operator binds more loosely."""
    cls = type(x)
    infix = _INFIX.get(cls)
    if infix is not None:
        symbol, prec, right_assoc = infix
        first, second = cls._child_fields
        left, right = getattr(x, first), getattr(x, second)
        if cls is Implies and type(right) is Bottom:
            return "true" if type(left) is Bottom else "~" + _render(left, _TIGHT)
        texts = [_render(right, prec + (not right_assoc))]
        while not right_assoc and type(left) is cls:  # a flat chain, walked in a loop
            left, right = getattr(left, first), getattr(left, second)
            texts.append(_render(right, prec + 1))
        texts.append(_render(left, prec + right_assoc))
        text = symbol.join(reversed(texts))
        return f"({text})" if context > prec else text
    if cls is PropVar or cls is Atomic:
        return x.name
    if cls is Nominal:
        return "'" + x.name
    if cls is Bottom:
        return "false"
    if cls is Neg:
        return "!" + _render(x.body, _TIGHT)
    if cls is At:
        return f"@'{x.nominal} " + _render(x.body, _TIGHT)
    if cls is Diamond:
        return f"<{_render(x.program, 0)}>" + _render(x.body, _TIGHT)
    if cls is Box:
        return f"[{_render(x.program, 0)}]" + _render(x.body, _TIGHT)
    if cls is Star:
        return _render(x.body, _TIGHT) + "*"
    if cls is Test:
        cond = x.condition
        if isinstance(cond, (PropVar, Nominal, Bottom)) or (
            isinstance(cond, Implies) and isinstance(cond.left, Bottom) and isinstance(cond.right, Bottom)
        ):
            return _render(cond, _TIGHT) + "?"
        return "(" + _render(cond, 0) + ")?"
    raise TypeError(f"not a formula or program: {x!r}")


# ---------------------------------------------------------------------------
# Program unfolding and the Fischer-Ladner closure


def unfold(f: Union[Diamond, Box]) -> Optional[Formula]:
    """The one-step reading of a modality over a composite program, which
    the prover's rule for that program concludes; None over an atomic one.

        <α;β>φ  <α><β>φ          [α;β]φ  [α][β]φ
        <α+β>φ  <α>φ | <β>φ      [α+β]φ  [α]φ & [β]φ
        <ψ?>φ   ψ & φ            [ψ?]φ   ψ -> φ
        <α*>φ   φ | <α><α*>φ     [α*]φ   φ & [α][α*]φ
    """
    wrap, prog, body = type(f), f.program, f.body
    join = Or if wrap is Diamond else And
    if isinstance(prog, Seq):
        return wrap(prog.first, wrap(prog.second, body))
    if isinstance(prog, Choice):
        return join(wrap(prog.left, body), wrap(prog.right, body))
    if isinstance(prog, Test):
        return (And if wrap is Diamond else Implies)(prog.condition, body)
    if isinstance(prog, Star):
        return join(body, wrap(prog.body, f))
    return None


def _closure_steps(f: Formula) -> list[Formula]:
    """One decomposition step of the closure construction.  A modality
    over a composite program steps to what its rule concludes: its
    unfolding, or a star's two sides, which its rule adds apart."""
    if isinstance(f, Neg):
        return [f.body]
    if isinstance(f, (And, Or, Implies)):
        return [f.left, f.right]
    if isinstance(f, At):
        return [f.body]
    if isinstance(f, (Diamond, Box)):
        step = unfold(f)
        if step is None:
            return [f.body]
        return [step.left, step.right] if isinstance(f.program, Star) else [step]
    return []


def fischer_ladner_closure(
    root: Union[SignedFormula, Formula, Iterable[Union[SignedFormula, Formula]]],
) -> frozenset[Formula]:
    """Least formula set containing the root and closed under decomposition,
    program unfolding and single paraconsistent negation, so that it holds
    the conclusion of every prover rule applied to a member.

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
