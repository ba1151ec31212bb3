"""Terminating tableau prover with countermodel extraction.

The prover decides global consequence: to check that a formula follows
from a set of assumptions it saturates a tableau rooted at the
assumptions plus the minus form of the goal.  Branches grow under three
restrictions: duplicate conclusions are dropped, destructive rules fire
at most once per formula per branch, and existential rules (the ones
that create fresh nominals) are blocked on a nominal that is included in
an earlier one.  The inclusion loop-check is what makes saturation
terminate in the presence of iteration programs.

Rules read each @-statement in its decorated view (nominal, neg, minus,
body): neg is one leading ! peeled off the body, minus is the statement's
mark.  The rule for a connective under the four decorations follows from
the plain one by two dualities, which the rule table applies:

- minus swaps a non-branching rule for a branching one and the reverse,
  and flips the mark of each conclusion;
- ! swaps & with | and [α] with <α>, and each conclusion keeps the !
  (double negation drops it).

So an atomic modality is existential (it makes a fresh nominal) exactly
when it is a diamond under an even number of the two decorations or a box
under an odd number; the others act through pair rules along relational
literals.  A star modality passing the same test is an eventuality: its
rule splits, and the ignorable-branch check asks whether it is fulfilled.
The rules for ;, +, ? and * conclude syntax.unfold of their premise (a
star's rule adds its two sides apart); the closure steps through it too.

A destructive rule fires at most once per premise per branch without a
flag saying so: add drops a statement the branch already holds, so a
statement enters the agenda at most once per branch; next_task takes it
off the agenda before apply fires it; and a split copies the branch
inside apply, after that removal, so neither side still has it queued.

Rule scheduling: non-branching non-destructive rules saturate first,
then destructive non-branching ones, then branching ones, with
existential rules last, each tier through a FIFO agenda.  This keeps
branch counts low and lets the loop-check see a nominal's full statement
set before deciding whether to expand it.

Branches are explored depth first, left column first, with
dependency-directed backjumping (Horrocks and Patel-Schneider, J. Logic
Comput. 9(3), 1999).  A split gets a level, one more than the number of
splits on its branch's path, and every statement carries the bitmask of
the split levels its derivation rests on: a conclusion has the union of
its premises' masks, and both columns of a split add the new level.  A
nominal takes the mask of the statement that first mentions it, and every
later statement mentioning it takes that mask too, since a statement
about a fresh nominal is only sound where its existential is.  A closed
branch has the mask of its clash; an ignorable branch rests on every split
on its path, since fulfilment is judged on the whole branch.  When the
left subtree of a split closes without resting on the split's level, its
clashes follow from statements the right column shares, so the right
sibling is pruned unexplored; otherwise the split's mask is the union of
both subtrees' masks without its own level.  Only subtrees that would
close are pruned, so the first open branch, and with it the extracted
countermodel, is the one plain depth-first search meets.

Every branch of a proof holds one statement table, keyed by the decorated
view, and builds each @-statement through it, so a statement is built once
per proof, not once per branch (hash-consing, Filliâtre and Conchon, ML
Workshop 2006).  A statement is a function of its key, so sharing it is
exact; equality and hashes stay structural.  add registers every statement
it inserts, so a key missing from the table names no branch's statement.
The table dies with the proof: one process-wide table of all syntax nodes
grew without bound and raised check-deep's peak RSS from 26.8 to 34.6 MB
(Python 3.11, 2-core VM).  The table also keeps each premise's
conclusion columns, so a rule is applied once per proof; only the rules
that make a nominal are applied afresh, since they name it from the
applying branch's own counter.  add reads a statement's view once, and
records each star eventuality as (neg, minus, body, nominal) in insertion
order; the ignorable-branch check groups that record.
"""
from __future__ import annotations

import re
import time
from collections import deque
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, Union

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
    fischer_ladner_closure,
    _record,
    unfold,
)

_RESERVED = re.compile(r"^t(\d+)$")

# Agenda tiers, in saturation order.
_TIER_PAIR = 0        # non-branching non-destructive rules
_TIER_DESTRUCTIVE = 1
_TIER_BRANCHING = 2
_TIER_EXISTENTIAL = 3

_NONE: frozenset = frozenset()


class TableauError(RuntimeError):
    """Internal consistency failure; indicates a prover defect."""


class CountermodelError(TableauError):
    """An extracted countermodel failed verification by the checker."""


@_record(frozen=False)
class TableauLimits:
    """Defensive bounds; saturation is expected to terminate well within
    them, so hitting a limit signals a defect or an extreme input."""

    max_steps: int = 100_000
    time_limit: Optional[float] = None


@_record(frozen=False)
class ProofStats:
    steps: int = 0
    branches: int = 1
    closed_branches: int = 0
    ignorable_branches: int = 0
    blocked_existentials: int = 0
    fresh_nominals: int = 0
    pruned_branches: int = 0
    elapsed: float = 0.0


@_record
class BranchStatus:
    kind: str  # closed | ignorable | open | unfinished
    ignorable_kind: Optional[str] = None
    ignorable_formula: Optional[Formula] = None
    witness: Optional[str] = None


class _PairTask(NamedTuple):
    rule: str
    premises: tuple[SignedFormula, ...]
    conclusion: SignedFormula


def _pair_task(
    premise: SignedFormula, edge: SignedFormula, phi: Formula, j: str, neg: bool, minus: bool, at
) -> _PairTask:
    """A universal atomic modality with body phi, applied along the
    relational literal to j."""
    name = ("neg-" if neg else "") + ("dia" if neg ^ minus else "box") + ("-minus" if minus else "")
    return _PairTask(f"{name}-pair", (premise, edge), at(j, phi, neg, minus))


def _stmt(nominal: str, body: Formula, neg: bool = False, minus: bool = False) -> SignedFormula:
    return SignedFormula(At(nominal, Neg(body) if neg else body), minus)


class _StatementTable(dict):
    """One proof's @-statements, keyed by their decorated view (nominal,
    body, neg, minus); calling it builds a statement like _stmt, reusing
    the table's object for a key seen before.  conclude keeps the rule
    conclusions of each premise whose rule makes no nominal."""

    def __init__(self) -> None:
        super().__init__()
        self.conclusions: dict[SignedFormula, tuple] = {}

    def conclude(self, stmt: SignedFormula, fresh: Callable[[], str]):
        """_conclude through this table, built once per premise unless the
        rule takes a fresh name from the calling branch's counter."""
        hit = self.conclusions.get(stmt)
        if hit is None:
            hit = _conclude(stmt, fresh, self)
            if hit[0].build not in _NAMING:
                self.conclusions[stmt] = hit
        return hit

    def __call__(self, nominal: str, body: Formula, neg: bool = False, minus: bool = False) -> SignedFormula:
        if not neg and isinstance(body, Neg):
            body, neg = body.body, True
        key = (nominal, body, neg, minus)
        stmt = self.get(key)
        if stmt is None:
            stmt = self[key] = _stmt(nominal, body, neg, minus)
        return stmt


def _view(stmt: SignedFormula) -> Optional[tuple[str, bool, bool, Formula]]:
    """The decorated reading (nominal, neg, minus, body) of an @-statement,
    with one leading ! peeled off into neg; None for a raw root."""
    f = stmt.formula
    if not isinstance(f, At):
        return None
    if isinstance(f.body, Neg):
        return f.nominal, True, stmt.minus, f.body.body
    return f.nominal, False, stmt.minus, f.body


def _edge_target(neg: bool, body: Formula) -> Optional[str]:
    """j when @'i body, decorated by neg, is a relational literal:
    @'i <a>'j, or @'i ![a]!'j under neg."""
    if isinstance(body, Box if neg else Diamond) and isinstance(body.program, Atomic):
        target = body.body
        if neg:
            target = target.body if isinstance(target, Neg) else None
        if isinstance(target, Nominal):
            return target.name
    return None


def _edge(i: str, action: Program, j: str, neg: bool, at) -> SignedFormula:
    """The relational literal from i to j: @'i <a>'j, or @'i ![a]!'j under neg."""
    if neg:
        return at(i, Box(action, Neg(Nominal(j))), True)
    return at(i, Diamond(action, Nominal(j)))


def _eventual(modality: type, neg: bool, minus: bool) -> bool:
    """Whether a modality, read under its decorations, asks for a
    successor (a diamond) rather than ranging over all of them (a box)."""
    return (modality is Diamond) ^ neg ^ minus


# ---------------------------------------------------------------------------
# The rule table
#
# Every builder takes the premise's decorated view, whether the rule
# splits, a fresh-nominal callback and a statement builder (_stmt's
# signature), and returns the conclusion columns (one or two).

_Columns = list[list[SignedFormula]]


def _binary(i, neg, minus, f, split, fresh, at) -> _Columns:
    left = at(i, f.left, neg, minus != isinstance(f, Implies))
    right = at(i, f.right, neg, minus)
    return [[left], [right]] if split else [[left, right]]


def _at_elim(i, neg, minus, f, split, fresh, at) -> _Columns:
    return [[at(f.nominal, f.body, neg, minus)]]


def _double_neg(i, neg, minus, f, split, fresh, at) -> _Columns:
    return [[at(i, f.body, False, minus)]]


def _id_minus(i, neg, minus, f, split, fresh, at) -> _Columns:
    return [[at(i, Neg(f) if neg else f, True)]]


def _exist(i, neg, minus, f, split, fresh, at) -> _Columns:
    t = fresh()
    return [[_edge(i, f.program, t, neg, at), at(t, f.body, neg, minus)]]


def _at_intro_minus(i, neg, minus, f, split, fresh, at) -> _Columns:
    return [[at(fresh(), f, neg, minus)]]


_NAMING = (_exist, _at_intro_minus)  # the builders that make a nominal


def _unfold(i, neg, minus, f, split, fresh, at) -> _Columns:
    return [[at(i, unfold(f), neg, minus)]]


def _star(i, neg, minus, f, split, fresh, at) -> _Columns:
    step = unfold(f)
    now, later = at(i, step.left, neg, minus), at(i, step.right, neg, minus)
    if split:
        return [[now], [at(i, step.left, neg, not minus), later]]
    return [[now, later]]


class _Rule(NamedTuple):
    name: str
    tier: int
    build: Callable[..., _Columns]


def _rule_table() -> dict[tuple, _Rule]:
    """The destructive rules, keyed by (body class, program class or None,
    neg, minus).  Each connective is written once, for the plain
    decoration; neg and minus follow from the two dualities."""
    table: dict[tuple, _Rule] = {}
    for neg in (False, True):
        for minus in (False, True):
            pre, post = ("neg-" if neg else ""), ("-minus" if minus else "")

            def put(key, name: str, tier: int, build) -> None:
                table[key + (neg, minus)] = _Rule(name, tier, build)

            for connective, name, disjunctive in (
                (And, "and", False),
                (Or, "or", True),
                (Implies, "imp", True),
            ):
                split = disjunctive ^ neg ^ minus
                put((connective, None), pre + name + post,
                    _TIER_BRANCHING if split else _TIER_DESTRUCTIVE, _binary)
            put((At, None), ("neg-at" if neg else "at-elim") + post, _TIER_DESTRUCTIVE, _at_elim)
            if neg:
                put((Neg, None), "neg-neg" + post, _TIER_DESTRUCTIVE, _double_neg)
            if minus:
                put((Nominal, None), "id-minus", _TIER_DESTRUCTIVE, _id_minus)
            for modality, mname in ((Diamond, "dia"), (Box, "box")):
                eventual = _eventual(modality, neg, minus)
                if eventual:  # the universal atomic modalities act through pair rules
                    put((modality, Atomic), f"{pre}{mname}{post}-exist", _TIER_EXISTENTIAL, _exist)
                for program, pname in ((Seq, "seq"), (Choice, "choice"), (Test, "test")):
                    put((modality, program), f"{pre}{mname}-{pname}{post}", _TIER_DESTRUCTIVE, _unfold)
                put((modality, Star), f"{pre}{mname}-star{post}",
                    _TIER_BRANCHING if eventual else _TIER_DESTRUCTIVE, _star)
    return table


_RULES = _rule_table()
_AT_INTRO_MINUS = _Rule("at-intro-minus", _TIER_DESTRUCTIVE, _at_intro_minus)


def _dispatch(stmt: SignedFormula, view: Optional[tuple]) -> Optional[tuple[_Rule, tuple]]:
    """The destructive rule a statement, read in its view, is premise of,
    if any, with the view its builder takes.  Literals, constants and the
    universal atomic modalities have none; plain raw roots are prefixed by
    the at-intro pair rule."""
    if view is None:
        # a minus raw root is prefixed by a fresh nominal
        return (_AT_INTRO_MINUS, (None, False, True, stmt.formula)) if stmt.minus else None
    _, neg, minus, body = view
    if not minus and _edge_target(neg, body) is not None:
        return None  # a relational literal
    program = type(body.program) if isinstance(body, (Diamond, Box)) else None
    rule = _RULES.get((type(body), program, neg, minus))
    return None if rule is None else (rule, view)


def _conclude(
    stmt: SignedFormula, fresh: Callable[[], str], at: Callable[..., SignedFormula] = _stmt
) -> tuple[_Rule, _Columns]:
    """The destructive rule a statement is premise of, with its conclusion
    columns built through at."""
    rule, view = _dispatch(stmt, _view(stmt))
    return rule, rule.build(*view, rule.tier == _TIER_BRANCHING, fresh, at)


# ---------------------------------------------------------------------------
# Branches


class Branch:
    """One tableau branch: an ordered, duplicate-free statement set, each
    statement mapped to the mask of the split levels its derivation rests
    on, with the agenda and the nominal bookkeeping for the loop-check."""

    def __init__(self, closure: frozenset[Formula], signature: Signature, fresh_start: int, branch_id: int = 0):
        self.closure = closure
        self.signature = signature
        self.branch_id = branch_id
        self.table = _StatementTable()  # shared by every branch of the proof
        self.index: dict[SignedFormula, int] = {}  # statement -> its deps mask
        self.nominal_order: list[str] = []
        self.position: dict[str, int] = {}  # nominal -> index in nominal_order
        self.nominal_deps: dict[str, int] = {}  # mask of the first statement naming it
        # Per-nominal decorated closure statements; the loop-check compares
        # these sets, so they are maintained incrementally (growing only).
        self.cl_statements: dict[str, set[tuple[bool, bool, Formula]]] = {}
        self.raw_plain: list[SignedFormula] = []
        # Premises of the pair rules: universal atomic modalities by
        # (i, a, neg, minus), as (modality body, statement), and relational
        # literals by (i, a, neg), as (target, statement).
        self.universals: dict[tuple[str, str, bool, bool], list[tuple[Formula, SignedFormula]]] = {}
        self.edges: dict[tuple[str, str, bool], list[tuple[str, SignedFormula]]] = {}
        self.equalities: dict[str, list[str]] = {}
        self.literals_at: dict[str, list[Formula]] = {}
        self.queues: tuple[deque, deque, deque, deque] = (
            deque(),
            deque(),
            deque(),
            deque(),
        )
        self.parked: list[SignedFormula] = []
        # Star eventualities as (neg, minus, body, nominal), in insertion order.
        self.eventualities: list[tuple[bool, bool, Formula, str]] = []
        self.closed = False
        self.closed_reason: Optional[str] = None
        self.closed_deps = 0
        self.depth = 0  # splits on this branch's path
        self.fresh_counter = fresh_start

    # -- basic views

    def contains(self, stmt: SignedFormula) -> bool:
        return stmt in self.index

    def statements(self) -> list[SignedFormula]:
        return list(self.index)

    def copy(self, branch_id: int) -> "Branch":
        clone = Branch.__new__(Branch)
        clone.closure = self.closure
        clone.signature = self.signature
        clone.branch_id = branch_id
        clone.table = self.table
        clone.index = dict(self.index)
        clone.nominal_order = list(self.nominal_order)
        clone.position = dict(self.position)
        clone.nominal_deps = dict(self.nominal_deps)
        clone.cl_statements = {n: set(s) for n, s in self.cl_statements.items()}
        clone.raw_plain = list(self.raw_plain)
        for name in ("universals", "edges", "equalities", "literals_at"):
            setattr(clone, name, {k: list(v) for k, v in getattr(self, name).items()})
        clone.queues = tuple(deque(q) for q in self.queues)
        clone.parked = list(self.parked)
        clone.eventualities = list(self.eventualities)
        clone.closed = self.closed
        clone.closed_reason = self.closed_reason
        clone.closed_deps = self.closed_deps
        clone.depth = self.depth
        clone.fresh_counter = self.fresh_counter
        return clone

    # -- nominal bookkeeping

    def fresh_nominal(self) -> str:
        while True:
            name = f"t{self.fresh_counter}"
            self.fresh_counter += 1
            if name not in self.position:
                return name

    def _register_nominal(self, name: str, deps: int) -> None:
        self.nominal_deps[name] = deps
        self.position[name] = len(self.nominal_order)
        self.nominal_order.append(name)
        # the self-equality axiom, and root-formula prefixing at this nominal
        self._enqueue_pair(_PairTask("id", (), self.table(name, Nominal(name))))
        for raw in self.raw_plain:
            self._enqueue_pair(_PairTask("at-intro", (raw,), self.table(name, raw.formula)))

    # -- insertion

    def add(self, stmt: SignedFormula, deps: int = 0) -> bool:
        """Insert a statement unless it is already present, and register it
        in the statement table; deps is the mask of the split levels its
        derivation rests on."""
        if stmt in self.index:
            return False
        nominal_deps = self.nominal_deps
        for name in stmt.nominals:
            deps |= nominal_deps.get(name, 0)
        self.index[stmt] = deps
        view = _view(stmt)
        if view is not None:
            i, neg, minus, body = view
            table = self.table
            table.setdefault((i, body, neg, minus), stmt)
            # The statement lies in the root closure, whole or with its !
            # peeled off, and its decorated closure entries feed the
            # loop-check; equalities and relational literals are exempt.
            whole = stmt.formula.body
            in_whole, in_body = whole in self.closure, neg and body in self.closure
            if not (in_whole or in_body) and (
                minus or (neg or not isinstance(body, Nominal)) and _edge_target(neg, body) is None
            ):
                raise TableauError(f"statement escapes the root closure: {stmt}")
            entries = self.cl_statements.setdefault(i, set())
            if in_whole:
                entries.add((False, minus, whole))
            if in_body:
                entries.add((True, minus, body))
            self._check_closed(stmt, deps, view, table.get((i, body, neg, not minus)))
        for name in stmt.nominals:
            if name not in nominal_deps:
                self._register_nominal(name, deps)
        hit = _dispatch(stmt, view)
        if hit is not None:
            rule = hit[0]
            self.queues[rule.tier].append(stmt)
            if rule.build is _star and rule.tier == _TIER_BRANCHING:
                self.eventualities.append((neg, minus, body, i))
        self._register_roles(stmt, view)
        return True

    def _check_closed(
        self, stmt: SignedFormula, deps: int, view: tuple, partner: Optional[SignedFormula]
    ) -> None:
        """Close the branch on a clash with stmt, an @-statement read in
        view whose mask is deps, recording the clash's mask; partner is
        stmt with the opposite mark, when built.  A statement never built
        was never inserted, since add registers all."""
        if self.closed:
            return
        i, neg, minus, body = view
        other = self.index.get(partner)
        if other is not None:
            reason = f"clash on {stmt}"
            deps |= other
        elif minus:
            if not (neg and isinstance(body, Bottom)):
                return
            reason = f"{stmt} denies verum"
        elif not neg and isinstance(body, Bottom):
            reason = f"{stmt} asserts falsum"
        elif neg and isinstance(body, Nominal) and body.name == i:
            reason = f"{stmt} denies self-equality"
        else:
            return
        self.closed, self.closed_reason, self.closed_deps = True, reason, deps

    # -- pair-rule bookkeeping

    def _enqueue_pair(self, task: _PairTask) -> None:
        self.queues[_TIER_PAIR].append(task)

    def _register_roles(self, stmt: SignedFormula, view: Optional[tuple]) -> None:
        f = stmt.formula
        if view is None:
            if not stmt.minus:
                self.raw_plain.append(stmt)
                for name in self.nominal_order:
                    self._enqueue_pair(_PairTask("at-intro", (stmt,), self.table(name, f)))
            return
        at = self.table
        i, neg, minus, body = view
        if isinstance(body, (Diamond, Box)) and isinstance(body.program, Atomic):
            key = (i, body.program.name, neg)
            if not _eventual(type(body), neg, minus):
                self.universals.setdefault(key + (minus,), []).append((body.body, stmt))
                for j, edge in self.edges.get(key, ()):
                    self._enqueue_pair(_pair_task(stmt, edge, body.body, j, neg, minus, at))
            elif not minus:
                j = _edge_target(neg, body)
                if j is not None:
                    self.edges.setdefault(key, []).append((j, stmt))
                    for premise_minus in (False, True):
                        for phi, premise in self.universals.get(key + (premise_minus,), ()):
                            self._enqueue_pair(
                                _pair_task(premise, stmt, phi, j, neg, premise_minus, at)
                            )
        if minus:
            return
        if not neg and isinstance(body, Nominal):
            self.equalities.setdefault(i, []).append(body.name)
            for lit in self.literals_at.get(i, []):
                self._enqueue_pair(
                    _PairTask("nom", (stmt, at(i, lit)), at(body.name, lit))
                )
        if isinstance(body, (PropVar, Nominal)) or _edge_target(neg, body) is not None:
            self.literals_at.setdefault(i, []).append(f.body)
            for j in self.equalities.get(i, []):
                self._enqueue_pair(
                    _PairTask("nom", (at(i, Nominal(j)), stmt), at(j, f.body))
                )

    # -- loop check

    def blockers_of(self, i: str) -> Iterator[str]:
        """The earlier nominals that include i, in order of occurrence: the
        ones whose decorated closure statements subsume i's."""
        cl_statements = self.cl_statements
        mine = cl_statements.get(i, _NONE)
        return (
            j for j in self.nominal_order[: self.position[i]] if mine <= cl_statements.get(j, _NONE)
        )

    def included_in(self, i: str, j: str) -> bool:
        """Whether i's decorated closure statements are subsumed by those of
        an earlier nominal j."""
        return i in self.position and j in self.blockers_of(i)

    def _is_blocked(self, stmt: SignedFormula) -> bool:
        # existential premises are @-statements
        return any(self.blockers_of(stmt.formula.nominal))

    # -- agenda

    def next_task(self, stats: Optional[ProofStats] = None):
        pairs, destructive, branching, existential = self.queues
        while pairs:
            task = pairs.popleft()
            if task.conclusion not in self.index:
                return task
        if destructive:
            return destructive.popleft()
        if branching:
            return branching.popleft()
        while existential:
            stmt = existential.popleft()
            if self._is_blocked(stmt):
                if stats is not None:
                    stats.blocked_existentials += 1
                self.parked.append(stmt)
                continue
            return stmt
        for pos, stmt in enumerate(self.parked):
            if not self._is_blocked(stmt):
                del self.parked[pos]
                return stmt
        return None

    def has_applicable(self) -> bool:
        pairs, destructive, branching, existential = self.queues
        if destructive or branching:
            return True
        for task in pairs:
            if task.conclusion not in self.index:
                return True
        for stmt in list(existential) + self.parked:
            if not self._is_blocked(stmt):
                return True
        return False

    # -- application

    def apply(
        self,
        task,
        next_branch_id: int,
        stats: Optional[ProofStats] = None,
        transcript: Optional[list[str]] = None,
    ) -> Optional["Branch"]:
        """Apply the rule instance task, which must be the one next_task
        just returned; returns the right sibling when the rule splits the
        branch."""
        if isinstance(task, _PairTask):
            deps = 0
            for premise in task.premises:
                deps |= self.index[premise]
            self.add(task.conclusion, deps)
            if transcript is not None:
                transcript.append(
                    f"[b{self.branch_id}] {task.rule}: "
                    + ", ".join(map(str, task.premises))
                    + f" ==> {task.conclusion}"
                )
            return None
        stmt = task
        rule, branches = self.table.conclude(stmt, self.fresh_nominal)
        if stats is not None and rule.build in _NAMING:
            stats.fresh_nominals += 1
        deps = self.index[stmt]
        if len(branches) == 1:
            for conclusion in branches[0]:
                self.add(conclusion, deps)
            if transcript is not None:
                transcript.append(
                    f"[b{self.branch_id}] {rule.name}: {stmt} ==> "
                    + "; ".join(map(str, branches[0]))
                )
            return None
        left, right = branches
        # Uninformative splits: when one side is already contained in the
        # branch, the branch coincides with that child, so no sibling is
        # needed (the case analysis the split stands for is realised).
        # Identical sides collapse to a plain addition.
        if all(c in self.index for c in left) or all(c in self.index for c in right):
            if transcript is not None:
                transcript.append(
                    f"[b{self.branch_id}] {rule.name}: {stmt} ==> (side already present)"
                )
            return None
        if left == right:
            for conclusion in left:
                self.add(conclusion, deps)
            if transcript is not None:
                transcript.append(
                    f"[b{self.branch_id}] {rule.name}: {stmt} ==> "
                    + "; ".join(map(str, left))
                    + " (identical sides)"
                )
            return None
        deps |= 1 << self.depth  # the new level's bit
        self.depth += 1
        sibling = self.copy(next_branch_id)
        for conclusion in left:
            self.add(conclusion, deps)
        for conclusion in right:
            sibling.add(conclusion, deps)
        if transcript is not None:
            transcript.append(
                f"[b{self.branch_id}] {rule.name}: {stmt} ==> "
                + "; ".join(map(str, left))
                + f"  -||-  [b{sibling.branch_id}] "
                + "; ".join(map(str, right))
            )
        return sibling


# ---------------------------------------------------------------------------
# Public single-step interface


def initialize(roots: Iterable[Union[SignedFormula, Formula]]) -> Branch:
    """The one-branch tableau holding the root formulas."""
    normalized = [
        r if isinstance(r, SignedFormula) else SignedFormula(r) for r in roots
    ]
    closure = fischer_ladner_closure(normalized)
    signature = Signature.of(normalized)
    fresh_start = 0
    for name in signature.nominals:
        m = _RESERVED.match(name)
        if m:
            fresh_start = max(fresh_start, int(m.group(1)) + 1)
    branch = Branch(closure, signature, fresh_start)
    for sf in normalized:
        branch.add(sf)
    if normalized and not signature.nominals and not any(sf.minus for sf in normalized):
        # Nothing would introduce a nominal, so at-intro would prefix the
        # roots nowhere: name one world for them.
        branch._register_nominal(branch.fresh_nominal(), 0)
    return branch


# ---------------------------------------------------------------------------
# Branch classification


def _ignorable_scan(branch: Branch) -> Optional[tuple[str, Formula, str]]:
    """Returns (kind, star formula, witness) for the first matching
    ignorable pattern, if any."""
    # A star eventuality @'i <α*>φ (or its dual under the decorations) is
    # fulfilled at j when @'j φ carries the same neg and the opposite mark.
    groups: dict[tuple[bool, bool, Formula], list[str]] = {}
    for neg, minus, body, i in branch.eventualities:
        groups.setdefault((neg, minus, body), []).append(i)
    for (neg, minus, body), nominals in groups.items():
        if all(branch.contains(branch.table(j, body.body, neg, not minus)) for j in nominals):
            kind = _RULES[(type(body), Star, neg, minus)].name
            return kind, Neg(body) if neg else body, nominals[0]
    return None


def classify(branch: Branch) -> BranchStatus:
    """Closed takes precedence; ignorable and open apply to terminal
    branches only; anything else is unfinished."""
    if branch.closed:
        return BranchStatus("closed")
    if branch.has_applicable():
        return BranchStatus("unfinished")
    hit = _ignorable_scan(branch)
    if hit is not None:
        kind, body, witness = hit
        return BranchStatus("ignorable", kind, body, witness)
    return BranchStatus("open")


# ---------------------------------------------------------------------------
# Model extraction


def extract_model(branch: Branch) -> Model:
    """Build a model from an open branch: quotient the unblocked nominals
    by the equality statements, read the relations off the relational
    literals (routing blocked targets to the nominal that includes them),
    and read valuations off the local literals.

    Blocked nominals are named at the world of an including nominal so
    the naming is total on every nominal the branch mentions."""
    nominals = branch.nominal_order
    sig = branch.signature
    if not nominals:
        return Model(
            frozenset(("w0",)),
            {a: frozenset() for a in sig.actions},
            {a: frozenset((("w0", "w0"),)) for a in sig.actions},
            {},
            {p: frozenset() for p in sig.propositions},
            {p: frozenset() for p in sig.propositions},
        )
    unblocked = [i for i in nominals if not any(branch.blockers_of(i))]
    position = branch.position
    # union-find over unblocked nominals, representative = earliest occurrence
    parent = {i: i for i in unblocked}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: str, y: str) -> None:
        rx, ry = find(x), find(y)
        if rx == ry:
            return
        if position[ry] < position[rx]:
            rx, ry = ry, rx
        parent[ry] = rx

    member = set(unblocked)
    for i in unblocked:
        for j in branch.equalities.get(i, []):
            if j in member:
                union(i, j)
    worlds = frozenset(find(i) for i in unblocked)
    naming: dict[str, str] = {}
    for i in nominals:
        if i in member:
            naming[i] = find(i)
        else:
            # route to the earliest unblocked nominal that includes i
            target = next((j for j in branch.blockers_of(i) if j in member), None)
            if target is None:
                raise TableauError(f"blocked nominal {i} has no unblocked includer")
            naming[i] = find(target)
    every_pair = frozenset((u, v) for u in worlds for v in worlds)
    pos_rel: dict[str, set[tuple[str, str]]] = {a: set() for a in sig.actions}
    neg_complement: dict[str, set[tuple[str, str]]] = {a: set() for a in sig.actions}
    for (i, action, neg), edges in branch.edges.items():
        if i not in member:
            continue
        target_rel = neg_complement if neg else pos_rel
        for x, _ in edges:
            if x in member:
                target_rel[action].add((find(i), find(x)))
            else:
                for j in branch.blockers_of(x):
                    if j in member:
                        target_rel[action].add((find(i), find(j)))
    neg_rel = {
        a: frozenset(every_pair - frozenset(neg_complement[a])) for a in sig.actions
    }
    pos_val: dict[str, set[str]] = {p: set() for p in sig.propositions}
    neg_val: dict[str, set[str]] = {p: set() for p in sig.propositions}
    for p in sig.propositions:
        var = PropVar(p)
        for i in unblocked:
            if branch.contains(branch.table(i, var)):
                pos_val[p].add(find(i))
            if branch.contains(branch.table(i, var, True)):
                neg_val[p].add(find(i))
    return Model(
        worlds,
        {a: frozenset(v) for a, v in pos_rel.items()},
        neg_rel,
        naming,
        {p: frozenset(v) for p, v in pos_val.items()},
        {p: frozenset(v) for p, v in neg_val.items()},
    )


# ---------------------------------------------------------------------------
# The prover


@_record(frozen=False)
class TableauResult:
    verdict: str  # proved | refuted | exhausted
    countermodel: Optional[Model] = None
    open_branch: Optional[Branch] = None
    stats: Optional[ProofStats] = None  # a fresh ProofStats when None
    transcript: Optional[list[str]] = None

    def __post_init__(self) -> None:
        if self.stats is None:
            self.stats = ProofStats()

    @property
    def proved(self) -> bool:
        return self.verdict == "proved"

    @property
    def refuted(self) -> bool:
        return self.verdict == "refuted"

    @property
    def exhausted(self) -> bool:
        return self.verdict == "exhausted"


def prove_from_roots(
    roots: Sequence[Union[SignedFormula, Formula]],
    limits: Optional[TableauLimits] = None,
    transcript: bool = False,
    verify: bool = True,
) -> TableauResult:
    """Saturate a tableau for the given signed roots.

    Proved means every branch ended closed or ignorable; refuted returns
    the model extracted from the first open branch (checked against every
    root unless verify is disabled); exhausted is only reachable by
    hitting the defensive limits.  A right sibling whose split the closures
    left of it do not rest on is pruned (see the module docstring)."""
    limits = limits or TableauLimits()
    lines: Optional[list[str]] = [] if transcript else None
    stats = ProofStats()
    started = time.monotonic()
    normalized = [
        r if isinstance(r, SignedFormula) else SignedFormula(r) for r in roots
    ]
    stack = [initialize(normalized)]
    # (level, mask of the left subtree) of each split whose right sibling
    # is being explored, innermost last; deps is the mask of the subtree
    # finished last.
    merges: list[tuple[int, int]] = []
    deps = 0
    next_branch_id = 1
    while stack:
        branch = stack.pop()
        level = branch.depth  # only right siblings are popped below the root
        if level:
            while merges and merges[-1][0] >= level:
                done, left = merges.pop()
                deps = (left | deps) & ~(1 << (done - 1))
            if not deps >> (level - 1) & 1:
                stats.pruned_branches += 1
                if lines is not None:
                    lines.append(
                        f"[b{branch.branch_id}] pruned: its sibling's closures"
                        f" do not rest on split level {level}"
                    )
                continue
            merges.append((level, deps))
        while True:
            if stats.steps >= limits.max_steps or (
                limits.time_limit is not None
                and time.monotonic() - started > limits.time_limit
            ):
                stats.elapsed = time.monotonic() - started
                return TableauResult("exhausted", stats=stats, transcript=lines)
            if branch.closed:
                stats.closed_branches += 1
                deps = branch.closed_deps
                if lines is not None:
                    lines.append(f"[b{branch.branch_id}] closed: {branch.closed_reason}")
                break
            task = branch.next_task(stats)
            if task is None:  # terminal, so classify's rescan is not needed
                hit = _ignorable_scan(branch)
                if hit is not None:
                    stats.ignorable_branches += 1
                    deps = (1 << branch.depth) - 1  # every split on its path
                    if lines is not None:
                        kind, body, witness = hit
                        lines.append(f"[b{branch.branch_id}] ignorable {kind} on {body} at {witness}")
                    break
                model = extract_model(branch)
                if verify:
                    for sf in normalized:
                        if not globally_satisfies(model, sf):
                            raise CountermodelError(
                                f"extracted model fails root {sf}"
                            )
                stats.elapsed = time.monotonic() - started
                return TableauResult("refuted", model, branch, stats, lines)
            stats.steps += 1
            sibling = branch.apply(task, next_branch_id, stats, lines)
            if sibling is not None:
                next_branch_id += 1
                stats.branches += 1
                stack.append(sibling)
    stats.elapsed = time.monotonic() - started
    return TableauResult("proved", stats=stats, transcript=lines)


def prove_consequence(
    hypotheses: Sequence[Formula],
    goal: Formula,
    limits: Optional[TableauLimits] = None,
    transcript: bool = False,
    verify: bool = True,
) -> TableauResult:
    """Decide whether goal is a global consequence of the hypotheses."""
    roots: list[SignedFormula] = [SignedFormula(h) for h in hypotheses]
    roots.append(SignedFormula(goal, minus=True))
    return prove_from_roots(roots, limits, transcript, verify)


def prove_validity(
    goal: Formula,
    limits: Optional[TableauLimits] = None,
    transcript: bool = False,
    verify: bool = True,
) -> TableauResult:
    """Validity is consequence from the empty set."""
    return prove_consequence([], goal, limits, transcript, verify)
