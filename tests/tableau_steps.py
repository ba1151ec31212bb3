"""The single-step interface to the prover, and the definitional nominal
inclusion and ignorable-branch scan, kept beside the tests that use them:
they drive saturation one rule at a time and check the engine's
incremental loop-check and eventuality record against the definitions."""
from __future__ import annotations

from typing import Optional

from pdl4.syntax import At, Box, Diamond, Formula, Neg, Star
from pdl4.tableau import _RULES, Branch, _eventual, _stmt, _view


def apply_rules_step(branch: Branch) -> list[Branch]:
    """Apply one admissible rule instance under the construction
    restrictions; returns the successor branches (the input branch is
    advanced in place, plus a sibling on splits).  Returns just the branch
    when nothing is applicable."""
    task = branch.next_task()
    if task is None:
        return [branch]
    sibling = branch.apply(task, branch.branch_id + 1)
    return [branch] if sibling is None else [branch, sibling]


def inclusion(i: str, j: str, branch: Branch) -> bool:
    """Definitional nominal inclusion: every decorated closure statement
    at i also holds at j, and j appeared first.  (The engine's loop-check
    uses an incrementally maintained equivalent.)"""
    if i not in branch.generation or j not in branch.generation:
        return False
    if i == j or branch.first_occurrence(j) >= branch.first_occurrence(i):
        return False
    for psi in branch.closure:
        for neg in (False, True):
            for minus in (False, True):
                if branch.contains(_stmt(i, psi, neg, minus)) and not branch.contains(
                    _stmt(j, psi, neg, minus)
                ):
                    return False
    return True


def ignorable_rescan(branch: Branch) -> Optional[tuple[str, Formula, str]]:
    """Definitional ignorable-branch scan: read every statement of the
    branch for star eventualities, group them by decorated formula, and
    report the first group unfulfilled at all of its nominals.  (The engine
    reads a record its insertions keep.)"""
    groups: dict[tuple[bool, bool, Formula], list[str]] = {}
    for bf in branch.formulas:
        if not isinstance(bf.statement.formula, At):
            continue
        i, neg, minus, body = _view(bf.statement)
        if (
            isinstance(body, (Diamond, Box))
            and isinstance(body.program, Star)
            and _eventual(type(body), neg, minus)
        ):
            groups.setdefault((neg, minus, body), []).append(i)
    for (neg, minus, body), nominals in groups.items():
        if all(branch.contains(_stmt(j, body.body, neg, not minus)) for j in nominals):
            kind = _RULES[(type(body), Star, neg, minus)].name
            return kind, Neg(body) if neg else body, nominals[0]
    return None
