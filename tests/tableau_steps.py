"""The single-step interface to the prover and the definitional nominal
inclusion, kept beside the tests that use them: they drive saturation one
rule at a time and check the engine's incremental loop-check against the
definition."""
from __future__ import annotations

from pdl4.tableau import Branch, _stmt


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
