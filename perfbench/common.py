"""Pieces shared by the workloads: the text format of generated problem
lists, the failure signal, the tail percentile and the in-memory tracer."""
from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


# Workload name -> module in this directory.
WORKLOADS = {
    "prove-corpus": "prove_corpus",
    "oracle-exhaustive": "oracle_exhaustive",
    "check-deep": "check_deep",
    "cli": "cli_commands",
}


class OpFailed(Exception):
    """An operation did not produce an answer: a resource limit was hit or
    the program raised one of its own defect errors."""


# ---------------------------------------------------------------------------
# Generated text files.  A problem list has one problem per line, fields
# separated by tabs: an id, a tag, the goal formula, then the hypotheses.


def write_problems(path: Path, problems) -> None:
    """problems: iterable of (id, tag, goal text, [hypothesis texts])."""
    with open(path, "w", encoding="utf-8") as handle:
        for pid, tag, goal, hyps in problems:
            handle.write("\t".join([pid, tag, goal, *hyps]) + "\n")


def read_problems(path: Path) -> list[tuple[str, str, str, list[str]]]:
    out = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        pid, tag, goal, *hyps = line.split("\t")
        out.append((pid, tag, goal, hyps))
    return out


# Operations that lie beyond the tail latency in every run.
TAIL_BEYOND = 10


def tail(sorted_values) -> tuple[float, float]:
    """The highest nearest-rank percentile with TAIL_BEYOND samples beyond
    it, and its value, of an ascending list."""
    rank = len(sorted_values) - TAIL_BEYOND
    return 100 * rank / len(sorted_values), sorted_values[rank - 1]


# ---------------------------------------------------------------------------
# Tracing


class Tracer:
    """Spans (name, start, end, parent span, operation id) and counts, kept
    in memory and written out once at the end of a traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, op: str | None = None):
        parent = self._open[-1] if self._open else None
        if op is None and parent is not None:
            op = self.spans[parent][4]
        record = [name, time.perf_counter(), None, parent, op]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            self._open.pop()
            record[2] = time.perf_counter()

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def seconds(self, name: str, op: str | None = None) -> float:
        """Summed duration of the spans with this name (and operation)."""
        return sum(
            end - start
            for span_name, start, end, _, span_op in self.spans
            if span_name == name and (op is None or span_op == op)
        )

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent, "op": op}
                ) + "\n")
            handle.write(json.dumps({"counts": self.counts}) + "\n")
