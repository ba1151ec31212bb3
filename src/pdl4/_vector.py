"""Vectorised satisfaction over blocks of exhaustive model indices, the
oracle's scan path for large world counts.  This is the only module that
uses numpy; the oracle imports it only when it takes the vector path."""
from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .oracle import _radices
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
)


class _VectorBlock:
    """Satisfaction sets, as per-world bitmasks, for a contiguous block of
    exhaustive model indices at a fixed world count."""

    def __init__(self, sig: Signature, n: int, indices: np.ndarray, rows_table: np.ndarray):
        self.n = n
        self.full = (1 << n) - 1
        radii = _radices(sig, n)
        place = [0] * len(radii)
        acc = 1
        for k in range(len(radii) - 1, -1, -1):
            place[k] = acc
            acc *= radii[k]
        components = [
            (indices // place[k]) % radii[k] for k in range(len(radii))
        ]
        it = iter(components)
        self.nominal_world = {i: next(it).astype(np.int64) for i in sorted(sig.nominals)}
        pair_full = (1 << (n * n)) - 1
        self.pos_rows: dict[str, np.ndarray] = {}
        self.negc_rows: dict[str, np.ndarray] = {}
        for a in sorted(sig.actions):
            pos_mask = next(it)
            neg_mask = next(it)
            self.pos_rows[a] = rows_table[pos_mask]
            self.negc_rows[a] = rows_table[pair_full ^ neg_mask]
        self.pos_val: dict[str, np.ndarray] = {}
        self.neg_val: dict[str, np.ndarray] = {}
        for p in sorted(sig.propositions):
            self.pos_val[p] = next(it).astype(np.uint16)
            self.neg_val[p] = next(it).astype(np.uint16)
        self.size = len(indices)
        self._sat_cache: dict[tuple[Formula, bool], np.ndarray] = {}
        self._prog_cache: dict[tuple[Program, bool], np.ndarray] = {}

    # relation rows, shape (size, n), row w at column w

    def _identity_rows(self) -> np.ndarray:
        rows = np.empty((self.size, self.n), dtype=np.uint16)
        for w in range(self.n):
            rows[:, w] = 1 << w
        return rows

    def _compose_rows(self, r1: np.ndarray, r2: np.ndarray) -> np.ndarray:
        out = np.zeros_like(r1)
        for w in range(self.n):
            row = out[:, w]
            for u in range(self.n):
                hit = ((r1[:, w] >> u) & 1).astype(bool)
                row |= np.where(hit, r2[:, u], 0).astype(np.uint16)
        return out

    def _star_rows(self, rows: np.ndarray) -> np.ndarray:
        closure = rows | self._identity_rows()
        # squaring twice covers all paths for domains of up to four worlds
        for _ in range(max(1, (self.n - 1).bit_length())):
            closure = closure | self._compose_rows(closure, closure)
        return closure

    def prog_rows(self, program: Program, negative: bool) -> np.ndarray:
        key = (program, negative)
        hit = self._prog_cache.get(key)
        if hit is not None:
            return hit
        if isinstance(program, Atomic):
            table = self.negc_rows if negative else self.pos_rows
            out = table[program.name]
        elif isinstance(program, Seq):
            out = self._compose_rows(
                self.prog_rows(program.first, negative),
                self.prog_rows(program.second, negative),
            )
        elif isinstance(program, Choice):
            out = self.prog_rows(program.left, negative) | self.prog_rows(
                program.right, negative
            )
        elif isinstance(program, Star):
            out = self._star_rows(self.prog_rows(program.body, negative))
        elif isinstance(program, Test):
            cond = program.condition
            hold = (
                (self.full ^ self.sat(cond, True)) & self.full
                if negative
                else self.sat(cond, False)
            )
            out = np.zeros((self.size, self.n), dtype=np.uint16)
            for w in range(self.n):
                out[:, w] = ((hold >> w) & 1) << w
        else:
            raise TypeError(f"not a program: {program!r}")
        self._prog_cache[key] = out
        return out

    # satisfaction masks

    def sat(self, f: Formula, negated: bool) -> np.ndarray:
        key = (f, negated)
        hit = self._sat_cache.get(key)
        if hit is not None:
            return hit
        out = self._sat_neg(f) if negated else self._sat(f)
        self._sat_cache[key] = out
        return out

    def _at_broadcast(self, values: np.ndarray, nominal: str) -> np.ndarray:
        bit = (values >> self.nominal_world[nominal]) & 1
        return np.where(bit.astype(bool), self.full, 0).astype(np.uint16)

    def _diamond(self, rows: np.ndarray, body: np.ndarray) -> np.ndarray:
        out = np.zeros(self.size, dtype=np.uint16)
        for w in range(self.n):
            hit = (rows[:, w] & body) != 0
            out |= (hit.astype(np.uint16)) << w
        return out

    def _box(self, rows: np.ndarray, body: np.ndarray) -> np.ndarray:
        out = np.zeros(self.size, dtype=np.uint16)
        missing = (self.full ^ body) & self.full
        for w in range(self.n):
            ok = (rows[:, w] & missing) == 0
            out |= (ok.astype(np.uint16)) << w
        return out

    def _sat(self, f: Formula) -> np.ndarray:
        if isinstance(f, PropVar):
            return self.pos_val[f.name]
        if isinstance(f, Nominal):
            return (np.uint16(1) << self.nominal_world[f.name]).astype(np.uint16)
        if isinstance(f, Bottom):
            return np.zeros(self.size, dtype=np.uint16)
        if isinstance(f, And):
            return self.sat(f.left, False) & self.sat(f.right, False)
        if isinstance(f, Or):
            return self.sat(f.left, False) | self.sat(f.right, False)
        if isinstance(f, Implies):
            return ((self.full ^ self.sat(f.left, False)) | self.sat(f.right, False)) & np.uint16(self.full)
        if isinstance(f, At):
            return self._at_broadcast(self.sat(f.body, False), f.nominal)
        if isinstance(f, Diamond):
            return self._diamond(self.prog_rows(f.program, False), self.sat(f.body, False))
        if isinstance(f, Box):
            return self._box(self.prog_rows(f.program, False), self.sat(f.body, False))
        if isinstance(f, Neg):
            return self.sat(f.body, True)
        raise TypeError(f"not a formula: {f!r}")

    def _sat_neg(self, f: Formula) -> np.ndarray:
        if isinstance(f, PropVar):
            return self.neg_val[f.name]
        if isinstance(f, Nominal):
            return (np.uint16(self.full) ^ (np.uint16(1) << self.nominal_world[f.name])).astype(np.uint16)
        if isinstance(f, Bottom):
            return np.full(self.size, self.full, dtype=np.uint16)
        if isinstance(f, Neg):
            return self.sat(f.body, False)
        if isinstance(f, And):
            return self.sat(f.left, True) | self.sat(f.right, True)
        if isinstance(f, Or):
            return self.sat(f.left, True) & self.sat(f.right, True)
        if isinstance(f, Implies):
            return ((self.full ^ self.sat(f.left, True)) & self.sat(f.right, True)) & np.uint16(self.full)
        if isinstance(f, At):
            return self._at_broadcast(self.sat(f.body, True), f.nominal)
        if isinstance(f, Diamond):
            return self._box(self.prog_rows(f.program, True), self.sat(f.body, True))
        if isinstance(f, Box):
            return self._diamond(self.prog_rows(f.program, True), self.sat(f.body, True))
        raise TypeError(f"not a formula: {f!r}")

    def holds_globally(self, sf: SignedFormula) -> np.ndarray:
        everywhere = self.sat(sf.formula, False) == self.full
        return ~everywhere if sf.minus else everywhere


def _rows_table(n: int) -> np.ndarray:
    masks = np.arange(1 << (n * n), dtype=np.int64)
    table = np.empty((1 << (n * n), n), dtype=np.uint16)
    for u in range(n):
        table[:, u] = (masks >> (u * n)) & ((1 << n) - 1)
    return table


def _vector_first_match(
    roots: Sequence[SignedFormula], sig: Signature, n: int, total: int
) -> Optional[int]:
    rows_table = _rows_table(n)
    chunk = 1 << 19
    for start in range(0, total, chunk):
        indices = np.arange(start, min(start + chunk, total), dtype=np.int64)
        block = _VectorBlock(sig, n, indices, rows_table)
        good = np.ones(len(indices), dtype=bool)
        for sf in roots:
            good &= block.holds_globally(sf)
            if not good.any():
                break
        hits = np.flatnonzero(good)
        if len(hits):
            return start + int(hits[0])
    return None
