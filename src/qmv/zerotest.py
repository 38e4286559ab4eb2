"""The centrality, semicentrality and laplace suites, each check decided by an
exact zero test that works row by row and expands no minor.

Each check of these suites asks whether a combination of minors, left
products X_g [R|C] and right products [R|C] X_g is zero (the minors module's
states).  The test answers without building any product of up to t! terms; a
check it does not find zero is built flat by ``minors.flat``, whose difference
decides it and gives its witness.

Why it is exact.  A PBW monomial factors uniquely into its row parts: the
letters of row 1, then those of row 2, and so on.  So if every term of a
combination lies in rows >= r, and the combination is written as
sum_u u * F_u with u ranging over distinct monomials in row r and each F_u
lying in rows > r, then it is zero exactly when every F_u is zero.
``minors.top`` writes each state that way, and ``minors.bottom`` does the
mirror along the bottom row.  The test splits at the top row while every
state can, otherwise at the bottom row, and gives up (answers None) when
neither works; the suites never build such a combination.

Each group F_u is normalized before it is looked up in the memo: its rows and
columns compress to their ranks, and it is divided by the unit +-q^e that
makes its lowest q exponent 0 and its first coefficient positive.  Rank
compression is the order-pattern map X[i,j] -> X[rho(i), gamma(j)] of the
patterns module, an injective algebra map that sends PBW monomials to PBW
monomials, minors to minors and the rewriting rules to themselves; a unit
changes no zero.  So equal normal forms are zero together.
"""

from __future__ import annotations

import itertools

from .algebra import COL_BITS, COL_MASK, Codes, Shape, gen_id
from .checks import IdentityCheck, check_zero
from .minors import (
    ONE, Combination, Piece, State, bottom, commutator, flat, state_rows, table_combination, top,
)
from . import laws

Key = tuple[tuple[tuple[State, int], int], ...]


def _pieces(side, states: set[State], r: int) -> dict[State, list[Piece]] | None:
    """Every state split at row r by ``top`` or ``bottom``, or None if one cannot."""
    out = {}
    for s in states:
        out[s] = side(s, r)
        if out[s] is None:
            return None
    return out


def _normal_form(combination: Combination) -> Key:
    """The combination with its rows and columns compressed to their ranks,
    divided by the unit +-q^e that makes its lowest q exponent 0 and its first
    coefficient positive, as a sorted tuple of its nonzero terms."""
    states = {s for s, _ in combination}
    row_set, col_set = set(), set()
    for left, rows, cols, right in states:
        row_set.update(rows)
        col_set.update(cols)
        g = left or right
        if g:
            row_set.add(g >> COL_BITS)
            col_set.add(g & COL_MASK)
    rho = {r: a for a, r in enumerate(sorted(row_set), 1)}
    gamma = {c: b for b, c in enumerate(sorted(col_set), 1)}
    if any(a != r for r, a in rho.items()) or any(b != c for c, b in gamma.items()):
        row, col = rho.__getitem__, gamma.__getitem__
        move = lambda g: gen_id(row(g >> COL_BITS), col(g & COL_MASK)) if g else 0
        renamed = {s: (move(s[0]), tuple(map(row, s[1])), tuple(map(col, s[2])), move(s[3]))
                   for s in states}
        items = sorted(((renamed[s], e), c) for (s, e), c in combination.items())
    else:
        items = sorted(combination.items())
    e0 = min(e for (_, e), _ in items)
    sign = 1 if items[0][1] > 0 else -1
    return tuple(((s, e - e0), sign * c) for (s, e), c in items)


class ZeroTest:
    """Decides combinations exactly, with one memo of normal forms; keep one
    per suite run."""

    def __init__(self, shape: Shape):
        self.shape = shape
        self.memo: dict[Key, bool | None] = {}
        self.splits = 0
        self.memo_hits = 0
        self.flat_checks = 0

    def is_zero(self, combination: Combination) -> bool | None:
        """True when the combination is zero, False when it is not, and None
        when some group can split at neither its top nor its bottom row."""
        combination = {k: c for k, c in combination.items() if c}
        return self._decide(_normal_form(combination)) if combination else True

    def _decide(self, key: Key) -> bool | None:
        if key in self.memo:
            self.memo_hits += 1
            return self.memo[key]
        self.splits += 1
        self.memo[key] = verdict = self._split(key)
        return verdict

    def _split(self, key: Key) -> bool | None:
        states = {s for (s, _), _ in key}
        if states == {ONE}:
            return False  # a nonzero scalar
        rows = [r for s in states for r in state_rows(s)]
        pieces = _pieces(top, states, min(rows)) or _pieces(bottom, states, max(rows))
        if pieces is None:
            return None
        groups: dict[Codes, Combination] = {}
        for (s, e), c in key:
            for u, e2, c2, rest in pieces[s]:
                group = groups.setdefault(u, {})
                k = (rest, e + e2)
                group[k] = group.get(k, 0) + c * c2
        verdict = True
        for group in groups.values():
            group = {k: c for k, c in group.items() if c}
            if group:
                got = self._decide(_normal_form(group))
                if got is False:
                    return False
                if got is None:
                    verdict = None
        return verdict

    def check(self, name: str, combination: Combination) -> IdentityCheck:
        """The check that the combination vanishes.  Unless the test finds it
        zero, the combination built flat decides and gives the witness; a flat
        zero after a nonzero verdict means the two paths disagree."""
        verdict = self.is_zero(combination)
        if verdict:
            return IdentityCheck(name, True)
        self.flat_checks += 1
        check = check_zero(name, flat(self.shape, combination))
        if check.ok and verdict is False:
            raise AssertionError(f"{name}: the zero test found a nonzero combination "
                                 "whose flat difference vanishes")
        return check

    def counts(self) -> dict[str, int]:
        return {"zero_test_splits": self.splits, "zero_test_memo_hits": self.memo_hits,
                "flat_checks": self.flat_checks}


# ---------------------------------------------------------------------------
# the suites
# ---------------------------------------------------------------------------

def _suite_centrality(shape: Shape, test: ZeroTest) -> list[IdentityCheck]:
    if shape.m != shape.n:
        raise ValueError("centrality of the determinant needs a square shape")
    full = tuple(range(1, shape.n + 1))
    return [test.check(f"det central vs X[{i},{j}]", commutator(gen_id(i, j), full, full))
            for i, j in shape.generators()]


def _suite_semicentrality(shape: Shape, test: ZeroTest) -> list[IdentityCheck]:
    checks = []
    for p in range(1, min(shape.m, shape.n) + 1):
        for rows in itertools.combinations(range(1, shape.m + 1), p):
            for cols in itertools.combinations(range(1, shape.n + 1), p):
                for i in rows:
                    for j in cols:
                        checks.append(test.check(f"[{list(rows)}|{list(cols)}] vs X[{i},{j}]",
                                                 commutator(gen_id(i, j), rows, cols)))
    return checks


def _suite_laplace(shape: Shape, test: ZeroTest) -> list[IdentityCheck]:
    if shape.m != shape.n:
        raise ValueError("Laplace expansions need a square shape")
    full = tuple(range(1, shape.n + 1))
    checks = []
    for name, table, left in (
            ("row expansion i={}, coefficients from row {}", laws.row_terms, True),
            ("column expansion j={}, coefficients from column {}", laws.col_terms, False)):
        for a in full:
            for b in full:
                minus = (full, full) if a == b else None
                checks.append(test.check(name.format(a, b), table_combination(
                    shape, table(full, full, a, b), left, minus)))
    return checks


SUITES = {
    "centrality": _suite_centrality,
    "semicentrality": _suite_semicentrality,
    "laplace": _suite_laplace,
}


def check_by_rows(name: str, shape: Shape) -> tuple[list[IdentityCheck], dict[str, int]]:
    """One suite's checks, with one zero test for the run, and its counts."""
    test = ZeroTest(shape)
    return SUITES[name](shape, test), test.counts()
