"""The centrality, semicentrality and laplace suites, each check decided by an
exact zero test that works row by row and expands no minor.

A combination sums, with coefficients in Z[q, q^-1], states of three kinds:
a minor [R|C], a left product X_g [R|C] and a right product [R|C] X_g.  Each
check of these suites asks whether such a combination is zero.  The test
answers without building any product of up to t! terms; a check it does not
find zero is built flat, through the minors module, whose difference decides
it and gives its witness.

Why it is exact.  A PBW monomial factors uniquely into its row parts: the
letters of row 1, then those of row 2, and so on.  So if every term of a
combination lies in rows >= r, and the combination is written as
sum_u u * F_u with u ranging over distinct monomials in row r and each F_u
lying in rows > r, then it is zero exactly when every F_u is zero.  Each state
splits that way, by regrouping its permutation sum along its first row
(inv(sigma) = b + inv(rest), b the 0-based position of the column that row
takes):

    [R|C] = sum_b (-q)^b X[r,c_b] [R - r | C - c_b],

and a generator in row r or below rides along: X_g X[r,c_b] straightens into
one row-r letter times a generator v in g's row, or into a row-r monomial
(the kernel's two-letter rule), and v stays in front of the sub-minor; a
generator below r on the right stays behind it.  This is the regrouping that
``minors._left`` and ``minors._right`` build products with, not a fitted law.
The mirror split takes the bottom row r, with (-q)^(t-1-b) and the row-r
letter as a suffix.  A state can always split at the top row unless it is a
right product whose generator lies in that row over a minor other than 1 or
[r|c] (then X_g would have to move up past the minor's lower rows); the
mirror holds at the bottom row for left products.  The test splits at the top
row while every state can, otherwise at the bottom row, and gives up
(answers None) when neither works; the suites never build such a combination.

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
from collections.abc import Callable

from .algebra import (
    COL_BITS, COL_MASK, EXP_BITS, AlgebraElement, Codes, Shape, _fold_gen, gen, gen_id, letter,
)
from .checks import IdentityCheck, check_zero
from .minors import (
    ROW_SHIFT, _factor, laplace_expand_col, laplace_expand_row, minor_commutator, qdet,
)
from . import laws

# X_left [rows|cols] X_right, a generator id or 0 on each side, at most one of
# them set.  A lone generator is a left state over the empty minor.
State = tuple[int, tuple[int, ...], tuple[int, ...], int]
Combination = dict[tuple[State, int], int]  # (state, q exponent) -> integer coefficient
Key = tuple[tuple[tuple[State, int], int], ...]
Piece = tuple[Codes, int, int, State]  # (u, e, c, rest): c q^e u rest, or c q^e rest u

ONE: State = (0, (), (), 0)


def _state(left: int, rows: tuple[int, ...], cols: tuple[int, ...], right: int) -> State:
    """The state, with a generator over the empty minor written on the left."""
    return (right, (), (), 0) if right and not rows else (left, rows, cols, right)


def _pair(a: int, b: int) -> list[tuple[Codes, int, int]]:
    """X_a X_b straightened, as (codes, e, c) triples."""
    return [(w, e, c) for (w, e), c in _fold_gen({((a << EXP_BITS | 1,), 0): 1}, b).items() if c]


def _top(state: State, r: int) -> list[Piece] | None:
    """The state as pieces (u, e, c, rest) with u in row r and rest in rows
    below it, by its first-row regrouping; None when it cannot split there."""
    left, rows, cols, right = state
    if right and right >> COL_BITS == r:
        if rows != (r,):
            return None
        return [(w, e, c, ONE) for w, e, c in _pair(gen_id(r, cols[0]), right)]
    if not rows or rows[0] != r:
        if left and left >> COL_BITS == r:
            return [((left << EXP_BITS | 1,), 0, 1, (0, rows, cols, 0))]
        return [((), 0, 1, state)]
    below = rows[1:]
    pieces = []
    for b, col in enumerate(cols):
        rest = cols[:b] + cols[b + 1:]
        sign = -1 if b & 1 else 1
        if not left:
            pieces.append(((letter(r, col),), b, sign, _state(0, below, rest, right)))
            continue
        for w, e, c in _pair(left, gen_id(r, col)):
            if w[-1] >> ROW_SHIFT <= r:  # w lies in row r
                pieces.append((w, b + e, sign * c, (0, below, rest, 0)))
            else:  # w = u v with v in the generator's row
                pieces.append((w[:1], b + e, sign * c, (w[1] >> EXP_BITS, below, rest, 0)))
    return pieces


def _bottom(state: State, r: int) -> list[Piece] | None:
    """The state as pieces (v, e, c, rest) with v in row r and rest in rows
    above it, by its last-row regrouping; None when it cannot split there."""
    left, rows, cols, right = state
    if left and left >> COL_BITS == r:
        if not rows:
            return [((left << EXP_BITS | 1,), 0, 1, ONE)]
        if rows != (r,):
            return None
        return [(w, e, c, ONE) for w, e, c in _pair(left, gen_id(r, cols[0]))]
    if not rows or rows[-1] != r:
        if right and right >> COL_BITS == r:
            return [((right << EXP_BITS | 1,), 0, 1, (0, rows, cols, 0))]
        return [((), 0, 1, state)]
    above, last = rows[:-1], len(rows) - 1
    pieces = []
    for b, col in enumerate(cols):
        rest = cols[:b] + cols[b + 1:]
        sign = -1 if (last - b) & 1 else 1
        if not right:
            pieces.append(((letter(r, col),), last - b, sign, (left, above, rest, 0)))
            continue
        for w, e, c in _pair(gen_id(r, col), right):
            if w[0] >> ROW_SHIFT >= r:  # w lies in row r
                pieces.append((w, last - b + e, sign * c, (0, above, rest, 0)))
            else:  # w = u v with u in the generator's row
                pieces.append((w[1:], last - b + e, sign * c,
                               _state(0, above, rest, w[0] >> EXP_BITS)))
    return pieces


def _rows(state: State) -> list[int]:
    left, rows, _, right = state
    g = left or right
    return [*rows, g >> COL_BITS] if g else list(rows)


def _pieces(side, states: set[State], r: int) -> dict[State, list[Piece]] | None:
    """Every state split at row r by ``_top`` or ``_bottom``, or None if one cannot."""
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

    def __init__(self):
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
        rows = [r for s in states for r in _rows(s)]
        pieces = _pieces(_top, states, min(rows)) or _pieces(_bottom, states, max(rows))
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

    def check(self, name: str, combination: Combination,
              flat: Callable[[], AlgebraElement]) -> IdentityCheck:
        """The check that the combination vanishes.  Unless the test finds it
        zero, the flat difference decides and gives the witness; a flat zero
        after a nonzero verdict means the two paths disagree."""
        verdict = self.is_zero(combination)
        if verdict:
            return IdentityCheck(name, True)
        self.flat_checks += 1
        check = check_zero(name, flat())
        if check.ok and verdict is False:
            raise AssertionError(f"{name}: the zero test found a nonzero combination "
                                 "whose flat difference vanishes")
        return check

    def counts(self) -> dict[str, int]:
        return {"zero_test_splits": self.splits, "zero_test_memo_hits": self.memo_hits,
                "flat_checks": self.flat_checks}


def commutator(g: int, rows: tuple[int, ...], cols: tuple[int, ...]) -> Combination:
    """[rows|cols] X_g - X_g [rows|cols]."""
    return _sum([(_state(0, rows, cols, g), 0, 1), ((g, rows, cols, 0), 0, -1)])


def expansion(shape: Shape, terms: list[laws.Term], left: bool,
              minus: laws.MinorKey | None = None) -> Combination:
    """The sum of a term table's products, from the scaled generators
    (-q)^e X[gen] the minors module multiplies its minors by, generators on
    the left or on the right; minus the minor ``minus`` when one is given."""
    entries = [((0, *minus, 0), 0, -1)] if minus else []
    for t in terms:
        (codes, coeff), = _factor(shape, t)._terms.items()
        g = codes[0] >> EXP_BITS
        state = (g, *t.minor, 0) if left else _state(0, *t.minor, g)
        entries.extend((state, e, c) for e, c in coeff._terms.items())
    return _sum(entries)


def _sum(entries) -> Combination:
    out: Combination = {}
    for state, e, c in entries:
        out[(state, e)] = out.get((state, e), 0) + c
    return out


# ---------------------------------------------------------------------------
# the suites
# ---------------------------------------------------------------------------

def _suite_centrality(shape: Shape, test: ZeroTest) -> list[IdentityCheck]:
    if shape.m != shape.n:
        raise ValueError("centrality of the determinant needs a square shape")
    full = tuple(range(1, shape.n + 1))
    return [
        test.check(f"det central vs X[{i},{j}]", commutator(gen_id(i, j), full, full),
                   lambda i=i, j=j: minor_commutator(gen(shape, i, j), full, full))
        for i, j in shape.generators()
    ]


def _suite_semicentrality(shape: Shape, test: ZeroTest) -> list[IdentityCheck]:
    checks = []
    for p in range(1, min(shape.m, shape.n) + 1):
        for rows in itertools.combinations(range(1, shape.m + 1), p):
            for cols in itertools.combinations(range(1, shape.n + 1), p):
                for i in rows:
                    for j in cols:
                        checks.append(test.check(
                            f"[{list(rows)}|{list(cols)}] vs X[{i},{j}]",
                            commutator(gen_id(i, j), rows, cols),
                            lambda i=i, j=j, rows=rows, cols=cols:
                                minor_commutator(gen(shape, i, j), rows, cols)))
    return checks


def _suite_laplace(shape: Shape, test: ZeroTest) -> list[IdentityCheck]:
    if shape.m != shape.n:
        raise ValueError("Laplace expansions need a square shape")
    full = tuple(range(1, shape.n + 1))
    zero = AlgebraElement.zero(shape)
    checks = []
    for name, table, left, flat in (
            ("row expansion i={}, coefficients from row {}", laws.row_terms, True, laplace_expand_row),
            ("column expansion j={}, coefficients from column {}", laws.col_terms, False,
             laplace_expand_col)):
        for a in full:
            for b in full:
                minus = (full, full) if a == b else None
                checks.append(test.check(
                    name.format(a, b), expansion(shape, table(full, full, a, b), left, minus),
                    lambda a=a, b=b, flat=flat: flat(shape, a, b) - (qdet(shape) if a == b else zero)))
    return checks


SUITES = {
    "centrality": _suite_centrality,
    "semicentrality": _suite_semicentrality,
    "laplace": _suite_laplace,
}


def check_by_rows(name: str, shape: Shape) -> tuple[list[IdentityCheck], dict[str, int]]:
    """One suite's checks, with one zero test for the run, and its counts."""
    test = ZeroTest()
    return SUITES[name](shape, test), test.counts()
