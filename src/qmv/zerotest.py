"""The centrality, semicentrality, laplace, cor22 and thm21 suites, each check
decided by an exact zero test that works row by row and expands no minor.

Each check of these suites asks whether a combination of states L [R|C] W,
PBW words beside a minor (the minors module's states), is zero.  The test
answers without building any product of up to t! terms; a check it does not
find zero is built, and the built difference decides it and gives its witness.

Why it is exact.  A PBW monomial factors uniquely into its row parts: the
letters of row 1, then those of row 2, and so on.  So if every term of a
combination lies in rows >= r, and the combination is written as
sum_u u * F_u with u ranging over distinct monomials in row r and each F_u
lying in rows > r, then it is zero exactly when every F_u is zero.
``minors.top`` writes each state that way: L [R|C] W is the sum over b of
+-(-q)^b L X[r,c_b] [R - r | C - c_b] W, each word of L X[r,c_b] is its row-r
prefix times a word below row r, which stays in front of the sub-minor, and W
stays behind it.  That needs W to lie below row r: a row-r letter of W over a
minor would have to move up past the minor's lower rows, which rewrites the
minor, so such a state blocks the split.  ``minors.bottom`` does the mirror
along the bottom row, blocked by a row-r letter of L over a minor; a pure word
always splits.  The test splits at the top row while every state can,
otherwise at the bottom row, and gives up (answers None) when neither works;
the checks of these suites never meet that case.

Each group F_u is normalized before it is looked up in the memo: its rows and
columns, those of its words' letters included, compress to their ranks, and
it is divided by the unit +-q^e that makes its lowest q exponent 0 and the
coefficient of its least term positive.  Rank compression is the order-pattern map
X[i,j] -> X[rho(i), gamma(j)] of the patterns module, an injective algebra map
that sends PBW monomials to PBW monomials, minors to minors and the rewriting
rules to themselves; a unit changes no zero.  So equal normal forms are zero
together.  A normal form's rows are 1, 2, ..., so its states recur from check
to check, and each state is split at a row once per run.

The cor22 and thm21 checks are Cor 2.2 of the source paper, whose sides are
localized; ``DerivedMinors`` proves it by an induction whose steps are word
combinations, and a check it cannot prove is built by the localize module's
builder, as the check was before.
"""

from __future__ import annotations

import itertools

from .algebra import COL_BITS, COL_MASK, EXP_BITS, EXP_MASK, Codes, Shape, gen_id, letter
from .checks import IdentityCheck, check_zero
from .localize import (
    check_det_reduction, check_minor_reduction, det_reduction_names, reduction_names,
)
from .minors import (
    ONE, ROW_SHIFT, Combination, Piece, State, bottom, check_term_count, combination, commutator,
    flat, product, span, table_combination, top,
)
from . import laws

Key = frozenset[tuple[tuple[State, int], int]]
_UNSEEN = object()  # a key the memo does not hold yet


def _normal_form(combination: Combination) -> Key:
    """The combination with its rows and columns compressed to their ranks,
    divided by the unit +-q^e that makes its lowest q exponent 0 and the
    coefficient of its least term positive, as a frozenset of its nonzero
    terms (which caches its hash for the memo)."""
    states = {s for s, _ in combination}
    row_set, col_set, codes = set(), set(), set()
    for left, rows, cols, right in states:
        row_set.update(rows)
        col_set.update(cols)
        if left:
            codes.update(left)
        if right:
            codes.update(right)
    for x in codes:
        row_set.add(x >> ROW_SHIFT)
        col_set.add(x >> EXP_BITS & COL_MASK)
    if max(row_set, default=0) != len(row_set) or max(col_set, default=0) != len(col_set):
        rho = {r: a for a, r in enumerate(sorted(row_set), 1)}
        gamma = {c: b for b, c in enumerate(sorted(col_set), 1)}
        row, col = rho.__getitem__, gamma.__getitem__
        moved = {x: (rho[x >> ROW_SHIFT] << COL_BITS | gamma[x >> EXP_BITS & COL_MASK]) << EXP_BITS
                 | x & EXP_MASK for x in codes}.__getitem__
        renamed = {s: (s[0] and tuple(map(moved, s[0])), tuple(map(row, s[1])),
                       tuple(map(col, s[2])), s[3] and tuple(map(moved, s[3]))) for s in states}
        items = [((renamed[s], e), c) for (s, e), c in combination.items()]
    else:
        items = combination.items()
    e0 = min(e for (_, e), _ in items)
    sign = 1 if min(items)[1] > 0 else -1
    return frozenset(((s, e - e0), sign * c) for (s, e), c in items)


class ZeroTest:
    """Decides combinations exactly, with one memo of normal forms and one of
    state splits; keep one per suite run."""

    def __init__(self, shape: Shape):
        self.shape = shape
        self.memo: dict[Key, bool | None] = {}
        self.cuts: dict[tuple, list[Piece] | None] = {}
        self.splits = 0
        self.memo_hits = 0
        self.flat_checks = 0

    def is_zero(self, combination: Combination) -> bool | None:
        """True when the combination is zero, False when it is not, and None
        when some group can split at neither its top nor its bottom row."""
        combination = {k: c for k, c in combination.items() if c}
        return self._decide(_normal_form(combination)) if combination else True

    def _decide(self, key: Key) -> bool | None:
        verdict = self.memo.get(key, _UNSEEN)
        if verdict is not _UNSEEN:
            self.memo_hits += 1
            return verdict
        self.splits += 1
        self.memo[key] = verdict = self._split(key)
        return verdict

    def _pieces(self, side, states: set[State], r: int) -> dict[State, list[Piece]] | None:
        """Every state split at row r by ``top`` or ``bottom``, each split made
        once per run, or None if one cannot."""
        out = {}
        for s in states:
            cut = (side, s, r)
            pieces = self.cuts.get(cut, _UNSEEN)
            if pieces is _UNSEEN:
                pieces = self.cuts[cut] = side(s, r)
            if pieces is None:
                return None
            out[s] = pieces
        return out

    def _split(self, key: Key) -> bool | None:
        states = {s for (s, _), _ in key}
        if states == {ONE}:
            return False  # a nonzero scalar
        # a normal form's rows are 1, 2, ..., its highest
        pieces = (self._pieces(top, states, 1)
                  or self._pieces(bottom, states, max(span(s)[1] for s in states if s != ONE)))
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


def _sign(k: int) -> int:
    """(-1)^k, so that (-q)^k is the term sign(k) q^k."""
    return -1 if k & 1 else 1


class DerivedMinors:
    """Cor 2.2, [R|C]' = (-q)^-s [1 u R | C u n] X[1,n]^-1 with s = |R|, for the
    derived minors of one suite run, by induction with its zero test.

    ``localize.x_prime_minor`` builds [R|C]' as sum_t (-q)^e_t X'[r1,c_t]
    [R_t|C_t]' over ``laws.row_terms(R, C, 1, r1)``, with X'[r,c] =
    (X[r,c] X[1,n] - q^-1 X[1,c] X[r,n]) X[1,n]^-1.  Write M_t for the
    enlarged minor [1 u R_t | C_t u n].  If Cor 2.2 holds for every [R_t|C_t]'
    and X[1,n] commutes with every M_t, then X[1,n]^-1 M_t = M_t X[1,n]^-1,
    and Cor 2.2 holds for [R|C]' exactly when its step vanishes (multiply on
    the right by X[1,n]^2, which is invertible there):

        sum_t (-q)^(e_t - s + 1) (X[r1,c_t] X[1,n] - q^-1 X[1,c_t] X[r1,n]) M_t
          - (-q)^-s [1 u R | C u n] X[1,n]

    For s = 1 it holds exactly when X[r,c] X[1,n] - q^-1 X[1,c] X[r,n] +
    q^-1 [1,r|c,n] vanishes, lemma111's two forms of X'[r,c].  Steps and
    commutations are word-state combinations, so the zero test decides them
    and no derived minor is built."""

    def __init__(self, test: ZeroTest):
        self.test = test
        self.n = test.shape.n
        self.corner = (letter(1, self.n),)
        self.steps: dict[laws.MinorKey, tuple[bool | None, bool]] = {}
        self.commuting: dict[laws.MinorKey, bool | None] = {}

    def _numerator(self, r: int, c: int, k: int, big: laws.MinorKey) -> list:
        """The entries of (-q)^k (X[r,c] X[1,n] - q^-1 X[1,c] X[r,n]) [big]."""
        words = [*product((letter(r, c),), self.corner),
                 *((w, e - 1, -c2) for w, e, c2 in product((letter(1, c),), (letter(r, self.n),)))]
        sign = _sign(k)
        return [(w, *big, (), k + e, sign * c2) for w, e, c2 in words]

    def step(self, rows: tuple[int, ...], cols: tuple[int, ...]) -> tuple[bool | None, bool]:
        """The zero test's verdict on the step of [rows|cols]', and whether
        every prerequisite was found zero: Cor 2.2 for each [R_t|C_t]' and X[1,n]
        commuting with each M_t.  The step is decided only when they were."""
        key = (rows, cols)
        if key not in self.steps:
            n = self.n
            if len(rows) == 1:
                entries = self._numerator(rows[0], cols[0], 0, ((), ()))
                entries.append(((), (1, rows[0]), (cols[0], n), (), -1, 1))
                self.steps[key] = self.test.is_zero(combination(entries)), True
            else:
                s, terms = len(rows), laws.row_terms(rows, cols, 1, rows[0])
                if all(self.holds(*t.minor) and self.commutes(*t.minor) for t in terms):
                    entries = [((), (1,) + rows, cols + (n,), self.corner, -s, -_sign(s))]
                    for t in terms:
                        entries += self._numerator(rows[0], t.gen[1], t.exponent - s + 1,
                                                   ((1,) + t.minor[0], t.minor[1] + (n,)))
                    self.steps[key] = self.test.is_zero(combination(entries)), True
                else:
                    self.steps[key] = None, False
        return self.steps[key]

    def holds(self, rows: tuple[int, ...], cols: tuple[int, ...]) -> bool:
        """Whether Cor 2.2 was shown for [rows|cols]'."""
        step, prerequisites = self.step(rows, cols)
        return bool(step and prerequisites)

    def commutes(self, rows: tuple[int, ...], cols: tuple[int, ...]) -> bool | None:
        """The zero test's verdict on X[1,n] commuting with [1 u rows | cols u n]."""
        key = (rows, cols)
        if key not in self.commuting:
            self.commuting[key] = self.test.is_zero(
                commutator(gen_id(1, self.n), (1,) + rows, cols + (self.n,)))
        return self.commuting[key]

    def checks(self, rows: tuple[int, ...], cols: tuple[int, ...], names: list[str],
               build) -> list[IdentityCheck]:
        """Cor 2.2 at [rows|cols]' times X[1,n] on the right, then on the left.
        Both pass when it holds and X[1,n] commutes with its enlarged minor;
        otherwise ``build()`` builds both and gives the witnesses.  A built
        right check that passes although its step was found nonzero on zero
        prerequisites, or a left one when the commutation was found zero too,
        means the two paths disagree."""
        if self.holds(rows, cols) and self.commutes(rows, cols):
            return [IdentityCheck(name, True) for name in names]
        checks = build()
        self.test.flat_checks += len(checks)
        step, prerequisites = self.step(rows, cols)
        if step is False and prerequisites and (
                checks[0].ok or self.commutes(rows, cols) and checks[1].ok):
            raise AssertionError(f"{checks[0].name}: the zero test found a nonzero step "
                                 "whose built reduction holds")
        return checks


def _suite_cor22(shape: Shape, test: ZeroTest, t: int | None = None) -> list[IdentityCheck]:
    sizes = [t] if t else list(range(2, min(shape.m, shape.n) + 1))
    for p in sizes:
        check_term_count(p)
    derived, n = DerivedMinors(test), shape.n
    checks = []
    for p in sizes:
        for rows in itertools.combinations(range(2, shape.m + 1), p - 1):
            for cols in itertools.combinations(range(1, n), p - 1):
                big = ((1,) + rows, cols + (n,))
                checks += derived.checks(rows, cols, reduction_names(shape, *big),
                                         lambda: check_minor_reduction(shape, *big))
    return checks


def _suite_thm21(shape: Shape, test: ZeroTest) -> list[IdentityCheck]:
    if shape.m != shape.n:
        raise ValueError("determinant reduction needs a square shape")
    n = shape.n
    return DerivedMinors(test).checks(tuple(range(2, n + 1)), tuple(range(1, n)),
                                      det_reduction_names(n), lambda: check_det_reduction(n))


SUITES = {
    "centrality": _suite_centrality,
    "semicentrality": _suite_semicentrality,
    "laplace": _suite_laplace,
    "cor22": _suite_cor22,
    "thm21": _suite_thm21,
}


def check_by_rows(name: str, shape: Shape, t: int | None = None
                  ) -> tuple[list[IdentityCheck], dict[str, int]]:
    """One suite's checks, with one zero test for the run, and its counts; t
    only for the suites that take it."""
    test = ZeroTest(shape)
    checks = SUITES[name](shape, test) if t is None else SUITES[name](shape, test, t)
    return checks, test.counts()
