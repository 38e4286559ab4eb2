"""The centrality, semicentrality and laplace suites, each check decided by an
exact zero test that works row by row and expands no minor.

Each check of these suites asks whether a combination of states L [R|C] W,
PBW words beside a minor (the minors module's states), is zero.  The test
answers without building any product of up to t! terms; a check it does not
find zero is built, and the built difference decides it and gives its witness.
``ZeroTest.decide`` is the one place that fallback is made, for every suite.
The derived module decides the cor22, thm21, lemma23 and thm25 checks with
the same test, in corner form.

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
otherwise at the bottom row.

A combination that splits at neither end is retried transposed.
theta(X[i,j]) = X[j,i] is an algebra isomorphism O_q(M_{m,n}) -> O_q(M_{n,m})
(the defining relations go to defining relations; Parshall-Wang, Mem. AMS 439,
1991) that sends [R|C] to [C|R], so L [R|C] W is zero together with
theta(L) [C|R] theta(W), whose words ``minors.product`` straightens.  Rows
become columns, so the ends that block may no longer block.  The test gives up
(answers None) only when the transposed combination is blocked too, or when
it is the combination being retried.

Each group F_u is normalized before it is looked up in the memo: its rows and
columns, those of its words' letters included, compress to their ranks, and
it is divided by the unit +-q^e that makes its lowest q exponent 0 and the
coefficient of its least term positive.  Rank compression is the order-pattern
map X[i,j] -> X[rho(i), gamma(j)] for increasing rho and gamma, an injective
algebra map that sends PBW monomials to PBW monomials, minors to minors and
the rewriting rules to themselves; a unit changes no zero.  So equal normal
forms are zero together.  A normal form's rows are 1, 2, ..., so its states
recur from check to check, and each state is split at a row once per run.
So ``ZeroTest.verdict`` decides once per pattern key: a builder, its indices
rank-compressed, and the exponents and coefficients read at its own indices.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterable

from .algebra import COL_BITS, COL_MASK, EXP_BITS, EXP_MASK, Codes, Shape, gen_id, letter
from .checks import IdentityCheck, check_zero
from .minors import (
    ONE, ROW_SHIFT, Combination, Piece, State, Terms, bottom, check_term_count, combination,
    commutator, flat, product, span, table_combination, top,
)
from . import laws

Key = frozenset[tuple[tuple[State, int], int]]
_UNSEEN = object()  # a key the memo does not hold yet


def ranked(rows: set[int], cols: set[int]) -> tuple[Callable, Callable, Callable]:
    """The order-pattern map to the ranks of ``rows`` and ``cols``: on rows, columns, letters."""
    rho = {r: a for a, r in enumerate(sorted(rows), 1)}.__getitem__
    gamma = {c: b for b, c in enumerate(sorted(cols), 1)}.__getitem__
    return rho, gamma, lambda x: ((rho(x >> ROW_SHIFT) << COL_BITS | gamma(x >> EXP_BITS & COL_MASK))
                                  << EXP_BITS | x & EXP_MASK)


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
        row, col, letter_map = ranked(row_set, col_set)
        moved = dict(zip(codes, map(letter_map, codes))).__getitem__
        renamed = {s: (s[0] and tuple(map(moved, s[0])), tuple(map(row, s[1])),
                       tuple(map(col, s[2])), s[3] and tuple(map(moved, s[3]))) for s in states}
        items = [((renamed[s], e), c) for (s, e), c in combination.items()]
    else:
        items = combination.items()
    e0 = min(e for (_, e), _ in items)
    sign = 1 if min(items)[1] > 0 else -1
    return frozenset(((s, e - e0), sign * c) for (s, e), c in items)


def _transposed_word(codes: Codes) -> Terms:
    """theta(w) for a PBW word w, its letters X[i,j] turned into X[j,i] and
    multiplied in their order, as straightened (codes, e, c) triples."""
    return product((), tuple(letter(x >> EXP_BITS & COL_MASK, x >> ROW_SHIFT, x & EXP_MASK)
                             for x in codes))


def transposed(terms: Iterable[tuple[tuple[State, int], int]]) -> Combination:
    """theta of the sum of c q^e state over the ((state, e), c) terms of a
    combination or a key: each state L [R|C] W becomes theta(L) [C|R] theta(W)."""
    return combination([
        (wl, cols, rows, wr, e + el + er, c * cl * cr)
        for ((left, rows, cols, right), e), c in terms
        for wl, el, cl in _transposed_word(left)
        for wr, er, cr in _transposed_word(right)])


class ZeroTest:
    """Decides combinations exactly, with one memo of normal forms and one of
    state splits; keep one per suite run."""

    def __init__(self, shape: Shape):
        self.shape = shape
        self.memo: dict[Key, bool | None] = {}
        self.patterns: dict[tuple, bool | None] = {}  # pattern key -> verdict
        self.cuts: dict[tuple, list[Piece] | None] = {}
        self.turning: set[Key] = set()  # the keys being retried transposed
        self.splits = 0
        self.memo_hits = 0
        self.pattern_hits = 0
        self.turns = 0
        self.flat_checks = 0

    def is_zero(self, combination: Combination) -> bool | None:
        """True when the combination is zero, False when it is not, and None
        when some group can split at neither its top nor its bottom row, in
        either orientation."""
        combination = {k: c for k, c in combination.items() if c}
        return self._decide(_normal_form(combination)) if combination else True

    def verdict(self, key: tuple, build: Callable[[], Combination]) -> bool | None:
        """``is_zero(build())``, with ``build`` run once per pattern key."""
        verdict = self.patterns.get(key, _UNSEEN)
        if verdict is _UNSEEN:
            verdict = self.patterns[key] = self.is_zero(build())
        else:
            self.pattern_hits += 1
        return verdict

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
            return self._turned(key)
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

    def _turned(self, key: Key) -> bool | None:
        """The verdict on a key that splits at neither end, from its transpose;
        None when that is the key itself or a key being retried already."""
        turned = _normal_form(transposed(key))
        if turned == key or turned in self.turning:
            return None
        self.turns += 1
        self.turning.add(key)
        try:
            return self._decide(turned)
        finally:
            self.turning.discard(key)

    def check(self, name: str, combination, key: tuple | None = None) -> IdentityCheck:
        """The check that the combination (with a pattern key, its builder's)
        vanishes; unless found zero, it is built flat to decide and give the witness."""
        build = combination if key else lambda: combination
        return self.decide([name], [self.verdict(key, build) if key else self.is_zero(combination)],
                           lambda: [check_zero(name, flat(self.shape, build()))])[0]

    def decide(self, names: list[str], verdicts: list[bool | None],
               build: Callable[[], list[IdentityCheck]]) -> list[IdentityCheck]:
        """The checks named ``names``, which share the builder ``build``: the
        one place a check the test does not find zero falls back.  A check
        whose verdict is True passes; unless every one does, ``build()``
        builds the group once, and each other check takes its built result,
        which decides it and gives its witness, and counts once in
        ``flat_checks``.  A built pass after a False verdict means the two
        paths disagree, and raises."""
        if verdicts.count(True) == len(verdicts):  # every one is True
            return [IdentityCheck(name, True) for name in names]
        checks = []
        for name, verdict, built in zip(names, verdicts, build(), strict=True):
            if verdict is True:
                checks.append(IdentityCheck(name, True))
                continue
            self.flat_checks += 1
            if built.ok and verdict is False:
                raise AssertionError(f"{name}: the zero test found a nonzero combination "
                                     "whose built difference vanishes")
            checks.append(built)
        return checks

    def counts(self) -> dict[str, int]:
        return {"zero_test_splits": self.splits, "zero_test_memo_hits": self.memo_hits,
                "zero_test_pattern_hits": self.pattern_hits, "zero_test_transposed": self.turns,
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
    # the largest minor, refused before the first of the sum over p of
    # C(m,p) C(n,p) p^2 checks, as the fallback builder would refuse it
    check_term_count(min(shape.m, shape.n))
    # [R|C] vs X[i,j] is [1..p|1..p] vs X[a,b] relabeled, i = R_a and j = C_b
    checks = []
    for p in range(1, min(shape.m, shape.n) + 1):
        for rows in itertools.combinations(range(1, shape.m + 1), p):
            for cols in itertools.combinations(range(1, shape.n + 1), p):
                minor = f"[{list(rows)}|{list(cols)}]"
                for a, i in enumerate(rows, 1):
                    for b, j in enumerate(cols, 1):
                        checks.append(test.check(f"{minor} vs X[{i},{j}]", lambda: commutator(
                            gen_id(i, j), rows, cols), (p, a, b)))
    return checks


def _suite_laplace(shape: Shape, test: ZeroTest) -> list[IdentityCheck]:
    if shape.m != shape.n:
        raise ValueError("Laplace expansions need a square shape")
    full = tuple(range(1, shape.n + 1))
    checks = []
    for name, table in (("row expansion i={}, coefficients from row {}", laws.row_terms),
                        ("column expansion j={}, coefficients from column {}", laws.col_terms)):
        for a in full:
            for b in full:
                minus = (full, full) if a == b else None
                checks.append(test.check(name.format(a, b), table_combination(
                    shape, table(full, full, a, b), minus)))
    return checks
