"""The cor22, thm21, lemma23 and thm25 suites: identities of derived minors,
each check decided in corner form by the zero test of the zerotest module.

A derived minor [R|C]' is a localized element, a (t+1)!-term numerator over
X[1,n].  Cor 2.2 of the source paper writes it as
[R|C]' = (-q)^-s [1 u R | C u n] X[1,n]^-1 with s = |R|, and
``DerivedMinors`` proves that for each derived minor a check reads, by an
induction whose steps are word-state combinations.  Substituting it and
clearing the powers of the corner X = X[1,n] on the right turns each check
into a combination of states L [R|C] W, which the zero test decides without
building a product:

* cor22 and thm21 are Cor 2.2 itself, times X on either side.
* thm25: x [R|C]' - c [R|C]' x + sum_t corr_t X_t [R_t|C_t]' = 0 for an edge
  generator x.  X^-1 x X is q x for x = X[1,l] and q^-1 x for x = X[k,n], so
  times (-q)^s X on the right it reads, with M = [1 u R | C u n],
  x M - c q^(+-1) M x + sum_t corr_t X_t M_t = 0.
* lemma23's expansions are in the algebra already, as right term tables, and
  its rewriting is the first expansion solved for its corner term
  (-q)^e* [R|C] X, so it holds exactly when that expansion does.
* lemma23's derived check, sum over its cofactor map of [r|c]' N X^-k minus
  [R|C]: as X^-1 N = tau(N) X^-1, [r|c]' N X^-k = (-q)^-s M_rc tau(N)
  X^(-1-k), and times X^(K+1), K the largest k, every power is cleared.

A check whose Cor 2.2 prerequisites were not all proved, or that the test
does not find zero, falls back in one place, ``ZeroTest.decide``: the
localize module's builder builds it, once per group of checks it builds
together, and gives its witness byte for byte as before; a built pass after
a nonzero verdict means the two paths disagree, and raises.
"""

from __future__ import annotations

import itertools

from .algebra import Shape, gen_id, letter
from .checks import IdentityCheck
from .localize import (
    _commutation, _corner_moved, _derived_cofactors, _rewriting, check_det_reduction,
    check_minor_commutation, check_minor_reduction, commutation_name, correction_scalar,
    derived_name, det_reduction_names, expand_minor_without_corner, expansion_names,
    minor_over_derived_generators, reduction_names, tau_weight,
)
from .minors import _sign, check_term_count, combination, commutator, product, table_combination
from .zerotest import ZeroTest
from . import laws


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
        self.verdicts: dict[laws.MinorKey, bool | None] = {}
        self.commuting: dict[laws.MinorKey, bool | None] = {}

    def _numerator(self, r: int, c: int, k: int, big: laws.MinorKey) -> list:
        """The entries of (-q)^k (X[r,c] X[1,n] - q^-1 X[1,c] X[r,n]) [big]."""
        words = [*product((letter(r, c),), self.corner),
                 *((w, e - 1, -c2) for w, e, c2 in product((letter(1, c),), (letter(r, self.n),)))]
        sign = _sign(k)
        return [(w, *big, (), k + e, sign * c2) for w, e, c2 in words]

    def holds(self, rows: tuple[int, ...], cols: tuple[int, ...]) -> bool | None:
        """Cor 2.2 for [rows|cols]': True when it was proved, False when its
        step was found nonzero although every prerequisite was found zero
        (Cor 2.2 for each [R_t|C_t]' and X[1,n] commuting with each M_t), and
        None otherwise.  The step is decided only when the prerequisites were."""
        key = (rows, cols)
        if key not in self.verdicts:
            n, verdict = self.n, None
            if len(rows) == 1:
                entries = self._numerator(rows[0], cols[0], 0, ((), ()))
                entries.append(((), (1, rows[0]), (cols[0], n), (), -1, 1))
                verdict = self.test.is_zero(combination(entries))
            else:
                s, terms = len(rows), laws.row_terms(rows, cols, 1, rows[0])
                if all(self.holds(*t.minor) and self.commutes(*t.minor) for t in terms):
                    entries = [((), (1,) + rows, cols + (n,), self.corner, -s, -_sign(s))]
                    for t in terms:
                        entries += self._numerator(rows[0], t.gen[1], t.exponent - s + 1,
                                                   ((1,) + t.minor[0], t.minor[1] + (n,)))
                    verdict = self.test.is_zero(combination(entries))
            self.verdicts[key] = verdict
        return self.verdicts[key]

    def commutes(self, rows: tuple[int, ...], cols: tuple[int, ...]) -> bool | None:
        """The zero test's verdict on X[1,n] commuting with [1 u rows | cols u n]."""
        key = (rows, cols)
        if key not in self.commuting:
            self.commuting[key] = self.test.is_zero(
                commutator(gen_id(1, self.n), (1,) + rows, cols + (self.n,)))
        return self.commuting[key]

    def checks(self, rows: tuple[int, ...], cols: tuple[int, ...], names: list[str],
               build) -> list[IdentityCheck]:
        """Cor 2.2 at [rows|cols]' times X[1,n] on the right, then on the left,
        decided by ``ZeroTest.decide`` with ``build()`` building both.  Both
        pass when it holds and X[1,n] commutes with its enlarged minor.  When
        its step was found nonzero, the right check is nonzero, and so is the
        left one when the commutation was found zero; any other verdict is
        undecided."""
        holds = self.holds(rows, cols)
        # the commutation is put to the test only where a verdict reads it
        commutes = None if holds is None else self.commutes(rows, cols)
        if holds and commutes:
            verdicts = [True, True]
        elif holds is False:
            verdicts = [False, False if commutes else None]
        else:
            verdicts = [None, None]
        return self.test.decide(names, verdicts, build)


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


def _suite_thm25(shape: Shape, test: ZeroTest, t: int | None = None) -> list[IdentityCheck]:
    m, n = shape.m, shape.n
    sizes = [t - 1] if t else list(range(1, min(m, n)))
    for size in sizes:
        check_term_count(size + 1)  # a derived size-minor's numerator
    derived = DerivedMinors(test)
    edges = [(1, l) for l in range(1, n)] + [(k, n) for k in range(2, m + 1)]
    return [_commutation_check(shape, derived, rows, cols, g)
            for size in sizes
            for rows in itertools.combinations(range(2, m + 1), size)
            for cols in itertools.combinations(range(1, n), size)
            for g in edges]


def _commutation_check(shape: Shape, derived: DerivedMinors, rows: tuple[int, ...],
                       cols: tuple[int, ...], g: tuple[int, int]) -> IdentityCheck:
    """The check ``check_minor_commutation`` builds, decided as
    x M - c q^(+-1) M x + sum_t corr_t X_t M_t when Cor 2.2 was proved for
    [rows|cols]' and every correction minor."""
    claim, twist, terms = _commutation(shape, rows, cols, g)
    verdict = None
    if derived.holds(rows, cols) and all(derived.holds(*t.minor) for t in terms):
        n, x = shape.n, (letter(*g),)
        big = ((1,) + rows, cols + (n,))
        shift = 1 if g[0] == 1 else -1  # X^-1 x X = q^shift x
        entries = [(x, *big, (), 0, 1)]
        entries += [((), *big, x, e + shift, -c) for e, c in twist._terms.items()]
        scalar = correction_scalar(g)._terms.items()
        for t in terms:
            sign = _sign(t.exponent)
            entries += [((letter(*t.gen),), (1,) + t.minor[0], t.minor[1] + (n,), (),
                         e + t.exponent, sign * c) for e, c in scalar]
        verdict = derived.test.is_zero(combination(entries))
    return derived.test.decide([commutation_name(shape, rows, cols, g, claim)], [verdict],
                               lambda: [check_minor_commutation(shape, rows, cols, g)])[0]


def _suite_lemma23(shape: Shape, test: ZeroTest, t: int | None = None) -> list[IdentityCheck]:
    m, n = shape.m, shape.n
    sizes = [t] if t else list(range(2, min(m, n) + 1))
    for p in sizes:
        check_term_count(min(p + 1, m, n))  # the enlarged minor, when there is one
    derived, checks = DerivedMinors(test), []
    for p in sizes:
        cofactors: dict = {}  # maps reach only p-minors and their enlarged minors
        keys = [(rows, cols) for rows in itertools.combinations(range(1, m + 1), p)
                for cols in itertools.combinations(range(1, n + 1), p)]
        for rows, cols in keys:
            if rows[0] != 1 or cols[-1] != n:
                checks += _expansion_checks(shape, test, rows, cols)
        checks += [_derived_check(shape, derived, cofactors, rows, cols) for rows, cols in keys]
    return checks


def _expansion_checks(shape: Shape, test: ZeroTest, rows: tuple[int, ...],
                      cols: tuple[int, ...]) -> list[IdentityCheck]:
    """The checks ``expand_minor_without_corner`` builds, each decided as the
    combination of its expansion's right products."""
    terms, _, enlarged = _rewriting(shape, rows, cols)
    verdicts = [test.is_zero(table_combination(shape, terms, False, enlarged))]
    if enlarged:
        verdicts.append(test.is_zero(
            table_combination(shape, laws.last_row_terms(*enlarged), False, enlarged)))
    # the rewriting is the first expansion solved for its corner term
    verdicts.append(verdicts[0])
    return test.decide(expansion_names(shape, rows, cols), verdicts,
                       lambda: expand_minor_without_corner(shape, rows, cols))


def _derived_check(shape: Shape, derived: DerivedMinors, cofactors: dict, rows: tuple[int, ...],
                   cols: tuple[int, ...]) -> IdentityCheck:
    """The check ``minor_over_derived_generators`` builds, decided as
    sum (-q)^-s M_rc tau(N) X^(K-k) - [rows|cols] X^(K+1) over the cofactor map's
    pieces [r|c]' N X^-k, when Cor 2.2 was proved for every [r|c]'."""
    n = shape.n
    pieces = _derived_cofactors(shape, rows, cols, cofactors)
    verdict = None
    if all(derived.holds(*key) for key in pieces):
        top = max(k for k, _ in pieces.values())
        entries = [((), rows, cols, (letter(1, n, top + 1),), 0, -1)]
        for (r, c), (k, body) in pieces.items():
            s = len(r)
            for (codes, e), c2 in body.items():
                moved, shift = _corner_moved(codes, top - k, n)
                entries.append(((), (1,) + r, c + (n,), moved, e + tau_weight(codes, shape) + shift - s,
                                _sign(s) * c2))
        verdict = derived.test.is_zero(combination(entries))
    return derived.test.decide([derived_name(shape, rows, cols)], [verdict],
                               lambda: [minor_over_derived_generators(shape, rows, cols)[1]])[0]


SUITES = {
    "cor22": _suite_cor22,
    "thm21": _suite_thm21,
    "lemma23": _suite_lemma23,
    "thm25": _suite_thm25,
}
