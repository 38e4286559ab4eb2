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

Each combination is decided once per pattern key (``ZeroTest.verdict``).
A thm25 key ranks g and its correction table once per check; lemma23's keys
are the ids ``Rewritings`` gives each minor, one walk of its rewriting per
run, so a check builds its table or cofactor map only for a new key.

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
    _commutation, _derived_cofactors, _localized_product, _rewriting, check_det_reduction,
    check_minor_commutation, check_minor_reduction, commutation_name, correction_scalar,
    derived_name, det_reduction_names, expand_minor_without_corner, expansion_names,
    minor_over_derived_generators, reduction_names,
)
from .minors import _sign, check_term_count, combination, commutator, product, table_combination
from .zerotest import ZeroTest, ranked
from . import laws


def _ranked(terms: list[laws.Term], rho, gamma) -> tuple:
    """Each term's exponent, minor and generator, every index ranked by rho and gamma."""
    return tuple((t.exponent, tuple(map(rho, t.minor[0])), tuple(map(gamma, t.minor[1])),
                  rho(t.gen[0]), gamma(t.gen[1])) for t in terms)


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

    def holds(self, rows: tuple[int, ...], cols: tuple[int, ...]) -> bool | None:
        """Cor 2.2 for [rows|cols]': True when it was proved, False when its
        step was found nonzero although every prerequisite was found zero
        (Cor 2.2 for each [R_t|C_t]' and X[1,n] commuting with each M_t), and
        None otherwise.  The step is decided only when the prerequisites were."""
        key = (rows, cols)
        if key not in self.verdicts:
            s, big, verdict = len(rows), ((1,) + rows, cols + (self.n,)), None
            terms = laws.row_terms(rows, cols, 1, rows[0]) if s > 1 else []
            if all(self.holds(*t.minor) and self.commutes(*t.minor) for t in terms):
                # the step reads only [1 u rows | cols u n] and its table, ranked
                rho, gamma, _ = ranked({1, *rows}, {*cols, self.n})
                verdict = self.test.verdict(("step", s, *_ranked(terms, rho, gamma)),
                                            lambda: self._step(rows, cols, big, terms))
            self.verdicts[key] = verdict
        return self.verdicts[key]

    def _step(self, rows, cols, big: laws.MinorKey, terms: list[laws.Term]):
        r, n, s = rows[0], self.n, len(rows)
        if s == 1:
            entries, parts = [((), *big, (), -1, 1)], [(0, cols[0], ((), ()))]
        else:
            entries = [((), *big, self.corner, -s, -_sign(s))]
            parts = [(t.exponent - s + 1, t.gen[1], ((1,) + t.minor[0], t.minor[1] + (n,))) for t in terms]
        for k, c, minor in parts:  # (-q)^k (X[r,c] X[1,n] - q^-1 X[1,c] X[r,n]) [minor]
            entries += [(w, *minor, (), k + e, _sign(k) * c2)
                        for w, e, c2 in product((letter(r, c),), self.corner)]
            entries += [(w, *minor, (), k + e - 1, -_sign(k) * c2)
                        for w, e, c2 in product((letter(1, c),), (letter(r, n),))]
        return combination(entries)

    def commutes(self, rows: tuple[int, ...], cols: tuple[int, ...]) -> bool | None:
        """The zero test's verdict on X[1,n] commuting with [1 u rows | cols u n]."""
        return self.test.verdict(("commutes", len(rows)), lambda: commutator(
            gen_id(1, self.n), (1,) + rows, cols + (self.n,)))

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
    [rows|cols]' and every correction minor (corr_t / (-q)^e_t is fixed by g's
    row rank).  Its key ranks g and the correction table once, against
    [1 u rows | cols u n] and g; with the size and whether g's free index lies
    in the minor, that fixes M's ranks."""
    claim, twist, terms = _commutation(shape, rows, cols, g)
    verdict = None
    if derived.holds(rows, cols) and all(derived.holds(*t.minor) for t in terms):
        rho, gamma, _ = ranked({1, *rows, g[0]}, {*cols, shape.n, g[1]})
        key = ("thm25", len(rows), rho(g[0]), gamma(g[1]), g[0] in rows or g[1] in cols,
               *_ranked(terms, rho, gamma), *twist._terms.items())

        def build():
            big = ((1,) + rows, cols + (shape.n,))
            x, shift = (letter(*g),), 1 if g[0] == 1 else -1  # X^-1 x X = q^shift x
            entries = [(x, *big, (), 0, 1)]
            entries += [((), *big, x, e + shift, -c) for e, c in twist._terms.items()]
            scalar = correction_scalar(g)._terms.items()
            for t in terms:
                sign = _sign(t.exponent)
                entries += [((letter(*t.gen),), (1,) + t.minor[0], t.minor[1] + (shape.n,), (),
                             e + t.exponent, sign * c) for e, c in scalar]
            return combination(entries)
        verdict = derived.test.verdict(key, build)
    return derived.test.decide([commutation_name(shape, rows, cols, g, claim)], [verdict],
                               lambda: [check_minor_commutation(shape, rows, cols, g)])[0]


class Rewritings:
    """Lemma 2.3's rewritings of one suite run, walked once per minor, each
    minor interned as two nodes of one table for the run.

    Its local node holds whether it has row 1 and column n and its size; off
    the corner, also the position of the corner term of the table
    ``localize._rewriting`` solves and each term's (exponent, minor,
    generator), with the enlarged minor's last-row table when there is one,
    every index ranked once against [1 u rows | cols u n].  Its tree node
    holds the local id and the tree ids of the minors its rewriting reaches,
    the enlarged minor first, then the table's.  Each of those minors' index
    sets lies in the minor's own, 1 and n ranked first and last, and a
    piece's corner weight reads only those, so equal tree ids have cofactor
    maps that are relabelings of each other.  Per minor the walk keeps the
    two ids and whether Cor 2.2 was proved for every derived minor it
    reaches."""

    def __init__(self, derived: DerivedMinors):
        self.derived = derived
        self.ids: dict[tuple, int] = {}  # local nodes have length 3 or 6, tree nodes 2
        self.nodes: dict[laws.MinorKey, tuple[int, int, bool]] = {}

    def _id(self, node: tuple) -> int:
        return self.ids.setdefault(node, len(self.ids))

    def node(self, rows: tuple[int, ...], cols: tuple[int, ...]) -> tuple[int, int, bool]:
        """[rows|cols]'s local id, its tree id, and whether every derived minor it reaches holds."""
        if rows[0] == 1 and cols[-1] == self.derived.n:  # (-q)^(p-1) [rows - 1 | cols - n]' X[1,n]
            local = self._id((True, True, len(rows)))
            return local, self._id((local, ())), bool(self.derived.holds(rows[1:], cols[:-1]))
        got = self.nodes.get((rows, cols))
        if got is None:
            terms, corner, enlarged = _rewriting(self.derived.test.shape, rows, cols)
            rho, gamma, _ = ranked({1, *rows}, {*cols, self.derived.n})
            last = enlarged and _ranked(laws.last_row_terms(*enlarged), rho, gamma)
            local = self._id((rows[0] == 1, cols[-1] == self.derived.n, len(rows), corner,
                              _ranked(terms, rho, gamma), last))
            reached = [enlarged] if enlarged else []
            reached += [t.minor for k, t in enumerate(terms) if k != corner]
            _, trees, holds = zip(*itertools.starmap(self.node, reached))
            got = self.nodes[rows, cols] = (local, self._id((local, trees)), all(holds))
        return got


def _suite_lemma23(shape: Shape, test: ZeroTest, t: int | None = None) -> list[IdentityCheck]:
    m, n = shape.m, shape.n
    sizes = [t] if t else list(range(2, min(m, n) + 1))
    for p in sizes:
        check_term_count(min(p + 1, m, n))  # the enlarged minor, when there is one
    walk, checks = Rewritings(DerivedMinors(test)), []
    for p in sizes:
        # a p-minor's rewritings reach only p-minors and minors through the corner
        walk.nodes.clear()
        keys = [(rows, cols) for rows in itertools.combinations(range(1, m + 1), p)
                for cols in itertools.combinations(range(1, n + 1), p)]
        for rows, cols in keys:
            if rows[0] != 1 or cols[-1] != n:
                checks += _expansion_checks(shape, walk, rows, cols)
        checks += [_derived_check(shape, walk, rows, cols) for rows, cols in keys]
    return checks


def _expansion_checks(shape: Shape, walk: Rewritings, rows: tuple[int, ...],
                      cols: tuple[int, ...]) -> list[IdentityCheck]:
    """The checks ``expand_minor_without_corner`` builds, each decided as the
    combination of its expansion's right products, keyed by the minor's local id."""
    test, local = walk.derived.test, walk.node(rows, cols)[0]

    def expansion(last: bool):
        terms, _, enlarged = _rewriting(shape, rows, cols)
        return table_combination(shape, laws.last_row_terms(*enlarged) if last else terms, enlarged)

    verdicts = [test.verdict(("expansion", local), lambda: expansion(False))]
    if rows[0] != 1 and cols[-1] != shape.n:
        verdicts.append(test.verdict(("last row", local), lambda: expansion(True)))
    # the rewriting is the first expansion solved for its corner term
    verdicts.append(verdicts[0])
    return test.decide(expansion_names(shape, rows, cols), verdicts,
                       lambda: expand_minor_without_corner(shape, rows, cols))


def _derived_check(shape: Shape, walk: Rewritings, rows: tuple[int, ...],
                   cols: tuple[int, ...]) -> IdentityCheck:
    """The check ``minor_over_derived_generators`` builds, decided as
    sum (-q)^-s M_rc tau(N) X^(K-k) - [rows|cols] X^(K+1) over the cofactor map's
    pieces [r|c]' N X^-k, keyed by the minor's tree id, when Cor 2.2 was proved
    for every [r|c]'."""
    n, (_, tree, holds) = shape.n, walk.node(rows, cols)
    verdict = None
    if holds:
        def build():
            pieces = _derived_cofactors(shape, rows, cols)
            top = max(k for k, _ in pieces.values())
            corner = (letter(1, n, top + 1),)
            entries = [((), rows, cols, corner, 0, -1)]
            for (r, c), (k, body) in pieces.items():
                # X^-1 N X^-k X^(K+1) = tau(N) X^(K-k), a flat value with k = 0
                value = _localized_product(shape, ({((), 0): 1}, 1), (body, k))
                value = _localized_product(shape, value, ({(corner, 0): 1}, 0))
                entries += [((), (1,) + r, c + (n,), codes, e - len(r), _sign(len(r)) * c2)
                            for (codes, e), c2 in value[0].items()]
            return combination(entries)
        verdict = walk.derived.test.verdict(("derived", tree), build)
    return walk.derived.test.decide([derived_name(shape, rows, cols)], [verdict],
                                    lambda: [minor_over_derived_generators(shape, rows, cols)[1]])[0]
