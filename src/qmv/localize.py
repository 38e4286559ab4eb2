"""The Ore localization inverting the corner generator X[1,n].

X[1,n] is normal: a X[1,n] = X[1,n] tau(a) for the automorphism tau scaling row
1 by q and column n (below row 1) by q^-1.  Fractions therefore need only a
single denominator exponent: a ``LocalizedElement`` is numerator * X[1,n]^-k,
kept canonical by stripping denominator powers whenever every numerator term
still contains X[1,n].

On top of the localization this module builds the derived generators
X'[i,j] = X[i,j] - q^-1 X[1,j] X[i,n] X[1,n]^-1, once per shape, and their
quantum minors by a memoized first-row q-Laplace expansion (the law (-q)^(j-i)
applies because the derived matrix satisfies the defining relations), so every
sub-minor is built once.  It also builds the identity checks that reduce minor
sizes by one: the determinant reduction, its corollary for minors through row
1 and column n, the expansions rewriting any minor over minors that do pass
through the corner, and the commutation relations between derived minors and
the edge generators.

The cofactor map writing a minor over derived minors (Lemma 2.3) is read off
the frozen expansion laws alone; no supporting expansion is run to build it.
Each map is verified by one exact check, sum of derived minor times cofactor
minus the minor, so a wrong law shows up as a failing check.  The expansions
themselves are checked and reported once per minor by the lemma23 suite.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import lru_cache

from .algebra import AlgebraElement, PbwMonomial, Shape, gen
from .checks import IdentityCheck, check_zero
from .minors import minor
from .scalar import LaurentScalar, ONE, Q, QINV, Q_MINUS_QINV
from . import laws

Gen = tuple[int, int]


def tau_weight(mono: PbwMonomial, shape: Shape) -> int:
    """Grading weight driving the conjugation by X[1,n]: +1 per row-1 letter,
    -1 per column-n letter (the corner itself weighs 0)."""
    w = 0
    for (i, j), e in mono.pairs:
        if i == 1:
            w += e
        if j == shape.n:
            w -= e
    return w


def tau(a: AlgebraElement, power: int = 1) -> AlgebraElement:
    """The automorphism with a * X[1,n] = X[1,n] * tau(a); tau^power for any integer."""
    return AlgebraElement(
        a.shape,
        {
            mono: coeff * LaurentScalar.q_power(power * tau_weight(mono, a.shape))
            for mono, coeff in a._terms.items()
        },
    )


def _divide_right_by_corner(f: AlgebraElement) -> AlgebraElement | None:
    """g with g * X[1,n] = f, or None when some term lacks the corner generator."""
    shape = f.shape
    corner = (1, shape.n)
    terms: dict[PbwMonomial, LaurentScalar] = {}
    for mono, coeff in f._terms.items():
        pairs = []
        found = False
        shift = 0
        for g_, e in mono.pairs:
            if g_ == corner:
                found = True
                if e > 1:
                    pairs.append((g_, e - 1))
            else:
                pairs.append((g_, e))
                if g_[1] == shape.n and g_[0] > 1:
                    shift += e
        if not found:
            return None
        terms[PbwMonomial(tuple(pairs))] = coeff * LaurentScalar.q_power(shift)
    return AlgebraElement(shape, terms)


class LocalizedElement:
    """numerator * X[1,n]^-k in canonical form (k = 0, or some numerator term
    has corner exponent 0)."""

    __slots__ = ("numerator", "k")

    def __init__(self, numerator: AlgebraElement, k: int = 0):
        if k < 0:
            raise ValueError("denominator exponent must be nonnegative")
        while k > 0 and numerator:
            reduced = _divide_right_by_corner(numerator)
            if reduced is None:
                break
            numerator = reduced
            k -= 1
        if not numerator:
            k = 0
        self.numerator = numerator
        self.k = k

    @property
    def shape(self) -> Shape:
        return self.numerator.shape

    def is_zero(self) -> bool:
        return self.numerator.is_zero()

    def __bool__(self) -> bool:
        return bool(self.numerator)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, AlgebraElement):
            other = LocalizedElement(other)
        if not isinstance(other, LocalizedElement):
            return NotImplemented
        return self.k == other.k and self.numerator == other.numerator

    def __hash__(self) -> int:
        return hash((self.numerator, self.k))

    def numerator_over(self, k: int) -> AlgebraElement:
        """Numerator when written over X[1,n]^-k (k >= self.k)."""
        corner = gen(self.shape, 1, self.shape.n)
        out = self.numerator
        for _ in range(k - self.k):
            out = out * corner
        return out

    def __add__(self, other: "LocalizedElement | AlgebraElement") -> "LocalizedElement":
        other = _coerce_localized(other, self.shape)
        k = max(self.k, other.k)
        return LocalizedElement(self.numerator_over(k) + other.numerator_over(k), k)

    def __neg__(self) -> "LocalizedElement":
        return LocalizedElement(-self.numerator, self.k)

    def __sub__(self, other: "LocalizedElement | AlgebraElement") -> "LocalizedElement":
        return self + (-_coerce_localized(other, self.shape))

    def __mul__(self, other) -> "LocalizedElement":
        if isinstance(other, (LaurentScalar, int)):
            return LocalizedElement(self.numerator * other, self.k)
        other = _coerce_localized(other, self.shape)
        # f X^-k g X^-l = f tau^k(g) X^-(k+l)
        return LocalizedElement(self.numerator * tau(other.numerator, self.k), self.k + other.k)

    def __rmul__(self, other) -> "LocalizedElement":
        if isinstance(other, (LaurentScalar, int)):
            return LocalizedElement(self.numerator * other, self.k)
        if isinstance(other, AlgebraElement):
            return _coerce_localized(other, self.shape) * self
        return NotImplemented

    def __pow__(self, e: int) -> "LocalizedElement":
        if e < 0:
            raise ValueError("negative powers are available only through the corner inverse")
        result = LocalizedElement(AlgebraElement.one(self.shape))
        for _ in range(e):
            result = result * self
        return result

    def scale(self, c: LaurentScalar | int) -> "LocalizedElement":
        return LocalizedElement(self.numerator.scale(c), self.k)

    @classmethod
    def sum(
        cls, shape: Shape, elements: Iterable["LocalizedElement | AlgebraElement"]
    ) -> "LocalizedElement":
        """The sum of localized (or plain) elements, over their common corner
        exponent: each numerator is written over the largest k once, and the
        numerators are summed by ``AlgebraElement.sum``."""
        elements = [_coerce_localized(x, shape) for x in elements]
        k = max((x.k for x in elements), default=0)
        return cls(AlgebraElement.sum(shape, (x.numerator_over(k) for x in elements)), k)

    def render(self, limit: int | None = None) -> str:
        """Canonical text; a limit bounds the numerator as in ``AlgebraElement.render``."""
        num = self.numerator.render(limit)
        if self.k == 0:
            return num
        if len(self.numerator._terms) > 1:
            num = f"({num})"
        suffix = "inv1n" if self.k == 1 else f"inv1n^{self.k}"
        return f"{num}*{suffix}"

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"<{self.shape} localized: {self}>"


def _coerce_localized(x, shape: Shape) -> LocalizedElement:
    if isinstance(x, LocalizedElement):
        if x.shape != shape:
            raise ValueError(f"shape mismatch: {x.shape} vs {shape}")
        return x
    if isinstance(x, AlgebraElement):
        if x.shape != shape:
            raise ValueError(f"shape mismatch: {x.shape} vs {shape}")
        return LocalizedElement(x)
    raise TypeError(f"cannot treat {type(x).__name__} as a localized element")


def loc(a: AlgebraElement) -> LocalizedElement:
    """Embed an ordinary element into the localization."""
    return LocalizedElement(a)


def corner_inverse(shape: Shape, k: int = 1) -> LocalizedElement:
    """X[1,n]^-k."""
    return LocalizedElement(AlgebraElement.one(shape), k)


@lru_cache(maxsize=None)
def x_prime(shape: Shape, i: int, j: int) -> LocalizedElement:
    """The derived generator X'[i,j] = (X[i,j] X[1,n] - q^-1 X[1,j] X[i,n]) X[1,n]^-1,
    built once per shape.  Its agreement with the second defining form
    -q^-1 [1,i|j,n] X[1,n]^-1 is a named check of the lemma111 suite."""
    if shape.m < 2 or shape.n < 2:
        raise ValueError("derived generators need at least a 2x2 shape")
    if not (2 <= i <= shape.m and 1 <= j <= shape.n - 1):
        raise ValueError(f"X'[{i},{j}] undefined for shape {shape}")
    n = shape.n
    direct = gen(shape, i, j) * gen(shape, 1, n) - (gen(shape, 1, j) * gen(shape, i, n)).scale(QINV)
    return LocalizedElement(direct, 1)


def x_prime_entries(shape: Shape) -> dict[Gen, LocalizedElement]:
    """All derived generators, keyed by their (row, column) position."""
    return {
        (i, j): x_prime(shape, i, j)
        for i in range(2, shape.m + 1)
        for j in range(1, shape.n)
    }


def x_prime_minor(
    shape: Shape, rows: tuple[int, ...] | list[int], cols: tuple[int, ...] | list[int]
) -> LocalizedElement:
    """Quantum minor of the derived matrix, by the first-row q-Laplace expansion
    [R|C]' = sum_b (-q)^(b-1) X'[r1,c_b] [R-r1 | C-c_b]' over the localization,
    with the exponent taken from the frozen row-laplace law.  The expansion
    applies because the derived matrix satisfies the defining relations.  It is
    memoized per shape, so a t-minor builds each of its about 2^t sub-minors
    once; by Cor. 2.2 each of them has denominator exponent 1."""
    rows, cols = tuple(rows), tuple(cols)
    if len(rows) != len(cols) or not rows:
        raise ValueError("derived minor needs equally many rows and columns")
    if any(a >= b for a, b in zip(rows, rows[1:])) or any(
        a >= b for a, b in zip(cols, cols[1:])
    ):
        raise ValueError("derived minor indices must be strictly increasing")
    if rows[0] < 2 or rows[-1] > shape.m or cols[0] < 1 or cols[-1] > shape.n - 1:
        raise ValueError(f"derived minor [{rows}|{cols}]' does not fit in shape {shape}")
    return _x_prime_minor(shape, rows, cols)


@lru_cache(maxsize=None)
def _x_prime_minor(shape: Shape, rows: tuple[int, ...], cols: tuple[int, ...]) -> LocalizedElement:
    if len(rows) == 1:
        return x_prime(shape, rows[0], cols[0])
    return LocalizedElement.sum(shape, (
        x_prime(shape, rows[0], c).scale(LaurentScalar.minus_q_power(laws.row_expansion_exponent(1, b)))
        * _x_prime_minor(shape, rows[1:], cols[: b - 1] + cols[b:])
        for b, c in enumerate(cols, start=1)
    ))


def x_prime_minor_substituted(
    shape: Shape, rows: tuple[int, ...], cols: tuple[int, ...]
) -> LocalizedElement:
    """Cross-check oracle: expand the minor abstractly on an (m-1)x(n-1) grid,
    then substitute the derived generators into each ordered monomial."""
    small = Shape(shape.m - 1, shape.n - 1)
    abstract = minor(small, [r - 1 for r in rows], list(cols))
    entries = x_prime_entries(shape)
    total = LocalizedElement(AlgebraElement.zero(shape))
    for mono, coeff in abstract.terms():
        prod = LocalizedElement(AlgebraElement.one(shape))
        for (r, c) in mono.word():
            prod = prod * entries[(r + 1, c)]
        total = total + prod.scale(coeff)
    return total


def full_x_prime_determinant(shape: Shape) -> LocalizedElement:
    """Determinant of the whole derived matrix (square shapes)."""
    if shape.m != shape.n:
        raise ValueError("the derived determinant needs a square shape")
    return x_prime_minor(shape, tuple(range(2, shape.m + 1)), tuple(range(1, shape.n)))


def check_det_reduction(n: int) -> list[IdentityCheck]:
    """det of the derived matrix times the corner equals (-q)^(1-n) times the
    full determinant, on either side of the corner."""
    if n < 2:
        raise ValueError("size reduction starts at n = 2")
    shape = Shape(n, n)
    detp = full_x_prime_determinant(shape)
    corner = loc(gen(shape, 1, n))
    rhs = loc(minor(shape, range(1, n + 1), range(1, n + 1)).scale(LaurentScalar.minus_q_power(1 - n)))
    return [
        check_zero(f"detX' * X[1,{n}] = (-q)^{1 - n} detX (n={n})", detp * corner - rhs),
        check_zero(f"X[1,{n}] * detX' = (-q)^{1 - n} detX (n={n})", corner * detp - rhs),
    ]


def check_minor_reduction(shape: Shape, rows: tuple[int, ...], cols: tuple[int, ...]) -> list[IdentityCheck]:
    """A p-by-p minor through row 1 and column n equals (-q)^(p-1) times the
    derived (p-1)-minor times the corner, with the left-denominator twin."""
    rows, cols = tuple(rows), tuple(cols)
    p = len(rows)
    if p < 2 or rows[0] != 1 or cols[-1] != shape.n:
        raise ValueError("reduction needs p >= 2, row 1 present, and column n present")
    mp = x_prime_minor(shape, rows[1:], cols[:-1])
    big = minor(shape, rows, cols)
    scaled = LaurentScalar.minus_q_power(1 - p)
    right = LocalizedElement(big.scale(scaled), 1)
    left = corner_inverse(shape).scale(scaled) * loc(big)
    label = f"[{list(rows)}|{list(cols)}] reduction in {shape}"
    return [
        check_zero(f"{label}, right denominator", mp - right),
        check_zero(f"{label}, left denominator", mp - left),
    ]


@dataclass
class MinorExpansion:
    """A minor rewritten over the localization, with its supporting zero-identities."""

    case: str
    checks: list[IdentityCheck]
    rewriting: LocalizedElement

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


MinorKey = tuple[tuple[int, ...], tuple[int, ...]]


def _corner_case(shape: Shape, rows: tuple[int, ...], cols: tuple[int, ...]) -> str:
    """Which of row 1 and column n the minor [rows|cols] contains: "corner" when
    both, otherwise the name of the expansion that rewrites it."""
    if rows[0] == 1:
        return "corner" if cols[-1] == shape.n else "missing-column"
    return "missing-row" if cols[-1] == shape.n else "missing-both"


def _rewriting(shape: Shape, rows: tuple[int, ...], cols: tuple[int, ...], case: str
               ) -> list[tuple[MinorKey, LocalizedElement]]:
    """The rewriting of a minor missing row 1 and/or column n as a sum of
    [r|c] * right over ((r, c), right) pairs, read off the frozen laws; each
    right cofactor is a scaled generator (or scalar) times X[1,n]^-1."""
    mq = LaurentScalar.minus_q_power
    e = laws.minor_row_first_exponent
    if case == "missing-column":
        # solve the vanishing row-1 expansion over cols + (n,) for its column-n term
        enlarged = cols + (shape.n,)
        last = e(len(enlarged))
        return [
            ((rows, _without(enlarged, j)),
             LocalizedElement(gen(shape, 1, j).scale(-mq(e(b) - last)), 1))
            for b, j in enumerate(cols, start=1)
        ]
    if case == "missing-row":
        # solve the vanishing column-n expansion over (1,) + rows for its row-1 term
        enlarged = (1,) + rows
        p = len(enlarged)
        col = laws.col_expansion_exponent
        first = col(1, p)
        return [
            ((_without(enlarged, i), cols),
             LocalizedElement(gen(shape, i, shape.n).scale(-mq(col(a, p) - first)), 1))
            for a, i in enumerate(enlarged[1:], start=2)
        ]
    # missing-both: solve the first-row expansion of the enlarged minor for the target
    big_rows, big_cols = (1,) + rows, cols + (shape.n,)
    scale_all = mq(-e(len(big_rows)))
    whole = ((big_rows, big_cols), LocalizedElement(AlgebraElement.from_scalar(shape, scale_all), 1))
    return [whole] + [
        ((rows, _without(big_cols, j)),
         LocalizedElement(gen(shape, 1, j).scale(-mq(e(b)) * scale_all), 1))
        for b, j in enumerate(cols, start=1)
    ]


def _without(indices: tuple[int, ...], x: int) -> tuple[int, ...]:
    return tuple(i for i in indices if i != x)


def expand_minor_without_corner(
    shape: Shape, rows: tuple[int, ...] | list[int], cols: tuple[int, ...] | list[int]
) -> MinorExpansion:
    """Rewrite a minor missing row 1 and/or column n as a right combination of
    minors closer to the corner, over the localization.

    The three cases mirror how such a minor is expanded: along row 1 with an
    adjoined column n, along column n with an adjoined row 1, or through the
    enlarged minor when both are missing (its other terms miss only row 1).
    The expansion the rewriting solves is checked first, then the rewriting.
    """
    rows, cols = tuple(rows), tuple(cols)
    target = minor(shape, rows, cols)  # validates the index sets
    label = f"[{list(rows)}|{list(cols)}] in {shape}"
    case = _corner_case(shape, rows, cols)
    if case == "corner":
        raise ValueError(f"{label} already contains the corner; use the minor reduction")
    checks = _EXPANSION_CHECKS[case](shape, rows, cols, label)
    rewriting = LocalizedElement.sum(shape, (
        loc(minor(shape, r, c)) * right for (r, c), right in _rewriting(shape, rows, cols, case)
    ))
    checks.append(check_zero(f"{label}: rewriting agrees", rewriting - loc(target)))
    return MinorExpansion(case, checks, rewriting)


def _expand_missing_column(shape, rows, cols, label) -> list[IdentityCheck]:
    # Row-1 expansion over the enlarged column set vanishes.
    enlarged = cols + (shape.n,)
    vanish = AlgebraElement.sum(shape, (
        minor(shape, rows, _without(enlarged, j))
        * gen(shape, 1, j).scale(LaurentScalar.minus_q_power(laws.minor_row_first_exponent(b)))
        for b, j in enumerate(enlarged, start=1)
    ))
    return [check_zero(f"{label}: row-1 expansion vanishes", vanish)]


def _expand_missing_row(shape, rows, cols, label) -> list[IdentityCheck]:
    # Column-n expansion over the enlarged row set vanishes.
    enlarged = (1,) + rows
    p = len(enlarged)
    vanish = AlgebraElement.sum(shape, (
        minor(shape, _without(enlarged, i), cols)
        * gen(shape, i, shape.n).scale(LaurentScalar.minus_q_power(laws.col_expansion_exponent(a, p)))
        for a, i in enumerate(enlarged, start=1)
    ))
    return [check_zero(f"{label}: column-n expansion vanishes", vanish)]


def _expand_missing_both(shape, rows, cols, label) -> list[IdentityCheck]:
    # Both expansions of the enlarged minor: along its first row and along its
    # last row.
    big_rows = (1,) + rows
    big_cols = cols + (shape.n,)
    big = minor(shape, big_rows, big_cols)
    p = len(big_rows)
    first_row = AlgebraElement.sum(shape, (
        minor(shape, rows, _without(big_cols, j))
        * gen(shape, 1, j).scale(LaurentScalar.minus_q_power(laws.minor_row_first_exponent(b)))
        for b, j in enumerate(big_cols, start=1)
    ))
    s = big_rows[-1]
    last_row = AlgebraElement.sum(shape, (
        minor(shape, big_rows[:-1], _without(big_cols, j))
        * gen(shape, s, j).scale(LaurentScalar.minus_q_power(laws.minor_row_last_exponent(p, b)))
        for b, j in enumerate(big_cols, start=1)
    ))
    return [
        check_zero(f"{label}: first-row expansion of the enlarged minor", big - first_row),
        check_zero(f"{label}: last-row expansion of the enlarged minor", big - last_row),
    ]


_EXPANSION_CHECKS = {
    "missing-column": _expand_missing_column,
    "missing-row": _expand_missing_row,
    "missing-both": _expand_missing_both,
}


def minor_over_derived_generators(
    shape: Shape, rows: tuple[int, ...] | list[int], cols: tuple[int, ...] | list[int]
) -> tuple[dict[MinorKey, LocalizedElement], IdentityCheck]:
    """Express a minor as sum of (derived minor) * (localized right cofactor).

    Returns the cofactor map and the check that the combination reproduces the
    minor exactly; this is the constructive half of the statement that the
    t-minor ideal of the localization is generated by the derived (t-1)-minors.
    The map is read off the frozen laws alone, so this one check is what
    verifies it.
    """
    rows, cols = tuple(rows), tuple(cols)
    target = minor(shape, rows, cols)  # validates the index sets
    label = f"[{list(rows)}|{list(cols)}] over derived minors in {shape}"
    cofactors = _derived_cofactors(shape, rows, cols)
    total = LocalizedElement.sum(
        shape, (x_prime_minor(shape, r, c) * piece for (r, c), piece in cofactors.items())
    )
    return cofactors, check_zero(label, total - loc(target))


def _derived_cofactors(shape: Shape, rows: tuple[int, ...], cols: tuple[int, ...]
                       ) -> dict[MinorKey, LocalizedElement]:
    """The cofactor map of [rows|cols]: a minor through the corner is
    (-q)^(p-1) [R-1|C-n]' X[1,n]; any other is rewritten over minors closer to
    the corner, whose maps are taken times the rewriting's right cofactors.
    Builds no check."""
    case = _corner_case(shape, rows, cols)
    if case == "corner":
        corner = gen(shape, 1, shape.n).scale(LaurentScalar.minus_q_power(len(rows) - 1))
        return {(rows[1:], cols[:-1]): loc(corner)}
    cofactors: dict[MinorKey, LocalizedElement] = {}
    for (r, c), right in _rewriting(shape, rows, cols, case):
        for key, piece in _derived_cofactors(shape, r, c).items():
            piece = piece * right
            cofactors[key] = cofactors[key] + piece if key in cofactors else piece
    return cofactors


def check_minor_commutation(
    shape: Shape, rows: tuple[int, ...], cols: tuple[int, ...], g: Gen
) -> IdentityCheck:
    """Commutation of a derived minor with an edge generator X[1,l] or X[k,n]:
    a clean q-commutation when the index sits inside the minor, and a fitted
    correction sum otherwise."""
    rows, cols = tuple(rows), tuple(cols)
    mp = x_prime_minor(shape, rows, cols)
    gi, gj = g
    x = gen(shape, gi, gj)
    label = f"X[{gi},{gj}] vs [{list(rows)}|{list(cols)}]' in {shape}"

    def difference(twist: LaurentScalar, corrections=()) -> LocalizedElement:
        # x mp - twist * mp x minus the correction sum, accumulated once
        return LocalizedElement.sum(shape, [loc(x) * mp, mp * loc(x.scale(-twist)), *corrections])

    if gi == 1 and gj <= shape.n - 1:
        l = gj
        if l in cols:
            return check_zero(f"{label}: q^-1 twist", difference(QINV))
        corrections = []
        enlarged = sorted(set(cols) | {l})
        for j in (c for c in cols if c < l):
            newcols = tuple(sorted(set(cols) - {j} | {l}))
            e = laws.commutation_col_exponent(enlarged.index(j) + 1, enlarged.index(l) + 1)
            c = -Q * Q_MINUS_QINV * LaurentScalar.minus_q_power(e)
            piece = loc(gen(shape, 1, j).scale(c)) * x_prime_minor(shape, rows, newcols)
            corrections.append(piece)
        return check_zero(f"{label}: correction sum", difference(ONE, corrections))

    if gj == shape.n and gi >= 2:
        k = gi
        if k in rows:
            return check_zero(f"{label}: q twist", difference(Q))
        corrections = []
        enlarged = sorted(set(rows) | {k})
        for j in (r for r in rows if r > k):
            newrows = tuple(sorted(set(rows) - {j} | {k}))
            e = laws.commutation_row_exponent(enlarged.index(j) + 1, enlarged.index(k) + 1)
            c = -QINV * (QINV - Q) * LaurentScalar.minus_q_power(e)
            piece = loc(gen(shape, j, shape.n).scale(c)) * x_prime_minor(shape, newrows, cols)
            corrections.append(piece)
        return check_zero(f"{label}: correction sum", difference(ONE, corrections))

    raise ValueError(f"generator X[{gi},{gj}] is not an edge generator for {shape}")
