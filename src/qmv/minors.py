"""Quantum determinants, quantum minors, and q-Laplace expansions.

The quantum determinant of a square grid is the signed permutation sum
sum_{sigma} (-q)^{inv(sigma)} X[1,sigma(1)] ... X[n,sigma(n)].  A minor keeps a
subset of rows and columns and takes the determinant of the relabeled
submatrix; because the row indices are strictly increasing, every permutation
product is already in PBW order, so minors are assembled without rewriting.

Row and column expansions both take their terms and exponent laws from the
tables in the laws module, fitted by the exponent solver and frozen with the
package.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .algebra import AlgebraElement, PbwMonomial, Shape, gen
from .scalar import LaurentScalar
from . import laws

Gen = tuple[int, int]


@dataclass(frozen=True)
class MinorSpec:
    """Row and column index sets naming a quantum minor; strictly increasing, equal size."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]

    def __post_init__(self):
        if len(self.rows) != len(self.cols) or not self.rows:
            raise ValueError("minor needs equally many rows and columns, at least one each")
        if any(a >= b for a, b in zip(self.rows, self.rows[1:])):
            raise ValueError(f"row indices must be strictly increasing: {self.rows}")
        if any(a >= b for a, b in zip(self.cols, self.cols[1:])):
            raise ValueError(f"column indices must be strictly increasing: {self.cols}")

    @property
    def size(self) -> int:
        return len(self.rows)


def inversions(perm: tuple[int, ...]) -> int:
    """Number of inversions of a permutation given in one-line notation."""
    return sum(
        1
        for a, b in itertools.combinations(range(len(perm)), 2)
        if perm[a] > perm[b]
    )


def minor(shape: Shape, rows: tuple[int, ...] | list[int], cols: tuple[int, ...] | list[int]) -> AlgebraElement:
    """The quantum minor on the given rows and columns, in PBW normal form."""
    spec = MinorSpec(tuple(rows), tuple(cols))
    if spec.rows[-1] > shape.m or spec.cols[-1] > shape.n or spec.rows[0] < 1 or spec.cols[0] < 1:
        raise ValueError(f"minor {spec} does not fit in shape {shape}")
    return _minor(shape, spec.rows, spec.cols)


@lru_cache(maxsize=None)
def _minor(shape: Shape, rows: tuple[int, ...], cols: tuple[int, ...]) -> AlgebraElement:
    """Built once per (shape, rows, cols); elements are immutable, so callers share it."""
    t = len(rows)
    terms: dict[PbwMonomial, LaurentScalar] = {}
    for perm in itertools.permutations(range(t)):
        # rows ascend, so the product below is already a PBW monomial
        word = tuple(((rows[a], cols[perm[a]]), 1) for a in range(t))
        terms[PbwMonomial(word)] = LaurentScalar.minus_q_power(inversions(perm))
    return AlgebraElement(shape, terms)


def qdet(shape: Shape) -> AlgebraElement:
    """Quantum determinant of the full grid; requires a square shape."""
    if shape.m != shape.n:
        raise ValueError(f"quantum determinant needs a square shape, got {shape}")
    return minor(shape, range(1, shape.n + 1), range(1, shape.n + 1))


def complement_minor(shape: Shape, i: int, j: int) -> AlgebraElement:
    """The minor A(i,j) deleting row i and column j of a square grid."""
    if shape.m != shape.n:
        raise ValueError("complement minors are defined for square shapes")
    n = shape.n
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"A({i},{j}) out of range for {shape}")
    rows = tuple(r for r in range(1, n + 1) if r != i)
    cols = tuple(c for c in range(1, n + 1) if c != j)
    return term_minor(shape, (rows, cols))


def term_minor(shape: Shape, key: laws.MinorKey) -> AlgebraElement:
    """The minor named by a term table's (rows, cols) key; the empty key names 1."""
    return minor(shape, *key) if key[0] else AlgebraElement.one(shape)


def laplace_expand_row(shape: Shape, i: int, k: int) -> AlgebraElement:
    """sum_j (-q)^(j-i) X[k,j] A(i,j): the determinant when k = i, zero otherwise."""
    full = tuple(range(1, _square_side(shape, i, k) + 1))
    return AlgebraElement.sum(shape, (
        gen(shape, *t.gen).scale(LaurentScalar.minus_q_power(t.exponent)) * term_minor(shape, t.minor)
        for t in laws.row_terms(full, full, i, k)
    ))


def laplace_expand_col(shape: Shape, j: int, l: int) -> AlgebraElement:
    """sum_i (-q)^e(i,j) A(i,j) X[i,l] with the fitted column exponent law."""
    full = tuple(range(1, _square_side(shape, j, l) + 1))
    return expansion(shape, laws.col_terms(full, full, j, l))


def expansion(shape: Shape, terms: list[laws.Term]) -> AlgebraElement:
    """sum (-q)^e [minor] X[gen] over a term table whose generators stand right."""
    return AlgebraElement.sum(shape, (
        term_minor(shape, t.minor) * gen(shape, *t.gen).scale(LaurentScalar.minus_q_power(t.exponent))
        for t in terms
    ))


def _square_side(shape: Shape, a: int, b: int) -> int:
    if shape.m != shape.n:
        raise ValueError("Laplace expansions are defined for square shapes")
    if not (1 <= a <= shape.n and 1 <= b <= shape.n):
        raise ValueError(f"expansion indices ({a},{b}) out of range for {shape}")
    return shape.n


def project_pi(element: AlgebraElement, target: Shape) -> AlgebraElement:
    """Image under the surjection onto a smaller grid: X[i,j] maps to itself when
    it fits inside the target and to 0 otherwise, applied termwise."""
    source = element.shape
    s = max(target.m, target.n)
    if source.m != s or source.n != s:
        raise ValueError(
            f"projection expects a square {s}x{s} source for target {target}, got {source}"
        )
    terms: dict[PbwMonomial, LaurentScalar] = {}
    for mono, coeff in element.terms():
        if all(target.contains(i, j) for (i, j), _ in mono.pairs):
            terms[mono] = coeff
    return AlgebraElement(target, terms)
