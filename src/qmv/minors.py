"""Quantum determinants, quantum minors, their products with generators, and
q-Laplace expansions.

The quantum determinant of a square grid is the signed permutation sum
sum_{sigma} (-q)^{inv(sigma)} X[1,sigma(1)] ... X[n,sigma(n)].  A minor keeps a
subset of rows and columns and takes the determinant of the relabeled
submatrix; because the row indices are strictly increasing, every permutation
product is already in PBW order, so minors are assembled without rewriting.

A generator times a minor is reduced to generators times smaller minors, the
way the source paper reduces minors.  Grouping the permutation sum by the
column b (1-based) that sigma gives the first row r1 regroups the definition,
since inv(sigma) = (b - 1) + inv(rest):

    [R|C] = sum_b (-q)^(b-1) X[r1,c_b] [R - r1 | C - c_b].

So g [R|C] = sum_b (-q)^(b-1) (g X[r1,c_b]) [R - r1 | C - c_b], and the
two-letter product g X[r1,c_b] straightens through the kernel into terms w.
If w lies in rows <= r1, it is prepended to the sub-minor's terms, which lie
in rows > r1.  Otherwise g lies in a row k > r1 and w = u v with u in row r1
and v in row k; u is prepended to the product v [R - r1 | C - c_b], which
straightening keeps in rows > r1 (a rewrite only uses the rows of the pair it
swaps).  Either way the concatenation is a PBW monomial, so nothing else is
rewritten.  [R|C] g mirrors this along the last row rt: the term of c_b
(0-based b) carries (-q)^(t-1-b), X[rt,c_b] g straightens into w, and w, or
its letter v in row rt after the product [R - rt | C - c_b] u, is appended.
This is a rewrite of the permutation sum, not a fitted law.

Every step stays in the kernel's flat {(codes, q exponent): int} form.  The
products of one generator by a sub-minor are memoized by (generator id, rows,
cols), with id 0 for the sub-minor itself, in a memo that one product builder
makes and drops when it returns: one expansion, one commutator or one
product.  Each builder regroups its flat result once.  The kernel cache meets
only two-letter products, one entry per pair of generators.

Row and column expansions both take their terms and exponent laws from the
tables in the laws module, fitted by the exponent solver and frozen with the
package.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import factorial

from .algebra import (
    COL_BITS, EXP_BITS, EXP_MASK,
    AlgebraElement, Codes, Flat, Shape, _fold_gen, _regroup, decode, gen, gen_id, letter,
    render_monomial,
)
from .scalar import LaurentScalar
from . import laws

Gen = tuple[int, int]
Terms = tuple[tuple[Codes, int, int], ...]  # (codes, e, c) triples meaning sum c q^e codes
Memo = dict[tuple[int, tuple[int, ...], tuple[int, ...]], Terms]

ROW_SHIFT = EXP_BITS + COL_BITS  # a letter code shifted by this is its row

# The most permutation terms a minor may have: 9!, so every minor of a grid up
# to 9 x 9 is built, and a larger one is refused before it is built.
MAX_MINOR_TERMS = 362_880


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

    def __str__(self) -> str:
        """The DSL's notation, e.g. [{1,2}|{2,3}]."""
        return "[{%s}|{%s}]" % (",".join(map(str, self.rows)), ",".join(map(str, self.cols)))


def inversions(perm: tuple[int, ...]) -> int:
    """Number of inversions of a permutation given in one-line notation."""
    return sum(
        1
        for a, b in itertools.combinations(range(len(perm)), 2)
        if perm[a] > perm[b]
    )


def minor(shape: Shape, rows: tuple[int, ...] | list[int], cols: tuple[int, ...] | list[int]) -> AlgebraElement:
    """The quantum minor on the given rows and columns, in PBW normal form."""
    return _minor(shape, *_fitting(shape, rows, cols))


def _fitting(shape: Shape, rows, cols) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The rows and columns of a minor that fits in shape and within the term
    limit, as tuples."""
    rows, cols = tuple(rows), tuple(cols)
    spec = MinorSpec(rows, cols)
    if rows[-1] > shape.m or cols[-1] > shape.n or rows[0] < 1 or cols[0] < 1:
        raise ValueError(f"minor {spec} does not fit in shape {shape}")
    check_term_count(len(rows))
    return rows, cols


def check_term_count(t: int) -> None:
    """Refuse a t-minor whose t! permutation terms exceed ``MAX_MINOR_TERMS``."""
    if factorial(t) > MAX_MINOR_TERMS:
        raise ValueError(f"a {t}-minor has {t}! = {factorial(t):,} terms, "
                         f"more than the limit of {MAX_MINOR_TERMS:,}")


@lru_cache(maxsize=None)
def _minor(shape: Shape, rows: tuple[int, ...], cols: tuple[int, ...]) -> AlgebraElement:
    """Built once per (shape, rows, cols); elements and their coefficients are
    immutable, so callers share it, and its terms share one (-q)^k each."""
    t = len(rows)
    powers = [LaurentScalar.minus_q_power(k) for k in range(t * (t - 1) // 2 + 1)]
    return AlgebraElement(shape, {codes: powers[inv] for codes, inv in _permutation_words(rows, cols)})


def _permutation_words(rows: tuple[int, ...], cols: tuple[int, ...]) -> list[tuple[Codes, int]]:
    """(word, inv(sigma)) over the permutations sigma, in lexicographic order:
    the first row takes the column in 0-based position b and adds b
    inversions to the rest.  Rows ascend, so every word is a PBW monomial."""
    if not rows:
        return [((), 0)]
    r, below = rows[0], rows[1:]
    words = []
    for b, col in enumerate(cols):
        head = (letter(r, col),)
        words.extend((head + codes, b + inv)
                     for codes, inv in _permutation_words(below, cols[:b] + cols[b + 1:]))
    return words


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
    return minor(shape, rows, cols) if rows else AlgebraElement.one(shape)


def gen_times_minor(x: AlgebraElement, rows, cols) -> AlgebraElement:
    """x [rows|cols] for x a combination of generators, through sub-minors."""
    return _regroup(x.shape, _product(_left, x, (rows, cols), {}, {}))


def minor_times_gen(rows, cols, x: AlgebraElement) -> AlgebraElement:
    """[rows|cols] x for x a combination of generators, through sub-minors."""
    return _regroup(x.shape, _product(_right, x, (rows, cols), {}, {}))


def minor_commutator(x: AlgebraElement, rows, cols) -> AlgebraElement:
    """[rows|cols] x - x [rows|cols] for x a combination of generators, summed once."""
    acc = _product(_right, x, (rows, cols), {}, {})
    return _regroup(x.shape, _product(_left, -x, (rows, cols), {}, acc))


def _product(side, x: AlgebraElement, key: laws.MinorKey, memo: Memo, acc: Flat) -> Flat:
    """Add x [key] (side ``_left``) or [key] x (side ``_right``) into acc and
    return acc, for x a combination of generators; the empty key names 1.
    The memo serves one side only."""
    rows, cols = key if key == ((), ()) else _fitting(x.shape, *key)
    for mono, coeff in x._terms.items():
        if len(mono) != 1 or mono[0] & EXP_MASK != 1:
            raise ValueError(f"expected a combination of generators, got the term {render_monomial(mono)}")
        side(mono[0] >> EXP_BITS, coeff._terms, rows, cols, memo, acc)
    return acc


def _seed(g: int, scalar: dict[int, int]) -> Flat:
    """sum c q^e X_g over scalar's (e, c) as a flat sum; g = 0 stands for 1."""
    codes = (g << EXP_BITS | 1,) if g else ()
    return {(codes, e): c for e, c in scalar.items()}


def _left(g: int, scalar: dict[int, int], rows: tuple[int, ...], cols: tuple[int, ...],
          memo: Memo, acc: Flat) -> Flat:
    """Add (sum c q^e X_g) [rows|cols] into acc, grouped by the first row."""
    seed = _seed(g, scalar)
    if not rows:
        return _add(acc, _triples(seed), (), (), 0, 1)
    r, below = rows[0], rows[1:]
    for b, col in enumerate(cols):
        rest = cols[:b] + cols[b + 1:]
        sign = -1 if b & 1 else 1
        for (w, e), c in _fold_gen(seed, gen_id(r, col)).items():
            if not c:
                continue
            if w[-1] >> ROW_SHIFT <= r:  # w in rows <= r, before the sub-minor
                _add(acc, _memoized(_left, 0, below, rest, memo), w, (), e + b, sign * c)
            else:  # w = u v with u in row r and v below it
                _add(acc, _memoized(_left, w[1] >> EXP_BITS, below, rest, memo), w[:1], (), e + b,
                     sign * c)
    return acc


def _right(g: int, scalar: dict[int, int], rows: tuple[int, ...], cols: tuple[int, ...],
           memo: Memo, acc: Flat) -> Flat:
    """Add [rows|cols] (sum c q^e X_g) into acc, grouped by the last row."""
    if not rows:
        return _add(acc, _triples(_seed(g, scalar)), (), (), 0, 1)
    r, above, last = rows[-1], rows[:-1], len(rows) - 1
    for b, col in enumerate(cols):
        rest = cols[:b] + cols[b + 1:]
        sign = -1 if (last - b) & 1 else 1
        pair = {((letter(r, col),), e): c for e, c in scalar.items()}
        for (w, e), c in (_fold_gen(pair, g) if g else pair).items():
            if not c:
                continue
            if w[0] >> ROW_SHIFT >= r:  # w in rows >= r, after the sub-minor
                _add(acc, _memoized(_right, 0, above, rest, memo), (), w, e + last - b, sign * c)
            else:  # w = u v with v in row r and u above it
                _add(acc, _memoized(_right, w[0] >> EXP_BITS, above, rest, memo), (), w[1:],
                     e + last - b, sign * c)
    return acc


def _memoized(side, g: int, rows: tuple[int, ...], cols: tuple[int, ...], memo: Memo) -> Terms:
    """The nonzero terms of X_g [rows|cols] or [rows|cols] X_g, by side, built
    once per memo."""
    key = (g, rows, cols)
    terms = memo.get(key)
    if terms is None:
        flat = side(g, {0: 1}, rows, cols, memo, {})
        terms = memo[key] = _triples(flat)
    return terms


def _triples(flat: Flat) -> Terms:
    return tuple((codes, e, c) for (codes, e), c in flat.items() if c)


def _add(acc: Flat, terms: Terms, head: Codes, tail: Codes, e0: int, c0: int) -> Flat:
    """Add c0 q^e0 head w tail over the (w, e, c) terms c q^e w into acc; head
    or tail is empty."""
    get = acc.get
    if tail:
        for codes, e, c in terms:
            key = (codes + tail, e0 + e)
            acc[key] = get(key, 0) + c0 * c
    else:
        for codes, e, c in terms:
            key = (head + codes, e0 + e)
            acc[key] = get(key, 0) + c0 * c
    return acc


def _factor(shape: Shape, t: laws.Term) -> AlgebraElement:
    """The term's scaled generator (-q)^e X[gen]."""
    return gen(shape, *t.gen).scale(LaurentScalar.minus_q_power(t.exponent))


def _summed(side, shape: Shape, terms: list[laws.Term]) -> AlgebraElement:
    """The sum of a term table's products, generators on the given side,
    accumulated once."""
    acc: Flat = {}
    memo: Memo = {}
    for t in terms:
        _product(side, _factor(shape, t), t.minor, memo, acc)
    return _regroup(shape, acc)


def _products(side, shape: Shape, terms: list[laws.Term]) -> list[AlgebraElement]:
    """A term table's products, generators on the given side, in table order."""
    memo: Memo = {}
    return [_regroup(shape, _product(side, _factor(shape, t), t.minor, memo, {})) for t in terms]


def laplace_expand_row(shape: Shape, i: int, k: int) -> AlgebraElement:
    """sum_j (-q)^(j-i) X[k,j] A(i,j): the determinant when k = i, zero otherwise."""
    full = tuple(range(1, _square_side(shape, i, k) + 1))
    return _summed(_left, shape, laws.row_terms(full, full, i, k))


def laplace_expand_col(shape: Shape, j: int, l: int) -> AlgebraElement:
    """sum_i (-q)^e(i,j) A(i,j) X[i,l] with the fitted column exponent law."""
    full = tuple(range(1, _square_side(shape, j, l) + 1))
    return expansion(shape, laws.col_terms(full, full, j, l))


def expansion(shape: Shape, terms: list[laws.Term]) -> AlgebraElement:
    """sum (-q)^e [minor] X[gen] over a term table whose generators stand right."""
    return _summed(_right, shape, terms)


def expansion_products(shape: Shape, terms: list[laws.Term]) -> list[AlgebraElement]:
    """The products (-q)^e [minor] X[gen] of such a term table, in table order."""
    return _products(_right, shape, terms)


def left_expansion_products(shape: Shape, terms: list[laws.Term]) -> list[AlgebraElement]:
    """The products (-q)^e X[gen] [minor] of a term table whose generators stand
    left, in table order."""
    return _products(_left, shape, terms)


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
    terms: dict[Codes, LaurentScalar] = {}
    for mono, coeff in element.terms():
        if all(target.contains(*decode(code)[0]) for code in mono):
            terms[mono] = coeff
    return AlgebraElement(target, terms)
