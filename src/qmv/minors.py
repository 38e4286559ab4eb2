"""Quantum determinants, quantum minors, their products with generators, and
q-Laplace expansions.

The quantum determinant of a square grid is the signed permutation sum
sum_{sigma} (-q)^{inv(sigma)} X[1,sigma(1)] ... X[n,sigma(n)].  A minor keeps a
subset of rows and columns and takes the determinant of the relabeled
submatrix; because the row indices are strictly increasing, every permutation
product is already in PBW order, so minors are assembled without rewriting.

Generators times minors, and PBW words beside minors in general, are written
as combinations: sums, with coefficients in Z[q, q^-1], of states L [R|C] W
with PBW words L and W, so a minor, a left or a right product, or a pure word
L over the empty minor.  ``product`` alone straightens two PBW words, and
``made`` alone folds a minor of at most one row, a word, into L [R|C] W
straightened, so a state has a minor of two or more rows or is a pure word.
A state is reduced to smaller states the way the source paper reduces
minors.  Grouping the permutation sum by the column c_b (b 0-based) that
sigma gives the top row r regroups the definition, since
inv(sigma) = b + inv(rest):

    [R|C] = sum_b (-q)^b X[r,c_b] [R - r | C - c_b].

Let r be the state's top row.  L X[r,c_b] straightens through ``product`` into
words w, each the product u v of its row-r prefix u and a word v below row r
(a rewrite only uses the rows of the pair it swaps), and v stays in front of
the sub-minor; W, all below row r, stays behind it.  So ``top`` writes a state
as pieces u rest, u a monomial in row r and rest, v [R - r | C - c_b] W made
by ``made``, in the rows below; a state whose minor misses row r gives the
row-r prefix of L.  ``bottom`` mirrors it along the bottom row, with
(-q)^(t-1-b), straightening X[r,c_b] W and keeping its row-r suffix; a pure
word gives the row-r suffix of L.  A state splits at its top row unless W has
a row-r letter over a minor (the letter would have to move up past the minor's
lower rows), and at its bottom row unless L has a row-r letter over a minor.
This is a rewrite of the permutation sum, not a fitted law, and with
one-letter words the kernel cache meets only two-letter products, one entry
per pair of generators.

``flat`` builds a combination in the kernel's flat {(codes, q exponent): int}
form.  A state with a right word splits at its bottom row and any other state
at its top row; each piece's rest comes from a memo of state products that one
build makes and drops, the top-level pieces go straight into the result, and
what cancels is dropped once, at the end.  A state that splits at neither end
is built without W, then multiplied by W.  The zerotest module decides
combinations with the same splits without building them.

Row and column expansions both take their terms and exponent laws from the
tables in the laws module, fitted by the exponent solver and frozen with the
package, and are built as combinations.  Each term carries the side its
generator stands on, so ``table_combination``, ``expansion`` and
``expansion_products`` read a table of either side without being told it.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from operator import getitem

from .algebra import (
    COL_BITS, EXP_BITS, EXP_MASK, AlgebraElement, Codes, Flat, Shape, _fold_gen, _nonzero, decode,
    gen, letter,
)
from .scalar import LaurentScalar
from . import laws

Terms = tuple[tuple[Codes, int, int], ...]  # (codes, e, c) triples meaning sum c q^e codes
# L [rows|cols] W, PBW words L and W beside a minor.  ``made`` folds a minor of
# at most one row into its words, so a state has a minor of two or more rows,
# or it is a pure word L.
State = tuple[Codes, tuple[int, ...], tuple[int, ...], Codes]
Combination = dict[tuple[State, int], int]  # (state, q exponent) -> integer coefficient
Piece = tuple[Codes, int, int, State]  # (u, e, c, rest): c q^e u rest, or c q^e rest u
Memo = dict[State, Terms]

ONE: State = ((), (), (), ())

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
    """The quantum minor on the given rows and columns, in PBW normal form,
    built once per process and shared; ``built_minor`` keeps nothing."""
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


def built_minor(shape: Shape, rows: tuple[int, ...], cols: tuple[int, ...]) -> AlgebraElement:
    """The minor on rows and columns that fit, as tuples, built afresh and kept
    nowhere, for a caller that reads it once: the permutation sum, each word's
    term (-q)^inv(sigma) the flat key (word, inv) with coefficient (-1)^inv."""
    return AlgebraElement(shape, {key: _sign(key[1]) for key in _permutation_words(rows, cols)})


# ``built_minor`` once per (shape, rows, cols); elements are immutable, so
# callers share it.
_minor = lru_cache(maxsize=None)(built_minor)


def _permutation_words(rows: tuple[int, ...], cols: tuple[int, ...]) -> list[tuple[Codes, int]]:
    """(word, inv(sigma)) over the permutations sigma, in lexicographic order.
    Rows ascend, so every word is a PBW monomial; its letters are read from
    one table of codes, so the words share their int objects.

    ``itertools.permutations`` of the positions yields them in lexicographic
    order.  The one at index k has the factorial-base digits of k as its
    Lehmer code: the digit of position i counts the later positions sigma
    sends to a smaller column, so inv(sigma) is the digit sum.  The digit
    sums are built from the last position up: over t positions, the first
    digit b in 0..t-1 varies slowest and adds b to the sums over the last
    t - 1."""
    table = [[letter(r, c) for c in cols] for r in rows]
    invs = [0]
    for size in range(2, len(rows) + 1):
        invs = [b + x for b in range(size) for x in invs]
    return list(zip([tuple(map(getitem, table, p)) for p in itertools.permutations(range(len(cols)))],
                    invs))


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


def _factor(shape: Shape, t: laws.Term) -> AlgebraElement:
    """The term's scaled generator (-q)^e X[gen]."""
    return gen(shape, *t.gen).scale(LaurentScalar.minus_q_power(t.exponent))


def _sign(k: int) -> int:
    """(-1)^k, so that (-q)^k is the term _sign(k) q^k."""
    return -1 if k & 1 else 1


@lru_cache(maxsize=1 << 12)
def product(left: Codes, right: Codes) -> Terms:
    """The PBW words left * right straightened, as (codes, e, c) triples: the
    one place words are multiplied, cached, because the splits and ``made``
    meet the same short words for many states."""
    acc: Flat = {(left, 0): 1}
    for code in right:
        for _ in range(code & EXP_MASK):
            acc = _fold_gen(acc, code >> EXP_BITS)
    return tuple((w, e, c) for (w, e), c in acc.items() if c)


def made(left: Codes, rows: tuple[int, ...], cols: tuple[int, ...],
         right: Codes) -> list[tuple[State, int, int]]:
    """L [rows|cols] W as (state, e, c) triples: the state itself, or, when the
    minor has at most one row, the words of L [rows|cols] W straightened.  The
    one place a minor folds into its words."""
    if len(rows) > 1:
        return [((left, rows, cols, right), 0, 1)]
    middle = (letter(rows[0], cols[0]),) if rows else ()
    return [((w, (), (), ()), e, c) for w, e, c in product(left, middle + right)]


def combination(entries) -> Combination:
    """The sum of c q^e L [rows|cols] W over entries (L, rows, cols, W, e, c),
    each state made by ``made``."""
    out: Combination = {}
    for left, rows, cols, right, e, c in entries:
        for state, e2, c2 in made(left, rows, cols, right):
            key = (state, e + e2)
            out[key] = out.get(key, 0) + c * c2
    return out


def top(state: State, r: int) -> list[Piece] | None:
    """The state as pieces (u, e, c, rest) with u in row r and rest in rows
    below it, by its first-row regrouping; None when it cannot split there."""
    left, rows, cols, right = state
    if right and right[0] >> ROW_SHIFT == r:
        return None  # W would have to move up past the minor's lower rows
    below = (r + 1) << ROW_SHIFT  # the codes below row r start here
    if not rows or rows[0] != r:
        k = bisect_left(left, below)
        return [(left[:k], 0, 1, (left[k:], rows, cols, right))]
    sub, row_r = rows[1:], r << ROW_SHIFT | 1  # X[r,col] is row_r | col << EXP_BITS
    pieces = []
    for b, col in enumerate(cols):
        rest = cols[:b] + cols[b + 1:]
        for w, e, c in product(left, (row_r | col << EXP_BITS,)):
            k = bisect_left(w, below)  # w = u v, u in row r
            pieces += [(w[:k], b + e + e2, _sign(b) * c * c2, s)
                       for s, e2, c2 in made(w[k:], sub, rest, right)]
    return pieces


def bottom(state: State, r: int) -> list[Piece] | None:
    """The state as pieces (v, e, c, rest) with v in row r and rest in rows
    above it, by its last-row regrouping; None when it cannot split there."""
    left, rows, cols, right = state
    start = r << ROW_SHIFT  # the codes of row r start here
    if not rows:  # a pure word
        k = bisect_left(left, start)
        return [(left[k:], 0, 1, (left[:k], (), (), ()))]
    if left and left[-1] >= start:
        return None  # L would have to move down past the minor's upper rows
    if rows[-1] != r:
        k = bisect_left(right, start)
        return [(right[k:], 0, 1, (left, rows, cols, right[:k]))]
    sub, last, row_r = rows[:-1], len(rows) - 1, start | 1  # X[r,col] is row_r | col << EXP_BITS
    pieces = []
    for b, col in enumerate(cols):
        rest = cols[:b] + cols[b + 1:]
        for w, e, c in product((row_r | col << EXP_BITS,), right):
            k = bisect_left(w, start)  # w = u v, v in row r
            pieces += [(w[k:], last - b + e + e2, _sign(last - b) * c * c2, s)
                       for s, e2, c2 in made(left, sub, rest, w[:k])]
    return pieces


def span(state: State) -> tuple[int, int]:
    """The lowest and the highest row the letters of a state other than ONE lie in."""
    left, rows, _, right = state
    ends = [w[i] >> ROW_SHIFT for w in (left, right) if w for i in (0, -1)]
    if rows:
        ends += (rows[0], rows[-1])
    return min(ends), max(ends)


def commutator(g: int, rows: tuple[int, ...], cols: tuple[int, ...]) -> Combination:
    """[rows|cols] X_g - X_g [rows|cols]."""
    x = (g << EXP_BITS | 1,)
    return combination([((), rows, cols, x, 0, 1), (x, rows, cols, (), 0, -1)])


def table_combination(shape: Shape, terms: list[laws.Term],
                      minus: laws.MinorKey | None = None) -> Combination:
    """The sum of a term table's products, (-q)^e X[gen] [minor] or
    (-q)^e [minor] X[gen] as each term's side says; minus the minor ``minus``
    when one is given."""
    entries = [((), *minus, (), 0, -1)] if minus else []
    for t in terms:
        entries.extend((x, *t.minor, (), e, c) if t.left else ((), *t.minor, x, e, c)
                       for (x, e), c in _factor(shape, t)._terms.items())
    return combination(entries)


def flat(shape: Shape, combination: Combination) -> AlgebraElement:
    """The combination as an element, built through its states' row splits."""
    return _flat(shape, combination, {})


def _flat(shape: Shape, combination: Combination, memo: Memo) -> AlgebraElement:
    """``flat`` with the given memo of state products; every state's minor is
    fitted to the shape and the term limit before anything is built."""
    for (_, rows, cols, _), _ in combination:
        if rows:
            _fitting(shape, rows, cols)
    acc: Flat = {}
    for (state, e), c in combination.items():
        _expand(state, e, c, memo, acc)
    return AlgebraElement(shape, _nonzero(acc))


def _expand(state: State, e0: int, c0: int, memo: Memo, acc: Flat) -> Flat:
    """Add c0 q^e0 state into acc and return acc: a state with a right word
    split at its bottom row, any other at its top row, each rest from the
    memo; one that splits at neither is L [rows|cols] built, times W."""
    left, rows, cols, right = state
    if not rows:  # a pure word
        acc[(left, e0)] = acc.get((left, e0), 0) + c0
    elif right and (pieces := bottom(state, span(state)[1])) is not None:
        for v, e, c, rest in pieces:
            _add(acc, _terms(rest, memo), (), v, e0 + e, c0 * c)
    elif (pieces := top(state, span(state)[0])) is not None:
        for u, e, c, rest in pieces:
            _add(acc, _terms(rest, memo), u, (), e0 + e, c0 * c)
    else:
        for codes, e, c in _terms((left, rows, cols, ()), memo):
            for w, e2, c2 in product(codes, right):
                key = (w, e0 + e + e2)
                acc[key] = acc.get(key, 0) + c0 * c * c2
    return acc


def _terms(state: State, memo: Memo) -> Terms:
    """The nonzero terms of the state, built once per memo."""
    terms = memo.get(state)
    if terms is None:
        terms = memo[state] = tuple(
            (codes, e, c) for (codes, e), c in _expand(state, 0, 1, memo, {}).items() if c)
    return terms


def _add(acc: Flat, terms: Terms, head: Codes, tail: Codes, e0: int, c0: int) -> None:
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


def laplace_expand_row(shape: Shape, i: int, k: int) -> AlgebraElement:
    """sum_j (-q)^(j-i) X[k,j] A(i,j): the determinant when k = i, zero otherwise."""
    full = tuple(range(1, _square_side(shape, i, k) + 1))
    return expansion(shape, laws.row_terms(full, full, i, k))


def laplace_expand_col(shape: Shape, j: int, l: int) -> AlgebraElement:
    """sum_i (-q)^e(i,j) A(i,j) X[i,l] with the fitted column exponent law."""
    full = tuple(range(1, _square_side(shape, j, l) + 1))
    return expansion(shape, laws.col_terms(full, full, j, l))


def expansion(shape: Shape, terms: list[laws.Term]) -> AlgebraElement:
    """The sum of a term table's products, each generator on its term's side."""
    return flat(shape, table_combination(shape, terms))


def expansion_products(shape: Shape, terms: list[laws.Term]) -> list[AlgebraElement]:
    """A term table's products, each generator on its term's side, in table
    order, built with one memo."""
    memo: Memo = {}
    return [_flat(shape, table_combination(shape, [t]), memo) for t in terms]


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
    return AlgebraElement(target, {(mono, e): c for (mono, e), c in element._terms.items()
                                   if all(target.contains(*decode(code)[0]) for code in mono)})
