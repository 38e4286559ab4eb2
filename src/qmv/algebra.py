"""PBW normal forms for the quantum matrix algebra on an m-by-n grid of generators.

Generators X[i,j] (1 <= i <= m, 1 <= j <= n) satisfy, for i < k and j < l:

    X[i,j] X[i,l] = q X[i,l] X[i,j]
    X[i,j] X[k,j] = q X[k,j] X[i,j]
    X[i,l] X[k,j] = X[k,j] X[i,l]
    X[i,j] X[k,l] - X[k,l] X[i,j] = (q - q^-1) X[i,l] X[k,j]

The canonical basis is the set of row-major ordered monomials
X[1,1] <= X[1,2] <= ... <= X[1,n] <= X[2,1] <= ... <= X[m,n]; every product is
straightened onto that basis.  Straightening swaps an out-of-order adjacent
pair into at most two words, each strictly smaller in the length-graded
lexicographic word order, so rewriting terminates.

Straightening computes with integer coefficients.  A term is c * q^e * monomial
with c a Python int, and the q exponent travels in the key: the cache
``_mono_times_gen(pairs, g)`` returns ``(pairs, e, c)`` triples, and a product
accumulates into one flat ``{(pairs, e): c}`` dict.  ``LaurentScalar`` appears
only at the element boundary: an element stores ``{PbwMonomial: LaurentScalar}``,
and a product regroups its flat dict into that form once, at the end.

Only the suffix of a monomial moves.  Every letter a rewrite of h * g creates
is >= g: the swap gives g and h, and the correction X[k,j] * X[i,l] of a
north-west pair (g = X[k,l], h = X[i,j], k < i, l < j) lies in row k after
column l and in row i > k.  So multiplying by g never looks at the prefix of
letters < g, and the output keeps it in front unchanged.  ``_fold_gen``
appends g directly when the last letter of a monomial is <= g; otherwise it
splits the monomial at g and straightens only the suffix through the cache,
whose entries are therefore suffixes alone.

A product walks the words of its right factor in sorted order and keeps the
fold of the left factor by every prefix of the current word.  Each word
resumes from the longest prefix it shares with the previous one, so words
sharing a prefix, such as the permutation words of a determinant, fold that
prefix once.

Monomials and elements are immutable values and every operation is a pure
function, so all of this is safe to use from concurrent workers.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter

from .scalar import LaurentScalar, ONE, ZERO

Gen = tuple[int, int]
Pairs = tuple[tuple[Gen, int], ...]
Flat = dict[tuple[Pairs, int], int]  # (monomial pairs, q exponent) -> integer coefficient


@dataclass(frozen=True)
class Shape:
    """Row and column counts of the generator grid; fixed per algebra instance."""

    m: int
    n: int

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError(f"shape must have positive dimensions, got {self.m}x{self.n}")

    def contains(self, i: int, j: int) -> bool:
        return 1 <= i <= self.m and 1 <= j <= self.n

    def generators(self) -> list[Gen]:
        return [(i, j) for i in range(1, self.m + 1) for j in range(1, self.n + 1)]

    def __str__(self) -> str:
        return f"{self.m}x{self.n}"


@dataclass(frozen=True)
class Bidegree:
    """Multidegree counting generator occurrences per row and per column."""

    rowdeg: tuple[int, ...]
    coldeg: tuple[int, ...]


class PbwMonomial:
    """An ordered monomial: sparse generator -> positive exponent, row-major order."""

    __slots__ = ("pairs", "_hash")

    def __init__(self, pairs: Pairs = ()):
        self.pairs = pairs
        self._hash: int | None = None

    @classmethod
    def from_exponents(cls, exps: dict[Gen, int]) -> "PbwMonomial":
        pairs = tuple(sorted((g, e) for g, e in exps.items() if e))
        if any(e < 0 for _, e in pairs):
            raise ValueError("monomial exponents must be nonnegative")
        return cls(pairs)

    def degree(self) -> int:
        return sum(e for _, e in self.pairs)

    def exponent(self, g: Gen) -> int:
        for gen, e in self.pairs:
            if gen == g:
                return e
        return 0

    def word(self) -> tuple[Gen, ...]:
        """The monomial as an explicit sequence of generators."""
        return tuple(g for g, e in self.pairs for _ in range(e))

    def bidegree(self, shape: Shape) -> Bidegree:
        rows = [0] * shape.m
        cols = [0] * shape.n
        for (i, j), e in self.pairs:
            rows[i - 1] += e
            cols[j - 1] += e
        return Bidegree(tuple(rows), tuple(cols))

    def sort_key(self) -> tuple[int, tuple[Gen, ...]]:
        return (self.degree(), self.word())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PbwMonomial) and self.pairs == other.pairs

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.pairs)
        return self._hash

    def __lt__(self, other: "PbwMonomial") -> bool:
        return self.sort_key() < other.sort_key()

    def __str__(self) -> str:
        if not self.pairs:
            return "1"
        ats = []
        for (i, j), e in self.pairs:
            ats.append(f"X[{i},{j}]" if e == 1 else f"X[{i},{j}]^{e}")
        return "*".join(ats)

    def __repr__(self) -> str:
        return f"PbwMonomial({self})"


IDENTITY_MONOMIAL = PbwMonomial()


@lru_cache(maxsize=None)
def _mono_times_gen(pairs: Pairs, g: Gen) -> tuple[tuple[Pairs, int, int], ...]:
    """Normal form of (ordered monomial) * (single generator), as (monomial, e, c)
    triples meaning the sum of c * q^e * monomial.

    Shape-independent: the rewriting rules only look at index pairs.  Inside
    this module only moving suffixes reach the cache (every letter >= g, the
    last one > g); any other monomial is split at g by ``_fold_gen``.
    """
    if bisect_left(pairs, (g,)) or not pairs or pairs[-1][0] <= g:
        return tuple((p, e, c) for (p, e), c in _fold_gen({(pairs, 0): 1}, g).items() if c)
    h, eh = pairs[-1]
    # g must move left past one copy of h; h > g in row-major order.
    rest = pairs[:-1] + ((h, eh - 1),) if eh > 1 else pairs[:-1]
    i, j = h
    k, l = g
    # (u, v, ((e, c), ...)): h g contributes sum c q^e * u v
    if k == i or l == j:
        # same row or same column: h g = q^-1 g h
        expansion = ((g, h, ((-1, 1),)),)
    elif l > j:
        # g lies strictly north-east of h: the pair commutes
        expansion = ((g, h, ((0, 1),)),)
    else:
        # g strictly north-west of h: h g = g h - (q - q^-1) X[k,j] X[i,l]
        expansion = ((g, h, ((0, 1),)), ((k, j), (i, l), ((1, -1), (-1, 1))))
    acc: Flat = {}
    for u, v, scales in expansion:
        for (mono, e), c in _fold_gen(_fold_gen({(rest, 0): 1}, u), v).items():
            for e0, c0 in scales:
                key = (mono, e0 + e)
                acc[key] = acc.get(key, 0) + c0 * c
    return tuple((mono, e, c) for (mono, e), c in acc.items() if c)


def _fold_gen(flat: Flat, g: Gen) -> Flat:
    """Right-multiply a flat sum of c * q^e * monomial by the generator g; the
    result may keep cancelled keys with coefficient 0.

    A monomial whose last letter is <= g takes g by a plain append.  Any other
    splits at g: the prefix of letters < g is passive, only the suffix goes
    through the cache, and the prefix is concatenated into each output key.
    """
    out: Flat = {}
    for (pairs, e), c in flat.items():
        if not c:
            continue
        if pairs:
            h, eh = pairs[-1]
            if h > g:
                s = bisect_left(pairs, (g,))
                prefix = pairs[:s]
                for mono, e2, c2 in _mono_times_gen(pairs[s:], g):
                    key = (prefix + mono, e + e2)
                    out[key] = out.get(key, 0) + c * c2
                continue
            key = (pairs[:-1] + ((g, eh + 1),) if h == g else pairs + ((g, 1),), e)
        else:
            key = (((g, 1),), e)
        out[key] = out.get(key, 0) + c
    return out


class AlgebraElement:
    """A finite LaurentScalar-linear combination of PBW monomials over a fixed shape."""

    __slots__ = ("shape", "_terms")

    def __init__(self, shape: Shape, terms: dict[PbwMonomial, LaurentScalar]):
        self.shape = shape
        self._terms = terms

    @classmethod
    def zero(cls, shape: Shape) -> "AlgebraElement":
        return cls(shape, {})

    @classmethod
    def one(cls, shape: Shape) -> "AlgebraElement":
        return cls(shape, {IDENTITY_MONOMIAL: ONE})

    @classmethod
    def from_scalar(cls, shape: Shape, c: LaurentScalar | int) -> "AlgebraElement":
        if isinstance(c, int):
            c = LaurentScalar.from_int(c)
        return cls(shape, {IDENTITY_MONOMIAL: c} if c else {})

    @classmethod
    def sum(cls, shape: Shape, elements: Iterable["AlgebraElement"]) -> "AlgebraElement":
        """The sum of elements of one shape, accumulated once with integer
        coefficients instead of one intermediate element per partial sum."""
        acc: dict[PbwMonomial, dict[int, int]] = {}
        for a in elements:
            if a.shape != shape:
                raise ValueError(f"shape mismatch: {a.shape} vs {shape}")
            for mono, coeff in a._terms.items():
                d = acc.get(mono)
                if d is None:
                    acc[mono] = dict(coeff._terms)
                else:
                    for e, c in coeff._terms.items():
                        d[e] = d.get(e, 0) + c
        terms = {}
        for mono, d in acc.items():
            clean = {e: c for e, c in d.items() if c}
            if clean:
                terms[mono] = LaurentScalar.from_clean(clean)
        return cls(shape, terms)

    def terms(self) -> list[tuple[PbwMonomial, LaurentScalar]]:
        """(monomial, coefficient) pairs in the canonical printing order."""
        return sorted(self._terms.items(), key=lambda t: t[0].sort_key())

    def coefficient(self, mono: PbwMonomial) -> LaurentScalar:
        return self._terms.get(mono, ZERO)

    def monomials(self) -> list[PbwMonomial]:
        return [m for m, _ in self.terms()]

    def __bool__(self) -> bool:
        return bool(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.shape == other.shape and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.shape, frozenset(self._terms.items())))

    def _check_shape(self, other: "AlgebraElement") -> None:
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._check_shape(other)
        out = dict(self._terms)
        for mono, coeff in other._terms.items():
            c = out.get(mono)
            c = coeff if c is None else c + coeff
            if c:
                out[mono] = c
            elif mono in out:
                del out[mono]
        return AlgebraElement(self.shape, out)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.shape, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._check_shape(other)
        out = dict(self._terms)
        for mono, coeff in other._terms.items():
            c = out.get(mono)
            if c is None:
                out[mono] = -coeff
                continue
            d = dict(c._terms)
            for e, v in coeff._terms.items():
                d[e] = d.get(e, 0) - v
            clean = {e: v for e, v in d.items() if v}
            if clean:
                out[mono] = LaurentScalar.from_clean(clean)
            else:
                del out[mono]
        return AlgebraElement(self.shape, out)

    def scale(self, c: LaurentScalar | int) -> "AlgebraElement":
        if isinstance(c, int):
            c = LaurentScalar.from_int(c)
        if not c:
            return AlgebraElement.zero(self.shape)
        return AlgebraElement(self.shape, {m: c * v for m, v in self._terms.items()})

    def __mul__(self, other: "AlgebraElement | LaurentScalar | int") -> "AlgebraElement":
        if isinstance(other, (LaurentScalar, int)):
            return self.scale(other)
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._check_shape(other)
        left = {
            (mono.pairs, e): c
            for mono, coeff in self._terms.items()
            for e, c in coeff._terms.items()
        }
        # Walk the right factor's words in sorted order; each word resumes from
        # the kept fold of the prefix it shares with the previous word.
        words = sorted(
            ((mono.word(), coeff._terms) for mono, coeff in other._terms.items()),
            key=itemgetter(0),
        )
        path: list[Flat] = [left]  # path[k]: left folded by the first k letters
        prev: tuple[Gen, ...] = ()
        acc: Flat = {}
        for word, right in words:
            k, stop = 0, min(len(prev), len(word))
            while k < stop and prev[k] == word[k]:
                k += 1
            del path[k + 1:]
            for g in word[k:]:
                path.append(_fold_gen(path[-1], g))
            prev = word
            for (pairs, e), c in path[-1].items():
                for er, cr in right.items():
                    key = (pairs, e + er)
                    acc[key] = acc.get(key, 0) + c * cr
        grouped: dict[Pairs, dict[int, int]] = {}
        for (pairs, e), c in acc.items():
            if c:
                grouped.setdefault(pairs, {})[e] = c
        return AlgebraElement(
            self.shape,
            {PbwMonomial(pairs): LaurentScalar.from_clean(d) for pairs, d in grouped.items()},
        )

    def __rmul__(self, other: "LaurentScalar | int") -> "AlgebraElement":
        if isinstance(other, (LaurentScalar, int)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, e: int) -> "AlgebraElement":
        if e < 0:
            raise ValueError("negative powers are not defined in the algebra")
        result = AlgebraElement.one(self.shape)
        for _ in range(e):
            result = result * self
        return result

    def bidegree_of(self) -> Bidegree | None:
        """The common bidegree of all terms, or None when inhomogeneous."""
        degs = {mono.bidegree(self.shape) for mono in self._terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def kill_generator(self, g: Gen) -> "AlgebraElement":
        """Image under the specialization sending X[g] to 0 (drop terms containing it)."""
        return AlgebraElement(
            self.shape, {m: c for m, c in self._terms.items() if m.exponent(g) == 0}
        )

    def specialize(self, q0: Fraction | int) -> dict[PbwMonomial, Fraction]:
        """Evaluate every coefficient at q = q0; zero coefficients dropped."""
        out = {}
        for mono, coeff in self._terms.items():
            v = coeff.evaluate(q0)
            if v:
                out[mono] = v
        return out

    def render(self, limit: int | None = None) -> str:
        """Canonical text; given a limit, only that many leading terms and the term count."""
        return render_element(self, limit=limit)

    def __str__(self) -> str:
        return render_element(self)

    def __repr__(self) -> str:
        return f"<{self.shape} element: {self}>"


def gen(shape: Shape, i: int, j: int) -> AlgebraElement:
    """The generator X[i,j] as a one-term element."""
    if not shape.contains(i, j):
        raise ValueError(f"generator X[{i},{j}] out of range for shape {shape}")
    return AlgebraElement(shape, {PbwMonomial((((i, j), 1),)): ONE})


def commutator(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """a*b - b*a in PBW normal form."""
    return a * b - b * a


def component_basis(shape: Shape, d: Bidegree) -> list[PbwMonomial]:
    """All PBW monomials of exactly bidegree d, in deterministic (sorted) order.

    Equivalent to enumerating nonnegative integer m-by-n matrices with row sums
    d.rowdeg and column sums d.coldeg.
    """
    if len(d.rowdeg) != shape.m or len(d.coldeg) != shape.n:
        raise ValueError("bidegree length does not match shape")
    if any(x < 0 for x in d.rowdeg) or any(x < 0 for x in d.coldeg):
        raise ValueError("bidegree entries must be nonnegative")
    if sum(d.rowdeg) != sum(d.coldeg):
        return []
    out: list[PbwMonomial] = []

    def fill_row(i: int, cols_left: tuple[int, ...], acc: list[tuple[Gen, int]]):
        if i > shape.m:
            if all(c == 0 for c in cols_left):
                out.append(PbwMonomial(tuple(acc)))
            return
        target = d.rowdeg[i - 1]

        def fill_cell(j: int, remaining: int, cols: tuple[int, ...], row_acc: list[tuple[Gen, int]]):
            if j > shape.n:
                if remaining == 0:
                    fill_row(i + 1, cols, acc + row_acc)
                return
            for e in range(min(remaining, cols[j - 1]) + 1):
                new_cols = cols[: j - 1] + (cols[j - 1] - e,) + cols[j:]
                fill_cell(j + 1, remaining - e, new_cols, row_acc + ([((i, j), e)] if e else []))

        fill_cell(1, target, cols_left, [])

    fill_row(1, d.coldeg, [])
    return sorted(out, key=PbwMonomial.sort_key)


def monomial_count(shape: Shape, d: int) -> int:
    """Number of PBW monomials of total degree d, by direct enumeration."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    slots = shape.m * shape.n
    count = 0
    stack = [(0, d)]
    while stack:
        slot, remaining = stack.pop()
        if slot == slots - 1:
            count += 1
            continue
        for e in range(remaining + 1):
            stack.append((slot + 1, remaining - e))
    return count


def random_element(shape: Shape, max_degree: int, rng, n_terms: int = 2) -> AlgebraElement:
    """A small random element for fuzz tests: sum of random monomials with random
    Laurent coefficients (degrees up to max_degree)."""
    gens = shape.generators()
    result = AlgebraElement.zero(shape)
    for _ in range(n_terms):
        d = rng.randint(0, max_degree)
        word = [rng.choice(gens) for _ in range(d)]
        term = AlgebraElement.one(shape)
        for g in word:
            term = term * gen(shape, *g)
        coeff = LaurentScalar({rng.randint(-2, 2): rng.randint(-3, 3)})
        result = result + term.scale(coeff)
    return result


def render_element(a: AlgebraElement, unit: str = "", limit: int | None = None) -> str:
    """Canonical text form: terms in monomial order, coefficients in decreasing
    q-exponent, e.g. ``X[1,1]*X[2,2] - (q - q^-1)*X[1,2]*X[2,1]``.  With more
    than ``limit`` terms, the first ``limit`` are followed by ``+ ... (N terms)``."""
    terms = a.terms()
    if not terms:
        return "0"
    parts: list[str] = []
    for mono, coeff in terms[:limit]:
        negative = coeff.items()[-1][1] < 0  # sign of the leading (highest) coefficient
        c = -coeff if negative else coeff
        body = c.render(increasing=False)
        if len(c.items()) > 1:
            body = f"({body})"
        mono_str = str(mono) if mono.pairs else unit
        if mono_str:
            text = mono_str if c.is_one() else f"{body}*{mono_str}"
        else:
            text = body
        if not parts:
            parts.append(f"-{text}" if negative else text)
        else:
            parts.append(f"- {text}" if negative else f"+ {text}")
    if limit is not None and len(terms) > limit:
        parts.append(f"+ ... ({len(terms)} terms)")
    return " ".join(parts)
