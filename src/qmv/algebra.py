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

A PBW monomial is a sorted tuple of int letter codes (``Codes``), one per
generator with a positive exponent.  The letter X[i,j]^e is the code
(gid << 18) | e with generator id gid = (i << 6) | j.  For j < 64 the id is
order-isomorphic to row-major (i, j), so a sorted code tuple is a PBW monomial
and tuple comparison, hashing and splitting work on flat ints.  The encoding
bounds the grid to 63 x 63 (``Shape`` rejects larger) and a letter's exponent
to 2^18 - 1 (a monomial or product that would exceed it raises ValueError);
every code is then below 2^30, a single CPython digit.  ``monomial`` builds
one from ((i, j), e) pairs with those checks; ``word``, ``bidegree``,
``exponent`` and ``render_monomial`` decode it for printing and inspection,
and the kernel never decodes.

Straightening computes with integer coefficients.  A term is c * q^e * monomial
with c a Python int, and the q exponent travels in the key: the cache
``_mono_times_gen(codes, gid)`` returns ``(codes, e, c)`` triples, and a product
accumulates into one flat ``{(codes, e): c}`` dict.  An element stores that
flat dict itself, with no zero coefficient, so an element, a flat sum and the
numerator of a localized value are one representation.  ``AlgebraElement.sum``,
``+``, ``-`` and ``*`` accumulate into one dict and ``_nonzero`` drops what
cancelled; ``*`` is ``_product`` on the two dicts, as the localization and the
expression evaluator call it.  ``_grouped`` forms the ``LaurentScalar``
coefficient of each monomial, the one place that is done, only where a ring
coefficient is needed: printing, ``specialize``, ``scale`` and the solver
tables of the verify module.

Only the suffix of a monomial moves.  Every letter a rewrite of h * g creates
is >= g: the swap gives g and h, and the correction X[k,j] * X[i,l] of a
north-west pair (g = X[k,l], h = X[i,j], k < i, l < j) lies in row k after
column l and in row i > k.  So multiplying by g never looks at the prefix of
letters < g, and the output keeps it in front unchanged.  ``_fold_gen``
appends g directly when the last letter of a monomial is <= g; otherwise it
splits the monomial at g and straightens only the suffix through the cache,
whose entries are therefore suffixes alone.

The general product, ``_product``, walks the words of its right factor in
sorted order and keeps the fold of the left factor by every prefix
of the current word.  Each word resumes from the longest prefix it shares with
the previous one, so words sharing a prefix fold that prefix once.  Products
of a generator with a quantum minor do not take this walk: the minors module
writes them as combinations of states and splits each state along one row of
its minor, down to two-letter straightenings and smaller states.  Its
``flat`` builds them with the same flat accumulator, the zerotest
module decides them with the same splits without building them, and
``__mul__`` stays their reference.

Monomials and elements are immutable values and every operation is a pure
function, so all of this is safe to use from concurrent workers.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from operator import itemgetter

from .scalar import LaurentScalar

Gen = tuple[int, int]
Codes = tuple[int, ...]
Flat = dict[tuple[Codes, int], int]  # (monomial codes, q exponent) -> integer coefficient

COL_BITS = 6  # generator id: (i << COL_BITS) | j
EXP_BITS = 18  # letter code: (gid << EXP_BITS) | e
GRID_LIMIT = 1 << COL_BITS  # rows and columns must stay below this
EXP_LIMIT = 1 << EXP_BITS  # letter exponents must stay below this
EXP_MASK = EXP_LIMIT - 1
COL_MASK = GRID_LIMIT - 1


def gen_id(i: int, j: int) -> int:
    """The generator id of X[i,j]; ids sort like row-major (i, j)."""
    return i << COL_BITS | j


def letter(i: int, j: int, e: int = 1) -> int:
    """The letter code of X[i,j]^e."""
    return gen_id(i, j) << EXP_BITS | e


def decode(code: int) -> tuple[Gen, int]:
    """The ((i, j), e) pair a letter code stands for."""
    gid = code >> EXP_BITS
    return (gid >> COL_BITS, gid & COL_MASK), code & EXP_MASK


def _word_ids(codes: Codes) -> tuple[int, ...]:
    """The generator ids of a monomial's word, each repeated by its exponent."""
    ids: list[int] = []
    for c in codes:
        e = c & EXP_MASK
        if e == 1:
            ids.append(c >> EXP_BITS)
        else:
            ids.extend(repeat(c >> EXP_BITS, e))
    return tuple(ids)


@dataclass(frozen=True)
class Shape:
    """Row and column counts of the generator grid; fixed per algebra instance."""

    m: int
    n: int

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError(f"shape must have positive dimensions, got {self.m}x{self.n}")
        if self.m >= GRID_LIMIT or self.n >= GRID_LIMIT:
            raise ValueError(
                f"shape {self.m}x{self.n} is too large: rows and columns must be below {GRID_LIMIT}")

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


def monomial(pairs: Iterable[tuple[Gen, int]]) -> Codes:
    """The PBW monomial with the given ((i, j), e) pairs, in any order: their
    letter codes, sorted.  Checks that each generator fits the letter code, is
    given once, and has an exponent in 1..2^18 - 1."""
    codes = []
    for (i, j), e in pairs:
        if not (0 <= i < GRID_LIMIT and 0 <= j < GRID_LIMIT):
            raise ValueError(f"generator X[{i},{j}] is outside the {GRID_LIMIT - 1}x"
                             f"{GRID_LIMIT - 1} grid the letter code holds")
        if not 0 < e < EXP_LIMIT:
            raise ValueError(f"monomial exponent {e} of X[{i},{j}] must lie in 1..{EXP_MASK}")
        codes.append(letter(i, j, e))
    codes.sort()
    if any(a >> EXP_BITS == b >> EXP_BITS for a, b in zip(codes, codes[1:])):
        raise ValueError("a monomial lists each generator once")
    return tuple(codes)


def degree(mono: Codes) -> int:
    return sum(c & EXP_MASK for c in mono)


def exponent(mono: Codes, g: Gen) -> int:
    """The exponent of the generator g in the monomial (0 when absent)."""
    lo = letter(*g, 0)
    pos = bisect_left(mono, lo)
    return mono[pos] - lo if pos < len(mono) and mono[pos] < lo + EXP_LIMIT else 0


def word(mono: Codes) -> tuple[Gen, ...]:
    """The monomial as an explicit sequence of generators."""
    return tuple(g for g, e in map(decode, mono) for _ in range(e))


def bidegree(mono: Codes, shape: Shape) -> Bidegree:
    rows = [0] * shape.m
    cols = [0] * shape.n
    for c in mono:
        gid, e = c >> EXP_BITS, c & EXP_MASK
        rows[(gid >> COL_BITS) - 1] += e
        cols[(gid & COL_MASK) - 1] += e
    return Bidegree(tuple(rows), tuple(cols))


def sort_key(mono: Codes) -> tuple[int, tuple[int, ...]]:
    """The printing order (degree, word), with generator ids for generators."""
    return (degree(mono), _word_ids(mono))


def render_monomial(mono: Codes) -> str:
    """Canonical text of a monomial, e.g. ``X[1,1]^2*X[2,3]``; ``1`` when empty."""
    return "*".join(f"X[{i},{j}]" if e == 1 else f"X[{i},{j}]^{e}"
                    for (i, j), e in map(decode, mono)) or "1"


IDENTITY_MONOMIAL: Codes = ()


@lru_cache(maxsize=None)
def _mono_times_gen(codes: Codes, g: int) -> tuple[tuple[Codes, int, int], ...]:
    """Normal form of (ordered monomial) * (generator with id g), as (codes, e, c)
    triples meaning the sum of c * q^e * monomial.

    Shape-independent: the rewriting rules only look at index pairs.  Inside
    this module only moving suffixes reach the cache (every letter >= g, the
    last one > g); any other monomial is split at g by ``_fold_gen``.
    """
    lo = g << EXP_BITS
    if bisect_left(codes, lo) or not codes or codes[-1] < lo + EXP_LIMIT:
        return tuple((p, e, c) for (p, e), c in _fold_gen({(codes, 0): 1}, g).items() if c)
    last = codes[-1]
    h = last >> EXP_BITS
    # g must move left past one copy of h; h > g in row-major order.
    rest = codes[:-1] + (last - 1,) if last & EXP_MASK > 1 else codes[:-1]
    i, j = h >> COL_BITS, h & COL_MASK
    k, l = g >> COL_BITS, g & COL_MASK
    # (u, v, ((e, c), ...)): h g contributes sum c q^e * u v
    if k == i or l == j:
        # same row or same column: h g = q^-1 g h
        expansion = ((g, h, ((-1, 1),)),)
    elif l > j:
        # g lies strictly north-east of h: the pair commutes
        expansion = ((g, h, ((0, 1),)),)
    else:
        # g strictly north-west of h: h g = g h - (q - q^-1) X[k,j] X[i,l]
        expansion = ((g, h, ((0, 1),)), (gen_id(k, j), gen_id(i, l), ((1, -1), (-1, 1))))
    acc: Flat = {}
    for u, v, scales in expansion:
        for (mono, e), c in _fold_gen(_fold_gen({(rest, 0): 1}, u), v).items():
            for e0, c0 in scales:
                key = (mono, e0 + e)
                acc[key] = acc.get(key, 0) + c0 * c
    return tuple((mono, e, c) for (mono, e), c in acc.items() if c)


def _fold_gen(flat: Flat, g: int) -> Flat:
    """Right-multiply a flat sum of c * q^e * monomial by the generator with id
    g; the result may keep cancelled keys with coefficient 0.

    A monomial whose last letter is <= g takes g by a plain append: its last
    code plus one when that letter is g, else the code of g^1 appended.  Any
    other splits at g: the prefix of letters < g is passive, only the suffix
    goes through the cache, and the prefix is concatenated into each output
    key.  Exponents are not checked here; ``AlgebraElement.__mul__`` bounds
    them before it folds.
    """
    lo = g << EXP_BITS
    hi = lo + EXP_LIMIT  # the codes of g's letters lie in [lo, hi)
    single = (lo | 1,)
    out: Flat = {}
    for (codes, e), c in flat.items():
        if not c:
            continue
        if codes:
            last = codes[-1]
            if last >= hi:
                s = bisect_left(codes, lo)
                prefix = codes[:s]
                for mono, e2, c2 in _mono_times_gen(codes[s:], g):
                    key = (prefix + mono, e + e2)
                    out[key] = out.get(key, 0) + c * c2
                continue
            key = (codes[:-1] + (last + 1,) if last >= lo else codes + single, e)
        else:
            key = (single, e)
        out[key] = out.get(key, 0) + c
    return out


def _nonzero(flat: Flat) -> Flat:
    """A flat sum without its cancelled keys."""
    return {key: c for key, c in flat.items() if c}


def _grouped(flat: Flat) -> dict[Codes, LaurentScalar]:
    """The coefficient of each monomial of a flat sum without cancelled keys,
    as one ``LaurentScalar``, monomials in the order they first occur."""
    grouped: dict[Codes, dict[int, int]] = {}
    for (codes, e), c in flat.items():
        grouped.setdefault(codes, {})[e] = c
    return {codes: LaurentScalar.from_clean(d) for codes, d in grouped.items()}


def _shifted(terms: Iterable[tuple[tuple[Codes, int], int]], scalar: dict[int, int]) -> Flat:
    """Flat terms times a scalar given as {q exponent: coefficient}; what
    cancels is dropped."""
    if len(scalar) == 1:
        (s, k), = scalar.items()
        return {(codes, e + s): c * k for (codes, e), c in terms if c * k}
    acc: Flat = {}
    for (codes, e), c in terms:
        for s, k in scalar.items():
            acc[codes, e + s] = acc.get((codes, e + s), 0) + c * k
    return {key: c for key, c in acc.items() if c}


def check_degree(degree: int) -> None:
    """Refuse a product whose terms could reach degree ``degree``: some letter
    exponent might then no longer fit in its code."""
    if degree >= EXP_LIMIT:
        raise ValueError(
            f"product of degree up to {degree} exceeds the letter exponent limit {EXP_MASK}")


def _max_degree(flat: Flat) -> int:
    """The largest total degree of a monomial in a flat sum (0 when empty)."""
    return max([degree(codes) for codes, _ in flat], default=0)


def _product(left: Flat, right: Flat) -> Flat:
    """The flat product of two flat sums, after ``check_degree``; the result
    may keep cancelled keys.  A scalar left factor, one over the empty
    monomial alone, shifts the right one.  Otherwise the walk goes over the
    right factor's words in sorted order, and each word resumes from the kept
    fold of the prefix it shares with the previous word (all of it for the
    keys of one monomial); a right factor of one key, a scalar q^e among them,
    shifts the fold."""
    words = sorted([(_word_ids(codes), e, c) for (codes, e), c in right.items()], key=itemgetter(0))
    left_degree = _max_degree(left)
    check_degree(left_degree + max([len(word) for word, _, _ in words], default=0))
    if not left_degree:
        return _shifted(right.items(), {e: c for (_, e), c in left.items()})
    path: list[Flat] = [left]  # path[k]: left folded by the first k letters
    prev: tuple[int, ...] = ()
    acc: Flat = {}
    for word, er, cr in words:
        k, stop = 0, min(len(prev), len(word))
        while k < stop and prev[k] == word[k]:
            k += 1
        del path[k + 1:]
        for g in word[k:]:
            path.append(_fold_gen(path[-1], g))
        prev = word
        if len(words) == 1:
            return _shifted(path[-1].items(), {er: cr})
        for (codes, e), c in path[-1].items():
            key = (codes, e + er)
            acc[key] = acc.get(key, 0) + c * cr
    return acc


class AlgebraElement:
    """A finite Z[q, q^-1]-linear combination of PBW monomials over a fixed
    shape, stored as the flat sum {(codes, q exponent): int} with no zero
    coefficient.  The dict is shared, never mutated."""

    __slots__ = ("shape", "_terms")

    def __init__(self, shape: Shape, terms: Flat):
        self.shape = shape
        self._terms = terms

    @classmethod
    def zero(cls, shape: Shape) -> "AlgebraElement":
        return cls(shape, {})

    @classmethod
    def one(cls, shape: Shape) -> "AlgebraElement":
        return cls(shape, {(IDENTITY_MONOMIAL, 0): 1})

    @classmethod
    def from_scalar(cls, shape: Shape, c: LaurentScalar | int) -> "AlgebraElement":
        return cls.one(shape).scale(c)

    @classmethod
    def sum(cls, shape: Shape, elements: Iterable["AlgebraElement"]) -> "AlgebraElement":
        """The sum of elements of one shape, accumulated once with integer
        coefficients instead of one intermediate element per partial sum."""
        acc: Flat = {}
        for a in elements:
            if a.shape != shape:
                raise ValueError(f"shape mismatch: {a.shape} vs {shape}")
            for key, c in a._terms.items():
                acc[key] = acc.get(key, 0) + c
        return cls(shape, _nonzero(acc))

    def terms(self) -> list[tuple[Codes, LaurentScalar]]:
        """(monomial, coefficient) pairs in the canonical printing order."""
        return sorted(_grouped(self._terms).items(), key=lambda t: sort_key(t[0]))

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

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return AlgebraElement.sum(self.shape, (self, other))

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.shape, {key: -c for key, c in self._terms.items()})

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return AlgebraElement.sum(self.shape, (self, -other))

    def scale(self, c: LaurentScalar | int) -> "AlgebraElement":
        """c times the element, each monomial's coefficient multiplied in the ring."""
        if isinstance(c, int):
            c = LaurentScalar.from_int(c)
        return AlgebraElement(self.shape, {(mono, e): x for mono, v in _grouped(self._terms).items()
                                           for e, x in (c * v)._terms.items()})

    def __mul__(self, other: "AlgebraElement | LaurentScalar | int") -> "AlgebraElement":
        if isinstance(other, (LaurentScalar, int)):
            return self.scale(other)
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
        return AlgebraElement(self.shape, _nonzero(_product(self._terms, other._terms)))

    def __rmul__(self, other: "LaurentScalar | int") -> "AlgebraElement":
        if isinstance(other, (LaurentScalar, int)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, e: int) -> "AlgebraElement":
        if e < 0:
            raise ValueError("negative powers are not defined in the algebra")
        check_degree(e * self.max_degree())
        result = AlgebraElement.one(self.shape)
        for _ in range(e):
            result = result * self
        return result

    def max_degree(self) -> int:
        """The largest total degree of a term (0 for the zero element)."""
        return _max_degree(self._terms)

    def bidegree_of(self) -> Bidegree | None:
        """The common bidegree of all terms, or None when inhomogeneous."""
        degs = {bidegree(mono, self.shape) for mono, _ in self._terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def kill_generator(self, g: Gen) -> "AlgebraElement":
        """Image under the specialization sending X[g] to 0 (drop terms containing it)."""
        return AlgebraElement(
            self.shape, {key: c for key, c in self._terms.items() if exponent(key[0], g) == 0}
        )

    def specialize(self, q0: Fraction | int) -> dict[Codes, Fraction]:
        """Evaluate every coefficient at q = q0; zero coefficients dropped."""
        out = {}
        for mono, coeff in _grouped(self._terms).items():
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
    return AlgebraElement(shape, {((letter(i, j),), 0): 1})


def commutator(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """a*b - b*a in PBW normal form."""
    return a * b - b * a


def component_basis(shape: Shape, d: Bidegree) -> list[Codes]:
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
    out: list[Codes] = []

    def fill_row(i: int, cols_left: tuple[int, ...], acc: list[int]):
        if i > shape.m:
            if all(c == 0 for c in cols_left):
                out.append(tuple(acc))
            return
        target = d.rowdeg[i - 1]

        def fill_cell(j: int, remaining: int, cols: tuple[int, ...], row_acc: list[int]):
            if j > shape.n:
                if remaining == 0:
                    fill_row(i + 1, cols, acc + row_acc)
                return
            for e in range(min(remaining, cols[j - 1]) + 1):
                new_cols = cols[: j - 1] + (cols[j - 1] - e,) + cols[j:]
                fill_cell(j + 1, remaining - e, new_cols, row_acc + ([letter(i, j, e)] if e else []))

        fill_cell(1, target, cols_left, [])

    fill_row(1, d.coldeg, [])
    return sorted(out, key=sort_key)


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


def random_element(shape: Shape, max_degree: int, rng) -> AlgebraElement:
    """A small random element for fuzz tests: sum of two random monomials with
    random Laurent coefficients (degrees up to max_degree)."""
    gens = shape.generators()
    result = AlgebraElement.zero(shape)
    for _ in range(2):
        d = rng.randint(0, max_degree)
        word = [rng.choice(gens) for _ in range(d)]
        term = AlgebraElement.one(shape)
        for g in word:
            term = term * gen(shape, *g)
        coeff = LaurentScalar({rng.randint(-2, 2): rng.randint(-3, 3)})
        result = result + term.scale(coeff)
    return result


def render_element(a: AlgebraElement, limit: int | None = None) -> str:
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
        if mono:
            text = render_monomial(mono) if c.is_one() else f"{body}*{render_monomial(mono)}"
        else:
            text = body
        if not parts:
            parts.append(f"-{text}" if negative else text)
        else:
            parts.append(f"- {text}" if negative else f"+ {text}")
    if limit is not None and len(terms) > limit:
        parts.append(f"+ ... ({len(terms)} terms)")
    return " ".join(parts)
