"""The Ore localization inverting the corner generator X[1,n].

X[1,n] is normal: a X[1,n] = X[1,n] tau(a) for the automorphism tau scaling row
1 by q and column n (below row 1) by q^-1.  Fractions therefore need only a
single denominator exponent: a ``LocalizedElement`` is numerator * X[1,n]^-k.
Moving the corner is a closed form (a PBW monomial times X[1,n]^d gains d in
its corner exponent and a q-power), and so is the canonical form, which strips
in one pass the corner powers every numerator term holds, up to k.

The arithmetic runs on flat values (N, k), N the kernel's flat
{(codes, q exponent): int} sum, the dict an element stores: ``_tau`` twists,
``_moved`` moves the corner, ``_canonical`` is the canonical form, and
``_localized_product``, ``_localized_sum`` and ``_localized_power`` are the
only localized product, sum and power; each returns a canonical value.
``combined``, a sum of products built into one element, computes every other
localized value through them; the expression evaluator calls them directly and
builds one element at the end.  The corner's closed forms live here alone:
another module that multiplies by a power of X[1,n], or by its inverse, does
so through ``_localized_product`` or ``combined``.

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
the expansion term tables of the laws module alone; no supporting expansion
is run to build it.
Each map is verified by one exact check, sum of derived minor times cofactor
minus the minor, so a wrong law shows up as a failing check.  The expansions
themselves are checked and reported once per minor by the lemma23 suite.

Each check builder the suites use has a companion that names its checks, so
that the derived module, which decides the cor22, thm21, lemma23 and thm25
checks with a zero test in corner form, names every check as the builder
would and builds only the checks it cannot decide.  The form of a derived
check is decided once: ``_rewriting`` says which expansion a Lemma 2.3
rewriting solves, and ``_commutation`` whether a Theorem 2.5 commutation is a
q-twist or a correction sum.  The builders and the derived module both ask
them.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache

from .algebra import (
    COL_BITS, COL_MASK, EXP_BITS, EXP_LIMIT, EXP_MASK,
    AlgebraElement, Codes, Flat, Shape, _fold_gen, _max_degree, _nonzero, _product,
    _shifted, check_degree, exponent, gen, gen_id, letter, word,
)
from .checks import IdentityCheck, check_zero
from .minors import MinorSpec, _sign, check_term_count, expansion, expansion_products, minor
from .scalar import LaurentScalar, ONE, Q, QINV, Q_MINUS_QINV
from . import laws

Gen = tuple[int, int]


def tau_weight(mono: Codes, shape: Shape) -> int:
    """Grading weight driving the conjugation by X[1,n]: +1 per row-1 letter,
    -1 per column-n letter (the corner itself weighs 0)."""
    w, n = 0, shape.n
    for code in mono:
        gid = code >> EXP_BITS
        if gid >> COL_BITS == 1:
            w += code & EXP_MASK
        if gid & COL_MASK == n:
            w -= code & EXP_MASK
    return w


def _tau(flat: Flat, power: int, shape: Shape) -> Flat:
    """tau^power of a flat sum: a term of weight w gains q^(power w).  The flat
    sum itself when no term moves."""
    weights = [tau_weight(codes, shape) for codes, _ in flat] if power else []
    if not any(weights):
        return flat
    return {(codes, e + power * w): c for ((codes, e), c), w in zip(flat.items(), weights)}


def _corner_moved(codes: Codes, d: int, n: int) -> tuple[Codes, int]:
    """The monomial times X[1,n]^d in closed form, as (monomial, q exponent),
    for any d leaving its corner exponent nonnegative.  X[1,n] commutes with
    X[i,j] (i > 1, j < n), and X[i,n] X[1,n] = q^-1 X[1,n] X[i,n], so the
    monomial gains d in its corner exponent and q^(-d c), c its column-n
    degree below row 1."""
    corner = letter(1, n, 0)
    # row-major order puts X[1,n] after the other row-1 letters, before the rest
    pos = bisect_left(codes, corner)
    e = codes[pos] - corner if pos < len(codes) and codes[pos] < corner + EXP_LIMIT else 0
    if e + d >= EXP_LIMIT:
        raise ValueError(f"corner exponent {e + d} exceeds the letter exponent limit {EXP_MASK}")
    rest = codes[pos + 1 if e else pos:]
    c = sum(x & EXP_MASK for x in rest if (x >> EXP_BITS) & COL_MASK == n)
    return codes[:pos] + ((corner | (e + d),) if e + d else ()) + rest, -d * c


def _moved(flat: Flat, d: int, n: int) -> Flat:
    """A flat sum times X[1,n]^d by ``_corner_moved``, for any d leaving every
    corner exponent nonnegative; the flat sum itself when d = 0."""
    if not d:
        return flat
    out: Flat = {}
    for (codes, e), c in flat.items():
        moved, s = _corner_moved(codes, d, n)
        out[moved, e + s] = c
    return out


def _flat_corner_power(flat: Flat, n: int) -> tuple[dict[int, int], int] | None:
    """({q exponent: coefficient}, d) when a flat sum is c X[1,n]^d with d >= 0
    (scalars included), else None."""
    codes = next(iter(flat), (None,))[0]
    if codes is None or len(codes) > 1:
        return None
    # a letter of any other generator lies at least EXP_LIMIT from X[1,n]^0
    d = codes[0] - letter(1, n, 0) if codes else 0
    if not 0 <= d < EXP_LIMIT or any(key[0] != codes for key in flat):
        return None
    return {e: c for (_, e), c in flat.items()}, d


# A flat value N X[1,n]^-k is (N, k), N a flat sum without cancelled keys.  The
# localized product, sum and canonical form below are the only ones: ``combined``
# and the expression evaluator both call them.
Value = tuple[Flat, int]


def _strip(flat: Flat, k: int, n: int) -> int:
    """The corner power that every monomial of a flat sum holds, up to k."""
    for codes, _ in flat:
        if not k:
            break
        k = min(k, exponent(codes, (1, n)))
    return k


def _canonical(value: Value, n: int) -> Value:
    """A flat value in canonical form (k = 0, or some numerator term has corner
    exponent 0): the corner power every term holds, up to k, is moved out in
    one pass, and a zero numerator has k = 0."""
    flat, k = value
    strip = _strip(flat, k, n)
    return (_moved(flat, -strip, n), k - strip) if flat else (flat, 0)


def _value(x: "LocalizedElement | AlgebraElement | Value", shape: Shape) -> Value:
    """A localized or plain element of the given shape as a flat value, its
    numerator's dict not copied; a flat value is returned as it is."""
    if isinstance(x, tuple):
        return x
    numerator, k = (x.numerator, x.k) if isinstance(x, LocalizedElement) else (x, 0)
    if not isinstance(numerator, AlgebraElement):
        raise TypeError(f"cannot treat {type(x).__name__} as a localized element")
    if numerator.shape != shape:
        raise ValueError(f"shape mismatch: {numerator.shape} vs {shape}")
    return numerator._terms, k


def _element(shape: Shape, value: Value) -> "LocalizedElement":
    """The element a flat value stands for, wrapping its dict."""
    return LocalizedElement(AlgebraElement(shape, value[0]), value[1])


def _localized_product(shape: Shape, a: Value, b: Value) -> Value:
    """f X^-k * g X^-l = f tau^k(g) X^-(k+l), X = X[1,n].  A factor c X^d
    (d >= 0) moves in closed form: f c X^d = c f X^d and c X^d h = c tau^-d(h)
    X^d, and the move first cancels against the denominator X^-(k+l), as far
    as both go; any other product is ``_product``, after its degree check."""
    (f, k), (g, l) = a, b
    if power := _flat_corner_power(g, shape.n):
        c, d = power
        h = f
    elif power := _flat_corner_power(f, shape.n):
        c, d = power
        h = _tau(g, k - d, shape)
    else:
        product = _product(f, _tau(g, k, shape))
        return _canonical((_nonzero(product), k + l), shape.n)
    cancelled = min(d, k + l)
    moved = _moved(h if c == {0: 1} else _shifted(h.items(), c), d - cancelled, shape.n)
    return _canonical((moved, k + l - cancelled), shape.n)


def _localized_sum(shape: Shape, *values: Value) -> Value:
    """The sum of flat values over their common corner exponent, the largest
    k: each numerator is moved up to it once and all of them are accumulated
    in one dict, dropping what cancels.  The sum is returned in canonical form."""
    k = max((l for _, l in values), default=0)
    acc: Flat = {}
    for f, l in values:
        for key, c in _moved(f, k - l, shape.n).items():
            acc[key] = acc.get(key, 0) + c
    return _canonical((_nonzero(acc), k), shape.n)


def combined(shape: Shape, *terms) -> "LocalizedElement":
    """The sum of c f1 ... fr over terms (c, f1, ..., fr), as one canonical
    element: c an int or a ``LaurentScalar``, each f a plain or localized
    element or its flat value.  c goes on the first factor, and is skipped
    when it is 1; a term with c = 0 adds nothing."""
    values = []
    for c, first, *rest in terms:
        if not c:
            continue
        value = _value(first, shape)
        if c != 1:
            value = _shifted(value[0].items(), {0: c} if isinstance(c, int) else c._terms), value[1]
        for f in rest:
            value = _localized_product(shape, value, _value(f, shape))
        values.append(value)
    return _element(shape, _localized_sum(shape, *values))


def _localized_power(shape: Shape, value: Value, e: int) -> Value:
    """value^e (e >= 0) by e products, after ``check_degree`` of e times its
    numerator degree, which then bounds every product."""
    check_degree(e * _max_degree(value[0]))
    result = {((), 0): 1}, 0
    for _ in range(e):
        result = _localized_product(shape, result, value)
    return result


class LocalizedElement:
    """numerator * X[1,n]^-k in canonical form (k = 0, or some numerator term
    has corner exponent 0)."""

    __slots__ = ("numerator", "k")

    def __init__(self, numerator: AlgebraElement, k: int = 0):
        if k < 0:
            raise ValueError("denominator exponent must be nonnegative")
        if _strip(numerator._terms, k, numerator.shape.n):
            flat, k = _canonical((numerator._terms, k), numerator.shape.n)
            numerator = AlgebraElement(numerator.shape, flat)
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
        # equal to a plain element when k = 0, so it hashes as one
        return hash((self.numerator, self.k) if self.k else self.numerator)

    # perfbench/tracer.py times __init__, __mul__ and __add__ by name; nothing in
    # qmv calls the two operators, which compute through ``combined``
    def __mul__(self, other: "LocalizedElement | AlgebraElement") -> "LocalizedElement":
        return combined(self.shape, (1, self, other))

    def __add__(self, other: "LocalizedElement | AlgebraElement") -> "LocalizedElement":
        return combined(self.shape, (1, self), (1, other))

    def render(self, limit: int | None = None) -> str:
        """Canonical text; a limit bounds the numerator as in ``AlgebraElement.render``."""
        num = self.numerator.render(limit)
        if self.k == 0:
            return num
        if len({codes for codes, _ in self.numerator._terms}) > 1:  # more than one monomial
            num = f"({num})"
        suffix = "inv1n" if self.k == 1 else f"inv1n^{self.k}"
        return f"{num}*{suffix}"

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"<{self.shape} localized: {self}>"


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
    spec = MinorSpec(rows, cols)  # equal sizes, strictly increasing
    if rows[0] < 2 or rows[-1] > shape.m or cols[0] < 1 or cols[-1] > shape.n - 1:
        raise ValueError(f"derived minor {spec}' does not fit in shape {shape}")
    check_term_count(len(rows) + 1)  # its numerator is a (t+1)-minor's size
    return _x_prime_minor(shape, rows, cols)


@lru_cache(maxsize=None)
def _x_prime_minor(shape: Shape, rows: tuple[int, ...], cols: tuple[int, ...]) -> LocalizedElement:
    if len(rows) == 1:
        return x_prime(shape, rows[0], cols[0])
    return combined(shape, *(
        (LaurentScalar.minus_q_power(t.exponent), x_prime(shape, *t.gen), _x_prime_minor(shape, *t.minor))
        for t in laws.row_terms(rows, cols, 1, rows[0])
    ))


def x_prime_minor_substituted(
    shape: Shape, rows: tuple[int, ...], cols: tuple[int, ...]
) -> LocalizedElement:
    """Cross-check oracle: expand the minor abstractly on an (m-1)x(n-1) grid,
    then substitute the derived generators into each ordered monomial."""
    small = Shape(shape.m - 1, shape.n - 1)
    abstract = minor(small, [r - 1 for r in rows], list(cols))
    entries = x_prime_entries(shape)
    return combined(shape, *((coeff, *(entries[r + 1, c] for r, c in word(mono)))
                             for mono, coeff in abstract.terms()))


def full_x_prime_determinant(shape: Shape) -> LocalizedElement:
    """Determinant of the whole derived matrix (square shapes)."""
    if shape.m != shape.n:
        raise ValueError("the derived determinant needs a square shape")
    return x_prime_minor(shape, tuple(range(2, shape.m + 1)), tuple(range(1, shape.n)))


def check_det_reduction(n: int) -> list[IdentityCheck]:
    """det of the derived matrix times the corner equals (-q)^(1-n) times the
    full determinant, on either side of the corner."""
    right_name, left_name = det_reduction_names(n)
    shape = Shape(n, n)
    detp, corner = full_x_prime_determinant(shape), gen(shape, 1, n)
    # the right side as a term, subtracted
    rhs = -LaurentScalar.minus_q_power(1 - n), minor(shape, range(1, n + 1), range(1, n + 1))
    return [check_zero(right_name, combined(shape, (1, detp, corner), rhs)),
            check_zero(left_name, combined(shape, (1, corner, detp), rhs))]


def det_reduction_names(n: int) -> list[str]:
    """The names of the two checks ``check_det_reduction`` builds; refuses the
    sizes it refuses."""
    if n < 2:
        raise ValueError("size reduction starts at n = 2")
    check_term_count(n)  # the derived determinant's numerator is an n-minor
    return [f"detX' * X[1,{n}] = (-q)^{1 - n} detX (n={n})",
            f"X[1,{n}] * detX' = (-q)^{1 - n} detX (n={n})"]


def check_minor_reduction(shape: Shape, rows: tuple[int, ...], cols: tuple[int, ...]) -> list[IdentityCheck]:
    """A p-by-p minor through row 1 and column n equals (-q)^(p-1) times the
    derived (p-1)-minor times the corner, with the left-denominator twin."""
    rows, cols = tuple(rows), tuple(cols)
    p = len(rows)
    if p < 2 or rows[0] != 1 or cols[-1] != shape.n:
        raise ValueError("reduction needs p >= 2, row 1 present, and column n present")
    mp, scaled = x_prime_minor(shape, rows[1:], cols[:-1]), -LaurentScalar.minus_q_power(1 - p)
    big, inverse = minor(shape, rows, cols), LocalizedElement(AlgebraElement.one(shape), 1)
    right_name, left_name = reduction_names(shape, rows, cols)
    return [check_zero(right_name, combined(shape, (1, mp), (scaled, big, inverse))),
            check_zero(left_name, combined(shape, (1, mp), (scaled, inverse, big)))]


def reduction_names(shape: Shape, rows: tuple[int, ...], cols: tuple[int, ...]) -> list[str]:
    """The names of the two checks ``check_minor_reduction`` builds."""
    label = f"[{list(rows)}|{list(cols)}] reduction in {shape}"
    return [f"{label}, right denominator", f"{label}, left denominator"]


def _rewriting(shape: Shape, rows: tuple[int, ...], cols: tuple[int, ...]
               ) -> tuple[list[laws.Term], int, laws.MinorKey | None]:
    """How Lemma 2.3 rewrites [rows|cols], a minor missing row 1, column n or
    both, over minors closer to the corner.  Returns the expansion it solves,
    as a term table (generators right); the position of the table's corner
    term (-q)^e* [rows|cols] X[1,n], which holds the target; and the enlarged
    minor [1 u rows | cols u n] the expansion equals, or None when the
    expansion vanishes.

    With row 1 present the expansion runs along row 1 with column n adjoined,
    and with column n present along column n with row 1 adjoined; either
    repeats an index and vanishes.  With both missing it is the first-row
    expansion of the enlarged minor, whose other terms miss only row 1.  The
    rewriting is the expansion solved for its corner term:
    (-q)^-e* (E - the other products) X[1,n]^-1, with E the enlarged minor or 0.
    """
    n = shape.n
    if rows[0] == 1 and cols[-1] == n:
        raise ValueError(f"[{list(rows)}|{list(cols)}] in {shape} already contains the corner; "
                         "use the minor reduction")
    big = ((1,) + rows, cols + (n,))
    if cols[-1] == n:
        terms = laws.col_terms(*big, len(rows) + 1, n)
    else:
        terms = laws.first_row_terms(*big)
    corner = next(k for k, t in enumerate(terms) if t.gen == (1, n))
    return terms, corner, big if rows[0] != 1 and cols[-1] != n else None


def expand_minor_without_corner(
    shape: Shape, rows: tuple[int, ...] | list[int], cols: tuple[int, ...] | list[int]
) -> list[IdentityCheck]:
    """The checks that rewrite a minor missing row 1 and/or column n as a right
    combination of minors closer to the corner, over the localization: the
    expansion ``_rewriting`` solves (with the enlarged minor's last-row
    expansion when it has one), then the rewriting, which reuses the
    expansion's products."""
    rows, cols = tuple(rows), tuple(cols)
    target = minor(shape, rows, cols)  # validates the index sets
    terms, corner, enlarged = _rewriting(shape, rows, cols)
    names = expansion_names(shape, rows, cols)
    products = expansion_products(shape, terms)
    solved = AlgebraElement.sum(shape, products)
    others = products[:corner] + products[corner + 1:]
    if enlarged:
        big = minor(shape, *enlarged)
        others.append(-big)
        checks = [
            check_zero(names[0], big - solved),
            check_zero(names[1], big - expansion(shape, laws.last_row_terms(*enlarged))),
        ]
    else:
        checks = [check_zero(names[0], solved)]
    scale = -LaurentScalar.minus_q_power(-terms[corner].exponent)
    rewriting = LocalizedElement(AlgebraElement.sum(shape, others), 1)
    checks.append(check_zero(names[-1], combined(shape, (scale, rewriting), (-1, target))))
    return checks


def expansion_names(shape: Shape, rows: tuple[int, ...], cols: tuple[int, ...]) -> list[str]:
    """The names of the checks ``expand_minor_without_corner`` builds, in order:
    the expansions it solves, then the rewriting."""
    label = f"[{list(rows)}|{list(cols)}] in {shape}"
    if rows[0] != 1 and cols[-1] != shape.n:
        claims = ["first-row expansion of the enlarged minor",
                  "last-row expansion of the enlarged minor"]
    else:
        claims = [f"{'row-1' if rows[0] == 1 else 'column-n'} expansion vanishes"]
    return [f"{label}: {claim}" for claim in claims + ["rewriting agrees"]]


def minor_over_derived_generators(
    shape: Shape, rows: tuple[int, ...] | list[int], cols: tuple[int, ...] | list[int]
) -> tuple[dict[laws.MinorKey, LocalizedElement], IdentityCheck]:
    """Express a minor as sum of (derived minor) * (localized right cofactor).

    Returns the cofactor map and the check that the combination reproduces the
    minor exactly; this is the constructive half of the statement that the
    t-minor ideal of the localization is generated by the derived (t-1)-minors.
    The map is read off the frozen laws alone, so this one check is what
    verifies it.
    """
    rows, cols = tuple(rows), tuple(cols)
    target = minor(shape, rows, cols)  # validates the index sets
    cofactors = {key: LocalizedElement(AlgebraElement(shape, body), k)
                 for key, (k, body) in _derived_cofactors(shape, rows, cols).items()}
    terms = [(1, x_prime_minor(shape, r, c), piece) for (r, c), piece in cofactors.items()]
    return cofactors, check_zero(derived_name(shape, rows, cols), combined(shape, *terms, (-1, target)))


def derived_name(shape: Shape, rows: tuple[int, ...], cols: tuple[int, ...]) -> str:
    """The name of the check ``minor_over_derived_generators`` builds."""
    return f"[{list(rows)}|{list(cols)}] over derived minors in {shape}"


def _derived_cofactors(shape: Shape, rows: tuple[int, ...], cols: tuple[int, ...]
                       ) -> dict[laws.MinorKey, tuple[int, Flat]]:
    """The cofactor map of [rows|cols], each piece N X[1,n]^-k as (k, N), N in
    the kernel's flat {(codes, q exponent): int} form.  A minor through the
    corner is (-q)^(p-1) [R-1|C-n]' X[1,n]; any other is rewritten by
    ``_rewriting`` as a sum of [r|c] times a right cofactor c X[gen] X[1,n]^-1
    (or c X[1,n]^-1), and the maps of those minors are taken times these.  A
    piece times one is N tau^k(c X[gen]) X[1,n]^-(k+1), and tau^k scales
    X[gen] by q^(k w), w its ``tau_weight``.  Every path from [rows|cols] to
    one key takes the same number of rewritings (one through the enlarged
    minor, whose key has the minor's size, two through a minor that misses
    row 1 only), so the pieces of a key share their k and add as they are.
    The walk reaches no minor twice: a rewriting reaches the enlarged minor,
    which passes through the corner, and minors that keep column n, whose own
    rewritings reach only minors through the corner; so it is at most two
    rewritings deep and needs no memo.  Builds no check."""
    n = shape.n
    if rows[0] == 1 and cols[-1] == n:
        s = len(rows) - 1
        return {(rows[1:], cols[:-1]): (0, {((letter(1, n),), s): _sign(s)})}
    terms, corner, enlarged = _rewriting(shape, rows, cols)
    e = terms[corner].exponent
    # (minor, generator or None, x, sign): the right cofactor sign (-q)^x X[gen] X[1,n]^-1
    rights = [(t.minor, t.gen, t.exponent - e, -1) for k, t in enumerate(terms) if k != corner]
    if enlarged:
        rights.insert(0, (enlarged, None, -e, 1))
    sums: dict[laws.MinorKey, tuple[int, Flat]] = {}
    for (r, c), g, x, sign in rights:
        w = (g[0] == 1) - (g[1] == n) if g else 0
        sign *= _sign(x)
        for key, (k, body) in _derived_cofactors(shape, r, c).items():
            if g:
                body = _fold_gen(body, gen_id(*g))
            acc = sums.setdefault(key, (k + 1, {}))[1]
            for (codes, e2), c2 in body.items():
                term = (codes, e2 + k * w + x)
                acc[term] = acc.get(term, 0) + c2 * sign
    return {key: (k, _nonzero(acc)) for key, (k, acc) in sums.items()}


def _commutation(shape: Shape, rows: tuple[int, ...], cols: tuple[int, ...], g: Gen
                 ) -> tuple[str, LaurentScalar, list[laws.Term]]:
    """How Theorem 2.5 commutes the edge generator x = X[1,l] or X[k,n] with
    [rows|cols]': the claim that names the check, the twist c, and the
    correction term table whose products complete x [R|C]' - c [R|C]' x to
    zero.  When the generator's index lies inside the minor it is a clean
    q-twist (c = q^-1 for X[1,l], q for X[k,n]) with no corrections; otherwise
    c = 1 and the fitted correction sum."""
    (gi, gj), n = g, shape.n
    if gi == 1 and gj < n:
        if gj in cols:
            return "q^-1 twist", QINV, []
        return "correction sum", ONE, laws.col_commutation_terms(rows, cols, gj)
    if gj == n and gi >= 2:
        if gi in rows:
            return "q twist", Q, []
        return "correction sum", ONE, laws.row_commutation_terms(rows, cols, gi, n)
    raise ValueError(f"generator X[{gi},{gj}] is not an edge generator for {shape}")


def check_minor_commutation(
    shape: Shape, rows: tuple[int, ...], cols: tuple[int, ...], g: Gen
) -> IdentityCheck:
    """Commutation of a derived minor with an edge generator X[1,l] or X[k,n],
    in the form ``_commutation`` decides."""
    rows, cols = tuple(rows), tuple(cols)
    claim, twist, terms = _commutation(shape, rows, cols, g)
    mp = x_prime_minor(shape, rows, cols)
    x = gen(shape, *g)
    # x mp - twist * mp x plus the correction sum, accumulated once
    difference = combined(shape, (1, x, mp), (-twist, mp, x), *correction_terms(shape, terms, g))
    return check_zero(commutation_name(shape, rows, cols, g, claim), difference)


def commutation_name(shape: Shape, rows: tuple[int, ...], cols: tuple[int, ...], g: Gen,
                     claim: str) -> str:
    """The name of the check ``check_minor_commutation`` builds, given the claim
    ``_commutation`` makes."""
    return f"X[{g[0]},{g[1]}] vs [{list(rows)}|{list(cols)}]' in {shape}: {claim}"


def correction_terms(shape: Shape, terms: list[laws.Term], g: Gen) -> list[tuple]:
    """The correction sum of the edge generator g = X[1,l] or X[k,n] against a
    derived minor, as the ``combined`` terms (-c (-q)^e, X[gen], [minor]') of its
    commutation term table, in table order, that complete x [R|C]' - [R|C]' x
    to zero.  By Theorem 2.5, c = q(q - q^-1) for X[1,l] and q^-1(q^-1 - q) for
    X[k,n].  The scalar goes on the one-letter generator, never on the product."""
    c = correction_scalar(g)
    return [(c * LaurentScalar.minus_q_power(t.exponent), gen(shape, *t.gen), x_prime_minor(shape, *t.minor))
            for t in terms]


def correction_scalar(g: Gen) -> LaurentScalar:
    """-c, the scalar each correction product of the edge generator g carries:
    -q(q - q^-1) for X[1,l] and -q^-1(q^-1 - q) for X[k,n]."""
    return -Q * Q_MINUS_QINV if g[0] == 1 else -QINV * (QINV - Q)
