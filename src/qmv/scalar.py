"""Exact arithmetic in the Laurent polynomial ring Z[q, q^-1] and its fraction field.

Every coefficient in the system is a ``LaurentScalar``: a sparse mapping from
integer powers of q to arbitrary-precision integer coefficients.  Zero terms
are never stored, so structural equality is exact equality in the ring.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction
from itertools import chain


class LaurentScalar:
    """An element of Z[q, q^-1] in canonical sparse form (no zero coefficients)."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        cleaned: dict[int, int] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for exp, coeff in items:
            if coeff:
                c = cleaned.get(exp, 0) + coeff
                if c:
                    cleaned[exp] = c
                elif exp in cleaned:
                    del cleaned[exp]
        self._terms = cleaned
        self._hash: int | None = None

    @classmethod
    def from_clean(cls, terms: dict[int, int]) -> "LaurentScalar":
        """Wrap a dict that already has no zero coefficients, without copying it."""
        r = cls.__new__(cls)
        r._terms = terms
        r._hash = None
        return r

    @classmethod
    def from_int(cls, c: int) -> "LaurentScalar":
        return cls({0: c} if c else {})

    @classmethod
    def q_power(cls, k: int) -> "LaurentScalar":
        """q^k."""
        return cls({k: 1})

    @classmethod
    def minus_q_power(cls, k: int) -> "LaurentScalar":
        """(-q)^k = (-1)^k q^k for any integer k."""
        return cls({k: -1 if k % 2 else 1})

    def items(self) -> list[tuple[int, int]]:
        """(exponent, coefficient) pairs sorted by increasing exponent."""
        return sorted(self._terms.items())

    def __bool__(self) -> bool:
        return bool(self._terms)

    def is_one(self) -> bool:
        return self._terms == {0: 1}

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self._terms == ({0: other} if other else {})
        if not isinstance(other, LaurentScalar):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    def __add__(self, other: "LaurentScalar | int") -> "LaurentScalar":
        other = _operand(other)
        if other is None:
            return NotImplemented
        return LaurentScalar(chain(self._terms.items(), other._terms.items()))

    __radd__ = __add__

    def __neg__(self) -> "LaurentScalar":
        return LaurentScalar.from_clean({e: -c for e, c in self._terms.items()})

    def __sub__(self, other: "LaurentScalar | int") -> "LaurentScalar":
        other = _operand(other)
        return NotImplemented if other is None else self + (-other)

    def __rsub__(self, other: "LaurentScalar | int") -> "LaurentScalar":
        other = _operand(other)
        return NotImplemented if other is None else other + (-self)

    def __mul__(self, other: "LaurentScalar | int") -> "LaurentScalar":
        other = _operand(other)
        if other is None:
            return NotImplemented
        a, b = self._terms, other._terms
        if not a or not b:
            return ZERO
        if len(a) > len(b):
            a, b = b, a
        out: dict[int, int] = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                c = out.get(e, 0) + c1 * c2
                if c:
                    out[e] = c
                elif e in out:
                    del out[e]
        return LaurentScalar.from_clean(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentScalar":
        if n < 0:
            raise ValueError("negative powers are defined only for monomials q^k")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def evaluate(self, q0: Fraction | int) -> Fraction:
        """Value of the Laurent polynomial at q = q0 (q0 must be nonzero).  At
        an integer q0 the sum is taken in integers, over q0 to the lowest
        exponent: q0^e_min * sum c q0^(e - e_min)."""
        if isinstance(q0, int) and q0:
            low = min(self._terms, default=0)
            num = sum(c * q0 ** (e - low) for e, c in self._terms.items())
            return Fraction(num, q0 ** -low) if low < 0 else Fraction(num * q0 ** low)
        q0 = Fraction(q0)
        if q0 == 0:
            raise ValueError("cannot evaluate a Laurent polynomial at q = 0")
        return sum((c * q0**e for e, c in self._terms.items()), Fraction(0))

    def as_minus_q_power(self) -> int | None:
        """The integer k with self = (-q)^k, or None if self is not such a power."""
        if len(self._terms) != 1:
            return None
        (exp, coeff), = self._terms.items()
        if coeff == (-1 if exp % 2 else 1):
            return exp
        return None

    def render(self, increasing: bool = True) -> str:
        """Human-readable form, e.g. ``-q^-1 + 2 + q^3`` (increasing exponents)."""
        if not self._terms:
            return "0"
        parts: list[str] = []
        for exp, coeff in sorted(self._terms.items(), reverse=not increasing):
            mag = abs(coeff)
            if exp == 0:
                body = str(mag)
            else:
                qpart = "q" if exp == 1 else f"q^{exp}"
                body = qpart if mag == 1 else f"{mag}*{qpart}"
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(parts)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"LaurentScalar({self.render()!r})"


def _operand(x: object) -> LaurentScalar | None:
    """x as a LaurentScalar, or None when it is neither one nor an int: the
    operators then return NotImplemented, so that ``Q * x`` reaches the
    reflected method of an element x."""
    if isinstance(x, LaurentScalar):
        return x
    if isinstance(x, int):
        return LaurentScalar.from_int(x)
    return None


def _coerce(x: "LaurentScalar | int") -> LaurentScalar:
    c = _operand(x)
    if c is None:
        raise TypeError(f"cannot coerce {type(x).__name__} to LaurentScalar")
    return c


ZERO = LaurentScalar()
ONE = LaurentScalar.from_int(1)
Q = LaurentScalar.q_power(1)
QINV = LaurentScalar.q_power(-1)
Q_MINUS_QINV = Q - QINV


class ScalarFraction:
    """A quotient of Laurent polynomials; equality by cross-multiplication.

    No gcd reduction is performed: the denominators stay whatever the
    elimination produces, which is fine for the small systems solved here.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentScalar | int, den: LaurentScalar | int = 1):
        num, den = _coerce(num), _coerce(den)
        if not den:
            raise ZeroDivisionError("ScalarFraction with zero denominator")
        self.num = num
        self.den = den

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, LaurentScalar)):
            other = ScalarFraction(other)
        if not isinstance(other, ScalarFraction):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __hash__(self) -> int:
        raise TypeError("ScalarFraction is not hashable (no canonical form)")

    def __add__(self, other: "ScalarFraction") -> "ScalarFraction":
        other = _coerce_fraction(other)
        return ScalarFraction(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "ScalarFraction":
        return ScalarFraction(-self.num, self.den)

    def __sub__(self, other: "ScalarFraction") -> "ScalarFraction":
        return self + (-_coerce_fraction(other))

    def __mul__(self, other: "ScalarFraction") -> "ScalarFraction":
        other = _coerce_fraction(other)
        return ScalarFraction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other: "ScalarFraction") -> "ScalarFraction":
        other = _coerce_fraction(other)
        if not other.num:
            raise ZeroDivisionError("division by zero ScalarFraction")
        return ScalarFraction(self.num * other.den, self.den * other.num)

    def as_scalar(self) -> LaurentScalar | None:
        """The quotient in Z[q, q^-1] when the denominator divides the
        numerator there, else None.

        Exact long division from the top exponent down: each step cancels the
        remainder's top term, which the denominator's top coefficient must
        divide.  It stops once the remainder spans fewer exponents above the
        numerator's lowest than the denominator spans, and divides exactly
        when nothing remains.
        """
        den = self.den._terms
        low, top = min(den), max(den)
        lead = den[top]
        rem = dict(self.num._terms)
        base = min(rem, default=0)
        quot: dict[int, int] = {}
        while rem and max(rem) - base >= top - low:
            e = max(rem)
            c, r = divmod(rem[e], lead)
            if r:
                return None
            shift = e - top
            quot[shift] = c
            for k, v in den.items():
                x = rem.get(k + shift, 0) - c * v
                if x:
                    rem[k + shift] = x
                else:
                    del rem[k + shift]
        return None if rem else LaurentScalar.from_clean(quot)

    def __str__(self) -> str:
        if self.den.is_one():
            return self.num.render()
        return f"({self.num.render()}) / ({self.den.render()})"

    def __repr__(self) -> str:
        return f"ScalarFraction({self.num!r}, {self.den!r})"


def _coerce_fraction(x: "ScalarFraction | LaurentScalar | int") -> ScalarFraction:
    if isinstance(x, ScalarFraction):
        return x
    return ScalarFraction(x)
