"""Expression DSL: tokenizer, parser and evaluator.

Grammar:

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' ['+'|'-'] int)?
    atom   := 'q' | int | 'X[' i ',' j ']' | 'Xp[' i ',' j ']'
            | 'M[' set '|' set ']' | 'Mp[' set '|' set ']'
            | 'A(' i ',' j ')@' n | 'Dq@' n | 'inv1n' | '(' expr ')'
    set    := '{' i (',' i)* '}'
    i, j, n and int are integers: one or more ASCII digits 0-9

An index i, j or n is below 64, since no grid holds a larger one; a larger
index is refused at its position without being echoed.  The tokens are the
names Xp, Mp, Dq and inv1n, integers, and any other single character.
Whitespace may separate any two tokens; a sign after '^' must touch its
digits, and an integer of more digits than Python converts
(``sys.get_int_max_str_digits()``, 4,300 by default) is refused at its
position.  Products preserve order (the algebra is noncommutative);
negative powers are allowed only on q and through inv1n.

Evaluation works on flat values: N X[1,n]^-k is the kernel's flat dict N with
the corner exponent k, and nodes combine by the localization's flat product,
sum and power.  Every flat value is canonical, as the atoms are and as those
three return, so each guard reads the operands a canonical element holds.  A
minor or derived atom is flattened once per (shape, node).  ``evaluate``
builds one LocalizedElement at the end, whose denominator exponent is 0
whenever no localized atom occurs; ``difference`` builds lhs - rhs as one, and
parses and evaluates lhs before it parses rhs.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass

from .algebra import GRID_LIMIT, AlgebraElement, Shape, gen
from .localize import (
    LocalizedElement, Value, _element, _localized_power, _localized_product, _localized_sum,
    _value, x_prime, x_prime_minor,
)
from .minors import minor


class ExprError(ValueError):
    """Parse or evaluation error, carrying the source position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


@dataclass(frozen=True)
class SessionConfig:
    """The ambient shape that expressions are parsed and evaluated over."""

    m: int
    n: int

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("shape dimensions must be positive")

    @property
    def shape(self) -> Shape:
        return Shape(self.m, self.n)


# AST nodes are plain tuples: ("num", value), ("q",), ("gen", i, j),
# ("xp", i, j), ("minor", rows, cols), ("pminor", rows, cols),
# ("comp", i, j, n), ("det", n), ("inv1n",), ("neg", node), ("add", a, b),
# ("sub", a, b), ("mul", a, b), ("pow", node, e)


# The lexical grammar: a name, an integer of ASCII digits (str.isdigit also
# holds for '²' and '١'), any other non-space character, or the end.
_TOKEN = re.compile(r"Xp|Mp|Dq|inv1n|[0-9]+|\S|\Z")

# The AST tag of each atom that starts with a name.
_NAMED = {"q": "q", "inv1n": "inv1n", "X": "gen", "Xp": "xp", "M": "minor", "Mp": "pminor",
          "A": "comp", "Dq": "det"}


class _Parser:
    """Recursive descent over the source's tokens: ``token`` is the next ('' at
    the end), ``pos`` where it starts, and ``end`` where the last one read ends."""

    def __init__(self, source: str):
        self.src = source
        self.tokens = _TOKEN.finditer(source)
        self.token, self.pos = "", 0
        self.advance()

    def advance(self) -> str:
        token, self.end = self.token, self.pos + len(self.token)
        match = next(self.tokens)
        self.token, self.pos = match.group(), match.start()
        return token

    def take(self, literal: str) -> bool:
        if self.token != literal:
            return False
        self.advance()
        return True

    def expect(self, literal: str):
        if not self.take(literal):
            raise ExprError(f"expected {literal!r}", self.pos)

    def integer(self, sign: str = "") -> int:
        """The integer token, after ``sign`` when one was read."""
        if not (self.token.isdigit() and self.token.isascii()):
            raise ExprError("expected an integer", self.pos)
        if 0 < sys.get_int_max_str_digits() < len(self.token):
            raise ExprError(f"integer of {len(self.token):,} digits, more than the limit of "
                            f"{sys.get_int_max_str_digits():,}", self.pos)
        return int(sign + self.advance())

    def index(self) -> int:
        """An index of X[i,j], Xp[i,j], a set, A(i,j)@n or Dq@n."""
        pos, value = self.pos, self.integer()
        if value >= GRID_LIMIT:
            raise ExprError(f"an index must be below {GRID_LIMIT}, the grid limit", pos)
        return value

    def index_set(self) -> tuple[int, ...]:
        self.expect("{")
        items = [self.index()]
        while self.take(","):
            items.append(self.index())
        if not self.take("}"):
            raise ExprError("malformed set literal: expected ',' or '}'", self.pos)
        if any(a >= b for a, b in zip(items, items[1:])):
            raise ExprError(f"set elements must be strictly increasing: {items}", self.end)
        return tuple(items)

    def parse(self, rule):
        node = rule(self)
        if self.token:
            raise ExprError(f"unexpected trailing input {self.src[self.pos:]!r}", self.pos)
        return node

    def expr(self):
        sign = self.advance() if self.token in ("+", "-") else ""
        node = ("neg", self.term()) if sign == "-" else self.term()
        while self.token in ("+", "-"):
            node = ("add" if self.advance() == "+" else "sub", node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.take("*"):
            node = ("mul", node, self.factor())
        return node

    def factor(self):
        node = self.atom()
        if self.take("^"):
            # a sign binds only to the digits that touch it
            signed = self.token in ("+", "-") and "0" <= self.src[self.pos + 1:self.pos + 2] <= "9"
            e = self.integer(self.advance()) if signed else self.integer()
            if e < 0 and node != ("q",):
                hint = "; the inverse of inv1n is X[1,n]" if node == ("inv1n",) else " (or via inv1n)"
                raise ExprError(f"negative powers are allowed only on q{hint}", self.end)
            node = ("pow", node, e)
        return node

    def pair(self, opening: str, closing: str) -> tuple[int, int]:
        """The index pair of X[i,j], Xp[i,j] and A(i,j)."""
        self.expect(opening)
        i = self.index()
        self.expect(",")
        j = self.index()
        self.expect(closing)
        return i, j

    def minor(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The rows and columns of M[rows|cols] and Mp[rows|cols]."""
        self.expect("[")
        rows = self.index_set()
        self.expect("|")
        cols = self.index_set()
        self.expect("]")
        return rows, cols

    def size(self) -> int:
        self.expect("@")
        return self.index()

    def atom(self):
        token = self.token
        if token.isdigit() and token.isascii():
            return ("num", self.integer())
        if token != "(" and token not in _NAMED:
            raise ExprError(f"unexpected input {self.src[self.pos:self.pos + 10]!r}", self.pos)
        self.advance()
        if token == "(":
            node = self.expr()
            self.expect(")")
            return node
        tag = _NAMED[token]
        if token in ("X", "Xp"):
            return (tag, *self.pair("[", "]"))
        if token in ("M", "Mp"):
            return (tag, *self.minor())
        if token == "A":
            return (tag, *self.pair("(", ")"), self.size())
        return (tag, self.size()) if token == "Dq" else (tag,)


def parse(source: str):
    """Parse DSL source into an AST; raises ExprError with position info."""
    return _Parser(source).parse(_Parser.expr)


def parse_index_set(source: str) -> tuple[int, ...]:
    """Parse a whole set literal such as ``{1,2}`` by the grammar's ``set`` rule."""
    return _Parser(source).parse(_Parser.index_set)


def _leading_square(shape: Shape, k: int, what: str) -> None:
    if k < 1 or k > min(shape.m, shape.n):
        raise ValueError(f"{what}@{k} does not fit inside shape {shape}")


def _atom(node, shape: Shape) -> LocalizedElement | AlgebraElement:
    """The element a minor or derived atom stands for, from the cache of the
    core module that builds it."""
    tag = node[0]
    if tag == "xp":
        return x_prime(shape, node[1], node[2])
    if tag == "minor":
        return minor(shape, node[1], node[2])
    if tag == "pminor":
        return x_prime_minor(shape, node[1], node[2])
    if tag == "comp":
        i, j, k = node[1], node[2], node[3]
        _leading_square(shape, k, f"A({i},{j})")
        if not (1 <= i <= k and 1 <= j <= k):
            raise ValueError(f"A({i},{j})@{k} indices out of range")
        if k == 1:
            return AlgebraElement.one(shape)
        rows = [r for r in range(1, k + 1) if r != i]
        cols = [c for c in range(1, k + 1) if c != j]
        return minor(shape, rows, cols)
    _leading_square(shape, node[1], "Dq")
    return minor(shape, range(1, node[1] + 1), range(1, node[1] + 1))


_ATOM_TAGS = frozenset(("xp", "minor", "pminor", "comp", "det"))

# (shape, atom node) -> (its element, the element's flat value).  An atom is
# flattened once per element the core caches return; nothing mutates a flat
# value.  ``_atom`` still runs each time: it validates the atom, and a traced
# run then counts the same calls into the core modules whatever this cache
# held before it.
_ATOMS: dict[tuple[Shape, tuple], tuple[LocalizedElement | AlgebraElement, Value]] = {}


def _scalar(e: int, c: int = 1, k: int = 0) -> Value:
    """c q^e X[1,n]^-k as a flat value."""
    return ({((), e): c} if c else {}), k


def _negated(value: Value) -> Value:
    return {key: -c for key, c in value[0].items()}, value[1]


def _evaluate(node, shape: Shape) -> Value:
    """The flat value of an AST: N X[1,n]^-k as (N, k) in canonical form, by
    the localization's flat product, sum and power."""
    tag = node[0]
    if tag in ("mul", "add", "sub"):
        a, b = _evaluate(node[1], shape), _evaluate(node[2], shape)
        if tag == "mul":
            return _localized_product(shape, a, b)
        return _localized_sum(shape, a, b if tag == "add" else _negated(b))
    if tag == "gen":
        return _value(gen(shape, node[1], node[2]), shape)
    if tag in _ATOM_TAGS:
        element, hit = _atom(node, shape), _ATOMS.get((shape, node))
        if hit is None or hit[0] is not element:
            hit = _ATOMS[shape, node] = element, _value(element, shape)
        return hit[1]
    if tag == "num":
        return _scalar(0, node[1])
    if tag == "q":
        return _scalar(1)
    if tag == "inv1n":
        return _scalar(0, k=1)
    if tag == "neg":
        return _negated(_evaluate(node[1], shape))
    if tag == "pow":
        base, e = node[1], node[2]
        if base == ("q",):
            return _scalar(e)
        if base == ("inv1n",):
            return _scalar(0, k=e)
        return _localized_power(shape, _evaluate(base, shape), e)
    raise ValueError(f"unknown AST node {tag!r}")


def evaluate(node, config: SessionConfig) -> LocalizedElement:
    """Evaluate an AST over the configured shape, in flat form, into one
    element; shape violations surface as ExprError/ValueError from
    the core modules."""
    return _element(config.shape, _evaluate(node, config.shape))


def evaluate_source(source: str, config: SessionConfig) -> LocalizedElement:
    return evaluate(parse(source), config)


def difference(lhs: str, rhs: str, config: SessionConfig) -> LocalizedElement:
    """lhs - rhs as one canonical element.  lhs is parsed and evaluated before
    rhs is parsed, so an error in lhs is the one reported."""
    shape = config.shape
    left = _evaluate(parse(lhs), shape)
    return _element(shape, _localized_sum(shape, left, _negated(_evaluate(parse(rhs), shape))))
