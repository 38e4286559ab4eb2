"""Expression DSL: parser, evaluator, and canonical pretty-printing.

Grammar (whitespace insignificant):

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' int)?
    atom   := 'q' | int | 'X[' i ',' j ']' | 'Xp[' i ',' j ']'
            | 'M[' set '|' set ']' | 'Mp[' set '|' set ']'
            | 'A(' i ',' j ')@' n | 'Dq@' n | 'inv1n' | '(' expr ')'
    set    := '{' i (',' i)* '}'

Products preserve order (the algebra is noncommutative); negative powers are
allowed only on q and through inv1n.  Evaluation yields a LocalizedElement
whose denominator exponent is 0 whenever no localized atom occurs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import AlgebraElement, Shape, gen
from .localize import LocalizedElement, corner_inverse, loc, x_prime, x_prime_minor
from .minors import minor
from .scalar import LaurentScalar


class ExprError(ValueError):
    """Parse or evaluation error, carrying the source position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


@dataclass(frozen=True)
class SessionConfig:
    """Ambient shape and session options for parsing and suite runs."""

    m: int
    n: int
    t: int | None = None

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("shape dimensions must be positive")
        if self.t is not None and not (1 <= self.t <= min(self.m, self.n)):
            raise ValueError(f"t={self.t} must satisfy 1 <= t <= min(m, n)")

    @property
    def shape(self) -> Shape:
        return Shape(self.m, self.n)


# AST nodes are plain tuples: ("num", value), ("q",), ("gen", i, j),
# ("xp", i, j), ("minor", rows, cols), ("pminor", rows, cols),
# ("comp", i, j, n), ("det", n), ("inv1n",), ("neg", node), ("add", a, b),
# ("sub", a, b), ("mul", a, b), ("pow", node, e)


class _Parser:
    def __init__(self, source: str):
        self.src = source
        self.pos = 0

    def error(self, message: str) -> ExprError:
        return ExprError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.src[self.pos] if self.pos < len(self.src) else ""

    def take(self, literal: str) -> bool:
        self.skip_ws()
        if self.src.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def expect(self, literal: str):
        if not self.take(literal):
            raise self.error(f"expected {literal!r}")

    def integer(self, signed: bool = False) -> int:
        self.skip_ws()
        start = self.pos
        if signed and self.pos < len(self.src) and self.src[self.pos] in "+-":
            self.pos += 1
        while self.pos < len(self.src) and self.src[self.pos].isdigit():
            self.pos += 1
        if self.pos == start or not self.src[start:self.pos].lstrip("+-"):
            self.pos = start
            raise self.error("expected an integer")
        return int(self.src[start:self.pos])

    def index_set(self) -> tuple[int, ...]:
        self.expect("{")
        items = [self.integer()]
        while self.take(","):
            items.append(self.integer())
        if not self.take("}"):
            raise self.error("malformed set literal: expected ',' or '}'")
        if any(a >= b for a, b in zip(items, items[1:])):
            raise self.error(f"set elements must be strictly increasing: {items}")
        return tuple(items)

    def parse(self):
        node = self.expr()
        self.skip_ws()
        if self.pos != len(self.src):
            raise self.error(f"unexpected trailing input {self.src[self.pos:]!r}")
        return node

    def expr(self):
        if self.take("-"):
            node = ("neg", self.term())
        else:
            self.take("+")
            node = self.term()
        while True:
            if self.take("+"):
                node = ("add", node, self.term())
            elif self.take("-"):
                node = ("sub", node, self.term())
            else:
                return node

    def term(self):
        node = self.factor()
        while self.take("*"):
            node = ("mul", node, self.factor())
        return node

    def factor(self):
        node = self.atom()
        if self.take("^"):
            e = self.integer(signed=True)
            if e < 0 and node != ("q",):
                raise self.error("negative powers are allowed only on q (or via inv1n)")
            node = ("pow", node, e)
        return node

    def indexed(self, tag: str):
        self.expect("[")
        i = self.integer()
        self.expect(",")
        j = self.integer()
        self.expect("]")
        return (tag, i, j)

    def atom(self):
        self.skip_ws()
        if self.take("("):
            node = self.expr()
            self.expect(")")
            return node
        if self.take("Xp"):
            return self.indexed("xp")
        if self.take("X"):
            return self.indexed("gen")
        if self.take("Mp"):
            self.expect("[")
            rows = self.index_set()
            self.expect("|")
            cols = self.index_set()
            self.expect("]")
            return ("pminor", rows, cols)
        if self.take("M"):
            self.expect("[")
            rows = self.index_set()
            self.expect("|")
            cols = self.index_set()
            self.expect("]")
            return ("minor", rows, cols)
        if self.take("A"):
            self.expect("(")
            i = self.integer()
            self.expect(",")
            j = self.integer()
            self.expect(")")
            self.expect("@")
            return ("comp", i, j, self.integer())
        if self.take("Dq"):
            self.expect("@")
            return ("det", self.integer())
        if self.take("inv1n"):
            return ("inv1n",)
        if self.take("q"):
            return ("q",)
        if self.peek().isdigit():
            return ("num", self.integer())
        raise self.error(f"unexpected input {self.src[self.pos:self.pos + 10]!r}")


def parse(source: str):
    """Parse DSL source into an AST; raises ExprError with position info."""
    return _Parser(source).parse()


def evaluate(node, config: SessionConfig) -> LocalizedElement:
    """Evaluate an AST over the configured shape; shape violations surface as
    ExprError/ValueError from the core modules."""
    shape = config.shape

    def leading_square(k: int, what: str) -> None:
        if k < 1 or k > min(shape.m, shape.n):
            raise ValueError(f"{what}@{k} does not fit inside shape {shape}")

    def ev(node) -> LocalizedElement:
        tag = node[0]
        if tag == "num":
            return loc(AlgebraElement.from_scalar(shape, node[1]))
        if tag == "q":
            return loc(AlgebraElement.from_scalar(shape, LaurentScalar.q_power(1)))
        if tag == "gen":
            return loc(gen(shape, node[1], node[2]))
        if tag == "xp":
            return x_prime(shape, node[1], node[2])
        if tag == "minor":
            return loc(minor(shape, node[1], node[2]))
        if tag == "pminor":
            return x_prime_minor(shape, node[1], node[2])
        if tag == "comp":
            i, j, k = node[1], node[2], node[3]
            leading_square(k, f"A({i},{j})")
            if not (1 <= i <= k and 1 <= j <= k):
                raise ValueError(f"A({i},{j})@{k} indices out of range")
            if k == 1:
                return loc(AlgebraElement.one(shape))
            rows = [r for r in range(1, k + 1) if r != i]
            cols = [c for c in range(1, k + 1) if c != j]
            return loc(minor(shape, rows, cols))
        if tag == "det":
            k = node[1]
            leading_square(k, "Dq")
            return loc(minor(shape, range(1, k + 1), range(1, k + 1)))
        if tag == "inv1n":
            if shape.n < 1:
                raise ValueError("inv1n needs a valid shape")
            return corner_inverse(shape)
        if tag == "neg":
            return -ev(node[1])
        if tag == "add":
            return ev(node[1]) + ev(node[2])
        if tag == "sub":
            return ev(node[1]) - ev(node[2])
        if tag == "mul":
            return ev(node[1]) * ev(node[2])
        if tag == "pow":
            base, e = node[1], node[2]
            if base == ("q",):
                return loc(AlgebraElement.from_scalar(shape, LaurentScalar.q_power(e)))
            if base == ("inv1n",):
                return corner_inverse(shape, e)
            return ev(base) ** e
        raise ValueError(f"unknown AST node {tag!r}")

    return ev(node)


def evaluate_source(source: str, config: SessionConfig) -> LocalizedElement:
    return evaluate(parse(source), config)
