"""The expression evaluator's flat form against a fold through the localized operators.

``oracle`` evaluates an AST the way the evaluator did before it worked on flat
values: every node becomes a canonical ``LocalizedElement`` and the nodes are
combined by that class's operators.  The flat evaluator must print the same
element and raise the same errors.
"""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

from qmv import cli
from qmv.algebra import AlgebraElement, Shape, gen
from qmv.cli import main
from qmv.expr import SessionConfig, evaluate, parse
from qmv.localize import LocalizedElement, corner_inverse, loc, x_prime, x_prime_minor
from qmv.minors import minor
from qmv.scalar import LaurentScalar

ROOT = Path(__file__).resolve().parents[1]
SHAPES = (Shape(2, 2), Shape(2, 3), Shape(3, 2), Shape(3, 3), Shape(4, 4))
TAGS = {"num", "q", "gen", "xp", "minor", "pminor", "comp", "det", "inv1n", "neg", "add", "sub",
        "mul", "pow"}


def oracle(node, config: SessionConfig) -> LocalizedElement:
    """The AST folded through the LocalizedElement operators, one canonical
    element per node."""
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
            return corner_inverse(shape)
        if tag == "neg":
            return -ev(node[1])
        if tag == "add":
            return ev(node[1]) + ev(node[2])
        if tag == "sub":
            return ev(node[1]) - ev(node[2])
        if tag == "mul":
            return ev(node[1]) * ev(node[2])
        base, e = node[1], node[2]
        if base == ("q",):
            return loc(AlgebraElement.from_scalar(shape, LaurentScalar.q_power(e)))
        if base == ("inv1n",):
            return corner_inverse(shape, e)
        return ev(base) ** e

    return ev(node)


def oracle_difference(lhs: str, rhs: str, config: SessionConfig) -> LocalizedElement:
    left = oracle(parse(lhs), config)
    return left - oracle(parse(rhs), config)


def _subset(rng: random.Random, lo: int, hi: int, p: int) -> tuple[int, ...]:
    return tuple(sorted(rng.sample(range(lo, hi + 1), p)))


def random_atom(rng: random.Random, shape: Shape):
    """An atom of the grammar that fits the shape, or rarely one that does not."""
    m, n, t = shape.m, shape.n, min(shape.m, shape.n)
    if rng.random() < 0.02:
        return rng.choice((("gen", m + 1, 1), ("det", t + 1), ("comp", 2, 3, 2),
                           ("pminor", (1,), (1,)), ("minor", (1,), (n + 1,))))
    tag = rng.choice(("num", "q", "gen", "gen", "gen", "xp", "minor", "pminor", "comp", "det",
                      "inv1n", "qpow", "invpow"))
    if tag == "num":
        return ("num", rng.randint(0, 3))
    if tag == "q":
        return ("q",)
    if tag == "gen":
        return ("gen", rng.randint(1, m), rng.randint(1, n))
    if tag == "xp":
        return ("xp", rng.randint(2, m), rng.randint(1, n - 1))
    if tag == "minor":
        p = rng.randint(1, min(t, 3))
        return ("minor", _subset(rng, 1, m, p), _subset(rng, 1, n, p))
    if tag == "pminor":
        p = rng.randint(1, min(t - 1, 2))
        return ("pminor", _subset(rng, 2, m, p), _subset(rng, 1, n - 1, p))
    if tag == "comp":
        k = rng.randint(1, min(t, 3))
        return ("comp", rng.randint(1, k), rng.randint(1, k), k)
    if tag == "det":
        return ("det", rng.randint(1, min(t, 3)))
    if tag == "inv1n":
        return ("inv1n",)
    if tag == "qpow":
        return ("pow", ("q",), rng.randint(-3, 3))
    return ("pow", ("inv1n",), rng.randint(0, 3))


def random_ast(rng: random.Random, shape: Shape, depth: int):
    if depth == 0 or rng.random() < 0.25:
        return random_atom(rng, shape)
    tag = rng.choice(("neg", "add", "sub", "mul", "mul", "mul", "pow"))
    if tag == "neg":
        return ("neg", random_ast(rng, shape, depth - 1))
    if tag == "pow":
        return ("pow", random_ast(rng, shape, min(depth - 1, 1)), rng.randint(0, 2))
    return (tag, random_ast(rng, shape, depth - 1), random_ast(rng, shape, depth - 1))


def outcome(fn, node, config):
    try:
        return str(fn(node, config))
    except ValueError as exc:
        return type(exc), str(exc)


def tags(node) -> set[str]:
    return {node[0]}.union(*(tags(x) for x in node[1:] if isinstance(x, tuple) and x
                             and isinstance(x[0], str)))


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_flat_evaluation_prints_what_the_localized_operators_print(shape):
    rng = random.Random(f"flat {shape}")
    config = SessionConfig(shape.m, shape.n)
    seen = set()
    for _ in range(120):
        node = random_ast(rng, shape, 3)
        seen |= tags(node)
        assert outcome(evaluate, node, config) == outcome(oracle, node, config), node
    assert seen == TAGS


def _session_queries():
    """``perfbench.queries.session_queries``, loaded from its file."""
    name = "perfbench_queries"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / "queries.py")
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name].session_queries


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_equal_answers_the_session_stream_as_the_localized_operators_do(seed, capsys, monkeypatch):
    queries = _session_queries()(seed, 300)
    argvs = [q.argv() + ["--format", fmt] for q in queries for fmt in ("text", "json")]

    def answers():
        out = []
        for argv in argvs:
            code = main(argv)
            out.append((code, *capsys.readouterr()))
        return out

    flat = answers()
    monkeypatch.setattr(cli, "difference", oracle_difference)
    assert flat == answers()
    assert [code for code, _, _ in flat[::2]] == [q.expected for q in queries]


def test_equal_and_normalize_use_neither_the_localized_product_nor_sum(capsys, monkeypatch):
    commands = [
        ["equal", "--n", "3", "Mp[{2,3}|{1,2}]*X[1,3]", "q^-2*Dq@3"],
        ["equal", "--n", "4", "X[1,2]*Mp[{2,4}|{1,2}]", "q^-1*Mp[{2,4}|{1,2}]*X[1,2]"],
        ["normalize", "--m", "3", "--n", "4", "(Xp[2,1] - inv1n*M[{1,2}|{3,4}])^2 + A(1,1)@3"],
        ["normalize", "--n", "3", "(X[1,3]*inv1n + X[2,1])^2 * inv1n^2 - q^-2"],
    ]

    def run():
        out = []
        for argv in commands:
            code = main(argv)
            out.append((code, *capsys.readouterr()))
        return out

    # the first run also fills the derived-minor cache, which is built with them
    want = run()

    def refuse(*args, **kwargs):
        raise AssertionError("a localized operator was called")

    monkeypatch.setattr(LocalizedElement, "__mul__", refuse)
    monkeypatch.setattr(LocalizedElement, "sum", refuse)
    assert run() == want
    assert all(code in (0, 1) for code, _, _ in want)
