"""Seeded stream of ``qmv equal`` queries with known answers.

Each query is an instance of a relation that holds in O_q(M_n) or in its
localization at X[1,n]: the defining relations, centrality of leading
determinants, semicentrality of minors, the relations of the derived matrix,
the determinant and minor reductions through the corner, and the twists of the
corner inverse and of derived minors by edge generators.  Every true pair also
appears with one side multiplied by q.  Both sides of every relation are
nonzero elements of a domain, so the scaled pair is known to be unequal.

The answers come from the relations as stated in the source paper, not from
qmv, so a verifier that drifts toward "equal" or "not equal" is caught.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

SHAPES = (3, 4)  # square sides the stream draws from
TEMPLATES = (
    "relation", "central", "semicentral", "derived-relation", "derived-corner",
    "det-reduction", "minor-reduction", "corner-inverse", "corner-twist", "edge-twist",
)


@dataclass(frozen=True)
class Query:
    """One ``qmv equal`` call and the exit code it must return (0 equal, 1 not)."""

    template: str
    n: int
    lhs: str
    rhs: str
    expected: int
    scaled: str | None = None  # the side multiplied by q in a known-false query

    def argv(self) -> list[str]:
        return ["equal", "--n", str(self.n), self.lhs, self.rhs]


def _mq(k: int) -> str:
    """(-q)^k as a DSL factor that does not start with '-'."""
    if k == 0:
        return "1"
    body = "q" if k == 1 else f"q^{k}"
    return f"(-{body})" if k % 2 else body


def _set(items) -> str:
    return "{" + ",".join(str(i) for i in items) + "}"


def _pair(rng: random.Random, lo: int, hi: int) -> tuple[int, int]:
    a, b = sorted(rng.sample(range(lo, hi + 1), 2))
    return a, b


def _relation(rng: random.Random, atom: str, rows: tuple[int, int],
              cols: tuple[int, int]) -> tuple[str, str]:
    """One of the four defining relations on ``atom[i,j]`` inside the index
    ranges, as (lhs, rhs)."""
    x = lambda i, j: f"{atom}[{i},{j}]"
    kind = rng.choice(("row", "column", "antidiagonal", "diagonal"))
    if kind == "row":
        i = rng.randint(*rows)
        j, l = _pair(rng, *cols)
        return f"{x(i, j)}*{x(i, l)}", f"q*{x(i, l)}*{x(i, j)}"
    if kind == "column":
        i, k = _pair(rng, *rows)
        j = rng.randint(*cols)
        return f"{x(i, j)}*{x(k, j)}", f"q*{x(k, j)}*{x(i, j)}"
    i, k = _pair(rng, *rows)
    j, l = _pair(rng, *cols)
    if kind == "antidiagonal":
        return f"{x(i, l)}*{x(k, j)}", f"{x(k, j)}*{x(i, l)}"
    return f"{x(i, j)}*{x(k, l)} - {x(k, l)}*{x(i, j)}", f"(q - q^-1)*{x(i, l)}*{x(k, j)}"


def _true_pair(rng: random.Random, template: str, n: int) -> tuple[str, str]:
    """A random instance of one relation template on the n-by-n grid."""
    if template == "relation":
        lhs, rhs = _relation(rng, "X", (1, n), (1, n))
    elif template == "derived-relation":
        lhs, rhs = _relation(rng, "Xp", (2, n), (1, n - 1))
    elif template == "central":
        # the leading k-by-k determinant is central in the subalgebra it lives in
        k = rng.randint(2, n)
        i, j = rng.randint(1, k), rng.randint(1, k)
        lhs, rhs = f"Dq@{k}*X[{i},{j}]", f"X[{i},{j}]*Dq@{k}"
    elif template == "semicentral":
        p = rng.randint(2, n - 1)
        rows = sorted(rng.sample(range(1, n + 1), p))
        cols = sorted(rng.sample(range(1, n + 1), p))
        i, j = rng.choice(rows), rng.choice(cols)
        m = f"M[{_set(rows)}|{_set(cols)}]"
        lhs, rhs = f"{m}*X[{i},{j}]", f"X[{i},{j}]*{m}"
    elif template == "derived-corner":
        i, j = rng.randint(2, n), rng.randint(1, n - 1)
        lhs, rhs = f"Xp[{i},{j}]*X[1,{n}]", f"X[1,{n}]*Xp[{i},{j}]"
    elif template == "det-reduction":
        mp = f"Mp[{_set(range(2, n + 1))}|{_set(range(1, n))}]"
        prod = rng.choice((f"{mp}*X[1,{n}]", f"X[1,{n}]*{mp}"))
        lhs, rhs = prod, f"{_mq(1 - n)}*Dq@{n}"
    elif template == "minor-reduction":
        p = rng.randint(2, n)
        rows = sorted(rng.sample(range(2, n + 1), p - 1))
        cols = sorted(rng.sample(range(1, n), p - 1))
        big = f"M[{_set([1] + rows)}|{_set(cols + [n])}]"
        side = rng.choice((f"{big}*inv1n", f"inv1n*{big}"))
        lhs, rhs = f"Mp[{_set(rows)}|{_set(cols)}]", f"{_mq(1 - p)}*{side}"
    elif template == "corner-inverse":
        lhs, rhs = rng.choice((f"inv1n*X[1,{n}]", f"X[1,{n}]*inv1n")), "1"
    elif template == "corner-twist":
        # X[1,n] q-commutes with its row and column and commutes with the rest
        i, j = rng.randint(1, n), rng.randint(1, n)
        while (i, j) == (1, n):
            i, j = rng.randint(1, n), rng.randint(1, n)
        c = "q" if i == 1 else "q^-1" if j == n else "1"
        lhs, rhs = f"inv1n*X[{i},{j}]", f"{c}*X[{i},{j}]*inv1n"
    else:  # edge-twist: a derived minor twisted by an edge generator it contains
        p = rng.randint(1, n - 1)
        rows = sorted(rng.sample(range(2, n + 1), p))
        cols = sorted(rng.sample(range(1, n), p))
        mp = f"Mp[{_set(rows)}|{_set(cols)}]"
        if rng.random() < 0.5:
            l = rng.choice(cols)
            lhs, rhs = f"X[1,{l}]*{mp}", f"q^-1*{mp}*X[1,{l}]"
        else:
            k = rng.choice(rows)
            lhs, rhs = f"X[{k},{n}]*{mp}", f"q*{mp}*X[{k},{n}]"
    return lhs, rhs


def session_queries(seed: int, count: int) -> list[Query]:
    """``count`` queries (rounded up to even): count/2 relation instances and
    the same pairs with one side scaled by q, in a seeded random order.

    Every template and shape occurs equally often, whatever the seed, so the
    seed changes the indices and the order but not the mix of work."""
    rng = random.Random(seed)
    combos = [(template, n) for template in TEMPLATES for n in SHAPES]
    out: list[Query] = []
    for k in range((count + 1) // 2):
        template, n = combos[k % len(combos)]
        lhs, rhs = _true_pair(rng, template, n)
        out.append(Query(template, n, lhs, rhs, 0))
        if rng.random() < 0.5:
            scaled = f"q*({lhs})"
            out.append(Query(template, n, scaled, rhs, 1, scaled))
        else:
            scaled = f"q*({rhs})"
            out.append(Query(template, n, lhs, scaled, 1, scaled))
    rng.shuffle(out)
    return out
