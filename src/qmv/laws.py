"""Frozen exponent laws, and the terms of each identity family they govern.

Several identity families carry coefficients that are integer powers of (-q)
whose exponents are not pinned down a priori.  The exponent solver in the
verify module determines them by exact linear algebra at the smallest
nontrivial size; the resulting affine laws are frozen here (exponents.json)
and re-derivation must reproduce this table exactly, or the suites fail.

One evaluator, ``exponent(family, indices)``, reads a frozen law.  Each
family's terms are written once, as a term function below that names its
family: pure index arithmetic giving, per term, the law's variables, the minor
and the one generator multiplying it, with the exponent evaluated at exactly
those variables.  The family also fixes the side the generator stands on, and
``_term`` alone records it in each term: the row expansion and the two
Theorem 2.5 correction tables put it left of the minor, the column, first-row
and last-row expansions right, so no reader of a table chooses a side.  The
expansions, the Lemma 2.3 rewriting, the commutation checks and the exponent
solver all read these tables; the solver builds the suites' own products with
every exponent set to zero, solves for the exponents itself, and checks them
through the same evaluator.
"""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

_TABLE_PATH = Path(__file__).with_name("exponents.json")


class ExponentTableError(RuntimeError):
    pass


@lru_cache(maxsize=None)
def table() -> dict:
    """The frozen table, read once; each family's law is converted to ints as it loads."""
    if not _TABLE_PATH.exists():
        raise ExponentTableError(f"missing exponent table {_TABLE_PATH}; "
                                 "run the exponent fitter to regenerate")
    with open(_TABLE_PATH) as fh:
        loaded = json.load(fh)
    for entry in loaded["families"].values():
        entry["law"] = {k: int(v) for k, v in entry["law"].items()}
    return loaded


def law_coefficients(family: str) -> dict[str, int]:
    """The family's frozen law as {variable: coefficient}, a copy the caller may change."""
    families = table()["families"]
    if family not in families:
        raise ExponentTableError(f"no frozen law for family {family!r}")
    return dict(families[family]["law"])


def exponent(family: str, indices: dict[str, int]) -> int:
    """The family's frozen affine law at one term's indices."""
    coeffs = law_coefficients(family)
    return coeffs.get("1", 0) + sum(coeffs.get(var, 0) * value for var, value in indices.items())


MinorKey = tuple[tuple[int, ...], tuple[int, ...]]


# The families whose generator stands left of the minor; every other one's stands right.
_LEFT = frozenset({"row-laplace", "thm25-2prime", "thm25-4prime"})


class Term(NamedTuple):
    """One term of a family, keyed by the law's variables: (-q)^exponent
    X[gen] [minor] when ``left``, else (-q)^exponent [minor] X[gen].  The
    minor key ((), ()) names 1."""

    indices: dict[str, int]
    exponent: int
    minor: MinorKey
    gen: tuple[int, int]
    left: bool


def _term(family: str, indices: dict[str, int], minor: MinorKey, gen: tuple[int, int]) -> Term:
    """A term of the family, its exponent the frozen law at exactly these
    indices, its generator on the family's side."""
    return Term(indices, exponent(family, indices), minor, gen, family in _LEFT)


def _drop(indices: tuple[int, ...], position: int) -> tuple[int, ...]:
    return indices[: position - 1] + indices[position:]


def row_terms(rows: tuple[int, ...], cols: tuple[int, ...], i: int, k: int) -> list[Term]:
    """sum_j (-q)^e(i,j) X[k, cols_j] [rows - rows_i | cols - cols_j], generator
    left: the expansion of [rows|cols] along its row in position i, taking the
    generators from row k.  It is the minor when k = rows_i and vanishes for
    any other row of the minor."""
    rest = _drop(rows, i)
    return [
        _term("row-laplace", {"i": i, "j": j}, (rest, _drop(cols, j)), (k, c))
        for j, c in enumerate(cols, start=1)
    ]


def col_terms(rows: tuple[int, ...], cols: tuple[int, ...], j: int, l: int) -> list[Term]:
    """sum_i (-q)^e(i,j) [rows - rows_i | cols - cols_j] X[rows_i, l], generator
    right: the expansion of [rows|cols] along its column in position j, taking
    the generators from column l.  It is the minor when l = cols_j and
    vanishes for any other column of the minor (cols may repeat l for that)."""
    rest = _drop(cols, j)
    return [
        _term("col-laplace", {"i": i, "j": j}, (_drop(rows, i), rest), (r, l))
        for i, r in enumerate(rows, start=1)
    ]


def first_row_terms(rows: tuple[int, ...], cols: tuple[int, ...]) -> list[Term]:
    """sum_b (-q)^e(b) [rows - rows_1 | cols - cols_b] X[rows_1, cols_b],
    generator right: [rows|cols] along its first row, or zero when rows_1 also
    lies in rows - rows_1."""
    return [
        _term("lemma23-eq1", {"b": b}, (rows[1:], _drop(cols, b)), (rows[0], c))
        for b, c in enumerate(cols, start=1)
    ]


def last_row_terms(rows: tuple[int, ...], cols: tuple[int, ...]) -> list[Term]:
    """sum_b (-q)^e(p,b) [rows - rows_p | cols - cols_b] X[rows_p, cols_b],
    generator right: the p-by-p minor [rows|cols] along its last row."""
    p = len(rows)
    return [
        _term("lemma23-eq2", {"p": p, "b": b}, (rows[:-1], _drop(cols, b)), (rows[-1], c))
        for b, c in enumerate(cols, start=1)
    ]


def col_commutation_terms(rows: tuple[int, ...], cols: tuple[int, ...], l: int) -> list[Term]:
    """Correction sum of X[1,l] against the derived minor [rows|cols]' for a
    column l outside cols: one term X[1,j] [rows | cols - j + l]', generator
    left, per column j < l of the minor, with ranks inside cols + l."""
    enlarged = tuple(sorted(cols + (l,)))
    rl = enlarged.index(l) + 1
    return [
        _term("thm25-2prime", {"rj": rj, "rl": rl}, (rows, _drop(enlarged, rj)), (1, j))
        for rj, j in enumerate(enlarged, start=1)
        if j < l
    ]


def row_commutation_terms(rows: tuple[int, ...], cols: tuple[int, ...], k: int, n: int) -> list[Term]:
    """Correction sum of X[k,n] against the derived minor [rows|cols]' for a
    row k outside rows: one term X[j,n] [rows - j + k | cols]', generator left,
    per row j > k of the minor, with ranks inside rows + k."""
    enlarged = tuple(sorted(rows + (k,)))
    rk = enlarged.index(k) + 1
    return [
        _term("thm25-4prime", {"rj": rj, "rk": rk}, (_drop(enlarged, rj), cols), (j, n))
        for rj, j in enumerate(enlarged, start=1)
        if j > k
    ]
