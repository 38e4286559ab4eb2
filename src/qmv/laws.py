"""Frozen exponent laws, and the terms of each identity family they govern.

Several identity families carry coefficients that are integer powers of (-q)
whose exponents are not pinned down a priori.  The exponent solver in the
verify module determines them by exact linear algebra at the smallest
nontrivial size; the resulting affine laws are frozen here (exponents.json)
and re-derivation must reproduce this table exactly, or the suites fail.

Each family's terms are written once, as a term function below: pure index
arithmetic giving, per term, the law's variables, the frozen exponent, the
minor and the one generator multiplying it.  The expansions, the Lemma 2.3
rewriting, the commutation checks and the exponent solver all read these
tables; the solver takes only their indices and products and solves for the
exponents itself.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import NamedTuple

_TABLE_PATH = Path(__file__).with_name("exponents.json")
_table: dict | None = None


class ExponentTableError(RuntimeError):
    pass


def table() -> dict:
    global _table
    if _table is None:
        if not _TABLE_PATH.exists():
            raise ExponentTableError(
                f"missing exponent table {_TABLE_PATH}; run the exponent fitter to regenerate"
            )
        with open(_TABLE_PATH) as fh:
            _table = json.load(fh)
    return _table


def law_coefficients(family: str) -> dict[str, int]:
    families = table()["families"]
    if family not in families:
        raise ExponentTableError(f"no frozen law for family {family!r}")
    return {k: int(v) for k, v in families[family]["law"].items()}


def _affine(family: str, **values: int) -> int:
    coeffs = law_coefficients(family)
    out = coeffs.get("1", 0)
    for var, value in values.items():
        out += coeffs.get(var, 0) * value
    return out


def row_expansion_exponent(i: int, j: int) -> int:
    """row-laplace law at row position i, column position j (see row_terms)."""
    return _affine("row-laplace", i=i, j=j)


def col_expansion_exponent(i: int, j: int) -> int:
    """col-laplace law at row position i, column position j (see col_terms)."""
    return _affine("col-laplace", i=i, j=j)


def minor_row_first_exponent(b: int) -> int:
    """lemma23-eq1 law at column position b (see first_row_terms)."""
    return _affine("lemma23-eq1", b=b)


def minor_row_last_exponent(p: int, b: int) -> int:
    """lemma23-eq2 law for a p-minor at column position b (see last_row_terms)."""
    return _affine("lemma23-eq2", p=p, b=b)


def commutation_col_exponent(r_replaced: int, r_inserted: int) -> int:
    """thm25-2prime law at the ranks of the column leaving the minor and of the
    generator's column (see col_commutation_terms)."""
    return _affine("thm25-2prime", rj=r_replaced, rl=r_inserted)


def commutation_row_exponent(r_replaced: int, r_inserted: int) -> int:
    """thm25-4prime law at the ranks of the row leaving the minor and of the
    generator's row (see row_commutation_terms)."""
    return _affine("thm25-4prime", rj=r_replaced, rk=r_inserted)


MinorKey = tuple[tuple[int, ...], tuple[int, ...]]


class Term(NamedTuple):
    """One term (-q)^exponent [minor] X[gen] of a family, keyed by the law's
    variables; the family fixes the side of the generator.  The minor key
    ((), ()) names 1."""

    indices: dict[str, int]
    exponent: int
    minor: MinorKey
    gen: tuple[int, int]


def _drop(indices: tuple[int, ...], position: int) -> tuple[int, ...]:
    return indices[: position - 1] + indices[position:]


def row_terms(rows: tuple[int, ...], cols: tuple[int, ...], i: int, k: int) -> list[Term]:
    """sum_j (-q)^e(i,j) X[k, cols_j] [rows - rows_i | cols - cols_j], generator
    left: the expansion of [rows|cols] along its row in position i, taking the
    generators from row k.  It is the minor when k = rows_i and vanishes for
    any other row of the minor."""
    rest = _drop(rows, i)
    return [
        Term({"i": i, "j": j}, row_expansion_exponent(i, j), (rest, _drop(cols, j)), (k, c))
        for j, c in enumerate(cols, start=1)
    ]


def col_terms(rows: tuple[int, ...], cols: tuple[int, ...], j: int, l: int) -> list[Term]:
    """sum_i (-q)^e(i,j) [rows - rows_i | cols - cols_j] X[rows_i, l], generator
    right: the expansion of [rows|cols] along its column in position j, taking
    the generators from column l.  It is the minor when l = cols_j and
    vanishes for any other column of the minor (cols may repeat l for that)."""
    rest = _drop(cols, j)
    return [
        Term({"i": i, "j": j}, col_expansion_exponent(i, j), (_drop(rows, i), rest), (r, l))
        for i, r in enumerate(rows, start=1)
    ]


def first_row_terms(rows: tuple[int, ...], cols: tuple[int, ...]) -> list[Term]:
    """sum_b (-q)^e(b) [rows - rows_1 | cols - cols_b] X[rows_1, cols_b],
    generator right: [rows|cols] along its first row, or zero when rows_1 also
    lies in rows - rows_1."""
    return [
        Term({"b": b}, minor_row_first_exponent(b), (rows[1:], _drop(cols, b)), (rows[0], c))
        for b, c in enumerate(cols, start=1)
    ]


def last_row_terms(rows: tuple[int, ...], cols: tuple[int, ...]) -> list[Term]:
    """sum_b (-q)^e(p,b) [rows - rows_p | cols - cols_b] X[rows_p, cols_b],
    generator right: the p-by-p minor [rows|cols] along its last row."""
    p = len(rows)
    return [
        Term({"p": p, "b": b}, minor_row_last_exponent(p, b), (rows[:-1], _drop(cols, b)), (rows[-1], c))
        for b, c in enumerate(cols, start=1)
    ]


def col_commutation_terms(rows: tuple[int, ...], cols: tuple[int, ...], l: int) -> list[Term]:
    """Correction sum of X[1,l] against the derived minor [rows|cols]' for a
    column l outside cols: one term X[1,j] [rows | cols - j + l]', generator
    left, per column j < l of the minor, with ranks inside cols + l."""
    enlarged = tuple(sorted(cols + (l,)))
    rl = enlarged.index(l) + 1
    return [
        Term({"rj": rj, "rl": rl}, commutation_col_exponent(rj, rl), (rows, _drop(enlarged, rj)), (1, j))
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
        Term({"rj": rj, "rk": rk}, commutation_row_exponent(rj, rk), (_drop(enlarged, rj), cols), (j, n))
        for rj, j in enumerate(enlarged, start=1)
        if j > k
    ]
