"""Frozen exponent laws for q-power coefficients left unspecified by the identities.

Several identity families carry coefficients that are integer powers of (-q)
whose exponents are not pinned down a priori.  The exponent solver in the
verify module determines them by exact linear algebra at the smallest
nontrivial size; the resulting affine laws are frozen here (exponents.json)
and re-derivation must reproduce this table exactly, or the suites fail.
"""

from __future__ import annotations

import json
from pathlib import Path

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
    """Row expansion (generator left of the minor): exponent on X[k,j] A(i,j).

    Like the column law, it is positional: the derived-minor expansion reads
    (i, j) as (row position, column position) in the index sets."""
    return _affine("row-laplace", i=i, j=j)


def col_expansion_exponent(i: int, j: int) -> int:
    """Column expansion (generator right of the minor): exponent on A(i,j) X[i,l].

    The law is positional, so it also applies to expansions of general minors
    with (i, j) read as (row position, column position) in the index sets.
    """
    return _affine("col-laplace", i=i, j=j)


def minor_row_first_exponent(b: int) -> int:
    """Expanding a minor along its first row, generator right: exponent on the
    term deleting the column in position b."""
    return _affine("lemma23-eq1", b=b)


def minor_row_last_exponent(p: int, b: int) -> int:
    """Expanding a p-by-p minor along its last row, generator right."""
    return _affine("lemma23-eq2", p=p, b=b)


def commutation_col_exponent(r_replaced: int, r_inserted: int) -> int:
    """Correction-sum exponent for the column-generator commutation family.

    Ranks are taken inside the enlarged column set (original columns plus the
    generator's column): r_replaced for the column leaving the minor,
    r_inserted for the generator's column."""
    return _affine("thm25-2prime", rj=r_replaced, rl=r_inserted)


def commutation_row_exponent(r_replaced: int, r_inserted: int) -> int:
    """Correction-sum exponent for the row-generator commutation family; ranks
    inside the enlarged row set, as in the column case."""
    return _affine("thm25-4prime", rj=r_replaced, rk=r_inserted)
