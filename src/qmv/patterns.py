"""The lemma23 and thm25 suites, run one check per order-pattern class.

Each identity these suites check depends only on the relative order of its
row and column indices.  For increasing maps rho on rows and gamma on columns
with rho(1) = 1 and gamma(last) = n, X[i,j] -> X[rho(i), gamma(j)] is an
injective algebra map that sends PBW monomials to PBW monomials and the corner
to the corner, so it extends to the localization and sends X'[i,j] to
X'[rho(i), gamma(j)] (submatrix generators span a copy of O_q(M_{a,b});
Parshall-Wang, Mem. AMS 439, 1991).  A suite lists its checks as calls;
``check_by_class`` runs one representative per class on the compressed shape,
with the unchanged check builders of the localize module, and maps the result
back.  The exactness rule: a member takes the representative's result only
when every law table its check reads, computed at its own indices, is the
relabeled table of the representative; otherwise it runs directly.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterable
from typing import NamedTuple

from .algebra import Shape, relabel
from .checks import IdentityCheck, check_zero
from .localize import (
    Gen,
    _commutation,
    _rewriting,
    check_minor_commutation,
    commutation_name,
    derived_name,
    expand_minor_without_corner,
    expansion_names,
    minor_over_derived_generators,
)
from . import laws


# ---------------------------------------------------------------------------
# the law tables each check reads
# ---------------------------------------------------------------------------
#
# Each walker below reads, through read(table, *args) -> list[Term], every term
# table of the laws module that the check builder of the same name in localize
# reads, in a fixed order, and follows the table's own minors wherever the
# builder does.  Which expansion a rewriting solves, and whether a commutation
# is a twist or a correction sum, a walker takes from the decider its builder
# calls, ``localize._rewriting`` or ``localize._commutation``, passing its read
# through.  tests/test_order_classes.py records both reads and compares them.

def _x_prime_reads(rows: tuple[int, ...], cols: tuple[int, ...], read, seen: set) -> None:
    """The row-laplace tables ``x_prime_minor`` recurses through, each once."""
    if len(rows) > 1 and (rows, cols) not in seen:
        seen.add((rows, cols))
        for t in read(laws.row_terms, rows, cols, 1, rows[0]):
            _x_prime_reads(*t.minor, read, seen)


def expansion_reads(shape: Shape, rows: tuple[int, ...], cols: tuple[int, ...], read) -> None:
    """The tables ``expand_minor_without_corner`` reads."""
    _, _, enlarged = _rewriting(shape, rows, cols, read)
    if enlarged:
        read(laws.last_row_terms, *enlarged)


def derived_reads(shape: Shape, rows: tuple[int, ...], cols: tuple[int, ...], read) -> None:
    """The tables ``minor_over_derived_generators`` reads: those of the
    rewritings ``_derived_cofactors`` recurses through, then the derived minors
    of its corner cases."""
    corners: list[laws.MinorKey] = []
    rewritten: set = set()

    def cofactor_reads(rows, cols):
        if rows[0] == 1 and cols[-1] == shape.n:
            corners.append((rows[1:], cols[:-1]))
        elif (rows, cols) not in rewritten:
            rewritten.add((rows, cols))
            terms, corner, enlarged = _rewriting(shape, rows, cols, read)
            if enlarged:
                cofactor_reads(*enlarged)
            for k, t in enumerate(terms):
                if k != corner:
                    cofactor_reads(*t.minor)

    cofactor_reads(rows, cols)
    seen: set = set()
    for key in corners:
        _x_prime_reads(*key, read, seen)


def commutation_reads(shape: Shape, rows: tuple[int, ...], cols: tuple[int, ...], g: Gen,
                      read) -> None:
    """The tables ``check_minor_commutation`` reads: the derived minor's, the
    correction table ``_commutation`` reads, and those of the correction terms'
    derived minors."""
    seen: set = set()
    _x_prime_reads(rows, cols, read, seen)
    for t in _commutation(shape, rows, cols, g, read)[2]:
        _x_prime_reads(*t.minor, read, seen)


class CheckKind(NamedTuple):
    """A check the suites here list, as three functions of (shape, rows, cols)
    or (shape, rows, cols, generator): its checks, their names, and a walker
    that reads every law table the checks read (see above)."""

    run: Callable[..., list[IdentityCheck]]
    names: Callable[..., list[str]]
    reads: Callable[..., None]


EXPANSION = CheckKind(expand_minor_without_corner, expansion_names, expansion_reads)
DERIVED = CheckKind(lambda shape, *args: [minor_over_derived_generators(shape, *args)[1]],
                    lambda shape, *args: [derived_name(shape, *args)], derived_reads)
COMMUTATION = CheckKind(lambda shape, *args: [check_minor_commutation(shape, *args)],
                        lambda shape, *args: [commutation_name(shape, *args)], commutation_reads)

Call = tuple[CheckKind, tuple]


class _LawTables:
    """The law tables one suite run reads, each table call computed once, and
    each comparison of two tables under a relabeling made once."""

    def __init__(self):
        self.tables: dict[tuple, list[laws.Term]] = {}
        self.indices: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {}
        self.compared: dict[tuple, bool] = {}

    def read(self, kind: CheckKind, shape: Shape, args: tuple) -> list[list[laws.Term]]:
        """The tables one check reads, in its walker's order."""
        out = []

        def read(table, *table_args):
            key = (table, table_args)
            if key not in self.tables:
                self.tables[key] = table(*table_args)
            out.append(self.tables[key])
            return self.tables[key]

        kind.reads(shape, *args, read)
        return out

    def relabel(self, theirs: list[list[laws.Term]], mine: list[list[laws.Term]],
                rho: dict[int, int], gamma: dict[int, int]) -> bool:
        """Whether each of my tables is the relabeling of theirs by rows rho and
        columns gamma.  A comparison depends only on the two tables and on
        where rho and gamma send the indices their table names, so it is
        made once for each."""
        if len(theirs) != len(mine):
            return False
        for their, my in zip(theirs, mine):
            if id(their) not in self.indices:
                self.indices[id(their)] = (
                    tuple({i for t in their for i in (*t.minor[0], t.gen[0])}),
                    tuple({j for t in their for j in (*t.minor[1], t.gen[1])}))
            rows, cols = self.indices[id(their)]
            try:
                key = (id(their), id(my), tuple(rho[i] for i in rows), tuple(gamma[j] for j in cols))
            except KeyError:  # an index outside the check's rows and columns
                return False
            if key not in self.compared:
                self.compared[key] = my == [
                    t._replace(minor=(tuple(rho[i] for i in t.minor[0]),
                                      tuple(gamma[j] for j in t.minor[1])),
                               gen=(rho[t.gen[0]], gamma[t.gen[1]]))
                    for t in their]
            if not self.compared[key]:
                return False
        return True


def check_by_class(shape: Shape, calls: Iterable[Call]) -> tuple[list[IdentityCheck], dict[str, int]]:
    """Run listed checks once per order-pattern class, in list order; returns
    the checks and the counts of classes evaluated and of checks run directly.

    A call's args are (rows, cols) or (rows, cols, generator).  Its row set
    (row 1 and every row it names) and its column set (column n and every
    column it names) compress to their ranks, which give the class key: the
    small shape and the representative's args.  A member takes the
    representative's verdicts under its own names, and a failing one the
    relabeled difference as its witness, when every law table its check
    reads at its own indices is the relabeled table of the representative;
    otherwise it runs directly.
    """
    classes: dict[tuple, tuple[list[IdentityCheck], list]] = {}
    tables = _LawTables()
    checks: list[IdentityCheck] = []
    direct = 0
    for kind, args in calls:
        rows, cols, *g = args
        row_set = tuple(sorted({1, *rows, *(i for i, _ in g)}))
        col_set = tuple(sorted({shape.n, *cols, *(j for _, j in g)}))
        rank_r = {r: a for a, r in enumerate(row_set, 1)}
        rank_c = {c: b for b, c in enumerate(col_set, 1)}
        small = Shape(len(row_set), len(col_set))
        small_args = (tuple(rank_r[r] for r in rows), tuple(rank_c[c] for c in cols),
                      *((rank_r[i], rank_c[j]) for i, j in g))
        key = (kind, small, small_args)
        if key not in classes:
            classes[key] = (kind.run(small, *small_args), tables.read(kind, small, small_args))
        rep_checks, rep_tables = classes[key]
        rho, gamma = dict(enumerate(row_set, 1)), dict(enumerate(col_set, 1))
        if tables.relabel(rep_tables, tables.read(kind, shape, args), rho, gamma):
            checks.extend(
                IdentityCheck(name, True) if c.ok
                else check_zero(name, relabel(c.difference, shape, row_set, col_set))
                for name, c in zip(kind.names(shape, *args), rep_checks, strict=True))
        else:
            own = kind.run(shape, *args)
            direct += len(own)
            checks.extend(own)
    return checks, {"classes_evaluated": len(classes), "direct_checks": direct}


def _lemma23_calls(shape: Shape, t=None) -> Iterable[Call]:
    sizes = [t] if t else list(range(2, min(shape.m, shape.n) + 1))
    for p in sizes:
        for rows in itertools.combinations(range(1, shape.m + 1), p):
            for cols in itertools.combinations(range(1, shape.n + 1), p):
                if rows[0] == 1 and cols[-1] == shape.n:
                    continue
                yield EXPANSION, (rows, cols)
        for rows in itertools.combinations(range(1, shape.m + 1), p):
            for cols in itertools.combinations(range(1, shape.n + 1), p):
                yield DERIVED, (rows, cols)


def _thm25_calls(shape: Shape, t=None) -> Iterable[Call]:
    sizes = [t - 1] if t else list(range(1, min(shape.m, shape.n)))
    for size in sizes:
        for rows in itertools.combinations(range(2, shape.m + 1), size):
            for cols in itertools.combinations(range(1, shape.n), size):
                for l in range(1, shape.n):
                    yield COMMUTATION, (rows, cols, (1, l))
                for k in range(2, shape.m + 1):
                    yield COMMUTATION, (rows, cols, (k, shape.n))


# The calls of each suite here, by suite name.
CALLS = {
    "lemma23": _lemma23_calls,
    "thm25": _thm25_calls,
}
