"""Identity suites, exponent fitting, and the graded non-membership computation.

Three jobs live here:

* run_suite: execute a named catalog of identity checks over a chosen shape and
  report pass/fail with failure witnesses.  The centrality, semicentrality
  and laplace suites live in the zerotest module, which decides each check by
  a row-by-row zero test, and the cor22, thm21, lemma23 and thm25 suites in
  the derived module, which decides each with the same test in corner form;
* fit_exponents: solve for the q-power coefficients the identity families leave
  unspecified, by exact linear algebra in the relevant graded component, and
  compare the result against the frozen table shipped with the package.  Each
  family's terms come from its table in the laws module, the same table the
  suites read, and the solver's columns are the suites' own products of those
  terms with every exponent set to zero;
* solve_membership / jordan_ingredients: the column-expansion split of the
  determinant c = d x + e and the certified check that e is not expressible as
  d alpha + beta X[1,n] inside the bidegree-(1,...,1;1,...,1) component.

Both exact solves build one coefficient table over Z[q, q^-1], sparse rows
{column: entry} per monomial.  A membership problem keeps its table; the exact
and the specialized verdicts each convert it into their own field.
"""

from __future__ import annotations

import itertools
import time
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from importlib import import_module
from math import comb, factorial

from .algebra import (
    AlgebraElement,
    Bidegree,
    Codes,
    Flat,
    Shape,
    _coefficients,
    _mono_times_gen,
    component_basis,
    gen,
    letter,
    monomial_count,
    random_element,
    render_monomial,
)
from .checks import IdentityCheck, check_zero
from .localize import (
    LocalizedElement,
    _commutation,
    _localized_product,
    combined,
    correction_terms,
    x_prime_entries,
    x_prime_minor,
)
from .minors import (
    built_minor,
    check_term_count,
    complement_minor,
    expansion_products,
    laplace_expand_row,
    minor,
    qdet,
)
from .scalar import LaurentScalar, ONE, Q, QINV, Q_MINUS_QINV, ScalarFraction
from . import laws

Gen = tuple[int, int]


# Obstruction columns: (n-1)! = 5,040 at n = 8, 40,320 at n = 9 (after a 9!-term det).
MAX_MEMBERSHIP_COLUMNS = 10_000


class FitError(RuntimeError):
    """Exponent fitting failed: no solution (convention mismatch), an ambiguous
    solution (family underdetermined at this size), or divergence from the
    frozen table."""


# ---------------------------------------------------------------------------
# exact linear algebra
# ---------------------------------------------------------------------------

def solve_linear(matrix: list[dict[int, object]], rhs: list, n_cols: int,
                 zero) -> tuple[str, list | None]:
    """Exact elimination over sparse rows {column: nonzero entry} of field-like
    entries (ScalarFraction, Fraction), one row at a time; the right-hand side
    rides along as column n_cols.  Each incoming row is reduced against the
    pivot rows found so far, always at its smallest pivoted column, and then
    pivots on its smallest column; a row left with its right-hand side alone
    has no solution.  The pivot columns are those of any echelon form.

    Returns ("unique", solution), ("none", None), or ("many", solution), where
    solution pins every free variable to zero.
    """
    pivots: dict[int, dict] = {}
    for row, b in zip(matrix, rhs):
        row = {**row, n_cols: b} if b else dict(row)
        while hit := [c for c in row if c in pivots]:
            c = min(hit)
            prow = pivots[c]
            factor = row[c] / prow[c]
            for col, v in prow.items():
                x = row[col] - factor * v if col in row else -factor * v
                if x:
                    row[col] = x
                else:
                    del row[col]
        if row:
            c = min(row)
            if c == n_cols:
                return "none", None
            pivots[c] = row
    sol = [zero] * n_cols
    for c, row in sorted(pivots.items(), reverse=True):
        known = sum((v * sol[col] for col, v in row.items() if c < col < n_cols), zero)
        sol[c] = (row.get(n_cols, zero) - known) / row[c]
    return ("many" if len(pivots) < n_cols else "unique"), sol


@dataclass
class ElementSystem:
    """sum_c t_c columns[c] = target over Z[q, q^-1]: each distinct entry once,
    ZERO first, and rows {column: entry index} with right-hand sides as entry
    indices."""

    n_cols: int
    entries: list[LaurentScalar]
    rows: list[dict[int, int]]
    rhs: list[int]

    def solve(self, convert) -> tuple[str, list | None]:
        """``solve_linear`` in the field ``convert`` maps entries into, each
        converted once; the first, ``convert(ZERO)``, is the field's zero.  An
        entry converting to zero (q - q^-1 at q0 = +-1) is not stored, so it is
        never a pivot; rows and columns keep their order."""
        values = [convert(entry) for entry in self.entries]
        kept = [bool(v) for v in values]
        matrix = [{c: values[i] for c, i in row.items() if kept[i]} for row in self.rows]
        return solve_linear(matrix, [values[i] for i in self.rhs], self.n_cols, values[0])


def _element_system(columns: Iterable[AlgebraElement], target: AlgebraElement) -> ElementSystem:
    """Rows for the target's monomials in its order, then for each new monomial
    in column order, each entry a monomial's coefficient in the ring; the
    columns are read one at a time and not kept.  Entries are told apart by
    their {q exponent: integer} content, and only each distinct one becomes a
    ``LaurentScalar``."""
    index: dict[frozenset, int] = {frozenset(): 0}  # the zero entry first
    entry = lambda coeff: index.setdefault(frozenset(coeff.items()), len(index))
    goal = _coefficients(target._terms)
    row_of = {mono: r for r, mono in enumerate(goal)}
    rhs = [entry(coeff) for coeff in goal.values()]
    rows: list[dict[int, int]] = [{} for _ in rhs]
    n_cols = 0
    for c, col in enumerate(columns):
        for mono, coeff in _coefficients(col._terms).items():
            r = row_of.setdefault(mono, len(rows))
            if r == len(rows):
                rows.append({})
                rhs.append(0)
            rows[r][c] = entry(coeff)
        n_cols = c + 1
    return ElementSystem(n_cols, [LaurentScalar.from_clean(dict(key)) for key in index], rows, rhs)


# ---------------------------------------------------------------------------
# exponent fitting
# ---------------------------------------------------------------------------

@dataclass
class ExponentFit:
    """Result of fitting one family of unspecified q-power exponents."""

    family: str
    instances: list[dict]            # {"indices": {...}, "exponent": int}
    law: dict[str, int]              # frozen affine law the instances satisfy
    residual_zero: bool              # every instance solved exactly as a (-q)-power
    matches_frozen: bool             # frozen law reproduces every fitted exponent

    def as_dict(self) -> dict:
        return {
            "family": self.family,
            "law": self.law,
            "residual_zero": self.residual_zero,
            "matches_frozen": self.matches_frozen,
            "instances": self.instances,
        }


FIT_FAMILIES = (
    "row-laplace",
    "col-laplace",
    "lemma23-eq1",
    "lemma23-eq2",
    "thm25-2prime",
    "thm25-4prime",
)


def _solved_exponents(columns, target, family) -> list[int]:
    """The exponents e with target = sum (-q)^e columns[i], solved exactly."""
    status, sol = _element_system(columns, target).solve(ScalarFraction)
    if status == "none":
        raise FitError(f"{family}: no exponent vector satisfies the identity (convention mismatch)")
    if status == "many":
        raise FitError(f"{family}: underdetermined at this size; enlarge the instance")
    exps = []
    for t in sol:
        value = t.as_scalar()
        e = value.as_minus_q_power() if value is not None else None
        if e is None:
            raise FitError(f"{family}: fitted coefficient {t} is not a power of -q")
        exps.append(e)
    return exps


def _unknown(terms: list[laws.Term]) -> list[laws.Term]:
    """The terms with every exponent set to zero, so no frozen exponent is read."""
    return [term._replace(exponent=0) for term in terms]


def _fit_shape(family: str, m: int | None, n: int | None, t: int | None) -> Shape:
    """The shape a family is fitted on, by default the one the frozen table
    records as ``fitted_at``; refuses a t the family does not read, or one
    out of its range."""
    default = laws.table()["families"][family]["fitted_at"]
    if family in ("row-laplace", "col-laplace"):
        if t is not None:
            raise ValueError(f"family {family} takes no t; only the lemma23-* and thm25-* "
                             "families do")
        side = n or default["n"]
        if m is not None and m != side:
            raise ValueError(f"family {family} is fitted on a square {side}x{side} grid; "
                             f"got m={m}")
        return Shape(side, side)
    shape = Shape(m or default["m"], n or default["n"])
    if family.startswith("lemma23"):
        low, high = 1, min(shape.m, shape.n) - 1  # the rewritten minor's size
    else:
        low, high = 2, min(shape.m, shape.n)  # one more than the derived minor's size
    if t is not None and not low <= t <= high:
        raise ValueError(f"t={t} out of range for {family} on {shape}: {low}..{high}")
    return shape


def _fit_systems(family: str, m: int | None, n: int | None, t: int | None):
    """The identities the family enters at one size, as (target, terms,
    columns): target = sum over the terms of (-q)^e * column, with every
    exponent e unknown.  The terms come from the family's table in the laws
    module and the columns are the suites' own products of those terms, built
    with every exponent set to zero."""
    shape = _fit_shape(family, m, n, t)
    if family in ("row-laplace", "col-laplace"):
        full = tuple(range(1, shape.n + 1))
        det = qdet(shape)
        table = laws.row_terms if family == "row-laplace" else laws.col_terms
        for a in full:
            terms = table(full, full, a, a)
            yield det, terms, expansion_products(shape, _unknown(terms))

    elif family in ("lemma23-eq1", "lemma23-eq2"):
        for p in ((t + 1,) if t is not None else (2, 3)):
            for rows in itertools.combinations(range(1, shape.m + 1), p):
                for cols in itertools.combinations(range(1, shape.n + 1), p):
                    if family == "lemma23-eq2":
                        terms = laws.last_row_terms(rows, cols)
                    elif rows[0] == 1:
                        terms = laws.first_row_terms(rows, cols)
                    else:
                        continue
                    yield minor(shape, rows, cols), terms, expansion_products(shape, _unknown(terms))

    else:
        edges = ([(1, l) for l in range(1, shape.n)] if family == "thm25-2prime"
                 else [(k, shape.n) for k in range(2, shape.m + 1)])
        # the corrections complete x mp - mp x to zero; derived minors have denominator
        # exponent 1 (Cor. 2.2), so every term times X[1,n] lies in the algebra
        corner = gen(shape, 1, shape.n)
        over = lambda *terms: combined(shape, *((*t, corner) for t in terms)).numerator
        for size in ((t - 1,) if t is not None else (1, 2)):
            for rows in itertools.combinations(range(2, shape.m + 1), size):
                for cols in itertools.combinations(range(1, shape.n), size):
                    for g in edges:
                        # a q-twist has no correction table, so nothing to fit
                        if terms := _commutation(shape, rows, cols, g)[2]:
                            x, mp = gen(shape, *g), x_prime_minor(shape, rows, cols)
                            columns = correction_terms(shape, _unknown(terms), g)
                            yield (over((1, mp, x), (-1, x, mp)), terms,
                                   [over(column) for column in columns])


def fit_exponents(family: str, m: int | None = None, n: int | None = None,
                  t: int | None = None) -> ExponentFit:
    """Fit one exponent family at the smallest (or requested) size and compare
    against the frozen law table.

    For the minor-expansion families, t is the size of the minor being
    rewritten (the expanded minor has size t + 1); for the commutation
    families it bounds the derived-minor size at t - 1.  The Laplace families
    take no t; a t out of range, or a size where the family enters no
    identity, is refused with a ValueError.  The exponents are
    solved for, never read from the term tables, and only then compared with
    the frozen law through ``laws.exponent``.
    """
    if family not in FIT_FAMILIES:
        raise FitError(f"unknown exponent family {family!r}; choose from {FIT_FAMILIES}")
    instances: list[dict] = []
    for target, terms, columns in _fit_systems(family, m, n, t):
        exponents = _solved_exponents(columns, target, family)
        instances.extend({"indices": term.indices, "exponent": e} for term, e in zip(terms, exponents))
    if not instances:
        raise ValueError(f"{family}: no identity to fit at this size")
    if any(laws.exponent(family, inst["indices"]) != inst["exponent"] for inst in instances):
        raise FitError(f"{family}: recomputed exponents diverge from the frozen table")
    return ExponentFit(family, instances, laws.law_coefficients(family),
                       residual_zero=True, matches_frozen=True)


def verify_frozen_table() -> list[ExponentFit]:
    """Refit every family at its recorded size and compare against the shipped
    table, instance by instance; raises FitError on any divergence."""
    fits = []
    for family, entry in laws.table()["families"].items():
        fit = fit_exponents(family)
        recomputed = {
            tuple(sorted(inst["indices"].items())): inst["exponent"]
            for inst in fit.instances
        }
        for stored in entry.get("instances", []):
            key = tuple(sorted(stored["indices"].items()))
            if recomputed.get(key) != stored["exponent"]:
                raise FitError(
                    f"{family}: stored instance {stored} not reproduced "
                    f"(got {recomputed.get(key)})"
                )
        fits.append(fit)
    return fits


# ---------------------------------------------------------------------------
# graded membership
# ---------------------------------------------------------------------------

@dataclass
class UnknownCofactor:
    """One unknown in a membership problem, placed as left * u * right with u
    supported on the given monomial basis."""

    name: str
    left: AlgebraElement
    right: AlgebraElement
    basis: list[Codes]


@dataclass
class MembershipProblem:
    """target = sum_i left_i u_i right_i, each u_i supported on its basis.
    Its system is built on first use and kept for every verdict, so a problem
    must not be mutated once ``system`` has been read."""

    shape: Shape
    target: AlgebraElement
    unknowns: list[UnknownCofactor]

    @cached_property
    def system(self) -> ElementSystem:
        """One column left_i * mono * right_i per unknown and basis monomial."""
        return _element_system((col for unk in self.unknowns for col in _columns(unk)),
                               self.target)


def _columns(unk: UnknownCofactor) -> Iterator[AlgebraElement]:
    """left * mono * right for each basis monomial, by the localized product,
    which moves a factor c X[1,n]^d, 1 among them, in closed form."""
    shape = unk.left.shape
    left, right = (unk.left._terms, 0), (unk.right._terms, 0)
    for mono in unk.basis:
        column = _localized_product(shape, ({(mono, 0): 1}, 0), right)
        yield AlgebraElement(shape, _localized_product(shape, left, column)[0])


def solve_membership(problem: MembershipProblem):
    """Exact solve of target = sum_i left_i u_i right_i; returns
    ("solution", {name: element}) with verified explicit cofactors, or
    ("no-solution", None) as a certified verdict.

    For underdetermined systems the witness pins every free column to zero.
    Cofactors with genuinely fractional coefficients cannot be represented as
    elements; the verdict still stands and the witness is omitted.
    """
    status, sol = problem.system.solve(ScalarFraction)
    if status == "none":
        return "no-solution", None
    slots = [(unk.name, mono) for unk in problem.unknowns for mono in unk.basis]
    terms: dict[str, Flat] = {unk.name: {} for unk in problem.unknowns}
    for (name, mono), value in zip(slots, sol):
        scalar = value.as_scalar()
        if scalar is None:
            return "solution", None
        terms[name].update(((mono, e), c) for e, c in scalar._terms.items())
    cofactors = {name: AlgebraElement(problem.shape, t) for name, t in terms.items()}
    reconstructed = AlgebraElement.sum(problem.shape, (
        unk.left * cofactors[unk.name] * unk.right for unk in problem.unknowns))
    if reconstructed != problem.target:
        raise AssertionError("membership witness failed to reproduce the target")
    return "solution", cofactors


def specialized_membership_verdict(problem: MembershipProblem, q0) -> str:
    """Verdict of the same system with q specialized to a nonzero rational."""
    status, _ = problem.system.solve(lambda c: c.evaluate(q0))
    return "no-solution" if status == "none" else "solution"


def subalgebra_component(shape: Shape, d: Bidegree, excluded: Gen) -> list[Codes]:
    """Monomials of the given bidegree avoiding one generator (a subalgebra basis,
    since rewriting never creates a bottom-right corner letter)."""
    return component_basis(shape, d, excluded)


@dataclass
class ColumnSplit:
    """Last-column expansion data c = d*x + e for the determinant."""

    shape: Shape
    c: AlgebraElement
    d: AlgebraElement
    e: AlgebraElement
    x: AlgebraElement
    checks: list[IdentityCheck] = field(default_factory=list)


def jordan_ingredients(n: int) -> ColumnSplit:
    """Split det = A(nn) X[n,n] + e by the fitted last-column expansion.

    The split underpins the domain criterion for the quotient by the
    determinant and the corner generator; the n = 2 case is genuinely
    different (the relevant ideal is only semiprime), so it is rejected.
    """
    if n < 3:
        raise ValueError(
            "the obstruction computation needs n >= 3; at n = 2 the ideal "
            "generated by the determinant and the corner is not completely prime"
        )
    shape = Shape(n, n)
    # beta matches rows 2..n to columns 1..n-1; alpha is empty in the subalgebra
    columns = factorial(n - 1)
    if columns > MAX_MEMBERSHIP_COLUMNS:
        raise ValueError(f"the obstruction system at n={n} has {columns:,} columns, "
                         f"more than the limit of {MAX_MEMBERSHIP_COLUMNS:,}")
    c = qdet(shape)
    d = complement_minor(shape, n, n)
    x = gen(shape, n, n)
    full = tuple(range(1, n + 1))
    # the last-column expansion of det without its final term A(nn) X[n,n]
    terms = expansion_products(shape, laws.col_terms(full, full, n, n)[:-1])
    e = AlgebraElement.sum(shape, terms)
    checks = [check_zero(f"det = A(nn) X[n,n] + e (n={n})", c - (d * x + e))]
    corner = (1, n)
    checks.append(
        check_zero(
            f"det = A(nn) X[n,n] + e after killing X[1,{n}] (n={n})",
            c.kill_generator(corner) - (d.kill_generator(corner) * x + e.kill_generator(corner)),
        )
    )
    ones = Bidegree((1,) * n, (1,) * n)
    for i, term in enumerate(terms, start=1):
        got = term.bidegree_of()
        checks.append(IdentityCheck(f"e term {i} has bidegree (1,..,1;1,..,1)",
                                    got == ones, None if got == ones else str(got)))
    return ColumnSplit(shape, c, d, e, x, checks)


def jordan_membership_problem(n: int) -> MembershipProblem:
    """The system e = A(nn) alpha + beta X[1,n] with alpha, beta confined to the
    corner-free subalgebra components forced by the bidegree restriction."""
    return _membership_problem(jordan_ingredients(n))


def _membership_problem(split: ColumnSplit) -> MembershipProblem:
    """The membership problem of an already built split."""
    shape = split.shape
    n = shape.n
    excluded = (n, n)
    alpha_deg = Bidegree((0,) * (n - 1) + (1,), (0,) * (n - 1) + (1,))
    beta_deg = Bidegree((0,) + (1,) * (n - 1), (1,) * (n - 1) + (0,))
    return MembershipProblem(
        shape,
        split.e,
        [
            UnknownCofactor("alpha", split.d, AlgebraElement.one(shape),
                            subalgebra_component(shape, alpha_deg, excluded)),
            UnknownCofactor("beta", AlgebraElement.one(shape), gen(shape, 1, n),
                            subalgebra_component(shape, beta_deg, excluded)),
        ],
    )


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

@dataclass
class SuiteReport:
    suite: str
    params: dict
    checks: list[IdentityCheck]
    seconds: float = 0.0
    counts: dict[str, int] = field(default_factory=dict)  # reported under timings

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "shape": self.params,
            "checks": [c.as_dict() for c in self.checks],
            "timings": {"total_seconds": round(self.seconds, 6), **self.counts},
            "status": "pass" if self.passed else "fail",
        }

    def summary(self) -> str:
        n_fail = sum(1 for c in self.checks if not c.ok)
        status = "pass" if self.passed else f"FAIL ({n_fail} failing)"
        return (
            f"suite {self.suite} {self.params}: {len(self.checks)} checks, "
            f"{status}, {self.seconds:.2f}s"
        )


def _quantum_relation_checks(shape: Shape, entries: dict[Gen, AlgebraElement | LocalizedElement],
                             label: str) -> list[IdentityCheck]:
    """The four defining relation schemes over any grid of plain or localized
    elements of the shape, keyed by (row, col), each relation one ``combined``
    sum."""
    out: list[IdentityCheck] = []
    minus_q, qinv_minus_q = -Q, QINV - Q  # built once, not per relation
    for (i, j), (k, l) in itertools.combinations(sorted(entries), 2):
        a, b = entries[i, j], entries[k, l]
        # the positions are sorted, so i < k, or i == k and j < l
        if i == k or j == l:
            kind, terms = "row" if i == k else "column", ((1, a, b), (minus_q, b, a))
        elif j > l:
            kind, terms = "antidiagonal", ((1, a, b), (-1, b, a))
        else:
            kind, terms = "diagonal", ((1, a, b), (-1, b, a), (qinv_minus_q, entries[i, l], entries[k, j]))
        out.append(check_zero(f"{label}: {kind} relation ({i},{j})({k},{l})", combined(shape, *terms)))
    return out


def _suite_eq1_relations(shape: Shape) -> list[IdentityCheck]:
    entries = {(i, j): gen(shape, i, j) for i, j in shape.generators()}
    return _quantum_relation_checks(shape, entries, f"X over {shape}")


def _suite_lemma111(shape: Shape) -> list[IdentityCheck]:
    if shape.m < 2 or shape.n < 2:
        return []
    entries, n = x_prime_entries(shape), shape.n
    checks = _quantum_relation_checks(shape, entries, f"X' over {shape}")
    corner, inverse = gen(shape, 1, n), LocalizedElement(AlgebraElement.one(shape), 1)
    for (i, j), xp in sorted(entries.items()):
        checks.append(check_zero(f"X'[{i},{j}] commutes with X[1,{n}]",
                                 combined(shape, (1, xp, corner), (-1, corner, xp))))
    for (i, j), xp in sorted(entries.items()):
        checks.append(check_zero(f"X'[{i},{j}] = -q^-1 [1,{i}|{j},{n}] X[1,{n}]^-1",
                                 combined(shape, (1, xp), (QINV, minor(shape, (1, i), (j, n)), inverse))))
    return checks


def _suite_prop112(shape: Shape) -> list[IdentityCheck]:
    m, n = shape.m, shape.n
    if m < 2 or n < 2:
        return []
    checks: list[IdentityCheck] = []
    xp = x_prime_entries(shape)
    X = {(i, j): gen(shape, i, j) for i, j in shape.generators()}
    for j in range(1, n):
        for i in range(2, m + 1):
            checks.append(check_zero(f"edge relation 1: j={j}, i={i}", combined(
                shape, (1, X[1, j], X[i, n]), (-(Q * Q), X[i, n], X[1, j]),
                (-(Q * (Q * Q - ONE)), xp[i, j], X[1, n]))))
    for j in range(1, n):
        for k in range(2, m + 1):
            for l in range(1, n):
                a, b = X[1, j], xp[k, l]
                if l < j:
                    name, terms = f"2.1<: j={j}, k={k}, l={l}", (
                        (1, a, b), (-1, b, a), (Q_MINUS_QINV, X[1, l], xp[k, j]))
                elif l == j:
                    name, terms = f"2.1=: j={j}, k={k}", ((1, a, b), (-QINV, b, a))
                else:
                    name, terms = f"2.1>: j={j}, k={k}, l={l}", ((1, a, b), (-1, b, a))
                checks.append(check_zero(f"edge relation {name}", combined(shape, *terms)))
    for i in range(2, m + 1):
        for l in range(1, n):
            for k in range(2, m + 1):
                a, b = X[i, n], xp[k, l]
                if k < i:
                    name, terms = f"2.2<: i={i}, k={k}, l={l}", ((1, a, b), (-1, b, a))
                elif k == i:
                    name, terms = f"2.2=: i={i}, l={l}", ((1, a, b), (-Q, b, a))
                else:
                    name, terms = f"2.2>: i={i}, k={k}, l={l}", (
                        (1, a, b), (-1, b, a), (-Q_MINUS_QINV, X[k, n], xp[i, l]))
                checks.append(check_zero(f"edge relation {name}", combined(shape, *terms)))
    for k in range(1, n):
        for l in range(k + 1, n + 1):
            checks.append(check_zero(f"first-row q-commutation: cols {k},{l}",
                                     combined(shape, (1, X[1, k], X[1, l]), (-Q, X[1, l], X[1, k]))))
    for i in range(1, m):
        for j in range(i + 1, m + 1):
            checks.append(check_zero(f"last-column q-commutation: rows {i},{j}",
                                     combined(shape, (1, X[i, n], X[j, n]), (-Q, X[j, n], X[i, n]))))
    return checks


def _suite_appendix(shape: Shape) -> list[IdentityCheck]:
    if (shape.m, shape.n) == (2, 2):
        a, b, c, d = (gen(shape, i, j) for i, j in shape.generators())
        lhs = a * d - (d * a).scale(Q * Q)
        rhs = (a * d - (b * c).scale(Q)).scale(ONE - Q * Q)
        return [check_zero("2x2 identity: ad - q^2 da = (1-q^2)(ad - qbc)", lhs - rhs)]
    if (shape.m, shape.n) == (3, 3):
        checks = []
        X = lambda i, j: gen(shape, i, j)
        M = lambda rows, cols: minor(shape, rows, cols)
        for i in (2, 3):
            m13, m23 = M((1, i), (1, 3)), M((1, i), (2, 3))
            checks.append(check_zero(f"A.2 1.1 (i={i})", X(1, 1) * m13 - m13 * X(1, 1)))
            checks.append(check_zero(f"A.2 1.2 (i={i})", X(1, 1) * m23 - (m23 * X(1, 1)).scale(Q)))
            checks.append(check_zero(
                f"A.2 1.3 (i={i})",
                X(1, 2) * m13 - (m13 * X(1, 2)).scale(Q) - (X(1, 1) * m23).scale(QINV - Q)))
            checks.append(check_zero(f"A.2 1.4 (i={i})", X(1, 2) * m23 - m23 * X(1, 2)))
        for j in (1, 2):
            m3, m2 = M((1, 3), (j, 3)), M((1, 2), (j, 3))
            checks.append(check_zero(f"A.2 2.1 (j={j})", X(3, 3) * m3 - m3 * X(3, 3)))
            checks.append(check_zero(f"A.2 2.2 (j={j})", X(3, 3) * m2 - (m2 * X(3, 3)).scale(QINV)))
            checks.append(check_zero(
                f"A.2 2.3 (j={j})",
                X(2, 3) * m3 - (m3 * X(2, 3)).scale(QINV) - (X(3, 3) * m2).scale(Q_MINUS_QINV)))
            checks.append(check_zero(f"A.2 2.4 (j={j})", X(2, 3) * m2 - m2 * X(2, 3)))
        return checks
    raise ValueError("the golden identity suite is defined on the 2x2 and 3x3 shapes")


def _suite_pbw_count(shape: Shape) -> list[IdentityCheck]:
    checks = []
    for d in range(5):
        got = monomial_count(shape, d)
        want = comb(shape.m * shape.n + d - 1, d)
        checks.append(IdentityCheck(
            f"monomial count degree {d}", got == want,
            None if got == want else f"{got} != {want}"))
    return checks


def _classical_det(n: int) -> dict[Codes, int]:
    """Commutative determinant oracle: the integer cofactor expansion along
    rows 1..n, memoized over the columns left.  A level holds the determinants
    of the last rows on every set of that many columns; rows ascend, so the
    row's letter in front keeps each monomial sorted."""
    level: dict[tuple[int, ...], dict[Codes, int]] = {(): {(): 1}}
    for r in range(n, 0, -1):
        level = {cols: {(letter(r, j),) + mono: -c if b & 1 else c
                        for b, j in enumerate(cols)
                        for mono, c in level[cols[:b] + cols[b + 1:]].items()}
                 for cols in itertools.combinations(range(1, n + 1), n + 1 - r)}
    return level[tuple(range(1, n + 1))]


def _suite_grading(shape: Shape) -> list[IdentityCheck]:
    check_term_count(min(shape.m, shape.n))  # the largest minor, before any is built
    indicator = lambda rows, cols: Bidegree(tuple(int(i in rows) for i in range(1, shape.m + 1)),
                                            tuple(int(j in cols) for j in range(1, shape.n + 1)))
    checks = []
    for p in range(1, min(shape.m, shape.n) + 1):
        # every p-minor's words relabel the leading p-minor's, so its verdict
        # is the size's; only a failing size builds each minor for its witness.
        # Each minor is read once, so none is kept in the minor cache.
        lead = tuple(range(1, p + 1))
        size_ok = built_minor(shape, lead, lead).bidegree_of() == indicator(lead, lead)
        for rows in itertools.combinations(range(1, shape.m + 1), p):
            for cols in itertools.combinations(range(1, shape.n + 1), p):
                got = None if size_ok else built_minor(shape, rows, cols).bidegree_of()
                ok = size_ok or got == indicator(rows, cols)
                checks.append(IdentityCheck(
                    f"[{list(rows)}|{list(cols)}] homogeneous of indicator bidegree",
                    ok, None if ok else str(got)))
    if shape.m == shape.n:
        # engine-computed determinant specializes at q=1 to the commutative one
        got, want = laplace_expand_row(shape, 1, 1).specialize(1), _classical_det(shape.n)
        checks.append(IdentityCheck(
            "determinant at q=1 equals the commutative determinant",
            got == want, None if got == want else f"{len(got)} vs {len(want)} terms"))
    # bidegree additivity on a fixed panel of homogeneous products
    for g1, g2 in [((1, 1), (shape.m, shape.n)), ((1, shape.n), (shape.m, 1))]:
        a, b = gen(shape, *g1), gen(shape, *g2)
        da, db = a.bidegree_of(), b.bidegree_of()
        ok = (a * b).bidegree_of() == Bidegree(tuple(map(sum, zip(da.rowdeg, db.rowdeg))),
                                               tuple(map(sum, zip(da.coldeg, db.coldeg))))
        checks.append(IdentityCheck(f"bidegree additivity on X[{g1}]*X[{g2}]", ok))
    return checks


def _suite_jordan(shape: Shape) -> list[IdentityCheck]:
    if shape.m != shape.n:
        raise ValueError("the obstruction computation needs a square shape")
    n = shape.n
    split = jordan_ingredients(n)
    checks = list(split.checks)

    problem = _membership_problem(split)
    # the bidegree restriction forces the first cofactor onto the excluded
    # corner generator: inside the subalgebra its basis is empty
    full_alpha = component_basis(shape, Bidegree((0,) * (n - 1) + (1,), (0,) * (n - 1) + (1,)))
    corner_mono = (letter(n, n),)
    show = lambda basis: f"[{', '.join(map(render_monomial, basis))}]"
    checks.append(IdentityCheck(
        "alpha component in the full algebra is spanned by X[n,n] alone",
        full_alpha == [corner_mono], None if full_alpha == [corner_mono] else show(full_alpha)))
    checks.append(IdentityCheck(
        "alpha component inside the corner-free subalgebra is empty",
        problem.unknowns[0].basis == [],
        None if not problem.unknowns[0].basis else show(problem.unknowns[0].basis)))

    verdict, _ = solve_membership(problem)
    checks.append(IdentityCheck(
        f"e = A(nn) alpha + beta X[1,{n}] has no solution (n={n})",
        verdict == "no-solution", None if verdict == "no-solution" else verdict))
    for q0 in (2, 3, Fraction(5, 7)):
        sv = specialized_membership_verdict(problem, q0)
        checks.append(IdentityCheck(
            f"verdict stable under q -> {q0}", sv == verdict,
            None if sv == verdict else sv))
    return checks


# Every suite: its function, or the module ("zerotest" or "derived") whose
# ``_suite_<name>`` decides each check by a zero test, run with one ZeroTest.
SUITES = {
    "eq1-relations": _suite_eq1_relations,
    "appendix": _suite_appendix,
    "prop112": _suite_prop112,
    "lemma111": _suite_lemma111,
    "pbw-count": _suite_pbw_count,
    "grading": _suite_grading,
    "jordan-obstruction": _suite_jordan,
    "centrality": "zerotest",
    "semicentrality": "zerotest",
    "laplace": "zerotest",
    "cor22": "derived",
    "thm21": "derived",
    "lemma23": "derived",
    "thm25": "derived",
}

# The suites that take a minor size t.
SIZED_SUITES = ("cor22", "lemma23", "thm25")


def run_suite(name: str, m: int | None = None, n: int | None = None,
              t: int | None = None) -> SuiteReport:
    """Run one named identity suite over the given shape parameters."""
    suite = SUITES.get(name)
    if suite is None:
        raise ValueError(f"unknown suite {name!r}; available: {', '.join(sorted(SUITES))}")
    if n is None and m is None:
        raise ValueError(f"suite {name} needs shape parameters (--m/--n)")
    if n is None:
        n = m
    if m is None:
        m = n
    shape = Shape(m, n)
    if t is not None and name not in SIZED_SUITES:
        raise ValueError(f"suite {name} takes no t; only {', '.join(SIZED_SUITES)} do")
    if t is not None and not (1 <= t <= min(m, n)):
        raise ValueError(f"t={t} out of range for shape {shape}")
    if t == 1:
        # each relates t-minors to derived (t-1)-minors, which need t - 1 >= 1
        raise ValueError(f"suite {name} takes t >= 2, got t=1")
    cached = _mono_times_gen.cache_info().currsize
    start = time.monotonic()
    if isinstance(suite, str):
        # each module loads on first use: a process that runs none of its
        # suites never compiles it
        test = import_module(f"{__package__}.zerotest").ZeroTest(shape)
        run = getattr(import_module(f"{__package__}.{suite}"), f"_suite_{name}")
        checks, counts = (run(shape, test) if t is None else run(shape, test, t)), test.counts()
    else:
        checks, counts = suite(shape), {}
    elapsed = time.monotonic() - start
    counts["straighten_cache_added"] = _mono_times_gen.cache_info().currsize - cached
    return SuiteReport(name, {"m": m, "n": n, **({"t": t} if t else {})}, checks, elapsed, counts)


def associativity_fuzz(shape: Shape, count: int, max_degree: int = 3,
                       seed: int = 0) -> IdentityCheck:
    """Exact (a b) c = a (b c) on random triples; the empirical confluence check."""
    import random

    rng = random.Random(seed)
    for trial in range(count):
        a = random_element(shape, max_degree, rng)
        b = random_element(shape, max_degree, rng)
        c = random_element(shape, max_degree, rng)
        if (a * b) * c != a * (b * c):
            return IdentityCheck(
                f"associativity fuzz ({count} triples)", False,
                f"trial {trial}: a={a}; b={b}; c={c}")
    return IdentityCheck(f"associativity fuzz ({count} triples)", True)
