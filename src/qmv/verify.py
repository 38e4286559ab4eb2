"""Identity suites, exponent fitting, and the graded non-membership computation.

Three jobs live here:

* run_suite: execute a named catalog of identity checks over a chosen shape and
  report pass/fail with failure witnesses;
* fit_exponents: solve for the q-power coefficients the identity families leave
  unspecified, by exact linear algebra in the relevant graded component, and
  compare the result against the frozen table shipped with the package.  Each
  family's terms come from its table in the laws module, the same table the
  suites read; the solver takes only their indices and products;
* solve_membership / jordan_ingredients: the column-expansion split of the
  determinant c = d x + e and the certified check that e is not expressible as
  d alpha + beta X[1,n] inside the bidegree-(1,...,1;1,...,1) component.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from .algebra import (
    AlgebraElement,
    Bidegree,
    PbwMonomial,
    Shape,
    commutator,
    component_basis,
    gen,
    monomial_count,
    random_element,
)
from .checks import IdentityCheck, check_zero
from .localize import (
    check_det_reduction,
    check_minor_commutation,
    check_minor_reduction,
    corner_inverse,
    expand_minor_without_corner,
    loc,
    minor_over_derived_generators,
    x_prime_entries,
    x_prime_minor,
)
from .minors import (
    complement_minor,
    laplace_expand_col,
    laplace_expand_row,
    minor,
    qdet,
    term_minor,
)
from .scalar import LaurentScalar, ONE, Q, QINV, Q_MINUS_QINV, ScalarFraction, ZERO
from . import laws

Gen = tuple[int, int]
mq = LaurentScalar.minus_q_power


class FitError(RuntimeError):
    """Exponent fitting failed: no solution (convention mismatch), an ambiguous
    solution (family underdetermined at this size), or divergence from the
    frozen table."""


# ---------------------------------------------------------------------------
# exact linear algebra
# ---------------------------------------------------------------------------

def solve_linear(matrix: list[list], rhs: list, zero) -> tuple[str, list | None]:
    """Exact Gauss-Jordan over any field-like entries (ScalarFraction, Fraction).

    Returns ("unique", solution), ("none", None), or ("many", None).
    """
    n_rows = len(matrix)
    n_cols = len(matrix[0]) if n_rows else 0
    aug = [list(row) + [b] for row, b in zip(matrix, rhs)]
    pivots: list[tuple[int, int]] = []
    r = 0
    for c in range(n_cols):
        pr = next((i for i in range(r, n_rows) if aug[i][c]), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        pivot = aug[r][c]
        for i in range(n_rows):
            if i != r and aug[i][c]:
                factor = aug[i][c] / pivot
                aug[i] = [a - factor * b for a, b in zip(aug[i], aug[r])]
        pivots.append((r, c))
        r += 1
        if r == n_rows:
            break
    for i in range(r, n_rows):
        if aug[i][n_cols]:
            return "none", None
    sol = [zero] * n_cols
    for pr, pc in pivots:
        sol[pc] = aug[pr][n_cols] / aug[pr][pc]
    if len(pivots) < n_cols:
        # consistent but underdetermined; sol is the particular solution with
        # every free variable pinned to zero
        return "many", sol
    return "unique", sol


def _element_system(columns: list[AlgebraElement], target: AlgebraElement, convert):
    """Linear system matching coefficients of every monomial appearing anywhere.

    Rows follow the monomial order; ``convert`` maps each nonzero LaurentScalar
    coefficient to a field entry, and every other cell is one shared zero.
    """
    monomials: set[PbwMonomial] = set(target._terms)
    for col in columns:
        monomials.update(col._terms)
    row_of = {mono: r for r, mono in enumerate(sorted(monomials, key=PbwMonomial.sort_key))}
    zero = convert(ZERO)
    matrix = [[zero] * len(columns) for _ in row_of]
    for c, col in enumerate(columns):
        for mono, coeff in col._terms.items():
            matrix[row_of[mono]][c] = convert(coeff)
    rhs = [zero] * len(row_of)
    for mono, coeff in target._terms.items():
        rhs[row_of[mono]] = convert(coeff)
    return matrix, rhs


def solve_element_combination(
    columns: list[AlgebraElement], target: AlgebraElement
) -> tuple[str, list[ScalarFraction] | None]:
    """Solve sum_i t_i columns[i] = target for scalars t_i in the fraction field."""
    if not columns:
        return ("unique", []) if target.is_zero() else ("none", None)
    matrix, rhs = _element_system(columns, target, ScalarFraction)
    return solve_linear(matrix, rhs, ScalarFraction(0))


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


def _scalars_to_exponents(solution: list[ScalarFraction], family: str) -> list[int]:
    exps = []
    for t in solution:
        value = t.as_scalar()
        e = value.as_minus_q_power() if value is not None else None
        if e is None:
            raise FitError(f"{family}: fitted coefficient {t} is not a power of -q")
        exps.append(e)
    return exps


def _solved_exponents(columns, target, family) -> list[int]:
    status, sol = solve_element_combination(columns, target)
    if status == "none":
        raise FitError(f"{family}: no exponent vector satisfies the identity (convention mismatch)")
    if status == "many":
        raise FitError(f"{family}: underdetermined at this size; enlarge the instance")
    return _scalars_to_exponents(sol, family)


def _fit_systems(family: str, m: int | None, n: int | None, t: int | None):
    """The identities the family enters at one size, as (target, terms,
    product): target = sum over the terms of (-q)^e * product(term), with
    every exponent e unknown.  The terms come from the family's table in the
    laws module; only their indices and products are used here."""
    if family in ("row-laplace", "col-laplace"):
        side = n or 2
        shape = Shape(side, side)
        full = tuple(range(1, side + 1))
        det = qdet(shape)
        for a in full:
            if family == "row-laplace":
                yield det, laws.row_terms(full, full, a, a), lambda term: (
                    gen(shape, *term.gen) * term_minor(shape, term.minor))
            else:
                yield det, laws.col_terms(full, full, a, a), lambda term: (
                    term_minor(shape, term.minor) * gen(shape, *term.gen))

    elif family in ("lemma23-eq1", "lemma23-eq2"):
        shape = Shape(m or 3, n or 3)

        def product(term):
            return minor(shape, *term.minor) * gen(shape, *term.gen)

        for p in ((t + 1,) if t else (2, 3)):
            for rows in itertools.combinations(range(1, shape.m + 1), p):
                for cols in itertools.combinations(range(1, shape.n + 1), p):
                    if family == "lemma23-eq2":
                        yield minor(shape, rows, cols), laws.last_row_terms(rows, cols), product
                    elif rows[0] == 1:
                        yield minor(shape, rows, cols), laws.first_row_terms(rows, cols), product

    else:
        col_family = family == "thm25-2prime"
        shape = Shape(m or 3, n or 4) if col_family else Shape(m or 4, n or 3)
        scalar = Q * Q_MINUS_QINV if col_family else QINV * (QINV - Q)

        def product(term):
            # derived minors have denominator exponent 1 (Cor. 2.2), so every
            # side of the identity is read as a numerator over X[1,n]^-1
            piece = loc(gen(shape, *term.gen).scale(scalar)) * x_prime_minor(shape, *term.minor)
            return piece.numerator_over(1)

        for size in ((t - 1,) if t else (1, 2)):
            for rows in itertools.combinations(range(2, shape.m + 1), size):
                for cols in itertools.combinations(range(1, shape.n), size):
                    if col_family:
                        edges = [((1, l), laws.col_commutation_terms(rows, cols, l))
                                 for l in range(1, shape.n) if l not in cols]
                    else:
                        edges = [((k, shape.n), laws.row_commutation_terms(rows, cols, k, shape.n))
                                 for k in range(2, shape.m + 1) if k not in rows]
                    for g, terms in edges:
                        if terms:
                            x, mp = loc(gen(shape, *g)), x_prime_minor(shape, rows, cols)
                            yield (x * mp - mp * x).numerator_over(1), terms, product


def fit_exponents(family: str, m: int | None = None, n: int | None = None,
                  t: int | None = None) -> ExponentFit:
    """Fit one exponent family at the smallest (or requested) size and compare
    against the frozen law table.

    For the minor-expansion families, t is the size of the minor being
    rewritten (the expanded minor has size t + 1); for the commutation
    families it bounds the derived-minor size at t - 1.  The exponents are
    solved for, never read from the term tables, and only then compared with
    the frozen law.
    """
    if family not in FIT_FAMILIES:
        raise FitError(f"unknown exponent family {family!r}; choose from {FIT_FAMILIES}")
    instances: list[dict] = []
    for target, terms, product in _fit_systems(family, m, n, t):
        exponents = _solved_exponents([product(term) for term in terms], target, family)
        instances.extend({"indices": term.indices, "exponent": e} for term, e in zip(terms, exponents))

    frozen = laws.law_coefficients(family)
    matches = all(
        sum(frozen.get(var, 0) * val for var, val in inst["indices"].items())
        + frozen.get("1", 0) == inst["exponent"]
        for inst in instances
    )
    if not matches:
        raise FitError(f"{family}: recomputed exponents diverge from the frozen table")
    return ExponentFit(family, instances, frozen, residual_zero=True, matches_frozen=True)


def verify_frozen_table() -> list[ExponentFit]:
    """Refit every family at its recorded size and compare against the shipped
    table, instance by instance; raises FitError on any divergence."""
    fits = []
    for family, entry in laws.table()["families"].items():
        fit = fit_exponents(family, **entry.get("fitted_at", {}))
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
    basis: list[PbwMonomial]


@dataclass
class MembershipProblem:
    shape: Shape
    target: AlgebraElement
    unknowns: list[UnknownCofactor]


def _membership_columns(
    problem: MembershipProblem,
) -> tuple[list[AlgebraElement], list[tuple[str, PbwMonomial]]]:
    """One column left_i * mono * right_i per unknown and basis monomial, with its slot."""
    columns: list[AlgebraElement] = []
    slots: list[tuple[str, PbwMonomial]] = []
    for unk in problem.unknowns:
        for mono in unk.basis:
            mono_elem = AlgebraElement(problem.shape, {mono: ONE})
            columns.append(unk.left * mono_elem * unk.right)
            slots.append((unk.name, mono))
    return columns, slots


def solve_membership(problem: MembershipProblem):
    """Exact solve of target = sum_i left_i u_i right_i; returns
    ("solution", {name: element}) with verified explicit cofactors, or
    ("no-solution", None) as a certified verdict.

    For underdetermined systems the witness pins every free column to zero.
    Cofactors with genuinely fractional coefficients cannot be represented as
    elements; the verdict still stands and the witness is omitted.
    """
    columns, slots = _membership_columns(problem)
    status, sol = solve_element_combination(columns, problem.target)
    if status == "none":
        return "no-solution", None
    cofactors: dict[str, AlgebraElement] = {
        unk.name: AlgebraElement.zero(problem.shape) for unk in problem.unknowns
    }
    for (name, mono), value in zip(slots, sol):
        scalar = value.as_scalar()
        if scalar is None:
            return "solution", None
        cofactors[name] = cofactors[name] + AlgebraElement(
            problem.shape, {mono: scalar} if scalar else {})
    reconstructed = AlgebraElement.zero(problem.shape)
    for unk in problem.unknowns:
        reconstructed = reconstructed + unk.left * cofactors[unk.name] * unk.right
    if reconstructed != problem.target:
        raise AssertionError("membership witness failed to reproduce the target")
    return "solution", cofactors


def specialized_membership_verdict(problem: MembershipProblem, q0) -> str:
    """Verdict of the same linear system with q specialized to a nonzero rational."""
    columns, _ = _membership_columns(problem)
    matrix, rhs = _element_system(columns, problem.target, lambda c: c.evaluate(q0))
    status, _ = solve_linear(matrix, rhs, Fraction(0))
    return "no-solution" if status == "none" else "solution"


def subalgebra_component(shape: Shape, d: Bidegree, excluded: Gen) -> list[PbwMonomial]:
    """Monomials of the given bidegree avoiding one generator (a subalgebra basis,
    since rewriting never creates a bottom-right corner letter)."""
    return [mono for mono in component_basis(shape, d) if mono.exponent(excluded) == 0]


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
    c = qdet(shape)
    d = complement_minor(shape, n, n)
    x = gen(shape, n, n)
    full = tuple(range(1, n + 1))
    # the last-column expansion of det without its final term A(nn) X[n,n]
    terms = [
        minor(shape, *t.minor) * gen(shape, *t.gen).scale(mq(t.exponent))
        for t in laws.col_terms(full, full, n, n)[:-1]
    ]
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
        checks.append(
            IdentityCheck(
                f"e term {i} has bidegree (1,..,1;1,..,1)",
                term.bidegree_of() == ones,
                None if term.bidegree_of() == ones else str(term.bidegree_of()),
            )
        )
    return ColumnSplit(shape, c, d, e, x, checks)


def jordan_membership_problem(n: int) -> MembershipProblem:
    """The system e = A(nn) alpha + beta X[1,n] with alpha, beta confined to the
    corner-free subalgebra components forced by the bidegree restriction."""
    split = jordan_ingredients(n)
    shape = split.shape
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

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "shape": self.params,
            "checks": [c.as_dict() for c in self.checks],
            "timings": {"total_seconds": round(self.seconds, 6)},
            "status": "pass" if self.passed else "fail",
        }

    def summary(self) -> str:
        n_fail = sum(1 for c in self.checks if not c.ok)
        status = "pass" if self.passed else f"FAIL ({n_fail} failing)"
        return (
            f"suite {self.suite} {self.params}: {len(self.checks)} checks, "
            f"{status}, {self.seconds:.2f}s"
        )


def _quantum_relation_checks(entries: dict[Gen, object], label: str) -> list[IdentityCheck]:
    """The four defining relation schemes over any grid of elements.

    entries maps (row, col) positions to elements supporting *, - and scale.
    """
    out: list[IdentityCheck] = []
    positions = sorted(entries)
    for (i, j), (k, l) in itertools.combinations(positions, 2):
        a, b = entries[(i, j)], entries[(k, l)]
        if i == k and j < l:
            out.append(check_zero(f"{label}: row relation ({i},{j})({k},{l})",
                                  a * b - (b * a).scale(Q)))
        elif j == l and i < k:
            out.append(check_zero(f"{label}: column relation ({i},{j})({k},{l})",
                                  a * b - (b * a).scale(Q)))
        elif i < k and j > l:
            out.append(check_zero(f"{label}: antidiagonal relation ({i},{j})({k},{l})",
                                  a * b - b * a))
        elif i < k and j < l:
            c = entries[(i, l)] * entries[(k, j)]
            out.append(check_zero(f"{label}: diagonal relation ({i},{j})({k},{l})",
                                  a * b - b * a - c.scale(Q_MINUS_QINV)))
    return out


def _suite_eq1_relations(shape: Shape, t=None) -> list[IdentityCheck]:
    entries = {(i, j): gen(shape, i, j) for i, j in shape.generators()}
    return _quantum_relation_checks(entries, f"X over {shape}")


def _suite_lemma111(shape: Shape, t=None) -> list[IdentityCheck]:
    if shape.m < 2 or shape.n < 2:
        return []
    entries = x_prime_entries(shape)
    checks = _quantum_relation_checks(entries, f"X' over {shape}")
    corner = loc(gen(shape, 1, shape.n))
    for (i, j), xp in sorted(entries.items()):
        checks.append(check_zero(f"X'[{i},{j}] commutes with X[1,{shape.n}]",
                                 xp * corner - corner * xp))
    n = shape.n
    for (i, j), xp in sorted(entries.items()):
        via_minor = loc(minor(shape, (1, i), (j, n)).scale(-QINV)) * corner_inverse(shape)
        checks.append(check_zero(f"X'[{i},{j}] = -q^-1 [1,{i}|{j},{n}] X[1,{n}]^-1",
                                 xp - via_minor))
    return checks


def _suite_prop112(shape: Shape, t=None) -> list[IdentityCheck]:
    m, n = shape.m, shape.n
    if m < 2 or n < 2:
        return []
    checks: list[IdentityCheck] = []
    xp = x_prime_entries(shape)
    X = lambda i, j: loc(gen(shape, i, j))
    for j in range(1, n):
        for i in range(2, m + 1):
            lhs = X(1, j) * X(i, n) - (X(i, n) * X(1, j)).scale(Q * Q)
            rhs = (xp[(i, j)] * X(1, n)).scale(Q * (Q * Q - ONE))
            checks.append(check_zero(f"edge relation 1: j={j}, i={i}", lhs - rhs))
    for j in range(1, n):
        for k in range(2, m + 1):
            for l in range(1, n):
                a, b = X(1, j), xp[(k, l)]
                if l < j:
                    rhs = (X(1, l) * xp[(k, j)]).scale(QINV - Q)
                    checks.append(check_zero(f"edge relation 2.1<: j={j}, k={k}, l={l}",
                                             a * b - b * a - rhs))
                elif l == j:
                    checks.append(check_zero(f"edge relation 2.1=: j={j}, k={k}",
                                             a * b - (b * a).scale(QINV)))
                else:
                    checks.append(check_zero(f"edge relation 2.1>: j={j}, k={k}, l={l}",
                                             a * b - b * a))
    for i in range(2, m + 1):
        for l in range(1, n):
            for k in range(2, m + 1):
                a, b = X(i, n), xp[(k, l)]
                if k < i:
                    checks.append(check_zero(f"edge relation 2.2<: i={i}, k={k}, l={l}",
                                             a * b - b * a))
                elif k == i:
                    checks.append(check_zero(f"edge relation 2.2=: i={i}, l={l}",
                                             a * b - (b * a).scale(Q)))
                else:
                    rhs = (X(k, n) * xp[(i, l)]).scale(Q_MINUS_QINV)
                    checks.append(check_zero(f"edge relation 2.2>: i={i}, k={k}, l={l}",
                                             a * b - b * a - rhs))
    for k in range(1, n):
        for l in range(k + 1, n + 1):
            checks.append(check_zero(f"first-row q-commutation: cols {k},{l}",
                                     X(1, k) * X(1, l) - (X(1, l) * X(1, k)).scale(Q)))
    for i in range(1, m):
        for j in range(i + 1, m + 1):
            checks.append(check_zero(f"last-column q-commutation: rows {i},{j}",
                                     X(i, n) * X(j, n) - (X(j, n) * X(i, n)).scale(Q)))
    return checks


def _suite_appendix(shape: Shape, t=None) -> list[IdentityCheck]:
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


def _suite_thm21(shape: Shape, t=None) -> list[IdentityCheck]:
    if shape.m != shape.n:
        raise ValueError("determinant reduction needs a square shape")
    return check_det_reduction(shape.n)


def _suite_cor22(shape: Shape, t=None) -> list[IdentityCheck]:
    checks = []
    for p in range(2, min(shape.m, shape.n) + 1):
        for rows in itertools.combinations(range(2, shape.m + 1), p - 1):
            for cols in itertools.combinations(range(1, shape.n), p - 1):
                checks.extend(check_minor_reduction(shape, (1,) + rows, cols + (shape.n,)))
    return checks


def _suite_lemma23(shape: Shape, t=None) -> list[IdentityCheck]:
    sizes = [t] if t else list(range(2, min(shape.m, shape.n) + 1))
    checks = []
    for p in sizes:
        for rows in itertools.combinations(range(1, shape.m + 1), p):
            for cols in itertools.combinations(range(1, shape.n + 1), p):
                if rows[0] == 1 and cols[-1] == shape.n:
                    continue
                checks.extend(expand_minor_without_corner(shape, rows, cols).checks)
        for rows in itertools.combinations(range(1, shape.m + 1), p):
            for cols in itertools.combinations(range(1, shape.n + 1), p):
                _, check = minor_over_derived_generators(shape, rows, cols)
                checks.append(check)
    return checks


def _suite_thm25(shape: Shape, t=None) -> list[IdentityCheck]:
    sizes = [t - 1] if t else list(range(1, min(shape.m, shape.n)))
    checks = []
    for size in sizes:
        if size < 1 or size > min(shape.m - 1, shape.n - 1):
            continue
        for rows in itertools.combinations(range(2, shape.m + 1), size):
            for cols in itertools.combinations(range(1, shape.n), size):
                for l in range(1, shape.n):
                    checks.append(check_minor_commutation(shape, rows, cols, (1, l)))
                for k in range(2, shape.m + 1):
                    checks.append(check_minor_commutation(shape, rows, cols, (k, shape.n)))
    return checks


def _suite_centrality(shape: Shape, t=None) -> list[IdentityCheck]:
    if shape.m != shape.n:
        raise ValueError("centrality of the determinant needs a square shape")
    det = qdet(shape)
    return [
        check_zero(f"det central vs X[{i},{j}]", commutator(det, gen(shape, i, j)))
        for i, j in shape.generators()
    ]


def _suite_semicentrality(shape: Shape, t=None) -> list[IdentityCheck]:
    checks = []
    for p in range(1, min(shape.m, shape.n) + 1):
        for rows in itertools.combinations(range(1, shape.m + 1), p):
            for cols in itertools.combinations(range(1, shape.n + 1), p):
                mn = minor(shape, rows, cols)
                for i in rows:
                    for j in cols:
                        checks.append(check_zero(
                            f"[{list(rows)}|{list(cols)}] vs X[{i},{j}]",
                            mn * gen(shape, i, j) - gen(shape, i, j) * mn))
    return checks


def _suite_laplace(shape: Shape, t=None) -> list[IdentityCheck]:
    if shape.m != shape.n:
        raise ValueError("Laplace expansions need a square shape")
    n = shape.n
    det = qdet(shape)
    zero = AlgebraElement.zero(shape)
    checks = []
    for i in range(1, n + 1):
        for k in range(1, n + 1):
            want = det if i == k else zero
            checks.append(check_zero(f"row expansion i={i}, coefficients from row {k}",
                                     laplace_expand_row(shape, i, k) - want))
    for j in range(1, n + 1):
        for l in range(1, n + 1):
            want = det if j == l else zero
            checks.append(check_zero(f"column expansion j={j}, coefficients from column {l}",
                                     laplace_expand_col(shape, j, l) - want))
    return checks


def _suite_pbw_count(shape: Shape, t=None) -> list[IdentityCheck]:
    checks = []
    for d in range(5):
        got = monomial_count(shape, d)
        want = comb(shape.m * shape.n + d - 1, d)
        checks.append(IdentityCheck(
            f"monomial count degree {d}", got == want,
            None if got == want else f"{got} != {want}"))
    return checks


def _classical_det(n: int) -> dict[PbwMonomial, Fraction]:
    """Commutative determinant oracle by cofactor expansion over exponent dicts."""

    def expand(rows: tuple[int, ...], cols: tuple[int, ...]) -> dict[tuple, Fraction]:
        if len(rows) == 1:
            return {((rows[0], cols[0]),): Fraction(1)}
        out: dict[tuple, Fraction] = {}
        for b, j in enumerate(cols):
            sub = expand(rows[1:], tuple(c for c in cols if c != j))
            sign = Fraction(-1) ** b
            for mono, coeff in sub.items():
                key = tuple(sorted(mono + ((rows[0], j),)))
                out[key] = out.get(key, Fraction(0)) + sign * coeff
        return {k: v for k, v in out.items() if v}

    idx = tuple(range(1, n + 1))
    return {
        PbwMonomial(tuple((g, 1) for g in mono)): coeff
        for mono, coeff in expand(idx, idx).items()
    }


def _suite_grading(shape: Shape, t=None) -> list[IdentityCheck]:
    checks = []
    for p in range(1, min(shape.m, shape.n) + 1):
        for rows in itertools.combinations(range(1, shape.m + 1), p):
            for cols in itertools.combinations(range(1, shape.n + 1), p):
                mn = minor(shape, rows, cols)
                want = Bidegree(
                    tuple(1 if i in rows else 0 for i in range(1, shape.m + 1)),
                    tuple(1 if j in cols else 0 for j in range(1, shape.n + 1)))
                got = mn.bidegree_of()
                checks.append(IdentityCheck(
                    f"[{list(rows)}|{list(cols)}] homogeneous of indicator bidegree",
                    got == want, None if got == want else str(got)))
    if shape.m == shape.n:
        # engine-computed determinant specializes at q=1 to the commutative one
        det_via_engine = laplace_expand_row(shape, 1, 1)
        got = det_via_engine.specialize(1)
        want = _classical_det(shape.n)
        checks.append(IdentityCheck(
            "determinant at q=1 equals the commutative determinant",
            got == want, None if got == want else f"{len(got)} vs {len(want)} terms"))
    # bidegree additivity on a fixed panel of homogeneous products
    fixed = [((1, 1), (shape.m, shape.n)), ((1, shape.n), (shape.m, 1))]
    for g1, g2 in fixed:
        a, b = gen(shape, *g1), gen(shape, *g2)
        prod = a * b
        da, db, dp = a.bidegree_of(), b.bidegree_of(), prod.bidegree_of()
        ok = dp is not None and dp.rowdeg == tuple(
            x + y for x, y in zip(da.rowdeg, db.rowdeg)
        ) and dp.coldeg == tuple(x + y for x, y in zip(da.coldeg, db.coldeg))
        checks.append(IdentityCheck(f"bidegree additivity on X[{g1}]*X[{g2}]", ok))
    return checks


def _suite_jordan(shape: Shape, t=None) -> list[IdentityCheck]:
    if shape.m != shape.n:
        raise ValueError("the obstruction computation needs a square shape")
    n = shape.n
    split = jordan_ingredients(n)
    checks = list(split.checks)

    problem = jordan_membership_problem(n)
    # the bidegree restriction forces the first cofactor onto the excluded
    # corner generator: inside the subalgebra its basis is empty
    full_alpha = component_basis(shape, Bidegree((0,) * (n - 1) + (1,), (0,) * (n - 1) + (1,)))
    corner_mono = PbwMonomial((((n, n), 1),))
    checks.append(IdentityCheck(
        "alpha component in the full algebra is spanned by X[n,n] alone",
        full_alpha == [corner_mono], None if full_alpha == [corner_mono] else str(full_alpha)))
    checks.append(IdentityCheck(
        "alpha component inside the corner-free subalgebra is empty",
        problem.unknowns[0].basis == [],
        None if not problem.unknowns[0].basis else str(problem.unknowns[0].basis)))

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


SUITES = {
    "eq1-relations": _suite_eq1_relations,
    "appendix": _suite_appendix,
    "prop112": _suite_prop112,
    "lemma111": _suite_lemma111,
    "thm21": _suite_thm21,
    "cor22": _suite_cor22,
    "lemma23": _suite_lemma23,
    "thm25": _suite_thm25,
    "centrality": _suite_centrality,
    "semicentrality": _suite_semicentrality,
    "laplace": _suite_laplace,
    "pbw-count": _suite_pbw_count,
    "grading": _suite_grading,
    "jordan-obstruction": _suite_jordan,
}


def run_suite(name: str, m: int | None = None, n: int | None = None,
              t: int | None = None) -> SuiteReport:
    """Run one named identity suite over the given shape parameters."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; available: {', '.join(sorted(SUITES))}")
    if n is None and m is None:
        raise ValueError(f"suite {name} needs shape parameters (--m/--n)")
    if n is None:
        n = m
    if m is None:
        m = n
    shape = Shape(m, n)
    if t is not None and not (1 <= t <= min(m, n)):
        raise ValueError(f"t={t} out of range for shape {shape}")
    start = time.monotonic()
    checks = SUITES[name](shape, t)
    elapsed = time.monotonic() - start
    return SuiteReport(name, {"m": m, "n": n, **({"t": t} if t else {})}, checks, elapsed)


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
