"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every identity is required to hold exactly (canonical difference identically
zero); the stated wall-clock budgets are asserted as upper bounds.
"""

import itertools
import time
from fractions import Fraction
from math import comb

from qmv.algebra import Shape, monomial, monomial_count, random_element
from qmv.minors import inversions, laplace_expand_row
from qmv.verify import _classical_det, fit_exponents, run_suite, verify_frozen_table

XPRIME_SHAPES = [(2, 2), (2, 3), (3, 3), (3, 4), (4, 4)]
ALL_DESK_SHAPES = [(m, n) for m in range(1, 5) for n in range(1, 5)]


def _report(num, label, elapsed, budget=None):
    extra = f" ({elapsed:.2f}s" + (f" < {budget}s budget)" if budget else ")")
    print(f"ACCEPTANCE {num}: {label} PASS{extra}")
    if budget is not None:
        assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"


def _run_all(name, shapes, t=None):
    reports = [run_suite(name, m=m, n=n, t=t) for m, n in shapes]
    for report in reports:
        failing = [c for c in report.checks if not c.ok]
        assert not failing, f"{report.summary()}: " + "; ".join(
            f"{c.name} -> {c.witness}" for c in failing[:3])
    return sum(r.seconds for r in reports), sum(len(r.checks) for r in reports)


def test_criterion_01_derived_matrix_closure():
    start = time.monotonic()
    _, count = _run_all("lemma111", XPRIME_SHAPES)
    elapsed = time.monotonic() - start
    _report(1, f"all four relation schemes hold on the derived matrix ({count} checks)",
            elapsed, budget=60)


def test_criterion_02_edge_relation_suite():
    start = time.monotonic()
    _, count = _run_all("prop112", XPRIME_SHAPES)
    elapsed = time.monotonic() - start
    _report(2, f"edge-generator relation suite exact ({count} checks)", elapsed)


def test_criterion_03_determinant_reduction():
    for n in (2, 3):
        _run_all("thm21", [(n, n)])
    start = time.monotonic()
    _run_all("thm21", [(4, 4)])
    elapsed = time.monotonic() - start
    _report(3, "detX' X[1,n] = (-q)^(1-n) detX for n = 2, 3, 4", elapsed, budget=300)


def test_criterion_04_minor_reduction_corollary():
    shapes = [(m, n) for m, n in ALL_DESK_SHAPES if min(m, n) >= 2]
    start = time.monotonic()
    _, count = _run_all("cor22", shapes)
    elapsed = time.monotonic() - start
    _report(4, f"minor reduction for all admissible index pairs, p <= 4 ({count} checks)",
            elapsed)


def test_criterion_05_golden_identities():
    start = time.monotonic()
    _, count = _run_all("appendix", [(2, 2), (3, 3)])
    elapsed = time.monotonic() - start
    _report(5, f"2x2 identity and all eight 3x3 golden relations exact ({count} checks)",
            elapsed)


def test_criterion_06_centrality_and_semicentrality():
    start = time.monotonic()
    _run_all("centrality", [(n, n) for n in (2, 3, 4)])
    _, count = _run_all("semicentrality", ALL_DESK_SHAPES)
    elapsed = time.monotonic() - start
    _report(6, f"determinant central, minors semi-central ({count} checks)", elapsed)


def test_criterion_07_laplace_identities():
    start = time.monotonic()
    _run_all("laplace", [(n, n) for n in (2, 3, 4)])
    # fitted exponent tables reproduce the hand-checkable special cases:
    # (-q)^(j-1) along the first row and (-q)^(j-2) for the row-1-vs-row-2 relation
    fit = fit_exponents("row-laplace", n=2)
    law = fit.law
    exponent = lambda i, j: law.get("i", 0) * i + law.get("j", 0) * j + law.get("1", 0)
    assert [exponent(1, j) for j in (1, 2, 3, 4)] == [0, 1, 2, 3]
    assert [exponent(2, j) for j in (1, 2, 3, 4)] == [-1, 0, 1, 2]
    assert fit_exponents("col-laplace", n=2).matches_frozen
    elapsed = time.monotonic() - start
    _report(7, "row and fitted column expansions give delta * det, special cases verbatim",
            elapsed)


def test_criterion_08_minor_expansion_identities():
    start = time.monotonic()
    total = 0
    for t in (2, 3):
        shapes = [(m, n) for m, n in ALL_DESK_SHAPES if min(m, n) >= t]
        _, count = _run_all("lemma23", shapes, t=t)
        total += count
    assert all(f.matches_frozen for f in verify_frozen_table())
    elapsed = time.monotonic() - start
    _report(8, f"corner-avoiding minor expansions, t = 2, 3, zero residuals ({total} checks)",
            elapsed)


def test_criterion_09_commutation_relations():
    start = time.monotonic()
    total = 0
    for t in (2, 3):
        _, count = _run_all("thm25", [(3, 3), (3, 4)], t=t)
        total += count
    elapsed = time.monotonic() - start
    _report(9, f"derived-minor commutation relations, t <= 3 ({total} checks)", elapsed)


def test_criterion_10_graded_obstruction():
    start = time.monotonic()
    _, count = _run_all("jordan-obstruction", [(3, 3)])
    elapsed = time.monotonic() - start
    _report(10, f"no solution for e = A(nn) alpha + beta X[1,n] at n = 3 ({count} checks)",
            elapsed, budget=30)


def _permutation_sum_classical_det(n):
    """Independent oracle: commutative determinant as a signed permutation sum."""
    out = {}
    for perm in itertools.permutations(range(1, n + 1)):
        mono = monomial(((i, perm[i - 1]), 1) for i in range(1, n + 1))
        out[mono] = Fraction(-1) ** inversions(perm)
    return out


def test_the_grading_oracle_is_the_permutation_sum():
    # grading's q -> 1 oracle, a cofactor expansion memoized over column sets
    for n in range(1, 7):
        assert _classical_det(n) == _permutation_sum_classical_det(n)


def test_criterion_11_engine_health():
    import random

    start = time.monotonic()
    shape = Shape(3, 3)
    rng = random.Random(2024)
    for _ in range(1000):
        a, b, c = (random_element(shape, 3, rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)

    for m in range(1, 10):
        for n in range(1, 10):
            if m * n > 9:
                continue
            for d in range(5):
                assert monomial_count(Shape(m, n), d) == comb(m * n + d - 1, d)

    for n in (2, 3, 4):
        s = Shape(n, n)
        via_engine = laplace_expand_row(s, 1, 1).specialize(1)
        assert via_engine == _permutation_sum_classical_det(n)
    elapsed = time.monotonic() - start
    _report(11, "associativity fuzz (1000 triples), monomial counts, q -> 1 determinant",
            elapsed)
