"""Suite runner, exponent fitting, and the graded membership solver."""

import functools
import hashlib
import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qmv import laws, localize, verify
from qmv.algebra import AlgebraElement, Bidegree, Shape, component_basis, exponent, gen, monomial
from qmv.checks import WITNESS_TERMS, check_zero
from qmv.localize import LocalizedElement
from qmv.minors import qdet
from qmv.scalar import LaurentScalar, ScalarFraction, ONE, Q
from qmv.verify import (
    MAX_MEMBERSHIP_COLUMNS,
    FitError,
    MembershipProblem,
    UnknownCofactor,
    associativity_fuzz,
    fit_exponents,
    jordan_ingredients,
    jordan_membership_problem,
    run_suite,
    solve_linear,
    solve_membership,
    specialized_membership_verdict,
    subalgebra_component,
    verify_frozen_table,
)


def grouped(shape, terms):
    """The element sum c * mono over {monomial: LaurentScalar c}, in the flat
    {(monomial, q exponent): int} form it stores; zero coefficients add nothing."""
    return AlgebraElement(shape, {(mono, e): x for mono, c in terms.items() for e, x in c._terms.items()})


class TestLinearSolver:
    def sf(self, k):
        return ScalarFraction(LaurentScalar.from_int(k))

    def test_unique(self):
        status, sol = solve_linear(
            [{0: self.sf(1), 1: self.sf(1)}, {0: self.sf(1), 1: self.sf(-1)}],
            [self.sf(3), self.sf(1)],
            2, ScalarFraction(0))
        assert status == "unique"
        assert sol[0] == self.sf(2) and sol[1] == self.sf(1)

    def test_inconsistent(self):
        status, _ = solve_linear(
            [{0: self.sf(1)}, {0: self.sf(1)}], [self.sf(1), self.sf(2)],
            1, ScalarFraction(0))
        assert status == "none"

    def test_underdetermined(self):
        status, _ = solve_linear(
            [{0: self.sf(1), 1: self.sf(1)}], [self.sf(1)],
            2, ScalarFraction(0))
        assert status == "many"

    def test_over_rationals(self):
        status, sol = solve_linear(
            [{0: Fraction(2)}, {1: Fraction(3)}],
            [Fraction(1), Fraction(1)], 2, Fraction(0))
        assert status == "unique"
        assert sol == [Fraction(1, 2), Fraction(1, 3)]


def dense_solve(matrix, rhs, zero):
    """Reference solver: dense Gauss-Jordan over full rows, the elimination
    ``solve_linear`` used before its rows became sparse."""
    n_rows = len(matrix)
    n_cols = len(matrix[0]) if n_rows else 0
    aug = [list(row) + [b] for row, b in zip(matrix, rhs)]
    pivots = []
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
    return ("many" if len(pivots) < n_cols else "unique"), sol


# small integers, mostly zero
SPARSE_ENTRY = st.sampled_from([0, 0, 0, 0, 1, -1, 2, -3])


@st.composite
def linear_systems(draw):
    n_rows = draw(st.integers(1, 8))
    n_cols = draw(st.integers(1, 6))
    dense = [[Fraction(draw(SPARSE_ENTRY)) for _ in range(n_cols)] for _ in range(n_rows)]
    if draw(st.booleans()):
        # consistent by construction: the right-hand side of a random point
        x = [Fraction(draw(SPARSE_ENTRY)) for _ in range(n_cols)]
        rhs = [sum((a * b for a, b in zip(row, x)), Fraction(0)) for row in dense]
    else:
        rhs = [Fraction(draw(SPARSE_ENTRY)) for _ in range(n_rows)]
    return dense, rhs


@settings(max_examples=300, deadline=None)
@given(linear_systems())
def test_sparse_solver_matches_dense_reference(system):
    dense, rhs = system
    n_cols = len(dense[0])
    rows = [{c: v for c, v in enumerate(row) if v} for row in dense]
    status, sol = solve_linear(rows, rhs, n_cols, Fraction(0))
    assert (status, sol) == dense_solve(dense, rhs, Fraction(0))
    if status != "none":
        assert [sum((a * x for a, x in zip(row, sol)), Fraction(0)) for row in dense] == rhs


def test_coefficient_vanishing_at_the_specialization_is_no_pivot():
    # X[2,2] X[1,1] = X[1,1] X[2,2] - (q - q^-1) X[1,2] X[2,1]: at q0 = +-1 the
    # target's row keeps only its right-hand side, so there is no solution
    s = Shape(2, 2)
    problem = MembershipProblem(
        s, gen(s, 1, 2) * gen(s, 2, 1),
        [UnknownCofactor("u", gen(s, 2, 2), AlgebraElement.one(s), [monomial((((1, 1), 1),))])])
    assert solve_membership(problem) == ("no-solution", None)
    for q0 in (1, -1, 2):
        assert specialized_membership_verdict(problem, q0) == "no-solution"


def test_row_laplace_fit_matches_adopted_law():
    fit = fit_exponents("row-laplace", n=2)
    assert fit.law == {"i": -1, "j": 1, "1": 0}
    assert fit.matches_frozen
    by_key = {(i["indices"]["i"], i["indices"]["j"]): i["exponent"] for i in fit.instances}
    assert by_key == {(1, 1): 0, (1, 2): 1, (2, 1): -1, (2, 2): 0}


def test_col_laplace_fit_is_unique_at_two():
    fit = fit_exponents("col-laplace", n=2)
    assert fit.residual_zero and fit.matches_frozen
    assert fit.law == {"i": -1, "j": 1, "1": 0}


def test_minor_expansion_fit():
    fit = fit_exponents("lemma23-eq1", m=3, n=3)
    assert fit.matches_frozen
    # first-row expansion of the full 3x3 determinant: exponents 0, -1, -2
    assert {i["indices"]["b"]: i["exponent"] for i in fit.instances[-3:]} == {1: 0, 2: -1, 3: -2}


def test_minor_expansion_fit_restricted_to_one_size():
    # t = 2 keeps only the expansions of 3x3 minors; the law is already pinned
    fit = fit_exponents("lemma23-eq1", m=3, n=3, t=2)
    assert fit.matches_frozen
    assert {i["indices"]["b"] for i in fit.instances} == {1, 2, 3}
    fit = fit_exponents("thm25-2prime", m=3, n=4, t=3)
    assert fit.matches_frozen
    # only size-2 minors: ranks live inside a 3-element enlarged column set
    assert all(i["indices"]["rj"] < i["indices"]["rl"] <= 3 for i in fit.instances)


def test_unknown_family_rejected():
    with pytest.raises(FitError):
        fit_exponents("no-such-family")


def test_frozen_table_reproduced():
    fits = verify_frozen_table()
    assert {f.family for f in fits} == {
        "row-laplace", "col-laplace", "lemma23-eq1", "lemma23-eq2",
        "thm25-2prime", "thm25-4prime"}
    assert all(f.matches_frozen for f in fits)


def test_a_changed_law_leaves_the_frozen_table_as_it_was():
    # each law is converted once, when the table loads; every call returns a copy
    law = laws.law_coefficients("col-laplace")
    assert law == {"i": -1, "j": 1, "1": 0}
    law["i"] += 1
    law["k"] = 5
    assert laws.law_coefficients("col-laplace") == {"i": -1, "j": 1, "1": 0}
    assert laws.exponent("col-laplace", {"i": 3, "j": 1}) == -2
    with pytest.raises(laws.ExponentTableError, match="no frozen law"):
        laws.law_coefficients("no-such-family")


# The suite that checks the identities each fitted family enters.
LAW_SUITES = {
    "row-laplace": "laplace", "col-laplace": "laplace",
    "lemma23-eq1": "lemma23", "lemma23-eq2": "lemma23",
    "thm25-2prime": "thm25", "thm25-4prime": "thm25",
}


@pytest.fixture
def fresh_derived_minors():
    # derived minors memoize row-laplace results, so no wrong law may outlive a case
    for cached in (localize.x_prime, localize._x_prime_minor):
        cached.cache_clear()
    yield
    for cached in (localize.x_prime, localize._x_prime_minor):
        cached.cache_clear()


@pytest.mark.parametrize("family", sorted(LAW_SUITES))
def test_each_frozen_law_is_read_by_the_fitter_and_its_suite(monkeypatch, fresh_derived_minors, family):
    # Add the law's first index to its exponent: not constant over the
    # family's instances, so neither the refit nor the identities can absorb it.
    frozen = laws.law_coefficients

    def perturbed(name):
        law = frozen(name)
        if name == family:
            law[next(iter(law))] += 1
        return law

    monkeypatch.setattr(laws, "law_coefficients", perturbed)
    with pytest.raises(FitError):
        fit_exponents(family)
    report = run_suite(LAW_SUITES[family], **laws.table()["families"][family]["fitted_at"])
    assert not report.passed, family


@pytest.mark.parametrize("n", [3, 4, 5])
def test_membership_system_matches_the_generic_build(n):
    # columns left * mono * right through two kernel products each
    problem = jordan_membership_problem(n)
    generic = verify._element_system(
        (unk.left * grouped(problem.shape, {mono: ONE}) * unk.right
         for unk in problem.unknowns for mono in unk.basis), problem.target)
    system = problem.system
    assert (system.n_cols, system.entries, system.rows, system.rhs) == (
        generic.n_cols, generic.entries, generic.rows, generic.rhs)


class TestMembership:
    def test_trivial_yes(self):
        s = Shape(2, 2)
        x11 = gen(s, 1, 1)
        problem = MembershipProblem(
            s, x11,
            [UnknownCofactor("u", AlgebraElement.one(s), AlgebraElement.one(s),
                             [monomial((((1, 1), 1),))])])
        verdict, cofactors = solve_membership(problem)
        assert verdict == "solution"
        assert cofactors["u"] == x11

    def test_witness_with_a_laurent_polynomial_cofactor(self):
        s = Shape(2, 2)
        x11, one_plus_q = gen(s, 1, 1), ONE + Q
        unknowns = [UnknownCofactor("u", x11.scale(one_plus_q), AlgebraElement.one(s), [monomial(())])]
        problem = MembershipProblem(s, x11.scale(one_plus_q * one_plus_q), unknowns)
        assert solve_membership(problem) == (
            "solution", {"u": AlgebraElement.from_scalar(s, one_plus_q)})
        # the cofactor 1 / (1 + q) is no Laurent polynomial: the witness is omitted
        assert solve_membership(MembershipProblem(s, x11, unknowns)) == ("solution", None)

    def test_obstruction_at_three(self):
        problem = jordan_membership_problem(3)
        verdict, _ = solve_membership(problem)
        assert verdict == "no-solution"

    def test_manifestly_solvable_variant(self):
        # replace the target by something visibly inside the span of beta X[1,n]
        s = Shape(3, 3)
        problem = jordan_membership_problem(3)
        beta_mono = problem.unknowns[1].basis[0]
        target = grouped(s, {beta_mono: ONE}) * gen(s, 1, 3)
        variant = MembershipProblem(s, target, problem.unknowns)
        verdict, cofactors = solve_membership(variant)
        assert verdict == "solution"
        assert cofactors["alpha"].is_zero()
        assert cofactors["beta"] == grouped(s, {beta_mono: ONE})

    def test_verdict_stable_under_specialization(self):
        problem = jordan_membership_problem(3)
        for q0 in (2, 3, Fraction(5, 7)):
            assert specialized_membership_verdict(problem, q0) == "no-solution"

    def test_underdetermined_system_still_yields_a_witness(self):
        # two copies of the same column: solvable with the free column at zero
        s = Shape(2, 2)
        x11 = gen(s, 1, 1)
        mono = monomial((((1, 1), 1),))
        problem = MembershipProblem(
            s, x11,
            [UnknownCofactor("u", AlgebraElement.one(s), AlgebraElement.one(s), [mono]),
             UnknownCofactor("v", AlgebraElement.one(s), AlgebraElement.one(s), [mono])])
        verdict, cofactors = solve_membership(problem)
        assert verdict == "solution"
        assert cofactors["u"] + cofactors["v"] == x11


def reference_solve(problem, convert, zero):
    """The membership system rebuilt from scratch, one column per slot, with
    every entry converted where it is read and rows opened in printing order
    at the first nonzero entry; solved by ``solve_linear``."""
    s = problem.shape
    columns = [unk.left * grouped(s, {mono: ONE}) * unk.right
               for unk in problem.unknowns for mono in unk.basis]
    rows, rhs, row_of = [], [], {}

    def row(mono):
        if mono not in row_of:
            row_of[mono] = len(rows)
            rows.append({})
            rhs.append(zero)
        return row_of[mono]

    for mono, coeff in problem.target.terms():
        rhs[row(mono)] = convert(coeff)
    for c, col in enumerate(columns):
        for mono, coeff in col.terms():
            value = convert(coeff)
            if value:
                rows[row(mono)][c] = value
    return solve_linear(rows, rhs, len(columns), zero)


def reference_membership(problem):
    """The exact verdict and cofactors of ``reference_solve``."""
    status, sol = reference_solve(problem, ScalarFraction, ScalarFraction(0))
    if status == "none":
        return "no-solution", None
    values = [v.as_scalar() for v in sol]
    if any(v is None for v in values):
        return "solution", None
    slots = [(unk.name, mono) for unk in problem.unknowns for mono in unk.basis]
    return "solution", {
        unk.name: grouped(problem.shape, {
            mono: v for (name, mono), v in zip(slots, values) if name == unk.name and v})
        for unk in problem.unknowns}


def reference_verdict(problem, q0):
    status, _ = reference_solve(problem, lambda c: c.evaluate(q0), Fraction(0))
    return "no-solution" if status == "none" else "solution"


def solvable_variant():
    """The problem of ``test_manifestly_solvable_variant``."""
    s = Shape(3, 3)
    problem = jordan_membership_problem(3)
    target = grouped(s, {problem.unknowns[1].basis[0]: ONE}) * gen(s, 1, 3)
    return MembershipProblem(s, target, problem.unknowns)


def laurent_cofactor_problems():
    """The two problems of ``test_witness_with_a_laurent_polynomial_cofactor``."""
    s = Shape(2, 2)
    x11, one_plus_q = gen(s, 1, 1), ONE + Q
    unknowns = [UnknownCofactor("u", x11.scale(one_plus_q), AlgebraElement.one(s), [monomial(())])]
    return [MembershipProblem(s, x11.scale(one_plus_q * one_plus_q), unknowns),
            MembershipProblem(s, x11, unknowns)]


AGREEMENT_PROBLEMS = {
    **{f"jordan-{n}": (lambda n=n: jordan_membership_problem(n)) for n in range(3, 7)},
    "solvable-variant": solvable_variant,
    "laurent-cofactor": lambda: laurent_cofactor_problems()[0],
    "fractional-cofactor": lambda: laurent_cofactor_problems()[1],
}


@pytest.mark.parametrize("name", sorted(AGREEMENT_PROBLEMS))
def test_stored_system_agrees_with_a_rebuilt_one(name):
    problem = AGREEMENT_PROBLEMS[name]()
    assert solve_membership(problem) == reference_membership(problem)
    for q0 in (1, -1, 2, 3, Fraction(5, 7)):
        assert specialized_membership_verdict(problem, q0) == reference_verdict(problem, q0)


SMALL_SCALARS = st.dictionaries(st.integers(-1, 1), st.sampled_from([-2, -1, 1, 2]),
                                min_size=1, max_size=2).map(LaurentScalar)


@st.composite
def membership_problems(draw):
    """A random problem on 2x2 or 3x3: one or two unknowns with short left
    and right factors and a basis of monomials of degree at most one; the
    target is either random or a combination of the columns."""
    s = draw(st.sampled_from([Shape(2, 2), Shape(3, 3)]))
    gens = s.generators()

    def element(max_terms):
        words = draw(st.lists(st.lists(st.sampled_from(gens), max_size=2),
                              min_size=1, max_size=max_terms))
        return AlgebraElement.sum(s, [
            functools.reduce(operator.mul, (gen(s, *g) for g in word),
                             AlgebraElement.one(s)).scale(draw(SMALL_SCALARS))
            for word in words])

    pool = [monomial(())] + [monomial(((g, 1),)) for g in gens]
    unknowns = [
        UnknownCofactor(name, element(2), element(2),
                        draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True)))
        for name in ("u", "v")[:draw(st.integers(1, 2))]]
    if draw(st.booleans()):
        target = AlgebraElement.sum(s, [
            unk.left * grouped(s, {mono: draw(SMALL_SCALARS)}) * unk.right
            for unk in unknowns for mono in unk.basis])
    else:
        target = element(3)
    return MembershipProblem(s, target, unknowns)


@settings(max_examples=60, deadline=None)
@given(membership_problems(),
       st.one_of(st.sampled_from([Fraction(1), Fraction(-1)]),
                 st.fractions(-3, 3, max_denominator=4).filter(bool)))
def test_stored_system_agrees_on_random_problems(problem, q0):
    assert specialized_membership_verdict(problem, q0) == reference_verdict(problem, q0)
    assert solve_membership(problem) == reference_membership(problem)


def test_obstruction_builds_its_columns_once(monkeypatch):
    # the exact verdict and the three specialized ones read one system, and
    # each verdict converts each distinct entry once
    systems, evaluated = [], []
    build, evaluate = verify._element_system, LaurentScalar.evaluate

    def counted_build(columns, target):
        systems.append(build(columns, target))
        return systems[-1]

    def counted_evaluate(self, q0):
        evaluated.append(self)
        return evaluate(self, q0)

    monkeypatch.setattr(verify, "_element_system", counted_build)
    monkeypatch.setattr(LaurentScalar, "evaluate", counted_evaluate)
    assert run_suite("jordan-obstruction", n=4).passed
    assert len(systems) == 1
    assert len(evaluated) <= 3 * len(set(systems[0].entries))


def test_obstruction_column_count_admits_eight_and_refuses_nine():
    for n in range(3, 7):
        problem = jordan_membership_problem(n)
        assert sum(len(unk.basis) for unk in problem.unknowns) == math.factorial(n - 1)
    assert math.factorial(7) <= MAX_MEMBERSHIP_COLUMNS < math.factorial(8)
    with pytest.raises(ValueError, match="40,320 columns"):
        jordan_ingredients(9)


def test_subalgebra_component_excludes_corner():
    s = Shape(3, 3)
    ones = Bidegree((1, 1, 1), (1, 1, 1))
    full = component_basis(s, ones)
    assert len(full) == 6
    restricted = subalgebra_component(s, ones, (3, 3))
    assert len(restricted) == 4
    assert all(exponent(m, (3, 3)) == 0 for m in restricted)


class TestColumnSplit:
    def test_split_holds_at_three(self):
        split = jordan_ingredients(3)
        assert all(c.ok for c in split.checks)
        assert split.c == split.d * split.x + split.e

    def test_e_terms_have_unit_bidegree(self):
        split = jordan_ingredients(3)
        assert split.e.bidegree_of() == Bidegree((1, 1, 1), (1, 1, 1))

    def test_two_rejected(self):
        with pytest.raises(ValueError, match="n >= 3"):
            jordan_ingredients(2)

    def test_suite_builds_the_split_once(self, monkeypatch):
        calls = []

        def counted(n):
            calls.append(n)
            return jordan_ingredients(n)

        monkeypatch.setattr(verify, "jordan_ingredients", counted)
        assert run_suite("jordan-obstruction", n=3).passed
        assert calls == [3]


def test_run_suite_unknown_name():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("nope", n=2)


def test_run_suite_requires_shape():
    with pytest.raises(ValueError, match="shape"):
        run_suite("thm21")


def test_vacuous_suite_on_single_generator():
    report = run_suite("eq1-relations", m=1, n=1)
    assert report.passed and report.checks == []


@pytest.mark.parametrize("name,kwargs", [
    ("appendix", dict(m=3, n=3)),
    ("thm21", dict(n=3)),
    ("eq1-relations", dict(m=2, n=3)),
    ("pbw-count", dict(m=2, n=3)),
    ("grading", dict(m=2, n=2)),
])
def test_suites_pass(name, kwargs):
    report = run_suite(name, **kwargs)
    assert report.passed, report.summary()
    assert report.checks


def test_suite_reports_are_deterministic():
    a = run_suite("appendix", m=3, n=3).as_dict()
    b = run_suite("appendix", m=3, n=3).as_dict()
    a.pop("timings"), b.pop("timings")
    assert a == b


# sha256 of the newline-joined check names, in report order, with the check count.
GOLDEN_CHECK_ORDER = {
    "lemma23": (131, "d630d2138e41dcb3d89ccc1699e4bb909013488642cc3d12c2e4f77190ed337f"),
    "thm25": (114, "db65d1eefc5159f28edab269c6a6f47fb86b5548c6fa923391380eee6ac084a3"),
    "cor22": (38, "f21b7288098985393aa1264735d520a5ecddbb5b34321f5801b9970398be653b"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CHECK_ORDER))
def test_localization_suites_keep_their_check_order(name):
    report = run_suite(name, m=4, n=4)
    names = [c.name for c in report.checks]
    count, digest = GOLDEN_CHECK_ORDER[name]
    assert report.passed, report.summary()
    assert len(names) == count
    assert hashlib.sha256("\n".join(names).encode()).hexdigest() == digest


def test_suite_report_shape_fields():
    report = run_suite("lemma23", m=3, n=3, t=2)
    assert report.passed
    assert report.params == {"m": 3, "n": 3, "t": 2}
    d = report.as_dict()
    assert d["status"] == "pass"
    assert all(c["status"] == "pass" for c in d["checks"])


def test_associativity_fuzz_smoke():
    assert associativity_fuzz(Shape(2, 2), 50, 3, seed=1).ok


def test_check_zero_bounds_a_large_witness():
    s = Shape(5, 5)
    det = qdet(s)
    head = str(grouped(s, dict(det.terms()[:WITNESS_TERMS])))
    check = check_zero("det vanishes", det)
    assert not check.ok
    assert check.witness == f"{head} + ... (120 terms)"
    localized = check_zero("det X[1,5]^-1 vanishes", LocalizedElement(det, 1))
    assert localized.witness.startswith("(X[1,1]*X[2,2]*X[3,3]*X[4,4]*X[5,5] - q*")
    assert localized.witness.endswith(" + ... (120 terms))*inv1n")


def test_check_zero_keeps_a_small_witness_in_full():
    s = Shape(2, 2)
    difference = gen(s, 2, 2) * gen(s, 1, 1) - gen(s, 1, 1) * gen(s, 2, 2)
    assert check_zero("commute", difference).witness == str(difference)
    assert check_zero("commute", LocalizedElement(difference)).witness == str(difference)
