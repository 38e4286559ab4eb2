"""Suite runner, exponent fitting, and the graded membership solver."""

import hashlib
from fractions import Fraction

import pytest

from qmv import laws, localize
from qmv.algebra import AlgebraElement, Bidegree, PbwMonomial, Shape, component_basis, gen
from qmv.checks import WITNESS_TERMS, check_zero
from qmv.localize import corner_inverse, loc
from qmv.minors import qdet
from qmv.scalar import LaurentScalar, ScalarFraction, ONE
from qmv.verify import (
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


class TestLinearSolver:
    def sf(self, k):
        return ScalarFraction(LaurentScalar.from_int(k))

    def test_unique(self):
        status, sol = solve_linear(
            [[self.sf(1), self.sf(1)], [self.sf(1), self.sf(-1)]],
            [self.sf(3), self.sf(1)],
            ScalarFraction(0))
        assert status == "unique"
        assert sol[0] == self.sf(2) and sol[1] == self.sf(1)

    def test_inconsistent(self):
        status, _ = solve_linear(
            [[self.sf(1)], [self.sf(1)]], [self.sf(1), self.sf(2)],
            ScalarFraction(0))
        assert status == "none"

    def test_underdetermined(self):
        status, _ = solve_linear(
            [[self.sf(1), self.sf(1)]], [self.sf(1)],
            ScalarFraction(0))
        assert status == "many"

    def test_over_rationals(self):
        status, sol = solve_linear(
            [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(3)]],
            [Fraction(1), Fraction(1)], Fraction(0))
        assert status == "unique"
        assert sol == [Fraction(1, 2), Fraction(1, 3)]


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


class TestMembership:
    def test_trivial_yes(self):
        s = Shape(2, 2)
        x11 = gen(s, 1, 1)
        problem = MembershipProblem(
            s, x11,
            [UnknownCofactor("u", AlgebraElement.one(s), AlgebraElement.one(s),
                             [PbwMonomial((((1, 1), 1),))])])
        verdict, cofactors = solve_membership(problem)
        assert verdict == "solution"
        assert cofactors["u"] == x11

    def test_obstruction_at_three(self):
        problem = jordan_membership_problem(3)
        verdict, _ = solve_membership(problem)
        assert verdict == "no-solution"

    def test_manifestly_solvable_variant(self):
        # replace the target by something visibly inside the span of beta X[1,n]
        s = Shape(3, 3)
        problem = jordan_membership_problem(3)
        beta_mono = problem.unknowns[1].basis[0]
        target = AlgebraElement(s, {beta_mono: ONE}) * gen(s, 1, 3)
        variant = MembershipProblem(s, target, problem.unknowns)
        verdict, cofactors = solve_membership(variant)
        assert verdict == "solution"
        assert cofactors["alpha"].is_zero()
        assert cofactors["beta"] == AlgebraElement(s, {beta_mono: ONE})

    def test_verdict_stable_under_specialization(self):
        problem = jordan_membership_problem(3)
        for q0 in (2, 3, Fraction(5, 7)):
            assert specialized_membership_verdict(problem, q0) == "no-solution"

    def test_underdetermined_system_still_yields_a_witness(self):
        # two copies of the same column: solvable with the free column at zero
        s = Shape(2, 2)
        x11 = gen(s, 1, 1)
        mono = PbwMonomial((((1, 1), 1),))
        problem = MembershipProblem(
            s, x11,
            [UnknownCofactor("u", AlgebraElement.one(s), AlgebraElement.one(s), [mono]),
             UnknownCofactor("v", AlgebraElement.one(s), AlgebraElement.one(s), [mono])])
        verdict, cofactors = solve_membership(problem)
        assert verdict == "solution"
        assert cofactors["u"] + cofactors["v"] == x11


def test_subalgebra_component_excludes_corner():
    s = Shape(3, 3)
    ones = Bidegree((1, 1, 1), (1, 1, 1))
    full = component_basis(s, ones)
    assert len(full) == 6
    restricted = subalgebra_component(s, ones, (3, 3))
    assert len(restricted) == 4
    assert all(m.exponent((3, 3)) == 0 for m in restricted)


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
    head = str(AlgebraElement(s, dict(det.terms()[:WITNESS_TERMS])))
    check = check_zero("det vanishes", det)
    assert not check.ok
    assert check.witness == f"{head} + ... (120 terms)"
    localized = check_zero("det X[1,5]^-1 vanishes", loc(det) * corner_inverse(s))
    assert localized.witness.startswith("(X[1,1]*X[2,2]*X[3,3]*X[4,4]*X[5,5] - q*")
    assert localized.witness.endswith(" + ... (120 terms))*inv1n")


def test_check_zero_keeps_a_small_witness_in_full():
    s = Shape(2, 2)
    difference = gen(s, 2, 2) * gen(s, 1, 1) - gen(s, 1, 1) * gen(s, 2, 2)
    assert check_zero("commute", difference).witness == str(difference)
    assert check_zero("commute", loc(difference)).witness == str(difference)
