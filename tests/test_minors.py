"""Quantum determinants, minors, Laplace expansions, and the grid projection."""

import itertools
from math import comb

import pytest

from qmv.algebra import AlgebraElement, Bidegree, Shape, _mono_times_gen, commutator, gen, gen_id, letter
from qmv import minors
from qmv.minors import (
    MinorSpec,
    check_term_count,
    complement_minor,
    expansion_products,
    flat,
    inversions,
    laplace_expand_col,
    laplace_expand_row,
    minor,
    project_pi,
    qdet,
)
from qmv import laws
from qmv.checks import IdentityCheck
from qmv.localize import x_prime_minor
from qmv.scalar import LaurentScalar, Q, QINV
from qmv.verify import run_suite
from qmv.zerotest import ZeroTest


def test_inversion_count():
    assert inversions((0, 1, 2)) == 0
    assert inversions((1, 0, 2)) == 1
    assert inversions((2, 1, 0)) == 3


def test_minors_match_the_inversion_count_permutation_sum():
    # every minor up to 6x6, terms and their order included; the term
    # (-q)^inv(p) word is the flat key (word, inv(p)) with coefficient (-1)^inv(p)
    s = Shape(6, 6)
    for t in range(1, 7):
        for rows in itertools.combinations(range(1, 7), t):
            for cols in itertools.combinations(range(1, 7), t):
                want = [((tuple(letter(rows[a], cols[p[a]]) for a in range(t)), inversions(p)),
                         (-1) ** inversions(p))
                        for p in itertools.permutations(range(t))]
                assert list(minor(s, rows, cols)._terms.items()) == want, (rows, cols)


def test_cached_minors_are_not_changed_by_callers():
    s = Shape(4, 4)
    first = minor(s, (1, 3), [2, 4])
    text = str(first)
    _ = -first
    _ = first.scale(Q)
    _ = first * gen(s, 1, 1) + first
    again = minor(s, [1, 3], (2, 4))
    assert str(again) == text
    det = qdet(s)
    text = str(det)
    _ = det.scale(-1)
    assert str(qdet(s)) == text
    assert qdet(s) == laplace_expand_row(s, 2, 2)


def test_qdet_smallest_sizes():
    s1 = Shape(1, 1)
    assert qdet(s1) == gen(s1, 1, 1)
    s2 = Shape(2, 2)
    assert qdet(s2) == gen(s2, 1, 1) * gen(s2, 2, 2) - (gen(s2, 1, 2) * gen(s2, 2, 1)).scale(Q)
    with pytest.raises(ValueError):
        qdet(Shape(2, 3))


def test_qdet_cross_checked_against_row_expansion():
    # the permutation sum and the recursive expansion must agree at n = 3
    s = Shape(3, 3)
    assert qdet(s) == laplace_expand_row(s, 1, 1)
    assert len(qdet(s).terms()) == 6


def test_minor_spec_validation():
    with pytest.raises(ValueError):
        MinorSpec((2, 1), (1, 2))
    with pytest.raises(ValueError):
        MinorSpec((1, 2), (1,))
    with pytest.raises(ValueError):
        minor(Shape(2, 2), (1, 3), (1, 2))


def test_minor_examples():
    s = Shape(2, 2)
    assert minor(s, (1,), (1,)) == gen(s, 1, 1)
    assert minor(s, (1, 2), (1, 2)) == qdet(s)
    # rows {1,i}, columns {j,n}
    s3 = Shape(3, 3)
    for i in (2, 3):
        for j in (1, 2):
            want = gen(s3, 1, j) * gen(s3, i, 3) - (gen(s3, 1, 3) * gen(s3, i, j)).scale(Q)
            assert minor(s3, (1, i), (j, 3)) == want


def test_complement_minor_examples():
    s2 = Shape(2, 2)
    assert complement_minor(s2, 2, 2) == gen(s2, 1, 1)
    assert complement_minor(s2, 2, 1) == gen(s2, 1, 2)
    for n in (2, 3, 4):
        s = Shape(n, n)
        leading = minor(s, range(1, n), range(1, n)) if n > 1 else AlgebraElement.one(s)
        assert complement_minor(s, n, n) == leading


def test_row_expansion_exponent_special_cases():
    # expansion along the first row carries (-q)^(j-1); the alien relation
    # mixing rows 1 and 2 carries (-q)^(j-2)
    assert [laws.exponent("row-laplace", {"i": 1, "j": j}) for j in (1, 2, 3)] == [0, 1, 2]
    assert [laws.exponent("row-laplace", {"i": 2, "j": j}) for j in (1, 2, 3)] == [-1, 0, 1]


@pytest.mark.parametrize("n", [2, 3])
def test_row_expansion_contract(n):
    s = Shape(n, n)
    det = qdet(s)
    for i in range(1, n + 1):
        for k in range(1, n + 1):
            got = laplace_expand_row(s, i, k)
            assert got == (det if i == k else AlgebraElement.zero(s)), (i, k)


def test_alien_row_vanishes_at_three():
    # sum_j (-q)^(j-2) X[1,j] A(2,j) = 0
    assert laplace_expand_row(Shape(3, 3), 2, 1).is_zero()


@pytest.mark.parametrize("n", [2, 3])
def test_col_expansion_contract(n):
    s = Shape(n, n)
    det = qdet(s)
    for j in range(1, n + 1):
        for l in range(1, n + 1):
            got = laplace_expand_col(s, j, l)
            assert got == (det if j == l else AlgebraElement.zero(s)), (j, l)


def test_col_expansion_reconstructs_determinant_split():
    # first n-1 summands of the column-n expansion are det - A(nn) X[n,n]
    n = 3
    s = Shape(n, n)
    partial = AlgebraElement.zero(s)
    for i in range(1, n):
        term = complement_minor(s, i, n) * gen(s, i, n)
        partial = partial + term.scale(LaurentScalar.minus_q_power(n - i))
    assert partial == qdet(s) - complement_minor(s, n, n) * gen(s, n, n)


def test_centrality_of_det():
    for n in (2, 3):
        s = Shape(n, n)
        det = qdet(s)
        for i, j in s.generators():
            assert commutator(det, gen(s, i, j)).is_zero()


def test_semicentrality_on_inner_indices():
    # [I|J] X[i,j] = X[i,j] [I|J] whenever i is a row of I and j a column of J
    s = Shape(3, 4)
    for p in (1, 2, 3):
        for rows in itertools.combinations(range(1, 4), p):
            for cols in itertools.combinations(range(1, 5), p):
                mn = minor(s, rows, cols)
                for i in rows:
                    for j in cols:
                        assert commutator(mn, gen(s, i, j)).is_zero(), (rows, cols, i, j)


def test_minor_bidegrees_are_indicators():
    s = Shape(3, 3)
    for rows in itertools.combinations((1, 2, 3), 2):
        for cols in itertools.combinations((1, 2, 3), 2):
            got = minor(s, rows, cols).bidegree_of()
            assert got == Bidegree(
                tuple(1 if i in rows else 0 for i in (1, 2, 3)),
                tuple(1 if j in cols else 0 for j in (1, 2, 3)),
            )
    assert qdet(s).bidegree_of() == Bidegree((1, 1, 1), (1, 1, 1))


class TestProjection:
    def test_kills_out_of_range_generator(self):
        assert project_pi(gen(Shape(3, 3), 3, 1), Shape(2, 3)).is_zero()

    def test_kills_minor_with_out_of_range_row(self):
        assert project_pi(minor(Shape(3, 3), (1, 3), (1, 2)), Shape(2, 3)).is_zero()

    def test_fixes_minor_inside_target(self):
        got = project_pi(minor(Shape(3, 3), (1, 2), (1, 3)), Shape(2, 3))
        assert got == minor(Shape(2, 3), (1, 2), (1, 3))

    def test_is_multiplicative(self):
        big, small = Shape(3, 3), Shape(2, 3)
        a = gen(big, 1, 2) * gen(big, 3, 1) + gen(big, 2, 2)
        b = gen(big, 2, 3) * gen(big, 1, 1)
        assert project_pi(a * b, small) == project_pi(a, small) * project_pi(b, small)

    def test_rejects_non_square_source(self):
        with pytest.raises(ValueError):
            project_pi(gen(Shape(2, 3), 1, 1), Shape(2, 2))

    def test_minor_images_systematically(self):
        # a minor of the square maps to the same minor when its index sets fit
        # inside the target grid, and to zero otherwise
        big, small = Shape(3, 3), Shape(2, 3)
        for p in (1, 2, 3):
            for rows in itertools.combinations((1, 2, 3), p):
                for cols in itertools.combinations((1, 2, 3), p):
                    image = project_pi(minor(big, rows, cols), small)
                    if max(rows) <= small.m and max(cols) <= small.n:
                        assert image == minor(small, rows, cols)
                    else:
                        assert image.is_zero()


def test_term_guard_estimates_before_building(monkeypatch):
    check_term_count(9)  # 9! terms: every grid up to 9x9 is built
    with pytest.raises(ValueError, match="10! = 3,628,800 terms"):
        check_term_count(10)
    with pytest.raises(ValueError):
        minor(Shape(12, 12), range(1, 13), range(1, 13))
    monkeypatch.setattr(minors, "MAX_MINOR_TERMS", 6)
    assert len(minor(Shape(4, 4), (1, 2, 3), (2, 3, 4)).terms()) == 6
    with pytest.raises(ValueError, match="4! = 24 terms"):
        qdet(Shape(4, 4))
    with pytest.raises(ValueError, match="4! = 24 terms"):
        x_prime_minor(Shape(4, 4), (2, 3, 4), (1, 2, 3))
    # the flat builder fits every state's minor before it builds anything,
    # and the zero test builds no minor at all
    monkeypatch.setattr(minors, "MAX_MINOR_TERMS", 2)
    s, full = Shape(4, 4), (1, 2, 3, 4)
    with pytest.raises(ValueError, match="3! = 6 terms"):
        laplace_expand_row(s, 1, 1)
    with pytest.raises(ValueError, match="3! = 6 terms"):
        expansion_products(s, laws.col_terms(full, full, 4, 4))
    with pytest.raises(ValueError, match="3! = 6 terms"):
        ZeroTest(s).check("outside", minors.commutator(gen_id(4, 4), (1, 2, 3), (1, 2, 3)))
    for suite in ("centrality", "laplace"):
        report = run_suite(suite, n=4)
        assert report.passed and report.counts["flat_checks"] == 0, suite


# ---------------------------------------------------------------------------
# generator times minor through sub-minors, against the kernel product
# ---------------------------------------------------------------------------

def _all_minors(shape):
    for p in range(1, min(shape.m, shape.n) + 1):
        for rows in itertools.combinations(range(1, shape.m + 1), p):
            for cols in itertools.combinations(range(1, shape.n + 1), p):
                yield rows, cols


@pytest.mark.parametrize("m,n", [(3, 3), (4, 4), (3, 4), (4, 3), (5, 5)])
def test_generator_minor_products_match_the_kernel(m, n):
    # every generator, plain and scaled by q^2 - 1, on both sides of every
    # minor; the reference is the permutation-sum minor times the generator
    # in the kernel
    s = Shape(m, n)
    scale = Q * (Q - QINV)
    for rows, cols in _all_minors(s):
        mn = minor(s, rows, cols)
        for i, j in s.generators():
            g, x = (letter(i, j),), gen(s, i, j)
            for state, want in (((g, rows, cols, ()), x * mn), (((), rows, cols, g), mn * x)):
                assert flat(s, minors.combination([(*state, 0, 1)])) == want, (state, i, j)
                assert flat(s, minors.combination([(*state, 2, 1), (*state, 0, -1)])) == (
                    want.scale(scale)), (state, i, j)


def test_minor_commutator_is_the_kernel_commutator():
    # [R|C] x - x [R|C] for x = -q^-1 X[2,3] + X[4,1]
    s = Shape(4, 4)
    x = gen(s, 2, 3).scale(-QINV) + gen(s, 4, 1)
    for rows, cols in _all_minors(s):
        combination = {(state, e - 1): -c for (state, e), c in
                       minors.commutator(gen_id(2, 3), rows, cols).items()}
        for key, c in minors.commutator(gen_id(4, 1), rows, cols).items():
            combination[key] = combination.get(key, 0) + c
        assert flat(s, combination) == commutator(minor(s, rows, cols), x), (rows, cols)


def test_generator_minor_products_refuse_other_factors():
    s = Shape(3, 3)
    with pytest.raises(ValueError, match="does not fit"):
        flat(s, minors.combination([((), (1, 4), (1, 2), (letter(1, 1),), 0, 1)]))
    assert flat(s, {}).is_zero()


@pytest.mark.parametrize("suite", ["centrality", "laplace"])
def test_minor_products_straighten_generator_pairs_only(suite):
    # through sub-minors, the kernel cache meets only two-letter products: at
    # most one entry per pair of the 25 generators; walking the minors' words
    # through the kernel added 2,970 (centrality) and 1,770 (laplace)
    _mono_times_gen.cache_clear()
    report = run_suite(suite, n=5)
    assert report.passed
    assert report.counts["straighten_cache_added"] == _mono_times_gen.cache_info().currsize <= 300


def test_grading_adds_at_most_one_minor_per_size_to_the_minor_cache():
    # one leading minor decides each size: building every minor into the
    # cache held all 12,869 minors of an 8x8 grid, most of that run's memory
    for m, n in ((5, 5), (3, 4)):
        minors._minor.cache_clear()
        report = run_suite("grading", m=m, n=n)
        assert report.passed  # over every minor: sum_p C(m,p) C(n,p) = C(m+n,m) - 1
        assert sum("homogeneous" in c.name for c in report.checks) == comb(m + n, m) - 1
        assert minors._minor.cache_info().currsize <= min(m, n)


def _per_minor_grading(s):
    """grading's minor checks as a loop that builds every minor and compares
    its bidegree with the indicator of its rows and columns."""
    checks = []
    for p in range(1, min(s.m, s.n) + 1):
        for rows in itertools.combinations(range(1, s.m + 1), p):
            for cols in itertools.combinations(range(1, s.n + 1), p):
                want = Bidegree(tuple(int(i in rows) for i in range(1, s.m + 1)),
                                tuple(int(j in cols) for j in range(1, s.n + 1)))
                got = minor(s, rows, cols).bidegree_of()
                checks.append(IdentityCheck(
                    f"[{list(rows)}|{list(cols)}] homogeneous of indicator bidegree",
                    got == want, None if got == want else str(got)))
    return checks


@pytest.mark.parametrize("m, n", [(n, n) for n in range(1, 7)] + [(3, 4), (4, 3), (2, 5), (5, 3)])
def test_grading_gives_every_minor_the_per_minor_verdict(m, n):
    want = _per_minor_grading(Shape(m, n))
    checks = run_suite("grading", m=m, n=n).checks
    assert checks[:len(want)] == want
    assert "homogeneous" not in checks[len(want)].name


def test_a_fault_shared_by_one_size_fails_exactly_that_size(monkeypatch):
    # every 3-row word loses its last letter, the same fault at every index
    # set of size 3, so the leading 3-minor fails and each 3-minor is built
    # for its own witness; the words are the permutation sum's, in its order
    def faulty(rows, cols):
        words = [(tuple(letter(r, cols[k]) for r, k in zip(rows, perm)), inversions(perm))
                 for perm in itertools.permutations(range(len(rows)))]
        return [(codes[:-1], inv) for codes, inv in words] if len(rows) == 3 else words

    s = Shape(4, 5)
    monkeypatch.setattr(minors, "_permutation_words", faulty)
    minors._minor.cache_clear()
    try:
        checks = run_suite("grading", m=s.m, n=s.n).checks
        want = _per_minor_grading(s)
    finally:
        minors._minor.cache_clear()  # no faulty minor outlives the patch
    assert checks[:len(want)] == want
    failing = [c for c in checks if not c.ok]
    assert [c.name for c in failing] == [
        f"[{list(rows)}|{list(cols)}] homogeneous of indicator bidegree"
        for rows in itertools.combinations(range(1, 5), 3)
        for cols in itertools.combinations(range(1, 6), 3)]
    assert all(c.witness == "None" for c in failing)  # no 3-minor is homogeneous
