"""The row-by-row zero test: agreement with the flat products, its window
rules, and the suites that take their verdicts from it."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from qmv import laws, verify, zerotest
from qmv.algebra import COL_BITS, COL_MASK, AlgebraElement, Shape, gen, gen_id
from qmv.checks import check_zero
from qmv.minors import commutator, laplace_expand_col, laplace_expand_row, minor, qdet, table_combination
from qmv.scalar import LaurentScalar
from qmv.verify import run_suite
from qmv.zerotest import ZeroTest


def _minors(s: Shape):
    for t in range(1, min(s.m, s.n) + 1):
        for rows in itertools.combinations(range(1, s.m + 1), t):
            for cols in itertools.combinations(range(1, s.n + 1), t):
                yield rows, cols


def _flat(s: Shape, combination) -> AlgebraElement:
    """The combination summed through the kernel's products, as a reference."""
    terms = []
    for (state, e), c in combination.items():
        left, rows, cols, right = state
        product = minor(s, rows, cols) if rows else AlgebraElement.one(s)
        if left:
            product = gen(s, left >> COL_BITS, left & COL_MASK) * product
        if right:
            product = product * gen(s, right >> COL_BITS, right & COL_MASK)
        terms.append(product.scale(LaurentScalar({e: c})))
    return AlgebraElement.sum(s, terms)


def test_generator_minor_differences_agree_with_the_flat_products():
    # [R|C] X_g - q^e X_g [R|C] for every generator and minor of 4x4
    s = Shape(4, 4)
    test = ZeroTest(s)
    cases = nonzero = 0
    for rows, cols in _minors(s):
        mn = minor(s, rows, cols)
        for i, j in s.generators():
            g = gen(s, i, j)
            right, left = mn * g, g * mn
            for e in (0, 1, -1):
                combination = {((0, rows, cols, gen_id(i, j)), 0): 1, ((gen_id(i, j), rows, cols, 0), e): -1}
                want = (right - left.scale(LaurentScalar({e: 1}))).is_zero()
                assert test.is_zero(combination) is want, (rows, cols, i, j, e)
                cases += 1
                nonzero += not want
    assert (cases, nonzero) == (3312, 2550)


def _zero_blocks(s: Shape, draw):
    """A few combinations known to vanish: semicentral commutators and the
    row and column expansions of minors, each scaled by a random monomial."""
    out = {}
    for _ in range(draw(st.integers(1, 3))):
        rows, cols = draw(st.sampled_from(list(_minors(s))))
        kind = draw(st.sampled_from(["commutator", "row", "col"]))
        if kind == "commutator":
            block = commutator(gen_id(draw(st.sampled_from(rows)), draw(st.sampled_from(cols))), rows, cols)
        else:
            p = draw(st.integers(1, len(rows)))
            table = laws.row_terms if kind == "row" else laws.col_terms
            terms = table(rows, cols, p, (rows if kind == "row" else cols)[p - 1])
            block = table_combination(s, terms, kind == "row", (rows, cols))
        e, c = draw(st.integers(-2, 2)), draw(st.sampled_from([1, -1, 2]))
        for (state, e0), c0 in block.items():
            out[(state, e0 + e)] = out.get((state, e0 + e), 0) + c * c0
    return out


@st.composite
def _combinations(draw):
    s = Shape(*draw(st.sampled_from([(3, 3), (3, 4), (4, 3)])))
    combination = _zero_blocks(s, draw) if draw(st.booleans()) else {}
    for _ in range(draw(st.integers(0 if combination else 1, 3))):
        t = draw(st.integers(0, min(s.m, s.n)))
        rows = tuple(sorted(draw(st.sets(st.integers(1, s.m), min_size=t, max_size=t))))
        cols = tuple(sorted(draw(st.sets(st.integers(1, s.n), min_size=t, max_size=t))))
        g = gen_id(draw(st.integers(1, s.m)), draw(st.integers(1, s.n)))
        side = draw(st.sampled_from(["minor", "left", "right"] if t else ["left"]))
        state = (g if side == "left" else 0, rows, cols, g if side == "right" else 0)
        key = (state, draw(st.integers(-2, 2)))
        combination[key] = combination.get(key, 0) + draw(st.sampled_from([1, -1, 2]))
    return s, combination


@settings(max_examples=150, deadline=None)
@given(_combinations())
def test_random_combinations_agree_with_the_flat_sum(case):
    s, combination = case
    verdict = ZeroTest(s).is_zero(combination)
    assert verdict is None or verdict is _flat(s, combination).is_zero()


def test_a_combination_split_at_neither_end_goes_to_the_flat_path():
    # X[1,1] sits in the top row right of a 2-minor, and X[2,1] in the bottom
    # row left of one: neither end can split both
    s = Shape(2, 2)
    full = (1, 2)
    combination = {((0, full, full, gen_id(1, 1)), 0): 1, ((gen_id(2, 1), full, full, 0), 0): -1}
    test = ZeroTest(s)
    assert test.is_zero(combination) is None
    assert test.check("mixed", combination) == check_zero("mixed", _flat(s, combination))
    assert test.counts()["flat_checks"] == 1


def test_a_flat_zero_after_a_nonzero_verdict_raises():
    # the determinant is central, so a nonzero verdict on its commutator
    # disagrees with the flat build
    full = (1, 2)
    test = ZeroTest(Shape(2, 2))
    test.is_zero = lambda combination: False
    with pytest.raises(AssertionError, match="flat difference vanishes"):
        test.check("wrong", commutator(gen_id(1, 1), full, full))


def test_a_wrong_column_law_fails_laplace_with_the_flat_witnesses(monkeypatch):
    frozen = laws.law_coefficients

    def perturbed(name):
        law = frozen(name)
        if name == "col-laplace":
            law["i"] += 1
        return law

    monkeypatch.setattr(laws, "law_coefficients", perturbed)
    s = Shape(4, 4)
    report = run_suite("laplace", n=4)
    full = tuple(range(1, 5))
    want = [check_zero(f"row expansion i={i}, coefficients from row {k}",
                       laplace_expand_row(s, i, k) - (qdet(s) if i == k else AlgebraElement.zero(s)))
            for i in full for k in full]
    want += [check_zero(f"column expansion j={j}, coefficients from column {l}",
                        laplace_expand_col(s, j, l) - (qdet(s) if j == l else AlgebraElement.zero(s)))
             for j in full for l in full]
    assert [c.as_dict() for c in report.checks] == [c.as_dict() for c in want]
    failing = sum(not c.ok for c in want)
    assert failing and report.counts["flat_checks"] == failing


@pytest.mark.parametrize("suite", ["centrality", "laplace"])
def test_seven_by_seven_passes_without_a_flat_check(suite):
    report = run_suite(suite, n=7)
    assert report.passed, report.summary()
    assert report.counts["flat_checks"] == 0
    assert report.counts["zero_test_splits"] > 0 and report.counts["zero_test_memo_hits"] > 0


def test_semicentrality_reports_its_zero_test_counts():
    assert set(verify.SPLIT_SUITES) == set(zerotest.SUITES)
    timings = run_suite("semicentrality", m=3, n=4).as_dict()["timings"]
    assert set(timings) == {"total_seconds", "zero_test_splits", "zero_test_memo_hits",
                            "flat_checks", "straighten_cache_added"}
    assert timings["flat_checks"] == 0

