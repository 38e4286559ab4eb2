"""The row-by-row zero test: agreement with the flat products, its window
rules, its transposed retry, and the suites that take their verdicts from it."""

import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from qmv import derived, laws, localize, minors, verify, zerotest
from qmv.algebra import AlgebraElement, Shape, decode, gen, gen_id, letter, monomial
from qmv.checks import check_zero
from qmv.localize import check_det_reduction, check_minor_reduction
from qmv.minors import (
    commutator, flat, laplace_expand_col, laplace_expand_row, minor, qdet, table_combination,
)
from qmv.scalar import LaurentScalar
from qmv.verify import run_suite
from qmv.zerotest import ZeroTest, _normal_form, transposed


def _minors(s: Shape):
    for t in range(1, min(s.m, s.n) + 1):
        for rows in itertools.combinations(range(1, s.m + 1), t):
            for cols in itertools.combinations(range(1, s.n + 1), t):
                yield rows, cols


def _word(s: Shape, codes) -> AlgebraElement:
    """A word's letters multiplied in the kernel."""
    product = AlgebraElement.one(s)
    for (i, j), e in map(decode, codes):
        product = product * gen(s, i, j) ** e
    return product


def _flat(s: Shape, combination) -> AlgebraElement:
    """The combination summed through the kernel's products, as a reference."""
    terms = []
    for (state, e), c in combination.items():
        left, rows, cols, right = state
        product = minor(s, rows, cols) if rows else AlgebraElement.one(s)
        product = _word(s, left) * product * _word(s, right)
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
            x = (letter(i, j),)
            for e in (0, 1, -1):
                combination = minors.combination([((), rows, cols, x, 0, 1), (x, rows, cols, (), e, -1)])
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
            block = table_combination(s, terms, (rows, cols))
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
        g = (letter(draw(st.integers(1, s.m)), draw(st.integers(1, s.n))),)
        side = draw(st.sampled_from(["minor", "left", "right"] if t else ["left"]))
        state = (g if side == "left" else (), rows, cols, g if side == "right" else ())
        for key, c in minors.combination(
                [(*state, draw(st.integers(-2, 2)), draw(st.sampled_from([1, -1, 2])))]).items():
            combination[key] = combination.get(key, 0) + c
    return s, combination


@settings(max_examples=150, deadline=None)
@given(_combinations())
def test_random_combinations_agree_with_the_flat_sum(case):
    s, combination = case
    verdict = ZeroTest(s).is_zero(combination)
    assert verdict is None or verdict is _flat(s, combination).is_zero()


def test_a_combination_split_at_neither_end_goes_to_the_flat_path():
    # X[1,1] sits in the top row right of a 2-minor, and X[2,2] in the bottom
    # row left of one: neither end can split both, and transposed X[1,1] and
    # X[2,2] stay where they are
    s = Shape(2, 2)
    full = (1, 2)
    combination = minors.combination([((), full, full, (letter(1, 1),), 0, 1),
                                      ((letter(2, 2),), full, full, (), 0, -1)])
    assert _normal_form(transposed(combination.items())) == _normal_form(combination)
    test = ZeroTest(s)
    assert test.is_zero(combination) is None
    assert test.check("mixed", combination) == check_zero("mixed", _flat(s, combination))
    assert test.counts()["flat_checks"] == 1 and test.counts()["zero_test_transposed"] == 0


def test_a_combination_blocked_at_both_ends_is_decided_transposed():
    # X[2,1] in the bottom row left of the minor blocks the bottom split and
    # X[1,1] in the top row right of it the top split; transposed, X[2,1] is
    # X[1,2], in the top row, and the bottom split goes through
    s = Shape(2, 2)
    full, x21, x11 = (1, 2), (letter(2, 1),), (letter(1, 1),)
    nonzero = minors.combination([((), full, full, x11, 0, 1), (x21, full, full, (), 0, -1)])
    # the determinant is central: X[2,1] D X[1,1] = X[2,1] X[1,1] D
    zero = minors.combination([(x21, full, full, x11, 0, 1)]
                              + [(w, full, full, (), e, -c) for w, e, c in minors.product(x21, x11)])
    for combination, want in ((nonzero, False), (zero, True)):
        test = ZeroTest(s)
        assert test.is_zero(combination) is want is _flat(s, combination).is_zero()
        assert test.counts()["zero_test_transposed"] == 1


def _theta(element: AlgebraElement, image: Shape) -> AlgebraElement:
    """theta(element) in the transposed shape, word by word through the zero
    test's transposition."""
    words = {((codes, (), (), ()), e): c for (codes, e), c in element._terms.items()}
    return flat(image, transposed(words.items()))


@pytest.mark.parametrize("m,n", [(3, 4), (4, 3)])
def test_transposition_maps_the_defining_relations_to_relations(m, n):
    # theta(g) theta(h) = theta(g h) for every ordered pair of generators: the
    # straightened g h is the relation that rewrites it
    s, image = Shape(m, n), Shape(n, m)
    for (i, j), (k, l) in itertools.product(s.generators(), repeat=2):
        assert _theta(gen(s, i, j) * gen(s, k, l), image) == gen(image, j, i) * gen(image, l, k)


def test_transposition_sends_each_minor_to_its_transpose():
    for m, n in itertools.product(range(1, 5), repeat=2):
        s, image = Shape(m, n), Shape(n, m)
        for rows, cols in _minors(s):
            assert _theta(minor(s, rows, cols), image) == minor(image, cols, rows), (m, n, rows, cols)


def test_a_flat_zero_after_a_nonzero_verdict_raises():
    # the determinant is central, so a nonzero verdict on its commutator
    # disagrees with the flat build
    full = (1, 2)
    test = ZeroTest(Shape(2, 2))
    test.is_zero = lambda combination: False
    with pytest.raises(AssertionError, match="built difference vanishes"):
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


# the derived suites' checks, splits, memo hits, pattern hits and transposed
# retries at 7x7: a pattern key that splits or merges order-pattern classes
# changes the pattern hits
SEVEN_BY_SEVEN = {"lemma23": (9187, 88, 289, 10335, 0), "thm25": (11076, 218, 758, 14642, 8)}


@pytest.mark.parametrize("suite", ["centrality", "laplace", "lemma23", "thm25"])
def test_seven_by_seven_passes_without_a_flat_check(suite):
    report = run_suite(suite, n=7)
    assert report.passed, report.summary()
    assert report.counts["flat_checks"] == 0
    assert report.counts["zero_test_splits"] > 0 and report.counts["zero_test_memo_hits"] > 0
    if suite in SEVEN_BY_SEVEN:
        counts = [report.counts[f"zero_test_{k}"]
                  for k in ("splits", "memo_hits", "pattern_hits", "transposed")]
        assert (len(report.checks), *counts) == SEVEN_BY_SEVEN[suite]


def test_semicentrality_reports_its_zero_test_counts():
    # each suite the registry sends to this module resolves to its _suite_<name> here
    names = [name for name, where in verify.SUITES.items() if where == "zerotest"]
    assert names == ["centrality", "semicentrality", "laplace"]
    assert all(callable(getattr(zerotest, f"_suite_{name}")) for name in names)
    timings = run_suite("semicentrality", m=3, n=4).as_dict()["timings"]
    assert set(timings) == {"total_seconds", "zero_test_splits", "zero_test_memo_hits",
                            "zero_test_pattern_hits", "zero_test_transposed", "flat_checks",
                            "straighten_cache_added"}
    assert timings["flat_checks"] == 0



# ---------------------------------------------------------------------------
# word states L [R|C] W
# ---------------------------------------------------------------------------

def _random_word(rng, s: Shape, letters: int):
    """A PBW monomial of up to ``letters`` letters."""
    picked = Counter(rng.choice(s.generators()) for _ in range(rng.randint(0, letters)))
    return monomial(picked.items())


def _times_words(combination, left, right):
    """left * combination * right, as a combination."""
    entries = []
    for (state, e), c in combination.items():
        words, rows, cols, tail = state
        for w, e2, c2 in minors.product(left, words):
            for t, e3, c3 in minors.product(tail, right):
                entries.append((w, rows, cols, t, e + e2 + e3, c * c2 * c3))
    return minors.combination(entries)


def _word_combination(rng, s: Shape, zero: bool):
    """1-4 word states with words of up to two letters on either side, pure
    words included; with ``zero``, known zero blocks times random words."""
    out = {}
    for _ in range(rng.randint(1, 4) if not zero else rng.randint(1, 2)):
        rows, cols = rng.choice(list(_minors(s)) + [((), ())])
        if zero:
            block = (commutator(gen_id(rng.choice(rows), rng.choice(cols)), rows, cols) if rows
                     else minors.combination([]))
            if rows and rng.random() < 0.5:
                p = rng.randint(1, len(rows))
                table = laws.row_terms if rng.random() < 0.5 else laws.col_terms
                terms = table(rows, cols, p, (rows if table is laws.row_terms else cols)[p - 1])
                block = table_combination(s, terms, (rows, cols))
            block = _times_words(block, _random_word(rng, s, 2), _random_word(rng, s, 2))
        else:
            left, right = _random_word(rng, s, 2), _random_word(rng, s, 2) if rows else ()
            block = minors.combination([(left, rows, cols, right, 0, 1)])
        e, c = rng.randint(-2, 2), rng.choice([1, -1, 2])
        for (state, e0), c0 in block.items():
            out[(state, e0 + e)] = out.get((state, e0 + e), 0) + c * c0
    return out


def _blocked(key) -> bool:
    """Whether a memo key has a state that cannot split at its top row and one
    that cannot split at its bottom row, and so does its transpose."""
    def one_way(key):
        states = [state for (state, _), _ in key if state != minors.ONE]
        lo = min(minors.span(state)[0] for state in states)
        hi = max(minors.span(state)[1] for state in states)
        return (any(minors.top(state, lo) is None for state in states)
                and any(minors.bottom(state, hi) is None for state in states))

    return one_way(key) and one_way(_normal_form(transposed(key)))


UNDECIDED_WORD_STATES = 52


def test_word_states_agree_with_the_kernel_products():
    rng = random.Random(18)
    verdicts = Counter()
    for k in range(640):
        s = Shape(*[(3, 3), (3, 4), (4, 3), (4, 4)][k % 4])
        combination = _word_combination(rng, s, zero=k % 8 < 4)
        want = _flat(s, combination)
        assert flat(s, combination) == want, (k, combination)
        test = ZeroTest(s)
        verdict = test.is_zero(combination)
        if verdict is None:
            assert any(v is None and _blocked(key) for key, v in test.memo.items()), k
        else:
            assert verdict is want.is_zero(), (k, combination)
        verdicts[verdict] += 1
    assert verdicts[True] >= 200 and verdicts[False] >= 200, verdicts
    # without the transposed retry, 120 stayed undecided
    assert verdicts[None] == UNDECIDED_WORD_STATES, verdicts


def test_a_pure_word_splits_its_bottom_row_out_of_its_letters():
    # a pure word is stored as L alone; its bottom row is the suffix of L
    word = (letter(1, 1), letter(2, 2), letter(3, 1))
    assert minors.bottom((word, (), (), ()), 3) == [(word[2:], 0, 1, (word[:2], (), (), ()))]
    assert minors.top((word, (), (), ()), 1) == [(word[:1], 0, 1, (word[1:], (), (), ()))]
    # the top row is blocked by X[1,1] right of a minor, so the zero test
    # splits the pure words at the bottom row
    s, pair = Shape(3, 3), (1, 2)
    cross = (letter(1, 2), letter(2, 1))
    swap = minors.combination([((letter(2, 2),), (), (), (letter(1, 1),), 0, 1),
                               ((letter(1, 1), letter(2, 2)), (), (), (), 0, -1),
                               (cross, (), (), (), 1, 1), (cross, (), (), (), -1, -1)])
    for extra in ({}, {(((letter(1, 3), letter(3, 2)), (), (), ()), 0): 1}):
        combination = {**commutator(gen_id(1, 1), pair, pair), **swap, **extra}
        want = _flat(s, combination).is_zero()
        assert want is not bool(extra)
        assert ZeroTest(s).is_zero(combination) is want


# ---------------------------------------------------------------------------
# Cor 2.2 by induction: cor22 and thm21
# ---------------------------------------------------------------------------

def _built_cor22(s: Shape, t=None):
    """The cor22 checks as the per-check loop builds them."""
    checks = []
    for p in [t] if t else range(2, min(s.m, s.n) + 1):
        for rows in itertools.combinations(range(2, s.m + 1), p - 1):
            for cols in itertools.combinations(range(1, s.n), p - 1):
                checks += check_minor_reduction(s, (1,) + rows, cols + (s.n,))
    return checks


def _outcomes(checks):
    return [(c.name, c.ok, c.witness) for c in checks]


@pytest.fixture
def fresh_derived_minors():
    # derived minors memoize row-laplace results, so no patched law may outlive a case
    for cached in (localize.x_prime, localize._x_prime_minor):
        cached.cache_clear()
    yield
    for cached in (localize.x_prime, localize._x_prime_minor):
        cached.cache_clear()


COR22_SHAPES = [(m, n) for m in range(1, 6) for n in range(1, 6)] + [(6, 6)]


def test_cor22_matches_the_built_loops():
    for m, n in COR22_SHAPES:
        s = Shape(m, n)
        report = run_suite("cor22", m=m, n=n)
        assert _outcomes(report.checks) == _outcomes(_built_cor22(s)), (m, n)
        assert report.passed and report.counts["flat_checks"] == 0, (m, n)
        for t in range(2, min(m, n) + 1) if max(m, n) < 6 else ():
            sized = run_suite("cor22", m=m, n=n, t=t)
            assert sized.checks and _outcomes(sized.checks) == _outcomes(_built_cor22(s, t)), (m, n, t)


def test_thm21_matches_the_built_reduction():
    for n in range(2, 7):
        report = run_suite("thm21", n=n)
        assert _outcomes(report.checks) == _outcomes(check_det_reduction(n)), n
        assert report.passed and report.counts["flat_checks"] == 0, n


def test_passing_reductions_build_no_derived_minor(monkeypatch):
    def refuse(*args):
        pytest.fail("built a derived minor or a product")

    for module, name in ((localize, "x_prime"), (localize, "_x_prime_minor"),
                         (derived, "check_minor_reduction"), (derived, "check_det_reduction")):
        monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(AlgebraElement, "__mul__", refuse)
    for name, n in (("thm21", 7), ("cor22", 6)):
        report = run_suite(name, n=n)
        assert report.passed and report.counts["flat_checks"] == 0, name


def test_a_wrong_row_law_fails_thm21_with_the_built_witnesses(monkeypatch, fresh_derived_minors):
    frozen = laws.row_terms

    def bumped(rows, cols, i, k):
        terms = frozen(rows, cols, i, k)
        return [terms[0]._replace(exponent=terms[0].exponent + 1), *terms[1:]]

    monkeypatch.setattr(laws, "row_terms", bumped)
    for n in (3, 4):
        report = run_suite("thm21", n=n)
        want = check_det_reduction(n)
        assert not any(c.ok for c in want)
        assert _outcomes(report.checks) == _outcomes(want)
        assert report.counts["flat_checks"] == 2


def test_a_nonzero_step_whose_built_reduction_holds_raises(monkeypatch):
    # every combination found nonzero: the size-1 step rests on nothing, so
    # its built reduction passing means the paths disagree
    monkeypatch.setattr(ZeroTest, "is_zero", lambda self, combination: False)
    with pytest.raises(AssertionError, match="nonzero combination whose built difference vanishes"):
        run_suite("thm21", n=2)
    with pytest.raises(AssertionError, match="nonzero combination whose built difference vanishes"):
        run_suite("cor22", n=3)


def test_undecided_steps_take_the_built_path(monkeypatch):
    # a zero test that decides nothing proves nothing: every check is built,
    # and nothing disagrees
    monkeypatch.setattr(ZeroTest, "is_zero", lambda self, combination: None)
    report = run_suite("cor22", m=3, n=4)
    assert _outcomes(report.checks) == _outcomes(_built_cor22(Shape(3, 4)))
    assert report.counts["flat_checks"] == len(report.checks)


@pytest.mark.parametrize("commutes", [False, None])
def test_cor22_without_the_commutation_builds_every_check(monkeypatch, commutes):
    # Cor 2.2 alone proves neither check: without X[1,n] commuting with the
    # enlarged minor both are built, and a passing build after no nonzero
    # verdict disagrees with nothing
    monkeypatch.setattr(derived.DerivedMinors, "commutes", lambda self, rows, cols: commutes)
    report = run_suite("cor22", n=4)
    assert _outcomes(report.checks) == _outcomes(_built_cor22(Shape(4, 4)))
    assert report.counts["flat_checks"] == len(report.checks)
