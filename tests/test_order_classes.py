"""Order patterns and the derived suites: the relabeling map behind the zero
test's rank compression, the law tables under it, and the cor22, lemma23 and
thm25 suites against their per-check builders.

X[i,j] -> X[rho(i), gamma(j)] for increasing rho and gamma is an injective
algebra map; with rho(1) = 1 and gamma(last) = n it extends to the
localization at the corner.  The zero test compresses every combination to
its ranks by this map before it looks it up, so the map is kept here as the
reference.  The derived module decides the suites' checks in corner form; the
reference for it is the per-check loops of the localize module's builders.
"""

import itertools
import random
import re
from functools import partial

import pytest
from hypothesis import assume, given, settings, strategies as st

from qmv import derived, laws, localize, minors, verify
from qmv.algebra import COL_MASK, EXP_BITS, EXP_MASK, AlgebraElement, Shape, gen, gen_id, letter
from qmv.localize import (
    LocalizedElement,
    check_minor_commutation,
    combined,
    check_minor_reduction,
    expand_minor_without_corner,
    minor_over_derived_generators,
    x_prime,
    x_prime_minor,
)
from qmv.minors import flat
from qmv.scalar import LaurentScalar
from qmv.verify import run_suite
from qmv.zerotest import ZeroTest, _normal_form

BIG = Shape(5, 5)


# ---------------------------------------------------------------------------
# the relabeling map
# ---------------------------------------------------------------------------

def relabel(x, shape: Shape, rows, cols):
    """The image of x under X[i,j] -> X[rows[i-1], cols[j-1]] into ``shape``,
    for strictly increasing rows and cols: each PBW monomial goes to the PBW
    monomial with its codes relabeled in place.  A localized element keeps its
    corner exponent; that needs rows[0] = 1 and cols[-1] = shape.n."""
    if not isinstance(x, AlgebraElement):
        assert rows[0] == 1 and cols[-1] == shape.n
        return type(x)(relabel(x.numerator, shape, rows, cols), x.k)
    ids = {gen_id(i, j): gen_id(r, c) << EXP_BITS
           for i, r in enumerate(rows, 1) for j, c in enumerate(cols, 1)}
    return AlgebraElement(shape, {
        (tuple(ids[code >> EXP_BITS] | code & EXP_MASK for code in codes), e): c
        for (codes, e), c in x._terms.items()})


@st.composite
def small_elements(draw, shape):
    """A sum of up to three words of up to three generators, with Laurent coefficients."""
    gens = shape.generators()
    total = AlgebraElement.zero(shape)
    for _ in range(draw(st.integers(1, 3))):
        term = AlgebraElement.one(shape)
        for g in draw(st.lists(st.sampled_from(gens), max_size=3)):
            term = term * gen(shape, *g)
        coeff = LaurentScalar({draw(st.integers(-2, 2)): draw(st.sampled_from([-2, -1, 1, 3]))})
        total = total + term.scale(coeff)
    return total


@st.composite
def embedded_pairs(draw, corner: bool):
    """Two elements of a 3x3 or 2x4 shape and an increasing embedding into 5x5;
    with ``corner`` the embedding fixes row 1 and the last column, and the
    elements are localized with a random corner exponent."""
    s = draw(st.sampled_from([Shape(3, 3), Shape(2, 4)]))
    if corner:
        rows = (1, *sorted(draw(st.permutations(range(2, 6)))[:s.m - 1]))
        cols = (*sorted(draw(st.permutations(range(1, 5)))[:s.n - 1]), 5)
    else:
        rows = tuple(sorted(draw(st.permutations(range(1, 6)))[:s.m]))
        cols = tuple(sorted(draw(st.permutations(range(1, 6)))[:s.n]))
    a, b = draw(small_elements(s)), draw(small_elements(s))
    if corner:
        a = LocalizedElement(a, draw(st.integers(0, 2)))
        b = LocalizedElement(b, draw(st.integers(0, 2)))
    return s, rows, cols, a, b


@settings(max_examples=60, deadline=None)
@given(embedded_pairs(corner=False))
def test_relabeling_is_multiplicative(case):
    s, rows, cols, a, b = case
    image = lambda x: relabel(x, BIG, rows, cols)
    assert image(a) * image(b) == image(a * b)
    assert image(a) + image(b) == image(a + b)
    assert image(a * b).render() == _renamed((a * b).render(), rows, cols)


@settings(max_examples=40, deadline=None)
@given(embedded_pairs(corner=True))
def test_relabeling_is_multiplicative_on_the_localization(case):
    s, rows, cols, a, b = case
    image = lambda x: relabel(x, BIG, rows, cols)
    product = combined(s, (1, a, b))
    assert combined(BIG, (1, image(a), image(b))) == image(product)
    assert image(product).k == product.k
    assert image(product).render() == _renamed(product.render(), rows, cols)


def _renamed(text, rows, cols):
    """A rendering with every letter X[i,j] renamed X[rows[i-1], cols[j-1]]."""
    return re.sub(r"X\[(\d+),(\d+)\]",
                  lambda mt: f"X[{rows[int(mt[1]) - 1]},{cols[int(mt[2]) - 1]}]", text)


def test_relabeling_keeps_the_printed_order():
    s = Shape(2, 3)
    x = (gen(s, 2, 1) * gen(s, 1, 3) + gen(s, 1, 2).scale(LaurentScalar.q_power(-1))
         - gen(s, 2, 3) * gen(s, 2, 1) * gen(s, 1, 1))
    rows, cols = (2, 4), (1, 3, 5)
    assert relabel(x, BIG, rows, cols).render(2) == _renamed(x.render(2), rows, cols)
    assert relabel(x, BIG, rows, cols).render() == _renamed(x.render(), rows, cols)


def test_relabeling_sends_derived_generators_to_derived_generators():
    small = Shape(3, 3)
    rows, cols = (1, 3, 5), (2, 4, 5)
    for i, j in itertools.product((2, 3), (1, 2)):
        assert relabel(x_prime(small, i, j), BIG, rows, cols) == x_prime(BIG, rows[i - 1], cols[j - 1])
    assert (relabel(x_prime_minor(small, (2, 3), (1, 2)), BIG, rows, cols)
            == x_prime_minor(BIG, (3, 5), (2, 4)))


def test_rank_compression_is_the_relabeling_map():
    # a zero-test key is its combination compressed to ranks and divided by a
    # unit +-q^e: relabeled back, it is the combination up to that unit
    rng = random.Random(7)
    for _ in range(30):
        rows = tuple(sorted(rng.sample(range(1, 6), 2)))
        cols = tuple(sorted(rng.sample(range(1, 6), 2)))
        i, j = rng.choice(rows), rng.choice(range(1, 6))
        word = (letter(rng.choice(range(1, 6)), rng.choice(range(1, 6))),)
        x = (letter(i, j),)
        combination = minors.combination([((), rows, cols, x, 0, 1), (x, rows, cols, (), 0, -1),
                                          (word, rows, cols, (), 1, 2)])
        row_set = sorted({*rows, i, word[0] >> minors.ROW_SHIFT})
        col_set = sorted({*cols, j, word[0] >> EXP_BITS & COL_MASK})
        small = Shape(len(row_set), len(col_set))
        image = relabel(flat(small, dict(_normal_form(combination))), BIG, row_set, col_set)
        want = flat(BIG, combination)
        units = [LaurentScalar({e: c}) for e in range(-4, 5) for c in (1, -1)]
        assert any(image.scale(u) == want for u in units), combination


# ---------------------------------------------------------------------------
# the law tables under relabeling
# ---------------------------------------------------------------------------

def _relabel_table(table, rho, gamma):
    return [t._replace(minor=(tuple(rho[r] for r in t.minor[0]), tuple(gamma[c] for c in t.minor[1])),
                       gen=(rho[t.gen[0]], gamma[t.gen[1]])) for t in table]


def _ranks(indices):
    """The increasing map from ranks to the given indices, and back."""
    ordered = sorted(set(indices))
    return dict(enumerate(ordered, 1)), {x: r for r, x in enumerate(ordered, 1)}


@st.composite
def table_calls(draw):
    """A law table call on a 6x6 grid, as (table, rows, cols, build): rows and
    cols are the indices it names, and build(r, c) its arguments with every
    row index x replaced by r(x) and every column index by c(x)."""
    size = draw(st.integers(1, 4))
    rows = tuple(sorted(draw(st.permutations(range(1, 7)))[:size]))
    cols = tuple(sorted(draw(st.permutations(range(1, 7)))[:size]))
    k = draw(st.sampled_from(range(1, 7)))
    l = draw(st.sampled_from(range(1, 7)))
    pos = draw(st.integers(1, size))
    R = lambda r, idx: tuple(map(r, idx))
    calls = {
        "row": (laws.row_terms, lambda r, c: (R(r, rows), R(c, cols), pos, r(k))),
        "col": (laws.col_terms, lambda r, c: (R(r, rows), R(c, cols), pos, c(l))),
        "first": (laws.first_row_terms, lambda r, c: (R(r, rows), R(c, cols))),
        "last": (laws.last_row_terms, lambda r, c: (R(r, rows), R(c, cols))),
        "col-comm": (laws.col_commutation_terms, lambda r, c: (R(r, rows), R(c, cols), c(l))),
        "row-comm": (laws.row_commutation_terms, lambda r, c: (R(r, rows), R(c, cols), r(k), c(6))),
    }
    table, build = calls[draw(st.sampled_from(sorted(calls)))]
    if table is laws.col_commutation_terms:
        assume(l not in cols)
    if table is laws.row_commutation_terms:
        assume(k not in rows)
    return table, rows + (k,), cols + (l,), build


@settings(max_examples=200, deadline=None)
@given(table_calls())
def test_every_law_table_is_equivariant(call):
    # each table at its own indices is the relabeling of the table at their
    # ranks, counted with row 1 and the last column, as the class suites compress
    table, rows, cols, build = call
    rho, rank_r = _ranks(rows + (1,))
    gamma, rank_c = _ranks(cols + (6,))
    small = table(*build(rank_r.get, rank_c.get))
    assert table(*build(lambda x: x, lambda x: x)) == _relabel_table(small, rho, gamma)


@pytest.fixture
def fresh_derived_minors():
    # derived minors memoize row-laplace results, so no patched law may outlive a case
    for cached in (localize.x_prime, localize._x_prime_minor):
        cached.cache_clear()
    yield
    for cached in (localize.x_prime, localize._x_prime_minor):
        cached.cache_clear()


# ---------------------------------------------------------------------------
# the derived suites against the per-check builders
# ---------------------------------------------------------------------------

def direct_groups(name, shape, t=None):
    """The cor22, lemma23 and thm25 suites as per-check loops: each builder
    call, in the suite's order, as a function that builds its checks."""
    m, n = shape.m, shape.n
    sizes = [t] if t else list(range(2, min(m, n) + 1))
    if name == "cor22":
        for p in sizes:
            for rows in itertools.combinations(range(2, m + 1), p - 1):
                for cols in itertools.combinations(range(1, n), p - 1):
                    yield partial(check_minor_reduction, shape, (1,) + rows, cols + (n,))
    elif name == "lemma23":
        for p in sizes:
            keys = list(itertools.product(itertools.combinations(range(1, m + 1), p),
                                          itertools.combinations(range(1, n + 1), p)))
            for rows, cols in keys:
                if rows[0] != 1 or cols[-1] != n:
                    yield partial(expand_minor_without_corner, shape, rows, cols)
            for rows, cols in keys:
                yield lambda rows=rows, cols=cols: [minor_over_derived_generators(shape, rows, cols)[1]]
    else:
        for call in _thm25_calls(shape, t):
            yield lambda call=call: [check_minor_commutation(shape, *call)]


def direct_suite(name, shape, t=None):
    """The cor22, lemma23 and thm25 suites as per-check loops, one check at a time."""
    return [check for build in direct_groups(name, shape, t) for check in build()]


def _thm25_calls(shape, t=None):
    """(rows, cols, generator) for each thm25 check, in the suite's order."""
    for size in ([t - 1] if t else list(range(1, min(shape.m, shape.n)))):
        for rows in itertools.combinations(range(2, shape.m + 1), size):
            for cols in itertools.combinations(range(1, shape.n), size):
                for l in range(1, shape.n):
                    yield rows, cols, (1, l)
                for k in range(2, shape.m + 1):
                    yield rows, cols, (k, shape.n)


def _outcomes(checks):
    return [(c.name, c.ok, c.witness) for c in checks]


SHAPES = [(m, n) for m in range(1, 6) for n in range(1, 6)]


# The suites were once decided one check per order-pattern class; these two
# comparisons keep the names they had then, and now hold the corner-form path
# to the per-check builders.
@pytest.mark.parametrize("name", ["cor22", "lemma23", "thm25"])
def test_class_path_matches_the_per_check_loops(name):
    for m, n in SHAPES:
        report = run_suite(name, m=m, n=n)
        assert _outcomes(report.checks) == _outcomes(direct_suite(name, Shape(m, n))), (m, n)
        assert report.passed and report.counts["flat_checks"] == 0, (m, n)


@pytest.mark.parametrize("name", ["cor22", "lemma23", "thm25"])
def test_class_path_matches_the_per_check_loops_at_one_size(name):
    for m, n in SHAPES:
        for t in range(2, min(m, n) + 1):
            report = run_suite(name, m=m, n=n, t=t)
            assert report.checks, (m, n, t)
            assert _outcomes(report.checks) == _outcomes(direct_suite(name, Shape(m, n), t)), (m, n, t)
            assert report.counts["flat_checks"] == 0, (m, n, t)


def test_passing_derived_checks_build_no_derived_minor(monkeypatch):
    def refuse(*args):
        pytest.fail("built a derived minor or a check")

    for name in ("x_prime", "_x_prime_minor"):
        monkeypatch.setattr(localize, name, refuse)
    for name in ("check_minor_commutation", "expand_minor_without_corner",
                 "minor_over_derived_generators"):
        monkeypatch.setattr(derived, name, refuse)
    monkeypatch.setattr(AlgebraElement, "__mul__", refuse)
    monkeypatch.setattr(LocalizedElement, "__mul__", refuse)
    for name, n in (("lemma23", 5), ("thm25", 6)):
        report = run_suite(name, n=n)
        assert report.passed and report.counts["flat_checks"] == 0, name


@pytest.mark.parametrize("name", ["lemma23", "thm25"])
def test_undecided_checks_take_the_built_path(monkeypatch, name):
    # a zero test that decides nothing proves no derived minor: every check is
    # built, and nothing disagrees
    monkeypatch.setattr(ZeroTest, "is_zero", lambda self, combination: None)
    report = run_suite(name, m=3, n=4)
    assert _outcomes(report.checks) == _outcomes(direct_suite(name, Shape(3, 4)))
    assert report.counts["flat_checks"] == len(report.checks)


@pytest.mark.parametrize("name", ["lemma23", "thm25"])
def test_a_nonzero_check_whose_built_check_holds_raises(monkeypatch, name):
    # every derived minor taken as proved and every combination found nonzero:
    # a built check that passes means the two paths disagree
    monkeypatch.setattr(derived.DerivedMinors, "holds", lambda self, rows, cols: True)
    monkeypatch.setattr(ZeroTest, "is_zero", lambda self, combination: False)
    with pytest.raises(AssertionError, match="nonzero combination whose built difference vanishes"):
        run_suite(name, n=3)


def _bumped(table, when):
    """The law table with its first exponent raised by one where ``when(*args)``;
    raising every exponent alike would cancel where a law is solved for a term."""
    frozen = getattr(laws, table)

    def patched(*args):
        terms = frozen(*args)
        if when(*args) and terms:
            terms = [terms[0]._replace(exponent=terms[0].exponent + 1), *terms[1:]]
        return terms

    return patched


# Laws that read absolute indices, so that checks of one order pattern differ.
ABSOLUTE_LAWS = [
    ("thm25", "col_commutation_terms", lambda rows, cols, l: l == 3),
    ("thm25", "row_commutation_terms", lambda rows, cols, k, n: k == 2),
    ("thm25", "row_terms", lambda rows, cols, i, k: rows[0] == 3),
    ("cor22", "row_terms", lambda rows, cols, i, k: 2 in cols),
    ("lemma23", "first_row_terms", lambda rows, cols: 3 in cols),
    ("lemma23", "col_terms", lambda rows, cols, j, l: rows[1] == 2),
    ("lemma23", "last_row_terms", lambda rows, cols: rows[-1] == 4),
]


@pytest.mark.parametrize("name,table,when", ABSOLUTE_LAWS,
                         ids=[f"{name}-{table}" for name, table, _ in ABSOLUTE_LAWS])
def test_a_law_on_absolute_indices_fails_where_the_loops_fail(monkeypatch, fresh_derived_minors,
                                                            name, table, when):
    monkeypatch.setattr(laws, table, _bumped(table, when))
    for m, n in [(3, 4), (4, 3), (4, 4)]:
        report = run_suite(name, m=m, n=n)
        direct = direct_suite(name, Shape(m, n))
        assert _outcomes(report.checks) == _outcomes(direct), (m, n)
    assert not report.passed and report.counts["flat_checks"] > 0


def test_a_wrong_law_fails_every_member_with_its_own_witness(monkeypatch, fresh_derived_minors):
    # +1 on every thm25 correction exponent fails exactly the correction-sum
    # checks, each built with its own witness as the per-check loop prints it
    frozen = laws.law_coefficients

    def perturbed(family):
        law = frozen(family)
        if family.startswith("thm25"):
            law["1"] = law.get("1", 0) + 1
        return law

    monkeypatch.setattr(laws, "law_coefficients", perturbed)
    for m, n in [(4, 4), (3, 5), (5, 4)]:
        s = Shape(m, n)
        report = run_suite("thm25", m=m, n=n)
        assert _outcomes(report.checks) == _outcomes(direct_suite("thm25", s)), (m, n)
        # a correction sum with an empty table has nothing to shift
        corrected = [bool(localize._commutation(s, *call)[2]) for call in _thm25_calls(s)]
        assert [not c.ok for c in report.checks] == corrected, (m, n)
        assert report.counts["flat_checks"] == sum(corrected) > 0, (m, n)


def test_the_derived_suites_are_the_ones_the_derived_module_runs():
    # each suite the registry sends to this module resolves to its _suite_<name> there
    names = [name for name, where in verify.SUITES.items() if where == "derived"]
    assert names == ["cor22", "thm21", "lemma23", "thm25"]
    assert all(callable(getattr(derived, f"_suite_{name}")) for name in names)


def test_counts_are_reported_under_timings_only():
    counts = {"total_seconds", "zero_test_splits", "zero_test_memo_hits", "zero_test_pattern_hits",
              "zero_test_transposed", "flat_checks", "straighten_cache_added"}
    report = run_suite("thm25", n=5)
    timings = report.as_dict()["timings"]
    assert set(timings) == counts
    assert (timings["flat_checks"], timings["zero_test_transposed"]) == (0, 4)
    assert report.summary().startswith("suite thm25 {'m': 5, 'n': 5}: 552 checks, pass, ")
    timings = run_suite("lemma23", n=5).as_dict()["timings"]
    assert set(timings) == counts and timings["flat_checks"] == 0
    assert set(run_suite("thm21", n=3).as_dict()["timings"]) == counts


def test_a_randomly_embedded_check_is_its_representative_relabeled():
    # one commutation check at a random place of a 6x6 grid, straight from the
    # relabeling map: its difference is the relabeled difference of the same
    # check on the compressed grid
    rng = random.Random(5)
    big = Shape(6, 6)
    for _ in range(5):
        rows = tuple(sorted(rng.sample(range(2, 7), 2)))
        cols = tuple(sorted(rng.sample(range(1, 6), 2)))
        l = rng.choice([c for c in range(1, 6) if c not in cols])
        row_set, col_set = (1,) + rows, tuple(sorted(cols + (l, 6)))
        small = Shape(len(row_set), len(col_set))
        r = tuple(row_set.index(x) + 1 for x in rows)
        c = tuple(col_set.index(x) + 1 for x in cols)
        g = (1, col_set.index(l) + 1)
        mp = x_prime_minor(small, r, c)
        x = gen(small, *g)
        image = relabel(combined(small, (1, x, mp), (-1, mp, x)), big, row_set, col_set)
        mp_big, x_big = x_prime_minor(big, rows, cols), gen(big, 1, l)
        assert image == combined(big, (1, x_big, mp_big), (-1, mp_big, x_big))


# ---------------------------------------------------------------------------
# pattern keys
# ---------------------------------------------------------------------------

KEYED_SHAPES = [(n, n) for n in range(3, 7)] + [(3, 4), (4, 3), (3, 5)]


def _compressed(combination):
    """The combination's normal form, or None when it is zero."""
    combination = {k: c for k, c in combination.items() if c}
    return _normal_form(combination) if combination else None


@pytest.mark.parametrize("name", ["semicentrality", "cor22", "thm21", "lemma23", "thm25"])
def test_every_keyed_verdict_is_the_verdict_on_its_own_combination(monkeypatch, name):
    # each check that a pattern key answers, its combination built at its own
    # indices: decided by a zero test that reads no key, and a relabeling of
    # every other combination of its key, so that one normal form serves them
    keyed, calls = ZeroTest.verdict, []

    def recorded(self, key, build):
        calls.append((key, keyed(self, key, build), build()))
        return calls[-1][1]

    monkeypatch.setattr(ZeroTest, "verdict", recorded)
    for m, n in KEYED_SHAPES:
        calls.clear()
        try:
            report = run_suite(name, m=m, n=n)
        except ValueError:
            continue  # the suite does not take this shape
        fresh, forms = ZeroTest(Shape(m, n)), {}
        assert report.passed and calls, (m, n)
        for key, verdict, combination in calls:
            assert fresh.is_zero(combination) is verdict, (m, n, key)
            assert forms.setdefault(key, _compressed(combination)) == _compressed(combination), (
                m, n, key)
        if name != "thm21":
            assert report.counts["zero_test_pattern_hits"] > 0, (m, n)


def test_a_law_wrong_at_one_column_fails_exactly_the_checks_that_read_it(monkeypatch,
                                                                         fresh_derived_minors):
    # every thm25 correction exponent of X[1,l] raised by one, but only when
    # column 3 is a column of the minor: checks of one order pattern then differ
    frozen = laws.col_commutation_terms

    def bumped(rows, cols, l):
        terms = frozen(rows, cols, l)
        return [t._replace(exponent=t.exponent + 1) for t in terms] if 3 in cols else terms

    monkeypatch.setattr(laws, "col_commutation_terms", bumped)
    for m, n in [(4, 4), (3, 5), (5, 4)]:
        s = Shape(m, n)
        report = run_suite("thm25", m=m, n=n)
        reads = [g[0] == 1 and 3 in cols and bool(localize._commutation(s, rows, cols, g)[2])
                 for rows, cols, g in _thm25_calls(s)]
        assert [not c.ok for c in report.checks] == reads and any(reads), (m, n)
        assert _outcomes(report.checks) == _outcomes(direct_suite("thm25", s)), (m, n)
        assert report.counts["flat_checks"] == sum(reads), (m, n)


def _swapped(table, fields, swaps):
    """The law table with its first two terms' ``fields`` swapped where 3 is a
    column of the minor, each exponent kept in its place; each swap is
    appended to ``swaps``."""
    frozen = getattr(laws, table)

    def patched(rows, cols, *args):
        terms = frozen(rows, cols, *args)
        if 3 in cols and len(terms) > 1:
            a, b = terms[:2]
            terms = [a._replace(**{f: getattr(b, f) for f in fields}),
                     b._replace(**{f: getattr(a, f) for f in fields}), *terms[2:]]
            swaps.append((rows, cols, *args))
        return terms

    return patched


# Tables changed at their indices only: the exponents stay, so a key that
# kept the exponents but not each term's minor and generator would pass the
# swapped members of an order-pattern class along with the others.  At 3x5,
# X[1,4] against [rows|1,2]' and [rows|1,3]' is one such class for thm25; at
# 4x4, [rows|1,2] and [rows|1,3] one for lemma23; at 3x4, the Cor 2.2 steps
# of [2,3|1,2]' and [2,3|1,3]' one for cor22.
SWAPPED_TABLES = [
    ("thm25", "col_commutation_terms", ("gen",)),
    ("lemma23", "first_row_terms", ("minor", "gen")),
    ("cor22", "row_terms", ("minor", "gen")),
]


@pytest.mark.parametrize("name,table,fields", SWAPPED_TABLES,
                         ids=[f"{name}-{table}" for name, table, _ in SWAPPED_TABLES])
def test_a_table_swapped_at_one_column_fails_exactly_the_checks_that_read_it(
        monkeypatch, fresh_derived_minors, name, table, fields):
    swaps, failed = [], 0
    monkeypatch.setattr(laws, table, _swapped(table, fields, swaps))
    for m, n in [(3, 4), (4, 3), (4, 4), (3, 5)]:
        report = run_suite(name, m=m, n=n)
        direct, reads = [], []
        for build in direct_groups(name, Shape(m, n)):
            swaps.clear()
            # derived minors are cached: rebuilt, each build records the swaps it reads
            localize.x_prime.cache_clear()
            localize._x_prime_minor.cache_clear()
            checks = build()
            direct += checks
            # a last-row expansion reads no first-row table
            reads += [bool(swaps) and "last-row" not in c.name for c in checks]
        assert _outcomes(report.checks) == _outcomes(direct), (m, n)
        assert [not c.ok for c in report.checks] == reads, (m, n)
        assert report.counts["flat_checks"] == sum(reads), (m, n)
        failed += sum(reads)
    assert failed
