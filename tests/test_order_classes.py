"""Checks grouped by order pattern: the relabeling map, the law tables under
it, and the suites run once per class against their per-check loops.

X[i,j] -> X[rho(i), gamma(j)] for increasing rho and gamma is an injective
algebra map; with rho(1) = 1 and gamma(last) = n it extends to the
localization at the corner.  The lemma23 and thm25 suites rely on it to run
one check per class, so the reference below is the per-check loops those
suites ran before, kept here as they were.  cor22 now runs on the zero test,
and its loop stays as the reference for that path.
"""

import itertools
import random
import re

import pytest
from hypothesis import assume, given, settings, strategies as st

from qmv import laws, localize, patterns, verify
from qmv.algebra import AlgebraElement, Shape, gen, relabel
from qmv.localize import (
    LocalizedElement,
    check_minor_commutation,
    check_minor_reduction,
    expand_minor_without_corner,
    minor_over_derived_generators,
    x_prime,
    x_prime_minor,
)
from qmv.scalar import LaurentScalar
from qmv.verify import run_suite

BIG = Shape(5, 5)


# ---------------------------------------------------------------------------
# the relabeling map
# ---------------------------------------------------------------------------

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
    assert image(a) * image(b) == image(a * b)
    assert image(a * b).k == (a * b).k
    assert image(a * b).render() == _renamed((a * b).render(), rows, cols)


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


def test_relabeling_validates_its_map():
    s = Shape(2, 2)
    x = gen(s, 1, 2)
    with pytest.raises(ValueError):
        relabel(x, BIG, (2, 1), (1, 2))
    with pytest.raises(ValueError):
        relabel(x, BIG, (1, 6), (1, 2))
    with pytest.raises(ValueError):
        relabel(x, BIG, (1, 2, 3), (1, 2))
    with pytest.raises(ValueError):  # the corner must stay the corner
        relabel(LocalizedElement(x, 1), BIG, (1, 3), (1, 4))


def test_relabeling_sends_derived_generators_to_derived_generators():
    small = Shape(3, 3)
    rows, cols = (1, 3, 5), (2, 4, 5)
    for i, j in itertools.product((2, 3), (1, 2)):
        assert relabel(x_prime(small, i, j), BIG, rows, cols) == x_prime(BIG, rows[i - 1], cols[j - 1])
    assert (relabel(x_prime_minor(small, (2, 3), (1, 2)), BIG, rows, cols)
            == x_prime_minor(BIG, (3, 5), (2, 4)))


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


# ---------------------------------------------------------------------------
# the walkers read exactly the tables the checks read
# ---------------------------------------------------------------------------

TABLES = ("row_terms", "col_terms", "first_row_terms", "last_row_terms",
          "col_commutation_terms", "row_commutation_terms")


@pytest.fixture
def fresh_derived_minors():
    # derived minors memoize row-laplace results, so no patched law may outlive a case
    for cached in (localize.x_prime, localize._x_prime_minor):
        cached.cache_clear()
    yield
    for cached in (localize.x_prime, localize._x_prime_minor):
        cached.cache_clear()


@pytest.mark.parametrize("name", sorted(patterns.CALLS))
@pytest.mark.parametrize("m,n", [(4, 4), (3, 4), (4, 3)])
def test_walkers_read_what_the_checks_read(monkeypatch, fresh_derived_minors, name, m, n):
    seen: set = set()
    for table in TABLES:
        frozen = getattr(laws, table)

        def recorded(*args, table=table, frozen=frozen):
            seen.add((table, args))
            return frozen(*args)

        monkeypatch.setattr(laws, table, recorded)
    shape = Shape(m, n)
    for kind, args in patterns.CALLS[name](shape, None):
        localize._x_prime_minor.cache_clear()
        seen.clear()
        kind.run(shape, *args)
        read_by_check = set(seen)
        seen.clear()
        kind.reads(shape, *args, lambda table, *table_args: table(*table_args))
        assert seen == read_by_check, (name, args)


# ---------------------------------------------------------------------------
# one check per class against the per-check loops
# ---------------------------------------------------------------------------

def direct_suite(name, shape, t=None):
    """The cor22, lemma23 and thm25 suites as per-check loops, one check at a time."""
    checks = []
    if name == "cor22":
        for p in ([t] if t else list(range(2, min(shape.m, shape.n) + 1))):
            for rows in itertools.combinations(range(2, shape.m + 1), p - 1):
                for cols in itertools.combinations(range(1, shape.n), p - 1):
                    checks.extend(check_minor_reduction(shape, (1,) + rows, cols + (shape.n,)))
    elif name == "lemma23":
        for p in ([t] if t else list(range(2, min(shape.m, shape.n) + 1))):
            for rows in itertools.combinations(range(1, shape.m + 1), p):
                for cols in itertools.combinations(range(1, shape.n + 1), p):
                    if rows[0] == 1 and cols[-1] == shape.n:
                        continue
                    checks.extend(expand_minor_without_corner(shape, rows, cols))
            for rows in itertools.combinations(range(1, shape.m + 1), p):
                for cols in itertools.combinations(range(1, shape.n + 1), p):
                    _, check = minor_over_derived_generators(shape, rows, cols)
                    checks.append(check)
    else:
        for size in ([t - 1] if t else list(range(1, min(shape.m, shape.n)))):
            if size < 1 or size > min(shape.m - 1, shape.n - 1):
                continue
            for rows in itertools.combinations(range(2, shape.m + 1), size):
                for cols in itertools.combinations(range(1, shape.n), size):
                    for l in range(1, shape.n):
                        checks.append(check_minor_commutation(shape, rows, cols, (1, l)))
                    for k in range(2, shape.m + 1):
                        checks.append(check_minor_commutation(shape, rows, cols, (k, shape.n)))
    return checks


def _outcomes(checks):
    return [(c.name, c.ok, c.witness) for c in checks]


SHAPES = [(m, n) for m in range(1, 6) for n in range(1, 6)]


def _unbuilt(name):
    # cor22 runs on the zero test, whose builds are counted as flat checks
    return "flat_checks" if name == "cor22" else "direct_checks"


@pytest.mark.parametrize("name", ["cor22", *sorted(patterns.CALLS)])
def test_class_path_matches_the_per_check_loops(name):
    for m, n in SHAPES:
        report = run_suite(name, m=m, n=n)
        assert _outcomes(report.checks) == _outcomes(direct_suite(name, Shape(m, n))), (m, n)
        assert report.passed and report.counts[_unbuilt(name)] == 0


@pytest.mark.parametrize("name", ["cor22", "lemma23", "thm25"])
def test_class_path_matches_the_per_check_loops_at_one_size(name):
    for m, n in SHAPES:
        for t in range(2, min(m, n) + 1):
            report = run_suite(name, m=m, n=n, t=t)
            assert report.checks, (m, n, t)
            assert _outcomes(report.checks) == _outcomes(direct_suite(name, Shape(m, n), t)), (m, n, t)


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
    assert not report.passed and report.counts[_unbuilt(name)] > 0


def test_a_wrong_law_fails_every_member_with_its_own_witness(monkeypatch, fresh_derived_minors):
    # a wrong law that is still equivariant fails on the representatives, and
    # each member's witness is the relabeled difference, as the loops print it
    frozen = laws.law_coefficients

    def perturbed(family):
        law = frozen(family)
        if family == "thm25-2prime":
            law["rl"] = law.get("rl", 0) + 1
        return law

    monkeypatch.setattr(laws, "law_coefficients", perturbed)
    report = run_suite("thm25", n=5)
    assert not report.passed and report.counts["direct_checks"] == 0
    assert _outcomes(report.checks) == _outcomes(direct_suite("thm25", Shape(5, 5)))


def test_the_pattern_suites_are_the_ones_run_by_class():
    assert set(verify.PATTERN_SUITES) == set(patterns.CALLS)


def test_counts_are_reported_under_timings_only():
    report = run_suite("thm25", n=5)
    timings = report.as_dict()["timings"]
    assert set(timings) == {"total_seconds", "classes_evaluated", "direct_checks",
                            "straighten_cache_added"}
    assert (timings["classes_evaluated"], timings["direct_checks"]) == (38, 0)
    assert report.summary().startswith("suite thm25 {'m': 5, 'n': 5}: 552 checks, pass, ")
    assert set(run_suite("thm21", n=3).as_dict()["timings"]) == {
        "total_seconds", "zero_test_splits", "zero_test_memo_hits", "flat_checks",
        "straighten_cache_added"}


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
        x = LocalizedElement(gen(small, *g))
        image = relabel(x * mp - mp * x, big, row_set, col_set)
        mp_big, x_big = x_prime_minor(big, rows, cols), LocalizedElement(gen(big, 1, l))
        assert image == x_big * mp_big - mp_big * x_big
