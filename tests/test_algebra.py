"""The PBW rewriting engine: straightening, grading, monomial enumeration."""

import itertools
import random
from collections import Counter
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from qmv.algebra import (
    AlgebraElement,
    Bidegree,
    Shape,
    bidegree,
    commutator,
    component_basis,
    decode,
    degree,
    exponent,
    gen,
    monomial,
    monomial_count,
    random_element,
    render_monomial,
    sort_key,
    word,
)
from qmv.algebra import _mono_times_gen, _shifted
from qmv.minors import minor
from qmv.scalar import LaurentScalar, Q, QINV, Q_MINUS_QINV


def X(shape, i, j):
    return gen(shape, i, j)


def grouped(shape, terms):
    """The element sum c * mono over {monomial: LaurentScalar c}, in the flat
    {(monomial, q exponent): int} form it stores; zero coefficients add nothing."""
    return AlgebraElement(shape, {(mono, e): x for mono, c in terms.items() for e, x in c._terms.items()})


def test_gen_examples():
    assert str(gen(Shape(2, 2), 1, 1)) == "X[1,1]"
    assert str(gen(Shape(3, 3), 3, 3)) == "X[3,3]"
    with pytest.raises(ValueError):
        gen(Shape(2, 3), 3, 1)


def test_same_row_straightening():
    s = Shape(2, 2)
    assert X(s, 1, 2) * X(s, 1, 1) == (X(s, 1, 1) * X(s, 1, 2)).scale(QINV)


def test_antidiagonal_commutes():
    s = Shape(2, 2)
    assert X(s, 2, 1) * X(s, 1, 2) == X(s, 1, 2) * X(s, 2, 1)


def test_diagonal_correction_term():
    s = Shape(2, 2)
    want = X(s, 1, 1) * X(s, 2, 2) - (X(s, 1, 2) * X(s, 2, 1)).scale(Q_MINUS_QINV)
    assert X(s, 2, 2) * X(s, 1, 1) == want


def test_defining_relations_all_instances():
    # every scheme of the defining relations, on the generic 3x4 grid
    s = Shape(3, 4)
    for (i, j), (k, l) in itertools.combinations(s.generators(), 2):
        a, b = X(s, i, j), X(s, k, l)
        if i == k or j == l:
            assert a * b == (b * a).scale(Q)
        elif j > l:
            assert a * b == b * a
        else:
            assert a * b - b * a == (X(s, i, l) * X(s, k, j)).scale(Q_MINUS_QINV)


def test_commutator_examples():
    s = Shape(2, 2)
    assert commutator(X(s, 1, 1), X(s, 2, 2)) == (X(s, 1, 2) * X(s, 2, 1)).scale(Q_MINUS_QINV)
    assert commutator(X(s, 1, 2), X(s, 2, 1)).is_zero()
    a = X(s, 1, 1) * X(s, 2, 2) + X(s, 1, 2)
    assert commutator(a, a).is_zero()


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        gen(Shape(2, 2), 1, 1) * gen(Shape(2, 3), 1, 1)


def test_renormalizing_is_identity():
    # multiplying a normal form by the identity element reproduces it exactly
    s = Shape(3, 3)
    rng = random.Random(2)
    one = AlgebraElement.one(s)
    for _ in range(50):
        a = random_element(s, 4, rng)
        assert a * one == a
        assert one * a == a


def kernel(pairs, g):
    """``_mono_times_gen`` called with ((i, j), e) pairs and an (i, j)
    generator, through a local letter encoder, with its (codes, e, c) triples
    decoded back to pairs."""
    codes = tuple(((i << 6 | j) << 18) | e for (i, j), e in pairs)
    return tuple(
        (tuple((((c >> 24), (c >> 18) & 63), c & (2**18 - 1)) for c in out), e, k)
        for out, e, k in _mono_times_gen(codes, g[0] << 6 | g[1])
    )


def test_mono_times_gen_pinned_triples():
    # (monomial pairs, q exponent, integer coefficient) for each relation type
    x11, x12, x21, x22 = (1, 1), (1, 2), (2, 1), (2, 2)
    assert kernel((), x11) == ((((x11, 1),), 0, 1),)
    assert kernel(((x11, 1),), x11) == ((((x11, 2),), 0, 1),)
    assert kernel(((x11, 1),), x22) == ((((x11, 1), (x22, 1)), 0, 1),)
    # same row and same column: swap with q^-1
    assert kernel(((x12, 1),), x11) == ((((x11, 1), (x12, 1)), -1, 1),)
    assert kernel(((x21, 1),), x11) == ((((x11, 1), (x21, 1)), -1, 1),)
    # anti-diagonal pair: plain swap
    assert kernel(((x21, 1),), x12) == ((((x12, 1), (x21, 1)), 0, 1),)
    # diagonal pair: swap minus (q - q^-1) times the anti-diagonal monomial
    assert set(kernel(((x22, 1),), x11)) == {
        (((x11, 1), (x22, 1)), 0, 1),
        (((x12, 1), (x21, 1)), 1, -1),
        (((x12, 1), (x21, 1)), -1, 1),
    }


def test_mono_times_gen_passive_prefix():
    # letters below g pass through untouched; only the suffix from g on moves
    x11, x12, x21, x22 = (1, 1), (1, 2), (2, 1), (2, 2)
    x23, x32, x33 = (2, 3), (3, 2), (3, 3)
    assert kernel(((x11, 1), (x22, 1)), x12) == (
        (((x11, 1), (x12, 1), (x22, 1)), -1, 1),
    )
    assert set(kernel(((x11, 2), (x33, 1)), x22)) == {
        (((x11, 2), (x22, 1), (x33, 1)), 0, 1),
        (((x11, 2), (x23, 1), (x32, 1)), 1, -1),
        (((x11, 2), (x23, 1), (x32, 1)), -1, 1),
    }
    # g already present: the split keeps g in the moving suffix, so its
    # exponent grows instead of the letter appearing twice
    assert kernel(((x11, 1), (x12, 1), (x21, 1)), x12) == (
        (((x11, 1), (x12, 2), (x21, 1)), 0, 1),
    )
    assert kernel(((x11, 1), (x12, 2), (x22, 1)), x12) == (
        (((x11, 1), (x12, 3), (x22, 1)), -1, 1),
    )


def fold_from_scratch(a, b):
    """Reference product, independent of the kernel and its cache: every word
    of a*b is straightened on its own, by rewriting its first out-of-order
    adjacent pair with the defining relations."""
    todo = [(word(ma) + word(mb), ca * cb) for ma, ca in a.terms() for mb, cb in b.terms()]
    out = {}
    while todo:
        letters, c = todo.pop()
        p = next((p for p in range(len(letters) - 1) if letters[p] > letters[p + 1]), None)
        if p is None:
            mono = monomial(Counter(letters).items())
            out[mono] = out.get(mono, LaurentScalar()) + c
            continue
        (i, j), (k, l) = h, g = letters[p], letters[p + 1]
        head, tail = letters[:p], letters[p + 2:]
        if i == k or j == l:
            todo.append((head + (g, h) + tail, c * QINV))
        elif l > j:
            todo.append((head + (g, h) + tail, c))
        else:
            todo.append((head + (g, h) + tail, c))
            todo.append((head + ((k, j), (i, l)) + tail, -(c * Q_MINUS_QINV)))
    return grouped(a.shape, out)


@st.composite
def left_and_minor_sum(draw):
    s = draw(st.sampled_from([Shape(3, 3), Shape(2, 4)]))
    gens = s.generators()
    words = draw(st.lists(st.lists(st.sampled_from(gens), max_size=3), min_size=1, max_size=3))
    left = AlgebraElement.sum(s, [
        grouped(s, {monomial(Counter(word).items()): LaurentScalar(
            {draw(st.integers(-2, 2)): draw(st.sampled_from([-2, -1, 1, 3]))})})
        for word in words
    ])
    right = []
    for _ in range(draw(st.integers(1, 3))):
        t = draw(st.integers(1, min(s.m, s.n)))
        rows = sorted(draw(st.permutations(range(1, s.m + 1)))[:t])
        cols = sorted(draw(st.permutations(range(1, s.n + 1)))[:t])
        right.append(minor(s, rows, cols).scale(LaurentScalar.q_power(draw(st.integers(-2, 2)))))
    return left, AlgebraElement.sum(s, right)


@settings(max_examples=60, deadline=None)
@given(left_and_minor_sum())
def test_product_by_minors_matches_word_by_word_straightening(pair):
    left, right = pair
    assert left * right == fold_from_scratch(left, right)


def flip(a):
    """X[i,j] -> X[m+1-i, n+1-j], reversing each monomial.  The relabelling
    reverses row-major order, so a reversed PBW word is again a PBW word."""
    m, n = a.shape.m, a.shape.n
    return grouped(a.shape, {
        monomial(((m + 1 - i, n + 1 - j), e) for (i, j), e in map(decode, mono)): c
        for mono, c in a.terms()
    })


@pytest.mark.parametrize("m,n,seed", [(3, 3, 11), (2, 4, 13)])
def test_flip_is_an_anti_automorphism(m, n, seed):
    s = Shape(m, n)
    rng = random.Random(seed)
    for _ in range(80):
        a = random_element(s, 3, rng)
        b = random_element(s, 3, rng)
        assert flip(flip(a)) == a
        assert flip(a * b) == flip(b) * flip(a)


def test_associativity_fuzz():
    s = Shape(3, 3)
    rng = random.Random(17)
    for _ in range(300):
        a, b, c = (random_element(s, 3, rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_a_scalar_factor_shifts_the_other_one():
    # the product's fast paths for a factor over the empty monomial alone
    s = Shape(3, 3)
    rng = random.Random(31)
    for c in (Q, Q_MINUS_QINV, LaurentScalar({-2: 3, 1: -1}), LaurentScalar()):
        scalar = AlgebraElement.from_scalar(s, c)
        for _ in range(20):
            a = random_element(s, 3, rng)
            assert scalar * a == a.scale(c) == a * scalar


def test_generator_triples_associate():
    """(a b) c = a (b c) for every ordered triple of generators of 3x3.  The
    triples with a > b > c are the overlap ambiguities of the rewriting
    system, so by Bergman's diamond lemma (Adv. Math. 29, 1978) this is its
    confluence on 3x3.

    It is the confluence on every m x n grid too.  Any three generators span
    at most three rows and three columns.  Rank compression, which renumbers
    those rows and those columns 1, 2, 3 in their order, is injective on the
    words over them.  It sends rules to rules: a rule depends only on how its
    indices compare, and its right side uses only the rows and columns of
    its left side.  So every overlap ambiguity of any grid, with each
    rewriting of it, is the image of one on 3x3, which resolves here."""
    s = Shape(3, 3)
    gens = [X(s, *g) for g in s.generators()]
    triples = list(itertools.product(gens, repeat=3))
    assert len(triples) == 729
    for a, b, c in triples:
        assert (a * b) * c == a * (b * c), (a, b, c)


def reference_sum(shape, signed):
    """Merge (element, sign) pairs monomial by monomial with LaurentScalar
    arithmetic, dropping what cancels; independent of the flat accumulator."""
    out = {}
    for a, sign in signed:
        for mono, c in a.terms():
            out[mono] = out.get(mono, LaurentScalar()) + c * sign
    return grouped(shape, out)


def stores_no_zero(a):
    return all(a._terms.values())


@st.composite
def elements_with_repeats(draw):
    """Elements over a small pool of monomials, listed with repeats and with
    negated copies, so that sums both merge and cancel."""
    s = draw(st.sampled_from([Shape(3, 3), Shape(2, 4)]))
    pool = [monomial(Counter(w).items())
            for w in ((), *([g] for g in s.generators()[:3]), [(1, 1), (2, 2)], [(2, 2), (2, 2)])]
    scalar = st.dictionaries(st.integers(-1, 1), st.sampled_from([-2, -1, 1, 2]), min_size=1, max_size=2)
    element = st.dictionaries(st.sampled_from(pool), scalar.map(LaurentScalar), max_size=3).map(
        lambda terms: grouped(s, terms))
    drawn = draw(st.lists(element, min_size=1, max_size=4))
    repeats = draw(st.lists(st.sampled_from(drawn), max_size=3))
    negated = [-x for x in draw(st.lists(st.sampled_from(drawn), max_size=3))]
    return s, draw(st.permutations(drawn + repeats + negated))


def test_a_shifted_sum_drops_what_cancels():
    # flat terms ((codes, q exponent), coefficient) times a scalar {q exponent:
    # coefficient}: a one-term scalar keeps no zero coefficient, as a longer one does not
    w = monomial([((1, 2), 1)])
    assert _shifted([(((), 0), 1)], {0: 0}) == {}
    assert _shifted([(((), 0), 0), ((w, 1), 1), (((), 1), 2)], {2: -1}) == {(w, 3): -1, ((), 3): -2}
    assert _shifted([(((), 0), 1), (((), 1), 1)], {0: 1, -1: -1}) == {((), 1): 1, ((), -1): -1}
    assert _shifted([((w, 0), 2)], {0: 1, 1: 0}) == {(w, 0): 2}


@settings(max_examples=80, deadline=None)
@given(elements_with_repeats())
def test_sums_match_a_reference_merge(case):
    s, elements = case
    a, b = elements[0], elements[-1]
    results = [
        (a + b, reference_sum(s, [(a, 1), (b, 1)])),
        (a - b, reference_sum(s, [(a, 1), (b, -1)])),
        (a - a, AlgebraElement.zero(s)),
        (AlgebraElement.sum(s, elements), reference_sum(s, [(x, 1) for x in elements])),
    ]
    for got, want in results:
        assert got == want
        assert stores_no_zero(got)


def test_bidegree_examples():
    s = Shape(2, 2)
    prod = X(s, 1, 2) * X(s, 2, 1)
    assert prod.bidegree_of() == Bidegree((1, 1), (1, 1))
    assert (X(s, 1, 1) + X(s, 2, 2)).bidegree_of() is None


def test_bidegree_additive_on_homogeneous_products():
    s = Shape(3, 3)
    rng = random.Random(23)
    gens = s.generators()
    for _ in range(100):
        g1, g2, g3 = (rng.choice(gens) for _ in range(3))
        a = gen(s, *g1) * gen(s, *g2)
        b = gen(s, *g3)
        da, db = a.bidegree_of(), b.bidegree_of()
        dp = (a * b).bidegree_of()
        assert dp is not None
        assert dp.rowdeg == tuple(x + y for x, y in zip(da.rowdeg, db.rowdeg))
        assert dp.coldeg == tuple(x + y for x, y in zip(da.coldeg, db.coldeg))


def brute_force_component(shape, d):
    """Independent enumeration: all exponent matrices with the given margins."""
    gens = shape.generators()
    total = sum(d.rowdeg)
    out = []
    for exps in itertools.product(range(total + 1), repeat=len(gens)):
        if sum(exps) != total:
            continue
        rows = [0] * shape.m
        cols = [0] * shape.n
        for (i, j), e in zip(gens, exps):
            rows[i - 1] += e
            cols[j - 1] += e
        if tuple(rows) == d.rowdeg and tuple(cols) == d.coldeg:
            out.append(monomial((g, e) for g, e in zip(gens, exps) if e))
    return sorted(out, key=sort_key)


def test_component_basis_against_brute_force():
    s = Shape(2, 2)
    d = Bidegree((1, 1), (1, 1))
    got = component_basis(s, d)
    assert got == brute_force_component(s, d)
    assert [render_monomial(m) for m in got] == ["X[1,1]*X[2,2]", "X[1,2]*X[2,1]"]

    s3 = Shape(3, 3)
    for d in [Bidegree((1, 1, 1), (1, 1, 1)), Bidegree((2, 1, 0), (1, 1, 1))]:
        assert component_basis(s3, d) == brute_force_component(s3, d)


def test_component_basis_edge_cases():
    s = Shape(2, 2)
    assert [render_monomial(m) for m in component_basis(s, Bidegree((1, 0), (1, 0)))] == ["X[1,1]"]
    assert component_basis(s, Bidegree((0, 0), (0, 0))) == [monomial(())]
    assert component_basis(s, Bidegree((1, 0), (0, 1))) == [monomial((((1, 2), 1),))]
    # mismatched total degrees give the empty component
    assert component_basis(s, Bidegree((1, 0), (1, 1))) == []


def test_monomial_count_is_stars_and_bars():
    for m, n in [(1, 1), (2, 2), (3, 3), (2, 3), (1, 9), (2, 4), (3, 2)]:
        if m * n > 9:
            continue
        for d in range(5):
            assert monomial_count(Shape(m, n), d) == comb(m * n + d - 1, d)
    assert monomial_count(Shape(2, 2), 2) == 10
    assert monomial_count(Shape(3, 3), 1) == 9
    assert monomial_count(Shape(4, 4), 0) == 1


def commutative_product(a_vals, b_vals):
    """Oracle: multiply q=1 specializations as commutative exponent dictionaries."""
    out = {}
    for ma, ca in a_vals.items():
        for mb, cb in b_vals.items():
            exps = {}
            for g, e in map(decode, ma):
                exps[g] = exps.get(g, 0) + e
            for g, e in map(decode, mb):
                exps[g] = exps.get(g, 0) + e
            key = monomial(exps.items())
            out[key] = out.get(key, 0) + ca * cb
    return {k: v for k, v in out.items() if v}


def test_q_one_specialization_commutes_with_multiplication():
    for s, seed, degree in [(Shape(3, 3), 31, 2), (Shape(2, 4), 37, 3)]:
        rng = random.Random(seed)
        for _ in range(60):
            a = random_element(s, degree, rng)
            b = random_element(s, degree, rng)
            assert (a * b).specialize(1) == commutative_product(a.specialize(1), b.specialize(1))


def test_kill_generator_is_multiplicative_into_the_quotient():
    # dropping corner terms after each product is the quotient-algebra product:
    # the span of corner-carrying monomials is a two-sided ideal, so the
    # specialization satisfies kill(a b) = kill(kill(a) kill(b))
    s = Shape(3, 3)
    corner = (1, 3)
    rng = random.Random(41)
    kill = lambda e: e.kill_generator(corner)
    for _ in range(60):
        a = random_element(s, 3, rng)
        b = random_element(s, 3, rng)
        assert kill(a * b) == kill(kill(a) * kill(b))


def test_corner_terms_form_an_ideal():
    # once a PBW term contains the corner generator, no rewrite removes it
    s = Shape(3, 3)
    corner = (1, 3)
    rng = random.Random(43)
    for _ in range(60):
        a = random_element(s, 3, rng)
        ideal_part = a - a.kill_generator(corner)
        b = random_element(s, 2, rng)
        assert (ideal_part * b).kill_generator(corner).is_zero()
        assert (b * ideal_part).kill_generator(corner).is_zero()


def test_render_matches_canonical_grammar():
    s = Shape(2, 2)
    e = X(s, 2, 2) * X(s, 1, 1)
    assert str(e) == "X[1,1]*X[2,2] - (q - q^-1)*X[1,2]*X[2,1]"
    assert str(AlgebraElement.zero(s)) == "0"
    assert str(AlgebraElement.one(s)) == "1"
    assert str(X(s, 1, 1) ** 2) == "X[1,1]^2"


# Letter codes: a monomial is a sorted tuple of ints, and every decoded view
# must match the ((i, j), e) pairs it was built from.

@st.composite
def monomial_pairs(draw):
    """Sorted ((i, j), e) pairs on a grid up to 63x63, exponents up to 2^18 - 1."""
    gens = draw(st.lists(
        st.tuples(st.integers(1, 63), st.integers(1, 63)), min_size=0, max_size=4, unique=True))
    exps = st.one_of(st.integers(1, 3), st.integers(1, 2**18 - 1))
    return tuple(sorted((g, draw(exps)) for g in gens))


@settings(max_examples=60, deadline=None)
@given(st.lists(monomial_pairs(), min_size=1, max_size=4))
def test_letter_codes_keep_the_order_and_the_decoded_views(all_pairs):
    monos = [monomial(pairs) for pairs in all_pairs]
    for pairs, mono in zip(all_pairs, monos):
        assert list(mono) == sorted(mono)
        assert tuple(map(decode, mono)) == pairs
        assert monomial(reversed(pairs)) == mono
        assert degree(mono) == sum(e for _, e in pairs)
        assert word(mono) == tuple(g for g, e in pairs for _ in range(e))
        assert render_monomial(mono) == ("*".join(f"X[{i},{j}]" + (f"^{e}" if e > 1 else "")
                                                  for (i, j), e in pairs) or "1")
        shape = Shape(63, 63)
        rows, cols = [0] * 63, [0] * 63
        for (i, j), e in pairs:
            rows[i - 1] += e
            cols[j - 1] += e
        assert bidegree(mono, shape) == Bidegree(tuple(rows), tuple(cols))
        for g, e in pairs:
            assert exponent(mono, g) == e
    by_code = sorted(monos, key=sort_key)
    by_word = sorted(monos, key=lambda m: (degree(m), word(m)))
    assert by_code == by_word


def test_letter_exponent_limit():
    s = Shape(2, 2)
    big = AlgebraElement(s, {(monomial((((1, 1), 2**17),)), 0): 1})
    with pytest.raises(ValueError, match="exponent limit"):
        big * big
    with pytest.raises(ValueError, match="exponent limit"):
        big ** 2
    with pytest.raises(ValueError):
        monomial((((1, 1), 2**18),))
    top = monomial((((1, 1), 2**18 - 1),))
    assert render_monomial(top) == f"X[1,1]^{2**18 - 1}"


def test_monomial_lists_each_generator_once():
    with pytest.raises(ValueError, match="once"):
        monomial((((1, 1), 1), ((1, 2), 1), ((1, 1), 2)))


def test_shape_limit():
    assert str(Shape(63, 63)) == "63x63"
    with pytest.raises(ValueError, match="too large"):
        Shape(64, 1)
    with pytest.raises(ValueError, match="too large"):
        Shape(1, 64)
