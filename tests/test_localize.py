"""Localization at the corner generator, derived generators, and minor reduction."""

import itertools
import random

import pytest

from qmv import laws
from qmv.algebra import AlgebraElement, Shape, gen, monomial, random_element
from qmv.localize import (
    LocalizedElement,
    _canonical,
    _localized_power,
    _localized_product,
    _localized_sum,
    _moved,
    _tau,
    _value,
    check_det_reduction,
    check_minor_commutation,
    check_minor_reduction,
    combined,
    expand_minor_without_corner,
    full_x_prime_determinant,
    minor_over_derived_generators,
    x_prime,
    x_prime_minor,
    x_prime_minor_substituted,
)
from qmv.minors import minor, qdet
from qmv.scalar import ONE, Q, Q_MINUS_QINV, QINV
from qmv.verify import run_suite


def flat(a: AlgebraElement):
    """The flat {(codes, q exponent): int} sum the element stores."""
    return a._terms


def tau(a: AlgebraElement, power: int = 1) -> AlgebraElement:
    return AlgebraElement(a.shape, _tau(flat(a), power, a.shape))


def inverse(shape: Shape, k: int = 1) -> LocalizedElement:
    """X[1,n]^-k."""
    return LocalizedElement(AlgebraElement.one(shape), k)


def test_tau_on_generators():
    s = Shape(3, 3)
    assert tau(gen(s, 1, 1)) == gen(s, 1, 1).scale(Q)
    assert tau(gen(s, 2, 1)) == gen(s, 2, 1)
    assert tau(gen(s, 1, 3)) == gen(s, 1, 3)
    assert tau(gen(s, 2, 3)) == gen(s, 2, 3).scale(QINV)


def test_tau_contract_fuzz():
    # a X[1,n] = X[1,n] tau(a), where a X[1,n] is both the kernel product and the
    # closed-form corner move
    rng = random.Random(9)
    for shape in (Shape(2, 2), Shape(3, 3), Shape(3, 4)):
        corner = gen(shape, 1, shape.n)
        for _ in range(170):
            a = random_element(shape, 3, rng)
            assert a * corner == corner * tau(a) == AlgebraElement(shape, _moved(flat(a), 1, shape.n))
            assert tau(tau(a, 1), -1) == a


def test_tau_to_the_zero_returns_its_argument():
    a = flat(minor(Shape(3, 3), (1, 2), (2, 3)))
    assert _tau(a, 0, Shape(3, 3)) is a
    assert _moved(a, 0, 3) is a


def test_tau_returns_an_element_no_term_of_which_moves():
    # every term of a minor through row 1 and column n has weight 0
    s = Shape(3, 3)
    a = minor(s, (1, 2), (2, 3))
    f = flat(a)
    assert _tau(f, 3, s) is f
    b = a + gen(s, 1, 1)
    assert tau(b, 2) == a + gen(s, 1, 1).scale(Q * Q)


def test_corner_factor_products_match_the_kernel():
    # c X[1,n]^d X[1,n]^-l on either side of f X[1,n]^-k, against the kernel
    # product f tau^k(g) X[1,n]^-(k+l)
    rng = random.Random(23)
    kernel = lambda a, b: LocalizedElement(a.numerator * tau(b.numerator, a.k), a.k + b.k)
    for shape in (Shape(3, 3), Shape(2, 4)):
        corner = gen(shape, 1, shape.n)
        for _ in range(12):
            f = LocalizedElement(random_element(shape, 3, rng), rng.randint(0, 2))
            for c in (ONE, -(Q * Q), ONE + Q):
                for d in range(3):
                    g = LocalizedElement((corner ** d).scale(c), rng.randint(0, 2))
                    assert combined(shape, (1, f, g)) == kernel(f, g)
                    assert combined(shape, (1, g, f)) == kernel(g, f)


def test_plain_left_operand_meets_a_localized_right_operand():
    rng = random.Random(17)
    s = Shape(3, 3)
    for right in (x_prime(s, 2, 1), x_prime_minor(s, (2, 3), (1, 2)), inverse(s)):
        a = random_element(s, 2, rng)
        # a plain element, its embedding and its flat value make the same terms
        for lifted in (LocalizedElement(a), _value(a, s)):
            assert combined(s, (1, a), (1, right)) == combined(s, (1, lifted), (1, right))
            assert combined(s, (1, a), (-1, right)) == combined(s, (1, lifted), (-1, right))
            assert combined(s, (1, a, right)) == combined(s, (1, lifted, right))


def test_the_operators_kept_for_the_tracer_are_combined():
    rng = random.Random(53)
    s = Shape(3, 3)
    for _ in range(10):
        a = LocalizedElement(random_element(s, 2, rng), rng.randint(0, 2))
        b = random_element(s, 2, rng)
        assert a * b == combined(s, (1, a, b))
        assert a + b == combined(s, (1, a), (1, b))


def test_corner_closed_form_matches_the_kernel():
    rng = random.Random(41)
    for shape in (Shape(3, 3), Shape(2, 4)):
        corner = gen(shape, 1, shape.n)
        for _ in range(30):
            a = random_element(shape, 3, rng)
            f, via_kernel = flat(a), a
            for d in range(4):
                assert AlgebraElement(shape, _moved(f, d, shape.n)) == via_kernel
                assert _moved(_moved(f, d, shape.n), -d, shape.n) == f
                assert combined(shape, (1, a, corner ** d)) == LocalizedElement(via_kernel)
                via_kernel = via_kernel * corner


def test_canonical_form_strips_the_smallest_corner_power():
    s = Shape(3, 3)
    mono = lambda *pairs: monomial(pairs)
    f = AlgebraElement(s, {
        (mono(((1, 1), 1), ((1, 3), 2), ((2, 3), 1), ((3, 1), 1)), 0): 1,
        (mono(((1, 3), 3), ((3, 3), 2)), 0): 1,
    })
    got = LocalizedElement(f, 4)
    # X[1,3]^-2 passes X[2,3] (q^2) in the first term and X[3,3]^2 (q^4) in the second
    assert got.k == 2
    assert got.numerator == AlgebraElement(s, {
        (mono(((1, 1), 1), ((2, 3), 1), ((3, 1), 1)), 2): 1,
        (mono(((1, 3), 1), ((3, 3), 2)), 4): 1,
    })
    assert LocalizedElement(f, 1).k == 0


def test_difference_matches_sum_with_the_negation():
    s = Shape(3, 3)
    rng = random.Random(13)
    for _ in range(30):
        a = LocalizedElement(random_element(s, 3, rng), rng.randint(0, 3))
        b = LocalizedElement(random_element(s, 3, rng), rng.randint(0, 3))
        # a scalar -1 on a term is the negated numerator
        assert combined(s, (1, a), (-1, b)) == combined(s, (1, a), (1, LocalizedElement(-b.numerator, b.k)))
        zero = combined(s, (1, a), (-1, a))
        assert zero.is_zero() and zero.k == 0
        assert combined(s, (1, b.numerator), (-1, a)) == combined(s, (-1, combined(s, (1, a), (-1, b.numerator))))


def test_corner_inverse_cancels():
    s = Shape(3, 3)
    one = LocalizedElement(AlgebraElement.one(s))
    corner = gen(s, 1, 3)
    assert combined(s, (1, corner, inverse(s))) == one
    assert combined(s, (1, inverse(s), corner)) == one
    assert combined(s, (1, inverse(s, 2), corner, corner)) == one
    assert LocalizedElement(gen(s, 1, 3), 1) == one


def test_embedding_is_a_ring_map():
    s = Shape(2, 3)
    rng = random.Random(13)
    for _ in range(40):
        f, g = random_element(s, 2, rng), random_element(s, 2, rng)
        embedded = LocalizedElement(f), LocalizedElement(g)
        assert combined(s, (1, *embedded)) == LocalizedElement(f * g)
        assert combined(s, *((1, x) for x in embedded)) == LocalizedElement(f + g)


def test_twisted_fraction_product():
    # X[1,1] X[1,n]^-1 moves the corner inverse across with a q-twist:
    # X[1,n] (X[1,1] X[1,n]^-1) = q^-1 X[1,1]
    s = Shape(2, 2)
    frac = combined(s, (1, gen(s, 1, 1), inverse(s)))
    assert frac.k == 1 and frac.numerator == gen(s, 1, 1)
    assert combined(s, (1, gen(s, 1, 2), frac)) == LocalizedElement(gen(s, 1, 1).scale(QINV))


def test_canonical_form_soundness():
    s = Shape(3, 3)
    corner = gen(s, 1, 3)
    rng = random.Random(29)
    for _ in range(40):
        f = random_element(s, 3, rng)
        for k in (0, 1, 2):
            assert LocalizedElement(f * corner, k + 1) == LocalizedElement(f, k)


def test_localized_arithmetic_returns_canonical_values():
    # every flat product, sum and power comes back as its own canonical form,
    # whatever corner powers the numerators of its operands hold
    rng = random.Random(47)
    for shape in (Shape(2, 2), Shape(2, 3), Shape(3, 3), Shape(3, 4)):
        n, corner, one = shape.n, gen(shape, 1, shape.n), AlgebraElement.one(shape)
        value = lambda f, k=0: _canonical((flat(f), k), n)
        negated = lambda v: ({key: -c for key, c in v[0].items()}, v[1])
        # X[1,n] inv1n - 1 + X[1,n] is X[1,n]: the product strips to 1, which cancels
        unit = _localized_product(shape, value(corner), value(one, 1))
        assert unit == value(one) == (flat(one), 0)
        assert _localized_sum(shape, unit, value(-one), value(corner)) == (flat(corner), 0)
        # (X[2,1] + X[1,n]^2) inv1n - X[2,1] inv1n: only the corner term is left
        lifted = value(gen(shape, 2, 1) + corner ** 2, 1)
        assert _localized_sum(shape, lifted, value(-gen(shape, 2, 1), 1)) == (flat(corner), 0)
        results = []
        for _ in range(25):
            a, b = (value(random_element(shape, 2, rng) * corner ** rng.randint(0, 2),
                          rng.randint(0, 3)) for _ in range(2))
            results += [_localized_product(shape, a, b), _localized_product(shape, b, a),
                        _localized_sum(shape, a, b), _localized_sum(shape, a, negated(a)),
                        _localized_power(shape, a, rng.randint(0, 2))]
            assert _localized_sum(shape, a, negated(a)) == ({}, 0)
        assert all(result == _canonical(result, n) for result in results)


def test_scalar_operations_keep_the_canonical_form():
    # negation and scaling agree with the canonical form of the scaled
    # numerator, with the scalar as a term's coefficient or as a factor on
    # either side, and a zero scalar leaves k = 0
    s = Shape(3, 3)
    rng = random.Random(43)
    seen = set()
    for k in (0, 1, 2):
        for _ in range(15):
            x = LocalizedElement(random_element(s, 3, rng) + gen(s, 2, 1), k)
            seen.add(x.k)
            want, got = LocalizedElement(-x.numerator, x.k), combined(s, (-1, x))
            assert (got.numerator, got.k) == (want.numerator, want.k)
            for c in (0, ONE, Q, Q_MINUS_QINV):
                want, scalar = LocalizedElement(x.numerator.scale(c), x.k), AlgebraElement.from_scalar(s, c)
                for got in (combined(s, (c, x)), combined(s, (1, x, scalar)), combined(s, (1, scalar, x))):
                    assert (got.numerator, got.k) == (want.numerator, want.k), (c, x)
    assert seen == {0, 1, 2}


def test_equality_matches_cross_multiplication():
    s = Shape(3, 3)
    corner = gen(s, 1, 3)
    rng = random.Random(37)
    for _ in range(40):
        f, g = random_element(s, 2, rng), random_element(s, 2, rng)
        for k, l in ((0, 1), (1, 1), (2, 1)):
            lhs = LocalizedElement(f, k)
            rhs = LocalizedElement(g, l)
            assert (lhs == rhs) == ((f * corner**l) == (g * corner**k))


def test_a_plain_element_hashes_as_its_localized_form():
    # equal values hash alike, so a set holds a plain element and its
    # localized form once; a proper fraction hashes apart from its numerator
    s = Shape(3, 3)
    rng = random.Random(41)
    for _ in range(10):
        a = random_element(s, 2, rng)
        assert a == LocalizedElement(a) and hash(a) == hash(LocalizedElement(a))
        assert len({a, LocalizedElement(a)}) == 1
    corner = gen(s, 1, 3)
    fraction = LocalizedElement(gen(s, 2, 1), 1)
    assert fraction.k == 1 and len({fraction, gen(s, 2, 1), LocalizedElement(corner, 1)}) == 3


def test_x_prime_two_by_two():
    s = Shape(2, 2)
    got = x_prime(s, 2, 1)
    want = combined(s, (1, gen(s, 2, 1)), (-QINV, gen(s, 1, 1), gen(s, 2, 2), inverse(s)))
    assert got == want


def test_x_prime_both_forms_and_corner_commutation():
    for shape in (Shape(2, 2), Shape(3, 3), Shape(3, 4), Shape(4, 4)):
        corner = gen(shape, 1, shape.n)
        for i in range(2, shape.m + 1):
            for j in range(1, shape.n):
                xp = x_prime(shape, i, j)
                assert combined(shape, (1, xp, corner)) == combined(shape, (1, corner, xp))
        # lemma111 reports the agreement of both defining forms, one check per entry
        report = run_suite("lemma111", m=shape.m, n=shape.n)
        forms = [c for c in report.checks if " = -q^-1 [1," in c.name]
        assert len(forms) == (shape.m - 1) * (shape.n - 1)
        assert all(c.ok for c in forms), [c.name for c in forms if not c.ok]


def test_x_prime_index_validation():
    with pytest.raises(ValueError):
        x_prime(Shape(3, 3), 1, 1)
    with pytest.raises(ValueError):
        x_prime(Shape(3, 3), 2, 3)


def test_x_prime_minor_one_by_one():
    s = Shape(3, 3)
    assert x_prime_minor(s, (2,), (1,)) == x_prime(s, 2, 1)


def test_x_prime_minor_substitution_cross_check():
    s = Shape(3, 3)
    for rows, cols in (((2,), (2,)), ((2, 3), (1, 2)), ((3,), (1,))):
        assert x_prime_minor(s, rows, cols) == x_prime_minor_substituted(s, rows, cols)
    # every derived minor of 4x4, and the full derived determinant of 5x5
    s4 = Shape(4, 4)
    derived = [
        (rows, cols)
        for t in (1, 2, 3)
        for rows in itertools.combinations(range(2, 5), t)
        for cols in itertools.combinations(range(1, 4), t)
    ]
    assert len(derived) == 19
    for rows, cols in derived:
        assert x_prime_minor(s4, rows, cols) == x_prime_minor_substituted(s4, rows, cols), (rows, cols)
    s5 = Shape(5, 5)
    full = ((2, 3, 4, 5), (1, 2, 3, 4))
    assert full_x_prime_determinant(s5) == x_prime_minor_substituted(s5, *full)


def test_cached_minors_are_not_changed_by_callers():
    s = Shape(4, 4)
    first = x_prime_minor(s, (2, 3), (1, 3))
    text = str(first)
    _ = combined(s, (-1, first))
    _ = combined(s, (Q, first))
    _ = combined(s, (1, first, gen(s, 1, 1)), (1, first))
    again = x_prime_minor(s, (2, 3), (1, 3))
    assert str(again) == text
    assert again == x_prime_minor_substituted(s, (2, 3), (1, 3))
    entry = x_prime(s, 2, 1)
    _ = combined(s, (-1, entry))
    _ = combined(s, (QINV, entry, gen(s, 1, 1)))
    assert x_prime(s, 2, 1) == x_prime_minor_substituted(s, (2,), (1,))


def test_x_prime_minor_commutes_with_corner():
    s = Shape(3, 3)
    corner = gen(s, 1, 3)
    mp = x_prime_minor(s, (2, 3), (1, 2))
    assert combined(s, (1, mp, corner)) == combined(s, (1, corner, mp))


def test_det_reduction_hand_expansion_at_two():
    # X'[2,1] X[1,2] = -q^-1 (X[1,1] X[2,2] - q X[1,2] X[2,1])
    s = Shape(2, 2)
    lhs = combined(s, (1, x_prime(s, 2, 1), gen(s, 1, 2)))
    rhs = LocalizedElement(qdet(s).scale(-QINV))
    assert lhs == rhs


@pytest.mark.parametrize("n", [2, 3, 6])
def test_det_reduction(n):
    for check in check_det_reduction(n):
        assert check.ok, check.name


def test_minor_reduction_examples():
    s = Shape(2, 2)
    for check in check_minor_reduction(s, (1, 2), (1, 2)):
        assert check.ok, check.name
    s4 = Shape(4, 4)
    for check in check_minor_reduction(s4, (1, 3), (2, 4)):
        assert check.ok, check.name
    s3 = Shape(3, 3)
    for check in check_minor_reduction(s3, (1, 2, 3), (1, 2, 3)):
        assert check.ok, check.name


def test_minor_reduction_validation():
    with pytest.raises(ValueError):
        check_minor_reduction(Shape(3, 3), (2, 3), (1, 3))


def _expansion_claims(shape, rows, cols):
    """The claims of the expansion checks, each asserted to pass; the last,
    "rewriting agrees", is the rewriting equal to the minor itself."""
    checks = expand_minor_without_corner(shape, rows, cols)
    assert all(c.ok for c in checks), [c.name for c in checks if not c.ok]
    return [c.name.split(": ", 1)[1] for c in checks]


def test_expansion_case_missing_column():
    assert _expansion_claims(Shape(3, 3), (1, 2), (1, 2)) == [
        "row-1 expansion vanishes", "rewriting agrees"]


def test_expansion_case_missing_row():
    assert _expansion_claims(Shape(3, 3), (2, 3), (1, 3)) == [
        "column-n expansion vanishes", "rewriting agrees"]


def test_expansion_case_missing_both():
    assert _expansion_claims(Shape(3, 3), (2, 3), (1, 2)) == [
        "first-row expansion of the enlarged minor",
        "last-row expansion of the enlarged minor",
        "rewriting agrees"]


def test_expansion_rejects_corner_minor():
    with pytest.raises(ValueError):
        expand_minor_without_corner(Shape(3, 3), (1, 2), (1, 3))


def test_minor_over_derived_generators_all_cases():
    s = Shape(3, 3)
    for rows, cols in (((1, 2), (1, 3)), ((1, 2), (1, 2)), ((2, 3), (1, 3)), ((2, 3), (1, 2))):
        cofactors, check = minor_over_derived_generators(s, rows, cols)
        assert check.ok, check.name
        assert cofactors


@pytest.mark.parametrize("law, position, cases", [
    # A constant shift would cancel in e(b) - e(last); perturb by the squared position.
    ("lemma23-eq1", "b", (((1, 2), (1, 2)), ((2, 3), (1, 2)))),
    ("col-laplace", "i", (((2, 3), (1, 3)), ((2, 3), (1, 2)))),
])
def test_cofactor_check_catches_a_wrong_law(monkeypatch, law, position, cases):
    # Each case is missing-column, missing-row or missing-both; the returned
    # check alone must expose cofactors built from a wrong law.
    frozen = laws.exponent

    def perturbed(family, indices):
        bump = indices[position] ** 2 if family == law else 0
        return frozen(family, indices) + bump

    monkeypatch.setattr(laws, "exponent", perturbed)
    for rows, cols in cases:
        _, check = minor_over_derived_generators(Shape(3, 3), rows, cols)
        assert not check.ok and check.witness, (law, rows, cols)


def test_commutation_clean_twists():
    s = Shape(3, 3)
    # column inside the minor: q^-1; row inside the minor: q
    assert check_minor_commutation(s, (2,), (1,), (1, 1)).ok
    assert check_minor_commutation(s, (2,), (1,), (2, 3)).ok
    clean = check_minor_commutation(s, (2, 3), (1, 2), (1, 2))
    assert clean.ok and "twist" in clean.name


def test_commutation_correction_sums():
    s = Shape(3, 4)
    # two-term correction: l outside the column set with two smaller columns inside
    check = check_minor_commutation(s, (2, 3), (1, 2), (1, 3))
    assert check.ok and "correction" in check.name
    check = check_minor_commutation(Shape(4, 3), (3, 4), (1, 2), (2, 3))
    assert check.ok


def test_commutation_rejects_inner_generator():
    with pytest.raises(ValueError):
        check_minor_commutation(Shape(3, 3), (2,), (1,), (2, 2))


def test_full_x_prime_determinant_matches_minor():
    s = Shape(3, 3)
    assert full_x_prime_determinant(s) == x_prime_minor(s, (2, 3), (1, 2))
