"""Exact Laurent-coefficient arithmetic."""

import random
from fractions import Fraction

import pytest

from qmv.scalar import LaurentScalar, ScalarFraction, ONE, Q, QINV, ZERO

mq = LaurentScalar.minus_q_power
qp = LaurentScalar.q_power


def test_additive_inverse_cancels():
    assert (Q - QINV) + (QINV - Q) == ZERO
    assert not (Q - QINV) + (QINV - Q)


def test_add_merges_terms():
    assert Q + Q == LaurentScalar({1: 2})
    assert (qp(2) + ONE) + LaurentScalar.from_int(-1) == qp(2)


def test_difference_of_squares():
    assert (Q - QINV) * (Q + QINV) == qp(2) - qp(-2)


def test_reduction_scalar_for_smallest_square():
    # (-q)^(1-n) at n = 2
    assert mq(1 - 2) == -qp(-1)
    assert mq(-1) * Q == LaurentScalar.from_int(-1)


def test_zero_absorbs():
    assert ZERO * qp(5) == ZERO
    assert not ZERO * qp(5)


def test_minus_q_power_is_multiplicative():
    for a in range(-6, 7):
        for b in range(-6, 7):
            assert mq(a) * mq(b) == mq(a + b)


@pytest.mark.parametrize("q0,expected", [(1, 0), (2, Fraction(3, 2))])
def test_eval_examples(q0, expected):
    assert (Q - QINV).evaluate(q0) == expected


def test_eval_more_examples():
    assert (ONE - qp(2)).evaluate(1) == 0
    assert qp(2).evaluate(2) == 4
    with pytest.raises(ValueError):
        Q.evaluate(0)


def test_eval_is_ring_homomorphism():
    rng = random.Random(11)
    points = [Fraction(1), Fraction(2), Fraction(-3, 5)]
    for _ in range(200):
        a = LaurentScalar({rng.randint(-4, 4): rng.randint(-5, 5) for _ in range(3)})
        b = LaurentScalar({rng.randint(-4, 4): rng.randint(-5, 5) for _ in range(3)})
        for q0 in points:
            assert (a + b).evaluate(q0) == a.evaluate(q0) + b.evaluate(q0)
            assert (a * b).evaluate(q0) == a.evaluate(q0) * b.evaluate(q0)


def test_ring_axioms_on_random_triples():
    rng = random.Random(5)
    for _ in range(300):
        a, b, c = (
            LaurentScalar({rng.randint(-3, 3): rng.randint(-4, 4) for _ in range(2)})
            for _ in range(3)
        )
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert a + b == b + a


def test_render_increasing_and_decreasing():
    s = -qp(-1) + LaurentScalar.from_int(2) + qp(3)
    assert s.render() == "-q^-1 + 2 + q^3"
    assert s.render(increasing=False) == "q^3 + 2 - q^-1"
    assert str(ZERO) == "0"
    assert (Q - QINV).render(increasing=False) == "q - q^-1"


def test_as_minus_q_power():
    assert mq(3).as_minus_q_power() == 3
    assert mq(-2).as_minus_q_power() == -2
    assert (Q + ONE).as_minus_q_power() is None
    assert LaurentScalar({1: 2}).as_minus_q_power() is None


def test_power():
    assert (Q + QINV) ** 2 == qp(2) + LaurentScalar.from_int(2) + qp(-2)
    assert (Q - QINV) ** 0 == ONE
    with pytest.raises(ValueError):
        (Q + ONE) ** -1


class TestScalarFraction:
    def test_equality_by_cross_multiplication(self):
        # q / 1 == q^2 / q without any reduction
        assert ScalarFraction(Q) == ScalarFraction(qp(2), Q)
        assert ScalarFraction(Q, Q - QINV) != ScalarFraction(ONE)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            ScalarFraction(ONE, ZERO)

    def test_field_arithmetic(self):
        a = ScalarFraction(ONE, Q - QINV)
        b = ScalarFraction(Q, Q - QINV)
        assert a + b == ScalarFraction(ONE + Q, Q - QINV)
        assert (a * b) / b == a
        assert a - a == ScalarFraction(ZERO)

    def test_as_scalar(self):
        assert ScalarFraction(qp(3), -Q).as_scalar() == -qp(2)
        assert ScalarFraction(Q * (Q - QINV), Q - QINV).as_scalar() == Q
        assert ScalarFraction(ONE, Q + ONE).as_scalar() is None

    def test_as_scalar_divides_laurent_polynomials(self):
        one_plus_q = ONE + Q
        assert ScalarFraction(one_plus_q * one_plus_q, one_plus_q).as_scalar() == one_plus_q
        assert ScalarFraction(ZERO, one_plus_q).as_scalar() == ZERO
        # integer leading coefficients must divide, and so must the whole remainder
        assert ScalarFraction(LaurentScalar({-2: 4, 3: 6}), LaurentScalar({-1: 2})).as_scalar() \
            == LaurentScalar({-1: 2, 4: 3})
        assert ScalarFraction(LaurentScalar({-2: 4, 3: 6}), LaurentScalar({-1: 4})).as_scalar() is None
        assert ScalarFraction(one_plus_q * one_plus_q + ONE, one_plus_q).as_scalar() is None
        assert ScalarFraction(Q - QINV, ONE - Q).as_scalar() == -(QINV + ONE)

    def test_as_scalar_recovers_random_quotients(self):
        rng = random.Random(7)
        for _ in range(200):
            a, b = (LaurentScalar({rng.randint(-4, 4): rng.randint(-5, 5) for _ in range(3)})
                    for _ in range(2))
            if b:
                k = rng.randint(-3, 3)
                assert ScalarFraction(a * b, b).as_scalar() == a
                assert ScalarFraction(-(a * b), b * qp(k)).as_scalar() == -(a * qp(-k))


def test_scalar_on_the_left_of_an_element():
    # the scalar declines an element operand, so the element's reflected method runs
    from qmv.algebra import Shape, gen
    from qmv.localize import LocalizedElement

    s = Shape(2, 3)
    x = gen(s, 1, 2) * gen(s, 2, 1) + gen(s, 2, 3).scale(QINV)
    for element in (x, LocalizedElement(x, 1)):
        for c in (Q, QINV - Q, ZERO, ONE):
            assert c * element == element.scale(c)
        for op in ("__add__", "__sub__", "__rsub__", "__mul__"):
            assert getattr(Q, op)(element) is NotImplemented
        with pytest.raises(TypeError):
            Q + element


@pytest.mark.parametrize("q0", [1, -1, 2, -3, Fraction(5, 7)])
def test_evaluation_matches_the_fraction_sum(q0):
    # an integer q0 is summed in integers, over q0 to the lowest exponent
    rng = random.Random(f"evaluate {q0}")
    for _ in range(200):
        s = LaurentScalar({rng.randint(-6, 6): rng.randint(-9, 9) for _ in range(rng.randint(0, 5))})
        got = s.evaluate(q0)
        assert type(got) is Fraction
        assert got == sum((c * Fraction(q0) ** e for e, c in s.items()), Fraction(0))


@pytest.mark.parametrize("q0", [0, Fraction(0)])
def test_evaluation_at_zero_is_refused(q0):
    with pytest.raises(ValueError, match="q = 0"):
        (Q + QINV).evaluate(q0)
