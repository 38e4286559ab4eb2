"""The flat kernels that enumerate or read PBW elements, each against an
independent oracle: graded bases against a count of contingency tables and a
generator filter, ``bidegree_of`` and ``kill_generator`` against the
per-monomial decoders, and ``specialize`` against the ring coefficients."""

import itertools
import random
from fractions import Fraction
from functools import lru_cache
from math import factorial

import pytest

from qmv.algebra import (
    AlgebraElement,
    Bidegree,
    Shape,
    _grouped,
    bidegree,
    component_basis,
    exponent,
    gen,
    monomial,
    random_element,
    sort_key,
)
from qmv.minors import laplace_expand_row, minor
from qmv.scalar import LaurentScalar, Q, QINV


def table_count(rowdeg: tuple[int, ...], coldeg: tuple[int, ...]) -> int:
    """The number of nonnegative integer matrices with these row and column
    sums, row by row over every bounded composition of each row sum."""

    @lru_cache(maxsize=None)
    def count(i: int, cols: tuple[int, ...]) -> int:
        if i == len(rowdeg):
            return int(not any(cols))
        return sum(count(i + 1, tuple(c - x for c, x in zip(cols, row)))
                   for row in itertools.product(*(range(c + 1) for c in cols))
                   if sum(row) == rowdeg[i])

    return count(0, coldeg)


def margins(k: int) -> list[tuple[int, ...]]:
    return list(itertools.product(range(3), repeat=k))


@pytest.mark.parametrize("m, n", [(3, 4), (4, 3)])
def test_component_basis_is_every_table_once_in_sort_order(m, n):
    shape = Shape(m, n)
    for rowdeg, coldeg in itertools.product(margins(m), margins(n)):
        d = Bidegree(rowdeg, coldeg)
        basis = component_basis(shape, d)
        if sum(rowdeg) != sum(coldeg):
            assert basis == []
            continue
        assert all(bidegree(mono, shape) == d for mono in basis)
        assert all(sort_key(a) < sort_key(b) for a, b in zip(basis, basis[1:]))  # sorted, distinct
        assert len(basis) == table_count(rowdeg, coldeg), d


@pytest.mark.parametrize("m, n", [(3, 4), (4, 3)])
def test_an_excluded_generator_is_a_zero_capacity(m, n):
    shape = Shape(m, n)
    rng = random.Random(m * 10 + n)
    for rowdeg, coldeg in itertools.product(margins(m), margins(n)):
        if sum(rowdeg) != sum(coldeg):
            continue
        d = Bidegree(rowdeg, coldeg)
        g = (rng.randint(1, m), rng.randint(1, n))
        assert component_basis(shape, d, g) == [
            mono for mono in component_basis(shape, d) if exponent(mono, g) == 0], (d, g)


def test_the_six_by_six_beta_component():
    # rows 2..6 matched to columns 1..5: one monomial per permutation
    shape = Shape(6, 6)
    beta = Bidegree((0,) + (1,) * 5, (1,) * 5 + (0,))
    basis = component_basis(shape, beta)
    assert len(basis) == factorial(5) == table_count(beta.rowdeg, beta.coldeg)
    assert basis == sorted(basis, key=sort_key)
    assert all(bidegree(mono, shape) == beta for mono in basis)
    assert component_basis(shape, beta, (6, 6)) == basis
    assert len(component_basis(shape, beta, (2, 1))) == factorial(5) - factorial(4)
    alpha = Bidegree((0,) * 5 + (1,), (0,) * 5 + (1,))
    assert component_basis(shape, alpha) == [monomial((((6, 6), 1),))]
    assert component_basis(shape, alpha, (6, 6)) == []


def common_bidegree(element: AlgebraElement) -> Bidegree | None:
    degrees = {bidegree(mono, element.shape) for mono, _ in element._terms}
    return degrees.pop() if len(degrees) == 1 else None


def sample_elements() -> list[AlgebraElement]:
    """Homogeneous, inhomogeneous and zero elements, with exponents above one."""
    s, t = Shape(3, 3), Shape(3, 4)
    rng = random.Random(7)
    out = [AlgebraElement.zero(s), AlgebraElement.one(s), minor(s, (1, 2, 3), (1, 2, 3)),
           minor(t, (1, 3), (2, 4)), gen(s, 2, 2) * gen(s, 1, 1) * gen(s, 2, 2),
           gen(s, 1, 1) + gen(s, 2, 2), gen(t, 1, 1) * gen(t, 1, 2) - gen(t, 1, 1) * gen(t, 2, 1),
           (gen(s, 3, 1) * gen(s, 1, 3)).scale(Q - QINV) + gen(s, 1, 1) ** 2]
    out += [random_element(shape, 4, rng) for shape in (s, t) for _ in range(40)]
    return out


def test_bidegree_of_is_the_common_bidegree_of_the_monomials():
    for element in sample_elements():
        assert element.bidegree_of() == common_bidegree(element), element


def test_bidegree_of_holds_the_largest_row_and_column_degrees():
    # 63 letters of the largest exponent in row 1 and in column 1: the
    # largest degrees a row or a column can reach
    top = 2**18 - 1
    shape = Shape(63, 63)
    row = monomial(((1, j), top) for j in range(1, 64))
    col = monomial(((i, 1), top) for i in range(1, 64))
    for monos in ([row], [col], [row, col], [row, monomial((((1, 1), top),))]):
        element = AlgebraElement(shape, {(mono, 0): 1 for mono in monos})
        assert element.bidegree_of() == common_bidegree(element)
    assert AlgebraElement(shape, {(row, 0): 1}).bidegree_of().rowdeg[0] == 63 * top


def test_kill_generator_drops_exactly_the_monomials_with_the_generator():
    for element in sample_elements():
        shape = element.shape
        for g in shape.generators():
            want = {key: c for key, c in element._terms.items() if exponent(key[0], g) == 0}
            assert element.kill_generator(g)._terms == want, (element, g)


def evaluated(element: AlgebraElement, q0) -> dict:
    values = ((mono, coeff.evaluate(q0)) for mono, coeff in _grouped(element._terms).items())
    return {mono: v for mono, v in values if v}


@pytest.mark.parametrize("q0", [1, 2, -1, 3, Fraction(5, 7)])
def test_specialize_evaluates_each_ring_coefficient(q0):
    s = Shape(4, 4)
    elements = sample_elements() + [
        laplace_expand_row(s, 1, 1),
        # coefficients vanishing at q0 = 1 and at q0 = -1
        AlgebraElement(s, {**gen(s, 1, 2).scale(Q - QINV)._terms,
                           **gen(s, 2, 1).scale(LaurentScalar({0: 1, 2: -1}))._terms,
                           **gen(s, 3, 3).scale(LaurentScalar({-3: 5, 4: 2}))._terms})]
    for element in elements:
        got, want = element.specialize(q0), evaluated(element, q0)
        assert got == want and list(got) == list(want), element
        assert all(type(v) is Fraction for v in got.values())


def test_specialize_at_zero_refuses_a_nonzero_element():
    s = Shape(2, 2)
    with pytest.raises(ValueError, match="q = 0"):
        gen(s, 1, 1).specialize(0)
    with pytest.raises(ValueError, match="q = 0"):
        gen(s, 1, 1).specialize(Fraction(0))
    assert AlgebraElement.zero(s).specialize(0) == {}
