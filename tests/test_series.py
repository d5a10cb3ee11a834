import cmath
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from zalcman.herglotz import DEFAULT_ORDER
from zalcman.series import (
    NearSingularDivision,
    NonzeroConstantTerm,
    TruncatedSeries,
)

from support import unit_complex


def coeff_lists(min_size=1, max_size=8):
    return st.lists(unit_complex, min_size=min_size, max_size=max_size)


def padded(coeffs, order):
    """The series c_0..c_order: ``coeffs`` followed by zeros."""
    return TruncatedSeries(tuple(coeffs) + (0,) * (order + 1 - len(coeffs)))


def product(a, b, order):
    """Cauchy product of two coefficient sequences, through ``order``."""
    return np.convolve(a, b)[: order + 1]


def test_construction_and_order():
    s = TruncatedSeries((1, 2, 3))
    assert s.order == 2
    assert s.coeffs == (1 + 0j, 2 + 0j, 3 + 0j)
    with pytest.raises(ValueError):
        TruncatedSeries(())


def test_div_truncates_to_min_order():
    a = TruncatedSeries((1, 1))
    b = TruncatedSeries((1, 1, 1, 1))
    assert (a / b).order == 1
    assert (b / a).order == 1


def test_div_geometric_series():
    one = TruncatedSeries((1, 0, 0, 0, 0, 0, 0))
    one_minus_z = TruncatedSeries((1, -1, 0, 0, 0, 0, 0))
    geo = one / one_minus_z
    assert geo.coeffs == (1,) * 7


def test_div_near_singular_raises():
    a = TruncatedSeries((1, 0))
    with pytest.raises(NearSingularDivision):
        a / TruncatedSeries((1e-13, 1))
    with pytest.raises(NearSingularDivision):
        a / TruncatedSeries((0, 1))


def test_exp_of_z_gives_factorials():
    e = TruncatedSeries((0, 1, 0, 0, 0, 0, 0, 0)).exp()
    for k, c in enumerate(e.coeffs):
        assert abs(c - 1.0 / math.factorial(k)) < 1e-15


def test_exp_rejects_nonzero_constant():
    with pytest.raises(NonzeroConstantTerm):
        TruncatedSeries((0.5, 1)).exp()


def test_eval_is_horner_polynomial():
    s = TruncatedSeries((1, 2, 3))
    zeta = 0.5 + 0.25j
    assert s(zeta) == 1 + 2 * zeta + 3 * zeta * zeta


@given(
    coeff_lists(),
    st.builds(
        complex,
        st.floats(min_value=0.5, max_value=2.0),
        st.floats(min_value=-0.5, max_value=0.5),
    ),
    coeff_lists(min_size=0, max_size=7),
)
def test_div_mul_roundtrip(xs, b0, btail):
    # Division is backward stable only when the leading denominator
    # coefficient is well away from the DIV_EPS cutoff.
    a = TruncatedSeries(tuple(xs))
    b = padded(([b0] + btail)[: a.order + 1], a.order)
    q = a / b
    assert np.allclose(product(q.coeffs, b.coeffs, a.order), a.coeffs, rtol=0, atol=1e-10)


@given(st.lists(unit_complex, min_size=1, max_size=18))
def test_exp_matches_pointwise_exponential(xs):
    # The truncation tail of exp at order n is governed by sum |a|^k |zeta|^n;
    # order 18 keeps it below 1e-8 for unit coefficients on |zeta| <= 0.3.
    a = padded([0] + xs, 18)
    e = a.exp()
    for zeta in (0.3, -0.3, 0.2 + 0.2j, 0.25j):
        assert abs(e(zeta) - cmath.exp(a(zeta))) < 1e-8


@given(st.lists(st.builds(complex, st.floats(-0.003, 0.003), st.floats(-0.003, 0.003)),
                min_size=1, max_size=7))
def test_exp_matches_pointwise_at_default_order_for_small_coeffs(xs):
    # At the default order the dropped cross terms enter at degree 8, so
    # the coefficient budget has to be small; 0.003 keeps the worst-case
    # tail below 3e-9 on |zeta| <= 0.3.
    a = padded([0] + xs, DEFAULT_ORDER)
    e = a.exp()
    for zeta in (0.3, -0.3, 0.15 + 0.15j):
        assert abs(e(zeta) - cmath.exp(a(zeta))) < 1e-8


@given(coeff_lists())
def test_exp_of_negation_is_reciprocal(xs):
    a = padded([0] + xs, 8)
    minus_a = TruncatedSeries(tuple(-c for c in a.coeffs))
    lhs = product(a.exp().coeffs, minus_a.exp().coeffs, 8)
    assert np.allclose(lhs, [1] + [0] * 8, rtol=0, atol=1e-10)
