import itertools
import math

import pytest
from hypothesis import given, strategies as st

from zalcman import (
    HerglotzMeasure,
    SchlichtCoefficients,
    ZalcmanOrder,
    coeffs_from_p,
    coeffs_oracle,
    search_extremal,
    zalcman_J,
)

from support import measures

ALL_ORDERS = [ZalcmanOrder(m, n) for m, n in itertools.product((2, 3, 4), repeat=2)]

KOEBE = HerglotzMeasure(((1.0, 0.0),))


def test_coefficients_require_unit_leading_term():
    with pytest.raises(ValueError):
        SchlichtCoefficients((2.0, 1.0))
    c = SchlichtCoefficients((1.0, 2.0, 3.0))
    assert c.coef(1) == 1 and c.coef(3) == 3
    with pytest.raises(IndexError):
        c.coef(4)


def test_order_pair_validation_and_derived_quantities():
    o = ZalcmanOrder(2, 3)
    assert o.bound == 2.0
    assert o.top_coefficient == 4
    for bad in ((1, 3), (2, 5), (0, 0)):
        with pytest.raises(ValueError):
            ZalcmanOrder(*bad)


def test_koebe_coefficients_and_functionals():
    c = coeffs_from_p(KOEBE)
    assert [round(x.real, 12) for x in c.a] == [1, 2, 3, 4, 5, 6, 7]
    assert abs(zalcman_J(c, ZalcmanOrder(2, 3)) - 2.0) < 1e-14
    assert abs(zalcman_J(c, ZalcmanOrder(2, 2)) - 1.0) < 1e-14
    assert abs(zalcman_J(c, ZalcmanOrder(3, 3)) - 4.0) < 1e-14


@given(st.floats(min_value=0.0, max_value=2.0 * math.pi, exclude_max=True))
def test_rotated_single_atom_saturates_every_order(theta):
    # a_n = n e^{-i(n-1)theta}, so |a_m a_n - a_{m+n-1}| = (m-1)(n-1) on the
    # whole extremal orbit, not just at theta = 0.
    c = coeffs_from_p(HerglotzMeasure(((1.0, theta),)))
    for order in ALL_ORDERS:
        assert abs(abs(zalcman_J(c, order)) - order.bound) < 1e-12


@given(measures())
def test_recurrence_agrees_with_exponential_oracle(mu):
    a = coeffs_from_p(mu)
    b = coeffs_oracle(mu)
    assert max(abs(x - y) for x, y in zip(a.a, b.a)) < 1e-12


@given(measures())
def test_coefficients_obey_the_linear_growth_bound(mu):
    c = coeffs_from_p(mu)
    for n in range(1, 8):
        assert abs(c.coef(n)) <= n + 1e-12


@given(measures())
def test_functional_bound_over_random_measures(mu):
    c = coeffs_from_p(mu)
    for order in ALL_ORDERS:
        assert abs(zalcman_J(c, order)) <= order.bound + 1e-9


def test_order_cap_is_enforced():
    with pytest.raises(ValueError):
        coeffs_from_p(KOEBE, order=8)
    with pytest.raises(ValueError):
        coeffs_oracle(KOEBE, order=8)


def test_search_is_deterministic():
    o = ZalcmanOrder(2, 3)
    a = search_extremal(o, budget=800, seed=42)
    b = search_extremal(o, budget=800, seed=42)
    assert a == b
    assert a.evaluations <= 800


def test_search_is_monotone_in_budget():
    o = ZalcmanOrder(3, 4)
    values = [search_extremal(o, budget=b, seed=5).value for b in (0, 200, 1500)]
    assert values == sorted(values)


@pytest.mark.parametrize("m,n", [(2, 3), (2, 2), (4, 4)])
def test_search_attains_the_sharp_value(m, n):
    o = ZalcmanOrder(m, n)
    result = search_extremal(o, budget=2000, seed=11)
    assert result.value >= o.bound - 1e-6
    assert result.value <= o.bound + 1e-9
    # The reported maximizer must reproduce its own value.
    c = coeffs_from_p(result.measure)
    assert abs(zalcman_J(c, o)) == result.value


def test_search_rejects_negative_budget():
    with pytest.raises(ValueError):
        search_extremal(ZalcmanOrder(2, 3), budget=-1, seed=0)


def test_budget_zero_still_reports_a_start_candidate():
    result = search_extremal(ZalcmanOrder(2, 3), budget=0, seed=3)
    assert result.evaluations == 0
    assert 0.0 <= result.value <= 2.0 + 1e-9
