import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from zalcman.geometry import (
    Covector,
    ExceptionalPoint,
    SpaceSpec,
    dual_norm,
    euclidean,
    exceptional_distance,
    l1_space,
    lp_space,
    minkowski_gradient,
    pair,
    rho,
    sample_direction,
    POINT_RMAX,
    POINT_RMIN,
    sample_point,
    sup_space,
    support_covector,
    wirtinger_fd_gradient,
)

FAMILIES = [euclidean(3), lp_space(3, 3.0), sup_space(3), l1_space(3)]


def family_ids():
    return [f"{s.kind}{s.p or ''}" for s in FAMILIES]


def test_space_spec_validation():
    with pytest.raises(ValueError):
        SpaceSpec(0, "sup")
    with pytest.raises(ValueError):
        SpaceSpec(2, "frobenius")
    with pytest.raises(ValueError):
        SpaceSpec(2, "lp")
    with pytest.raises(ValueError):
        SpaceSpec(2, "lp", 1.0)
    with pytest.raises(ValueError):
        SpaceSpec(2, "sup", 2.0)


def test_gauge_values_on_a_known_vector():
    z = np.array([3.0, 4.0j, 0.0])
    assert rho(euclidean(3), z) == 5.0
    assert rho(sup_space(3), z) == 4.0
    assert rho(l1_space(3), z) == 7.0
    assert abs(rho(lp_space(3, 3.0), z) - (27.0 + 64.0) ** (1.0 / 3.0)) < 1e-14


def test_gauge_checks_vector_length():
    with pytest.raises(ValueError):
        rho(euclidean(2), np.ones(3))


@pytest.mark.parametrize("space", FAMILIES, ids=family_ids())
@given(t=st.floats(min_value=0.01, max_value=3.0),
       phi=st.floats(min_value=0.0, max_value=2.0 * math.pi))
def test_gauge_is_absolutely_homogeneous(space, t, phi):
    rng = np.random.default_rng(99)
    z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    scaled = rho(space, t * np.exp(1j * phi) * z)
    assert abs(scaled - t * rho(space, z)) < 1e-12 * max(1.0, t)


def test_exceptional_distance_per_family():
    assert exceptional_distance(sup_space(2), np.array([1.0, 0.25])) == 0.75
    assert exceptional_distance(sup_space(2), np.array([0.5, 0.5])) == 0.0
    assert exceptional_distance(l1_space(2), np.array([1.0, 1e-3])) == pytest.approx(1e-3)
    assert exceptional_distance(lp_space(2, 1.5), np.array([1.0, 0.0])) == 0.0
    assert exceptional_distance(euclidean(2), np.array([1.0, 0.0])) == math.inf
    assert exceptional_distance(sup_space(1), np.array([0.3])) == pytest.approx(0.3)


@pytest.mark.parametrize(
    "space,z",
    [
        (sup_space(2), np.array([0.5, 0.5])),
        (l1_space(2), np.array([0.7, 0.0])),
        (lp_space(2, 1.5), np.array([0.7, 0.0])),
        (euclidean(2), np.zeros(2)),
    ],
)
def test_support_covector_rejects_exceptional_points(space, z):
    with pytest.raises(ExceptionalPoint):
        support_covector(space, z)


@pytest.mark.parametrize("space", FAMILIES, ids=family_ids())
def test_support_covector_norms_and_pairing(space):
    rng = np.random.default_rng(7)
    for _ in range(50):
        z = sample_point(space, rng, min_gap=1e-3)
        l = support_covector(space, z)
        assert abs(dual_norm(space, l) - 1.0) < 1e-12
        assert abs(pair(np.array(l.entries), z) - rho(space, z)) < 1e-12


@pytest.mark.parametrize("space", FAMILIES, ids=family_ids())
def test_euler_identity_for_the_gradient(space):
    rng = np.random.default_rng(8)
    for _ in range(50):
        z = sample_point(space, rng, min_gap=1e-3)
        g = minkowski_gradient(space, z)
        assert abs(2.0 * pair(np.array(g.entries), z) - rho(space, z)) < 1e-12


@pytest.mark.parametrize("space", FAMILIES, ids=family_ids())
def test_gradient_scale_and_phase_covariance(space):
    rng = np.random.default_rng(9)
    for _ in range(25):
        z = sample_point(space, rng, min_gap=1e-3)
        g = minkowski_gradient(space, z).entries
        g_scaled = minkowski_gradient(space, 0.5 * z).entries
        assert max(abs(a - b) for a, b in zip(g_scaled, g)) < 1e-12
        ph = np.exp(0.9j)
        g_rotated = minkowski_gradient(space, ph * z).entries
        assert max(abs(a - np.conj(ph) * b) for a, b in zip(g_rotated, g)) < 1e-12


@pytest.mark.parametrize("space", FAMILIES, ids=family_ids())
def test_finite_differences_confirm_the_closed_form(space):
    rng = np.random.default_rng(10)
    for _ in range(20):
        z = sample_direction(space, rng, min_gap=0.05)
        exact = minkowski_gradient(space, z).entries
        fd = wirtinger_fd_gradient(space, z).entries
        scale = max(abs(c) for c in exact)
        assert max(abs(a - b) for a, b in zip(fd, exact)) / scale < 1e-6


def test_support_covector_matches_hand_values():
    l = support_covector(euclidean(2), np.array([3.0, 4.0j]))
    assert abs(l.entries[0] - 0.6) < 1e-15
    assert abs(l.entries[1] - (-0.8j)) < 1e-15

    l = support_covector(sup_space(2), np.array([1.0 + 1.0j, 0.2]))
    assert abs(l.entries[0] - (1.0 - 1.0j) / math.sqrt(2.0)) < 1e-15
    assert l.entries[1] == 0

    l = support_covector(l1_space(2), np.array([2.0j, -0.5]))
    assert abs(l.entries[0] - (-1.0j)) < 1e-15
    assert abs(l.entries[1] - (-1.0)) < 1e-15


def test_dual_norm_closed_forms():
    b = (1.0, -2.0, 2.0j)
    assert dual_norm(sup_space(3), b) == 5.0
    assert dual_norm(l1_space(3), b) == 2.0
    assert abs(dual_norm(euclidean(3), b) - 3.0) < 1e-14
    q = 1.5  # dual exponent of p = 3
    expected = (1.0 + 2.0**q + 2.0**q) ** (1.0 / q)
    assert abs(dual_norm(lp_space(3, 3.0), b) - expected) < 1e-14
    # Tiny functionals: the power sum would underflow into subnormals.
    tiny = tuple(1e-250 * x for x in b)
    assert abs(dual_norm(euclidean(3), tiny) / 1e-250 - 3.0) < 1e-14
    assert abs(dual_norm(lp_space(3, 3.0), tiny) / 1e-250 - expected) < 1e-14
    assert abs(dual_norm(euclidean(2), (0j, 6.2e-158j)) / 6.2e-158 - 1.0) < 1e-14
    # Non-finite functionals keep a non-finite norm rather than becoming NaN.
    assert dual_norm(euclidean(2), (math.inf, 0.5)) == math.inf
    assert dual_norm(lp_space(2, 3.0), (0.5, complex(0.0, -math.inf))) == math.inf
    assert math.isnan(dual_norm(euclidean(2), (math.nan, 0.5)))


def test_covector_is_linear_and_serializable():
    b = Covector((1.0 + 2.0j, -1.0))
    z = np.array([0.5, 0.25j])
    w = np.array([-1.0j, 2.0])

    def paired(c, v):
        return pair(np.array(c.entries), v)

    assert abs(paired(b, z + w) - (paired(b, z) + paired(b, w))) < 1e-15
    assert abs(paired(b.scale(2.0), z) - 2.0 * paired(b, z)) < 1e-15
    assert Covector.from_json(b.to_json()) == b


@pytest.mark.parametrize("space", FAMILIES, ids=family_ids())
def test_samplers_respect_their_contracts(space):
    rng = np.random.default_rng(11)
    for _ in range(20):
        u = sample_direction(space, rng, min_gap=1e-2)
        assert abs(rho(space, u) - 1.0) < 1e-12
        assert exceptional_distance(space, u) >= 1e-2
        z = sample_point(space, rng, min_gap=1e-3)
        r = rho(space, z)
        assert POINT_RMIN - 1e-12 <= r <= POINT_RMAX + 1e-12
        assert exceptional_distance(space, z) >= 1e-3 - 1e-12


def test_sample_point_validates_radii():
    # The radius band is fixed, finite and inside the open unit ball; the
    # old per-call radius keywords are gone rather than silently ignored.
    assert 0.0 < POINT_RMIN < POINT_RMAX < 1.0
    for kwargs in ({"rmin": 0.1}, {"rmax": 0.8}, {"rmin": 0.9, "rmax": 0.999}):
        with pytest.raises(TypeError):
            sample_point(euclidean(2), np.random.default_rng(0), **kwargs)
    rng = np.random.default_rng(0)
    radii = [rho(euclidean(2), sample_point(euclidean(2), rng)) for _ in range(50)]
    assert all(POINT_RMIN - 1e-12 <= r <= POINT_RMAX + 1e-12 for r in radii)


DUAL_PAIRS = [
    (euclidean(3), euclidean(3)),
    (lp_space(3, 3.0), lp_space(3, 1.5)),
    (lp_space(3, 1.5), lp_space(3, 3.0)),
    (sup_space(3), l1_space(3)),
    (l1_space(3), sup_space(3)),
]


@pytest.mark.parametrize("space, dual", DUAL_PAIRS,
                         ids=[f"{s.kind}{s.p or ''}-{d.kind}{d.p or ''}" for s, d in DUAL_PAIRS])
def test_dual_norm_is_the_gauge_of_the_dual_family(space, dual):
    # One kernel: the dual norm of lp:p is the lp:q gauge, q = p/(p-1), and
    # sup and l1 swap; equal under ==, in range and in the range fallback.
    rng = np.random.default_rng(12)
    b = rng.normal(size=(50, 3)) + 1j * rng.normal(size=(50, 3))
    b[::5, 0] = 0.0
    for scale in (1.0, 1e-250, 1e250):
        assert (dual_norm(space, scale * b) == rho(dual, scale * b)).all()
    for row in b[:5]:
        assert dual_norm(space, Covector(tuple(row))) == rho(dual, row)
    with pytest.raises(ValueError, match="expected covectors of length 3"):
        dual_norm(space, np.ones(2))
    with pytest.raises(ValueError, match="expected vectors of length 3"):
        rho(dual, np.ones(2))


def test_gauges_outside_the_float_range_factor_out_the_largest_entry():
    # 0.05^300 and (1e-120)^3 underflow, and (1e120)^3 overflows, so the
    # power sums leave the float range.
    assert rho(lp_space(2, 300.0), np.array([0.05, 0.0])) == 0.05
    assert rho(lp_space(2, 3.0), np.array([1e-120, 0.0])) == 1e-120
    big = rho(lp_space(2, 3.0), np.array([1e120, 1e120j]))
    assert abs(big / (1e120 * 2.0 ** (1.0 / 3.0)) - 1.0) < 1e-15
    rows = rho(lp_space(2, 3.0), np.array([[3.0, 4.0j], [1e-120, 0.0], [0.0, 0.0]]))
    assert rows.tolist() == [rho(lp_space(2, 3.0), np.array([3.0, 4.0j])), 1e-120, 0.0]


def test_support_functionals_stay_finite_at_large_p():
    # rho^{1-p} overflows at gauge 0.05 for p = 250; the entries are taken
    # as (|z_i|/rho)^{p-2} conj(z_i)/rho there.
    space = lp_space(2, 250.0)
    for z in (np.array([0.05, 0.03j]), np.array([0.0, -0.05]), np.array([0.9, 0.5])):
        l = support_covector(space, z)
        assert np.isfinite(l.entries).all()
        assert abs(pair(np.array(l.entries), z) - rho(space, z)) < 1e-15
        assert abs(dual_norm(space, l) - 1.0) < 1e-12


def test_support_functionals_stay_finite_at_large_gauges():
    # rho^{1-p} underflows at these gauges, to 0 at p = 3 and to 0 against
    # an overflowing |z_i|^{p-2} at p = 250, where the power 248 of
    # |z_i|/rho multiplies its rounding error by 248.
    for space, z in (
        (lp_space(2, 3.0), np.array([1e300, 1e-300j])),
        (lp_space(2, 250.0), np.array([1e120, 1e120j])),
    ):
        l = support_covector(space, z)
        assert np.isfinite(l.entries).all()
        assert abs(pair(np.array(l.entries), z) / rho(space, z) - 1.0) < 1e-12
        assert abs(dual_norm(space, l) - 1.0) < 1e-12
