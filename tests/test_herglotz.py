import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from zalcman import HerglotzMeasure, sample_measure
from zalcman.herglotz import MAX_ATOMS, SAMPLE_DRAWS, phase_table, sample_batch, uniforms
from zalcman.series import TruncatedSeries

from support import measures

angles = st.floats(min_value=0.0, max_value=2.0 * math.pi, exclude_max=True)


@pytest.mark.parametrize(
    "atoms",
    [
        (),
        ((0.5, 0.0),),
        ((-0.1, 0.0), (1.1, 1.0)),
        ((0.2, 0.0),) * 9,
        ((math.nan, 0.0),),
        ((1.0, math.inf),),
        ((0.5, 0.0), (0.5, -math.inf)),
    ],
)
def test_invalid_atom_lists_rejected(atoms):
    with pytest.raises(ValueError):
        HerglotzMeasure(atoms)


def exact_phase(theta: float, k: int) -> complex:
    """e^{i k theta} of the float ``theta``, rounded once from 40 digits."""
    with mpmath.workdps(40):
        return complex(mpmath.expj(k * mpmath.mpf(theta)))


def test_single_atom_coefficients_lie_on_radius_two():
    mu = HerglotzMeasure(((1.0, 0.7),))
    for n in range(1, 8):
        pn = mu.coefficient(n)
        assert abs(abs(pn) - 2.0) < 1e-15
        assert abs(pn - 2 * exact_phase(0.7, n).conjugate()) < 1e-15
    with pytest.raises(ValueError):
        mu.coefficient(0)


def test_phase_table_is_within_1e15_of_the_exact_node_powers():
    # cos and sin of the rounded product k theta miss by up to 1.8e-15 on
    # these angles for k <= 7; the node powers stay within 1e-15.
    special = [0.0, math.pi, 1e-300, math.nextafter(2.0 * math.pi, 0.0)]
    thetas = special + np.random.default_rng(5).uniform(0.0, 2.0 * math.pi, 496).tolist()
    count = 7
    table = phase_table(np.array(thetas)[:, None], count)[0]
    assert table.shape == (2 * count, len(thetas))
    for r, theta in enumerate(thetas):
        for k in range(1, count + 1):
            exact = exact_phase(theta, k)
            assert abs(table[k - 1, r] - exact.real) <= 1e-15, (theta, k)
            assert abs(table[count + k - 1, r] - exact.imag) <= 1e-15, (theta, k)
    # An angle of 0 (a padding atom) gives exactly 1 and 0.
    assert (table[:count, 0] == 1.0).all() and (table[count:, 0] == 0.0).all()


def test_margin_examples_pin_the_three_inequalities():
    single = HerglotzMeasure(((1.0, 1.234),)).margins()
    assert max(abs(m) for m in single) < 1e-12

    two_poles = HerglotzMeasure(((0.5, 0.0), (0.5, math.pi))).margins()
    assert abs(two_poles.m1) < 1e-12
    assert abs(two_poles.m2) < 1e-12
    assert abs(two_poles.m3 - 2.0) < 1e-12

    conjugate_pair = HerglotzMeasure(
        ((0.5, math.pi / 2), (0.5, -math.pi / 2))
    ).margins()
    assert abs(conjugate_pair.m1) < 1e-12
    assert abs(conjugate_pair.m2) < 1e-12
    assert abs(conjugate_pair.m3 - 2.0) < 1e-12


@given(measures())
def test_margins_are_nonnegative(mu):
    m = mu.margins()
    assert min(m) >= -1e-9


@given(measures(), st.integers(min_value=1, max_value=7))
def test_coefficient_moduli_bounded_by_two(mu, n):
    assert abs(mu.coefficient(n)) <= 2.0 + 1e-12


def herglotz_value(mu, zeta):
    """p(zeta) = sum_k lam_k (1 + zeta e^{-i theta_k}) / (1 - zeta e^{-i theta_k})."""
    acc = 0j
    for w, t in mu.atoms:
        u = zeta * cmath.exp(-1j * t)
        acc += w * (1 + u) / (1 - u)
    return acc


@given(measures())
def test_series_tracks_rational_evaluation_near_zero(mu):
    # The moments are the Taylor coefficients of the Herglotz transform.
    s = TruncatedSeries((1 + 0j,) + tuple(mu.coefficient(n) for n in range(1, 8)))
    for zeta in (0.1, -0.1, 0.07 + 0.07j):
        # Tail bound: sum_{n>7} 2 |zeta|^n = 2 |zeta|^8 / (1 - |zeta|).
        assert abs(s(zeta) - herglotz_value(mu, zeta)) < 3e-8


@given(measures(), angles)
def test_rotation_twists_coefficients_and_preserves_margins(mu, phi):
    rot = HerglotzMeasure(tuple((w, t + phi) for w, t in mu.atoms))
    for n in (1, 2, 3):
        expected = mu.coefficient(n) * cmath.exp(-1j * n * phi)
        assert abs(rot.coefficient(n) - expected) < 1e-12
    for a, b in zip(mu.margins(), rot.margins()):
        assert abs(a - b) < 1e-12


@given(measures())
def test_json_roundtrip_is_exact(mu):
    assert HerglotzMeasure.from_json(mu.to_json()) == mu


def test_sample_measure_is_deterministic_and_valid():
    a = sample_measure(123)
    b = sample_measure(123)
    assert a == b
    assert sample_measure(124) != a
    total = sum(w for w, _ in a.atoms)
    assert abs(total - 1.0) < 1e-12
    assert all(0.0 <= t < 2.0 * math.pi for _, t in a.atoms)


def test_sample_measure_covers_all_atom_counts():
    counts = {len(sample_measure(s).atoms) for s in range(200)}
    assert counts == set(range(1, 9))


def test_sample_measure_is_row_of_its_batch():
    weights, angles = sample_batch(9, [4, 17, 2])
    assert sample_measure(9, 17) == HerglotzMeasure.from_row(weights[1], angles[1])
    assert sample_measure(9, 17) != sample_measure(9, 4)


def test_uniforms_lie_strictly_inside_the_unit_interval():
    u = uniforms(2**70 + 3, np.arange(2000), SAMPLE_DRAWS)
    assert u.shape == (2000, SAMPLE_DRAWS)
    assert 0.0 < u.min() and u.max() < 1.0
    assert not np.array_equal(u, uniforms(3, np.arange(2000), SAMPLE_DRAWS))


def test_uniforms_stream_is_pinned():
    # Every sampled report depends on these bits: a one-word and a two-word
    # seed, at the first draws and past 2**32.
    assert uniforms(0, [0, 1], 2).tolist() == [
        [0.13870941014555427, 0.9711020828012883],
        [0.18383979100743952, 0.6250937004946516],
    ]
    assert uniforms(2**70 + 3, [5], 2, 1 << 32).tolist() == [[0.7303689806954566, 0.17544055032540873]]


def test_sample_batch_pads_with_zero_atoms():
    weights, angles = sample_batch(1, np.arange(500))
    assert weights.shape == angles.shape == (500, MAX_ATOMS)
    live = weights > 0
    counts = live.sum(axis=1)
    assert set(counts) == set(range(1, MAX_ATOMS + 1))
    # The live atoms lead each row; the rest are padding.
    assert (live == (np.arange(MAX_ATOMS) < counts[:, None])).all()
    assert (angles[~live] == 0.0).all()
    assert ((0.0 <= angles) & (angles < 2.0 * math.pi)).all()
