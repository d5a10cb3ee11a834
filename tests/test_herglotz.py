import cmath
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from zalcman import HerglotzMeasure, sample_measure
from zalcman.herglotz import MAX_ATOMS, SAMPLE_DRAWS, sample_batch, uniforms

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


def test_single_atom_coefficients_lie_on_radius_two():
    mu = HerglotzMeasure(((1.0, 0.7),))
    for n in range(1, 8):
        pn = mu.coefficient(n)
        assert abs(abs(pn) - 2.0) < 1e-15
        assert abs(pn - 2 * cmath.exp(-1j * n * 0.7)) < 1e-15
    with pytest.raises(ValueError):
        mu.coefficient(0)


def test_series_has_unit_constant_term():
    mu = HerglotzMeasure(((0.25, 0.1), (0.75, 2.0)))
    s = mu.series()
    assert s.coeffs[0] == 1
    assert s.order == 7
    assert s.coeffs[3] == mu.coefficient(3)


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


@given(measures())
def test_evaluate_has_positive_real_part(mu):
    for r in (0.2, 0.6, 0.95):
        for k in range(8):
            zeta = r * cmath.exp(2j * math.pi * k / 8)
            assert mu.evaluate(zeta).real > 0.0


@given(measures())
def test_series_tracks_rational_evaluation_near_zero(mu):
    s = mu.series()
    for zeta in (0.1, -0.1, 0.07 + 0.07j):
        # Tail bound: sum_{n>7} 2 |zeta|^n = 2 |zeta|^8 / (1 - |zeta|).
        assert abs(s(zeta) - mu.evaluate(zeta)) < 3e-8


@given(measures(), angles)
def test_rotation_twists_coefficients_and_preserves_margins(mu, phi):
    rot = mu.rotated(phi)
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


def test_sample_batch_pads_with_zero_atoms():
    weights, angles = sample_batch(1, np.arange(500), max_atoms=3)
    live = weights > 0
    assert set(live.sum(axis=1)) == {1, 2, 3}
    assert not live[:, 3:].any()
    assert (angles[~live] == 0.0).all()
    assert ((0.0 <= angles) & (angles < 2.0 * math.pi)).all()
    with pytest.raises(ValueError):
        sample_batch(1, [0], max_atoms=MAX_ATOMS + 1)
