"""The kernel's written-out sums against numpy's reductions.

The reports were built with numpy's sum over the atoms of a
(rows, count, atoms) phase table and over the terms of each convolution of
the coefficient recurrence.  The references below keep those sums, on the
node powers of ``phase_table`` moved to (rows, count, atoms), and the
kernel must equal them under ==, so that its written-out summation order
changes no report.
"""

import itertools

import numpy as np
import pytest

from zalcman import ZalcmanOrder
from zalcman.herglotz import (
    DEFAULT_ORDER,
    MAX_ATOMS,
    atom_rows,
    batch_margins,
    batch_moments,
    modulus,
    phase_table,
    sample_batch,
)
from zalcman.starlike import (
    MAX_COEFF_ORDER,
    batch_coeffs,
    batch_zalcman,
    table_values,
    zalcman_values,
)

ORDERS = [ZalcmanOrder(m, n) for m, n in itertools.product((2, 3, 4), repeat=2)]


def reference_moments(weights, angles, count):
    # The kernel's phase table moved to (rows, 2 count, atoms), so that the
    # sum over the atoms runs along numpy's contiguous last axis.
    table = np.ascontiguousarray(phase_table(angles, count).transpose(2, 1, 0))
    w = weights[:, None, :]
    p = np.empty((len(weights), count), dtype=complex)
    p.real = 2.0 * (w * table[:, :count]).sum(axis=-1)
    p.imag = -2.0 * (w * table[:, count:]).sum(axis=-1)
    return p


def reference_margins(weights, angles):
    p = reference_moments(weights, angles, DEFAULT_ORDER)
    margins = np.empty((len(p), 3))
    margins[:, 0] = 2.0 - modulus(p).max(axis=1)
    margins[:, 1] = 2.0 - modulus(p[:, 1] - p[:, 0] * p[:, 0])
    margins[:, 2] = 2.0 - modulus(p[:, 2] - p[:, 0] * p[:, 1])
    return margins


def reference_coeffs(p, order):
    a = np.zeros((len(p), order), dtype=complex)
    a[:, 0] = 1.0
    for n in range(2, order + 1):
        a[:, n - 1] = (p[:, : n - 1] * a[:, n - 2 :: -1]).sum(axis=1) / (n - 1)
    return a


# (rows, seed) of random batches: single rows of 8 and 2 atoms, then 1..8
# atoms; seed None is 400 campaign samples.
BATCHES = [(1, 7), (1, 11), (400, 2), (10_000, 3), (400, None)]


def make_batch(rows, seed):
    """Padded measures of 1..MAX_ATOMS atoms, some weights 0 and some
    angles tiny, or the campaign sampler's rows when seed is None."""
    if seed is None:
        return sample_batch(17, np.arange(rows))
    rng = np.random.default_rng(seed)
    counts = rng.integers(1, MAX_ATOMS + 1, rows)
    if rows >= MAX_ATOMS:
        counts[:MAX_ATOMS] = np.arange(1, MAX_ATOMS + 1)
    weights, angles = atom_rows(rng.random((rows, 2 * MAX_ATOMS)), counts)
    weights[rng.random(weights.shape) < 0.1] = 0.0
    angles[rng.random(angles.shape) < 0.05] *= 1e-300
    return weights, angles


@pytest.mark.parametrize("rows,seed", BATCHES)
def test_moments_margins_and_coefficients_equal_numpy_reductions(rows, seed):
    weights, angles = make_batch(rows, seed)
    for count in range(1, MAX_COEFF_ORDER + 1):
        p = batch_moments(weights, angles, count)
        assert p.shape == (len(weights), count)
        assert (p == reference_moments(weights, angles, count)).all()
    margins = batch_margins(weights, angles)
    assert margins.shape == (len(weights), 3)
    assert (margins == reference_margins(weights, angles)).all()
    p = reference_moments(weights, angles, MAX_COEFF_ORDER - 1)
    for order in range(1, MAX_COEFF_ORDER + 1):
        a = batch_coeffs(batch_moments(weights, angles, MAX_COEFF_ORDER - 1), order)
        assert a.shape == (len(weights), order)
        assert (a == reference_coeffs(p, order)).all()


@pytest.mark.parametrize("rows,seed", BATCHES)
def test_zalcman_values_equal_numpy_reductions_also_on_gathered_rows(rows, seed):
    weights, angles = make_batch(rows, seed)
    picks = np.random.default_rng(rows).integers(0, rows, 3 * rows // 2 + 1)
    for order in ORDERS:
        top = order.top_coefficient
        a = reference_coeffs(reference_moments(weights, angles, top - 1), top)
        expected = modulus(batch_zalcman(a, order))
        values = zalcman_values(weights, angles, order)
        assert values.shape == (len(weights),)
        assert (values == expected).all()
        gathered = phase_table(angles, top - 1).take(picks, axis=2)
        assert (table_values(weights.take(picks, axis=0), gathered, order) == expected[picks]).all()
