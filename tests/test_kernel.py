"""The batched one-variable kernel against its scalar, batch-of-one views.

Witness replay is only trustworthy if the scalar entry points reproduce
the kernel's rows exactly, so these checks use ==, never isclose.
"""

import itertools
import math
import tracemalloc

import numpy as np

from zalcman import (
    CampaignConfig,
    HerglotzMeasure,
    ZalcmanOrder,
    coeffs_from_p,
    run_campaign,
    zalcman_J,
)
from zalcman.campaigns import SAMPLE_BLOCK, _walk, violation_rows
from zalcman.herglotz import (
    DEFAULT_ORDER,
    MAX_ATOMS,
    batch_margins,
    batch_moments,
    modulus,
    sample_batch,
)
from zalcman.starlike import MAX_COEFF_ORDER, batch_coeffs, batch_zalcman, zalcman_values

ROWS = 10_000
ORDERS = [ZalcmanOrder(m, n) for m, n in itertools.product((2, 3, 4), repeat=2)]


def test_batch_rows_equal_their_batch_of_one_replay():
    weights, angles = sample_batch(31, np.arange(ROWS))
    counts = (weights > 0).sum(axis=1)
    assert set(counts.tolist()) == set(range(1, MAX_ATOMS + 1))
    margins = batch_margins(weights, angles)
    coeffs = batch_coeffs(batch_moments(weights, angles, MAX_COEFF_ORDER - 1), MAX_COEFF_ORDER)
    values = np.stack([modulus(batch_zalcman(coeffs, o)) for o in ORDERS], axis=1)
    for i in range(ROWS):
        mu = HerglotzMeasure.from_row(weights[i], angles[i])
        assert len(mu.atoms) == counts[i]
        assert tuple(mu.margins()) == tuple(margins[i].tolist())
        replay = coeffs_from_p(mu)
        assert replay.a == tuple(coeffs[i].tolist())
        assert [abs(zalcman_J(replay, o)) for o in ORDERS] == values[i].tolist()


def test_caratheodory_witnesses_replay_exactly():
    # Margins at the sharp edge sit a few ulps below zero, so this
    # tolerance flags them; each witness must reproduce its margins.
    rep = run_campaign(CampaignConfig("caratheodory", seed=7, samples=200, tolerance=1e-16))
    assert rep.violations
    for witness in rep.violations:
        mu = HerglotzMeasure.from_json(witness["measure"])
        assert list(mu.margins()) == witness["margins"]
        assert min(witness["margins"]) == rep.margins[witness["index"]]


def test_blocks_concatenate_to_one_batch():
    samples = SAMPLE_BLOCK + 5
    sizes = []

    def rows(indices):
        sizes.append(len(indices))
        return np.concatenate(sample_batch(12, indices), axis=1)

    walked = _walk(CampaignConfig("caratheodory", seed=12, samples=samples), None, rows)
    assert sizes == [SAMPLE_BLOCK, 5]
    assert np.array_equal(walked, np.concatenate(sample_batch(12, np.arange(samples)), axis=1))


def test_witnesses_past_the_first_block_carry_their_own_index():
    samples = SAMPLE_BLOCK + 300
    rep = run_campaign(CampaignConfig("caratheodory", seed=7, samples=samples, tolerance=1e-16))
    assert rep.samples == samples
    late = [w for w in rep.violations if w["index"] >= SAMPLE_BLOCK]
    assert late
    weights, angles = sample_batch(7, [w["index"] for w in late])
    for r, witness in enumerate(late):
        assert witness["measure"] == HerglotzMeasure.from_row(weights[r], angles[r]).to_json()
        assert min(witness["margins"]) == rep.margins[witness["index"]]


def test_a_run_is_a_prefix_of_a_longer_run():
    for campaign in ("caratheodory", "zalcman1d"):
        short = run_campaign(CampaignConfig(campaign, seed=4, samples=150))
        longer = run_campaign(CampaignConfig(campaign, seed=4, samples=300))
        assert longer.values[:150].tolist() == short.values.tolist()
        assert longer.margins[:150].tolist() == short.margins.tolist()


def test_nan_angle_is_flagged_as_a_violation():
    weights, angles = sample_batch(8, np.arange(64))
    angles[5, 0] = math.nan
    margins = batch_margins(weights, angles).min(axis=1)
    assert violation_rows(margins, 1e-9).tolist() == [5]
    order = ZalcmanOrder(2, 3)
    values = zalcman_values(weights, angles, order)
    assert violation_rows(order.bound - values, 1e-9).tolist() == [5]


def test_the_moment_kernel_makes_no_table_sized_temporary():
    # table_moments weights its table in place, so a batch peaks at about
    # its table plus small per-node arrays, not at a second table.
    weights, angles = sample_batch(5, np.arange(ROWS))
    order = ZalcmanOrder(4, 4)
    calls = [
        (lambda: zalcman_values(weights, angles, order), order.top_coefficient - 1),
        (lambda: batch_margins(weights, angles), DEFAULT_ORDER),
    ]
    for call, count in calls:
        table_bytes = MAX_ATOMS * 2 * count * ROWS * 8
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * table_bytes, peak / table_bytes
