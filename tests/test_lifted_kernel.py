"""The batched several-variables kernels against their batch-of-one views.

ball, domain, gradients and reduction draw sample i from the counter-based
stream and evaluate whole blocks of rows; a witness is only trustworthy if
the scalar entry points rebuild and re-evaluate its row exactly, so these
checks use ==, never isclose.
"""

import json

import numpy as np
import pytest

from zalcman import (
    CampaignConfig,
    HerglotzMeasure,
    rho,
    run_campaign,
    zalcman_nd,
)
from zalcman import campaigns, mappings
from zalcman.campaigns import SAMPLE_BLOCK, render_report, space_of
from zalcman.geometry import (
    complex_uniforms,
    dual_norm,
    exceptional_distance,
    fd_gradient_rows,
    gradient_rows,
    minkowski_gradient,
    sphere_rows,
    support_covector,
    support_rows,
    wirtinger_fd_gradient,
)
from zalcman.herglotz import MAX_ATOMS, batch_moments, phase_table, sample_batch, uniforms
from zalcman.mappings import (
    SPEC_ATOMS,
    LiftedMapSpec,
    closed_form_values,
    functional_A,
    functional_B,
    hom_parts,
    hom_rows,
    pairing_rows,
    reduction_crosscheck,
    reduction_rows,
    restrict_h,
    spec_draws,
    spec_rows,
    zalcman_rows,
)
from zalcman.series import TruncatedSeries
from zalcman.starlike import ZalcmanOrder, batch_coeffs, zalcman_values

NORMS = ("l2", "lp:3", "lp:1.5", "sup", "l1")
DIMS = (2, 3, 5)
ROWS = 24
CONFIGS = [(norm, dim) for norm in NORMS for dim in DIMS]
RAY_CONFIGS = [(norm, dim) for norm in NORMS for dim in (2, 3)]


def config(campaign, norm, dim, samples=ROWS, seed=5):
    return CampaignConfig(campaign, seed=seed, samples=samples, dim=dim, norm=norm)


def replayed_config(rep):
    """The config of a report, read back from its JSON alone."""
    obj = json.loads(render_report(rep, "json"))
    return CampaignConfig(obj["campaign"], obj["seed"], **obj["config"])


def reduction_value(red, dual):
    return max(red / campaigns.REDUCTION_TOL, dual / campaigns.DUAL_PATH_TOL)


@pytest.mark.parametrize("norm, dim", CONFIGS, ids=[f"{n}-C{d}" for n, d in CONFIGS])
def test_lifted_rows_equal_their_batch_of_one_replay(norm, dim):
    cfg = config("ball", norm, dim)
    space = space_of(cfg)
    lams, covs, z = campaigns._lifted_rows(cfg, space, np.arange(ROWS))
    gauges, gaps = rho(space, z), exceptional_distance(space, z)
    support = support_rows(space, z, gauges)
    f = hom_rows(lams, covs, z, 3)
    vals, value = zalcman_rows(space, lams, covs, z)
    paired = pairing_rows(space, hom_rows(lams, covs, z / gauges[:, None], 3), z, gauges)
    red, dual = reduction_rows(space, lams, covs, z)
    norms = dual_norm(space, covs)
    reports = {c: run_campaign(config(c, norm, dim)) for c in ("ball", "domain", "reduction")}
    for i in range(ROWS):
        spec, zi = campaigns._lifted_sample(cfg, space, i)
        assert spec == LiftedMapSpec.from_row(lams[i], covs[i])
        assert zi.tolist() == z[i].tolist()
        assert (rho(space, zi), exceptional_distance(space, zi)) == (gauges[i], gaps[i])
        assert support_covector(space, zi).entries == tuple(support[i].tolist())
        assert [dual_norm(space, b) for _, b in spec.atoms] == norms[i, lams[i] > 0].tolist()
        assert hom_parts(spec, zi, 3) == f[i].tolist()
        fv = zalcman_nd(space, spec, zi)
        assert fv.values == tuple(vals[i].tolist())
        assert fv.zalcman == value[i]
        for k in (2, 3, 4):
            assert functional_A(space, spec, zi, k) == paired[i, k - 2]
            assert functional_B(space, spec, zi, k) == paired[i, k - 2]
        closed = closed_form_values(spec, zi, rho(space, zi))
        assert closed == (tuple(vals[i].tolist()), value[i])
        assert reduction_crosscheck(space, spec, zi) == red[i]
        assert reports["ball"].values[i] == value[i]
        assert reports["domain"].values[i] == value[i]
        assert reports["reduction"].values[i] == reduction_value(red[i], dual[i])


@pytest.mark.parametrize("norm, dim", CONFIGS, ids=[f"{n}-C{d}" for n, d in CONFIGS])
def test_gradient_rows_equal_their_batch_of_one_replay(norm, dim):
    cfg = config("gradients", norm, dim)
    space = space_of(cfg)
    z, residuals = campaigns._gradient_rows(cfg, space, np.arange(ROWS))
    grad, fd = gradient_rows(space, z), fd_gradient_rows(space, z)
    values = run_campaign(cfg).values
    for i in range(ROWS):
        zi, replay = campaigns._gradient_sample(cfg, space, i)
        assert zi.tolist() == z[i].tolist()
        assert list(replay) == list(campaigns.GRADIENT_CHECKS)
        assert list(replay.values()) == residuals[i].tolist()
        assert minkowski_gradient(space, zi).entries == tuple(grad[i].tolist())
        assert wirtinger_fd_gradient(space, zi).entries == tuple(fd[i].tolist())
        assert values[i] == max(replay.values())


def test_sampled_rows_lead_with_their_atoms_and_pad_with_weight_zero():
    # A row's atoms are its positive weights; from_row drops the rest.
    indices = np.arange(10_000)
    space = space_of(config("ball", "l1", 3))
    weights, angles = sample_batch(7, indices)
    lams, covs = spec_rows(space, uniforms(7, indices, spec_draws(space)))
    for w, width in ((weights, MAX_ATOMS), (lams, SPEC_ATOMS)):
        live = w > 0
        counts = live.sum(axis=1)
        assert (live == (np.arange(width) < counts[:, None])).all()
        assert set(counts.tolist()) == set(range(1, width + 1))
        assert (w[~live] == 0.0).all()
    assert (angles[weights == 0] == 0.0).all() and (covs[lams == 0] == 0.0).all()
    for i in range(200):
        assert len(HerglotzMeasure.from_row(weights[i], angles[i]).atoms) == (weights[i] > 0).sum()
        assert len(LiftedMapSpec.from_row(lams[i], covs[i]).atoms) == (lams[i] > 0).sum()


def test_sampled_maps_and_points_keep_their_contracts():
    cfg = config("ball", "l1", 3, samples=2000)
    space = space_of(cfg)
    lams, covs, z = campaigns._lifted_rows(cfg, space, np.arange(cfg.samples))
    counts = (lams > 0).sum(axis=1)
    assert set(counts.tolist()) == set(range(1, SPEC_ATOMS + 1))
    live = np.arange(SPEC_ATOMS) < counts[:, None]
    assert (lams[live] > 0).all() and (lams[~live] == 0).all() and (covs[~live] == 0).all()
    assert np.abs(lams.sum(axis=1) - 1.0).max() < 1e-12
    norms = dual_norm(space, covs)[live]
    assert norms.min() >= 0.25 - 1e-12 and norms.max() <= 1.0 + 1e-12
    gauges = rho(space, z)
    assert gauges.min() >= 0.05 and gauges.max() <= 0.95
    assert exceptional_distance(space, z).min() >= 1e-8
    # Square-law draws: uniform pair (a, b) is the complex draw (2a - 1) + (2b - 1)i.
    u = uniforms(3, np.arange(20_000), 2)
    assert complex_uniforms(u)[:, 0].tolist() == [complex(2 * a - 1, 2 * b - 1) for a, b in u.tolist()]
    # A live covector is the draw of its 2 dim uniforms rescaled to its
    # dual-norm scale, bit for bit.
    u = uniforms(cfg.seed, np.arange(cfg.samples), spec_draws(space))
    g = complex_uniforms(u[:, 1 + 2 * SPEC_ATOMS :].reshape(-1, SPEC_ATOMS, 2 * space.dim))
    scales = 0.25 + 0.75 * u[:, 1 + SPEC_ATOMS : 1 + 2 * SPEC_ATOMS]
    assert np.array_equal(covs[live], (g * (scales / dual_norm(space, g))[:, :, None])[live])
    # A sphere row accepted at its first attempt is its draw over the gauge.
    u = uniforms(cfg.seed, [0], 2 * space.dim)
    g = complex_uniforms(u)
    assert sphere_rows(space, u, cfg.seed, [0], 0).tolist() == (g / rho(space, g)[:, None]).tolist()


@pytest.mark.parametrize("campaign", ["ball", "domain", "gradients", "reduction"])
def test_a_run_is_a_prefix_of_a_longer_run(campaign):
    for norm, dim in (("lp:1.5", 2), ("sup", 3), ("l1", 5)):
        short = run_campaign(config(campaign, norm, dim, samples=40))
        longer = run_campaign(config(campaign, norm, dim, samples=80))
        assert longer.values[:40].tolist() == short.values.tolist()
        assert longer.margins[:40].tolist() == short.margins.tolist()


def test_shuffled_indices_give_the_same_rows():
    order = np.random.default_rng(0).permutation(60)
    for norm, dim in (("l2", 2), ("sup", 3), ("l1", 5)):
        cfg = config("ball", norm, dim, samples=60)
        space = space_of(cfg)
        straight = campaigns._lifted_rows(cfg, space, np.arange(60))
        shuffled = campaigns._lifted_rows(cfg, space, order)
        for a, b in zip(straight, shuffled):
            assert np.array_equal(a[order], b)
        z, residuals = campaigns._gradient_rows(cfg, space, np.arange(60))
        zs, residuals_s = campaigns._gradient_rows(cfg, space, order)
        assert np.array_equal(z[order], zs) and np.array_equal(residuals[order], residuals_s)


def test_a_row_after_a_rejected_attempt_replays_identically():
    # On the l1 sphere of C^5 the gradients campaign's 0.05 gap rejects
    # many first attempts; such a row takes its point from later draws.
    cfg = config("gradients", "l1", 5, samples=40)
    space = space_of(cfg)
    z, residuals = campaigns._gradient_rows(cfg, space, np.arange(40))
    first = complex_uniforms(uniforms(cfg.seed, np.arange(40), 2 * space.dim, start=1))
    first = first / rho(space, first)[:, None]
    rejected = np.flatnonzero(exceptional_distance(space, first) < campaigns.GRAD_MIN_GAP)
    assert rejected.size
    for i in rejected.tolist():
        assert not np.array_equal(z[i], first[i])
        zi, replay = campaigns._gradient_sample(cfg, space, i)
        assert zi.tolist() == z[i].tolist()
        assert list(replay.values()) == residuals[i].tolist()


def test_witnesses_past_the_first_block_carry_their_own_index(monkeypatch):
    # Blocks of 8 rows, and nearly every row a violation: tolerances far
    # below the residuals (a residual can be exactly 0), and bound values
    # lifted past 2.
    monkeypatch.setattr(campaigns, "LIFTED_BLOCK_ENTRIES", 8 * 3)
    monkeypatch.setattr(campaigns, "GRAD_FD_TOL", 1e-300)
    monkeypatch.setattr(campaigns, "REDUCTION_TOL", 1e-300)
    real = campaigns.zalcman_rows
    monkeypatch.setattr(campaigns, "zalcman_rows", lambda *a: (real(*a)[0], real(*a)[1] + 3.0))
    for campaign in ("ball", "domain", "gradients", "reduction"):
        rep = run_campaign(config(campaign, "sup", 3, samples=30))
        cfg = replayed_config(rep)
        space = space_of(cfg)
        flagged = [i for i, margin in enumerate(rep.margins.tolist()) if not margin >= -campaigns.TOLERANCE]
        assert [w["index"] for w in rep.violations] == flagged
        assert len([i for i in flagged if i >= 8]) >= 15
        if campaign == "gradients":
            z, _ = campaigns._gradient_rows(cfg, space, np.arange(30))
        else:
            lams, covs, z = campaigns._lifted_rows(cfg, space, np.arange(30))
        for w in rep.violations:
            i = w["index"]
            assert w["z"] == [[c.real, c.imag] for c in z[i].tolist()]
            if campaign != "gradients":
                spec = LiftedMapSpec.from_row(lams[i], covs[i])
                assert w["spec"] == spec.to_json()


def test_lifted_witnesses_replay_their_values():
    # Tolerances tightened until every row is a witness; each must rebuild
    # its value or residuals from its report alone: the seed, gauge and
    # dimension in the report, and the index, map and point in the witness.
    tight = dict(GRAD_FD_TOL=1e-300, REDUCTION_TOL=1e-300)
    for campaign in ("gradients", "reduction"):
        with pytest.MonkeyPatch.context() as mp:
            for name, value in tight.items():
                mp.setattr(campaigns, name, value)
            rep = run_campaign(config(campaign, "lp:1.5", 3, samples=20))
            assert len(rep.violations) >= 15
            cfg = replayed_config(rep)
            space = space_of(cfg)
            for w in rep.violations:
                if campaign == "gradients":
                    assert campaigns._gradient_sample(cfg, space, w["index"])[1] == w["residuals"]
                else:
                    spec = LiftedMapSpec.from_json(w["spec"])
                    z = np.array([complex(*c) for c in w["z"]])
                    red, dual = reduction_rows(space, *spec.padded(), z[None])
                    assert (red[0], dual[0]) == (w["reduction_residual"], w["dual_path_residual"])
                    assert reduction_crosscheck(space, spec, z) == w["reduction_residual"]
    for campaign in ("ball", "domain"):
        rep = run_campaign(config(campaign, "sup", 3, samples=30))
        cfg = replayed_config(rep)
        i = max(range(cfg.samples), key=lambda k: rep.values[k])
        spec, z = campaigns._lifted_sample(cfg, space_of(cfg), i)
        assert zalcman_nd(space_of(cfg), spec, z).zalcman == rep.max_value


def test_homogeneous_parts_are_evaluated_once_per_reduction_row(monkeypatch):
    calls = []
    real = mappings.batch_coeffs

    def counting(p, order):
        calls.append((len(p), order))
        return real(p, order)

    monkeypatch.setattr(mappings, "batch_coeffs", counting)
    rep = run_campaign(config("reduction", "lp:1.5", 2, samples=40))
    assert rep.passed
    assert calls == [(40, 4)]


def walked_blocks(cfg):
    """The index blocks ``_walk`` hands to its row function for ``cfg``."""
    blocks = []

    def rows(indices):
        blocks.append(indices)
        return indices

    campaigns._walk(cfg, space_of(cfg), rows)
    return blocks


def test_blocks_never_exceed_the_sample_count_or_sample_block():
    for samples, dim in ((7, 3), (SAMPLE_BLOCK + 5, 2)):
        blocks = walked_blocks(config("ball", "l2", dim, samples=samples))
        sizes = [len(idx) for idx in blocks]
        assert sum(sizes) == samples and max(sizes) <= min(samples, SAMPLE_BLOCK)
        assert np.array_equal(np.concatenate(blocks), np.arange(samples))
    sizes = [len(idx) for idx in walked_blocks(config("ball", "l2", 100, samples=3000))]
    assert max(sizes) * 100 <= campaigns.LIFTED_BLOCK_ENTRIES


def test_restrict_h_is_the_quotient_of_the_homogeneous_parts():
    # h = 1 + D f(zeta z0)(zeta z0)/f(zeta z0) = (sum_j (j+1) f_j zeta^j)/(sum_j f_j zeta^j),
    # by series division, which shares no arithmetic with the node moments.
    for norm, dim in (("lp:3", 3), ("sup", 2), ("l1", 3), ("lp:1.5", 2)):
        cfg = config("ball", norm, dim)
        space = space_of(cfg)
        for i in range(ROWS):
            spec, z = campaigns._lifted_sample(cfg, space, i)
            z0 = z / rho(space, z)
            h = restrict_h(spec, z0)
            f = hom_parts(spec, z0, 6)
            quotient = TruncatedSeries([(j + 1) * fj for j, fj in enumerate(f)]) / TruncatedSeries(f)
            assert h.coeffs[0] == 1
            assert max(abs(a - b) for a, b in zip(h.coeffs, quotient.coeffs)) <= 1e-14


@pytest.mark.parametrize("norm, dim", RAY_CONFIGS, ids=[f"{n}-C{d}" for n, d in RAY_CONFIGS])
def test_the_lifted_kernel_on_a_ray_is_the_one_variable_kernel(norm, dim):
    # On the ray of a unit point u, the map with atoms (w_k, e^{-i theta_k} l_u)
    # has nodes x_k = e^{-i theta_k} l_u(u) = e^{-i theta_k}: the Herglotz
    # atoms of the one-variable sample (w, theta).
    space = space_of(config("ball", norm, dim))
    u = np.array([1.0, 0.5j, -0.25][:dim])
    u = u / rho(space, u)
    l_u = np.array(support_covector(space, u).entries)
    weights, angles = sample_batch(11, range(200))
    covs = np.exp(-1j * angles)[:, :, None] * l_u
    order = ZalcmanOrder(2, 3)
    vals, value = zalcman_rows(space, weights, covs, np.tile(0.6 * u, (len(weights), 1)))
    a = batch_coeffs(batch_moments(weights, angles, 3), 4)
    assert np.abs(vals - a[:, 1:4]).max() <= 1e-14
    assert np.abs(value - zalcman_values(weights, angles, order)).max() <= 1e-14


@pytest.mark.parametrize("dim", (2, 3))
def test_the_lifted_kernel_at_unit_nodes_is_the_one_variable_kernel_bit_for_bit(dim):
    # Lifts along e_1 whose node entries cos - i sin are phase_table's own
    # cos and sin: at e_1 their nodes are the one-variable unit nodes
    # exactly, and the lifted moments are the same kernel on the same
    # table, so every value must be equal, not just close.
    weights, angles = sample_batch(11, range(2000))
    unit = phase_table(angles, 1)
    covs = np.zeros(weights.shape + (dim,), dtype=complex)
    covs[:, :, 0] = (unit[:, 0] - 1j * unit[:, 1]).T
    e1 = np.zeros((len(weights), dim), dtype=complex)
    e1[:, 0] = 1.0
    a = batch_coeffs(batch_moments(weights, angles, 3), 4)
    value = zalcman_values(weights, angles, ZalcmanOrder(2, 3))
    assert (hom_rows(weights, covs, e1, 3) == a).all()
    # At e_1/2 the gauge is exactly 1/2 on every family; on l1 and lp:1.5
    # the point lies on E, so the closed form is taken without the check.
    for norm in ("l2", "lp:3", "sup"):
        vals, lifted = zalcman_rows(space_of(config("ball", norm, dim)), weights, covs, e1 / 2)
        assert (vals == a[:, 1:]).all() and (lifted == value).all()
    # Specs of their live atoms only: 1..4 atoms pad to 4 and 5..8 to 8,
    # and the padding atoms add exact zeros.
    for i in range(200):
        live = weights[i] > 0
        spec = LiftedMapSpec.from_row(weights[i, live], covs[i, live])
        assert spec.padded()[0].shape == (1, 4 if live.sum() <= 4 else 8)
        assert hom_parts(spec, e1[i], 3) == a[i].tolist()
        assert closed_form_values(spec, e1[i] / 2, 0.5) == (tuple(a[i, 1:].tolist()), value[i])
