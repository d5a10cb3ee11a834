"""End-to-end acceptance checks for the package's headline guarantees.

Each test prints one PASS/FAIL line with the measured extremes, then
asserts.  The scalar criteria share one 10^5-measure corpus drawn by index
from the counter-based stream and evaluated by the batched kernel; the
several-variables criteria drive the campaign runner the same way the CLI
does.
"""

import itertools
import math
import time

import numpy as np
import pytest

from zalcman import (
    CampaignConfig,
    Covector,
    HerglotzMeasure,
    ZalcmanOrder,
    coeffs_from_p,
    coeffs_oracle,
    euclidean,
    lp_space,
    l1_space,
    make_extremal_ball,
    make_extremal_domain,
    rho,
    run_campaign,
    sample_lifted_spec,
    sample_measure,
    search_extremal,
    starlikeness_scan,
    sup_space,
    zalcman_J,
    zalcman_nd,
)
from zalcman import campaigns
from zalcman.campaigns import space_of, subseed
from zalcman.herglotz import batch_margins, sample_blocks
from zalcman.mappings import reduction_rows
from zalcman.starlike import zalcman_values

SEED = 20260814
CORPUS_SIZE = 100_000
PAIR_TARGET = 10_000
ORDERS = [ZalcmanOrder(m, n) for m, n in itertools.product((2, 3, 4), repeat=2)]


def report(num: int, ok: bool, detail: str) -> None:
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def corpus():
    """One pass over the shared measure corpus: margins and functionals."""
    start = time.perf_counter()
    max_j = {(o.m, o.n): 0.0 for o in ORDERS}
    min_margins = np.full(3, math.inf)
    for _, weights, angles in sample_blocks(SEED, CORPUS_SIZE):
        min_margins = np.minimum(min_margins, batch_margins(weights, angles).min(axis=0))
        for o in ORDERS:
            value = zalcman_values(weights, angles, o).max()
            max_j[(o.m, o.n)] = float(np.maximum(max_j[(o.m, o.n)], value))
    search = search_extremal(ZalcmanOrder(2, 3), budget=2000, seed=SEED)
    return {
        "max_j": max_j,
        "min_margins": min_margins.tolist(),
        "search": search,
        "elapsed": time.perf_counter() - start,
    }


def test_criterion_1_sharp_degree_four_bound(corpus):
    max_23 = corpus["max_j"][(2, 3)]
    best = corpus["search"].value
    elapsed = corpus["elapsed"]
    ok = max_23 <= 2.0 + 1e-9 and best >= 2.0 - 1e-6 and elapsed <= 30.0
    report(
        1,
        ok,
        f"max |a2 a3 - a4| = {max_23:.12f} <= 2 + 1e-9 over {CORPUS_SIZE} measures; "
        f"search attains {best:.12f} >= 2 - 1e-6; corpus+search {elapsed:.1f} s <= 30 s",
    )


def test_criterion_2_generalized_bound_with_koebe_saturation(corpus):
    worst_gap = -math.inf
    for o in ORDERS:
        worst_gap = max(worst_gap, corpus["max_j"][(o.m, o.n)] - o.bound)
    koebe = coeffs_from_p(HerglotzMeasure(((1.0, 0.0),)))
    koebe_defect = max(abs(abs(zalcman_J(koebe, o)) - o.bound) for o in ORDERS)
    ok = worst_gap <= 1e-9 and koebe_defect <= 1e-12
    report(
        2,
        ok,
        f"max over (m,n) of max|J| - (m-1)(n-1) = {worst_gap:.3e} <= 1e-9; "
        f"Koebe saturation defect = {koebe_defect:.3e} <= 1e-12",
    )


def test_criterion_3_coefficient_inequality_margins(corpus):
    m1, m2, m3 = corpus["min_margins"]
    rng = np.random.default_rng(SEED)
    atom_defect = 0.0
    for theta in rng.uniform(0.0, 2.0 * np.pi, 200):
        margins = HerglotzMeasure(((1.0, float(theta)),)).margins()
        atom_defect = max(atom_defect, max(abs(v) for v in margins))
    ok = min(m1, m2, m3) >= -1e-9 and atom_defect <= 1e-12
    report(
        3,
        ok,
        f"min margins = ({m1:.3e}, {m2:.3e}, {m3:.3e}) >= -1e-9; "
        f"single-atom margin defect = {atom_defect:.3e} <= 1e-12",
    )


def _bound_campaigns(mode: str, norms: tuple[str, ...]):
    per = PAIR_TARGET // (len(norms) * 3) + 1
    reports = [
        run_campaign(
            CampaignConfig(mode, seed=SEED, samples=per, dim=dim, norm=norm)
        )
        for norm in norms
        for dim in (2, 3, 5)
    ]
    total = sum(r.samples for r in reports)
    max_value = max(r.max_value for r in reports)
    clean = all(r.passed for r in reports)
    return total, max_value, clean


def test_criterion_4_ball_bound_and_extremal_values():
    total, max_value, clean = _bound_campaigns("ball", ("l2", "lp:3"))
    defect = 0.0
    for dim in (2, 3, 5):
        space = euclidean(dim)
        raw = np.array([2.0 ** -k for k in range(dim)], dtype=complex)
        u = raw / rho(space, raw)
        fv = zalcman_nd(space, make_extremal_ball(space, u), 0.75 * u, mode="ball")
        defect = max(
            defect,
            abs(fv.zalcman - 2.0),
            *(abs(v - k) for v, k in zip(fv.values, (2.0, 3.0, 4.0))),
        )
    ok = clean and total >= PAIR_TARGET and max_value <= 2.0 + 1e-9 and defect <= 1e-12
    report(
        4,
        ok,
        f"ball bound: max = {max_value:.12f} <= 2 + 1e-9 over {total} pairs "
        f"(l2, lp:3; C^2/3/5); extremal defect on (2,3,4)/2 = {defect:.3e} <= 1e-12",
    )


def test_criterion_5_domain_bound_and_extremal_values():
    total, max_value, clean = _bound_campaigns("domain", ("sup", "lp:3"))
    defect = 0.0
    for dim in (2, 3, 5):
        sup = sup_space(dim)
        raw = np.array([2.0 ** -k for k in range(dim)], dtype=complex)
        u = raw / rho(sup, raw)
        fv = zalcman_nd(sup, make_extremal_domain(sup), 0.75 * u, mode="domain")
        defect = max(
            defect,
            abs(fv.zalcman - 2.0),
            *(abs(v - k) for v, k in zip(fv.values, (2.0, 3.0, 4.0))),
        )
        cube = lp_space(dim, 3.0)
        e1 = np.zeros(dim, dtype=complex)
        e1[0] = 1.0
        fv = zalcman_nd(cube, make_extremal_domain(cube), 0.75 * e1, mode="domain")
        defect = max(
            defect,
            abs(fv.zalcman - 2.0),
            *(abs(v - k) for v, k in zip(fv.values, (2.0, 3.0, 4.0))),
        )
    ok = clean and total >= PAIR_TARGET and max_value <= 2.0 + 1e-9 and defect <= 1e-12
    report(
        5,
        ok,
        f"domain bound: max = {max_value:.12f} <= 2 + 1e-9 over {total} pairs "
        f"(sup, lp:3; C^2/3/5); extremal defect on (2,3,4)/2 = {defect:.3e} <= 1e-12",
    )


def _campaign_rows(cfg: CampaignConfig) -> np.ndarray:
    """The normalized residual columns behind a reduction or gradients
    report: the campaign's own blocks through its own kernel."""
    space = space_of(cfg)
    if cfg.campaign == "gradients":
        blocks = [campaigns._gradient_rows(cfg, space, idx)[1] for idx in campaigns._index_blocks(cfg, space)]
    else:
        blocks = [
            np.stack([red / campaigns.REDUCTION_TOL, dual / campaigns.DUAL_PATH_TOL], axis=1)
            for red, dual in (reduction_rows(space, *b) for b in campaigns._lifted_blocks(cfg, space))
        ]
    return np.concatenate(blocks)


def _identity_campaigns(campaign: str, families, samples: int):
    """Reports of an identity campaign over (dim, norm) families, and the
    per-check maxima of its residual rows (each over its tolerance)."""
    reports, worst = [], None
    for dim, norm in families:
        cfg = CampaignConfig(campaign, seed=SEED, samples=samples, dim=dim, norm=norm)
        reports.append(run_campaign(cfg))
        rows = _campaign_rows(cfg)
        assert rows.max() == reports[-1].max_value
        worst = rows.max(axis=0) if worst is None else np.maximum(worst, rows.max(axis=0))
    total = sum(r.samples for r in reports)
    max_value = max(r.max_value for r in reports)
    clean = all(r.passed for r in reports)
    return total, max_value, clean, worst.tolist()


def test_criterion_6_reduction_identity():
    families = ((2, "l2"), (3, "lp:3"), (2, "sup"), (3, "l1"))
    total, max_value, clean, (red, dual) = _identity_campaigns("reduction", families, 250)
    red, dual = red * campaigns.REDUCTION_TOL, dual * campaigns.DUAL_PATH_TOL
    # max_value <= 1 is every residual within its own tolerance.
    ok = clean and total == 1000 and max_value <= 1.0
    report(
        6,
        ok,
        f"reduction identity residual max = {red:.3e} <= 1e-10 and closed-form vs pairing/"
        f"gradient routes = {dual:.3e} <= 1e-12 over {total} points (all four gauge families)",
    )


def test_criterion_7_gauge_gradient_identities():
    families = ((3, "l2"), (3, "lp:3"), (3, "sup"), (3, "l1"))
    total, max_value, clean, (euler, scale, phase, fd) = _identity_campaigns("gradients", families, 1000)
    euler *= campaigns.EULER_TOL
    cov = max(scale, phase) * campaigns.GRAD_COVARIANCE_TOL
    fd *= campaigns.GRAD_FD_TOL
    ok = clean and total == 4000 and max_value <= 1.0
    report(
        7,
        ok,
        f"Euler residual = {euler:.3e} <= 1e-12; scale/phase covariance = "
        f"{cov:.3e} <= 1e-12; FD relative error = {fd:.3e} <= 1e-6 "
        "(1000 points x 4 families)",
    )


def test_criterion_8_coefficient_oracle_equivalence():
    worst = 0.0
    for i in range(10_000):
        mu = sample_measure(SEED, i)
        a = coeffs_from_p(mu)
        b = coeffs_oracle(mu)
        worst = max(worst, max(abs(x - y) for x, y in zip(a.a, b.a)))
    ok = worst <= 1e-12
    report(
        8,
        ok,
        f"recurrence vs exponential oracle: max coefficient gap = {worst:.3e} "
        "<= 1e-12 over 10000 measures at order 7",
    )


def test_criterion_9_starlikeness_scans():
    clean = True
    families = (euclidean(2), lp_space(3, 3.0), sup_space(3), l1_space(2))
    for space in families:
        raw = np.array([2.0 ** -k for k in range(space.dim)], dtype=complex)
        u = raw / rho(space, raw)
        clean &= starlikeness_scan(space, make_extremal_ball(space, u)).passed
        clean &= starlikeness_scan(space, make_extremal_domain(space)).passed
        rng = np.random.default_rng(subseed(SEED, 9))
        clean &= starlikeness_scan(space, sample_lifted_spec(space, rng)).passed
    overweight = [(2.0, Covector((1.0, 0.0)))]
    flagged = starlikeness_scan(euclidean(2), overweight, seed=SEED)
    caught = (not flagged.passed) and flagged.witness is not None
    witness_note = (
        "none"
        if flagged.witness is None
        else f"Re h = {flagged.witness.h_value.real:.3f} at zeta = "
        f"{flagged.witness.zeta:.3f}"
    )
    ok = clean and caught
    report(
        9,
        ok,
        f"extremal/sampled specs pass on all families = {clean}; overweight spec "
        f"flagged with witness ({witness_note})",
    )


def test_criterion_10_suite_runtime(suite_elapsed):
    elapsed = suite_elapsed()
    ok = elapsed < 60.0
    report(
        10,
        ok,
        f"full suite wall clock = {elapsed:.1f} s < 60 s "
        "(exit status is pytest's own)",
    )
