import cmath
import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from zalcman import (
    CampaignConfig,
    Covector,
    euclidean,
    l1_space,
    lp_space,
    make_extremal_ball,
    make_extremal_domain,
    rho,
    sample_lifted_spec,
    starlikeness_scan,
    sup_space,
    zalcman_nd,
)
from zalcman import mappings
from zalcman.campaigns import _lifted_sample, space_of
from zalcman.geometry import (
    ExceptionalPoint,
    InvalidDirection,
    dual_norm,
    norming_rows,
    pair,
    sample_direction,
    sample_point,
    sphere_rows,
)
from zalcman.herglotz import uniforms
from zalcman.mappings import (
    DUAL_NORM_TOL,
    SCAN_DRAW_START,
    GridSpec,
    LiftedMapSpec,
    ScanReport,
    ScanWitness,
    functional_A,
    functional_B,
    h_eval,
    hom_parts,
    pole_witness,
    reduction_crosscheck,
    restrict_h,
)

from support import lifted_specs, unit_complex

FAMILIES = [euclidean(3), lp_space(3, 3.0), sup_space(3), l1_space(3)]


def family_ids():
    return [f"{s.kind}{s.p or ''}" for s in FAMILIES]


def single_atom(entries) -> LiftedMapSpec:
    return LiftedMapSpec(((1.0, Covector(tuple(entries))),))


E2 = euclidean(2)
FIRST_COORDINATE = single_atom((1.0, 0.0))


def test_spec_validation():
    with pytest.raises(ValueError):
        LiftedMapSpec(())
    with pytest.raises(ValueError):
        LiftedMapSpec(((-0.2, Covector((1.0,))), (1.2, Covector((1.0,)))))
    with pytest.raises(ValueError):
        LiftedMapSpec(((0.7, Covector((1.0,))),))
    # NaN compares false against both the sign and the sum checks, so it
    # needs its own rejection, in the constructor and in from_json alike.
    for lam in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            LiftedMapSpec(((lam, Covector((1.0, 0.0))),))
        with pytest.raises(ValueError):
            LiftedMapSpec(((0.5, Covector((1.0, 0.0))), (lam, Covector((0.0, 1.0)))))
    for token in ("NaN", "Infinity"):
        obj = json.loads(f'{{"atoms": [{{"lambda": {token}, "b": [[1.0, 0.0], [0.0, 0.0]]}}]}}')
        with pytest.raises(ValueError):
            LiftedMapSpec.from_json(obj)
    # Non-finite covector entries are rejected by the same check as the
    # sampler's batch rows, before any gauge is involved.
    for entry in (math.nan, math.inf, -math.inf, complex(0.0, math.nan), complex(0.0, -math.inf)):
        with pytest.raises(ValueError, match="covector entries"):
            LiftedMapSpec(((1.0, Covector((0.5, entry))),))
        with pytest.raises(ValueError, match="covector entries"):
            LiftedMapSpec(((0.5, Covector((0.5, 0.0))), (0.5, Covector((entry, 0.0)))))
    for bad in ('[[Infinity, 0.0], [0.0, 0.0]]', '[[NaN, 0.0], [0.0, 0.0]]',
                '[[0.5, 0.0], [0.0, -Infinity]]'):
        obj = json.loads(f'{{"atoms": [{{"lambda": 1.0, "b": {bad}}}]}}')
        with pytest.raises(ValueError, match="covector entries"):
            LiftedMapSpec.from_json(obj)


def test_json_roundtrip_is_exact():
    spec = LiftedMapSpec(
        ((0.25, Covector((0.3 + 0.1j, -0.2))), (0.75, Covector((0.0, 0.9j))))
    )
    assert LiftedMapSpec.from_json(spec.to_json()) == spec


def test_hom_parts_trivial_and_capped():
    assert hom_parts(FIRST_COORDINATE, np.array([0.9, 0.1]), 0) == [1.0]
    with pytest.raises(ValueError):
        hom_parts(FIRST_COORDINATE, np.array([0.5, 0.0]), 7)


@given(unit_complex)
def test_single_atom_hom_parts_match_the_squared_reciprocal(x):
    # f(z) = (1 - x)^{-2} along the ray, so f_j = (j+1) x^j.
    z = np.array([0.5 * x, 0.3])
    f = hom_parts(FIRST_COORDINATE, z, 6)
    for j, fj in enumerate(f):
        assert abs(fj - (j + 1) * (0.5 * x) ** j) < 1e-12


def test_two_atom_first_part_is_the_weighted_trace():
    spec = LiftedMapSpec(
        ((0.5, Covector((1.0, 0.0))), (0.5, Covector((0.0, 1.0))))
    )
    z = np.array([0.3 + 0.1j, -0.2])
    assert abs(hom_parts(spec, z, 1)[1] - (z[0] + z[1])) < 1e-15


@pytest.mark.parametrize("r", [0.3, 0.75])
def test_extremal_ball_functionals_hit_234(r):
    u = np.array([1.0, 0.5]) / rho(E2, np.array([1.0, 0.5]))
    spec = make_extremal_ball(E2, u)
    values = [functional_A(E2, spec, r * u, k) for k in (2, 3, 4)]
    for v, expected in zip(values, (2.0, 3.0, 4.0)):
        assert abs(v - expected) < 1e-12


def test_functionals_vanish_on_the_kernel():
    z = np.array([0.0, 0.5])
    for k in (2, 3, 4):
        assert functional_A(E2, FIRST_COORDINATE, z, k) == 0.0


def test_diagonal_point_pins_the_known_values():
    z = 0.6 * np.array([1.0, 1.0]) / math.sqrt(2.0)
    a2 = functional_A(E2, FIRST_COORDINATE, z, 2)
    a3 = functional_A(E2, FIRST_COORDINATE, z, 3)
    a4 = functional_A(E2, FIRST_COORDINATE, z, 4)
    assert abs(a2 - math.sqrt(2.0)) < 1e-12
    assert abs(a3 - 1.5) < 1e-12
    assert abs(a4 - math.sqrt(2.0)) < 1e-12
    fv = zalcman_nd(E2, FIRST_COORDINATE, z)
    assert abs(fv.zalcman - math.sqrt(2.0) / 2.0) < 1e-12


def test_polydisk_domain_functionals_hit_234():
    s = sup_space(2)
    spec = make_extremal_domain(s)
    z = 0.8 * np.array([1.0, 0.5])
    values = [functional_B(s, spec, z, k) for k in (2, 3, 4)]
    for v, expected in zip(values, (2.0, 3.0, 4.0)):
        assert abs(v - expected) < 1e-12
    assert functional_B(s, spec, np.array([0.0, 0.5]), 3) == 0.0


def test_functional_order_is_validated():
    z = np.array([0.5, 0.2])
    for functional in (functional_A, functional_B):
        for k in (1, 5):
            with pytest.raises(ValueError, match="functional order"):
                functional(E2, FIRST_COORDINATE, z, k)


@pytest.mark.parametrize("space", FAMILIES, ids=family_ids())
def test_closed_form_agrees_with_both_pairing_routes(space):
    rng = np.random.default_rng(21)
    for _ in range(40):
        spec = sample_lifted_spec(space, rng)
        z = sample_point(space, rng, min_gap=1e-3)
        closed = zalcman_nd(space, spec, z).values
        for k in (2, 3, 4):
            assert abs(closed[k - 2] - functional_A(space, spec, z, k)) < 1e-12
            assert abs(closed[k - 2] - functional_B(space, spec, z, k)) < 1e-12


def _binomial_series(c, sign, count):
    """Coefficients of (1 + sign t)^c through t^(count - 1), exactly."""
    out, term = [], Fraction(1)
    for j in range(count):
        out.append(term)
        term = term * (c - j) / (j + 1) * sign
    return out


def _roper_suffridge_forms(alpha, beta, r):
    """The product form A2 A3 - A4 and the composition forms Z_B2, Z_B3 of
    Phi_{alpha,beta}(Koebe)(z) = (f(z_1), z_2 (f(z_1)/z_1)^alpha f'(z_1)^beta)
    on the Euclidean ball B^2 at u = (r, sqrt(1 - r^2)), exactly, and the
    coefficients e_0..e_3 of (f/t)^alpha f'^beta.

    P_k(z) = D^k F(0)(z^k)/k! = (a_k z_1^k, e_{k-1} z_2 z_1^{k-1}) is linear
    in z_2, so every vector met here is (x, c u_2) with x, c rational, held
    as (x, c); l_u pairs it to r x + (1 - r^2) c.
    """
    a = (None, 1, 2, 3, 4)  # Koebe a_k = k, 1-based
    # (f/t)^alpha f'^beta = (1 + t)^beta (1 - t)^(-2 alpha - 3 beta)
    plus, minus = _binomial_series(beta, 1, 4), _binomial_series(-2 * alpha - 3 * beta, -1, 4)
    e = [sum(plus[i] * minus[j - i] for i in range(j + 1)) for j in range(4)]

    def polar(k, *vs):
        """The symmetric k-linear polarization of P_k at vs."""
        first = a[k] * math.prod(v[0] for v in vs)
        second = sum(v[1] * math.prod(w[0] for w in vs[:i] + vs[i + 1:]) for i, v in enumerate(vs))
        return first, e[k - 1] * second / k

    def l_u(v):
        return r * v[0] + (1 - r * r) * v[1]

    u = (r, Fraction(1))
    A2, A3, A4 = (l_u(polar(k, *[u] * k)) for k in (2, 3, 4))
    p4 = polar(4, u, u, u, u)
    b2, b3 = polar(2, u, polar(3, u, u, u)), polar(3, u, u, polar(2, u, u))
    zb2 = l_u((b2[0] - p4[0], b2[1] - p4[1]))
    zb3 = l_u((b3[0] - p4[0], b3[1] - p4[1]))
    return A2 * A3 - A4, zb2, zb3, e


def test_the_product_form_exceeds_2_off_the_zf_family():
    # Phi_{1/2,1/2}(Koebe) is starlike on B^2 (generalized Roper-Suffridge
    # extension; Graham, Hamada & Kohr, Canad. J. Math. 2002), yet at
    # |u_1| = 19/20 its product form |A2 A3 - A4| is above 2.  The campaigns
    # check the product form on the z f(z) family only, where the two
    # composition forms agree with it; here they stay below 2.
    r = Fraction(19, 20)
    half = Fraction(1, 2)
    product, zb2, zb3, e = _roper_suffridge_forms(half, half, r)
    assert e == [1, 3, Fraction(11, 2), Fraction(17, 2)]
    assert product == Fraction(1038185099, 512000000) > 2
    assert zb2 == Fraction(24356309, 12800000) < 2
    assert zb3 == Fraction(6111369, 3200000) < 2
    # At (alpha, beta) = (1, 0) the map is z f(z_1)/z_1, a z f(z) map:
    # A_k = u_1^{k-1} a_k, and all three forms equal 2 u_1^3.
    assert _roper_suffridge_forms(1, 0, r)[:3] == (2 * r ** 3,) * 3


def test_restrict_h_of_the_trivial_spec_is_one():
    spec = single_atom((0.0, 0.0))
    h = restrict_h(spec, np.array([0.7, 0.1]))
    assert h.coeffs[0] == 1
    assert max(abs(c) for c in h.coeffs[1:]) == 0.0


@given(unit_complex)
def test_single_atom_transfer_coefficients_are_koebe_moments(x):
    z0 = np.array([x, 0.0])
    h = restrict_h(FIRST_COORDINATE, z0, order=5)
    assert h.coeffs[0] == 1
    for k in range(1, 6):
        assert abs(h.coeffs[k] - 2.0 * x**k) < 1e-12


@pytest.mark.parametrize("space", FAMILIES, ids=family_ids())
def test_transfer_function_is_caratheodory_along_rays(space):
    rng = np.random.default_rng(31)
    for _ in range(10):
        spec = sample_lifted_spec(space, rng)
        z0 = sample_direction(space, rng, min_gap=1e-3)
        h = restrict_h(spec, z0)
        # Rational values stay in the right half plane all the way out;
        # the order-6 truncation is only trusted on a smaller disk.
        for r in (0.3, 0.6, 0.99):
            for j in range(12):
                zeta = r * np.exp(2j * np.pi * j / 12)
                assert h_eval(spec, z0, zeta).real > 0.0
                if r <= 0.6:
                    assert h(zeta).real > 0.0


def test_zalcman_nd_validates_inputs():
    z = np.array([0.5, 0.2])
    with pytest.raises(ExceptionalPoint):
        zalcman_nd(E2, FIRST_COORDINATE, np.zeros(2))
    with pytest.raises(ExceptionalPoint):
        zalcman_nd(sup_space(2), FIRST_COORDINATE, np.array([0.5, 0.5]))


@pytest.mark.parametrize("space", FAMILIES, ids=family_ids())
@pytest.mark.parametrize("mode", ["ball", "domain"])
def test_bound_holds_on_random_lifted_maps(space, mode):
    # The closed form stands for both normalizations; each mode also
    # bounds |A2 A3 - A4| assembled from its own pairing route.
    functional = functional_A if mode == "ball" else functional_B
    rng = np.random.default_rng(41)
    for _ in range(60):
        spec = sample_lifted_spec(space, rng)
        z = sample_point(space, rng)
        assert zalcman_nd(space, spec, z).zalcman <= 2.0 + 1e-9
        a2, a3, a4 = (functional(space, spec, z, k) for k in (2, 3, 4))
        assert abs(a2 * a3 - a4) <= 2.0 + 1e-9


@pytest.mark.parametrize("space", FAMILIES, ids=family_ids())
def test_scale_and_phase_invariance(space):
    rng = np.random.default_rng(51)
    for _ in range(25):
        spec = sample_lifted_spec(space, rng)
        z = sample_point(space, rng, min_gap=1e-3)
        base = zalcman_nd(space, spec, z).zalcman
        halved = zalcman_nd(space, spec, 0.5 * z).zalcman
        if space.kind in ("sup", "l1"):
            assert halved == base
        else:
            assert abs(halved - base) < 1e-14
        ph = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        assert abs(zalcman_nd(space, spec, ph * z).zalcman - base) < 1e-11


@pytest.mark.parametrize("space", FAMILIES, ids=family_ids())
def test_reduction_residual_stays_tiny(space):
    rng = np.random.default_rng(61)
    worst = 0.0
    for _ in range(60):
        spec = sample_lifted_spec(space, rng)
        z = sample_point(space, rng, min_gap=1e-3)
        worst = max(worst, reduction_crosscheck(space, spec, z))
    assert worst <= 1e-10


def test_reduction_on_the_extremal_map_is_exact_to_working_precision():
    u = np.array([1.0, 0.5]) / rho(E2, np.array([1.0, 0.5]))
    spec = make_extremal_ball(E2, u)
    assert reduction_crosscheck(E2, spec, 0.75 * u) <= 1e-12


def test_scan_passes_on_extremal_and_sampled_specs():
    rep = starlikeness_scan(E2, make_extremal_ball(E2, np.array([1.0, 0.0])))
    assert rep.passed and rep.witness is None
    assert rep.min_real > 0.0
    assert rep.samples == 24 * 16 * 64

    rng = np.random.default_rng(71)
    spec = sample_lifted_spec(sup_space(3), rng)
    rep = starlikeness_scan(sup_space(3), spec, GridSpec(directions=6))
    assert rep.passed


def test_scan_flags_the_overweight_spec():
    # Weights summing to 2 ((1 - z_1)^{-4}) escape the Caratheodory class,
    # and the scan must produce a concrete certificate.
    bad = [(2.0, Covector((1.0, 0.0)))]
    rep = starlikeness_scan(E2, bad, seed=3)
    assert not rep.passed
    assert rep.witness is not None
    assert rep.min_real <= 0.0
    assert rep.witness.h_value.real <= 0.0
    w = rep.witness
    assert len(w.direction) == 2 and math.isclose(rho(E2, np.array(w.direction)), 1.0)
    assert cmath.isfinite(w.zeta) and cmath.isfinite(w.h_value)


def scan_direction(space, seed, d):
    """Direction d of the scan of ``seed``, drawn as a batch of one."""
    u = uniforms(seed, [d], 2 * space.dim, SCAN_DRAW_START)
    return sphere_rows(space, u, seed, [d], SCAN_DRAW_START)[0]


def pointwise_scan(space, spec, grid, seed):
    """(min Re h, first nonpositive (direction, zeta, h)) by scalar h_eval
    calls in (direction, radius, angle) order, with the scan's directions
    drawn one at a time."""
    radii = np.geomspace(grid.rmin, grid.rmax, grid.radii)
    min_real, first = math.inf, None
    for d in range(grid.directions):
        z0 = scan_direction(space, seed, d)
        for r in radii:
            for j in range(grid.angles):
                zeta = complex(r * np.exp(2j * np.pi * j / grid.angles))
                h = h_eval(spec, z0, zeta)
                min_real = min(min_real, h.real)
                if h.real <= 0.0 and first is None:
                    first = (z0, zeta, h)
    return min_real, first


@pytest.mark.parametrize("valid", [True, False])
def test_scan_matches_a_pointwise_walk(valid):
    grid = GridSpec(directions=5, radii=4, angles=9)
    spec = sample_lifted_spec(E2, np.random.default_rng(81))
    if not valid:
        b = spec.atoms[0][1]
        spec = single_atom(b.scale(1.5 / dual_norm(E2, b)).entries)
    rep = starlikeness_scan(E2, spec, grid, seed=4)
    min_real, first = pointwise_scan(E2, spec, grid, seed=4)
    assert rep.samples == 5 * 4 * 9
    assert abs(rep.min_real - min_real) <= 1e-12 * abs(min_real)
    assert rep.passed == valid == (first is None)
    if first is not None:
        z0, zeta, h = first
        assert rep.witness.direction == tuple(complex(c) for c in z0)
        assert abs(rep.witness.zeta - zeta) <= 1e-12
        assert abs(rep.witness.h_value - h) <= 1e-12 * abs(h)


def test_scan_of_the_trivial_spec_is_flat():
    # Raw atoms all of weight 0 make f(z) = z as well.
    for spec in (single_atom((0.0, 0.0)), [(0.0, (5.0, 0.0))]):
        rep = starlikeness_scan(E2, spec)
        assert rep.min_real == 1.0
        assert rep.passed


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(directions=0)
    # The zeta-grid must lie in the open unit disk, with finite radii.
    for rmin, rmax in ((0.05, 1.5), (0.05, 1.0), (0.0, 0.5), (0.6, 0.5), (math.nan, 0.5),
                       (1.2, 1.4), (0.5, math.inf), (0.5, math.nan), (-math.inf, 0.5)):
        with pytest.raises(ValueError):
            GridSpec(rmin=rmin, rmax=rmax)


def test_make_extremal_ball_contracts():
    with pytest.raises(InvalidDirection):
        make_extremal_ball(E2, np.array([1.0, 1.0]))
    spec = make_extremal_ball(E2, np.array([1.0, 0.0]))
    assert spec.atoms[0][0] == 1.0
    assert spec.atoms[0][1].entries == (1.0, 0.0)


def test_make_extremal_domain_contracts():
    spec = make_extremal_domain(sup_space(3))
    assert spec.atoms[0][1].entries == (1.0, 0.0, 0.0)
    rep = starlikeness_scan(sup_space(3), spec)
    assert rep.passed


@given(lifted_specs(euclidean(2)))
def test_generated_specs_satisfy_their_own_invariants(spec):
    assert (dual_norm(euclidean(2), spec.padded()[1][0]) <= 1.0 + DUAL_NORM_TOL).all()
    assert pole_witness(euclidean(2), spec) is None
    total = sum(lam for lam, _ in spec.atoms)
    assert abs(total - 1.0) < 1e-12
    assert LiftedMapSpec.from_json(spec.to_json()) == spec


# --- covector lengths -------------------------------------------------------

@pytest.mark.parametrize("entries", [(1.0,), (0.5, 0.25, 0.125)], ids=["short", "long"])
def test_covectors_of_the_wrong_length_are_rejected(entries):
    spec = single_atom(entries)
    z0 = np.array([1.0, 0.0])
    with pytest.raises(ValueError, match="covector of length"):
        starlikeness_scan(E2, spec, GridSpec(directions=2))
    with pytest.raises(ValueError, match="covector of length"):
        h_eval(spec, z0, 0.5)
    with pytest.raises(ValueError, match="covector of length"):
        zalcman_nd(E2, spec, 0.5 * z0)
    with pytest.raises(ValueError, match="covector of length"):
        pair(np.array(entries), z0)
    with pytest.raises(ValueError, match="expected covectors of length 2"):
        dual_norm(E2, spec.padded()[1][0])


def test_a_witness_from_c3_does_not_replay_on_c2():
    cfg = CampaignConfig("ball", seed=3, samples=1, dim=3, norm="l2")
    spec, z = _lifted_sample(cfg, space_of(cfg), 0)
    spec = LiftedMapSpec.from_json(json.loads(json.dumps(spec.to_json())))
    with pytest.raises(ValueError, match="covector of length 3 paired with a vector of length 2"):
        zalcman_nd(E2, spec, z[:2])


# --- exact verdict of the scan -----------------------------------------------

@pytest.mark.parametrize("space", FAMILIES, ids=family_ids())
def test_norming_points_have_unit_gauge_and_attain_the_dual_norm(space):
    rng = np.random.default_rng(17)
    b = rng.normal(size=(40, 3)) + 1j * rng.normal(size=(40, 3))
    b[::4, 1] = 0.0  # zero entries take the special branches
    z = norming_rows(space, b)
    assert np.abs(rho(space, z) - 1.0).max() <= 1e-15
    paired = pair(b, z)
    norms = dual_norm(space, b)
    assert np.abs(paired - norms).max() <= 1e-14 * norms.max()


@pytest.mark.parametrize("space", [E2, lp_space(2, 3.0)], ids=["l2", "lp3"])
@pytest.mark.parametrize("norm", [1.001, 1.01, 1.0])
def test_scan_fails_exactly_the_maps_with_an_atom_past_the_dual_ball(space, norm):
    # Beyond dual norm 1 the pole of h lies inside the disk but, for these
    # norms, outside the grid's largest radius 0.99.
    rng = np.random.default_rng(5)
    b = Covector(tuple(rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)))
    other = Covector((0.5,) + (0.0,) * (space.dim - 1))
    spec = LiftedMapSpec(((0.75, b.scale(norm / dual_norm(space, b))), (0.25, other)))
    rep = starlikeness_scan(space, spec, seed=2)
    assert rep.samples == 24 * 16 * 64
    if norm == 1.0:
        assert rep.passed and rep.min_real > 0.0
        assert pole_witness(space, spec) is None
        return
    assert not rep.passed
    w = rep.witness
    assert w == pole_witness(space, spec)
    assert abs(rho(space, np.array(w.direction)) - 1.0) <= 1e-15
    assert abs(w.zeta) < 1.0
    assert h_eval(spec, list(w.direction), w.zeta) == w.h_value
    assert w.h_value.real <= 0.0 and rep.min_real == w.h_value.real


def test_pole_witness_ignores_atoms_of_zero_weight_and_tolerates_rounding():
    # A zero-weight atom drops out of f, however large its functional.
    spec = LiftedMapSpec(((1.0, Covector((0.6, 0.8))), (0.0, Covector((5.0, 0.0)))))
    assert pole_witness(E2, spec) is None and starlikeness_scan(E2, spec).passed
    edge = single_atom((1.0 + 0.5 * DUAL_NORM_TOL, 0.0))
    assert pole_witness(E2, edge) is None
    assert pole_witness(E2, single_atom((1.0 + 2.0 * DUAL_NORM_TOL, 0.0))) is not None


@pytest.mark.parametrize("lam", [1e-3, 1e-9, 1e-13, 1e-15, 1e-16])
def test_pole_witness_of_a_light_atom(lam):
    # The heavy atom's term is about 1 at the light atom's pole 2/3, so the
    # offset must fall to about lam/2.  At 1e-16 no float offset is that
    # small: the witness keeps Re h > 0, and the map still fails.
    spec = LiftedMapSpec(((1.0 - lam, Covector((0.5, 0.0))), (lam, Covector((0.0, 1.5)))))
    w = pole_witness(E2, spec)
    rep = starlikeness_scan(E2, spec)
    assert w is not None and not rep.passed
    assert abs(w.zeta) < 1.0
    assert h_eval(spec, list(w.direction), w.zeta) == w.h_value
    if lam >= 1e-15:
        assert w.h_value.real <= 0.0 and rep.witness == w and rep.min_real == w.h_value.real


POLE_ATOMS = ((0.5, (0.5, 0.0)), (0.5, (0.0, 1.5)))


def test_scalar_and_array_h_agree_at_a_pole():
    # 1.5 * (1/1.5) rounds to 1, so zeta is on the pole of the second atom.
    spec = LiftedMapSpec(POLE_ATOMS)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scalar = h_eval(spec, [0, 1], 1 / 1.5)
        array = h_eval(spec, [0, 1], np.array([1 / 1.5]))
    np.testing.assert_array_equal(array, [scalar])
    assert not np.isfinite(scalar)


@pytest.mark.parametrize(
    "atoms, passed, min_real",
    [(((1.0, (0.5, 0.0)), (0.0, (0.0, 1.5))), True, 1.0), (POLE_ATOMS, False, -4.0)],
    ids=["zero-weight", "half-weight"],
)
def test_a_grid_point_on_a_pole(atoms, passed, min_real, monkeypatch):
    # With the scan's direction pinned to e_2, the grid's last radius is the
    # pole of the second atom.  Its term is identically 0 at weight 0; at
    # weight 1/2 the grid reads Re h = inf there and the pole witness fails
    # the map at h = -4.
    monkeypatch.setattr(mappings, "sphere_rows", lambda *args: np.array([[0.0, 1.0]], dtype=complex))
    grid = GridSpec(directions=1, radii=3, angles=4, rmin=0.1, rmax=1 / 1.5)
    rep = starlikeness_scan(E2, atoms, grid)
    assert rep.passed == passed and rep.min_real == min_real
    if not passed:
        assert rep.witness.h_value == -4.0
        assert rep.witness.direction == (0j, 1 + 0j) and cmath.isfinite(rep.witness.h_value)


def test_a_nan_on_the_grid_is_the_witness(monkeypatch):
    # Re h = NaN is not positive, so it fails a map whose other grid values
    # are all positive, and it makes min_real NaN.
    transfer, calls = mappings._transfer, []

    def nan_in_the_second_direction(lams, xs, zeta):
        h = transfer(lams, xs, zeta)
        calls.append(h)
        if len(calls) == 2:
            h[7] = complex(math.nan, 1.0)
        return h

    monkeypatch.setattr(mappings, "_transfer", nan_in_the_second_direction)
    grid = GridSpec(directions=3, radii=2, angles=8)
    rep = starlikeness_scan(E2, make_extremal_ball(E2, np.array([1.0, 0.0])), grid)
    assert len(calls) == 3 and math.isnan(rep.min_real) and not rep.passed
    assert rep.witness.zeta == grid.rmin * np.exp(2j * np.pi * 7 / 8)
    assert math.isnan(rep.witness.h_value.real)


def per_direction_scan(space, spec, grid, seed):
    """The scan as it was written before its directions were batched: one
    direction drawn as a batch of one and one ``h_eval`` call per
    direction, with the closed-form witness when the grid finds none."""
    radii = np.geomspace(grid.rmin, grid.rmax, grid.radii)
    phases = np.exp(2j * np.pi * np.arange(grid.angles) / grid.angles)
    zeta = (radii[:, None] * phases[None, :]).ravel()
    min_real = np.inf
    witness = None
    for d in range(grid.directions):
        z0 = scan_direction(space, seed, d)
        h = h_eval(spec, z0, zeta)
        min_real = np.minimum(min_real, h.real.min())
        bad = np.flatnonzero(~(h.real > 0.0))
        if witness is None and bad.size:
            k = bad[0]
            witness = ScanWitness(tuple(complex(c) for c in z0), complex(zeta[k]), complex(h[k]))
    if witness is None:
        witness = pole_witness(space, spec)
        if witness is not None:
            min_real = np.minimum(min_real, witness.h_value.real)
    return ScanReport(float(min_real), grid.directions * zeta.size, witness)


@pytest.mark.parametrize("seed", range(10))
def test_batched_scan_equals_the_per_direction_scan(seed):
    valid = sample_lifted_spec(E2, np.random.default_rng(100 + seed))
    b = valid.atoms[0][1]
    invalid = single_atom(b.scale(1.5 / dual_norm(E2, b)).entries)
    for spec in (valid, invalid):
        rep = starlikeness_scan(E2, spec, seed=seed)
        assert rep == per_direction_scan(E2, spec, GridSpec(), seed)
        assert rep.passed == (spec is valid)


def test_the_scan_reads_the_counter_stream_alone(monkeypatch):
    # Direction d is row d of the counter stream of the seed: the scan builds
    # no numpy Generator, and a smaller grid scans a prefix of the
    # directions of a larger one.
    valid = sample_lifted_spec(E2, np.random.default_rng(7))
    b = valid.atoms[0][1]
    invalid = single_atom(b.scale(1.5 / dual_norm(E2, b)).entries)
    expected = [starlikeness_scan(E2, spec, seed=5) for spec in (valid, invalid)]

    def no_generator(*args, **kwargs):
        raise AssertionError("the scan built a numpy Generator")

    drawn = []

    def recorded(*args):
        drawn.append(sphere_rows(*args))
        return drawn[-1]

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    monkeypatch.setattr(np.random, "SeedSequence", no_generator)
    monkeypatch.setattr(mappings, "sphere_rows", recorded)
    assert [starlikeness_scan(E2, spec, seed=5) for spec in (valid, invalid)] == expected
    assert [rep.passed for rep in expected] == [True, False]
    starlikeness_scan(E2, valid, GridSpec(directions=5), seed=5)
    assert drawn[0].shape == (24, 2) and (drawn[-1] == drawn[0][:5]).all()
