"""Lifted starlike mappings F(z) = z f(z) on balls and circular domains.

The test family is f(z) = prod_k (1 - l_k(z))^{-2 lam_k} with linear
functionals l_k of dual norm at most 1 and weights lam_k summing to 1.  On
the ray of a unit-gauge point z0, F restricts to g(zeta) = zeta f(zeta z0):

    h(zeta) = zeta g'(zeta) / g(zeta) = 1 + D f(zeta z0)(zeta z0) / f(zeta z0)
            = sum_k lam_k (1 + zeta x_k) / (1 - zeta x_k),   x_k = l_k(z0),

always has positive real part, certifying starlikeness of F: g is starlike
with Herglotz nodes x_k and moments p_m = 2 sum_k lam_k x_k^m, so the
functionals are the one-variable kernel (``herglotz.node_table``,
``table_moments``, ``starlike.batch_coeffs``) at the lifted nodes.  The
order-k coefficient functionals (the support-functional or gauge-gradient
pairings of D^k F(0)(z^k)/k!, normalized by the k-th gauge power) are
f_{k-1}(z0) at z0 = z/rho(z), the coefficient a_k of g.  Both
normalizations, the unit ball's and the circular domain's, are that one
closed form (``zalcman_rows``); twice the gauge gradient is the support
functional, so one pairing route (``pairing_rows``, ``functional_A``,
``functional_B``) cross-checks it.  The degree-4 combination
|A2 A3 - A4| = |J_{2,3}| of g never exceeds 2, with equality on the
Koebe-type maps built by ``make_extremal_ball`` and ``make_extremal_domain``.

The campaigns check the product form A2 A3 - A4 on z f(z) maps only; there
the composition forms l_u(P_2(u, P_3(u)) - P_4(u)) and
l_u(P_3(u, u, P_2(u)) - P_4(u)) of the homogeneous parts P_k agree with it.
Off that family they differ: at |u_1| = 19/20 the starlike Roper-Suffridge
extension Phi_{1/2,1/2} of the Koebe function on B^2 has product form
1038185099/512000000 > 2.

Batches of maps are padded arrays: weights (rows, atoms) and covectors
(rows, atoms, dim), a power of two of atoms, whose padding atoms have
weight 0 and covector 0; the atom rows follow the rules of ``herglotz``.
The sampler, the homogeneous parts, the functionals and the reduction check
work on whole batches; ``hom_parts``, ``closed_form_values``,
``zalcman_nd`` (one ``FunctionalValues`` for both normalizations),
``functional_A``, ``functional_B``, ``restrict_h``, ``reduction_crosscheck``
and ``sample_lifted_spec`` are batch-of-one calls into the same functions.
The sampler and the scan's directions turn uniforms of ``herglotz.uniforms``,
drawn by (seed, indices), into maps and points, so each map or direction
depends on its seed and index alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import (
    Covector,
    InvalidDirection,
    SpaceSpec,
    DIRECTION_TOL,
    check_off_exceptional,
    complex_uniforms,
    dual_norm,
    pair,
    rho,
    sphere_rows,
    support_covector,
    support_rows,
)
from .herglotz import atom_counts, check_weights, modulus, node_table, simplex_rows, table_moments, uniforms
from .series import TruncatedSeries
from .starlike import ZalcmanOrder, batch_coeffs, batch_zalcman

DUAL_NORM_TOL = 1e-12

# Least offset of the closed-form scan witness from the pole: a few ulps of 1.
POLE_EPS_FLOOR = 4 * np.finfo(float).eps

# Homogeneous parts are computed through degree 6: enough for the degree-4
# functionals plus the transfer-function coefficients c_1..c_3 with headroom.
MAX_HOM_DEGREE = 6

# Atoms of a sampled map, and the least width of padded atom arrays, so a
# replayed sample has the shape of its batch row.
SPEC_ATOMS = 4

# Scan direction d reads draws SCAN_DRAW_START on of index d of its seed: past
# every draw of a campaign sample in fewer than 2**21 dimensions.
SCAN_DRAW_START = 1 << 32

RAY_ORDER = ZalcmanOrder(2, 3)  # |A2 A3 - A4| = |J_{2,3}| of the ray function g

Atom = tuple[float, Covector]


def check_spec_rows(lams: np.ndarray, covs: np.ndarray) -> None:
    """``herglotz.check_weights`` and finite covector entries, for every row
    of padded atom arrays.  Raises ValueError."""
    check_weights(lams)
    if not np.isfinite(covs).all():
        raise ValueError("covector entries must be finite")


@dataclass(frozen=True)
class LiftedMapSpec:
    """Atoms (lam_k, b_k) of a product map f = prod (1 - b_k . z)^{-2 lam_k}.

    Weights are finite, nonnegative and sum to 1, and covector entries are
    finite, which makes F(z) = z f(z) starlike whenever every functional
    maps the domain into the unit disk; ``starlikeness_scan`` checks the
    dual-norm side against a concrete gauge.
    """

    atoms: tuple[Atom, ...]

    def __post_init__(self):
        object.__setattr__(
            self,
            "atoms",
            tuple((float(lam), b if isinstance(b, Covector) else Covector(tuple(b)))
                  for lam, b in self.atoms),
        )
        if not self.atoms:
            raise ValueError("need at least one atom")
        check_spec_rows(*self.padded())

    @classmethod
    def from_row(cls, lams: np.ndarray, covs: np.ndarray) -> "LiftedMapSpec":
        """The map of one row of padded atom arrays: its nonzero-weight atoms."""
        live = lams != 0.0
        return cls(tuple(zip(lams[live].tolist(), map(Covector, covs[live].tolist()))))

    def padded(self) -> tuple[np.ndarray, np.ndarray]:
        """Weights (1, W) and covectors (1, W, dim) padded with zero atoms to
        the least power of two W >= max(SPEC_ATOMS, atoms): a batch's layout."""
        return _padded(self)

    def to_json(self) -> dict:
        return {
            "atoms": [{"lambda": lam, "b": b.to_json()} for lam, b in self.atoms]
        }

    @classmethod
    def from_json(cls, obj: dict) -> "LiftedMapSpec":
        return cls(
            tuple(
                (entry["lambda"], Covector.from_json(entry["b"]))
                for entry in obj["atoms"]
            )
        )


class FunctionalValues(NamedTuple):
    """Order-2..4 coefficient functionals at a point and |A2 A3 - A4|: the
    same numbers under the ball and the domain normalization."""

    values: tuple[complex, complex, complex]
    zalcman: float


def _atoms_of(spec) -> tuple[Atom, ...]:
    if isinstance(spec, LiftedMapSpec):
        return spec.atoms
    return tuple((float(lam), b if isinstance(b, Covector) else Covector(tuple(b)))
                 for lam, b in spec)


def _padded(spec) -> tuple[np.ndarray, np.ndarray]:
    """Atoms of ``spec`` (a LiftedMapSpec or (lam, b) pairs, unchecked) as
    padded arrays of one row; see ``LiftedMapSpec.padded``."""
    atoms = _atoms_of(spec)
    width = 1 << (max(SPEC_ATOMS, len(atoms)) - 1).bit_length()
    lams = np.zeros((1, width))
    covs = np.zeros((1, width, len(atoms[0][1].entries)), dtype=complex)
    lams[0, : len(atoms)] = [lam for lam, _ in atoms]
    covs[0, : len(atoms)] = [b.entries for _, b in atoms]
    return lams, covs


def _atom_arrays(spec) -> tuple[np.ndarray, np.ndarray]:
    """Weights (atoms,) and covectors (atoms, dim) of the atoms of ``spec``
    of nonzero weight: the term of a weight-0 atom in h is 0, at its pole too."""
    lams, covs = _padded(spec)
    keep = lams[0] != 0.0
    return lams[0, keep], covs[0, keep]


def _moment_rows(lams: np.ndarray, covs: np.ndarray, z: np.ndarray, upto: int) -> np.ndarray:
    """Node moments p_m = 2 sum_k lam_k x_k^m, x_k = l_k(z), m = 1..upto, as
    ``table_moments`` (which conjugates) of the powers of conj(x)."""
    if not 0 <= upto <= MAX_HOM_DEGREE:
        raise ValueError(f"homogeneous degree capped at {MAX_HOM_DEGREE}")
    x = pair(covs, z[:, None, :])
    return table_moments(lams, node_table(x.real, -x.imag, upto))


def hom_rows(lams: np.ndarray, covs: np.ndarray, z: np.ndarray, upto: int) -> np.ndarray:
    """Values f_0(z)..f_upto(z) of the homogeneous parts of f at every row,
    as a (rows, upto + 1) array: the coefficients a_1..a_{upto+1} of
    g(t) = t f(tz), for t g'/g = 1 + sum_m p_m t^m with the node moments."""
    return batch_coeffs(_moment_rows(lams, covs, z, upto), upto + 1)


def hom_parts(spec, z, upto: int) -> list[complex]:
    """Values f_0(z)..f_upto(z) of the homogeneous parts of f at z."""
    return hom_rows(*_padded(spec), np.asarray(z, dtype=complex)[None], upto)[0].tolist()


def closed_form_values(spec, z, r: float) -> tuple[tuple[complex, complex, complex], float]:
    """The order-2..4 functionals f_{k-1}(z/r) at z with gauge r, and
    |A2 A3 - A4|.

    No check that z is off E: this is the continuous extension of the
    functionals, so callers that want the check make it first.
    """
    f = hom_rows(*_padded(spec), np.asarray(z, dtype=complex)[None] / r, 3)
    return tuple(f[0, 1:].tolist()), float(modulus(batch_zalcman(f, RAY_ORDER))[0])


def pairing_rows(space: SpaceSpec, f: np.ndarray, v: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The order-2..4 functionals of every row by explicit pairing of l_z
    with D^k F(0)(z^k)/k! = z f_{k-1}(z), over rho(z)^k: by homogeneity
    l_z(z0 f_{k-1}(z0)) at z0 = z/rho(z), for ``f`` = f_0..f_3 at z0 and
    the points ``v`` (rows, dim), already off E, with gauges ``r``.

    Must agree with the closed form because l_z(z0) = rho(z0) = 1.  Twice
    the gauge gradient is l_z, so the domain normalization pairs the same.
    """
    z0 = v / r[:, None]
    return pair(support_rows(space, v, r)[:, None, :], f[:, 1:4, None] * z0[:, None, :])


def zalcman_rows(
    space: SpaceSpec, lams: np.ndarray, covs: np.ndarray, z: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The order-2..4 functionals f_{k-1}(z/rho) (rows, 3) and
    |A2 A3 - A4| (rows,) of every row of a batch of maps and points; raises
    ExceptionalPoint if any point is at the origin or near E."""
    v, r = check_off_exceptional(space, z)
    f = hom_rows(lams, covs, v / r[:, None], 3)
    return f[:, 1:], modulus(batch_zalcman(f, RAY_ORDER))


def _paired(space: SpaceSpec, spec, z, k: int) -> complex:
    """The order-k functional at z by explicit pairing (see
    ``pairing_rows``)."""
    if k not in (2, 3, 4):
        raise ValueError("functional order must be 2, 3 or 4")
    v, r = check_off_exceptional(space, np.asarray(z, dtype=complex)[None])
    f = hom_rows(*_padded(spec), v / r[:, None], 3)
    return complex(pairing_rows(space, f, v, r)[0, k - 2])


def functional_A(space: SpaceSpec, spec, z, k: int) -> complex:
    """Ball-normalized order-k functional l_z(D^k F(0)(z^k)) / (k! ||z||^k),
    by pairing with the support functional l_z."""
    return _paired(space, spec, z, k)


def functional_B(space: SpaceSpec, spec, z, k: int) -> complex:
    """Domain-normalized order-k functional 2 (d rho/dz) D^k F(0)(z^k) / (k! rho^k):
    twice the gauge gradient is l_z, so this is the pairing of ``functional_A``."""
    return _paired(space, spec, z, k)


def zalcman_nd(space: SpaceSpec, spec, z) -> FunctionalValues:
    """Assemble the order-2..4 functionals and |A2 A3 - A4| at z by the
    closed form."""
    vals, value = zalcman_rows(space, *_padded(spec), np.asarray(z, dtype=complex)[None])
    return FunctionalValues(tuple(vals[0].tolist()), float(value[0]))


def restrict_h(spec, z0, order: int = MAX_HOM_DEGREE) -> TruncatedSeries:
    """Transfer function h along the ray of z0, as a truncated series.

    The caller supplies z0 on the unit sphere of the ambient gauge (the
    moments are gauge-free, the normalization is not).  h_0 = 1, and the
    coefficients c_k are the node moments, of a Caratheodory-class function.
    """
    p = _moment_rows(*_padded(spec), np.asarray(z0, dtype=complex)[None], order)
    return TruncatedSeries((1.0,) + tuple(p[0].tolist()))


def _transfer(lams: np.ndarray, x: np.ndarray, zeta):
    """h(zeta) = 1 + sum_k 2 lam_k x_k zeta / (1 - x_k zeta) for the atoms'
    weights and values x_k = b_k(z0); elementwise when zeta is an array.  The
    x_k stay numpy scalars, so a scalar zeta agrees with an array at a pole."""
    acc = np.complex128(1)
    for lam, xk in zip(lams.tolist(), x):
        y = xk * zeta
        acc += 2.0 * lam * y / (1.0 - y)
    return acc


def h_eval(spec, z0, zeta):
    """Exact rational value of the transfer function at zeta on the disk;
    elementwise when zeta is an array."""
    lams, covs = _atom_arrays(spec)
    with np.errstate(divide="ignore", invalid="ignore"):
        return _transfer(lams, pair(covs, np.asarray(z0, dtype=complex)), zeta)


@dataclass(frozen=True)
class GridSpec:
    """Sampling grid for starlikeness scans: ray directions times a polar
    zeta-grid with geometrically spaced radii in [rmin, rmax], where
    0 < rmin <= rmax < 1 keeps the grid in the open unit disk."""

    directions: int = 24
    radii: int = 16
    angles: int = 64
    rmin: float = 0.05
    rmax: float = 0.99

    def __post_init__(self):
        if min(self.directions, self.radii, self.angles) < 1:
            raise ValueError("grid sizes must be >= 1")
        # NaN and inf radii fail this chain too.
        if not 0.0 < self.rmin <= self.rmax < 1.0:
            raise ValueError(f"need 0 < rmin <= rmax < 1, got rmin={self.rmin}, rmax={self.rmax}")


@dataclass(frozen=True)
class ScanWitness:
    direction: tuple[complex, ...]
    zeta: complex
    h_value: complex


@dataclass(frozen=True)
class ScanReport:
    min_real: float
    samples: int
    witness: ScanWitness | None

    @property
    def passed(self) -> bool:
        return self.witness is None


def pole_witness(space: SpaceSpec, spec) -> ScanWitness | None:
    """A point where Re h <= 0, in closed form, when some atom of positive
    weight has dual norm above 1 + DUAL_NORM_TOL; None otherwise.

    Let k be the atom of largest dual norm, and z0 the support functional
    of b_k for the dual gauge ``space.dual()``, a unit-gauge point where
    x_k = b_k(z0) = ||b_k||_* > 1 puts the pole 1/x_k of its term inside
    the disk.  At zeta = (1 + eps)/x_k, with
    0 < eps < |x_k| - 1 so that |zeta| < 1, that term is
    -2 lam_k (1 + eps)/eps.  From eps = (|x_k| - 1)/2, while Re h > 0, eps
    becomes the least of eps/2 and lam_k/(B + 1), B the rest of Re h, but
    at least POLE_EPS_FLOOR, so h is never evaluated at the pole: an atom
    lighter than about B POLE_EPS_FLOOR / 2 leaves Re h > 0, and fails.
    """
    lams, covs = _atom_arrays(spec)
    norms = np.where(lams > 0.0, dual_norm(space, covs), 0.0)
    if not np.max(norms, initial=0.0) > 1.0 + DUAL_NORM_TOL:
        return None
    k = int(np.argmax(norms))
    z0 = support_rows(space.dual(), covs[k][None], norms[k, None])[0]
    x = pair(covs, z0)
    bz, others = complex(x[k]), np.arange(len(lams)) != k
    eps = (abs(bz) - 1.0) / 2.0
    while True:
        zeta = (1.0 + eps) / bz
        h = _transfer(lams, x, zeta)
        if h.real <= 0.0 or eps <= POLE_EPS_FLOOR:
            return ScanWitness(tuple(z0.tolist()), complex(zeta), complex(h))
        # min and max keep the halving when the bound is NaN.
        rest = _transfer(lams[others], x[others], zeta).real
        eps = max(POLE_EPS_FLOOR, min(eps / 2.0, lams[k] / (rest + 1.0)))


def starlikeness_scan(
    space: SpaceSpec,
    spec,
    grid: GridSpec = GridSpec(),
    seed: int = 0,
) -> ScanReport:
    """Starlikeness of the map: Re h > 0 for every unit-gauge z0 and zeta.

    When the weights lie on the simplex, h = sum_k lam_k (1 + x_k)/(1 - x_k)
    is a convex combination of Moebius maps, so Re h > 0 on the whole disk
    for every z0 exactly when every atom of positive weight has dual norm
    at most 1.  A map with an atom above 1 + DUAL_NORM_TOL fails.

    The grid is a cross-check that also catches maps whose weights are off
    the simplex: direction d is row d of one ``sphere_rows`` call on the
    counter stream of ``seed`` from draw SCAN_DRAW_START, every b_k(z0)
    from one ``pair`` call, and h is evaluated one direction at a
    time over the polar zeta-grid.  The first grid sample in (direction,
    radius, angle) order whose real part is not positive (NaN included) is
    the witness; if there is none and the dual norms fail the map, the
    witness is ``pole_witness``.  ``min_real`` is the least Re h over the
    grid and the witness, and ``samples`` counts the grid.
    """
    lams, covs = _atom_arrays(spec)
    d = np.arange(grid.directions)
    u = uniforms(seed, d, 2 * space.dim, SCAN_DRAW_START)
    directions = sphere_rows(space, u, seed, d, SCAN_DRAW_START)
    x = pair(covs, directions[:, None, :])
    radii = np.geomspace(grid.rmin, grid.rmax, grid.radii)
    phases = np.exp(2j * np.pi * np.arange(grid.angles) / grid.angles)
    zeta = (radii[:, None] * phases[None, :]).ravel()
    min_real = np.inf
    witness = None
    with np.errstate(divide="ignore", invalid="ignore"):
        for z0, xs in zip(directions, x):
            h = _transfer(lams, xs, zeta)
            least = h.real.min()  # NaN when any entry is NaN
            min_real = np.minimum(min_real, least)
            if witness is None and not least > 0.0:
                k = np.argmin(h.real > 0.0)
                witness = ScanWitness(tuple(complex(c) for c in z0), complex(zeta[k]), complex(h[k]))
    if witness is None:
        witness = pole_witness(space, spec)
        if witness is not None:
            min_real = np.minimum(min_real, witness.h_value.real)
    return ScanReport(float(min_real), grid.directions * zeta.size, witness)


def reduction_rows(
    space: SpaceSpec, lams: np.ndarray, covs: np.ndarray, z: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Scalar-reduction residual and dual-path residual of every row.

    The node moments at z0 = z/rho(z) are the transfer-function
    coefficients c_1..c_3, and the recurrence turns them into the closed
    form A2..A4 = f_1..f_3 at z0, which must satisfy the explicit formulas

        A2 = c_1,  A3 = (c_2 + c_1^2)/2,  A4 = (c_3 + c_1^3/2 + 3 c_1 c_2/2)/3,
        |A2 A3 - A4| = |c_1^3 - c_3|/3.

    The reduction residual is the largest absolute residual over these four
    checks; the dual-path residual is the largest disagreement of the
    closed form with the pairing route.
    """
    v, r = check_off_exceptional(space, z)
    c = _moment_rows(lams, covs, v / r[:, None], 3)
    f = batch_coeffs(c, 4)
    c1, c2, c3 = c.T
    a2, a3, a4 = f[:, 1:].T
    reduction = np.stack(
        [
            np.abs(modulus(batch_zalcman(f, RAY_ORDER)) - modulus(c1**3 - c3) / 3.0),
            modulus(a2 - c1),
            modulus(a3 - (c2 + c1**2) / 2.0),
            modulus(a4 - (c3 + c1**3 / 2.0 + 1.5 * c1 * c2) / 3.0),
        ],
        axis=1,
    ).max(axis=1)
    dual = modulus(f[:, 1:] - pairing_rows(space, f, v, r)).max(axis=1)
    return reduction, dual


def reduction_crosscheck(space: SpaceSpec, spec, z) -> float:
    """Residual of the scalar-reduction identities at z (see
    ``reduction_rows``)."""
    reduction, _ = reduction_rows(space, *_padded(spec), np.asarray(z, dtype=complex)[None])
    return float(reduction[0])


def make_extremal_ball(space: SpaceSpec, u) -> LiftedMapSpec:
    """Koebe-type extremal map z / (1 - l_u(z))^2 for a unit vector u."""
    uv = np.asarray(u, dtype=complex)
    r = rho(space, uv)
    if abs(r - 1.0) > DIRECTION_TOL:
        raise InvalidDirection(f"gauge of u is {r}, expected 1")
    return LiftedMapSpec(((1.0, support_covector(space, uv)),))


def make_extremal_domain(space: SpaceSpec) -> LiftedMapSpec:
    """Extremal map z / (1 - z_1)^2 of a circular domain whose first-axis
    slice is the unit disk, as for every implemented gauge family."""
    entries = [0j] * space.dim
    entries[0] = 1.0
    return LiftedMapSpec(((1.0, Covector(tuple(entries))),))


def spec_draws(space: SpaceSpec) -> int:
    """Uniforms ``spec_rows`` draws per row: the atom count, then per atom
    an exponential, a dual-norm scale and 2 dim for the covector."""
    return 1 + SPEC_ATOMS * (2 + 2 * space.dim)


def spec_rows(space: SpaceSpec, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Random certified-starlike product maps on the given gauge, one per
    row of ``u``, the (rows, ``spec_draws``) uniforms of each sample
    (``herglotz.uniforms``).

    Returns weights (rows, SPEC_ATOMS) and covectors (rows, SPEC_ATOMS, dim):
    the ``herglotz.atom_counts`` and ``simplex_rows`` of a measure, with
    each functional a covector of ``complex_uniforms`` (entries uniform on
    the square [-1, 1]^2) rescaled to a dual norm drawn from [0.25, 1],
    keeping the map holomorphic on the open unit ball of the gauge.  Atoms
    past the count are padding of weight 0 and covector 0, so a row's map
    is its atoms of positive weight: there are no counts.
    """
    lams, live = simplex_rows(u[:, 1 : 1 + SPEC_ATOMS], atom_counts(u[:, 0], SPEC_ATOMS))
    scales = 0.25 + 0.75 * u[:, 1 + SPEC_ATOMS : 1 + 2 * SPEC_ATOMS]
    g = complex_uniforms(u[:, 1 + 2 * SPEC_ATOMS :].reshape(len(u), SPEC_ATOMS, 2 * space.dim))
    covs = g * (scales / dual_norm(space, g))[:, :, None]
    covs = np.where(live[:, :, None], covs, 0.0)
    check_spec_rows(lams, covs)
    return lams, covs


def sample_lifted_spec(space: SpaceSpec, rng: np.random.Generator) -> LiftedMapSpec:
    """Random certified-starlike product map on the given gauge: row 0 of
    ``spec_rows`` under one seed taken from ``rng``."""
    lams, covs = spec_rows(space, uniforms(int(rng.integers(2**63)), [0], spec_draws(space)))
    return LiftedMapSpec.from_row(lams[0], covs[0])
