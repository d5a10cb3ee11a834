"""Lifted starlike mappings F(z) = z f(z) on balls and circular domains.

The test family is f(z) = prod_k (1 - l_k(z))^{-2 lam_k} with linear
functionals l_k of dual norm at most 1 and weights lam_k summing to 1.  On
the ray of a unit-gauge point z0, F restricts to g(zeta) = zeta f(zeta z0):

    h(zeta) = zeta g'(zeta) / g(zeta) = 1 + D f(zeta z0)(zeta z0) / f(zeta z0)
            = sum_k lam_k (1 + zeta x_k) / (1 - zeta x_k),   x_k = l_k(z0),

always has positive real part, certifying starlikeness of F: g is starlike
with Herglotz nodes x_k and moments p_m = 2 sum_k lam_k x_k^m.  The order-k
coefficient functionals (the support-functional or gauge-gradient pairings
of D^k F(0)(z^k)/k!, normalized by the k-th gauge power) are f_{k-1}(z0)
at z0 = z/rho(z), the coefficient a_k of g, which ``starlike.batch_coeffs``
computes from the node moments.  Both normalizations, the unit ball's and
the circular domain's, are that one closed form (``zalcman_rows``); twice
the gauge gradient is the support functional, so one pairing route
(``pairing_rows``, ``functional_A``, ``functional_B``) cross-checks it.
The degree-4 combination |A2 A3 - A4| never exceeds 2, with equality on
the Koebe-type maps built by ``make_extremal_ball`` and
``make_extremal_domain``.

Batches of maps are padded arrays: weights (rows, atoms) and covectors
(rows, atoms, dim), whose padding atoms have weight 0 and covector 0.  The
sampler, the homogeneous parts, the functionals and the reduction check
work on whole batches; ``hom_parts``, ``closed_form_values``,
``zalcman_nd``, ``functional_A``, ``functional_B``, ``restrict_h``,
``reduction_crosscheck`` and ``sample_lifted_spec`` are batch-of-one calls
into the same functions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (
    Covector,
    InvalidDirection,
    SpaceSpec,
    DIRECTION_TOL,
    check_off_exceptional,
    check_radii,
    dual_norm,
    gaussians,
    norming_rows,
    pair,
    rho,
    rng_draws,
    sphere_rows,
    support_covector,
    support_rows,
)
from .herglotz import WEIGHT_TOL, modulus
from .series import TruncatedSeries
from .starlike import batch_coeffs

DUAL_NORM_TOL = 1e-12

# The closed-form scan witness halves its offset from the pole down to this.
POLE_EPS_FLOOR = 1e-13

# Homogeneous parts are computed through degree 6: enough for the degree-4
# functionals plus the transfer-function coefficients c_1..c_3 with headroom.
MAX_HOM_DEGREE = 6

# Atoms of a sampled map, and the least width of padded atom arrays, so a
# replayed sample has the shape of its batch row.
SPEC_ATOMS = 4

Atom = tuple[float, Covector]


def check_spec_rows(lams: np.ndarray, covs: np.ndarray) -> None:
    """The validity checks of a map, for every row of padded atom arrays.

    Weights must be finite and nonnegative and sum to 1 within WEIGHT_TOL
    in each row; covector entries must be finite.  Raises ValueError.
    """
    if not (np.isfinite(lams).all() and (lams >= 0).all()):
        raise ValueError("atom weights must be finite and nonnegative")
    if not np.isfinite(covs).all():
        raise ValueError("covector entries must be finite")
    total = lams.sum(axis=1)
    off = np.abs(total - 1.0) > WEIGHT_TOL
    if off.any():
        raise ValueError(f"atom weights sum to {total[off][0]}, expected 1")


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
        """The map of the atoms (lams[k], covs[k]) of one batch row."""
        return cls(tuple(zip(lams.tolist(), map(Covector, covs.tolist()))))

    def padded(self) -> tuple[np.ndarray, np.ndarray]:
        """Weights (1, W) and covectors (1, W, dim), W = max(SPEC_ATOMS,
        atoms), padded with zero atoms: the layout of a sampled batch."""
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


@dataclass(frozen=True)
class FunctionalValues:
    """Order-2..4 coefficient functionals at a point, and their combination.

    ``mode`` records the normalization route: "ball" pairs with the support
    functional l_z, "domain" with twice the gauge gradient.  Both collapse
    to the same numbers, so ``values`` is mode-agnostic.
    """

    mode: str
    values: tuple[complex, complex, complex]
    zalcman: float
    space: SpaceSpec
    z: tuple[complex, ...]

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "values": [[v.real, v.imag] for v in self.values],
            "zalcman": self.zalcman,
            "space": self.space.to_json(),
            "z": [[c.real, c.imag] for c in self.z],
        }


def _atoms_of(spec) -> tuple[Atom, ...]:
    if isinstance(spec, LiftedMapSpec):
        return spec.atoms
    return tuple((float(lam), b if isinstance(b, Covector) else Covector(tuple(b)))
                 for lam, b in spec)


def _padded(spec) -> tuple[np.ndarray, np.ndarray]:
    """Atoms of ``spec`` (a LiftedMapSpec or (lam, b) pairs, unchecked) as
    padded arrays of one row; see ``LiftedMapSpec.padded``."""
    atoms = _atoms_of(spec)
    width = max(SPEC_ATOMS, len(atoms))
    lams = np.zeros((1, width))
    covs = np.zeros((1, width, len(atoms[0][1].entries)), dtype=complex)
    lams[0, : len(atoms)] = [lam for lam, _ in atoms]
    covs[0, : len(atoms)] = [b.entries for _, b in atoms]
    return lams, covs


def _atom_arrays(spec) -> tuple[np.ndarray, np.ndarray]:
    """Weights (atoms,) and covectors (atoms, dim) of the atoms of ``spec``,
    without padding."""
    atoms = _atoms_of(spec)
    lams, covs = _padded(atoms)
    return lams[0, : len(atoms)], covs[0, : len(atoms)]


def _moment_rows(lams: np.ndarray, covs: np.ndarray, z: np.ndarray, upto: int) -> np.ndarray:
    """Node moments p_1..p_upto, p_m = 2 sum_k lam_k l_k(z)^m, of every row,
    as a (rows, upto) view of an (upto, rows) array."""
    if not 0 <= upto <= MAX_HOM_DEGREE:
        raise ValueError(f"homogeneous degree capped at {MAX_HOM_DEGREE}")
    x = pair(covs, z[:, None, :])
    p = np.empty((upto, len(z)), dtype=complex)
    power = x
    for m in range(upto):
        p[m] = 2.0 * (lams * power).sum(axis=1)
        power = power * x
    return p.T


def hom_rows(lams: np.ndarray, covs: np.ndarray, z: np.ndarray, upto: int) -> np.ndarray:
    """Values f_0(z)..f_upto(z) of the homogeneous parts of f at every row,
    as a (rows, upto + 1) array: the coefficients a_1..a_{upto+1} of
    g(t) = t f(tz), for t g'/g = 1 + sum_m p_m t^m with the node moments."""
    return batch_coeffs(_moment_rows(lams, covs, z, upto), upto + 1)


def hom_parts(spec, z, upto: int) -> list[complex]:
    """Values f_0(z)..f_upto(z) of the homogeneous parts of f at z."""
    return hom_rows(*_padded(spec), np.asarray(z, dtype=complex)[None], upto)[0].tolist()


def closed_rows(f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The order-2..4 functionals f_1..f_3 (rows, 3) of every row of
    f_0..f_3 at unit-gauge points, and |A2 A3 - A4| of every row."""
    vals = f[:, 1:4]
    return vals, modulus(vals[:, 0] * vals[:, 1] - vals[:, 2])


def closed_form_values(spec, z, r: float) -> tuple[tuple[complex, complex, complex], float]:
    """The order-2..4 functionals f_{k-1}(z/r) at z with gauge r, and
    |A2 A3 - A4|.

    No check that z is off E: this is the continuous extension of the
    functionals, so callers that want the check make it first.
    """
    f = hom_rows(*_padded(spec), np.asarray(z, dtype=complex)[None] / r, 3)
    vals, value = closed_rows(f)
    return tuple(vals[0].tolist()), float(value[0])


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
    return closed_rows(hom_rows(lams, covs, v / r[:, None], 3))


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


def zalcman_nd(space: SpaceSpec, spec, z, mode: str = "ball") -> FunctionalValues:
    """Assemble the order-2..4 functionals and |A2 A3 - A4| at z by the
    closed form; ``mode`` ("ball" or "domain") labels the normalization."""
    if mode not in ("ball", "domain"):
        raise ValueError(f"unknown mode {mode!r}")
    v = np.asarray(z, dtype=complex)
    vals, value = zalcman_rows(space, *_padded(spec), v[None])
    return FunctionalValues(mode, tuple(vals[0].tolist()), float(value[0]), space, tuple(v.tolist()))


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
    weights and values x_k = b_k(z0); elementwise when zeta is an array."""
    acc = 1 + 0j
    for lam, xk in zip(lams.tolist(), x.tolist()):
        y = xk * zeta
        acc += 2.0 * lam * y / (1.0 - y)
    return acc


def h_eval(spec, z0, zeta):
    """Exact rational value of the transfer function at zeta on the disk;
    elementwise when zeta is an array."""
    lams, covs = _atom_arrays(spec)
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
        check_radii(self.rmin, self.rmax)


@dataclass(frozen=True)
class ScanWitness:
    direction: tuple[complex, ...]
    zeta: complex
    h_value: complex

    def to_json(self) -> dict:
        return {
            "direction": [[c.real, c.imag] for c in self.direction],
            "zeta": [self.zeta.real, self.zeta.imag],
            "h": [self.h_value.real, self.h_value.imag],
        }


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

    At the unit-gauge norming point z0 of the atom of largest dual norm
    (``geometry.norming_rows``), b(z0) = ||b||_* > 1 puts the pole 1/b(z0)
    of its term inside the disk.  At zeta = (1 + eps)/b(z0), with
    0 < eps < |b(z0)| - 1 so that |zeta| < 1, that term is
    -lam (2 + eps)/eps, which outweighs the others as eps shrinks.  eps
    starts at (|b(z0)| - 1)/2 and halves until Re h <= 0, or until it falls
    below POLE_EPS_FLOOR: an atom whose weight is too small for that leaves
    a witness with Re h > 0, and the map still fails.
    """
    lams, covs = _atom_arrays(spec)
    norms = np.where(lams > 0.0, dual_norm(space, covs), 0.0)
    k = int(np.argmax(norms))
    if not norms[k] > 1.0 + DUAL_NORM_TOL:
        return None
    z0 = norming_rows(space, covs[k][None])[0]
    bz = complex(pair(covs[k], z0))
    eps = (abs(bz) - 1.0) / 2.0
    while True:
        zeta = (1.0 + eps) / bz
        h = h_eval(spec, z0, zeta)
        if h.real <= 0.0 or eps < POLE_EPS_FLOOR:
            return ScanWitness(tuple(z0.tolist()), complex(zeta), complex(h))
        eps /= 2.0


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
    the simplex: all ``grid.directions`` directions come from one
    ``sphere_rows`` draw on a Generator seeded by (seed, 0x5CA9), every
    b_k(z0) from one ``pair`` call, and h is evaluated one direction at a
    time over the polar zeta-grid.  The first grid sample in (direction,
    radius, angle) order whose real part is not positive (NaN included) is
    the witness; if there is none and the dual norms fail the map, the
    witness is ``pole_witness``.  ``min_real`` is the least Re h over the
    grid and the witness, and ``samples`` counts the grid.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 0x5CA9)))
    lams, covs = _atom_arrays(spec)
    directions = sphere_rows(space, rng_draws(rng), grid.directions)
    x = pair(covs, directions[:, None, :])
    radii = np.geomspace(grid.rmin, grid.rmax, grid.radii)
    phases = np.exp(2j * np.pi * np.arange(grid.angles) / grid.angles)
    zeta = (radii[:, None] * phases[None, :]).ravel()
    min_real = np.inf
    witness = None
    for z0, xs in zip(directions, x):
        h = _transfer(lams, xs, zeta)
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
    closed, value = closed_rows(f)
    c1, c2, c3 = c.T
    a2, a3, a4 = closed.T
    reduction = np.stack(
        [
            np.abs(value - modulus(c1**3 - c3) / 3.0),
            modulus(a2 - c1),
            modulus(a3 - (c2 + c1**2) / 2.0),
            modulus(a4 - (c3 + c1**3 / 2.0 + 1.5 * c1 * c2) / 3.0),
        ],
        axis=1,
    ).max(axis=1)
    dual = modulus(closed - pairing_rows(space, f, v, r)).max(axis=1)
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


def spec_rows(
    space: SpaceSpec, draw, rows: int, start: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Random certified-starlike product maps on the given gauge, one per row.

    Returns weights (rows, SPEC_ATOMS), covectors (rows, SPEC_ATOMS, dim) and
    atom counts (rows,), from the ``spec_draws`` uniforms of each row from
    draw ``start`` on (``draw`` as in ``geometry.sphere_rows``).  The count
    is uniform in [1, SPEC_ATOMS]; weights are flat on the simplex
    (normalized exponentials, -log u); each functional is a complex Gaussian
    covector (Box-Muller) rescaled to a dual norm drawn from [0.25, 1],
    keeping the map holomorphic on the open unit ball of the gauge.  Atoms
    past the count are padding.
    """
    u = draw(np.arange(rows), start, spec_draws(space))
    counts = np.minimum((u[:, 0] * SPEC_ATOMS).astype(np.int64), SPEC_ATOMS - 1) + 1
    live = np.arange(SPEC_ATOMS) < counts[:, None]
    raw = np.where(live, -np.log(u[:, 1 : 1 + SPEC_ATOMS]), 0.0)
    lams = raw / raw.sum(axis=1, keepdims=True)
    scales = 0.25 + 0.75 * u[:, 1 + SPEC_ATOMS : 1 + 2 * SPEC_ATOMS]
    g = gaussians(u[:, 1 + 2 * SPEC_ATOMS :].reshape(rows, SPEC_ATOMS, 2 * space.dim))
    with np.errstate(divide="ignore", invalid="ignore"):
        covs = g * (scales / dual_norm(space, g))[:, :, None]
    covs = np.where(live[:, :, None], covs, 0.0)
    check_spec_rows(lams, covs)
    return lams, covs, counts


def sample_lifted_spec(space: SpaceSpec, rng: np.random.Generator) -> LiftedMapSpec:
    """Random certified-starlike product map on the given gauge: one row of
    ``spec_rows`` with uniforms read from ``rng``."""
    lams, covs, counts = spec_rows(space, rng_draws(rng), 1)
    return LiftedMapSpec.from_row(lams[0, : counts[0]], covs[0, : counts[0]])
