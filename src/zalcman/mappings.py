"""Lifted starlike mappings F(z) = z f(z) on balls and circular domains.

The test family is f(z) = prod_k (1 - l_k(z))^{-2 lam_k} with linear
functionals l_k of dual norm at most 1 and weights lam_k summing to 1.
Restricting along a ray through z0 gives the scalar transfer function

    h(zeta) = 1 + D f(zeta z0)(zeta z0) / f(zeta z0)
            = sum_k lam_k (1 + zeta x_k) / (1 - zeta x_k),   x_k = l_k(z0),

which always has positive real part, certifying starlikeness of F.  The
order-k coefficient functionals (the support-functional or gauge-gradient
pairings of D^k F(0)(z^k)/k!, normalized by the k-th gauge power) collapse
to f_{k-1}(z)/rho(z)^{k-1} through the degree-(k-1) homogeneous part of f,
and the degree-4 combination |A2 A3 - A4| never exceeds 2, with equality
on the Koebe-type maps built by ``make_extremal_ball`` and
``make_extremal_domain``.

Batches of maps are padded arrays: weights (rows, atoms) and covectors
(rows, atoms, dim), whose padding atoms have weight 0 and covector 0.  The
sampler, the homogeneous parts, the functionals and the reduction check
work on whole batches; ``hom_parts``, ``closed_form_values``,
``zalcman_nd``, ``restrict_h``, ``reduction_crosscheck`` and
``sample_lifted_spec`` are batch-of-one calls into the same functions.
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
from .series import TruncatedSeries, series_div, series_exp

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

# Powers r^1..r^3 and r^2..r^4 that normalize the order-2..4 functionals.
_CLOSED_POWERS = np.array([1.0, 2.0, 3.0])
_PAIRING_POWERS = np.array([2.0, 3.0, 4.0])


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
    maps the domain into the unit disk; check the dual-norm side against a
    concrete gauge with ``validate_for``.
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

    def validate_for(self, space: SpaceSpec) -> None:
        """Check every functional has dual norm <= 1 on the given gauge;
        a NaN dual norm fails the check."""
        for nd in dual_norm(space, self.padded()[1][0]).tolist():
            if not nd <= 1.0 + DUAL_NORM_TOL:
                raise ValueError(f"functional dual norm {nd} exceeds 1")

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


def hom_rows(lams: np.ndarray, covs: np.ndarray, z: np.ndarray, upto: int) -> np.ndarray:
    """Values f_0(z)..f_upto(z) of the homogeneous parts of f at every row,
    as a (rows, upto + 1) array.

    Along the ray t -> tz the map restricts to prod (1 - t x_k)^{-2 lam_k}
    with x_k = l_k(z), so the degree-j part is the j-th coefficient of
    exp(sum_m u_m t^m) with u_m = 2 sum_k lam_k x_k^m / m.
    """
    if not 0 <= upto <= MAX_HOM_DEGREE:
        raise ValueError(f"homogeneous degree capped at {MAX_HOM_DEGREE}")
    x = pair(covs, z[:, None, :])
    u = np.zeros((len(z), upto + 1), dtype=complex)
    power = x
    for m in range(1, upto + 1):
        u[:, m] = 2.0 * (lams * power).sum(axis=1) / m
        power = power * x
    return series_exp(u)


def hom_parts(spec, z, upto: int) -> list[complex]:
    """Values f_0(z)..f_upto(z) of the homogeneous parts of f at z."""
    return hom_rows(*_padded(spec), np.asarray(z, dtype=complex)[None], upto)[0].tolist()


def hom_part_eval(spec, j: int, z) -> complex:
    """Degree-j homogeneous part of f evaluated at z; f_0 = 1."""
    return hom_parts(spec, z, j)[j]


def closed_rows(f: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The order-2..4 functionals f_{k-1}/r^{k-1} of every row of f_0..f_3
    and gauges r, as a (rows, 3) array, and |A2 A3 - A4| of every row."""
    vals = f[:, 1:4] / r[:, None] ** _CLOSED_POWERS
    return vals, modulus(vals[:, 0] * vals[:, 1] - vals[:, 2])


def closed_form_values(spec, z, r: float) -> tuple[tuple[complex, complex, complex], float]:
    """The order-2..4 functionals f_{k-1}(z)/r^{k-1} at z with gauge r, and
    |A2 A3 - A4|.

    No check that z is off E: this is the continuous extension of the
    functionals, so callers that want the check make it first.
    """
    f = hom_rows(*_padded(spec), np.asarray(z, dtype=complex)[None], 3)
    vals, value = closed_rows(f, np.array([r], dtype=float))
    return tuple(vals[0].tolist()), float(value[0])


def pairing_rows(space: SpaceSpec, f: np.ndarray, v: np.ndarray, r: np.ndarray, mode: str) -> np.ndarray:
    """The order-2..4 functionals of every row by explicit pairing with
    D^k F(0)(z^k)/k! = z f_{k-1}(z): with l_z (mode "ball") or with twice
    the gauge gradient (mode "domain"), over rho(z)^k.

    Must agree with the closed form because both pairings send z to rho(z)
    (resp. rho/2).  ``v`` is (rows, dim) and already off E.
    """
    w = f[:, 1:4, None] * v[:, None, :]
    l = support_rows(space, v, r)
    if mode == "ball":
        paired = pair(l[:, None, :], w)
    else:
        paired = 2.0 * pair(0.5 * l[:, None, :], w)
    return paired / r[:, None] ** _PAIRING_POWERS


def zalcman_rows(
    space: SpaceSpec, lams: np.ndarray, covs: np.ndarray, z: np.ndarray,
    mode: str = "ball", method: str = "closed",
) -> tuple[np.ndarray, np.ndarray]:
    """The order-2..4 functionals (rows, 3) and |A2 A3 - A4| (rows,) of every
    row of a batch of maps and points; raises ExceptionalPoint if any point
    is at the origin or near E.  ``method`` "closed" uses f_{k-1}/rho^{k-1},
    "pairing" and "gradient" the explicit pairing of ``mode``."""
    if mode not in ("ball", "domain"):
        raise ValueError(f"unknown mode {mode!r}")
    if method not in ("closed", "pairing", "gradient"):
        raise ValueError(f"unknown method {method!r}")
    v, r = check_off_exceptional(space, z)
    f = hom_rows(lams, covs, v, 3)
    if method == "closed":
        return closed_rows(f, r)
    vals = pairing_rows(space, f, v, r, mode)
    return vals, modulus(vals[:, 0] * vals[:, 1] - vals[:, 2])


def _functional_k(space: SpaceSpec, spec, z, k: int, mode: str, method: str) -> complex:
    if k not in (2, 3, 4):
        raise ValueError("functional order must be 2, 3 or 4")
    return zalcman_nd(space, spec, z, mode, method).values[k - 2]


def functional_A(space: SpaceSpec, spec, z, k: int, method: str = "closed") -> complex:
    """Ball-normalized order-k functional l_z(D^k F(0)(z^k)) / (k! ||z||^k)."""
    return _functional_k(space, spec, z, k, "ball", method)


def functional_B(space: SpaceSpec, spec, z, k: int, method: str = "closed") -> complex:
    """Domain-normalized order-k functional 2 (d rho/dz) D^k F(0)(z^k) / (k! rho^k)."""
    return _functional_k(space, spec, z, k, "domain", method)


def zalcman_nd(space: SpaceSpec, spec, z, mode: str = "ball", method: str = "closed") -> FunctionalValues:
    """Assemble the order-2..4 functionals and |A2 A3 - A4| at z."""
    v = np.asarray(z, dtype=complex)
    vals, value = zalcman_rows(space, *_padded(spec), v[None], mode, method)
    return FunctionalValues(mode, tuple(vals[0].tolist()), float(value[0]), space, tuple(v.tolist()))


def h_rows(f: np.ndarray) -> np.ndarray:
    """Coefficients of the transfer function of every row of f_0..f_N taken
    at a unit-gauge point: h = (sum_j (j+1) f_j zeta^j) / (sum_j f_j zeta^j)."""
    return series_div(f * np.arange(1, f.shape[1] + 1), f)


def restrict_h(spec, z0, order: int = MAX_HOM_DEGREE) -> TruncatedSeries:
    """Transfer function h along the ray of z0, as a truncated series.

    The caller supplies z0 on the unit sphere of the ambient gauge (the
    values f_j are gauge-free, the normalization is not).  h_0 = 1, and the
    coefficients c_k are the moments of a Caratheodory-class function.
    """
    f = hom_rows(*_padded(spec), np.asarray(z0, dtype=complex)[None], order)
    return TruncatedSeries(tuple(h_rows(f)[0].tolist()))


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

    f_0..f_3 are evaluated once at z.  By homogeneity f_j(z0) = f_j(z)/r^j
    at z0 = z/r, so the closed-form functionals A2..A4 are f_1..f_3 at z0,
    and the transfer-function coefficients c_k at z0 come from them:

        A2 = c_1,  A3 = (c_2 + c_1^2)/2,  A4 = (c_3 + c_1^3/2 + 3 c_1 c_2/2)/3,
        |A2 A3 - A4| = |c_1^3 - c_3|/3.

    The reduction residual is the largest absolute residual over these four
    checks; the dual-path residual is the largest disagreement of the
    closed form with the support-pairing and gradient routes.
    """
    v, r = check_off_exceptional(space, z)
    f = hom_rows(lams, covs, v, 3)
    closed, value = closed_rows(f, r)
    c = h_rows(np.concatenate([f[:, :1], closed], axis=1))
    c1, c2, c3 = c[:, 1], c[:, 2], c[:, 3]
    a2, a3, a4 = closed[:, 0], closed[:, 1], closed[:, 2]
    reduction = np.stack(
        [
            np.abs(value - modulus(c1**3 - c3) / 3.0),
            modulus(a2 - c1),
            modulus(a3 - (c2 + c1**2) / 2.0),
            modulus(a4 - (c3 + c1**3 / 2.0 + 1.5 * c1 * c2) / 3.0),
        ],
        axis=1,
    ).max(axis=1)
    routes = [pairing_rows(space, f, v, r, mode) for mode in ("ball", "domain")]
    dual = modulus(np.concatenate([closed - route for route in routes], axis=1)).max(axis=1)
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


def make_extremal_domain(space: SpaceSpec, r: float = 1.0) -> LiftedMapSpec:
    """Extremal map z / (1 - z_1/r)^2 of a circular domain whose first-axis
    slice has radius r (r = 1 for every implemented gauge family)."""
    if r <= 0:
        raise ValueError("slice radius must be positive")
    entries = [0j] * space.dim
    entries[0] = 1.0 / r
    return LiftedMapSpec(((1.0, Covector(tuple(entries))),))


def spec_draws(space: SpaceSpec, max_atoms: int = SPEC_ATOMS) -> int:
    """Uniforms ``spec_rows`` draws per row: the atom count, then per atom
    an exponential, a dual-norm scale and 2 dim for the covector."""
    return 1 + max_atoms * (2 + 2 * space.dim)


def spec_rows(
    space: SpaceSpec, draw, rows: int, start: int = 0, max_atoms: int = SPEC_ATOMS
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Random certified-starlike product maps on the given gauge, one per row.

    Returns weights (rows, max_atoms), covectors (rows, max_atoms, dim) and
    atom counts (rows,), from the ``spec_draws`` uniforms of each row from
    draw ``start`` on (``draw`` as in ``geometry.sphere_rows``).  The count
    is uniform in [1, max_atoms]; weights are flat on the simplex
    (normalized exponentials, -log u); each functional is a complex Gaussian
    covector (Box-Muller) rescaled to a dual norm drawn from [0.25, 1],
    keeping the map holomorphic on the open unit ball of the gauge.  Atoms
    past the count are padding.
    """
    if max_atoms < 1:
        raise ValueError("max_atoms must be >= 1")
    u = draw(np.arange(rows), start, spec_draws(space, max_atoms))
    counts = np.minimum((u[:, 0] * max_atoms).astype(np.int64), max_atoms - 1) + 1
    live = np.arange(max_atoms) < counts[:, None]
    raw = np.where(live, -np.log(u[:, 1 : 1 + max_atoms]), 0.0)
    lams = raw / raw.sum(axis=1, keepdims=True)
    scales = 0.25 + 0.75 * u[:, 1 + max_atoms : 1 + 2 * max_atoms]
    g = gaussians(u[:, 1 + 2 * max_atoms :].reshape(rows, max_atoms, 2 * space.dim))
    with np.errstate(divide="ignore", invalid="ignore"):
        covs = g * (scales / dual_norm(space, g))[:, :, None]
    covs = np.where(live[:, :, None], covs, 0.0)
    check_spec_rows(lams, covs)
    return lams, covs, counts


def sample_lifted_spec(
    space: SpaceSpec,
    rng: np.random.Generator,
    max_atoms: int = SPEC_ATOMS,
) -> LiftedMapSpec:
    """Random certified-starlike product map on the given gauge: one row of
    ``spec_rows`` with uniforms read from ``rng``."""
    lams, covs, counts = spec_rows(space, rng_draws(rng), 1, max_atoms=max_atoms)
    return LiftedMapSpec.from_row(lams[0, : counts[0]], covs[0, : counts[0]])
