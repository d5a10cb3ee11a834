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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    Covector,
    InvalidDirection,
    SpaceSpec,
    DIRECTION_TOL,
    check_off_exceptional,
    dual_norm,
    minkowski_gradient,
    rho,
    sample_direction,
    support_covector,
    support_pairing,
)
from .herglotz import WEIGHT_TOL
from .series import TruncatedSeries

DUAL_NORM_TOL = 1e-12

# Homogeneous parts are computed through degree 6: enough for the degree-4
# functionals plus the transfer-function coefficients c_1..c_3 with headroom.
MAX_HOM_DEGREE = 6

Atom = tuple[float, Covector]


@dataclass(frozen=True)
class LiftedMapSpec:
    """Atoms (lam_k, b_k) of a product map f = prod (1 - b_k . z)^{-2 lam_k}.

    Weights are finite, nonnegative and sum to 1, which makes F(z) = z f(z)
    starlike whenever every functional maps the domain into the unit disk;
    check the dual-norm side against a concrete gauge with ``validate_for``.
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
        if not all(math.isfinite(lam) and lam >= 0 for lam, _ in self.atoms):
            raise ValueError("atom weights must be finite and nonnegative")
        total = sum(lam for lam, _ in self.atoms)
        if abs(total - 1.0) > WEIGHT_TOL:
            raise ValueError(f"atom weights sum to {total}, expected 1")

    def validate_for(self, space: SpaceSpec) -> None:
        """Check every functional has dual norm <= 1 on the given gauge;
        a NaN dual norm fails the check."""
        for _, b in self.atoms:
            nd = dual_norm(space, b)
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


def hom_parts(spec, z, upto: int) -> list[complex]:
    """Values f_0(z)..f_upto(z) of the homogeneous parts of f at z.

    Along the ray t -> tz the map restricts to prod (1 - t x_k)^{-2 lam_k}
    with x_k = l_k(z), so the degree-j part is the j-th coefficient of
    exp(sum_m u_m t^m) with u_m = 2 sum_k lam_k x_k^m / m.
    """
    if not 0 <= upto <= MAX_HOM_DEGREE:
        raise ValueError(f"homogeneous degree capped at {MAX_HOM_DEGREE}")
    if upto == 0:
        return [1 + 0j]
    atoms = _atoms_of(spec)
    xs = [b(z) for _, b in atoms]
    lams = [lam for lam, _ in atoms]
    u = [0j] * (upto + 1)
    powers = list(xs)
    for m in range(1, upto + 1):
        u[m] = 2.0 * sum(lam * xp for lam, xp in zip(lams, powers)) / m
        powers = [xp * x for xp, x in zip(powers, xs)]
    return list(TruncatedSeries(tuple(u)).exp().coeffs)


def hom_part_eval(spec, j: int, z) -> complex:
    """Degree-j homogeneous part of f evaluated at z; f_0 = 1."""
    return hom_parts(spec, z, j)[j]


def closed_form_values(spec, z, r: float) -> tuple[tuple[complex, complex, complex], float]:
    """The order-2..4 functionals f_{k-1}(z)/r^{k-1} at z with gauge r, and
    |A2 A3 - A4|.

    No check that z is off E: this is the continuous extension of the
    functionals, so callers that want the check make it first.
    """
    f = hom_parts(spec, z, 3)
    vals = tuple(f[k - 1] / r ** (k - 1) for k in (2, 3, 4))
    return vals, abs(vals[0] * vals[1] - vals[2])


def _functional_k(space: SpaceSpec, spec, z, k: int, mode: str, method: str) -> complex:
    if k not in (2, 3, 4):
        raise ValueError("functional order must be 2, 3 or 4")
    if method not in ("closed", "pairing", "gradient"):
        raise ValueError(f"unknown method {method!r}")
    v, r = check_off_exceptional(space, z)
    if method == "closed":
        return closed_form_values(spec, v, r)[0][k - 2]
    fk = hom_parts(spec, v, k - 1)[k - 1]
    # Explicit pairing with D^k F(0)(z^k)/k! = z f_{k-1}(z); must agree with
    # the closed form because both pairings send z to rho(z) (resp. rho/2).
    w = fk * v
    if mode == "ball":
        return support_pairing(space, v, w) / r**k
    return 2.0 * minkowski_gradient(space, v)(w) / r**k


def functional_A(space: SpaceSpec, spec, z, k: int, method: str = "closed") -> complex:
    """Ball-normalized order-k functional l_z(D^k F(0)(z^k)) / (k! ||z||^k)."""
    return _functional_k(space, spec, z, k, "ball", method)


def functional_B(space: SpaceSpec, spec, z, k: int, method: str = "closed") -> complex:
    """Domain-normalized order-k functional 2 (d rho/dz) D^k F(0)(z^k) / (k! rho^k)."""
    return _functional_k(space, spec, z, k, "domain", method)


def zalcman_nd(space: SpaceSpec, spec, z, mode: str = "ball", method: str = "closed") -> FunctionalValues:
    """Assemble the order-2..4 functionals and |A2 A3 - A4| at z."""
    if mode not in ("ball", "domain"):
        raise ValueError(f"unknown mode {mode!r}")
    if method == "closed":
        v, r = check_off_exceptional(space, z)
        vals, value = closed_form_values(spec, v, r)
    else:
        vals = tuple(_functional_k(space, spec, z, k, mode, method) for k in (2, 3, 4))
        v = np.asarray(z, dtype=complex)
        value = abs(vals[0] * vals[1] - vals[2])
    return FunctionalValues(mode, vals, value, space, tuple(complex(c) for c in v))


def restrict_h(spec, z0, order: int = MAX_HOM_DEGREE) -> TruncatedSeries:
    """Transfer function h along the ray of z0, as a truncated series.

    h(zeta) = (sum_j (j+1) f_j(z0) zeta^j) / (sum_j f_j(z0) zeta^j); the
    caller supplies z0 on the unit sphere of the ambient gauge (the values
    f_j are gauge-free, the normalization is not).  h_0 = 1, and the
    coefficients c_k are the moments of a Caratheodory-class function.
    """
    f = hom_parts(spec, z0, order)
    num = TruncatedSeries(tuple((j + 1) * f[j] for j in range(order + 1)))
    den = TruncatedSeries(tuple(f))
    return num / den


def h_eval(spec, z0, zeta):
    """Exact rational value of the transfer function at zeta on the disk;
    elementwise when zeta is an array."""
    acc = 1 + 0j
    for (lam, b) in _atoms_of(spec):
        x = b(z0) * zeta
        acc += 2.0 * lam * x / (1.0 - x)
    return acc


@dataclass(frozen=True)
class GridSpec:
    """Sampling grid for starlikeness scans: ray directions times a polar
    zeta-grid with geometrically spaced radii."""

    directions: int = 24
    radii: int = 16
    angles: int = 64
    rmin: float = 0.05
    rmax: float = 0.99

    def __post_init__(self):
        if min(self.directions, self.radii, self.angles) < 1:
            raise ValueError("grid sizes must be >= 1")


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


def starlikeness_scan(
    space: SpaceSpec,
    spec,
    grid: GridSpec = GridSpec(),
    seed: int = 0,
) -> ScanReport:
    """Necessary-condition scan: Re h > 0 sampled over directions and zeta.

    Directions are drawn on the unit sphere of the gauge off the
    exceptional set; the first sample in (direction, radius, angle) order
    whose real part is not positive (NaN included) is reported as a
    witness.  Passing is evidence by sampling, not a proof.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 0x5CA9)))
    radii = np.geomspace(grid.rmin, grid.rmax, grid.radii)
    phases = np.exp(2j * np.pi * np.arange(grid.angles) / grid.angles)
    zeta = (radii[:, None] * phases[None, :]).ravel()
    min_real = np.inf
    witness = None
    for _ in range(grid.directions):
        z0 = sample_direction(space, rng)
        h = h_eval(spec, z0, zeta)
        min_real = np.minimum(min_real, h.real.min())
        bad = np.flatnonzero(~(h.real > 0.0))
        if witness is None and bad.size:
            k = bad[0]
            witness = ScanWitness(tuple(complex(c) for c in z0), complex(zeta[k]), complex(h[k]))
    return ScanReport(float(min_real), grid.directions * zeta.size, witness)


def reduction_crosscheck(space: SpaceSpec, spec, z) -> float:
    """Residual of the scalar-reduction identities at z.

    Compares the order-2..4 functionals against the transfer-function
    coefficients c_k at z0 = z/rho(z):

        A2 = c_1,  A3 = (c_2 + c_1^2)/2,  A4 = (c_3 + c_1^3/2 + 3 c_1 c_2/2)/3,
        |A2 A3 - A4| = |c_1^3 - c_3|/3,

    and returns the largest absolute residual over the four checks.
    """
    v = np.asarray(z, dtype=complex)
    fv = zalcman_nd(space, spec, v, mode="ball")
    z0 = v / rho(space, v)
    c = restrict_h(spec, z0, order=3).coeffs
    c1, c2, c3 = c[1], c[2], c[3]
    a2, a3, a4 = fv.values
    residuals = (
        abs(fv.zalcman - abs(c1**3 - c3) / 3.0),
        abs(a2 - c1),
        abs(a3 - (c2 + c1**2) / 2.0),
        abs(a4 - (c3 + c1**3 / 2.0 + 1.5 * c1 * c2) / 3.0),
    )
    return max(residuals)


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


def sample_lifted_spec(
    space: SpaceSpec,
    rng: np.random.Generator,
    max_atoms: int = 4,
) -> LiftedMapSpec:
    """Random certified-starlike product map on the given gauge.

    Weights are flat on the simplex; each functional is a complex Gaussian
    covector rescaled to a dual norm drawn from [0.25, 1], keeping the map
    holomorphic on the open unit ball of the gauge.
    """
    natoms = int(rng.integers(1, max_atoms + 1))
    raw = rng.exponential(1.0, natoms)
    lams = raw / raw.sum()
    atoms = []
    for lam in lams:
        g = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
        scale = rng.uniform(0.25, 1.0)
        b = Covector(tuple(g * (scale / dual_norm(space, tuple(g)))))
        atoms.append((float(lam), b))
    return LiftedMapSpec(tuple(atoms))
