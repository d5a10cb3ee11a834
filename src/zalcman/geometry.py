"""Minkowski gauges on C^n, their support functionals and Wirtinger gradients.

Three norm families are implemented: ell^p (1 < p < infinity), the sup norm
(polydisk gauge) and the ell^1 norm.  For each gauge rho the canonical
support functional l_z (norm one, l_z(z) = rho(z)) has a closed form, and
the Wirtinger gradient of rho is exactly half of it, so

    2 (d rho / dz) z = rho(z)

off the exceptional set E where rho fails to be C^1 (coordinate-modulus
ties for sup, coordinate zeros for ell^1 and 1 < p < 2).  Gradients are
validated elsewhere against central finite differences of rho on R^{2n}
with the convention d/dz = (d/dx - i d/dy)/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Points closer to E than this are rejected; samplers resample.
EXC_EPS = 1e-8

DIRECTION_TOL = 1e-12

_FLOAT_TINY = np.finfo(float).tiny


class ExceptionalPoint(ValueError):
    """Evaluation at or too near the non-smooth set E of the gauge."""


class InvalidDirection(ValueError):
    """Direction vector expected on the unit sphere of the gauge."""


@dataclass(frozen=True)
class SpaceSpec:
    """C^dim with one of the gauges: ell^p ("lp"), sup norm, or ell^1."""

    dim: int
    kind: str            # "lp" | "sup" | "l1"
    p: float | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.kind not in ("lp", "sup", "l1"):
            raise ValueError(f"unknown gauge kind {self.kind!r}")
        if self.kind == "lp":
            if self.p is None or not 1.0 < self.p < math.inf:
                raise ValueError("lp gauge needs 1 < p < inf")
        elif self.p is not None:
            raise ValueError(f"kind {self.kind!r} takes no exponent")

    def to_json(self) -> dict:
        obj: dict = {"dim": self.dim, "kind": self.kind}
        if self.kind == "lp":
            obj["p"] = self.p
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "SpaceSpec":
        return cls(int(obj["dim"]), obj["kind"], obj.get("p"))


def lp_space(dim: int, p: float) -> SpaceSpec:
    return SpaceSpec(dim, "lp", float(p))


def euclidean(dim: int) -> SpaceSpec:
    return lp_space(dim, 2.0)


def sup_space(dim: int) -> SpaceSpec:
    return SpaceSpec(dim, "sup")


def l1_space(dim: int) -> SpaceSpec:
    return SpaceSpec(dim, "l1")


@dataclass(frozen=True)
class Covector:
    """Linear functional w -> sum_i entries_i w_i (no conjugation in the pairing)."""

    entries: tuple[complex, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(complex(c) for c in self.entries))

    def __call__(self, w) -> complex:
        return complex(np.dot(np.asarray(self.entries), np.asarray(w, dtype=complex)))

    def scale(self, t: complex) -> "Covector":
        return Covector(tuple(t * c for c in self.entries))

    def to_json(self) -> list:
        return [[c.real, c.imag] for c in self.entries]

    @classmethod
    def from_json(cls, obj) -> "Covector":
        return cls(tuple(complex(re, im) for re, im in obj))


def _as_vec(z) -> np.ndarray:
    return np.asarray(z, dtype=complex)


def rho(space: SpaceSpec, z) -> float:
    """The gauge of z: p-norm, max modulus, or sum of moduli."""
    v = np.abs(_as_vec(z))
    if v.shape != (space.dim,):
        raise ValueError(f"expected a vector of length {space.dim}")
    if space.kind == "lp":
        return float(np.sum(v ** space.p) ** (1.0 / space.p))
    if space.kind == "sup":
        return float(v.max())
    return float(v.sum())


def exceptional_distance(space: SpaceSpec, z) -> float:
    """Continuous proxy for the distance from z to the non-smooth set E.

    sup: gap between the two largest coordinate moduli; ell^1 and ell^p
    with p < 2: smallest coordinate modulus; ell^p with p >= 2 is smooth
    off the origin, so the distance is +inf.
    """
    v = np.abs(_as_vec(z))
    if space.kind == "sup":
        if space.dim == 1:
            return float(v[0])
        top2 = np.partition(v, space.dim - 2)[-2:]
        return float(top2[1] - top2[0])
    if space.kind == "l1" or (space.kind == "lp" and space.p < 2.0):
        return float(v.min())
    return math.inf


def check_off_exceptional(space: SpaceSpec, z) -> tuple[np.ndarray, float]:
    """(z as a complex vector, rho(z)); raises ExceptionalPoint at the
    origin or within EXC_EPS of the non-smooth set E."""
    v = _as_vec(z)
    r = rho(space, v)
    if r <= EXC_EPS:
        raise ExceptionalPoint("gauge gradient undefined at the origin")
    if exceptional_distance(space, v) < EXC_EPS:
        raise ExceptionalPoint(
            f"point within {EXC_EPS} of the non-smooth set of the {space.kind} gauge"
        )
    return v, r


def support_covector(space: SpaceSpec, z) -> Covector:
    """Entries of the canonical support functional l_z.

    lp:  rho^{1-p} |z_i|^{p-2} conj(z_i)   (0 for z_i = 0, p > 2);
    sup: conj(z_j)/|z_j| at the unique maximizing index j;
    l1:  conj(z_i)/|z_i| in every coordinate.
    """
    v, r = check_off_exceptional(space, z)
    if space.kind == "lp":
        mods = np.abs(v)
        entries = np.zeros(space.dim, dtype=complex)
        nz = mods > 0.0
        entries[nz] = r ** (1.0 - space.p) * mods[nz] ** (space.p - 2.0) * np.conj(v[nz])
        return Covector(tuple(entries))
    if space.kind == "sup":
        j = int(np.argmax(np.abs(v)))
        entries = np.zeros(space.dim, dtype=complex)
        entries[j] = np.conj(v[j]) / abs(v[j])
        return Covector(tuple(entries))
    return Covector(tuple(np.conj(v) / np.abs(v)))


def support_pairing(space: SpaceSpec, z, w) -> complex:
    """l_z(w) for the canonical support functional at z."""
    return support_covector(space, z)(w)


def minkowski_gradient(space: SpaceSpec, z) -> Covector:
    """Wirtinger gradient of the gauge; half the support covector."""
    return support_covector(space, z).scale(0.5)


def dual_norm(space: SpaceSpec, b: Covector | tuple) -> float:
    """Operator norm of the functional w -> sum b_i w_i on the gauge ball."""
    entries = np.abs(_as_vec(b.entries if isinstance(b, Covector) else b))
    if space.kind == "lp":
        q = space.p / (space.p - 1.0)
        total = np.sum(entries ** q)
        if not _FLOAT_TINY <= total < math.inf:
            # The power sum left the normal range (subnormal sums keep only a
            # few significant bits), so factor out the largest entry.  A zero,
            # infinite or NaN largest entry is the norm itself.
            top = entries.max()
            if top == 0.0 or not math.isfinite(top):
                return float(top)
            return float(top * np.sum((entries / top) ** q) ** (1.0 / q))
        return float(total ** (1.0 / q))
    if space.kind == "sup":
        return float(entries.sum())
    return float(entries.max())


def wirtinger_fd_gradient(space: SpaceSpec, z, step: float = 1e-5) -> Covector:
    """Central finite differences of rho on R^{2n}, recombined as (d/dx - i d/dy)/2.

    Independent of the closed forms above; only valid where rho is smooth
    across the whole stencil, so keep z well clear of E relative to ``step``.
    """
    v = _as_vec(z)
    entries = []
    for i in range(space.dim):
        e = np.zeros(space.dim, dtype=complex)
        e[i] = step
        ddx = (rho(space, v + e) - rho(space, v - e)) / (2.0 * step)
        e[i] = 1j * step
        ddy = (rho(space, v + e) - rho(space, v - e)) / (2.0 * step)
        entries.append(0.5 * (ddx - 1j * ddy))
    return Covector(tuple(entries))


def sample_direction(space: SpaceSpec, rng: np.random.Generator, min_gap: float = EXC_EPS) -> np.ndarray:
    """Random point on the unit sphere of the gauge, at least min_gap off E."""
    for _ in range(1000):
        g = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
        r = rho(space, g)
        if r == 0.0:
            continue
        u = g / r
        if exceptional_distance(space, u) >= min_gap:
            return u
    raise RuntimeError("sphere sampling kept hitting the exceptional set")


def sample_point(
    space: SpaceSpec,
    rng: np.random.Generator,
    rmin: float = 0.05,
    rmax: float = 0.95,
    min_gap: float = EXC_EPS,
) -> np.ndarray:
    """Random point of the open unit ball with gauge in [rmin, rmax], off E."""
    if not 0.0 < rmin <= rmax:
        raise ValueError("need 0 < rmin <= rmax")
    # E is a cone, so scaling by r multiplies the gap by r; demanding
    # min_gap / rmin on the sphere keeps the scaled point min_gap off E.
    u = sample_direction(space, rng, min_gap=min_gap / rmin)
    r = rng.uniform(rmin, rmax)
    return r * u
