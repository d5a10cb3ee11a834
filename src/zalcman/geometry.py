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

The gauge, the distance to E and the dual norm take one vector or an array
of vectors along its last axis, such as the (rows, atoms, dim) covectors
of a batch of lifted maps; the covector, gradient and finite-difference
kernels take (rows, dim) arrays, and ``support_covector``,
``minkowski_gradient`` and ``wirtinger_fd_gradient`` are batch-of-one
calls into them.  The samplers turn uniforms into points, drawn either
from the counter-based stream of ``herglotz.uniforms`` or from a numpy
Generator, through the same transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Points closer to E than this are rejected; samplers resample.
EXC_EPS = 1e-8

# A sampled row that lands near E this many times in a row is an error.
SPHERE_ATTEMPTS = 1000

DIRECTION_TOL = 1e-12

_FLOAT_TINY = np.finfo(float).tiny


class ExceptionalPoint(ValueError):
    """Evaluation at or too near the non-smooth set E of the gauge."""


class SamplingError(RuntimeError):
    """A sampled row kept landing at the origin or near E."""


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
        return complex(pair(np.array([self.entries]), _as_vec(w)[None])[0])

    def scale(self, t: complex) -> "Covector":
        return Covector(tuple(t * c for c in self.entries))

    def to_json(self) -> list:
        return [[c.real, c.imag] for c in self.entries]

    @classmethod
    def from_json(cls, obj) -> "Covector":
        return cls(tuple(complex(re, im) for re, im in obj))


def _as_vec(z) -> np.ndarray:
    return np.asarray(z, dtype=complex)


def pair(b: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_i b_i w_i along the last axis (no conjugation); the leading axes
    broadcast, the last axes must have the same length."""
    if b.shape[-1] != w.shape[-1]:
        raise ValueError(
            f"covector of length {b.shape[-1]} paired with a vector of length {w.shape[-1]}"
        )
    return (b * w).sum(axis=-1)


def _moduli(space: SpaceSpec, z) -> tuple[np.ndarray, tuple]:
    """|z| as a (rows, dim) array, and the leading shape of z."""
    v = np.abs(_as_vec(z))
    if v.ndim == 0 or v.shape[-1] != space.dim:
        raise ValueError(f"expected vectors of length {space.dim}")
    return v.reshape(-1, space.dim), v.shape[:-1]


def _shaped(values: np.ndarray, lead: tuple):
    """A float for a single vector, else an array of the leading shape."""
    return float(values[0]) if lead == () else values.reshape(lead)


def rho(space: SpaceSpec, z):
    """The gauge of z: p-norm, max modulus, or sum of moduli.  A single
    vector gives a float, an array of vectors an array of its leading
    shape."""
    v, lead = _moduli(space, z)
    if space.kind == "lp":
        return _shaped(np.sum(v ** space.p, axis=1) ** (1.0 / space.p), lead)
    if space.kind == "sup":
        return _shaped(v.max(axis=1), lead)
    return _shaped(v.sum(axis=1), lead)


def exceptional_distance(space: SpaceSpec, z):
    """Continuous proxy for the distance from z to the non-smooth set E.

    sup: gap between the two largest coordinate moduli; ell^1 and ell^p
    with p < 2: smallest coordinate modulus; ell^p with p >= 2 is smooth
    off the origin, so the distance is +inf.
    """
    v, lead = _moduli(space, z)
    if space.kind == "sup":
        if space.dim == 1:
            return _shaped(v[:, 0], lead)
        top2 = np.partition(v, space.dim - 2, axis=1)[:, -2:]
        return _shaped(top2[:, 1] - top2[:, 0], lead)
    if space.kind == "l1" or (space.kind == "lp" and space.p < 2.0):
        return _shaped(v.min(axis=1), lead)
    return _shaped(np.full(len(v), math.inf), lead)


def check_off_exceptional(space: SpaceSpec, z):
    """(z as a complex array, rho(z)); raises ExceptionalPoint if z, or any
    row of an array of vectors, is at the origin or within EXC_EPS of the
    non-smooth set E."""
    v = _as_vec(z)
    r = rho(space, v)
    if np.any(r <= EXC_EPS):
        raise ExceptionalPoint("gauge gradient undefined at the origin")
    if np.any(exceptional_distance(space, v) < EXC_EPS):
        raise ExceptionalPoint(
            f"point within {EXC_EPS} of the non-smooth set of the {space.kind} gauge"
        )
    return v, r


def support_rows(space: SpaceSpec, v: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Entries of the canonical support functional l_z of every row of a
    (rows, dim) array already checked off E, given its gauges r.

    lp:  rho^{1-p} |z_i|^{p-2} conj(z_i)   (0 for z_i = 0, p > 2);
    sup: conj(z_j)/|z_j| at the unique maximizing index j;
    l1:  conj(z_i)/|z_i| in every coordinate.
    """
    mods = np.abs(v)
    if space.kind == "lp":
        with np.errstate(divide="ignore", invalid="ignore"):
            entries = r[:, None] ** (1.0 - space.p) * mods ** (space.p - 2.0) * np.conj(v)
        return np.where(mods > 0.0, entries, 0.0)
    if space.kind == "sup":
        rows, j = np.arange(len(v)), np.argmax(mods, axis=1)
        entries = np.zeros(v.shape, dtype=complex)
        entries[rows, j] = np.conj(v[rows, j]) / mods[rows, j]
        return entries
    return np.conj(v) / mods


def gradient_rows(space: SpaceSpec, z: np.ndarray) -> np.ndarray:
    """Wirtinger gradients of the gauge at every row of a (rows, dim) array,
    half the support covectors; raises ExceptionalPoint as
    ``check_off_exceptional`` does."""
    return 0.5 * support_rows(space, *check_off_exceptional(space, z))


def support_covector(space: SpaceSpec, z) -> Covector:
    """The canonical support functional l_z (see ``support_rows``)."""
    v, r = check_off_exceptional(space, _as_vec(z)[None])
    return Covector(tuple(support_rows(space, v, r)[0].tolist()))


def minkowski_gradient(space: SpaceSpec, z) -> Covector:
    """Wirtinger gradient of the gauge; half the support covector."""
    return Covector(tuple(gradient_rows(space, _as_vec(z)[None])[0].tolist()))


def dual_norm(space: SpaceSpec, b):
    """Operator norm of the functional w -> sum b_i w_i on the gauge ball;
    ``b`` is a Covector, one entry sequence, or an array of them along its
    last axis."""
    entries = np.abs(_as_vec(b.entries if isinstance(b, Covector) else b))
    if entries.ndim == 0 or entries.shape[-1] != space.dim:
        raise ValueError(f"expected covectors of length {space.dim}")
    lead = entries.shape[:-1]
    entries = entries.reshape(-1, entries.shape[-1])
    if space.kind == "lp":
        q = space.p / (space.p - 1.0)
        total = np.sum(entries ** q, axis=1)
        norm = total ** (1.0 / q)
        off = ~((_FLOAT_TINY <= total) & (total < math.inf))
        if off.any():
            # The power sum left the normal range (subnormal sums keep only a
            # few significant bits), so factor out the largest entry.  A zero,
            # infinite or NaN largest entry is the norm itself.
            top = entries[off].max(axis=1)
            with np.errstate(divide="ignore", invalid="ignore"):
                scaled = top * np.sum((entries[off] / top[:, None]) ** q, axis=1) ** (1.0 / q)
            norm[off] = np.where((top == 0.0) | ~np.isfinite(top), top, scaled)
        return _shaped(norm, lead)
    if space.kind == "sup":
        return _shaped(entries.sum(axis=1), lead)
    return _shaped(entries.max(axis=1), lead)


def norming_rows(space: SpaceSpec, b: np.ndarray) -> np.ndarray:
    """Points z of unit gauge with sum_i b_i z_i = dual_norm(b), up to
    rounding, for every row of a (rows, dim) array of nonzero covectors.

    lp:  z_i proportional to |b_i|^(q-1) conj(b_i)/|b_i|, q = p/(p-1)
         (0 for b_i = 0);
    sup: z_i = conj(b_i)/|b_i| in every coordinate (1 for b_i = 0);
    l1:  conj(b_j)/|b_j| at the first index j of the largest |b_j|, 0 elsewhere.
    """
    mods = np.abs(b)
    live = mods > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        phase = np.where(live, np.conj(b) / mods, 1.0)
        if space.kind == "lp":
            z = np.where(live, mods ** (space.p / (space.p - 1.0) - 1.0), 0.0) * phase
        elif space.kind == "sup":
            z = phase
        else:
            z = np.where(np.arange(b.shape[-1]) == np.argmax(mods, axis=1)[:, None], phase, 0.0)
    return z / rho(space, z)[:, None]


def fd_gradient_rows(space: SpaceSpec, z: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central finite differences of rho on R^{2n} at every row of a
    (rows, dim) array, recombined as (d/dx - i d/dy)/2.

    Independent of the closed forms above; only valid where rho is smooth
    across the whole stencil, so keep z well clear of E relative to ``step``.
    Coordinate i evaluates rho once on the (rows, 4, dim) stencil
    z +- step e_i, z +- i step e_i.
    """
    offsets = np.array([step, -step, 1j * step, -1j * step])
    out = np.empty(z.shape, dtype=complex)
    for i in range(space.dim):
        stencil = np.repeat(z[:, None, :], 4, axis=1)
        stencil[:, :, i] += offsets
        g = rho(space, stencil)
        ddx = (g[:, 0] - g[:, 1]) / (2.0 * step)
        ddy = (g[:, 2] - g[:, 3]) / (2.0 * step)
        out[:, i].real = 0.5 * ddx
        out[:, i].imag = -0.5 * ddy
    return out


def wirtinger_fd_gradient(space: SpaceSpec, z, step: float = 1e-5) -> Covector:
    """Finite-difference Wirtinger gradient at z (see ``fd_gradient_rows``)."""
    return Covector(tuple(fd_gradient_rows(space, _as_vec(z)[None], step)[0].tolist()))


# A uniform source for the samplers: draw(rows, start, count) returns the
# uniforms in (0, 1] with draw indices start .. start + count - 1 of the
# given rows of the batch, as a (len(rows), count) array.


def rng_draws(rng: np.random.Generator):
    """A uniform source reading ``rng`` in call order."""
    return lambda rows, start, count: 1.0 - rng.random((len(rows), count))


def gaussians(u: np.ndarray) -> np.ndarray:
    """Complex normals with standard normal real and imaginary parts, from
    uniform pairs (u[..., 2k], u[..., 2k + 1]) in (0, 1] by Box-Muller."""
    radius = np.sqrt(-2.0 * np.log(u[..., 0::2]))
    angle = 2.0 * np.pi * u[..., 1::2]
    g = np.empty(radius.shape, dtype=complex)
    g.real = radius * np.cos(angle)
    g.imag = radius * np.sin(angle)
    return g


def check_radii(rmin: float, rmax: float) -> None:
    """Gauge radii of sampled points must satisfy 0 < rmin <= rmax < 1, so
    that the points lie in the open unit ball (NaN and inf fail too)."""
    if not 0.0 < rmin <= rmax < 1.0:
        raise ValueError(f"need 0 < rmin <= rmax < 1, got rmin={rmin}, rmax={rmax}")


def sphere_rows(
    space: SpaceSpec, draw, rows: int, start: int = 0, min_gap: float = EXC_EPS
) -> np.ndarray:
    """(rows, dim) points on the unit sphere of the gauge, at least min_gap
    off E.

    Attempt k of a row normalizes the complex Gaussian of its draws
    start + 2 dim k .. start + 2 dim (k + 1) - 1; a row that lands at the
    origin or within min_gap of E moves on to its next attempt, so each row
    depends on its own draws alone.
    """
    width = 2 * space.dim
    out = np.empty((rows, space.dim), dtype=complex)
    todo = np.arange(rows)
    for attempt in range(SPHERE_ATTEMPTS):
        g = gaussians(draw(todo, start + attempt * width, width))
        r = rho(space, g)
        with np.errstate(divide="ignore", invalid="ignore"):
            u = g / r[:, None]
            ok = (r != 0.0) & (exceptional_distance(space, u) >= min_gap)
        out[todo[ok]] = u[ok]
        todo = todo[~ok]
        if not todo.size:
            return out
    raise SamplingError(
        f"sphere sampling kept landing within {min_gap:g} of the exceptional set "
        f"({SPHERE_ATTEMPTS} attempts)"
    )


def point_rows(
    space: SpaceSpec,
    draw,
    rows: int,
    start: int = 0,
    rmin: float = 0.05,
    rmax: float = 0.95,
    min_gap: float = EXC_EPS,
) -> np.ndarray:
    """(rows, dim) points of the open unit ball with gauge in [rmin, rmax],
    off E: the radius from draw ``start``, the direction from the draws
    after it (see ``sphere_rows``)."""
    check_radii(rmin, rmax)
    r = rmin + (rmax - rmin) * draw(np.arange(rows), start, 1)[:, 0]
    # E is a cone, so scaling by r multiplies the gap by r; demanding
    # min_gap / rmin on the sphere keeps the scaled point min_gap off E.
    return r[:, None] * sphere_rows(space, draw, rows, start + 1, min_gap / rmin)


def sample_direction(space: SpaceSpec, rng: np.random.Generator, min_gap: float = EXC_EPS) -> np.ndarray:
    """Random point on the unit sphere of the gauge, at least min_gap off E."""
    return sphere_rows(space, rng_draws(rng), 1, min_gap=min_gap)[0]


def sample_point(
    space: SpaceSpec,
    rng: np.random.Generator,
    rmin: float = 0.05,
    rmax: float = 0.95,
    min_gap: float = EXC_EPS,
) -> np.ndarray:
    """Random point of the open unit ball with gauge in [rmin, rmax], off E;
    requires 0 < rmin <= rmax < 1."""
    return point_rows(space, rng_draws(rng), 1, rmin=rmin, rmax=rmax, min_gap=min_gap)[0]
