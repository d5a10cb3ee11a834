"""Minkowski gauges on C^n, their support functionals and Wirtinger gradients.

A space is C^n with the ell^p gauge of one exponent 1 <= p <= infinity:
p = infinity is the sup norm (polydisk gauge) and p = 1 the ell^1 norm.
For each gauge rho the canonical support functional l_z (norm one,
l_z(z) = rho(z)) has a closed form, and the Wirtinger gradient of rho is
exactly half of it, so

    2 (d rho / dz) z = rho(z)

off the exceptional set E where rho fails to be C^1 (coordinate-modulus
ties for sup, coordinate zeros for ell^1 and 1 < p < 2).  Gradients are
validated elsewhere against central finite differences of rho on R^{2n}
with the convention d/dz = (d/dx - i d/dy)/2.

The gauge and the dual norm are one kernel, ``_norm_rows``: the dual norm
is the gauge of ``SpaceSpec.dual()``, ell^q with q = p/(p-1), where sup
and ell^1 swap.  A covector attains its dual norm at its support
functional for the dual gauge.  The gauge, the distance to E and the dual
norm take one vector or an array of vectors along its last axis, such as
the (rows, atoms, dim) covectors of a batch of lifted maps; the covector,
gradient and finite-difference kernels take (rows, dim) arrays, and
``support_covector``, ``minkowski_gradient`` and ``wirtinger_fd_gradient``
are batch-of-one calls into them.  The samplers turn uniforms of the
counter-based stream of ``herglotz.uniforms`` into points: each pair of
uniforms is one complex draw uniform on the square [-1, 1]^2
(``complex_uniforms``), and the gauge normalizes it onto the sphere.  Each
sampler takes the first attempt's uniforms from its caller, which draws
them in the same call as the rest of each sample, and draws a rejected
row's later attempts itself, so a row is a pure function of (seed, index).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .herglotz import uniforms

# Points closer to E than this are rejected; samplers resample.
EXC_EPS = 1e-8

# A sampled row that lands near E this many times in a row is an error.
SPHERE_ATTEMPTS = 1000

DIRECTION_TOL = 1e-12

# Sampled points have gauge radius in [POINT_RMIN, POINT_RMAX], inside the
# open unit ball.
POINT_RMIN, POINT_RMAX = 0.05, 0.95

_FLOAT_TINY = np.finfo(float).tiny


class ExceptionalPoint(ValueError):
    """Evaluation at or too near the non-smooth set E of the gauge."""


class SamplingError(RuntimeError):
    """A sampled row kept landing near E."""


class InvalidDirection(ValueError):
    """Direction vector expected on the unit sphere of the gauge."""


@dataclass(frozen=True)
class SpaceSpec:
    """C^dim with the ell^p gauge, 1 <= p <= inf: p = inf is the sup norm
    and p = 1 the ell^1 norm."""

    dim: int
    p: float

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if not 1.0 <= self.p <= math.inf:  # NaN fails too
            raise ValueError("gauge exponent needs 1 <= p <= inf")

    @property
    def kind(self) -> str:
        """The name of the gauge family, "sup", "l1" or "lp", for messages."""
        return "sup" if self.p == math.inf else "l1" if self.p == 1.0 else "lp"

    def dual(self) -> "SpaceSpec":
        """The dual gauge: ell^q with q = p/(p-1); sup and ell^1 swap."""
        q = math.inf if self.p == 1.0 else 1.0 if self.p == math.inf else self.p / (self.p - 1.0)
        return SpaceSpec(self.dim, q)


def lp_space(dim: int, p: float) -> SpaceSpec:
    """ell^p with 1 < p < inf; the endpoints are ``l1_space`` and ``sup_space``."""
    p = float(p)
    if not 1.0 < p < math.inf:
        raise ValueError("lp gauge needs 1 < p < inf")
    return SpaceSpec(dim, p)


def euclidean(dim: int) -> SpaceSpec:
    return lp_space(dim, 2.0)


def sup_space(dim: int) -> SpaceSpec:
    return SpaceSpec(dim, math.inf)


def l1_space(dim: int) -> SpaceSpec:
    return SpaceSpec(dim, 1.0)


@dataclass(frozen=True)
class Covector:
    """Linear functional w -> sum_i entries_i w_i (no conjugation in the pairing)."""

    entries: tuple[complex, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(complex(c) for c in self.entries))

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


def _norm_rows(v: np.ndarray, p: float) -> np.ndarray:
    """The p-norm of every row of a (rows, dim) array of moduli: its
    largest entry for p = inf, its sum for p = 1.

    When a power sum leaves the normal range [tiny, inf) (a subnormal sum
    keeps only a few significant bits), its row factors out its largest
    entry; a zero, infinite or NaN largest entry is the norm itself.
    """
    if p == math.inf:
        return v.max(axis=1)
    if p == 1.0:
        return v.sum(axis=1)
    # An overflowing power sum is expected: the fallback takes its row.
    with np.errstate(over="ignore"):
        total = np.sum(v ** p, axis=1)
    norm = total ** (1.0 / p)
    if total.size and not (_FLOAT_TINY <= total.min() and total.max() < math.inf):
        off = ~((_FLOAT_TINY <= total) & (total < math.inf))
        top = v[off].max(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            scaled = top * np.sum((v[off] / top[:, None]) ** p, axis=1) ** (1.0 / p)
        norm[off] = np.where((top == 0.0) | ~np.isfinite(top), top, scaled)
    return norm


def rho(space: SpaceSpec, z):
    """The gauge of z: p-norm, max modulus, or sum of moduli.  A single
    vector gives a float, an array of vectors an array of its leading
    shape."""
    v, lead = _moduli(space, z)
    return _shaped(_norm_rows(v, space.p), lead)


def exceptional_distance(space: SpaceSpec, z):
    """Continuous proxy for the distance from z to the non-smooth set E.

    sup: gap between the two largest coordinate moduli; ell^1 and ell^p
    with p < 2: smallest coordinate modulus; ell^p with p >= 2 is smooth
    off the origin, so the distance is +inf.
    """
    v, lead = _moduli(space, z)
    if space.p == math.inf:
        if space.dim == 1:
            return _shaped(v[:, 0], lead)
        top2 = np.partition(v, space.dim - 2, axis=1)[:, -2:]
        return _shaped(top2[:, 1] - top2[:, 0], lead)
    if space.p < 2.0:
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

    sup: conj(z_j)/|z_j| at the first maximizing index j;
    l1:  conj(z_i)/|z_i| in every coordinate (0 for z_i = 0);
    lp:  rho^{1-p} |z_i|^{p-2} conj(z_i)   (0 for z_i = 0), as
         (|z_i|/rho)^{p-2} conj(z_i)/rho in the rows where rho^{1-p}
         leaves the normal range [tiny, inf).

    Read for the dual gauge, ``support_rows(space.dual(), b, dual_norm(space,
    b))`` is a unit-gauge point z with sum_i b_i z_i = dual_norm(space, b)
    for any nonzero covectors b, zero entries included.
    """
    mods = np.abs(v)
    if space.p == math.inf:
        rows, j = np.arange(len(v)), np.argmax(mods, axis=1)
        entries = np.zeros(v.shape, dtype=complex)
        entries[rows, j] = np.conj(v[rows, j]) / mods[rows, j]
        return entries
    if space.p == 1.0:
        # A zero coordinate divides 0 by 1.
        return np.conj(v) / np.where(mods > 0.0, mods, 1.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        scale = r ** (1.0 - space.p)
        entries = scale[:, None] * mods ** (space.p - 2.0) * np.conj(v)
        off = ~((_FLOAT_TINY <= scale) & (scale < math.inf))
        if off.any():
            # rho^{1-p} overflows at small gauges and underflows at large
            # ones; scaling each coordinate by rho first keeps it in range.
            rb = r[off, None]
            entries[off] = (mods[off] / rb) ** (space.p - 2.0) * np.conj(v[off]) / rb
    return np.where(mods > 0.0, entries, 0.0)


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
    last axis.  It is the gauge of ``space.dual()``."""
    entries = np.abs(_as_vec(b.entries if isinstance(b, Covector) else b))
    if entries.ndim == 0 or entries.shape[-1] != space.dim:
        raise ValueError(f"expected covectors of length {space.dim}")
    norms = _norm_rows(entries.reshape(-1, space.dim), space.dual().p)
    return _shaped(norms, entries.shape[:-1])


def fd_gradient_rows(space: SpaceSpec, z: np.ndarray) -> np.ndarray:
    """Central finite differences of rho on R^{2n} at every row of a
    (rows, dim) array, recombined as (d/dx - i d/dy)/2.

    Independent of the closed forms above; only valid where rho is smooth
    across the whole stencil, so keep z well clear of E relative to the
    step 1e-5.  Coordinate i evaluates rho once on the (rows, 4, dim)
    stencil z +- step e_i, z +- i step e_i.
    """
    step = 1e-5
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


def wirtinger_fd_gradient(space: SpaceSpec, z) -> Covector:
    """Finite-difference Wirtinger gradient at z (see ``fd_gradient_rows``)."""
    return Covector(tuple(fd_gradient_rows(space, _as_vec(z)[None])[0].tolist()))


def complex_uniforms(u: np.ndarray) -> np.ndarray:
    """Complex draws uniform on the square [-1, 1]^2, from uniform pairs
    (u[..., 2k], u[..., 2k + 1]) in (0, 1) as real and imaginary parts.

    A stream uniform is (k + 1/2) 2^-52, so each part (2k + 1 - 2^52) 2^-52
    is never 0, and neither is the gauge or dual norm of a vector of draws.
    """
    return (2.0 * u - 1.0).view(complex)


def sphere_rows(
    space: SpaceSpec, u: np.ndarray, seed: int, indices, start: int, min_gap: float = EXC_EPS
) -> np.ndarray:
    """(len(indices), dim) points on the unit sphere of the gauge, at least
    min_gap off E, one per sample index of the counter stream of ``seed``.

    Attempt k of a row normalizes the ``complex_uniforms`` of its draws
    start + 2 dim k .. start + 2 dim (k + 1) - 1.  ``u`` holds attempt 0 of
    every row, the (rows, 2 dim) uniforms ``herglotz.uniforms(seed, indices,
    2 dim, start)``, so a caller that draws more of each sample takes them
    in the same call; a row that lands within min_gap of E draws its next
    attempt, so each row depends on (seed, its index) alone.
    Raises SamplingError before any attempt when no sphere point is min_gap
    off E: on l1 and lp with p < 2 a unit vector has a coordinate modulus at
    most dim^(-1/p).
    """
    if space.p < 2.0 and space.dim ** (-1.0 / space.p) <= min_gap:
        raise SamplingError(f"no point of the unit sphere of the {space.kind} gauge in "
                            f"C^{space.dim} is {min_gap:g} off its non-smooth set")
    indices = np.asarray(indices)
    width = 2 * space.dim
    out = np.empty((len(indices), space.dim), dtype=complex)
    todo = np.arange(len(indices))
    for attempt in range(SPHERE_ATTEMPTS):
        if attempt:
            u = uniforms(seed, indices[todo], width, start + attempt * width)
        g = complex_uniforms(u)
        unit = g / rho(space, g)[:, None]
        ok = exceptional_distance(space, unit) >= min_gap
        out[todo[ok]] = unit[ok]
        todo = todo[~ok]
        if not todo.size:
            return out
    raise SamplingError(
        f"sphere sampling kept landing within {min_gap:g} of the exceptional set "
        f"({SPHERE_ATTEMPTS} attempts)"
    )


def point_rows(
    space: SpaceSpec, u: np.ndarray, seed: int, indices, start: int, min_gap: float = EXC_EPS
) -> np.ndarray:
    """(len(indices), dim) points of the open unit ball with gauge in
    [POINT_RMIN, POINT_RMAX], off E, from the (rows, 1 + 2 dim) uniforms
    ``u`` of draws start .. start + 2 dim of each index: the radius from
    draw ``start``, the direction from the ``sphere_rows`` of the draws
    after it."""
    r = POINT_RMIN + (POINT_RMAX - POINT_RMIN) * u[:, 0]
    # E is a cone, so scaling by r multiplies the gap by r; demanding
    # min_gap / POINT_RMIN on the sphere keeps the scaled point min_gap off E.
    return r[:, None] * sphere_rows(space, u[:, 1:], seed, indices, start + 1, min_gap / POINT_RMIN)


def sample_direction(space: SpaceSpec, rng: np.random.Generator, min_gap: float = EXC_EPS) -> np.ndarray:
    """Random point on the unit sphere of the gauge, at least min_gap off E:
    row 0 of ``sphere_rows`` under one seed taken from ``rng``."""
    seed = int(rng.integers(2**63))
    return sphere_rows(space, uniforms(seed, [0], 2 * space.dim), seed, [0], 0, min_gap)[0]


def sample_point(space: SpaceSpec, rng: np.random.Generator, min_gap: float = EXC_EPS) -> np.ndarray:
    """Random point of the open unit ball with gauge in [POINT_RMIN,
    POINT_RMAX], off E: row 0 of ``point_rows`` under one seed taken from
    ``rng``."""
    seed = int(rng.integers(2**63))
    return point_rows(space, uniforms(seed, [0], 1 + 2 * space.dim), seed, [0], 0, min_gap)[0]
