"""Discrete Herglotz measures and the Caratheodory class.

A function p with p(0) = 1 and positive real part on the unit disk is the
Herglotz transform of a probability measure on the circle.  This module
works with finitely supported measures

    p(z) = sum_k lam_k (1 + z e^{-i theta_k}) / (1 - z e^{-i theta_k}),

whose Taylor coefficients are the moments p_n = 2 sum_k lam_k e^{-i n theta_k}.
Finite supports are dense in the coefficient bodies at any fixed truncation
order, so nothing is lost for the degree-7 functionals computed here.

Batches of measures are (rows, MAX_ATOMS) arrays of weights and angles,
padded with weight-0, angle-0 atoms.  The sampler, the moments and the
margins work on whole batches; ``HerglotzMeasure.coefficient``,
``HerglotzMeasure.margins`` and ``sample_measure`` are batch-of-one calls
into the same functions.  The rules of a sampled atom row, which the
lifted maps of ``mappings`` share, live here: ``atom_counts``,
``simplex_rows``, ``check_weights``, and weight 0 as padding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

MAX_ATOMS = 8

DEFAULT_ORDER = 7

WEIGHT_TOL = 1e-12

# Uniforms drawn per sample: the atom count, MAX_ATOMS exponentials for the
# weights, MAX_ATOMS angles.  Every sample makes all of them whatever its
# atom count, so each draw index has one fixed role.
SAMPLE_DRAWS = 1 + 2 * MAX_ATOMS

# SplitMix64 (Steele, Lea and Flood, OOPSLA 2014) as a counter-based stream
# in the sense of Salmon et al., "Parallel Random Numbers: As Easy as 1, 2,
# 3" (SC'11): the seed keys a parent generator, output i + 1 of the parent
# keys the generator of sample i, and output j + 1 of that is uniform j of
# the sample.  Every uniform is a pure function of (seed, index, draw).
# The increment and the output function's multipliers and shifts: as Python
# ints for the one key of a seed, and as uint64 for the arrays of a draw, so
# that numpy converts no Python int on each call.
_GAMMA, _MIX1, _MIX2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_SHIFT1, _SHIFT2, _SHIFT3 = 30, 27, 31
_WORD = (1 << 64) - 1
_U_GAMMA, _U_MIX1, _U_MIX2 = np.uint64(_GAMMA), np.uint64(_MIX1), np.uint64(_MIX2)
_U_SHIFT1, _U_SHIFT2, _U_SHIFT3 = np.uint64(_SHIFT1), np.uint64(_SHIFT2), np.uint64(_SHIFT3)


class CaratheodoryMargins(NamedTuple):
    """Slack in the three classical coefficient inequalities.

    m1 = 2 - max_n |p_n|, m2 = 2 - |p_2 - p_1^2|, m3 = 2 - |p_3 - p_1 p_2|.
    All three are nonnegative for genuine Caratheodory functions.
    """

    m1: float
    m2: float
    m3: float


def modulus(z: np.ndarray) -> np.ndarray:
    """|z| elementwise, equal bit for bit to Python's abs() of each entry.

    numpy's own complex absolute value rounds differently from the
    hypot() that Python's abs() calls, so a witness replayed through
    abs() would not reproduce a value computed with np.abs.
    """
    return np.hypot(z.real, z.imag)


def check_weights(weights: np.ndarray) -> None:
    """The weight checks of a measure or a map, for every row of padded atom
    arrays: weights finite and nonnegative, each row summing to 1 within
    WEIGHT_TOL.  Raises ValueError otherwise.
    """
    if not np.isfinite(weights).all():
        raise ValueError("atom weights must be finite")
    if (weights < 0).any():
        raise ValueError("atom weights must be nonnegative")
    total = weights.sum(axis=1)
    off = np.abs(total - 1.0) > WEIGHT_TOL
    if off.any():
        raise ValueError(f"atom weights sum to {total[off][0]}, expected 1")


def node_table(re: np.ndarray, im: np.ndarray, count: int) -> np.ndarray:
    """Re and Im of the powers x^k, k = 1..count, of the nodes x = re + i im
    ((rows, atoms) arrays) as one atom-major (atoms, 2 count, rows) table:
    entry [i, k - 1, r] is Re x[r, i]^k and [i, count + k - 1, r] its Im.

    x^k = x^{k-1} x takes real multiplies and adds, each rounded on its own
    (numpy's complex multiply fuses multiply-adds on some code paths only),
    so a column recomputed from one node equals the full table's bit for
    bit.  Atom-major: ``table_moments`` adds contiguous atom slabs.
    """
    table = np.empty((re.shape[1], 2 * count, len(re)))
    # The powers are built in arrays of their own, in place where that saves
    # a temporary, and copied in: a multiply that read one table slab and
    # wrote another would copy its input first.
    xr, xi = cos, sin = re.T, im.T
    for k in range(count):
        if k:
            cross = xr * sin
            xr = xr * cos
            xr -= xi * sin
            xi = xi * cos
            xi += cross
        table[:, k], table[:, count + k] = xr, xi
    return table


def phase_table(angles: np.ndarray, count: int) -> np.ndarray:
    """``node_table`` of the unit nodes e^{i theta} of ``angles``, from one
    cos and sin per atom: within 7.9e-16 of cos and sin of k theta for
    k <= 7 over 3000 random angles (3.6e-15 for cos and sin of the rounded
    product k theta), and exactly 1 and 0 at an angle of 0 (padding)."""
    at = angles.T.copy()
    # sin overwrites this private (atoms, rows) copy once cos has read it.
    return node_table(np.cos(at).T, np.sin(at, out=at).T, count)


def table_moments(weights: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Moments p_k = 2 sum_i w_i conj(x_i^k) of every row, from its
    (rows, atoms) weights and its ``node_table``, as a (rows, count) view of
    a (count, rows) array: at the unit nodes of ``phase_table``, the
    Herglotz moments.  Consumes the table (weighted and summed in place), so
    a caller that reads it again passes a copy.

    The atoms, a power of two of them, are added by halving: eight as
    ((a0 + a1) + (a2 + a3)) + ((a4 + a5) + (a6 + a7)), the order of numpy's
    pairwise sum, so every one-variable moment stays equal under == to the
    numpy sum the reports were built with (numpy starts from +0.0, so only
    the sign of a sum of eight negative zeros can differ, which no modulus
    shows), without numpy's per-row cost of reducing a short axis.
    """
    if len(table) & (len(table) - 1):
        raise ValueError(f"{len(table)} atoms: the halving needs a power of two")
    # Atom-major weights make the broadcast multiply read them contiguously.
    terms = np.multiply(table, np.ascontiguousarray(weights.T)[:, None, :], out=table)
    while len(terms) > 1:
        half = terms[0::2]
        half += terms[1::2]
        terms = half
    count = table.shape[1] // 2
    p = np.empty((count, table.shape[2]), dtype=complex)
    np.multiply(terms[0, :count], 2.0, out=p.real)
    np.multiply(terms[0, count:], -2.0, out=p.imag)
    return p.T


def batch_moments(weights: np.ndarray, angles: np.ndarray, count: int) -> np.ndarray:
    """Moments p_1..p_count of every row, as a (rows, count) complex array.

    ``weights`` and ``angles`` are (rows, MAX_ATOMS) arrays whose padding
    atoms have weight 0 and angle 0, so they add exact zeros.
    """
    return table_moments(weights, phase_table(angles, count))


def batch_margins(weights: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """(rows, 3) array of the margins m1, m2, m3 (see CaratheodoryMargins),
    with m1 taken over p_1..p_DEFAULT_ORDER.  A NaN input gives NaN margins."""
    p = batch_moments(weights, angles, DEFAULT_ORDER).T
    margins = np.empty((3, p.shape[1]))
    margins[0] = 2.0 - modulus(p).max(axis=0)
    margins[1] = 2.0 - modulus(p[1] - p[0] * p[0])
    margins[2] = 2.0 - modulus(p[2] - p[0] * p[1])
    return margins.T


@dataclass(frozen=True)
class HerglotzMeasure:
    """Probability measure on the circle with finitely many atoms.

    ``atoms`` is a tuple of (weight, angle) pairs; weights are nonnegative
    and sum to 1 within WEIGHT_TOL, and weights and angles are finite.
    The moment methods are batch-of-one calls into the batched kernel, so
    they reproduce the kernel's row for the same atoms bit for bit.
    """

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "atoms", tuple((float(w), float(t)) for w, t in self.atoms)
        )
        if not 1 <= len(self.atoms) <= MAX_ATOMS:
            raise ValueError(f"need between 1 and {MAX_ATOMS} atoms, got {len(self.atoms)}")
        weights, angles = self.padded()
        if not np.isfinite(angles).all():
            raise ValueError("atom angles must be finite")
        check_weights(weights)

    @classmethod
    def from_row(cls, weights: np.ndarray, angles: np.ndarray) -> "HerglotzMeasure":
        """The measure of one row of padded atom arrays: its nonzero-weight atoms."""
        live = weights != 0.0
        return cls(tuple(zip(weights[live].tolist(), angles[live].tolist())))

    def padded(self) -> tuple[np.ndarray, np.ndarray]:
        """Weights and angles as (1, MAX_ATOMS) rows padded with zero atoms,
        the layout ``sample_batch`` returns."""
        row = np.zeros((2, MAX_ATOMS))
        row[:, : len(self.atoms)] = np.array(self.atoms).T
        return row[:1], row[1:]

    def coefficient(self, n: int) -> complex:
        """Taylor coefficient p_n = 2 sum_k lam_k e^{-i n theta_k} (n >= 1)."""
        if n < 1:
            raise ValueError("coefficients are indexed from 1")
        return complex(batch_moments(*self.padded(), n)[0, -1])

    def margins(self) -> CaratheodoryMargins:
        """Margins of the coefficient inequalities |p_n| <= 2,
        |p_2 - p_1^2| <= 2 and |p_3 - p_1 p_2| <= 2."""
        return CaratheodoryMargins(*batch_margins(*self.padded())[0].tolist())

    def to_json(self) -> dict:
        return {"atoms": [[w, t] for w, t in self.atoms]}

    @classmethod
    def from_json(cls, obj: dict) -> "HerglotzMeasure":
        return cls(tuple((w, t) for w, t in obj["atoms"]))


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 output function on a uint64 array (wrapping arithmetic)."""
    z = (z ^ (z >> _U_SHIFT1)) * _U_MIX1
    z = (z ^ (z >> _U_SHIFT2)) * _U_MIX2
    return z ^ (z >> _U_SHIFT3)


def _stream_key(seed: int) -> int:
    """State of the parent generator: every 64-bit word of ``seed`` mixed in
    by ``_mix64`` on Python ints, each product cut to 64 bits."""
    key = 0
    while True:
        z = (key + (seed & _WORD) + _GAMMA) & _WORD
        z = ((z ^ (z >> _SHIFT1)) * _MIX1) & _WORD
        z = ((z ^ (z >> _SHIFT2)) * _MIX2) & _WORD
        key = z ^ (z >> _SHIFT3)
        seed >>= 64
        if not seed:
            return key


def uniforms(seed: int, indices, draws: int, start: int = 0) -> np.ndarray:
    """(len(indices), draws) uniforms in the open interval (0, 1): draws
    start .. start + draws - 1 of each sample.

    Entry [r, j] depends on (seed, indices[r], start + j) alone, so a sample
    comes out the same in any batch, order or shard.  Each uniform carries
    52 random bits, offset by half a step so that neither 0 nor 1 occurs.
    """
    if seed < 0:
        raise ValueError("seed must be >= 0")
    key = np.uint64(_stream_key(seed))
    sample_keys = _mix64(key + (np.asarray(indices, dtype=np.uint64) + 1) * _U_GAMMA)
    steps = np.arange(start + 1, start + draws + 1, dtype=np.uint64) * _U_GAMMA
    bits = _mix64(sample_keys[:, None] + steps)
    return ((bits >> 12).astype(np.float64) + 0.5) * 2.0**-52


def sample_batch(seed: int, indices) -> tuple[np.ndarray, np.ndarray]:
    """Measures of the given sample indices as zero-padded atom arrays.

    Returns (weights, angles), each (len(indices), MAX_ATOMS).  Row r has
    ``atom_counts`` leading atoms, with ``simplex_rows`` weights (all
    positive) and angles uniform in [0, 2 pi); the remaining columns are
    padding atoms with weight 0 and angle 0.
    """
    u = uniforms(seed, indices, SAMPLE_DRAWS)
    weights, angles = atom_rows(u[:, 1:], atom_counts(u[:, 0], MAX_ATOMS))
    check_weights(weights)
    return weights, angles


def atom_counts(u: np.ndarray, width: int) -> np.ndarray:
    """Atom counts uniform in [1, width], one per uniform of ``u``."""
    # u < 1, but u * width can still round up to width.
    return np.minimum((u * width).astype(np.int64), width - 1) + 1


def simplex_rows(u: np.ndarray, count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(weights, live mask) of rows of uniforms ``u``: row r weighs its first
    ``count[r]`` atoms by the normalized exponentials -log u, all positive
    since u < 1 (flat on the simplex), and the rest by 0."""
    live = np.arange(u.shape[1]) < count[:, None]
    raw = np.where(live, -np.log(u), 0.0)
    return raw / raw.sum(axis=1, keepdims=True), live


def atom_rows(u: np.ndarray, count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Padded (weights, angles) of rows of uniforms: the ``simplex_rows`` of
    columns 0..MAX_ATOMS-1 over ``count`` atoms, at angles 2 pi u of the next
    MAX_ATOMS columns; the padding atoms have weight 0 and angle 0."""
    weights, live = simplex_rows(u[:, :MAX_ATOMS], count)
    angles = np.where(live, 2.0 * np.pi * u[:, MAX_ATOMS : 2 * MAX_ATOMS], 0.0)
    return weights, angles


def sample_measure(seed: int, index: int = 0) -> HerglotzMeasure:
    """Measure of sample ``index`` under ``seed``: row 0 of a batch of one.

    The same measure ``sample_batch(seed, [..., index, ...])`` returns in
    that index's row, atom for atom.  Raises ValueError unless ``index`` is
    an integer in [0, 2^64), the range of the counter stream.
    """
    if not isinstance(index, (int, np.integer)) or not 0 <= int(index) < 2**64:
        raise ValueError(f"sample index must be an integer in [0, 2^64), got {index!r}")
    weights, angles = sample_batch(seed, [index])
    return HerglotzMeasure.from_row(weights[0], angles[0])
