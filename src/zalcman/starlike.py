"""Starlike univalent functions on the disk and the Zalcman functional.

A normalized starlike f satisfies z f'(z)/f(z) = p(z) for a Caratheodory
function p, which pins its Taylor coefficients through the recurrence

    (n - 1) a_n = sum_{k=1}^{n-1} p_k a_{n-k},       a_1 = 1.

The same coefficients fall out of f(z) = z exp(sum_k p_k z^k / k), which is
kept as an independent cross-check.  The generalized Zalcman functional
J_{m,n} = a_m a_n - a_{m+n-1} is bounded by (m-1)(n-1) on this class, with
equality exactly at rotations of the Koebe function z/(1-z)^2.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .herglotz import MAX_ATOMS, HerglotzMeasure, batch_moments, modulus
from .series import DEFAULT_ORDER, TruncatedSeries

MAX_COEFF_ORDER = DEFAULT_ORDER

# Pattern-search schedule: coordinate steps halve from START to FLOOR.
SEARCH_STEP_START = 0.25
SEARCH_STEP_FLOOR = 1e-7
SEARCH_RESTARTS = 20


@dataclass(frozen=True)
class SchlichtCoefficients:
    """Coefficients a_1..a_N of a normalized univalent f, a_1 = 1.

    Instances come only from a Herglotz measure (via ``coeffs_from_p`` or
    ``coeffs_oracle``), which certifies starlikeness.
    """

    a: tuple[complex, ...]

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(complex(c) for c in self.a))
        if not self.a or self.a[0] != 1:
            raise ValueError("a_1 must be exactly 1")

    @property
    def order(self) -> int:
        return len(self.a)

    def coef(self, n: int) -> complex:
        """1-based Taylor coefficient a_n."""
        if not 1 <= n <= len(self.a):
            raise IndexError(f"coefficient a_{n} not computed (order {len(self.a)})")
        return self.a[n - 1]


@dataclass(frozen=True)
class ZalcmanOrder:
    """Index pair (m, n) of the functional a_m a_n - a_{m+n-1}."""

    m: int
    n: int

    def __post_init__(self):
        if not (2 <= self.m <= 4 and 2 <= self.n <= 4):
            raise ValueError("supported index range is 2 <= m, n <= 4")

    @property
    def bound(self) -> float:
        """Sharp bound (m-1)(n-1) on |J_{m,n}| over starlike functions."""
        return float((self.m - 1) * (self.n - 1))

    @property
    def top_coefficient(self) -> int:
        return self.m + self.n - 1


def batch_coeffs(p: np.ndarray, order: int) -> np.ndarray:
    """Coefficients a_1..a_order of every row of moments p_1..p_{order-1},
    as a (rows, order) complex array, by the convolution recurrence."""
    a = np.zeros((len(p), order), dtype=complex)
    a[:, 0] = 1.0
    for n in range(2, order + 1):
        a[:, n - 1] = (p[:, : n - 1] * a[:, n - 2 :: -1]).sum(axis=1) / (n - 1)
    return a


def batch_zalcman(a: np.ndarray, order: ZalcmanOrder) -> np.ndarray:
    """J_{m,n} = a_m a_n - a_{m+n-1} of every row of coefficients a_1..a_N."""
    return a[:, order.m - 1] * a[:, order.n - 1] - a[:, order.top_coefficient - 1]


def zalcman_values(weights: np.ndarray, angles: np.ndarray, order: ZalcmanOrder) -> np.ndarray:
    """|J_{m,n}| of every row of padded atom arrays, through the kernel;
    each entry equals abs(zalcman_J(coeffs_from_p(row measure), order))."""
    top = order.top_coefficient
    a = batch_coeffs(batch_moments(weights, angles, top - 1), top)
    return modulus(batch_zalcman(a, order))


def _check_order(order: int) -> None:
    if not 1 <= order <= MAX_COEFF_ORDER:
        raise ValueError(f"order must be between 1 and {MAX_COEFF_ORDER}")


def coeffs_from_p(mu: HerglotzMeasure, order: int = MAX_COEFF_ORDER) -> SchlichtCoefficients:
    """Coefficients via the convolution recurrence from z f' = p f, as a
    batch-of-one call into ``batch_coeffs``."""
    _check_order(order)
    a = batch_coeffs(batch_moments(*mu.padded(), order - 1), order)
    return SchlichtCoefficients(tuple(a[0].tolist()))


def coeffs_oracle(mu: HerglotzMeasure, order: int = MAX_COEFF_ORDER) -> SchlichtCoefficients:
    """Same contract as ``coeffs_from_p`` through the exponential route.

    Builds f(z) = z exp(sum_k p_k z^k / k) with the series kernel, so the
    two paths share no arithmetic beyond the moments p_k.
    """
    _check_order(order)
    p = batch_moments(*mu.padded(), order - 1)[0].tolist()
    g = TruncatedSeries((0j,) + tuple(pk / k for k, pk in enumerate(p, start=1)))
    e = g.exp()
    return SchlichtCoefficients(e.coeffs[:order])


def zalcman_J(coeffs: SchlichtCoefficients, order: ZalcmanOrder) -> complex:
    """The functional a_m a_n - a_{m+n-1}, as a batch-of-one call into
    ``batch_zalcman``; callers take the modulus."""
    coeffs.coef(order.top_coefficient)  # IndexError when not computed
    return complex(batch_zalcman(np.array([coeffs.a]), order)[0])


class SearchResult(NamedTuple):
    measure: HerglotzMeasure
    value: float
    evaluations: int


def _objective(weights, angles, order: ZalcmanOrder) -> float:
    """|J_{m,n}| from raw atom arrays, inlined recurrence for speed."""
    top = order.top_coefficient
    p = [
        2 * sum(w * cmath.exp(-1j * k * t) for w, t in zip(weights, angles))
        for k in range(1, top)
    ]
    a: list[complex] = [1 + 0j]
    for n in range(2, top + 1):
        acc = 0j
        for k in range(1, n):
            acc += p[k - 1] * a[n - k - 1]
        a.append(acc / (n - 1))
    return abs(a[order.m - 1] * a[order.n - 1] - a[top - 1])


def _project_weights(weights) -> list[float] | None:
    """Clip to the nonnegative orthant and renormalize onto the simplex."""
    clipped = [max(w, 0.0) for w in weights]
    total = sum(clipped)
    if total <= 0.0:
        return None
    return [w / total for w in clipped]


def search_extremal(
    order: ZalcmanOrder,
    budget: int,
    seed: int,
    restarts: int = SEARCH_RESTARTS,
    max_atoms: int = MAX_ATOMS,
) -> SearchResult:
    """Derivative-free search for extremizers of |J_{m,n}| over measures.

    Multi-start coordinate pattern search over atom weights and angles,
    with simplex re-projection of the weights after every trial step.
    Restart r draws a random start with (r mod max_atoms) + 1 atoms, so
    every support size, including the extreme-point singletons, is probed.
    ``budget`` caps the number of refinement evaluations; the start batch
    itself is free, so budget 0 reports the best start.  Deterministic in
    (seed, budget) and monotone in budget: a larger budget only extends
    the evaluated candidate stream.  Candidates are ranked by the inlined
    ``_objective``; the reported value is the best measure's |J| through
    the batched kernel, so ``coeffs_from_p`` and ``zalcman_J`` replay it
    bit for bit.
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    best_val = -1.0
    best_state: tuple[list[float], list[float]] | None = None
    spent = 0

    starts = []
    for r in range(restarts):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, r)))
        natoms = r % max_atoms + 1
        raw = rng.exponential(1.0, natoms)
        weights = (raw / raw.sum()).tolist()
        angles = rng.uniform(0.0, 2.0 * np.pi, natoms).tolist()
        starts.append((weights, angles))
        val = _objective(weights, angles, order)
        if val > best_val:
            best_val, best_state = val, (weights, angles)

    for weights, angles in starts:
        if spent >= budget:
            break
        current = _objective(weights, angles, order)   # re-eval is free bookkeeping
        step = SEARCH_STEP_START
        while step >= SEARCH_STEP_FLOOR and spent < budget:
            improved = False
            k = len(weights)
            for idx in range(2 * k):
                for sign in (1.0, -1.0):
                    if spent >= budget:
                        break
                    if idx < k:
                        trial_w = list(weights)
                        trial_w[idx] += sign * step
                        projected = _project_weights(trial_w)
                        if projected is None:
                            continue
                        trial = (projected, list(angles))
                    else:
                        trial_t = list(angles)
                        trial_t[idx - k] += sign * step
                        trial = (list(weights), trial_t)
                    val = _objective(trial[0], trial[1], order)
                    spent += 1
                    if val > best_val:
                        best_val, best_state = val, trial
                    if val > current:
                        weights, angles = trial
                        current = val
                        improved = True
                if spent >= budget:
                    break
            if not improved:
                step /= 2.0

    assert best_state is not None
    measure = HerglotzMeasure(tuple(zip(best_state[0], best_state[1])))
    value = float(zalcman_values(*measure.padded(), order)[0])
    return SearchResult(measure, value, spent)
