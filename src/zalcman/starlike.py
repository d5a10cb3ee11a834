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

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .herglotz import (
    MAX_ATOMS,
    SAMPLE_DRAWS,
    HerglotzMeasure,
    atom_rows,
    batch_moments,
    modulus,
    phase_table,
    table_moments,
    uniforms,
)
from .series import DEFAULT_ORDER, TruncatedSeries

MAX_COEFF_ORDER = DEFAULT_ORDER

# Pattern-search schedule: coordinate steps halve from START to FLOOR.
SEARCH_STEP_START = 0.25
SEARCH_STEP_FLOOR = 1e-7
SEARCH_RESTARTS = 20

# Restart r of the search draws its start from draws SEARCH_DRAW_START ..
# SEARCH_DRAW_START + 2 MAX_ATOMS - 1 of index r, past those of the
# one-variable sampler, so no start repeats a zalcman1d sample of its seed.
SEARCH_DRAW_START = SAMPLE_DRAWS


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


def table_values(
    weights: np.ndarray, cos: np.ndarray, sin: np.ndarray, order: ZalcmanOrder
) -> np.ndarray:
    """|J_{m,n}| of every row from its weights and its phase table of
    p_1..p_{m+n-2} (see ``herglotz.phase_table``)."""
    top = order.top_coefficient
    a = batch_coeffs(table_moments(weights, cos, sin), top)
    return modulus(batch_zalcman(a, order))


def zalcman_values(weights: np.ndarray, angles: np.ndarray, order: ZalcmanOrder) -> np.ndarray:
    """|J_{m,n}| of every row of padded atom arrays, through the kernel;
    each entry equals abs(zalcman_J(coeffs_from_p(row measure), order))."""
    return table_values(weights, *phase_table(angles, order.top_coefficient - 1), order)


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


def project_simplex(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every row of weights clipped to the nonnegative orthant and
    renormalized onto the simplex, and a mask of the rows that have a
    projection (a positive clipped sum); the other rows come back clipped."""
    clipped = np.maximum(weights, 0.0)
    total = clipped.sum(axis=1)
    ok = total > 0.0
    np.divide(clipped, total[:, None], out=clipped, where=ok[:, None])
    return clipped, ok


def search_starts(seed: int, restarts: int, max_atoms: int = MAX_ATOMS):
    """(weights, angles, counts) of the search starts as padded rows.

    Restart r has r % max_atoms + 1 atoms, so restart 0 is a single atom (a
    rotated Koebe function) and every support size is probed.  Its weights
    and angles come from draws SEARCH_DRAW_START .. SEARCH_DRAW_START +
    2 MAX_ATOMS - 1 of index r in the counter stream of ``seed``.
    """
    counts = np.arange(restarts) % max_atoms + 1
    u = uniforms(seed, np.arange(restarts), 2 * MAX_ATOMS, SEARCH_DRAW_START)
    return (*atom_rows(u, counts), counts)


def _sweep_trials(weights, angles, cos, sin, counts, step, pos, rows):
    """The trials left in the current sweep of each restart in ``rows``, as
    (restart, sweep position, weights, angles, cos, sin), grouped by restart
    in sweep order.

    Position 2 i tries +step and 2 i + 1 tries -step on coordinate i:
    weights 0..k-1, then angles k..2k-1.  Weight trials are projected onto
    the simplex, those without a projection left out, and keep their
    restart's phase table (cos, sin); an angle trial recomputes only the
    column of the angle it moves.  So every trial's table is
    ``phase_table`` of its angles bit for bit, and ``table_values`` ranks
    it as ``zalcman_values`` would.
    """
    n = 4 * counts[rows] - pos[rows]
    owner = np.repeat(rows, n)
    j = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n - pos[rows], n)
    coord = j // 2
    delta = step[owner] * (1 - 2 * (j % 2))
    k = counts[owner]
    tw, ta, tc, ts = weights[owner], angles[owner], cos[owner], sin[owner]
    on_w = coord < k
    iw = np.flatnonzero(on_w)
    tw[iw, coord[iw]] += delta[iw]
    tw[iw], ok = project_simplex(tw[iw])
    i = np.flatnonzero(~on_w)
    col = coord[i] - k[i]
    ta[i, col] += delta[i]
    c, s = phase_table(ta[i, col, None], cos.shape[1])
    at = (i[:, None], np.arange(cos.shape[1]), col[:, None])
    tc[at], ts[at] = c[:, :, 0], s[:, :, 0]
    if ok.all():
        return owner, j, tw, ta, tc, ts
    keep = np.ones(len(owner), dtype=bool)
    keep[iw[~ok]] = False
    return owner[keep], j[keep], tw[keep], ta[keep], tc[keep], ts[keep]


def search_extremal(
    order: ZalcmanOrder,
    budget: int,
    seed: int,
    restarts: int = SEARCH_RESTARTS,
    max_atoms: int = MAX_ATOMS,
) -> SearchResult:
    """Derivative-free search for extremizers of |J_{m,n}| over measures.

    Multi-start coordinate pattern search (Torczon, SIAM J. Optim. 1997)
    over atom weights and angles.  A sweep of a restart with k atoms tries
    +step and -step on each weight, then on each angle, in that order; the
    weights of a weight trial are projected back onto the simplex, and a
    trial whose projection is empty is skipped.  The first trial that beats
    the restart's current value is accepted and the sweep goes on from it; a
    sweep without an acceptance halves the step, down to SEARCH_STEP_FLOOR.

    The restarts (``search_starts``) advance together: each round ranks the
    rest of every running restart's sweep in one ``table_values`` batch,
    accepts each restart's first improving trial and drops the trials after
    it, to be issued again from the new state in the next round.  Each
    restart keeps the phase table of its current angles, replaced only on
    acceptance, so a round computes trig only for the one angle column of
    each angle trial (see ``_sweep_trials``), and every |J| it ranks equals
    ``zalcman_values`` of the trial's row bit for bit.  The result is that
    of running the restarts one after another.  ``budget`` caps the
    evaluated trials (skipped ones do not count; the starts are free, so
    budget 0 reports the best start): restart r may evaluate ``budget``
    minus what restarts 0..r-1 evaluated.  The best candidate is the first
    value to beat the running best by strict >, over the starts and then
    restart 0, 1, ...  So the result is deterministic in (seed, budget) and
    monotone in budget.  The reported value is the best measure's |J|
    through the batched kernel, so ``coeffs_from_p`` and ``zalcman_J``
    replay it bit for bit.
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if not 1 <= max_atoms <= MAX_ATOMS:
        raise ValueError(f"max_atoms must be between 1 and {MAX_ATOMS}")
    weights, angles, counts = search_starts(seed, restarts, max_atoms)
    cos, sin = phase_table(angles, order.top_coefficient - 1)
    current = table_values(weights, cos, sin, order)
    first = int(np.argmax(current))
    best = (float(current[first]), weights[first].copy(), angles[first].copy(), counts[first])

    step = np.full(restarts, SEARCH_STEP_START)
    pos = np.zeros(restarts, dtype=np.int64)
    improved = np.zeros(restarts, dtype=bool)
    used = np.zeros(restarts, dtype=np.int64)
    running = np.full(restarts, budget > 0)
    # Accepted trials of each round as (restart, evaluation index, value,
    # weights, angles).  A trial that beats the running best also beats its
    # restart's current value, so the best candidate is among them.
    history = []
    while True:
        # What restarts 0..r-1 have evaluated so far bounds what restart r may.
        running &= used < budget - (np.cumsum(used) - used)
        rows = np.flatnonzero(running)
        if not rows.size:
            break
        owner, j, tw, ta, tc, ts = _sweep_trials(weights, angles, cos, sin, counts, step, pos, rows)
        vals = table_values(tw, tc, ts, order)

        # Each restart takes its first improving trial; the rest are dropped.
        # The trials are grouped by restart, so a hit opens its restart's run
        # of hits when the hit before it belongs to another restart.
        hit = np.flatnonzero(vals > current[owner])
        first = np.ones(hit.size, dtype=bool)
        first[1:] = owner[hit[1:]] != owner[hit[:-1]]
        a = hit[first]
        won = owner[a]
        spent = np.bincount(owner, minlength=restarts)
        spent[won] = a - np.searchsorted(owner, won) + 1
        used += spent
        va, wa, aa = vals[a], tw[a], ta[a]
        history.append((won, used[won] - 1, va, wa, aa))
        weights[won], angles[won], current[won] = wa, aa, va
        cos[won], sin[won] = tc[a], ts[a]
        improved[won] = True
        pos[won] = j[a] + 1

        ended = running.copy()
        ended[won] = pos[won] == 4 * counts[won]
        step[ended & ~improved] /= 2.0
        pos[ended] = 0
        improved[ended] = False
        running &= step >= SEARCH_STEP_FLOOR

    # Run one after another, restart r would stop after `left[r]` evaluations
    # and keep its last acceptance before that.  Accepted values rise within
    # a restart, so the best candidate is the largest kept value, of the
    # first restart that reaches it, if it beats the best start.
    left = np.maximum(budget - (np.cumsum(used) - used), 0)
    if history:
        owner, index, vals, tw, ta = (np.concatenate(part) for part in zip(*history))
        kept = np.flatnonzero(index < left[owner])
        if kept.size:
            top = kept[vals[kept] == vals[kept].max()]
            pick = top[np.argmin(owner[top])]
            if vals[pick] > best[0]:
                best = (vals[pick], tw[pick], ta[pick], counts[owner[pick]])

    _, w, t, k = best
    measure = HerglotzMeasure(tuple(zip(w[:k].tolist(), t[:k].tolist())))
    value = float(zalcman_values(*measure.padded(), order)[0])
    return SearchResult(measure, value, min(int(used.sum()), budget))
