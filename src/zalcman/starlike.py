"""Starlike univalent functions on the disk and the Zalcman functional.

A normalized starlike f satisfies z f'(z)/f(z) = p(z) for a Caratheodory
function p, which pins its Taylor coefficients through the recurrence

    (n - 1) a_n = sum_{k=1}^{n-1} p_k a_{n-k},       a_1 = 1.

The same coefficients fall out of f(z) = z exp(sum_k p_k z^k / k), whose
series exponential is this recurrence in another summation order: a check
of the batch plumbing, not of the recurrence.  The generalized Zalcman
functional J_{m,n} = a_m a_n - a_{m+n-1} is bounded by (m-1)(n-1) on this
class, with equality exactly at rotations of the Koebe function z/(1-z)^2.
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
# Evaluation counts are int64 arrays, so a budget must fit in one.
MAX_BUDGET = 2**63 - 1

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


def _convolution_sum(terms: np.ndarray) -> np.ndarray:
    """terms[0] + ... + terms[-1] for 1 to 7 rows of terms, added in the
    order numpy's sum over a contiguous axis of that many complex numbers
    adds them: left to right for up to 3, else (x0 + x1) + (x2 + x3) and
    then the rest left to right.  numpy's sum starts from +0.0, so the two
    can differ only in the sign of a zero part."""
    if len(terms) >= 4:
        pair = terms[0:4:2] + terms[1:4:2]
        total, rest = pair[0] + pair[1], terms[4:]
    else:
        total, rest = terms[0], terms[1:]
    for term in rest:
        total = total + term
    return total


def batch_coeffs(p: np.ndarray, order: int) -> np.ndarray:
    """Coefficients a_1..a_order of every row of moments p_1..p_{order-1}
    (rows, order - 1 or more), as a (rows, order) view of an (order, rows)
    array, by the convolution recurrence.

    The recurrence runs coefficient-major, so each step works on whole
    contiguous rows, and each convolution sum is written out in the order
    numpy's sum(axis=1) over the (rows, n - 1) terms adds them (see
    ``_convolution_sum``).  The reports were built with that sum, so every
    coefficient stays equal to it under ==, without numpy's per-row cost
    of reducing a short axis.
    """
    p = p.T
    a = np.empty((order, p.shape[1]), dtype=complex)
    a[0] = 1.0
    for n in range(2, order + 1):
        np.divide(_convolution_sum(p[: n - 1] * a[n - 2 :: -1]), n - 1, out=a[n - 1])
    return a.T


def batch_zalcman(a: np.ndarray, order: ZalcmanOrder) -> np.ndarray:
    """J_{m,n} = a_m a_n - a_{m+n-1} of every row of coefficients a_1..a_N."""
    return a[:, order.m - 1] * a[:, order.n - 1] - a[:, order.top_coefficient - 1]


def table_values(weights: np.ndarray, table: np.ndarray, order: ZalcmanOrder) -> np.ndarray:
    """|J_{m,n}| of every row from its (rows, MAX_ATOMS) weights and its
    atom-major phase table of p_1..p_{m+n-2} (see ``herglotz.phase_table``),
    through ``table_moments`` and ``batch_coeffs``, whose written-out sums
    keep every value equal to numpy's reductions under ==."""
    a = batch_coeffs(table_moments(weights, table), order.top_coefficient)
    return modulus(batch_zalcman(a, order))


def zalcman_values(weights: np.ndarray, angles: np.ndarray, order: ZalcmanOrder) -> np.ndarray:
    """|J_{m,n}| of every row of padded atom arrays, through the kernel;
    each entry equals abs(zalcman_J(coeffs_from_p(row measure), order))."""
    return table_values(weights, phase_table(angles, order.top_coefficient - 1), order)


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

    Builds f(z) = z exp(sum_k p_k z^k / k) with the series kernel: the same
    recurrence in another summation order, so it checks the plumbing only.
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
    """Every row of ``weights`` clipped to the nonnegative orthant and
    renormalized onto the simplex, in place, and a mask of the rows that
    have a projection (a positive clipped sum); the other rows are left
    clipped.  Returns (weights, mask)."""
    np.maximum(weights, 0.0, out=weights)
    total = weights.sum(axis=1)
    ok = total > 0.0
    np.divide(weights, total[:, None], out=weights, where=ok[:, None])
    return weights, ok


def search_starts(seed: int):
    """(weights, angles, counts) of the SEARCH_RESTARTS search starts as
    padded rows.

    Restart r has r % MAX_ATOMS + 1 atoms, so restart 0 is a single atom (a
    rotated Koebe function) and every support size is probed.  Its weights
    and angles come from draws SEARCH_DRAW_START .. SEARCH_DRAW_START +
    2 MAX_ATOMS - 1 of index r in the counter stream of ``seed``.
    """
    counts = np.arange(SEARCH_RESTARTS) % MAX_ATOMS + 1
    u = uniforms(seed, np.arange(SEARCH_RESTARTS), 2 * MAX_ATOMS, SEARCH_DRAW_START)
    return (*atom_rows(u, counts), counts)


class _Slots(NamedTuple):
    """Every trial of a full sweep of every restart, one entry per trial, in
    restart order and then sweep order."""

    owner: np.ndarray  # restart that makes the trial
    position: np.ndarray  # place of the trial in its restart's sweep
    sign: np.ndarray  # +1.0 or -1.0: the trial moves its coordinate by sign * step
    on_weight: np.ndarray  # True for a weight trial, False for an angle trial
    column: np.ndarray  # atom whose weight or angle the trial moves


def _sweep_slots(counts: np.ndarray) -> _Slots:
    """The sweep slots of restarts with ``counts`` atoms.

    Position 2 i tries +step and 2 i + 1 tries -step on coordinate i:
    weights 0..k-1, then angles k..2k-1, so a restart with k atoms has 4 k
    slots.
    """
    owner = np.repeat(np.arange(len(counts)), 4 * counts)
    position = np.arange(len(owner)) - np.repeat(np.cumsum(4 * counts) - 4 * counts, 4 * counts)
    coord, k = position // 2, counts[owner]
    on_weight = coord < k
    sign = 1.0 - 2.0 * (position % 2)
    return _Slots(owner, position, sign, on_weight, np.where(on_weight, coord, coord - k))


def _sweep_trials(slots, running, pos, step, weights, angles, table):
    """The trials left in the current sweep of each running restart, as
    (restart, sweep position, weights, angles, phase table), grouped by
    restart in sweep order.

    The trials are the slots (see ``_sweep_slots``) of running restarts at
    or after their restart's sweep position ``pos``, selected with one
    mask.  Each trial starts from its restart's weights, angles and
    atom-major phase table (see ``herglotz.phase_table``), gathered along
    the row axis.  A weight trial is projected onto the simplex in place,
    and left out when it has no projection; it keeps its restart's table.
    An angle trial recomputes only the column of the angle it moves.  So every trial's table is
    ``phase_table`` of its angles bit for bit, and ``table_values`` ranks
    it as ``zalcman_values`` would.
    """
    pick = (running.take(slots.owner) & (slots.position >= pos.take(slots.owner))).nonzero()[0]
    owner, col, on_w = slots.owner.take(pick), slots.column.take(pick), slots.on_weight.take(pick)
    delta = step.take(owner) * slots.sign.take(pick)
    tw, ta = weights.take(owner, axis=0), angles.take(owner, axis=0)
    # The trials are grouped by restart, so repeating each restart's table
    # column gathers them, about twice as fast as take along the last axis.
    tt = table.repeat(np.bincount(owner, minlength=len(pos)), axis=2)
    iw, ia = on_w.nonzero()[0], (~on_w).nonzero()[0]

    w = tw.take(iw, axis=0)
    w[np.arange(len(iw)), col.take(iw)] += delta.take(iw)
    tw[iw], ok = project_simplex(w)

    ca = col.take(ia)
    moved = ta[ia, ca] + delta.take(ia)
    ta[ia, ca] = moved
    tt[ca, :, ia] = phase_table(moved[:, None], table.shape[1] // 2)[0].T

    position = slots.position.take(pick)
    if ok.all():
        return owner, position, tw, ta, tt
    keep = np.ones(len(owner), dtype=bool)
    keep[iw[~ok]] = False
    return owner[keep], position[keep], tw[keep], ta[keep], tt[:, :, keep]


def search_extremal(order: ZalcmanOrder, budget: int, seed: int) -> SearchResult:
    """Derivative-free search for extremizers of |J_{m,n}| over measures.

    Multi-start coordinate pattern search (Torczon, SIAM J. Optim. 1997)
    over atom weights and angles.  A sweep of a restart with k atoms tries
    +step and -step on each weight, then on each angle, in that order; the
    weights of a weight trial are projected back onto the simplex, and a
    trial whose projection is empty is skipped.  The first trial that beats
    the restart's current value is accepted and the sweep goes on from it; a
    sweep without an acceptance halves the step, down to SEARCH_STEP_FLOOR.

    The SEARCH_RESTARTS restarts (``search_starts``) advance together:
    each round ranks the rest of every running restart's sweep in one
    ``table_values`` batch, accepts each restart's first improving trial
    and drops the trials after it, to be issued again from the new state
    in the next round.  The sweep slots of all restarts are built once per
    search (``_sweep_slots``), and a round selects its trials from them
    with one mask.  Each restart keeps the atom-major phase table of its
    current angles, replaced only on acceptance, so a round computes trig
    only for the one angle column of each angle trial (see
    ``_sweep_trials``), and every |J| it ranks equals ``zalcman_values`` of
    the trial's row bit for bit.  The result is that
    of running the restarts one after another.  ``budget`` caps the
    evaluated trials, at most MAX_BUDGET (skipped ones do not count; the
    starts are free, so budget 0 reports the best start): restart r may
    evaluate ``budget`` minus what restarts 0..r-1 evaluated.  The best candidate is the first
    value to beat the running best by strict >, over the starts and then
    restart 0, 1, ...  So the result is deterministic in (seed, budget) and
    monotone in budget.  The reported value is the best measure's |J|
    through the batched kernel, so ``coeffs_from_p`` and ``zalcman_J``
    replay it bit for bit.
    """
    if not 0 <= budget <= MAX_BUDGET:
        raise ValueError(f"budget must be between 0 and {MAX_BUDGET}")
    weights, angles, counts = search_starts(seed)
    table = phase_table(angles, order.top_coefficient - 1)
    current = table_values(weights, table, order)
    first = int(np.argmax(current))
    best = (float(current[first]), weights[first].copy(), angles[first].copy(), counts[first])

    step = np.full(SEARCH_RESTARTS, SEARCH_STEP_START)
    pos = np.zeros(SEARCH_RESTARTS, dtype=np.int64)
    improved = np.zeros(SEARCH_RESTARTS, dtype=bool)
    used = np.zeros(SEARCH_RESTARTS, dtype=np.int64)
    running = np.full(SEARCH_RESTARTS, budget > 0)
    slots = _sweep_slots(counts)
    # Accepted trials of each round as (restart, evaluation index, value,
    # weights, angles).  A trial that beats the running best also beats its
    # restart's current value, so the best candidate is among them.
    history = []
    while True:
        # What restarts 0..r-1 have evaluated so far bounds what restart r may.
        running &= used < budget - (np.cumsum(used) - used)
        if not running.any():
            break
        owner, j, tw, ta, tt = _sweep_trials(slots, running, pos, step, weights, angles, table)
        vals = table_values(tw, tt, order)

        # Each restart takes its first improving trial; the rest are dropped.
        # The trials are grouped by restart, so a hit opens its restart's run
        # of hits when the hit before it belongs to another restart.
        hit = (vals > current.take(owner)).nonzero()[0]
        hit_owner = owner.take(hit)
        first = np.ones(hit.size, dtype=bool)
        first[1:] = hit_owner[1:] != hit_owner[:-1]
        a = hit[first]
        won = hit_owner[first]
        spent = np.bincount(owner, minlength=SEARCH_RESTARTS)
        spent[won] = a - np.searchsorted(owner, won) + 1
        used += spent
        va, wa, aa = vals.take(a), tw.take(a, axis=0), ta.take(a, axis=0)
        history.append((won, used.take(won) - 1, va, wa, aa))
        weights[won], angles[won], current[won] = wa, aa, va
        table[:, :, won] = tt.take(a, axis=2)
        improved[won] = True
        pos[won] = j.take(a) + 1

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
