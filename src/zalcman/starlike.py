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
    DEFAULT_ORDER,
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
from .series import TruncatedSeries

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
    through ``table_moments`` (which consumes the table) and ``batch_coeffs``,
    whose written-out sums keep every value equal to numpy's reductions under ==."""
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


_NO_HIT = 4 * MAX_ATOMS  # no hit: past every slot, yet slot arithmetic on it cannot overflow


class _Cycle(NamedTuple):
    """Every sweep slot of every running restart, one entry per trial, in
    restart order and then slot order.  Slot 2 i tries +step and 2 i + 1
    tries -step on coordinate i: weights 0..k-1, then angles k..2k-1."""

    live: np.ndarray  # the running restarts, one group of trials each
    start: np.ndarray  # first trial of each group
    size: np.ndarray  # slots of each group, 4 k
    repeats: np.ndarray  # trials of every restart: 4 k if running, else 0
    owner: np.ndarray  # restart that makes the trial
    slots: np.ndarray  # 4 k of the trial's restart
    position: np.ndarray  # slot of the trial in its restart's sweep
    sign: np.ndarray  # +1.0 or -1.0: the trial moves its coordinate by sign * step
    column: np.ndarray  # atom whose weight or angle the trial moves
    weight: np.ndarray  # the weight trials
    angle: np.ndarray  # the angle trials
    rank: np.ndarray  # place of an angle trial among them, -1 for a weight trial


def _cycle_layout(counts: np.ndarray, running: np.ndarray) -> _Cycle:
    """The ``_Cycle`` of the ``running`` restarts with ``counts`` atoms."""
    live = running.nonzero()[0]
    size = 4 * counts[live]
    start = size.cumsum() - size
    slots = size.repeat(size)
    position = np.arange(len(slots)) - start.repeat(size)
    coord, k = position // 2, slots // 4
    w = coord < k
    return _Cycle(live, start, size, 4 * counts * running, live.repeat(size), slots, position,
                  1.0 - 2.0 * (position % 2), coord % k, w.nonzero()[0], (~w).nonzero()[0],
                  np.where(w, -1, np.cumsum(~w) - 1))


def _cycle_trials(cycle, step, weights, angles, table):
    """Every trial of the ``cycle`` as (weights, phase tables, moved angles,
    moved columns), from its restart's weights, angles and table of node
    powers (see ``herglotz.phase_table``).  A weight trial is projected onto
    the simplex in place.  An angle trial recomputes only the column of the
    angle it moves (column ``cycle.rank`` of the moved columns) from one cos
    and sin.  So every trial's table is ``phase_table`` of its angles bit
    for bit, and ``table_values`` ranks it as ``zalcman_values`` would.

    A trial moves one weight of a unit sum by less than 1 while every step
    is below 1, so its projection is never empty; an empty one raises.
    """
    # The trials are grouped by restart, so repeating each restart's rows
    # gathers them, about twice as fast as take along the table's last axis.
    tw, tt = weights.repeat(cycle.repeats, axis=0), table.repeat(cycle.repeats, axis=2)
    delta = step.repeat(cycle.repeats) * cycle.sign
    iw, ia = cycle.weight, cycle.angle
    w = tw.take(iw, axis=0)
    w[np.arange(len(iw)), cycle.column.take(iw)] += delta.take(iw)
    tw[iw], ok = project_simplex(w)
    if not ok.all():
        raise RuntimeError("a weight trial has no simplex projection: every step must be below 1")
    ca = cycle.column.take(ia)
    moved = angles[cycle.owner.take(ia), ca] + delta.take(ia)
    columns = phase_table(moved[:, None], table.shape[1] // 2)[0]
    tt[ca, :, ia] = columns.T
    return tw, tt, moved, columns


def search_extremal(order: ZalcmanOrder, budget: int, seed: int) -> SearchResult:
    """Derivative-free search for extremizers of |J_{m,n}| over measures.

    Multi-start coordinate pattern search (Torczon, SIAM J. Optim. 1997)
    over atom weights and angles.  A sweep of a restart with k atoms tries
    +step and -step on each weight, then on each angle, in that order; the
    weights of a weight trial are projected back onto the simplex.  The
    first trial that beats the restart's current value is accepted and the
    sweep goes on from it; a sweep without an acceptance halves the step,
    down to SEARCH_STEP_FLOOR.

    The SEARCH_RESTARTS restarts (``search_starts``) advance together: a
    round ranks the whole cycle of each running restart in one
    ``table_values`` batch, its slots from its sweep position ``pos`` on and
    then those before it, at one step and from one state.  ``pos`` > 0
    exactly when the restart has accepted a trial in its sweep, so if the
    rest of the sweep misses, the next sweep runs at the same step from the
    same state: its slots before ``pos`` are the cycle's wrapped part, and
    the others cannot hit.  So the cycle's first hit is the next acceptance;
    a cycle without one halves the step.  A cycle counts its trials up to
    its first hit, else its 4k trials and the 4k - ``pos`` from a nonzero
    ``pos`` on once more, as the sequential search ranks those twice.  Each
    restart keeps the phase table of its current angles, so a round takes
    one cos and sin per angle trial (``_cycle_trials``) and ranks every
    trial as ``zalcman_values`` would, bit for bit.  The result is that of
    running the restarts one after another.
    ``budget`` caps the evaluated trials, at most MAX_BUDGET (the starts
    are free, so budget 0 reports the best start):
    restart r may evaluate ``budget`` minus what restarts 0..r-1 evaluated.
    The best candidate is the first value to beat the running best by
    strict >, over the starts and then restart 0, 1, ...  So the result is
    deterministic in (seed, budget) and monotone in budget.  The reported
    value is the best measure's |J| through the batched kernel, so
    ``coeffs_from_p`` and ``zalcman_J`` replay it bit for bit.
    """
    if not 0 <= budget <= MAX_BUDGET:
        raise ValueError(f"budget must be between 0 and {MAX_BUDGET}")
    weights, angles, counts = search_starts(seed)
    table = phase_table(angles, order.top_coefficient - 1)
    current = table_values(weights, table.copy(), order)
    first = int(np.argmax(current))
    best = (float(current[first]), weights[first].copy(), angles[first].copy(), counts[first])

    step = np.full(SEARCH_RESTARTS, SEARCH_STEP_START)
    pos = np.zeros(SEARCH_RESTARTS, dtype=np.int64)
    used = np.zeros(SEARCH_RESTARTS, dtype=np.int64)
    running = np.full(SEARCH_RESTARTS, budget > 0)
    cycle = _cycle_layout(counts, running)
    # Accepted trials of each round as (restart, evaluation index, value,
    # weights, angles).  A trial that beats the running best also beats its
    # restart's current value, so the best candidate is among them.
    history = []
    while True:
        # What restarts 0..r-1 have evaluated so far bounds what restart r may.
        running &= used < budget - (used.cumsum() - used)
        if not running.any():
            break
        if np.count_nonzero(running) < len(cycle.live):
            cycle = _cycle_layout(counts, running)
        tw, tt, moved, columns = _cycle_trials(cycle, step, weights, angles, table)
        vals = table_values(tw, tt, order)

        # The first hit of each restart in its cycle, which starts at pos.
        live, owner, at = cycle.live, cycle.owner, pos.take(cycle.live)
        rot = (cycle.position - pos.take(owner)) % cycle.slots
        hit = vals > current.take(owner)
        first = np.minimum.reduceat(np.where(hit, rot, _NO_HIT), cycle.start)
        found = first < _NO_HIT
        # Up to the first hit; else the cycle, then its slots from a nonzero pos on again.
        used[live] += np.where(found, first + 1, cycle.size + (cycle.size - at) % cycle.size)

        slot = (first + at) % cycle.size
        won, a = live[found], (cycle.start + slot)[found]
        va, wa, aa = vals.take(a), tw.take(a, axis=0), angles.take(won, axis=0)
        # A winning angle trial moves one angle and writes its one new column
        # (tt is consumed).
        rank = cycle.rank.take(a)
        turned = rank >= 0
        ca, ra = cycle.column.take(a[turned]), rank[turned]
        aa[turned, ca] = moved.take(ra)
        history.append((won, used.take(won) - 1, va, wa, aa))
        weights[won], angles[won], current[won] = wa, aa, va
        table[ca, :, won[turned]] = columns[:, ra].T
        pos[live] = np.where(found, (slot + 1) % cycle.size, 0)
        step[live[~found]] /= 2.0
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
