import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from zalcman import (
    HerglotzMeasure,
    ZalcmanOrder,
    coeffs_from_p,
    coeffs_oracle,
    search_extremal,
    zalcman_J,
)
from zalcman import starlike
from zalcman.herglotz import MAX_ATOMS, atom_rows, phase_table, sample_batch
from zalcman.starlike import (
    SEARCH_RESTARTS,
    SchlichtCoefficients,
    SearchResult,
    project_simplex,
    search_starts,
    table_values,
    zalcman_values,
)

from support import measures

ALL_ORDERS = [ZalcmanOrder(m, n) for m, n in itertools.product((2, 3, 4), repeat=2)]

KOEBE = HerglotzMeasure(((1.0, 0.0),))


def test_coefficients_require_unit_leading_term():
    with pytest.raises(ValueError):
        SchlichtCoefficients((2.0, 1.0))
    c = SchlichtCoefficients((1.0, 2.0, 3.0))
    assert c.coef(1) == 1 and c.coef(3) == 3
    with pytest.raises(IndexError):
        c.coef(4)


def test_order_pair_validation_and_derived_quantities():
    o = ZalcmanOrder(2, 3)
    assert o.bound == 2.0
    assert o.top_coefficient == 4
    for bad in ((1, 3), (2, 5), (0, 0)):
        with pytest.raises(ValueError):
            ZalcmanOrder(*bad)


def test_koebe_coefficients_and_functionals():
    c = coeffs_from_p(KOEBE)
    assert [round(x.real, 12) for x in c.a] == [1, 2, 3, 4, 5, 6, 7]
    assert abs(zalcman_J(c, ZalcmanOrder(2, 3)) - 2.0) < 1e-14
    assert abs(zalcman_J(c, ZalcmanOrder(2, 2)) - 1.0) < 1e-14
    assert abs(zalcman_J(c, ZalcmanOrder(3, 3)) - 4.0) < 1e-14


@given(st.floats(min_value=0.0, max_value=2.0 * math.pi, exclude_max=True))
def test_rotated_single_atom_saturates_every_order(theta):
    # a_n = n e^{-i(n-1)theta}, so |a_m a_n - a_{m+n-1}| = (m-1)(n-1) on the
    # whole extremal orbit, not just at theta = 0.
    c = coeffs_from_p(HerglotzMeasure(((1.0, theta),)))
    for order in ALL_ORDERS:
        assert abs(abs(zalcman_J(c, order)) - order.bound) < 1e-12


@given(measures())
def test_recurrence_agrees_with_exponential_oracle(mu):
    a = coeffs_from_p(mu)
    b = coeffs_oracle(mu)
    assert max(abs(x - y) for x, y in zip(a.a, b.a)) < 1e-12


@given(measures())
def test_coefficients_obey_the_linear_growth_bound(mu):
    c = coeffs_from_p(mu)
    for n in range(1, 8):
        assert abs(c.coef(n)) <= n + 1e-12


@given(measures())
def test_functional_bound_over_random_measures(mu):
    c = coeffs_from_p(mu)
    for order in ALL_ORDERS:
        assert abs(zalcman_J(c, order)) <= order.bound + 1e-9


def test_order_cap_is_enforced():
    with pytest.raises(ValueError):
        coeffs_from_p(KOEBE, order=8)
    with pytest.raises(ValueError):
        coeffs_oracle(KOEBE, order=8)


def test_search_is_deterministic():
    o = ZalcmanOrder(2, 3)
    a = search_extremal(o, budget=800, seed=42)
    b = search_extremal(o, budget=800, seed=42)
    assert a == b
    assert a.evaluations <= 800


def test_search_is_monotone_in_budget():
    o = ZalcmanOrder(3, 4)
    values = [search_extremal(o, budget=b, seed=5).value for b in (0, 200, 1500)]
    assert values == sorted(values)


@pytest.mark.parametrize("m,n", [(2, 3), (2, 2), (4, 4)])
def test_search_attains_the_sharp_value(m, n):
    o = ZalcmanOrder(m, n)
    result = search_extremal(o, budget=2000, seed=11)
    assert result.value >= o.bound - 1e-6
    assert result.value <= o.bound + 1e-9
    # The reported maximizer must reproduce its own value.
    c = coeffs_from_p(result.measure)
    assert abs(zalcman_J(c, o)) == result.value


def test_search_rejects_negative_budget():
    with pytest.raises(ValueError):
        search_extremal(ZalcmanOrder(2, 3), budget=-1, seed=0)


def test_search_takes_budgets_up_to_int64_and_rejects_larger_ones():
    o = ZalcmanOrder(2, 3)
    # Budget 20000 runs every restart to its step floor, as does the largest.
    assert search_extremal(o, budget=2**63 - 1, seed=0) == search_extremal(o, budget=20000, seed=0)
    for budget in (2**63, 10**20):
        with pytest.raises(ValueError):
            search_extremal(o, budget=budget, seed=0)


def test_budget_zero_still_reports_a_start_candidate():
    result = search_extremal(ZalcmanOrder(2, 3), budget=0, seed=3)
    assert result.evaluations == 0
    assert 0.0 <= result.value <= 2.0 + 1e-9


def test_search_starts_come_from_their_own_draws():
    weights, angles, counts = search_starts(7)
    assert counts.tolist() == [r % MAX_ATOMS + 1 for r in range(SEARCH_RESTARTS)]
    live = np.arange(MAX_ATOMS) < counts[:, None]
    assert (weights[live] > 0).all() and (weights[~live] == 0).all() and (angles[~live] == 0).all()
    assert np.abs(weights.sum(axis=1) - 1.0).max() < 1e-12
    # Restart 0 is a rotated Koebe function, so every search reaches the bound.
    assert counts[0] == 1 and weights[0, 0] == 1.0
    # The zalcman1d samples of the same seed and indices are other measures.
    _, sample_angles = sample_batch(7, np.arange(SEARCH_RESTARTS))
    assert not np.isin(angles[live], sample_angles).any()


def _reference_search(order, seed, budgets):
    """The pattern search of ``search_extremal`` one restart after another
    and one trial at a time, with the projection and the kernel as
    batch-of-one calls.  A run under budget b is a prefix of a run under a
    larger one, so one run gives {b: SearchResult} for every b in budgets."""
    budget = max(budgets)
    start_w, start_a, counts = search_starts(seed)

    def value(w, a):
        return float(zalcman_values(w[None], a[None], order)[0])

    def result(state, spent):
        w, a, k = state
        measure = HerglotzMeasure(tuple(zip(w[:k].tolist(), a[:k].tolist())))
        return SearchResult(measure, float(zalcman_values(*measure.padded(), order)[0]), spent)

    results = {}

    def reached(spent):
        if spent in budgets and spent not in results:
            results[spent] = result(best_state, spent)

    best_val, best_state = -1.0, None
    starts = []
    for w, a, k in zip(start_w, start_a, counts):
        val = value(w, a)
        starts.append((w, a, k, val))
        if val > best_val:
            best_val, best_state = val, (w, a, k)
    spent = 0
    reached(spent)
    for weights, angles, k, current in starts:
        if spent >= budget:
            break
        step = starlike.SEARCH_STEP_START
        while step >= starlike.SEARCH_STEP_FLOOR and spent < budget:
            improved = False
            for idx in range(2 * k):
                for sign in (1.0, -1.0):
                    if spent >= budget:
                        break
                    trial_w, trial_a = weights.copy(), angles.copy()
                    if idx < k:
                        trial_w[idx] += sign * step
                        projected, ok = project_simplex(trial_w[None])
                        if not ok[0]:
                            continue
                        trial_w = projected[0]
                    else:
                        trial_a[idx - k] += sign * step
                    val = value(trial_w, trial_a)
                    spent += 1
                    if val > best_val:
                        best_val, best_state = val, (trial_w, trial_a, k)
                    if val > current:
                        weights, angles, current = trial_w, trial_a, val
                        improved = True
                    reached(spent)
                if spent >= budget:
                    break
            if not improved:
                step /= 2.0
    final = result(best_state, spent)
    return {b: results.get(b, final) for b in budgets}


SEARCH_ORDERS = [ZalcmanOrder(m, n) for m in (2, 3, 4) for n in range(m, 5)]
SEARCH_BUDGETS = (0, 1, 2, 3, 37, 200, 1500, 2000, 20000)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("order", SEARCH_ORDERS, ids=lambda o: f"{o.m}{o.n}")
def test_batched_search_equals_the_sequential_search(order, seed):
    expected = _reference_search(order, seed, SEARCH_BUDGETS)
    for budget in SEARCH_BUDGETS:
        result = search_extremal(order, budget, seed)
        assert result == expected[budget], budget
        assert abs(zalcman_J(coeffs_from_p(result.measure), order)) == result.value
    # 20000 runs every restart to its step floor; the smaller budgets cut.
    assert expected[2000].evaluations == 2000 < expected[20000].evaluations < 20000


@pytest.mark.parametrize("order", [ZalcmanOrder(2, 3), ZalcmanOrder(4, 4)], ids=["23", "44"])
def test_search_equals_the_sequential_search_at_dense_budgets(order):
    # A budget every 37 evaluations also cuts rounds whose cycle wrapped
    # past the end of a sweep, which a few fixed budgets can miss.
    budgets = (*range(0, 2500, 37), 20000)
    expected = _reference_search(order, 3, budgets)
    for budget in budgets:
        assert search_extremal(order, budget, 3) == expected[budget], budget


def test_search_keeps_an_atom_whose_weight_was_clipped_to_zero():
    o, budget, seed = ZalcmanOrder(2, 4), 200, 0
    result = search_extremal(o, budget, seed)
    assert result == _reference_search(o, seed, (budget,))[budget]
    weights = [w for w, _ in result.measure.atoms]
    assert 0.0 in weights and len(weights) > 1


def test_a_long_search_keeps_its_weight_zero_atoms_and_replays_its_value():
    # Weight 0 is padding only for sampled rows: the search's measure keeps
    # the live atoms that project_simplex set to 0.
    o = ZalcmanOrder(4, 4)
    result = search_extremal(o, 20000, 0)
    weights = [w for w, _ in result.measure.atoms]
    assert (len(weights), weights.count(0.0)) == (8, 7)
    assert zalcman_values(*result.measure.padded(), o).tolist() == [result.value]


def test_simplex_projection_clips_renormalizes_and_flags_empty_rows():
    weights = np.zeros((3, MAX_ATOMS))
    weights[0, :3] = (0.5, -0.25, 0.75)
    weights[1, :2] = (-0.5, 0.0)
    weights[2, 0] = 1.0
    projected, ok = project_simplex(weights)
    assert ok.tolist() == [True, False, True]
    assert projected[0, :3].tolist() == [0.4, 0.0, 0.6] and projected[2, 0] == 1.0
    assert (projected[:, 3:] == 0).all()


def test_a_weight_trial_without_a_projection_raises(monkeypatch):
    # A first step of 2 takes the single weight of restart 0 to -1, whose
    # projection is empty; the shipped schedule never gets there.
    monkeypatch.setattr(starlike, "SEARCH_STEP_START", 2.0)
    with pytest.raises(RuntimeError, match="no simplex projection"):
        search_extremal(ZalcmanOrder(2, 3), 20000, 4)


def test_every_weight_trial_of_the_shipped_schedule_has_a_projection(monkeypatch):
    # A weight trial moves one weight of a unit sum by less than 1, so its
    # clipped sum stays positive; the search relies on that.
    assert starlike.SEARCH_STEP_START < 1
    seen = []

    def spy(weights):
        projected, ok = project_simplex(weights)
        seen.append(bool(ok.all()))
        return projected, ok

    monkeypatch.setattr(starlike, "project_simplex", spy)
    for order in SEARCH_ORDERS:
        search_extremal(order, 20000, 0)
    assert seen and all(seen)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("order", SEARCH_ORDERS, ids=lambda o: f"{o.m}{o.n}")
def test_cached_phase_tables_rank_trials_as_the_kernel_does(order, seed):
    # Restarts with 1..8 atoms, some weights below the step (so a -step
    # trial clips them to 0) and steps from 0.75 down to the floor.
    rng = np.random.default_rng(seed)
    restarts = 4 * MAX_ATOMS
    counts = np.arange(restarts) % MAX_ATOMS + 1
    weights, angles = atom_rows(rng.random((restarts, 2 * MAX_ATOMS)), counts)
    tiny = (rng.random(weights.shape) < 0.3) & (weights > 0)
    weights, _ = project_simplex(np.where(tiny, 1e-9 * weights, weights))
    steps = np.array([0.75, 0.25, 1e-3, starlike.SEARCH_STEP_FLOOR])
    step = steps[rng.integers(0, len(steps), restarts)]
    step[counts == 1] = 0.25
    step[0] = 0.75
    count = order.top_coefficient - 1
    table = phase_table(angles, count)
    running = (rng.random(restarts) < 0.8) | (np.arange(restarts) == 0)
    cycle = starlike._cycle_layout(counts, running)
    tw, tt, moved, columns = starlike._cycle_trials(cycle, step, weights, angles, table)
    trials = np.arange(len(tw))
    on_w, start = np.isin(trials, cycle.weight), weights[cycle.owner]
    assert on_w.any() and (~on_w).any()
    assert (tw[on_w] == 0).sum() > (start[on_w] == 0).sum()
    assert len(tw) == len(cycle.owner) == (4 * counts[running]).sum()
    ta = angles[cycle.owner]
    held = ta[trials, cycle.column]
    delta = step[cycle.owner] * cycle.sign
    # An angle trial moves its angle by sign * step; a weight trial keeps it.
    assert (moved == np.where(on_w, held, held + delta)).all()
    assert (moved[~on_w] != held[~on_w]).all()
    ta[trials, cycle.column] = moved
    assert (tt == phase_table(ta, count)).all()
    assert (tt[cycle.column, :, trials] == columns.T).all()
    assert (table_values(tw, tt, order) == zalcman_values(tw, ta, order)).all()
