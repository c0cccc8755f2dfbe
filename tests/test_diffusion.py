import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import complete_graph, graph_of, random_connected
from fragnet.diffusion import (
    MAX_WINDOWS,
    CascadeResult,
    DistressState,
    ForcingSpec,
    amplification_bound,
    cascade_stress_test,
    evolve,
    evolve_forced,
    greedy_deleverage,
    load_scenario,
)
from fragnet.cli import DEFAULT_CALIBRATION
from fragnet.errors import DomainError, GreedyStalled, InputError
from fragnet.network import allocate, build_graph, symmetrize
from fragnet.panel import synthesize_panel
from fragnet.spectral import DISCONNECT_TOL, eigenbasis, lambda2, mixing_time, stack_members


def abcd_graph(w=1.0):
    g = complete_graph(4, w)
    g.banks[:] = ["A", "B", "C", "D"]
    return g


def ring_graph(w=np.array([[0, 5, 1, 0], [5, 0, 4, 1], [1, 4, 0, 3], [0, 1, 3, 0]], dtype=float)):
    return graph_of(w.copy(), banks=["A", "B", "C", "D"])


# ---------------------------------------------------------------------------
# homogeneous diffusion


def test_constant_state_is_fixed_point():
    g = complete_graph(4, 1.0)
    out = evolve(g, DistressState(np.full(4, 2.5)), 3.7)
    assert np.allclose(out.values, 2.5, atol=1e-12)
    assert out.time == 3.7


def test_two_node_half_life():
    g = graph_of([[0, 3], [3, 0]])
    out = evolve(g, DistressState(np.array([1.0, 0.0])), math.log(2) / 6)
    assert out.values == pytest.approx([0.75, 0.25], rel=1e-12)


def test_long_run_reaches_mean(rng):
    g = random_connected(rng, 6)
    x0 = rng.uniform(0, 10, 6)
    out = evolve(g, DistressState(x0), 200.0 / lambda2(g.weights))
    assert np.allclose(out.values, x0.mean(), atol=1e-9)


def test_evolve_matches_rk4_oracle(rng):
    g = random_connected(rng, 7)
    x0 = rng.uniform(0, 5, 7)
    for t in (0.05, 0.4, 1.3):
        got = evolve(g, DistressState(x0), t).values
        want = oracles.rk4_diffusion(g.weights, x0, t, 4000)
        assert np.abs(got - want).max() < 1e-8


def test_semigroup_property(rng):
    g = random_connected(rng, 5)
    x0 = DistressState(rng.uniform(0, 3, 5))
    once = evolve(g, x0, 0.9)
    split = evolve(g, evolve(g, x0, 0.4), 0.5)
    assert np.allclose(once.values, split.values, atol=1e-10)
    assert split.time == pytest.approx(0.9)


def test_disconnected_components_equilibrate_separately():
    g = graph_of(
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 2], [0, 0, 2, 0]],
        banks=["A", "B", "C", "D"],
    )
    out = evolve(g, DistressState(np.array([4.0, 0.0, 0.0, 6.0])), 100.0)
    assert out.values == pytest.approx([2.0, 2.0, 3.0, 3.0], abs=1e-9)


def test_evolve_domain_errors():
    g = complete_graph(3)
    with pytest.raises(DomainError):
        evolve(g, DistressState(np.zeros(3)), -0.1)
    with pytest.raises(DomainError):
        evolve(g, DistressState(np.zeros(4)), 0.1)


def test_mixing_time_residual_is_epsilon():
    rng = np.random.default_rng(77)
    g = random_connected(rng, 6)
    lam, vec = eigenbasis(g.weights)
    v2 = vec[:, 1]
    x0 = 3.0 * np.ones(6) + v2
    for eps in (0.1, 0.01):
        t = mixing_time(lam[1], eps)
        out = evolve(g, DistressState(x0), t)
        residual = np.linalg.norm(out.values - 3.0)
        assert residual == pytest.approx(eps * np.linalg.norm(v2), rel=1e-6)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    t=st.floats(min_value=0.0, max_value=5.0),
)
def test_conservation_and_contraction(seed, t):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 8))
    g = random_connected(rng, n)
    x0 = rng.uniform(-5, 5, n)
    out = evolve(g, DistressState(x0), t).values
    assert out.sum() == pytest.approx(x0.sum(), rel=1e-9, abs=1e-9)
    assert out.var() <= x0.var() + 1e-12


# ---------------------------------------------------------------------------
# forced diffusion


def test_zero_forcing_reduces_to_evolve(rng):
    g = random_connected(rng, 5)
    x0 = DistressState(rng.uniform(0, 2, 5))
    free = evolve(g, x0, 1.1)
    forced = evolve_forced(g, x0, ForcingSpec(np.zeros(5)), 1.1)
    assert np.allclose(free.values, forced.values, atol=1e-12)


def test_balanced_forcing_settles_at_pseudo_inverse(rng):
    g = random_connected(rng, 5)
    f = rng.uniform(0, 2, 5)
    f -= f.mean()
    t = 60.0 / lambda2(g.weights)
    out = evolve_forced(g, DistressState(np.zeros(5)), ForcingSpec(f), t)
    assert np.allclose(out.values, oracles.pseudo_inverse(g.weights) @ f, atol=1e-8)


def test_uniform_forcing_grows_mean_linearly():
    g = complete_graph(4, 1.0)
    out = evolve_forced(g, DistressState(np.zeros(4)), ForcingSpec(np.full(4, 0.3)), 2.5)
    assert np.allclose(out.values, 0.3 * 2.5, atol=1e-12)


def test_forced_matches_rk4_oracle(rng):
    g = random_connected(rng, 6)
    x0 = rng.uniform(0, 3, 6)
    f = rng.uniform(0, 4, 6)
    got = evolve_forced(g, DistressState(x0), ForcingSpec(f), 0.8)
    want = oracles.rk4_diffusion(g.weights, x0, 0.8, 4000, forcing=f)
    assert np.abs(got.values - want).max() < 1e-8


def test_onset_splits_free_and_forced_phases(rng):
    g = random_connected(rng, 5)
    x0 = rng.uniform(0, 2, 5)
    f = rng.uniform(0, 3, 5)
    whole = evolve_forced(g, DistressState(x0), ForcingSpec(f, onset=0.6), 1.4)
    free = evolve(g, DistressState(x0), 0.6)
    tail = oracles.rk4_diffusion(g.weights, free.values, 0.8, 4000, forcing=f)
    assert np.abs(whole.values - tail).max() < 1e-8


def test_onset_before_state_time_forces_whole_span(rng):
    g = random_connected(rng, 4)
    x0 = DistressState(rng.uniform(0, 2, 4), time=1.0)
    f = rng.uniform(0, 2, 4)
    past = evolve_forced(g, x0, ForcingSpec(f, onset=0.5), 1.7)
    always = evolve_forced(g, x0, ForcingSpec(f, onset=0.0), 1.7)
    assert np.allclose(past.values, always.values, atol=1e-12)


def test_forced_domain_errors():
    g = complete_graph(3)
    with pytest.raises(DomainError):
        evolve_forced(g, DistressState(np.zeros(3), time=2.0), ForcingSpec(np.zeros(3)), 1.0)
    with pytest.raises(DomainError):
        evolve_forced(g, DistressState(np.zeros(3)), ForcingSpec(np.zeros(5)), 1.0)
    with pytest.raises(DomainError):
        evolve_forced(g, DistressState(np.zeros(3)), ForcingSpec(np.array([1.0, np.nan, 0.0])), 1.0)


# ---------------------------------------------------------------------------
# amplification bound


def test_amplification_bound_algebra():
    assert amplification_bound(4.0, 5.0, 0.5) == pytest.approx(1.125)
    assert amplification_bound(4.0, 4.0, 0.9) == pytest.approx(1.0)
    with pytest.raises(DomainError):
        amplification_bound(0.0, 1.0, 0.5)
    with pytest.raises(DomainError):
        amplification_bound(1.0, 1.0, 0.0)


# ---------------------------------------------------------------------------
# cascade stress test


def test_cascade_single_failure_timeline():
    g = abcd_graph()
    caps = {"A": 1.0, "B": 10.0, "C": 10.0, "D": 10.0}
    res = cascade_stress_test(g, caps, ForcingSpec(np.array([12.0, 0, 0, 0])), 2.0, 0.2)
    assert res.failed == [(1, "A")]
    assert res.total_failures == 1
    assert res.rounds == 1
    assert res.stabilization_time == pytest.approx(0.2)
    assert res.pre_lambda2 == pytest.approx(4.0)
    assert res.post_lambda2 == pytest.approx(3.0)
    assert res.fragility_change == pytest.approx(-1.0)
    assert res.losses["A"] == pytest.approx(1.8390098307362517, rel=1e-12)
    # 10 windows plus the initial state; A is NaN after the window it
    # failed in, and the survivors are tracked to the horizon
    assert res.times.shape == (11,)
    assert res.distress.shape == (11, 4)
    assert res.times[0] == 0.0
    assert res.times[1] == pytest.approx(0.2)
    assert res.times[-1] == pytest.approx(2.0)
    assert res.distress[1, 0] == res.losses["A"]
    assert np.isnan(res.distress[2:, 0]).all()
    assert np.isfinite(res.distress[:2, 0]).all()
    assert np.isfinite(res.distress[:, 1:]).all()


def test_cascade_single_failure_matches_euler_oracle():
    g = abcd_graph()
    caps = {"A": 1.0, "B": 10.0, "C": 10.0, "D": 10.0}
    res = cascade_stress_test(g, caps, ForcingSpec(np.array([12.0, 0, 0, 0])), 2.0, 0.2)
    failed, losses, survivors = oracles.euler_cascade(
        g.banks, g.weights, caps, [12.0, 0, 0, 0], 0.0, 2.0, 0.2
    )
    assert res.failed == failed
    assert survivors == ["B", "C", "D"]
    assert res.losses["A"] == pytest.approx(losses["A"], abs=1e-3)


def test_cascade_two_rounds_with_delayed_onset():
    g = ring_graph()
    caps = {"A": 1.0, "B": 1.6, "C": 6.0, "D": 6.0}
    shock = ForcingSpec(np.array([12.0, 3.0, 0, 0]), onset=0.3)
    res = cascade_stress_test(g, caps, shock, 2.0, 0.2)
    assert res.failed == [(3, "A"), (6, "B")]
    assert res.rounds == 2
    assert res.stabilization_time == pytest.approx(1.2)
    assert res.pre_lambda2 == pytest.approx(3.862584353340093, rel=1e-9)
    assert res.post_lambda2 == pytest.approx(6.0)
    assert res.losses["A"] == pytest.approx(2.281425131864125, rel=1e-9)
    assert res.losses["B"] == pytest.approx(1.6459640043079964, rel=1e-9)
    # shock starts inside window 2, so window 1 ends with zero distress
    assert np.all(np.abs(res.distress[1]) < 1e-12)
    # A is recorded up to window 3 and B up to window 6, NaN after
    assert res.distress.shape == (11, 4)
    assert np.isfinite(res.distress[:4, 0]).all() and np.isnan(res.distress[4:, 0]).all()
    assert np.isfinite(res.distress[:7, 1]).all() and np.isnan(res.distress[7:, 1]).all()
    assert np.isfinite(res.distress[:, 2:]).all()
    assert [res.distress[3, 0], res.distress[6, 1]] == [res.losses["A"], res.losses["B"]]


def test_cascade_two_rounds_matches_euler_oracle():
    g = ring_graph()
    caps = {"A": 1.0, "B": 1.6, "C": 6.0, "D": 6.0}
    res = cascade_stress_test(g, caps, ForcingSpec(np.array([12.0, 3.0, 0, 0]), 0.3), 2.0, 0.2)
    failed, losses, survivors = oracles.euler_cascade(
        g.banks, g.weights, caps, [12.0, 3.0, 0, 0], 0.3, 2.0, 0.2
    )
    assert res.failed == failed
    assert survivors == ["C", "D"]
    for bank in losses:
        assert res.losses[bank] == pytest.approx(losses[bank], abs=1e-3)


def test_cascade_sub_threshold_shock_is_quiet():
    g = abcd_graph()
    caps = {b: 50.0 for b in g.banks}
    res = cascade_stress_test(g, caps, ForcingSpec(np.array([12.0, 0, 0, 0])), 2.0, 0.2)
    assert res.failed == []
    assert res.rounds == 0
    assert res.stabilization_time == 0.0
    assert res.post_lambda2 == pytest.approx(res.pre_lambda2)
    assert res.losses == {}


def test_cascade_collapse_to_one_bank_reports_zero():
    g = graph_of([[0, 2], [2, 0]], banks=["A", "B"])
    res = cascade_stress_test(
        g, {"A": 0.5, "B": 50.0}, ForcingSpec(np.array([10.0, 0.0])), 1.0, 0.5
    )
    assert [b for _, b in res.failed] == ["A"]
    assert res.post_lambda2 == 0.0


def test_cascade_deterministic():
    g = ring_graph()
    caps = {"A": 1.0, "B": 1.6, "C": 6.0, "D": 6.0}
    shock = ForcingSpec(np.array([12.0, 3.0, 0, 0]), 0.3)
    a = cascade_stress_test(g, caps, shock, 2.0, 0.2)
    b = cascade_stress_test(g, caps, shock, 2.0, 0.2)
    assert a.failed == b.failed
    assert a.losses == b.losses
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.distress, b.distress, equal_nan=True)


def test_cascade_record_ends_when_every_bank_has_failed():
    g = abcd_graph()
    caps = {"A": 1.0, "B": 2.0, "C": 2.0, "D": 2.0}
    res = cascade_stress_test(g, caps, ForcingSpec(np.array([12.0, 3.0, 3.0, 3.0])), 2.0, 0.2)
    assert res.failed == [(1, "A"), (4, "B"), (4, "C"), (4, "D")]
    assert res.rounds == 2
    assert res.post_lambda2 == 0.0
    # the loop stops at window 4: the record has no rows past it
    assert res.times.shape == (5,)
    assert res.distress.shape == (5, 4)
    assert res.times[-1] == res.stabilization_time == pytest.approx(0.8)
    assert np.isfinite(res.distress[4, 1:]).all() and np.isnan(res.distress[2:, 0]).all()


def per_window_cascade(g, capitals, shock, horizon, dt):
    """The cascade evaluated window by window from scratch: every window
    takes a fresh eigenbasis of the live banks, projects the forcing and
    forms its decay and gain factors itself."""

    def propagate(lam, v, x, f, h):
        out = (v.T @ x) * np.exp(-lam * h)
        if f is not None:
            tol = DISCONNECT_TOL * max(lam[-1], 1.0)
            gain = np.where(lam > tol, -np.expm1(-lam * h) / np.where(lam > tol, lam, 1.0), h)
            out = out + (v.T @ f) * gain
        return v @ out

    cap = np.array([capitals[b] for b in g.banks])
    live, x = np.arange(g.n), np.zeros(g.n)
    times, rows, failed, losses = [0.0], [np.zeros(g.n)], [], {}
    for k in range(1, math.ceil(horizon / dt - 1e-12) + 1):
        t0, t1 = times[-1], min(k * dt, horizon)
        lam, v = eigenbasis(g.weights[np.ix_(live, live)])
        free_until = min(max(shock.onset, t0), t1)
        if free_until > t0:
            x = propagate(lam, v, x, None, free_until - t0)
        if t1 > free_until:
            x = propagate(lam, v, x, shock.vector[live], t1 - free_until)
        row = np.full(g.n, np.nan)
        row[live] = x
        times.append(t1)
        rows.append(row)
        hit = x >= cap[live]
        for i in np.flatnonzero(hit):
            failed.append((k, g.banks[live[i]]))
            losses[g.banks[live[i]]] = float(x[i])
        live, x = live[~hit], x[~hit]
        if not live.size:
            break
    return np.array(times), np.array(rows), failed, losses


def random_cascade_case():
    rng = np.random.default_rng(7)
    g = random_connected(rng, 10)
    caps = dict(zip(g.banks, rng.uniform(0.5, 3.0, 10)))
    vector = np.where(rng.random(10) < 0.4, rng.uniform(5.0, 20.0, 10), 0.0)
    # 0.013 does not divide the horizon: 77 windows, the last one clipped,
    # and window ends k * dt whose differences vary in their last bits
    return g, caps, ForcingSpec(vector, onset=0.137), 1.0, 0.013


@pytest.mark.parametrize(
    "case",
    [
        # onset inside window 2, two failure rounds
        lambda: (ring_graph(), {"A": 1.0, "B": 1.6, "C": 6.0, "D": 6.0},
                 ForcingSpec(np.array([12.0, 3.0, 0, 0]), onset=0.3), 2.0, 0.2),
        # the last window is clipped at the horizon
        lambda: (ring_graph(), {"A": 1.0, "B": 1.6, "C": 6.0, "D": 6.0},
                 ForcingSpec(np.array([12.0, 3.0, 0, 0]), onset=0.1), 1.9, 0.25),
        # every bank has failed by window 4, so the record stops there
        lambda: (abcd_graph(), {"A": 1.0, "B": 2.0, "C": 2.0, "D": 2.0},
                 ForcingSpec(np.array([12.0, 3.0, 3.0, 3.0])), 2.0, 0.2),
        random_cascade_case,
    ],
    ids=["onset-in-window", "clipped-last-window", "all-fail", "random-10-banks"],
)
def test_cascade_equals_per_window_evaluation(case):
    g, caps, shock, horizon, dt = case()
    res = cascade_stress_test(g, caps, shock, horizon, dt)
    times, distress, failed, losses = per_window_cascade(g, caps, shock, horizon, dt)
    assert res.rounds >= 1
    assert np.array_equal(res.times, times)
    assert np.array_equal(res.distress, distress, equal_nan=True)
    assert res.failed == failed
    assert res.losses == losses


def test_cascade_live_runs_split_the_record_at_failure_rounds():
    g = ring_graph()
    caps = {"A": 1.0, "B": 1.6, "C": 6.0, "D": 6.0}
    res = cascade_stress_test(g, caps, ForcingSpec(np.array([12.0, 3.0, 0, 0]), 0.3), 2.0, 0.2)
    runs = [(a, b, cols.tolist()) for a, b, cols in res.live_runs()]
    # A fails in window 3 and B in window 6, each recorded in its last window
    assert runs == [(0, 4, [0, 1, 2, 3]), (4, 7, [1, 2, 3]), (7, 11, [2, 3])]


def test_cascade_rejects_distress_beyond_the_float_range():
    g = abcd_graph()
    caps = {b: 1.0 for b in g.banks}
    shock = ForcingSpec(np.array([1.7e308, 1.7e308, 1.7e308, 0.0]))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DomainError, match="window 1: distress is no longer finite"):
            cascade_stress_test(g, caps, shock, 1.0, 0.1)


def test_cascade_input_errors():
    g = abcd_graph()
    caps = {b: 1.0 for b in g.banks}
    shock = ForcingSpec(np.zeros(4))
    with pytest.raises(DomainError):
        cascade_stress_test(g, caps, shock, 2.0, 0.0)
    with pytest.raises(DomainError):
        cascade_stress_test(g, caps, shock, 0.1, 0.2)
    with pytest.raises(DomainError, match="capitals missing"):
        cascade_stress_test(g, {"A": 1.0}, shock, 2.0, 0.2)
    with pytest.raises(DomainError):
        cascade_stress_test(g, {**caps, "B": 0.0}, shock, 2.0, 0.2)
    with pytest.raises(DomainError):
        cascade_stress_test(g, caps, ForcingSpec(np.zeros(3)), 2.0, 0.2)
    # the per-window record is allocated up front, so the window cap holds
    # here as well as in load_scenario
    with pytest.raises(DomainError, match="more than"):
        cascade_stress_test(g, caps, shock, 2.0, 2.0 / (MAX_WINDOWS + 1))


# ---------------------------------------------------------------------------
# greedy deleveraging


def test_zero_targets_leave_graph_unchanged():
    g = complete_graph(3, 1.0)
    out = greedy_deleverage(g, {})
    assert np.array_equal(out.weights, g.weights)
    assert out.weights is not g.weights


def test_tie_break_is_lexicographic():
    g = complete_graph(3, 1.0)
    out = greedy_deleverage(g, {"N1": 1.0}, step=1.0)
    assert out.weights.tolist() == [
        [0.0, 0.0, 1.0],
        [0.0, 0.0, 1.0],
        [1.0, 1.0, 0.0],
    ]


def test_greedy_meets_targets_and_matches_exhaustive_search():
    w = np.array([[0, 2, 1, 3], [2, 0, 0, 0.5], [1, 0, 0, 1], [3, 0.5, 1, 0]])
    g = graph_of(w, banks=["A", "B", "C", "D"])
    targets = {"A": 1.0, "C": 0.5}
    import warnings as _w

    with _w.catch_warnings():
        _w.simplefilter("error")
        out = greedy_deleverage(g, targets, step=0.5)
    lam_out = lambda2(out.weights)
    assert lambda2(g.weights) == pytest.approx(2.1351148459220464, rel=1e-9)
    assert lam_out == pytest.approx(1.0999474527999915, rel=1e-9)
    best = oracles.enumerate_deleverage(w, [1.0, 0.0, 0.5, 0.0], 0.5)
    assert lam_out == pytest.approx(best, rel=1e-9)
    cuts = g.degrees() - out.degrees()
    # both targets met through the shared A-C edge; C overshoots by one step
    assert cuts == pytest.approx([1.0, 0.0, 1.0, 0.0], abs=1e-12)


def test_greedy_overshoot_never_exceeds_one_step(rng):
    # a bank with no target absorbs at most one step of overshoot, so with
    # edges >= 0.5 a complete 5-graph always has room for 1.0 in 0.3 steps
    amount, step = 1.0, 0.3
    for _ in range(5):
        g = random_connected(rng, 5)
        victim = g.banks[1]
        out = greedy_deleverage(g, {victim: amount}, step=step)
        cut = g.degrees() - out.degrees()
        assert cut[1] >= amount - step * (1 + 1e-9)
        for j in (0, 2, 3, 4):
            assert cut[j] <= step * (1 + 1e-9)
        assert np.all(out.weights >= -1e-12)
        assert np.allclose(out.weights, out.weights.T)


def test_greedy_trial_cuts_restore_exact_weights():
    # trial cuts undone by adding the cut back left uncut edges a few ulps
    # above their input; no edge may ever grow
    g = build_graph(synthesize_panel({2014: DEFAULT_CALIBRATION[2014]}, seed=42), 2014)
    target = 0.01 * float(g.degrees()[1])
    out = greedy_deleverage(g, {g.banks[1]: target}, step=target / 3)
    assert np.all(out.weights <= g.weights)


def test_greedy_error_cases():
    g = complete_graph(3, 1.0)
    with pytest.raises(DomainError):
        greedy_deleverage(g, {"N0": -0.5})
    with pytest.raises(DomainError, match="cut more than it holds"):
        greedy_deleverage(g, {"N0": 5.0})
    with pytest.raises(DomainError, match="step"):
        greedy_deleverage(g, {"N0": 1.0}, step=1.5)
    with pytest.raises(DomainError):
        greedy_deleverage(g, {"N0": 1.0}, step=0.0)


def test_greedy_blocked_by_counterparty_overshoot():
    g = graph_of([[0, 2, 0], [2, 0, 0], [0, 0, 0]], banks=["A", "B", "C"])
    with pytest.raises(DomainError, match="no admissible cut left for A"):
        greedy_deleverage(g, {"A": 2.0, "B": 0.2}, step=0.2)


def test_greedy_rejects_non_finite_inputs():
    # a NaN target used to be skipped and end in an eigensolver failure; a
    # NaN step returned the graph untouched
    g = complete_graph(3, 1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError, match="non-finite target for N1"):
            greedy_deleverage(g, {"N0": 1.0, "N1": bad})
        with pytest.raises(DomainError, match="step must be a positive finite number"):
            greedy_deleverage(g, {"N1": 1.0}, step=bad)


def stalled_case():
    """The benchmark's stalled call: 5 banks, every target 5 % of the degree."""
    spec = {2014: {"n_banks": 5, "total_exposure": 1e4, "country_list": ["DE", "FR", "IT", "ES", "NL"]}}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        panel = synthesize_panel(spec, seed=0)
        g = symmetrize(allocate(panel.records[2014], "equal"), 2014)
    return g, {b: 0.05 * float(x) for b, x in zip(g.banks, g.degrees())}


def test_greedy_stall_on_feasible_targets_is_not_infeasible():
    # the proportional baseline trims every edge by 5 %, which meets them all
    g, targets = stalled_case()
    with pytest.raises(GreedyStalled, match=f"no admissible cut left for {g.banks[1]}") as exc:
        greedy_deleverage(g, targets)
    assert isinstance(exc.value, DomainError)
    assert "proportional baseline meets every target" in str(exc.value)
    assert "infeasible" not in str(exc.value)
    # a real infeasibility keeps its own message
    blocked = graph_of([[0, 2, 0], [2, 0, 0], [0, 0, 0]], banks=["A", "B", "C"])
    with pytest.raises(DomainError, match="infeasible target") as exc:
        greedy_deleverage(blocked, {"A": 2.0, "B": 0.2}, step=0.2)
    assert not isinstance(exc.value, GreedyStalled)


def test_greedy_stalls_at_the_reference_move():
    g, targets = stalled_case()
    t = np.array([targets[b] for b in g.banks])
    _, moves, stalled = oracles.greedy_reference(g.weights, t, 0.01 * t.max())
    with pytest.raises(GreedyStalled) as exc:
        greedy_deleverage(g, targets)
    assert exc.value.moves == moves > 0
    assert f"no admissible cut left for {g.banks[stalled]}," in str(exc.value)


def assert_greedy_matches_reference(g, targets, step):
    t = np.array([targets.get(b, 0.0) for b in g.banks])
    expected, moves, stalled = oracles.greedy_reference(g.weights, t, step)
    assert stalled is None and moves > 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = greedy_deleverage(g, targets, step)
    assert np.array_equal(out.weights, expected)
    return moves


def test_greedy_matches_reference_on_paper_network(monkeypatch):
    import fragnet.diffusion as diffusion

    solve = diffusion.lambda2_batch
    solved = []

    def counting(stack):
        solved.append(len(stack))
        return solve(stack)

    monkeypatch.setattr(diffusion, "lambda2_batch", counting)
    g = build_graph(synthesize_panel({2014: DEFAULT_CALIBRATION[2014]}, seed=42), 2014)
    pick = [7, 30]
    target = 0.02 * float(g.degrees()[pick].min())
    moves = assert_greedy_matches_reference(g, {g.banks[i]: target for i in pick}, target / 10)
    # about 120 candidates a move, screened down to the few that can win
    assert moves == 20
    assert sum(solved) <= 3 * moves


def test_greedy_matches_reference_on_complete_graph_ties():
    # every cut of an owing bank gives the same lambda2 up to rounding
    g = complete_graph(40, 1.0)
    assert 2 * 39 > stack_members(40)
    assert_greedy_matches_reference(g, {"N3": 2.0, "N17": 1.0}, 0.5)


def test_greedy_matches_reference_on_disconnected_graph(rng):
    w = np.zeros((40, 40))
    w[:20, :20] = random_connected(rng, 20).weights
    w[20:, 20:] = random_connected(rng, 20).weights
    g = graph_of(w)
    assert_greedy_matches_reference(g, {"N2": 0.6, "N25": 0.6}, 0.2)


@pytest.mark.parametrize("seed, leaf", [(0, False), (1, False), (2, True)])
def test_greedy_matches_reference_on_random_graphs(seed, leaf):
    rng = np.random.default_rng(seed)
    n = 32 + 6 * seed
    w = rng.uniform(0.1, 2.0, (n, n)) * (rng.random((n, n)) < 0.5)
    # a few light edges that a single step removes whole
    w[rng.random((n, n)) < 0.05] = 1e-3
    pick = rng.choice(n - 1, size=3, replace=False)
    if leaf:
        # an owing bank holds the one light edge of a leaf, so a move may
        # disconnect the graph
        w[n - 1], w[:, n - 1] = 0.0, 0.0
        w[pick[0], n - 1] = 1e-3
    w = np.triu(w, 1)
    g = graph_of(w + w.T)
    target = 0.1 * float(g.degrees()[pick].min())
    assert_greedy_matches_reference(g, {g.banks[i]: target for i in pick}, target / 4)


# ---------------------------------------------------------------------------
# scenario files


def scenario_doc():
    return {
        "shock": {"A": 12.0},
        "onset": 0.0,
        "horizon": 2.0,
        "dt": 0.2,
        "capitals": {"A": 1.0, "B": 10.0, "C": 10.0, "D": 10.0},
    }


def test_load_scenario_round_trip(tmp_path):
    g = abcd_graph()
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario_doc()), encoding="utf-8")
    forcing, capitals, horizon, dt = load_scenario(path, g)
    assert forcing.vector.tolist() == [12.0, 0.0, 0.0, 0.0]
    assert forcing.onset == 0.0
    assert capitals == scenario_doc()["capitals"]
    assert (horizon, dt) == (2.0, 0.2)
    # the most windows a scenario may ask for
    path.write_text(json.dumps({**scenario_doc(), "horizon": float(MAX_WINDOWS), "dt": 1.0}), encoding="utf-8")
    assert load_scenario(path, g)[2:] == (MAX_WINDOWS, 1.0)


def test_load_scenario_errors(tmp_path):
    g = abcd_graph()
    with pytest.raises(InputError, match="not found"):
        load_scenario(tmp_path / "missing.json", g)

    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    with pytest.raises(InputError, match="invalid JSON"):
        load_scenario(bad, g)

    doc = scenario_doc()
    del doc["horizon"]
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(InputError, match="horizon"):
        load_scenario(partial, g)

    doc = scenario_doc()
    doc["shock"]["ZZ"] = 1.0
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(InputError, match="ZZ"):
        load_scenario(unknown, g)

    doc = scenario_doc()
    del doc["capitals"]["D"]
    uncovered = tmp_path / "uncovered.json"
    uncovered.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(InputError, match="D"):
        load_scenario(uncovered, g)


@pytest.mark.parametrize(
    "field, value",
    [
        ("horizon", "nan"),
        ("horizon", float("nan")),
        ("dt", "0.2"),
        ("onset", float("inf")),
        ("onset", True),
        ("shock", {"A": None}),
        ("capitals", {"A": float("nan"), "B": 10.0, "C": 10.0, "D": 10.0}),
        ("capitals", [1.0, 10.0, 10.0, 10.0]),
        # more than MAX_WINDOWS windows of dt, the last ratio beyond the float range
        ("horizon", 1e6),
        ("dt", 1e-8),
        ("dt", 5e-324),
        # values no cascade can run
        ("dt", 0),
        ("dt", -0.01),
        ("horizon", 0.001),
        ("capitals", {"A": 1.0, "B": 0.0, "C": 10.0, "D": 10.0}),
        ("capitals", {"A": 1.0, "B": 10.0, "C": 10.0, "D": -1.0}),
    ],
)
def test_load_scenario_rejects_bad_values(tmp_path, field, value):
    doc = scenario_doc()
    doc[field] = value
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(InputError, match=field) as exc:
        load_scenario(path, abcd_graph())
    assert "scenario.json" in str(exc.value)

