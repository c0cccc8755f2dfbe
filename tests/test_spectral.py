import math
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import bank, complete_graph, graph_of, lei, random_connected
from fragnet import spectral
from fragnet.cli import DEFAULT_CALIBRATION
from fragnet.errors import DomainError
from fragnet.network import allocate, symmetrize
from fragnet.panel import synthesize_panel
from fragnet.spectral import (
    DISCONNECT_TOL,
    eigenbasis,
    fragility_metrics,
    lambda2,
    lambda2_batch,
    lambda2_cut_bounds,
    lambda2_quotient,
    mixing_time,
    spectral_centralities,
    stack_members,
)


def star_graph(w=1.0):
    # hub first
    m = np.zeros((4, 4))
    m[0, 1:] = w
    m[1:, 0] = w
    return graph_of(m, banks=["hub", "a", "b", "c"])


def two_components():
    return graph_of(
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 2], [0, 0, 2, 0]],
        banks=["A", "B", "C", "D"],
    )


# ---------------------------------------------------------------------------
# the eigenbasis of L = D - W


def test_two_node_laplacian():
    lam, vec = eigenbasis(graph_of([[0, 3], [3, 0]]).weights)
    assert np.allclose(lam, [0.0, 6.0], atol=1e-12)
    assert np.allclose((vec * lam) @ vec.T, [[3.0, -3.0], [-3.0, 3.0]], atol=1e-12)


def test_laplacian_annihilates_constants(rng):
    g = random_connected(rng, 7)
    lam, vec = eigenbasis(g.weights)
    lap = (vec * lam) @ vec.T
    assert np.allclose(lap, oracles.laplacian(g.weights), atol=1e-9)
    assert np.abs(lap @ np.ones(7)).max() < 1e-9


def test_complete_graph_spectrum():
    lam, _ = eigenbasis(complete_graph(4, 1.0).weights)
    assert np.allclose(lam, [0.0, 4.0, 4.0, 4.0], atol=1e-12)
    assert lambda2(complete_graph(4, 1.0).weights) == pytest.approx(4.0)


def test_spectrum_matches_bisection_oracle(rng):
    for _ in range(5):
        g = random_connected(rng, 4)
        got = eigenbasis(g.weights)[0]
        want = oracles.bisect_eigenvalues(oracles.laplacian(g.weights))
        assert np.allclose(got, want, rtol=1e-7, atol=1e-7)


def test_eigenvectors_orthonormal(rng):
    _, v = eigenbasis(random_connected(rng, 6).weights)
    assert np.allclose(v.T @ v, np.eye(6), atol=1e-9)


def test_lambda2_kernel_matches_full_spectrum(rng):
    for n in (3, 8, 40):
        g = random_connected(rng, n)
        assert lambda2(g.weights) == pytest.approx(eigenbasis(g.weights)[0][1], rel=1e-12)


def test_lambda2_batch_matches_single_solves(rng):
    stack = np.stack([random_connected(rng, 4).weights for _ in range(4)] + [two_components().weights])
    got = lambda2_batch(stack)
    assert got.shape == (5,)
    assert list(got) == [lambda2(w) for w in stack]
    assert got[-1] == 0.0
    assert np.all(got[:-1] > 0.0)


def test_quotient_kernel_with_single_copies_is_the_batch_kernel(rng):
    stack = np.stack([random_connected(rng, 4).weights for _ in range(3)] + [two_components().weights])
    laplacians = np.stack([np.diag(w.sum(axis=1)) - w for w in stack])
    once = np.ones(stack.shape[:2])
    assert np.array_equal(lambda2_quotient(laplacians, np.zeros(once.shape), once), lambda2_batch(stack))


def test_quotient_kernel_takes_twin_values():
    # three copies of one bank pairwise at weight 2: the complete graph K3,
    # spectrum {0, 6, 6}; the quotient is [[0]] and 6 the twin value
    assert lambda2_quotient(np.zeros((1, 1, 1)), np.array([[6.0]]), np.array([[3.0]]))[0] == 6.0
    # a twin value below the quotient's lambda2 is lambda2, and one above
    # the quotient's largest eigenvalue is lambda_n for the disconnect rule
    s = np.array([[[1.0, -1.0], [-1.0, 1.0]]])
    assert lambda2_quotient(s, np.array([[0.5, 9.0]]), np.array([[2.0, 1.0]]))[0] == 0.5
    assert lambda2_quotient(s, np.array([[0.5, 1e9]]), np.array([[1.0, 2.0]]))[0] == 0.0


def trial_lambda2(w, rows, cols, cuts):
    stack = np.repeat(w[None], len(rows), axis=0)
    k = np.arange(len(rows))
    stack[k, rows, cols] = stack[k, cols, rows] = w[rows, cols] - cuts
    return lambda2_batch(stack)


def every_cut(w, rng, full_share=0.2):
    """Every edge (i, j) with a random cut, a share of them cut whole."""
    rows, cols = np.nonzero(w > 0)
    cuts = w[rows, cols] * rng.uniform(0.0, 1.0, rows.size)
    whole = rng.random(rows.size) < full_share
    cuts[whole] = w[rows, cols][whole]
    return rows, cols, cuts


@pytest.mark.parametrize("n, density", [(6, 1.0), (25, 0.3), (60, 0.8), (60, 0.1)])
def test_cut_bounds_hold_each_trial_lambda2(rng, n, density):
    w = random_connected(rng, n).weights * (rng.random((n, n)) < density)
    w = np.triu(w, 1)
    w = w + w.T
    rows, cols, cuts = every_cut(w, rng)
    lo, hi = lambda2_cut_bounds(w, rows, cols, cuts)
    exact = trial_lambda2(w, rows, cols, cuts)
    assert np.all(lo <= exact) and np.all(exact <= hi)
    lam_n = np.linalg.eigvalsh(np.diag(w.sum(axis=1)) - w)[-1]
    # closed to about twice the 1e-10 lambda_n margin wherever certified
    certified = lo > 0
    assert np.all(hi[certified] - lo[certified] <= 2.1e-10 * lam_n)
    # lo is 0 only where a trial falls to about twice the disconnect threshold
    assert np.all(certified | (exact < 2 * DISCONNECT_TOL * lam_n + 1e-10 * lam_n))


def test_cut_bounds_on_degenerate_and_disconnected_graphs(rng):
    # complete graph: lambda2 = n w is (n-1)-fold, and cutting (i, j) by c
    # leaves n w - 2 c
    w = complete_graph(12, 1.0).weights
    rows, cols, cuts = every_cut(w, rng, full_share=0.0)
    lo, hi = lambda2_cut_bounds(w, rows, cols, cuts)
    assert np.all(lo <= 12 - 2 * cuts + 1e-12) and np.all(12 - 2 * cuts - 1e-12 <= hi)
    assert np.all(hi - lo <= 2.1e-10 * 12)
    # a cut of the path's middle edge disconnects it: lo must be 0 there
    path = np.diag(np.ones(5), 1) + np.diag(np.ones(5), -1)
    lo, hi = lambda2_cut_bounds(path, np.array([2, 2]), np.array([3, 3]), np.array([1.0, 0.5]))
    assert lo[0] == 0.0 and lo[1] > 0.0
    assert np.all(lo <= trial_lambda2(path, np.array([2, 2]), np.array([3, 3]), np.array([1.0, 0.5])))
    # a disconnected graph gives lo = 0 for every cut
    w = two_components().weights
    rows, cols, cuts = every_cut(w, rng)
    lo, hi = lambda2_cut_bounds(w, rows, cols, cuts)
    assert np.all(lo == 0.0) and np.all(trial_lambda2(w, rows, cols, cuts) <= hi)


def test_stack_members():
    assert [stack_members(n) for n in (5, 61, 181, 182, 400)] == [1310, 8, 1, 1, 1]


def test_only_spectral_module_calls_an_eigensolver():
    src = Path(__file__).resolve().parents[1] / "src" / "fragnet"
    call = re.compile(r"\beig(?:h|vals|valsh)?\s*\(")
    offenders = [
        p.name for p in sorted(src.glob("*.py"))
        if p.name != "spectral.py" and call.search(p.read_text(encoding="utf-8"))
    ]
    assert offenders == []


# ---------------------------------------------------------------------------
# normalized Laplacian


def test_normalized_two_node_spectrum():
    fm = fragility_metrics(graph_of([[0, 3], [3, 0]]))
    assert fm.normalized_lambda2 == pytest.approx(2.0, abs=1e-12)


def test_normalized_regular_graph_is_scaled_standard():
    fm = fragility_metrics(complete_graph(4, 2.0))
    # degree 6 everywhere, so eigenvalues are the standard ones over 6
    assert fm.normalized_lambda2 == pytest.approx(fm.lambda2 / 6, rel=1e-12)
    assert fm.normalized_lambda2 == pytest.approx(8 / 6, abs=1e-12)


def test_normalized_eigenvalues_in_unit_range(rng):
    for _ in range(5):
        fm = fragility_metrics(random_connected(rng, 6))
        assert 0.0 < fm.normalized_lambda2 <= 2.0 + 1e-10


# ---------------------------------------------------------------------------
# connectivity thresholds


def test_disconnected_lambda2_is_zero():
    fm = fragility_metrics(two_components())
    assert not fm.connected
    assert fm.lambda2 == 0.0
    assert lambda2(two_components().weights) == 0.0


def test_connectivity_threshold_is_relative():
    # bridge weight far below the tolerance relative to lambda_max
    g = graph_of(
        [[0, 1e3, 1e-9, 0], [1e3, 0, 0, 0], [1e-9, 0, 0, 1e3], [0, 0, 1e3, 0]],
        banks=["A", "B", "C", "D"],
    )
    assert not fragility_metrics(g).connected
    assert lambda2(g.weights) == 0.0


# ---------------------------------------------------------------------------
# pseudo-inverse and resistances


def test_pseudo_inverse_inverts_off_kernel(rng):
    # the reference pseudo-inverse, and the same matrix from the eigenbasis
    g = random_connected(rng, 5)
    lap = oracles.laplacian(g.weights)
    p = oracles.pseudo_inverse(g.weights)
    proj = np.eye(5) - np.full((5, 5), 1 / 5)
    assert np.allclose(lap @ p, proj, atol=1e-9)
    assert np.allclose(p @ np.ones(5), 0.0, atol=1e-9)
    lam, vec = eigenbasis(g.weights)
    assert np.allclose((vec[:, 1:] / lam[1:]) @ vec[:, 1:].T, p, atol=1e-9)


def test_avg_resistance_matches_pairwise_reference(rng):
    # the eigenvalue-only metric against the pseudo-inverse route
    for n in (3, 6, 11):
        g = random_connected(rng, n)
        r = oracles.resistance_distances(g.weights)
        want = r[np.triu_indices(n, k=1)].mean()
        assert fragility_metrics(g).avg_resistance_distance == pytest.approx(want, rel=1e-9)


def test_complete_graph_resistances():
    r = oracles.resistance_distances(complete_graph(4, 1.0).weights)
    off = r[np.triu_indices(4, k=1)]
    assert np.allclose(off, 0.5, atol=1e-12)
    assert np.allclose(np.diag(r), 0.0, atol=1e-12)
    assert fragility_metrics(complete_graph(4, 1.0)).avg_resistance_distance == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# fragility metrics


def test_fragility_complete_graph():
    fm = fragility_metrics(complete_graph(4, 1.0))
    assert fm.connected
    assert fm.lambda2 == pytest.approx(4.0)
    assert fm.spectral_gap == fm.lambda2
    assert fm.lambda3 == pytest.approx(4.0)
    assert fm.spectral_radius == pytest.approx(4.0)
    assert fm.radius_ratio == pytest.approx(1.0)
    assert fm.effective_resistance == pytest.approx(0.75)
    assert fm.avg_resistance_distance == pytest.approx(0.5)
    assert fm.normalized_lambda2 == pytest.approx(4 / 3)


def test_fragility_disconnected_reports_infinities():
    fm = fragility_metrics(two_components())
    assert not fm.connected
    assert fm.lambda2 == 0.0
    assert math.isinf(fm.effective_resistance)
    assert math.isinf(fm.avg_resistance_distance)
    assert math.isinf(fm.radius_ratio)


def test_fragility_isolated_bank_normalized_is_nan():
    g = graph_of([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    fm = fragility_metrics(g)
    assert math.isnan(fm.normalized_lambda2)
    assert not fm.connected


# ---------------------------------------------------------------------------
# mixing time


def test_mixing_time_examples():
    assert mixing_time(1.0, 1 / math.e) == pytest.approx(1.0)
    assert mixing_time(2.0, 0.01) == pytest.approx(math.log(100) / 2)


def test_mixing_time_ratio_equals_inverse_lambda2_ratio():
    # consolidation speeds equilibration by exactly the connectivity ratio
    t_pre = mixing_time(1719.2933333333333, 0.01)
    t_post = mixing_time(2181.96, 0.01)
    assert t_post / t_pre == pytest.approx(1719.2933333333333 / 2181.96, rel=1e-12)
    assert t_post / t_pre == pytest.approx(0.788, abs=0.001)


def test_mixing_time_domain_errors():
    with pytest.raises(DomainError):
        mixing_time(0.0, 0.5)
    with pytest.raises(DomainError):
        mixing_time(1.0, 1.5)
    with pytest.raises(DomainError):
        mixing_time(1.0, 0.0)


# ---------------------------------------------------------------------------
# spectral centrality


def test_centrality_complete_graph_uniform():
    cents = spectral_centralities(complete_graph(4, 1.0))
    # removing any bank leaves a complete triangle with lambda2 = 3
    assert all(c == pytest.approx(1.0) for c in cents.values())


def test_centrality_hub_dominates_leaf():
    g = star_graph()
    cents = spectral_centralities(g)
    assert cents["hub"] == pytest.approx(lambda2(g.weights))
    assert cents["hub"] > cents["a"] + 0.5
    assert cents["a"] == pytest.approx(cents["b"])


def test_centrality_needs_three_banks():
    with pytest.raises(DomainError):
        spectral_centralities(complete_graph(2))


# ---------------------------------------------------------------------------
# spectral centrality on the allocation's factors

SCALED_BANKS = {2014: 240, 2016: 180, 2018: 120, 2021: 90, 2023: 60}
SCALED_CALIBRATION = {
    year: {**cfg, "n_banks": SCALED_BANKS[year],
           "total_exposure": cfg["total_exposure"] * SCALED_BANKS[year] / cfg["n_banks"]}
    for year, cfg in DEFAULT_CALIBRATION.items()
}
CLI_METHODS = ("equal", "size_weighted", "exposure_weighted")


def allocated(records, method="equal"):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        directed = allocate(records, method)
    return symmetrize(directed), directed.factors


def assert_matches_reference(graph, cents, label=""):
    reference = oracles.centrality_reference(graph.weights)
    lam_n = np.linalg.eigvalsh(oracles.laplacian(graph.weights))[-1]
    got = np.array([cents[b] for b in graph.banks])
    worst = np.max(np.abs(got - reference)) / lam_n
    assert worst <= 1e-12, f"{label}: off by {worst:.2e} lambda_n"


def certified(graph, factors) -> np.ndarray:
    """Banks whose leave-one-out lambda2 the low-rank solve certifies."""
    return ~np.isnan(spectral._leave_one_out_lambda2(graph.weights, *factors))


@pytest.mark.parametrize("seed", [1, 2, 3, 42])
def test_centralities_match_the_reference_at_paper_size(seed, monkeypatch):
    panel = synthesize_panel(DEFAULT_CALIBRATION, seed=seed)
    for year in panel.years:
        for method in CLI_METHODS:
            graph, factors = allocated(panel.records[year], method)
            # paper-size years take the dense loop, factors or not; the
            # fragility metrics' lambda2 is the same bits as the solve's
            assert spectral_centralities(graph, factors) == spectral_centralities(graph)
            base = fragility_metrics(graph).lambda2
            assert spectral_centralities(graph, factors, base) == spectral_centralities(graph)
            assert_matches_reference(graph, spectral_centralities(graph), f"{year} {method}")
    # the low-rank solve below its switch size
    monkeypatch.setattr(spectral, "_LOW_RANK_MIN_BANKS", 3)
    solved = total = 0
    for year in panel.years:
        for method in CLI_METHODS:
            graph, factors = allocated(panel.records[year], method)
            assert_matches_reference(graph, spectral_centralities(graph, factors), f"{year} {method}")
            solved += int(certified(graph, factors).sum())
            total += graph.n
    assert solved >= 0.95 * total


def test_centralities_match_the_reference_at_scaled_size():
    panel = synthesize_panel(SCALED_CALIBRATION, seed=42)
    for year in panel.years:
        for method in CLI_METHODS:
            graph, factors = allocated(panel.records[year], method)
            if graph.n >= spectral._LOW_RANK_MIN_BANKS:
                assert certified(graph, factors).all(), f"{year} {method}"
            cents = spectral_centralities(graph, factors)
            assert spectral_centralities(graph, factors, fragility_metrics(graph).lambda2) == cents
            assert_matches_reference(graph, cents, f"{year} {method}")


def core_banks():
    """Nine banks, three per country, each lending to every country."""
    return [
        bank(f"{c}{k}", c, assets=100.0 + k,
             exposures={o: (5.0 if o == c else 10.0) + k for o in ("DE", "FR", "IT")})
        for c in ("DE", "FR", "IT") for k in range(3)
    ]


def tiny_bank(tag):
    """A bank too small to receive much, lending a little to every bank."""
    return bank(tag, "DE", assets=1e-3, exposures={"DE": 0.03, "FR": 0.03, "IT": 0.03})


def test_centrality_with_explicit_banks(monkeypatch):
    # the tiny bank's diagonal lies below every remainder's lambda2, so it
    # stays explicit beside the secular matrix
    monkeypatch.setattr(spectral, "_LOW_RANK_MIN_BANKS", 3)
    graph, factors = allocated(core_banks() + [tiny_bank("tt")], "size_weighted")
    w = graph.weights
    A, G = factors
    delta = w.sum(axis=1) + np.einsum("ic,ic->i", A, G)
    reference = lambda2(w) - oracles.centrality_reference(w)
    below = [reference[i] > np.delete(delta - w[:, i], i).min() for i in range(graph.n)]
    assert all(below)
    assert certified(graph, factors).all()
    assert_matches_reference(graph, spectral_centralities(graph, factors))


def test_centrality_of_identical_banks(monkeypatch):
    # three identical banks: their twin value is lambda2 = lambda3 of the
    # graph and of every remainder that keeps all three
    monkeypatch.setattr(spectral, "_LOW_RANK_MIN_BANKS", 3)
    graph, factors = allocated(core_banks() + [tiny_bank(t) for t in ("t1", "t2", "t3")], "size_weighted")
    lam = np.linalg.eigvalsh(oracles.laplacian(graph.weights))
    assert lam[2] - lam[1] <= 1e-12 * lam[-1]
    assert certified(graph, factors).all()
    assert_matches_reference(graph, spectral_centralities(graph, factors))


def test_centrality_of_a_bank_whose_removal_disconnects(monkeypatch):
    # the hub alone links the FR banks to the others
    monkeypatch.setattr(spectral, "_LOW_RANK_MIN_BANKS", 3)
    records = [
        bank("d1", "DE"), bank("d2", "DE"), bank("f1", "FR"), bank("f2", "FR"),
        bank("hub", "IT", exposures={"DE": 4.0, "FR": 6.0}),
        bank("it", "IT", exposures={"DE": 2.0}),
    ]
    graph, factors = allocated(records)
    cents = spectral_centralities(graph, factors)
    assert cents[lei("hub")] == lambda2(graph.weights)
    assert not certified(graph, factors)[graph.index(lei("hub"))]
    assert_matches_reference(graph, cents)


def test_centrality_with_stale_factors_is_the_dense_answer(monkeypatch):
    monkeypatch.setattr(spectral, "_LOW_RANK_MIN_BANKS", 3)
    records = core_banks() + [tiny_bank("tt")]
    graph, _ = allocated(records, "size_weighted")
    _, stale = allocated(records, "equal")
    assert not certified(graph, stale).any()
    assert spectral_centralities(graph, stale) == spectral_centralities(graph)


def test_centrality_kernel_memory_on_a_240_bank_year():
    panel = synthesize_panel({2014: SCALED_CALIBRATION[2014]}, seed=42)
    graph, factors = allocated(panel.records[2014])
    spectral_centralities(graph, factors)
    tracemalloc.start()
    try:
        spectral_centralities(graph, factors)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # about 1.9 MB in chunks of _LOO_CHUNK_ENTRIES; 7.0 MB in one chunk
    assert peak < 3e6


# ---------------------------------------------------------------------------
# Rayleigh quotient


def test_rayleigh_quotient_bounded_below_by_lambda2(rng):
    g = random_connected(rng, 8)
    lam2 = lambda2(g.weights)
    lap = oracles.laplacian(g.weights)
    for _ in range(10):
        x = rng.normal(size=8)
        x -= x.mean()
        q = float(x @ lap @ x) / float(x @ x)
        assert q >= lam2 * (1 - 1e-9)


# ---------------------------------------------------------------------------
# classical bounds against the brute-force cut oracle


def test_lambda2_bounded_by_min_degree(rng):
    for _ in range(10):
        g = random_connected(rng, 6)
        lam2 = lambda2(g.weights)
        n = g.n
        assert lam2 <= n / (n - 1) * g.degrees().min() + 1e-9


def test_cheeger_inequality(rng):
    for _ in range(8):
        g = random_connected(rng, 6)
        h = oracles.min_conductance(g.weights)
        lam2 = fragility_metrics(g).normalized_lambda2
        assert lam2 / 2 <= h + 1e-9
        assert h <= math.sqrt(2 * lam2) + 1e-9


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=12),
    w=st.floats(min_value=1e-3, max_value=1e3),
)
def test_uniform_complete_spectrum_property(n, w):
    g = complete_graph(n, w)
    lam = eigenbasis(g.weights)[0]
    assert lambda2(g.weights) == pytest.approx(n * w, rel=1e-9)
    assert np.allclose(lam[1:], n * w, rtol=1e-9)
    assert abs(lam[0]) <= 1e-9 * n * w


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_lambda2_nonnegative_and_below_lambda_max(seed):
    rng = np.random.default_rng(seed)
    g = random_connected(rng, int(rng.integers(3, 9)))
    lam = fragility_metrics(g).eigenvalues
    assert lam[0] >= -1e-9 * max(lam[-1], 1.0)
    assert 0.0 < lambda2(g.weights) <= lam[-1] + 1e-12
