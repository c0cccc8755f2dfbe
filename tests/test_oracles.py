"""The oracles get their own sanity tests against hand-computable cases,
so that a broken oracle cannot silently bless broken code."""

import math

import numpy as np

from oracles import (
    _det,
    bisect_eigenvalues,
    enumerate_deleverage,
    euler_cascade,
    euler_forced,
    min_conductance,
    resample_lambda2,
    resample_weights,
    rk4_diffusion,
)


def test_cofactor_det_matches_lu():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 4, 5):
        a = rng.uniform(-3, 3, (n, n))
        assert math.isclose(_det(a.tolist()), float(np.linalg.det(a)), rel_tol=1e-9, abs_tol=1e-12)


def test_bisect_two_node_closed_form():
    # L = [[3,-3],[-3,3]] has eigenvalues 0 and 6
    got = bisect_eigenvalues([[3.0, -3.0], [-3.0, 3.0]])
    assert abs(got[0]) < 1e-10
    assert abs(got[1] - 6.0) < 1e-10


def test_bisect_repeated_eigenvalues():
    w = np.ones((4, 4)) - np.eye(4)
    lap = np.diag(w.sum(axis=1)) - w
    got = bisect_eigenvalues(lap)
    assert abs(got[0]) < 1e-9
    for v in got[1:]:
        assert abs(v - 4.0) < 1e-9


def test_bisect_diagonal_matrix():
    got = bisect_eigenvalues(np.diag([-2.0, 0.5, 3.0]))
    assert np.allclose(got, [-2.0, 0.5, 3.0], atol=1e-10)


def test_rk4_matches_scalar_decay():
    # single edge, antisymmetric initial condition: pure exp(-2wt) mode
    w = [[0.0, 1.5], [1.5, 0.0]]
    x = rk4_diffusion(w, [1.0, -1.0], 0.7, 400)
    expect = math.exp(-2 * 1.5 * 0.7)
    assert np.allclose(x, [expect, -expect], atol=1e-10)


def test_rk4_constant_forcing_grows_linearly():
    w = [[0.0, 1.0], [1.0, 0.0]]
    x = rk4_diffusion(w, [0.0, 0.0], 2.0, 400, forcing=[1.0, 1.0])
    assert np.allclose(x, [2.0, 2.0], atol=1e-9)


def test_euler_first_order_accuracy():
    w = [[0.0, 1.0], [1.0, 0.0]]
    fine = euler_forced(w, [1.0, 0.0], 1.0, 100_000)
    exact = 0.5 + 0.5 * math.exp(-2.0)
    assert abs(fine[0] - exact) < 1e-4


def test_euler_cascade_no_failures():
    banks = ["A", "B"]
    w = [[0.0, 1.0], [1.0, 0.0]]
    failed, losses, surv = euler_cascade(
        banks, w, {"A": 100.0, "B": 100.0}, [0.1, 0.0], 0.0, 1.0, 0.5, substeps=500
    )
    assert failed == []
    assert surv == banks


def test_euler_cascade_single_failure():
    banks = ["A", "B"]
    w = [[0.0, 0.1], [0.1, 0.0]]
    failed, losses, surv = euler_cascade(
        banks, w, {"A": 0.5, "B": 100.0}, [5.0, 0.0], 0.0, 1.0, 0.5, substeps=2000
    )
    assert [b for _, b in failed] == ["A"]
    assert surv == ["B"]
    assert losses["A"] >= 0.5


def test_enumerate_deleverage_single_forced_cut():
    # one bank, one incident edge, target equal to the step: one possible move
    w = np.array([[0.0, 2.0, 0.0], [2.0, 0.0, 2.0], [0.0, 2.0, 0.0]])
    lam = enumerate_deleverage(w, [1.0, 0.0, 0.0], 1.0)
    w2 = w.copy()
    w2[0, 1] = w2[1, 0] = 1.0
    ref = np.linalg.eigvalsh(np.diag(w2.sum(axis=1)) - w2)[1]
    assert abs(lam - ref) < 1e-12


def test_min_conductance_two_cliques():
    # two triangles joined by one light edge: the bottleneck cut is that edge
    w = np.zeros((6, 6))
    for i in range(3):
        for j in range(3):
            if i != j:
                w[i, j] = 1.0
                w[i + 3, j + 3] = 1.0
    w[2, 3] = w[3, 2] = 0.1
    vol_half = w[:3].sum()
    assert abs(min_conductance(w) - 0.1 / vol_half) < 1e-12


def test_resample_of_a_bank_drawn_twice_by_hand():
    # A (DE) lends 6 to FR, B (FR) lends 2 to DE; with B drawn twice, A
    # splits its 6 over the two B nodes and each B node lends 2 to A: a
    # star of two leaves at weight (3 + 2) / 2, eigenvalues 0, 2.5 and 7.5
    E, home = [[0.0, 6.0], [2.0, 0.0]], [0, 1]
    w = resample_weights(E, home, [1.0, 1.0], [0.0, 0.0], [0, 1, 1])
    assert np.array_equal(w, [[0.0, 2.5, 2.5], [2.5, 0.0, 0.0], [2.5, 0.0, 0.0]])
    assert math.isclose(resample_lambda2(E, home, [1.0, 1.0], [0.0, 0.0], [0, 1, 1]), 2.5, rel_tol=1e-12)
