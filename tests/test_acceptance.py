"""Acceptance gate: twelve numbered end-to-end checks.

Each test prints exactly one PASS or FAIL line, carries its numeric
tolerances inline, and where a runtime budget applies the clock is part
of the assertion. Reference values live next to the checks; independent
oracles come from oracles.py, never from the package under test.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import oracles
from conftest import complete_graph, graph_of, random_connected
from fragnet.cli import DEFAULT_CALIBRATION, main
from fragnet.diffusion import DistressState, ForcingSpec, amplification_bound, cascade_stress_test, evolve
from fragnet.inference import (
    bootstrap_did,
    consolidation_elasticity,
    did_level,
    make_series,
    placebo_test,
    policy_calculators,
)
from fragnet.panel import load_panel, synthesize_panel
from fragnet.spectral import eigenbasis, fragility_metrics, lambda2, mixing_time

OBSERVED = {2014: 1322.87, 2016: 1797.59, 2018: 2037.42, 2021: 2007.23, 2023: 2181.96}
PRE = (2014, 2016, 2018)
POST = (2021, 2023)


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d}: FAIL - {label}")
        raise
    print(f"criterion {number:02d}: PASS - {label}")


@contextmanager
def budget(seconds: float):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"runtime {elapsed:.2f}s exceeded budget {seconds}s"


def write_series(path):
    lines = ["year,lambda2"] + [f"{y},{v}" for y, v in sorted(OBSERVED.items())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_c01_did_arithmetic_on_published_series(tmp_path):
    with criterion(1, "level effects from the published fragility series"):
        with budget(1.0):
            series = write_series(tmp_path / "series.csv")
            out = tmp_path / "out"
            assert main(["did", "--series", str(series), "--out", str(out)]) == 0
            doc = json.loads((out / "did.json").read_text(encoding="utf-8"))
        level = doc["level"]
        assert level["baseline_alpha"] == pytest.approx(1719.29, abs=0.01)
        assert level["effects"]["2021"]["beta"] == pytest.approx(287.93, abs=0.02)
        assert level["effects"]["2023"]["beta"] == pytest.approx(462.67, abs=0.02)
        assert level["effects"]["2021"]["pct_change"] == pytest.approx(16.7, abs=0.1)
        assert level["effects"]["2023"]["pct_change"] == pytest.approx(26.9, abs=0.1)


def test_c02_placebo_effects():
    with criterion(2, "placebo repartitions of the pre-period"):
        with budget(1.0):
            series = make_series(OBSERVED, PRE, POST)
            false_2016 = placebo_test(series, 2016)
            false_2017 = placebo_test(series, 2017)
        assert false_2016.effects[2016].beta == pytest.approx(474.7, abs=0.5)
        assert false_2017.effects[2018].beta == pytest.approx(477.2, abs=0.5)


def test_c03_mixing_and_amplification_ratios():
    with criterion(3, "mixing-time and effect-amplification ratios"):
        est = did_level(make_series(OBSERVED, PRE, POST))
        alpha = est.baseline_alpha
        ratio = mixing_time(OBSERVED[2023], 0.01) / mixing_time(alpha, 0.01)
        assert ratio == pytest.approx(0.788, abs=0.001)

        beta_ratio = est.effects[2023].beta / est.effects[2021].beta
        assert beta_ratio == pytest.approx(1.61, abs=0.01)

        bound = amplification_bound(OBSERVED[2018], OBSERVED[2023], alpha=1.0)
        assert bound == pytest.approx(1.071, abs=0.002)
        assert beta_ratio > bound


def test_c04_consolidation_elasticity():
    with criterion(4, "observed and predicted consolidation elasticity"):
        out = consolidation_elasticity(
            {"n": 61, "lambda2": 1322.87, "total_exposure": 79317.0},
            {"n": 33, "lambda2": 2181.96, "total_exposure": 68403.0},
        )
        assert out["elasticity"] == pytest.approx(-1.41, abs=0.02)
        assert out["predicted_elasticity"] == pytest.approx(-0.76, abs=0.01)


def test_c05_closed_form_vs_eigensolver():
    with criterion(5, "uniform complete graphs match the closed form"):
        with budget(10.0):
            rng = np.random.default_rng(55)
            for _ in range(200):
                n = int(rng.integers(3, 61))
                w = float(rng.uniform(1e-3, 100.0))
                g = complete_graph(n, w)
                lam = fragility_metrics(g).eigenvalues
                tol = 1e-9 * n * w
                assert abs(lambda2(g.weights) - n * w) <= tol
                assert abs(lam[0]) <= tol
                assert np.all(np.abs(lam[1:] - n * w) <= tol)


def test_c06_bisection_oracle_agreement():
    with criterion(6, "eigenvalues match determinant-sign bisection"):
        with budget(5.0):
            rng = np.random.default_rng(66)
            for _ in range(100):
                n = int(rng.integers(2, 6))
                w = rng.uniform(0.0, 2.0, (n, n))
                w = (w + w.T) / 2.0
                w[rng.uniform(size=(n, n)) < 0.3] = 0.0
                w = np.minimum(w, w.T)
                np.fill_diagonal(w, 0.0)
                g = graph_of(w, banks=[f"N{i}" for i in range(n)])
                got = eigenbasis(g.weights)[0]
                want = oracles.bisect_eigenvalues(oracles.laplacian(g.weights))
                scale = max(got[-1], 1.0)
                assert np.abs(got - np.asarray(want)).max() <= 1e-7 * scale


def test_c07_diffusion_properties_at_scale():
    with criterion(7, "conservation, semigroup and 4th-order oracle agreement"):
        with budget(30.0):
            rng = np.random.default_rng(77)
            horizons = (0.05, 0.3, 1.0)
            for _ in range(100):
                n = int(rng.integers(3, 21))
                g = random_connected(rng, n)
                x0 = rng.uniform(0.0, 5.0, n)
                total = x0.sum()
                for t in horizons:
                    out = evolve(g, DistressState(x0), t).values
                    assert abs(out.sum() - total) <= 1e-9 * abs(total)
                    want = oracles.rk4_diffusion(g.weights, x0, t, 1500)
                    assert np.abs(out - want).max() <= 1e-5
                split = evolve(g, evolve(g, DistressState(x0), 0.13), 0.17).values
                joint = evolve(g, DistressState(x0), 0.30).values
                scale = max(float(np.abs(joint).max()), 1e-30)
                assert np.abs(split - joint).max() <= 1e-9 * scale


def test_c08_mixing_time_residual_bound():
    with criterion(8, "residual at the mixing time equals epsilon exactly"):
        with budget(5.0):
            rng = np.random.default_rng(88)
            for _ in range(20):
                n = int(rng.integers(3, 12))
                g = random_connected(rng, n)
                lam, vec = eigenbasis(g.weights)
                v2 = vec[:, 1]
                xbar = float(rng.uniform(0.5, 3.0))
                x0 = xbar * np.ones(n) + v2
                for eps in (0.1, 0.01):
                    t = math.log(1.0 / eps) / lam[1]
                    out = evolve(g, DistressState(x0), t).values
                    residual = float(np.linalg.norm(out - xbar))
                    target = eps * float(np.linalg.norm(v2))
                    assert abs(residual - target) <= 1e-6 * target


def test_c09_bootstrap_determinism_and_duality(tmp_path):
    with criterion(9, "bootstrap reruns are byte-identical and p/CI agree"):
        with budget(300.0):
            panel_path = tmp_path / "panel.csv"
            assert main(["synth", "--seed", "42", "--out", str(panel_path)]) == 0

            outs = []
            for name in ("r1", "r2"):
                out = tmp_path / name
                rc = main(
                    [
                        "did",
                        "--input", str(panel_path),
                        "--out", str(out),
                        "--bootstrap-b", "500",
                        "--seed", "7",
                    ]
                )
                assert rc == 0
                outs.append(out)
            for name in ("did.json", "bootstrap.csv", "did_level.csv"):
                assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

            panel = load_panel(panel_path)
            B = 200
            for seed in range(20):
                boot = bootstrap_did(panel, B=B, seed=seed)
                for year in POST:
                    p = boot.p_values[year]
                    lo, hi = boot.ci[year]
                    excludes = lo > 0.0 or hi < 0.0
                    if p < 0.05 - 1.0 / B:
                        assert excludes, f"seed {seed} year {year}: p={p} but CI covers 0"
                    elif p > 0.05 + 1.0 / B:
                        assert not excludes, f"seed {seed} year {year}: p={p} but CI excludes 0"


CONTRAST_CALIBRATION = {
    2014: {"n_banks": 40, "total_exposure": 58000.0},
    2016: {"n_banks": 40, "total_exposure": 60000.0},
    2018: {"n_banks": 40, "total_exposure": 62000.0},
    2021: {"n_banks": 40, "total_exposure": 69000.0},
    2023: {"n_banks": 40, "total_exposure": 88000.0},
}
for _cfg in CONTRAST_CALIBRATION.values():
    _cfg["country_list"] = ["DE", "FR", "IT", "ES", "NL", "BE", "AT", "PT", "GR", "IE"]


def test_c10_persistent_effect_detected_more_often():
    with criterion(10, "persistent-effect CI excludes 0 more often than immediate"):
        counts = {2021: 0, 2023: 0}
        for seed in range(20):
            panel = synthesize_panel(CONTRAST_CALIBRATION, seed=seed, sigma=0.5)
            boot = bootstrap_did(panel, B=200, seed=seed)
            for year in POST:
                lo, hi = boot.ci[year]
                if lo > 0.0 or hi < 0.0:
                    counts[year] += 1
        assert counts[2023] > counts[2021], f"exclusion counts {counts}"


def test_c11_dynamic_coupling_limit():
    with criterion(11, "dynamic coupling limit from the worked calibration"):
        out = policy_calculators(
            2182.0, {}, {"alpha0": 0.25, "beta": 1.0, "lambda2_target": 1700.0}
        )
        assert out["alpha_t"] == pytest.approx(0.195, abs=0.001)


def test_c12_cascade_matches_euler_oracle():
    with criterion(12, "cascade timeline identical to the Euler oracle"):
        with budget(10.0):
            g1 = complete_graph(4, 1.0)
            g1.banks[:] = ["A", "B", "C", "D"]
            caps1 = {"A": 1.0, "B": 10.0, "C": 10.0, "D": 10.0}
            res1 = cascade_stress_test(
                g1, caps1, ForcingSpec(np.array([12.0, 0, 0, 0])), 2.0, 0.2
            )
            oracle1, _, survivors1 = oracles.euler_cascade(
                g1.banks, g1.weights, caps1, [12.0, 0, 0, 0], 0.0, 2.0, 0.2
            )
            assert res1.failed == oracle1
            assert survivors1 == ["B", "C", "D"]

            w = np.array(
                [[0, 5, 1, 0], [5, 0, 4, 1], [1, 4, 0, 3], [0, 1, 3, 0]], dtype=float
            )
            g2 = graph_of(w, banks=["A", "B", "C", "D"])
            caps2 = {"A": 1.0, "B": 1.6, "C": 6.0, "D": 6.0}
            res2 = cascade_stress_test(
                g2, caps2, ForcingSpec(np.array([12.0, 3.0, 0, 0]), onset=0.3), 2.0, 0.2
            )
            oracle2, _, survivors2 = oracles.euler_cascade(
                g2.banks, w, caps2, [12.0, 3.0, 0, 0], 0.3, 2.0, 0.2
            )
            assert res2.failed == oracle2 == [(3, "A"), (6, "B")]
            assert res2.rounds == 2
            assert survivors2 == ["C", "D"]
