import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bank, complete_graph, graph_of, lei
from fragnet.cli import DEFAULT_CALIBRATION
from fragnet.errors import DomainError, InputError
from fragnet.inference import (
    balanced_panel,
    bootstrap_did,
    bootstrap_to_dict,
    consolidation_elasticity,
    did_detrended,
    did_level,
    did_to_dict,
    lambda2_of_resamples,
    load_series_csv,
    make_series,
    ols_trend,
    placebo_test,
    policy_calculators,
    subgroup_lambda2,
)
from fragnet.network import METHODS, allocate, symmetrize, year_arrays
from fragnet.panel import ExposurePanel, synthesize_panel
from fragnet.spectral import lambda2
from oracles import resample_lambda2, resample_weights

OBSERVED = {2014: 1322.87, 2016: 1797.59, 2018: 2037.42, 2021: 2007.23, 2023: 2181.96}
PRE = (2014, 2016, 2018)
POST = (2021, 2023)


def observed_series():
    return make_series(OBSERVED, PRE, POST)


def tiny_calibration(n=8, scale=1000.0):
    return {
        y: {
            "n_banks": n,
            "total_exposure": scale * (1 + 0.1 * k),
            "country_list": ["DE", "FR", "IT"],
        }
        for k, y in enumerate([2014, 2016, 2018, 2021, 2023])
    }


# ---------------------------------------------------------------------------
# series plumbing


def test_series_validation_errors():
    with pytest.raises(DomainError, match="overlap"):
        make_series(OBSERVED, PRE, (2018, 2021, 2023))
    with pytest.raises(DomainError, match="cover"):
        make_series(OBSERVED, (2014, 2016), POST)
    with pytest.raises(DomainError, match="non-empty"):
        make_series(OBSERVED, (), tuple(OBSERVED))
    with pytest.raises(DomainError, match="no year"):
        observed_series().value(2019)


def test_series_sorts_input():
    shuffled = dict(reversed(list(OBSERVED.items())))
    series = make_series(shuffled, PRE, POST)
    assert [y for y, _ in series.points] == sorted(OBSERVED)


# ---------------------------------------------------------------------------
# level estimator


def test_level_effects_reproduce_published_arithmetic():
    est = did_level(observed_series())
    assert est.variant == "level"
    assert est.baseline_alpha == pytest.approx(1719.29, abs=0.01)
    assert est.effects[2021].beta == pytest.approx(287.93, abs=0.02)
    assert est.effects[2023].beta == pytest.approx(462.67, abs=0.02)
    assert est.effects[2021].pct_change == pytest.approx(16.7, abs=0.1)
    assert est.effects[2023].pct_change == pytest.approx(26.9, abs=0.1)


def test_level_is_exact_mean_difference():
    series = make_series({2000: 2.0, 2001: 4.0, 2002: 9.0}, (2000, 2001), (2002,))
    est = did_level(series)
    assert est.baseline_alpha == pytest.approx(3.0)
    assert est.effects[2002].beta == pytest.approx(6.0)
    assert est.effects[2002].pct_change == pytest.approx(200.0)


def test_level_pct_change_survives_a_product_beyond_the_float_range():
    # 100 * beta overflows; the ratio -1 does not
    series = make_series({2014: 1e308, 2016: 0.0, 2018: 0.0, 2021: 0.0, 2023: 0.0}, PRE, POST)
    est = did_level(series)
    assert [est.effects[y].pct_change for y in POST] == [-100.0, -100.0]


# ---------------------------------------------------------------------------
# trend fit


def test_trend_on_pre_triple():
    fit = ols_trend([(float(y), OBSERVED[y]) for y in PRE])
    assert fit["gamma1"] == pytest.approx(178.6375, abs=1e-4)
    assert fit["gamma0"] == pytest.approx(-358413.9067, abs=0.01)
    assert fit["r_squared"] == pytest.approx(0.96523, abs=1e-5)


def test_trend_exact_line_has_unit_r_squared():
    fit = ols_trend([(0.0, 1.0), (1.0, 3.0), (2.0, 5.0)])
    assert fit["gamma1"] == pytest.approx(2.0)
    assert fit["gamma0"] == pytest.approx(1.0)
    assert fit["r_squared"] == pytest.approx(1.0)


def test_trend_constant_values_r_squared_zero():
    fit = ols_trend([(0.0, 5.0), (1.0, 5.0), (2.0, 5.0)])
    assert fit["gamma1"] == 0.0
    assert fit["r_squared"] == 0.0


def test_trend_errors():
    with pytest.raises(DomainError):
        ols_trend([(0.0, 1.0)])
    with pytest.raises(DomainError, match="distinct"):
        ols_trend([(2014.0, 1.0), (2014.0, 2.0)])


# ---------------------------------------------------------------------------
# detrended estimator


def test_detrended_counterfactuals_and_effects():
    est = did_detrended(observed_series())
    assert est.variant == "detrended"
    assert est.counterfactuals[2021] == pytest.approx(2612.4808, abs=0.01)
    assert est.counterfactuals[2023] == pytest.approx(2969.7558, abs=0.01)
    assert est.effects[2021].beta == pytest.approx(-605.2508, abs=0.01)
    assert est.effects[2023].beta == pytest.approx(-787.7958, abs=0.01)
    assert est.trend["gamma1"] == pytest.approx(178.6375, abs=1e-4)


def test_detrended_needs_two_pre_years():
    series = make_series({2014: 1.0, 2021: 2.0}, (2014,), (2021,))
    with pytest.raises(DomainError):
        did_detrended(series)


def test_detrended_pct_relative_to_counterfactual():
    est = did_detrended(observed_series())
    for year in POST:
        expected = 100.0 * est.effects[year].beta / est.counterfactuals[year]
        assert est.effects[year].pct_change == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# placebo repartitions


def test_placebo_false_2016():
    est = placebo_test(observed_series(), 2016)
    assert est.baseline_alpha == pytest.approx(1322.87)
    assert est.effects[2016].beta == pytest.approx(474.72, abs=0.5)
    assert est.effects[2018].beta == pytest.approx(714.55, abs=0.5)
    assert 2021 not in est.effects and 2023 not in est.effects


def test_placebo_false_mid_2017():
    est = placebo_test(observed_series(), 2017)
    assert est.baseline_alpha == pytest.approx(1560.23)
    assert list(est.effects) == [2018]
    assert est.effects[2018].beta == pytest.approx(477.19, abs=0.5)


def test_placebo_rejects_years_outside_pre_interior():
    with pytest.raises(DomainError):
        placebo_test(observed_series(), 2014)
    with pytest.raises(DomainError):
        placebo_test(observed_series(), 2019)


# ---------------------------------------------------------------------------
# panel restrictions


def test_balanced_panel_keeps_common_banks():
    recs = {
        2014: [bank("aa", "DE", exposures={"FR": 1.0}), bank("bb", "FR"), bank("cc", "FR")],
        2023: [bank("aa", "DE", exposures={"FR": 2.0}), bank("bb", "FR")],
    }
    panel = ExposurePanel(years=[2014, 2023], records=recs)
    out = balanced_panel(panel)
    assert [r.lei for r in out.records[2014]] == [r.lei for r in out.records[2023]]
    assert len(out.records[2014]) == 2


def test_balanced_panel_needs_two_common_banks():
    recs = {
        2014: [bank("aa", "DE"), bank("bb", "FR")],
        2023: [bank("aa", "DE"), bank("cc", "FR")],
    }
    with pytest.raises(DomainError):
        balanced_panel(ExposurePanel(years=[2014, 2023], records=recs))


def test_subgroup_lambda2_of_complete_graph():
    g = complete_graph(4, 1.0)
    assert subgroup_lambda2(g, {"N0", "N1", "N2"}) == pytest.approx(3.0)
    with pytest.raises(DomainError):
        subgroup_lambda2(g, {"N0"})
    with pytest.raises(DomainError):
        subgroup_lambda2(g, {"N0", "missing"})


# ---------------------------------------------------------------------------
# elasticity


def test_elasticity_on_published_aggregates():
    a = {"n": 61, "lambda2": 1322.87, "total_exposure": 79317.0}
    b = {"n": 33, "lambda2": 2181.96, "total_exposure": 68403.0}
    out = consolidation_elasticity(a, b)
    observed = ((2181.96 - 1322.87) / 1322.87) / ((33 - 61) / 61)
    predicted = -1.0 + math.log(68403.0 / 79317.0) / math.log(33 / 61)
    assert out["elasticity"] == pytest.approx(observed, rel=1e-12)
    assert out["elasticity"] == pytest.approx(-1.41, abs=0.02)
    assert out["predicted_elasticity"] == pytest.approx(predicted, rel=1e-12)
    assert out["predicted_elasticity"] == pytest.approx(-0.76, abs=0.01)


def test_elasticity_errors():
    a = {"n": 61, "lambda2": 1322.87, "total_exposure": 79317.0}
    with pytest.raises(InputError, match="second"):
        consolidation_elasticity(a, {"n": 33, "lambda2": 1.0})
    with pytest.raises(DomainError, match="same bank count"):
        consolidation_elasticity(a, dict(a))
    with pytest.raises(DomainError):
        consolidation_elasticity(a, {"n": 33, "lambda2": 1.0, "total_exposure": 0.0})


# ---------------------------------------------------------------------------
# policy calculators


def test_dynamic_coupling_limit():
    out = policy_calculators(2182.0, {}, {"alpha0": 0.25, "beta": 1.0, "lambda2_target": 1700.0})
    assert out["alpha_t"] == pytest.approx(0.25 * 1700.0 / 2182.0, rel=1e-12)
    assert out["alpha_t"] == pytest.approx(0.195, abs=0.001)


def test_buffers_scale_with_centrality_and_rwa():
    cents = {"A": 2.0, "B": 0.5}
    params = {"kappa": 0.1, "rwa": {"A": 100.0, "B": 100.0}}
    out = policy_calculators(4.0, cents, params)
    assert out["buffers"]["A"] == pytest.approx(20.0)
    assert out["buffers"]["B"] == pytest.approx(5.0)


def test_zero_kappa_means_zero_buffers():
    out = policy_calculators(4.0, {"A": 2.0}, {"rwa": {"A": 100.0}})
    assert out["buffers"] == {"A": 0.0}


def test_coupling_violations_flagged_per_edge():
    g = complete_graph(3, 1.0)
    capitals = {"N0": 1000.0, "N1": 1000.0, "N2": 0.5}
    params = {"alpha0": 0.5, "beta": 0.0}
    out = policy_calculators(3.0, {}, params, graph=g, capitals=capitals)
    assert out["alpha_t"] == pytest.approx(0.5)
    flagged = {(a, b) for a, b, _, _ in out["flagged_edges"]}
    assert flagged == {("N0", "N2"), ("N1", "N2")}
    for _, _, w, limit in out["flagged_edges"]:
        assert w > limit
        assert limit == pytest.approx(0.25)


def test_policy_errors():
    with pytest.raises(DomainError):
        policy_calculators(0.0, {}, {})
    with pytest.raises(DomainError):
        policy_calculators(1.0, {}, {"kappa": -0.1})


# ---------------------------------------------------------------------------
# bootstrap


def test_bootstrap_is_deterministic_per_seed():
    panel = synthesize_panel(tiny_calibration(), seed=3)
    a = bootstrap_did(panel, B=100, seed=11)
    b = bootstrap_did(panel, B=100, seed=11)
    for year in POST:
        assert np.array_equal(a.replicates[year], b.replicates[year])
    assert a.ci == b.ci and a.p_values == b.p_values

    c = bootstrap_did(panel, B=100, seed=12)
    assert any(not np.array_equal(a.replicates[y], c.replicates[y]) for y in POST)


def test_bootstrap_summary_matches_replicates():
    panel = synthesize_panel(tiny_calibration(), seed=5)
    boot = bootstrap_did(panel, B=120, seed=9)
    for year in POST:
        draws = boot.replicates[year]
        assert draws.shape == (120,)
        lo, hi = np.percentile(draws, [2.5, 97.5])
        assert boot.ci[year] == (pytest.approx(lo), pytest.approx(hi))
        p = 2.0 * min(float(np.mean(draws <= 0)), float(np.mean(draws > 0)))
        assert boot.p_values[year] == pytest.approx(p)
        assert 0.0 <= boot.p_values[year] <= 1.0


def test_bootstrap_detrended_variant_runs():
    panel = synthesize_panel(tiny_calibration(), seed=7)
    boot = bootstrap_did(panel, B=100, seed=2, variant="detrended")
    assert boot.variant == "detrended"
    assert set(boot.replicates) == set(POST)


def test_bootstrap_argument_errors():
    panel = synthesize_panel(tiny_calibration(), seed=1)
    with pytest.raises(DomainError):
        bootstrap_did(panel, B=99, seed=1)
    with pytest.raises(InputError, match="variant"):
        bootstrap_did(panel, B=100, seed=1, variant="jackknife")
    with pytest.raises(DomainError, match="overlap"):
        bootstrap_did(panel, B=100, seed=1, pre_years=(2014, 2021), post_years=(2021,))
    with pytest.raises(InputError, match="2007"):
        bootstrap_did(panel, B=100, seed=1, pre_years=(2007, 2014), post_years=(2021,))
    with pytest.raises(DomainError, match="2 pre-years"):
        bootstrap_did(panel, B=100, seed=1, variant="detrended", pre_years=(2014,), post_years=(2021,))


def test_bootstrap_persistent_effect_detected_more_often_on_table_shape():
    # published-aggregate shape: composition noise leaves the immediate
    # effect ambiguous while the persistent one stays directionally firmer
    p_immediate, p_persistent = [], []
    for seed in range(6):
        panel = synthesize_panel(DEFAULT_CALIBRATION, seed=seed, sigma=1.0)
        boot = bootstrap_did(panel, B=100, seed=seed)
        p_immediate.append(boot.p_values[2021])
        p_persistent.append(boot.p_values[2023])
    assert np.mean(p_persistent) + 0.1 < np.mean(p_immediate)


def ci_calibration():
    totals = {2014: 40000.0, 2016: 42000.0, 2018: 44000.0, 2021: 47000.0, 2023: 52000.0}
    countries = ["DE", "FR", "IT", "ES", "NL", "BE", "AT", "PT"]
    return {
        y: {"n_banks": 24, "total_exposure": t, "country_list": countries}
        for y, t in totals.items()
    }


def pre_mean_lambda2(panel):
    vals = []
    for year in PRE:
        g = symmetrize(allocate(panel.records[year], "equal"), year)
        vals.append(lambda2(g.weights))
    return float(np.mean(vals))


def test_ci_width_grows_with_exposure_dispersion():
    # widths are compared relative to each panel's own fragility level:
    # higher sigma also shifts lambda2 down, so raw widths are not comparable
    widths = {0.5: [], 2.0: []}
    for sigma in widths:
        for seed in range(5):
            panel = synthesize_panel(ci_calibration(), seed=seed, sigma=sigma)
            boot = bootstrap_did(panel, B=100, seed=seed)
            alpha = pre_mean_lambda2(panel)
            spans = [boot.ci[y][1] - boot.ci[y][0] for y in POST]
            widths[sigma].append(float(np.mean(spans)) / alpha)
    assert np.mean(widths[2.0]) > 1.3 * np.mean(widths[0.5])


# ---------------------------------------------------------------------------
# serialization helpers


def test_load_series_csv(tmp_path):
    path = tmp_path / "series.csv"
    lines = ["year,lambda2"] + [f"{y},{v}" for y, v in OBSERVED.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert load_series_csv(path) == OBSERVED


def test_load_series_csv_errors(tmp_path):
    with pytest.raises(InputError, match="not found"):
        load_series_csv(tmp_path / "gone.csv")

    bad_header = tmp_path / "h.csv"
    bad_header.write_text("y,l\n2014,1.0\n", encoding="utf-8")
    with pytest.raises(InputError, match="header"):
        load_series_csv(bad_header)

    bad_field = tmp_path / "f.csv"
    for value in ("abc", "nan", "inf", "-1.5"):
        bad_field.write_text(f"year,lambda2\n2014,{value}\n", encoding="utf-8")
        with pytest.raises(InputError, match=r"f\.csv: line 2: "):
            load_series_csv(bad_field)
    # a disconnected year reads lambda2 = 0
    bad_field.write_text("year,lambda2\n2014,0\n2016,1.5\n", encoding="utf-8")
    assert load_series_csv(bad_field) == {2014: 0.0, 2016: 1.5}

    dup = tmp_path / "d.csv"
    dup.write_text("year,lambda2\n2014,1.0\n2014,2.0\n", encoding="utf-8")
    with pytest.raises(InputError, match="duplicate year"):
        load_series_csv(dup)

    short = tmp_path / "s.csv"
    short.write_text("year,lambda2\n2014,1.0\n", encoding="utf-8")
    with pytest.raises(InputError, match="at least 2"):
        load_series_csv(short)


def test_did_to_dict_round_trip_fields():
    doc = did_to_dict(did_detrended(observed_series()))
    assert doc["variant"] == "detrended"
    assert set(doc["effects"]) == {"2021", "2023"}
    assert "trend" in doc and "counterfactuals" in doc
    level_doc = did_to_dict(did_level(observed_series()))
    assert "trend" not in level_doc


def test_bootstrap_to_dict_fields():
    panel = synthesize_panel(tiny_calibration(), seed=2)
    boot = bootstrap_did(panel, B=100, seed=4)
    doc = bootstrap_to_dict(boot)
    assert doc["B"] == 100 and doc["master_seed"] == 4
    assert set(doc["ci"]) == {"2021", "2023"}
    assert doc["disconnected"] == {str(y): 0 for y in PRE + POST}
    assert "replicates" not in doc


def test_bootstrap_counts_disconnected_resamples():
    # 2016's banks have no exposure at all, so every resample of it is
    # disconnected; the two 2021 banks share a country and lend to it, so
    # every resample of that year is connected
    sizes = {2014: 5, 2018: 5, 2023: 5}
    panel = synthesize_panel({y: tiny_calibration(n)[y] for y, n in sizes.items()}, seed=1)
    panel.records[2016] = [bank(tag, "DE") for tag in ("aa", "bb", "cc")]
    panel.records[2021] = [bank(tag, "DE", exposures={"DE": 2.0}) for tag in ("dd", "ee")]
    panel.years = sorted(panel.records)
    boot = bootstrap_did(panel, B=100, seed=3)
    assert boot.disconnected[2016] == 100
    assert boot.disconnected[2021] == 0
    assert bootstrap_to_dict(boot)["disconnected"]["2016"] == 100


# ---------------------------------------------------------------------------
# bootstrap resamples on twin quotients, against full n x n solves


def oracle_lambda2(arrays, method, draws):
    basis = {"equal": np.ones(len(arrays.leis)), "size_weighted": arrays.assets,
             "exposure_weighted": arrays.portfolios}[method]
    return np.array([resample_lambda2(arrays.E, arrays.home, basis, arrays.external_dropped, d) for d in draws])


def assert_quotients_match_oracle(arrays, draws):
    draws = np.asarray(draws)
    for method in METHODS:
        got = lambda2_of_resamples(arrays, method, draws)
        want = oracle_lambda2(arrays, method, draws)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0, err_msg=method)


def four_banks():
    # aa is the only DE bank, bb and cc share FR, dd is the only IT bank
    return year_arrays(
        [
            bank("aa", "DE", assets=50.0, exposures={"FR": 10.0, "DE": 4.0, "IT": 1.0}),
            bank("bb", "FR", assets=30.0, exposures={"DE": 3.0, "FR": 2.0, "US": 5.0}),
            bank("cc", "FR", assets=20.0, exposures={"IT": 7.0, "FR": 1.5}),
            bank("dd", "IT", assets=80.0, exposures={"DE": 2.0, "FR": 6.0, "IT": 3.0}),
        ],
        warn=False,
    )


def test_quotient_resamples_with_triplicates_match_full_solves():
    draws = [[1, 1, 1, 3], [0, 0, 0, 2], [3, 2, 3, 3], [2, 1, 2, 2], [0, 1, 2, 3]]
    assert_quotients_match_oracle(four_banks(), draws)


def test_quotient_resample_of_one_bank():
    # four copies of cc split its 1.5 to FR three ways: the complete graph
    # on four nodes with weight 0.5, lambda2 = 4 * 0.5
    arrays = four_banks()
    assert_quotients_match_oracle(arrays, [[2, 2, 2, 2], [1, 1, 1, 1]])
    assert lambda2_of_resamples(arrays, "equal", np.array([[2, 2, 2, 2]]))[0] == pytest.approx(2.0, rel=1e-14)


def test_quotient_resample_that_is_disconnected():
    # cc and dd lend only to their own countries, which no other bank
    # shares: copies of each form a component of their own
    arrays = year_arrays(
        [
            bank("aa", "DE", exposures={"DE": 4.0, "FR": 1.0}),
            bank("bb", "FR", exposures={"FR": 2.0, "DE": 1.0}),
            bank("cc", "IT", exposures={"IT": 3.0}),
            bank("dd", "ES", exposures={"ES": 5.0}),
        ],
        warn=False,
    )
    draws = [[2, 2, 3, 3], [0, 1, 2, 2], [0, 1, 2, 3]]
    assert_quotients_match_oracle(arrays, draws)
    for method in METHODS:
        assert np.array_equal(lambda2_of_resamples(arrays, method, np.array(draws)), np.zeros(3))


def test_quotient_resample_whose_lambda2_is_a_twin_value():
    # ee lends a little and nothing to its own country: its two copies are
    # the network's weakest part, and lambda2 is their twin value, the
    # degree of one copy plus the weight between the two
    arrays = year_arrays(
        [
            bank("aa", "DE", exposures={"FR": 10.0, "DE": 4.0, "IT": 1.0}),
            bank("bb", "FR", exposures={"DE": 3.0, "FR": 2.0}),
            bank("cc", "FR", exposures={"IT": 7.0, "FR": 1.5}),
            bank("dd", "IT", exposures={"DE": 2.0, "FR": 6.0, "IT": 3.0}),
            bank("ee", "ES", exposures={"FR": 0.01, "DE": 0.01}),
        ],
        warn=False,
    )
    draw = [4, 4, 0, 1, 2, 3]
    w = resample_weights(arrays.E, arrays.home, np.ones(5), arrays.external_dropped, draw)
    twin = w[0].sum() + w[0, 1]
    assert lambda2_of_resamples(arrays, "equal", np.array([draw]))[0] == pytest.approx(twin, rel=1e-12)
    assert_quotients_match_oracle(arrays, [draw])


def paper_year_arrays():
    panel = synthesize_panel({2014: DEFAULT_CALIBRATION[2014]}, seed=42)
    return year_arrays(panel.records[2014], warn=False)


def test_quotient_resamples_match_full_solves_at_paper_scale():
    arrays = paper_year_arrays()
    n = len(arrays.leis)
    assert_quotients_match_oracle(arrays, np.random.default_rng(11).integers(0, n, size=(200, n)))


def test_resample_lambda2_does_not_depend_on_its_group():
    arrays = paper_year_arrays()
    n = len(arrays.leis)
    draws = np.random.default_rng(5).integers(0, n, size=(60, n))
    for method in METHODS:
        together = lambda2_of_resamples(arrays, method, draws)
        alone = np.array([lambda2_of_resamples(arrays, method, d[None])[0] for d in draws])
        reversed_order = lambda2_of_resamples(arrays, method, draws[::-1])[::-1]
        assert np.array_equal(together, alone), method
        assert np.array_equal(together, reversed_order), method


def test_resample_error_names_bank_without_assets():
    arrays = year_arrays(
        [bank("aa", "DE"), bank("bb", "FR", assets=0.0), bank("cc", "IT")], warn=False
    )
    with pytest.raises(DomainError, match=lei("bb")):
        lambda2_of_resamples(arrays, "size_weighted", np.array([[0, 2, 2], [0, 1, 2]]))


# ---------------------------------------------------------------------------
# estimator equivariance properties


@settings(max_examples=40, deadline=None)
@given(
    shift=st.floats(min_value=-100.0, max_value=100.0),
    scale=st.floats(min_value=0.1, max_value=10.0),
)
def test_level_estimator_equivariance(shift, scale):
    base = did_level(observed_series())
    moved = did_level(make_series({y: v + shift for y, v in OBSERVED.items()}, PRE, POST))
    scaled = did_level(make_series({y: v * scale for y, v in OBSERVED.items()}, PRE, POST))
    for year in POST:
        assert moved.effects[year].beta == pytest.approx(base.effects[year].beta, rel=1e-9, abs=1e-9)
        assert scaled.effects[year].beta == pytest.approx(scale * base.effects[year].beta, rel=1e-9)
        assert scaled.effects[year].pct_change == pytest.approx(
            base.effects[year].pct_change, rel=1e-9
        )
