import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import bank, complete_graph, graph_of, lei
from fragnet.cli import DEFAULT_CALIBRATION
from fragnet.errors import DomainError, InputError
from fragnet.network import (
    METHODS,
    DirectedExposureMatrix,
    WeightedGraph,
    allocate,
    allocate_arrays,
    build_graph,
    graph_from_edge_csv,
    graph_to_edge_csv,
    network_stats,
    symmetrize,
    validate_conservation,
    year_arrays,
)
from fragnet.panel import synthesize_panel


def two_banks():
    return [
        bank("aa", "DE", exposures={"FR": 10.0}),
        bank("bb", "FR", exposures={"DE": 4.0}),
    ]


def three_banks(assets_b=30.0, assets_c=10.0):
    return [
        bank("aa", "DE", exposures={"FR": 10.0}),
        bank("bb", "FR", assets=assets_b),
        bank("cc", "FR", assets=assets_c),
    ]


# ---------------------------------------------------------------------------
# allocation


def test_equal_allocation_single_bank_per_country_is_identity():
    d = allocate(two_banks(), "equal")
    assert d.entries[0, 1] == 10.0
    assert d.entries[1, 0] == 4.0


def test_equal_allocation_splits_over_country_banks():
    d = allocate(three_banks(), "equal")
    assert d.entries[0, 1] == 5.0
    assert d.entries[0, 2] == 5.0


def test_size_weighted_allocation_uses_asset_shares():
    d = allocate(three_banks(), "size_weighted")
    assert d.entries[0, 1] == pytest.approx(7.5)
    assert d.entries[0, 2] == pytest.approx(2.5)


def test_exposure_weighted_allocation_uses_portfolio_shares():
    recs = [
        bank("aa", "DE", exposures={"FR": 10.0}),
        bank("bb", "FR", exposures={"DE": 3.0, "IT": 27.0}),
        bank("cc", "FR", exposures={"DE": 10.0}),
    ]
    with pytest.warns(UserWarning, match="IT"):
        d = allocate(recs, "exposure_weighted")
    # portfolios 30 vs 10 reproduce the size-weighted split
    assert d.entries[0, 1] == pytest.approx(7.5)
    assert d.entries[0, 2] == pytest.approx(2.5)


def test_own_country_excludes_self():
    recs = [
        bank("aa", "DE", exposures={"DE": 6.0}),
        bank("bb", "DE"),
        bank("cc", "DE"),
        bank("dd", "FR"),
    ]
    d = allocate(recs, "equal")
    assert d.entries[0, 1] == 3.0
    assert d.entries[0, 2] == 3.0
    assert d.entries[0, 3] == 0.0
    assert d.entries[0, 0] == 0.0


def test_sole_bank_own_country_dropped_with_warning():
    recs = [
        bank("aa", "DE", exposures={"DE": 6.0, "FR": 2.0}),
        bank("bb", "FR"),
    ]
    with pytest.warns(UserWarning, match=lei("aa")):
        d = allocate(recs, "equal")
    assert d.entries[0, 1] == 2.0
    assert d.unallocated[0] == pytest.approx(6.0)


def test_exposure_to_country_outside_sample_dropped():
    recs = [
        bank("aa", "DE", exposures={"FR": 2.0, "US": 9.0}),
        bank("bb", "FR"),
    ]
    with pytest.warns(UserWarning, match="US"):
        d = allocate(recs, "equal")
    assert d.entries[0, 1] == 2.0
    assert d.unallocated[0] == pytest.approx(9.0)


def test_allocate_requires_two_banks():
    with pytest.raises(DomainError):
        allocate([bank("aa", "DE")], "equal")


def test_unknown_method_rejected():
    with pytest.raises(InputError, match="method"):
        allocate(two_banks(), "magic")


def test_size_weighted_rejects_zero_assets():
    recs = three_banks(assets_b=0.0)
    with pytest.raises(DomainError):
        allocate(recs, "size_weighted")


def test_exposure_weighted_rejects_zero_portfolio_denominator():
    recs = [
        bank("aa", "DE", exposures={"FR": 10.0}),
        bank("bb", "FR"),
        bank("cc", "FR"),
    ]
    with pytest.raises(DomainError):
        allocate(recs, "exposure_weighted")


def assert_stack_matches_single_draws(arrays, idx, counts):
    for method in METHODS:
        entries, unallocated = allocate_arrays(arrays, method, idx, counts)
        k, m = idx.shape
        assert entries.shape == (k, m, m) and unallocated.shape == (k, m)
        for d in range(k):
            one_entries, one_unallocated = allocate_arrays(arrays, method, idx[d], counts[d])
            assert np.array_equal(entries[d], one_entries), (method, d)
            assert np.array_equal(unallocated[d], one_unallocated), (method, d)


def four_banks():
    # aa is the only DE bank, bb and cc share FR, dd is the only IT bank
    return [
        bank("aa", "DE", assets=50.0, exposures={"FR": 10.0, "DE": 4.0, "IT": 1.0}),
        bank("bb", "FR", assets=30.0, exposures={"DE": 3.0, "FR": 2.0, "US": 5.0}),
        bank("cc", "FR", assets=20.0, exposures={"IT": 7.0, "FR": 1.5}),
        bank("dd", "IT", assets=80.0, exposures={"DE": 2.0, "FR": 6.0, "IT": 3.0}),
    ]


def test_stacked_allocation_matches_single_draws():
    arrays = year_arrays(four_banks(), warn=False)
    idx = np.array(
        [
            [1, 2, 3],  # bb twice, no DE bank drawn
            [0, 2, 3],  # aa twice, cc alone in FR
            [0, 1, 3],  # aa twice
        ]
    )
    counts = np.array([[2, 1, 1], [2, 1, 1], [2, 1, 1]])
    assert_stack_matches_single_draws(arrays, idx, counts)
    # the sample itself
    assert_stack_matches_single_draws(arrays, np.arange(4)[None], np.ones((1, 4)))


def test_stacked_allocation_matches_single_draws_at_paper_scale():
    panel = synthesize_panel({2014: DEFAULT_CALIBRATION[2014]}, seed=42)
    arrays = year_arrays(panel.records[2014], warn=False)
    n, m = len(arrays.leis), 39
    rng = np.random.default_rng(7)
    idx = np.stack([np.sort(rng.choice(n, m, replace=False)) for _ in range(6)])
    counts = 1 + rng.multinomial(n - m, np.full(m, 1.0 / m), size=6)
    assert_stack_matches_single_draws(arrays, idx, counts)


def test_stacked_allocation_names_bank_without_assets():
    arrays = year_arrays(three_banks(assets_b=0.0), warn=False)
    with pytest.raises(DomainError, match=lei("bb")):
        allocate_arrays(arrays, "size_weighted", np.array([[0, 2], [1, 2]]), np.array([[1, 2], [2, 1]]))


def test_allocation_weights_beyond_the_float_range_name_year_and_country():
    recs = three_banks(assets_b=1e308, assets_c=1e308)
    with pytest.raises(DomainError, match="^year 2016: size_weighted allocation: .* country FR's banks"):
        allocate(recs, "size_weighted", 2016)
    # a resample that draws one bank twice overflows where the year does not
    arrays = year_arrays(three_banks(assets_b=1e308, assets_c=1e307), warn=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        allocate_arrays(arrays, "size_weighted")
        with pytest.raises(DomainError, match="country FR's banks sum beyond the float range"):
            allocate_arrays(arrays, "size_weighted", np.array([[0, 1], [0, 2]]), np.array([[1, 2], [1, 2]]))


def test_twin_allocation_matches_one_node_per_copy():
    # a bank drawn c times is c nodes; its row and column stand for every
    # copy, and its diagonal entry runs between two copies
    arrays = year_arrays(four_banks(), warn=False)
    for draw in ([1, 1, 2, 3], [0, 0, 0, 2], [3, 1, 0, 0], [2, 2, 2, 2]):
        draw = np.array(draw)
        banks, first, counts = np.unique(draw, return_index=True, return_counts=True)
        # each bank's last node, another copy wherever it was drawn twice
        last = len(draw) - 1 - np.unique(draw[::-1], return_index=True)[1]
        for method in METHODS:
            full, full_unallocated = allocate_arrays(arrays, method, draw)
            entries, unallocated = allocate_arrays(arrays, method, banks, counts)
            expected = full[np.ix_(first, first)]
            expected[np.diag_indices(len(banks))] = full[first, last]
            np.testing.assert_allclose(entries, expected, rtol=1e-14, atol=0, err_msg=method)
            np.testing.assert_allclose(unallocated, full_unallocated[first], rtol=1e-14, atol=0)


def test_own_country_denominator_of_a_bank_that_dwarfs_its_country():
    # FR's mass rounds to the big bank's weight, so mass - weight is 0
    records = [
        bank("big", "FR", assets=1e17, exposures={"DE": 5.0, "FR": 4.0}),
        bank("small", "FR", assets=1.0, exposures={"FR": 3.0}),
        bank("de", "DE", exposures={"FR": 2.0}),
    ]
    d = allocate(records, "size_weighted")
    assert d.entries[0, 1] == 4.0
    assert d.entries[1, 0] == 3.0
    assert d.entries[2, 0] == 2.0 and d.entries[2, 1] == 2e-17
    assert validate_conservation(symmetrize(d), d, records).ok
    # the twin-count path: the small bank drawn twice
    arrays = year_arrays(records, warn=False)
    entries, _ = allocate_arrays(arrays, "size_weighted", np.array([0, 1, 2]), np.array([1, 2, 1]))
    assert entries[0, 1] == 2.0
    assert entries[1, 0] == 3.0 and entries[1, 1] == 3e-17


def test_allocation_factors_give_the_directed_entries():
    panel = synthesize_panel({2014: DEFAULT_CALIBRATION[2014]}, seed=1)
    for method in METHODS:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            d = allocate(panel.records[2014], method)
        A, G = d.factors
        assert A.shape == G.shape == (len(d.banks), 15)
        assert np.all(np.count_nonzero(G, axis=1) == 1)
        product = A @ G.T
        np.fill_diagonal(product, 0.0)
        np.testing.assert_allclose(product, d.entries, rtol=1e-14, atol=0, err_msg=method)


def test_stats_of_weights_whose_squares_leave_the_float_range():
    w = np.array([[0.0, 3.0, 1e-300], [3.0, 0.0, 2.0], [1e-300, 2.0, 0.0]])
    big, small = network_stats(graph_of(w * 1e300)), network_stats(graph_of(w))
    assert big.sd_weight == pytest.approx(1e300 * small.sd_weight, rel=1e-14)
    assert big.sd_degree == pytest.approx(1e300 * small.sd_degree, rel=1e-14)


def test_build_allocation_has_zero_diagonal():
    entries, _ = allocate_arrays(year_arrays(four_banks(), warn=False), "equal")
    assert np.all(np.diag(entries) == 0.0)


# ---------------------------------------------------------------------------
# symmetrization


def test_symmetrize_averages():
    g = symmetrize(allocate(two_banks(), "equal"), 2014)
    assert g.weights[0, 1] == 7.0
    assert g.weights[1, 0] == 7.0
    assert g.year == 2014


def test_symmetrize_fixed_point():
    m = np.array([[0.0, 3.0], [3.0, 0.0]])
    d = DirectedExposureMatrix(["A", "B"], m, np.zeros(2))
    g = symmetrize(d, 2014)
    assert np.array_equal(g.weights, m)


def test_symmetrize_zero_matrix():
    d = DirectedExposureMatrix(["A", "B"], np.zeros((2, 2)), np.zeros(2))
    assert not np.any(symmetrize(d, 2014).weights)


def test_symmetrize_exactly_symmetric():
    rng = np.random.default_rng(3)
    m = rng.uniform(0, 5, (6, 6))
    np.fill_diagonal(m, 0.0)
    d = DirectedExposureMatrix([f"B{i}" for i in range(6)], m, np.zeros(6))
    g = symmetrize(d, 2014)
    g.validate()
    assert np.array_equal(g.weights, g.weights.T)


# ---------------------------------------------------------------------------
# conservation


def test_pipeline_conserves():
    recs = three_banks()
    d = allocate(recs, "equal")
    g = symmetrize(d, 2014)
    report = validate_conservation(g, d, recs)
    assert report.ok
    assert report.failures == []


def test_injected_fault_reports_discrepancy_of_two():
    recs = three_banks()
    d = allocate(recs, "equal")
    g = symmetrize(d, 2014)
    g.weights[0, 1] += 1.0
    g.weights[1, 0] += 1.0
    report = validate_conservation(g, d, recs)
    assert not report.ok
    assert any("discrepancy of 2" in f for f in report.failures)


def test_sole_bank_fixture_passes_with_adjusted_expectation():
    recs = [
        bank("aa", "DE", exposures={"DE": 6.0, "FR": 2.0}),
        bank("bb", "FR", exposures={"DE": 1.0}),
    ]
    with pytest.warns(UserWarning):
        d = allocate(recs, "equal")
    report = validate_conservation(symmetrize(d, 2014), d, recs)
    assert report.ok


def test_conservation_beside_a_dropped_exposure_that_dwarfs_the_allocated():
    # a total of 1e17 + 1 less the 1e17 dropped would cancel to 0
    recs = [
        bank("aa", "DE", exposures={"DE": 1e17, "FR": 1.0}),
        bank("bb", "FR", exposures={"DE": 2.0}),
    ]
    with pytest.warns(UserWarning, match="own-country exposure dropped"):
        d = allocate(recs, "equal")
    report = validate_conservation(symmetrize(d, 2014), d, recs)
    assert report.ok, report.failures
    d.entries[0, 1] = 0.5
    report = validate_conservation(symmetrize(d, 2014), d, recs)
    assert any(f.endswith("allocated 0.5, expected 1") for f in report.failures), report.failures


def test_mismatched_bank_lists_rejected():
    recs = three_banks()
    d = allocate(recs, "equal")
    g = symmetrize(d, 2014)
    with pytest.raises(InputError):
        validate_conservation(g, d, list(reversed(recs)))


# ---------------------------------------------------------------------------
# statistics


def test_stats_complete_graph():
    st_ = network_stats(complete_graph(4, 1.0))
    assert st_.n_nodes == 4
    assert st_.n_edges == 6
    assert st_.density == 1.0
    assert st_.total_weight == 6.0
    assert st_.mean_degree == 3.0
    assert np.allclose(st_.degrees, 3.0)


def test_stats_path_graph():
    g = graph_of([[0, 2, 0], [2, 0, 2], [0, 2, 0]], banks=["A", "B", "C"])
    st_ = network_stats(g)
    assert st_.n_edges == 2
    assert st_.density == pytest.approx(2 / 3)
    assert list(st_.degrees) == [2.0, 4.0, 2.0]
    assert st_.min_weight == 2.0
    assert st_.max_weight == 2.0


def test_stats_synthesized_2014():
    panel = synthesize_panel({2014: DEFAULT_CALIBRATION[2014]}, seed=42)
    g = build_graph(panel, 2014, "equal")
    st_ = network_stats(g)
    assert st_.n_nodes == 61
    assert st_.n_edges == 1830
    assert st_.density == 1.0
    # gross in+out exposure per bank is exactly twice the symmetric
    # row-sum degree convention used here
    assert st_.mean_degree == pytest.approx(79317.0 / 61, rel=1e-9)
    assert 2 * st_.mean_degree == pytest.approx(2600.56, abs=0.01)
    assert st_.total_weight == pytest.approx(79317.0 / 2, rel=1e-9)


# ---------------------------------------------------------------------------
# serialization


def test_edge_csv_round_trip(tmp_path):
    recs = three_banks()
    g = build_graph_from_records(recs)
    path = tmp_path / "edges.csv"
    graph_to_edge_csv(g, path)
    back = graph_from_edge_csv(path)
    assert back.banks == g.banks
    assert np.allclose(back.weights, g.weights)
    assert back.year == g.year


def test_edge_csv_round_trip_of_ids_that_need_quoting(tmp_path):
    banks = ["A,1", 'B "q"', "line\nbreak", "cr\rx", "crlf\r\ny", " lead", "", "Zürich €"]
    rng = np.random.default_rng(5)
    w = rng.uniform(0.5, 2.0, (8, 8))
    w = np.triu(w, 1) * (rng.uniform(size=(8, 8)) < 0.7)
    w = w + w.T
    w[0, 1] = w[1, 0] = 0.1  # every bank in at least one edge
    w[2:, 0] = w[0, 2:] = 1e-300
    g = WeightedGraph(banks, w, 2016)
    path = tmp_path / "edges.csv"
    graph_to_edge_csv(g, path)
    back = graph_from_edge_csv(path)
    assert back.banks == banks
    assert back.year == 2016
    assert np.array_equal(back.weights, w)


def build_graph_from_records(recs, year=2014, method="equal"):
    return symmetrize(allocate(recs, method), year)


def test_edge_csv_deterministic(tmp_path):
    g = build_graph_from_records(three_banks())
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    graph_to_edge_csv(g, p1)
    graph_to_edge_csv(g, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_edge_csv_rejects_negative_weight(tmp_path):
    p = tmp_path / "edges.csv"
    p.write_text("year,bank_i,bank_j,weight\n2014,A,B,-1.0\n", encoding="utf-8")
    with pytest.raises(InputError):
        graph_from_edge_csv(p)


def test_edge_csv_rejects_non_finite_weight(tmp_path):
    # an infinite weight used to run to exit 0 on NaN metrics; a NaN one
    # was reported as an asymmetric matrix
    p = tmp_path / "edges.csv"
    for weight in ("inf", "nan", "-inf"):
        p.write_text(f"year,bank_i,bank_j,weight\n2014,A,B,1.0\n2014,B,C,{weight}\n", encoding="utf-8")
        with pytest.raises(InputError, match=rf"edges.csv: line 3: column weight: non-finite value '{weight}'"):
            graph_from_edge_csv(p)


def test_edge_csv_rejects_self_loop(tmp_path):
    p = tmp_path / "edges.csv"
    p.write_text("year,bank_i,bank_j,weight\n2014,A,A,1.0\n", encoding="utf-8")
    with pytest.raises(InputError):
        graph_from_edge_csv(p)


# ---------------------------------------------------------------------------
# graph type guards


def test_graph_validate_rejects_asymmetry():
    g = graph_of([[0, 1], [1, 0]])
    g.weights[0, 1] = 2.0
    with pytest.raises(DomainError, match="symmetric"):
        g.validate()


def test_graph_validate_rejects_diagonal():
    g = graph_of([[1, 1], [1, 0]])
    with pytest.raises(DomainError, match="diagonal"):
        g.validate()


def test_graph_index_unknown_bank():
    g = complete_graph(3)
    with pytest.raises(DomainError, match="unknown bank"):
        g.index("missing")


# ---------------------------------------------------------------------------
# properties

country_pool = ["DE", "FR", "IT", "ES"]


@st.composite
def year_records(draw):
    # two banks per country guarantees own-country exposure stays allocable
    n_countries = draw(st.integers(min_value=2, max_value=4))
    countries = country_pool[:n_countries] * 2
    records = []
    for i, c in enumerate(countries):
        exposures = {
            target: draw(st.floats(min_value=0.0, max_value=100.0))
            for target in country_pool[:n_countries]
        }
        records.append(bank(f"b{i}", c, assets=draw(st.floats(1.0, 1e3)), exposures=exposures))
    return records


@settings(max_examples=40, deadline=None)
@given(recs=year_records())
def test_pipeline_properties(recs):
    d = allocate(recs, "equal")
    g = symmetrize(d, 2014)
    g.validate()
    assert np.all(g.weights >= 0)
    assert g.weights.sum() == pytest.approx(d.entries.sum(), rel=1e-9, abs=1e-9)
    report = validate_conservation(g, d, recs)
    assert report.ok


def tiny_pair_records():
    """Four countries of two banks each, every exposure 1 but two of the
    smallest subnormal: each of their two shares rounds to zero, so the pair
    of banks B4 (DE) and B6 (IT) has no edge."""
    records = [bank(f"b{i}", c, exposures=dict.fromkeys(country_pool, 1.0)) for i, c in enumerate(country_pool * 2)]
    records[4].exposures["IT"] = records[6].exposures["DE"] = 5e-324
    return records


@settings(max_examples=20, deadline=None)
@given(recs=year_records())
@example(recs=tiny_pair_records())
def test_positive_everywhere_gives_complete_graph(recs):
    # a pair of banks lacks its edge only where both directed shares round
    # to zero, and allocate names each such bank and country in a warning
    if any(v <= 0 for r in recs for v in r.exposures.values()):
        return
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        g = symmetrize(allocate(recs, "equal"), 2014)
    dropped = " ".join(str(w.message) for w in caught if "round to zero" in str(w.message))
    missing = [(i, j) for i in range(g.n) for j in range(i + 1, g.n) if g.weights[i, j] == 0]
    for i, j in missing:
        assert f"{recs[i].lei} to {recs[j].country}" in dropped, dropped
        assert f"{recs[j].lei} to {recs[i].country}" in dropped, dropped
    assert network_stats(g).density == 1.0 or missing
