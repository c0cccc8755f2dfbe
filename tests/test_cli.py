import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import bank, graph_of, strict_json
from fragnet import cli
from fragnet.cli import DEFAULT_CALIBRATION, main
from fragnet.diffusion import ForcingSpec, cascade_stress_test
from fragnet.network import build_graph, graph_from_edge_csv, graph_to_edge_csv
from fragnet.panel import ExposurePanel, load_panel, synthesize_panel, write_panel

SRC = Path(__file__).resolve().parents[1] / "src"

OBSERVED = {2014: 1322.87, 2016: 1797.59, 2018: 2037.42, 2021: 2007.23, 2023: 2181.96}


def write_series(path):
    lines = ["year,lambda2"] + [f"{y},{v}" for y, v in sorted(OBSERVED.items())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_calibration(path, n=8):
    doc = {
        str(y): {
            "n_banks": n,
            "total_exposure": 1000.0 * (1 + 0.1 * k),
            "country_list": ["DE", "FR", "IT"],
        }
        for k, y in enumerate([2014, 2016, 2018, 2021, 2023])
    }
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def subprocess_env(**extra):
    """The test environment with this checkout's package first on the path."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "fragnet" in capsys.readouterr().out


def test_end_to_end_pipeline(tmp_path):
    calib = write_calibration(tmp_path / "calib.json")
    panel = tmp_path / "panel.csv"
    assert main(["synth", "--calib", str(calib), "--seed", "5", "--out", str(panel)]) == 0
    assert panel.exists()

    built = tmp_path / "built"
    assert main(["build", "--input", str(panel), "--out", str(built)]) == 0
    stats = read_csv(built / "network_stats.csv")
    assert [row["year"] for row in stats] == ["2014", "2016", "2018", "2021", "2023"]
    assert all(row["n_nodes"] == "8" for row in stats)
    for row in stats:
        year = int(row["year"])
        graph = graph_from_edge_csv(built / f"edges_{year}.csv")
        assert graph.n == 8

    analyzed = tmp_path / "analyzed"
    assert main(["analyze", "--input", str(panel), "--out", str(analyzed)]) == 0
    frag = read_csv(analyzed / "fragility.csv")
    assert len(frag) == 5
    assert all(float(row["lambda2"]) > 0 for row in frag)
    assert all(row["connected"] == "1" for row in frag)
    cents = read_csv(analyzed / "centrality.csv")
    assert len(cents) == 5 * 8

    did_out = tmp_path / "did"
    rc = main(
        [
            "did",
            "--input", str(panel),
            "--out", str(did_out),
            "--bootstrap-b", "100",
            "--seed", "7",
            "--placebo", "2016",
        ]
    )
    assert rc == 0
    doc = json.loads((did_out / "did.json").read_text(encoding="utf-8"))
    assert set(doc) == {"level", "detrended", "bootstrap", "placebo"}
    assert set(doc["level"]["effects"]) == {"2021", "2023"}
    assert doc["bootstrap"]["B"] == 100
    assert (did_out / "bootstrap.csv").exists()
    assert (did_out / "placebo_2016.csv").exists()


def test_analyze_series_reproduces_published_inverse(tmp_path):
    series = write_series(tmp_path / "series.csv")
    out = tmp_path / "out"
    assert main(["analyze", "--series", str(series), "--out", str(out)]) == 0
    rows = read_csv(out / "fragility.csv")
    inv = [float(r["inv_lambda2_x1e3"]) for r in rows]
    assert inv == pytest.approx([0.756, 0.556, 0.491, 0.498, 0.458], abs=0.001)
    # default epsilon is 1/e, so the mixing time is exactly 1/lambda2
    for r in rows:
        assert float(r["mixing_time"]) == pytest.approx(
            float(r["inv_lambda2_x1e3"]) / 1000.0, rel=1e-12
        )


def test_did_series_reproduces_effects(tmp_path):
    series = write_series(tmp_path / "series.csv")
    out = tmp_path / "out"
    assert main(["did", "--series", str(series), "--out", str(out)]) == 0

    level = read_csv(out / "did_level.csv")
    assert level[0]["period"] == "baseline"
    assert float(level[0]["lambda2"]) == pytest.approx(1719.29, abs=0.01)
    by_year = {r["period"]: r for r in level[1:]}
    assert float(by_year["2021"]["effect"]) == pytest.approx(287.93, abs=0.02)
    assert float(by_year["2023"]["effect"]) == pytest.approx(462.67, abs=0.02)
    assert float(by_year["2021"]["pct_change"]) == pytest.approx(16.7, abs=0.1)
    assert float(by_year["2023"]["pct_change"]) == pytest.approx(26.9, abs=0.1)

    detrended = read_csv(out / "did_detrended.csv")
    by_year = {r["period"]: r for r in detrended[1:]}
    assert float(by_year["2021"]["effect"]) == pytest.approx(-605.25, abs=0.01)
    assert float(by_year["2023"]["effect"]) == pytest.approx(-787.80, abs=0.01)


def test_placebo_tables(tmp_path):
    series = write_series(tmp_path / "series.csv")
    out = tmp_path / "out"
    rc = main(
        ["did", "--series", str(series), "--out", str(out), "--placebo", "2016", "--placebo", "2017"]
    )
    assert rc == 0
    p16 = read_csv(out / "placebo_2016.csv")
    assert float(p16[0]["lambda2"]) == pytest.approx(1322.87)
    effects16 = {r["period"]: float(r["effect"]) for r in p16[1:]}
    assert effects16["2016"] == pytest.approx(474.72, abs=0.5)
    assert effects16["2018"] == pytest.approx(714.55, abs=0.5)

    p17 = read_csv(out / "placebo_2017.csv")
    assert float(p17[0]["lambda2"]) == pytest.approx(1560.23)
    effects17 = {r["period"]: float(r["effect"]) for r in p17[1:]}
    assert list(effects17) == ["2018"]
    assert effects17["2018"] == pytest.approx(477.19, abs=0.5)


def test_missing_input_names_path(tmp_path, capsys):
    missing = tmp_path / "nowhere.csv"
    rc = main(["build", "--input", str(missing), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "nowhere.csv" in capsys.readouterr().err


def test_domain_error_exit_code(tmp_path, capsys):
    series = write_series(tmp_path / "series.csv")
    rc = main(
        [
            "did",
            "--series", str(series),
            "--out", str(tmp_path / "o"),
            "--pre", "2014,2016,2018",
            "--post", "2018,2021,2023",
        ]
    )
    assert rc == 1
    assert "overlap" in capsys.readouterr().err


def test_bad_epsilon_exit_code(tmp_path, capsys):
    series = write_series(tmp_path / "series.csv")
    rc = main(["analyze", "--series", str(series), "--out", str(tmp_path / "o"), "--epsilon", "2.0"])
    assert rc == 2
    assert "epsilon" in capsys.readouterr().err


@pytest.mark.parametrize("sigma", ["-1", "nan", "inf", "-inf"])
def test_synth_rejects_sigma_out_of_range(tmp_path, capsys, sigma):
    rc = main(["synth", f"--sigma={sigma}", "--out", str(tmp_path / "p.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --sigma must be a finite non-negative number") and err.count("\n") == 1, err
    assert not (tmp_path / "p.csv").exists()


@pytest.mark.parametrize("b", ["50", "-5"])
def test_did_rejects_bootstrap_b_out_of_range(tmp_path, capsys, b):
    panel = tmp_path / "panel.csv"
    assert main(["synth", "--out", str(panel)]) == 0
    rc = main(["did", "--input", str(panel), "--out", str(tmp_path / "o"), f"--bootstrap-b={b}"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"error: --bootstrap-b must be 0 or at least 100, got {b}\n", err


def test_bootstrap_requires_panel(tmp_path, capsys):
    series = write_series(tmp_path / "series.csv")
    rc = main(
        ["did", "--series", str(series), "--out", str(tmp_path / "o"), "--bootstrap-b", "100"]
    )
    assert rc == 2
    assert "panel" in capsys.readouterr().err


def test_analyze_needs_input_or_series(tmp_path, capsys):
    rc = main(["analyze", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "--input or --series" in capsys.readouterr().err


def test_series_and_input_are_mutually_exclusive(tmp_path, capsys):
    series = write_series(tmp_path / "series.csv")
    panel = tmp_path / "panel.csv"
    assert main(["synth", "--calib", str(write_calibration(tmp_path / "calib.json")), "--out", str(panel)]) == 0
    for argv in (["did", "--bootstrap-b", "100"], ["did"], ["analyze"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--series", str(series), "--input", str(panel), "--out", str(tmp_path / "o")])
        assert exc.value.code == 2, argv
        err = capsys.readouterr().err
        assert "--series" in err and "--input" in err, argv
    assert not (tmp_path / "o").exists()


def test_failed_did_writes_nothing(tmp_path):
    # 2014 is not inside the pre-period, so the placebo fails after every
    # other estimate has been made
    out = tmp_path / "out"
    rc = main(["did", "--series", str(write_series(tmp_path / "series.csv")), "--out", str(out), "--placebo", "2014"])
    assert rc == 1
    assert list(out.iterdir()) == []


def test_did_zero_baseline_leaves_pct_change_undefined(tmp_path):
    series = tmp_path / "series.csv"
    series.write_text("year,lambda2\n2014,0\n2016,0\n2018,0\n2021,5\n2023,7\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["did", "--series", str(series), "--out", str(out), "--placebo", "2016"]) == 0
    for name in ("did_level.csv", "did_detrended.csv", "placebo_2016.csv"):
        rows = read_csv(out / name)[1:]
        assert rows and all(r["pct_change"] == "" for r in rows), name
    doc = strict_json(out / "did.json")
    assert doc["level"]["effects"]["2021"] == {"beta": 5.0, "pct_change": None}
    assert doc["detrended"]["effects"]["2023"] == {"beta": 7.0, "pct_change": None}
    assert doc["placebo"]["2016"]["effects"]["2018"] == {"beta": 0.0, "pct_change": None}


@pytest.mark.parametrize(
    "values, estimator",
    [
        # the pre-period trend extrapolates beyond the float range
        ({2014: "1e306"}, "detrended"),
        # the percent change itself is beyond the float range
        ({2014: "3e-300", 2021: "1e10"}, "level"),
        # the baseline mean overflows
        ({2014: "1.7e308", 2016: "1.7e308", 2018: "1.7e308"}, "level"),
        # the level percent changes are -100 (100 * beta overflows, the ratio
        # does not), but the trend's intercept at year 0 is about 5e310
        ({2014: "1e308"}, "detrended"),
    ],
)
def test_did_estimates_beyond_the_float_range_are_domain_errors(tmp_path, capsys, values, estimator):
    series = tmp_path / "series.csv"
    rows = [f"{y},{values.get(y, '0')}" for y in (2014, 2016, 2018, 2021, 2023)]
    series.write_text("year,lambda2\n" + "".join(r + "\n" for r in rows), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["did", "--series", str(series), "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {estimator} estimator: ") and err.count("\n") == 1, err


def write_bank_panel(path, records):
    """A panel holding the same bank records in each of the five default years."""
    years = [2014, 2016, 2018, 2021, 2023]
    write_panel(ExposurePanel(years, {y: records for y in years}), path)
    return path


def test_build_conserves_exposure_beside_a_large_dropped_one(tmp_path):
    # the DE bank's own-country exposure has no counterparty and is dropped;
    # it is 1e17 times the exposure that is allocated
    panel = write_bank_panel(tmp_path / "panel.csv", [
        bank("aa", "DE", exposures={"DE": 1e17, "FR": 1.0}),
        bank("bb", "FR", exposures={"DE": 2.0}),
    ])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["build", "--input", str(panel), "--out", str(tmp_path / "o")]) == 0
    stats = read_csv(tmp_path / "o" / "network_stats.csv")
    assert [r["total_weight"] for r in stats] == ["1.5"] * 5


def test_size_weighted_country_assets_beyond_the_float_range(tmp_path, capsys):
    panel = write_bank_panel(tmp_path / "panel.csv", [
        bank("aa", "DE", exposures={"FR": 5.0}),
        bank("bb", "FR", assets=1e308, exposures={"DE": 1.0}),
        bank("cc", "FR", assets=1e308, exposures={"DE": 1.0}),
    ])
    for command in ("build", "did"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main([command, "--input", str(panel), "--out", str(tmp_path / command), "--method", "size"])
        assert rc == 1, command
        err = capsys.readouterr().err
        assert err == (
            "error: year 2014: size_weighted allocation: the weights of country FR's "
            "banks sum beyond the float range\n"
        ), command
    assert main(["build", "--input", str(panel), "--out", str(tmp_path / "equal")]) == 0


def test_unknown_method_rejected_by_parser(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["build", "--input", "x.csv", "--out", str(tmp_path), "--method", "bogus"])
    assert exc.value.code == 2


def test_subcommands_reject_flags_they_do_not_honour(tmp_path):
    out = str(tmp_path / "o")
    for argv in (
        ["build", "--input", "x.csv", "--out", out, "--bootstrap-b", "500"],
        ["build", "--input", "x.csv", "--out", out, "--series", "s.csv"],
        ["stress", "--input", "e.csv", "--out", out, "--method", "size"],
        ["synth", "--out", out, "--input", "x.csv"],
        ["analyze", "--input", "x.csv", "--out", out, "--seed", "3"],
        ["build", "--out", out],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


def test_synth_calibration_errors(tmp_path, capsys):
    rc = main(["synth", "--calib", str(tmp_path / "gone.json"), "--out", str(tmp_path / "p.csv")])
    assert rc == 2

    broken = tmp_path / "broken.json"
    broken.write_text("{", encoding="utf-8")
    rc = main(["synth", "--calib", str(broken), "--out", str(tmp_path / "p.csv")])
    assert rc == 2
    assert "invalid JSON" in capsys.readouterr().err

    nonyear = tmp_path / "nonyear.json"
    nonyear.write_text(json.dumps({"abc": {"n_banks": 3}}), encoding="utf-8")
    rc = main(["synth", "--calib", str(nonyear), "--out", str(tmp_path / "p.csv")])
    assert rc == 2

    good = {"n_banks": 4, "total_exposure": 1000.0, "country_list": ["DE", "FR"]}
    cases = {
        "n_banks": ("n_banks", {k: v for k, v in good.items() if k != "n_banks"}),
        "total_exposure": ("total_exposure", {k: v for k, v in good.items() if k != "total_exposure"}),
        "country_list": ("country_list", {k: v for k, v in good.items() if k != "country_list"}),
        "entry": ("object", [4, 1000.0]),
        "count": ("n_banks", {**good, "n_banks": "four"}),
        "fraction": ("n_banks", {**good, "n_banks": 4.5}),
        "total": ("total_exposure", {**good, "total_exposure": "lots"}),
        "flag": ("total_exposure", {**good, "total_exposure": True}),
    }
    for name, (field, entry) in cases.items():
        calib = tmp_path / f"calib_{name}.json"
        calib.write_text(json.dumps({"2016": good, "2014": entry}), encoding="utf-8")
        rc = main(["synth", "--calib", str(calib), "--out", str(tmp_path / "p.csv")])
        assert rc == 2, name
        err = capsys.readouterr().err
        assert calib.name in err and "2014" in err and field in err, (name, err)


def test_synth_directory_output_form(tmp_path):
    calib = write_calibration(tmp_path / "calib.json")
    out_dir = tmp_path / "bundle"
    assert main(["synth", "--calib", str(calib), "--out", str(out_dir)]) == 0
    assert (out_dir / "panel.csv").exists()


def test_reruns_are_byte_identical(tmp_path):
    calib = write_calibration(tmp_path / "calib.json")
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for p in (p1, p2):
        assert main(["synth", "--calib", str(calib), "--seed", "9", "--out", str(p)]) == 0
    assert p1.read_bytes() == p2.read_bytes()

    d1, d2 = tmp_path / "d1", tmp_path / "d2"
    for d in (d1, d2):
        rc = main(
            ["did", "--input", str(p1), "--out", str(d), "--bootstrap-b", "100", "--seed", "7"]
        )
        assert rc == 0
    for name in ("did.json", "did_level.csv", "did_detrended.csv", "bootstrap.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    # the other commands on the same panel; the cascade has several rounds,
    # since the shocked bank holds and the others fail one after another
    banks = [r.lei for r in load_panel(p1).records[2014]]
    capitals = {b: 0.5 + 0.1 * k for k, b in enumerate(banks)}
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"shock": {banks[0]: 500.0}, "onset": 0.01, "horizon": 0.5,
                                    "dt": 0.01, "capitals": {**capitals, banks[0]: 1e3}}), encoding="utf-8")
    runs = {
        "build": ["build", "--input", str(p1), "--method", "size"],
        "analyze": ["analyze", "--input", str(p1), "--spectra"],
        "stress": ["stress", "--input", str(tmp_path / "build1" / "edges_2014.csv"),
                   "--scenario", str(scenario)],
    }
    for command, argv in runs.items():
        outs = [tmp_path / f"{command}1", tmp_path / f"{command}2"]
        for out in outs:
            assert main(argv + ["--out", str(out)]) == 0
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir()) and names
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    # every JSON file the commands wrote is RFC 8259 JSON
    written = [p for p in tmp_path.rglob("*.json") if p.name not in ("calib.json", "scenario.json")]
    assert {"a.manifest.json", "did.json", "spectrum_2014.json", "cascade.json"} <= {p.name for p in written}
    for path in written:
        strict_json(path)


def test_analyze_spectra_writes_each_years_eigenvalues(tmp_path):
    panel = tmp_path / "panel.csv"
    assert main(["synth", "--calib", str(write_calibration(tmp_path / "calib.json", n=6)), "--out", str(panel)]) == 0
    out = tmp_path / "out"
    assert main(["analyze", "--input", str(panel), "--spectra", "--out", str(out)]) == 0
    lambda2s = {int(r["year"]): float(r["lambda2"]) for r in read_csv(out / "fragility.csv")}
    loaded = load_panel(panel)
    for year in loaded.years:
        doc = strict_json(out / f"spectrum_{year}.json")
        assert sorted(doc) == ["bank_order", "eigenvalues", "normalized"]
        assert doc["bank_order"] == [r.lei for r in loaded.records[year]]
        assert doc["normalized"] is False
        graph = build_graph(loaded, year)
        laplacian = np.diag(graph.degrees()) - graph.weights
        assert doc["eigenvalues"] == pytest.approx(np.linalg.eigvalsh(laplacian), rel=1e-9, abs=1e-9)
        assert doc["eigenvalues"][1] == lambda2s[year]


def test_stress_command_runs_scenario(tmp_path):
    w = np.array([[0, 5, 1, 0], [5, 0, 4, 1], [1, 4, 0, 3], [0, 1, 3, 0]], dtype=float)
    g = graph_of(w, banks=["A", "B", "C", "D"])
    edges = tmp_path / "edges.csv"
    graph_to_edge_csv(g, edges)
    scenario = tmp_path / "scenario.json"
    scenario.write_text(
        json.dumps(
            {
                "shock": {"A": 12.0, "B": 3.0},
                "onset": 0.3,
                "horizon": 2.0,
                "dt": 0.2,
                "capitals": {"A": 1.0, "B": 1.6, "C": 6.0, "D": 6.0},
            }
        ),
        encoding="utf-8",
    )
    out = tmp_path / "out"
    rc = main(["stress", "--input", str(edges), "--scenario", str(scenario), "--out", str(out)])
    assert rc == 0

    doc = json.loads((out / "cascade.json").read_text(encoding="utf-8"))
    assert doc["failed"] == [{"round": 3, "bank": "A"}, {"round": 6, "bank": "B"}]
    assert doc["rounds"] == 2
    assert doc["stabilization_time"] == pytest.approx(1.2)
    assert doc["post_lambda2"] == pytest.approx(6.0)

    summary = read_csv(out / "cascade_summary.csv")
    assert summary[0]["total_failures"] == "2"
    trajectory = read_csv(out / "trajectory.csv")
    # 11 snapshots; failures at windows 3 and 6 shrink the roster, and a
    # failing bank still appears in the snapshot where it crossed its capital
    assert len(trajectory) == 4 * 4 + 3 * 3 + 4 * 2
    assert {r["bank"] for r in trajectory[-4:]} == {"C", "D"}


def test_stress_rejects_non_finite_scenario_values(tmp_path, capsys):
    g = graph_of([[0, 1], [1, 0]], banks=["A", "B"])
    edges = tmp_path / "edges.csv"
    graph_to_edge_csv(g, edges)
    good = {"shock": {"A": 1.0}, "horizon": 2.0, "dt": 0.2, "capitals": {"A": 1.0, "B": 1.0}}
    for field, value in (("horizon", "nan"), ("capitals", {"A": "nan", "B": 1.0})):
        scenario = tmp_path / f"bad_{field}.json"
        scenario.write_text(json.dumps({**good, field: value}), encoding="utf-8")
        rc = main(["stress", "--input", str(edges), "--scenario", str(scenario), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert scenario.name in err and field in err


def run_stress_on_edges(tmp_path, rows):
    edges = tmp_path / "edges.csv"
    edges.write_text("year,bank_i,bank_j,weight\n" + "".join(r + "\n" for r in rows), encoding="utf-8")
    scenario = tmp_path / "scenario.json"
    scenario.write_text(
        json.dumps({"shock": {"A": 1.0}, "horizon": 2.0, "dt": 0.2,
                    "capitals": {"A": 1.0, "B": 1.0, "C": 1.0}}),
        encoding="utf-8",
    )
    return main(["stress", "--input", str(edges), "--scenario", str(scenario), "--out", str(tmp_path / "o")])


def test_stress_rejects_repeated_edge_pair(tmp_path, capsys):
    for rows in (["2014,A,B,1.0", "2014,B,C,2.0", "2014,A,B,3.0"],
                 ["2014,A,B,1.0", "2014,B,C,2.0", "2014,B,A,3.0"]):
        assert run_stress_on_edges(tmp_path, rows) == 2
        err = capsys.readouterr().err
        assert "edges.csv" in err and "line 4" in err and "line 2" in err, err


def test_stress_rejects_edge_weights_whose_sum_overflows(tmp_path, capsys):
    # each weight is finite, but every bank's degree is 2e308
    rows = ["2014,A,B,1e308", "2014,B,C,1e308", "2014,A,C,1e308"]
    assert run_stress_on_edges(tmp_path, rows) == 2
    err = capsys.readouterr().err
    assert "edges.csv" in err and "line 2" in err and "bank A" in err, err


def test_stress_rejects_edge_list_mixing_years(tmp_path, capsys):
    assert run_stress_on_edges(tmp_path, ["2014,A,B,1.0", "2014,B,C,2.0", "2016,A,C,3.0"]) == 2
    err = capsys.readouterr().err
    assert "edges.csv" in err and "line 4" in err and "2016" in err, err


def test_stress_requires_scenario(tmp_path, capsys):
    g = graph_of([[0, 1], [1, 0]], banks=["A", "B"])
    edges = tmp_path / "edges.csv"
    graph_to_edge_csv(g, edges)
    # argparse refuses the call before the edge list is read
    with pytest.raises(SystemExit) as exc:
        main(["stress", "--input", str(edges), "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "--scenario" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_stress_cascade_json_matches_library_result(tmp_path):
    g = graph_of(np.ones((4, 4)) - np.eye(4), banks=["A", "B", "C", "D"])
    edges = tmp_path / "edges.csv"
    graph_to_edge_csv(g, edges)
    caps = {"A": 1.0, "B": 10.0, "C": 10.0, "D": 10.0}
    scenario = tmp_path / "scenario.json"
    scenario.write_text(
        json.dumps({"shock": {"A": 12.0}, "horizon": 2.0, "dt": 0.2, "capitals": caps}),
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert main(["stress", "--input", str(edges), "--scenario", str(scenario), "--out", str(out)]) == 0
    res = cascade_stress_test(g, caps, ForcingSpec(np.array([12.0, 0, 0, 0])), 2.0, 0.2)

    doc = json.loads((out / "cascade.json").read_text(encoding="utf-8"))
    assert doc["failed"] == [{"round": 1, "bank": "A"}]
    assert doc["rounds"] == 1
    assert doc["losses"] == res.losses
    # one snapshot per window end: the live banks of that row of the record
    assert len(doc["history"]) == len(res.times) == 11
    for snap, t, row in zip(doc["history"], res.times, res.distress):
        assert snap["time"] == t
        assert snap["distress"] == {b: v for b, v in zip(g.banks, row) if not np.isnan(v)}
    assert list(doc["history"][2]["distress"]) == ["B", "C", "D"]
    trajectory = [
        (float(r["time"]), r["bank"], float(r["distress"])) for r in read_csv(out / "trajectory.csv")
    ]
    assert trajectory == [
        (snap["time"], b, v) for snap in doc["history"] for b, v in snap["distress"].items()
    ]


def long_cascade(tmp_path, windows=2000):
    """Edge list and scenario of a cascade on the paper's 61-bank 2014
    network: three banks shocked at a combined rate of 61 per unit time, the
    others on a permuted ladder of capitals from 0.01 to 5, so that most of
    them fail over `windows` windows."""
    panel = synthesize_panel({2014: DEFAULT_CALIBRATION[2014]}, seed=42)
    graph = build_graph(panel, 2014)
    edges = tmp_path / "edges.csv"
    graph_to_edge_csv(graph, edges)
    order = np.random.default_rng(42).permutation(graph.n).tolist()
    capitals = dict(zip([graph.banks[i] for i in order[3:]], np.geomspace(0.01, 5.0, graph.n - 3).tolist()))
    shocked = [graph.banks[i] for i in order[:3]]
    capitals.update(dict.fromkeys(shocked, 1e3))
    scenario = tmp_path / "scenario.json"
    scenario.write_text(
        json.dumps({"shock": dict.fromkeys(shocked, graph.n / 3), "onset": 0.05, "horizon": 1.0,
                    "dt": 1.0 / windows, "capitals": capitals}),
        encoding="utf-8",
    )
    return ["stress", "--input", str(edges), "--scenario", str(scenario)]


def test_stress_outputs_do_not_depend_on_the_block_size(tmp_path, monkeypatch):
    argv = long_cascade(tmp_path, windows=300)
    # one block per run of windows, blocks of one window, and blocks that
    # end inside runs of windows
    for cells in (10**9, 1, 100):
        monkeypatch.setattr(cli, "_RECORD_BLOCK_CELLS", cells)
        assert main(argv + ["--out", str(tmp_path / f"cells{cells}")]) == 0
        for name in ("cascade.json", "trajectory.csv", "cascade_summary.csv"):
            whole = (tmp_path / "cells1000000000" / name).read_bytes()
            assert (tmp_path / f"cells{cells}" / name).read_bytes() == whole, name
    doc = strict_json(tmp_path / "cells1" / "cascade.json")
    assert len(doc["history"]) == 301 and doc["total_failures"] > 20


def test_stress_memory_on_a_2000_window_cascade(tmp_path):
    argv = long_cascade(tmp_path) + ["--out", str(tmp_path / "out")]
    assert main(argv) == 0
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # about 2.1 MB with the record written in blocks; 9.6 MB with the whole
    # history built as snapshots and one JSON string
    assert peak < 4e6


def test_stress_trajectory_quotes_bank_ids_as_the_csv_module_does(tmp_path):
    banks = ["A,1", 'B "q"', "Zürich €", "line\nbreak", "cr\rx", " lead", ""]
    rng = np.random.default_rng(3)
    w = rng.uniform(0.5, 2.0, (7, 7))
    w = (w + w.T) / 2.0
    np.fill_diagonal(w, 0.0)
    edges = tmp_path / "edges.csv"
    # every cell quoted: csv.writer of Python 3.10-3.12 leaves a carriage
    # return bare, which a reader takes for a line break
    with edges.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, quoting=csv.QUOTE_ALL)
        writer.writerow(["year", "bank_i", "bank_j", "weight"])
        writer.writerows([2014, banks[i], banks[j], repr(float(w[i, j]))] for i in range(7) for j in range(i + 1, 7))
    shock = {banks[0]: 9.0, banks[2]: 4.0}
    caps = dict(zip(banks, [1.0, 3.0, 1.0, 3.0, 3.0, 3.0, 3.0]))
    scenario = tmp_path / "scenario.json"
    scenario.write_text(
        json.dumps({"shock": shock, "onset": 0.05, "horizon": 1.0, "dt": 0.07, "capitals": caps}),
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert main(["stress", "--input", str(edges), "--scenario", str(scenario), "--out", str(out)]) == 0

    read = graph_from_edge_csv(edges)
    assert read.banks == banks
    res = cascade_stress_test(read, caps, ForcingSpec(np.array([shock.get(b, 0.0) for b in banks]), 0.05), 1.0, 0.07)
    assert res.rounds >= 2
    # quoted, quotes doubled, where an id holds a comma, a quote, a line feed
    # or a carriage return; the csv module of Python 3.10-3.12 leaves the
    # carriage return bare, and 3.13 quotes it
    cells = ['"A,1"', '"B ""q"""', "Zürich €", '"line\nbreak"', '"cr\rx"', " lead", ""]
    expected = "time,bank,distress\n" + "".join(
        f"{t:.17g},{cell},{v:.17g}\n"
        for t, row in zip(res.times.tolist(), res.distress.tolist())
        for cell, v in zip(cells, row)
        if not math.isnan(v)
    )
    written = (out / "trajectory.csv").read_bytes()
    assert written == expected.encode("utf-8")
    with (out / "trajectory.csv").open(newline="", encoding="utf-8") as fh:
        assert {row[1] for row in list(csv.reader(fh))[1:]} == set(banks)


def test_stress_rejects_distress_beyond_the_float_range(tmp_path, capsys):
    # each shock is finite, but three of them together overflow the float range
    banks = ["A", "B", "C", "D", "E", "F"]
    rows = ["2014,A,B,1", "2014,B,C,2", "2014,C,D,1", "2014,D,E,3", "2014,E,F,1", "2014,F,A,2"]
    edges = tmp_path / "edges.csv"
    edges.write_text("year,bank_i,bank_j,weight\n" + "".join(r + "\n" for r in rows), encoding="utf-8")
    scenario = tmp_path / "scenario.json"
    scenario.write_text(
        json.dumps({"shock": {b: 1.7e308 for b in banks[:3]}, "horizon": 1.0, "dt": 0.1,
                    "capitals": {b: 1.0 for b in banks}}),
        encoding="utf-8",
    )
    # the overflow is reported by the error alone, with no NumPy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["stress", "--input", str(edges), "--scenario", str(scenario), "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: window 1: distress is no longer finite") and err.count("\n") == 1, err


def non_utf8_case(tmp_path, loader):
    """argv of a command and the input it reads through the given loader,
    whose last occurrence of a marker is replaced to hold byte 0xff."""
    calib = write_calibration(tmp_path / "calib.json")
    panel = tmp_path / "panel.csv"
    assert main(["synth", "--calib", str(calib), "--out", str(panel)]) == 0
    series = write_series(tmp_path / "series.csv")
    edges = tmp_path / "edges.csv"
    edges.write_text("year,bank_i,bank_j,weight\n2014,A,B,1.0\n2014,B,C,2.0\n", encoding="utf-8")
    scenario = tmp_path / "scenario.json"
    scenario.write_text(
        json.dumps({"shock": {"A": 1.0}, "horizon": 2.0, "dt": 0.2,
                    "capitals": {"A": 1.0, "B": 1.0, "C": 1.0}}, indent=1),
        encoding="utf-8",
    )
    stress = ["stress", "--input", str(edges), "--scenario", str(scenario)]
    argv, bad, marker = {
        "series": (["analyze", "--series", str(series)], series, b"2016,"),
        "calibration": (["synth", "--calib", str(calib)], calib, b'"IT"'),
        # the panel's last bank name lies past the first 8 KiB, which a text
        # stream decodes at once
        "panel": (["build", "--input", str(panel)], panel, b"Bank 007"),
        "manifest": (["build", "--input", str(panel)], tmp_path / "panel.manifest.json", b'"2016"'),
        "edges": (stress, edges, b"B,C"),
        "scenario": (stress, scenario, b'"C"'),
    }[loader]
    data = bad.read_bytes()
    at = data.rindex(marker) + 2
    bad.write_bytes(data[:at] + b"\xff" + data[at:])
    return argv, bad


@pytest.mark.parametrize("loader", ["series", "calibration", "panel", "manifest", "edges", "scenario"])
def test_non_utf8_input_names_file_and_line(tmp_path, capsys, loader):
    argv, bad = non_utf8_case(tmp_path, loader)
    data = bad.read_bytes()
    line = data.count(b"\n", 0, data.index(b"\xff")) + 1
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"{bad}: line {line}: byte 0xff is not UTF-8" in err, err
    # every multi-line input has the byte past its first line
    assert line > 1 or loader == "calibration"
    assert data.index(b"\xff") > 8192 or loader != "panel"


# each input kind: its file, a valid text of it, and the command that reads it
SCENARIO = {"shock": {"A": 1.0}, "horizon": 2.0, "dt": 0.2, "capitals": {"A": 1.0, "B": 1.0, "C": 1.0}}
GOOD_INPUTS = {
    "panel": ("panel.csv", "year,lei,name,country,total_assets,capital,exposure_country,exposure_amount\n"
              f"2014,{'A' * 20},Bank A,DE,100,10,FR,1\n2014,{'B' * 20},Bank B,FR,100,10,DE,1\n"),
    "manifest": ("panel.manifest.json", json.dumps({"years": [2014], "bank_counts": {"2014": 2}})),
    "edges": ("edges.csv", "year,bank_i,bank_j,weight\n2014,A,B,1.0\n2014,B,C,2.0\n"),
    "scenario": ("scenario.json", json.dumps(SCENARIO)),
    "series": ("series.csv", "year,lambda2\n2014,1.5\n2016,2.5\n"),
    "calibration": ("calib.json", json.dumps({"2014": {"n_banks": 3, "total_exposure": 10.0, "country_list": ["DE"]}})),
}
INPUT_ARGV = {
    "panel": ["build", "--input", "panel.csv"],
    "manifest": ["build", "--input", "panel.csv"],
    "edges": ["stress", "--input", "edges.csv", "--scenario", "scenario.json"],
    "scenario": ["stress", "--input", "edges.csv", "--scenario", "scenario.json"],
    "series": ["analyze", "--series", "series.csv"],
    "calibration": ["synth", "--calib", "calib.json"],
}
# the last field of a CSV input's last row, which the field cases replace
LAST_COLUMN = {"panel": "exposure_amount", "edges": "weight", "series": "lambda2"}


def bad_csv(kind, case):
    """A CSV input with one fault, and the message the fault gives."""
    text = GOOD_INPUTS[kind][1]
    head = text.split("\n", 1)[0]
    stem = text.rstrip("\n").rsplit(",", 1)[0]
    column = LAST_COLUMN[kind]
    # the last row with an underscore after the first digit of its year
    body, last = text.rstrip("\n").rsplit("\n", 1)
    year = f"{last[0]}_{last[1:].split(',', 1)[0]}"
    return {
        "empty file": ("", "empty file"),
        "bad header": ("x" + text, "header"),
        "short row": (text + "2014\n", f"line 4: expected {head.count(',') + 1} fields, got 1"),
        "not a number": (f"{stem},lots\n", f"line 3: column {column}: not a number: 'lots'"),
        "non-finite value": (f"{stem},inf\n", f"line 3: column {column}: non-finite value 'inf'"),
        "negative value": (f"{stem},-1\n", f"line 3: column {column}: negative value -1.0"),
        # int() and float() read an underscore as a digit separator
        "underscore in number": (f"{stem},1_0\n", f"line 3: column {column}: not a number: '1_0'"),
        "underscore in year": (f"{body}\n{last[0]}_{last[1:]}\n", f"line 3: column year: not an integer: '{year}'"),
    }[case]


def bad_json(kind, case):
    """A JSON input with one fault, and the message the fault gives."""
    doc = json.loads(GOOD_INPUTS[kind][1])
    number = {
        "manifest": lambda v: doc["bank_counts"].update({"2014": v}),
        "scenario": lambda v: doc.update(horizon=v),
        "calibration": lambda v: doc["2014"].update(total_exposure=v),
    }[kind]
    if case == "empty file":
        return "", "invalid JSON"
    if case == "invalid JSON":
        return "{", "invalid JSON"
    if case == "non-object JSON":
        return "[1, 2]", "must be a JSON object"
    if case == "repeated key":
        # the same key and value once more at the end; json.dumps cannot
        # write a repeated key
        key = {"manifest": "years", "scenario": "dt", "calibration": "2014"}[kind]
        text = json.dumps(doc)
        return f"{text[:-1]}, {json.dumps(key)}: {json.dumps(doc[key])}}}", f"repeated key {key!r}"
    if case == "repeated nested key":
        outer, key = {"manifest": ("bank_counts", "2014"), "scenario": ("capitals", "B"),
                      "calibration": ("2014", "n_banks")}[kind]
        text = json.dumps(doc)
        at = text.index(f'"{outer}": {{') + len(outer) + 5
        return f"{text[:at]}{json.dumps(key)}: {json.dumps(doc[outer][key])}, {text[at:]}", f"repeated key {key!r}"
    if case == "underscore in year key":
        if kind == "manifest":
            return json.dumps({"bank_counts": {"2_014": 2}}), "field 'bank_counts': not an integer: '2_014'"
        return json.dumps({"2_014": doc["2014"]}), "year key: not an integer: '2_014'"
    value = {"bool number": True, "overflowing int": 10**400, "non-finite value": math.nan}[case]
    number(value)
    return json.dumps(doc), f"must be a {'whole' if kind == 'manifest' else 'finite'} number, got {value!r}"


CSV_CASES = [
    "empty file", "bad header", "short row", "not a number", "non-finite value", "negative value",
    "underscore in number", "underscore in year",
]
JSON_CASES = [
    "empty file", "invalid JSON", "non-object JSON", "bool number", "overflowing int", "non-finite value",
    "repeated key", "repeated nested key",
]


@pytest.mark.parametrize(
    "kind, case",
    [(kind, case) for kind in LAST_COLUMN for case in CSV_CASES]
    + [(kind, case) for kind in ("manifest", "scenario", "calibration") for case in JSON_CASES]
    + [(kind, "underscore in year key") for kind in ("manifest", "calibration")],
)
def test_input_errors_are_one_line_naming_the_file(tmp_path, capsys, kind, case):
    for name, text in GOOD_INPUTS.values():
        (tmp_path / name).write_text(text, encoding="utf-8")
    text, message = (bad_csv if kind in LAST_COLUMN else bad_json)(kind, case)
    bad = tmp_path / GOOD_INPUTS[kind][0]
    bad.write_text(text, encoding="utf-8")
    argv = [str(tmp_path / arg) if "." in arg else arg for arg in INPUT_ARGV[kind]]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1, err
    assert message in err, err


def test_module_entry_point_smoke(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "fragnet", "--version"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert "fragnet" in proc.stdout

    series = write_series(tmp_path / "series.csv")
    proc = subprocess.run(
        [
            sys.executable, "-m", "fragnet",
            "did", "--series", str(series), "--out", str(tmp_path / "out"),
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert (tmp_path / "out" / "did.json").exists()


def test_import_loads_no_scipy():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, fragnet.cli; print('scipy' in sys.modules)"],
        capture_output=True,
        text=True,
        timeout=60,
        env=subprocess_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_bootstrap_identical_at_one_and_two_blas_threads(tmp_path):
    panel = tmp_path / "panel.csv"
    assert main(["synth", "--seed", "42", "--out", str(panel)]) == 0
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        proc = subprocess.run(
            [
                sys.executable, "-m", "fragnet", "did", "--input", str(panel), "--out", str(out),
                "--bootstrap-b", "100", "--seed", "7",
            ],
            capture_output=True,
            text=True,
            timeout=300,
            env=subprocess_env(OPENBLAS_NUM_THREADS=threads),
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    for name in ("bootstrap.csv", "did.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
