"""Generated inputs through the command line: whatever the scenario file or
the edge list holds, `fragnet stress` ends with exit code 0, 1 or 2 and never
lets an exception escape; so do `fragnet did --series` and
`fragnet analyze --series`, whatever the series file holds, `fragnet build`,
whatever the panel and its manifest hold (and a `build` that succeeds
writes only finite numbers), and `fragnet synth --calib`, whatever the
calibration holds. Every JSON file written is RFC 8259 JSON."""

import csv
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import strict_json
from fragnet.cli import main
from fragnet.diffusion import cascade_stress_test, load_scenario
from fragnet.network import graph_from_edge_csv
from fragnet.panel import CSV_HEADER

BANKS = ["A", "B", "C", "D"]
EDGES = "year,bank_i,bank_j,weight\n2014,A,B,2.0\n2014,B,C,1.0\n2014,C,D,3.0\n2014,A,D,0.5\n"

# JSON values of every kind but positive finite numbers
junk = st.one_of(
    st.none(), st.booleans(), st.text(max_size=4),
    st.sampled_from([math.nan, math.inf, -math.inf, 10**400, -(10**400)]),
    st.floats(max_value=0.0), st.integers(max_value=0),
    st.lists(st.integers(), max_size=2), st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)


@st.composite
def scenarios(draw):
    """A scenario with at most a few of its fields replaced by any JSON
    value or left out."""
    amounts = st.floats(0.01, 20.0)
    doc = {
        "shock": draw(st.dictionaries(st.sampled_from(BANKS), amounts, min_size=1, max_size=4)),
        "capitals": draw(st.fixed_dictionaries({b: amounts for b in BANKS})),
        "onset": draw(st.floats(0.0, 1.0)),
        # a valid scenario runs at most a few hundred windows; a tiny dt
        # asks for more than MAX_WINDOWS and is rejected
        "horizon": draw(st.floats(0.1, 2.0)),
        "dt": draw(st.one_of(st.floats(0.01, 1.0), st.floats(0.0, 1e-7, exclude_min=True))),
    }
    places = sorted(doc) + [f"{m}.{b}" for m in ("shock", "capitals") for b in BANKS + ["E"]]
    for place in draw(st.sets(st.sampled_from(places), max_size=3)):
        value = draw(junk)
        if "." in place:
            section, bank = place.split(".")
            if isinstance(doc.get(section), dict):
                doc[section][bank] = value
        elif draw(st.booleans()):
            doc[place] = value
        else:
            doc.pop(place)
    return doc


@st.composite
def edge_lists(draw):
    """An edge list on four banks with at most a few cells replaced by any
    text, and now and then a line of anything."""
    pairs = [(a, b) for k, a in enumerate(BANKS) for b in BANKS[k + 1:]]
    rows = [
        ["2014", a, b, repr(draw(st.floats(0.0, 5.0)))]
        for a, b in draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    ]
    table = [["year", "bank_i", "bank_j", "weight"]] + rows
    for _ in range(draw(st.integers(0, 2))):
        row = table[draw(st.integers(0, len(table) - 1))]
        cell = draw(st.one_of(st.text(max_size=5), st.floats().map(repr), st.sampled_from(["2016", "A", ""])))
        col = draw(st.integers(0, 4))
        if col < len(row):
            row[col] = cell
        else:
            row.append(cell)
    lines = [",".join(r) for r in table]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(1, len(lines))), draw(st.text(max_size=12)))
    return "\n".join(lines) + "\n", sorted({b for r in rows for b in r[1:3]})


def run_stress(edges: str, scenario: str) -> int:
    """The exit code of `fragnet stress`; a run that succeeds has written
    the cascade.json of `cascade_document`."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "edges.csv").write_text(edges, encoding="utf-8")
        (tmp / "scenario.json").write_text(scenario, encoding="utf-8")
        rc = main(["stress", "--input", str(tmp / "edges.csv"),
                   "--scenario", str(tmp / "scenario.json"), "--out", str(tmp / "out")])
        if rc == 0:
            written = (tmp / "out" / "cascade.json").read_bytes()
            assert written == cascade_document(tmp / "edges.csv", tmp / "scenario.json")
        return rc


def cascade_document(edges: Path, scenario: Path) -> bytes:
    """cascade.json as one `json.dumps` of the whole document, its history
    built here window by window from the library's record, with each number
    written as `format(v, ".17g")` writes it."""
    graph = graph_from_edge_csv(edges)
    forcing, capitals, horizon, dt = load_scenario(scenario, graph)
    res = cascade_stress_test(graph, capitals, forcing, horizon, dt)
    keys = ["total_failures", "rounds", "pre_lambda2", "post_lambda2", "fragility_change",
            "stabilization_time", "losses"]
    doc = {key: getattr(res, key) for key in keys}
    doc["failed"] = [{"round": r, "bank": b} for r, b in res.failed]
    doc["history"] = []
    items = []
    for t, row in zip(res.times.tolist(), res.distress.tolist()):
        live = sorted((b, v) for b, v in zip(graph.banks, row) if not math.isnan(v))
        members = ", ".join(f"{json.dumps(b)}: {format(v, '.17g')}" for b, v in live)
        items.append(f'{{"distress": {{{members}}}, "time": {format(t, ".17g")}}}')
    text = json.dumps(doc, sort_keys=True, allow_nan=False)
    # the one "history" key of the document, an empty array until here
    head, tail = text.split('"history": []')
    return (head + '"history": [' + ", ".join(items) + "]" + tail + "\n").encode("utf-8")


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(doc=scenarios())
def test_stress_survives_generated_scenarios(doc):
    assert run_stress(EDGES, json.dumps(doc)) in (0, 1, 2)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=edge_lists())
def test_stress_survives_generated_edge_lists(case):
    text, named = case
    scenario = {"shock": {b: 1.0 for b in named[:1]}, "horizon": 0.5, "dt": 0.1,
                "capitals": {b: 1.0 for b in named}}
    assert run_stress(text, json.dumps(scenario)) in (0, 1, 2)


# the default --pre and --post years
YEARS = ["2014", "2016", "2018", "2021", "2023"]


@st.composite
def series_texts(draw):
    """A year,lambda2 table over the default years with at most a few cells
    replaced by any float or short text, now and then a row dropped, and a
    broken header or a line of anything."""
    rows = [[y, repr(draw(st.floats(0.0, 1e4)))] for y in YEARS]
    cells = st.one_of(
        st.floats().map(repr), st.sampled_from(["0", "-0", "-1", "1e308", "2019", ""]),
        st.text(max_size=4),
    )
    for _ in range(draw(st.integers(0, 2))):
        rows[draw(st.integers(0, len(rows) - 1))][draw(st.integers(0, 1))] = draw(cells)
    if draw(st.integers(0, 3)) == 0:
        rows.pop(draw(st.integers(0, len(rows) - 1)))
    lines = ["year,lambda2"] + [",".join(r) for r in rows]
    if draw(st.integers(0, 5)) == 0:
        lines[0] = draw(st.sampled_from(["year,lambda", "", "year,lambda2,extra"]))
    if draw(st.integers(0, 3)) == 0:
        lines.insert(draw(st.integers(1, len(lines))), draw(st.text(max_size=12)))
    return "\n".join(lines) + "\n"


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=series_texts(), command=st.sampled_from(["did", "analyze"]))
def test_series_commands_survive_generated_series(text, command):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "series.csv").write_text(text, encoding="utf-8")
        rc = main([command, "--series", str(tmp / "series.csv"), "--out", str(tmp / "out")])
        for path in (tmp / "out").glob("*.json"):
            strict_json(path)
    assert rc in (0, 1, 2)


PANEL_BANKS = [(f"BANK{k:016d}", country) for k, country in enumerate(["DE", "FR", "IT"])]
money = st.one_of(
    st.floats().map(repr), st.sampled_from(["1e308", "-0", "-1", "", "nan", "1_0"]), st.text(max_size=4),
)


def panel_text(amount) -> str:
    """The generated panels' shape with every exposure amount given by
    amount(year, bank, exposure country)."""
    rows = [
        [year, lei, f"Bank {country}", country, "100.0", "10.0", exp, amount(year, lei, exp)]
        for year in ("2014", "2016") for lei, country in PANEL_BANKS for exp in ("DE", "FR", "IT")
    ]
    return "\n".join([",".join(CSV_HEADER)] + [",".join(r) for r in rows]) + "\n"


@st.composite
def panel_texts(draw):
    """A panel of three banks in two years with at most a few cells replaced:
    a bank-level field that then differs between the bank's rows, or a money
    field holding any float or short text; now and then a broken header."""
    rows = [line.split(",") for line in panel_text(lambda *_: repr(draw(st.floats(0.0, 50.0)))).splitlines()[1:]]
    for _ in range(draw(st.integers(0, 2))):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        col = draw(st.sampled_from([2, 3, 4, 5, 7]))
        row[col] = draw(money if col in (4, 5, 7) else st.one_of(st.text(max_size=4), st.sampled_from(["FR", "XX"])))
    header = ",".join(CSV_HEADER)
    if draw(st.integers(0, 5)) == 0:
        header = draw(st.sampled_from(["", header.replace("year", "yr"), header + ",extra", header.rsplit(",", 1)[0]]))
    return "\n".join([header] + [",".join(r) for r in rows]) + "\n"


# a manifest that matches the panel, disagrees with it, or is not one at all
manifests = st.one_of(
    st.none(),
    st.fixed_dictionaries({
        "years": st.one_of(st.just([2014, 2016]), st.just([2014]), junk),
        "bank_counts": st.one_of(
            st.dictionaries(st.sampled_from(["2014", "2016", "x"]), st.one_of(st.integers(0, 4), junk), max_size=2),
            junk,
        ),
    }).map(json.dumps),
    junk.map(json.dumps),
    st.just("{"),
)


@pytest.mark.filterwarnings("ignore")
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=panel_texts(), manifest=manifests)
# exposures whose sum leaves the float range, and weights whose squares do
@example(text=panel_text(lambda year, lei, exp: "1.7e308" if exp == "DE" else "1.0"), manifest=None)
@example(text=panel_text(lambda year, lei, exp: "1e300" if lei.endswith("1") else "1.0"), manifest=None)
def test_build_survives_generated_panels(text, manifest):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "panel.csv").write_text(text, encoding="utf-8")
        if manifest is not None:
            (tmp / "panel.manifest.json").write_text(manifest, encoding="utf-8")
        rc = main(["build", "--input", str(tmp / "panel.csv"), "--out", str(tmp / "out")])
        if rc == 0:
            for path in [tmp / "out" / "network_stats.csv", *(tmp / "out").glob("edges_*.csv")]:
                assert_finite_numbers(path)
    assert rc in (0, 1, 2)


def assert_finite_numbers(path):
    """Every cell of a CSV file that reads as a number is finite."""
    with path.open(newline="", encoding="utf-8") as fh:
        for row in csv.reader(fh):
            for cell in row:
                try:
                    value = float(cell)
                except ValueError:
                    continue
                assert math.isfinite(value), f"{path.name}: {cell!r} in {row}"


@st.composite
def calibrations(draw):
    """A calibration of two small years with at most a few of its years or
    fields replaced by any JSON value or left out, and now and then a year
    that is not a year."""
    doc = {
        year: {
            "n_banks": draw(st.integers(2, 6)),
            "total_exposure": draw(st.floats(1.0, 1e4)),
            "country_list": draw(st.lists(st.sampled_from(["DE", "FR", "IT", "XX"]), min_size=1, max_size=3)),
        }
        for year in ("2014", "2016")
    }
    places = [f"{y}.{f}" for y in doc for f in doc[y]] + list(doc)
    for place in draw(st.sets(st.sampled_from(places), max_size=3)):
        year, _, field = place.partition(".")
        entry = doc if not field else doc.get(year)
        if isinstance(entry, dict):
            if draw(st.booleans()):
                entry[field or year] = draw(junk)
            else:
                entry.pop(field or year, None)
    if draw(st.integers(0, 5)) == 0:
        doc[draw(st.sampled_from(["", "x", "2014.5", "-1"]))] = doc.get("2014")
    return doc


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(doc=calibrations())
def test_synth_survives_generated_calibrations(doc):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "calib.json").write_text(json.dumps(doc), encoding="utf-8")
        rc = main(["synth", "--calib", str(tmp / "calib.json"), "--out", str(tmp / "out" / "panel.csv")])
        for path in (tmp / "out").glob("*.json"):
            strict_json(path)
    assert rc in (0, 1, 2)
