import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bank, lei
from fragnet.errors import DomainError, InputError
from fragnet.panel import (
    CSV_HEADER,
    BankRecord,
    ExposurePanel,
    _cell,
    csv_quote,
    load_panel,
    read_json_object,
    synthesize_panel,
    write_csv,
    write_csv_text,
    write_json,
    write_panel,
)

CALIB = {
    2014: {"n_banks": 61, "total_exposure": 79317.0, "country_list": ["DE", "FR", "IT", "ES", "NL"]},
    2023: {"n_banks": 33, "total_exposure": 68403.0, "country_list": ["DE", "FR", "IT", "ES"]},
}


def tiny_panel():
    records = {
        2014: [
            bank("aa", "DE", assets=120.0, capital=12.0, exposures={"FR": 10.0, "IT": 2.5}),
            bank("bb", "FR", assets=80.0, capital=8.0, exposures={"DE": 4.0}),
        ]
    }
    return ExposurePanel(years=[2014], records=records)


def write_rows(path, rows):
    lines = [",".join(CSV_HEADER)] + [",".join(str(c) for c in r) for r in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# loading


def test_minimal_file_two_banks(tmp_path):
    p = tmp_path / "panel.csv"
    write_rows(
        p,
        [
            [2014, lei("aa"), "Bank A", "DE", 120.0, 12.0, "FR", 10.0],
            [2014, lei("bb"), "Bank B", "FR", 80.0, 8.0, "DE", 4.0],
        ],
    )
    panel = load_panel(p)
    assert panel.years == [2014]
    assert len(panel.records[2014]) == 2
    assert panel.records[2014][0].exposures == {"FR": 10.0}


def test_round_trip(tmp_path):
    panel = tiny_panel()
    path = tmp_path / "p.csv"
    write_panel(panel, path)
    back = load_panel(path)
    assert back.years == panel.years
    assert back.records == panel.records


def test_round_trip_of_names_that_need_quoting(tmp_path):
    names = ["Bank, One", 'Bank "Two"', "Bank\nThree", "Bank\rFour", "Bank\r\nFive", " Six", ""]
    records = [
        BankRecord(lei(f"q{k}"), name, "DE", 100.0 + k, 10.0, {"FR": 0.1 * (k + 1), "IT": 1e-300})
        for k, name in enumerate(names)
    ]
    panel = ExposurePanel(years=[2014, 2016], records={2014: records, 2016: records[:2]})
    path = tmp_path / "p.csv"
    write_panel(panel, path)
    back = load_panel(path)
    assert back.years == panel.years
    assert back.records == panel.records
    assert [r.name for r in back.records[2014]] == names


def test_missing_file_names_path(tmp_path):
    path = tmp_path / "nope.csv"
    with pytest.raises(InputError, match="nope.csv"):
        load_panel(path)


def test_bad_header(tmp_path):
    p = tmp_path / "p.csv"
    p.write_text("year,who\n2014,x\n", encoding="utf-8")
    with pytest.raises(InputError, match="header"):
        load_panel(p)


def test_duplicate_lei_same_year(tmp_path):
    p = tmp_path / "p.csv"
    the_lei = lei("aa")
    write_rows(
        p,
        [
            [2014, the_lei, "Bank A", "DE", 120.0, 12.0, "FR", 10.0],
            [2014, the_lei, "Bank A again", "IT", 90.0, 9.0, "FR", 1.0],
            [2014, lei("bb"), "Bank B", "FR", 80.0, 8.0, "DE", 4.0],
        ],
    )
    with pytest.raises(InputError) as err:
        load_panel(p)
    assert "duplicate" in str(err.value)
    assert the_lei in str(err.value)
    assert str(err.value).startswith(f"{p}: line 3: ")


def test_repeated_exposure_country_is_duplicate(tmp_path):
    p = tmp_path / "p.csv"
    write_rows(
        p,
        [
            [2014, lei("aa"), "Bank A", "DE", 120.0, 12.0, "FR", 10.0],
            [2014, lei("aa"), "Bank A", "DE", 120.0, 12.0, "FR", 3.0],
            [2014, lei("bb"), "Bank B", "FR", 80.0, 8.0, "DE", 4.0],
        ],
    )
    with pytest.raises(InputError, match="duplicate") as err:
        load_panel(p)
    assert str(err.value).startswith(f"{p}: line 3: ")


def test_negative_exposure_cites_row_and_column(tmp_path):
    p = tmp_path / "p.csv"
    write_rows(
        p,
        [
            [2014, lei("aa"), "Bank A", "DE", 120.0, 12.0, "FR", -10.0],
            [2014, lei("bb"), "Bank B", "FR", 80.0, 8.0, "DE", 4.0],
        ],
    )
    with pytest.raises(InputError) as err:
        load_panel(p)
    msg = str(err.value)
    assert msg.startswith(f"{p}: line 2: ")
    assert "exposure_amount" in msg


def test_bad_lei_rejected(tmp_path):
    p = tmp_path / "p.csv"
    write_rows(
        p,
        [
            [2014, "SHORT", "Bank A", "DE", 120.0, 12.0, "FR", 10.0],
            [2014, lei("bb"), "Bank B", "FR", 80.0, 8.0, "DE", 4.0],
        ],
    )
    with pytest.raises(InputError, match="lei") as err:
        load_panel(p)
    assert str(err.value).startswith(f"{p}: line 2: ")


def test_unknown_country_kept_with_warning(tmp_path):
    p = tmp_path / "p.csv"
    write_rows(
        p,
        [
            [2014, lei("aa"), "Bank A", "DE", 120.0, 12.0, "XX", 10.0],
            [2014, lei("bb"), "Bank B", "FR", 80.0, 8.0, "DE", 4.0],
        ],
    )
    with pytest.warns(UserWarning, match="XX") as caught:
        panel = load_panel(p)
    assert str(caught[0].message).startswith(f"{p}: line 2: ")
    assert panel.records[2014][0].exposures == {"XX": 10.0}


def test_single_bank_year_rejected(tmp_path):
    p = tmp_path / "p.csv"
    write_rows(p, [[2014, lei("aa"), "Bank A", "DE", 120.0, 12.0, "FR", 10.0]])
    with pytest.raises(InputError, match="2 banks") as err:
        load_panel(p)
    assert str(err.value).startswith(f"{p}: year 2014: ")


def test_conflicting_bank_fields_rejected(tmp_path):
    p = tmp_path / "p.csv"
    write_rows(
        p,
        [
            [2014, lei("aa"), "Bank A", "DE", 120.0, 12.0, "FR", 10.0],
            [2014, lei("aa"), "Bank A", "DE", 999.0, 12.0, "IT", 1.0],
            [2014, lei("bb"), "Bank B", "FR", 80.0, 8.0, "DE", 4.0],
        ],
    )
    with pytest.raises(InputError, match=lei("aa")) as err:
        load_panel(p)
    assert str(err.value).startswith(f"{p}: line 3: ")


@pytest.mark.parametrize(
    "cells, message",
    [
        (["2014", lei("aa")], "expected 8 fields, got 2"),
        (["20x4", lei("aa"), "Bank A", "DE", "1", "1", "FR", "1"], "column year: not an integer"),
        (["2014", lei("aa"), "Bank A", "DE", "lots", "1", "FR", "1"], "column total_assets: not a number"),
        (["2014", lei("aa"), "Bank A", "DE", "1", "inf", "FR", "1"], "column capital: non-finite"),
    ],
)
def test_row_errors_name_file_and_line(tmp_path, cells, message):
    p = tmp_path / "p.csv"
    write_rows(p, [cells, [2014, lei("bb"), "Bank B", "FR", 80.0, 8.0, "DE", 4.0]])
    with pytest.raises(InputError, match=message) as err:
        load_panel(p)
    assert str(err.value).startswith(f"{p}: line 2: ")


def test_exposure_total_beyond_float_range_rejected(tmp_path):
    p = tmp_path / "p.csv"
    write_rows(
        p,
        [
            [2014, lei("aa"), "Bank A", "DE", 120.0, 12.0, "FR", 1.7e308],
            [2014, lei("bb"), "Bank B", "FR", 80.0, 8.0, "IT", 1.7e308],
            [2014, lei("cc"), "Bank C", "IT", 80.0, 8.0, "DE", 1.7e308],
            [2016, lei("aa"), "Bank A", "DE", 120.0, 12.0, "FR", 1.7e308],
        ],
    )
    with pytest.raises(InputError, match="year 2014: exposure amounts sum beyond the float range") as err:
        load_panel(p)
    assert str(err.value).startswith(f"{p}: line 3: ")


def test_exposure_totals_are_per_year(tmp_path):
    p = tmp_path / "p.csv"
    write_rows(
        p,
        [
            [year, lei(tag), f"Bank {tag}", country, 120.0, 12.0, exp_country, amount]
            for year in (2014, 2016)
            for tag, country, exp_country, amount in (("aa", "DE", "FR", 1.7e308), ("bb", "FR", "DE", 1.0))
        ],
    )
    assert load_panel(p).years == [2014, 2016]


def test_manifest_mismatch_detected(tmp_path):
    panel = tiny_panel()
    path = tmp_path / "p.csv"
    write_panel(panel, path)
    manifest = path.with_suffix("").with_suffix(".manifest.json")
    manifest.write_text('{"years": [2014], "bank_counts": {"2014": 5}}', encoding="utf-8")
    with pytest.raises(InputError, match="manifest"):
        load_panel(path)


@pytest.mark.parametrize(
    "text, field",
    [
        ("[1, 2]", "a manifest must be a JSON object"),
        ('{"years": 5}', "field 'years'"),
        ('{"years": "2014"}', "field 'years'"),
        ('{"bank_counts": [61]}', "field 'bank_counts'"),
        ('{"bank_counts": {"x2014": 61}}', "field 'bank_counts': not an integer: 'x2014'"),
        ('{"bank_counts": {"2014": "2"}}', "field 'bank_counts': year 2014 count must be a whole number, got '2'"),
    ],
)
def test_malformed_manifest_names_file_and_field(tmp_path, text, field):
    path = tmp_path / "p.csv"
    write_panel(tiny_panel(), path)
    path.with_suffix(".manifest.json").write_text(text, encoding="utf-8")
    with pytest.raises(InputError, match=field) as exc:
        load_panel(path)
    assert "p.manifest.json" in str(exc.value)


@pytest.mark.parametrize(
    "text, message",
    [
        ("[" * 100_000, "maximum recursion depth"),
        ('{"years": 1' + "0" * 5000 + "}", "integer string conversion"),
    ],
)
def test_json_beyond_the_parsers_limits_is_invalid(tmp_path, text, message):
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(InputError, match=f"doc.json: invalid JSON: .*{message}"):
        read_json_object(path, "manifest")


def test_csv_field_beyond_the_parsers_limit_names_the_line(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text(",".join(CSV_HEADER) + '\n"' + "1" * 200_000 + "\n", encoding="utf-8")
    with pytest.raises(InputError, match="p.csv: line 2: field larger than field limit"):
        load_panel(path)


# ---------------------------------------------------------------------------
# writers


def test_write_csv_streams_rows_with_lf_endings(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], ([k, f"x,{k}"] for k in range(2)))
    assert path.read_bytes() == b'a,b\n0,"x,0"\n1,"x,1"\n'


def test_csv_quote_matches_the_writer(tmp_path):
    texts = ["plain", "a,b", 'say "hi"', "two\nlines", "cr\r", " lead", "", "Zürich €"]
    # one rule on every Python: the csv module of 3.10-3.12 leaves "cr\r"
    # bare, which a reader takes for a line break
    assert [csv_quote(t) for t in texts] == [
        "plain", '"a,b"', '"say ""hi"""', '"two\nlines"', '"cr\r"', " lead", "", "Zürich €"
    ]
    path = tmp_path / "t.csv"
    write_csv(path, ["x", "y"], [[t, "1"] for t in texts])
    written = path.read_bytes()
    assert written == ("x,y\n" + "".join(f"{csv_quote(t)},1\n" for t in texts)).encode("utf-8")
    write_csv_text(path, ["x", "y"], (f"{csv_quote(t)},1\n" for t in texts))
    assert path.read_bytes() == written


def test_cells_leave_missing_values_empty():
    assert [_cell(v) for v in (None, math.nan, 0.1, 3, math.inf)] == [
        "", "", "0.10000000000000001", "3", "inf"
    ]


def test_write_json_sorts_keys_and_refuses_nan(tmp_path):
    path = tmp_path / "d.json"
    write_json(path, {"b": [1.5, None], "a": {"y": 1, "x": 0.1}})
    assert path.read_bytes() == b'{"a": {"x": 0.1, "y": 1}, "b": [1.5, null]}\n'
    write_json(path, {"b": 1, "a": 2}, indent=2)
    assert path.read_bytes() == b'{\n  "a": 2,\n  "b": 1\n}\n'
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            write_json(tmp_path / "bad.json", {"v": [bad]})
    assert not (tmp_path / "bad.json").exists()


# bank ids that JSON escapes: a quote, a backslash, a control character,
# non-ASCII text and the empty string
ESCAPED_IDS = ['q"uote', "back\\slash", "ctl\x01\t", "Zürich €", "", "plain"]


def record(windows, fails):
    """Snapshots of a cascade record: bank k is live in windows 0 to
    fails[k], or in every window where fails[k] is None."""
    return [
        {
            "time": 0.1 * t,
            "distress": {
                b: t * 0.7 + k / 3.0 for k, b in enumerate(ESCAPED_IDS) if fails[k] is None or t <= fails[k]
            },
        }
        for t in range(windows)
    ]


def in_blocks(history, size):
    """The snapshots as an iterator of lists of at most `size`, with an
    empty list first."""
    yield []
    for start in range(0, len(history), size):
        yield history[start:start + size]


STREAM_CASES = {
    # one run of windows, one block
    "no failure": (record(5, [None] * 6), 5),
    "failure in the last window": (record(6, [None, 4, None, None, None, None]), 6),
    # every bank gone by window 3, which ends the record
    "every bank failing early": (record(4, [0, 1, 2, 3, 3, 3]), 4),
    "block boundary inside a run": (record(9, [None, 2, None, 6, None, None]), 2),
    "one window per block": (record(4, [1, None, None, None, 2, None]), 1),
    "empty iterator": ([], 3),
}


@pytest.mark.parametrize("key", ["a", "history", "z"])
@pytest.mark.parametrize("case", sorted(STREAM_CASES))
def test_write_json_streams_a_value_as_json_dumps_writes_it(tmp_path, case, key):
    history, size = STREAM_CASES[case]
    others = {"failed": [{"bank": b, "round": 1} for b in ESCAPED_IDS], "losses": dict.fromkeys(ESCAPED_IDS, 0.5)}
    path = tmp_path / "d.json"
    write_json(path, {**others, key: in_blocks(history, size)})
    expected = json.dumps({**others, key: history}, sort_keys=True, allow_nan=False) + "\n"
    assert path.read_bytes() == expected.encode("utf-8")
    write_json(path, {key: in_blocks(history, size)})
    assert path.read_bytes() == (json.dumps({key: history}, sort_keys=True) + "\n").encode("utf-8")


def test_write_json_encodes_every_other_value_before_the_file(tmp_path):
    started = []

    def history():
        started.append(True)
        yield [{"time": 0.0}]

    path = tmp_path / "bad.json"
    with pytest.raises(ValueError):
        write_json(path, {"history": history(), "z": [math.nan]})
    assert not path.exists() and not started
    # a NaN in a streamed list removes the part written
    with pytest.raises(ValueError):
        write_json(path, {"history": iter([[1.0], [math.inf]]), "z": 1})
    assert not path.exists()


# ---------------------------------------------------------------------------
# synthesis


def test_synthesize_counts_and_totals():
    panel = synthesize_panel(CALIB, seed=42)
    assert panel.years == [2014, 2023]
    for year, cfg in CALIB.items():
        recs = panel.records[year]
        assert len(recs) == cfg["n_banks"]
        total = sum(r.total_exposure() for r in recs)
        assert total == pytest.approx(cfg["total_exposure"], rel=1e-9)


def test_synthesize_deterministic_and_byte_identical(tmp_path):
    a = synthesize_panel(CALIB, seed=42)
    b = synthesize_panel(CALIB, seed=42)
    assert a == b
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_panel(a, pa)
    write_panel(b, pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_synthesize_seed_changes_draws():
    a = synthesize_panel(CALIB, seed=42)
    b = synthesize_panel(CALIB, seed=43)
    assert a != b


def test_synthesize_two_banks_sum():
    spec = {2014: {"n_banks": 2, "total_exposure": 10.0, "country_list": ["DE", "FR"]}}
    panel = synthesize_panel(spec, seed=0)
    total = sum(r.total_exposure() for r in panel.records[2014])
    assert total == pytest.approx(10.0, rel=1e-12)


def test_synthesize_rejects_single_bank():
    spec = {2014: {"n_banks": 1, "total_exposure": 10.0, "country_list": ["DE"]}}
    with pytest.raises(DomainError):
        synthesize_panel(spec, seed=0)


@pytest.mark.parametrize("sigma", [400.0, 1e300])
def test_synthesize_rejects_sigma_that_overflows_the_draws(sigma):
    # the draws or their sum overflow, and the rescaling made NaN of them
    with pytest.raises(DomainError, match=re.escape(f"year 2014: sigma {sigma} leaves the float range")):
        synthesize_panel(CALIB, seed=42, sigma=sigma)


def test_synthesized_panel_round_trips(tmp_path):
    panel = synthesize_panel(CALIB, seed=7)
    path = tmp_path / "synth.csv"
    write_panel(panel, path)
    assert load_panel(path) == panel


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**63 - 1),
    n=st.integers(min_value=2, max_value=9),
    total=st.floats(min_value=1.0, max_value=1e6, allow_nan=False),
    sigma=st.floats(min_value=0.0, max_value=3.0),
)
def test_synthesize_invariants(seed, n, total, sigma):
    spec = {2020: {"n_banks": n, "total_exposure": total, "country_list": ["DE", "FR", "IT"]}}
    panel = synthesize_panel(spec, seed=seed, sigma=sigma)
    recs = panel.records[2020]
    assert len(recs) == n
    assert sum(r.total_exposure() for r in recs) == pytest.approx(total, rel=1e-9)
    assert all(v >= 0 for r in recs for v in r.exposures.values())
    assert len({r.lei for r in recs}) == n
    again = synthesize_panel(spec, seed=seed, sigma=sigma)
    assert again == panel


def test_bank_record_total_exposure():
    r = BankRecord(lei("aa"), "A", "DE", 1.0, 1.0, {"FR": 2.0, "IT": 3.0})
    assert r.total_exposure() == 5.0
