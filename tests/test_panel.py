import math
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
    load_panel,
    synthesize_panel,
    write_csv,
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
    with pytest.raises(InputError, match="duplicate"):
        load_panel(p)


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
    assert "line 2" in msg
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
    with pytest.raises(InputError, match="lei"):
        load_panel(p)


def test_unknown_country_kept_with_warning(tmp_path):
    p = tmp_path / "p.csv"
    write_rows(
        p,
        [
            [2014, lei("aa"), "Bank A", "DE", 120.0, 12.0, "XX", 10.0],
            [2014, lei("bb"), "Bank B", "FR", 80.0, 8.0, "DE", 4.0],
        ],
    )
    with pytest.warns(UserWarning, match="XX"):
        panel = load_panel(p)
    assert panel.records[2014][0].exposures == {"XX": 10.0}


def test_single_bank_year_rejected(tmp_path):
    p = tmp_path / "p.csv"
    write_rows(p, [[2014, lei("aa"), "Bank A", "DE", 120.0, 12.0, "FR", 10.0]])
    with pytest.raises(InputError, match="2 banks"):
        load_panel(p)


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
    with pytest.raises(InputError, match=lei("aa")):
        load_panel(p)


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
        ('{"bank_counts": {"x2014": 61}}', "field 'bank_counts': 'x2014'"),
        ('{"bank_counts": {"2014": "2"}}', "field 'bank_counts': year 2014 count '2'"),
    ],
)
def test_malformed_manifest_names_file_and_field(tmp_path, text, field):
    path = tmp_path / "p.csv"
    write_panel(tiny_panel(), path)
    path.with_suffix(".manifest.json").write_text(text, encoding="utf-8")
    with pytest.raises(InputError, match=field) as exc:
        load_panel(path)
    assert "p.manifest.json" in str(exc.value)


# ---------------------------------------------------------------------------
# writers


def test_write_csv_streams_rows_with_lf_endings(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], ([k, f"x,{k}"] for k in range(2)))
    assert path.read_bytes() == b'a,b\n0,"x,0"\n1,"x,1"\n'


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
