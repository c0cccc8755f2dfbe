"""Bank-level exposure panel: data model, CSV round-trip, synthetic generation.

A panel holds, per observation year, one record per bank with its country-level
exposure vector. The CSV layout is long form, one row per (bank,
counterparty-country) pair with the bank-level fields repeated:

    year,lei,name,country,total_assets,capital,exposure_country,exposure_amount

Amounts are million EUR stored as float64. A companion ``<stem>.manifest.json``
lists the years and expected bank counts; when present it is checked on load.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DomainError, InputError

CSV_HEADER = [
    "year",
    "lei",
    "name",
    "country",
    "total_assets",
    "capital",
    "exposure_country",
    "exposure_amount",
]

# ISO 3166-1 alpha-2 assigned codes. Unknown codes are kept with a warning
# because the sample's country roster shifts between years.
ISO_ALPHA2 = frozenset(
    """
    AD AE AF AG AI AL AM AO AQ AR AS AT AU AW AX AZ BA BB BD BE BF BG BH BI BJ
    BL BM BN BO BQ BR BS BT BV BW BY BZ CA CC CD CF CG CH CI CK CL CM CN CO CR
    CU CV CW CX CY CZ DE DJ DK DM DO DZ EC EE EG EH ER ES ET FI FJ FK FM FO FR
    GA GB GD GE GF GG GH GI GL GM GN GP GQ GR GS GT GU GW GY HK HM HN HR HT HU
    ID IE IL IM IN IO IQ IR IS IT JE JM JO JP KE KG KH KI KM KN KP KR KW KY KZ
    LA LB LC LI LK LR LS LT LU LV LY MA MC MD ME MF MG MH MK ML MM MN MO MP MQ
    MR MS MT MU MV MW MX MY MZ NA NC NE NF NG NI NL NO NP NR NU NZ OM PA PE PF
    PG PH PK PL PM PN PR PS PT PW PY QA RE RO RS RU RW SA SB SC SD SE SG SH SI
    SJ SK SL SM SN SO SR SS ST SV SX SY SZ TC TD TF TG TH TJ TK TL TM TN TO TR
    TT TV TW TZ UA UG UM US UY UZ VA VC VE VG VI VN VU WF WS YE YT ZA ZM ZW
    """.split()
)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _cell(value) -> str:
    """A table cell: empty for a missing value (None or NaN), 17 significant
    digits for any other float."""
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return _fmt(value)
    return str(value)


def write_csv(path: Path, header: list[str], rows) -> None:
    """Write a UTF-8 CSV table with LF line endings: the header, then the
    rows of any iterable as they come. Cells are written as given, so
    callers format floats with `_fmt` or `_cell`."""
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path: Path, doc, indent: int | None = None) -> None:
    """Write a UTF-8 JSON document with sorted keys, LF line endings and a
    final newline. NaN and infinities raise ValueError: RFC 8259 JSON has no
    value for them."""
    text = json.dumps(doc, indent=indent, sort_keys=True, allow_nan=False)
    with path.open("w", newline="\n", encoding="utf-8") as fh:
        fh.write(text + "\n")


@contextmanager
def open_input(path: Path):
    """An input file opened as UTF-8 text. A missing file is an InputError,
    and so is a byte that is not UTF-8, named with its file and line."""
    if not path.exists():
        raise InputError(f"input file not found: {path}")
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError:
        # the stream decodes in chunks, so place the byte in the whole file
        data = path.read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            raise InputError(f"{path}: line {line}: byte {data[exc.start]:#04x} is not UTF-8") from exc
        raise


@dataclass
class BankRecord:
    """One bank-year observation with its country-level exposure vector."""

    lei: str
    name: str
    country: str
    total_assets: float
    capital: float
    exposures: dict[str, float] = field(default_factory=dict)

    def total_exposure(self) -> float:
        return float(sum(self.exposures.values()))


@dataclass
class ExposurePanel:
    """Observation years mapped to their bank records, years ascending."""

    years: list[int]
    records: dict[int, list[BankRecord]]


def _check_lei(lei: str, line: int) -> None:
    if len(lei) != 20 or not lei.isalnum():
        raise InputError(
            f"line {line}: lei {lei!r} is not a 20-character alphanumeric identifier"
        )


def _warn_country(code: str, line: int) -> None:
    if code not in ISO_ALPHA2:
        warnings.warn(
            f"line {line}: unknown country code {code!r} retained", stacklevel=3
        )


def _parse_money(text: str, line: int, column: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise InputError(f"line {line}: column {column}: not a number: {text!r}") from exc
    if not np.isfinite(value):
        raise InputError(f"line {line}: column {column}: non-finite value {text!r}")
    if value < 0:
        raise InputError(f"line {line}: column {column}: negative value {value}")
    return value


def load_panel(path: str | Path) -> ExposurePanel:
    """Read and validate a panel CSV.

    When ``<stem>.manifest.json`` exists next to the file, its year and
    bank-count expectations are verified too.

    Parameters
    ----------
    path : str or Path
        CSV file in the long-form schema documented at module level.

    Returns
    -------
    ExposurePanel

    Raises
    ------
    InputError
        Missing file, malformed rows, duplicate identifiers, negative
        amounts, or a manifest mismatch. Messages carry line numbers.
    """
    path = Path(path)
    banks: dict[tuple[int, str], BankRecord] = {}
    seen_pairs: set[tuple[int, str, str]] = set()

    with open_input(path) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration as exc:
            raise InputError(f"{path}: empty file") from exc
        if header != CSV_HEADER:
            raise InputError(
                f"{path}: bad header {header!r}, expected {CSV_HEADER!r}"
            )
        for row in reader:
            line = reader.line_num
            if not row:
                continue
            if len(row) != len(CSV_HEADER):
                raise InputError(
                    f"line {line}: expected {len(CSV_HEADER)} fields, got {len(row)}"
                )
            year_s, lei, name, country, assets_s, capital_s, exp_country, exp_s = row
            try:
                year = int(year_s)
            except ValueError as exc:
                raise InputError(f"line {line}: column year: not an integer: {year_s!r}") from exc
            _check_lei(lei, line)
            _warn_country(country, line)
            _warn_country(exp_country, line)
            assets = _parse_money(assets_s, line, "total_assets")
            capital = _parse_money(capital_s, line, "capital")
            amount = _parse_money(exp_s, line, "exposure_amount")

            key = (year, lei)
            pair = (year, lei, exp_country)
            if pair in seen_pairs:
                raise InputError(
                    f"line {line}: duplicate identifier: lei {lei} listed twice for "
                    f"{exp_country} in year {year}"
                )
            seen_pairs.add(pair)
            rec = banks.get(key)
            if rec is None:
                banks[key] = BankRecord(lei, name, country, assets, capital, {exp_country: amount})
            else:
                if (rec.name, rec.country, rec.total_assets, rec.capital) != (
                    name,
                    country,
                    assets,
                    capital,
                ):
                    raise InputError(
                        f"line {line}: duplicate identifier: lei {lei} in year {year} "
                        f"has conflicting bank-level fields"
                    )
                rec.exposures[exp_country] = amount

    if not banks:
        raise InputError(f"{path}: no data rows")

    records: dict[int, list[BankRecord]] = {}
    for (year, _), rec in banks.items():
        records.setdefault(year, []).append(rec)
    years = sorted(records)
    for year in years:
        records[year].sort(key=lambda r: r.lei)
        if len(records[year]) < 2:
            raise InputError(f"year {year}: fewer than 2 banks, a network needs at least 2")

    panel = ExposurePanel(years=years, records=records)

    mpath = path.with_suffix(".manifest.json")
    if mpath.exists():
        _check_against_manifest(panel, mpath)
    return panel


def _check_against_manifest(panel: ExposurePanel, mpath: Path) -> None:
    try:
        with open_input(mpath) as fh:
            manifest = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputError(f"{mpath}: invalid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise InputError(f"{mpath}: a manifest must be a JSON object, got {manifest!r}")
    years = manifest.get("years")
    counts = manifest.get("bank_counts", {})
    if years is not None and (not isinstance(years, list) or years != panel.years):
        raise InputError(f"{mpath}: field 'years' {years!r} does not match data years {panel.years}")
    if not isinstance(counts, dict):
        raise InputError(f"{mpath}: field 'bank_counts' must map years to bank counts, got {counts!r}")
    for year_s, expected in counts.items():
        try:
            year = int(year_s)
        except ValueError as exc:
            raise InputError(f"{mpath}: field 'bank_counts': {year_s!r} is not a year") from exc
        if isinstance(expected, bool) or not isinstance(expected, (int, float)):
            raise InputError(f"{mpath}: field 'bank_counts': year {year} count {expected!r} is not a number")
        actual = len(panel.records.get(year, []))
        if actual != expected:
            raise InputError(
                f"{mpath}: year {year} expects {expected} banks, data has {actual}"
            )


def write_panel(panel: ExposurePanel, path: str | Path) -> None:
    """Write a panel CSV (rows sorted by year, lei, exposure country) plus manifest.

    Floats are written with 17 significant digits so load_panel(write_panel(p))
    reproduces p exactly.
    """
    path = Path(path)
    rows = (
        [year, rec.lei, rec.name, rec.country, _fmt(rec.total_assets), _fmt(rec.capital),
         exp_country, _fmt(rec.exposures[exp_country])]
        for year in panel.years
        for rec in sorted(panel.records[year], key=lambda r: r.lei)
        for exp_country in sorted(rec.exposures)
    )
    write_csv(path, CSV_HEADER, rows)
    doc = {
        "years": panel.years,
        "bank_counts": {str(y): len(panel.records[y]) for y in panel.years},
    }
    write_json(path.with_suffix(".manifest.json"), doc, indent=2)


def _calibration_field(path: Path, year: int, cfg: dict, key: str):
    """One field of a calibration year, checked for its type, or an
    InputError naming the file, the year and the field."""
    if key not in cfg:
        raise InputError(f"{path}: year {year}: missing field {key!r}")
    value = cfg[key]
    if key == "country_list":
        if isinstance(value, list) and all(isinstance(c, str) for c in value):
            return list(value)
        raise InputError(f"{path}: year {year}: field {key!r} must be a list of country codes")
    whole = key == "n_banks"
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:  # an integer beyond the float range
            x = math.inf
        if math.isfinite(x) and not (whole and not x.is_integer()):
            return int(x) if whole else x
    kind = "a whole number" if whole else "a finite number"
    raise InputError(f"{path}: year {year}: field {key!r} must be {kind}, got {value!r}")


def load_calibration(path: str | Path) -> dict[int, dict]:
    """Read a synthesis spec (year -> n_banks, total_exposure, country_list)
    from JSON, rejecting a missing or ill-typed field with an InputError."""
    path = Path(path)
    try:
        with open_input(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise InputError(f"{path}: a calibration must be a JSON object of years")
    calibration = {}
    for key, cfg in raw.items():
        try:
            year = int(key)
        except ValueError as exc:
            raise InputError(f"{path}: years must be integers, got {key!r}") from exc
        if not isinstance(cfg, dict):
            raise InputError(f"{path}: year {year}: entry must be a JSON object, got {cfg!r}")
        calibration[year] = {
            k: _calibration_field(path, year, cfg, k)
            for k in ("n_banks", "total_exposure", "country_list")
        }
    return calibration


def synthesize_panel(
    spec: dict[int, dict], seed: int, sigma: float = 1.0
) -> ExposurePanel:
    """Generate a deterministic synthetic panel matching per-year aggregates.

    Parameters
    ----------
    spec : dict
        Maps year to ``{"n_banks": int, "total_exposure": float,
        "country_list": [codes]}``. Bank count and total exposure are met
        exactly; bank i keeps the same identifier across years so balanced
        subsets are non-empty.
    seed : int
        Master seed. Identical (spec, seed, sigma) give identical panels.
    sigma : float
        Log-normal shape of the raw exposure draws before rescaling.
        Larger values give heavier right skew across (bank, country) cells.

    Returns
    -------
    ExposurePanel
    """
    if not spec:
        raise DomainError("empty synthesis spec")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    records: dict[int, list[BankRecord]] = {}
    for year in sorted(spec):
        cfg = spec[year]
        n = int(cfg["n_banks"])
        total = float(cfg["total_exposure"])
        countries = list(cfg["country_list"])
        if n < 2:
            raise DomainError(f"year {year}: n_banks must be at least 2, got {n}")
        if total <= 0:
            raise DomainError(f"year {year}: total_exposure must be positive, got {total}")
        if not countries:
            raise DomainError(f"year {year}: empty country_list")

        draws = rng.lognormal(mean=0.0, sigma=sigma, size=(n, len(countries)))
        draws *= total / draws.sum()
        asset_mult = rng.uniform(5.0, 15.0, size=n)
        capital_ratio = rng.uniform(0.08, 0.16, size=n)

        year_records = []
        for i in range(n):
            exposures = {countries[k]: float(draws[i, k]) for k in range(len(countries))}
            assets = float(draws[i].sum() * asset_mult[i])
            year_records.append(
                BankRecord(
                    lei=f"SYNTH{i:015d}",
                    name=f"Synthetic Bank {i:03d}",
                    country=countries[i % len(countries)],
                    total_assets=assets,
                    capital=float(assets * capital_ratio[i]),
                    exposures=exposures,
                )
            )
        records[year] = year_records
    return ExposurePanel(years=sorted(records), records=records)
