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
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache
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


def csv_quote(text: str) -> str:
    """One CSV text cell: quoted, with its quotes doubled, where it holds a
    comma, a double quote, a line feed or a carriage return, and as given
    otherwise. This is the one quoting rule of every CSV output."""
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def write_csv_text(path: Path, header: list[str], chunks) -> None:
    """Write a UTF-8 CSV table with LF line endings: the header, then each
    chunk of text as it comes. Chunks hold whole rows, each ended in LF, with
    their text cells quoted by `csv_quote`."""
    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(map(csv_quote, header)) + "\n")
        fh.writelines(chunks)


def write_csv(path: Path, header: list[str], rows) -> None:
    """`write_csv_text` for a table given as rows of cells, from any
    iterable as they come. A cell is written as its `str`, so callers format
    floats with `_fmt` or `_cell`."""
    write_csv_text(path, header, (",".join([csv_quote(str(c)) for c in row]) + "\n" for row in rows))


def write_json(path: Path, doc, indent: int | None = None) -> None:
    """Write a UTF-8 JSON document with sorted keys, LF line endings and a
    final newline. NaN and infinities raise ValueError: RFC 8259 JSON has no
    value for them.

    At indent=None a top-level value of a dict `doc` may be an iterator of
    lists. It is written as one JSON array of the lists' items, encoded one
    list at a time, so the array is never held whole; the bytes are those of
    the document with the lists joined. Every other value is encoded before
    the file is opened, so an error there leaves no file, and an error in a
    streamed list removes the file.
    """
    encode = json.JSONEncoder(indent=indent, sort_keys=True, allow_nan=False).encode
    if indent is None and isinstance(doc, dict) and any(isinstance(v, Iterator) for v in doc.values()):
        # each member as the text of a one-key object without its braces; a
        # streamed one as its key and an open array
        members = [
            (encode({key: []})[1:-2], doc[key]) if isinstance(doc[key], Iterator)
            else (encode({key: doc[key]})[1:-1], None)
            for key in sorted(doc)
        ]
        chunks = _streamed_object(members, encode)
    else:
        chunks = [encode(doc)]
    try:
        with path.open("w", newline="\n", encoding="utf-8") as fh:
            # a multi-MB document is written as it comes, never concatenated
            fh.writelines(chunks)
            fh.write("\n")
    except BaseException:
        path.unlink(missing_ok=True)
        raise


def _streamed_object(members, encode):
    """The text of a JSON object from `write_json`'s members, chunk by chunk."""
    yield "{"
    for k, (text, blocks) in enumerate(members):
        yield ", " + text if k else text
        if blocks is not None:
            sep = ""
            for block in blocks:
                if block:
                    yield sep + encode(block)[1:-1]
                    sep = ", "
            yield "]"
    yield "}"


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


# Every input is read through the functions below: one implementation and
# one wording per rule. Errors name the file, and the line and column of a
# CSV field or the field of a JSON document.


def read_csv(path: Path, header: list[str], what: str):
    """The rows of an input CSV table as (line, row) pairs, the header
    checked and blank rows skipped. An empty file, another header, a row of
    another field count or malformed CSV is an InputError naming the file
    (and the line); `what` names the table in a header error."""
    with open_input(path) as fh:
        reader = csv.reader(fh)
        try:
            first = next(reader, None)
            if first is None:
                raise InputError(f"{path}: empty file")
            if first != header:
                raise InputError(f"{path}: bad {what} header {first!r}, expected {header!r}")
            width = len(header)
            for row in reader:
                if not row:
                    continue
                if len(row) != width:
                    raise InputError(
                        f"{path}: line {reader.line_num}: expected {width} fields, got {len(row)}"
                    )
                yield reader.line_num, row
        except csv.Error as exc:
            raise InputError(f"{path}: line {reader.line_num}: {exc}") from exc


def _at(path: Path, line: int | None, column: str) -> str:
    # a CSV field's place, or a JSON field's when there is no line
    return f"{path}: {column}" if line is None else f"{path}: line {line}: column {column}"


def parse_year(text: str, path: Path, line: int | None, column: str = "year") -> int:
    """A year field: one int(), or an InputError naming the file, the line
    and the column (with no line, `column` names a JSON field). An
    underscore, which int() takes as a digit separator, is refused."""
    try:
        if "_" in text:
            raise ValueError(text)
        return int(text)
    except ValueError as exc:
        raise InputError(f"{_at(path, line, column)}: not an integer: {text!r}") from exc


def parse_nonnegative(text: str, path: Path, line: int, column: str) -> float:
    """A CSV number field that must be finite and not negative, or an
    InputError naming the file, the line and the column. An underscore,
    which float() takes as a digit separator, is refused."""
    try:
        if "_" in text:
            raise ValueError(text)
        value = float(text)
    except ValueError as exc:
        raise InputError(f"{_at(path, line, column)}: not a number: {text!r}") from exc
    if not math.isfinite(value):
        raise InputError(f"{_at(path, line, column)}: non-finite value {text!r}")
    if value < 0:
        raise InputError(f"{_at(path, line, column)}: negative value {value}")
    return value


def read_json_object(path: Path, what: str) -> dict:
    """An input JSON document that must be an object. Invalid JSON, a
    number of more digits or nesting deeper than the parser takes, an
    object that repeats a key, or another value is an InputError naming the
    file; `what` names the document."""

    def unique_keys(pairs):
        doc = {}
        for key, value in pairs:
            if key in doc:
                raise InputError(f"{path}: repeated key {key!r}")
            doc[key] = value
        return doc

    try:
        with open_input(path) as fh:
            doc = json.load(fh, object_pairs_hook=unique_keys)
    except (ValueError, RecursionError) as exc:
        raise InputError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{path}: a {what} must be a JSON object")
    return doc


def json_number(path: Path, where: str, value, whole: bool = False):
    """A JSON number that must be finite, and whole when asked (an int
    then, a float otherwise). A bool, a string or any other value is an
    InputError naming the file and `where` the value sits."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:  # an integer beyond the float range
            x = math.inf
        if math.isfinite(x) and (x.is_integer() or not whole):
            return int(x) if whole else x
    kind = "a whole number" if whole else "a finite number"
    raise InputError(f"{path}: {where} must be {kind}, got {value!r}")


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


def _check_lei(lei: str, path: Path, line: int) -> None:
    if len(lei) != 20 or not lei.isalnum():
        raise InputError(
            f"{path}: line {line}: lei {lei!r} is not a 20-character alphanumeric identifier"
        )


def _warn_country(code: str, path: Path, line: int) -> None:
    if code not in ISO_ALPHA2:
        warnings.warn(
            f"{path}: line {line}: unknown country code {code!r} retained", stacklevel=3
        )


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
        amounts, a year whose exposure amounts sum beyond the float range,
        or a manifest mismatch. Messages name the file and the line.
    """
    path = Path(path)
    banks: dict[tuple[int, str], BankRecord] = {}
    seen_pairs: set[tuple[int, str, str]] = set()
    totals: dict[int, float] = {}

    for line, row in read_csv(path, CSV_HEADER, "panel"):
        year_s, lei, name, country, assets_s, capital_s, exp_country, exp_s = row
        year = parse_year(year_s, path, line)
        _check_lei(lei, path, line)
        _warn_country(country, path, line)
        _warn_country(exp_country, path, line)
        assets = parse_nonnegative(assets_s, path, line, "total_assets")
        capital = parse_nonnegative(capital_s, path, line, "capital")
        amount = parse_nonnegative(exp_s, path, line, "exposure_amount")

        key = (year, lei)
        pair = (year, lei, exp_country)
        if pair in seen_pairs:
            raise InputError(
                f"{path}: line {line}: duplicate identifier: lei {lei} listed twice for "
                f"{exp_country} in year {year}"
            )
        seen_pairs.add(pair)
        # a year whose exposures sum beyond the float range would give
        # infinite weights and degrees
        total = totals.get(year, 0.0) + amount
        if math.isinf(total):
            raise InputError(
                f"{path}: line {line}: year {year}: exposure amounts sum beyond the float range"
            )
        totals[year] = total
        rec = banks.get(key)
        if rec is None:
            banks[key] = BankRecord(lei, name, country, assets, capital, {exp_country: amount})
        elif (rec.name, rec.country, rec.total_assets, rec.capital) != (name, country, assets, capital):
            raise InputError(
                f"{path}: line {line}: duplicate identifier: lei {lei} in year {year} "
                f"has conflicting bank-level fields"
            )
        else:
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
            raise InputError(f"{path}: year {year}: fewer than 2 banks, a network needs at least 2")

    panel = ExposurePanel(years=years, records=records)

    mpath = path.with_suffix(".manifest.json")
    if mpath.exists():
        _check_against_manifest(panel, mpath)
    return panel


def _check_against_manifest(panel: ExposurePanel, mpath: Path) -> None:
    manifest = read_json_object(mpath, "manifest")
    years = manifest.get("years")
    counts = manifest.get("bank_counts", {})
    if years is not None and (not isinstance(years, list) or years != panel.years):
        raise InputError(f"{mpath}: field 'years' {years!r} does not match data years {panel.years}")
    if not isinstance(counts, dict):
        raise InputError(f"{mpath}: field 'bank_counts' must map years to bank counts, got {counts!r}")
    for year_s, expected in counts.items():
        year = parse_year(year_s, mpath, None, "field 'bank_counts'")
        expected = json_number(mpath, f"field 'bank_counts': year {year} count", expected, whole=True)
        actual = len(panel.records.get(year, []))
        if actual != expected:
            raise InputError(f"{mpath}: year {year} expects {expected} banks, data has {actual}")


def write_panel(panel: ExposurePanel, path: str | Path) -> None:
    """Write a panel CSV (rows sorted by year, lei, exposure country) plus manifest.

    Floats are written with 17 significant digits so load_panel(write_panel(p))
    reproduces p exactly.
    """
    path = Path(path)
    q = lru_cache(maxsize=None)(csv_quote)  # each distinct text cell quoted once

    def chunks():
        # one chunk of text per bank record
        for year in panel.years:
            for rec in sorted(panel.records[year], key=lambda r: r.lei):
                head = (f"{year},{q(rec.lei)},{q(rec.name)},{q(rec.country)},"
                        f"{_fmt(rec.total_assets)},{_fmt(rec.capital)},")
                amounts = rec.exposures
                yield "".join([f"{head}{q(c)},{float(amounts[c]):.17g}\n" for c in sorted(amounts)])

    write_csv_text(path, CSV_HEADER, chunks())
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
    if key != "country_list":
        return json_number(path, f"year {year}: field {key!r}", value, whole=key == "n_banks")
    if isinstance(value, list) and all(isinstance(c, str) for c in value):
        return list(value)
    raise InputError(f"{path}: year {year}: field {key!r} must be a list of country codes")


def load_calibration(path: str | Path) -> dict[int, dict]:
    """Read a synthesis spec (year -> n_banks, total_exposure, country_list)
    from JSON, rejecting a missing or ill-typed field with an InputError."""
    path = Path(path)
    calibration = {}
    for key, cfg in read_json_object(path, "calibration").items():
        year = parse_year(key, path, None, "year key")
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
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            draws *= total / draws.sum()
        # a large sigma overflows the draws or their sum, which the rescaling
        # turns into NaN or all zeros
        if not (np.isfinite(draws).all() and draws.any()):
            raise DomainError(f"year {year}: sigma {sigma} leaves the float range in the log-normal draws")
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
