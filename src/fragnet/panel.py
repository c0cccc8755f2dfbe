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
import io
import json
import math
import warnings
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain
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


@contextmanager
def _output(path: Path):
    """An output file open for UTF-8 text with LF line endings. An error
    before the block ends removes the file."""
    fh = path.open("w", newline="", encoding="utf-8")
    try:
        with fh:
            yield fh
    except BaseException:
        path.unlink(missing_ok=True)
        raise


@contextmanager
def csv_table(path: Path, header: list[str]):
    """A UTF-8 CSV table with LF line endings, open for its rows: the header
    is written, and the block writes chunks of text to the file it is given.
    Chunks hold whole rows, each ended in LF, with their text cells quoted
    by `csv_quote`. An error before the block ends removes the file."""
    with _output(path) as fh:
        fh.write(",".join(map(csv_quote, header)) + "\n")
        yield fh


def write_csv_text(path: Path, header: list[str], chunks) -> None:
    """`csv_table` written from an iterable of chunks, as they come."""
    with csv_table(path, header) as fh:
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
    JSON text, each chunk the items of an array (encoded, and joined with
    ", ") or empty. It is written as one JSON array of the chunks' items,
    chunk by chunk as they come, so the array is never held whole. Every
    other value is encoded before the file is opened, so an error there
    leaves no file, and an error in a streamed chunk removes the file.
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
        chunks = _streamed_object(members)
    else:
        chunks = [encode(doc)]
    with _output(path) as fh:
        # a multi-MB document is written as it comes, never concatenated
        fh.writelines(chunks)
        fh.write("\n")


def _streamed_object(members):
    """The text of a JSON object from `write_json`'s members, chunk by chunk."""
    yield "{"
    for k, (text, chunks) in enumerate(members):
        yield ", " + text if k else text
        if chunks is not None:
            sep = ""
            for chunk in chunks:
                if chunk:
                    # apart, so that a large chunk is not copied
                    yield sep
                    yield chunk
                    sep = ", "
            yield "]"
    yield "}"


# Every input is read through the functions below: one implementation and
# one wording per rule. Errors name the file, and the line and column of a
# CSV field or the field of a JSON document.

# bytes read at a time from an input file
_BLOCK_BYTES = 2**16


def _text_blocks(path: Path) -> Iterator[str]:
    """The text of an input file in blocks of whole lines, each cut from the
    bytes read at their last line break (LF, CR or CRLF, a CRLF never split)
    or the rest of the file, and decoded as UTF-8 on its own: no character
    holds a line-break byte. A missing file is an InputError, and so is a
    byte that is not UTF-8, raised after the whole lines before it."""

    def line_breaks(data) -> int:
        # NumPy counts bytes about six times faster than bytes.count
        lf = int(np.count_nonzero(np.frombuffer(data, np.uint8) == 10))
        return lf + data.count(b"\r") - data.count(b"\r\n") if b"\r" in data else lf

    if not path.exists():
        raise InputError(f"input file not found: {path}")
    line = 1  # the line the next block starts on
    data = bytearray()  # the bytes read and not yet yielded
    with path.open("rb") as fh:
        while True:
            chunk = fh.read(_BLOCK_BYTES)
            start = len(data)
            data += chunk
            # after the chunk's last line break, but not a CR at its end, which
            # may be the first half of a CRLF; at the file's end, after all
            cut = max(data.rfind(b"\n", start), data.rfind(b"\r", start, -1)) + 1 if chunk else len(data)
            if chunk and not cut:
                continue
            block = data[:cut]
            del data[:cut]
            try:
                text = block.decode("utf-8")
            except UnicodeDecodeError as exc:
                before = block[:exc.start]
                whole = max(before.rfind(b"\n"), before.rfind(b"\r")) + 1
                if whole:
                    yield before[:whole].decode("utf-8")
                raise InputError(
                    f"{path}: line {line + line_breaks(before)}: byte {block[exc.start]:#04x} is not UTF-8"
                ) from exc
            if text:
                yield text
            if not chunk:
                return
            line += line_breaks(block)


def read_csv(path: Path, header: list[str], what: str):
    """The rows of an input CSV table, a block at a time: each block is a
    pair (lines, columns) of the rows' line numbers and of their fields,
    one sequence per column, in file order. The header is checked and blank
    rows are skipped. An empty file, another header, a row of another field
    count, malformed CSV or a byte that is not UTF-8 is an InputError naming
    the file (and the line), raised after the block of the rows before it;
    `what` names the table in a header error.

    This is the one CSV tokenizer of the inputs. A block of text with no
    double quote, no NUL and no field longer than csv.field_size_limit(),
    whose lines all hold the header's field count, is split at its line
    breaks and commas. From the first other block, the rest of the file
    goes through csv.reader, the only reading of a quoted field. Both give
    the same rows, line numbers and errors."""
    width = len(header)
    blocks = _text_blocks(path)
    line = 0  # the lines of the blocks before this one
    for text in blocks:
        if '"' in text or "\0" in text or _field_beyond_limit(text):
            break
        lf = text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text
        if lf[-1] != "\n":  # the file's last line
            lf += "\n"
        start = line
        if not line:
            first, _, lf = lf.partition("\n")
            _check_header(path, first.split(",") if first else [], header, what)
            start = 1
        count = lf.count("\n")
        # each line's fields, then a field "\n" of its own
        fields = lf.replace("\n", ",\n,").split(",")
        fields.pop()  # the empty text after the last line break
        if len(fields) != (width + 1) * count or fields[width::width + 1].count("\n") != count:
            break  # a blank row or a row of another field count
        line = start + count
        if count:
            yield range(start + 1, line + 1), [fields[k::width + 1] for k in range(width)]
    else:
        if not line:
            raise InputError(f"{path}: empty file")
        return
    yield from _csv_blocks(path, chain([text], blocks), line, header, what)


def read_csv_rows(path: Path, header: list[str], what: str):
    """`read_csv`'s rows one at a time, each its line number and then its
    fields."""
    for lines, columns in read_csv(path, header, what):
        yield from zip(lines, *columns)


def _field_beyond_limit(text: str) -> bool:
    """Whether a field of the text is longer than csv.field_size_limit(),
    which csv.reader refuses."""
    limit = csv.field_size_limit()
    return len(text) > limit and max(map(len, text.replace("\r", ",").replace("\n", ",").split(","))) > limit


def _check_header(path: Path, first: list[str], header: list[str], what: str) -> None:
    if first != header:
        raise InputError(f"{path}: bad {what} header {first!r}, expected {header!r}")


def _csv_blocks(path: Path, texts, line: int, header: list[str], what: str):
    """`read_csv`'s blocks of the rest of a file, given as its blocks of
    text after `line` lines, read through csv.reader. A byte that is not
    UTF-8 ends the text, and its error is the fault if no row has one."""
    size = 0  # the characters read since the last block
    fault = None

    def lines():
        nonlocal size, fault
        try:
            for text in texts:
                for source in io.StringIO(text, newline=""):
                    size += len(source)
                    yield source
        except InputError as exc:
            fault = exc

    width = len(header)
    reader = csv.reader(lines())
    numbers: list[int] = []
    rows: list[list[str]] = []
    try:
        if not line:  # the file's first text, which holds its first line
            _check_header(path, next(reader), header, what)
        for row in reader:
            if not row:
                continue
            if len(row) != width:
                fault = InputError(
                    f"{path}: line {line + reader.line_num}: expected {width} fields, got {len(row)}"
                )
                break
            numbers.append(line + reader.line_num)
            rows.append(row)
            if size >= _BLOCK_BYTES:
                yield numbers, list(zip(*rows))
                numbers, rows, size = [], [], 0
    except csv.Error as exc:
        fault = InputError(f"{path}: line {line + reader.line_num}: {exc}")
    if rows:
        yield numbers, list(zip(*rows))
    if fault is not None:
        raise fault


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
        doc = json.loads("".join(_text_blocks(path)), object_pairs_hook=unique_keys)
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
    totals: dict[int, float] = {}

    for line, year_s, lei, name, country, assets_s, capital_s, exp_country, exp_s in read_csv_rows(
        path, CSV_HEADER, "panel"
    ):
        year = parse_year(year_s, path, line)
        _check_lei(lei, path, line)
        _warn_country(country, path, line)
        _warn_country(exp_country, path, line)
        assets = parse_nonnegative(assets_s, path, line, "total_assets")
        capital = parse_nonnegative(capital_s, path, line, "capital")
        amount = parse_nonnegative(exp_s, path, line, "exposure_amount")

        key = (year, lei)
        rec = banks.get(key)
        if rec is not None and exp_country in rec.exposures:
            raise InputError(
                f"{path}: line {line}: duplicate identifier: lei {lei} listed twice for "
                f"{exp_country} in year {year}"
            )
        # a year whose exposures sum beyond the float range would give
        # infinite weights and degrees
        total = totals.get(year, 0.0) + amount
        if math.isinf(total):
            raise InputError(
                f"{path}: line {line}: year {year}: exposure amounts sum beyond the float range"
            )
        totals[year] = total
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
