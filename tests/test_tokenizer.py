"""The CSV tokenizer and the edge-list reader against frozen copies of the
row-by-row readers they replace: every generated edge list gives the same
graph, bit for bit, or the same InputError text, and every generated table
the same rows and line numbers up to the same error. The block size is set
to a few bytes, so that faults fall on both sides of a block boundary. A
byte that is not UTF-8 is named after the rows before it: the reader gives
the row-by-row reader's fault on the lines before the byte, if any, and the
byte's error otherwise."""

import csv
import io
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fragnet import panel
from fragnet.errors import InputError
from fragnet.network import EDGE_HEADER, WeightedGraph, graph_from_edge_csv
from fragnet.panel import load_panel, parse_nonnegative, parse_year, read_csv_rows, write_panel

from conftest import bank


# ---------------------------------------------------------------------------
# the readers as they were before the tokenizer, frozen as the reference


def reference_read_csv(path: Path, header: list[str], what: str):
    with path.open(newline="", encoding="utf-8") as fh:
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


def reference_graph_from_edge_csv(path: Path) -> WeightedGraph:
    seen: dict[str, int] = {}
    pair_line: dict[tuple[int, int], int] = {}
    rows: list[int] = []
    cols: list[int] = []
    weights: list[float] = []
    year = year_line = None
    for line, (year_s, bank_i, bank_j, weight_s) in reference_read_csv(path, EDGE_HEADER, "edge-list"):
        row_year = parse_year(year_s, path, line)
        w = parse_nonnegative(weight_s, path, line, "weight")
        if year is None:
            year, year_line = row_year, line
        elif row_year != year:
            raise InputError(
                f"{path}: line {line}: year {row_year} differs from year {year} "
                f"on line {year_line}; an edge list holds one year"
            )
        i = seen.setdefault(bank_i, len(seen))
        j = seen.setdefault(bank_j, len(seen))
        if i == j:
            raise InputError(f"{path}: line {line}: self-loop on {bank_i}")
        pair = (i, j) if i < j else (j, i)
        if pair in pair_line:
            raise InputError(
                f"{path}: line {line}: pair {bank_i},{bank_j} already given on "
                f"line {pair_line[pair]}"
            )
        pair_line[pair] = line
        rows.append(i)
        cols.append(j)
        weights.append(w)
    banks = list(seen)
    if len(banks) < 2:
        raise InputError(f"{path}: fewer than 2 banks")
    matrix = np.zeros((len(banks), len(banks)))
    matrix[rows, cols] = weights
    matrix[cols, rows] = weights
    graph = WeightedGraph(banks, matrix, year)
    graph.validate()
    with np.errstate(over="ignore"):
        finite = np.isfinite(graph.degrees())
    if not finite.all():
        k = int(np.argmin(finite))
        line = min(at for pair, at in pair_line.items() if k in pair)
        raise InputError(
            f"{path}: line {line}: the edge weights of bank {banks[k]} sum beyond "
            f"the float range"
        )
    return graph


# ---------------------------------------------------------------------------
# generated files

LONG = "L" * 200_000  # beyond csv.field_size_limit()
EDGE = "E" * 131_072  # at csv.field_size_limit()
# bank ids, some of them holding a comma, a quote, an LF, a CR or characters
# of two, three and four bytes
BANKS = ["A", "B", "C", "D", "c,d", 'q"x', "l\nf", "r\rx", " s", "é€𝄞"]
GOOD_WEIGHTS = ["1.5", "2", "0", "-0.0", " 3 ", "1e-300", "4.25e2"]
# weights refused, and weights that overflow a degree
OTHER_WEIGHTS = ["inf", "-inf", "nan", "NaN", "-1", "-1e-9", "1_0", "x", "", "1e308", "1.7976931348623157e308"]
# year texts refused, of another year, or of 2014 written otherwise
OTHER_YEARS = ["2_014", "20x4", "", "2015", " 2014", "02014", "2014.0"]
FAULTS = ["year", "weight", "short", "long_row", "self_loop", "repeat", "nul", "long_field", "edge_field", "overflow"]
# block sizes in bytes: a block of about a line, of a few and of many
BLOCKS = [1, 2, 7, 23, 64, 2**16]


def cell(text: str, quote: bool) -> str:
    if quote or any(c in text for c in ',"\n\r'):
        return '"' + text.replace('"', '""') + '"'
    return text


@st.composite
def csv_text(draw, rows):
    """Rows written as CSV text: cells quoted where they must be and at
    random elsewhere, LF, CRLF or CR line endings, blank lines (or a line
    of one space) at random after the first row, and the last line ended
    or not."""
    ending = draw(st.sampled_from(["\n", "\r\n", "\r", None]))
    quote_all = draw(st.booleans())
    parts = []
    for k, row in enumerate(rows):
        if k and draw(st.sampled_from([False] * 7 + [True])):
            parts.append(draw(st.sampled_from(["", " "])))
        parts.append(",".join(cell(c, quote_all and draw(st.booleans())) for c in row))
    ends = [ending or draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in parts]
    text = "".join(p + e for p, e in zip(parts, ends))
    if parts and draw(st.booleans()):
        text = text[: -len(ends[-1])]
    return text


@st.composite
def edge_lists(draw):
    """An edge list of distinct pairs in one year, then up to three faults
    of any kind at random rows."""
    banks = draw(st.lists(st.sampled_from(BANKS), min_size=2, max_size=6, unique=True))
    pairs = [(a, b) for k, a in enumerate(banks) for b in banks[k + 1:]]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1, max_size=10))
    rows = [
        ["2014", *(p if draw(st.booleans()) else p[::-1]), draw(st.sampled_from(GOOD_WEIGHTS))]
        for p in chosen
    ]
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, len(rows) - 1))
        kind = draw(st.sampled_from(FAULTS))
        if kind == "repeat":
            row = list(draw(st.sampled_from(rows)))
            if len(row) > 2 and draw(st.booleans()):
                row[1], row[2] = row[2], row[1]
            rows.insert(k, row)
        elif kind == "overflow":
            bank_i = draw(st.sampled_from(banks))
            for other in ("X1", "X2"):
                rows.insert(k, ["2014", bank_i, other, "1.7976931348623157e308"])
        else:
            row = rows[k]
            field = draw(st.integers(0, len(row) - 1))
            if kind == "year":
                row[0] = draw(st.sampled_from(OTHER_YEARS))
            elif kind == "weight":
                row[-1] = draw(st.sampled_from(OTHER_WEIGHTS))
            elif kind == "short":
                del row[field]
            elif kind == "long_row":
                row.append(draw(st.sampled_from(["", "x"])))
            elif kind == "self_loop" and len(row) > 2:
                row[2] = row[1]
            elif kind == "nul":
                row[field] += "\0"
            elif kind == "long_field":
                row[field] = LONG
            elif kind == "edge_field":
                row[field] = EDGE
    header = draw(st.sampled_from([EDGE_HEADER] * 8 + [["year", "bank_i", "bank_j"], []]))
    return draw(csv_text([header, *rows]))


def read_both(read, reference, text: str, block: int):
    """The two readers' results on one file: a value or an InputError's text."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.csv"
        path.write_bytes(text.encode("utf-8"))
        results = []
        for reader in (read, reference):
            try:
                with mock.patch.object(panel, "_BLOCK_BYTES", block):
                    results.append(reader(path))
            except InputError as exc:
                results.append(f"error: {exc}")
        return results


def graph_bits(graph):
    if isinstance(graph, str):
        return graph
    return graph.banks, graph.weights.tobytes(), graph.weights.shape, graph.year


# ---------------------------------------------------------------------------
# the parity tests

HYPOTHESIS = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@HYPOTHESIS
@given(text=edge_lists(), block=st.sampled_from(BLOCKS))
@example(text="", block=1)
@example(text="year,bank_i,bank_j,weight\n", block=1)
@example(text="year,bank_i,bank_j,weight\r\n2014,A,B,1\r\n2014,B,A,2\r\n", block=2)
@example(text='year,bank_i,bank_j,weight\n2014,A,"B\r\nC",1\n2014,A,B,x\n', block=1)
@example(text="year,bank_i,bank_j,weight\n2014,A,B,1\n2014,B,C,inf\n2015,C,D,1\n", block=7)
@example(text="year,bank_i,bank_j,weight\n2014,A,B,1e308\n2014,A,C,1e308\n", block=1)
@example(text="year,bank_i,bank_j,weight\n2014,A,B,1\n2014,C,D,1\n2014,D,C,1\n2014,B,A,1\n2014,A,B,2\n", block=64)
@example(text="year,bank_i,bank_j,weight\n2014,A,B,1\n2014,A,C,-2\n2015,A,D,1\n", block=2)
@example(text="year,bank_i,bank_j,weight\n2014,A,B,1\n2015,A,C,1\n2015,A,D,1\n20x4,B,C,1\n", block=64)
@example(text="year,bank_i,bank_j,weight\n2014,A,B,1\n20x4,A,C,1\n20x4,A,D,1\n", block=64)
# faults in one block, the earliest row's named: a bad year text after a
# second year, a bad weight before a second year, a self-loop after a bad
# weight and in the row of one, a second year in the row of a self-loop;
# then a second year in a later block
@example(text="year,bank_i,bank_j,weight\n2014,A,B,1\n2015,A,C,1\n20x4,B,C,1\n", block=64)
@example(text="year,bank_i,bank_j,weight\n2014,A,B,1\n2014,A,C,x\n2015,B,C,1\n", block=64)
@example(text="year,bank_i,bank_j,weight\n2014,A,B,1\n2014,A,C,-1\n2014,C,C,1\n", block=64)
@example(text="year,bank_i,bank_j,weight\n2014,A,B,1\n2014,C,C,1_0\n", block=64)
@example(text="year,bank_i,bank_j,weight\n2014,A,B,1\n2015,C,C,1\n", block=64)
@example(text="year,bank_i,bank_j,weight\n2014,A,B,1\n2014,A,C,1\n2015,B,C,1\n", block=1)
def test_edge_reader_matches_the_row_by_row_reader(text, block):
    new, old = read_both(graph_from_edge_csv, reference_graph_from_edge_csv, text, block)
    assert graph_bits(new) == graph_bits(old)


def rows_until_error(read_rows):
    """A reader's rows as (line, fields) pairs, and the text of the
    InputError that ended them, if any."""

    def read(path):
        rows = []
        try:
            for line, *fields in read_rows(path):
                rows.append((line, tuple(fields)))
        except InputError as exc:
            return rows, f"error: {exc}"
        return rows, None

    return read


# any text of these characters, from a header-only file to broken quoting
tables = st.text(alphabet=list('ab,"\n\r \0'), max_size=60).map(lambda body: "a,b\n" + body)


@HYPOTHESIS
@given(text=st.one_of(tables, st.text(alphabet=list('ab,"\n\r'), max_size=20)), block=st.sampled_from(BLOCKS))
@example(text="a,b\n\n1,2\r\n3\n4,5\n", block=2)
@example(text='a,b\n1,2\n"x\ny",3\n4,5,6\n', block=1)
@example(text="a,b\n1,\0\n", block=2)
def test_tokenizer_rows_match_csv_reader(text, block):
    new, old = read_both(
        rows_until_error(lambda p: read_csv_rows(p, ["a", "b"], "test")),
        rows_until_error(lambda p: ((line, *row) for line, row in reference_read_csv(p, ["a", "b"], "test"))),
        text,
        block,
    )
    assert new == old


@pytest.mark.parametrize("block", BLOCKS)
def test_tokenizer_reads_fields_at_and_beyond_the_csv_limit(tmp_path, block):
    # a field of csv.field_size_limit() characters is read; one longer is
    # the csv module's error, on the same line as before
    for field, expect in ((EDGE, None), (LONG, "field larger than field limit")):
        text = f"a,b\n1,2\n3,{field}\n"
        new, old = read_both(
            rows_until_error(lambda p: read_csv_rows(p, ["a", "b"], "test")),
            rows_until_error(lambda p: ((line, *row) for line, row in reference_read_csv(p, ["a", "b"], "test"))),
            text,
            block,
        )
        assert new == old
        assert (expect is None) == (new[1] is None)
        if expect:
            assert "line 3" in new[1] and expect in new[1]


def test_crlf_panel_with_quoted_names_loads_equal_to_its_lf_twin(tmp_path):
    names = ['Bank "A", Ltd', "Banque, S.A.", 'Plain "quoted"']
    records = [
        bank(f"Q{k}", country, exposures={"FR": 10.0 + k, "DE": 1.0 / 3 + k})
        for k, country in enumerate(["DE", "FR", "DE"])
    ]
    for record, name in zip(records, names):
        record.name = name
    lf = tmp_path / "lf.csv"
    write_panel(panel.ExposurePanel([2014], {2014: records}), lf)
    text = lf.read_text(encoding="utf-8")
    assert '"Bank ""A"", Ltd"' in text and "\r" not in text
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
    assert load_panel(crlf) == load_panel(lf)
    assert [r.name for r in load_panel(crlf).records[2014]] == names


# invalid UTF-8: a byte that starts no character, and a character cut short
BAD_BYTES = [b"\xff", b"\xe2\x82"]
# the faults that name no row, or that the whole list makes
LIST_FAULTS = ("empty file", "fewer than 2 banks", "the float range")


@HYPOTHESIS
@given(text=edge_lists(), bad=st.sampled_from(BAD_BYTES), at=st.integers(min_value=0), block=st.sampled_from(BLOCKS))
@example(text="year,bank_i,bank_j,weight\n2014,A,B,1\n2014,B,C,x\n2014,C,D,1\n", bad=b"\xff", at=-1, block=2**16)
@example(text="year,bank_i,bank_j,weight\n2014,A,B,1\n2014,B,C,1\n2014,A,B,1\n", bad=b"\xe2\x82", at=-2, block=7)
@example(text='year,bank_i,bank_j,weight\n2014,A,"l\nf",1\n', bad=b"\xff", at=-5, block=1)
def test_a_bad_byte_is_named_after_the_rows_before_it(text, bad, at, block):
    # the invalid bytes go in at any place of the text, counted from its end
    # when `at` is negative
    raw = text.encode("utf-8")
    at %= len(raw) + 1
    raw = raw[:at] + bad + raw[at:]
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        start = exc.start
    # the lines before the first byte the decoder refuses, and that byte's line
    lines = io.StringIO(raw[:start].decode("utf-8"), newline="").readlines()
    if lines and not lines[-1].endswith(("\n", "\r")):
        lines.pop()
    before = "".join(lines)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.csv"
        path.write_bytes(before.encode("utf-8"))
        expect = f"{path}: line {len(lines) + 1}: byte {raw[start]:#04x} is not UTF-8"
        try:
            reference_graph_from_edge_csv(path)
        except InputError as exc:
            if not str(exc).endswith(LIST_FAULTS):
                expect = str(exc)
        path.write_bytes(raw)
        with mock.patch.object(panel, "_BLOCK_BYTES", block), pytest.raises(InputError) as exc:
            graph_from_edge_csv(path)
    assert str(exc.value) == expect


def test_blocks_end_at_line_breaks_only(tmp_path):
    # a block holds whole lines, and a CRLF is never split between blocks; a
    # character of several bytes just before a cut is decoded whole
    path = tmp_path / "input.txt"
    for text in ("ab\r\ncd\ref\n\r\ngh\r", "é€\n𝄞\r\n€\r€"):
        path.write_bytes(text.encode("utf-8"))
        for block in range(1, len(text.encode("utf-8")) + 2):
            with mock.patch.object(panel, "_BLOCK_BYTES", block):
                blocks = list(panel._text_blocks(path))
            assert "".join(blocks) == text
            end = 0
            for b in blocks[:-1]:
                end += len(b)
                assert text[end - 1] in "\r\n" and text[end - 1:end + 1] != "\r\n"


def test_blocks_before_a_bad_byte_are_its_whole_lines(tmp_path):
    # the lines before the byte are yielded, and then its error, which counts
    # LF, CR and CRLF as one line break each
    path = tmp_path / "input.txt"
    path.write_bytes(b"ab\r\ncd\ref\n\xe2\x82\xacg\xff\nh\n")
    for block in range(1, 20):
        blocks = []
        with mock.patch.object(panel, "_BLOCK_BYTES", block), pytest.raises(InputError) as exc:
            for text in panel._text_blocks(path):
                blocks.append(text)
        assert str(exc.value) == f"{path}: line 4: byte 0xff is not UTF-8"
        assert "".join(blocks) == "ab\r\ncd\ref\n"
