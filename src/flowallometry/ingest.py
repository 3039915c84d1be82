"""Parsing of trade files and auxiliary per-country / per-product tables.

One canonical CSV schema per table kind, UTF-8, ``.`` decimal separator, no
thousands separators.  Blank lines and lines starting with ``#`` are ignored,
so emitted files may carry trailing metadata comments and still round-trip.

    trades:     year,exporter,importer,product,value
    attributes: country,value
    columns:    product,value
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParseError
from .netcore import TradeTable, _Roster, country_id, product_code

TRADES_HEADER = ("year", "exporter", "importer", "product", "value")
ATTRIBUTES_HEADER = ("country", "value")
COLUMN_HEADER = ("product", "value")
_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class CountryAttribute:
    """One per-country scalar, such as GDP per capita in dollars."""

    country: str
    value: float


def _text(source) -> str:
    """The text of a source: a ``Path`` names a file to read; a str or bytes
    is the content itself; anything else is a file-like object yielding str
    or bytes.  One leading byte-order mark is dropped.  ParseError if the
    bytes are not UTF-8."""
    try:
        if isinstance(source, Path):
            text = source.read_text(encoding="utf-8")
        else:
            if not isinstance(source, (str, bytes)):
                source = source.read()
            text = source.decode("utf-8") if isinstance(source, bytes) else source
    except UnicodeDecodeError as exc:
        raise ParseError(0, None, f"not UTF-8: {exc}") from None
    return text.removeprefix("\ufeff")


def _rows(source, expected_header):
    """Yield (data_row_index, fields) from CSV text, bytes, path, or file-like.

    A malformed line (an oversized field, a NUL byte) raises ParseError
    naming the data row being read, or row 0 before the header.
    """
    reader = csv.reader(io.StringIO(_text(source)))
    header = None
    row_index = 0
    try:
        for fields in reader:
            if not fields or (len(fields) == 1 and not fields[0].strip()):
                continue
            if fields[0].lstrip().startswith("#"):
                continue
            if header is None:
                header = tuple(f.strip() for f in fields)
                if header != expected_header:
                    raise ParseError(0, None,
                                     f"expected header {','.join(expected_header)}, "
                                     f"got {','.join(header)}")
                continue
            row_index += 1
            if len(fields) != len(expected_header):
                raise ParseError(row_index, None,
                                 f"expected {len(expected_header)} fields, got {len(fields)}")
            yield row_index, [f.strip() for f in fields]
    except csv.Error as exc:
        raise ParseError(row_index + 1 if header is not None else 0, None,
                         str(exc)) from None
    if header is None:
        raise ParseError(0, None, "empty file: missing header")


def _nonnegative_value(row, raw):
    try:
        value = float(raw)
    except ValueError:
        raise ParseError(row, "value", f"not a number: {raw!r}") from None
    if not math.isfinite(value):
        raise ParseError(row, "value", f"not finite: {raw!r}")
    if value < 0:
        raise ParseError(row, "value", f"negative: {raw!r}")
    return value


def _checked(check, raw: str, row: int, column: str) -> str:
    """``check(raw)``; ParseError at ``row``, ``column`` if it fails."""
    try:
        return check(raw)
    except ValueError as exc:
        raise ParseError(row, column, str(exc)) from None


def parse_trades(source) -> TradeTable:
    """Parse the canonical trades CSV into a table, aborting on the first
    bad field.

    Plain text is read a block of lines at a time.  Other text, and text
    with a bad field, is read row by row through ``csv.reader``, which
    names the row and column of the first bad field.  Both readers give
    the same table.
    """
    text = _text(source)
    table = _read_blocks(text)
    return _read_rows(text) if table is None else table


#: Characters of text per block of ``_read_blocks``: about 1,800 rows of
#: the benchmark corpus.  Half the default CSV field size limit, so that a
#: block shorter than the limit needs no check of its field lengths.
_BLOCK = 1 << 16


def _read_blocks(text: str) -> TradeTable | None:
    """The table of ``text`` read as blocks of lines, or None for text this
    reader does not take.

    It takes text whose lines all split on ``,`` as ``csv.reader`` splits
    them: no ``"``, carriage return or NUL, and no field as long as the
    CSV size limit.  Each data line must have five fields, and each field
    must pass the checks ``_read_rows`` makes.  Every distinct year, country
    and product string is checked once and given a provisional id; after
    the last block the year ids become their values, and one remap puts
    the other ids onto the sorted rosters.
    """
    if '"' in text or "\r" in text or "\0" in text:
        return None
    limit = csv.field_size_limit()
    years, countries, products = (_Roster(lambda raw, check=check: check(raw.strip()))
                                  for check in (int, country_id, product_code))
    rosters = (years, countries, countries, products)
    size = text.count("\n") + 1      # at least the number of data lines
    columns = tuple(np.empty(size, dtype) for dtype in (np.intp,) * 4 + (float,))
    header, rows = None, 0
    try:
        for block in _blocks(text):
            fields = _fields(block)
            if fields is None or (len(block) >= limit
                                  and max(map(len, fields), default=0) >= limit):
                return None
            if header is None and fields:
                header, fields = tuple(f.strip() for f in fields[:5]), fields[6:]
                if header != TRADES_HEADER:
                    return None
            n = (len(fields) + 1) // 6
            value = np.fromiter(map(float, map(str.strip, fields[4::6])), float, n)
            if not (np.isfinite(value).all() and (value >= 0).all()):
                return None
            columns[4][rows:rows + n] = value
            for k, (column, roster) in enumerate(zip(columns, rosters)):
                column[rows:rows + n] = np.fromiter(map(roster.__getitem__, fields[k::6]),
                                                    column.dtype, n)
            rows += n
        year_values = np.fromiter(years.codes, np.int64, len(years.codes))
    except (ValueError, OverflowError):      # a bad field, or a year past int64
        return None
    if header is None:
        return None
    year, exporter, importer, product, value = (column[:rows] for column in columns)
    del columns       # so that each remap frees the provisional ids it replaces
    countries, remap = countries.sorted()
    exporter, importer = remap[exporter], remap[importer]
    products, remap = products.sorted()
    return TradeTable(countries, products, year_values[year], exporter, importer,
                      remap[product], value)


def _blocks(text: str):
    """``text`` in blocks of whole lines of about ``_BLOCK`` characters,
    without the newline that ends each block."""
    start, stop = 0, len(text) - text.endswith("\n")
    while start < stop:
        end = text.find("\n", start + _BLOCK, stop)
        if end < 0:
            end = stop
        yield text[start:end]
        start = end + 1


def _fields(block: str) -> list[str] | None:
    """The fields of the lines of ``block`` that are neither blank nor
    ``#`` comments, six to a line: the five fields, then ``"\\n"``.  None
    if such a line has another number of fields."""
    if "#" not in block:
        fields = _split(block)
        if fields is not None:
            return fields
    return _split("\n".join(line for line in block.split("\n")
                             if line.strip() and not line.lstrip().startswith("#")))


def _split(lines: str) -> list[str] | None:
    """The fields of ``lines`` as ``_fields`` gives them, or None if a line
    (a blank one too) does not have exactly five."""
    if not lines:
        return []
    breaks = lines.count("\n")
    # Each newline becomes a field of its own, so a line of five fields
    # puts the newline after it at a multiple of six, less one.
    fields = lines.replace("\n", ",\n,").split(",")
    if len(fields) != 6 * breaks + 5 or fields[5::6].count("\n") != breaks:
        return None
    return fields


def _read_rows(text: str) -> TradeTable:
    """The table of ``text`` read row by row through ``csv.reader``;
    ParseError at the first bad field."""
    rows = []
    for row, (year_s, exporter, importer, product, value_s) in _rows(text, TRADES_HEADER):
        try:
            year = int(year_s)
        except ValueError:
            raise ParseError(row, "year", f"not an integer: {year_s!r}") from None
        if not _INT64_MIN <= year <= _INT64_MAX:
            raise ParseError(row, "year", f"out of range: {year_s!r}")
        rows.append((year, _checked(country_id, exporter, row, "exporter"),
                     _checked(country_id, importer, row, "importer"),
                     _checked(product_code, product, row, "product"),
                     _nonnegative_value(row, value_s)))
    return TradeTable.from_rows(rows)


def write_trades(table: TradeTable) -> str:
    """Serialize a table to the canonical trades CSV text; parsing the text
    reproduces the table column for column."""
    countries, products = table.countries, table.products
    columns = (getattr(table, name).tolist() for name in TRADES_HEADER)
    lines = [",".join(TRADES_HEADER)]
    lines.extend(f"{year},{countries[e]},{countries[i]},{products[p]},{value!r}"
                 for year, e, i, p, value in zip(*columns))
    return "\n".join(lines) + "\n"


def parse_attributes(source, kind: str | None = None) -> list[CountryAttribute]:
    """Parse a per-country attribute CSV (header ``country,value``).

    Values must be finite and nonnegative; ``kind="gdp"`` requires them
    strictly positive.  Duplicate countries are an error.
    """
    if kind not in (None, "gdp"):
        raise ValueError(f"unknown attribute kind {kind!r}")
    out: dict[str, CountryAttribute] = {}
    for row, (country, value_s) in _rows(source, ATTRIBUTES_HEADER):
        country = _checked(country_id, country, row, "country")
        if country in out:
            raise ParseError(row, "country", f"duplicate country {country}")
        value = _nonnegative_value(row, value_s)
        if kind == "gdp" and value <= 0:
            raise ParseError(row, "value", f"GDP per capita must be > 0: {value}")
        out[country] = CountryAttribute(country, value)
    return list(out.values())


def parse_product_column(source) -> dict[str, float]:
    """Parse a per-product value CSV (header ``product,value``) into a mapping."""
    out: dict[str, float] = {}
    for row, (product, value_s) in _rows(source, COLUMN_HEADER):
        product = _checked(product_code, product, row, "product")
        if product in out:
            raise ParseError(row, "product", f"duplicate product code {product}")
        out[product] = _nonnegative_value(row, value_s)
    return out


def parse_exclusions(source) -> set[str]:
    """Parse an exclusion list: one product code per line, ``#`` comments allowed."""
    lines = [line for line in map(str.strip, _text(source).splitlines())
             if line and not line.startswith("#")]
    return {_checked(product_code, line, row, "product") for row, line in enumerate(lines, 1)}
