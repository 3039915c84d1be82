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

from .errors import ParseError
from .netcore import TradeTable, country_id, product_code

TRADES_HEADER = ("year", "exporter", "importer", "product", "value")
ATTRIBUTES_HEADER = ("country", "value")
COLUMN_HEADER = ("product", "value")


@dataclass(frozen=True)
class CountryAttribute:
    """One per-country scalar (GDP per capita in dollars, or a ratio in [0,1])."""

    country: str
    value: float


def _text(source) -> str:
    """The text of a source: a ``Path`` names a file to read; a str or bytes
    is the content itself; anything else is a file-like object yielding str
    or bytes.  ParseError if the bytes are not UTF-8."""
    try:
        if isinstance(source, Path):
            return source.read_text(encoding="utf-8")
        if not isinstance(source, (str, bytes)):
            source = source.read()
        return source.decode("utf-8") if isinstance(source, bytes) else source
    except UnicodeDecodeError as exc:
        raise ParseError(0, None, f"not UTF-8: {exc}") from None


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


def _checked(cache: dict, check, raw: str, row: int, column: str) -> str:
    """``check(raw)``, kept in ``cache``; ParseError at ``row``, ``column`` if it fails."""
    try:
        cache[raw] = code = check(raw)
    except ValueError as exc:
        raise ParseError(row, column, str(exc)) from None
    return code


def parse_trades(source) -> TradeTable:
    """Parse the canonical trades CSV into a table, aborting on the first
    bad field.  Each distinct code is checked once, at its first row."""
    rows = []
    countries, products = {}, {}     # field -> its checked code
    for row, (year_s, exporter, importer, product, value_s) in _rows(source, TRADES_HEADER):
        try:
            year = int(year_s)
        except ValueError:
            raise ParseError(row, "year", f"not an integer: {year_s!r}") from None
        rows.append((
            year,
            countries.get(exporter) or _checked(countries, country_id, exporter, row, "exporter"),
            countries.get(importer) or _checked(countries, country_id, importer, row, "importer"),
            products.get(product) or _checked(products, product_code, product, row, "product"),
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

    ``kind`` enables range checks: ``"gdp"`` requires strictly positive values,
    ``"ratio"`` requires values in [0, 1].  Duplicate countries are an error.
    """
    seen: set[str] = set()
    out = []
    for row, (country, value_s) in _rows(source, ATTRIBUTES_HEADER):
        try:
            country = country_id(country)
        except ValueError as exc:
            raise ParseError(row, "country", str(exc)) from None
        if country in seen:
            raise ParseError(row, "country", f"duplicate country {country}")
        seen.add(country)
        value = _nonnegative_value(row, value_s)
        if kind == "gdp" and value <= 0:
            raise ParseError(row, "value", f"GDP per capita must be > 0: {value}")
        if kind == "ratio" and not (0 <= value <= 1):
            raise ParseError(row, "value", f"ratio must be in [0,1]: {value}")
        out.append(CountryAttribute(country, value))
    return out


def parse_product_column(source) -> dict[str, float]:
    """Parse a per-product value CSV (header ``product,value``) into a mapping."""
    out: dict[str, float] = {}
    for row, (product, value_s) in _rows(source, COLUMN_HEADER):
        try:
            product = product_code(product)
        except ValueError as exc:
            raise ParseError(row, "product", str(exc)) from None
        if product in out:
            raise ParseError(row, "product", f"duplicate product code {product}")
        out[product] = _nonnegative_value(row, value_s)
    return out


def parse_exclusions(source) -> set[str]:
    """Parse an exclusion list: one product code per line, ``#`` comments allowed."""
    codes = set()
    row = 0
    for line in _text(source).splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        row += 1
        try:
            codes.add(product_code(line))
        except ValueError as exc:
            raise ParseError(row, "product", str(exc)) from None
    return codes
