"""File loading, USD conversion, and winsorized dataset preparation.

Inputs are pre-exported CSV files:

* transactions: ``timestamp,native_price,currency,num_plots,tx_id``
* daily prices: ``date,symbol,usd_price``

Transactions are read in one streaming pass into a
:class:`~landmetrics.hedonic.TransactionTable`, a table of numpy columns
and the only in-memory form of a sale; it carries them on through the
USD conversion, the winsorizing and the index.  Each row runs the checks
in this order and is rejected with the first one it fails: ``missing
fields``, ``bad timestamp``, ``bad price``, ``price <= 0``, ``bad plot
count``, ``plot count < 1``, ``missing currency``, ``unknown currency``,
and then, in the USD conversion, ``no fx for date``.  Rejected rows are
never dropped silently; they come back as (line, reason) pairs with
the 1-based file line their record starts on, and ``accepted + rejected
== input rows`` always holds (blank lines are not rows).  The ``tx_id``
column is required but not kept.  wETH settles at the ETH quote (1:1
peg) and is the only currency that sets ``paid_in_weth``.

The pass reads the lines after the header ``_CHUNK_ROWS`` at a time.
A chunk whose text is plain is split on its commas in one pass: every
line ends in a line break, there is no ``"``, NUL or carriage return
outside a CRLF ending, no line is longer than the csv field size limit,
and every line holds exactly as many commas as the header.  For such text
``csv.reader``'s records are exactly the comma split.  Any other chunk
goes through ``csv.reader``, which may read past the chunk's last line to
finish a quoted record.

Either way a chunk is then converted a column at a time: prices and plot
counts through the same ``float`` and ``int`` the row checks use,
timestamps with numpy, and each distinct currency string once.  That is
only a faster route to the row checks' result, so a chunk takes it only
when every record is one line, every row passes every check and its
timestamp has the exact shape ``YYYY-MM-DDTHH:MM:SS``.  A chunk with a
short or blank record, a record spanning two lines, a timestamp of
another shape (``Z``, an offset, a space, fractional seconds) or any row
that fails a check goes through the row checks instead, row by row in
file order, which give every rejection its reason and line.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
from array import array
from dataclasses import dataclass, field, replace
from itertools import chain, islice, repeat
from operator import attrgetter, itemgetter

import numpy as np

from .errors import InsufficientDataError, SchemaError, ValidationError
from .hedonic import TransactionTable
from .series import TimeSeries, open_csv, winsorize, write_csv

TRANSACTION_COLUMNS = ("timestamp", "native_price", "currency", "num_plots", "tx_id")
PRICE_COLUMNS = ("date", "symbol", "usd_price")

#: stablecoins convert at exactly 1.0, without an fx quote
STABLE_CURRENCIES = frozenset({"USDC", "USDT", "DAI"})

_EPOCH = dt.datetime(1970, 1, 1)
_MICROSECOND = dt.timedelta(microseconds=1)
_MAX_PLOTS = 2**63 - 1       # the plot count column is int64
#: file lines split and converted at a time; small, since a chunk's
#: strings are all held at once
_CHUNK_ROWS = 1024
#: the byte range of each position of the YYYY-MM-DDTHH:MM:SS shape
_STAMP_LO = np.frombuffer(b"0000-00-00T00:00:00", np.uint8)
_STAMP_HI = np.frombuffer(b"9999-99-99T99:99:99", np.uint8)


@dataclass(frozen=True)
class RejectedRow:
    line: int
    reason: str


@dataclass(frozen=True)
class FxTable:
    """Daily USD quotes keyed by (date, symbol)."""

    quotes: dict = field(repr=False)

    def quote(self, date: dt.date, symbol: str) -> float | None:
        return self.quotes.get((date, symbol.upper()))

    @property
    def symbols(self) -> tuple[str, ...]:
        return tuple(sorted({s for _, s in self.quotes}))

    def series(self, symbol: str) -> TimeSeries:
        symbol = symbol.upper()
        items = sorted((d, v) for (d, s), v in self.quotes.items() if s == symbol)
        if not items:
            raise ValidationError(f"no quotes for symbol {symbol!r}")
        return TimeSeries(
            name=symbol,
            freq="daily",
            dates=tuple(d for d, _ in items),
            values=np.array([v for _, v in items]),
        )


def _read_header(reader, path, columns, what: str):
    """The header's width and the positions of ``columns`` in it."""
    header = next(reader, None)
    if header is None:
        raise SchemaError(f"{path}: empty file, expected {what} header")
    header = [h.strip() for h in header]
    missing = [c for c in columns if c not in header]
    if missing:
        raise SchemaError(f"{path}: missing required columns: {', '.join(missing)}")
    return len(header), [header.index(c) for c in columns]


def _parse_row(row, width, cols, currencies):
    """A row's (microseconds since 1970, price, plot count, currency), or
    the reason of the first check it fails."""
    if len(row) < width:
        return "missing fields"
    i_ts, i_price, i_currency, i_plots = cols
    try:
        ts = dt.datetime.fromisoformat(row[i_ts].strip().replace("Z", "+00:00"))
        if ts.tzinfo is not None:
            ts = ts.astimezone(dt.timezone.utc).replace(tzinfo=None)
    except (ValueError, OverflowError):     # UTC can fall outside years 1-9999
        return "bad timestamp"
    try:
        price = float(row[i_price])
    except ValueError:
        return "bad price"
    if not price > 0.0 or not math.isfinite(price):
        return "price <= 0"
    try:
        plots = int(row[i_plots].strip())
    except ValueError:
        return "bad plot count"
    if plots < 1:
        return "plot count < 1"
    if plots > _MAX_PLOTS:
        return "bad plot count"
    currency = row[i_currency].strip().upper()
    if not currency:
        return "missing currency"
    if currencies is not None and currency not in currencies:
        return "unknown currency"
    return (ts - _EPOCH) // _MICROSECOND, price, plots, currency


def _parse_columns(columns, currencies, symbols):
    """A chunk's (timestamp, price, currency, plot count) text columns as
    :func:`_parse_row` gives them row by row: microseconds since 1970,
    prices, plot counts, and currencies as codes into ``symbols``, which
    gains the chunk's new currencies in order of first appearance.  None,
    with ``symbols`` untouched, unless every row passes every check and
    has a timestamp of the exact shape YYYY-MM-DDTHH:MM:SS."""
    stamps, prices, currency, plots = columns
    n = len(stamps)
    text = "".join(stamps)
    if set(map(len, stamps)) != {19} or not text.isascii():
        return None
    stamps = np.frombuffer(text.encode("ascii"), "S19")
    chars = stamps.view(np.uint8).reshape(n, 19)
    if not (np.all((chars >= _STAMP_LO) & (chars <= _STAMP_HI))
            and np.all(np.any(chars[:, :4] != ord("0"), axis=1))):     # no year 0
        return None
    try:
        stamps = stamps.astype("datetime64[us]").view(np.int64)
        prices = np.fromiter(map(float, prices), np.float64, n)
        plots = np.fromiter(map(int, plots), np.int64, n)
    except (ValueError, OverflowError):         # OverflowError: a count past int64
        return None
    if not (np.all(prices > 0.0) and np.all(np.isfinite(prices)) and np.all(plots >= 1)):
        return None
    names = {raw: raw.strip().upper() for raw in dict.fromkeys(currency)}
    if not all(names.values()) or (
            currencies is not None and not all(n in currencies for n in names.values())):
        return None
    code = {raw: symbols.setdefault(name, len(symbols)) for raw, name in names.items()}
    return stamps, prices, plots, np.fromiter(map(code.__getitem__, currency), np.int64, n)


def _numbered(reader):
    """(lines read before the record, record) pairs of a csv reader: a
    record starts on the line after them and spans more than one line
    when a quoted field holds a line break."""
    return zip(map(attrgetter("line_num"), repeat(reader)), reader)


def _plain_fields(text, width):
    """The fields of ``text``'s lines, line after line, if ``csv.reader``
    would split each of them into exactly ``width`` fields on its commas
    alone; else None.

    That holds when every line ends in a line break, there is no ``"``,
    no NUL and no CR outside a CRLF ending, no line is longer than the
    field size limit, and every line has ``width - 1`` commas.  Lines are
    measured and their commas counted on the UTF-8 bytes: a line has at
    least as many bytes as characters, and a multibyte sequence never
    holds a comma or a line feed."""
    if not text.endswith("\n") or '"' in text or "\0" in text:
        return None
    text = text.replace("\r\n", "\n")
    if "\r" in text:
        return None
    data = np.frombuffer(text.encode(), np.uint8)
    ends = np.flatnonzero(data == ord("\n"))
    commas = np.searchsorted(np.flatnonzero(data == ord(",")), ends)
    if (np.any(np.diff(commas, prepend=0) != width - 1)
            or np.diff(ends, prepend=-1).max() > csv.field_size_limit()):
        return None
    return text[:-1].replace("\n", ",").split(",")


def _tokenize(chunk, fh, width, cols):
    """A chunk of file lines' (lines read, columns, records).

    Plain text (:func:`_plain_fields`) is split on its commas; other text
    goes through ``csv.reader``, which reads on in ``fh`` past the chunk
    to finish a quoted record.  ``columns`` are the ``cols`` fields, a
    column each, or None unless every record is one line with at least
    ``width`` fields.  ``records`` are (lines read before the record,
    fields) pairs."""
    fields = _plain_fields("".join(chunk), width)
    if fields is not None:
        records = enumerate(fields[i:i + width] for i in range(0, len(fields), width))
        return len(chunk), [fields[i::width] for i in cols], records
    reader = csv.reader(chain(chunk, fh))
    records = list(islice(_numbered(reader), len(chunk)))
    columns = None
    if reader.line_num == len(records):             # one line per record
        rows = list(map(itemgetter(1), records))
        if min(map(len, rows)) >= width:
            rows = tuple(zip(*rows))
            columns = [rows[i] for i in cols]
    return reader.line_num, columns, records


def load_transactions(path, currencies: frozenset[str] | None = None):
    """Parse a transactions CSV into (table, rejected).

    The header must contain the five documented columns (extra columns
    are ignored).  Rows failing any field check are returned in
    ``rejected`` with the 1-based file line their record starts on; the
    table holds the others in file order, without USD prices.
    ``currencies=None`` accepts any currency; otherwise a row whose
    currency is outside the set is rejected.
    """
    lines, stamps, plots, codes = array("q"), array("q"), array("q"), array("q")
    prices = array("d")
    symbols: dict[str, int] = {}
    rejected: list[RejectedRow] = []
    with open_csv(path) as fh:
        reader = csv.reader(fh)
        width, cols = _read_header(reader, path, TRANSACTION_COLUMNS, "transactions")
        cols = cols[:4]                             # tx_id is required but not kept
        first = reader.line_num + 1                 # the file line a chunk starts on
        while chunk := list(islice(fh, _CHUNK_ROWS)):
            read, columns, records = _tokenize(chunk, fh, width, cols)
            parsed = None if columns is None else _parse_columns(columns, currencies, symbols)
            if parsed is not None:
                lines.frombytes(np.arange(first, first + read, dtype=np.int64).tobytes())
                for buffer, column in zip((stamps, prices, plots, codes), parsed):
                    buffer.frombytes(column.tobytes())
            else:
                for before, row in records:
                    parsed = _parse_row(row, width, cols, currencies)
                    if type(parsed) is str:
                        if any(f.strip() for f in row):     # blank lines are not rows
                            rejected.append(RejectedRow(first + before, parsed))
                        continue
                    stamp, price, n_plots, currency = parsed
                    lines.append(first + before)
                    stamps.append(stamp)
                    prices.append(price)
                    plots.append(n_plots)
                    codes.append(symbols.setdefault(currency, len(symbols)))
            first += read
            del chunk, columns, records     # hold one chunk at a time, not two
    table = TransactionTable(
        timestamp=np.asarray(stamps, np.int64).view("datetime64[us]"),
        native_price=prices, num_plots=plots, currency=codes,
        symbols=tuple(symbols), line=lines)
    return table, rejected


def load_daily_prices(path) -> FxTable:
    """Parse a ``date,symbol,usd_price`` CSV into an FxTable.

    Duplicates and non-positive prices reject the whole load: quote
    tables are reference data and must be unambiguous.
    """
    quotes: dict = {}
    with open_csv(path) as fh:
        reader = csv.reader(fh)
        _, (i_date, i_symbol, i_price) = _read_header(reader, path, PRICE_COLUMNS, "price")
        for before, row in _numbered(reader):
            lineno = before + 1
            if not row or all(not f.strip() for f in row):
                continue
            try:
                date = dt.date.fromisoformat(row[i_date].strip())
                price = float(row[i_price])
            except ValueError as exc:
                raise ValidationError(f"{path}: line {lineno}: {exc}") from exc
            symbol = row[i_symbol].strip().upper()
            if not symbol:
                raise ValidationError(f"{path}: line {lineno}: empty symbol")
            if not price > 0.0 or not np.isfinite(price):
                raise ValidationError(
                    f"{path}: line {lineno}: non-positive price for {symbol}"
                )
            key = (date, symbol)
            if key in quotes:
                raise ValidationError(
                    f"{path}: line {lineno}: duplicate quote for {symbol} on {date}"
                )
            quotes[key] = price
    return FxTable(quotes=quotes)


def to_usd(rows: TransactionTable, fx: FxTable):
    """Convert a table to USD; returns (converted table, rejected).

    wETH uses the ETH quote.  ``STABLE_CURRENCIES`` convert at exactly 1.0.
    Quotes are looked up once per distinct (currency, day).  Rows whose
    (day, currency) has no quote are rejected with reason
    ``"no fx for date"``.
    """
    rate, day = np.ones(len(rows)), rows.day
    for code, currency in enumerate(rows.symbols):
        if currency not in STABLE_CURRENCIES:
            at = np.flatnonzero(rows.currency == code)
            days, inverse = np.unique(day[at], return_inverse=True)
            symbol = "ETH" if currency == "WETH" else currency
            quotes = [fx.quote(d, symbol) for d in days.tolist()]
            rate[at] = np.array(quotes, dtype=np.float64)[inverse]     # no quote: nan
    quoted = ~np.isnan(rate)
    rejected = [RejectedRow(line, "no fx for date") for line in rows.line[~quoted].tolist()]
    converted = rows if quoted.all() else rows[quoted]     # no copy when all are quoted
    return replace(converted, usd_price=converted.native_price * rate[quoted]), rejected


def prepare_dataset(transactions: TransactionTable, winsor_lo: float = 0.001,
                    winsor_hi: float = 0.999) -> TransactionTable:
    """Winsorize USD prices over the full sample.

    ``transactions`` is a table converted to USD (see :func:`to_usd`).
    Count, order, and dates are untouched; only prices outside the
    [winsor_lo, winsor_hi] sample quantiles are clamped.  Running the
    function on its own output is a fixed point.
    """
    usd_price = transactions.usd_prices()
    if len(transactions) < 10:
        raise InsufficientDataError(f"need >= 10 transactions, got {len(transactions)}")
    return replace(transactions, usd_price=winsorize(usd_price, winsor_lo, winsor_hi))


def rejections_to_csv(rejected, path) -> None:
    write_csv(path, ["line", "reason"], ((r.line, r.reason) for r in rejected))
