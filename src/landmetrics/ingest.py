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

The pass reads the text after the header in blocks of ``_BLOCK_CHARS``
characters, each cut after its last line feed.  A block whose text is
plain is converted from its bytes: it is ASCII, every line ends in a line
break, there is no ``"``, NUL or carriage return outside a CRLF ending,
no line is longer than the csv field size limit, and every line holds
exactly as many commas as the header.  For such text ``csv.reader``'s
records are exactly the comma split, and one scan of the commas and line
feeds finds every field.  Each column is gathered into one fixed-width
byte array: timestamps are read as numbers from their digits, prices go
through ``float``, plot counts are read from their digits when every one
is 1-18 ASCII digits, and a currency is coded by comparing its bytes with
the symbols seen so far.  A column of other plot counts, or with a
currency not yet seen as those exact bytes, converts once per distinct
field as text.  Any other block goes through ``csv.reader``, which may
read past the block's end to finish a quoted record, and its columns are
converted as text.

Either way the column conversion is only a faster route to the row
checks' result, so a block takes it only when every record is one line,
every row passes every check and its timestamp has the exact shape
``YYYY-MM-DDTHH:MM:SS``.  A block with a short or blank record, a record
spanning two lines, a timestamp of another shape (``Z``, an offset, a
space, fractional seconds) or any row that fails a check goes through the
row checks instead, row by row in file order, which give every rejection
its reason and line.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
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
#: characters read at a time; small, since a block's fields are all held
#: at once
_BLOCK_CHARS = 1 << 16
#: the byte range of each position of the YYYY-MM-DDTHH:MM:SS shape
_STAMP_LO = np.frombuffer(b"0000-00-00T00:00:00", np.uint8)
_STAMP_HI = np.frombuffer(b"9999-99-99T99:99:99", np.uint8)
#: the most days of each month by its two digits, 0 for the 88 that name none
_MONTH_DAYS = np.array([0, 31, 29, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31] + [0] * 87)


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


def _parse_columns(stamps, prices, currency, plots, currencies, symbols):
    """A block's columns as :func:`_parse_row` gives them row by row:
    microseconds since 1970, prices, plot counts, and currencies as codes
    into ``symbols``, which gains the block's new currencies in order of
    first appearance.  ``stamps`` is an array of byte strings, and
    ``prices``, ``currency`` and ``plots`` are text fields or arrays of
    ASCII bytes without NULs (see :func:`_plot_counts` and
    :func:`_currency_codes`).  None, with ``symbols`` untouched, unless
    every row passes every check and has a timestamp of the exact shape
    YYYY-MM-DDTHH:MM:SS.

    numpy's conversion of a price field to float64 gives ``float``'s value
    or fails where it fails; bytes lose fewer spaces than text (not the
    ASCII separators 0x1c-0x1f).  A string array drops trailing NULs."""
    if stamps.dtype != "S19":       # a shorter stamp is padded with NULs
        return None
    chars = stamps.view(np.uint8).reshape(len(stamps), 19)
    if not np.all((chars >= _STAMP_LO) & (chars <= _STAMP_HI)):
        return None
    stamps = _stamp_micros(chars)
    if stamps is None:
        return None
    try:
        prices = np.asarray(prices, dtype=np.float64)
    except ValueError:
        return None
    if not (np.all(prices > 0.0) and np.all(np.isfinite(prices))):
        return None
    counts = _plot_counts(plots)
    if counts is None:
        return None
    codes = _currency_codes(currency, currencies, symbols)
    return None if codes is None else (stamps, prices, counts, codes)


def _plot_counts(plots):
    """A column's plot counts, or None unless every one is an integer from
    1 to ``_MAX_PLOTS``.  An array of fields that are all 1-18 ASCII digits
    is read from its bytes, as :func:`_stamp_micros` reads timestamps; any
    other column goes through ``int(field.strip())`` once per distinct
    field."""
    if isinstance(plots, np.ndarray):
        chars = plots.view(np.uint8).reshape(len(plots), plots.itemsize)
        digits, pad = chars - np.uint8(ord("0")), chars == 0     # a NUL pads a short field
        if plots.itemsize <= 18 and np.all((digits < 10) | pad):     # an empty one reads 0
            counts = np.zeros(len(plots), np.int64)
            for digit, end in zip(digits.T, pad.T):
                counts = np.where(end, counts, counts * 10 + digit)
            return counts if np.all(counts >= 1) else None
        plots = plots.astype(str).tolist()
    fields, index = _distinct(plots)
    try:
        counts = [int(field.strip()) for field in fields]
    except ValueError:
        return None
    return np.array(counts, np.int64)[index] if all(1 <= k <= _MAX_PLOTS for k in counts) else None


def _currency_codes(currency, currencies, symbols):
    """A column's currencies as codes into ``symbols``, or None, with
    ``symbols`` untouched, if one is blank or outside ``currencies``.  An
    array of ASCII fields whose bytes all equal a symbol is coded by
    comparing them; any other column converts once per distinct field, and
    ``symbols`` gains its new currencies in order of first appearance."""
    if isinstance(currency, np.ndarray):
        codes = np.full(len(currency), -1)
        for name, code in symbols.items():
            codes[currency == name.encode()] = code
        if codes.min(initial=0) >= 0:
            return codes
        currency = currency.astype(str).tolist()
    fields, index = _distinct(currency)
    names = [field.strip().upper() for field in fields]
    if not all(names) or (currencies is not None and not all(n in currencies for n in names)):
        return None
    return np.array([symbols.setdefault(name, len(symbols)) for name in names], np.int64)[index]


def _stamp_micros(chars):
    """Microseconds since 1970 of stamps of the YYYY-MM-DDTHH:MM:SS shape,
    an (n, 19) array of their characters, or None unless every one is a
    time ``datetime`` takes: from year 1, on a day of its month, and up to
    23:59:59.  The fields are read as numbers, not parsed by numpy, whose
    parser takes a year 0 and crashes on an impossible date in a long
    array."""
    digits = (chars - np.uint8(ord("0"))).T
    century, year, month, day, hour, minute, second = (
        digits[[0, 2, 5, 8, 11, 14, 17]].astype(np.int64) * 10 + digits[[1, 3, 6, 9, 12, 15, 18]])
    year += 100 * century
    if not np.all((year >= 1) & (day >= 1) & (day <= _MONTH_DAYS[month])
                  & (hour < 24) & (minute < 60) & (second < 60)):
        return None
    leap_day = year[(month == 2) & (day == 29)]
    if np.any((leap_day % 4 != 0) | ((leap_day % 100 == 0) & (leap_day % 400 != 0))):
        return None
    months = (year - 1970) * 12 + month - 1
    days = months.astype("datetime64[M]").astype("datetime64[D]").view(np.int64) + day - 1
    return (((days * 24 + hour) * 60 + minute) * 60 + second) * 1_000_000


def _distinct(column):
    """A column's distinct text fields, in order of first appearance, and
    the index of each row's field among them."""
    fields = list(dict.fromkeys(column))
    index = {field: i for i, field in enumerate(fields)}
    return fields, np.fromiter(map(index.__getitem__, column), np.int64, len(column))


def _numbered(reader):
    """(lines read before the record, record) pairs of a csv reader: a
    record starts on the line after them and spans more than one line
    when a quoted field holds a line break."""
    return zip(map(attrgetter("line_num"), repeat(reader)), reader)


def _text_blocks(fh):
    """The text of ``fh`` from where it stands, in blocks of whole lines:
    each block ends at the last line feed of ``_BLOCK_CHARS`` or more
    characters read, and the last holds what follows the file's last line
    feed."""
    rest = ""
    while text := fh.read(_BLOCK_CHARS):
        cut = text.rfind("\n") + 1
        if cut:
            yield rest + text[:cut]
            rest = text[cut:]
        else:
            rest += text
    if rest:
        yield rest


def _plain_columns(block, width, cols):
    """The ``cols`` columns of a block's lines for :func:`_parse_columns`,
    of their bytes, if ``csv.reader`` would split each line into exactly
    ``width`` fields on its commas alone; else None.

    That holds when the block is ASCII text that ends in a line break,
    there is no ``"``, no NUL and no CR outside a CRLF ending, no line is
    longer than the field size limit, and every line has ``width - 1``
    commas.  One scan of the commas and line feeds finds every field."""
    if not block.endswith("\n") or not block.isascii() or '"' in block or "\0" in block:
        return None
    data = block.encode("ascii")
    chars = np.frombuffer(data, np.uint8)
    at = np.flatnonzero(chars <= ord(","))     # every comma, CR and LF, and few others
    ends = at[chars[at] == ord("\n")]
    stops = at[(chars[at] == ord(",")) | (chars[at] == ord("\n"))]
    longest = np.diff(ends, prepend=-1).max()
    if (len(stops) != len(ends) * width or np.any(stops[width - 1::width] != ends)
            or longest > csv.field_size_limit()):
        return None
    starts = np.concatenate(([0], stops[:-1] + 1)).reshape(len(ends), width)
    stops = stops.reshape(len(ends), width)
    if b"\r" in data:              # a CRLF ending's CR ends the last field
        crlf = chars[ends - 1] == ord("\r")
        if np.count_nonzero(crlf) != np.count_nonzero(chars[at] == ord("\r")):
            return None
        stops[:, -1] -= crlf
    data += bytes(int(longest))     # every field's widest window lies inside
    return tuple(_gather(data, starts[:, i], stops[:, i]) for i in cols)


def _gather(data, starts, stops):
    """The byte strings ``data[start:stop]`` as an array of the longest
    one's width; shorter ones are padded with NULs."""
    lengths = stops - starts
    width = max(int(lengths.max()), 1)
    fields = np.ndarray((len(data) - width + 1,), f"S{width}", data, strides=(1,))[starts]
    if np.any(lengths != width):
        chars = fields.view(np.uint8).reshape(len(fields), width)
        chars *= np.arange(width, dtype=np.int32) < lengths.astype(np.int32)[:, None]
    return fields


def _plain_records(block):
    """(lines before the line, fields) pairs of a plain block's lines."""
    yield from enumerate(line.split(",") for line in block.replace("\r\n", "\n")[:-1].split("\n"))


def _lines(block):
    """A block's lines as a file opened with ``newline=""`` reads them,
    each ending in LF, CRLF or a lone CR.  ``str.splitlines`` gives them
    faster where the block holds none of the other breaks it splits on."""
    if block.isascii() and not any(c in block for c in "\v\f\x1c\x1d\x1e"):
        return block.splitlines(keepends=True)
    return io.StringIO(block, newline="").readlines()


def _csv_records(block, blocks):
    """As many records as a block has lines, as ``csv.reader`` reads them:
    (lines read before the record, fields) pairs, with the lines read and
    the text after the last record read.  Records that span lines are read
    on into the ``blocks`` after it."""
    lines = _lines(block)
    later = io.StringIO()               # the block read on into, if any

    def read_on():
        nonlocal later
        for later in map(io.StringIO, blocks, repeat("")):
            yield from later

    reader = csv.reader(chain(lines, read_on()))
    records = list(islice(_numbered(reader), len(lines)))
    return reader.line_num, records, later.read()


def _csv_columns(records, read, width, cols):
    """The ``cols`` columns of csv records for :func:`_parse_columns`, or
    None unless every record is one line with at least ``width`` fields."""
    rows = list(map(itemgetter(1), records))
    if read != len(records) or min(map(len, rows)) < width:
        return None
    columns = tuple(zip(*rows))
    stamps, prices, currency, plots = (columns[i] for i in cols)
    text = "".join(stamps)
    if set(map(len, stamps)) != {19} or not text.isascii():
        return None
    return np.frombuffer(text.encode(), "S19"), prices, currency, plots


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
        first = reader.line_num + 1                 # the file line a block starts on
        blocks = _text_blocks(fh)
        block = next(blocks, "")
        while block:
            columns, rest = _plain_columns(block, width, cols), ""
            if columns is not None:
                read, records = len(columns[0]), _plain_records(block)
            else:
                read, records, rest = _csv_records(block, blocks)
                columns = _csv_columns(records, read, width, cols)
            parsed = None if columns is None else _parse_columns(*columns, currencies, symbols)
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
            del block, columns, records     # hold one block at a time, not two
            block = rest or next(blocks, "")
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
    A currency's days are found by counting its sales per day, and each
    day's quote, looked up once, is read through a table indexed by the
    day; ``np.unique`` finds them instead where a far-off date makes the
    span exceed the sales.  Rows whose (day, currency) has no quote are
    rejected with reason ``"no fx for date"``.
    """
    rate, day = np.ones(len(rows)), rows.day.view(np.int64)
    first = int(day.min(initial=0))
    for code, currency in enumerate(rows.symbols):
        if currency not in STABLE_CURRENCIES:
            at = np.flatnonzero(rows.currency == code)
            offset = day[at] - first
            if offset.max(initial=-1) > len(offset):
                days, offset = np.unique(offset, return_inverse=True)
                table, seen = np.empty(len(days)), slice(None)
            else:
                seen = np.bincount(offset) > 0
                days, table = np.flatnonzero(seen), np.empty(len(seen))
            symbol = "ETH" if currency == "WETH" else currency
            dates = (first + days).astype("datetime64[D]").tolist()
            table[seen] = [fx.quote(d, symbol) for d in dates]     # no quote: nan
            rate[at] = table[offset]
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
