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
(256 Ki) characters, each cut after its last line feed.  A block whose
text is plain is converted from its bytes: it is ASCII, every line ends
in a line break, there is no ``"``, NUL or carriage return outside a CRLF
ending, and no line is longer than the csv field size limit.  For such
text ``csv.reader``'s records are exactly the comma split, and one scan
of the commas and line feeds finds every field of the lines that hold as
many commas as the header.  Each column of those lines is gathered into
one fixed-width byte array: timestamps are read as numbers from their
digits, prices go through ``float``, plot counts are read from their
digits, and a currency is coded by comparing its bytes with the symbols
seen so far, or else converted once per distinct field as text.  Any
other block goes through ``csv.reader``, which may read past the block's
end to finish a quoted record, and its columns are converted as text.

Either way the column conversion is only a faster route to the row
checks' result.  In a plain block it converts a line when the line has
the header's field count, its timestamp has the exact shape
``YYYY-MM-DDTHH:MM:SS`` and is a date, its price casts to a float > 0
and finite, its plot count is 1-18 ASCII digits and not 0, and its
currency is neither blank nor unknown.  Each check runs on the whole
column first and finds the lines that fail it only when one does.  A
line that fails one (a short or blank record, a ``Z``, offset, space or
fractional second in a timestamp, a ``+5`` plot count, or any row that
fails a check) goes alone through the row checks, in file order, which
give every rejection its reason and line.  A block that ``csv.reader``
reads converts only when every record is one line and passes all of
these checks; otherwise every record of it takes the row checks.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import math
from array import array
from dataclasses import dataclass, field
from itertools import chain, compress, islice, repeat
from operator import attrgetter

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
_BLOCK_CHARS = 1 << 18
#: characters of a block ``csv.reader`` reads at a time: its records are
#: Python objects, several times the size of their text
_CSV_CHARS = 1 << 16
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
    """A block's columns as :func:`_parse_row` gives them row by row, for
    the rows that pass every check and have a timestamp of the exact shape
    YYYY-MM-DDTHH:MM:SS: (converted, columns), where ``converted`` masks
    those rows, or is None when it is every row, and ``columns`` are their
    microseconds since 1970, prices, plot counts, and currencies as codes
    into ``symbols``, which gains their new currencies in order of first
    appearance.  ``stamps`` is an array of byte strings, and ``prices``,
    ``currency`` and ``plots`` are text fields or arrays of ASCII bytes
    without NULs (see :func:`_plot_counts` and :func:`_currency_codes`).
    A row that fails a check is left out of the later ones; the currency
    check comes last, so ``symbols`` gains only currencies of rows that
    pass every check."""
    micros, ok = _stamp_micros(stamps)
    converted, (prices, currency, plots) = _narrow(None, ok, prices, currency, plots)
    prices, ok = _prices(prices)
    converted, (micros, currency, plots) = _narrow(converted, ok, micros, currency, plots)
    counts, ok = _plot_counts(plots)
    converted, (micros, prices, currency) = _narrow(converted, ok, micros, prices, currency)
    codes, ok = _currency_codes(currency, currencies, symbols)
    converted, (micros, prices, counts) = _narrow(converted, ok, micros, prices, counts)
    return converted, (micros, prices, counts, codes)


def _narrow(converted, ok, *columns):
    """A mask of rows, ``converted`` (None: every row), narrowed to those
    of its rows that ``ok`` keeps, and ``columns``, one entry per row of
    ``converted``, narrowed to those rows.  ``ok`` None keeps every row."""
    if ok is None:
        return converted, columns
    if converted is None:
        converted = ok
    else:
        converted[converted] = ok
    return converted, tuple(c[ok] if isinstance(c, np.ndarray) else list(compress(c, ok))
                            for c in columns)


def _prices(prices):
    """The prices that cast to a float > 0 and finite, and a mask of them,
    or None when it is every one.  numpy's conversion of a price field to
    float64 gives ``float``'s value or fails where it fails; bytes lose
    fewer spaces than text (not the ASCII separators 0x1c-0x1f).  Where it
    fails on a field, each field goes through ``float`` instead."""
    try:
        values = np.asarray(prices, dtype=np.float64)
    except ValueError:
        fields = prices.tolist() if isinstance(prices, np.ndarray) else prices
        values = np.fromiter(map(_float, fields), np.float64, len(fields))
    ok = (values > 0.0) & np.isfinite(values)
    return (values, None) if ok.all() else (values[ok], ok)


def _float(field):
    """``float(field)``, or NaN where it fails."""
    try:
        return float(field)
    except ValueError:
        return math.nan


def _plot_counts(plots):
    """The plot counts that are integers from 1 to ``_MAX_PLOTS``, and a
    mask of them, or None when it is every one.  In an array of fields only
    those of 1-18 ASCII digits pass, read from their bytes as
    :func:`_stamp_micros` reads timestamps; text fields go through
    ``int(field.strip())`` once per distinct field."""
    ok = None
    if isinstance(plots, np.ndarray):
        chars = plots.view(np.uint8).reshape(len(plots), plots.itemsize)
        digits, pad = chars - np.uint8(ord("0")), chars == 0     # a NUL pads a short field
        plain = (digits < 10) | pad
        if plots.itemsize > 18 or not plain.all():
            ok = plain.all(axis=1) & ~chars[:, 18:].any(axis=1)
            digits, pad = digits[ok, :18], pad[ok, :18]
        counts = np.zeros(len(digits), np.int64)
        for digit, end in zip(digits.T, pad.T):
            counts = np.where(end, counts, counts * 10 + digit)
    else:
        fields, index = _distinct(plots)
        counts = np.array(list(map(_count, fields)), np.int64)[index]
    positive = counts >= 1          # an empty field reads 0, a field int fails 0
    if positive.all():
        return counts, ok
    ok, (counts,) = _narrow(ok, positive, counts)
    return counts, ok


def _count(field):
    """``int(field.strip())`` if it is from 1 to ``_MAX_PLOTS``, else 0."""
    try:
        count = int(field.strip())
    except ValueError:
        return 0
    return count if 1 <= count <= _MAX_PLOTS else 0


def _currency_codes(currency, currencies, symbols):
    """The codes into ``symbols`` of the currencies that are neither blank
    nor outside ``currencies``, and a mask of them, or None when it is
    every one; ``symbols`` gains their new currencies in order of first
    appearance.  In an array of ASCII fields, those whose bytes equal a
    symbol are coded by comparing them; the others, and text fields,
    convert once per distinct field."""
    if isinstance(currency, np.ndarray):
        codes = np.full(len(currency), -1)
        for name, code in symbols.items():
            codes[currency == name.encode()] = code
        rest = np.flatnonzero(codes < 0)
        if not len(rest):
            return codes, None
        fields = currency[rest].astype(str).tolist()
    else:
        codes, rest, fields = np.empty(len(currency), np.int64), slice(None), currency
    fields, index = _distinct(fields)
    names = [field.strip().upper() for field in fields]
    codes[rest] = np.array([symbols.setdefault(name, len(symbols))
                            if name and (currencies is None or name in currencies) else -1
                            for name in names], np.int64)[index]
    ok = codes >= 0
    return (codes, None) if ok.all() else (codes[ok], ok)


def _stamp_micros(stamps):
    """Microseconds since 1970 of the stamps, an array of byte strings, of
    the YYYY-MM-DDTHH:MM:SS shape that are a time ``datetime`` takes: from
    year 1, on a day of its month, and up to 23:59:59; and a mask of those
    stamps, or None when it is every one.  The fields are read as numbers,
    not parsed by numpy, whose parser takes a year 0 and crashes on an
    impossible date in a long array."""
    ok = None
    if stamps.dtype != "S19":       # a shorter stamp is padded with NULs
        ok = np.char.str_len(stamps) == 19
        stamps = stamps[ok].astype("S19")
    chars = stamps.view(np.uint8).reshape(len(stamps), 19)
    shaped = (chars >= _STAMP_LO) & (chars <= _STAMP_HI)
    if not shaped.all():
        ok, (chars,) = _narrow(ok, shaped.all(axis=1), chars)
    digits = (chars - np.uint8(ord("0"))).T
    century, year, month, day, hour, minute, second = (
        digits[[0, 2, 5, 8, 11, 14, 17]].astype(np.int64) * 10 + digits[[1, 3, 6, 9, 12, 15, 18]])
    year += 100 * century
    valid = ((year >= 1) & (day >= 1) & (day <= _MONTH_DAYS[month])
             & (hour < 24) & (minute < 60) & (second < 60))
    leap_day = np.flatnonzero((month == 2) & (day == 29))
    leap_year = year[leap_day]
    valid[leap_day[(leap_year % 4 != 0) | ((leap_year % 100 == 0) & (leap_year % 400 != 0))]] = False
    if not valid.all():
        ok, (year, month, day, hour, minute, second) = _narrow(
            ok, valid, year, month, day, hour, minute, second)
    months = (year - 1970) * 12 + month - 1
    days = months.astype("datetime64[M]").astype("datetime64[D]").view(np.int64) + day - 1
    return (((days * 24 + hour) * 60 + minute) * 60 + second) * 1_000_000, ok


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
    """The line feeds of a plain block, a mask of the lines ``csv.reader``
    would split into exactly ``width`` fields on their commas alone, or
    None when it is every line, and those lines' ``cols`` columns of their
    bytes for :func:`_parse_columns`, or None when there are none; or None
    if the block is not plain.

    A block is plain when it is ASCII text that ends in a line break, there
    is no ``"``, no NUL and no CR outside a CRLF ending, and no line is
    longer than the field size limit.  Such a line splits into ``width``
    fields when it has ``width - 1`` commas.  One scan of the commas and
    line feeds finds every field."""
    if not block.endswith("\n") or not block.isascii() or '"' in block or "\0" in block:
        return None
    data = block.encode("ascii")
    chars = np.frombuffer(data, np.uint8)
    at = np.flatnonzero(chars <= ord(","))     # every comma, CR and LF, and few others
    ends = at[chars[at] == ord("\n")]
    stops = at[(chars[at] == ord(",")) | (chars[at] == ord("\n"))]
    longest = np.diff(ends, prepend=-1).max()
    if longest > csv.field_size_limit():
        return None
    crlf = None
    if b"\r" in data:              # a CRLF ending's CR ends the last field
        crlf = chars[ends - 1] == ord("\r")
        if np.count_nonzero(crlf) != np.count_nonzero(chars[at] == ord("\r")):
            return None
    starts, split = np.concatenate(([0], stops[:-1] + 1)), None
    if len(stops) != len(ends) * width or np.any(stops[width - 1::width] != ends):
        line = np.searchsorted(ends, stops)     # the line of each comma and line feed
        split = np.bincount(line, minlength=len(ends)) == width
        if not split.any():
            return ends, split, None
        starts, stops = starts[split[line]], stops[split[line]]
        crlf = None if crlf is None else crlf[split]
    starts, stops = starts.reshape(-1, width), stops.reshape(-1, width)
    if crlf is not None:
        stops[:, -1] -= crlf
    data += bytes(int(longest))     # every field's widest window lies inside
    return ends, split, tuple(_gather(data, starts[:, i], stops[:, i]) for i in cols)


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


def _plain_records(block, ends, lines):
    """(lines before the line, fields) pairs of a plain block's ``lines``,
    positions among its lines, whose line feeds lie at ``ends``."""
    starts = np.concatenate(([0], ends[:-1] + 1))
    for line, start, end in zip(lines.tolist(), starts[lines].tolist(), ends[lines].tolist()):
        yield line, block[start:end].removesuffix("\r").split(",")


def _lines(block):
    """A block's lines as a file opened with ``newline=""`` reads them,
    each ending in LF, CRLF or a lone CR.  ``str.splitlines`` gives them
    faster where the block holds none of the other breaks it splits on."""
    if block.isascii() and not any(c in block for c in "\v\f\x1c\x1d\x1e"):
        return block.splitlines(keepends=True)
    return io.StringIO(block, newline="").readlines()


def _csv_records(block, blocks):
    """As many records as the first ``_CSV_CHARS`` characters of a block,
    cut after a line feed, have lines, as ``csv.reader`` reads them: the
    lines read, the records, (lines read before the record, record) pairs
    of them, and the text after the last record read.  Records that span
    lines are read on into the rest of the block and the ``blocks`` after
    it, and only then are the records read again to count their lines."""
    cut = len(block)
    if cut >= 2 * _CSV_CHARS:           # leave no short piece behind
        cut = block.rfind("\n", 0, _CSV_CHARS) + 1 or cut
    lines, rest = _lines(block[:cut]), block[cut:]
    later, extra = None, []             # the text read on into, if any, and its lines read

    def read_on():
        nonlocal later
        for later in map(io.StringIO, chain((rest,), blocks), repeat("")):
            for line in later:
                extra.append(line)
                yield line

    reader = csv.reader(chain(lines, read_on()))
    rows = list(islice(reader, len(lines)))
    records = enumerate(rows)
    if reader.line_num != len(rows):   # some record spans lines
        records = list(islice(_numbered(csv.reader(chain(lines, extra))), len(lines)))
    return reader.line_num, rows, records, rest if later is None else later.read()


def _csv_columns(rows, read, width, cols):
    """The ``cols`` columns of the ``rows`` of csv records for
    :func:`_parse_columns`, or None unless every record is one line, for
    ``read`` lines, with at least ``width`` fields."""
    if read != len(rows) or min(map(len, rows)) < width:
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
    shuffled = recode = False       # see the end
    with open_csv(path) as fh:
        reader = csv.reader(fh)
        width, cols = _read_header(reader, path, TRANSACTION_COLUMNS, "transactions")
        cols = cols[:4]                             # tx_id is required but not kept
        first = reader.line_num + 1                 # the file line a block starts on
        blocks = _text_blocks(fh)
        block = next(blocks, "")
        while block:
            known, plain, records, rest = len(symbols), _plain_columns(block, width, cols), (), ""
            if plain is not None:
                ends, converted, columns = plain
                read = len(ends)
            else:
                read, rows, records, rest = _csv_records(block, blocks)
                converted, columns = None, _csv_columns(rows, read, width, cols)
                del rows
            parsed = None if columns is None else _parse_columns(*columns, currencies, symbols)
            if parsed is not None:
                converted = _narrow(converted, parsed[0])[0]
            if parsed is None or (plain is None and converted is not None):
                converted = np.zeros(read, bool)    # a csv block converts whole or not at all
            at = np.arange(read) if converted is None else np.flatnonzero(converted)
            if len(at):
                lines.frombytes((first + at).tobytes())
                for buffer, column in zip((stamps, prices, plots, codes), parsed[1]):
                    buffer.frombytes(column.tobytes())
            if converted is not None:               # the other lines take the row checks
                if plain is not None:
                    records = _plain_records(block, ends, np.flatnonzero(~converted))
                checked = len(lines)
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
                shuffled = shuffled or (len(at) > 0 and len(lines) > checked)
                recode = recode or max(codes[checked:], default=-1) >= known
            first += read
            del block, plain, columns, parsed, records      # hold one block at a time, not two
            block = rest or next(blocks, "")
    table = TransactionTable(
        timestamp=np.asarray(stamps, np.int64).view("datetime64[us]"),
        native_price=prices, num_plots=plots, currency=codes,
        symbols=tuple(symbols), line=lines)
    if shuffled:        # a block's rows that took the row checks follow its converted ones
        table = table[np.argsort(table.line, kind="stable")]
    if recode:          # one of them brought a currency new in its block
        table = _recoded(table)
    return table, rejected


def _recoded(table):
    """``table`` with its symbols in order of first appearance."""
    present, first = np.unique(table.currency, return_index=True)
    order = present[np.argsort(first)]
    code = np.empty(len(table.symbols), np.intp)
    code[order] = np.arange(len(order))
    return table.with_columns(currency=code[table.currency],
                              symbols=tuple(table.symbols[i] for i in order))


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
    return converted.with_columns(usd_price=converted.native_price * rate[quoted]), rejected


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
    return transactions.with_columns(usd_price=winsorize(usd_price, winsor_lo, winsor_hi))


def rejections_to_csv(rejected, path) -> None:
    write_csv(path, ["line", "reason"], ((r.line, r.reason) for r in rejected))
