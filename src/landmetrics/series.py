"""Time-series container and descriptive statistics.

The :class:`TimeSeries` type is the common currency between the ingest,
index-construction, bubble-dating, and VAR stages.  It is deliberately
minimal: a name, a frequency, strictly increasing dates, and a float64
value per date.  The calendar is decided here: :func:`grid_step` is each
frequency's step, and a series' dates lie on its grid, so series align by
date arithmetic alone; :func:`period_start` labels the period holding a
day; and a gap is a grid date missing strictly inside a series' span
(:func:`grid_gaps`), allowed in the container and dealt with downstream.

Conventions fixed here and relied on elsewhere:

* quantiles use linear interpolation (Hyndman-Fan type 7, numpy default);
* kurtosis is the plain moment ratio ``m4 / m2**2`` (normal data -> ~3,
  not 0); skewness is ``m3 / m2**1.5``;
* ``std_dev`` is the n-1 sample standard deviation;
* statistics that are undefined for a sample are reported as ``None``,
  never as a silent 0.

Every file the package writes goes through :func:`write_csv` or
:func:`write_json`.  A CSV cell is written by one rule:

* ``None`` and NaN are empty cells;
* ``bool`` and ``np.bool_`` are ``1``/``0``;
* other floats are in shortest round-trip form (``inf`` stays ``inf``);
* dates and datetimes are ISO 8601;
* anything else is ``str(value)``.

JSON files are indented by 2 with sorted keys and end in a newline.
The transactions, prices and series files are read through
:func:`open_csv`, which reports text that cannot be read as a
:class:`SchemaError`.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
import math
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InsufficientDataError, SchemaError, ValidationError

#: the grid step of each frequency
_STEP = {"daily": dt.timedelta(days=1), "weekly": dt.timedelta(days=7)}


def grid_step(freq: str) -> dt.timedelta:
    """The grid step of ``freq``, which must be ``"daily"`` or ``"weekly"``."""
    try:
        return _STEP[freq]
    except KeyError:
        raise ValidationError(f"freq must be one of {tuple(_STEP)}, got {freq!r}") from None


def period_start(day: np.ndarray, freq: str) -> np.ndarray:
    """The first day of the period holding each day (datetime64[D]): the
    day itself, or the Monday of its ISO week."""
    step = grid_step(freq).days
    ordinal = day.astype(np.int64)       # day 0, 1970-01-01, was a Thursday
    return (ordinal - (ordinal + 3) % step).astype("datetime64[D]")


def _fmt(x: float) -> str:
    """Shortest round-trip decimal form of a float (deterministic)."""
    return repr(float(x))


def _cell(x) -> str:
    """One CSV cell by the module's cell rule."""
    if isinstance(x, float):
        return "" if math.isnan(x) else _fmt(x)
    if x is None:
        return ""
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, dt.date):
        return x.isoformat()
    return str(x)


def write_csv(path, header, rows, comment: str | None = None) -> None:
    """Write ``header`` and then ``rows``, each cell by the cell rule.

    A ``comment`` goes first, as one ``# comment`` line.
    """
    with open(path, "w", newline="") as fh:
        if comment is not None:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_cell(x) for x in row] for row in rows)


@contextmanager
def open_csv(path):
    """Open ``path`` for ``csv.reader``; a field over the csv field size
    limit or bytes the text encoding cannot decode, met while reading it,
    raise :class:`SchemaError` naming the file."""
    try:
        with open(path, newline="") as fh:
            yield fh
    except csv.Error as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not {exc.encoding} text: {exc.reason}") from exc


def write_json(path, obj) -> None:
    """Write ``obj`` as JSON, indented by 2, keys sorted, newline-terminated."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass(frozen=True)
class TimeSeries:
    """A named series of float values on strictly increasing dates.

    ``freq`` is ``"daily"`` or ``"weekly"``.  Consecutive dates differ by
    a multiple of the frequency's step: one step, or more across a gap.
    """

    name: str
    freq: str
    dates: tuple[dt.date, ...]
    values: np.ndarray

    def __post_init__(self):
        step = grid_step(self.freq)
        dates = tuple(self.dates)
        vals = np.asarray(self.values, dtype=np.float64).copy()
        if vals.ndim != 1:
            raise ValidationError("values must be one-dimensional")
        if len(dates) != vals.shape[0]:
            raise ValidationError(
                f"{len(dates)} dates but {vals.shape[0]} values in series {self.name!r}"
            )
        if len(dates) == 0:
            raise ValidationError(f"series {self.name!r} is empty")
        if not all(isinstance(d, dt.date) and not isinstance(d, dt.datetime) for d in dates):
            raise ValidationError("dates must be datetime.date instances")
        for a, b in zip(dates, dates[1:]):
            if b <= a:
                raise ValidationError(f"dates not strictly increasing at {b} in {self.name!r}")
        for d in dates[1:]:
            if (d - dates[0]) % step:
                raise ValidationError(f"{self.freq} series {self.name!r} has off-grid date {d}")
        if not np.all(np.isfinite(vals)):
            bad = dates[int(np.flatnonzero(~np.isfinite(vals))[0])]
            raise ValidationError(f"non-finite value at {bad} in series {self.name!r}")
        vals.flags.writeable = False
        object.__setattr__(self, "dates", dates)
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.dates)

    @property
    def step(self) -> dt.timedelta:
        return grid_step(self.freq)

    def rename(self, name: str) -> "TimeSeries":
        return TimeSeries(name, self.freq, self.dates, self.values)

    # -- serialization: two-column CSV ``date,value`` ---------------------

    def to_csv(self, path) -> None:
        write_csv(path, ["date", "value"], zip(self.dates, self.values))

    @classmethod
    def from_csv(cls, path, name: str, freq: str) -> "TimeSeries":
        dates, values = [], []
        with open_csv(path) as fh:
            r = csv.reader(fh)
            header = next(r, None)
            if header is None or [h.strip() for h in header[:2]] != ["date", "value"]:
                raise SchemaError(f"{path}: expected header 'date,value', got {header}")
            for i, row in enumerate(r, start=2):
                if not row:
                    continue
                if len(row) < 2:
                    raise SchemaError(f"{path}: line {i}: expected 2 fields")
                try:
                    dates.append(dt.date.fromisoformat(row[0].strip()))
                    values.append(float(row[1]))
                except ValueError as exc:
                    raise SchemaError(f"{path}: line {i}: {exc}") from exc
        return cls(name=name, freq=freq, dates=tuple(dates), values=np.array(values))


@dataclass(frozen=True)
class SummaryStats:
    """Descriptive statistics of one sample.

    ``std_dev``, ``skewness``, and ``kurtosis`` are ``None`` when the
    sample cannot support them (fewer than 2 points, or zero variance
    for the shape moments).  Percentiles are type-7.  ``kurtosis`` is
    non-excess: standard normal data gives values near 3.
    """

    n: int
    mean: float
    min: float
    max: float
    std_dev: float | None
    skewness: float | None
    kurtosis: float | None
    p5: float
    p50: float
    p95: float


def _quantiles(x, qs) -> list:
    """Type-7 quantiles of ``x`` along its first axis at each q in ``qs``,
    bit for bit ``np.quantile``'s, which imports ``numpy.ma`` through
    ``np.unique``: ``x`` is partitioned at numpy's positions, so even zeros
    of either sign land where numpy puts them, and numpy's interpolation is
    redone, g counting from i = -1 where (n - 1) q reaches the last value."""
    last = len(x) - 1
    at = [(h, math.floor(h) if h < last else -1) for h in (last * q for q in qs)]
    x = np.partition(x, sorted({0, -1, *(i for _, i in at), *(i + (i >= 0) for _, i in at)}), axis=0)
    out = []
    for h, i in at:
        a, b, g = x[i], x[i + (i >= 0)], h - i
        out.append(b - (b - a) * (1.0 - g) if g >= 0.5 else a + (b - a) * g)
    return out


def summary_stats(values) -> SummaryStats:
    """Compute :class:`SummaryStats` for a non-empty sequence of finite values."""
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 1:
        raise ValidationError("summary_stats expects a one-dimensional sample")
    if x.shape[0] == 0:
        raise InsufficientDataError("summary_stats requires at least one value")
    if not np.all(np.isfinite(x)):
        raise ValidationError("summary_stats requires finite values")
    n = int(x.shape[0])
    mean = float(x.mean())
    dev = x - mean
    m2 = float(np.mean(dev**2))
    std_dev = float(x.std(ddof=1)) if n >= 2 else None
    if n >= 2 and m2 > 0.0:
        # unitless moments computed on rescaled deviations, so samples with
        # variance near the subnormal range cannot underflow to 0/0
        z = dev / np.abs(dev).max()
        mz2 = float(np.mean(z**2))
        skewness = float(np.mean(z**3) / mz2**1.5)
        kurtosis = float(np.mean(z**4) / mz2**2)
    else:
        skewness = None
        kurtosis = None
    p5, p50, p95 = map(float, _quantiles(x, (0.05, 0.50, 0.95)))
    return SummaryStats(
        n=n,
        mean=mean,
        min=float(x.min()),
        max=float(x.max()),
        std_dev=std_dev,
        skewness=skewness,
        kurtosis=kurtosis,
        p5=p5,
        p50=p50,
        p95=p95,
    )


def winsorize(values, lo_q: float, hi_q: float) -> np.ndarray:
    """Clamp values to empirical quantile bounds of the sample.

    Order and length are preserved; only magnitudes are clamped.  The
    bounds are order statistics picked by rounding the quantile position
    inward (``ceil`` for the low bound, ``floor`` for the high one).
    Because the bounds are actual sample values at positions that depend
    only on the sample size, the operation is exactly idempotent:
    re-winsorizing the output at the same quantiles is a no-op.
    Interpolating quantile methods do not have that property.
    """
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] == 0:
        raise ValidationError("winsorize expects a non-empty one-dimensional sample")
    if not np.all(np.isfinite(x)):
        raise ValidationError("winsorize requires finite values")
    if not (0.0 <= lo_q < hi_q <= 1.0):
        raise ValidationError(f"need 0 <= lo_q < hi_q <= 1, got ({lo_q}, {hi_q})")
    lo = np.quantile(x, lo_q, method="higher")
    hi = np.quantile(x, hi_q, method="lower")
    if lo > hi:  # tiny samples with narrow quantile ranges can cross
        lo = hi
    return np.clip(x, lo, hi)


def resample_weekly(series: TimeSeries, rule: str = "last") -> TimeSeries:
    """Aggregate a daily series into ISO weeks (Monday through Sunday).

    The weekly point is labeled by :func:`period_start`.  ``rule``
    selects the aggregate: ``"last"`` takes the final observation of the
    week, ``"mean"`` the average of that week's observations.  A weekly
    input is returned unchanged with a warning.
    """
    if rule not in ("last", "mean"):
        raise ValidationError(f"rule must be 'last' or 'mean', got {rule!r}")
    if series.freq == "weekly":
        warnings.warn(f"series {series.name!r} is already weekly; resample is a no-op")
        return series
    buckets: dict[dt.date, list[float]] = {}
    labels = period_start(np.array(series.dates, "datetime64[D]"), "weekly").tolist()
    for monday, v in zip(labels, series.values):
        buckets.setdefault(monday, []).append(float(v))
    mondays = sorted(buckets)
    if rule == "last":
        vals = [buckets[m][-1] for m in mondays]
    else:
        vals = [math.fsum(buckets[m]) / len(buckets[m]) for m in mondays]
    return TimeSeries(series.name, "weekly", tuple(mondays), np.array(vals))


def require_positive(series: TimeSeries, what: str) -> None:
    """Raise :class:`DomainError` naming the first date whose value is not
    positive: ``what`` (a log transform) of ``series`` is undefined there."""
    bad = np.flatnonzero(series.values <= 0.0)
    if bad.size:
        raise DomainError(f"{what} of {series.name!r} needs positive values; "
                          f"value at {series.dates[int(bad[0])]} is not")


def difference(series: TimeSeries, mode: str = "log") -> TimeSeries:
    """First difference of a series; ``mode="log"`` gives log returns.

    The i-th output is ``f(x[i+1]) - f(x[i])`` dated at the later
    observation.  Log mode requires strictly positive values and raises
    :class:`DomainError` naming the first offending date otherwise.
    """
    if mode not in ("log", "simple"):
        raise ValidationError(f"mode must be 'log' or 'simple', got {mode!r}")
    if len(series) < 2:
        raise InsufficientDataError(f"cannot difference series {series.name!r} of length {len(series)}")
    x = series.values
    if mode == "log":
        require_positive(series, "log difference")
        out = np.diff(np.log(x))
        suffix = "_dlog"
    else:
        out = np.diff(x)
        suffix = "_diff"
    return TimeSeries(series.name + suffix, series.freq, series.dates[1:], out)


@dataclass(frozen=True)
class CorrelogramEntry:
    offset: int
    corr: float | None
    n_pairs: int


@dataclass(frozen=True)
class Correlogram:
    """Lead-lag correlations between two series at offsets -K..K.

    The entry at offset ``k`` is the Pearson correlation between ``x`` at
    time t and ``y`` at time t-k over the dates where both exist, so
    positive offsets correlate current ``x`` against past ``y``.  Entries
    with fewer than 3 overlapping pairs, or a zero-variance overlap, have
    ``corr`` set to ``None``.
    """

    max_lag: int
    entries: tuple[CorrelogramEntry, ...] = field(repr=False)

    def entry(self, offset: int) -> CorrelogramEntry:
        return self.entries[offset + self.max_lag]

    def argmax_offset(self) -> int:
        best, best_k = -np.inf, 0
        for e in self.entries:
            if e.corr is not None and e.corr > best:
                best, best_k = e.corr, e.offset
        if best == -np.inf:
            raise InsufficientDataError("correlogram has no defined entries")
        return best_k

    def to_csv(self, path) -> None:
        write_csv(path, ["offset", "corr", "n_pairs"],
                  ((e.offset, e.corr, e.n_pairs) for e in self.entries))


def _pearson(a: np.ndarray, b: np.ndarray) -> float | None:
    if a.shape[0] < 3:
        return None
    da = a - a.mean()
    db = b - b.mean()
    va = float(da @ da)
    vb = float(db @ db)
    if va <= 0.0 or vb <= 0.0:
        return None
    return float((da @ db) / math.sqrt(va * vb))


def lead_lag_correlation(x: TimeSeries, y: TimeSeries, max_lag: int = 10) -> Correlogram:
    """Correlogram of ``x`` against date-shifted ``y`` for offsets -K..K.

    Alignment is by calendar date on the series' common grid, so gaps
    shrink ``n_pairs`` instead of silently misaligning observations.
    """
    if x.freq != y.freq:
        raise ValidationError(f"frequency mismatch: {x.freq} vs {y.freq}")
    if max_lag < 1:
        raise ValidationError(f"max_lag must be >= 1, got {max_lag}")
    step = x.step
    y_map = {d: float(v) for d, v in zip(y.dates, y.values)}
    entries = []
    for k in range(-max_lag, max_lag + 1):
        xs, ys = [], []
        for d, v in zip(x.dates, x.values):
            shifted = d - k * step
            if shifted in y_map:
                xs.append(float(v))
                ys.append(y_map[shifted])
        corr = _pearson(np.array(xs), np.array(ys))
        entries.append(CorrelogramEntry(offset=k, corr=corr, n_pairs=len(xs)))
    return Correlogram(max_lag=max_lag, entries=tuple(entries))


def pairwise_correlation(series_list) -> np.ndarray:
    """Pairwise-complete Pearson correlation matrix of several series.

    Entry (i, j) uses the dates where both series are present.  Undefined
    entries (overlap < 3 or zero variance) are NaN.  The diagonal is 1.
    """
    series_list = list(series_list)
    if len(series_list) < 2:
        raise ValidationError("pairwise_correlation needs at least two series")
    freqs = {s.freq for s in series_list}
    if len(freqs) > 1:
        raise ValidationError(f"mixed frequencies: {sorted(freqs)}")
    k = len(series_list)
    maps = [{d: float(v) for d, v in zip(s.dates, s.values)} for s in series_list]
    out = np.eye(k)
    for i in range(k):
        for j in range(i + 1, k):
            common = [d for d in series_list[i].dates if d in maps[j]]
            a = np.array([maps[i][d] for d in common])
            b = np.array([maps[j][d] for d in common])
            c = _pearson(a, b)
            out[i, j] = out[j, i] = np.nan if c is None else c
    return out


def restrict(series: TimeSeries, start: dt.date, end: dt.date) -> TimeSeries:
    """The sub-series with start <= date <= end (must be non-empty)."""
    keep = [i for i, d in enumerate(series.dates) if start <= d <= end]
    if not keep:
        raise InsufficientDataError(
            f"series {series.name!r} has no observations in [{start}, {end}]"
        )
    return TimeSeries(
        series.name,
        series.freq,
        tuple(series.dates[i] for i in keep),
        series.values[keep],
    )


def _grid(series: TimeSeries) -> list[dt.date]:
    """Every grid date from the series' first date to its last."""
    step = series.step
    return [series.dates[0] + i * step
            for i in range((series.dates[-1] - series.dates[0]) // step + 1)]


def grid_gaps(series: TimeSeries) -> list[dt.date]:
    """The gaps of a series: grid dates missing strictly inside its span."""
    present = set(series.dates)
    return [d for d in _grid(series) if d not in present]


def fill_gaps_loglinear(series: TimeSeries) -> TimeSeries:
    """Fill the series' gaps (:func:`grid_gaps`) by interpolating linearly
    in log space between the present dates around each one.

    The result has the series' frequency and every grid date of its
    span.  Requires strictly positive values.  A gap-free series is
    returned unchanged.
    """
    gaps = grid_gaps(series)
    if not gaps:
        return series
    require_positive(series, "log-linear fill")
    logv = {d: math.log(v) for d, v in zip(series.dates, series.values)}
    known = series.dates
    grid = _grid(series)
    values = []
    ki = 0      # known[ki - 1] and known[ki] bracket each gap
    for d in grid:
        if d in logv:
            values.append(math.exp(logv[d]))
            ki += 1
        else:
            left = known[ki - 1]
            right = known[ki]
            w = (d - left).days / (right - left).days
            values.append(math.exp((1.0 - w) * logv[left] + w * logv[right]))
    return TimeSeries(series.name, series.freq, tuple(grid), np.array(values))
