"""Hedonic price index from USD-denominated land transactions.

The index is the exponentiated period fixed effect from one pooled
regression of log price on period effects plus two attribute controls:

    ln(usd_price) = a_period + b1 * ln(num_plots) + b2 * weth + e

A period (a day or an ISO week, labeled by ``series.period_start``) is
estimable with at least ``min_per_period`` transactions; the others'
transactions do not enter the regression.  The index spans the first
estimable period, the base (delta identically 0, index exactly 1), to
the last.  Its gaps are ``series.grid_gaps`` of the index: the periods
inside that span under ``min_per_period`` transactions, none included.
A sale's period code is its count of grid steps from the first period,
or its rank among the periods with sales where a count exceeds the sales.

The period effects are absorbed (Frisch-Waugh-Lovell): log price y and
the K <= 2 controls are demeaned within each period, and modified
Gram-Schmidt fits y~ on the demeaned controls X~.  The second control
less its projection c on the first leaves the pivot D_2 (D_1 is the
first's sum of squares); y~ less its projection on each in turn leaves
the residuals e, rss = e . e.  Each period's effect a_p = ybar_p - xbar_p . b
is reported as delta_p = a_p - a_base.  With sigma2 = rss / (n - P - K)
over P periods and V = (X~' X~)^-1, these are the dummy regression's own
estimates and classical standard errors, with no n x P design built:

    se(delta_p) = sqrt(sigma2 * (1/n_p + 1/n_base + d_p' V d_p)),
    d_p = xbar_p - xbar_base,  d' V d = d_1^2 / D_1 + (d_2 - c d_1)^2 / D_2,
    se(b_j) = sqrt(sigma2 * V_jj).

Every sum over the sales is a ``np.bincount`` or an ``np.add.reduce``,
in numpy's fixed order: no BLAS kernel or thread count moves a digit.
A control that does not vary in the estimation sample is dropped and
its coefficient reported as ``None``.  A kept control collinear with
the period effects (constant inside every period), or with the other
control once they are removed, raises a ``SingularDesignError``.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InsufficientDataError, SingularDesignError, ValidationError
from .series import TimeSeries, grid_gaps, grid_step, period_start, write_csv

#: a kept control whose pivot falls below COLLINEAR_RTOL times its centered
#: sum of squares is collinear with the rest of the design
COLLINEAR_RTOL = 1e-16


#: the table's columns and their dtypes
_COLUMNS = {"timestamp": "datetime64[us]", "native_price": np.float64, "num_plots": np.int64,
            "currency": np.intp, "line": np.int64, "usd_price": np.float64}


@dataclass(frozen=True, eq=False)
class TransactionTable:
    """Land sales as numpy columns, one entry per sale, in input order.

    ``timestamp`` is naive UTC (datetime64[us]), ``currency`` indexes
    ``symbols``, and ``line`` is the sale's 1-based line in the file it
    was read from (0 for sales built in memory).  ``usd_price`` is
    ``None`` until the table is converted to USD.  Each column is checked
    once, on construction: prices are positive and finite, plot counts are
    at least 1, and every currency code names a non-empty symbol.  The
    table is the only in-memory form of a sale; indexing it gives a
    sub-table.
    """

    timestamp: np.ndarray
    native_price: np.ndarray
    num_plots: np.ndarray
    currency: np.ndarray
    symbols: tuple[str, ...]
    line: np.ndarray
    usd_price: np.ndarray | None = None

    def __post_init__(self):
        n = len(self.timestamp)
        for name, dtype in _COLUMNS.items():
            if getattr(self, name) is not None:
                column = np.asarray(getattr(self, name), dtype)
                if column.shape != (n,):
                    raise ValidationError("transaction columns must be 1-D and of equal length")
                object.__setattr__(self, name, column)
        for name in ("usd_price", "native_price"):
            x = getattr(self, name)
            if x is not None and not np.all((x > 0.0) & np.isfinite(x)):
                raise ValidationError(f"{name} must be > 0")
        if not np.all(self.num_plots >= 1):
            raise ValidationError("num_plots must be an integer >= 1")
        coded = np.all((self.currency >= 0) & (self.currency < len(self.symbols)))
        if not (coded and all(self.symbols)):
            raise ValidationError("currency codes must index non-empty symbols")

    def __len__(self) -> int:
        return len(self.timestamp)

    @property
    def day(self) -> np.ndarray:
        """Calendar day of each sale (datetime64[D])."""
        return self.timestamp.astype("datetime64[D]")

    @property
    def paid_in_weth(self) -> np.ndarray:
        """Whether each sale settled in wETH."""
        return np.array([s.upper() == "WETH" for s in self.symbols], bool)[self.currency]

    def __getitem__(self, key) -> "TransactionTable":
        """The sub-table at ``key``: a slice, a mask or positions."""
        return replace(self, **{name: getattr(self, name)[key] for name in _COLUMNS
                                if getattr(self, name) is not None})

    def usd_prices(self) -> np.ndarray:
        """The USD price column; a table not yet converted has none."""
        if self.usd_price is None:
            raise ValidationError("transactions have no USD prices yet")
        return self.usd_price


@dataclass(frozen=True)
class HpiPoint:
    """Index level of one period; base period has delta 0 and index 1."""

    period: dt.date
    index: float
    delta: float
    delta_se: float | None
    n_transactions: int


@dataclass(frozen=True)
class HedonicFit:
    """Pooled-regression metadata accompanying the index points.

    Control coefficients are ``None`` when the corresponding column had
    no variation and was dropped.
    """

    beta_log_plots: float | None
    se_log_plots: float | None
    beta_weth: float | None
    se_weth: float | None
    n_obs: int
    rss: float
    df_resid: int
    base_period: dt.date
    gap_periods: tuple[dt.date, ...]

    def to_json_dict(self) -> dict:
        return {
            "base_period": self.base_period.isoformat(),
            "beta_log_plots": self.beta_log_plots,
            "se_log_plots": self.se_log_plots,
            "beta_weth": self.beta_weth,
            "se_weth": self.se_weth,
            "n_obs": self.n_obs,
            "rss": self.rss,
            "df_resid": self.df_resid,
            "gap_periods": [d.isoformat() for d in self.gap_periods],
        }


def _log(values) -> np.ndarray:
    """``math.log`` of each value: np.log can differ from it in the last bit."""
    return np.fromiter(map(math.log, values), np.float64, len(values))


def _log_by_value(values) -> np.ndarray:
    """:func:`_log` of each value, taken once per distinct value through a
    table indexed by value, unless a value exceeds the count of values."""
    top = int(values.max())
    if top > len(values):
        return _log(values)
    table, seen = np.zeros(top + 1), np.flatnonzero(np.bincount(values))
    table[seen] = _log(seen)
    return table[values]


def _controls(transactions, sample):
    """The candidate controls of the ``sample`` rows, by name, built one at
    a time."""
    yield "log_num_plots", _log_by_value(transactions.num_plots[sample])
    yield "weth_flag", transactions.paid_in_weth[sample].astype(np.float64)


def _within(values, code, counts):
    """Per-period means of ``values`` and the values less their period mean."""
    means = np.bincount(code, weights=values, minlength=counts.size) / counts
    return means, values - means[code]


def _dot(a, b) -> float:
    """``sum(a * b)`` in numpy's pairwise order, which no BLAS or thread count moves."""
    return float(np.add.reduce(a * b))


def build_hpi(
    transactions: TransactionTable,
    freq: str = "weekly",
    min_per_period: int = 3,
) -> tuple[list[HpiPoint], HedonicFit]:
    """Estimate the hedonic index over all estimable periods.

    ``transactions`` is a table converted to USD.  Returns one
    :class:`HpiPoint` per estimable period (in order) and the
    :class:`HedonicFit` with the pooled control coefficients.  Periods
    with fewer than ``min_per_period`` transactions are not estimated:
    their transactions do not enter the regression and no point is
    emitted for them.  ``gap_periods`` are the grid periods missing
    inside the index's span, whether thin or without any sale.
    """
    if min_per_period < 1:
        raise ValidationError(f"min_per_period must be >= 1, got {min_per_period}")
    usd_price = transactions.usd_prices()
    step = grid_step(freq).days
    slot = period_start(transactions.day, freq).view(np.int64)
    first = slot.min(initial=np.iinfo(np.int64).max)      # an empty table has no slot
    slot = (slot - first) // step
    top = int(slot.max(initial=-1))     # past the sale count only for a far-off date
    seen, slot = (np.unique(slot, return_inverse=True) if top > len(slot)
                  else (np.arange(top + 1), slot))
    counts = np.bincount(slot)
    estimable = counts >= min_per_period
    periods = (first + step * seen[estimable]).astype("datetime64[D]").tolist()
    if len(periods) < 2:
        raise InsufficientDataError(f"need at least 2 periods with >= {min_per_period} "
                                    f"transactions, found {len(periods)}")
    sample = estimable[slot]
    code = (np.cumsum(estimable) - 1)[slot[sample]]
    del slot
    n_per = counts[estimable]
    n = len(code)

    # each column is freed once demeaned, so the fit holds few at a time
    y_mean, y = _within(_log(usd_price[sample]), code, n_per)
    kept, scales, x_mean, x = [], [], [], []
    for name, column in _controls(transactions, sample):
        if np.ptp(column) > 0.0:
            kept.append(name)
            scales.append(COLLINEAR_RTOL * float(np.sum((column - column.mean()) ** 2)))
            mean, column = _within(column, code, n_per)
            x_mean.append(mean)
            x.append(column)
    del sample, code, column
    k = len(kept)
    if n < len(periods) + k:
        raise InsufficientDataError(f"{n} rows < {len(periods) + k} columns")

    # modified Gram-Schmidt on [x_1, x_2, y]; a control is collinear when its
    # sum of squares or pivot falls to COLLINEAR_RTOL times its centered one
    pivots, coef = [], 0.0          # coef: the second control on the first
    for j, column in enumerate(x):
        pivots.append(_dot(column, column))
        if pivots[j] <= scales[j]:
            raise SingularDesignError(f"{kept[j]} is collinear with the period effects",
                                      columns=(kept[j],))
        if j:
            coef = _dot(x[0], column) / pivots[0]
            column -= coef * x[0]
            pivots[j] = _dot(column, column)
            if pivots[j] <= scales[j]:
                raise SingularDesignError(f"{', '.join(kept)} are collinear once the "
                                          "period effects are removed", columns=tuple(kept))
    b = []
    for column, pivot in zip(x, pivots):
        b.append(_dot(column, y) / pivot)
        y -= b[-1] * column
    rss = _dot(y, y)
    # fitted on x_1 and u_2 = x_2 - coef x_1, where V is diagonal: b and V_jj map
    # back to x, d_p onto u
    d = [mean - mean[0] for mean in x_mean]
    v = [1.0 / pivot for pivot in pivots]
    if k == 2:
        b[0] -= coef * b[1]
        d[1] -= coef * d[0]
        v[0] += coef * coef / pivots[1]
    alpha = y_mean - sum(b_j * mean for mean, b_j in zip(x_mean, b))
    delta = alpha - alpha[0]
    df_resid = n - len(periods) - k
    if df_resid > 0:
        sigma2 = rss / df_resid
        quad = sum(d_j * d_j / pivot for d_j, pivot in zip(d, pivots))
        delta_se = np.sqrt(sigma2 * (1.0 / n_per + 1.0 / n_per[0] + quad))
        beta_se = [math.sqrt(sigma2 * v_j) for v_j in v]
    else:
        delta_se = beta_se = None

    points = [HpiPoint(period=p, index=math.exp(delta[i]), delta=float(delta[i]),
                       delta_se=float(delta_se[i]) if i and delta_se is not None else None,
                       n_transactions=int(n_per[i]))
              for i, p in enumerate(periods)]
    beta = dict(zip(kept, b))
    se = dict(zip(kept, beta_se)) if beta_se is not None else {}
    meta = HedonicFit(
        beta_log_plots=beta.get("log_num_plots"),
        se_log_plots=se.get("log_num_plots"),
        beta_weth=beta.get("weth_flag"),
        se_weth=se.get("weth_flag"),
        n_obs=n,
        rss=rss,
        df_resid=df_resid,
        base_period=periods[0],
        gap_periods=tuple(grid_gaps(hpi_to_series(points, freq=freq))),
    )
    return points, meta


def hpi_to_series(points, name: str = "hpi", freq: str = "weekly") -> TimeSeries:
    """Index levels as a TimeSeries; gap periods are simply absent dates."""
    pts = list(points)
    if not pts:
        raise ValidationError("hpi_to_series needs at least one point")
    dates = tuple(p.period for p in pts)
    values = np.array([p.index for p in pts])
    return TimeSeries(name=name, freq=freq, dates=dates, values=values)


def hpi_points_to_csv(points, path) -> None:
    """Write the index in the ``period,index,delta,n_transactions`` schema."""
    write_csv(path, ["period", "index", "delta", "n_transactions"],
              ((p.period, p.index, p.delta, p.n_transactions) for p in points))
