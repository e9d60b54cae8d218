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
Thin periods at either edge fall outside the index.

The period effects are absorbed rather than estimated as dummy columns
(Frisch-Waugh-Lovell).  Log price and the K <= 2 controls are demeaned
within each period, the controls' coefficients b come from least squares
of demeaned price on the demeaned controls X~, and each period's effect
is a_p = ybar_p - xbar_p . b, reported as delta_p = a_p - a_base.  The
residuals are the demeaned ones, rss = e . e, and with
sigma2 = rss / (n - P - K) over P periods and V = (X~' X~)^-1:

    se(delta_p) = sqrt(sigma2 * (1/n_p + 1/n_base + d_p' V d_p)),
    d_p = xbar_p - xbar_base,
    se(b_j) = sqrt(sigma2 * V_jj).

These are the dummy regression's own estimates and classical standard
errors; no n x P design is ever built.

A control column that does not vary in the estimation sample (all
single-plot sales, or no wETH sales at all) carries no information and
is dropped; its coefficient is reported as ``None``.  A kept control
that is collinear with the period effects (constant inside every
period), or with the other control once the period effects are removed,
raises a singular-design error naming the controls involved.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InsufficientDataError, SingularDesignError, ValidationError
from .series import TimeSeries, grid_gaps, period_start, write_csv

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
    """:func:`_log` of each value, taken once per distinct value.  Each value
    finds its distinct value by ``np.searchsorted``, which holds one index
    array; ``np.unique``'s ``return_inverse`` holds a sort permutation and
    its inverse besides."""
    # asked for counts, np.unique sorts; asked for none, numpy >= 2.3 hashes
    # and first imports numpy.ma (1.2 MB, 6 ms), which hpi otherwise never loads
    distinct, _ = np.unique(values, return_counts=True)
    return _log(distinct)[np.searchsorted(distinct, values)]


def _controls(transactions, sample):
    """The candidate controls of the ``sample`` rows, by name, built one at
    a time."""
    yield "log_num_plots", _log_by_value(transactions.num_plots[sample])
    yield "weth_flag", transactions.paid_in_weth[sample].astype(np.float64)


def _within(values, code, counts):
    """Per-period means of ``values`` and the values less their period mean."""
    means = np.bincount(code, weights=values, minlength=counts.size) / counts
    return means, values - means[code]


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
    period = period_start(transactions.day, freq)
    labels, counts = np.unique(period, return_counts=True)
    estimable = counts >= min_per_period
    periods = labels[estimable].tolist()
    if len(periods) < 2:
        raise InsufficientDataError(
            f"need at least 2 periods with >= {min_per_period} transactions, "
            f"found {len(periods)}"
        )
    # a stable sort keeps each period's sales in input order
    sample = np.argsort(period, kind="stable")[np.repeat(estimable, counts)]
    del period
    n_per = counts[estimable]
    code = np.repeat(np.arange(len(periods)), n_per)
    n = len(sample)

    # each column is freed once demeaned, so the fit holds few at a time
    y_mean, y_w = _within(_log(usd_price[sample]), code, n_per)
    kept, scales = [], []
    x_mean, x_w = np.empty((len(periods), 2)), np.empty((n, 2))
    for name, x in _controls(transactions, sample):
        if np.ptp(x) > 0.0:
            j = len(kept)
            kept.append(name)
            scales.append(COLLINEAR_RTOL * float(np.sum((x - x.mean()) ** 2)))
            x_mean[:, j], x_w[:, j] = _within(x, code, n_per)
    del sample, code
    k = len(kept)
    x_mean, x_w = np.ascontiguousarray(x_mean[:, :k]), np.ascontiguousarray(x_w[:, :k])
    if n < len(periods) + k:
        raise InsufficientDataError(f"{n} rows < {len(periods) + k} columns")

    q, r = np.linalg.qr(x_w)
    _check_pivots(kept, scales, x_w, r)

    b = np.linalg.solve(r, q.T @ y_w)
    resid = y_w - x_w @ b
    rss = float(resid @ resid)
    df_resid = n - len(periods) - k
    alpha = y_mean - x_mean @ b
    delta = alpha - alpha[0]
    if df_resid > 0:
        sigma2 = rss / df_resid
        r_inv = np.linalg.inv(r)
        v = r_inv @ r_inv.T
        d = x_mean - x_mean[0]
        quad = np.einsum("pi,ij,pj->p", d, v, d)
        delta_se = np.sqrt(sigma2 * (1.0 / n_per + 1.0 / n_per[0] + quad))
        beta_se = np.sqrt(sigma2 * np.diag(v))
    else:
        delta_se = beta_se = None

    points = [
        HpiPoint(
            period=p,
            index=math.exp(delta[i]),
            delta=float(delta[i]),
            delta_se=float(delta_se[i]) if i and delta_se is not None else None,
            n_transactions=int(n_per[i]),
        )
        for i, p in enumerate(periods)
    ]
    beta = {name: float(v) for name, v in zip(kept, b)}
    se = {name: float(v) for name, v in zip(kept, beta_se)} if beta_se is not None else {}
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


def _check_pivots(kept, scales, x_w, r) -> None:
    """Raise if a kept control is collinear with the period effects or the other control.

    Both tests compare a pivot with ``scales[j]``, ``COLLINEAR_RTOL`` times
    the control's own centered sum of squares.  A control's within-period
    sum of squares (its pivot when it comes first) is (near) zero when it
    is constant inside every period.  The second pivot, ``r[1, 1]**2``, is
    what is left of the second control once the period effects and the
    first control are removed.
    """
    for j, (name, scale) in enumerate(zip(kept, scales)):
        if float(x_w[:, j] @ x_w[:, j]) <= scale:
            raise SingularDesignError(
                f"{name} is collinear with the period effects", columns=(name,)
            )
        if j == 1 and float(r[1, 1]) ** 2 <= scale:
            raise SingularDesignError(
                f"{', '.join(kept)} are collinear once the period effects are removed",
                columns=tuple(kept),
            )


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
