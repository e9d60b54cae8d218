"""Hedonic price index from USD-denominated land transactions.

The index is the exponentiated period fixed effect from one pooled
regression of log price on period effects plus two attribute controls:

    ln(usd_price) = a_period + b1 * ln(num_plots) + b2 * weth + e

The first estimable period is the base: its delta is identically 0 and
its index exactly 1.  Periods with fewer than ``min_per_period``
transactions are not estimated; they are reported as gaps and the
index series simply omits those dates.

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

import csv
import datetime as dt
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, SingularDesignError, ValidationError
from .series import TimeSeries, _fmt

#: a kept control whose pivot falls below COLLINEAR_RTOL times its centered
#: sum of squares is collinear with the rest of the design
COLLINEAR_RTOL = 1e-16


@dataclass(frozen=True)
class Transaction:
    """One land sale, in USD terms, with its native-settlement facts."""

    timestamp: dt.datetime
    usd_price: float
    num_plots: int
    paid_in_weth: bool
    native_currency: str
    native_price: float

    def __post_init__(self):
        if not isinstance(self.timestamp, dt.datetime):
            raise ValidationError("timestamp must be a datetime")
        if not (self.usd_price > 0.0) or not math.isfinite(self.usd_price):
            raise ValidationError(f"usd_price must be > 0, got {self.usd_price!r}")
        if not isinstance(self.num_plots, int) or self.num_plots < 1:
            raise ValidationError(f"num_plots must be an integer >= 1, got {self.num_plots!r}")
        if not (self.native_price > 0.0) or not math.isfinite(self.native_price):
            raise ValidationError(f"native_price must be > 0, got {self.native_price!r}")
        if not self.native_currency:
            raise ValidationError("native_currency must be non-empty")
        if self.paid_in_weth != (self.native_currency.upper() == "WETH"):
            raise ValidationError(
                f"paid_in_weth={self.paid_in_weth} inconsistent with currency "
                f"{self.native_currency!r}"
            )

    @property
    def date(self) -> dt.date:
        return self.timestamp.date()


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


def period_of(d: dt.date, freq: str) -> dt.date:
    """Period label of a date: the Monday of its ISO week, or the day itself."""
    if freq == "weekly":
        iso = d.isocalendar()
        return dt.date.fromisocalendar(iso[0], iso[1], 1)
    if freq == "daily":
        return d
    raise ValidationError(f"freq must be 'weekly' or 'daily', got {freq!r}")


def bucket_periods(transactions, freq: str = "weekly") -> dict[dt.date, list[Transaction]]:
    """Group transactions into sorted calendar periods.

    Weekly periods are ISO weeks, Monday through Sunday, labeled by their
    Monday.  Every transaction lands in exactly one bucket.  Each distinct
    date is labeled once.
    """
    txs = list(transactions)
    if not txs:
        raise ValidationError("bucket_periods needs at least one transaction")
    label_of: dict[dt.date, dt.date] = {}
    buckets: dict[dt.date, list[Transaction]] = {}
    for tx in txs:
        d = tx.date
        if d not in label_of:
            label_of[d] = period_of(d, freq)
        buckets.setdefault(label_of[d], []).append(tx)
    return {p: buckets[p] for p in sorted(buckets)}


def _within(values, code, counts):
    """Per-period means of ``values`` and the values less their period mean."""
    means = np.bincount(code, weights=values, minlength=counts.size) / counts
    return means, values - means[code]


def build_hpi(
    transactions,
    freq: str = "weekly",
    min_per_period: int = 3,
) -> tuple[list[HpiPoint], HedonicFit]:
    """Estimate the hedonic index over all estimable periods.

    Returns one :class:`HpiPoint` per estimable period (in order) and the
    :class:`HedonicFit` with the pooled control coefficients.  Periods
    with fewer than ``min_per_period`` transactions are gaps: their
    transactions do not enter the regression and no point is emitted for
    them.
    """
    if min_per_period < 1:
        raise ValidationError(f"min_per_period must be >= 1, got {min_per_period}")
    buckets = bucket_periods(transactions, freq)
    periods = [p for p, txs in buckets.items() if len(txs) >= min_per_period]
    gaps = tuple(p for p in buckets if p not in set(periods))
    if len(periods) < 2:
        raise InsufficientDataError(
            f"need at least 2 periods with >= {min_per_period} transactions, "
            f"found {len(periods)}"
        )
    sample = [tx for p in periods for tx in buckets[p]]
    n_per = np.array([len(buckets[p]) for p in periods])
    code = np.repeat(np.arange(len(periods)), n_per)
    n = len(sample)

    log_price = np.array([math.log(tx.usd_price) for tx in sample])
    controls = {
        "log_num_plots": np.array([math.log(tx.num_plots) for tx in sample]),
        "weth_flag": np.array([1.0 if tx.paid_in_weth else 0.0 for tx in sample]),
    }
    kept = [name for name, x in controls.items() if np.ptp(x) > 0.0]
    k = len(kept)
    if n < len(periods) + k:
        raise InsufficientDataError(f"{n} rows < {len(periods) + k} columns")

    y_mean, y_w = _within(log_price, code, n_per)
    x_mean = np.zeros((len(periods), k))
    x_w = np.zeros((n, k))
    for j, name in enumerate(kept):
        x_mean[:, j], x_w[:, j] = _within(controls[name], code, n_per)
    q, r = np.linalg.qr(x_w)
    _check_pivots(kept, controls, x_w, r)

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
        gap_periods=gaps,
    )
    return points, meta


def _check_pivots(kept, controls, x_w, r) -> None:
    """Raise if a kept control is collinear with the period effects or the other control.

    Both tests compare a pivot with the control's own centered sum of
    squares.  A control's within-period sum of squares (its pivot when it
    comes first) is (near) zero when it is constant inside every period.
    The second pivot, ``r[1, 1]**2``, is what is left of the second
    control once the period effects and the first control are removed.
    """
    for j, name in enumerate(kept):
        x = controls[name]
        scale = COLLINEAR_RTOL * float(np.sum((x - x.mean()) ** 2))
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
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["period", "index", "delta", "n_transactions"])
        for p in points:
            w.writerow([p.period.isoformat(), _fmt(p.index), _fmt(p.delta), p.n_transactions])


def hedonic_fit_to_json(fitmeta: HedonicFit, path) -> None:
    with open(path, "w") as fh:
        json.dump(fitmeta.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
