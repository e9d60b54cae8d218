"""Explosive-episode detection: recursive ADF statistics and date-stamping.

The statistic at date t is the backward supremum ADF (BSADF): the largest
ADF t-ratio over all windows [s1, t] with s1 ranging from 0 back to
t - r0, where r0 is the minimum window setting.  A date is stamped as
explosive when its BSADF exceeds a finite-sample critical value obtained
by Monte-Carlo simulation of driftless unit-root paths of the same length.

The ADF regression is the constant-included specification

    dy[t] = a + b*y[t-1] + c1*dy[t-1] + ... + ck*dy[t-k] + e[t]

and the statistic is the t-ratio b_hat / se(b_hat).  Right-tail
exceedance indicates explosive behaviour.

Every ADF statistic here comes from one engine, the window sweep: every
window of a sweep is evaluated at once from prefix sums of globally
centered cross-products, with the intercept partialled out and the
slopes solved per window in closed form (one or two regressors) or by a
batched solve.  With ``lag_selection="bic"`` each candidate lag count is
swept the same way and the lag is chosen per window.  A single-window
ADF (:func:`adf_stat`) is a sweep whose only window is the whole sample.
The definitional reference, one OLS per window written out by hand,
lives in the test suite (``tests/oracles.py``), not here.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator, Philox

from .errors import (
    InsufficientDataError,
    NoValidWindowError,
    SingularDesignError,
    ValidationError,
)
from .series import TimeSeries, _fmt

#: windows whose residual sum of squares falls below this relative floor
#: are treated as degenerate (an exact fit has no usable t-ratio)
_RSS_RTOL = 1e-12


def default_min_window(n: int) -> int:
    """Rule-of-thumb minimum window, ceil(T * (0.01 + 1.8/sqrt(T))).

    This is the Phillips-Shi-Yu recommendation used throughout the
    multiple-bubble dating literature.  Override it by passing ``r0``
    explicitly wherever a sweep is run.
    """
    if n < 2:
        raise ValidationError(f"series length must be >= 2, got {n}")
    return math.ceil(n * (0.01 + 1.8 / math.sqrt(n)))


@dataclass(frozen=True)
class AdfSpec:
    """ADF regression settings.

    :param n_lags: number of lagged differences k (>= 0).  With
        ``lag_selection="bic"`` this is the largest candidate.
    :param lag_selection: ``"fixed"`` uses exactly ``n_lags``; ``"bic"``
        picks k in [0, n_lags] per window by the Bayesian information
        criterion (candidates compared on the common sample implied by
        the largest k, winner refit on its own full sample).
    """

    n_lags: int = 1
    lag_selection: str = "fixed"

    def __post_init__(self):
        if self.n_lags < 0:
            raise ValidationError(f"n_lags must be >= 0, got {self.n_lags}")
        if self.lag_selection not in ("fixed", "bic"):
            raise ValidationError(f"unknown lag_selection {self.lag_selection!r}")


@dataclass(frozen=True)
class AdfResult:
    stat: float
    window_start: int
    window_end: int
    n_obs_used: int
    n_lags_used: int


@dataclass(frozen=True)
class BsadfPoint:
    t_index: int
    stat: float
    argmax_start: int


@dataclass(frozen=True)
class CvTable:
    """Per-date Monte-Carlo critical values.

    ``cv_by_t[i, j]`` is the alpha[j] empirical quantile of the null
    BSADF distribution at t = r0 + i.  Deterministic in
    (T, r0, n_lags, n_rep, seed).
    """

    series_length: int
    min_window: int
    alphas: tuple[float, ...]
    cv_by_t: np.ndarray = field(repr=False)
    n_rep: int
    seed: int
    n_lags: int

    def __post_init__(self):
        cv = np.asarray(self.cv_by_t, dtype=np.float64)
        n_pts = self.series_length - self.min_window
        if cv.shape != (n_pts, len(self.alphas)):
            raise ValidationError(
                f"cv_by_t shape {cv.shape} != ({n_pts}, {len(self.alphas)})"
            )
        if np.any(np.diff(cv, axis=1) < 0.0):
            raise ValidationError("critical values must be nondecreasing in alpha")
        cv.flags.writeable = False
        object.__setattr__(self, "cv_by_t", cv)
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))

    def level_column(self, level: float) -> np.ndarray:
        for j, a in enumerate(self.alphas):
            if abs(a - level) < 1e-9:
                return self.cv_by_t[:, j]
        raise ValidationError(f"level {level} not among table alphas {self.alphas}")

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(
                f"# T={self.series_length} r0={self.min_window} "
                f"n_rep={self.n_rep} seed={self.seed} n_lags={self.n_lags}\n"
            )
            w = csv.writer(fh)
            w.writerow(["t"] + [f"cv_{a:g}" for a in self.alphas])
            for i in range(self.cv_by_t.shape[0]):
                w.writerow([self.min_window + i] + [_fmt(v) for v in self.cv_by_t[i]])

    @classmethod
    def from_csv(cls, path) -> "CvTable":
        meta = {}
        with open(path, newline="") as fh:
            first = fh.readline()
            if first.startswith("#"):
                for tok in first[1:].split():
                    k, _, v = tok.partition("=")
                    meta[k] = int(v)
            else:
                fh.seek(0)
            r = csv.reader(fh)
            header = next(r)
            alphas = tuple(float(h[3:]) for h in header[1:])
            ts, rows = [], []
            for row in r:
                if not row:
                    continue
                ts.append(int(row[0]))
                rows.append([float(v) for v in row[1:]])
        r0 = ts[0]
        return cls(
            series_length=meta.get("T", ts[-1] + 1),
            min_window=meta.get("r0", r0),
            alphas=alphas,
            cv_by_t=np.array(rows),
            n_rep=meta.get("n_rep", 0),
            seed=meta.get("seed", 0),
            n_lags=meta.get("n_lags", 1),
        )


@dataclass(frozen=True)
class BubbleEpisode:
    start: dt.date
    end: dt.date
    peak_stat: float


@dataclass(frozen=True)
class DatestampResult:
    """Flag per evaluable date plus the maximal flagged runs."""

    level: float
    dates: tuple[dt.date, ...]
    stats: np.ndarray = field(repr=False)
    cvs: np.ndarray = field(repr=False)
    flags: np.ndarray = field(repr=False)
    episodes: tuple[BubbleEpisode, ...]
    pct_flagged: float

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["date", "stat", "cv", "flag"])
            for d, s, c, f in zip(self.dates, self.stats, self.cvs, self.flags):
                w.writerow([d.isoformat(), _fmt(s), _fmt(c), int(f)])

    def episodes_to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["start", "end", "peak_stat"])
            for e in self.episodes:
                w.writerow([e.start.isoformat(), e.end.isoformat(), _fmt(e.peak_stat)])


# ---------------------------------------------------------------------------
# single-window ADF
# ---------------------------------------------------------------------------


def _as_values(window) -> np.ndarray:
    if isinstance(window, TimeSeries):
        return window.values
    return np.asarray(window, dtype=np.float64)


def adf_stat(window, spec: AdfSpec = AdfSpec()) -> AdfResult:
    """ADF t-ratio on one window (a TimeSeries or a 1-d array of values).

    The window is swept as the single window [0, len-1].

    :param window: the observations; length must be at least
        ``2 * n_lags + 4`` so the regression has a residual degree of
        freedom, and at least ``n_lags + 5``.
    :param spec: regression settings; see :class:`AdfSpec`.
    :returns: :class:`AdfResult` with window indices in window coordinates
        (0 .. len-1).
    :raises SingularDesignError: when the regression is degenerate (a
        singular design or an exact fit).
    """
    y = _as_values(window)
    if y.ndim != 1:
        raise ValidationError("adf_stat expects a one-dimensional window")
    if not np.all(np.isfinite(y)):
        raise ValidationError("adf_stat requires finite values")
    L = y.shape[0]
    kmax = spec.n_lags
    min_len = max(2 * kmax + 4, kmax + 5)
    if L < min_len:
        raise InsufficientDataError(
            f"window length {L} < {min_len} required for n_lags={kmax}"
        )
    stat, lag = _window_stats(y, _WindowPlan(L, L - 1, kmax), spec)
    if not np.isfinite(stat[0]):
        raise SingularDesignError(
            "singular design or zero residual variance in ADF window")
    k_used = int(lag[0]) if spec.lag_selection == "bic" else kmax
    return AdfResult(
        stat=float(stat[0]),
        window_start=0,
        window_end=L - 1,
        n_obs_used=L - k_used - 1,
        n_lags_used=k_used,
    )


# ---------------------------------------------------------------------------
# window sweep: every window from prefix sums
# ---------------------------------------------------------------------------


class _WindowPlan:
    """Precomputed window enumeration for a (T, r0, k) sweep.

    Shared across Monte-Carlo replications so the index arithmetic is done
    once.  For each r2 in [r0, T-1] the admissible starts are
    s1 in {0, ..., r2 - r0}; a window [s1, r2] uses regression rows
    t in [s1 + k + 1, r2], i.e. prefix-slot range (s1, r2 - k].
    """

    def __init__(self, T: int, r0: int, k: int):
        if T <= r0:
            raise InsufficientDataError(f"series length {T} must exceed r0={r0}")
        self.T, self.r0, self.k = T, r0, k
        r2s = np.arange(r0, T)
        counts = r2s - r0 + 1
        self.r2s = r2s
        self.counts = counts
        self.R2 = np.repeat(r2s, counts)
        self.S1 = np.concatenate([np.arange(c) for c in counts])
        self.lo, self.hi, self.n = self.slots(k)
        self.seg_starts = np.concatenate([[0], np.cumsum(counts)[:-1]])

    def slots(self, k: int, skip: int = 0):
        """Prefix-slot bounds (lo, hi] and row count of every window's
        k-lag regression with its first ``skip`` rows left out."""
        lo = self.S1 + skip
        hi = self.R2 - k
        return lo, hi, (hi - lo).astype(np.float64)


def _prefix_sums(y: np.ndarray, k: int):
    """Prefix sums of the centered k-lag ADF regressors Z and response d.

    Row j is regression time t = j + k + 1: Z = [y[t-1], dy[t-1], ...,
    dy[t-k]] and d = dy[t].  Centering by the full-sample means keeps the
    windowed cross-products well conditioned.
    """
    T = y.shape[0]
    dy = np.diff(y)
    Z = np.empty((T - 1 - k, k + 1))
    Z[:, 0] = y[k:-1]
    for i in range(1, k + 1):
        Z[:, i] = dy[k - i:T - 1 - i]
    d = dy[k:]
    Z = Z - Z.mean(axis=0)
    d = d - d.mean()

    def prefix(a):
        out = np.zeros((a.shape[0] + 1,) + a.shape[1:])
        np.cumsum(a, axis=0, out=out[1:])
        return out

    return (prefix(Z), prefix(d), prefix(Z[:, :, None] * Z[:, None, :]),
            prefix(Z * d[:, None]), prefix(d * d))


def _window_fits(P, lo, hi, n):
    """OLS of d on [1, Z] over prefix slots (lo, hi] of every window.

    Returns (stat, rss, singular, Sdd): the t-ratio on the lagged level,
    the residual sum of squares, a flag for a near-singular normal matrix,
    and the window's response sum of squares.  The intercept is
    partialled out in closed form; the slopes are solved in closed form
    for one or two regressors and by a batched solve otherwise.
    """
    P_z, P_d, P_zz, P_zd, P_dd = P
    m = P_z.shape[1]
    Sz = P_z[hi] - P_z[lo]
    Sd = P_d[hi] - P_d[lo]
    Szz = P_zz[hi] - P_zz[lo]
    Szd = P_zd[hi] - P_zd[lo]
    Sdd = P_dd[hi] - P_dd[lo]

    A = Szz - Sz[:, :, None] * Sz[:, None, :] / n[:, None, None]
    b = Szd - Sz * (Sd / n)[:, None]
    cdd = Sdd - Sd * Sd / n

    with np.errstate(divide="ignore", invalid="ignore"):
        if m == 1:
            a00 = A[:, 0, 0]
            bad = ~(a00 > 0.0)
            safe = np.where(bad, 1.0, a00)
            g0 = b[:, 0] / safe
            rss = cdd - g0 * b[:, 0]
            inv00 = 1.0 / safe
        elif m == 2:
            a00, a01, a11 = A[:, 0, 0], A[:, 0, 1], A[:, 1, 1]
            det = a00 * a11 - a01 * a01
            scale = a00 * a11
            bad = ~(det > 1e-14 * np.maximum(scale, 1e-300))
            det = np.where(bad, 1.0, det)
            g0 = (a11 * b[:, 0] - a01 * b[:, 1]) / det
            g1 = (-a01 * b[:, 0] + a00 * b[:, 1]) / det
            rss = cdd - (g0 * b[:, 0] + g1 * b[:, 1])
            inv00 = a11 / det
        else:
            diag = np.einsum("wii->wi", A)
            bad = np.zeros(A.shape[0], dtype=bool)
            rhs = np.concatenate([b[:, :, None], np.zeros((len(n), m, 1))], axis=2)
            rhs[:, 0, 1] = 1.0
            try:
                sol = np.linalg.solve(A, rhs)
            except np.linalg.LinAlgError:
                sol = np.full_like(rhs, np.nan)
                for w in range(A.shape[0]):
                    try:
                        sol[w] = np.linalg.solve(A[w], rhs[w])
                    except np.linalg.LinAlgError:
                        bad[w] = True
            g = sol[:, :, 0]
            g0 = g[:, 0]
            inv00 = sol[:, 0, 1]
            rss = cdd - np.einsum("wj,wj->w", g, b)
            bad |= ~np.isfinite(g0) | ~(inv00 > 0.0) | ~(np.min(diag, axis=1) > 0.0)

        df = n - (m + 1)
        sigma2 = rss / df
        stat = g0 / np.sqrt(sigma2 * inv00)
    return stat, rss, bad, Sdd


def _fixed_stats(P, lo, hi, n) -> np.ndarray:
    """Per-window t-ratios; -inf where the window is degenerate
    (near-singular normal matrix or an exact fit)."""
    stat, rss, singular, Sdd = _window_fits(P, lo, hi, n)
    bad = singular | ~(rss > _RSS_RTOL * np.maximum(Sdd, 1.0))
    return np.where(bad | ~np.isfinite(stat), -np.inf, stat)


def _bic_stats(y: np.ndarray, plan: _WindowPlan):
    """Per-window t-ratios and lag counts, the lag chosen per window by BIC.

    Candidate k in [0, kmax] is fitted on the common sample of the kmax
    regression, which drops the first kmax - k rows of its own sample,
    from the same prefix sums as its fixed-k sweep.  Candidates are tried
    in ascending k; a later one wins only with a BIC below the best by
    more than 1e-12, the first with rss <= 0 wins outright, and singular
    ones are skipped.  The winner's statistic is its fixed-k sweep's.
    Windows shorter than :func:`adf_stat` accepts, or with no usable
    candidate, give -inf and lag -1.  Candidates are swept one at a time
    so memory stays at one k = kmax sweep plus a few per-window vectors.
    """
    kmax = plan.k
    selecting = plan.R2 - plan.S1 + 1 >= max(2 * kmax + 4, kmax + 5)
    best_bic = np.full(plan.S1.shape, np.inf)
    stat = np.full(plan.S1.shape, -np.inf)
    lag = np.full(plan.S1.shape, -1)
    for k in range(kmax + 1):
        P = _prefix_sums(y, k)
        own = _fixed_stats(P, *plan.slots(k))
        lo, hi, n = plan.slots(k, skip=kmax - k)
        _, rss, singular, _ = _window_fits(P, lo, hi, n)
        usable = selecting & ~singular
        exact = usable & (rss <= 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            bic = n * np.log(rss / n) + (k + 2) * np.log(n)
        take = exact | (usable & (bic < best_bic - 1e-12))
        best_bic = np.where(take, bic, best_bic)
        stat = np.where(take, own, stat)
        lag[take] = k
        selecting &= ~exact
    return stat, lag


def _window_stats(y: np.ndarray, plan: _WindowPlan, spec: AdfSpec):
    """ADF t-ratio of every window in ``plan`` (-inf where none is usable)
    and the lag count behind it: per window under BIC, else ``plan.k``."""
    if spec.lag_selection == "bic":
        return _bic_stats(y, plan)
    return _fixed_stats(_prefix_sums(y, plan.k), plan.lo, plan.hi, plan.n), plan.k


def _sweep_plan(T: int, r0: int, k: int) -> _WindowPlan:
    """The plan of a public sweep, whose minimum window r0 must be at
    least n_lags + 5."""
    if r0 < k + 5:
        raise ValidationError(f"r0={r0} must be >= n_lags + 5 = {k + 5}")
    return _WindowPlan(T, r0, k)


def _sup_argmax(stat: np.ndarray, plan: _WindowPlan):
    """Per-r2 supremum of the window statistics and the first start
    attaining it (the start ``np.argmax`` would pick); an r2 whose windows
    all degenerate has supremum -inf and is resolved by the caller."""
    sup = np.maximum.reduceat(stat, plan.seg_starts)
    at_sup = stat == np.repeat(sup, plan.counts)
    first = np.minimum.reduceat(np.where(at_sup, plan.S1, plan.S1.shape[0]),
                                plan.seg_starts)
    return sup, first


# ---------------------------------------------------------------------------
# public sweep API
# ---------------------------------------------------------------------------


def bsadf_at(series, r2: int, r0: int, spec: AdfSpec = AdfSpec()) -> BsadfPoint:
    """Backward supremum ADF at a single index r2.

    :param series: TimeSeries or 1-d array.
    :param r2: end index of the sweep, r2 >= r0.
    :param r0: minimum window setting (smallest admissible start is
        s1 = r2 - r0); must be >= n_lags + 5.
    """
    y = _as_values(series)
    if not (0 <= r2 < y.shape[0]):
        raise ValidationError(f"r2={r2} outside series of length {y.shape[0]}")
    if r2 < r0:
        raise ValidationError(f"r2={r2} < r0={r0}")
    y = y[: r2 + 1]
    if not np.all(np.isfinite(y)):
        raise ValidationError("bsadf_at requires finite values")
    plan = _sweep_plan(r2 + 1, r0, spec.n_lags)
    sup, argmax = _sup_argmax(_window_stats(y, plan, spec)[0], plan)
    if not np.isfinite(sup[-1]):
        raise NoValidWindowError(f"all windows ending at {r2} failed")
    return BsadfPoint(t_index=r2, stat=float(sup[-1]), argmax_start=int(argmax[-1]))


def bsadf_series(series, r0: int | None = None, spec: AdfSpec = AdfSpec()) -> list[BsadfPoint]:
    """BSADF sequence: one point per r2 in [r0, T-1].

    ``r0=None`` applies :func:`default_min_window`.  The point at r2
    depends only on observations [0, r2], so appending data changes
    earlier points only by floating-point roundoff (the sweep's centering
    constant depends on the full sample).
    """
    y = _as_values(series)
    T = y.shape[0]
    if not np.all(np.isfinite(y)):
        raise ValidationError("bsadf_series requires finite values")
    if r0 is None:
        r0 = default_min_window(T)
    if T <= r0:
        raise InsufficientDataError(f"series length {T} must exceed r0={r0}")
    plan = _sweep_plan(T, r0, spec.n_lags)
    sup, argmax = _sup_argmax(_window_stats(y, plan, spec)[0], plan)
    out = []
    for i, r2 in enumerate(plan.r2s):
        if not np.isfinite(sup[i]):
            raise NoValidWindowError(f"all windows ending at {int(r2)} failed")
        out.append(BsadfPoint(t_index=int(r2), stat=float(sup[i]), argmax_start=int(argmax[i])))
    return out


def mc_critical_values(
    series_length: int,
    min_window: int | None = None,
    spec: AdfSpec = AdfSpec(),
    alphas: tuple[float, ...] = (0.90, 0.95, 0.99),
    n_rep: int = 1000,
    seed: int = 0,
) -> CvTable:
    """Finite-sample critical values from simulated unit-root nulls.

    Each replication draws a driftless random walk of the requested length
    (i.i.d. standard normal increments, zero start) from a Philox stream
    keyed by (seed, replication index), computes its BSADF sequence, and
    the table is the per-t empirical quantile (type 7) at each alpha.
    Keying by replication index makes the result independent of any
    execution order or worker count.
    """
    if n_rep < 200:
        raise ValidationError(f"n_rep must be >= 200, got {n_rep}")
    alphas = tuple(float(a) for a in alphas)
    if not alphas or not all(0.0 < a < 1.0 for a in alphas):
        raise ValidationError(f"alphas must lie in (0, 1), got {alphas}")
    if sorted(alphas) != list(alphas):
        raise ValidationError("alphas must be sorted ascending")
    if spec.lag_selection != "fixed":
        raise ValidationError("mc_critical_values requires a fixed-lag AdfSpec")
    T = series_length
    if min_window is None:
        min_window = default_min_window(T)
    plan = _sweep_plan(T, min_window, spec.n_lags)
    n_pts = T - min_window
    stats = np.empty((n_rep, n_pts))
    for rep in range(n_rep):
        rng = Generator(Philox(key=[seed, rep]))
        y = np.concatenate([[0.0], np.cumsum(rng.standard_normal(T - 1))])
        stats[rep] = np.maximum.reduceat(_window_stats(y, plan, spec)[0], plan.seg_starts)
    if not np.all(np.isfinite(stats)):
        raise NoValidWindowError("a null replication produced no valid window")
    cv = np.quantile(stats, alphas, axis=0).T.copy()
    return CvTable(
        series_length=T,
        min_window=min_window,
        alphas=alphas,
        cv_by_t=cv,
        n_rep=n_rep,
        seed=seed,
        n_lags=spec.n_lags,
    )


def datestamp(
    points: list[BsadfPoint],
    cv: CvTable,
    level: float = 0.95,
    dates=None,
) -> DatestampResult:
    """Stamp dates whose statistic strictly exceeds the critical value.

    :param points: full BSADF sequence from :func:`bsadf_series`.
    :param cv: table whose (T, r0) match the points.
    :param level: one of the table's alphas (default 0.95).
    :param dates: the parent series' dates (length T); episode bounds are
        reported in these dates.
    """
    if not points:
        raise ValidationError("datestamp needs at least one point")
    r0 = points[0].t_index
    T = points[-1].t_index + 1
    expected = list(range(r0, T))
    if [p.t_index for p in points] != expected:
        raise ValidationError("points must cover a contiguous range [r0, T-1]")
    if cv.series_length != T or cv.min_window != r0:
        raise ValidationError(
            f"cv table is for (T={cv.series_length}, r0={cv.min_window}), "
            f"points are for (T={T}, r0={r0})"
        )
    if dates is None:
        raise ValidationError("datestamp requires the parent series' dates")
    dates = tuple(dates)
    if len(dates) != T:
        raise ValidationError(f"{len(dates)} dates for series length {T}")

    col = cv.level_column(level)
    stats = np.array([p.stat for p in points])
    flags = stats > col
    eval_dates = dates[r0:]
    episodes = []
    i = 0
    n = len(points)
    while i < n:
        if flags[i]:
            j = i
            while j + 1 < n and flags[j + 1]:
                j += 1
            episodes.append(
                BubbleEpisode(
                    start=eval_dates[i],
                    end=eval_dates[j],
                    peak_stat=float(stats[i:j + 1].max()),
                )
            )
            i = j + 1
        else:
            i += 1
    return DatestampResult(
        level=float(level),
        dates=eval_dates,
        stats=stats,
        cvs=np.asarray(col, dtype=np.float64).copy(),
        flags=flags,
        episodes=tuple(episodes),
        pct_flagged=float(flags.sum()) / float(n),
    )
