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

Every ADF statistic here comes from one engine, the window sweep.  Its
windows are fitted in blocks of whole end-date segments from one set of
prefix sums of globally centered cross-products (the upper triangle
only), and each block is reduced to its per-date supremum before the
next is built.  Per window, the intercept is partialled out and one
pivot loop eliminates the regressors in turn, the lagged level last, so
its t-ratio falls out of the last pivot.  With ``lag_selection="bic"``
one elimination pass with the level first gives every candidate lag's
residual sum of squares, and the lag is chosen per window.  A
single-window ADF (:func:`adf_stat`) is a sweep whose only window is the
whole sample.
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
from .series import TimeSeries, write_csv

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
        write_csv(path, ["t"] + [f"cv_{a:g}" for a in self.alphas],
                  ([self.min_window + i, *row] for i, row in enumerate(self.cv_by_t)),
                  comment=f"T={self.series_length} r0={self.min_window} "
                          f"n_rep={self.n_rep} seed={self.seed} n_lags={self.n_lags}")

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
        write_csv(path, ["date", "stat", "cv", "flag"],
                  zip(self.dates, self.stats, self.cvs, self.flags))

    def episodes_to_csv(self, path) -> None:
        write_csv(path, ["start", "end", "peak_stat"],
                  ((e.start, e.end, e.peak_stat) for e in self.episodes))


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
    stat, _, lag = _sweep(y, L - 1, spec, L - 1)
    if not np.isfinite(stat[0]):
        raise SingularDesignError(
            "singular design or zero residual variance in ADF window")
    k_used = int(lag[0])
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

#: windows swept at once; a block holds whole r2 segments (at least one)
_BLOCK_WINDOWS = 1 << 15


def _prefix_sums(y: np.ndarray, k: int, level_first: bool = False):
    """Prefix sums of the centered k-lag ADF variables and their products.

    W has one row per variable and one column per regression time: column
    j is t = j + k + 1.  Its rows are the regressors Z, the lagged
    differences dy[t-1], ..., dy[t-k] followed by the lagged level y[t-1]
    (the level first when ``level_first``), and then the response
    d = dy[t].  Centering by the full-sample means keeps the windowed
    cross-products well conditioned.  Returns (P_w, P_ww): the prefix sums
    of W's rows and of the products W[r] * W[c] for r <= c, the upper
    triangle in row-major order, (m+1)(m+2)/2 rows for m regressors.
    Column s of each holds the sum over the first s regression times.
    """
    T = y.shape[0]
    dy = np.diff(y)
    lags = [dy[k - i:T - 1 - i] for i in range(1, k + 1)]
    level = [y[k:-1]]
    W = np.array((level + lags if level_first else lags + level) + [dy[k:]])
    W -= W.mean(axis=1, keepdims=True)
    i, j = np.triu_indices(W.shape[0])

    def prefix(a):
        out = np.zeros((a.shape[0], a.shape[1] + 1))
        np.cumsum(a, axis=1, out=out[:, 1:])
        return out

    return prefix(W), prefix(W[i] * W[j])


def _window_fits(P, lo, hi):
    """OLS of d on [1, Z] over prefix slots (lo, hi] of every window.

    One pivot loop serves every regressor count m.  The intercept is
    partialled out of the windowed sums in closed form, giving the upper
    triangle A of [Z, d]'s centered cross-products.  The regressors are
    then eliminated one at a time, in row order (Frisch-Waugh-Lovell): the
    pivot D_j of regressor j is its cross-product left after the earlier
    ones are partialled out, and eliminating it lowers rss by c_j**2 / D_j,
    with c_j its partialled cross-product with d.  A pivot is degenerate
    unless D_j > 1e-14 * A_jj, the regressor's diagonal before elimination.

    Returns (stat, rss, bad, Sdd): the t-ratio b/sqrt(sigma2/D) of the last
    regressor, with b = c/D; the rss after each pivot and whether any pivot
    so far was degenerate (both of shape (m, windows)); and the window's
    response sum of squares.
    """
    P_w, P_ww = P
    q = P_w.shape[0]
    m = q - 1
    n = (hi - lo).astype(np.float64)
    S = np.take(P_w, hi, axis=1)
    S -= np.take(P_w, lo, axis=1)
    A = np.take(P_ww, hi, axis=1)
    A -= np.take(P_ww, lo, axis=1)
    Sdd = A[-1].copy()
    mean = S / n
    a = {}  # (r, c) -> row of A, in the row-major order _prefix_sums stores
    for x, (r, c) in enumerate((r, c) for r in range(q) for c in range(r, q)):
        A[x] -= S[r] * mean[c]
        a[r, c] = A[x]
    floor = [1e-14 * a[p, p] for p in range(m)]
    rss = np.empty((m, n.shape[0]))
    bad = np.empty((m, n.shape[0]), dtype=bool)
    degenerate = np.zeros(n.shape[0], dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for p in range(m):
            D, c = a[p, p], a[p, m]
            degenerate |= ~(D > floor[p])
            bad[p] = degenerate
            for r in range(p + 1, q):
                f = a[p, r] / D
                for s in range(r, q):
                    a[r, s] -= a[p, s] * f
            rss[p] = a[m, m]
        stat = c / D / np.sqrt(rss[-1] / (n - (m + 1)) / D)
    return stat, rss, bad, Sdd


def _fixed_stats(P, lo, hi) -> np.ndarray:
    """Per-window t-ratios; -inf where the window is degenerate
    (a degenerate pivot or an exact fit)."""
    stat, rss, bad, Sdd = _window_fits(P, lo, hi)
    bad = bad[-1] | ~(rss[-1] > _RSS_RTOL * np.maximum(Sdd, 1.0))
    return np.where(bad | ~np.isfinite(stat), -np.inf, stat)


def _bic_stats(own, nested, s1, r2, kmax):
    """Per-window t-ratios and lag counts, the lag chosen per window by BIC.

    Every candidate k in [0, kmax] is fitted on the common sample of the
    kmax regression.  The candidates are nested, so one elimination pass
    over ``nested`` (the kmax columns with the level first, then dy[t-1],
    dy[t-2], ...) leaves candidate k's rss after pivot k.  Candidates are
    tried in ascending k; a later one wins only with a BIC below the best
    by more than 1e-12, the first with rss <= 0 wins outright, and
    degenerate ones are skipped.  The winner's statistic is its own fixed-k
    fit, from ``own[k]``.  Windows shorter than :func:`adf_stat` accepts,
    or with no usable candidate, give -inf and lag -1.
    """
    selecting = r2 - s1 + 1 >= max(2 * kmax + 4, kmax + 5)
    _, rss, singular, _ = _window_fits(nested, s1, r2 - kmax)
    n = (r2 - kmax - s1).astype(np.float64)
    best_bic = np.full(s1.shape, np.inf)
    lag = np.full(s1.shape, -1)
    for k in range(kmax + 1):
        usable = selecting & ~singular[k]
        exact = usable & (rss[k] <= 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            bic = n * np.log(rss[k] / n) + (k + 2) * np.log(n)
        take = exact | (usable & (bic < best_bic - 1e-12))
        best_bic = np.where(take, bic, best_bic)
        lag[take] = k
        selecting &= ~exact
    stat = np.full(s1.shape, -np.inf)
    for k in range(kmax + 1):
        at = lag == k
        stat[at] = _fixed_stats(own[k], s1[at], r2[at] - k)
    return stat, lag


def _sweep(y: np.ndarray, r0: int, spec: AdfSpec, first_r2: int):
    """Backward sup of the ADF t-ratio at each r2 in [first_r2, T-1].

    The windows [s1, r2] with s1 in [0, r2 - r0] are fitted from one set
    of prefix sums, in blocks of whole r2 segments of about
    ``_BLOCK_WINDOWS`` windows; each block is reduced before the next is
    built, so memory is bounded by the block, not by the O(T**2) sweep.
    Returns per r2 the supremum (-inf where every window degenerates, for
    the caller to resolve), the first start attaining it (the one
    ``np.argmax`` would pick) and the lag count of that window.
    """
    k = spec.n_lags
    if spec.lag_selection == "bic":
        own = [_prefix_sums(y, j) for j in range(k + 1)]
        nested = _prefix_sums(y, k, level_first=True)

        def fit(s1, r2):
            return _bic_stats(own, nested, s1, r2, k)
    else:
        P = _prefix_sums(y, k)

        def fit(s1, r2):
            return _fixed_stats(P, s1, r2 - k), np.full(s1.shape, k)
    r2s = np.arange(first_r2, y.shape[0])
    counts = r2s - r0 + 1
    ends = np.cumsum(counts)
    sup = np.empty(r2s.shape)
    first = np.empty(r2s.shape, dtype=np.int64)
    lag = np.empty(r2s.shape, dtype=np.int64)
    a = 0
    while a < r2s.shape[0]:
        done = ends[a] - counts[a]
        b = max(a + 1, int(np.searchsorted(ends, done + _BLOCK_WINDOWS, side="right")))
        c = counts[a:b]
        starts = ends[a:b] - c - done
        s1 = np.arange(ends[b - 1] - done) - np.repeat(starts, c)
        stat, lags = fit(s1, np.repeat(r2s[a:b], c))
        sup[a:b] = np.maximum.reduceat(stat, starts)
        at_sup = stat == np.repeat(sup[a:b], c)
        first[a:b] = np.minimum.reduceat(np.where(at_sup, s1, s1.shape[0]), starts)
        lag[a:b] = lags[starts + first[a:b]]
        a = b
    return sup, first, lag


def _check_sweep(T: int, r0: int, k: int) -> None:
    """A public sweep needs r0 >= n_lags + 5 and T > r0."""
    if r0 < k + 5:
        raise ValidationError(f"r0={r0} must be >= n_lags + 5 = {k + 5}")
    if T <= r0:
        raise InsufficientDataError(f"series length {T} must exceed r0={r0}")


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
    _check_sweep(r2 + 1, r0, spec.n_lags)
    sup, argmax, _ = _sweep(y, r0, spec, r2)
    if not np.isfinite(sup[0]):
        raise NoValidWindowError(f"all windows ending at {r2} failed")
    return BsadfPoint(t_index=r2, stat=float(sup[0]), argmax_start=int(argmax[0]))


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
    _check_sweep(T, r0, spec.n_lags)
    sup, argmax, _ = _sweep(y, r0, spec, r0)
    out = []
    for r2, stat, start in zip(range(r0, T), sup.tolist(), argmax.tolist()):
        if not math.isfinite(stat):
            raise NoValidWindowError(f"all windows ending at {r2} failed")
        out.append(BsadfPoint(t_index=r2, stat=stat, argmax_start=start))
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
    _check_sweep(T, min_window, spec.n_lags)
    n_pts = T - min_window
    stats = np.empty((n_rep, n_pts))
    for rep in range(n_rep):
        rng = Generator(Philox(key=[seed, rep]))
        y = np.concatenate([[0.0], np.cumsum(rng.standard_normal(T - 1))])
        stats[rep] = _sweep(y, min_window, spec, min_window)[0]
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
