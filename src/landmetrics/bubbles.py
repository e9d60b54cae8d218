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

Every ADF statistic here comes from one engine, the window sweep.  It
fits windows from prefix sums of globally centered variables and their
cross-products (the upper triangle only), in blocks of bands.  A band is
a rectangle, consecutive end dates by every start the last of them
admits, for a group of series side by side (the Monte-Carlo null's
replications), so its windowed sums are two slices of the prefix sums,
the end dates' spread down the starts less the starts'; the starts that
pad its earlier end dates are set to -inf.  Each block is reduced to each
date's first maximum before the next is built; the Monte-Carlo null checks
the degenerate-window guards only there.  Each window's fit is
elementwise, so no statistic or critical value depends on the blocks, the
bands or the groups.  Per window, the intercept is partialled out and one
pivot loop eliminates the regressors in turn, a row of cross-products at
a time, the lagged level last, so its t-ratio falls out of the last
pivot.  With ``lag_selection="bic"`` one elimination pass with the level
first gives every candidate lag's rss, and the lag is chosen per window.
A single-window ADF (:func:`adf_stat`) is a sweep of the whole sample.
The definitional reference, one OLS per window written out by hand,
lives in the test suite (``tests/oracles.py``), not here.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .errors import (
    InsufficientDataError,
    NoValidWindowError,
    SingularDesignError,
    ValidationError,
)
from .series import TimeSeries, _fmt, _quantiles, write_csv
from .synthkit import stream

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
    (T, r0, n_lags, n_rep, seed, alphas).
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
        write_csv(path, ["t"] + [f"cv_{_fmt(a)}" for a in self.alphas],
                  ([self.min_window + i, *row] for i, row in enumerate(self.cv_by_t)),
                  comment=f"T={self.series_length} r0={self.min_window} "
                          f"n_rep={self.n_rep} seed={self.seed} n_lags={self.n_lags}")


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
        n_obs_used=L - k_used - 1,
        n_lags_used=k_used,
    )


# ---------------------------------------------------------------------------
# window sweep: every window from prefix sums
# ---------------------------------------------------------------------------

#: bytes a block may hold: its group's prefix sums plus the scratch buffer
_BLOCK_BYTES = 1 << 22


def _prefix_sums(y: np.ndarray, k: int, level_first: bool = False):
    """Prefix sums of the centered k-lag ADF variables and their products.

    W has one row per variable and, per series (a row of ``y``), one column
    per regression time: column j is t = j + k + 1.  Its rows are the
    regressors Z, the lagged differences dy[t-1], ..., dy[t-k] followed by
    the lagged level y[t-1] (the level first when ``level_first``), and
    then the response d = dy[t].  Centering by each series' full-sample
    means keeps the windowed cross-products well conditioned.  Returns the
    prefix sums of W's rows followed by those of the products W[r] * W[c]
    for r <= c, the upper triangle in row-major order: q + q(q+1)/2 rows
    for q variables, of shape (rows, series, T - k), where slot s holds
    the sum over the series' first s regression times.
    """
    T = y.shape[1]
    dy = np.diff(y)
    lags = [dy[:, k - i:T - 1 - i] for i in range(1, k + 1)]
    level = [y[:, k:-1]]
    W = np.array((level + lags if level_first else lags + level) + [dy[:, k:]])
    W -= W.mean(axis=2, keepdims=True)
    q = W.shape[0]
    P = np.zeros((q + q * (q + 1) // 2,) + W.shape[1:2] + (T - k,))
    P[:q, :, 1:] = W
    for x, (r, c) in enumerate(((r, c) for r in range(q) for c in range(r, q)), start=q):
        np.multiply(W[r], W[c], out=P[x, :, 1:])
    np.cumsum(P[:, :, 1:], axis=2, out=P[:, :, 1:])
    return P


def _row_edges(q: int, every_pivot: bool = False) -> list[int]:
    """Row edges of a q-variable fit's buffer per window (:func:`_window_fits`)."""
    return list(accumulate([0, q, q * (q + 1) // 2, q, q, (q - 1) * every_pivot, 3]))


def _window_fits(P, bands, buf, every_pivot=False, guards=True):
    """OLS of d on [1, Z] over prefix slots (lo, hi] of every window.

    ``bands`` lists rectangles (e, B, c), end slots e .. e + B - 1 by starts
    0 .. c - 1, or windows gathered one by one as (hi, lo) slot arrays of
    shape (w, 1), each for every series in ``P``; the windows lie band after
    band, each in C order (series, B, c).  One pivot loop serves every
    regressor count m.  The intercept is partialled out of the windowed
    sums in closed form, giving the upper triangle A of [Z, d]'s centered
    cross-products.  The regressors are then eliminated one at a time, in
    row order (Frisch-Waugh-Lovell): the pivot D_j of regressor j is its
    cross-product left after the earlier ones are partialled out, and
    eliminating it lowers rss by c_j**2 / D_j, with c_j its partialled
    cross-product with d.  A pivot is degenerate unless D_j > 1e-14 * A_jj,
    the regressor's diagonal before elimination.  Each step updates a whole
    row of A in one call.  Windows with lo >= hi give meaningless values.

    Returns (stat, rss, bad, cut, n) after the last pivot: the t-ratio
    b/sqrt(sigma2/D) of the last regressor, b = c/D its multiplier, the rss,
    whether any pivot was degenerate, the exact-fit floor 1e-12 * max(Sdd, 1)
    of the raw response sum of squares and the regression rows hi - lo; with
    ``every_pivot``, (rss, bad) after each pivot, shape (m, windows), and n.
    ``guards=False`` (fixed lag) skips the floors and the flags, which no
    t-ratio depends on: bad is all False and cut unset.
    The float arrays are views of ``buf``, valid until the next fit: blocks
    reuse it rather than page-faulting in their own.  Past the sums its rows
    are q means, then the elimination's products and the t-ratio's variance;
    q for the centering's products, then the pivot floors; the kept rss; n;
    cut; the multiplier, then the t-ratio.
    """
    R, G = P.shape[:2]
    q = (math.isqrt(9 + 8 * R) - 3) // 2  # R = q + q(q+1)/2 rows
    m, kept = q - 1, q - 1 if every_pivot else 0
    shapes = [(G,) + (band[1:] if len(band) == 3 else band[0].shape) for band in bands]
    w, edges = sum(map(math.prod, shapes)), _row_edges(q, every_pivot)
    rows = buf[:edges[-1] * w].reshape(-1, w)
    S, A, mean, floor, rss, (n, cut, f) = (rows[i:j] for i, j in zip(edges, edges[1:]))
    at = 0
    for band, shape in zip(bands, shapes):
        X = rows[:R, at:at + math.prod(shape)].reshape((R,) + shape)
        N = n[at:at + math.prod(shape)].reshape(shape)
        at += math.prod(shape)
        if len(band) == 3:
            # the end dates first: a subtract along the starts' rows outruns
            # one of a spread end date by more than the spreading costs
            e, B, c = band
            X[...] = P[:, :, e:e + B, None]
            X -= P[:, :, None, :c]
            band = np.arange(e, e + B)[:, None], np.arange(c)
        else:  # the lo sums through the rows past R, which are free here: no temporary
            np.take(P, band[0], axis=2, out=X, mode="clip")     # "raise" would buffer
            free = rows[R:, at - math.prod(shape):at].reshape((-1,) + shape)
            for r in range(0, R, len(free)):
                X[r:r + len(free)] -= np.take(P[r:r + len(free)], band[1], axis=2,
                                              out=free[:R - r], mode="clip")
        np.subtract(*band, out=N[0])  # hi - lo, the same for every series
        N[1:] = N[0]
    # a[r][s - r] is (r, s), in the row-major order _prefix_sums stores
    a = [A[r * q - r * (r - 1) // 2:][:q - r] for r in range(q)]
    degenerate, bad = np.zeros(w, dtype=bool), np.empty((kept, w), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        if guards and not every_pivot:
            np.multiply(_RSS_RTOL, np.maximum(a[m][0], 1.0, out=cut), out=cut)
        np.divide(S, n, out=mean)
        for r in range(q):
            a[r] -= np.multiply(S[r], mean[r:], out=floor[:q - r])
        for p in range(m if guards else 0):
            np.multiply(1e-14, a[p][0], out=floor[p])
        for p in range(m):
            D = a[p][0]
            if guards:
                degenerate |= ~(D > floor[p])
            for r in range(p + 1, q):
                np.divide(a[p][r - p], D, out=f)
                a[r] -= np.multiply(a[p][r - p:], f, out=mean[:q - r])
            if every_pivot:
                rss[p], bad[p] = a[m][0], degenerate
        if every_pivot:
            return rss, bad, n
        np.divide(a[m][0], np.subtract(n, m + 1, out=mean[0]), out=mean[0])
        mean[0] /= D
        f /= np.sqrt(mean[0], out=mean[0])
    return f, a[m][0], degenerate, cut, n


def _fixed_stats(P, bands, buf, guards=True) -> np.ndarray:
    """Per-window t-ratios, a view of ``buf`` (see :func:`_window_fits`);
    with ``guards``, -inf where the window is degenerate: a degenerate
    pivot, an exact fit or a t-ratio that is not finite."""
    stat, rss, bad, cut, _ = _window_fits(P, bands, buf, guards=guards)
    if guards:
        np.copyto(stat, -np.inf, where=bad | ~(rss > cut) | ~np.isfinite(stat))
    return stat


def _bic_stats(own, nested, bands, kmax, r0, buf):
    """Per-window t-ratios and lag counts, the lag chosen per window by BIC.

    ``bands`` lists one series' windows as rectangles (a, B, c), the B end
    dates r2 from a by the starts s1 in [0, c) (see :func:`_sweep`).  Every
    candidate k in [0, kmax] is fitted on the common sample of the kmax
    regression.  The candidates are nested, so one elimination pass over
    ``nested`` (the kmax columns with the level first, then dy[t-1],
    dy[t-2], ...) leaves candidate k's rss after pivot k.  Candidates are
    tried in ascending k; a later one wins only with a BIC below the best
    by more than 1e-12, the first with rss <= 0 wins outright, and
    degenerate ones are skipped.  The winner's statistic is its own fixed-k
    fit, from ``own[k]``: over the whole bands for a lag most windows won,
    else over the windows it won.  Windows shorter than :func:`adf_stat`
    accepts, or than r0 + 1 (the padding), or with no usable candidate,
    give -inf and lag -1.
    """
    rss, singular, n = _window_fits(nested, [(a - kmax, B, c) for a, B, c in bands], buf, True)
    # a window's length r2 - s1 + 1 is n + kmax + 1
    selecting = n >= max(2 * kmax + 4, kmax + 5, r0 + 1) - kmax - 1
    best_bic = np.full(n.shape, np.inf)
    lag = np.full(n.shape, -1)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_n = np.log(n)
        for k in range(kmax + 1):
            usable = selecting & ~singular[k]
            exact = usable & (rss[k] <= 0.0)
            bic = n * np.log(rss[k] / n) + (k + 2) * log_n
            take = exact | (usable & (bic < best_bic - 1e-12))
            np.copyto(best_bic, bic, where=take)
            lag[take] = k
            selecting &= ~exact
    # each end date's first window, in the bands' flat order
    row_at = np.cumsum([0] + [c for _, B, c in bands for _ in range(B)])
    r2 = np.concatenate([np.arange(a, a + B) for a, B, _ in bands])
    stat = np.full(n.shape, -np.inf)
    for k in range(kmax + 1):
        at = lag == k
        won = np.count_nonzero(at)
        if 2 * won > at.size:
            np.copyto(stat, _fixed_stats(own[k], [(a - k, B, c) for a, B, c in bands], buf), where=at)
        elif won:  # the windows it won, located by end date and start
            i = np.flatnonzero(at)
            row = np.searchsorted(row_at, i, side="right") - 1
            stat[at] = _fixed_stats(own[k], [((r2[row] - k)[:, None], (i - row_at[row])[:, None])], buf)
    return stat, lag


def _sweep(y, r0: int, spec: AdfSpec, first_r2: int, shape=None):
    """Backward sup of the ADF t-ratio at each r2 in [first_r2, T-1].

    The windows [s1, r2] with s1 in [0, r2 - r0] are fitted from prefix
    sums.  A band is B consecutive end dates r2 by the starts s1 in [0, c)
    that the last of them admits, for every series of a group; the starts
    past r2 - r0 that pad its earlier rows are set to -inf.  A band has at
    most 16 rows, or an eighth of its first row's starts if more, so the
    padding stays small.  A block packs bands until, with its group's
    prefix sums, it holds about ``_BLOCK_BYTES``; it is reduced over the
    starts before the next is built, so memory is bounded by the block,
    not by the O(T**2) sweep.  For one series ``y``, returns per r2 the
    supremum (-inf where every window degenerates, for the caller to
    resolve), the first start attaining it and the lag count of that
    window.  With ``shape`` = (n, T), ``y(reps)`` gives the series in
    ``reps`` as rows, fitted side by side in groups whose prefix sums take
    an eighth of the budget, and only the suprema are returned, shape
    (n, T - first_r2).  No supremum depends on the blocks, bands or groups.

    A fixed-lag group of ``shape`` rows is fitted unguarded, then each row's
    first maximum again with guards, in one gathered fit.  A guard only sets
    a t-ratio to -inf, so a winner that passes is also its guarded row's
    first maximum and every supremum is exact.  A group with a failing
    winner is swept again guarded, as data sweeps always are: flat runs
    make degenerate windows common in data.  A group of one window per
    series is swept guarded at once.
    """
    k, bic = spec.n_lags, spec.lag_selection == "bic"
    one = shape is None
    n, T = (1, y.shape[0]) if one else shape
    ks = range(k + 1) if bic else [k]
    rows = _row_edges(k + 2, bic)[-1]  # float64 rows per window of the widest fit
    prefix = 8 * sum((j + 2) * (j + 5) // 2 * (T - j) for j in ([*ks, k] if bic else ks))
    group = min(n, max(1, _BLOCK_BYTES // (8 * prefix)))
    cap = max(1, (_BLOCK_BYTES - group * prefix) // (8 * rows * group))  # windows per series
    blocks, size, a = [[]], 0, first_r2  # blocks of bands (a, B, c), end dates from a
    while a < T:
        c = a - r0
        b = a + max(1, min(T - a, max(16, c // 8), (math.isqrt(c * c + 4 * cap) - c) // 2))
        if size + (b - a) * (b - r0) > cap and blocks[-1]:
            blocks.append([])
            size = 0
        blocks[-1].append((a, b - a, b - r0))
        size += (b - a) * (b - r0)
        a = b
    buf = np.empty(rows * group * max(sum(B * c for _, B, c in bands) for bands in blocks))
    sup = np.empty((n, T - first_r2))
    first = np.empty((group, T - first_r2), dtype=np.int64)  # one group's winners
    lag = np.full(T - first_r2, k, dtype=np.int64)
    for g in range(0, n, group):
        ys = y[None] if one else y(range(g, min(g + group, n)))
        G, wins = len(ys), first[:len(ys)]
        own = [_prefix_sums(ys, j) for j in ks]
        nested = _prefix_sums(ys, k, level_first=True) if bic else None
        # a null group unguarded, then guarded if a winner fails; with one
        # window per series (the stationarity pre-check's null) the winner
        # check would fit every window again, so it is guarded at once
        for guards in (one or bic or T - r0 == 1, True):
            for bands in blocks:
                if bic:
                    stat, lags = _bic_stats(own, nested, bands, k, r0, buf)
                else:
                    stat = _fixed_stats(own[0], [(a - k, B, c) for a, B, c in bands], buf, guards)
                at = 0
                for a, B, c in bands:
                    band = stat[at:at + G * B * c].reshape(G, B, c)
                    # row i's starts past a + i - r0 (_bic_stats gives them -inf)
                    for i in range(0 if bic else B - 1):
                        band[:, i, c - B + 1 + i:] = -np.inf
                    i = slice(a - first_r2, a + B - first_r2)
                    wins[:, i] = won = band.argmax(axis=2)
                    won += np.arange(at, at + G * B * c, c).reshape(G, B)  # its index in stat
                    sup[g:g + G, i] = stat[won]
                    if bic:  # the lag of each row's first window attaining the sup
                        lag[i] = lags[won[0]]
                    at += G * B * c
            if guards:
                break
            base = np.arange(0, G * (T - k), T - k)[:, None]  # slot 0 of each series, seen as one
            hi, lo = (base + np.arange(first_r2 - k, T - k)).reshape(-1, 1), (base + wins).reshape(-1, 1)
            checked = _fixed_stats(own[0].reshape(len(own[0]), 1, -1), [(hi, lo)], buf)
            if np.array_equal(checked, sup[g:g + G].ravel()):  # NaN fails; an all -inf row is exact
                break
    return (sup[0], first[0], lag) if one else sup


def _check_sweep(T: int, r0: int, k: int) -> None:
    """A public sweep needs r0 >= n_lags + 5 and T > r0."""
    if r0 < k + 5:
        raise ValidationError(f"r0={r0} must be >= n_lags + 5 = {k + 5}")
    if T <= r0:
        raise InsufficientDataError(f"series length {T} must exceed r0={r0}")


# ---------------------------------------------------------------------------
# public sweep API
# ---------------------------------------------------------------------------


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
    if not np.all(np.isfinite(sup)):
        raise NoValidWindowError(f"all windows ending at {r0 + np.argmin(np.isfinite(sup))} failed")
    return [BsadfPoint(t_index=r2, stat=stat, argmax_start=start)
            for r2, stat, start in zip(range(r0, T), sup.tolist(), argmax.tolist())]


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
    (i.i.d. standard normal increments, zero start) from the Philox stream
    ``synthkit.stream(seed, replication index)`` (so ``seed`` lies in
    [0, 2**63)), computes its BSADF sequence, and the table is the per-t
    empirical quantile (type 7) at each alpha.  Keying by replication
    index makes the result independent of the sweep's blocks and bands, of
    how replications are grouped into them, and of any execution order or
    worker count.
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

    def walks(reps):
        steps = [stream(seed, rep).standard_normal(T - 1) for rep in reps]
        return np.hstack([np.zeros((len(steps), 1)), np.cumsum(steps, axis=1)])

    stats = _sweep(walks, min_window, spec, min_window, shape=(n_rep, T))
    if not np.all(np.isfinite(stats)):
        raise NoValidWindowError("a null replication produced no valid window")
    cv = np.array(_quantiles(stats, alphas)).T.copy()
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
    # flagged runs [i, j): where the flags switch on, and where off again
    edges = np.flatnonzero(np.diff(np.concatenate([[False], flags, [False]]))).tolist()
    episodes = [BubbleEpisode(start=eval_dates[i], end=eval_dates[j - 1],
                              peak_stat=float(stats[i:j].max()))
                for i, j in zip(edges[::2], edges[1::2])]
    return DatestampResult(
        level=float(level),
        dates=eval_dates,
        stats=stats,
        cvs=np.asarray(col, dtype=np.float64).copy(),
        flags=flags,
        episodes=tuple(episodes),
        pct_flagged=float(flags.sum()) / float(len(points)),
    )
