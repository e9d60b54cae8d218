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
next is built; the Monte-Carlo null fits short replications a group of
whole ones per block.  Each window's fit is elementwise, so no statistic
or critical value depends on the blocks or the groups.  Per window, the
intercept is partialled out and one pivot loop eliminates the regressors
in turn, the lagged level last, so its t-ratio falls out of the last
pivot.  With ``lag_selection="bic"`` one elimination pass with the level
first gives every candidate lag's residual sum of squares, and the lag is
chosen per window.  A single-window ADF (:func:`adf_stat`) is a sweep
whose only window is the whole sample.
The definitional reference, one OLS per window written out by hand,
lives in the test suite (``tests/oracles.py``), not here.
"""

from __future__ import annotations

import csv
import datetime as dt
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InsufficientDataError,
    NoValidWindowError,
    SingularDesignError,
    ValidationError,
)
from .series import TimeSeries, write_csv
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
        n_obs_used=L - k_used - 1,
        n_lags_used=k_used,
    )


# ---------------------------------------------------------------------------
# window sweep: every window from prefix sums
# ---------------------------------------------------------------------------

#: windows swept at once; a block holds whole r2 segments (at least one)
_BLOCK_WINDOWS = 1 << 14


def _prefix_sums(y: np.ndarray, k: int, level_first: bool = False):
    """Prefix sums of the centered k-lag ADF variables and their products.

    W has one row per variable and, per series (a row of ``y``), one column
    per regression time: column j is t = j + k + 1.  Its rows are the
    regressors Z, the lagged differences dy[t-1], ..., dy[t-k] followed by
    the lagged level y[t-1] (the level first when ``level_first``), and
    then the response d = dy[t].  Centering by each series' full-sample
    means keeps the windowed cross-products well conditioned.  Returns
    (P_w, P_ww): the prefix sums of W's rows and of the products
    W[r] * W[c] for r <= c, the upper triangle in row-major order,
    (m+1)(m+2)/2 rows for m regressors.  The series' T - k slots sit side
    by side; slot s holds the sum over the series' first s regression times.
    """
    T = y.shape[1]
    dy = np.diff(y)
    lags = [dy[:, k - i:T - 1 - i] for i in range(1, k + 1)]
    level = [y[:, k:-1]]
    W = np.array((level + lags if level_first else lags + level) + [dy[:, k:]])
    W -= W.mean(axis=2, keepdims=True)
    q = W.shape[0]

    def prefix(a):
        out = np.zeros(a.shape[:2] + (a.shape[2] + 1,))
        np.cumsum(a, axis=2, out=out[:, :, 1:])
        return out.reshape(a.shape[0], -1)

    return prefix(W), prefix(np.array([W[r] * W[c] for r in range(q) for c in range(r, q)]))


def _window_fits(P, lo, hi, scratch):
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
    response sum of squares.  The float arrays are rows of the caller's
    ``scratch(n_rows, windows)`` buffer, valid until the next fit: blocks
    reuse it rather than allocating, freeing and page-faulting in their own.
    """
    P_w, P_ww = P
    q, t, w = P_w.shape[0], P_ww.shape[0], lo.shape[0]
    m = q - 1
    rows = scratch(3 * q + 2 * t + 2 * m + 5, w)
    S, S_lo, A, A_lo, mean, floor, rss, (n, Sdd, stat, f, tmp) = np.split(
        rows, np.cumsum([q, q, t, t, q, m, m]))
    np.subtract(hi, lo, out=n)
    # every index is in range; "clip" only spares take the copy "raise" makes
    np.take(P_w, hi, axis=1, out=S, mode="clip")
    S -= np.take(P_w, lo, axis=1, out=S_lo, mode="clip")
    np.take(P_ww, hi, axis=1, out=A, mode="clip")
    A -= np.take(P_ww, lo, axis=1, out=A_lo, mode="clip")
    Sdd[:] = A[-1]
    np.divide(S, n, out=mean)
    a = {}  # (r, c) -> row of A, in the row-major order _prefix_sums stores
    for x, (r, c) in enumerate((r, c) for r in range(q) for c in range(r, q)):
        A[x] -= np.multiply(S[r], mean[c], out=tmp)
        a[r, c] = A[x]
    for p in range(m):
        np.multiply(1e-14, a[p, p], out=floor[p])
    bad = np.empty((m, w), dtype=bool)
    degenerate = np.zeros(w, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for p in range(m):
            D, c = a[p, p], a[p, m]
            degenerate |= ~(D > floor[p])
            bad[p] = degenerate
            for r in range(p + 1, q):
                np.divide(a[p, r], D, out=f)
                for s in range(r, q):
                    a[r, s] -= np.multiply(a[p, s], f, out=tmp)
            rss[p] = a[m, m]
        np.divide(c, D, out=stat)
        np.divide(rss[-1], np.subtract(n, m + 1, out=tmp), out=tmp)
        tmp /= D
        stat /= np.sqrt(tmp, out=tmp)
    return stat, rss, bad, Sdd


def _fixed_stats(P, lo, hi, scratch) -> np.ndarray:
    """Per-window t-ratios, a view of ``scratch`` (see :func:`_window_fits`);
    -inf where the window is degenerate (a degenerate pivot or an exact fit)."""
    stat, rss, bad, Sdd = _window_fits(P, lo, hi, scratch)
    floor = np.multiply(_RSS_RTOL, np.maximum(Sdd, 1.0, out=Sdd), out=Sdd)
    stat[bad[-1] | ~(rss[-1] > floor) | ~np.isfinite(stat)] = -np.inf
    return stat


def _bic_stats(own, nested, s1, r2, kmax, scratch):
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
    _, rss, singular, _ = _window_fits(nested, s1, r2 - kmax, scratch)
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
        stat[at] = _fixed_stats(own[k], s1[at], r2[at] - k, scratch)
    return stat, lag


def _sweep(y, r0: int, spec: AdfSpec, first_r2: int, shape=None):
    """Backward sup of the ADF t-ratio at each r2 in [first_r2, T-1].

    The windows [s1, r2] with s1 in [0, r2 - r0] are fitted from prefix
    sums, in blocks of whole r2 segments of about ``_BLOCK_WINDOWS``
    windows; each block is reduced before the next is built, so memory is
    bounded by the block, not by the O(T**2) sweep.  For one series ``y``,
    returns per r2 the supremum (-inf where every window degenerates, for
    the caller to resolve), the first start attaining it (the one
    ``np.argmax`` would pick) and the lag count of that window.  With
    ``shape`` = (n, T), ``y(reps)`` gives the series in ``reps`` as rows,
    and only their suprema are returned, shape (n, T - first_r2); series
    whose sweeps are shorter than a block are fitted a group of whole
    sweeps per block, side by side in one set of prefix sums, from one
    window plan.  No supremum depends on the blocks or the groups.
    """
    k, bic = spec.n_lags, spec.lag_selection == "bic"
    one = shape is None
    n, T = (1, y.shape[0]) if one else shape
    r2s = np.arange(first_r2, T)
    # a group's windows, and its prefix-sum slots, fit in one block
    group = min(n, max(1, _BLOCK_WINDOWS // max(T, int((r2s - r0 + 1).sum()))))
    offset = np.repeat(np.arange(group) * (T - k), r2s.size)  # series' first slots
    seg_r2 = np.tile(r2s, group) + offset
    counts = np.tile(r2s - r0 + 1, group)
    ends = np.cumsum(counts)

    @functools.lru_cache(maxsize=1)
    def plan(a, b):  # windows (s1, r2) in slots of segments a..b-1, segment starts
        c = counts[a:b]
        starts = ends[a:b] - c - (ends[a] - c[0])
        return (np.arange(starts[-1] + c[-1]) - np.repeat(starts - offset[a:b], c),
                np.repeat(seg_r2[a:b], c), starts)

    buf = np.empty(0)

    def scratch(n_rows, w):  # one buffer for every block's fit, grown as needed
        nonlocal buf
        if buf.shape[0] < n_rows * w:
            buf = np.empty(n_rows * w)
        return buf[:n_rows * w].reshape(n_rows, w)

    sup = np.empty(n * r2s.size)
    first = np.empty(r2s.size, dtype=np.int64)
    lag = np.empty(r2s.size, dtype=np.int64)
    for g in range(0, n, group):
        ys = y[None] if one else y(range(g, min(g + group, n)))
        own = [_prefix_sums(ys, j) for j in (range(k + 1) if bic else [k])]
        nested = _prefix_sums(ys, k, level_first=True) if bic else None
        out, ends_g = sup[g * r2s.size:], ends[:len(ys) * r2s.size]
        a = 0
        while a < ends_g.shape[0]:
            done = ends[a] - counts[a]
            b = max(a + 1, int(np.searchsorted(ends_g, done + _BLOCK_WINDOWS, side="right")))
            s1, r2, starts = plan(a, b)
            if bic:
                stat, lags = _bic_stats(own, nested, s1, r2, k, scratch)
            else:
                stat, lags = _fixed_stats(own[-1], s1, r2 - k, scratch), np.broadcast_to(k, s1.shape)
            out[a:b] = np.maximum.reduceat(stat, starts)
            if one:
                at_sup = stat == np.repeat(out[a:b], counts[a:b])
                first[a:b] = np.minimum.reduceat(np.where(at_sup, s1, s1.shape[0]), starts)
                lag[a:b] = lags[starts + first[a:b]]
            a = b
    return (sup, first, lag) if one else sup.reshape(n, r2s.size)


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
    (i.i.d. standard normal increments, zero start) from the Philox stream
    ``synthkit.stream(seed, replication index)`` (so ``seed`` lies in
    [0, 2**63)), computes its BSADF sequence, and the table is the per-t
    empirical quantile (type 7) at each alpha.  Keying by replication
    index makes the result independent of the sweep's blocks, of how
    short replications are grouped into them, and of any execution order
    or worker count.
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
