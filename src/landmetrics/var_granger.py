"""Granger-causality block F tests on a panel of aligned series.

The Granger test of ``cause -> effect`` regresses the effect on a
constant and p lags of every variable in the system, and asks whether
the cause's p lags add anything (q = p restrictions).  No VAR is
estimated as such: each test factors its one design with a thin QR, and
the restricted fit's extra rss is read off the same factorization, so
the two fits are never run separately.

Sample-size convention: a panel with ``rows`` aligned observations fit at
lag order p has regression sample ``n_obs = rows - p`` and per-equation
``df_resid = n_obs - (k*p + 1)`` where k is the panel width.  Adding one
lag therefore costs exactly one observation.

"Extended" tests include every other panel column as an endogenous VAR
variable; there is no exogenous-regressor mode.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field

import numpy as np

from .bubbles import AdfSpec, AdfResult, adf_stat, mc_critical_values
from .errors import (
    InsufficientDataError,
    SingularDesignError,
    ValidationError,
)
from .linreg import f_tail_prob
from .series import grid_step, write_csv

#: a QR pivot |R_jj| at or below RANK_TOL * ||x_j|| marks design column j
#: as collinear with the columns before it
RANK_TOL = 1e-10


@dataclass(frozen=True)
class Panel:
    """Aligned multivariate observations (time by variable), no missing cells.

    ``dates`` is optional metadata; when present it must be contiguous on
    the frequency grid, because lag construction assumes adjacent rows
    are adjacent periods.
    """

    variable_names: tuple[str, ...]
    data: np.ndarray = field(repr=False)
    freq: str = "weekly"
    dates: tuple[dt.date, ...] | None = None

    def __post_init__(self):
        names = tuple(self.variable_names)
        x = np.asarray(self.data, dtype=np.float64)
        if x.ndim != 2:
            raise ValidationError("panel data must be two-dimensional")
        if x.shape[1] != len(names):
            raise ValidationError(f"{len(names)} names for {x.shape[1]} columns")
        if len(set(names)) != len(names):
            raise ValidationError("variable names must be unique")
        if not np.all(np.isfinite(x)):
            raise ValidationError("panel contains non-finite cells")
        if self.dates is not None:
            dates = tuple(self.dates)
            if len(dates) != x.shape[0]:
                raise ValidationError("dates length does not match rows")
            step = grid_step(self.freq)
            for a, b in zip(dates, dates[1:]):
                if b - a != step:
                    raise ValidationError(
                        f"panel dates must be contiguous; gap between {a} and {b}"
                    )
            object.__setattr__(self, "dates", dates)
        x = x.copy()
        x.flags.writeable = False
        object.__setattr__(self, "variable_names", names)
        object.__setattr__(self, "data", x)

    @property
    def n_rows(self) -> int:
        return self.data.shape[0]

    @property
    def n_vars(self) -> int:
        return self.data.shape[1]

    def column(self, name: str) -> np.ndarray:
        return self.data[:, self.variable_names.index(name)]

    def subset(self, names) -> "Panel":
        idx = [self.variable_names.index(n) for n in names]
        return Panel(
            variable_names=tuple(names),
            data=self.data[:, idx],
            freq=self.freq,
            dates=self.dates,
        )


def build_panel(series_list) -> Panel:
    """Align several series into a Panel on their exact common dates.

    All series must share the frequency and cover an identical contiguous
    date range; anything else (gaps, partial overlap) is a validation
    error, because silently intersecting ranges would hide data problems.
    """
    series_list = list(series_list)
    if len(series_list) < 2:
        raise ValidationError("a panel needs at least two series")
    freqs = {s.freq for s in series_list}
    if len(freqs) != 1:
        raise ValidationError(f"mixed frequencies: {sorted(freqs)}")
    ref = series_list[0]
    for s in series_list[1:]:
        if s.dates != ref.dates:
            missing = set(ref.dates) ^ set(s.dates)
            sample = ", ".join(d.isoformat() for d in sorted(missing)[:5])
            raise ValidationError(
                f"series {s.name!r} is not aligned with {ref.name!r} "
                f"({len(missing)} differing dates, e.g. {sample})"
            )
    return Panel(
        variable_names=tuple(s.name for s in series_list),
        data=np.column_stack([s.values for s in series_list]),
        freq=ref.freq,
        dates=ref.dates,
    )


@dataclass(frozen=True)
class GrangerResult:
    cause: str
    effect: str
    p: int
    f_stat: float
    p_value: float
    df_num: int
    df_den: int
    n_obs: int
    controls_included: bool


def _lagged_design(panel: Panel, cause: str, p: int):
    """Labels and columns of the Granger design for ``cause`` at lag order p.

    The columns are a constant, p lags of every other panel column, then
    the cause's p lags, so the restriction under test drops the last p
    columns.  The rows are the regression sample, rows p..n-1.
    """
    if p < 1:
        raise ValidationError(f"lag order must be >= 1, got {p}")
    x = panel.data
    rows, k = x.shape
    n_obs = rows - p
    n_params = k * p + 1
    if n_obs - n_params < 5:
        raise InsufficientDataError(
            f"{rows} rows leave df_resid = {n_obs - n_params} < 5 at p={p}, k={k}"
        )
    names = panel.variable_names
    order = [n for n in names if n != cause] + [cause]
    lags = [(n, lag) for n in order for lag in range(1, p + 1)]
    labels = ["const"] + [f"{n}_lag{lag}" for n, lag in lags]
    cols = [x[p - lag:rows - lag, names.index(n)] for n, lag in lags]
    return labels, np.column_stack([np.ones(n_obs)] + cols)


def _check_pivots(labels, x, r) -> None:
    """Raise if a design column is collinear with the columns before it.

    ``|r[j, j]|`` is the norm of what is left of column j once the
    columns before it are projected out; the test compares it with the
    column's own norm.
    """
    bad = np.abs(np.diag(r)) <= RANK_TOL * np.linalg.norm(x, axis=0)
    if np.any(bad):
        cols = tuple(label for label, b in zip(labels, bad) if b)
        raise SingularDesignError(
            f"design matrix is rank deficient; collinear columns: {', '.join(cols)}",
            columns=cols,
        )


def granger_test(
    panel: Panel, cause: str, effect: str, p: int, controls: bool = False
) -> GrangerResult:
    """Block F test that lags of ``cause`` add nothing to ``effect``.

    With ``controls=False`` the system is the bivariate VAR on
    (effect, cause).  With ``controls=True`` every panel column enters as
    an endogenous variable; the panel must then hold at least one column
    beyond the tested pair.

    With ``x = QR`` and ``z = Q'y`` for the unrestricted design, whose
    last p columns are the cause's lags, the restricted rss exceeds the
    unrestricted one by exactly ``|z[-p:]|^2``:

        F = (|z[-p:]|^2 / p) / (rss_u / df_u)

    so F is never negative.  ``rss_u`` comes from the residuals
    ``y - Qz``.  An exact fit (``rss_u == 0``) gives F = inf and p = 0.

    Raises
    ------
    SingularDesignError
        If a design column is collinear with the columns before it; the
        error names those columns.
    """
    names = panel.variable_names
    if cause == effect:
        raise ValidationError("cause and effect must differ")
    for n in (cause, effect):
        if n not in names:
            raise ValidationError(f"variable {n!r} not in panel {names}")
    if controls:
        if panel.n_vars < 3:
            raise ValidationError(
                "controls=True needs control columns beyond the tested pair"
            )
        sub = panel
    else:
        sub = panel.subset([effect, cause])
    labels, x = _lagged_design(sub, cause, p)
    y = sub.column(effect)[p:]
    q, r = np.linalg.qr(x)
    _check_pivots(labels, x, r)
    z = q.T @ y
    resid = y - q @ z
    rss_u = float(resid @ resid)
    df_den = y.shape[0] - x.shape[1]
    if rss_u == 0.0:
        f_stat, p_value = np.inf, 0.0
    else:
        f_stat = float(z[-p:] @ z[-p:]) / p / (rss_u / df_den)
        p_value = f_tail_prob(f_stat, p, df_den)
    return GrangerResult(
        cause=cause,
        effect=effect,
        p=p,
        f_stat=f_stat,
        p_value=p_value,
        df_num=p,
        df_den=df_den,
        n_obs=y.shape[0],
        controls_included=controls,
    )


def granger_table(
    panel: Panel, cause: str, effect: str, p_max: int, both_specs: bool = True
) -> list[GrangerResult]:
    """All (spec, lag, direction) cells, baseline first, then extended."""
    if p_max < 1:
        raise ValidationError(f"p_max must be >= 1, got {p_max}")
    specs = [False, True] if both_specs else [False]
    out = []
    for controls in specs:
        for p in range(1, p_max + 1):
            out.append(granger_test(panel, cause, effect, p, controls))
            out.append(granger_test(panel, effect, cause, p, controls))
    return out


def granger_table_to_csv(results, path) -> None:
    """``lag,controls,direction,f_stat,p_value,df_num,df_den,n_obs`` rows."""
    write_csv(path, ["lag", "controls", "direction", "f_stat", "p_value",
                     "df_num", "df_den", "n_obs"],
              ((r.p, r.controls_included, f"{r.cause}->{r.effect}", r.f_stat, r.p_value,
                r.df_num, r.df_den, r.n_obs) for r in results))


@dataclass(frozen=True)
class StationarityCheck:
    """ADF outcome for one panel column against a left-tail null quantile.

    ``passes`` is True when the unit root is rejected (stat below the
    critical value), i.e. the column looks stationary enough for the VAR.
    Columns whose regression degenerates carry ``error`` instead.
    """

    name: str
    result: AdfResult | None
    critical_value: float
    passes: bool
    error: str | None = None


def stationarity_precheck(
    panel: Panel,
    spec: AdfSpec = AdfSpec(),
    alpha: float = 0.05,
    n_rep: int = 1000,
    seed: int = 0,
) -> list[StationarityCheck]:
    """Full-sample ADF on each column versus a simulated 5% critical value.

    The critical value is the ``alpha`` quantile of the full-sample ADF
    statistic over ``n_rep`` simulated driftless unit-root paths of the
    same length (left tail: more negative means stronger rejection): the
    table of :func:`mc_critical_values` whose only window is the whole
    sample at the fixed lag ``spec.n_lags``, so ``n_rep`` must be >= 200.
    A panel shorter than 20 rows or than :func:`adf_stat` accepts raises
    :class:`InsufficientDataError` before any path is simulated.
    """
    if panel.n_rows < 20:
        raise InsufficientDataError(f"precheck needs >= 20 rows, got {panel.n_rows}")
    if not (0.0 < alpha < 1.0):
        raise ValidationError(f"alpha must be in (0, 1), got {alpha}")
    cols = []
    for name in panel.variable_names:
        try:
            cols.append((name, adf_stat(panel.column(name), spec), None))
        except SingularDesignError as exc:
            cols.append((name, None, str(exc)))
    n = panel.n_rows
    cv = float(mc_critical_values(n, min_window=n - 1, spec=AdfSpec(n_lags=spec.n_lags),
                                  alphas=(alpha,), n_rep=n_rep, seed=seed).cv_by_t[0, 0])
    return [StationarityCheck(name=name, result=res, critical_value=cv,
                              passes=res is not None and bool(res.stat < cv), error=err)
            for name, res, err in cols]
