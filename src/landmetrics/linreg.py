"""Ordinary least squares and nested-model F tests.

The VAR equations run through :func:`ols_fit`; the hedonic index absorbs
its period effects in ``hedonic`` and ADF regressions use the prefix-sum
window sweep in ``bubbles`` instead.
The solver factors the design matrix with an SVD rather than forming
normal equations, detects rank deficiency against a relative
singular-value floor, and reports classical (homoskedasticity-based)
standard errors.  Robust or HAC covariance is out of scope.

The F machinery is split in two: :func:`nested_f_test` turns a pair of
nested fits into an F statistic, and :func:`f_tail_prob` maps a statistic
to its upper-tail probability through the regularized incomplete beta
function.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import betainc

from .errors import (
    InsufficientDataError,
    NestingError,
    SingularDesignError,
    ValidationError,
)

#: singular values below RANK_RTOL * s_max count as zero
RANK_RTOL = 1e-10

#: slack allowed on the nesting inequality rss_restricted >= rss_unrestricted
NESTING_SLACK = 1e-12


@dataclass(frozen=True)
class DesignMatrix:
    """A labeled regression design.

    Parameters
    ----------
    column_labels : tuple of str
        One unique label per column; used in error messages and reports.
    data : ndarray, shape (n, k)
        Finite float64 regressor values, n >= k >= 1.
    """

    column_labels: tuple[str, ...]
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        labels = tuple(self.column_labels)
        x = np.asarray(self.data, dtype=np.float64)
        if x.ndim != 2:
            raise ValidationError("design matrix must be two-dimensional")
        n, k = x.shape
        if k == 0 or len(labels) != k:
            raise ValidationError(f"{len(labels)} labels for {k} columns")
        if len(set(labels)) != k:
            raise ValidationError("column labels must be unique")
        if n < k:
            raise InsufficientDataError(f"{n} rows < {k} columns")
        if not np.all(np.isfinite(x)):
            raise ValidationError("design matrix contains non-finite values")
        object.__setattr__(self, "column_labels", labels)
        object.__setattr__(self, "data", x)

    @property
    def n_rows(self) -> int:
        return self.data.shape[0]

    @property
    def n_cols(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class OlsFit:
    """Result of one least-squares fit.

    ``std_errors`` are classical: ``sqrt(sigma2 * diag((X'X)^-1))`` with
    ``sigma2 = rss / df_resid``.  When ``df_resid`` is 0 the fit is exact
    and ``sigma2``/``std_errors`` are ``None``.
    """

    column_labels: tuple[str, ...]
    coefficients: np.ndarray
    std_errors: np.ndarray | None
    residuals: np.ndarray = field(repr=False)
    rss: float
    df_resid: int
    sigma2: float | None

    @property
    def n_obs(self) -> int:
        return self.residuals.shape[0]

    def std_error(self, label: str) -> float:
        if self.std_errors is None:
            raise ValidationError("saturated fit has no standard errors")
        return float(self.std_errors[self.column_labels.index(label)])


@dataclass(frozen=True)
class FTestResult:
    f_stat: float
    df_num: int
    df_den: int
    p_value: float


def ols_fit(design: DesignMatrix, y) -> OlsFit:
    """Least squares of ``y`` on ``design`` via singular value decomposition.

    Parameters
    ----------
    design : DesignMatrix
    y : array_like, shape (n,)
        Finite response vector, same row count as the design.

    Returns
    -------
    OlsFit

    Raises
    ------
    SingularDesignError
        If any singular value falls below ``RANK_RTOL`` times the largest;
        the error names the columns implicated by the small right singular
        vectors.

    Notes
    -----
    The residuals satisfy ``|X' e| <= 1e-8 * scale`` by construction of
    the decomposition; the test suite asserts this invariant.
    """
    x = design.data
    resp = np.asarray(y, dtype=np.float64)
    if resp.ndim != 1 or resp.shape[0] != design.n_rows:
        raise ValidationError(
            f"response has shape {resp.shape}, expected ({design.n_rows},)"
        )
    if not np.all(np.isfinite(resp)):
        raise ValidationError("response contains non-finite values")

    u, s, vt = np.linalg.svd(x, full_matrices=False)
    if s[0] == 0.0:
        raise SingularDesignError("design matrix is zero", columns=design.column_labels)
    small = s < RANK_RTOL * s[0]
    if np.any(small):
        implicated: set[str] = set()
        for row in vt[small]:
            thresh = 0.1 * np.max(np.abs(row))
            for j in np.flatnonzero(np.abs(row) >= thresh):
                implicated.add(design.column_labels[j])
        cols = tuple(sorted(implicated))
        raise SingularDesignError(
            f"design matrix is rank deficient; collinear columns: {', '.join(cols)}",
            columns=cols,
        )

    coef = vt.T @ ((u.T @ resp) / s)
    resid = resp - x @ coef
    rss = float(resid @ resid)
    df_resid = design.n_rows - design.n_cols
    if df_resid > 0:
        sigma2 = rss / df_resid
        xtx_inv_diag = np.einsum("ji,j->i", vt**2, 1.0 / s**2)
        std_errors = np.sqrt(sigma2 * xtx_inv_diag)
    else:
        sigma2 = None
        std_errors = None
    return OlsFit(
        column_labels=design.column_labels,
        coefficients=coef,
        std_errors=std_errors,
        residuals=resid,
        rss=rss,
        df_resid=df_resid,
        sigma2=sigma2,
    )


def nested_f_test(restricted: OlsFit, unrestricted: OlsFit, q: int) -> FTestResult:
    """F test of ``q`` linear restrictions from two nested fits.

    The fits must come from the same response sample: same number of
    observations, with the restricted model dropping exactly ``q``
    parameters.  The statistic is

        F = ((rss_r - rss_u) / q) / (rss_u / df_u)

    Raises
    ------
    NestingError
        If ``rss_restricted < rss_unrestricted`` beyond numerical slack,
        which means the models were not actually nested.
    """
    if q < 1:
        raise ValidationError(f"q must be >= 1, got {q}")
    if restricted.n_obs != unrestricted.n_obs:
        raise ValidationError(
            f"sample mismatch: {restricted.n_obs} vs {unrestricted.n_obs} observations"
        )
    if restricted.df_resid - unrestricted.df_resid != q:
        raise ValidationError(
            f"df difference {restricted.df_resid - unrestricted.df_resid} != q={q}"
        )
    if unrestricted.df_resid <= 0:
        raise InsufficientDataError("unrestricted fit has no residual degrees of freedom")
    rss_r, rss_u = restricted.rss, unrestricted.rss
    slack = NESTING_SLACK * max(1.0, rss_u)
    if rss_r < rss_u - slack:
        raise NestingError(
            f"restricted rss {rss_r!r} < unrestricted rss {rss_u!r}: models are not nested"
        )
    df_u = unrestricted.df_resid
    if rss_u == 0.0:
        f_stat = np.inf
        p_value = 0.0
    else:
        f_stat = max(0.0, (rss_r - rss_u) / q) / (rss_u / df_u)
        p_value = f_tail_prob(f_stat, q, df_u)
    return FTestResult(f_stat=float(f_stat), df_num=q, df_den=df_u, p_value=p_value)


def f_tail_prob(f: float, d1: int, d2: int) -> float:
    """Upper-tail probability P[F(d1, d2) > f].

    Evaluated through the regularized incomplete beta function:

        P[F > f] = I_{d2 / (d2 + d1 f)}(d2/2, d1/2)

    Absolute accuracy is 1e-10 or better over the tested domain.  ``f``
    below 0 is a domain error; ``f = inf`` returns 0.
    """
    if d1 < 1 or d2 < 1:
        raise ValidationError(f"degrees of freedom must be >= 1, got ({d1}, {d2})")
    if not (f >= 0.0):
        raise ValidationError(f"f statistic must be >= 0, got {f!r}")
    if np.isinf(f):
        return 0.0
    if f == 0.0:
        return 1.0
    x = d2 / (d2 + d1 * f)
    return float(betainc(d2 / 2.0, d1 / 2.0, x))
