"""VAR estimation, Granger F tests, and stationarity precheck tests."""

import datetime as dt
import math

import numpy as np
import pytest
from numpy.random import Generator, Philox

from landmetrics.bubbles import AdfSpec
from landmetrics.errors import (
    InsufficientDataError,
    ValidationError,
)
from landmetrics.linreg import DesignMatrix, ols_fit
from landmetrics.series import TimeSeries
from landmetrics.var_granger import (
    Panel,
    build_panel,
    fit_var,
    granger_table,
    granger_table_to_csv,
    granger_test,
    stationarity_precheck,
)

from oracles import adf_stat_oracle, ols_normal_equations, quantile_type7

D0 = dt.date(2021, 1, 4)


def weekly_series(values, name):
    dates = tuple(D0 + dt.timedelta(weeks=i) for i in range(len(values)))
    return TimeSeries(name, "weekly", dates, np.asarray(values, float))


def white_panel(rows, names, seed):
    rng = np.random.default_rng(seed)
    return Panel(
        variable_names=tuple(names),
        data=rng.standard_normal((rows, len(names))),
    )


def coupled_panel(n, beta, seed, extra=0):
    """y responds to x with one lag; optional independent noise columns."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    y = np.zeros(n)
    eps = rng.standard_normal(n)
    for t in range(1, n):
        y[t] = beta * x[t - 1] + eps[t]
    cols = [x, y]
    names = ["x", "y"]
    for j in range(extra):
        cols.append(rng.standard_normal(n))
        names.append(f"noise{j}")
    return Panel(variable_names=tuple(names), data=np.column_stack(cols))


# ---------------------------------------------------------------------------
# Panel and build_panel
# ---------------------------------------------------------------------------


def test_panel_validation():
    with pytest.raises(ValidationError, match="unique"):
        Panel(("a", "a"), np.ones((10, 2)))
    with pytest.raises(ValidationError, match="non-finite"):
        Panel(("a", "b"), np.array([[1.0, np.nan]] * 5))
    with pytest.raises(ValidationError, match="contiguous"):
        Panel(
            ("a", "b"),
            np.ones((3, 2)),
            dates=(D0, D0 + dt.timedelta(weeks=1), D0 + dt.timedelta(weeks=3)),
        )


def test_panel_column_and_subset():
    p = Panel(("a", "b", "c"), np.arange(12.0).reshape(4, 3))
    assert np.array_equal(p.column("b"), [1.0, 4.0, 7.0, 10.0])
    sub = p.subset(["c", "a"])
    assert sub.variable_names == ("c", "a")
    assert np.array_equal(sub.data[:, 0], p.column("c"))


def test_build_panel_requires_identical_dates():
    a = weekly_series(np.arange(10.0), "a")
    b = weekly_series(np.arange(8.0), "b")
    with pytest.raises(ValidationError, match="not aligned"):
        build_panel([a, b])


def test_build_panel_refuses_gapped_series():
    dates = tuple(D0 + dt.timedelta(weeks=i) for i in (0, 1, 3, 4))
    a = TimeSeries("a", "weekly", dates, np.arange(4.0))
    b = TimeSeries("b", "weekly", dates, np.arange(4.0) * 2)
    with pytest.raises(ValidationError, match="gap"):
        build_panel([a, b])


def test_build_panel_happy_path():
    a = weekly_series(np.arange(10.0), "a")
    b = weekly_series(np.arange(10.0) ** 2, "b")
    panel = build_panel([a, b])
    assert panel.variable_names == ("a", "b")
    assert panel.n_rows == 10
    assert panel.dates[0] == D0
    with pytest.raises(ValidationError):
        build_panel([a])


# ---------------------------------------------------------------------------
# fit_var
# ---------------------------------------------------------------------------


def test_noiseless_var1_recovery():
    a = np.array([[0.5, 0.1], [0.0, 0.3]])
    n = 100
    x = np.empty((n, 2))
    x[0] = [2.0, 1.0]
    for t in range(1, n):
        x[t] = a @ x[t - 1]
    model = fit_var(Panel(("u", "v"), x), p=1)
    assert model.lag_matrices[0] == pytest.approx(a, abs=1e-8)
    assert model.intercepts == pytest.approx([0.0, 0.0], abs=1e-8)
    assert model.n_obs == 99
    assert model.df_resid == 99 - 3


def test_fit_var_matches_materialized_lag_oracle():
    rng = np.random.default_rng(14)
    panel = Panel(("a", "b", "c"), rng.standard_normal((40, 3)))
    p = 2
    model = fit_var(panel, p=p)

    x = panel.data
    n_obs = 40 - p
    rows = []
    for t in range(p, 40):
        row = [1.0]
        for lag in range(1, p + 1):
            row.extend(x[t - lag])
        rows.append(row)
    for eq in range(3):
        beta, _, _, _ = ols_normal_equations(rows, x[p:, eq].tolist())
        assert model.intercepts[eq] == pytest.approx(beta[0], abs=1e-10)
        for lag in range(1, p + 1):
            got = model.lag_matrices[lag - 1, eq]
            want = beta[1 + (lag - 1) * 3: 1 + lag * 3]
            assert got == pytest.approx(want, abs=1e-10)
    assert model.n_obs == n_obs
    assert model.resid_cov == pytest.approx(model.resid_cov.T)
    assert np.all(np.linalg.eigvalsh(model.resid_cov) > -1e-12)


def test_white_noise_lag_coefficients_are_insignificant():
    panel = white_panel(200, ("a", "b"), seed=18)
    model = fit_var(panel, p=1)

    # rebuild the equation for "a" explicitly to get standard errors
    x = panel.data
    design = DesignMatrix(
        ("const", "a_lag1", "b_lag1"),
        np.column_stack([np.ones(199), x[:-1, 0], x[:-1, 1]]),
    )
    fit = ols_fit(design, x[1:, 0])
    assert fit.coefficients[1:] == pytest.approx(model.lag_matrices[0, 0], abs=1e-12)
    for b, se in zip(fit.coefficients[1:], fit.std_errors[1:]):
        assert abs(b) < 3.0 * se


def test_fit_var_insufficient_rows():
    with pytest.raises(InsufficientDataError):
        fit_var(white_panel(8, ("a", "b"), seed=0), p=2)
    with pytest.raises(ValidationError):
        fit_var(white_panel(30, ("a", "b"), seed=0), p=0)


# ---------------------------------------------------------------------------
# granger_test degrees of freedom
# ---------------------------------------------------------------------------


def test_bivariate_df_bookkeeping():
    panel = white_panel(205, ("x", "y"), seed=1)
    r1 = granger_test(panel, "x", "y", p=1)
    assert (r1.n_obs, r1.df_num, r1.df_den) == (204, 1, 201)
    r3 = granger_test(panel, "x", "y", p=3)
    assert (r3.n_obs, r3.df_num, r3.df_den) == (202, 3, 195)


def test_four_variable_df_bookkeeping():
    panel = white_panel(205, ("x", "y", "c1", "c2"), seed=2)
    r = granger_test(panel, "x", "y", p=2, controls=True)
    assert (r.n_obs, r.df_num, r.df_den) == (203, 2, 194)
    assert r.controls_included is True


def test_n_obs_decreases_one_per_lag():
    panel = white_panel(120, ("x", "y"), seed=3)
    rows = granger_table(panel, "x", "y", p_max=3, both_specs=False)
    assert [r.n_obs for r in rows] == [119, 119, 118, 118, 117, 117]
    # forward and reverse directions at a lag share the same sample
    assert rows[0].df_den == rows[1].df_den


def test_granger_f_matches_two_fit_reconstruction():
    panel = white_panel(90, ("x", "y"), seed=25)
    p = 2
    res = granger_test(panel, "x", "y", p=p)

    x = panel.data[:, 0]
    y = panel.data[:, 1]
    n = 90
    rows_u, rows_r, resp = [], [], []
    for t in range(p, n):
        full = [1.0, y[t - 1], x[t - 1], y[t - 2], x[t - 2]]
        rows_u.append(full)
        rows_r.append([1.0, y[t - 1], y[t - 2]])
        resp.append(y[t])
    _, _, rss_u, _ = ols_normal_equations(rows_u, resp)
    _, _, rss_r, _ = ols_normal_equations(rows_r, resp)
    df_den = (n - p) - (2 * p + 1)
    expected = ((rss_r - rss_u) / p) / (rss_u / df_den)
    assert res.f_stat == pytest.approx(expected, rel=1e-9)
    assert res.df_den == df_den


def test_planted_causality_is_detected_one_way():
    panel = coupled_panel(300, beta=0.6, seed=41)
    fwd = granger_test(panel, "x", "y", p=1)
    rev = granger_test(panel, "y", "x", p=1)
    assert fwd.p_value < 0.01
    assert rev.p_value > 0.10
    assert fwd.cause == "x" and fwd.effect == "y"


def test_column_permutation_leaves_f_stat_unchanged():
    rng = np.random.default_rng(52)
    data = rng.standard_normal((150, 4))
    names = ("x", "y", "c1", "c2")
    panel = Panel(names, data)
    perm = ("c2", "y", "x", "c1")
    idx = [names.index(n) for n in perm]
    shuffled = Panel(perm, data[:, idx])
    for controls in (False, True):
        a = granger_test(panel, "x", "y", p=2, controls=controls)
        b = granger_test(shuffled, "x", "y", p=2, controls=controls)
        assert b.f_stat == pytest.approx(a.f_stat, rel=1e-9)
        assert b.p_value == pytest.approx(a.p_value, rel=1e-9)
        assert b.df_den == a.df_den


def test_granger_validation():
    panel = white_panel(60, ("x", "y"), seed=4)
    with pytest.raises(ValidationError, match="differ"):
        granger_test(panel, "x", "x", p=1)
    with pytest.raises(ValidationError, match="not in panel"):
        granger_test(panel, "z", "y", p=1)
    with pytest.raises(ValidationError, match="controls"):
        granger_test(panel, "x", "y", p=1, controls=True)


def test_granger_table_shapes_and_order():
    panel = white_panel(100, ("x", "y", "c1"), seed=5)
    rows = granger_table(panel, "x", "y", p_max=3, both_specs=True)
    assert len(rows) == 12
    assert [r.controls_included for r in rows] == [False] * 6 + [True] * 6
    assert [r.p for r in rows] == [1, 1, 2, 2, 3, 3] * 2
    assert [(r.cause, r.effect) for r in rows[:2]] == [("x", "y"), ("y", "x")]

    short = granger_table(panel, "x", "y", p_max=1, both_specs=False)
    assert len(short) == 2


def test_granger_table_csv(tmp_path):
    panel = white_panel(80, ("x", "y"), seed=6)
    rows = granger_table(panel, "x", "y", p_max=2, both_specs=False)
    path = tmp_path / "granger.csv"
    granger_table_to_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "lag,controls,direction,f_stat,p_value,df_num,df_den,n_obs"
    assert len(lines) == 5
    cells = lines[1].split(",")
    assert cells[0] == "1"
    assert cells[1] == "0"
    assert cells[2] == "x->y"
    assert 0.0 <= float(cells[4]) <= 1.0


# ---------------------------------------------------------------------------
# stationarity precheck
# ---------------------------------------------------------------------------


def test_precheck_differenced_walks_pass():
    rng = np.random.default_rng(60)
    cols = np.column_stack(
        [np.diff(np.cumsum(rng.standard_normal(121))) for _ in range(20)]
    )
    panel = Panel(tuple(f"d{i}" for i in range(20)), cols)
    checks = stationarity_precheck(panel, spec=AdfSpec(n_lags=1), n_rep=400, seed=7)
    assert sum(c.passes for c in checks) >= 19
    assert all(c.error is None for c in checks)
    assert checks[0].critical_value < -1.5


def test_precheck_unit_root_columns_fail():
    rng = np.random.default_rng(61)
    cols = np.column_stack(
        [np.cumsum(rng.standard_normal(120)) for _ in range(6)]
    )
    panel = Panel(tuple(f"w{i}" for i in range(6)), cols)
    checks = stationarity_precheck(panel, spec=AdfSpec(n_lags=1), n_rep=400, seed=7)
    assert sum(not c.passes for c in checks) >= 5


def test_precheck_constant_column_reports_error():
    rng = np.random.default_rng(62)
    data = np.column_stack([rng.standard_normal(50), np.full(50, 2.0)])
    panel = Panel(("ok", "flat"), data)
    checks = stationarity_precheck(panel, n_rep=200, seed=1)
    flat = checks[1]
    assert flat.name == "flat"
    assert flat.passes is False
    assert flat.error is not None
    assert flat.result is None


def test_precheck_validation():
    panel = white_panel(10, ("a", "b"), seed=0)
    with pytest.raises(InsufficientDataError):
        stationarity_precheck(panel)
    big = white_panel(40, ("a", "b"), seed=0)
    with pytest.raises(ValidationError):
        stationarity_precheck(big, alpha=1.5, n_rep=200)


def test_precheck_is_deterministic():
    panel = white_panel(60, ("a", "b"), seed=9)
    c1 = stationarity_precheck(panel, n_rep=200, seed=3)
    c2 = stationarity_precheck(panel, n_rep=200, seed=3)
    assert [(c.name, c.passes, c.critical_value) for c in c1] == [
        (c.name, c.passes, c.critical_value) for c in c2
    ]


def test_precheck_critical_value_matches_oracle_quantile():
    n, n_rep, seed, alpha = 30, 200, 11, 0.05
    stats = []
    for rep in range(n_rep):
        rng = Generator(Philox(key=[seed, rep]))
        y = np.concatenate([[0.0], np.cumsum(rng.standard_normal(n - 1))])
        stats.append(adf_stat_oracle(y.tolist(), 1))
    expected = quantile_type7(sorted(stats), alpha)
    panel = white_panel(n, ("a", "b"), seed=4)
    checks = stationarity_precheck(panel, spec=AdfSpec(n_lags=1), alpha=alpha,
                                   n_rep=n_rep, seed=seed)
    for c in checks:
        assert c.critical_value == pytest.approx(expected, abs=1e-10)


def test_precheck_needs_200_replications():
    with pytest.raises(ValidationError):
        stationarity_precheck(white_panel(40, ("a", "b"), seed=0), n_rep=199)


@pytest.mark.parametrize("rows", [20, 21])
def test_precheck_short_panel_fails_before_simulating(rows, monkeypatch):
    # n_lags=9 needs 22 rows; at 21 the null simulation used to hit an
    # exact fit and report a singular design instead
    def no_simulation(*args, **kwargs):
        raise AssertionError("the null was simulated")

    monkeypatch.setattr("landmetrics.var_granger.mc_critical_values", no_simulation)
    panel = white_panel(rows, ("a", "b"), seed=2)
    with pytest.raises(InsufficientDataError):
        stationarity_precheck(panel, spec=AdfSpec(n_lags=9), n_rep=200)
