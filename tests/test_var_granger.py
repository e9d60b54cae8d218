"""Panels, Granger F tests, and stationarity precheck tests."""

import datetime as dt
import math

import numpy as np
import pytest
from numpy.random import Generator, Philox

from landmetrics.bubbles import AdfSpec
from landmetrics.errors import (
    InsufficientDataError,
    SingularDesignError,
    ValidationError,
)
from landmetrics.linreg import f_tail_prob
from landmetrics.series import TimeSeries
from landmetrics.var_granger import (
    Panel,
    build_panel,
    granger_table,
    granger_table_to_csv,
    granger_test,
    stationarity_precheck,
)

from oracles import adf_stat_oracle, granger_f_exact_oracle, ols_normal_equations, \
    quantile_type7

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


@pytest.mark.parametrize("seed, names, p, controls, exact", [
    (48, ("x", "y"), 1, False, 1.038403987322391e-06),
    (49, ("x", "y", "c"), 2, True, None),
], ids=["bivariate_seed48", "controls_p2"])
def test_granger_f_matches_exact_refit(seed, names, p, controls, exact):
    # at seed 48 F is about 1e-6: an rss difference of two fits loses
    # eight of its digits there, the one-QR statistic none
    data = np.random.default_rng(seed).standard_normal((60, len(names)))
    res = granger_test(Panel(names, data), "x", "y", p=p, controls=controls)
    want, df_den = granger_f_exact_oracle(
        {n: data[:, j].tolist() for j, n in enumerate(names)}, "x", "y", p)
    if exact is not None:
        assert want == pytest.approx(exact, rel=1e-15)
    assert res.df_den == df_den
    assert abs(res.f_stat - want) <= 1e-12 * want


def _collinear_panel(case):
    rng = np.random.default_rng(3)
    x, y = rng.standard_normal((2, 80))
    if case == "control_twice_cause":
        return Panel(("x", "y", "c"), np.column_stack([x, y, 2.0 * x]))
    if case == "constant_effect":
        return Panel(("x", "y"), np.column_stack([x, np.full(80, 3.0)]))
    return Panel(("x", "y", "c"), np.column_stack([x, y, x + y]))


@pytest.mark.parametrize("case, controls, implicated", [
    ("control_twice_cause", True, {"c_lag1", "c_lag2", "x_lag1", "x_lag2"}),
    ("constant_effect", False, {"const", "y_lag1", "y_lag2"}),
    ("control_sums_pair", True,
     {f"{n}_lag{lag}" for n in "xyc" for lag in (1, 2)}),
], ids=["control_twice_cause", "constant_effect", "control_sums_pair"])
def test_collinear_design_is_named(case, controls, implicated):
    panel = _collinear_panel(case)
    with pytest.raises(SingularDesignError) as exc:
        granger_test(panel, "x", "y", p=2, controls=controls)
    assert exc.value.columns
    assert set(exc.value.columns) <= implicated
    for name in exc.value.columns:
        assert name in str(exc.value)


def test_granger_insufficient_rows():
    with pytest.raises(InsufficientDataError):
        granger_test(white_panel(8, ("x", "y"), seed=0), "x", "y", p=2)
    with pytest.raises(ValidationError):
        granger_test(white_panel(30, ("x", "y"), seed=0), "x", "y", p=0)


def test_granger_rejects_more_columns_than_rows():
    # 5 rows at p=2 leave 3 observations for 5 design columns (7 with a
    # control); such a design is refused before it is factored
    with pytest.raises(InsufficientDataError):
        granger_test(white_panel(5, ("x", "y"), seed=0), "x", "y", p=2)
    with pytest.raises(InsufficientDataError):
        granger_test(white_panel(5, ("x", "y", "c"), seed=0), "x", "y", p=2,
                     controls=True)


def test_granger_scale_equivariance():
    panel = coupled_panel(80, beta=0.3, seed=77, extra=1)
    scaled = Panel(panel.variable_names, 250.0 * panel.data)
    for controls in (False, True):
        a = granger_test(panel, "x", "y", p=2, controls=controls)
        b = granger_test(scaled, "x", "y", p=2, controls=controls)
        assert b.f_stat == pytest.approx(a.f_stat, rel=1e-9)
        assert b.p_value == pytest.approx(a.p_value, rel=1e-9)


def test_granger_perfect_cause_gives_huge_f():
    rng = np.random.default_rng(11)
    x = rng.standard_normal(40)
    y = np.concatenate([[0.0], 5.0 * x[:-1]]) + 1e-8 * rng.standard_normal(40)
    res = granger_test(Panel(("x", "y"), np.column_stack([x, y])), "x", "y", p=1)
    assert res.f_stat > 1e10
    assert res.p_value < 1e-12


def test_granger_orthogonal_cause_gives_zero_f():
    # a cause lag orthogonal to the restricted fit's residuals earns a
    # coefficient of zero, so the rss is unchanged and F is 0, not below
    rng = np.random.default_rng(2)
    n = 30
    y = rng.standard_normal(n)
    restricted = np.column_stack([np.ones(n - 1), y[:-1]])
    e = y[1:] - restricted @ np.linalg.lstsq(restricted, y[1:], rcond=None)[0]
    w = rng.standard_normal(n - 1)
    x = np.append(w - (w @ e) / (e @ e) * e, 0.0)
    res = granger_test(Panel(("x", "y"), np.column_stack([x, y])), "x", "y", p=1)
    assert 0.0 <= res.f_stat <= 1e-9
    assert res.p_value == pytest.approx(1.0, abs=1e-9)


def test_granger_p_value_is_f_tail_prob():
    panel = coupled_panel(90, beta=0.2, seed=21, extra=1)
    for controls in (False, True):
        for p in (1, 3):
            r = granger_test(panel, "x", "y", p=p, controls=controls)
            assert r.df_num == p
            assert r.p_value == f_tail_prob(r.f_stat, p, r.df_den)


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
