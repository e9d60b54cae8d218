"""F tail probability against hand-rolled oracles."""

import csv
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from landmetrics import linreg
from landmetrics.cli import main
from landmetrics.errors import ValidationError
from landmetrics.linreg import f_tail_prob

from oracles import f_tail_exact_oracle, f_tail_oracle, t_two_sided_tail_oracle

DEMO_CFG = pathlib.Path(__file__).resolve().parent.parent / "fixtures" / "demo" / "run.cfg"
F_GRID = [1e-4 * (30.0 / 1e-4) ** (i / 59) for i in range(60)]   # geometric, 1e-4 to 30


# ---------------------------------------------------------------------------
# f_tail_prob
# ---------------------------------------------------------------------------


def test_f_tail_at_zero_is_one():
    assert f_tail_prob(0.0, 3, 10) == 1.0


def test_f_tail_at_inf_is_zero():
    assert f_tail_prob(np.inf, 3, 10) == 0.0


def test_f_tail_rejects_bad_input():
    with pytest.raises(ValidationError):
        f_tail_prob(-0.5, 1, 10)
    with pytest.raises(ValidationError):
        f_tail_prob(1.0, 0, 10)
    with pytest.raises(ValidationError):
        f_tail_prob(float("nan"), 1, 10)


def test_f_tail_reference_point():
    # classic 5% critical value of F(1, 10)
    assert f_tail_prob(4.96, 1, 10) == pytest.approx(0.050, abs=5e-4)


def test_f_tail_d1_one_matches_two_sided_t():
    for f, df in [(0.5, 4), (2.3, 9), (4.96, 10), (11.0, 25)]:
        t_tail = t_two_sided_tail_oracle(math.sqrt(f), df)
        assert f_tail_prob(f, 1, df) == pytest.approx(t_tail, abs=1e-9)


def test_f_tail_grid_against_quadrature_oracle():
    # 50 deterministic points spanning f in [0, 20], d1 in 1..6,
    # d2 in {5, 50, 200}
    d2_choices = (5, 50, 200)
    for i in range(50):
        f = 20.0 * i / 49.0
        d1 = 1 + (i % 6)
        d2 = d2_choices[i % 3]
        assert f_tail_prob(f, d1, d2) == pytest.approx(
            f_tail_oracle(f, d1, d2), abs=1e-10
        ), (f, d1, d2)


def test_f_tail_grid_against_exact_oracle():
    # Rounding x = d2 / (d2 + d1 f) to a double moves I_x(d2/2, d1/2) by a
    # relative amount that grows with d2, so the bound does too.
    misses = []
    for d1 in (1, 2, 3, 4, 6, 12):
        for d2 in (1, 5, 50, 200, 500, 1500, 5000, 20000, 100000):
            bound = 2e-12 * max(1.0, d2 / 200)
            for f in F_GRID:
                exact = f_tail_exact_oracle(f, d1, d2)
                if exact >= 1e-30:
                    rel = abs(f_tail_prob(f, d1, d2) - exact) / exact
                    if rel > bound:
                        misses.append((f, d1, d2, rel))
    assert misses == []


@pytest.mark.parametrize("f", [1e-17, 1e-12, 1e-8])
def test_f_tail_keeps_its_digits_at_tiny_f(f):
    # 1 - P is about sqrt(f) at d1 = 1: taken as 1 - x from a rounded x it
    # was lost, and f_tail_prob(1e-17, 1, 1) read exactly 1
    for d1, d2 in [(1, 1), (1, 10), (2, 50), (6, 200)]:
        assert f_tail_prob(f, d1, d2) == pytest.approx(
            f_tail_exact_oracle(f, d1, d2), rel=0.0, abs=1e-15), (d1, d2)


def test_log_beta_keeps_its_digits_at_large_arguments():
    # lgamma(a + b) - lgamma(a) done plainly loses about 1e-11 at a = 10^4
    import mpmath

    with mpmath.workdps(50):
        for a in (50.0, 2500.0, 10000.0, 50000.0):
            for b in (0.5, 1.5, 6.0):
                exact = float(mpmath.log(mpmath.beta(a, b)))
                assert linreg._log_beta(a, b) == pytest.approx(exact, rel=0.0, abs=1e-13)
                assert linreg._log_beta(b, a) == linreg._log_beta(a, b)


def test_f_tail_iteration_cap(monkeypatch):
    for f in F_GRID:
        assert 0.0 <= f_tail_prob(f, 12, 100_000) <= 1.0
    monkeypatch.setattr(linreg, "_MAX_ITER", 2)
    with pytest.raises(ArithmeticError):
        f_tail_prob(1.0, 12, 100_000)


def test_demo_granger_p_values_match_exact_oracle(tmp_path):
    assert main(["granger", "--config", str(DEMO_CFG), "--out-dir", str(tmp_path)]) == 0
    with open(tmp_path / "granger.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 12
    for row in rows:
        exact = f_tail_exact_oracle(float(row["f_stat"]), int(row["df_num"]), int(row["df_den"]))
        assert float(row["p_value"]) == pytest.approx(exact, rel=1e-13, abs=0.0), row


def test_f_tail_monotone_decreasing_in_f():
    grid = np.linspace(0.0, 30.0, 200)
    vals = [f_tail_prob(float(f), 2, 17) for f in grid]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert vals[0] == 1.0
    assert vals[-1] < 1e-5


@given(
    st.floats(min_value=0.0, max_value=50.0),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=300),
)
def test_f_tail_stays_in_unit_interval(f, d1, d2):
    p = f_tail_prob(f, d1, d2)
    assert 0.0 <= p <= 1.0
