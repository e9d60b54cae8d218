"""F tail probability against hand-rolled oracles."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from landmetrics.errors import ValidationError
from landmetrics.linreg import f_tail_prob

from oracles import f_tail_oracle, t_two_sided_tail_oracle


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
            f_tail_oracle(f, d1, d2), abs=1e-8
        ), (f, d1, d2)


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
