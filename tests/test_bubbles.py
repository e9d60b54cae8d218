"""ADF, backward-sup ADF, critical values, and date-stamping tests."""

import datetime as dt
import math
import tracemalloc

import numpy as np
import pytest

from landmetrics import bubbles
from landmetrics.bubbles import (
    AdfSpec,
    BsadfPoint,
    CvTable,
    adf_stat,
    bsadf_series,
    datestamp,
    default_min_window,
    mc_critical_values,
)
from landmetrics.errors import (
    InsufficientDataError,
    NoValidWindowError,
    SingularDesignError,
    ValidationError,
)
from landmetrics.synthkit import stream

from oracles import adf_design, adf_stat_oracle, bic_lag_oracle, bsadf_bic_oracle, \
    bsadf_oracle, ols_t_ratio


def ar1(rho, n, seed, sigma=1.0, y0=0.0):
    rng = np.random.default_rng(seed)
    eps = rng.normal(scale=sigma, size=n)
    y = np.empty(n)
    y[0] = y0 + eps[0]
    for t in range(1, n):
        y[t] = rho * y[t - 1] + eps[t]
    return y


def walk(n, seed):
    rng = np.random.default_rng(seed)
    return np.concatenate([[0.0], np.cumsum(rng.standard_normal(n - 1))])


# ---------------------------------------------------------------------------
# minimum window rule
# ---------------------------------------------------------------------------


def test_default_min_window_values():
    assert default_min_window(100) == 19
    assert default_min_window(300) == 35
    assert default_min_window(2) == math.ceil(2 * (0.01 + 1.8 / math.sqrt(2)))
    with pytest.raises(ValidationError):
        default_min_window(1)


# ---------------------------------------------------------------------------
# single-window ADF
# ---------------------------------------------------------------------------


def test_adf_k0_equals_two_variable_ols_t_ratio():
    # a ramp plus noise: with k=0 the regression is dy on [1, y_lag],
    # whose t-ratio we recompute with a hand-rolled normal-equations
    # solver
    rng = np.random.default_rng(7)
    y = np.arange(1.0, 31.0) + 0.3 * rng.normal(size=30)
    res = adf_stat(y, AdfSpec(n_lags=0))
    rows, resp = adf_design(y.tolist(), 0)
    assert res.stat == pytest.approx(ols_t_ratio(rows, resp, 1), abs=1e-10)
    assert res.n_lags_used == 0
    assert res.n_obs_used == 29


def test_adf_exact_ramp_is_degenerate():
    # on 1, 2, 3, ... the differenced response is constant, the fit is
    # exact, and the t-ratio is 0/0: reported as a singular design
    with pytest.raises(SingularDesignError, match="residual variance"):
        adf_stat(np.arange(1.0, 31.0), AdfSpec(n_lags=0))


def test_adf_matches_oracle_with_lagged_differences():
    rng = np.random.default_rng(15)
    y = np.cumsum(rng.normal(size=60))
    for k in (0, 1, 3):
        res = adf_stat(y, AdfSpec(n_lags=k))
        assert res.stat == pytest.approx(adf_stat_oracle(y.tolist(), k), abs=1e-10)
        assert res.n_obs_used == 60 - k - 1


def test_adf_stationary_series_is_strongly_negative():
    hits = sum(
        adf_stat(ar1(0.2, 200, seed), AdfSpec(n_lags=1)).stat < -3.0
        for seed in range(100)
    )
    assert hits >= 90


def test_adf_explosive_series_is_positive():
    hits = sum(
        adf_stat(ar1(1.05, 100, seed, y0=10.0), AdfSpec(n_lags=1)).stat > 0.0
        for seed in range(100)
    )
    assert hits >= 90


def test_adf_rejects_short_windows_and_bad_input():
    with pytest.raises(InsufficientDataError):
        adf_stat(np.arange(5.0), AdfSpec(n_lags=1))
    with pytest.raises(ValidationError):
        adf_stat(np.array([[1.0, 2.0]]), AdfSpec(n_lags=0))
    with pytest.raises(ValidationError):
        adf_stat(np.array([1.0, np.nan, 2.0, 3.0, 4.0, 5.0]), AdfSpec(n_lags=0))


def test_adf_constant_window_is_singular():
    with pytest.raises(SingularDesignError):
        adf_stat(np.full(20, 3.0), AdfSpec(n_lags=0))


def test_adf_bic_selection_stays_in_range_and_is_deterministic():
    y = walk(80, 3)
    res1 = adf_stat(y, AdfSpec(n_lags=4, lag_selection="bic"))
    res2 = adf_stat(y, AdfSpec(n_lags=4, lag_selection="bic"))
    assert 0 <= res1.n_lags_used <= 4
    assert res1 == res2


def test_adf_at_minimum_length_matches_oracle():
    # max(2k + 4, k + 5) is k + 5 for k <= 1: a one-window sweep shorter
    # than any public sweep's r0 >= k + 5 rule allows.  Plain walks: with
    # one residual degree of freedom, a near-exact fit (|t| in the tens or
    # more) loses ~eps * Sdd / rss relative accuracy on the sweep
    for k in range(4):
        L = max(2 * k + 4, k + 5)
        for seed in range(5):
            y = walk(L, seed)
            res = adf_stat(y, AdfSpec(n_lags=k))
            assert res.stat == pytest.approx(adf_stat_oracle(y.tolist(), k), abs=1e-10)
            assert (res.n_lags_used, res.n_obs_used) == (k, L - k - 1)


def test_adf_bic_matches_bic_oracle():
    chosen = []
    for seed, (L, kmax) in enumerate([(30, 2), (60, 3), (80, 4), (120, 3)]):
        # differences follow an AR(2), so BIC has lags worth keeping
        rng = np.random.default_rng(40 + seed)
        dy = np.zeros(L - 1)
        eps = rng.standard_normal(L - 1)
        for t in range(L - 1):
            dy[t] = eps[t] + (0.6 * dy[t - 1] - 0.3 * dy[t - 2] if t >= 2 else 0.0)
        y = np.concatenate([[0.0], np.cumsum(dy)])
        res = adf_stat(y, AdfSpec(n_lags=kmax, lag_selection="bic"))
        k = bic_lag_oracle(y.tolist(), kmax)
        assert res.n_lags_used == k
        assert res.stat == pytest.approx(adf_stat_oracle(y.tolist(), k), abs=1e-10)
        assert res.n_obs_used == L - k - 1
        chosen.append(k)
    assert max(chosen) > 0


def test_adf_spec_validation():
    with pytest.raises(ValidationError):
        AdfSpec(n_lags=-1)
    with pytest.raises(ValidationError):
        AdfSpec(lag_selection="aic")


# ---------------------------------------------------------------------------
# backward sup ADF at one index: the last point of the truncated series
# ---------------------------------------------------------------------------


def test_bsadf_min_index_is_single_window():
    y = walk(40, 11)
    spec = AdfSpec(n_lags=1)
    point = bsadf_series(y[:11], r0=10, spec=spec)[-1]
    single = adf_stat(y[:11], spec)
    assert point.stat == pytest.approx(single.stat, abs=1e-12)
    assert point.argmax_start == 0
    assert point.t_index == 10


def test_bsadf_dominates_full_window_adf():
    y = np.concatenate([np.ones(15), 2.0 ** np.arange(15)])
    rng = np.random.default_rng(5)
    y = y + 0.01 * rng.normal(size=30)
    spec = AdfSpec(n_lags=0)
    point = bsadf_series(y, r0=8, spec=spec)[-1]
    assert point.stat >= adf_stat(y, spec).stat - 1e-12


def test_bsadf_series_matches_enumeration_oracle():
    y = walk(40, 123)
    spec = AdfSpec(n_lags=1)
    points = bsadf_series(y, r0=10, spec=spec)
    assert [p.t_index for p in points] == list(range(10, 40))
    for p in points:
        stat, s1 = bsadf_oracle(y.tolist(), p.t_index, 10, 1)
        assert p.stat == pytest.approx(stat, abs=1e-12), p.t_index
        assert p.argmax_start == s1


def test_bsadf_reversed_series_also_matches_oracle():
    # reversing the sample produces a different statistic path; both
    # directions must agree with the exhaustive enumeration
    y = walk(40, 211)
    rev = y[::-1].copy()
    spec = AdfSpec(n_lags=1)
    pts_fwd = bsadf_series(y, r0=10, spec=spec)
    pts_rev = bsadf_series(rev, r0=10, spec=spec)
    for p in pts_rev:
        stat, _ = bsadf_oracle(rev.tolist(), p.t_index, 10, 1)
        assert p.stat == pytest.approx(stat, abs=1e-12)
    fwd_stats = np.array([p.stat for p in pts_fwd])
    rev_stats = np.array([p.stat for p in pts_rev])
    assert not np.allclose(fwd_stats, rev_stats)


def test_bsadf_series_single_point_when_length_is_r0_plus_one():
    y = walk(11, 2)
    points = bsadf_series(y, r0=10, spec=AdfSpec(n_lags=1))
    assert len(points) == 1
    assert points[0].t_index == 10


def test_bsadf_prefix_property():
    # the point at r2 uses only observations [0, r2], so truncating the
    # series preserves every earlier point up to roundoff (the sweep's
    # internal centering constant depends on the full sample)
    y = walk(60, 31)
    spec = AdfSpec(n_lags=1)
    full = bsadf_series(y, r0=12, spec=spec)
    short = bsadf_series(y[:40], r0=12, spec=spec)
    assert len(short) == 28
    for a, b in zip(short, full[:28]):
        assert a.stat == pytest.approx(b.stat, abs=1e-10)
        assert a.argmax_start == b.argmax_start


def test_bsadf_affine_invariance():
    y = walk(50, 9)
    spec = AdfSpec(n_lags=1)
    base = bsadf_series(y, r0=10, spec=spec)
    shifted = bsadf_series(3.7 * y - 12.0, r0=10, spec=spec)
    for a, b in zip(base, shifted):
        assert b.stat == pytest.approx(a.stat, abs=1e-9)
        assert b.argmax_start == a.argmax_start


def test_bsadf_series_matches_oracle_at_each_lag():
    spec0 = AdfSpec(n_lags=0)
    spec2 = AdfSpec(n_lags=2)
    for seed, spec in [(1, spec0), (2, spec2), (3, AdfSpec(n_lags=1))]:
        y = walk(60, seed)
        points = bsadf_series(y, r0=12, spec=spec)
        for p in points:
            stat, s1 = bsadf_oracle(y.tolist(), p.t_index, 12, spec.n_lags)
            assert p.stat == pytest.approx(stat, abs=1e-12), (seed, p.t_index)
            assert p.argmax_start == s1


def test_bic_sweep_matches_bic_oracle():
    # r0 = kmax + 5 is the smallest r0 allowed; for kmax = 3 it admits
    # windows shorter than the 2*kmax + 4 a BIC fit needs, which are
    # dropped, so the lone window ending at r0 leaves no valid window: the
    # series raises, and the other dates are read off the engine, whose
    # supremum there is -inf
    for kmax in (1, 2, 3):
        y = walk(36, 40 + kmax)
        spec = AdfSpec(n_lags=kmax, lag_selection="bic")
        for r0 in (kmax + 5, 12):
            expected = {r2: bsadf_bic_oracle(y.tolist(), r2, r0, kmax)
                        for r2 in range(r0, 36)}
            valid = {r2: e for r2, e in expected.items() if e[0] is not None}
            if len(valid) == len(expected):
                points = bsadf_series(y, r0=r0, spec=spec)
                points += [bsadf_series(y[:r2 + 1], r0=r0, spec=spec)[-1] for r2 in valid]
                points = [(p.t_index, p.stat, p.argmax_start) for p in points]
            else:
                with pytest.raises(NoValidWindowError):
                    bsadf_series(y, r0=r0, spec=spec)
                sup, first, _ = bubbles._sweep(y, r0, spec, r0)
                assert [r2 for r2, e in expected.items() if e[0] is None] == \
                    [r0 + i for i in np.flatnonzero(sup == -np.inf)]
                points = [(r2, sup[r2 - r0], first[r2 - r0]) for r2 in valid]
            assert {p[0] for p in points} == set(valid)
            for r2, stat, start in points:
                assert stat == pytest.approx(valid[r2][0], abs=1e-12), (kmax, r0, r2)
                assert start == valid[r2][1]


def test_bsadf_validation_errors():
    y = walk(30, 1)
    with pytest.raises(ValidationError, match="r0"):
        bsadf_series(y, r0=4, spec=AdfSpec(n_lags=1))  # r0 < k + 5
    with pytest.raises(InsufficientDataError):
        bsadf_series(y[:9], r0=10)  # the last date is before r0
    with pytest.raises(InsufficientDataError):
        bsadf_series(y, r0=30)
    with pytest.raises(ValidationError, match="finite"):
        bsadf_series(np.concatenate([y[:20], [np.nan]]), r0=10)


def test_bsadf_constant_series_has_no_valid_window():
    with pytest.raises(NoValidWindowError):
        bsadf_series(np.full(30, 7.0), r0=10, spec=AdfSpec(n_lags=1))


def _record_fits(monkeypatch):
    """Log each block of rectangles (e, rows, starts) as (series side by
    side, [(rows, starts) per band]).  Windows gathered one by one as (hi,
    lo) slot arrays, the BIC refits and the null's check of its winners,
    are fitted unlogged."""
    calls, fits = [], bubbles._window_fits

    def spy(P, bands, *args, **kwargs):
        if len(bands[0]) == 3:
            calls.append((P.shape[1], [band[1:] for band in bands]))
        return fits(P, bands, *args, **kwargs)

    monkeypatch.setattr(bubbles, "_window_fits", spy)
    return calls


def test_block_boundaries_change_nothing(monkeypatch):
    """A block packs bands of end dates up to a byte budget.  The default
    budget splits the T=240 sweep at k=3, and each group of replications
    of the T=300 Monte Carlo, into several blocks of several bands; a
    budget of one byte leaves one end date per block.  Both must give
    bitwise the same points and critical values."""
    y = walk(240, 23)
    specs = (AdfSpec(n_lags=3), AdfSpec(n_lags=1), AdfSpec(n_lags=3, lag_selection="bic"))
    calls = _record_fits(monkeypatch)

    def run():
        del calls[:]
        points = [bsadf_series(y, spec=specs[0])]
        fixed = list(calls)
        points += [bsadf_series(y, spec=spec) for spec in specs[1:]]
        del calls[:]
        table = mc_critical_values(300, spec=AdfSpec(n_lags=1), n_rep=200, seed=4)
        return points, table.cv_by_t, fixed, list(calls)

    default_points, default_cv, fixed, null = run()
    for fits, end_dates in ((fixed, 240 - 31), (null, 300 - 35)):
        assert max(sum(r for r, _ in bands) for _, bands in fits) < end_dates
        assert max(len(bands) for _, bands in fits) > 1
    monkeypatch.setattr(bubbles, "_BLOCK_BYTES", 1)
    points, cv, fixed, null = run()
    assert all(len(bands) == 1 and min(bands[0]) == 1 for _, bands in fixed + null)
    assert points == default_points
    assert np.array_equal(cv, default_cv)


def test_block_budget_changes_no_bit(monkeypatch):
    """The supremum, its first start and the lag of that window, for fixed
    and BIC single-series sweeps and for a cv table, are bitwise the same
    under the default budget, a budget that cuts bands short mid-sweep and
    a budget of one window per block."""
    y = walk(240, 5)
    specs = (AdfSpec(n_lags=1), AdfSpec(n_lags=3, lag_selection="bic"))
    calls = _record_fits(monkeypatch)

    def run(budget):
        monkeypatch.setattr(bubbles, "_BLOCK_BYTES", budget)
        del calls[:]
        sweeps = [bubbles._sweep(y, 31, spec, 31) for spec in specs]
        cv = mc_critical_values(60, 12, AdfSpec(n_lags=1), n_rep=200, seed=2).cv_by_t
        return sweeps, cv, [bands for _, bands in calls]

    default, mid, one = (run(b) for b in (bubbles._BLOCK_BYTES, 1 << 18, 1))
    # mid: more blocks than the default, bands of other heights, some of
    # several rows and some blocks of several bands
    assert len(mid[2]) > len(default[2])
    assert sorted(map(sorted, mid[2])) != sorted(map(sorted, default[2]))
    assert max(r for bands in mid[2] for r, _ in bands) > 1
    assert max(map(len, mid[2])) > 1
    assert all(len(bands) == 1 and min(bands[0]) == 1 for bands in one[2])
    for other in (mid, one):
        for (sup, first, lag), (sup0, first0, lag0) in zip(other[0], default[0]):
            assert np.array_equal(sup, sup0)
            assert np.array_equal(first, first0)
            assert np.array_equal(lag, lag0)
        assert np.array_equal(other[1], default[1])


@pytest.mark.parametrize("k", [0, 1, 3])
@pytest.mark.parametrize("every_pivot", [False, True])
def test_rectangle_and_gathered_windows_give_the_same_bits(k, every_pivot):
    """A band's window sums come from slices of the prefix sums when it is
    a rectangle and from np.take when its windows are gathered one by one.
    For three series side by side, end dates 40..47 by starts 0..42 (r0=5:
    the earlier rows' last starts pad, and some give lo >= hi), every
    output of both must be bitwise the same."""
    P = bubbles._prefix_sums(np.array([walk(60, seed) for seed in (1, 2, 3)]), k, every_pivot)
    e, B, c = 40 - k, 8, 48 - 5
    hi, lo = np.meshgrid(np.arange(e, e + B), np.arange(c), indexing="ij")
    rows = bubbles._row_edges(k + 2, every_pivot)[-1]
    rect = bubbles._window_fits(P, [(e, B, c)], np.empty(rows * 3 * B * c), every_pivot)
    gathered = bubbles._window_fits(P, [(hi.reshape(-1, 1), lo.reshape(-1, 1))],
                                    np.empty(rows * 3 * B * c), every_pivot)
    assert np.any(hi <= lo)
    assert len(rect) == len(gathered) == (3 if every_pivot else 5)
    for x, y in zip(rect, gathered):
        assert x.shape == y.shape
        assert x.tobytes() == y.tobytes()


def test_last_point_of_the_truncated_series_matches_the_oracles():
    # the BSADF at a single date r2 is the last point of y[:r2 + 1]
    y = walk(90, 31)
    for spec in (AdfSpec(n_lags=1), AdfSpec(n_lags=2, lag_selection="bic")):
        oracle = bsadf_bic_oracle if spec.lag_selection == "bic" else bsadf_oracle
        for r2 in (20, 57, 89):
            point = bsadf_series(y[:r2 + 1], r0=20, spec=spec)[-1]
            stat, s1 = oracle(y.tolist(), r2, 20, spec.n_lags)
            assert point.t_index == r2
            assert point.stat == pytest.approx(stat, abs=1e-12), (spec, r2)
            assert point.argmax_start == s1


def test_bsadf_series_memory_is_bounded_by_the_block():
    """T=2000 sweeps 1.87 million windows; only one block's arrays may be
    alive at a time."""
    y = walk(2000, 8)
    tracemalloc.start()
    try:
        bsadf_series(y, spec=AdfSpec(n_lags=1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2**20


@pytest.mark.parametrize("T, r0, k, bound", [
    (420, 42, 1, 8_980_307),  # the demo pipeline's null
    (240, 31, 3, 8_469_458),  # bic_stamp's null
])
def test_null_memory_stays_below_the_gathered_sweep(T, r0, k, bound):
    """The bounds are the traced peaks of the sweep that gathered each
    window's prefix sums (blocks of 16,384 windows), measured on the same
    calls; a block is now sized by bytes, prefix sums included."""
    tracemalloc.start()
    try:
        mc_critical_values(T, r0, AdfSpec(n_lags=k), n_rep=200, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound


# ---------------------------------------------------------------------------
# Monte-Carlo critical values
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_cv():
    return mc_critical_values(
        series_length=60, min_window=12, spec=AdfSpec(n_lags=1), n_rep=200, seed=5
    )


def test_cv_table_is_deterministic(small_cv):
    again = mc_critical_values(
        series_length=60, min_window=12, spec=AdfSpec(n_lags=1), n_rep=200, seed=5
    )
    assert np.array_equal(small_cv.cv_by_t, again.cv_by_t)


def test_cv_seed_changes_table(small_cv):
    other = mc_critical_values(
        series_length=60, min_window=12, spec=AdfSpec(n_lags=1), n_rep=200, seed=6
    )
    assert not np.array_equal(small_cv.cv_by_t, other.cv_by_t)


def test_cv_monotone_in_alpha(small_cv):
    assert np.all(np.diff(small_cv.cv_by_t, axis=1) >= 0.0)
    assert small_cv.cv_by_t.shape == (48, 3)


def test_cv_csv_roundtrip(tmp_path, small_cv):
    p = tmp_path / "cv.csv"
    small_cv.to_csv(p)
    lines = p.read_text().splitlines()
    assert lines[0] == "# T=60 r0=12 n_rep=200 seed=5 n_lags=1"
    assert lines[1] == "t,cv_0.9,cv_0.95,cv_0.99"
    rows = [line.split(",") for line in lines[2:]]
    assert [int(row[0]) for row in rows] == list(range(12, 60))
    back = np.array([[float(v) for v in row[1:]] for row in rows])
    assert np.array_equal(back, small_cv.cv_by_t)
    # each column is labelled with its alpha in full, not to 6 digits
    close = CvTable(series_length=14, min_window=12, alphas=(0.95, 0.9999995),
                    cv_by_t=[[1.0, 2.0], [1.5, 2.5]], n_rep=200, seed=5, n_lags=1)
    close.to_csv(p)
    assert p.read_text().splitlines()[1] == "t,cv_0.95,cv_0.9999995"


def test_cv_validation():
    with pytest.raises(ValidationError, match="n_rep"):
        mc_critical_values(60, 12, n_rep=100)
    with pytest.raises(ValidationError, match="alphas"):
        mc_critical_values(60, 12, alphas=(0.99, 0.9), n_rep=200)
    with pytest.raises(ValidationError, match="fixed"):
        mc_critical_values(60, 12, spec=AdfSpec(n_lags=2, lag_selection="bic"), n_rep=200)
    with pytest.raises(ValidationError):
        mc_critical_values(60, 12, alphas=(0.0, 0.95), n_rep=200)


@pytest.mark.parametrize("seed", [2**63, 2**64 - 1, 2**64])
def test_cv_seed_outside_the_philox_keys_is_rejected(seed):
    # numpy keys Philox through float64 from 2**63 on: 2**63 and 2**63 + 1
    # share a key, and 2**64 - 1 gets seed 0's
    with pytest.raises(ValidationError, match=r"\[0, 2\*\*63\)"):
        mc_critical_values(60, 12, n_rep=200, seed=seed)


def test_replication_groups_change_nothing(monkeypatch):
    """A null is fitted a group of replications at a time, side by side (at
    T=40 the last group of n_rep=203 is partial, for r0=12 and for the
    pre-check shape r0=T-1).  The table must be bitwise that of one
    replication and one end date per block, and the type-7 quantile of
    each replication's own bsadf_series on the same stream(seed, rep)
    walk."""
    T, n_rep, seed, spec = 40, 203, 9, AdfSpec(n_lags=1)
    r0s = (12, T - 1)
    calls = _record_fits(monkeypatch)

    def run():
        return [mc_critical_values(T, r0, spec, n_rep=n_rep, seed=seed).cv_by_t
                for r0 in r0s]

    grouped = run()
    groups = [g for g, _ in calls]
    assert 1 < max(groups) < n_rep and min(groups) < max(groups) == groups[0]
    for r0, cv in zip(r0s, grouped):
        stats = []
        for rep in range(n_rep):
            y = np.concatenate([[0.0], np.cumsum(stream(seed, rep).standard_normal(T - 1))])
            stats.append([p.stat for p in bsadf_series(y, r0=r0, spec=spec)])
        assert np.array_equal(cv, np.quantile(stats, (0.90, 0.95, 0.99), axis=0).T)
    monkeypatch.setattr(bubbles, "_BLOCK_BYTES", 1)
    del calls[:]
    for cv, default_cv in zip(run(), grouped):
        assert np.array_equal(cv, default_cv)
    assert {g for g, _ in calls} == {1}


def _held(y, start, stop):
    y = y.copy()
    y[start:stop] = y[start]
    return y


_NULL_INPUTS = {
    "walks": (lambda: [walk(60, seed) for seed in range(8)], 12, False),
    "flat_runs": (lambda: [_held(walk(60, seed), 20, 38) for seed in range(3)], 12, True),
    "long_flat": (lambda: [_held(walk(120, seed), 10, 100) for seed in range(2)], 15, True),
    "exact_fit": (lambda: [walk(60, 7), np.r_[walk(60, 8)[:30], 5 * 1.2 ** np.arange(30)],
                           walk(60, 9)], 12, True),
}


@pytest.mark.parametrize("k", [0, 1, 3])
@pytest.mark.parametrize("inputs", sorted(_NULL_INPUTS))
def test_null_sweep_is_each_series_guarded_sweep(monkeypatch, inputs, k):
    """A null fits its blocks unguarded and checks the guards only at each
    (series, end date)'s first maximum.  Each row must be bitwise the sup
    of that series' own sweep, which guards every window: on Gaussian walks
    every winner passes and no group is swept again; a flat run (ROADMAP
    item 4's walks, T=60 with y[20:38] held), a long flat stretch and an
    exactly geometric segment give degenerate winners, and their group is
    swept again with guards."""
    make, r0, redone = _NULL_INPUTS[inputs]
    ys, spec = np.array(make()), AdfSpec(n_lags=k)
    fits, guarded_blocks = bubbles._fixed_stats, []

    def spy(P, bands, buf, guards=True):
        guarded_blocks.append(guards and len(bands[0]) == 3)
        return fits(P, bands, buf, guards)

    monkeypatch.setattr(bubbles, "_fixed_stats", spy)
    null = bubbles._sweep(lambda reps: ys[list(reps)], r0, spec, r0, shape=ys.shape)
    assert any(guarded_blocks) == redone
    for y, row in zip(ys, null):
        assert row.tobytes() == bubbles._sweep(y, r0, spec, r0)[0].tobytes()


def test_one_window_null_is_fitted_once(monkeypatch):
    # the stationarity pre-check's null: one window per replication, fitted
    # guarded in one pass, with no winner check fitting it again
    fits, calls = bubbles._fixed_stats, []

    def spy(P, bands, buf, guards=True):
        calls.append((guards, len(bands[0]) == 3, P.shape[1]))
        return fits(P, bands, buf, guards)

    monkeypatch.setattr(bubbles, "_fixed_stats", spy)
    cv = mc_critical_values(60, 59, alphas=(0.05,), n_rep=200)
    # guarded sweeps of rectangles only, each replication in one of them
    assert all(guards and swept for guards, swept, _ in calls)
    assert sum(series for _, _, series in calls) == 200
    stats = [adf_stat(np.concatenate([[0.0], np.cumsum(stream(0, rep).standard_normal(59))])).stat
             for rep in range(200)]
    assert cv.cv_by_t[0, 0] == np.quantile(stats, 0.05)


def test_cv_level_column(small_cv):
    col = small_cv.level_column(0.95)
    assert col.shape == (48,)
    with pytest.raises(ValidationError):
        small_cv.level_column(0.80)


# ---------------------------------------------------------------------------
# date-stamping
# ---------------------------------------------------------------------------


def _fake_points_and_cv(stats, r0, cv_value=2.0):
    T = r0 + len(stats)
    points = [
        BsadfPoint(t_index=r0 + i, stat=float(s), argmax_start=0)
        for i, s in enumerate(stats)
    ]
    cv = CvTable(
        series_length=T,
        min_window=r0,
        alphas=(0.95,),
        cv_by_t=np.full((len(stats), 1), cv_value),
        n_rep=200,
        seed=0,
        n_lags=1,
    )
    dates = tuple(dt.date(2021, 1, 4) + dt.timedelta(days=i) for i in range(T))
    return points, cv, dates


def test_datestamp_flags_and_episodes():
    stats = [0.0, 3.0, 3.5, 3.0, 0.0, 1.0, 4.0, 0.0, 0.0, 2.5]
    points, cv, dates = _fake_points_and_cv(stats, r0=10)
    res = datestamp(points, cv, level=0.95, dates=dates)
    assert res.flags.tolist() == [False, True, True, True, False, False, True, False, False, True]
    assert len(res.episodes) == 3
    first = res.episodes[0]
    assert first.start == dates[11]
    assert first.end == dates[13]
    assert first.peak_stat == 3.5
    assert res.pct_flagged == pytest.approx(0.5)


def test_datestamp_boundary_is_strict():
    stats = [2.0, 2.0 + 1e-9]
    points, cv, dates = _fake_points_and_cv(stats, r0=10, cv_value=2.0)
    res = datestamp(points, cv, dates=dates)
    assert res.flags.tolist() == [False, True]


def test_datestamp_all_quiet():
    stats = [-1.0, -0.5, 0.3]
    points, cv, dates = _fake_points_and_cv(stats, r0=10)
    res = datestamp(points, cv, dates=dates)
    assert res.episodes == ()
    assert res.pct_flagged == 0.0


def test_datestamp_validation():
    points, cv, dates = _fake_points_and_cv([0.0, 1.0], r0=10)
    with pytest.raises(ValidationError, match="dates"):
        datestamp(points, cv)
    with pytest.raises(ValidationError, match="contiguous"):
        datestamp([points[1], points[0]], cv, dates=dates)
    other_cv = CvTable(
        series_length=30,
        min_window=10,
        alphas=(0.95,),
        cv_by_t=np.full((20, 1), 2.0),
        n_rep=200,
        seed=0,
        n_lags=1,
    )
    with pytest.raises(ValidationError, match="cv table"):
        datestamp(points, other_cv, dates=dates)
    with pytest.raises(ValidationError):
        datestamp(points, cv, level=0.5, dates=dates)


def test_datestamp_csv_outputs(tmp_path):
    stats = [0.0, 3.0, 3.0]
    points, cv, dates = _fake_points_and_cv(stats, r0=10)
    res = datestamp(points, cv, dates=dates)
    f1 = tmp_path / "flags.csv"
    f2 = tmp_path / "episodes.csv"
    res.to_csv(f1)
    res.episodes_to_csv(f2)
    lines = f1.read_text().splitlines()
    assert lines[0] == "date,stat,cv,flag"
    assert len(lines) == 4
    assert lines[1].endswith(",0")
    assert lines[2].endswith(",1")
    ep = f2.read_text().splitlines()
    assert ep[0] == "start,end,peak_stat"
    assert len(ep) == 2
