"""Independent reference implementations used only by the tests.

Everything here is deliberately written the slow, obvious way (pure
Python lists, Gauss-Jordan elimination, explicit window enumeration,
numerical integration) so that agreement with the library is evidence,
not tautology.  None of these helpers may import from landmetrics.
"""

from __future__ import annotations

import math
from fractions import Fraction


# ---------------------------------------------------------------------------
# linear algebra: normal equations via Gauss-Jordan with partial pivoting
# ---------------------------------------------------------------------------


def gauss_solve(a, b):
    """Solve a @ x = b for square a, as plain nested lists."""
    n = len(a)
    m = [list(map(float, row)) + [float(b[i])] for i, row in enumerate(a)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(m[r][col]))
        if abs(m[pivot][col]) < 1e-300:
            raise ZeroDivisionError("singular system in oracle solver")
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1.0 / m[col][col]
        m[col] = [v * inv for v in m[col]]
        for row in range(n):
            if row != col and m[row][col] != 0.0:
                factor = m[row][col]
                m[row] = [rv - factor * cv for rv, cv in zip(m[row], m[col])]
    return [m[i][n] for i in range(n)]


def ols_normal_equations(x_rows, y):
    """OLS via (X'X)^-1 X'y: returns (beta, residuals, rss, xtx_inv_diag).

    ``x_rows`` is a list of rows (lists).  Completely independent of any
    numpy or SVD machinery.
    """
    n = len(x_rows)
    k = len(x_rows[0])
    xtx = [[math.fsum(x_rows[r][i] * x_rows[r][j] for r in range(n))
            for j in range(k)] for i in range(k)]
    xty = [math.fsum(x_rows[r][i] * y[r] for r in range(n)) for i in range(k)]
    beta = gauss_solve(xtx, xty)
    resid = [y[r] - math.fsum(x_rows[r][j] * beta[j] for j in range(k))
             for r in range(n)]
    rss = math.fsum(e * e for e in resid)
    # diagonal of (X'X)^-1 column by column
    diag = []
    for j in range(k):
        unit = [1.0 if i == j else 0.0 for i in range(k)]
        col = gauss_solve(xtx, unit)
        diag.append(col[j])
    return beta, resid, rss, diag


def ols_t_ratio(x_rows, y, coef_index):
    """t-ratio of one coefficient under classical standard errors."""
    beta, _, rss, diag = ols_normal_equations(x_rows, y)
    df = len(x_rows) - len(x_rows[0])
    sigma2 = rss / df
    se = math.sqrt(sigma2 * diag[coef_index])
    return beta[coef_index] / se


def exact_rss(x_rows, y):
    """Residual sum of squares of OLS in exact rational arithmetic.

    Every float enters as the ``Fraction`` it denotes; the normal
    equations are solved by Gauss-Jordan elimination without rounding,
    so the result is the exact rss of the given floats.
    """
    x = [[Fraction(v) for v in row] for row in x_rows]
    yy = [Fraction(v) for v in y]
    k = len(x[0])
    m = [[sum(r[i] * r[j] for r in x) for j in range(k)]
         + [sum(r[i] * t for r, t in zip(x, yy))] for i in range(k)]
    for col in range(k):
        pivot = next(r for r in range(col, k) if m[r][col] != 0)
        m[col], m[pivot] = m[pivot], m[col]
        m[col] = [v / m[col][col] for v in m[col]]
        for row in range(k):
            if row != col and m[row][col] != 0:
                factor = m[row][col]
                m[row] = [rv - factor * cv for rv, cv in zip(m[row], m[col])]
    beta = [m[i][k] for i in range(k)]
    resid = [t - sum(b * v for b, v in zip(beta, r)) for r, t in zip(x, yy)]
    return sum(e * e for e in resid)


def granger_f_exact_oracle(columns, cause, effect, p):
    """Granger F of ``cause -> effect`` from two exact least-squares fits.

    ``columns`` maps each variable of the system to its list of values.
    The unrestricted equation regresses the effect on a constant and p
    lags of every variable; the restricted one drops the cause's lags.
    Returns (F, df_den) with F rounded once, from the exact rss values.
    """
    n = len(columns[effect])
    rows_u, rows_r = [], []
    for t in range(p, n):
        lags = {name: [vals[t - lag] for lag in range(1, p + 1)]
                for name, vals in columns.items()}
        rows_u.append([1.0] + [v for name in columns for v in lags[name]])
        rows_r.append([1.0] + [v for name in columns if name != cause
                               for v in lags[name]])
    y = columns[effect][p:]
    rss_u = exact_rss(rows_u, y)
    rss_r = exact_rss(rows_r, y)
    df_den = len(y) - len(rows_u[0])
    return float((rss_r - rss_u) / p / (rss_u / df_den)), df_den


# ---------------------------------------------------------------------------
# ADF and BSADF by explicit construction
# ---------------------------------------------------------------------------


def adf_design(window, k):
    """Rows and response of the ADF regression on one window.

    Regression: dy_t on [1, y_{t-1}, dy_{t-1}, ..., dy_{t-k}], rows
    starting at index k+1 of the window.
    """
    y = list(map(float, window))
    dy = [y[t] - y[t - 1] for t in range(1, len(y))]
    rows, resp = [], []
    for t in range(k + 1, len(y)):
        row = [1.0, y[t - 1]]
        for i in range(1, k + 1):
            row.append(dy[t - 1 - i])
        rows.append(row)
        resp.append(dy[t - 1])
    return rows, resp


def adf_stat_oracle(window, k):
    """ADF t-ratio on the lagged level, or None when degenerate."""
    rows, resp = adf_design(window, k)
    if len(rows) <= len(rows[0]):
        return None
    try:
        beta, _, rss, diag = ols_normal_equations(rows, resp)
    except ZeroDivisionError:
        return None
    df = len(rows) - len(rows[0])
    max_abs = max(abs(v) for v in resp) if resp else 0.0
    if rss <= 1e-12 * max(max_abs * max_abs * len(resp), 1.0):
        return None
    sigma2 = rss / df
    se = math.sqrt(sigma2 * diag[1])
    if se == 0.0:
        return None
    return beta[1] / se


def bsadf_oracle(y, r2, r0, k):
    """Exhaustive max over every admissible window ending at r2."""
    best = None
    best_s1 = None
    for s1 in range(0, r2 - r0 + 1):
        stat = adf_stat_oracle(y[s1:r2 + 1], k)
        if stat is None:
            continue
        if best is None or stat > best:
            best, best_s1 = stat, s1
    return best, best_s1


def bic_lag_oracle(window, kmax):
    """BIC lag count in [0, kmax], or None when every candidate is singular.

    Every candidate is fitted on the common sample of the kmax regression
    (rows from window index kmax + 1).  Candidates are tried in ascending
    k; a later one wins only with a BIC below the best by more than
    1e-12, and the first with a zero residual sum of squares wins outright.
    """
    best_k, best_bic = None, math.inf
    for k in range(kmax + 1):
        rows, resp = adf_design(window, k)
        rows, resp = rows[kmax - k:], resp[kmax - k:]
        try:
            _, _, rss, _ = ols_normal_equations(rows, resp)
        except ZeroDivisionError:
            continue
        n = len(resp)
        if rss <= 0.0:
            return k
        bic = n * math.log(rss / n) + (k + 2) * math.log(n)
        if bic < best_bic - 1e-12:
            best_k, best_bic = k, bic
    return best_k


def bsadf_bic_oracle(y, r2, r0, kmax):
    """Exhaustive max over windows ending at r2, each at its BIC lag.

    Windows shorter than max(2*kmax + 4, kmax + 5) are skipped, and the
    statistic is the chosen lag's t-ratio on that lag's own full sample.
    """
    best = None
    best_s1 = None
    for s1 in range(0, r2 - r0 + 1):
        window = y[s1:r2 + 1]
        if len(window) < max(2 * kmax + 4, kmax + 5):
            continue
        k = bic_lag_oracle(window, kmax)
        stat = None if k is None else adf_stat_oracle(window, k)
        if stat is None:
            continue
        if best is None or stat > best:
            best, best_s1 = stat, s1
    return best, best_s1


# ---------------------------------------------------------------------------
# F and Student-t tail probabilities by adaptive numerical integration, and
# the F tail in 50-digit arithmetic
# ---------------------------------------------------------------------------


def f_pdf(x, d1, d2):
    if x <= 0.0:
        return 0.0
    log_num = (
        0.5 * d1 * math.log(d1) + 0.5 * d2 * math.log(d2)
        + (0.5 * d1 - 1.0) * math.log(x)
        - 0.5 * (d1 + d2) * math.log(d2 + d1 * x)
    )
    log_beta = (math.lgamma(0.5 * d1) + math.lgamma(0.5 * d2)
                - math.lgamma(0.5 * (d1 + d2)))
    return math.exp(log_num - log_beta)


def f_tail_oracle(f, d1, d2):
    """P[F(d1, d2) > f] by adaptive quadrature of the density."""
    from scipy.integrate import quad

    if f <= 0.0:
        return 1.0
    upper, _ = quad(f_pdf, f, math.inf, args=(d1, d2), limit=400)
    return upper


def f_tail_exact_oracle(f, d1, d2):
    """P[F(d1, d2) > f] from mpmath's regularized incomplete beta at 50
    digits, with ``f`` taken as the exact value of its float."""
    import mpmath

    with mpmath.workdps(50):
        x = d2 / (d2 + d1 * mpmath.mpf(f))
        return float(mpmath.betainc(mpmath.mpf(d2) / 2, mpmath.mpf(d1) / 2, 0, x,
                                    regularized=True))


def t_pdf(x, df):
    log_num = math.lgamma(0.5 * (df + 1)) - math.lgamma(0.5 * df)
    log_den = 0.5 * math.log(df * math.pi)
    return math.exp(log_num - log_den
                    - 0.5 * (df + 1) * math.log1p(x * x / df))


def t_two_sided_tail_oracle(t, df):
    """P[|T(df)| > t] by quadrature; used for the d1=1 identity check."""
    from scipy.integrate import quad

    t = abs(t)
    upper, _ = quad(t_pdf, t, math.inf, args=(df,), limit=400)
    return 2.0 * upper


# ---------------------------------------------------------------------------
# misc small oracles
# ---------------------------------------------------------------------------


def pearson_oracle(a, b):
    """Double-loop Pearson correlation, no vectorization."""
    n = len(a)
    ma = math.fsum(a) / n
    mb = math.fsum(b) / n
    sab = math.fsum((a[i] - ma) * (b[i] - mb) for i in range(n))
    sa = math.fsum((a[i] - ma) ** 2 for i in range(n))
    sb = math.fsum((b[i] - mb) ** 2 for i in range(n))
    return sab / math.sqrt(sa * sb)


def quantile_type7(sorted_values, q):
    """Linear interpolation between order statistics (type 7)."""
    n = len(sorted_values)
    if n == 1:
        return sorted_values[0]
    h = (n - 1) * q
    lo = math.floor(h)
    hi = min(lo + 1, n - 1)
    return sorted_values[lo] + (h - lo) * (sorted_values[hi] - sorted_values[lo])


def winsorize_oracle(values, lo_q, hi_q):
    """Sort-and-clamp winsorization with inward order-statistic bounds."""
    s = sorted(values)
    n = len(s)
    lo = s[math.ceil((n - 1) * lo_q)]
    hi = s[math.floor((n - 1) * hi_q)]
    if lo > hi:
        lo = hi
    return [min(max(v, lo), hi) for v in values]


def monday_of(date):
    """ISO week anchor by plain weekday arithmetic."""
    import datetime as dt

    return date - dt.timedelta(days=date.weekday())


def hedonic_refit_oracle(transactions, freq="weekly", min_per_period=3):
    """Materialize the dummy design by hand and solve the normal equations.

    Returns (estimable periods, beta, se list or None, rss).  Buckets by
    the Monday of each transaction's week (or by calendar day), keeps
    periods meeting the minimum count, and regresses log USD price on an
    intercept, one dummy per non-base period, and whichever of log plot
    count / wrapped-payment flag actually varies in the kept sample.  Reads
    the table's ``day``, ``usd_price``, ``num_plots`` and ``paid_in_weth``
    columns as plain Python values.
    """
    buckets = {}
    sales = zip(transactions.day.tolist(), transactions.usd_price.tolist(),
                transactions.num_plots.tolist(), transactions.paid_in_weth.tolist())
    for date, usd, num_plots, paid_in_weth in sales:
        key = monday_of(date) if freq == "weekly" else date
        buckets.setdefault(key, []).append((usd, num_plots, paid_in_weth))
    periods = [p for p in sorted(buckets) if len(buckets[p]) >= min_per_period]
    sample = [(p, t) for p in periods for t in buckets[p]]
    plots = [math.log(num_plots) for _, (_, num_plots, _) in sample]
    weth = [1.0 if paid_in_weth else 0.0 for _, (_, _, paid_in_weth) in sample]
    has_plots = max(plots) > min(plots)
    has_weth = max(weth) > min(weth)
    rows, y = [], []
    for (p, (usd, _, _)), lp, w in zip(sample, plots, weth):
        row = [1.0] + [1.0 if p == q else 0.0 for q in periods[1:]]
        if has_plots:
            row.append(lp)
        if has_weth:
            row.append(w)
        rows.append(row)
        y.append(math.log(usd))
    beta, _, rss, diag = ols_normal_equations(rows, y)
    df = len(rows) - len(rows[0])
    se = [math.sqrt(rss / df * d) for d in diag] if df > 0 else None
    return periods, beta, se, rss


# ---------------------------------------------------------------------------
# ingest: the row-by-row parse and USD conversion
# ---------------------------------------------------------------------------


def load_transactions_oracle(path, currencies=None):
    """Parse a transactions CSV one row record at a time.

    Returns (rows, rejected): ``rows`` are (line, timestamp, native price,
    currency, plot count) tuples of the accepted rows in file order, and
    ``rejected`` the (line, reason) pairs of the first check each other
    row fails.  A row's line is the file line its record starts on.
    Blank lines are neither.  A plot count past int64 is a bad plot
    count, and a time whose UTC falls outside years 1-9999 a bad
    timestamp.
    """
    import csv
    import datetime as dt

    def parse_timestamp(text):
        ts = dt.datetime.fromisoformat(text.strip().replace("Z", "+00:00"))
        if ts.tzinfo is not None:
            ts = ts.astimezone(dt.timezone.utc).replace(tzinfo=None)
        return ts

    rows, rejected = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader)]
        idx = {c: header.index(c)
               for c in ("timestamp", "native_price", "currency", "num_plots")}
        while True:
            lineno = reader.line_num + 1
            row = next(reader, None)
            if row is None:
                break
            if not row or all(not f.strip() for f in row):
                continue
            if len(row) < len(header):
                rejected.append((lineno, "missing fields"))
                continue
            try:
                ts = parse_timestamp(row[idx["timestamp"]])
            except (ValueError, OverflowError):     # UTC outside years 1-9999
                rejected.append((lineno, "bad timestamp"))
                continue
            try:
                price = float(row[idx["native_price"]])
            except ValueError:
                rejected.append((lineno, "bad price"))
                continue
            if not price > 0.0 or not math.isfinite(price):
                rejected.append((lineno, "price <= 0"))
                continue
            try:
                plots = int(row[idx["num_plots"]].strip())
            except ValueError:
                rejected.append((lineno, "bad plot count"))
                continue
            if plots < 1:
                rejected.append((lineno, "plot count < 1"))
                continue
            if plots >= 2**63:                      # past the int64 column
                rejected.append((lineno, "bad plot count"))
                continue
            currency = row[idx["currency"]].strip().upper()
            if not currency:
                rejected.append((lineno, "missing currency"))
                continue
            if currencies is not None and currency not in currencies:
                rejected.append((lineno, "unknown currency"))
                continue
            rows.append((lineno, ts, price, currency, plots))
    return rows, rejected


def to_usd_oracle(rows, quotes, stable_currencies):
    """Convert oracle rows with a {(date, SYMBOL): usd} quote dict.

    Returns (converted, rejected): ``converted`` are (line, usd price,
    paid in wETH) tuples, wETH priced at the ETH quote and stable
    currencies at exactly 1.0; rows without a quote for their day are
    rejected as "no fx for date".
    """
    converted, rejected = [], []
    for line, ts, price, currency, _ in rows:
        if currency in stable_currencies:
            rate = 1.0
        else:
            rate = quotes.get((ts.date(), "ETH" if currency == "WETH" else currency))
            if rate is None:
                rejected.append((line, "no fx for date"))
                continue
        converted.append((line, price * rate, currency == "WETH"))
    return converted, rejected
