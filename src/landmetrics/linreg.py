"""Upper-tail probability of the F distribution.

:func:`f_tail_prob` maps an F statistic to its p-value through the
regularized incomplete beta function, evaluated here in pure Python.
The statistics themselves come from the modules that fit the
regressions: the Granger block F tests in ``var_granger``.
"""

from __future__ import annotations

import math

from .errors import ValidationError

_EPS = 3e-16  # a continued-fraction step this close to 1 ends the evaluation
_TINY = 1e-300  # stands in for a zero Lentz denominator
_MAX_ITER = 10_000  # d1 <= 12 needs under 100 up to d2 = 1e7


def _log_beta(a: float, b: float) -> float:
    """log B(a, b) for a, b > 0.

    Once the larger argument a reaches 50, lgamma(a + b) - lgamma(a) is
    taken from Stirling's series, whose first omitted term is below
    1e-15.  The plain difference of two numbers near a log a loses about
    1e-11 at a = 10^4, the p-value's relative error.
    """
    a, b = max(a, b), min(a, b)
    if a < 50.0:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def tail(z):  # lgamma(z) - [(z - 1/2) log z - z + log(2 pi)/2]
        return (1 / 12 - (1 / 360 - 1 / (1260 * z * z)) / (z * z)) / z

    return math.lgamma(b) - ((a - 0.5) * math.log1p(b / a) + b * math.log(a + b) - b
                             + tail(a + b) - tail(a))


def _betainc(a: float, b: float, x: float, y: float) -> float:
    """Regularized incomplete beta I_x(a, b) for a, b > 0, 0 < x <= 1 and
    y = 1 - x > 0, each formed on its own so that neither is rounded
    through the other.

    The continued fraction converges fastest for x < (a+1)/(a+b+2);
    above that the symmetry I_x(a, b) = 1 - I_y(b, a) applies.  It is
    evaluated by the modified Lentz method (Press et al., *Numerical
    Recipes*, 6.4), and its prefactor x^a y^b / (a B(a, b)) in logs.
    """
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _betainc(b, a, y, x)
    # both logs from the smaller of x and y, whose relative error is the smaller
    log_x, log_y = (math.log(x), math.log1p(-x)) if x < y else (math.log1p(-y), math.log(y))
    log_front = a * log_x + b * log_y - math.log(a) - _log_beta(a, b)
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > _TINY else _TINY)
    h = d
    for m in range(1, _MAX_ITER + 1):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > _TINY else _TINY)
            c = 1.0 + num / c
            c = c if abs(c) > _TINY else _TINY
            step = c * d
            h *= step
        if abs(step - 1.0) < _EPS:
            return math.exp(log_front) * h
    raise ArithmeticError(f"incomplete beta I_{x!r}({a!r}, {b!r}) did not converge "
                          f"in {_MAX_ITER} iterations")


def f_tail_prob(f: float, d1: int, d2: int) -> float:
    """Upper-tail probability P[F(d1, d2) > f].

    Evaluated through the regularized incomplete beta function:

        P[F > f] = I_{d2 / (d2 + d1 f)}(d2/2, d1/2)

    Absolute accuracy is 1e-10 or better over the tested domain.  ``f``
    below 0 is a domain error; ``f = 0`` returns 1 and ``f = inf``
    returns 0.
    """
    if d1 < 1 or d2 < 1:
        raise ValidationError(f"degrees of freedom must be >= 1, got ({d1}, {d2})")
    if not (f >= 0.0):
        raise ValidationError(f"f statistic must be >= 0, got {f!r}")
    a, b, f = float(d2) / 2.0, float(d1) / 2.0, float(f)
    bf = b * f
    x = a / (a + bf)
    if x == 0.0:  # f = inf, or past double range
        return 0.0
    y = bf / (a + bf)
    if y == 0.0:  # f = 0, or too small for 1 - P to be a double
        return 1.0
    return _betainc(a, b, x, y)
