"""Upper-tail probability of the F distribution.

:func:`f_tail_prob` maps an F statistic to its p-value through the
regularized incomplete beta function.  The statistics themselves come
from the modules that fit the regressions: the Granger block F tests in
``var_granger``.
"""

from __future__ import annotations

import numpy as np
from scipy.special import betainc

from .errors import ValidationError


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
