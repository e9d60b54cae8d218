"""Econometrics toolkit for virtual-land markets.

Builds hedonic price indices from NFT land transactions, date-stamps
explosive episodes in crypto price series with recursive ADF statistics
and Monte-Carlo critical values, and runs lead-lag and Granger-causality
diagnostics between the land index and its platform currency.
"""

from . import bubbles, hedonic, ingest, linreg, series, synthkit, var_granger
from .errors import (
    DomainError,
    InsufficientDataError,
    LandmetricsError,
    NoValidWindowError,
    NumericalError,
    SchemaError,
    SingularDesignError,
    ValidationError,
)

__version__ = "0.1.0"

__all__ = [
    "bubbles",
    "hedonic",
    "ingest",
    "linreg",
    "series",
    "synthkit",
    "var_granger",
    "LandmetricsError",
    "ValidationError",
    "SchemaError",
    "DomainError",
    "InsufficientDataError",
    "NumericalError",
    "SingularDesignError",
    "NoValidWindowError",
    "__version__",
]
