"""Exception hierarchy mapped onto CLI exit codes, and `_check`, the one argument rule."""

from __future__ import annotations

import numpy as np

__all__ = [
    "ChaodecayError",
    "InputOutputError",
    "SyntaxUsageError",
    "ValidationError",
    "NumericError",
    "StatsError",
]


class ChaodecayError(Exception):
    """Base class; ``exit_code`` is what the CLI returns for it."""

    exit_code = 1


class InputOutputError(ChaodecayError):
    """Missing files, unwritable output directories, malformed CSV."""

    exit_code = 1


class SyntaxUsageError(ChaodecayError):
    """Unparseable config files or malformed command lines."""

    exit_code = 2


class ValidationError(ChaodecayError):
    """Config that parses but violates a documented constraint."""

    exit_code = 3


class NumericError(ChaodecayError):
    """Algorithmic failure: non-convergence, exhausted iteration budgets."""

    exit_code = 4


class StatsError(ChaodecayError):
    """Not enough usable data to produce the requested estimate."""

    exit_code = 5


def _check(name: str, value, sign: str | None = "positive", inf: bool = False):
    """``value`` (a number or an array) as a float array, or a ``ValueError`` naming ``name``
    unless every entry is ``sign`` ("positive", "non-negative" or None for any) and finite, or
    +inf where ``inf`` allows it.  NaN never passes; None (absent) is returned as it is."""
    if value is None:
        return None
    array = np.asarray(value, dtype=float)
    ok = array > 0.0 if sign == "positive" else array >= 0.0 if sign else ~np.isnan(array)
    ok = ok & (inf | np.isfinite(array))
    if not ok.all():
        rule = f"{sign} and finite" if sign and not inf else sign or "finite"
        raise ValueError(f"{name} must be {rule}, got {float(array[~ok][0])!r}")
    return array
