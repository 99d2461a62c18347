"""Exception taxonomy shared across the package, and the number rule that
config values and sample-file records are both read by.

ConfigError: malformed user input (CLI exit code 2).
PreconditionError: valid input outside a routine's stated domain (exit code 3).
NumericalFailure: a computation that started but cannot be trusted (exit code 4).
"""

from __future__ import annotations

import sys


class ConfigError(ValueError):
    pass


class PreconditionError(RuntimeError):
    pass


class NumericalFailure(RuntimeError):
    pass


def _whole(value, key: str, low: int | None = None) -> int:
    """A whole number from a config or a sample file (a level t, a chain
    length, a record's dim): 2.0 counts as 2, while a bool, a string or a
    non-integral number is refused, not truncated, and so is one below ``low``."""
    whole = isinstance(value, int) or isinstance(value, float) and value.is_integer()
    if isinstance(value, bool) or not whole:
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    _real(value, key, low)
    return int(value)


def _real(value, key: str, low: float | None = None, strict: bool = False) -> float:
    """A finite number from a config (an activity z, a delta): a bool, a
    string, null, a list, inf and NaN are refused, and so is a number below
    ``low``, or at it when ``strict``."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (number and abs(value) <= sys.float_info.max):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    if low is not None and not (value > low if strict else value >= low):
        raise ConfigError(f"{key} must be {'>' if strict else '>='} {low}, got {value!r}")
    return float(value)
