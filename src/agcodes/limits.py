"""Resource caps for the exhaustive engines.

Every brute-force sweep (point enumeration, message scans, matrix-group
filters, orbit generation) checks its workload against a cap before starting,
so a typo in parameters fails fast instead of hanging.  Each cap can be raised
or lowered through an environment variable, e.g. AGCODES_MESSAGES_CAP=100000.
"""

from __future__ import annotations

import os

_DEFAULTS = {
    "points": 2**24,
    "messages": 2**26,
    "matrices": 2**24,
    "group": 2**21,
}

_ENV_PREFIX = "AGCODES_"


class CapExceeded(RuntimeError):
    """Raised when a requested exhaustive sweep is larger than its cap."""


def cap(name: str) -> int:
    """Current cap value for one of: points, messages, matrices, group."""
    if name not in _DEFAULTS:
        raise KeyError(f"unknown cap {name!r}")
    var = f"{_ENV_PREFIX}{name.upper()}_CAP"
    raw = os.environ.get(var)
    if raw is None:
        return _DEFAULTS[name]
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{var} must be a positive integer, got {raw!r}") from None
    if value < 1:
        raise ValueError(f"{var} must be a positive integer, got {raw!r}")
    return value


def ensure(name: str, needed: int, what: str) -> None:
    """Raise CapExceeded if `needed` exceeds the configured cap `name`."""
    if needed > cap(name):
        raise _refusal(name, needed, what)


def ensure_power(name: str, base: int, exponent: int, what: str) -> None:
    """ensure(name, base**exponent, what) for base >= 2, refused on the exponent
    alone when that suffices: 2**C(40, 20) would take gigabytes to compute."""
    if exponent >= cap(name).bit_length():  # base**exponent >= 2**exponent > cap
        raise _refusal(name, f"{base}^{exponent}", what)
    ensure(name, base**exponent, what)


def _refusal(name: str, needed: int | str, what: str) -> CapExceeded:
    return CapExceeded(
        f"{what} needs {needed} {name}, above the cap {cap(name)} "
        f"(override with {_ENV_PREFIX}{name.upper()}_CAP)"
    )
