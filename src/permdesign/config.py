"""Resource limits, overridable through environment variables."""

from __future__ import annotations

import os

DEFAULT_ELEMENT_LIMIT = 10 ** 6
DEFAULT_INDEX_LIMIT = 10 ** 4
DEFAULT_POINT_LIMIT = 10 ** 4
DEFAULT_EXHAUSTIVE_LIMIT = 5000


def _env_int(name, default):
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from None


def element_limit():
    """Largest group order that element enumeration will materialize."""
    return _env_int("PERMDESIGN_ELEMENT_LIMIT", DEFAULT_ELEMENT_LIMIT)


def index_limit():
    """Largest coset-space index the coset machinery will enumerate."""
    return _env_int("PERMDESIGN_INDEX_LIMIT", DEFAULT_INDEX_LIMIT)


def point_limit():
    """Largest point domain the geometry builders will construct."""
    return _env_int("PERMDESIGN_POINT_LIMIT", DEFAULT_POINT_LIMIT)


def exhaustive_limit():
    """Group-order cutoff of the former sampled lambda crosscheck.  The
    library no longer reads it: the crosscheck is always exact.  It is kept
    because benchmark records report it."""
    return _env_int("PERMDESIGN_EXHAUSTIVE_LIMIT", DEFAULT_EXHAUSTIVE_LIMIT)
