"""Shared exception base so callers can catch everything from one root, and
the one reader of JSON scalars that every payload parser shares."""


class AnisoError(Exception):
    """Base class for every error raised by this package."""


def _exact_json(obj):
    """obj itself, unless it is a JSON float or boolean: those are refused,
    so parsing never rounds or reinterprets an input."""
    if isinstance(obj, (bool, float)):
        raise TypeError(f"expected an integer or a string, got {obj!r}")
    return obj
