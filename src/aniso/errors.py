"""Shared exception base so callers can catch everything from one root, and
the readers of JSON scalars that every payload parser shares."""


class AnisoError(Exception):
    """Base class for every error raised by this package."""


def _exact_json(obj):
    """obj itself, unless it is a JSON float or boolean: those are refused,
    so parsing never rounds or reinterprets an input."""
    if isinstance(obj, (bool, float)):
        raise TypeError(f"expected an integer or a string, got {obj!r}")
    return obj


def _json_list(obj) -> list:
    """obj itself if it is a JSON list: a string is refused, not iterated."""
    if not isinstance(obj, list):
        raise TypeError(f"expected a list, got {obj!r}")
    return obj


def _exact_int(obj) -> int:
    """obj as an int: a JSON integer, or an ASCII string of decimal digits
    with an optional leading minus. Anything else raises TypeError or
    ValueError, so "1_0", " 1", "+1" and non-ASCII digits are refused
    along with floats and booleans."""
    if isinstance(obj, str):
        digits = obj.removeprefix("-")
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError(f"not a decimal integer: {obj!r}")
        return int(obj)
    if isinstance(_exact_json(obj), int):
        return obj
    raise TypeError(f"expected an integer or a string, got {obj!r}")


def _exact_fraction(obj) -> "Fraction":
    """obj as a Fraction: a JSON integer, or an ASCII string n or n/d with
    n a decimal integer under _exact_int's rules and d a nonzero string of
    decimal digits. "1_000", "1e3", " 3/4 ", "+1" and "1/0" raise
    ValueError, floats and booleans TypeError."""
    # imported here: the integer paths load this module without fractions
    from fractions import Fraction
    if isinstance(_exact_json(obj), int):
        return Fraction(obj)
    if not isinstance(obj, str):
        raise TypeError(f"expected an integer or a string, got {obj!r}")
    num, slash, den = obj.partition("/")
    if slash and not (den.isascii() and den.isdigit() and den.strip("0")):
        raise ValueError(f"not a rational with a positive denominator: {obj!r}")
    return Fraction(_exact_int(num), int(den) if slash else 1)
