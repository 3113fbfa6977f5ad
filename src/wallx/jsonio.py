"""Wire-format helpers.

All rationals travel as strings "p/q" (or "p" when the denominator is 1);
ints are accepted on input wherever a rational is expected.  Floats are
rejected everywhere.  Parsers take a ``path`` argument so schema errors can
point at the offending entry.  Only this module extends a path (``field``
with a key, ``parse_list`` with an index), so each key is named once, and
errors are located in one place, ``_at``: an ``InputError`` raised without
a path while a field or list entry is parsed is raised again at its path.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .errors import InputError

_REQUIRED = object()
# Fraction builds 10**exponent exactly, which for an exponent of 10**9 takes
# hours; 4300 is Python's own limit on the digits of an integer string.
# The exponent is read as Fraction reads it: any Unicode decimal digits,
# grouped by underscores, at the end of the string.
_MAX_DECIMAL_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE][-+]?(\d+(?:_\d+)*)\s*\Z")


def _at(path: str, parse, value, *args, **kwargs):
    """``parse(value, path, ...)``, with an unlocated error raised again at ``path``."""
    try:
        return parse(value, path, *args, **kwargs)
    except InputError as err:
        if err.path is not None:
            raise
        raise InputError(err.message, path) from None


def field(obj, key: str, path: str, parse, *args, default=_REQUIRED, **kwargs):
    """Parse ``obj[key]`` at the path ``<path>.<key>``.

    A missing key is an error unless a ``default`` is given, which is
    returned as is.  A JSON null reads as absent only where the default
    is None.
    """
    if not isinstance(obj, dict):
        raise InputError(f"expected an object, got {type(obj).__name__}", path)
    if key not in obj or (default is None and obj[key] is None):
        if default is _REQUIRED:
            raise InputError(f"missing required key {key!r}", path)
        return default
    return _at(f"{path}.{key}", parse, obj[key], *args, **kwargs)


def parse_list(value, path: str, parse_item, *args, message: str) -> tuple:
    """Parse entry ``i`` of a list at the path ``<path>[i]``.

    ``message`` reports a non-list; ``{type}`` in it names the type found.
    """
    if not isinstance(value, list):
        raise InputError(message.format(type=type(value).__name__), path)
    return tuple(_at(f"{path}[{i}]", parse_item, v, *args) for i, v in enumerate(value))


def parse_keyed(value, path: str, parse_entry, key: str, *args, message: str,
                duplicate: str) -> dict:
    """A list of entries, each parsed to a (k, v) pair, as a dict {k: v}.

    ``key`` names the entry field that k comes from: a repeated k raises
    ``duplicate`` at that field of the repeated entry.
    """
    out = {}

    def entry(obj, epath):
        k, v = parse_entry(obj, epath, *args)
        if k in out:
            raise InputError(duplicate, f"{epath}.{key}")
        out[k] = v

    parse_list(value, path, entry, message=message)
    return out


def parse_choice(value, path: str, options, message: str) -> str:
    if not isinstance(value, str) or value not in options:
        raise InputError(message, path)
    return value


def parse_rational(value, path: str) -> Fraction:
    if isinstance(value, bool):
        raise InputError("expected a rational, got a boolean", path)
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise InputError("floats are not accepted; use a \"p/q\" string", path)
    if isinstance(value, str):
        exponent = _EXPONENT.search(value)
        if exponent and _exponent_beyond_limit(exponent[1]):
            raise InputError(f"decimal exponent beyond {_MAX_DECIMAL_EXPONENT} "
                             f"in absolute value", path)
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise InputError(f"malformed rational {value!r}", path) from None
    raise InputError(f"expected a rational, got {type(value).__name__}", path)


def _exponent_beyond_limit(digits: str) -> bool:
    try:
        return int(digits) > _MAX_DECIMAL_EXPONENT
    except ValueError:  # more than 4300 digits: int() refuses, as would Fraction
        return True


def format_rational(value: Fraction) -> str:
    try:
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    except ValueError:  # parse_rational could not read the digits back either
        raise digit_limit_error("a rational") from None


def digit_limit_error(what: str) -> InputError:
    """The error for a result that str(int) refuses to write."""
    return InputError(f"result has {what} beyond Python's "
                      f"{sys.get_int_max_str_digits()}-digit limit on "
                      f"integer strings")


def parse_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"expected an integer, got {type(value).__name__}", path)
    return value


def _check_length(out: tuple, path: str, length: int | None, what: str) -> tuple:
    if length is not None and len(out) != length:
        raise InputError(f"expected {length} {what}, got {len(out)}", path)
    return out


def parse_int_vector(value, path: str, length: int | None = None) -> tuple[int, ...]:
    out = parse_list(value, path, parse_int,
                     message="expected a list of integers, got {type}")
    return _check_length(out, path, length, "entries")


def parse_rational_vector(value, path: str, length: int | None = None) -> tuple[Fraction, ...]:
    out = parse_list(value, path, parse_rational,
                     message="expected a list of rationals, got {type}")
    return _check_length(out, path, length, "entries")


def parse_int_matrix(value, path: str, rows: int | None = None,
                     cols: int | None = None) -> tuple[tuple[int, ...], ...]:
    out = parse_list(value, path, parse_int_vector, cols,
                     message="expected a matrix (list of rows), got {type}")
    return _check_length(out, path, rows, "rows")
