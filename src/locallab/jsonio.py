"""The one on-disk format and the one exact-label encoding.

Every file locallab writes (colorings, element sets, energy graphs,
certificates) is a single line of JSON with sorted keys.  Labels and
numbers are ints, strings, or exact rationals; a rational that is not
an integer is written as the string "p/q".  Every reader fails closed:
a file that is not JSON, or a record of the wrong shape, raises
LocalLabError, which the command line maps to exit code 2.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .errors import LocalLabError

_RATIO = re.compile(r"-?\d+/\d+\Z")


def write_json(payload, path) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, sort_keys=True) + "\n")


def read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        # RecursionError: arrays or objects nested deeper than the parser goes
        raise LocalLabError(f"{path} is not a JSON file: {exc}") from None


def _matches(value, kind) -> bool:
    if isinstance(kind, tuple):
        return any(_matches(value, k) for k in kind)
    if isinstance(kind, list):
        return isinstance(value, list) and all(_matches(v, kind[0]) for v in value)
    if kind is None:
        return value is None
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


def fields(record, **types):
    """The named fields of `record`, each checked to be present and of its
    kind: a type, None, a tuple of alternatives, or [kind] for a list
    whose items all have that kind.  A bool never passes for an int.

    Raises LocalLabError when `record` is not a dict or a field is
    missing or mistyped, so malformed input is an input error, never a
    crash or a failed check.
    """
    if not isinstance(record, dict):
        raise LocalLabError(f"expected a JSON object, got a {type(record).__name__}")
    what = record.get("type", "JSON")
    values = []
    for key, kind in types.items():
        if key not in record:
            raise LocalLabError(f"{what} record has no {key!r} field")
        if not _matches(record[key], kind):
            raise LocalLabError(f"{what} record field {key!r} has the wrong type")
        values.append(record[key])
    return values


def exact(x):
    """`x` as an exact number: an int, or a Fraction that is not an
    integer.  Strings are parsed as fractions ("p/q", "0.25")."""
    if isinstance(x, str):
        try:
            x = Fraction(x)
        except (ValueError, ZeroDivisionError):
            raise LocalLabError(f"cannot parse {x!r} as an exact number") from None
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    raise LocalLabError(f"{x!r} is not exact; use an int, a Fraction, or 'p/q'")


def exact_to_json(x):
    """The JSON form of a label: ints and strings as they are, a Fraction
    as "p/q" (or as an int when it is integral)."""
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    if isinstance(x, (int, str)):
        return x
    raise LocalLabError(f"label {x!r} has no JSON form")


def label_from_json(x):
    """Inverse of exact_to_json: a "p/q" string becomes an exact number,
    any other label is kept as it is."""
    if isinstance(x, str) and _RATIO.match(x):
        return exact(x)
    return x
