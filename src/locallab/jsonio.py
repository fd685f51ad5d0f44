"""The one on-disk format and the one exact-label encoding.

Every file locallab writes (colorings, element sets, energy graphs,
certificates) is a single line of JSON with sorted keys.  Labels and
numbers are ints, strings, or exact rationals; a rational that is not
an integer is written as the string "p/q".  Arrays of non-negative
integer codes are written as base64 blobs of little-endian unsigned
ints of a fixed width.  Every reader fails closed: a file that is not
JSON, or a record of the wrong shape, raises LocalLabError, which the
command line maps to exit code 2.
"""

from __future__ import annotations

import base64
import json
import re
from fractions import Fraction

import numpy as np

from .errors import LocalLabError

_RATIO = re.compile(r"-?\d+/\d+\Z")


def write_json(payload, path) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, sort_keys=True))
        fh.write("\n")


def read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:
        # bad JSON or UTF-8, an int past the interpreter's digit limit, or deep nesting
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
    """The JSON form of a label: a non-bool int or a string as it is, a
    Fraction as "p/q" (or as an int when it is integral)."""
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    if isinstance(x, (int, str)) and not isinstance(x, bool):
        return x
    raise LocalLabError(f"label {x!r} has no JSON form")


def label_from_json(x):
    """Inverse of exact_to_json: a "p/q" string becomes an exact number,
    any other label is kept as it is."""
    if isinstance(x, str) and _RATIO.match(x):
        return exact(x)
    return x


def code_width(top: int) -> int:
    """Bytes per entry of a code blob whose entries are at most `top`:
    the smallest of 1, 2, 4 and 8 that holds it."""
    for width in (1, 2, 4, 8):
        if top < 256**width:
            return width
    raise LocalLabError(f"{top} does not fit in 64 bits")


def pack_codes(values) -> tuple:
    """(blob, width): the non-negative ints `values` as a base64 blob of
    little-endian unsigned ints width = code_width(max(values)) bytes
    wide, encoded from the array's own buffer."""
    width = code_width(int(np.max(values, initial=0)))
    raw = np.asarray(values).astype(f"<u{width}", order="C", copy=False)
    return base64.b64encode(raw).decode("ascii"), width


def unpack_codes(blob: str, width: int, name: str) -> np.ndarray:
    """Inverse of pack_codes: a read-only array of unsigned ints `width`
    (1, 2, 4 or 8) bytes wide.  Raises LocalLabError when the string
    `blob` is not strict base64 or does not hold a whole number of
    entries; `name` labels the blob."""
    try:
        raw = base64.b64decode(blob, validate=True)
    except ValueError:  # binascii.Error, or a character outside ASCII
        raise LocalLabError(f"{name} is not a base64 string") from None
    if len(raw) % width:
        raise LocalLabError(f"{name} decodes to a length of {len(raw)}, not a whole "
                            f"number of {width}-byte entries")
    return np.frombuffer(raw, dtype=f"<u{width}")
