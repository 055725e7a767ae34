"""Deterministic JSON and CSV emission, and finite numbers on input.

All file output goes through these helpers so that reruns with identical
inputs produce byte-identical artifacts: keys are sorted, floats are
written with 17 significant digits (round-trip exact for IEEE doubles),
and no locale- or hash-order-dependent formatting is used.  Readers take
their numbers through read_finite, since Python's json accepts NaN and
Infinity.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidField, NonFinite


def read_object(data, what: str) -> dict:
    """data; InvalidField unless it is a JSON object."""
    if not isinstance(data, dict):
        raise InvalidField("%s JSON must be an object, got %s" % (what, type(data).__name__))
    return data


def finite_array(value, key: str, what: str) -> np.ndarray:
    """value as a float array (0-d for a number); NonFinite, naming the
    field key of what, if any entry is NaN or infinite."""
    arr = np.asarray(value, dtype=float)
    if not np.isfinite(arr).all():
        raise NonFinite("%s field '%s' holds a non-finite number" % (what, key))
    return arr


def read_finite(data: dict, key: str, what: str, default=None) -> np.ndarray:
    """data[key], or default when the key is absent, as a finite float
    array (finite_array)."""
    return finite_array(data[key] if default is None or key in data else default, key, what)


def read_dim(data: dict, what: str) -> int:
    """data["dim"]; InvalidField, naming the field, unless it is an
    integer >= 1 and not a bool (JSON's 2.0, "2" and true are refused)."""
    n = data["dim"]
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise InvalidField("%s field 'dim' must be an integer >= 1, got %r" % (what, n))
    return int(n)


def format_float(x: float) -> str:
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        raise ValueError("non-finite float cannot be serialized: %r" % x)
    if x == 0.0:
        x = 0.0  # normalize -0.0
    s = format(x, ".17g")
    return s


def _encode(obj) -> str:
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(obj)
    if isinstance(obj, str):
        import json

        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return _encode(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_encode(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = []
        for key in sorted(obj.keys()):
            if not isinstance(key, str):
                raise TypeError("JSON object keys must be strings: %r" % key)
            import json

            items.append(json.dumps(key) + ": " + _encode(obj[key]))
        return "{" + ", ".join(items) + "}"
    raise TypeError("cannot serialize %r" % type(obj))


def dumps_canonical(obj) -> str:
    """Serialize to a canonical JSON string (sorted keys, .17g floats)."""
    return _encode(obj) + "\n"


def csv_row(fields) -> str:
    parts = []
    for f in fields:
        if isinstance(f, (float, np.floating)):
            parts.append(format_float(f))
        else:
            parts.append(str(f))
    return ",".join(parts) + "\n"
