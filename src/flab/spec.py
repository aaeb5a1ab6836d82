"""Typed field access for the JSON kernel, process and group specs.

A malformed spec raises ValueError, which the CLI reports as a one-line
error with exit code 2.
"""

from __future__ import annotations

_REQUIRED = object()


def is_int(value) -> bool:
    """A JSON integer: Python int, but not bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def spec_field(data, key: str, kind: type, default=_REQUIRED):
    """Field `key` of a spec object, checked to have type `kind`.

    Raises ValueError when the spec is not an object, when the field is
    missing and has no default, or when it has another type.
    """
    if not isinstance(data, dict):
        raise ValueError(f"spec must be a JSON object, not {type(data).__name__}")
    if key not in data:
        if default is _REQUIRED:
            raise ValueError(f"spec is missing field {key!r}")
        return default
    value = data[key]
    if not isinstance(value, kind) or (kind is int and not is_int(value)):
        raise ValueError(f"spec field {key!r} must be of type {kind.__name__}, not {value!r}")
    return value
