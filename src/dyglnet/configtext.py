"""Plain-text ``key = value`` config grammar.

One assignment per line, ``#`` starts a comment, blank lines ignored.
Values are coerced by the target dataclass's field types: ints, floats,
bools (true/false), strings, and bracketed integer lists like
``[8, 16, 32, 64]`` for tuple fields.
"""

from __future__ import annotations

import dataclasses
import math
import typing

from .errors import ConfigurationError, FormatError


def parse_text(text: str) -> dict[str, str]:
    """Raw key -> value-string mapping; later keys override earlier ones."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FormatError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise FormatError(f"line {lineno}: empty key")
        out[key] = value
    return out


def format_mapping(mapping: dict[str, object]) -> str:
    lines = []
    for key, value in mapping.items():
        if isinstance(value, (tuple, list)):
            body = "[" + ", ".join(str(v) for v in value) + "]"
        elif isinstance(value, bool):
            body = "true" if value else "false"
        elif isinstance(value, float):
            body = repr(float(value))
        else:
            body = str(value)
        lines.append(f"{key} = {body}")
    return "\n".join(lines) + "\n"


def _coerce_one(key: str, value: str, ftype) -> object:
    origin = typing.get_origin(ftype)
    if ftype is bool:
        low = value.lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise FormatError(f"{key}: expected a boolean, got {value!r}")
    if ftype is int:
        try:
            return int(value)
        except ValueError as e:
            raise FormatError(f"{key}: expected an integer, got {value!r}") from e
    if ftype is float:
        try:
            return float(value)
        except ValueError as e:
            raise FormatError(f"{key}: expected a number, got {value!r}") from e
    if ftype is str:
        return value
    if origin is tuple:
        inner = value.strip()
        if inner.startswith("[") and inner.endswith("]"):
            inner = inner[1:-1]
        elif inner.startswith("(") and inner.endswith(")"):
            inner = inner[1:-1]
        items = [s.strip() for s in inner.split(",") if s.strip()]
        args = typing.get_args(ftype)
        elem = args[0] if args else int
        return tuple(_coerce_one(key, s, elem) for s in items)
    raise FormatError(f"{key}: unsupported field type {ftype}")


def coerce_fields(cls, raw: dict[str, str], aliases: dict[str, str] | None = None):
    """Split a raw mapping into kwargs for dataclass ``cls`` plus leftovers."""
    fields = {f.name: f.type for f in dataclasses.fields(cls)}
    hints = typing.get_type_hints(cls)
    kwargs = {}
    rest = {}
    for key, value in raw.items():
        name = aliases.get(key, key) if aliases else key
        if name in fields:
            kwargs[name] = _coerce_one(name, value, hints[name])
        else:
            rest[key] = value
    return kwargs, rest


def check_positive(cfg: object, *names: str, zero_ok: bool = False) -> None:
    """Raise ConfigurationError unless each named float field of ``cfg``
    is finite and positive (or zero, with ``zero_ok``). A bare ``x <= 0``
    test would pass NaN, since every comparison with NaN is false."""
    for name in names:
        v = getattr(cfg, name)
        if not math.isfinite(v) or v < 0.0 or (v == 0.0 and not zero_ok):
            bound = ">= 0" if zero_ok else "positive"
            raise ConfigurationError(f"{name} must be finite and {bound}, got {v}")


def check_types(cfg: object) -> None:
    """Raise ConfigurationError unless each field of dataclass ``cfg``
    holds a value of its annotated type that text carries back: a tuple
    field holds a tuple, and a bool is neither an int nor a float."""
    hints = typing.get_type_hints(type(cfg))
    for f in dataclasses.fields(cfg):
        value, ftype = getattr(cfg, f.name), hints[f.name]
        is_tuple = typing.get_origin(ftype) is tuple
        elem = typing.get_args(ftype)[0] if is_tuple else ftype
        kinds = (int, float) if elem is float else elem
        items = value if isinstance(value, tuple) else (value,)
        if is_tuple != isinstance(value, tuple) or any(
            isinstance(v, bool) != (elem is bool) or not isinstance(v, kinds)
            for v in items
        ):
            raise ConfigurationError(f"{f.name} must be of type {f.type}, got {value!r}")
