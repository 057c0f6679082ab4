"""Stable machine-readable output: canonical JSON, CSV, and text tables.

JSON bytes are deterministic for identical inputs (sorted keys, fixed
indentation, shortest-repr floats, NaN and infinities mapped to null).  A
report given a bundled schema (the `model`, `simulate` and `optimize`
reports) is checked against it before leaving the process.

The check is a draft-07 validator for the keywords the bundled schemas use,
and nothing more: a cold CLI call spends no time importing jsonschema, which
the tests keep as the oracle this validator must agree with.  A bundled
schema that uses any other keyword is refused when it is loaded.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
import operator
from functools import cache
from importlib import resources

SCHEMA_NAMES = ("model_report", "sim_report", "optimal_choice")

_TYPES = {  # draft-07 type tests; a bool is neither a number nor an integer
    "object": lambda v: isinstance(v, dict),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
    "number": lambda v: isinstance(v, numbers.Number) and not isinstance(v, bool),
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool))
    or (isinstance(v, float) and v.is_integer()),
}
_BOUNDS = {  # keyword -> the comparison a number fails it by
    "minimum": operator.lt,
    "maximum": operator.gt,
    "exclusiveMinimum": operator.le,
    "exclusiveMaximum": operator.ge,
}
_KEYWORDS = {"$schema", "title", "type", "enum", "required", "properties",
             "additionalProperties", *_BOUNDS}


class SchemaError(ValueError):
    """A payload that does not match its schema; `field` is the dotted path."""

    def __init__(self, field: str, reason: str):
        super().__init__(f"field {field or '(root)'}: {reason}")
        self.field = field


def _sanitize(value):
    """Replace non-finite floats with None so output is strict JSON."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    return value


@cache
def load_schema(name: str) -> dict:
    """The bundled schema `name`, parsed and keyword-checked once per process.

    Every caller gets the same dict: read it, never change it.
    """
    if name not in SCHEMA_NAMES:
        raise ValueError(f"schema must be one of {SCHEMA_NAMES}, got {name!r}")
    text = resources.files("rtwt_planner.schemas").joinpath(f"{name}.schema.json").read_text()
    schema = json.loads(text)
    check_keywords(schema)
    return schema


def check_keywords(schema: dict) -> None:
    """Raise ValueError unless `validate` implements every keyword of `schema`."""
    unknown = sorted(set(schema) - _KEYWORDS)
    if unknown:
        raise ValueError(f"schema keyword(s) {unknown} are not supported")
    types = schema.get("type", [])
    if set([types] if isinstance(types, str) else types) - _TYPES.keys():
        raise ValueError(f"schema type {types!r} is not supported")
    if schema.get("additionalProperties", False) is not False:
        raise ValueError("additionalProperties is supported only as false")
    if any(isinstance(member, (dict, list)) for member in schema.get("enum", [])):
        raise ValueError("enum members must be scalars")
    for sub in schema.get("properties", {}).values():
        check_keywords(sub)


def _same(member, value) -> bool:
    """Enum equality as draft-07 has it: `true` is not 1, but 1.0 is 1."""
    if isinstance(member, bool) or isinstance(value, bool):
        return member is value
    return member == value


def validate(instance, schema: dict, path: str = "") -> None:
    """Raise SchemaError naming the first field of `instance` that `schema` rejects.

    `path` is the dotted field `instance` sits at.  Bounds apply to numbers
    only, and `required`, `properties` and `additionalProperties` to objects
    only, as in draft-07.
    """
    types = schema.get("type")
    if types is not None:
        names = [types] if isinstance(types, str) else types
        if not any(_TYPES[name](instance) for name in names):
            raise SchemaError(path, f"{instance!r} is not of type {' or '.join(names)}")
    if "enum" in schema and not any(_same(m, instance) for m in schema["enum"]):
        raise SchemaError(path, f"{instance!r} is not one of {schema['enum']!r}")
    if _TYPES["number"](instance):
        for keyword, fails in _BOUNDS.items():
            if keyword in schema and fails(instance, schema[keyword]):
                raise SchemaError(path, f"{instance!r} fails {keyword} {schema[keyword]!r}")
    if not isinstance(instance, dict):
        return
    prefix = f"{path}." if path else ""
    for key in schema.get("required", []):
        if key not in instance:
            raise SchemaError(f"{prefix}{key}", "is required")
    properties = schema.get("properties", {})
    if schema.get("additionalProperties") is False:
        for key in instance:
            if key not in properties:
                raise SchemaError(f"{prefix}{key}", "is not allowed")
    for key, sub in properties.items():
        if key in instance:
            validate(instance[key], sub, f"{prefix}{key}")


def json_bytes(payload: dict, schema: str | None = None) -> bytes:
    """Canonical JSON encoding, checked against the bundled schema if one is named."""
    clean = _sanitize(payload)
    if schema is not None:
        validate(clean, load_schema(schema))
    return (json.dumps(clean, sort_keys=True, indent=2) + "\n").encode()


def _cell(value) -> str:
    """CSV cell rendering: shortest float repr, empty for missing."""
    if value is None:
        return ""
    if isinstance(value, float):
        return "nan" if math.isnan(value) else repr(value)
    return str(value)


def csv_bytes(header: list[str], rows: list[list]) -> bytes:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_cell(v) for v in row])
    return out.getvalue().encode()


def table_text(header: list[str], rows: list[list]) -> str:
    """Aligned plain-text table for terminal output."""
    cells = [[_cell(v) for v in row] for row in rows]
    widths = [len(h) for h in header]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def kv_text(pairs: list[tuple[str, object]]) -> str:
    """Aligned key/value listing for single-report terminal output."""
    width = max(len(k) for k, _ in pairs)
    return "\n".join(f"{k.ljust(width)}  {_cell(v)}" for k, v in pairs) + "\n"
