#!/usr/bin/env python3
"""Validate repro.serve wire envelopes against the checked-in schema.

Home of the repo's one deliberately small, dependency-free JSON-Schema
validator (``type``, ``const``, ``enum``, ``required``, ``properties``,
``items``, ``oneOf``, ``minimum`` and local ``$ref``/``$defs``
resolution, which ``schemas/search_wire.schema.json`` uses to keep one
definition per wire object); ``tools/validate_trace.py`` and
``tools/validate_bench.py`` import it.  CI runs this against envelopes
captured during the serve smoke step.

Usage::

    python tools/validate_wire.py envelope.json [more.json ...] \
        [--schema schemas/search_wire.schema.json]

Exit status 0 when every document conforms, 1 with one error per line
otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "integer": int,
    "number": (int, float),
    "boolean": bool,
    "null": type(None),
}


def _type_ok(value, expected: str) -> bool:
    python_type = _TYPES[expected]
    if isinstance(value, bool) and expected in ("integer", "number"):
        return False
    return isinstance(value, python_type)


def _resolve(schema: dict, root: dict) -> dict:
    """Follow a local ``#/$defs/...`` reference (one hop per schema)."""
    ref = schema.get("$ref")
    if ref is None:
        return schema
    if not ref.startswith("#/"):
        raise ValueError(f"only local $refs are supported, got {ref!r}")
    target = root
    for part in ref[2:].split("/"):
        target = target[part]
    return target


def validate(value, schema: dict, root: dict, path: str = "$") -> list[str]:
    """All schema violations of ``value`` (empty list == valid)."""
    schema = _resolve(schema, root)
    errors: list[str] = []

    if "const" in schema and value != schema["const"]:
        errors.append(f"{path}: expected {schema['const']!r}, got {value!r}")
    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{path}: {value!r} not one of {schema['enum']!r}")
    if "type" in schema and not _type_ok(value, schema["type"]):
        errors.append(
            f"{path}: expected {schema['type']}, got {type(value).__name__}"
        )
        return errors  # structural checks below assume the right type

    if "minimum" in schema and isinstance(value, (int, float)):
        if not isinstance(value, bool) and value < schema["minimum"]:
            errors.append(f"{path}: {value!r} < minimum {schema['minimum']}")

    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                errors.append(f"{path}: missing required key {key!r}")
        for key, subschema in schema.get("properties", {}).items():
            if key in value:
                errors.extend(
                    validate(value[key], subschema, root, f"{path}.{key}")
                )

    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            errors.extend(validate(item, schema["items"], root, f"{path}[{i}]"))

    if "oneOf" in schema:
        failures: list[list[str]] = []
        for variant in schema["oneOf"]:
            sub = validate(value, variant, root, path)
            if not sub:
                break
            failures.append(sub)
        else:
            title = ", ".join(
                _resolve(v, root).get("title", f"#{i}")
                for i, v in enumerate(schema["oneOf"])
            )
            errors.append(f"{path}: matches none of: {title}")
            # Report the closest variant's errors to aid debugging.
            closest = min(failures, key=len)
            errors.extend(f"  {e}" for e in closest)

    return errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Validate repro.serve wire envelopes."
    )
    parser.add_argument(
        "envelopes", type=Path, nargs="+",
        help="wire envelope JSON file(s) to check",
    )
    parser.add_argument(
        "--schema",
        type=Path,
        default=Path(__file__).resolve().parent.parent
        / "schemas" / "search_wire.schema.json",
        help="JSON schema to validate against",
    )
    args = parser.parse_args(argv)

    schema = json.loads(args.schema.read_text(encoding="utf-8"))
    status = 0
    for path in args.envelopes:
        try:
            document = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            print(f"{path}: not valid JSON: {exc}", file=sys.stderr)
            status = 1
            continue
        errors = validate(document, schema, schema)
        if errors:
            for error in errors:
                print(f"{path}: {error}", file=sys.stderr)
            print(f"{path}: INVALID ({len(errors)} error(s))", file=sys.stderr)
            status = 1
        else:
            kind = document.get("kind", "?")
            print(f"{path}: OK (kind={kind})")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
