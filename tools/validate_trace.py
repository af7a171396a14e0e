#!/usr/bin/env python3
"""Validate a `repro trace` export against the checked-in JSON schema.

Reuses the dependency-free mini JSON-Schema validator from
``tools/validate_wire.py`` (the subset ``schemas/chrome_trace.schema.json``
uses) rather than pulling in the ``jsonschema`` package.  CI runs this
against the trace produced by the ``repro trace`` smoke step.

Usage::

    python tools/validate_trace.py trace.json \
        [--schema schemas/chrome_trace.schema.json]

Exit status 0 when the document conforms, 1 with one error per line
otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from validate_wire import validate  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Validate a repro Chrome trace export."
    )
    parser.add_argument("trace", type=Path, help="trace JSON file to check")
    parser.add_argument(
        "--schema",
        type=Path,
        default=Path(__file__).resolve().parent.parent
        / "schemas" / "chrome_trace.schema.json",
        help="JSON schema to validate against",
    )
    args = parser.parse_args(argv)

    schema = json.loads(args.schema.read_text(encoding="utf-8"))
    try:
        document = json.loads(args.trace.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        print(f"{args.trace}: not valid JSON: {exc}", file=sys.stderr)
        return 1

    errors = validate(document, schema, schema)
    if errors:
        for error in errors:
            print(f"{args.trace}: {error}", file=sys.stderr)
        print(f"{args.trace}: INVALID ({len(errors)} error(s))",
              file=sys.stderr)
        return 1

    events = document.get("traceEvents", [])
    print(f"{args.trace}: OK ({len(events)} events)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
