"""The one format of every JSON artifact.

Each `to_json` renders its payload here: one line of compact JSON with
sorted keys and a trailing newline. Without `indent`, `json` runs its C
encoder; `python -m json.tool` prints a file indented for reading.

`layout.json` is the one artifact assembled from fragments: a per-port-set
table of `json_fragment` strings holds each block's constant members, so its
blocks (up to 1,651 in the benchmark's layouts) need no dict each, which
halves the time to write it. Tests check it byte for byte against
`render_json` of the full payload.

`json_field` and `json_ints` read members of a parsed JSON input back,
raising a `ValueError` that names the field when one is missing or of the
wrong type. No input field is a boolean, so `true` and `false` are
rejected even where an integer is expected (`bool` subclasses `int`).
"""

from __future__ import annotations

import json
from typing import Any


def json_fragment(payload: Any) -> str:
    """`payload` as `render_json` writes it, without the newline."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def render_json(payload: Any) -> str:
    return json_fragment(payload) + "\n"


def json_field(obj: Any, name: str, kind: type, error: type[ValueError] = ValueError) -> Any:
    """Member `name` of the JSON object `obj`, which must be a `kind`."""
    if not isinstance(obj, dict) or name not in obj:
        raise error(f"expected a JSON object with field {name!r}")
    value = obj[name]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise error(f"field {name!r} must be of type {kind.__name__}, got {value!r}")
    return value


def json_ints(obj: Any, name: str, error: type[ValueError] = ValueError) -> list[int]:
    """Member `name` of the JSON object `obj`, which must be a list of integers."""
    values = json_field(obj, name, list, error)
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in values):
        raise error(f"field {name!r} must hold integers, got {values!r}")
    return values
