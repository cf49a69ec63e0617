"""The one format of every JSON artifact.

Each `to_json` renders its payload here: one line of compact JSON with
sorted keys and a trailing newline. Without `indent`, `json` runs its C
encoder; `python -m json.tool` prints a file indented for reading.

`layout.json` is the one artifact assembled from fragments: a per-port-set
table of `json_fragment` strings holds each block's constant members, so its
tens of thousands of blocks need no dict each. Tests check it byte for byte
against `render_json` of the full payload.
"""

from __future__ import annotations

import json
from typing import Any


def json_fragment(payload: Any) -> str:
    """`payload` as `render_json` writes it, without the newline."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def render_json(payload: Any) -> str:
    return json_fragment(payload) + "\n"
