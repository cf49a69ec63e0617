"""The one format of every JSON artifact.

Each `to_json` renders its payload here: one line of compact JSON with
sorted keys and a trailing newline. Without `indent`, `json` runs its C
encoder; `python -m json.tool` prints a file indented for reading.
"""

from __future__ import annotations

import json
from typing import Any


def render_json(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
