"""Reading JSON and JSON-lines files with errors that name the file and line.

Every file is UTF-8.  A file that is not, or that does not parse, raises the
package error the caller names (DataFormatError for JSON lines), never a raw
UnicodeDecodeError or JSONDecodeError.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import DataFormatError, DppnetError


def read_json(path, error: type[DppnetError], parse=lambda value: value):
    """parse(value) of the JSON file at path.

    Invalid UTF-8 or JSON, and a value that parse rejects with a DppnetError
    or TypeError, raise error with a message naming path.
    """
    path = Path(path)
    try:
        value = json.loads(path.read_bytes().decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise error(f"{path}: invalid JSON ({e})") from e
    try:
        return parse(value)
    except (DppnetError, TypeError) as e:
        raise error(f"{path}: {e}") from e


def read_jsonl(path):
    """Yield (line number, object) for each non-blank line of a JSON-lines file.

    A line that is not UTF-8, not JSON or not a JSON object raises
    DataFormatError naming path:line.
    """
    with Path(path).open("rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                rec = json.loads(line)
            except (UnicodeDecodeError, json.JSONDecodeError) as e:
                raise DataFormatError(f"{path}:{lineno}: invalid JSON ({e})") from e
            if not isinstance(rec, dict):
                raise DataFormatError(f"{path}:{lineno}: expected a JSON object")
            yield lineno, rec
