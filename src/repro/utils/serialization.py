"""JSON serialization helpers for profile databases and trained models.

NumPy scalars/arrays are converted to plain Python types so that the output
is portable JSON; loading reconstructs arrays where the schema expects them.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np

__all__ = ["SerializationError", "to_jsonable", "dump_json", "load_json"]


class SerializationError(ValueError):
    """A file on disk could not be parsed as the expected JSON artifact.

    Subclasses :class:`ValueError` so existing ``except ValueError``
    error handling (e.g. the CLI's top-level handler) keeps working, but
    the message always names the offending path — a truncated profile
    database or predictor bundle must never surface as a bare
    ``JSONDecodeError`` with no hint of *which* file is corrupt.
    """


def to_jsonable(obj: Any) -> Any:
    """Recursively convert ``obj`` into JSON-serializable primitives."""
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        if hasattr(obj, "to_dict"):  # a tuple-based record, e.g. Resolution
            return to_jsonable(obj.to_dict())
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    if hasattr(obj, "to_dict"):
        return to_jsonable(obj.to_dict())
    raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def dump_json(obj: Any, path: str | Path) -> None:
    """Serialize ``obj`` to compact, key-sorted JSON at ``path`` (parent dirs created).

    No indentation: a predictor bundle is three-quarters whitespace when
    indented, and the serving process reads the whole text into memory.
    :func:`load_json` still reads indented files.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(to_jsonable(obj), sort_keys=True, separators=(",", ":"))
    )


def load_json(path: str | Path) -> Any:
    """Load JSON from ``path``.

    A truncated or otherwise corrupt file raises
    :class:`SerializationError` naming the path instead of a bare
    :class:`json.JSONDecodeError`.
    """
    path = Path(path)
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise SerializationError(f"{path}: invalid or truncated JSON ({exc})") from exc
