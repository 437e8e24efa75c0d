"""Atomic CSV/JSON emission with reproducible manifests.

Data files carry a ``#``-prefixed JSON line above the header with everything
needed to reproduce them -- but deliberately no wall-clock, so a rerun with
the same config and seed is byte-identical.  The wall-clock lives only in the
standalone ``manifest.json``.  All writes go through a temp file in the target
directory followed by an atomic rename: an interrupted run never leaves a
partial file at the final path.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from datetime import datetime, timezone

import numpy as np

from .errors import InputOutputError

__all__ = ["format_float", "atomic_write_text", "write_csv", "write_manifest"]


def format_float(x) -> str:
    """Shortest decimal string that round-trips to the same float."""
    if isinstance(x, (float, np.floating)):
        x = float(x)
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return repr(x)
    return str(x)


def atomic_write_text(path: str, text: str) -> None:
    """Write text to path via temp-file-then-rename in the same directory."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise InputOutputError(f"cannot write {path}: {exc}") from exc


def _jsonable(obj):
    """``obj`` with every infinite float spelled ``"inf"`` or ``"-inf"``: JSON has no infinity."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    return obj


def write_csv(path: str, header: list[str], rows, manifest_line: dict | None = None) -> None:
    """Comma-separated values with optional embedded JSON manifest line."""
    lines = []
    if manifest_line is not None:
        lines.append("# " + json.dumps(_jsonable(manifest_line), sort_keys=True))
    lines.append(",".join(header))
    for row in rows:
        if len(row) != len(header):
            raise ValueError(f"row width {len(row)} != header width {len(header)}")
        lines.append(",".join(format_float(v) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_manifest(path: str, manifest: dict) -> None:
    payload = _jsonable(manifest)
    payload.setdefault(
        "wall_clock_utc", datetime.now(timezone.utc).isoformat(timespec="seconds")
    )
    atomic_write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")
