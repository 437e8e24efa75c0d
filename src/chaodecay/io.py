"""Atomic CSV/JSON emission with reproducible manifests.

A CSV is written from a table: an ordered dict that maps each column name to a
1-D array or list, or to a scalar for a one-row table.  Each value is spelled
by ``repr``: the shortest decimal that reads back to the same float, ``inf``
and ``-inf`` for the infinities, and integers without a decimal point.  Above
the header, a data file carries a ``#``-prefixed JSON line with everything
needed to reproduce it -- but deliberately no wall-clock, so a rerun with the
same config and seed is byte-identical.  The wall-clock lives only in the
standalone ``manifest.json``.  All writes go through a temp file in the target
directory followed by an atomic rename: an interrupted run never leaves a
partial file at the final path.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from contextlib import contextmanager
from datetime import datetime, timezone

import numpy as np

from .errors import InputOutputError

__all__ = ["atomic_open", "write_csv", "write_manifest"]


@contextmanager
def atomic_open(path: str):
    """Text handle on a temp file in path's directory, renamed onto path on success."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
        try:
            with os.fdopen(fd, "w") as handle:
                yield handle
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


def write_csv(path: str, table: dict, manifest_line: dict | None = None) -> None:
    """CSV of ``table``, one column per entry, below an optional JSON manifest line."""
    columns = [np.atleast_1d(column).tolist() for column in table.values()]
    if len({len(column) for column in columns}) > 1:
        lengths = {name: len(column) for name, column in zip(table, columns)}
        raise ValueError(f"table columns differ in length: {lengths}")
    with atomic_open(path) as handle:
        if manifest_line is not None:
            handle.write("# " + json.dumps(_jsonable(manifest_line), sort_keys=True) + "\n")
        handle.write(",".join(table) + "\n")
        # row by row, so no table's whole text is held in memory at once
        for row in zip(*(map(repr, column) for column in columns)):
            handle.write(",".join(row) + "\n")


def write_manifest(path: str, manifest: dict) -> None:
    payload = _jsonable(manifest)
    payload.setdefault(
        "wall_clock_utc", datetime.now(timezone.utc).isoformat(timespec="seconds")
    )
    with atomic_open(path) as handle:
        handle.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
