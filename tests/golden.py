"""Golden output bytes: the sha256 of every bundled config's CSV.

``tests/golden.json`` records, for one numpy build, the CSV digest of each
config in ``scripts/configs/`` run in-process through ``chaodecay.cli.main``,
``simulate`` at one and at two threads, and of ``simulate`` on the circle and
the stadium (``tests/golden_configs/``).  numpy routes some float64 ufuncs to
CPU-specific SIMD code, so the file is keyed on numpy's version and on the
dispatch targets this CPU supports; the test skips on any other key.

An intended byte change rewrites the file in the same change, with its cause
in CHANGES.md::

    PYTHONPATH=src python tests/golden.py --check   # list the cases that moved
    PYTHONPATH=src python tests/golden.py           # rewrite the file
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from chaodecay.cli import main

GOLDEN_FILE = Path(__file__).with_name("golden.json")
EXAMPLE_CONFIGS = sorted((Path(__file__).resolve().parents[1] / "scripts" / "configs")
                         .glob("*.json"))
# simulate on the two shapes the bundled configs leave out
SHAPE_CONFIGS = sorted(Path(__file__).with_name("golden_configs").glob("*.json"))
GOLDEN_CASES = [(path, 1) for path in EXAMPLE_CONFIGS + SHAPE_CONFIGS] + [
    (path, 2) for path in EXAMPLE_CONFIGS if path.name == "simulate.json"]


def case_name(path, threads):
    return f"{path.name} --threads {threads}"


def numpy_key():
    """numpy's version and the SIMD dispatch targets it can use on this CPU."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    targets = [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]
    return {"numpy": np.__version__, "cpu_dispatch": " ".join(targets)}


def run_bundled(path, threads, out):
    """Run a bundled config through ``main``; (exit code, path of its CSV)."""
    command = json.loads(path.read_text())["command"]
    code = main([command, "--config", str(path), "--out", str(out),
                 "--threads", str(threads)])
    return code, Path(out) / f"{command}.csv"


def csv_sha256(csv_path):
    return hashlib.sha256(Path(csv_path).read_bytes()).hexdigest()


def digests():
    """The CSV digest of every golden case, run now."""
    found = {}
    with tempfile.TemporaryDirectory() as tmp:
        for i, (path, threads) in enumerate(GOLDEN_CASES):
            code, csv_path = run_bundled(path, threads, Path(tmp) / str(i))
            if code != 0:
                sys.exit(f"{case_name(path, threads)} exited with {code}")
            found[case_name(path, threads)] = csv_sha256(csv_path)
    return found


def check():
    """Print each case whose digest differs from the recorded one; write nothing."""
    recorded = json.loads(GOLDEN_FILE.read_text())
    if recorded["key"] != numpy_key():
        print(f"recorded for {recorded['key']}, running on {numpy_key()}")
    moved = {name: digest for name, digest in digests().items()
             if recorded["sha256"].get(name) != digest}
    for name, digest in moved.items():
        print(f"{name}: {recorded['sha256'].get(name)} -> {digest}")
    return 1 if moved else 0


def record():
    doc = {"key": numpy_key(), "sha256": digests()}
    GOLDEN_FILE.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        sys.exit(check())
    record()
