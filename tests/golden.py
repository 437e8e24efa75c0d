"""Golden output bytes: the sha256 of every bundled config's CSV and of the collision kernel.

``tests/golden.json`` records, for one numpy build, the CSV digest of each
config in ``scripts/configs/`` run in-process through ``chaodecay.cli.main``,
``simulate`` at one and at two threads, of ``simulate`` on the circle and the
stadium, and of ``peak`` in the ehrenfest and short-time regimes
(``tests/golden_configs/``).  It also records the digest of
`batch_collide`'s five outputs for each shape at scale 1 and 1.5 on one
seeded batch of interior and boundary starts (`kernel_sha256`), so a kernel
byte change shows even at a scale no bundled config uses.  numpy routes some float64 ufuncs to
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
from chaodecay.dynamics import batch_collide
from chaodecay.ensemble import EnsembleSpec, sample_ensemble
from chaodecay.geometry import SHAPES, CavityGeometry

GOLDEN_FILE = Path(__file__).with_name("golden.json")
EXAMPLE_CONFIGS = sorted((Path(__file__).resolve().parents[1] / "scripts" / "configs")
                         .glob("*.json"))
# simulate on the two shapes the bundled configs leave out, and peak in the two
# regimes they leave out
SHAPE_CONFIGS = sorted(Path(__file__).with_name("golden_configs").glob("*.json"))
GOLDEN_CASES = [(path, 1) for path in EXAMPLE_CONFIGS + SHAPE_CONFIGS] + [
    (path, 2) for path in EXAMPLE_CONFIGS if path.name == "simulate.json"]
KERNEL_CASES = [(shape, scale) for shape in SHAPES for scale in (1.0, 1.5)]


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


def kernel_name(shape, scale):
    return f"batch_collide {shape} scale {scale}"


def kernel_sha256(shape, scale):
    """Digest of `batch_collide`'s outputs on 4,096 seeded interior starts and their
    first three hits as boundary starts, one batch of 16,384 rows."""
    g = CavityGeometry(shape, scale=scale)
    pos, dirs = sample_ensemble(g, EnsembleSpec(n_samples=4096, seed=28))
    starts = [(pos, dirs)]
    for _ in range(3):
        starts.append(batch_collide(g, *starts[-1])[2:4])
    outputs = batch_collide(g, *(np.concatenate(part) for part in zip(*starts)))
    return hashlib.sha256(b"".join(out.tobytes() for out in outputs)).hexdigest()


def digests():
    """The CSV digest of every golden case, run now."""
    found = {}
    with tempfile.TemporaryDirectory() as tmp:
        for i, (path, threads) in enumerate(GOLDEN_CASES):
            code, csv_path = run_bundled(path, threads, Path(tmp) / str(i))
            if code != 0:
                sys.exit(f"{case_name(path, threads)} exited with {code}")
            found[case_name(path, threads)] = csv_sha256(csv_path)
    for shape, scale in KERNEL_CASES:
        found[kernel_name(shape, scale)] = kernel_sha256(shape, scale)
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
