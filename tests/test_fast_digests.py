"""The ``--fast`` artifacts of the recipes in ``RECIPES`` keep their bytes.

One child process runs ``glspec run --fast --config`` for each of them under
``OPENBLAS_NUM_THREADS=1``, from a config file holding the recipe's name and
its settings in ``RECIPES``, and the sha256 of every artifact is compared
with ``fast_digests.json``.  The digests hold only for the numpy and BLAS
build that recorded them: on another build the test skips and names both.

A change that moves a digest on purpose refreshes the file with

    PYTHONPATH=src python3 tests/test_fast_digests.py

and says in CHANGES.md which artifacts moved and why.
"""

import ctypes
import glob
import hashlib
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest

import glspec
from glspec.experiments import _environment

# name: config settings besides the name; the three slowest recipes run
# at a smaller n so that all eleven take a few seconds (ZeroingComparison
# at its default c = 2, so p = 30).
RECIPES = {
    "PhaseSweep": {},
    "AccuracyLowSNR": {},
    "AccuracyModerate": {},
    "AccuracyLarge": {},
    "DimensionSweep": {},
    "HistogramBulk": {},
    "OmegaSweep": {"n": 60},
    "ManifoldRmse": {"n": 60, "reps": 1},
    "StieltjesCompare": {},
    "D2Comparison": {},
    "ZeroingComparison": {"n": 60},
}
DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fast_digests.json")
CHILD = """
import os, sys
from glspec.cli import main
for config in sys.argv[2:]:
    name = os.path.splitext(os.path.basename(config))[0]
    out = os.path.join(sys.argv[1], name)
    main(["run", "--config", config, "--out", out, "--fast"], standalone_mode=False)
"""


def _openblas_core():
    """The kernel family numpy's bundled OpenBLAS picked for this CPU, or
    None when there is no such library to ask."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename"):
            corename = getattr(lib, name, None)
            if corename is not None:
                corename.restype = ctypes.c_char_p
                return corename().decode()
    return None


def _build():
    """What the artifact bytes depend on besides the source."""
    env = _environment()
    return {
        "numpy": env["numpy"],
        "blas": env["blas"],
        "blas_core": _openblas_core(),
        "OPENBLAS_NUM_THREADS": "1",
    }


def _generate(out):
    """Run every recipe of ``RECIPES`` into its own directory under ``out``."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(glspec.__file__)))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=path)
    with tempfile.TemporaryDirectory() as configs:
        paths = []
        for name, settings in RECIPES.items():
            paths.append(os.path.join(configs, name + ".cfg"))
            with open(paths[-1], "w") as fh:
                fh.write("name = %s\n" % name)
                fh.writelines("%s = %s\n" % item for item in settings.items())
        subprocess.run(
            [sys.executable, "-c", CHILD, out, *paths],
            env=env, check=True, capture_output=True, timeout=600,
        )


def _digests(out):
    """sha256 of every file under ``out`` but the manifests, by relative path."""
    found = {}
    for root, _, names in os.walk(out):
        for name in names:
            if name != "manifest.json":
                path = os.path.join(root, name)
                with open(path, "rb") as fh:
                    found[os.path.relpath(path, out)] = hashlib.sha256(fh.read()).hexdigest()
    return found


def _mismatches(recorded, found):
    """Artifacts changed, missing or new, by name."""
    return sorted(k for k in set(recorded) | set(found) if recorded.get(k) != found.get(k))


def test_fast_artifacts_keep_their_digests(tmp_path):
    with open(DIGESTS) as fh:
        recorded = json.load(fh)
    build = _build()
    if recorded["build"] != build:
        pytest.skip("digests recorded under %s; this is %s" % (recorded["build"], build))
    assert recorded["recipes"] == RECIPES, "digests recorded for other settings"
    _generate(str(tmp_path))
    moved = _mismatches(recorded["artifacts"], _digests(str(tmp_path)))
    assert not moved, "artifacts whose sha256 moved: %s" % ", ".join(moved)


def test_a_one_byte_change_is_named(tmp_path):
    for name in ("A/a.csv", "B/b.gp"):
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text("x,y\n1,2\n")
    (tmp_path / "A" / "manifest.json").write_text("{}\n")
    recorded = _digests(str(tmp_path))
    assert sorted(recorded) == ["A/a.csv", "B/b.gp"]
    (tmp_path / "B" / "b.gp").write_text("x,y\n1,3\n")
    assert _mismatches(recorded, _digests(str(tmp_path))) == ["B/b.gp"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as out:
        _generate(out)
        payload = {"build": _build(), "recipes": RECIPES, "artifacts": _digests(out)}
    with open(DIGESTS, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
