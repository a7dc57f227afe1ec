"""Importing a module of the package loads only the package modules it
uses: the package root re-exports nothing, so ``import glspec.datagen``
does not compile the recipes."""

import json
import os
import subprocess
import sys

import pytest

import glspec

SRC = os.path.dirname(os.path.dirname(glspec.__file__))


def _glspec_modules_after(module):
    """Sorted ``glspec`` modules a fresh interpreter holds after importing
    ``module``."""
    code = (
        "import json, sys\n"
        "import %s\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'glspec')))"
        % module
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(done.stdout)


@pytest.mark.parametrize(
    "module, uses",
    [
        ("datagen", []),
        ("spectrum", ["kernels", "mplaw"]),
        ("bandwidth", ["kernels", "mplaw", "spectrum"]),
    ],
    ids=["datagen", "spectrum", "bandwidth"],
)
def test_a_module_loads_only_what_it_uses(module, uses):
    want = sorted(["glspec", "glspec." + module] + ["glspec." + m for m in uses])
    assert _glspec_modules_after("glspec." + module) == want
