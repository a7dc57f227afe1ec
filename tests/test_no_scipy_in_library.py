"""The package imports no scipy: it is a test-only dependency, the
reference the tests and the benchmark checks compare against, and importing
``scipy.linalg`` costs more start-up time than the package itself."""

import ast
import os

import glspec

SRC = os.path.dirname(glspec.__file__)


def _scipy_imports(tree):
    """Line numbers of every ``import scipy...`` and ``from scipy... import``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name == "scipy" or a.name.startswith("scipy.") for a in node.names):
                found.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            module = node.module or ""
            if module == "scipy" or module.startswith("scipy."):
                found.append(node.lineno)
    return found


def test_the_package_imports_no_scipy():
    offenders = []
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(SRC, name)) as fh:
            tree = ast.parse(fh.read(), filename=name)
        offenders += ["%s:%d" % (name, line) for line in _scipy_imports(tree)]
    assert not offenders, "scipy imported in the package: %s" % offenders


def test_the_check_sees_each_spelling():
    for source in (
        "import scipy",
        "import scipy.linalg",
        "import numpy, scipy.special as sp",
        "from scipy import linalg",
        "from scipy.linalg import eigh",
        "def f():\n    import scipy.optimize\n",
    ):
        assert _scipy_imports(ast.parse(source)), source
    for source in ("import scipyx", "from .scipy import x", "import numpy.linalg"):
        assert not _scipy_imports(ast.parse(source)), source
