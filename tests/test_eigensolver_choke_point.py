"""Every eigensolve in the package goes through ``spectrum.sym_eigs``: no
other module, and no other function of ``spectrum``, may reference a
``linalg.eig*`` routine of numpy or scipy."""

import ast
import os

import glspec

SRC = os.path.dirname(glspec.__file__)


def _eig_references(tree):
    """(line, name) of every ``eig*`` attribute of a ``linalg`` module, under
    any alias, and of every ``eig*`` name imported from one."""
    aliases = {"linalg"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update(a.asname for a in node.names if a.asname and a.name.endswith(".linalg"))
        elif isinstance(node, ast.ImportFrom):
            aliases.update(a.asname for a in node.names if a.asname and a.name == "linalg")
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("eig"):
            base = node.value
            if (isinstance(base, ast.Attribute) and base.attr == "linalg") or (
                isinstance(base, ast.Name) and base.id in aliases
            ):
                found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
            found.extend((node.lineno, a.name) for a in node.names if a.name.startswith("eig"))
    return found


def _sym_eigs_lines(tree):
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == "sym_eigs":
            return range(node.lineno, node.end_lineno + 1)
    raise AssertionError("spectrum.sym_eigs is missing")


def test_only_sym_eigs_calls_an_eigensolver():
    offenders = []
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(SRC, name)) as fh:
            tree = ast.parse(fh.read(), filename=name)
        allowed = _sym_eigs_lines(tree) if name == "spectrum.py" else ()
        offenders += [
            "%s:%d %s" % (name, line, attr)
            for line, attr in _eig_references(tree)
            if line not in allowed
        ]
    assert not offenders, "eigensolver outside spectrum.sym_eigs: %s" % offenders


def test_the_check_sees_each_spelling():
    for source in (
        "import numpy as np\nnp.linalg.eigvalsh(M)",
        "import numpy\nnumpy.linalg.eig(M)",
        "from scipy import linalg\nlinalg.eigh(M)",
        "import scipy.linalg\nscipy.linalg.eigvals(M)",
        "from numpy.linalg import eigvalsh",
        "from scipy.linalg import eigh as solve",
        "import numpy.linalg as la\nla.eigvalsh(M)",
        "from numpy import linalg as nla\nnla.eig(M)",
    ):
        assert _eig_references(ast.parse(source)), source
    assert not _eig_references(ast.parse("import numpy as np\nnp.linalg.norm(v)"))
