"""Every number the package writes as text takes its format from
``datagen._fmt``: no other code in ``src/glspec`` may spell the 17-digit
``g`` format, whether as a ``%`` template, a ``format`` spec or an f-string."""

import ast
import os

import glspec

SRC = os.path.dirname(glspec.__file__)


def _format_spellings(tree):
    """Lines of string constants holding the 17-digit ``g`` format outside a
    function named ``_fmt``."""
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "_fmt":
            allowed.update(range(node.lineno, node.end_lineno + 1))
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and ".17g" in node.value
        and node.lineno not in allowed
    ]


def test_only_fmt_spells_the_number_format():
    offenders, homes = [], []
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(SRC, name)) as fh:
            tree = ast.parse(fh.read(), filename=name)
        offenders += ["%s:%d" % (name, line) for line in _format_spellings(tree)]
        homes += [name for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef) and node.name == "_fmt"]
    assert not offenders, "number format outside datagen._fmt: %s" % offenders
    assert homes == ["datagen.py"]


def test_the_check_sees_each_spelling():
    for source in (
        'fh.write("%d,%.17g\\n" % (i, v))',
        '",".join("%.17g" % v for v in row)',
        '"{:.17g}".format(v)',
        'f"{v:.17g}"',
        'def _fmtx(v):\n    return "%.17g" % v',
    ):
        assert _format_spellings(ast.parse(source)), source
    assert not _format_spellings(ast.parse('def _fmt(v):\n    return "%.17g" % v'))
    assert not _format_spellings(ast.parse('"%.6g" % v'))
