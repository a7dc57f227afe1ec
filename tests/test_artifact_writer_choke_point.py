"""Recipes in ``glspec.experiments`` return their tables; ``run`` is the only
code there that joins a path under the output directory or writes an
artifact.  Writers, digests and path joins may be called only inside
``run``; files may be opened only by ``run``, the gnuplot writer, the
digest and the config-file reader.  No function takes an output directory
named ``out``.  The compute modules below the recipes open and write no
file at all."""

import ast
import importlib
import os

import pytest

import glspec.experiments

WRITERS = {"write_csv", "write_json", "_write_gnuplot", "_sha256"}
JOINS = {"os.path.join", "path.join", "join"}
WRITER_HOMES = {"run"}
OPEN_HOMES = {"run", "_write_gnuplot", "_sha256", "parse_config_file"}
COMPUTE = ("kernels", "mplaw", "spectrum", "bandwidth", "approximants")
FILE_CALLS = {"open", "write_csv", "write_json", "savez", "savetxt"}


def _dotted(node):
    """``a.b.c`` for a chain of names and attributes, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        inner = _dotted(node.value)
        return None if inner is None else inner + "." + node.attr
    return None


def _homes(tree):
    """Line ranges of every module-level function and class method, by
    qualified name."""
    ranges = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            ranges[node.name] = (node.lineno, node.end_lineno)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    ranges[node.name + "." + item.name] = (item.lineno, item.end_lineno)
    return ranges


def _violations(tree):
    """``line: reason`` for each banned call or parameter in ``tree``."""
    ranges = _homes(tree)

    def inside(line, homes):
        return any(lo <= line <= hi for name, (lo, hi) in ranges.items() if name in homes)

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = _dotted(node.func)
            if name is None:
                continue
            last = name.rsplit(".", 1)[-1]
            if (last in WRITERS or name in JOINS) and not inside(node.lineno, WRITER_HOMES):
                found.append("%d: %s outside run" % (node.lineno, name))
            elif last == "open" and not inside(node.lineno, OPEN_HOMES):
                found.append("%d: %s outside %s" % (node.lineno, name, sorted(OPEN_HOMES)))
        elif isinstance(node, (ast.FunctionDef, ast.Lambda)):
            args = node.args
            names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            if "out" in names:
                found.append("%d: parameter out" % node.lineno)
    return found


def _parse(module):
    with open(module.__file__) as fh:
        return ast.parse(fh.read(), filename=os.path.basename(module.__file__))


def test_only_run_writes_artifacts():
    tree = _parse(glspec.experiments)
    assert not _violations(tree)
    assert "run" in _homes(tree)


def _file_calls(tree):
    """The names of ``FILE_CALLS`` that ``tree`` calls, in any spelling."""
    names = {_dotted(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    return {name.rsplit(".", 1)[-1] for name in names if name} & FILE_CALLS


@pytest.mark.parametrize("name", COMPUTE)
def test_compute_modules_touch_no_files(name):
    assert not _file_calls(_parse(importlib.import_module("glspec." + name)))


def test_the_file_check_sees_each_writer():
    source = (
        "def f(path, eigs):\n"
        "    with io.open(path) as fh:\n"
        "        fh.read()\n"
        "    datagen.write_json(path, {})\n"
        "    write_csv(path, [], [])\n"
        "    np.savez(path, eigs=eigs)\n"
    )
    assert _file_calls(ast.parse(source)) == {"open", "write_json", "write_csv", "savez"}


def test_the_check_sees_each_spelling():
    for source in (
        'write_csv(os.path.join(out, "a.csv"), header, rows)',
        'def _run_x(cfg, fast):\n    datagen.write_csv(path, header, rows)',
        'def _run_x(cfg, fast):\n    _write_gnuplot(path, lines)',
        'def _run_x(cfg, fast):\n    write_json(path, payload)',
        'def _accuracy_recipe(cfg, fast):\n    return _sha256(path)',
        'def _run_x(cfg, fast):\n    return os.path.join(cfg.output_dir, "a.csv")',
        'def _run_x(cfg, fast):\n    return path.join(cfg.output_dir, "a.csv")',
        'def _run_x(cfg, fast):\n    return join(cfg.output_dir, "a.csv")',
        'def _run_x(cfg, fast):\n    open(path, "w").write(text)',
        'def _run_x(cfg, fast):\n    io.open(path, "w").write(text)',
        'def _run_x(cfg, fast, out):\n    return {}',
        'def _run_x(cfg, fast, *, out=None):\n    return {}',
        'class RunManifest:\n    def save(self, path):\n        open(path, "w")',
    ):
        assert _violations(ast.parse(source)), source
    for source in (
        'def run(config):\n    write_csv(os.path.join(out, "a.csv"), header, rows)',
        'def run(config):\n    def inner():\n        _sha256(path)',
        'def run(config):\n    write_json(manifest_path, asdict(manifest))',
        'def _write_gnuplot(path, lines):\n    open(path, "w")',
        'def _run_x(cfg, fast):\n    return ",".join(names), sep.join(names)',
    ):
        assert not _violations(ast.parse(source)), source
