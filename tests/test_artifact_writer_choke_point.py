"""Recipes in ``glspec.experiments`` return their tables; ``run`` is the only
code there that joins a path under the output directory or writes an
artifact.  Writers, digests and path joins may be called only inside
``run``; files may be opened only by ``run``, the manifest saver, the
gnuplot writer, the digest and the config-file reader.  No function takes
an output directory named ``out``."""

import ast
import os

import glspec.experiments

WRITERS = {"write_csv", "_write_gnuplot", "_sha256"}
JOINS = {"os.path.join", "path.join", "join"}
WRITER_HOMES = {"run"}
OPEN_HOMES = {"run", "RunManifest.save", "_write_gnuplot", "_sha256", "parse_config_file"}


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


def test_only_run_writes_artifacts():
    path = glspec.experiments.__file__
    with open(path) as fh:
        tree = ast.parse(fh.read(), filename=os.path.basename(path))
    assert not _violations(tree)
    assert "run" in _homes(tree)


def test_the_check_sees_each_spelling():
    for source in (
        'write_csv(os.path.join(out, "a.csv"), header, rows)',
        'def _run_x(cfg, fast):\n    datagen.write_csv(path, header, rows)',
        'def _run_x(cfg, fast):\n    _write_gnuplot(path, lines)',
        'def _accuracy_recipe(cfg, fast):\n    return _sha256(path)',
        'def _run_x(cfg, fast):\n    return os.path.join(cfg.output_dir, "a.csv")',
        'def _run_x(cfg, fast):\n    return path.join(cfg.output_dir, "a.csv")',
        'def _run_x(cfg, fast):\n    return join(cfg.output_dir, "a.csv")',
        'def _run_x(cfg, fast):\n    open(path, "w").write(text)',
        'def _run_x(cfg, fast):\n    io.open(path, "w").write(text)',
        'def _run_x(cfg, fast, out):\n    return {}',
        'def _run_x(cfg, fast, *, out=None):\n    return {}',
        'class RunManifest:\n    def dump(self, path):\n        open(path, "w")',
    ):
        assert _violations(ast.parse(source)), source
    for source in (
        'def run(config):\n    write_csv(os.path.join(out, "a.csv"), header, rows)',
        'def run(config):\n    def inner():\n        _sha256(path)',
        'class RunManifest:\n    def save(self, path):\n        open(path, "w")',
        'def _run_x(cfg, fast):\n    return ",".join(names), sep.join(names)',
    ):
        assert not _violations(ast.parse(source)), source
