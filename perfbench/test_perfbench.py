"""The benchmark's own tests: every workload at a toy size passes its
checks, and each check fails on a planted wrong answer.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

import csv
import dataclasses
import json
import os
import shutil
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import bench_checks as checks  # noqa: E402
from bench_child import _untraced_baseline  # noqa: E402
import run  # noqa: E402
from bench_trace import PER_LAYER, Tracer  # noqa: E402
from bench_workloads import BulkLaws, ManifoldRmse, SelectCircle  # noqa: E402


def _failing(found):
    return {name for name, msgs in found.items() if msgs}


def _edit_csv(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    fields = list(rows[0])
    edit(rows)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


@pytest.fixture(scope="module")
def circle(tmp_path_factory):
    w = SelectCircle(0, str(tmp_path_factory.mktemp("circle")), n=60, alphas=(0.2, 3.0), reps=10)
    w.warm_up()
    ops = []
    outputs = w.run_round(ops)
    assert len(ops) == w.ops_per_round == 12
    return w, outputs


@pytest.fixture(scope="module")
def bulk(tmp_path_factory):
    w = BulkLaws(
        3, str(tmp_path_factory.mktemp("bulk")), n=60, fast=True, hist_reps=10,
        names=("PhaseSweep", "AccuracyLowSNR", "HistogramBulk", "StieltjesCompare"),
    )
    w.warm_up()
    ops = []
    outputs = w.run_round(ops)
    assert len(ops) == w.ops_per_round == 4
    return w, outputs


@pytest.fixture(scope="module")
def manifold(tmp_path_factory):
    w = ManifoldRmse(5, str(tmp_path_factory.mktemp("manifold")), n=60, reps=2)
    w.warm_up()
    ops = []
    outputs = w.run_round(ops)
    assert len(ops) == 1
    return w, outputs


def test_select_circle_checks_pass(circle):
    w, outputs = circle
    found = w.check(outputs)
    assert "weak/strong omega" in found and len(found) == 3 + 3 * 12 + 1
    assert not _failing(found)


def _plant(outputs, key, **changes):
    thresholds, selections = outputs
    selections = dict(selections)
    selections[key] = dataclasses.replace(selections[key], **changes)
    return thresholds, selections


def test_select_circle_checks_catch_planted_answers(circle):
    w, outputs = circle
    key = (1.0, 3.0, "affinity")
    tag = "c=1 alpha=3 affinity"
    sel = outputs[1][key]
    grid = sel.grid
    i = int(np.flatnonzero(grid == sel.omega)[0])
    shifted = grid[i + 1] if i + 1 < grid.size else grid[i - 1]
    assert "maximiser " + tag in _failing(w.check(_plant(outputs, key, omega=shifted)))
    assert "order statistic " + tag in _failing(w.check(_plant(outputs, key, h=sel.h * (1 + 1e-6))))
    counts = sel.k_per_omega.copy()
    counts[i] += 1
    assert "count " + tag in _failing(w.check(_plant(outputs, key, k_per_omega=counts)))
    weak = (0.5, 0.2, "transition")
    assert "weak/strong omega" in _failing(w.check(_plant(outputs, weak, omega=0.5)))
    thresholds, selections = outputs
    bent = dict(thresholds)
    bent[2.0] *= 1 + 1e-6
    assert "threshold c=2" in _failing(w.check((bent, selections)))


def test_bulk_laws_checks_pass(bulk):
    w, outputs = bulk
    found = w.check(outputs)
    assert len(found) == 4 + 4
    assert not _failing(found)


@pytest.fixture
def bulk_copy(bulk, tmp_path):
    w, outputs = bulk
    dirs = {}
    for cfg in w.configs:
        dirs[cfg.name] = str(tmp_path / cfg.name)
        shutil.copytree(cfg.output_dir, dirs[cfg.name])
    return w, dirs


def _bump(column, factor, pick=lambda row: True):
    def edit(rows):
        for row in rows:
            if pick(row):
                row[column] = repr(float(row[column]) * factor)
    return edit


def test_bulk_laws_checks_catch_planted_answers(bulk_copy):
    w, dirs = bulk_copy
    curves = os.path.join(dirs["AccuracyLowSNR"], "accuracy_low_curves.csv")
    _edit_csv(curves, _bump("limit_mean", 1 + 1e-6, lambda r: r["index"] == "30"))
    assert checks.check_typical_locations(curves, 60, 0.5)
    assert checks.check_digests(dirs["AccuracyLowSNR"])

    hist = os.path.join(dirs["HistogramBulk"], "histogram_bulk.csv")
    _edit_csv(hist, _bump("limit_density", 1 + 1e-6, lambda r: r["c"] == "2"))
    assert checks.check_limit_density(hist, 0.5)

    tracked = os.path.join(dirs["PhaseSweep"], "phase_tracked.csv")
    _edit_csv(tracked, _bump("gram_eig2", 1 + 1e-6))
    assert checks.check_gram_eigs(tracked, w.seed)

    sup = os.path.join(dirs["StieltjesCompare"], "stieltjes_sup.csv")
    _edit_csv(sup, _bump("sup_absdiff", 1 + 1e-6))
    assert checks.check_stieltjes_sup(sup, w.seed, 60, 0.5)

    gp = os.path.join(dirs["HistogramBulk"], "histogram_bulk.gp")
    with open(gp, "a") as fh:
        fh.write("\n")
    assert checks.check_digests(dirs["HistogramBulk"])


def test_manifold_checks_pass(manifold):
    w, outputs = manifold
    found = w.check(outputs)
    assert len(found) == 4
    assert not _failing(found)


def test_manifold_checks_catch_planted_answers(manifold, tmp_path):
    w, outputs = manifold
    out = str(tmp_path / "m")
    shutil.copytree(w.config.output_dir, out)
    clouds = w.clouds()
    omegas = os.path.join(out, "manifold_omegas.csv")
    saved = open(omegas).read()
    _edit_csv(omegas, _bump("omega", 1 + 1e-3, lambda r: r["manifold"] == "kb"))
    assert checks.check_manifold_selections(omegas, clouds)
    with open(omegas, "w") as fh:
        fh.write(saved)
    assert not checks.check_manifold_selections(omegas, clouds)
    _edit_csv(omegas, _bump("h_over_p", 1 + 1e-6, lambda r: r["manifold"] == "m1"))
    assert checks.check_manifold_selections(omegas, clouds)
    assert checks.check_digests(out)

    rmse = os.path.join(out, "manifold_rmse.csv")
    by_kind = {}
    for (kind, _), cloud in sorted(clouds.items()):
        by_kind.setdefault(kind, []).append(cloud)
    _edit_csv(rmse, _bump("rmse_mean", 1 + 1e-3, lambda r: r["variant"] == "theory"))
    assert checks.check_fixed_rmse(rmse, by_kind, 0.5)

    def too_big(rows):
        rows[0]["rmse_mean"] = repr(float(np.sqrt(2.0 / 60)) * 1.01)

    _edit_csv(rmse, too_big)
    assert checks.check_rmse_range(rmse, w.sizes())


def test_tracer_counts_the_scan_and_restores_bindings(tmp_path):
    import glspec.bandwidth

    w = SelectCircle(1, str(tmp_path), n=40, alphas=(1.0,), cs=(1.0,), reps=5)
    before = (np.linalg.eigvalsh, glspec.bandwidth.select_omega)
    tracer = Tracer()
    tracer.install()
    try:
        w.run_round([])
    finally:
        tracer.uninstall()
    assert (np.linalg.eigvalsh, glspec.bandwidth.select_omega) == before
    layers = tracer.summary(1, 0)
    assert set(layers) == {name for name, _ in PER_LAYER}
    assert layers["bandwidth.select_omega.calls"] == 2
    assert layers["bandwidth.eigensolves_per_selection"] == 92
    assert layers["linalg.eigvalsh.calls"] == 2 * 92 + 5
    assert layers["linalg.eigvalsh.n3_sum"] == (2 * 92 + 5) * 40**3
    own = tracer.self_times()
    for idx, span in enumerate(tracer.spans):
        if span[0] == "bandwidth.select_omega":
            # children on one thread do not overlap: self = span - children
            inner = sum(s[3] - s[2] for s in tracer.spans if s[4] == idx)
            assert own[idx] == pytest.approx(span[3] - span[2] - inner, abs=1e-9)
            assert own[idx] > 0


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(HERE, str(tmp_path / "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "select_circle", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


class _YieldingList(list):
    """A span list that hands the interpreter to another thread right after
    each append, where a span's index is taken."""

    def append(self, item):
        super().append(item)
        time.sleep(0)


def test_tracer_keeps_parents_per_thread_under_contention():
    tracer = Tracer()
    tracer.spans = _YieldingList()
    inner = tracer._wrap("inner", lambda: None)
    outer = tracer._wrap("outer", lambda: inner())

    def calls():
        for _ in range(300):
            outer()

    threads = [threading.Thread(target=calls) for _ in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(tracer.spans) == 3 * 300 * 2
    for span in tracer.spans:
        if span[0] == "inner":
            parent = tracer.spans[span[4]]
            assert parent[0] == "outer" and parent[1] == span[1]


_CANNED = {
    "setup_s": 0.5, "rounds": 1, "checks": 1, "correct": True, "attempted": 2, "failed": 0,
    "round_s": [1.0], "timed_s": 1.0, "op_s": [0.4, 0.6], "peak_rss_mb": 50.0,
    "environment": {"cpu_count": 2, "blas": "openblas", "threads": {}},
}


def test_run_all_workloads_gives_each_its_own_budget(monkeypatch, capsys):
    real = run._child
    left = []

    def child(workload, args, out, deadline, setup_only):
        left.append(deadline - time.monotonic())
        if setup_only:  # a real child, with the timeout computed from the deadline
            return real(workload, args, out, deadline, True)
        return dict(_CANNED)

    monkeypatch.setattr(run, "_child", child)
    monkeypatch.setattr(run, "SETUPS", 3)
    assert run.main(["--seed", "0", "--seconds", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result["metrics"]) == {
        "%s.%s" % (w, name) for w in run.WORKLOADS for name, _ in run.END_TO_END
    }
    assert result["attempted"] == 3 * 2 and result["correct"]
    assert len(left) == 3 * 3
    assert all(0 < budget <= run.BUDGET_S for budget in left)


def test_run_stops_a_workload_past_its_deadline():
    args = run.argparse.Namespace(seed=0, seconds=1.0, trace=0)
    with pytest.raises(run.BenchError):
        run._child("select_circle", args, "unused", time.monotonic() - 1.0, True)


def test_trace_overhead_compares_only_the_same_seed_and_sources(tmp_path):
    path = str(tmp_path / "untraced_result.json")
    assert _untraced_baseline(path, 3, "abc") is None
    with open(path, "w") as fh:
        json.dump({"seed": 3, "source_digest": "abc", "round_s": [2.0], "finished_at": 0.0}, fh)
    assert _untraced_baseline(path, 3, "abc")["round_s"] == [2.0]
    assert _untraced_baseline(path, 4, "abc") is None
    assert _untraced_baseline(path, 3, "abd") is None
