import dataclasses
import hashlib
import json
import os
import re
import weakref

import numpy as np
import pytest

import glspec.experiments as experiments
from glspec import _scanpool
from glspec.approximants import w_a1
from glspec.datagen import gen_spiked
from glspec.experiments import (
    DEFAULT_SEEDS,
    EXPERIMENT_NAMES,
    ExperimentConfig,
    parse_config_file,
    run,
)
from glspec.kernels import affinity, pairwise_sq_dists
from glspec.spectrum import sym_eigs

from test_fast_digests import RECIPES


def _load_named_csv(path):
    return np.genfromtxt(path, delimiter=",", skip_header=1, dtype=None, encoding="utf-8")


def test_experiment_names_enumeration():
    assert len(EXPERIMENT_NAMES) == 11
    assert len(set(EXPERIMENT_NAMES)) == 11
    assert "PhaseSweep" in EXPERIMENT_NAMES
    assert "D2Comparison" in EXPERIMENT_NAMES
    assert "ZeroingComparison" in EXPERIMENT_NAMES


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(name="NoSuchExperiment").validate()
    with pytest.raises(ValueError):
        ExperimentConfig(name="PhaseSweep", n=1).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(name="PhaseSweep", upsilon=0.0).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(name="PhaseSweep", seeds=()).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(name="PhaseSweep", alpha_base="q").validate()
    for bad, pattern in (
        ({"reps": 0}, "reps"),
        ({"reps": -3}, "reps"),
        ({"c_grid": (0,)}, "c_grid"),
        ({"c_grid": (1.0, -0.5)}, "c_grid"),
        ({"c_grid": ()}, "c_grid"),
        ({"alpha_grid": ()}, "alpha_grid"),
        ({"seeds": (0, -1)}, "seeds"),
        # a fractional seed would draw int(seed)'s clouds under its own label
        ({"seeds": (0.5,)}, "seeds must be integers"),
        ({"seeds": (0, 1.0)}, "seeds must be integers"),
        ({"seeds": (2, np.float64(3.0))}, "seeds must be integers"),
    ):
        with pytest.raises(ValueError, match=pattern):
            ExperimentConfig(name="HistogramBulk", **bad).validate()
    # a value of the wrong type is refused by name, not left to fail inside run()
    for name, bad, pattern in (
        ("HistogramBulk", {"n": 20.0}, "n must be an integer >= 2"),
        ("HistogramBulk", {"reps": 2.5}, "reps must be an integer >= 1"),
        ("HistogramBulk", {"upsilon": "0.5"}, "upsilon"),
        ("HistogramBulk", {"c_grid": 2.0}, "c_grid must hold positive finite numbers"),
        ("HistogramBulk", {"c_grid": "2"}, "c_grid"),
        ("HistogramBulk", {"c_grid": (1.0, None)}, "c_grid"),
        ("HistogramBulk", {"seeds": 3}, "seeds must be integers"),
        ("OmegaSweep", {"alpha_grid": 0.5}, "alpha_grid must hold finite numbers"),
    ):
        with pytest.raises(ValueError, match=pattern):
            ExperimentConfig(name=name, **bad).validate()
    cfg = ExperimentConfig(name="PhaseSweep").validate()
    assert cfg.seeds == DEFAULT_SEEDS
    assert ExperimentConfig(name="StieltjesCompare", seeds=(0, np.int64(3))).validate()


def test_config_to_dict_is_json_ready():
    cfg = ExperimentConfig(name="OmegaSweep", c_grid=(0.5, 1.0), alpha_grid=(0.2, 3.0))
    d = cfg.to_dict()
    json.dumps(d)
    assert d["name"] == "OmegaSweep"
    assert d["c_grid"] == [0.5, 1.0]
    assert d["alpha_grid"] == [0.2, 3.0]
    assert d["seeds"] == list(DEFAULT_SEEDS)


def test_parse_config_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "# comment line\n"
        "name = OmegaSweep\n"
        "n = 120\n"
        "c_grid = 0.5, 1.0   # trailing comment\n"
        "alpha_grid = 0.2, 3.0\n"
        "seeds = 0, 7\n"
        "upsilon = 0.5\n"
        "output_dir = somewhere\n"
        "alpha_base = n\n"
    )
    cfg = parse_config_file(path)
    assert cfg.name == "OmegaSweep"
    assert cfg.n == 120
    assert cfg.c_grid == (0.5, 1.0)
    assert cfg.alpha_grid == (0.2, 3.0)
    assert cfg.seeds == (0, 7)
    assert cfg.output_dir == "somewhere"
    assert cfg.alpha_base == "n"
    # the field the file above leaves out, and the echo of every field
    other = tmp_path / "other.cfg"
    other.write_text("name = HistogramBulk\nc_grid = 2\nreps = 7\nupsilon = 2\n")
    cfg = parse_config_file(other)
    assert (cfg.c_grid, cfg.reps, cfg.upsilon) == ((2,), 7, 2.0)
    assert isinstance(cfg.upsilon, float)
    d = cfg.to_dict()
    assert set(d) == {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert (d["c_grid"], d["reps"], d["seeds"]) == ([2], 7, list(DEFAULT_SEEDS))


def test_parse_config_file_default_name_and_errors(tmp_path):
    bare = tmp_path / "bare.cfg"
    bare.write_text("n = 50\n")
    with pytest.raises(ValueError):
        parse_config_file(bare)
    cfg = parse_config_file(bare, name="PhaseSweep")
    assert cfg.name == "PhaseSweep"
    bad_key = tmp_path / "bad.cfg"
    bad_key.write_text("name = PhaseSweep\nbandwidth = 3\n")
    with pytest.raises(ValueError):
        parse_config_file(bad_key)
    bad_line = tmp_path / "line.cfg"
    bad_line.write_text("name PhaseSweep\n")
    with pytest.raises(ValueError):
        parse_config_file(bad_line)
    empty_grid = tmp_path / "empty.cfg"
    empty_grid.write_text("name = HistogramBulk\nc_grid =\n")
    with pytest.raises(ValueError, match="c_grid"):
        parse_config_file(empty_grid)


def test_run_rejects_unknown_name(tmp_path):
    with pytest.raises(ValueError):
        run(ExperimentConfig(name="Nope", output_dir=str(tmp_path)))


def test_phase_sweep_manifest_and_artifacts(tmp_path):
    out = str(tmp_path / "phase")
    manifest = run(ExperimentConfig(name="PhaseSweep", output_dir=out), fast=True)
    assert manifest["experiment"] == "PhaseSweep"
    assert manifest["fast"] is True
    assert manifest["wall_clock_s"] >= 0.0
    assert manifest["config"]["name"] == "PhaseSweep"
    names = {entry["path"] for entry in manifest["files"]}
    assert names == {"phase_eigencurves.csv", "phase_tracked.csv", "phase_sweep.gp"}
    for entry in manifest["files"]:
        full = os.path.join(out, entry["path"])
        assert os.path.exists(full)
        with open(full, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        assert digest == entry["sha256"]
    # the manifest is written last and echoes itself on disk
    with open(os.path.join(out, "manifest.json")) as fh:
        payload = json.load(fh)
    assert payload["experiment"] == "PhaseSweep"
    assert payload["files"] == manifest["files"]
    # gnuplot preamble
    gp = (tmp_path / "phase" / "phase_sweep.gp").read_text()
    assert gp.startswith("set datafile separator ','")


def test_phase_sweep_eigencurves_follow_c_grid(tmp_path):
    out = str(tmp_path)
    manifest = run(
        ExperimentConfig(name="PhaseSweep", n=60, c_grid=(2.0,), alpha_grid=(0.0, 1.5),
                         output_dir=out),
        fast=True,
    )
    assert manifest["resolved"]["curve_p"] == [30]
    assert manifest["resolved"]["tracked_p"] == [100]
    with open(os.path.join(out, "phase_eigencurves.csv")) as fh:
        header = fh.readline().strip().split(",")
    assert header == ["index", "c2_alpha_0", "c2_alpha_1.5"]
    curves = np.loadtxt(os.path.join(out, "phase_eigencurves.csv"), delimiter=",", skiprows=1)
    # alpha = 0 is lambda = 1 at n = 60, p = 30, bandwidth h = p
    cloud = gen_spiked(60, 30, (1.0,), 0)
    W = affinity(pairwise_sq_dists(cloud.noisy()), 0.5, 30.0)
    assert np.array_equal(curves[:, 1], sym_eigs(W))


def test_rerun_reproduces_artifact_bytes(tmp_path):
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    run(ExperimentConfig(name="PhaseSweep", output_dir=out_a), fast=True)
    run(ExperimentConfig(name="PhaseSweep", output_dir=out_b), fast=True)
    for name in ("phase_eigencurves.csv", "phase_tracked.csv", "phase_sweep.gp"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b


@pytest.mark.parametrize(
    "bad",
    [{"upsilon": float("nan")}, {"upsilon": float("inf")}, {"c_grid": (1.0, float("nan"))},
     {"c_grid": (float("inf"),)}, {"alpha_grid": (0.2, float("nan"))},
     {"alpha_grid": (float("-inf"),)}],
    ids=["nan-upsilon", "inf-upsilon", "nan-c", "inf-c", "nan-alpha", "inf-alpha"],
)
def test_validate_refuses_non_finite_numbers(tmp_path, bad):
    name = "PhaseSweep" if "alpha_grid" in bad else "AccuracyLowSNR"
    out = tmp_path / "out"
    cfg = ExperimentConfig(name=name, output_dir=str(out), **bad)
    with pytest.raises(ValueError, match="finite"):
        cfg.validate()
    with pytest.raises(ValueError, match="finite"):
        run(cfg, fast=True)
    assert not out.exists()


@pytest.mark.parametrize("name", ["AccuracyLowSNR", "HistogramBulk", "OmegaSweep"])
def test_a_c_that_rounds_p_to_zero_is_refused(tmp_path, name):
    out = tmp_path / "out"
    cfg = ExperimentConfig(name=name, n=200, c_grid=(1.0, 1000.0), output_dir=str(out))
    message = r"%s needs n >= \d+ and p >= \d+; c = 1000 at n = 200 gives p = round\(n/c\) = 0$"
    with pytest.raises(ValueError, match=message % name):
        run(cfg, fast=True)
    # the recipe raises before run() touches the output directory
    assert not out.exists()


def test_failed_rerun_leaves_no_manifest(tmp_path):
    out = str(tmp_path)
    run(ExperimentConfig(name="AccuracyLarge", n=40, seeds=(0, 1), output_dir=out), fast=True)
    assert os.path.exists(os.path.join(out, "manifest.json"))
    summary = os.path.join(out, "accuracy_large_summary.csv")
    os.remove(summary)
    os.mkdir(summary)
    with pytest.raises(OSError) as info:
        run(ExperimentConfig(name="AccuracyLarge", n=40, seeds=(2, 3), output_dir=out), fast=True)
    assert isinstance(info.value.__cause__, OSError)
    assert not os.path.exists(os.path.join(out, "manifest.json"))


def test_numpy_scalar_config_writes_a_plain_manifest(tmp_path):
    out = str(tmp_path)
    cfg = ExperimentConfig(name="AccuracyLarge", n=np.int64(40), seeds=(0,), output_dir=out)
    returned = run(cfg, fast=True)
    with open(os.path.join(out, "manifest.json")) as fh:
        manifest = json.load(fh)
    assert manifest["config"]["n"] == 40 and manifest["resolved"]["n"] == 40
    assert isinstance(manifest["config"]["n"], int)
    # run() returns the very record it wrote
    assert manifest == returned


def test_unserialisable_manifest_leaves_no_file(tmp_path, monkeypatch):
    import glspec.experiments as experiments

    out = str(tmp_path)
    inner, reads, sizes = experiments._RUNNERS["AccuracyLarge"]

    def runner(cfg, fast):
        files, seeds, info = inner(cfg, fast)
        return files, seeds, dict(info, bad=object())

    monkeypatch.setitem(experiments._RUNNERS, "AccuracyLarge", (runner, reads, sizes))
    with pytest.raises(TypeError):
        run(ExperimentConfig(name="AccuracyLarge", n=40, seeds=(0,), output_dir=out), fast=True)
    assert os.path.exists(os.path.join(out, "accuracy_large_summary.csv"))
    assert not os.path.exists(os.path.join(out, "manifest.json"))
    assert not os.path.exists(os.path.join(out, "manifest.json.tmp"))


def _in_process(monkeypatch):
    """Keep every loop in this process: a patch or a recorder inside a
    per-seed body is not seen by the ``_scanpool`` workers."""
    monkeypatch.setattr(_scanpool, "usable_cpus", lambda: 1)


def test_failed_recipe_leaves_earlier_artifacts_untouched(tmp_path, monkeypatch):
    import glspec.experiments as experiments

    _in_process(monkeypatch)
    out = str(tmp_path)
    settings = dict(name="PhaseSweep", n=30, c_grid=(1.0,), alpha_grid=(0.0,), output_dir=out)
    run(ExperimentConfig(seeds=(0,), **settings), fast=True)
    curves = os.path.join(out, "phase_eigencurves.csv")
    with open(curves, "rb") as fh:
        before = fh.read()

    def broken_gram(X):
        raise RuntimeError("gram failed")

    # the eigencurves are computed first; only the tracked half calls gram
    monkeypatch.setattr(experiments, "gram", broken_gram)
    with pytest.raises(RuntimeError, match="gram failed"):
        run(ExperimentConfig(seeds=(1,), **settings), fast=True)
    with open(curves, "rb") as fh:
        assert fh.read() == before
    # the earlier manifest still stands, and still matches its files
    with open(os.path.join(out, "manifest.json")) as fh:
        listed = json.load(fh)["files"]
    assert "phase_eigencurves.csv" in [entry["path"] for entry in listed]
    for entry in listed:
        with open(os.path.join(out, entry["path"]), "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == entry["sha256"]


def test_accuracy_low_errors_small(tmp_path):
    out = str(tmp_path)
    run(ExperimentConfig(name="AccuracyLowSNR", output_dir=out), fast=True)
    summary = np.loadtxt(os.path.join(out, "accuracy_low_summary.csv"), delimiter=",", skiprows=1)
    assert np.all(summary[:, 2] <= 0.15)
    curves = np.loadtxt(os.path.join(out, "accuracy_low_curves.csv"), delimiter=",", skiprows=1)
    c1 = curves[np.abs(curves[:, 0] - 1.0) < 1e-12]
    # sample and limit curves agree through the bulk (indices 10..180)
    bulk = c1[(c1[:, 1] >= 10) & (c1[:, 1] <= 180)]
    assert np.max(np.abs(bulk[:, 2] - bulk[:, 3])) <= 0.15


def test_accuracy_moderate_errors_small(tmp_path):
    out = str(tmp_path)
    run(ExperimentConfig(name="AccuracyModerate", output_dir=out), fast=True)
    summary = np.loadtxt(
        os.path.join(out, "accuracy_moderate_summary.csv"), delimiter=",", skiprows=1
    )
    assert np.all(summary[:, 2] <= 0.05)


def test_accuracy_large_spectrum_collapses(tmp_path):
    out = str(tmp_path)
    run(ExperimentConfig(name="AccuracyLarge", output_dir=out), fast=True)
    summary = np.loadtxt(os.path.join(out, "accuracy_large_summary.csv"), delimiter=",", skiprows=1)
    # at the widest aspect the signal-coordinate spacings are far above the
    # kernel resolution and the spectrum is within 1e-3 of flat; narrower
    # aspects can draw near-duplicate signal values, so only positivity is
    # asserted there
    wide = summary[np.abs(summary[:, 0] - 0.5) < 1e-12]
    assert np.all(wide[:, 2] <= 1e-3)
    assert np.all(summary[:, 2] >= 0.0)
    curves = np.loadtxt(os.path.join(out, "accuracy_large_curves.csv"), delimiter=",", skiprows=1)
    assert np.all(curves[:, 3] == 1.0)


def test_accuracy_summaries_carry_the_largest_eigenvalue_gap(tmp_path):
    # sup_absdiff of AccuracyModerate against eigvalsh of W and W_a1 rebuilt
    # from each seed's cloud; AccuracyLarge's limit is the flat spectrum, so
    # there it is the error itself
    n, upsilon = 40, 0.5
    out = str(tmp_path / "moderate")
    config = ExperimentConfig(name="AccuracyModerate", n=n, c_grid=(1.0, 2.0), output_dir=out)
    run(config, fast=True)
    rows = np.loadtxt(os.path.join(out, "accuracy_moderate_summary.csv"), delimiter=",", skiprows=1)
    assert rows.shape == (4, 4)
    for c, seed, _, sup in rows:
        p = int(round(n / c))
        cloud = gen_spiked(n, p, (float(p) ** 1.9,), int(seed))
        W = affinity(pairwise_sq_dists(cloud.noisy()), upsilon, float(p))
        Wa1 = w_a1(affinity(pairwise_sq_dists(cloud.clean), upsilon, float(p)), upsilon)
        gap = np.max(np.abs(np.linalg.eigvalsh(W) - np.linalg.eigvalsh(Wa1)))
        assert sup == pytest.approx(gap, rel=1e-9, abs=1e-12)
    out = str(tmp_path / "large")
    run(ExperimentConfig(name="AccuracyLarge", n=n, output_dir=out), fast=True)
    rows = np.loadtxt(os.path.join(out, "accuracy_large_summary.csv"), delimiter=",", skiprows=1)
    assert np.array_equal(rows[:, 3], rows[:, 2])


def test_dimension_sweep_errors_decrease(tmp_path):
    out = str(tmp_path)
    run(ExperimentConfig(name="DimensionSweep", output_dir=out), fast=True)
    mean = np.loadtxt(os.path.join(out, "dimension_sweep_mean.csv"), delimiter=",", skiprows=1)
    ns = mean[:, 0]
    assert list(ns) == [50.0, 150.0, 300.0]
    # weak-signal rigidity error shrinks with n and stays under 0.15
    assert np.all(np.diff(mean[:, 1]) < 0.0)
    assert np.all(mean[:, 1] <= 0.15)
    # moderate-signal surrogate error obeys the n^{-1/2} envelope
    assert np.all(mean[:, 2] <= 5.0 / np.sqrt(ns))
    assert np.all(mean[:, 3] >= 0.0)


def test_histogram_bulk_matches_limit_density(tmp_path):
    out = str(tmp_path)
    run(ExperimentConfig(name="HistogramBulk", c_grid=(1.0,), output_dir=out), fast=True)
    rows = np.loadtxt(os.path.join(out, "histogram_bulk.csv"), delimiter=",", skiprows=1)
    assert rows.shape == (50, 5)
    emp, theory = rows[:, 3], rows[:, 4]
    assert np.all(emp >= 0.0)
    assert np.all(theory >= 0.0)
    # the binned limit integrates to the bulk mass (c = 1: no atom)
    width = rows[0, 2] - rows[0, 1]
    assert abs(np.sum(theory) * width - 1.0) <= 1e-6
    # agreement away from the singular lower edge
    assert np.max(np.abs(emp - theory)[2:]) <= 0.1


def test_histogram_bulk_reps_follow_the_first_seed(tmp_path):
    def empirical(seed):
        out = str(tmp_path / str(seed))
        manifest = run(
            ExperimentConfig(
                name="HistogramBulk", n=40, c_grid=(1.0,), reps=3, seeds=(seed,), output_dir=out
            ),
            fast=True,
        )
        rows = np.loadtxt(os.path.join(out, "histogram_bulk.csv"), delimiter=",", skiprows=1)
        return manifest["seeds"], rows[:, 3]

    seeds_0, emp_0 = empirical(0)
    seeds_1, emp_1 = empirical(1)
    assert seeds_0 == [100000]
    assert seeds_1 == [200000]
    assert not np.array_equal(emp_0, emp_1)


def test_omega_sweep_fast_endpoints(tmp_path):
    out = str(tmp_path)
    manifest = run(ExperimentConfig(name="OmegaSweep", c_grid=(1.0,), output_dir=out), fast=True)
    rows = np.loadtxt(os.path.join(out, "omega_sweep.csv"), delimiter=",", skiprows=1)
    alphas = rows[:, 1]
    omega_w = rows[:, 3]
    assert omega_w[alphas == 0.2][0] >= 0.8
    assert omega_w[alphas == 3.0][0] <= 0.3
    assert np.all(rows[:, 4] > 0.0)
    # the transition-matrix scan is reported alongside
    assert np.all((rows[:, 5] >= 0.05) & (rows[:, 5] <= 0.95))
    assert manifest["resolved"]["alpha_base"] == "n"
    assert "1" in manifest["resolved"]["thresholds"]


def test_manifold_rmse_structure(tmp_path):
    out = str(tmp_path)
    manifest = run(
        ExperimentConfig(name="ManifoldRmse", n=200, reps=2, c_grid=(1.0,), output_dir=out),
        fast=True,
    )
    rows = _load_named_csv(os.path.join(out, "manifold_rmse.csv"))
    # 2 manifolds x 1 aspect x 9 indices x 4 bandwidth variants
    assert len(rows) == 72
    kinds = {r[0] for r in rows}
    variants = {r[3] for r in rows}
    assert kinds == {"m1", "kb"}
    assert variants == {"adap", "medq", "hp", "theory"}
    for r in rows:
        assert 0.0 <= r[4] <= 1.5
        assert r[5] >= 0.0
    omegas = _load_named_csv(os.path.join(out, "manifold_omegas.csv"))
    for r in omegas:
        assert 0.05 <= r[3] <= 0.95
        assert r[4] > 0.0
    assert manifest["resolved"]["reps"] == 2


def test_manifold_rmse_manifest_lists_every_seed_it_drew(tmp_path):
    # aspect ci draws seeds seeds[0] + 1000 ci + rep
    out = str(tmp_path)
    manifest = run(
        ExperimentConfig(name="ManifoldRmse", n=40, reps=2, c_grid=(0.5, 1.0), seeds=(3,),
                         output_dir=out)
    )
    omegas = _load_named_csv(os.path.join(out, "manifold_omegas.csv"))
    assert manifest["seeds"] == sorted({int(r[2]) for r in omegas}) == [3, 4, 1003, 1004]


@pytest.mark.parametrize(
    "settings, expected",
    [
        # clean and noisy distances once per repetition: 2 manifolds x 2 reps
        ({"name": "ManifoldRmse", "n": 40, "reps": 2, "c_grid": (1.0,)}, 2 * 4),
        # clean and noisy distances once per (alpha, seed): 2 x 2 pairs
        (
            {"name": "ZeroingComparison", "n": 60, "c_grid": (2.0,),
             "alpha_grid": (0.5, 1.0), "seeds": (0, 1)},
            2 * 4,
        ),
        # one noisy distance matrix per cloud, both scans share it: 2 x 2 clouds
        (
            {"name": "OmegaSweep", "n": 60, "c_grid": (1.0, 2.0),
             "alpha_grid": (0.2, 3.0)},
            1 * 4,
        ),
    ],
    ids=lambda v: v["name"] if isinstance(v, dict) else str(v),
)
def test_one_distance_matrix_per_cloud(tmp_path, monkeypatch, settings, expected):
    import glspec.bandwidth
    import glspec.experiments

    _in_process(monkeypatch)
    calls = []

    def counting(X):
        calls.append(np.shape(X))
        return pairwise_sq_dists(X)

    monkeypatch.setattr(glspec.experiments, "pairwise_sq_dists", counting)
    monkeypatch.setattr(glspec.bandwidth, "pairwise_sq_dists", counting)
    run(ExperimentConfig(output_dir=str(tmp_path), **settings))
    assert len(calls) == expected


# noise draws per --fast run of each recipe at its settings in
# tests/test_fast_digests.py
NOISE_DRAWS = {
    "PhaseSweep": 1,
    "AccuracyLowSNR": 2,
    "AccuracyModerate": 2,
    "AccuracyLarge": 2,
    "DimensionSweep": 2,
    "HistogramBulk": 100,
    "OmegaSweep": 1,
    "ManifoldRmse": 1,
    "StieltjesCompare": 2,
    "D2Comparison": 2,
    "ZeroingComparison": 2,
}


def _record_draws(monkeypatch):
    """Empty the noise table and list the seed of each noise draw, with
    every loop kept in this process."""
    import glspec.datagen

    _in_process(monkeypatch)
    drawn = []
    build = glspec.datagen._substream

    def record(seed, k):
        if k == 0:
            drawn.append(seed)
        return build(seed, k)

    monkeypatch.setattr(glspec.datagen, "_substream", record)
    monkeypatch.setattr(glspec.datagen, "_NOISE", weakref.WeakValueDictionary())
    return drawn


@pytest.mark.parametrize("name, settings", RECIPES.items(), ids=list(RECIPES))
def test_noise_draws_per_recipe(tmp_path, monkeypatch, name, settings):
    drawn = _record_draws(monkeypatch)
    run(ExperimentConfig(name=name, output_dir=str(tmp_path), **settings), fast=True)
    assert len(drawn) == NOISE_DRAWS[name]


@pytest.mark.parametrize(
    "settings, shapes, draws",
    [
        # tracked strengths at (n, p) = (200, 200) hold their draw while the
        # curves at (30, 30) read its prefix
        ({"name": "PhaseSweep", "n": 30, "c_grid": (1.0,), "alpha_grid": (0.0, 0.3)}, 2, 1),
        # five strength tuples on each of 2 seeds x 2 aspects; p = 20 reads
        # a prefix of its seed's held p = 40 draw
        ({"name": "D2Comparison", "n": 40, "c_grid": (1.0, 2.0), "seeds": (0, 1)}, 4, 2),
    ],
    # recipe and count of distinct (seed, n, p)
    ids=["PhaseSweep-2", "D2Comparison-4"],
)
def test_frozen_noise_drawn_once_per_seed_and_shape(tmp_path, monkeypatch, settings, shapes, draws):
    import glspec.datagen

    drawn = _record_draws(monkeypatch)
    # the bits served for each (seed, n, p); digests, so no draw is kept alive
    served = {}
    share = glspec.datagen._shared_noise

    def record(seed, n, p):
        noise = share(seed, n, p)
        digest = hashlib.sha256(noise.tobytes()).hexdigest()
        assert served.setdefault((seed, n, p), digest) == digest
        return noise

    monkeypatch.setattr(glspec.datagen, "_shared_noise", record)
    run(ExperimentConfig(output_dir=str(tmp_path), **settings), fast=True)
    assert len(served) == shapes
    assert len(drawn) == draws


@pytest.mark.parametrize(
    "settings, expected",
    [
        # three aspects per repetition, widest last in the grid
        ({"name": "HistogramBulk", "n": 20, "reps": 3, "c_grid": (1.0, 2.0, 0.5)},
         [100000, 100001, 100002]),
        # the p = 40 draw is held while p = 20 reads its prefix
        ({"name": "D2Comparison", "n": 40, "c_grid": (1.0, 2.0), "seeds": (0, 1)}, [0, 1]),
        # three aspects per seed, narrowest first in the grid
        ({"name": "AccuracyLowSNR", "n": 40, "c_grid": (2.0, 1.0, 0.5), "seeds": (0, 1, 2)},
         [0, 1, 2]),
        # seven sizes n = p per seed, smallest first in the grid
        ({"name": "DimensionSweep", "seeds": (0, 1)}, [0, 1]),
    ],
    ids=["HistogramBulk", "D2Comparison", "AccuracyLowSNR", "DimensionSweep"],
)
def test_each_seed_draws_its_noise_once(tmp_path, monkeypatch, settings, expected):
    drawn = _record_draws(monkeypatch)
    run(ExperimentConfig(output_dir=str(tmp_path), **settings))
    # the narrower aspects read a prefix of the widest aspect's draw
    assert drawn == expected


def test_manifold_rmse_draws_each_repetition_seed_once(tmp_path, monkeypatch):
    # both manifolds at their own n, two c and two repetitions
    monkeypatch.setattr(experiments, "MANIFOLD_RMSE_SIZES", {"m1": 20, "kb": 30})
    drawn = _record_draws(monkeypatch)
    cfg = ExperimentConfig(
        name="ManifoldRmse", c_grid=(1.0, 2.0), reps=2, seeds=(3,), output_dir=str(tmp_path)
    )
    manifest = run(cfg)
    assert drawn == [3, 4, 1003, 1004]
    assert manifest["seeds"] == drawn
    omegas = _load_named_csv(os.path.join(str(tmp_path), "manifold_omegas.csv"))
    assert [(row[0], row[1], row[2]) for row in omegas] == [
        (kind, c, seed) for kind in ("m1", "kb") for c, seeds in ((1.0, (3, 4)), (2.0, (1003, 1004)))
        for seed in seeds
    ]


@pytest.mark.parametrize(
    "settings",
    [
        # the curves run at p = round(300/500) = 1; the tracked half at n = 200
        # rounds p to 0, and is resolved before the curves draw
        {"name": "PhaseSweep", "n": 300, "c_grid": (500.0,)},
        # bulk_rigidity skips 9 eigenvalues
        {"name": "AccuracyLowSNR", "n": 8},
        # p = 1 leaves no room for the second spike
        {"name": "D2Comparison", "n": 20, "c_grid": (20.0,)},
    ],
    ids=["PhaseSweep-tracked-p0", "AccuracyLowSNR-n8", "D2Comparison-p1"],
)
def test_a_shape_below_its_floor_is_refused_before_any_draw(tmp_path, monkeypatch, settings):
    drawn = _record_draws(monkeypatch)
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="^%s needs n >= " % settings["name"]):
        run(ExperimentConfig(output_dir=str(out), **settings), fast=True)
    assert drawn == []
    assert not out.exists()


def test_an_output_dir_that_is_a_file_is_refused_before_the_recipe_runs(tmp_path, monkeypatch):
    afile = tmp_path / "afile"
    afile.write_bytes(b"keep\n")
    called = []
    recipe, reads, floor = experiments._RUNNERS["AccuracyLarge"]
    monkeypatch.setitem(experiments._RUNNERS, "AccuracyLarge", (
        lambda cfg, fast: called.append(cfg) or recipe(cfg, fast), reads, floor))
    with pytest.raises(ValueError, match="output_dir .*afile.* is not a directory"):
        run(ExperimentConfig(name="AccuracyLarge", output_dir=str(afile)), fast=True)
    assert called == []
    assert afile.read_bytes() == b"keep\n"


def test_stieltjes_compare_sup_below_bound(tmp_path):
    out = str(tmp_path)
    run(ExperimentConfig(name="StieltjesCompare", output_dir=out), fast=True)
    sups = np.loadtxt(os.path.join(out, "stieltjes_sup.csv"), delimiter=",", skiprows=1, ndmin=2)
    assert np.all(sups[:, 1] <= sups[:, 2])
    grid_rows = np.loadtxt(os.path.join(out, "stieltjes_grid.csv"), delimiter=",", skiprows=1)
    assert np.all(grid_rows[:, 2] <= grid_rows[:, 3] + 1e-12)


# a valid value for each optional field, the ones that default to None
OPTIONAL_VALUES = {
    "n": 100, "c_grid": (2.0,), "alpha_grid": (2.0,), "reps": 3, "alpha_base": "n",
}


@pytest.mark.parametrize(
    "name, field",
    [
        (name, field)
        for name, (_, reads, _) in experiments._RUNNERS.items()
        for field in (f.name for f in dataclasses.fields(ExperimentConfig) if f.default is None)
        if field not in reads
    ],
)
def test_recipe_refuses_a_field_it_fixes(tmp_path, name, field):
    cfg = ExperimentConfig(name=name, output_dir=str(tmp_path), **{field: OPTIONAL_VALUES[field]})
    with pytest.raises(ValueError, match="%s.*%s" % (name, field)):
        run(cfg, fast=True)
    assert os.listdir(str(tmp_path)) == []


# small settings, so that every recipe runs in about a second; c = 2, so
# that p != n and the base of the strength n**alpha or p**alpha matters
SMALL_SETTINGS = {
    "PhaseSweep": dict(n=30, c_grid=(2.0,), alpha_grid=(0.0,)),
    "AccuracyLowSNR": dict(n=40, c_grid=(2.0,)),
    "AccuracyModerate": dict(n=40, c_grid=(2.0,)),
    "AccuracyLarge": dict(n=40, c_grid=(2.0,)),
    "DimensionSweep": dict(),
    "HistogramBulk": dict(n=40, c_grid=(2.0,), reps=2),
    "OmegaSweep": dict(n=40, c_grid=(2.0,), alpha_grid=(1.0,)),
    "ManifoldRmse": dict(n=40, c_grid=(2.0,), reps=1),
    "StieltjesCompare": dict(n=40, c_grid=(2.0,)),
    "D2Comparison": dict(n=40, c_grid=(2.0,)),
    "ZeroingComparison": dict(n=40, c_grid=(2.0,), alpha_grid=(1.0,)),
}


@pytest.mark.parametrize("name", EXPERIMENT_NAMES)
def test_resolved_echoes_every_field_the_recipe_reads(tmp_path, name):
    settings = SMALL_SETTINGS[name]
    cfg = ExperimentConfig(name=name, seeds=(0,), output_dir=str(tmp_path), **settings)
    resolved = run(cfg, fast=True)["resolved"]
    for field, default in experiments._RUNNERS[name][1].items():
        value = settings.get(field, default)
        if value is None:
            continue
        assert field in resolved
        if not isinstance(value, tuple):
            assert resolved[field] == value


@pytest.mark.parametrize(
    "name",
    [name for name, (_, reads, _) in experiments._RUNNERS.items()
     if "c_grid" in reads and name != "PhaseSweep"],
)
def test_the_registry_holds_each_default_c_grid(tmp_path, name):
    # PhaseSweep alone resolves its own c grids: its two halves default apart
    default = experiments._RUNNERS[name][1]["c_grid"]
    assert isinstance(default, tuple) and default
    settings = {k: v for k, v in SMALL_SETTINGS[name].items() if k != "c_grid"}
    cfg = ExperimentConfig(name=name, seeds=(0,), output_dir=str(tmp_path), **settings)
    assert run(cfg, fast=True)["resolved"]["c_grid"] == list(default)


# another value for each optional field, unlike its value in SMALL_SETTINGS
OTHER_VALUES = {"n": 48, "c_grid": (1.0,), "alpha_grid": (0.5,), "reps": 3}


def _small_run_digests(out, name, settings):
    cfg = ExperimentConfig(name=name, seeds=(0,), output_dir=str(out), **settings)
    return {entry["path"]: entry["sha256"] for entry in run(cfg, fast=True)["files"]}


@pytest.fixture(scope="module")
def small_digests(tmp_path_factory):
    """The artifact digests of each recipe at its SMALL_SETTINGS, run once."""
    found = {}

    def digests(name):
        if name not in found:
            out = tmp_path_factory.mktemp(name)
            found[name] = _small_run_digests(out, name, SMALL_SETTINGS[name])
        return found[name]

    return digests


@pytest.mark.parametrize(
    "name, field",
    [(name, field) for name, (_, reads, _) in experiments._RUNNERS.items() for field in reads],
)
def test_every_field_a_recipe_reads_moves_an_artifact(tmp_path, small_digests, name, field):
    settings = dict(SMALL_SETTINGS[name])
    if field == "alpha_base":
        value = "n" if settings.get(field, experiments._RUNNERS[name][1][field]) == "p" else "p"
    else:
        value = OTHER_VALUES[field]
    settings[field] = value
    assert _small_run_digests(tmp_path, name, settings) != small_digests(name)


def test_readme_lists_the_fields_each_recipe_reads():
    readme = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")
    with open(readme) as fh:
        text = fh.read()
    optional = {f.name for f in dataclasses.fields(ExperimentConfig) if f.default is None}
    intro = re.search(r"optional fields \(([^)]*)\)", text).group(1)
    assert set(re.findall(r"`(\w+)`", intro)) == optional
    header = "| Experiment | Optional fields it reads | Smallest (n, p) |\n| --- | --- | --- |\n"
    table = text.split(header)[1]
    listed, floors = {}, {}
    for row in table.split("\n\n")[0].splitlines():
        names, reads, sizes = row.split("|")[1:4]
        fields = set() if reads.strip().startswith("none") else set(re.findall(r"`(\w+)`", reads))
        floor = tuple(map(int, re.match(r" \((\d+), (\d+)\)", sizes).groups()))
        for name in re.findall(r"`(\w+)`", names):
            assert name not in listed, "%s is listed twice" % name
            listed[name], floors[name] = fields, floor
    registry = experiments._RUNNERS.items()
    assert listed == {name: set(reads) for name, (_, reads, _) in registry}
    assert floors == {name: sizes for name, (_, _, sizes) in registry}


def test_manifest_records_the_environment(tmp_path, monkeypatch):
    settings = dict(name="AccuracyLarge", n=40, seeds=(0,))
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    monkeypatch.setenv("MKL_NUM_THREADS", "2")
    first = run(ExperimentConfig(output_dir=str(tmp_path / "a"), **settings), fast=True)
    with open(tmp_path / "a" / "manifest.json") as fh:
        environment = json.load(fh)["environment"]
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    # n = 40 is below POOL_MIN_N: no worker served the run
    assert environment == {
        "numpy": np.__version__,
        "blas": "%s %s" % (blas["name"], blas["version"]),
        "threads": {"OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": "3", "MKL_NUM_THREADS": "2"},
        "workers": 0,
    }
    # two seeds at n = POOL_MIN_N go to one worker each where two CPUs are usable
    pooled = dict(settings, n=experiments.POOL_MIN_N, seeds=(0, 1))
    manifest = run(ExperimentConfig(output_dir=str(tmp_path / "c"), **pooled), fast=True)
    assert manifest["environment"]["workers"] == (2 if _scanpool.usable_cpus() >= 2 else 0)
    with monkeypatch.context() as m:
        m.setattr(_scanpool, "usable_cpus", lambda: 1)
        manifest = run(ExperimentConfig(output_dir=str(tmp_path / "d"), **pooled), fast=True)
    assert manifest["environment"]["workers"] == 0
    # the record sits beside the digests, not among them
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    second = run(ExperimentConfig(output_dir=str(tmp_path / "b"), **settings), fast=True)
    assert second["environment"]["threads"]["OPENBLAS_NUM_THREADS"] == "1"
    assert second["files"] == first["files"]

    def old_numpy(**kwargs):
        raise TypeError("show_config() got an unexpected keyword argument 'mode'")

    monkeypatch.setattr(np, "show_config", old_numpy)
    assert experiments._environment()["blas"] == "unknown unknown"


def test_d2_comparison_printed_cases(tmp_path):
    out = str(tmp_path)
    manifest = run(ExperimentConfig(name="D2Comparison", output_dir=out))
    assert manifest["experiment"] == "D2Comparison"
    summary = _load_named_csv(os.path.join(out, "d2_summary.csv"))
    sups = {}
    for case, c, sup, expected in summary:
        sups[(case, float(c))] = float(sup)
        assert expected == ("different" if case == "both_large" else "close")
    for c in (0.5, 1.0, 2.0):
        # two weak spikes blur into one bulk; two strong distinct spikes do not
        assert sups[("low_pair", c)] <= 0.05
        assert sups[("both_large", c)] >= 0.5
        # a strong plus a weak spike perturbs the top of the bulk only: the
        # whole-range sup stays below the strong-pair separation while the
        # lower half of the spectrum is unaffected
        assert sups[("large_small", c)] < sups[("both_large", c)]
    curves = _load_named_csv(os.path.join(out, "d2_curves.csv"))
    n = manifest["resolved"]["n"]
    for c in (0.5, 1.0, 2.0):
        tail = [
            abs(r[3] - r[4])
            for r in curves
            if r[0] == "large_small" and abs(float(r[1]) - c) < 1e-9 and r[2] >= n // 2
        ]
        assert max(tail) <= 0.05


@pytest.fixture(scope="module")
def zeroing_run(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("zeroing"))
    manifest = run(ExperimentConfig(name="ZeroingComparison", output_dir=out), fast=True)
    return out, manifest


def test_zeroing_comparison_follows_alpha_base(tmp_path):
    settings = dict(name="ZeroingComparison", n=60, alpha_grid=(1.0,), seeds=(0,))
    digests = {}
    for base in (None, "p", "n"):
        out = str(tmp_path / str(base))
        manifest = run(ExperimentConfig(output_dir=out, alpha_base=base, **settings))
        assert manifest["resolved"]["alpha_base"] == (base or "p")
        digests[base] = {f["path"]: f["sha256"] for f in manifest["files"]}["zeroing.csv"]
    # p is the default base; at the default c = 2, n != p and the strength
    # n**alpha is another cloud
    assert digests[None] == digests["p"]
    assert digests["n"] != digests["p"]


@pytest.mark.slow
def test_zeroing_comparison_strength_windows(zeroing_run):
    out, manifest = zeroing_run
    assert manifest["experiment"] == "ZeroingComparison"
    assert manifest["resolved"]["h_zero"] == 35.0
    mean = np.loadtxt(os.path.join(out, "zeroing_mean.csv"), delimiter=",", skiprows=1)
    by_alpha = {round(r[0], 3): r[1:] for r in mean}
    # below the recovery window both variants sit at the random baseline
    adap, zero, base = by_alpha[0.3]
    assert adap > 0.5 * base
    assert zero > 0.5 * base
    # in the intermediate window only the zeroed diagonal recovers
    for alpha in (0.5, 0.6):
        adap, zero, base = by_alpha[alpha]
        assert zero < adap
        assert zero < 0.5 * base
    # near alpha = 1 both recover, within a factor two of each other
    adap, zero, base = by_alpha[0.8]
    assert max(adap, zero) <= 2.0 * min(adap, zero)
    assert max(adap, zero) < 0.5 * base
    # past the window both stay far below the baseline
    for alpha in (1.0, 1.2):
        adap, zero, base = by_alpha[alpha]
        assert adap <= 0.6 * base
        assert zero <= 0.6 * base


@pytest.mark.slow
def test_zeroing_manifest_lists_artifacts(zeroing_run):
    out, manifest = zeroing_run
    names = {entry["path"] for entry in manifest["files"]}
    assert names == {"zeroing.csv", "zeroing_mean.csv", "zeroing.gp"}
    rows = np.loadtxt(os.path.join(out, "zeroing.csv"), delimiter=",", skiprows=1)
    # alpha, seed, three rmse columns, selected omega
    assert rows.shape[1] == 6
    assert np.all((rows[:, 5] >= 0.05) & (rows[:, 5] <= 0.95))
