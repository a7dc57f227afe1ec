import json
import os

import numpy as np
import pytest
from click.testing import CliRunner

from glspec.bandwidth import omega_grid, select_omega
from glspec.cli import main
from glspec.datagen import (
    gen_spiked,
    load_cloud_csv,
    load_cloud_npz,
    save_cloud_csv,
    write_csv,
)
from glspec.kernels import (
    affinity,
    laplacian,
    pairwise_sq_dists,
    sym_normalized,
    transition,
    zeroed_transition,
)
from glspec.spectrum import sym_eigs


def _invoke(args):
    runner = CliRunner()
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result


def test_gen_spiked_csv(tmp_path):
    out = str(tmp_path / "cloud.csv")
    result = _invoke(
        ["gen", "--kind", "spiked", "--n", "12", "--p", "8", "--lam", "4", "--out", out]
    )
    assert "spiked cloud" in result.output
    cloud = load_cloud_csv(out)
    assert (cloud.n, cloud.p, cloud.d) == (12, 8, 1)


def test_gen_circle_alpha_npz(tmp_path):
    out = str(tmp_path / "circle.npz")
    _invoke(
        [
            "gen", "--kind", "circle", "--n", "30", "--p", "20",
            "--alpha", "1.0", "--alpha-base", "n", "--out", out,
        ]
    )
    cloud = load_cloud_npz(out)
    assert cloud.kind == "circle"
    # strength n**1 split over the two circle coordinates
    assert cloud.lambdas == (15.0, 15.0)
    radii = np.linalg.norm(cloud.clean[:, :2], axis=1)
    np.testing.assert_allclose(radii, np.sqrt(30.0), rtol=1e-12)


def test_gen_manifold_with_scale(tmp_path):
    out = str(tmp_path / "m1.npz")
    _invoke(
        [
            "gen", "--kind", "m1", "--n", "20", "--p", "6",
            "--scale", "2.0", "--no-rotate", "--seed", "3", "--out", out,
        ]
    )
    cloud = load_cloud_npz(out)
    assert cloud.kind == "curve_m1"
    assert np.all(cloud.clean[:, 3:] == 0.0)


def test_gen_circle_requires_strength(tmp_path):
    runner = CliRunner()
    result = runner.invoke(
        main,
        ["gen", "--kind", "circle", "--n", "10", "--p", "4",
         "--out", str(tmp_path / "c.csv")],
    )
    assert result.exit_code != 0
    assert "--lam or --alpha" in result.output


def test_gen_alpha_resolution_base_p_and_n(tmp_path):
    out = str(tmp_path / "cloud.npz")
    for base, want in (("p", (20.0, 400.0)), ("n", (10.0, 100.0))):
        _invoke(["gen", "--n", "100", "--p", "400", "--alpha", "0.5,1",
                 "--alpha-base", base, "--out", out])
        assert load_cloud_npz(out).lambdas == want
    result = CliRunner().invoke(main, ["gen", "--n", "100", "--p", "400", "--alpha", "1",
                                       "--alpha-base", "q", "--out", out])
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "args",
    [
        ["--kind", "spiked", "--lam", "4", "--alpha", "1"],
        ["--kind", "circle", "--lam", "4", "--alpha", "1"],
        ["--kind", "spiked"],
        ["--kind", "circle", "--lam", "4,2"],
        ["--kind", "circle", "--alpha", "0.5,1"],
        ["--kind", "spiked", "--lam", ","],
        ["--kind", "spiked", "--lam", "x"],
        ["--kind", "spiked", "--lam", "4,-1"],
        ["--kind", "m1", "--lam", "4"],
        ["--kind", "kb", "--alpha", "1"],
        ["--kind", "circle", "--lam", "4", "--rotate"],
        ["--kind", "circle", "--lam", "4", "--no-rotate"],
        ["--kind", "spiked", "--lam", "4", "--scale", "9"],
        ["--kind", "circle", "--lam", "4", "--scale", "9"],
        ["--kind", "m1", "--alpha-base", "n"],
        ["--kind", "spiked", "--lam", "3", "--alpha-base", "n"],
        ["--kind", "m1", "--n", "0"],
        ["--kind", "kb", "--n", "1"],
        ["--kind", "circle", "--lam", "4", "--seed", "-1"],
        ["--kind", "spiked", "--lam", "nan"],
        ["--kind", "circle", "--lam", "inf"],
        ["--kind", "m1", "--scale", "nan"],
        ["--kind", "kb", "--scale", "1e200"],
        ["--kind", "spiked", "--alpha", "1e400"],
        ["--kind", "spiked", "--alpha", "500"],
    ],
    ids=lambda args: "-".join(a.lstrip("-") for a in args[1:]),
)
def test_gen_rejects_bad_strength_options(tmp_path, monkeypatch, args):
    def no_draw(seed, k):
        raise AssertionError("drew from substream %d of seed %d" % (k, seed))

    monkeypatch.setattr("glspec.datagen._substream", no_draw)
    out = tmp_path / "cloud.csv"
    result = CliRunner().invoke(
        main, ["gen", "--n", "12", "--p", "8", *args, "--out", str(out)]
    )
    assert result.exit_code == 2, result.output
    assert "Traceback" not in result.output
    assert not out.exists()


def test_run_experiment_flag(tmp_path):
    out = str(tmp_path / "exp")
    result = _invoke(
        ["run", "--experiment", "StieltjesCompare", "--out", out, "--fast"]
    )
    assert os.path.exists(os.path.join(out, "stieltjes_sup.csv"))
    with open(os.path.join(out, "manifest.json")) as fh:
        manifest = json.load(fh)
    # the summary line is read off the manifest run() wrote
    assert result.output == "StieltjesCompare finished in %.1fs; %d artifacts in %s\n" % (
        manifest["wall_clock_s"], len(manifest["files"]), out
    )


def test_run_refuses_an_output_path_that_is_a_file(tmp_path):
    afile = tmp_path / "afile"
    afile.write_text("keep\n")
    args = ["run", "--experiment", "AccuracyLarge", "--fast", "--out", str(afile)]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 2, result.output
    assert "is not a directory" in result.output
    assert afile.read_text() == "keep\n"


def test_run_with_config_file(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "name = HistogramBulk\nc_grid = 1.0\nreps = 5\noutput_dir = %s\n"
        % (tmp_path / "from_cfg")
    )
    result = _invoke(["run", "--config", str(cfg), "--fast"])
    assert "HistogramBulk finished" in result.output
    with open(tmp_path / "from_cfg" / "manifest.json") as fh:
        payload = json.load(fh)
    assert payload["config"]["reps"] == 5


def test_run_experiment_overrides_config_name(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("name = HistogramBulk\nn = 60\n")
    out = str(tmp_path / "override")
    result = _invoke(
        ["run", "--experiment", "StieltjesCompare", "--config", str(cfg),
         "--out", out, "--fast"]
    )
    assert "StieltjesCompare finished" in result.output
    assert os.path.exists(os.path.join(out, "stieltjes_grid.csv"))


@pytest.mark.parametrize(
    "text, message",
    [
        ("name = AccuracyLarge\nbandwidth = 3\n", "unknown config key 'bandwidth'"),
        ("name = AccuracyLarge\nn = abc\n", "bad value for n"),
        ("name = AccuracyLarge\nupsilon = 0\n", "need upsilon > 0"),
        ("name = AccuracyLarge\nalpha_grid = 1\n", "AccuracyLarge does not read alpha_grid"),
        ("name = DimensionSweep\nn = 60\n", "DimensionSweep does not read n"),
        # the retired fixed p; c_grid = n/P replaces p = P
        ("name = StieltjesCompare\np = 0\n", "unknown config key 'p'"),
        ("name = AccuracyLarge\nseeds = 0.5\n", "seeds must be integers"),
        ("name = AccuracyLarge\nupsilon = nan\n", "need upsilon > 0 and finite"),
        ("name = AccuracyLarge\nupsilon = inf\n", "need upsilon > 0 and finite"),
        ("name = AccuracyLarge\nc_grid = 1, nan\n", "c_grid must hold positive finite numbers"),
        ("name = PhaseSweep\nalpha_grid = 0.2, nan\n", "alpha_grid must hold finite numbers"),
        # refused by the recipe, before run() touches the output directory
        ("name = OmegaSweep\nn = 40\nc_grid = 10\n",
         "OmegaSweep needs n >= 5 and p >= 5; c = 10 at n = 40 gives p = round(n/c) = 4"),
        ("name = AccuracyLowSNR\nc_grid = 1000\n", "c = 1000 at n = 200 gives p"),
        ("name = HistogramBulk\nupsilon = 50\nn = 40\nreps = 2\n",
         "HistogramBulk: bulk at c = 0.5, upsilon = 50 too narrow to bin"),
        ("name = ManifoldRmse\nn = 8\nreps = 1\n",
         "ManifoldRmse needs n >= 10 and p >= 5; c = 1 at n = 8 gives p = round(n/c) = 8"),
        ("name = D2Comparison\nn = 8\n",
         "D2Comparison needs n >= 10 and p >= 2; c = 0.5 at n = 8 gives p = round(n/c) = 16"),
        ("name = AccuracyLowSNR\nn = 8\n",
         "AccuracyLowSNR needs n >= 10 and p >= 1; c = 0.5 at n = 8 gives p = round(n/c) = 16"),
        ("name = D2Comparison\nn = 20\nc_grid = 20\n",
         "D2Comparison needs n >= 10 and p >= 2; c = 20 at n = 20 gives p = round(n/c) = 1"),
        ("name = StieltjesCompare\nc_grid = 1, 2\n",
         "StieltjesCompare runs at one c; got c_grid = (1, 2)"),
        ("name = ZeroingComparison\nc_grid = 2, 0.5\n",
         "ZeroingComparison runs at one c; got c_grid = (2, 0.5)"),
        ("name = ZeroingComparison\nn = 16\nc_grid = 0.1\nalpha_grid = 3\n",
         "ZeroingComparison at alpha = 3, n = 16, p = 160, h_zero = 35: "
         "zeroed kernel has a degenerate row"),
        ("name = PhaseSweep\nn = 20\nalpha_grid = 300\n",
         "PhaseSweep: the strength p**alpha = 20**300 overflows"),
    ],
    ids=["unknown-key", "malformed-value", "bad-value", "unread-field", "unread-n", "zero-p",
         "fractional-seed", "nan-upsilon", "inf-upsilon", "nan-c", "nan-alpha",
         "empty-ratio-window", "zero-p-aspect", "collapsed-bins", "nine-vectors",
         "d2-tail", "low-snr-rigidity", "d2-two-spikes", "stieltjes-two-c", "zeroing-two-c",
         "degenerate-zeroed-row", "overflowing-strength"],
)
def test_run_rejects_a_config_as_usage_error(tmp_path, text, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["run", "--config", str(cfg), "--out", str(out), "--fast"])
    assert result.exit_code == 2, result.output
    assert message in result.output
    assert "Traceback" not in result.output
    assert not out.exists()


def test_experiment_override_is_validated_against_its_name(tmp_path):
    # DimensionSweep does not read n; AccuracyLowSNR does
    fixed = tmp_path / "fixed.cfg"
    fixed.write_text("name = DimensionSweep\nn = 60\nseeds = 0\n")
    out = tmp_path / "low"
    result = _invoke(
        ["run", "--experiment", "AccuracyLowSNR", "--config", str(fixed), "--out", str(out),
         "--fast"]
    )
    assert "AccuracyLowSNR finished" in result.output
    with open(out / "manifest.json") as fh:
        assert json.load(fh)["resolved"]["n"] == 60
    sized = tmp_path / "sized.cfg"
    sized.write_text("name = AccuracyLowSNR\nn = 60\n")
    out = tmp_path / "dim"
    result = CliRunner().invoke(
        main, ["run", "--experiment", "DimensionSweep", "--config", str(sized), "--out", str(out)]
    )
    assert result.exit_code == 2, result.output
    assert "DimensionSweep does not read n" in result.output
    assert not out.exists()


def test_run_zeroing_comparison(tmp_path):
    cfg = tmp_path / "zero.cfg"
    cfg.write_text("n = 60\nc_grid = 2\nalpha_grid = 0.5, 1.0\nseeds = 0\n")
    out = str(tmp_path / "zeroing")
    result = _invoke(
        ["run", "--experiment", "ZeroingComparison", "--config", str(cfg),
         "--out", out, "--fast"]
    )
    assert "ZeroingComparison finished" in result.output
    rows = np.loadtxt(os.path.join(out, "zeroing.csv"), delimiter=",", skiprows=1)
    assert rows.shape == (2, 6)
    with open(os.path.join(out, "manifest.json")) as fh:
        payload = json.load(fh)
    assert payload["experiment"] == "ZeroingComparison"
    assert payload["config"]["name"] == "ZeroingComparison"
    assert {f["path"] for f in payload["files"]} == {
        "zeroing.csv", "zeroing_mean.csv", "zeroing.gp"
    }


def test_run_requires_some_input():
    runner = CliRunner()
    result = runner.invoke(main, ["run"])
    assert result.exit_code != 0
    assert "--experiment or --config" in result.output


def test_omega_subcommand(tmp_path):
    cloud_path = str(tmp_path / "cloud.csv")
    _invoke(
        ["gen", "--kind", "spiked", "--n", "60", "--p", "40", "--lam", "30",
         "--seed", "1", "--out", cloud_path]
    )
    sel_path = str(tmp_path / "sel.json")
    result = _invoke(
        ["omega", "--cloud", cloud_path, "--s", "0.3",
         "--grid", "0.1,0.9,8", "--out", sel_path]
    )
    assert "omega =" in result.output
    with open(sel_path) as fh:
        payload = json.load(fh)
    assert list(payload) == ["grid", "h", "k_profile", "omega", "s"]
    sel = select_omega(load_cloud_csv(cloud_path), 0.5, 0.3, grid=(0.1, 0.9, 8))
    assert (payload["omega"], payload["h"], payload["s"]) == (sel.omega, sel.h, 0.3)
    assert payload["grid"] == list(omega_grid((0.1, 0.9, 8)))
    assert payload["k_profile"] == [[o, int(k)] for o, k in zip(sel.grid, sel.k_per_omega)]
    assert all(type(k) is int for _, k in payload["k_profile"])
    assert not os.path.exists(sel_path + ".tmp")


def test_omega_help_shows_the_default_grid():
    assert "[default: 0.05,0.95,91]" in _invoke(["omega", "--help"]).output


def test_omega_resamples_threshold_when_missing(tmp_path):
    cloud_path = str(tmp_path / "cloud.csv")
    _invoke(
        ["gen", "--kind", "spiked", "--n", "50", "--p", "50", "--lam", "25",
         "--out", cloud_path]
    )
    result = _invoke(
        ["omega", "--cloud", cloud_path, "--grid", "0.25,0.75,2"]
    )
    assert "resampled s =" in result.output


def test_spectra_affinity_and_gram(tmp_path):
    cloud_path = str(tmp_path / "cloud.npz")
    _invoke(
        ["gen", "--kind", "spiked", "--n", "25", "--p", "25", "--lam", "100",
         "--out", cloud_path]
    )
    spec_path = str(tmp_path / "spec.csv")
    result = _invoke(
        ["spectra", "--cloud", cloud_path, "--matrix", "affinity",
         "--top", "3", "--out", spec_path]
    )
    assert "affinity spectrum (n=25)" in result.output
    rows = np.loadtxt(spec_path, delimiter=",", skiprows=1)
    assert rows.shape == (25, 2)
    assert np.all(np.diff(rows[:, 1]) <= 1e-12)
    result = _invoke(["spectra", "--cloud", cloud_path, "--matrix", "gram"])
    assert "gram spectrum" in result.output


def test_spectra_transition_top_eigenvalue(tmp_path):
    cloud_path = str(tmp_path / "cloud.npz")
    _invoke(
        ["gen", "--kind", "spiked", "--n", "20", "--p", "10", "--lam", "2",
         "--out", cloud_path]
    )
    spec_path = str(tmp_path / "a.csv")
    _invoke(
        ["spectra", "--cloud", cloud_path, "--matrix", "transition",
         "--out", spec_path]
    )
    rows = np.loadtxt(spec_path, delimiter=",", skiprows=1)
    assert abs(rows[0, 1] - 1.0) <= 1e-10
    # zeroed-diagonal variant also runs; its top eigenvalue is 1 as well
    _invoke(["spectra", "--cloud", cloud_path, "--matrix", "zeroed"])
    # clean flag and laplacian path
    result = _invoke(
        ["spectra", "--cloud", cloud_path, "--matrix", "laplacian", "--clean"]
    )
    assert "laplacian spectrum" in result.output


def test_spectra_row_normalized_matrices_match_reference(tmp_path):
    cloud_path = str(tmp_path / "cloud.npz")
    _invoke(
        ["gen", "--kind", "spiked", "--n", "30", "--p", "20", "--lam", "5",
         "--seed", "4", "--out", cloud_path]
    )
    cloud = load_cloud_npz(cloud_path)
    h = 7.0
    W = affinity(pairwise_sq_dists(cloud.noisy()), 0.5, h)
    references = {
        "transition": transition(W),
        "laplacian": laplacian(W, h),
        "zeroed": zeroed_transition(W),
    }
    for which, M in references.items():
        spec_path = str(tmp_path / ("%s.csv" % which))
        _invoke(
            ["spectra", "--cloud", cloud_path, "--matrix", which, "--h", "7",
             "--out", spec_path]
        )
        got = np.loadtxt(spec_path, delimiter=",", skiprows=1)[:, 1]
        want = np.sort(np.linalg.eigvals(M).real)[::-1]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)


def _reference_save_cloud_csv(cloud, path):
    # the cloud writer before all CSV output shared one writer: the byte
    # reference for the format
    with open(path, "w") as fh:
        fh.write("n,p,d,kind,seed\n")
        fh.write("%d,%d,%d,%s,%d\n" % (cloud.n, cloud.p, cloud.d, cloud.kind, cloud.seed))
        for block in (cloud.clean, cloud.noise):
            for row in block:
                fh.write(",".join("%.17g" % v for v in row))
                fh.write("\n")


def _reference_save_spectrum_csv(eigs, path):
    with open(path, "w") as fh:
        fh.write("index,eigenvalue\n")
        for i, v in enumerate(np.asarray(eigs), start=1):
            fh.write("%d,%.17g\n" % (i, v))


def test_cli_writers_keep_the_reference_bytes(tmp_path):
    cloud_path = str(tmp_path / "x.csv")
    _invoke(
        ["gen", "--kind", "spiked", "--n", "30", "--p", "20", "--lam", "5",
         "--seed", "4", "--out", cloud_path]
    )
    ref_path = str(tmp_path / "ref.csv")
    cloud = gen_spiked(30, 20, (5.0,), 4)
    _reference_save_cloud_csv(cloud, ref_path)
    with open(cloud_path, "rb") as got, open(ref_path, "rb") as ref:
        assert got.read() == ref.read()
    cloud = load_cloud_csv(cloud_path)
    W = affinity(pairwise_sq_dists(cloud.noisy()), 0.5, 20.0)
    spectra = {
        "affinity": sym_eigs(W),
        "laplacian": (1.0 - sym_eigs(sym_normalized(W))[::-1]) / 20.0,
    }
    for which, values in spectra.items():
        spec_path = str(tmp_path / ("%s.csv" % which))
        _invoke(["spectra", "--cloud", cloud_path, "--matrix", which, "--out", spec_path])
        _reference_save_spectrum_csv(values, ref_path)
        with open(spec_path, "rb") as got, open(ref_path, "rb") as ref:
            assert got.read() == ref.read()
    odd = np.array([0.0, -0.0, 5e-324, 3e38, np.inf, -np.inf, np.nan, 1.0 / 3.0])
    write_csv(spec_path, ["index", "eigenvalue"], enumerate(odd, start=1))
    _reference_save_spectrum_csv(odd, ref_path)
    with open(spec_path, "rb") as got, open(ref_path, "rb") as ref:
        assert got.read() == ref.read()


@pytest.mark.parametrize("grid", ["0.05,0.95", "0.05,0.95,x", "0.5,0.2,10", "0.05,0.95,0"])
def test_omega_rejects_a_malformed_grid(tmp_path, grid):
    cloud_path = str(tmp_path / "cloud.csv")
    _invoke(["gen", "--kind", "spiked", "--n", "20", "--p", "20", "--lam", "5",
             "--out", cloud_path])
    result = CliRunner().invoke(
        main, ["omega", "--cloud", cloud_path, "--s", "0.3", "--grid", grid]
    )
    assert result.exit_code == 2, result.output
    assert "--grid" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize(
    "args",
    [["omega"], ["omega", "--s", "0.2"], ["spectra"]],
    ids=lambda args: "-".join(a.lstrip("-") for a in args),
)
def test_non_finite_cloud_is_a_usage_error(tmp_path, monkeypatch, args):
    cloud_path = tmp_path / "nan.csv"
    save_cloud_csv(gen_spiked(30, 20, (3.0,), 0), cloud_path)
    lines = cloud_path.read_text().splitlines()
    lines[5] = "nan," + lines[5].split(",", 1)[1]
    cloud_path.write_text("\n".join(lines) + "\n")

    def no_work(*args, **kwargs):
        raise AssertionError("worked on a rejected cloud")

    monkeypatch.setattr("glspec.cli.resample_threshold", no_work)
    monkeypatch.setattr("glspec.cli.sym_eigs", no_work)
    result = CliRunner().invoke(main, [*args, "--cloud", str(cloud_path)])
    assert result.exit_code == 2, result.output
    assert "NaN" in result.output
    assert "Traceback" not in result.output



@pytest.mark.parametrize("command", ["omega", "spectra"])
def test_foreign_npz_cloud_is_a_usage_error(tmp_path, command):
    cloud_path = tmp_path / "foreign.npz"
    np.savez(cloud_path, a=np.ones(3))
    result = CliRunner().invoke(main, [command, "--cloud", str(cloud_path)])
    assert result.exit_code == 2, result.output
    assert "no 'clean' entry" in result.output
    assert "Traceback" not in result.output

def test_omega_rejects_identical_points_before_resampling(tmp_path, monkeypatch):
    # every pairwise distance is zero, so the bandwidth at the bottom of
    # the grid is zero: a usage error before the threshold is resampled
    cloud_path = tmp_path / "same.npz"
    zeros = np.zeros((30, 20))
    np.savez(cloud_path, clean=zeros, noise=zeros, d=1, lambdas=np.zeros(1), seed=0,
             kind="spiked")

    def no_work(*args, **kwargs):
        raise AssertionError("worked on a rejected cloud")

    monkeypatch.setattr("glspec.cli.resample_threshold", no_work)
    monkeypatch.setattr("glspec.cli.select_omega", no_work)
    result = CliRunner().invoke(main, ["omega", "--cloud", str(cloud_path)])
    assert result.exit_code == 2, result.output
    assert "not positive" in result.output
    assert "resampled s" not in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("args", [[], ["--s", "0.2"]], ids=["resampled-s", "given-s"])
def test_omega_rejects_a_cloud_too_small_for_the_ratio_window(tmp_path, monkeypatch, args):
    # min(n, p) = 4 leaves no bulk ratio to count on
    cloud_path = str(tmp_path / "small.csv")
    _invoke(["gen", "--kind", "spiked", "--n", "4", "--p", "20", "--lam", "3",
             "--out", cloud_path])

    def no_work(*args, **kwargs):
        raise AssertionError("worked on a rejected cloud")

    monkeypatch.setattr("glspec.cli.resample_threshold", no_work)
    monkeypatch.setattr("glspec.cli.select_omega", no_work)
    result = CliRunner().invoke(main, ["omega", "--cloud", cloud_path, *args])
    assert result.exit_code == 2, result.output
    assert "--cloud" in result.output
    assert "bulk ratio window is empty" in result.output
    assert "Traceback" not in result.output


# (command and options, the option the error must name)
BAD_NUMBERS = [
    (["spectra", "--h", "-1"], "--h"),
    (["spectra", "--upsilon", "0"], "--upsilon"),
    (["spectra", "--matrix", "zeroed", "--h", "0.001"], "--h"),
    (["omega", "--upsilon", "-1"], "--upsilon"),
    (["omega", "--upsilon", "-1", "--s", "0.2"], "--upsilon"),
    (["omega", "--s", "-0.1"], "--s"),
    (["omega", "--seed", "-1"], "--seed"),
    (["spectra", "--upsilon", "nan"], "--upsilon"),
    (["spectra", "--h", "inf"], "--h"),
    (["omega", "--upsilon", "nan"], "--upsilon"),
    (["omega", "--upsilon", "inf", "--s", "0.2"], "--upsilon"),
    (["omega", "--s", "nan"], "--s"),
    (["omega", "--s", "inf"], "--s"),
]


@pytest.mark.parametrize(
    "args, option", BAD_NUMBERS,
    ids=["-".join(a.lstrip("-") for a in args) for args, _ in BAD_NUMBERS],
)
def test_bad_numeric_option_is_a_usage_error_before_any_work(tmp_path, monkeypatch, args, option):
    cloud_path = tmp_path / "cloud.csv"
    save_cloud_csv(gen_spiked(30, 20, (3.0,), 0), cloud_path)

    def no_work(*args, **kwargs):
        raise AssertionError("worked on a rejected option")

    # a bad --upsilon is refused before s is resampled, and no value here
    # reaches an eigensolve
    monkeypatch.setattr("glspec.cli.resample_threshold", no_work)
    monkeypatch.setattr("glspec.cli.sym_eigs", no_work)
    monkeypatch.setattr("glspec.cli.select_omega", no_work)
    result = CliRunner().invoke(main, [args[0], "--cloud", str(cloud_path), *args[1:]])
    assert result.exit_code == 2, result.output
    assert option in result.output
    assert "Traceback" not in result.output
