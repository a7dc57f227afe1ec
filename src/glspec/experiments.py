"""Named, reproducible experiment recipes over the library's building blocks.

Each recipe writes plain CSV artifacts plus a small gnuplot script into the
configured output directory and returns a manifest (config echo, library
version, per-run seeds, wall clock, artifact digests).  Artifacts are
formatted deterministically, so re-running a config reproduces byte-identical
CSVs.
"""

import hashlib
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .approximants import w_a1, w_b1
from .bandwidth import quantile_bandwidth, resample_threshold, select_omega
from .datagen import (
    GeneratorConfig,
    gen_circle,
    gen_curve_m1,
    gen_klein_bottle,
    gen_spiked,
)
from .kernels import (
    KernelParams,
    affinity,
    degree,
    gram,
    off_diagonal,
    pairwise_sq_dists,
    sym_normalized,
)
from .mplaw import mp_cdf, nu0, typical_location
from .spectrum import (
    StieltjesGrid,
    bulk_rigidity,
    eigvec_rmse,
    esd_histogram,
    op_norm_diff,
    stieltjes,
    sym_eigs,
)

EXPERIMENT_NAMES = (
    "PhaseSweep",
    "AccuracyLowSNR",
    "AccuracyModerate",
    "AccuracyLarge",
    "DimensionSweep",
    "HistogramBulk",
    "OmegaSweep",
    "ManifoldRmse",
    "StieltjesCompare",
    "D2Comparison",
    "ZeroingComparison",
)

DEFAULT_SEEDS = (0, 1, 2, 3, 4)


@dataclass
class ExperimentConfig:
    """Settings for one named experiment run.

    ``p`` and ``c_grid`` are mutually exclusive ways to fix the ambient
    dimension; most recipes default to the aspect-ratio grid (0.5, 1, 2)
    when both are left unset.  ``alpha_base`` selects the signal-strength
    base (lambda = base**alpha); it defaults per experiment (n for
    OmegaSweep, p everywhere else) and the resolved value is echoed into
    the manifest.  Every field lands in the run manifest.
    """

    name: str
    n: int = None
    p: int = None
    c_grid: tuple = None
    alpha_grid: tuple = None
    upsilon: float = 0.5
    seeds: tuple = DEFAULT_SEEDS
    reps: int = None
    output_dir: str = "out"
    alpha_base: str = None

    def validate(self):
        if self.name not in EXPERIMENT_NAMES:
            raise ValueError(
                "unknown experiment %r (choose from %s)"
                % (self.name, ", ".join(EXPERIMENT_NAMES))
            )
        if self.p is not None and self.c_grid is not None:
            raise ValueError("give either p or c_grid, not both")
        if self.n is not None and self.n < 2:
            raise ValueError("need n >= 2")
        if self.upsilon <= 0:
            raise ValueError("need upsilon > 0")
        if not self.seeds:
            raise ValueError("need at least one seed")
        if any(seed < 0 for seed in self.seeds):
            raise ValueError("seeds must be nonnegative")
        if self.c_grid is not None and not self.c_grid:
            raise ValueError("c_grid must not be empty")
        if self.c_grid is not None and any(c <= 0 for c in self.c_grid):
            raise ValueError("c_grid entries must be positive")
        if self.alpha_grid is not None and not self.alpha_grid:
            raise ValueError("alpha_grid must not be empty")
        if self.reps is not None and self.reps < 1:
            raise ValueError("need reps >= 1")
        if self.alpha_base not in (None, "n", "p"):
            raise ValueError("alpha_base must be 'n' or 'p'")
        return self

    def to_dict(self):
        return {
            "name": self.name,
            "n": self.n,
            "p": self.p,
            "c_grid": None if self.c_grid is None else list(self.c_grid),
            "alpha_grid": None
            if self.alpha_grid is None
            else [float(a) for a in self.alpha_grid],
            "upsilon": self.upsilon,
            "seeds": list(self.seeds),
            "reps": self.reps,
            "output_dir": self.output_dir,
            "alpha_base": self.alpha_base,
        }


@dataclass
class RunManifest:
    """Record of one experiment run: config echo, versions, seeds, timing,
    and the sha256 of every artifact.  Re-running the same config (and
    fast flag) reproduces the artifact bytes."""

    config: dict
    version: str
    experiment: str
    fast: bool
    seeds: list
    resolved: dict
    wall_clock_s: float
    files: list = field(default_factory=list)

    def save(self, path):
        payload = {
            "config": self.config,
            "version": self.version,
            "experiment": self.experiment,
            "fast": self.fast,
            "seeds": self.seeds,
            "resolved": self.resolved,
            "wall_clock_s": self.wall_clock_s,
            "files": self.files,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")


def parse_config_file(path, default_name=None):
    """Read a flat key = value config file into an ExperimentConfig.

    Lines are ``key = value``; ``#`` starts a comment.  List values are
    comma-separated.  Keys match the ExperimentConfig fields; ``name`` may
    be omitted when ``default_name`` supplies it.
    """
    raw = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError("%s:%d: expected key = value" % (path, lineno))
            key, value = (part.strip() for part in line.split("=", 1))
            raw[key] = value
    if "name" not in raw:
        if default_name is None:
            raise ValueError("config file %s has no 'name' key" % path)
        raw["name"] = default_name

    def as_number(text):
        return int(text) if text.lstrip("+-").isdigit() else float(text)

    def as_tuple(text):
        return tuple(as_number(v.strip()) for v in text.split(",") if v.strip())

    kwargs = {"name": raw.pop("name")}
    for key, value in raw.items():
        if key in ("c_grid", "alpha_grid", "seeds"):
            kwargs[key] = as_tuple(value)
        elif key in ("n", "p", "reps"):
            kwargs[key] = int(value)
        elif key == "upsilon":
            kwargs[key] = float(value)
        elif key in ("output_dir", "alpha_base"):
            kwargs[key] = value
        else:
            raise ValueError("unknown config key %r in %s" % (key, path))
    return ExperimentConfig(**kwargs).validate()


# ---------------------------------------------------------------------------
# artifact plumbing


def _fmt(value):
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return "%d" % value
    if isinstance(value, (float, np.floating)):
        return "%.17g" % value
    return str(value)


def _write_csv(path, header, rows):
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    return path


def _write_gnuplot(path, lines):
    body = ["set datafile separator ','", "set grid"]
    body.extend(lines)
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(body) + "\n")
    return path


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _resolve_c_grid(cfg, n, default=(0.5, 1.0, 2.0)):
    """Aspect ratios c = n/p for a recipe that draws n points; a fixed
    ``cfg.p`` becomes the one c with round(n/c) = p."""
    if cfg.c_grid is not None:
        return tuple(float(c) for c in cfg.c_grid)
    if cfg.p is not None:
        return (n / float(cfg.p),)
    return default


def _resolve_base(cfg, default):
    return cfg.alpha_base if cfg.alpha_base is not None else default


def _signal(alpha, n, p, base):
    return float(n) ** alpha if base == "n" else float(p) ** alpha


def _spiked_cloud(n, p, lam, seed, d=1, lambdas=None):
    cfg = GeneratorConfig(
        n=n, p=p, d=d, lambdas=lambdas if lambdas is not None else (lam,), seed=seed
    )
    return gen_spiked(cfg)


def _affinity_of(X, upsilon, h):
    return affinity(pairwise_sq_dists(X), KernelParams(upsilon, float(h)))


# ---------------------------------------------------------------------------
# recipes


def _run_phase_sweep(cfg, fast, out):
    """Descending eigenvalue curves per signal strength, plus four tracked
    eigenvalues swept over a fine strength grid with frozen noise."""
    n = cfg.n if cfg.n is not None else 300
    p = cfg.p if cfg.p is not None else n
    base = _resolve_base(cfg, "p")
    seed = cfg.seeds[0]
    alphas = cfg.alpha_grid if cfg.alpha_grid is not None else (
        0.0, 0.3, 0.45, 0.6, 0.8, 1.5, 2.5,
    )

    def curve(alpha):
        lam = _signal(alpha, n, p, base)
        cloud = _spiked_cloud(n, p, lam, seed)
        W = _affinity_of(cloud.noisy(), cfg.upsilon, p)
        return sym_eigs(W).eigenvalues

    curves = [curve(alpha) for alpha in alphas]
    header = ["index"] + ["alpha_%g" % a for a in alphas]
    rows = [[i + 1] + [col[i] for col in curves] for i in range(n)]
    f_curves = _write_csv(os.path.join(out, "phase_eigencurves.csv"), header, rows)

    n2 = 200
    cs = _resolve_c_grid(cfg, n2)
    step = 0.1 if fast else 0.05
    fine = np.round(np.arange(0.0, 2.5 + 1e-9, step), 10)
    track = (1, 2, 8, 80)

    def tracked(c, alpha):
        p2 = int(round(n2 / c))
        lam = _signal(alpha, n2, p2, base)
        cloud = _spiked_cloud(n2, p2, lam, seed)
        W = _affinity_of(cloud.noisy(), cfg.upsilon, p2)
        ew = sym_eigs(W).eigenvalues
        eg = sym_eigs(gram(cloud.noisy())).eigenvalues
        return [c, alpha] + [ew[i - 1] for i in track] + [eg[0], eg[1]]

    rows = [tracked(c, float(a)) for c in cs for a in fine]
    f_track = _write_csv(
        os.path.join(out, "phase_tracked.csv"),
        ["c", "alpha"]
        + ["w_eig%d" % i for i in track]
        + ["gram_eig1", "gram_eig2"],
        rows,
    )
    f_gp = _write_gnuplot(
        os.path.join(out, "phase_sweep.gp"),
        [
            "set key outside",
            "set xlabel 'index'",
            "set ylabel 'eigenvalue'",
            "plot for [col=2:%d] 'phase_eigencurves.csv' using 1:col "
            "with lines title columnheader(col)" % (1 + len(alphas)),
            "pause -1",
            "set xlabel 'alpha'",
            "plot 'phase_tracked.csv' using 2:3 skip 1 with lines title 'w eig 1', "
            "'' using 2:4 skip 1 with lines title 'w eig 2', "
            "'' using 2:5 skip 1 with lines title 'w eig 8', "
            "'' using 2:6 skip 1 with lines title 'w eig 80'",
        ],
    )
    info = {"n": n, "p": p, "alpha_base": base, "tracked_n": n2, "c_grid": list(cs)}
    return [f_curves, f_track, f_gp], [seed], info


def _accuracy_recipe(cfg, fast, out, tag, alpha, make_reference):
    """Shared body of the three fixed-strength accuracy experiments.

    ``make_reference(n, p, params)`` prepares the per-aspect context and
    returns a function mapping (cloud, W, descending eigenvalues of W) to
    (limit eigenvalues, error scalar).  The per-c CSVs carry the mean
    sample and limit curves, the summary carries the per-seed error.
    """
    n = cfg.n if cfg.n is not None else 200
    base = _resolve_base(cfg, "p")
    cs = _resolve_c_grid(cfg, n)
    seeds = cfg.seeds[:2] if fast else cfg.seeds
    curve_rows, summary_rows = [], []
    for c in cs:
        p = int(round(n / c))
        lam = _signal(alpha, n, p, base)
        params = KernelParams(cfg.upsilon, float(p))
        reference = make_reference(n, p, params)

        def one(seed):
            cloud = _spiked_cloud(n, p, lam, seed)
            W = _affinity_of(cloud.noisy(), cfg.upsilon, p)
            eigs = sym_eigs(W).eigenvalues
            return (eigs,) + reference(cloud, W, eigs)

        results = [one(seed) for seed in seeds]
        sample = np.mean([r[0] for r in results], axis=0)
        limit = np.mean([r[1] for r in results], axis=0)
        for i in range(n):
            curve_rows.append([c, i + 1, sample[i], limit[i]])
        for seed, r in zip(seeds, results):
            summary_rows.append([c, seed, r[2]])
    f_curves = _write_csv(
        os.path.join(out, "%s_curves.csv" % tag),
        ["c", "index", "sample_mean", "limit_mean"],
        curve_rows,
    )
    f_summary = _write_csv(
        os.path.join(out, "%s_summary.csv" % tag),
        ["c", "seed", "error"],
        summary_rows,
    )
    f_gp = _write_gnuplot(
        os.path.join(out, "%s.gp" % tag),
        [
            "set xlabel 'index'",
            "set ylabel 'eigenvalue'",
            "plot '%s_curves.csv' using 2:($1==1 ? $3 : 1/0) skip 1 "
            "with points title 'sample (c=1)', "
            "'' using 2:($1==1 ? $4 : 1/0) skip 1 with lines title 'limit (c=1)'"
            % tag,
        ],
    )
    info = {"n": n, "alpha": alpha, "alpha_base": base, "c_grid": list(cs)}
    return [f_curves, f_summary, f_gp], list(seeds), info


def _low_snr_error(eigs, measure):
    """Weak-signal error: bulk rigidity of the spectrum against the shifted
    MP law, over indices 10 .. 0.9 n."""
    return bulk_rigidity(eigs, measure, skip=9, eps=0.1)


def _clean_surrogate(cloud, params):
    """The moderate-signal reference W_a1 built from the clean rows."""
    return w_a1(_affinity_of(cloud.clean, params.upsilon, params.h), params.upsilon)


def _moderate_snr_error(W, Wa1):
    """Moderate-signal error: ||W - W_a1|| / n."""
    return op_norm_diff(W, Wa1) / W.shape[0]


def _large_snr_error(eigs):
    """Very-strong-signal error: max |lambda - 1|."""
    return float(np.max(np.abs(eigs - 1.0)))


def _run_accuracy_low(cfg, fast, out):
    """Bulk eigenvalues against shifted MP typical locations at weak signal."""

    def make_reference(n, p, params):
        measure = nu0(n / float(p), params.upsilon)
        gammas = typical_location(measure, np.arange(1, n + 1), n)
        return lambda cloud, W, eigs: (gammas, _low_snr_error(eigs, measure))

    return _accuracy_recipe(cfg, fast, out, "accuracy_low", 0.2, make_reference)


def _run_accuracy_moderate(cfg, fast, out):
    """Eigenvalue overlay of W against its scaled-plus-shifted clean limit."""

    def make_reference(n, p, params):
        def reference(cloud, W, eigs):
            Wa1 = _clean_surrogate(cloud, params)
            return sym_eigs(Wa1).eigenvalues, _moderate_snr_error(W, Wa1)

        return reference

    return _accuracy_recipe(cfg, fast, out, "accuracy_moderate", 1.9, make_reference)


def _run_accuracy_large(cfg, fast, out):
    """Very strong signal: the affinity spectrum collapses to unity."""

    def make_reference(n, p, params):
        ones = np.ones(n)
        return lambda cloud, W, eigs: (ones, _large_snr_error(eigs))

    return _accuracy_recipe(cfg, fast, out, "accuracy_large", 5.0, make_reference)


def _run_dimension_sweep(cfg, fast, out):
    """Error-versus-n curves for the three accuracy regimes at c = 1."""
    ns = (50, 150, 300) if fast else (50, 100, 150, 200, 250, 300, 400)
    if cfg.alpha_grid is not None:
        raise ValueError("DimensionSweep fixes its three alpha values")
    base = _resolve_base(cfg, "p")
    seeds = cfg.seeds[:2] if fast else cfg.seeds
    law = nu0(1.0, cfg.upsilon)

    def one(n, seed):
        p = n
        params = KernelParams(cfg.upsilon, float(p))

        def noisy_affinity(alpha):
            cloud = _spiked_cloud(n, p, _signal(alpha, n, p, base), seed)
            return cloud, _affinity_of(cloud.noisy(), cfg.upsilon, p)

        _, W = noisy_affinity(0.2)
        err_low = _low_snr_error(sym_eigs(W).eigenvalues, law)
        cloud, W = noisy_affinity(1.9)
        err_mod = _moderate_snr_error(W, _clean_surrogate(cloud, params))
        _, W = noisy_affinity(5.0)
        err_big = _large_snr_error(sym_eigs(W).eigenvalues)
        return [n, seed, err_low, err_mod, err_big]

    rows = [one(n, s) for n in ns for s in seeds]
    f_rows = _write_csv(
        os.path.join(out, "dimension_sweep.csv"),
        ["n", "seed", "err_low", "err_moderate", "err_large"],
        rows,
    )
    means = []
    for n in ns:
        block = np.array([r[2:] for r in rows if r[0] == n])
        means.append([n] + list(block.mean(axis=0)))
    f_mean = _write_csv(
        os.path.join(out, "dimension_sweep_mean.csv"),
        ["n", "err_low", "err_moderate", "err_large"],
        means,
    )
    f_gp = _write_gnuplot(
        os.path.join(out, "dimension_sweep.gp"),
        [
            "set xlabel 'n'",
            "set ylabel 'error'",
            "set logscale y",
            "plot 'dimension_sweep_mean.csv' using 1:2 skip 1 with linespoints "
            "title 'low snr', '' using 1:3 skip 1 with linespoints title "
            "'moderate snr', '' using 1:4 skip 1 with linespoints title 'large snr'",
        ],
    )
    info = {"n_grid": list(ns), "alpha_base": base, "c": 1.0}
    return [f_rows, f_mean, f_gp], list(seeds), info


def _run_histogram_bulk(cfg, fast, out):
    """Bulk histogram of the weak-signal affinity spectrum against the
    shifted MP density, point mass removed, over many repetitions.

    Repetition r draws seed 100000 (seeds[0] + 1) + r, so distinct first
    seeds give disjoint repetitions.
    """
    n = cfg.n if cfg.n is not None else 200
    base = _resolve_base(cfg, "p")
    cs = _resolve_c_grid(cfg, n)
    reps = cfg.reps if cfg.reps is not None else (100 if fast else 1000)
    first_seed = 100000 * (cfg.seeds[0] + 1)
    bins = 50
    rows = []
    for c in cs:
        p = int(round(n / c))
        lam = _signal(0.2, n, p, base)
        measure = nu0(n / float(p), cfg.upsilon)
        lo = measure.shift + measure.bulk_lo
        hi = measure.shift + measure.bulk_hi
        edges = np.linspace(lo, hi, bins + 1)

        counts = np.zeros(bins)
        for rep in range(reps):
            cloud = _spiked_cloud(n, p, lam, first_seed + rep)
            W = _affinity_of(cloud.noisy(), cfg.upsilon, p)
            counts += esd_histogram(sym_eigs(W).eigenvalues, edges)[1]
        width = edges[1] - edges[0]
        emp = counts / (reps * n * width)
        theory = np.diff(mp_cdf(edges, measure)) / width
        for k in range(bins):
            rows.append([c, edges[k], edges[k + 1], emp[k], theory[k]])
    f_hist = _write_csv(
        os.path.join(out, "histogram_bulk.csv"),
        ["c", "bin_lo", "bin_hi", "empirical_density", "limit_density"],
        rows,
    )
    f_gp = _write_gnuplot(
        os.path.join(out, "histogram_bulk.gp"),
        [
            "set xlabel 'eigenvalue'",
            "set ylabel 'density'",
            "plot 'histogram_bulk.csv' using (0.5*($2+$3)):($1==1 ? $4 : 1/0) "
            "skip 1 with boxes title 'empirical (c=1)', "
            "'' using (0.5*($2+$3)):($1==1 ? $5 : 1/0) skip 1 with lines "
            "title 'limit (c=1)'",
        ],
    )
    info = {"n": n, "reps": reps, "alpha": 0.2, "alpha_base": base, "c_grid": list(cs)}
    return [f_hist, f_gp], [first_seed], info


def _run_omega_sweep(cfg, fast, out):
    """Selected quantile level against signal strength on noisy circles,
    once from the affinity spectrum and once from the transition spectrum."""
    n = cfg.n if cfg.n is not None else 300
    base = _resolve_base(cfg, "n")
    cs = _resolve_c_grid(cfg, n)
    alphas = cfg.alpha_grid if cfg.alpha_grid is not None else (
        0.2, 0.6, 1.0, 1.5, 2.0, 2.5, 3.0,
    )
    if fast:
        alphas = tuple(alphas)[::2]
    seed = cfg.seeds[0]
    thresholds = {c: resample_threshold(c, n, cfg.upsilon, seed=seed) for c in cs}

    def one(c, alpha):
        p = int(round(n / c))
        lam = _signal(alpha, n, p, base)
        cloud = gen_circle(n, p, lam, seed)
        sel_w = select_omega(cloud, cfg.upsilon, thresholds[c])
        sel_a = select_omega(cloud, cfg.upsilon, thresholds[c], matrix="transition")
        return [
            c, alpha, thresholds[c],
            sel_w.omega, sel_w.h / p,
            sel_a.omega, sel_a.h / p,
        ]

    rows = [one(c, float(a)) for c in cs for a in alphas]
    f_rows = _write_csv(
        os.path.join(out, "omega_sweep.csv"),
        ["c", "alpha", "s", "omega_w", "h_over_p_w", "omega_a", "h_over_p_a"],
        rows,
    )
    f_gp = _write_gnuplot(
        os.path.join(out, "omega_sweep.gp"),
        [
            "set xlabel 'alpha'",
            "set ylabel 'selected omega'",
            "set yrange [0:1]",
            "plot 'omega_sweep.csv' using 2:($1==1 ? $4 : 1/0) skip 1 "
            "with linespoints title 'affinity (c=1)', "
            "'' using 2:($1==1 ? $6 : 1/0) skip 1 with linespoints "
            "title 'transition (c=1)'",
        ],
    )
    info = {
        "n": n,
        "alpha_base": base,
        "c_grid": list(cs),
        "thresholds": {_fmt(c): thresholds[c] for c in cs},
    }
    return [f_rows, f_gp], [seed], info


MANIFOLD_RMSE_SIZES = {"m1": 400, "kb": 800}


def _run_manifold_rmse(cfg, fast, out):
    """Eigenvector RMSE of noisy-manifold affinities against the clean
    reference, for the selected, median-quantile, ambient-dimension, and
    signal-matched bandwidths."""
    upsilon = cfg.upsilon
    reps = cfg.reps if cfg.reps is not None else (5 if fast else 20)
    base_seed = cfg.seeds[0]
    top = 9
    rmse_rows, omega_rows, c_grids = [], [], {}
    for kind, n_kind in MANIFOLD_RMSE_SIZES.items():
        n = n_kind if cfg.n is None else cfg.n
        cs = _resolve_c_grid(cfg, n, default=(1.0,))
        c_grids[kind] = list(cs)
        for ci, c in enumerate(cs):
            p = int(round(n / c))
            a = 20.0 * np.sqrt(p)
            s = resample_threshold(c, n, upsilon, seed=base_seed)

            def one(rep):
                seed = base_seed + 1000 * ci + rep
                if kind == "m1":
                    cloud = gen_curve_m1(n, p, a, seed)
                else:
                    cloud = gen_klein_bottle(n, p, a, seed)
                lam_tot = cloud.lambda_total()
                D2_clean = pairwise_sq_dists(cloud.clean)
                ref = sym_eigs(
                    affinity(D2_clean, KernelParams(upsilon, p + lam_tot)),
                    want_vectors=top,
                ).eigenvectors
                D2 = pairwise_sq_dists(cloud.noisy())
                sel = select_omega(cloud, upsilon, s)
                variants = {
                    "adap": sel.h,
                    "medq": quantile_bandwidth(D2, 0.5),
                    "hp": float(p),
                    "theory": p + lam_tot,
                }
                rmse = {}
                for tag, h in variants.items():
                    vecs = sym_eigs(
                        affinity(D2, KernelParams(upsilon, h)), want_vectors=top
                    ).eigenvectors
                    rmse[tag] = eigvec_rmse(ref, vecs)
                return seed, sel, rmse

            results = [one(rep) for rep in range(reps)]
            for seed, sel, _ in results:
                omega_rows.append([kind, c, seed, sel.omega, sel.h / p])
            for tag in ("adap", "medq", "hp", "theory"):
                stack = np.array([r[2][tag] for r in results])
                mean, std = stack.mean(axis=0), stack.std(axis=0)
                for j in range(top):
                    rmse_rows.append([kind, c, j + 1, tag, mean[j], std[j]])
    f_rmse = _write_csv(
        os.path.join(out, "manifold_rmse.csv"),
        ["manifold", "c", "vec_index", "variant", "rmse_mean", "rmse_std"],
        rmse_rows,
    )
    f_omega = _write_csv(
        os.path.join(out, "manifold_omegas.csv"),
        ["manifold", "c", "seed", "omega", "h_over_p"],
        omega_rows,
    )
    f_gp = _write_gnuplot(
        os.path.join(out, "manifold_rmse.gp"),
        [
            "set xlabel 'eigenvector index'",
            "set ylabel 'rmse'",
            "plot 'manifold_rmse.csv' "
            "using 3:(strcol(1) eq 'm1' && strcol(4) eq 'adap' ? $5 : 1/0):6 "
            "skip 1 with yerrorlines title 'adap', "
            "'' using 3:(strcol(1) eq 'm1' && strcol(4) eq 'medq' ? $5 : 1/0):6 "
            "skip 1 with yerrorlines title 'medq', "
            "'' using 3:(strcol(1) eq 'm1' && strcol(4) eq 'hp' ? $5 : 1/0):6 "
            "skip 1 with yerrorlines title 'h=p'",
        ],
    )
    info = {"reps": reps, "c_grid": c_grids, "sizes": dict(MANIFOLD_RMSE_SIZES)}
    seeds = [base_seed + r for r in range(reps)]
    return [f_rmse, f_omega, f_gp], seeds, info


def _run_stieltjes_compare(cfg, fast, out):
    """Stieltjes transforms of W and its Gram-based surrogate over the
    spectral-parameter box, at unit-exponent signal strength."""
    if cfg.c_grid is not None:
        raise ValueError("StieltjesCompare takes p, not c_grid")
    n = cfg.n if cfg.n is not None else 200
    base = _resolve_base(cfg, "p")
    a = 0.2
    seeds = cfg.seeds[:2] if fast else cfg.seeds
    p = cfg.p if cfg.p is not None else n
    lam = _signal(1.0, n, p, base)
    grid = StieltjesGrid.build(n, 1.0, a)

    def one(seed):
        cloud = _spiked_cloud(n, p, lam, seed)
        W = _affinity_of(cloud.noisy(), cfg.upsilon, p)
        W1 = _affinity_of(cloud.clean, cfg.upsilon, p)
        Wb1 = w_b1(W1, gram(cloud.noise), cfg.upsilon)
        # ascending: the last bits of each Stieltjes mean depend on the order
        ew = sym_eigs(W).eigenvalues[::-1]
        eb = sym_eigs(Wb1).eigenvalues[::-1]
        return np.array(
            [abs(stieltjes(ew, z) - stieltjes(eb, z)) for z in grid.points]
        )

    diffs = np.array([one(seed) for seed in seeds])
    rows = []
    for k, z in enumerate(grid.points):
        rows.append(
            [z.real, z.imag, diffs[:, k].mean(), diffs[:, k].max()]
        )
    f_grid = _write_csv(
        os.path.join(out, "stieltjes_grid.csv"),
        ["energy", "eta", "mean_absdiff", "max_absdiff"],
        rows,
    )
    f_sup = _write_csv(
        os.path.join(out, "stieltjes_sup.csv"),
        ["seed", "sup_absdiff", "bound"],
        [
            [seed, diffs[i].max(), 2.0 / (np.sqrt(n) * grid.eta_min**2)]
            for i, seed in enumerate(seeds)
        ],
    )
    f_gp = _write_gnuplot(
        os.path.join(out, "stieltjes_compare.gp"),
        [
            "set xlabel 'energy'",
            "set ylabel '|m_W - m_surrogate|'",
            "plot 'stieltjes_grid.csv' using 1:3 skip 1 with points "
            "title 'mean over seeds'",
        ],
    )
    info = {"n": n, "p": p, "lambda": lam, "a": a, "eta_min": grid.eta_min}
    return [f_grid, f_sup, f_gp], list(seeds), info


D2_CASES = (
    ("low_pair", 0.4, 0.1, "close"),
    ("both_large", 2.0, 1.6, "different"),
    ("large_small", 2.0, 0.4, "close"),
)


def _run_d2_comparison(cfg, fast, out):
    """Bulk spectra of one- against two-spike clouds in the three printed
    strength pairings, from the tenth eigenvalue on."""
    n = cfg.n if cfg.n is not None else 200
    base = _resolve_base(cfg, "p")
    cs = _resolve_c_grid(cfg, n)
    seeds = cfg.seeds[:2] if fast else cfg.seeds
    start = 10
    curve_rows, summary_rows = [], []

    def one(a1, a2, c, seed):
        p = int(round(n / c))
        lam1 = _signal(a1, n, p, base)
        lam2 = _signal(a2, n, p, base)
        e1 = sym_eigs(
            _affinity_of(_spiked_cloud(n, p, lam1, seed).noisy(), cfg.upsilon, p)
        ).eigenvalues
        e2 = sym_eigs(
            _affinity_of(
                _spiked_cloud(n, p, None, seed, d=2, lambdas=(lam1, lam2)).noisy(),
                cfg.upsilon,
                p,
            )
        ).eigenvalues
        return e1, e2

    for case, a1, a2, expected in D2_CASES:
        for c in cs:
            results = [one(a1, a2, c, seed) for seed in seeds]
            m1 = np.mean([r[0] for r in results], axis=0)
            m2 = np.mean([r[1] for r in results], axis=0)
            for i in range(start - 1, n):
                curve_rows.append([case, c, i + 1, m1[i], m2[i]])
            sup = float(np.max(np.abs(m1[start - 1 :] - m2[start - 1 :])))
            summary_rows.append([case, c, sup, expected])
    f_curves = _write_csv(
        os.path.join(out, "d2_curves.csv"),
        ["case", "c", "index", "eig_d1_mean", "eig_d2_mean"],
        curve_rows,
    )
    f_summary = _write_csv(
        os.path.join(out, "d2_summary.csv"),
        ["case", "c", "sup_absdiff", "expectation"],
        summary_rows,
    )
    f_gp = _write_gnuplot(
        os.path.join(out, "d2_comparison.gp"),
        [
            "set xlabel 'index'",
            "set ylabel 'eigenvalue'",
            "plot 'd2_curves.csv' "
            "using 3:(strcol(1) eq 'low_pair' && $2==1 ? $4 : 1/0) skip 1 "
            "with lines title 'one spike', "
            "'' using 3:(strcol(1) eq 'low_pair' && $2==1 ? $5 : 1/0) skip 1 "
            "with points title 'two spikes'",
        ],
    )
    info = {"n": n, "alpha_base": base, "c_grid": list(cs), "start_index": start}
    return [f_curves, f_summary, f_gp], list(seeds), info


def _run_zeroing_comparison(cfg, fast, out):
    """Third-eigenvector recovery of the plain against the zero-diagonal
    transition matrix across signal strengths.

    The recipe defaults to p = 200, n = 400 with the zero-diagonal variant
    at bandwidth 35 and the plain variant at the selected bandwidth.
    """
    if cfg.c_grid is not None:
        raise ValueError("ZeroingComparison takes p, not c_grid")
    n = cfg.n if cfg.n is not None else 400
    p = cfg.p if cfg.p is not None else 200
    upsilon = cfg.upsilon
    alphas = cfg.alpha_grid if cfg.alpha_grid is not None else (
        0.3, 0.5, 0.6, 0.8, 1.0, 1.2,
    )
    seeds = cfg.seeds[:2] if fast else cfg.seeds
    h_zero = 35.0
    s = resample_threshold(n / float(p), n, upsilon, seed=seeds[0])

    def third_vector_row_stochastic(W):
        # D^{-1/2} maps eigenvectors of the symmetric form to those of D^{-1} W
        res = sym_eigs(sym_normalized(W), want_vectors=3)
        vec = res.eigenvectors[:, 2] / np.sqrt(degree(W))
        return vec / np.linalg.norm(vec)

    def one(alpha, seed):
        lam = float(p) ** alpha
        cloud = _spiked_cloud(n, p, lam, seed)
        ref = third_vector_row_stochastic(_affinity_of(cloud.clean, upsilon, p + lam))
        sel = select_omega(cloud, upsilon, s)
        adap = third_vector_row_stochastic(_affinity_of(cloud.noisy(), upsilon, sel.h))
        zeroed = third_vector_row_stochastic(
            off_diagonal(_affinity_of(cloud.noisy(), upsilon, h_zero))
        )
        rng = np.random.Generator(np.random.Philox(key=seed + 991))
        noise_vec = rng.standard_normal(n)
        noise_vec /= np.linalg.norm(noise_vec)
        cols = np.column_stack([adap, zeroed, noise_vec])
        refs = np.column_stack([ref, ref, ref])
        r = eigvec_rmse(refs, cols)
        return [alpha, seed, r[0], r[1], r[2], sel.omega]

    rows = [one(float(a), s_) for a in alphas for s_ in seeds]
    f_rows = _write_csv(
        os.path.join(out, "zeroing.csv"),
        ["alpha", "seed", "rmse_adap", "rmse_zero", "rmse_baseline", "omega"],
        rows,
    )
    means = []
    for alpha in alphas:
        block = np.array([r[2:5] for r in rows if r[0] == float(alpha)])
        means.append([float(alpha)] + list(block.mean(axis=0)))
    f_means = _write_csv(
        os.path.join(out, "zeroing_mean.csv"),
        ["alpha", "rmse_adap", "rmse_zero", "rmse_baseline"],
        means,
    )
    f_gp = _write_gnuplot(
        os.path.join(out, "zeroing.gp"),
        [
            "set xlabel 'alpha'",
            "set ylabel 'third-eigenvector rmse'",
            "plot 'zeroing_mean.csv' using 1:2 skip 1 with linespoints "
            "title 'selected bandwidth', '' using 1:3 skip 1 with linespoints "
            "title 'zeroed diagonal', '' using 1:4 skip 1 with lines "
            "title 'random baseline'",
        ],
    )
    info = {"n": n, "p": p, "h_zero": h_zero, "s": s, "alphas": list(alphas)}
    return [f_rows, f_means, f_gp], list(seeds), info


_RUNNERS = {
    "PhaseSweep": _run_phase_sweep,
    "AccuracyLowSNR": _run_accuracy_low,
    "AccuracyModerate": _run_accuracy_moderate,
    "AccuracyLarge": _run_accuracy_large,
    "DimensionSweep": _run_dimension_sweep,
    "HistogramBulk": _run_histogram_bulk,
    "OmegaSweep": _run_omega_sweep,
    "ManifoldRmse": _run_manifold_rmse,
    "StieltjesCompare": _run_stieltjes_compare,
    "D2Comparison": _run_d2_comparison,
    "ZeroingComparison": _run_zeroing_comparison,
}


def run(config, fast=False):
    """Execute one named experiment and return its manifest.

    Artifacts (CSV files plus a gnuplot script) land in
    ``config.output_dir``; the manifest is written there last, as
    ``manifest.json``, and a manifest from an earlier run is removed before
    the recipe starts, so a run that fails leaves none.
    """
    from glspec import __version__

    config.validate()
    out = config.output_dir
    os.makedirs(out, exist_ok=True)
    manifest_path = os.path.join(out, "manifest.json")
    started = time.perf_counter()
    try:
        if os.path.exists(manifest_path):
            os.remove(manifest_path)
        files, seeds, info = _RUNNERS[config.name](config, fast, out)
    except OSError as err:
        raise OSError(
            "experiment %s failed writing under %r: %s" % (config.name, out, err)
        ) from err
    manifest = RunManifest(
        config=config.to_dict(),
        version=__version__,
        experiment=config.name,
        fast=bool(fast),
        seeds=[int(s) for s in seeds],
        resolved=info,
        wall_clock_s=round(time.perf_counter() - started, 3),
        files=[
            {"path": os.path.basename(path), "sha256": _sha256(path)}
            for path in files
        ],
    )
    manifest.save(manifest_path)
    return manifest
