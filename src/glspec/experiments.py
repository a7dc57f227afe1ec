"""Named, reproducible experiment recipes over the library's building blocks.

Each recipe is a pure function of (config, fast): it returns its artifacts
as data, in manifest order (each CSV as a header and rows, its gnuplot
script as lines), with the seeds it drew and the settings it resolved.
``run`` is the one writer: it puts every artifact into the configured
output directory and then saves the manifest (config echo, library
version, per-run seeds, wall clock, artifact digests).  Artifacts are
formatted deterministically, so re-running a config reproduces
byte-identical files.
"""

import functools
import hashlib
import numbers
import os
import time
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import __version__
from .approximants import w_a1, w_b1
from .bandwidth import quantile_bandwidth, resample_threshold, select_omega
from .datagen import (
    _fmt,
    gen_circle,
    gen_curve_m1,
    gen_klein_bottle,
    gen_spiked,
    write_csv,
    write_json,
)
from .kernels import (
    affinity,
    degree,
    gram,
    off_diagonal,
    pairwise_sq_dists,
    sym_normalized,
)
from .mplaw import mp_cdf, nu0, typical_location
from .spectrum import (
    bulk_rigidity,
    eigvec_rmse,
    op_norm_diff,
    stieltjes,
    stieltjes_grid,
    sym_eigs,
)

DEFAULT_SEEDS = (0, 1, 2, 3, 4)


@dataclass
class ExperimentConfig:
    """Settings for one named experiment run.

    The fields that default to ``None`` are optional: ``_RUNNERS`` lists
    the ones each recipe reads, with their defaults, and ``validate``
    refuses the others.  ``p`` and ``c_grid`` are mutually exclusive ways
    to fix the ambient dimension; ``alpha_base`` is the base of the signal
    strength lambda = base**alpha.  Every field lands in the run manifest.
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
        if self.p is not None and self.p < 1:
            raise ValueError("need p >= 1")
        if not (self.upsilon > 0 and np.isfinite(self.upsilon)):
            raise ValueError("need upsilon > 0 and finite, got %r" % (self.upsilon,))
        if not self.seeds:
            raise ValueError("need at least one seed")
        if not all(isinstance(seed, numbers.Integral) and seed >= 0 for seed in self.seeds):
            raise ValueError("seeds must be integers >= 0, got %r" % (self.seeds,))
        cs, alphas = self.c_grid, self.alpha_grid
        if cs is not None and not (cs and all(c > 0 and np.isfinite(c) for c in cs)):
            raise ValueError("c_grid must hold positive finite numbers, got %r" % (cs,))
        if alphas is not None and not (alphas and np.all(np.isfinite(alphas))):
            raise ValueError("alpha_grid must hold finite numbers, got %r" % (alphas,))
        if self.reps is not None and self.reps < 1:
            raise ValueError("need reps >= 1")
        if self.alpha_base not in (None, "n", "p"):
            raise ValueError("alpha_base must be 'n' or 'p'")
        reads = _RUNNERS[self.name][1]
        for f in fields(self):
            if f.default is None and getattr(self, f.name) is not None and f.name not in reads:
                raise ValueError(
                    "%s does not read %s; it reads only %s" % (self.name, f.name, ", ".join(reads))
                )
        return self

    def to_dict(self):
        """Every field, JSON-ready: tuples as lists, ``alpha_grid`` as floats."""
        d = {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}
        if self.alpha_grid is not None:
            d["alpha_grid"] = [float(a) for a in self.alpha_grid]
        return d


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


def parse_config_file(path, name=None):
    """Read a flat key = value config file into an ExperimentConfig.

    Lines are ``key = value``; ``#`` starts a comment.  Keys match the
    ExperimentConfig fields, and each value is read as its field's type
    (a tuple field as comma-separated numbers).  A given ``name`` replaces
    the file's ``name`` key before the config is validated.
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
    if name is not None:
        raw["name"] = name
    elif "name" not in raw:
        raise ValueError("config file %s has no 'name' key" % path)

    def as_number(text):
        return int(text) if text.lstrip("+-").isdigit() else float(text)

    def as_tuple(text):
        return tuple(as_number(v.strip()) for v in text.split(",") if v.strip())

    types = {f.name: f.type for f in fields(ExperimentConfig)}
    kwargs = {}
    for key, value in raw.items():
        if key not in types:
            raise ValueError("unknown config key %r in %s" % (key, path))
        try:
            kwargs[key] = as_tuple(value) if types[key] is tuple else types[key](value)
        except ValueError as err:
            raise ValueError("bad value for %s in %s: %s" % (key, path, err)) from None
    return ExperimentConfig(**kwargs).validate()


# ---------------------------------------------------------------------------
# artifact plumbing


def _write_gnuplot(path, lines):
    body = ["set datafile separator ','", "set grid"]
    body.extend(lines)
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(body) + "\n")


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _aspects(cfg, n, default=(0.5, 1.0, 2.0)):
    """Pairs (c, p = round(n/c)) for a recipe that draws n points, one per
    c of ``cfg.c_grid`` or of ``default``; a fixed ``cfg.p`` becomes the
    one c = n/p.  A c that rounds p below 1 is refused."""
    if cfg.c_grid is not None:
        cs = cfg.c_grid
    elif cfg.p is not None:
        cs = (n / float(cfg.p),)
    else:
        cs = default
    pairs = [(c, int(round(n / c))) for c in map(float, cs)]
    for c, p in pairs:
        if p < 1:
            raise ValueError("c = %g at n = %d gives p = round(n/c) = %d < 1" % (c, n, p))
    return pairs


def _run_seeds(cfg, fast):
    """The seeds a per-seed recipe draws: the first two in fast mode."""
    return list(cfg.seeds[:2] if fast else cfg.seeds)


def _signal(alpha, n, p, base):
    return float(n) ** alpha if base == "n" else float(p) ** alpha


def _affinity_of(X, upsilon, h):
    return affinity(pairwise_sq_dists(X), upsilon, float(h))


def _spiked_affinity(cfg, n, p, seed, alphas):
    """A spiked cloud of strengths base**alpha (base ``cfg.alpha_base``),
    one per alpha of ``alphas``, and its noisy affinity at h = p."""
    cloud = gen_spiked(n, p, tuple(_signal(a, n, p, cfg.alpha_base) for a in alphas), seed)
    return cloud, _affinity_of(cloud.noisy(), cfg.upsilon, p)


# ---------------------------------------------------------------------------
# recipes


def _run_phase_sweep(cfg, fast):
    """Descending eigenvalue curves per signal strength, plus four tracked
    eigenvalues swept over a fine strength grid with frozen noise.

    The curves run at p = ``cfg.p`` (default n), or at p = round(n/c) for
    each c of ``cfg.c_grid``, one ``c*_alpha_*`` column per pair."""
    n, alphas, seed = cfg.n, cfg.alpha_grid, cfg.seeds[0]
    if cfg.c_grid is None:
        aspects = [("", cfg.p if cfg.p is not None else n)]
    else:
        aspects = [("c%g_" % c, p) for c, p in _aspects(cfg, n)]

    # plain loops: the previous cloud keeps its noise live while the next
    # strength is drawn, so each aspect draws its frozen noise at most once
    curves = []
    for _, p in aspects:
        for alpha in alphas:
            cloud, W = _spiked_affinity(cfg, n, p, seed, (alpha,))
            curves.append(sym_eigs(W))
    header = ["index"] + [tag + "alpha_%g" % a for tag, _ in aspects for a in alphas]
    rows = [[i + 1] + [col[i] for col in curves] for i in range(n)]

    n2 = 200
    pairs = _aspects(cfg, n2)
    step = 0.1 if fast else 0.05
    fine = np.round(np.arange(0.0, 2.5 + 1e-9, step), 10)
    track = (1, 2, 8, 80)
    tracked = []
    for c, p2 in pairs:
        for alpha in map(float, fine):
            cloud, W = _spiked_affinity(cfg, n2, p2, seed, (alpha,))
            ew = sym_eigs(W)
            eg = sym_eigs(gram(cloud.noisy()))
            tracked.append([c, alpha] + [ew[i - 1] for i in track] + [eg[0], eg[1]])

    files = {
        "phase_eigencurves.csv": (header, rows),
        "phase_tracked.csv": (
            ["c", "alpha"] + ["w_eig%d" % i for i in track] + ["gram_eig1", "gram_eig2"],
            tracked,
        ),
        "phase_sweep.gp": [
            "set key outside",
            "set xlabel 'index'",
            "set ylabel 'eigenvalue'",
            "plot for [col=2:%d] 'phase_eigencurves.csv' using 1:col "
            "with lines title columnheader(col)" % len(header),
            "pause -1",
            "set xlabel 'alpha'",
            "plot 'phase_tracked.csv' using 2:3 skip 1 with lines title 'w eig 1', "
            "'' using 2:4 skip 1 with lines title 'w eig 2', "
            "'' using 2:5 skip 1 with lines title 'w eig 8', "
            "'' using 2:6 skip 1 with lines title 'w eig 80'",
        ],
    }
    info = {
        "curve_p": [p for _, p in aspects],
        "tracked_n": n2,
        "tracked_p": [p2 for _, p2 in pairs],
        "c_grid": [c for c, _ in pairs],
    }
    return files, [seed], info


def _accuracy_recipe(cfg, fast, tag, alpha, make_reference):
    """Shared body of the three fixed-strength accuracy experiments.

    ``make_reference(n, p)`` prepares the per-aspect context at h = p and
    returns a function mapping (cloud, W, descending eigenvalues of W) to
    (limit eigenvalues, error scalar).  The per-c CSVs carry the mean
    sample and limit curves, the summary carries the per-seed error.
    """
    n = cfg.n
    aspects = _aspects(cfg, n)
    seeds = _run_seeds(cfg, fast)
    curve_rows, summary_rows = [], []
    for c, p in aspects:
        reference = make_reference(n, p)

        def one(seed):
            cloud, W = _spiked_affinity(cfg, n, p, seed, (alpha,))
            eigs = sym_eigs(W)
            return (eigs,) + reference(cloud, W, eigs)

        results = [one(seed) for seed in seeds]
        sample = np.mean([r[0] for r in results], axis=0)
        limit = np.mean([r[1] for r in results], axis=0)
        for i in range(n):
            curve_rows.append([c, i + 1, sample[i], limit[i]])
        for seed, r in zip(seeds, results):
            summary_rows.append([c, seed, r[2]])
    files = {
        "%s_curves.csv" % tag: (["c", "index", "sample_mean", "limit_mean"], curve_rows),
        "%s_summary.csv" % tag: (["c", "seed", "error"], summary_rows),
        "%s.gp" % tag: [
            "set xlabel 'index'",
            "set ylabel 'eigenvalue'",
            "plot '%s_curves.csv' using 2:($1==1 ? $3 : 1/0) skip 1 "
            "with points title 'sample (c=1)', "
            "'' using 2:($1==1 ? $4 : 1/0) skip 1 with lines title 'limit (c=1)'"
            % tag,
        ],
    }
    info = {"alpha": alpha, "c_grid": [c for c, _ in aspects]}
    return files, seeds, info


def _clean_surrogate(cloud, upsilon):
    """The moderate-signal reference W_a1 built from the clean rows at h = p.

    Like every clean-part kernel of the spiked recipes, it reads
    ``clean_cols``: with one signal column each product x_i x_j is followed
    only by exact zeros, so the distances match those of the zero-padded
    ``clean`` to the bit."""
    return w_a1(_affinity_of(cloud.clean_cols, upsilon, cloud.p), upsilon)


def _moderate_snr_error(W, Wa1):
    """Moderate-signal error: ||W - W_a1|| / n."""
    return op_norm_diff(W, Wa1) / W.shape[0]


def _large_snr_error(eigs):
    """Very-strong-signal error: max |lambda - 1|."""
    return float(np.max(np.abs(eigs - 1.0)))


def _run_accuracy_low(cfg, fast):
    """Bulk eigenvalues against shifted MP typical locations at weak signal."""

    def make_reference(n, p):
        measure = nu0(n / float(p), cfg.upsilon)
        gammas = typical_location(measure, np.arange(1, n + 1), n)
        return lambda cloud, W, eigs: (gammas, bulk_rigidity(eigs, measure))

    return _accuracy_recipe(cfg, fast, "accuracy_low", 0.2, make_reference)


def _run_accuracy_moderate(cfg, fast):
    """Eigenvalue overlay of W against its scaled-plus-shifted clean limit."""

    def make_reference(n, p):
        def reference(cloud, W, eigs):
            Wa1 = _clean_surrogate(cloud, cfg.upsilon)
            return sym_eigs(Wa1), _moderate_snr_error(W, Wa1)

        return reference

    return _accuracy_recipe(cfg, fast, "accuracy_moderate", 1.9, make_reference)


def _run_accuracy_large(cfg, fast):
    """Very strong signal: the affinity spectrum collapses to unity."""

    def make_reference(n, p):
        ones = np.ones(n)
        return lambda cloud, W, eigs: (ones, _large_snr_error(eigs))

    return _accuracy_recipe(cfg, fast, "accuracy_large", 5.0, make_reference)


def _run_dimension_sweep(cfg, fast):
    """Error-versus-n curves for the three accuracy regimes at c = 1."""
    ns = (50, 150, 300) if fast else (50, 100, 150, 200, 250, 300, 400)
    seeds = _run_seeds(cfg, fast)
    law = nu0(1.0, cfg.upsilon)

    def one(n, seed):
        _, W = _spiked_affinity(cfg, n, n, seed, (0.2,))
        err_low = bulk_rigidity(sym_eigs(W), law)
        cloud, W = _spiked_affinity(cfg, n, n, seed, (1.9,))
        err_mod = _moderate_snr_error(W, _clean_surrogate(cloud, cfg.upsilon))
        _, W = _spiked_affinity(cfg, n, n, seed, (5.0,))
        err_big = _large_snr_error(sym_eigs(W))
        return [n, seed, err_low, err_mod, err_big]

    rows = [one(n, s) for n in ns for s in seeds]
    means = []
    for n in ns:
        block = np.array([r[2:] for r in rows if r[0] == n])
        means.append([n] + list(block.mean(axis=0)))
    files = {
        "dimension_sweep.csv": (["n", "seed", "err_low", "err_moderate", "err_large"], rows),
        "dimension_sweep_mean.csv": (["n", "err_low", "err_moderate", "err_large"], means),
        "dimension_sweep.gp": [
            "set xlabel 'n'",
            "set ylabel 'error'",
            "set logscale y",
            "plot 'dimension_sweep_mean.csv' using 1:2 skip 1 with linespoints "
            "title 'low snr', '' using 1:3 skip 1 with linespoints title "
            "'moderate snr', '' using 1:4 skip 1 with linespoints title 'large snr'",
        ],
    }
    info = {"n_grid": list(ns), "c": 1.0}
    return files, seeds, info


def _run_histogram_bulk(cfg, fast):
    """Bulk histogram of the weak-signal affinity spectrum against the
    shifted MP density, point mass removed, over many repetitions.

    Repetition r draws seed 100000 (seeds[0] + 1) + r, so distinct first
    seeds give disjoint repetitions.
    """
    n = cfg.n
    aspects = _aspects(cfg, n)
    reps = cfg.reps if cfg.reps is not None else (100 if fast else 1000)
    first_seed = 100000 * (cfg.seeds[0] + 1)
    bins = 50
    measures = [nu0(n / float(p), cfg.upsilon) for _, p in aspects]
    edges = [
        np.linspace(m.shift + m.bulk_lo, m.shift + m.bulk_hi, bins + 1) for m in measures
    ]
    counts = np.zeros((len(aspects), bins))
    # widest aspect first: ``cloud`` holds its draw until the next aspect's
    # cloud reads a prefix of it, and so on down the repetition
    widest_first = sorted(range(len(aspects)), key=lambda a: -aspects[a][1])
    for rep in range(reps):
        for a in widest_first:
            cloud, W = _spiked_affinity(cfg, n, aspects[a][1], first_seed + rep, (0.2,))
            counts[a] += np.histogram(sym_eigs(W), bins=edges[a])[0]
    rows = []
    for (c, _), measure, edge, count in zip(aspects, measures, edges, counts):
        width = edge[1] - edge[0]
        emp = count / (reps * n * width)
        theory = np.diff(mp_cdf(edge, measure)) / width
        for k in range(bins):
            rows.append([c, edge[k], edge[k + 1], emp[k], theory[k]])
    files = {
        "histogram_bulk.csv": (
            ["c", "bin_lo", "bin_hi", "empirical_density", "limit_density"], rows
        ),
        "histogram_bulk.gp": [
            "set xlabel 'eigenvalue'",
            "set ylabel 'density'",
            "plot 'histogram_bulk.csv' using (0.5*($2+$3)):($1==1 ? $4 : 1/0) "
            "skip 1 with boxes title 'empirical (c=1)', "
            "'' using (0.5*($2+$3)):($1==1 ? $5 : 1/0) skip 1 with lines "
            "title 'limit (c=1)'",
        ],
    }
    info = {"reps": reps, "alpha": 0.2, "c_grid": [c for c, _ in aspects]}
    return files, [first_seed], info


def _run_omega_sweep(cfg, fast):
    """Selected quantile level against signal strength on noisy circles,
    once from the affinity spectrum and once from the transition spectrum."""
    n, seed = cfg.n, cfg.seeds[0]
    aspects = _aspects(cfg, n)
    alphas = tuple(cfg.alpha_grid)[::2] if fast else cfg.alpha_grid
    thresholds = {c: resample_threshold(c, n, cfg.upsilon, seed=seed) for c, _ in aspects}

    def one(c, p, alpha):
        cloud = gen_circle(n, p, _signal(alpha, n, p, cfg.alpha_base), seed)
        D2 = pairwise_sq_dists(cloud.noisy())
        sel_w = select_omega(cloud, cfg.upsilon, thresholds[c], D2=D2)
        sel_a = select_omega(
            cloud, cfg.upsilon, thresholds[c], matrix="transition", D2=D2
        )
        return [
            c, alpha, thresholds[c],
            sel_w.omega, sel_w.h / p,
            sel_a.omega, sel_a.h / p,
        ]

    files = {
        "omega_sweep.csv": (
            ["c", "alpha", "s", "omega_w", "h_over_p_w", "omega_a", "h_over_p_a"],
            [one(c, p, float(a)) for c, p in aspects for a in alphas],
        ),
        "omega_sweep.gp": [
            "set xlabel 'alpha'",
            "set ylabel 'selected omega'",
            "set yrange [0:1]",
            "plot 'omega_sweep.csv' using 2:($1==1 ? $4 : 1/0) skip 1 "
            "with linespoints title 'affinity (c=1)', "
            "'' using 2:($1==1 ? $6 : 1/0) skip 1 with linespoints "
            "title 'transition (c=1)'",
        ],
    }
    info = {
        "alpha_grid": [float(a) for a in alphas],
        "c_grid": [c for c, _ in aspects],
        "thresholds": {_fmt(c): s for c, s in thresholds.items()},
    }
    return files, [seed], info


MANIFOLD_RMSE_SIZES = {"m1": 400, "kb": 800}


def _run_manifold_rmse(cfg, fast):
    """Eigenvector RMSE of noisy-manifold affinities against the clean
    reference, for the selected, median-quantile, ambient-dimension, and
    signal-matched bandwidths."""
    upsilon = cfg.upsilon
    reps = cfg.reps if cfg.reps is not None else (5 if fast else 20)
    base_seed = cfg.seeds[0]
    top = 9
    rmse_rows, omega_rows, c_grids, sizes = [], [], {}, {}
    for kind, n_kind in MANIFOLD_RMSE_SIZES.items():
        n = sizes[kind] = n_kind if cfg.n is None else cfg.n
        aspects = _aspects(cfg, n, default=(1.0,))
        c_grids[kind] = [c for c, _ in aspects]
        for ci, (c, p) in enumerate(aspects):
            a = 20.0 * np.sqrt(p)
            s = resample_threshold(c, n, upsilon, seed=base_seed)

            def one(rep):
                seed = base_seed + 1000 * ci + rep
                if kind == "m1":
                    cloud = gen_curve_m1(n, p, a, seed)
                else:
                    cloud = gen_klein_bottle(n, p, a, seed)
                lam_tot = cloud.lambda_total()
                _, ref = sym_eigs(
                    _affinity_of(cloud.clean, upsilon, p + lam_tot), want_vectors=top
                )
                D2 = pairwise_sq_dists(cloud.noisy())
                sel = select_omega(cloud, upsilon, s, D2=D2)
                variants = {
                    "adap": sel.h,
                    "medq": quantile_bandwidth(D2, 0.5),
                    "hp": float(p),
                    "theory": p + lam_tot,
                }
                rmse = {}
                for tag, h in variants.items():
                    _, vecs = sym_eigs(affinity(D2, upsilon, h), want_vectors=top)
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
    files = {
        "manifold_rmse.csv": (
            ["manifold", "c", "vec_index", "variant", "rmse_mean", "rmse_std"], rmse_rows
        ),
        "manifold_omegas.csv": (["manifold", "c", "seed", "omega", "h_over_p"], omega_rows),
        "manifold_rmse.gp": [
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
    }
    info = {"reps": reps, "c_grid": c_grids, "sizes": sizes}
    return files, [base_seed + r for r in range(reps)], info


def _run_stieltjes_compare(cfg, fast):
    """Stieltjes transforms of W and its Gram-based surrogate over the
    spectral-parameter box, at unit-exponent signal strength."""
    n, a = cfg.n, 0.2
    seeds = _run_seeds(cfg, fast)
    p = cfg.p if cfg.p is not None else n
    points = stieltjes_grid(n, 1.0, a)
    eta_min = float(points.imag.min())

    def one(seed):
        cloud, W = _spiked_affinity(cfg, n, p, seed, (1.0,))
        W1 = _affinity_of(cloud.clean_cols, cfg.upsilon, p)
        Wb1 = w_b1(W1, gram(cloud.noise), cfg.upsilon)
        # ascending: the last bits of each Stieltjes mean depend on the order
        ew = sym_eigs(W)[::-1]
        eb = sym_eigs(Wb1)[::-1]
        diff = stieltjes(ew, points) - stieltjes(eb, points)
        # hypot rounds as Python's complex abs does; numpy's complex abs differs
        return np.hypot(diff.real, diff.imag)

    diffs = np.array([one(seed) for seed in seeds])
    files = {
        "stieltjes_grid.csv": (
            ["energy", "eta", "mean_absdiff", "max_absdiff"],
            [
                [z.real, z.imag, diffs[:, k].mean(), diffs[:, k].max()]
                for k, z in enumerate(points)
            ],
        ),
        "stieltjes_sup.csv": (
            ["seed", "sup_absdiff", "bound"],
            [
                [seed, diffs[i].max(), 2.0 / (np.sqrt(n) * eta_min**2)]
                for i, seed in enumerate(seeds)
            ],
        ),
        "stieltjes_compare.gp": [
            "set xlabel 'energy'",
            "set ylabel '|m_W - m_surrogate|'",
            "plot 'stieltjes_grid.csv' using 1:3 skip 1 with points "
            "title 'mean over seeds'",
        ],
    }
    info = {"p": p, "lambda": _signal(1.0, n, p, cfg.alpha_base), "a": a, "eta_min": eta_min}
    return files, seeds, info


D2_CASES = (
    ("low_pair", 0.4, 0.1, "close"),
    ("both_large", 2.0, 1.6, "different"),
    ("large_small", 2.0, 0.4, "close"),
)


def _run_d2_comparison(cfg, fast):
    """Bulk spectra of one- against two-spike clouds in the three printed
    strength pairings, from the tenth eigenvalue on."""
    n = cfg.n
    aspects = _aspects(cfg, n)
    seeds = _run_seeds(cfg, fast)
    start = 10
    curve_rows, summary_rows = [], []

    @functools.lru_cache(maxsize=None)  # shares spectra; a cached cloud keeps its noise live
    def spectrum(p, seed, alphas):
        cloud, W = _spiked_affinity(cfg, n, p, seed, alphas)
        return cloud, sym_eigs(W)

    for case, a1, a2, expected in D2_CASES:
        for c, p in aspects:
            m1 = np.mean([spectrum(p, seed, (a1,))[1] for seed in seeds], axis=0)
            m2 = np.mean([spectrum(p, seed, (a1, a2))[1] for seed in seeds], axis=0)
            for i in range(start - 1, n):
                curve_rows.append([case, c, i + 1, m1[i], m2[i]])
            sup = float(np.max(np.abs(m1[start - 1 :] - m2[start - 1 :])))
            summary_rows.append([case, c, sup, expected])
    files = {
        "d2_curves.csv": (["case", "c", "index", "eig_d1_mean", "eig_d2_mean"], curve_rows),
        "d2_summary.csv": (["case", "c", "sup_absdiff", "expectation"], summary_rows),
        "d2_comparison.gp": [
            "set xlabel 'index'",
            "set ylabel 'eigenvalue'",
            "plot 'd2_curves.csv' "
            "using 3:(strcol(1) eq 'low_pair' && $2==1 ? $4 : 1/0) skip 1 "
            "with lines title 'one spike', "
            "'' using 3:(strcol(1) eq 'low_pair' && $2==1 ? $5 : 1/0) skip 1 "
            "with points title 'two spikes'",
        ],
    }
    info = {"c_grid": [c for c, _ in aspects], "start_index": start}
    return files, seeds, info


def _run_zeroing_comparison(cfg, fast):
    """Third-eigenvector recovery of the plain against the zero-diagonal
    transition matrix across signal strengths: the zero-diagonal variant
    at bandwidth 35, the plain variant at the selected bandwidth.
    """
    n, p, upsilon, alphas = cfg.n, cfg.p, cfg.upsilon, cfg.alpha_grid
    seeds = _run_seeds(cfg, fast)
    h_zero = 35.0
    s = resample_threshold(n / float(p), n, upsilon, seed=seeds[0])

    def third_vector_row_stochastic(W):
        # D^{-1/2} maps eigenvectors of the symmetric form to those of D^{-1} W
        _, vecs = sym_eigs(sym_normalized(W), want_vectors=3)
        vec = vecs[:, 2] / np.sqrt(degree(W))
        return vec / np.linalg.norm(vec)

    def one(alpha, seed):
        lam = _signal(alpha, n, p, cfg.alpha_base)
        cloud = gen_spiked(n, p, (lam,), seed)
        ref = third_vector_row_stochastic(_affinity_of(cloud.clean_cols, upsilon, p + lam))
        D2 = pairwise_sq_dists(cloud.noisy())
        sel = select_omega(cloud, upsilon, s, D2=D2)
        adap = third_vector_row_stochastic(affinity(D2, upsilon, sel.h))
        zeroed = third_vector_row_stochastic(off_diagonal(affinity(D2, upsilon, h_zero)))
        rng = np.random.Generator(np.random.Philox(key=seed + 991))
        noise_vec = rng.standard_normal(n)
        noise_vec /= np.linalg.norm(noise_vec)
        cols = np.column_stack([adap, zeroed, noise_vec])
        refs = np.column_stack([ref, ref, ref])
        r = eigvec_rmse(refs, cols)
        return [alpha, seed, r[0], r[1], r[2], sel.omega]

    rows = [one(float(a), s_) for a in alphas for s_ in seeds]
    means = []
    for alpha in alphas:
        block = np.array([r[2:5] for r in rows if r[0] == float(alpha)])
        means.append([float(alpha)] + list(block.mean(axis=0)))
    files = {
        "zeroing.csv": (
            ["alpha", "seed", "rmse_adap", "rmse_zero", "rmse_baseline", "omega"], rows
        ),
        "zeroing_mean.csv": (["alpha", "rmse_adap", "rmse_zero", "rmse_baseline"], means),
        "zeroing.gp": [
            "set xlabel 'alpha'",
            "set ylabel 'third-eigenvector rmse'",
            "plot 'zeroing_mean.csv' using 1:2 skip 1 with linespoints "
            "title 'selected bandwidth', '' using 1:3 skip 1 with linespoints "
            "title 'zeroed diagonal', '' using 1:4 skip 1 with lines "
            "title 'random baseline'",
        ],
    }
    info = {"h_zero": h_zero, "s": s}
    return files, seeds, info


# name: (recipe, reads).  ``reads`` maps each optional ExperimentConfig field
# the recipe uses to its default; None means the recipe works the value out
# itself (the c grid of ``_aspects``, the fast-dependent reps, p = n), and
# ``validate`` refuses every other optional field.
_ASPECTS = dict(n=200, p=None, c_grid=None, alpha_base="p")
_RUNNERS = {
    "PhaseSweep": (_run_phase_sweep, dict(
        _ASPECTS, n=300, alpha_grid=(0.0, 0.3, 0.45, 0.6, 0.8, 1.5, 2.5)
    )),
    "AccuracyLowSNR": (_run_accuracy_low, _ASPECTS),
    "AccuracyModerate": (_run_accuracy_moderate, _ASPECTS),
    "AccuracyLarge": (_run_accuracy_large, _ASPECTS),
    "DimensionSweep": (_run_dimension_sweep, dict(alpha_base="p")),
    "HistogramBulk": (_run_histogram_bulk, dict(_ASPECTS, reps=None)),
    "OmegaSweep": (_run_omega_sweep, dict(
        _ASPECTS, n=300, alpha_grid=(0.2, 0.6, 1.0, 1.5, 2.0, 2.5, 3.0), alpha_base="n"
    )),
    "ManifoldRmse": (_run_manifold_rmse, dict(n=None, p=None, c_grid=None, reps=None)),
    "StieltjesCompare": (_run_stieltjes_compare, dict(n=200, p=None, alpha_base="p")),
    "D2Comparison": (_run_d2_comparison, _ASPECTS),
    "ZeroingComparison": (_run_zeroing_comparison, dict(
        n=400, p=200, alpha_grid=(0.3, 0.5, 0.6, 0.8, 1.0, 1.2), alpha_base="p"
    )),
}

EXPERIMENT_NAMES = tuple(_RUNNERS)


def run(config, fast=False):
    """Execute one named experiment, write its artifacts and return its
    manifest.

    The recipe gets the config with its defaults filled in and only
    computes: it returns its files in manifest order, each CSV as (header,
    rows) and the gnuplot script as its lines, and the settings it derived.
    The manifest's ``resolved`` holds every field the recipe reads that has
    a value, merged with those settings.  ``run`` is the only code that
    writes under ``config.output_dir``.  It removes a
    manifest from an earlier run before the recipe starts, writes each file
    once the recipe has returned, and writes ``manifest.json`` last.  So a
    run that fails leaves no manifest, and a recipe that raises leaves the
    earlier artifacts as they were.
    """
    config.validate()
    recipe, reads = _RUNNERS[config.name]
    cfg = replace(config, **{k: v for k, v in reads.items() if getattr(config, k) is None})
    out = config.output_dir
    os.makedirs(out, exist_ok=True)
    manifest_path = os.path.join(out, "manifest.json")
    started = time.perf_counter()
    try:
        if os.path.exists(manifest_path):
            os.remove(manifest_path)
        files, seeds, derived = recipe(cfg, fast)
        for name, body in files.items():
            path = os.path.join(out, name)
            if name.endswith(".gp"):
                _write_gnuplot(path, body)
            else:
                write_csv(path, *body)
    except OSError as err:
        raise OSError(
            "experiment %s failed writing under %r: %s" % (config.name, out, err)
        ) from err
    echo = {k: v for k, v in cfg.to_dict().items() if k in reads and v is not None}
    manifest = RunManifest(
        config=config.to_dict(),
        version=__version__,
        experiment=config.name,
        fast=bool(fast),
        seeds=[int(s) for s in seeds],
        resolved=dict(echo, **derived),
        wall_clock_s=round(time.perf_counter() - started, 3),
        files=[
            {"path": name, "sha256": _sha256(os.path.join(out, name))} for name in files
        ],
    )
    write_json(manifest_path, asdict(manifest))
    return manifest
