"""Named, reproducible experiment recipes over the library's building blocks.

Each recipe is a pure function of (config, fast): it returns its artifacts
as data, in manifest order (each CSV as a header and rows, its gnuplot
script as lines), with the seeds it drew and the settings it resolved.
``run`` is the one writer: it puts every artifact into the configured
output directory and then saves the manifest (config echo, library
version, per-run seeds, wall clock, numpy and BLAS environment, artifact
digests).  Artifacts are formatted deterministically, so re-running a
config in the same environment reproduces byte-identical files.
"""

import hashlib
import numbers
import os
import time
from dataclasses import asdict, dataclass, fields, replace
from functools import partial

import numpy as np

from . import __version__, _scanpool
from .approximants import w_a1, w_b1
from .bandwidth import POOL_MIN_N, quantile_bandwidth, resample_threshold, select_omega
from .datagen import (
    _fmt,
    _shared_noise,
    gen_circle,
    gen_curve_m1,
    gen_klein_bottle,
    gen_spiked,
    write_csv,
    write_json,
)
from .kernels import affinity, gram, off_diagonal, pairwise_sq_dists
from .mplaw import mp_cdf, nu0, typical_location
from .spectrum import (
    bulk_rigidity,
    eigvec_rmse,
    op_norm_diff,
    stieltjes,
    stieltjes_grid,
    sym_eigs,
    transition_eigs,
)

DEFAULT_SEEDS = (0, 1, 2, 3, 4)


@dataclass
class ExperimentConfig:
    """Settings for one named experiment run.

    The fields that default to ``None`` are optional: ``_RUNNERS`` lists
    the ones each recipe reads, with their defaults, and ``validate``
    refuses the others.  ``c_grid`` fixes the ambient dimension through
    the aspect ratios c = n/p; ``alpha_base`` is the base of the signal
    strength lambda = base**alpha.  Every field lands in the run manifest.
    """

    name: str
    n: int = None
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
        for key, least in (("n", 2), ("reps", 1)):
            value = getattr(self, key)
            if value is not None and not (isinstance(value, numbers.Integral) and value >= least):
                raise ValueError("%s must be an integer >= %d, got %r" % (key, least, value))
        if not (isinstance(self.upsilon, numbers.Real) and 0 < self.upsilon < np.inf):
            raise ValueError("need upsilon > 0 and finite, got %r" % (self.upsilon,))
        for key, rule, ok in (
            ("c_grid", "hold positive finite numbers", lambda c: 0 < c < np.inf),
            ("alpha_grid", "hold finite numbers", np.isfinite),
            ("seeds", "be integers >= 0", lambda s: isinstance(s, numbers.Integral) and s >= 0),
        ):
            values = getattr(self, key)
            if values is not None and not (
                isinstance(values, (tuple, list)) and values
                and all(isinstance(v, numbers.Real) and ok(v) for v in values)
            ):
                raise ValueError("%s must %s in a non-empty sequence, got %r" % (key, rule, values))
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
        """Every field, JSON-ready: tuples as lists, the two grids as floats."""
        d = {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}
        for key in ("c_grid", "alpha_grid"):
            if d[key] is not None:
                d[key] = [float(v) for v in d[key]]
        return d


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


def _environment():
    """The numpy version, the BLAS build ("unknown" where numpy cannot say)
    and the BLAS thread variables as set: the last bits of the eigenvalues
    depend on all of them."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "numpy": np.__version__,
        "blas": "%s %s" % (blas.get("name", "unknown"), blas.get("version", "unknown")),
        "threads": {k: os.environ.get(k) for k in threads},
    }


def _aspects(cfg, n, single=False):
    """Pairs (c, p = round(n/c)) for a recipe that draws n points, one per
    c of ``cfg.c_grid``.  An (n, p) below the recipe's smallest sizes in
    ``_RUNNERS`` is refused, and so is a second c when ``single`` is set."""
    if single and len(cfg.c_grid) > 1:
        raise ValueError("%s runs at one c; got c_grid = %r" % (cfg.name, cfg.c_grid))
    min_n, min_p = _RUNNERS[cfg.name][2]
    pairs = [(c, int(round(n / c))) for c in map(float, cfg.c_grid)]
    for c, p in pairs:
        if n < min_n or p < min_p:
            need = "%s needs n >= %d and p >= %d" % (cfg.name, min_n, min_p)
            raise ValueError("%s; c = %g at n = %d gives p = round(n/c) = %d" % (need, c, n, p))
    return pairs


def _seed_major(seeds, shapes, one):
    """``one(*shape, seed)`` for each shape (n, p, ...) and seed, one list per
    shape in ``seeds`` order.  A seed runs its largest n*p first and holds that
    noise draw while its other shapes read prefix views of it; the draw is
    dropped before the next seed draws, so one draw is live at a time.

    When the widest shape has n >= ``POOL_MIN_N`` and two or more CPUs are
    usable, the work goes to the ``_scanpool`` workers, one BLAS thread
    each: two or more seeds are dealt round-robin, whole seeds to a worker;
    one seed with two or more shapes has its shapes dealt instead, and each
    worker draws the seed's noise once for its own widest shape, a prefix of
    the same substream.  The results come back in seed and shape order, so
    every mean over them is summed as in-process.  ``one`` is then a
    module-level function, or a ``functools.partial`` of one on data."""
    seeds = list(seeds)
    by_seed = len(seeds) >= 2
    count = 0
    if max(shapes, key=lambda shape: shape[0] * shape[1])[0] >= POOL_MIN_N:
        count = _scanpool.size(len(seeds) if by_seed else len(shapes))
    if count:
        if by_seed:
            tasks = [(_seed_loop, (seeds[k::count], shapes, one)) for k in range(count)]
        else:
            tasks = [(_seed_loop, (seeds, shapes[k::count], one)) for k in range(count)]
        shares = _scanpool.call(tasks)
        if shares is not None and by_seed:
            # seed j went to worker j % count, as its (j // count)-th seed
            return [
                [shares[j % count][k][j // count] for j in range(len(seeds))]
                for k in range(len(shapes))
            ]
        if shares is not None:
            # shape k went to worker k % count, as its (k // count)-th shape
            return [shares[k % count][k // count] for k in range(len(shapes))]
    return _seed_loop(seeds, shapes, one)


def _seed_loop(seeds, shapes, one):
    """The in-process body of ``_seed_major``, also what each worker runs."""
    widest_first = sorted(range(len(shapes)), key=lambda k: -shapes[k][0] * shapes[k][1])
    grouped = [[] for _ in shapes]
    for seed in seeds:
        held = _shared_noise(seed, *shapes[widest_first[0]][:2])
        for k in widest_first:
            grouped[k].append(one(*shapes[k], seed))
        del held
    return grouped


def _signal(cfg, alpha, n, p):
    """The strength base**alpha, base n or p as ``cfg.alpha_base`` says."""
    base = float(n if cfg.alpha_base == "n" else p)
    try:
        return base ** float(alpha)
    except OverflowError:
        where = "%s**alpha = %g**%g" % (cfg.alpha_base, base, alpha)
        raise ValueError("%s: the strength %s overflows" % (cfg.name, where)) from None


def _affinity_of(X, upsilon, h):
    return affinity(pairwise_sq_dists(X), upsilon, float(h))


def _spiked_affinity(cfg, n, p, seed, alphas):
    """A spiked cloud of strengths base**alpha (base ``cfg.alpha_base``),
    one per alpha of ``alphas``, and its noisy affinity at h = p."""
    cloud = gen_spiked(n, p, tuple(_signal(cfg, a, n, p) for a in alphas), seed)
    return cloud, _affinity_of(cloud.noisy(), cfg.upsilon, p)


# ---------------------------------------------------------------------------
# recipes


def _run_phase_sweep(cfg, fast):
    """Descending eigenvalue curves per signal strength, plus four tracked
    eigenvalues swept over a fine strength grid with frozen noise.

    The curves run at p = n, the tracked half at n = 200 and c = 0.5, 1, 2;
    a ``cfg.c_grid`` sets the c of both, one ``c*_alpha_*`` curve per pair."""
    n, alphas, seed = cfg.n, cfg.alpha_grid, cfg.seeds[0]
    # both halves resolve their aspects first, so a size refusal precedes any draw
    n2 = 200
    aspects = _aspects(replace(cfg, c_grid=cfg.c_grid or (1.0,)), n)
    pairs = _aspects(replace(cfg, c_grid=cfg.c_grid or (0.5, 1.0, 2.0)), n2)
    tags = ["" if cfg.c_grid is None else "c%g_" % c for c, _ in aspects]
    fine = np.round(np.arange(0.0, 2.5 + 1e-9, 0.1 if fast else 0.05), 10)
    # a curve has no c; a tracked shape carries its c into its row
    curve_shapes = [(n, p, alpha, None) for _, p in aspects for alpha in alphas]
    tracked_shapes = [(n2, p2, float(alpha), c) for c, p2 in pairs for alpha in fine]

    one = partial(_phase_point, cfg)
    results = [block[0] for block in _seed_major([seed], curve_shapes + tracked_shapes, one)]
    curves, tracked = results[: len(curve_shapes)], results[len(curve_shapes) :]
    header = ["index"] + [tag + "alpha_%g" % a for tag in tags for a in alphas]
    rows = [[i + 1] + [col[i] for col in curves] for i in range(n)]

    files = {
        "phase_eigencurves.csv": (header, rows),
        "phase_tracked.csv": (
            ["c", "alpha"] + ["w_eig%d" % i for i in PHASE_TRACK] + ["gram_eig1", "gram_eig2"],
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


# the eigenvalues of W that PhaseSweep tracks over the fine strength grid
PHASE_TRACK = (1, 2, 8, 80)


def _phase_point(cfg, n, p, alpha, c, seed):
    """PhaseSweep at one shape: W's spectrum for a curve (``c`` None), or
    the tracked row of W's and the Gram matrix's eigenvalues."""
    cloud, W = _spiked_affinity(cfg, n, p, seed, (alpha,))
    ew = sym_eigs(W)
    if c is None:
        return ew
    eg = sym_eigs(gram(cloud.noisy()))
    return [c, alpha] + [ew[i - 1] for i in PHASE_TRACK] + [eg[0], eg[1]]


def _accuracy_recipe(cfg, tag, alpha, score, limit=lambda n, p: None):
    """Shared body of the three fixed-strength accuracy experiments.

    ``limit(n, p)`` prepares the per-aspect data of the limit at h = p, once
    per aspect; the module-level ``score(cfg, data, cloud, W, eigs)`` maps it
    and each cloud, its W and W's descending eigenvalues to (limit
    eigenvalues, error scalar), seed by seed.  The per-c CSVs carry the mean
    sample and limit curves, the summary the per-seed error and sup_absdiff =
    max_i |sample_i - limit_i|.
    """
    n = cfg.n
    aspects = _aspects(cfg, n)
    shapes = [(n, p, limit(n, p)) for _, p in aspects]
    one = partial(_accuracy_point, cfg, alpha, score)
    curve_rows, summary_rows = [], []
    for (c, _), results in zip(aspects, _seed_major(cfg.seeds, shapes, one)):
        sample = np.mean([r[0] for r in results], axis=0)
        limit = np.mean([r[1] for r in results], axis=0)
        for i in range(n):
            curve_rows.append([c, i + 1, sample[i], limit[i]])
        for seed, r in zip(cfg.seeds, results):
            summary_rows.append([c, seed, r[2], np.max(np.abs(r[0] - r[1]))])
    files = {
        "%s_curves.csv" % tag: (["c", "index", "sample_mean", "limit_mean"], curve_rows),
        "%s_summary.csv" % tag: (["c", "seed", "error", "sup_absdiff"], summary_rows),
        "%s.gp" % tag: [
            "set xlabel 'index'",
            "set ylabel 'eigenvalue'",
            "plot '%s_curves.csv' using 2:($1==1 ? $3 : 1/0) skip 1 "
            "with points title 'sample (c=1)', "
            "'' using 2:($1==1 ? $4 : 1/0) skip 1 with lines title 'limit (c=1)'"
            % tag,
        ],
    }
    info = {"alpha": alpha}
    return files, cfg.seeds, info


def _accuracy_point(cfg, alpha, score, n, p, data, seed):
    """An accuracy recipe at one aspect and seed: W's eigenvalues, then the
    limit and the error of ``score``."""
    cloud, W = _spiked_affinity(cfg, n, p, seed, (alpha,))
    eigs = sym_eigs(W)
    return (eigs,) + score(cfg, data, cloud, W, eigs)


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


def _low_score(cfg, law, cloud, W, eigs):
    """The shifted MP typical locations and W's bulk rigidity against them."""
    measure, gammas = law
    return gammas, bulk_rigidity(eigs, measure)


def _moderate_score(cfg, _, cloud, W, eigs):
    """The spectrum of the clean surrogate W_a1 and W's distance to it."""
    Wa1 = _clean_surrogate(cloud, cfg.upsilon)
    return sym_eigs(Wa1), _moderate_snr_error(W, Wa1)


def _large_score(cfg, _, cloud, W, eigs):
    """The unit spectrum and W's largest distance to it."""
    return np.ones(W.shape[0]), _large_snr_error(eigs)


def _run_accuracy_low(cfg, fast):
    """Bulk eigenvalues against shifted MP typical locations at weak signal."""

    def limit(n, p):
        measure = nu0(n / float(p), cfg.upsilon)
        return measure, typical_location(measure, np.arange(1, n + 1), n)

    return _accuracy_recipe(cfg, "accuracy_low", 0.2, _low_score, limit)


def _run_accuracy_moderate(cfg, fast):
    """Eigenvalue overlay of W against its scaled-plus-shifted clean limit."""
    return _accuracy_recipe(cfg, "accuracy_moderate", 1.9, _moderate_score)


def _run_accuracy_large(cfg, fast):
    """Very strong signal: the affinity spectrum collapses to unity."""
    return _accuracy_recipe(cfg, "accuracy_large", 5.0, _large_score)


def _run_dimension_sweep(cfg, fast):
    """Error-versus-n curves for the three accuracy regimes at c = 1, where
    n**alpha and p**alpha are the same strength."""
    ns = (50, 150, 300) if fast else (50, 100, 150, 200, 250, 300, 400)
    one = partial(_dimension_point, cfg, nu0(1.0, cfg.upsilon))
    grouped = _seed_major(cfg.seeds, [(n, n) for n in ns], one)
    rows = [row for block in grouped for row in block]
    means = [
        [n] + list(np.array([r[2:] for r in block]).mean(axis=0))
        for n, block in zip(ns, grouped)
    ]
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
    return files, cfg.seeds, info


def _dimension_point(cfg, law, n, p, seed):
    """DimensionSweep's row at one n = p and seed: the three regimes' errors."""
    _, W = _spiked_affinity(cfg, n, p, seed, (0.2,))
    err_low = bulk_rigidity(sym_eigs(W), law)
    cloud, W = _spiked_affinity(cfg, n, p, seed, (1.9,))
    err_mod = _moderate_snr_error(W, _clean_surrogate(cloud, cfg.upsilon))
    _, W = _spiked_affinity(cfg, n, p, seed, (5.0,))
    err_big = _large_snr_error(sym_eigs(W))
    return [n, seed, err_low, err_mod, err_big]


def _histogram_point(cfg, n, p, edge, seed):
    """HistogramBulk's counts of W's eigenvalues in the bins ``edge``."""
    _, W = _spiked_affinity(cfg, n, p, seed, (0.2,))
    return np.histogram(sym_eigs(W), bins=edge)[0]


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
    edges = []
    for (c, _), m in zip(aspects, measures):
        edges.append(np.linspace(m.shift + m.bulk_lo, m.shift + m.bulk_hi, bins + 1))
        if not np.all(np.diff(edges[-1]) > 0):
            where = "c = %g, upsilon = %g" % (c, cfg.upsilon)
            raise ValueError("%s: bulk at %s too narrow to bin" % (cfg.name, where))

    shapes = [(n, p, edge) for (_, p), edge in zip(aspects, edges)]
    rep_seeds = range(first_seed, first_seed + reps)
    grouped = _seed_major(rep_seeds, shapes, partial(_histogram_point, cfg))
    counts = [np.sum(block, axis=0) for block in grouped]
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
    info = {"reps": reps, "alpha": 0.2}
    return files, [first_seed], info


def _run_omega_sweep(cfg, fast):
    """Selected quantile level against signal strength on noisy circles,
    once from the affinity spectrum and once from the transition spectrum."""
    n, seed = cfg.n, cfg.seeds[0]
    aspects = _aspects(cfg, n)
    alphas = tuple(cfg.alpha_grid)[::2] if fast else cfg.alpha_grid
    thresholds = {c: resample_threshold(c, n, cfg.upsilon, seed=seed) for c, _ in aspects}
    shapes = [(n, p, c, thresholds[c], float(a)) for c, p in aspects for a in alphas]
    rows = [block[0] for block in _seed_major([seed], shapes, partial(_omega_point, cfg))]
    files = {
        "omega_sweep.csv": (
            ["c", "alpha", "s", "omega_w", "h_over_p_w", "omega_a", "h_over_p_a"], rows
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
        "thresholds": {_fmt(c): s for c, s in thresholds.items()},
    }
    return files, [seed], info


def _omega_point(cfg, n, p, c, s, alpha, seed):
    """OmegaSweep's row at one (c, alpha): the affinity and the transition
    scans of one noisy circle, on one distance matrix."""
    cloud = gen_circle(n, p, _signal(cfg, alpha, n, p), seed)
    D2 = pairwise_sq_dists(cloud.noisy())
    sel_w = select_omega(cloud, cfg.upsilon, s, D2=D2)
    sel_a = select_omega(cloud, cfg.upsilon, s, matrix="transition", D2=D2)
    return [c, alpha, s, sel_w.omega, sel_w.h / p, sel_a.omega, sel_a.h / p]


MANIFOLD_RMSE_SIZES = {"m1": 400, "kb": 800}
# the leading eigenvectors ManifoldRmse scores
MANIFOLD_TOP = 9


def _manifold_point(upsilon, n, p, kind, s, seed):
    """ManifoldRmse at one manifold and repetition seed: the selection and
    the eigenvector RMSE of each bandwidth variant against the clean
    reference."""
    # looked up per call: a tracer may wrap the module's generators
    make = gen_curve_m1 if kind == "m1" else gen_klein_bottle
    cloud = make(n, p, 20.0 * np.sqrt(p), seed)
    lam_tot = cloud.lambda_total()
    _, ref = sym_eigs(
        _affinity_of(cloud.clean, upsilon, p + lam_tot), want_vectors=MANIFOLD_TOP
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
        _, vecs = sym_eigs(affinity(D2, upsilon, h), want_vectors=MANIFOLD_TOP)
        rmse[tag] = eigvec_rmse(ref, vecs)
    return sel, rmse


def _run_manifold_rmse(cfg, fast):
    """Eigenvector RMSE of noisy-manifold affinities against the clean
    reference, for the selected, median-quantile, ambient-dimension, and
    signal-matched bandwidths.  Both manifolds are shapes of one seed loop
    per c, so each repetition seed draws its noise once."""
    upsilon = cfg.upsilon
    reps = cfg.reps if cfg.reps is not None else (5 if fast else 20)
    base_seed = cfg.seeds[0]
    sizes = {kind: n if cfg.n is None else cfg.n for kind, n in MANIFOLD_RMSE_SIZES.items()}
    aspects = {kind: _aspects(cfg, n) for kind, n in sizes.items()}
    rmse_rows = {kind: [] for kind in sizes}
    omega_rows = {kind: [] for kind in sizes}

    one = partial(_manifold_point, upsilon)
    for ci, c in enumerate(map(float, cfg.c_grid)):
        shapes = [
            (n, aspects[kind][ci][1], kind, resample_threshold(c, n, upsilon, seed=base_seed))
            for kind, n in sizes.items()
        ]
        rep_seeds = [base_seed + 1000 * ci + rep for rep in range(reps)]
        for (_, p, kind, _), results in zip(shapes, _seed_major(rep_seeds, shapes, one)):
            for seed, (sel, _) in zip(rep_seeds, results):
                omega_rows[kind].append([kind, c, seed, sel.omega, sel.h / p])
            for tag in ("adap", "medq", "hp", "theory"):
                stack = np.array([r[1][tag] for r in results])
                mean, std = stack.mean(axis=0), stack.std(axis=0)
                for j in range(MANIFOLD_TOP):
                    rmse_rows[kind].append([kind, c, j + 1, tag, mean[j], std[j]])
    rmse_rows = [row for kind in sizes for row in rmse_rows[kind]]
    omega_rows = [row for kind in sizes for row in omega_rows[kind]]
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
    info = {"reps": reps, "sizes": sizes}
    return files, sorted({row[2] for row in omega_rows}), info


def _stieltjes_point(cfg, points, n, p, seed):
    """|m_W - m_Wb1| at each spectral parameter of ``points``, for one seed."""
    cloud, W = _spiked_affinity(cfg, n, p, seed, (1.0,))
    W1 = _affinity_of(cloud.clean_cols, cfg.upsilon, p)
    Wb1 = w_b1(W1, gram(cloud.noise), cfg.upsilon)
    # ascending: the last bits of each Stieltjes mean depend on the order
    ew = sym_eigs(W)[::-1]
    eb = sym_eigs(Wb1)[::-1]
    diff = stieltjes(ew, points) - stieltjes(eb, points)
    # hypot rounds as Python's complex abs does; numpy's complex abs differs
    return np.hypot(diff.real, diff.imag)


def _run_stieltjes_compare(cfg, fast):
    """Stieltjes transforms of W and its Gram-based surrogate over the
    spectral-parameter box, at unit-exponent signal strength."""
    n, a = cfg.n, 0.2
    [(_, p)] = _aspects(cfg, n, single=True)
    points = stieltjes_grid(n, 1.0, a)
    eta_min = float(points.imag.min())

    one = partial(_stieltjes_point, cfg, points)
    diffs = np.array(_seed_major(cfg.seeds, [(n, p)], one)[0])
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
                for i, seed in enumerate(cfg.seeds)
            ],
        ),
        "stieltjes_compare.gp": [
            "set xlabel 'energy'",
            "set ylabel '|m_W - m_surrogate|'",
            "plot 'stieltjes_grid.csv' using 1:3 skip 1 with points "
            "title 'mean over seeds'",
        ],
    }
    info = {"p": p, "lambda": _signal(cfg, 1.0, n, p), "a": a, "eta_min": eta_min}
    return files, cfg.seeds, info


D2_CASES = (
    ("low_pair", 0.4, 0.1, "close"),
    ("both_large", 2.0, 1.6, "different"),
    ("large_small", 2.0, 0.4, "close"),
)


# the strength tuples of D2_CASES, one cloud each per seed and aspect
D2_STRENGTHS = {alphas for _, a1, a2, _ in D2_CASES for alphas in ((a1,), (a1, a2))}


def _d2_point(cfg, n, p, seed):
    """W's spectrum for each strength tuple of ``D2_STRENGTHS``, for one seed."""
    return {a: sym_eigs(_spiked_affinity(cfg, n, p, seed, a)[1]) for a in D2_STRENGTHS}


def _run_d2_comparison(cfg, fast):
    """Bulk spectra of one- against two-spike clouds in the three printed
    strength pairings, from the tenth eigenvalue on."""
    n = cfg.n
    aspects = _aspects(cfg, n)
    start = 10
    one = partial(_d2_point, cfg)
    spectra = _seed_major(cfg.seeds, [(n, p) for _, p in aspects], one)
    curve_rows, summary_rows = [], []
    for case, a1, a2, expected in D2_CASES:
        for (c, _), block in zip(aspects, spectra):
            m1 = np.mean([eigs[(a1,)] for eigs in block], axis=0)
            m2 = np.mean([eigs[(a1, a2)] for eigs in block], axis=0)
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
    info = {"start_index": start}
    return files, cfg.seeds, info


# the bandwidth of ZeroingComparison's zero-diagonal variant
ZEROING_H = 35.0


def _third_vector(W):
    """The third unit right eigenvector of D^{-1} W."""
    return transition_eigs(W, want_vectors=3)[1][:, 2]


def _zeroing_point(cfg, s, n, p, alpha, seed):
    """ZeroingComparison's row at one strength and seed: the third
    eigenvector's RMSE at the selected bandwidth, with the diagonal zeroed
    at ``ZEROING_H``, and for a random unit vector."""
    upsilon = cfg.upsilon
    lam = _signal(cfg, alpha, n, p)
    cloud = gen_spiked(n, p, (lam,), seed)
    ref = _third_vector(_affinity_of(cloud.clean_cols, upsilon, p + lam))
    D2 = pairwise_sq_dists(cloud.noisy())
    sel = select_omega(cloud, upsilon, s, D2=D2)
    adap = _third_vector(affinity(D2, upsilon, sel.h))
    try:
        off = off_diagonal(affinity(D2, upsilon, ZEROING_H))
    except ValueError as err:
        where = "alpha = %g, n = %d, p = %d, h_zero = %g" % (alpha, n, p, ZEROING_H)
        raise ValueError("ZeroingComparison at %s: %s" % (where, err)) from None
    zeroed = _third_vector(off)
    rng = np.random.Generator(np.random.Philox(key=seed + 991))
    noise_vec = rng.standard_normal(n)
    noise_vec /= np.linalg.norm(noise_vec)
    cols = np.column_stack([adap, zeroed, noise_vec])
    refs = np.column_stack([ref, ref, ref])
    r = eigvec_rmse(refs, cols)
    return [alpha, seed, r[0], r[1], r[2], sel.omega]


def _run_zeroing_comparison(cfg, fast):
    """Third-eigenvector recovery of the plain against the zero-diagonal
    transition matrix across signal strengths: the zero-diagonal variant
    at bandwidth 35, the plain variant at the selected bandwidth.
    """
    n, alphas = cfg.n, cfg.alpha_grid
    [(c, p)] = _aspects(cfg, n, single=True)
    s = resample_threshold(c, n, cfg.upsilon, seed=cfg.seeds[0])
    one = partial(_zeroing_point, cfg, s)
    grouped = _seed_major(cfg.seeds, [(n, p, float(a)) for a in alphas], one)
    rows = [row for block in grouped for row in block]
    means = [
        [float(alpha)] + list(np.array([r[2:5] for r in block]).mean(axis=0))
        for alpha, block in zip(alphas, grouped)
    ]
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
    info = {"h_zero": ZEROING_H, "s": s}
    return files, cfg.seeds, info


# name: (recipe, reads, (min_n, min_p)).  ``reads`` maps each optional
# ExperimentConfig field the recipe uses to its default; None means the recipe
# works the value out itself (PhaseSweep's c grids, the fast-dependent reps,
# the n of each manifold), and ``validate`` refuses every other optional
# field.  ``_aspects`` refuses an (n, p) below (min_n, min_p): n >= 10 where
# the recipe skips 9 eigenvalues (bulk_rigidity), starts its tail at index 10
# or keeps 9 eigenvectors; p >= 2 for D2Comparison's second spike; n, p >= 5
# for the bandwidth scan's bulk ratio window; (2, 1) where only the cloud does.
_ASPECTS = dict(n=200, c_grid=(0.5, 1.0, 2.0), alpha_base="p")
_RUNNERS = {
    "PhaseSweep": (_run_phase_sweep, dict(
        _ASPECTS, n=300, c_grid=None, alpha_grid=(0.0, 0.3, 0.45, 0.6, 0.8, 1.5, 2.5)
    ), (2, 1)),
    "AccuracyLowSNR": (_run_accuracy_low, _ASPECTS, (10, 1)),
    "AccuracyModerate": (_run_accuracy_moderate, _ASPECTS, (2, 1)),
    "AccuracyLarge": (_run_accuracy_large, _ASPECTS, (2, 1)),
    "DimensionSweep": (_run_dimension_sweep, {}, (2, 1)),
    "HistogramBulk": (_run_histogram_bulk, dict(_ASPECTS, reps=None), (2, 1)),
    "OmegaSweep": (_run_omega_sweep, dict(
        _ASPECTS, n=300, alpha_grid=(0.2, 0.6, 1.0, 1.5, 2.0, 2.5, 3.0), alpha_base="n"
    ), (5, 5)),
    "ManifoldRmse": (_run_manifold_rmse, dict(n=None, c_grid=(1.0,), reps=None), (10, 5)),
    "StieltjesCompare": (_run_stieltjes_compare, dict(_ASPECTS, c_grid=(1.0,)), (2, 1)),
    "D2Comparison": (_run_d2_comparison, _ASPECTS, (10, 2)),
    "ZeroingComparison": (_run_zeroing_comparison, dict(
        n=400, c_grid=(2.0,), alpha_grid=(0.3, 0.5, 0.6, 0.8, 1.0, 1.2), alpha_base="p"
    ), (5, 5)),
}

EXPERIMENT_NAMES = tuple(_RUNNERS)


def run(config, fast=False):
    """Execute one named experiment, write its artifacts and return its
    manifest: the dict saved as ``manifest.json``, with the config echo,
    version, seeds, wall clock, the numpy and BLAS builds and thread
    variables the bytes depend on, the number of ``_scanpool`` workers
    that served the run (0 when all of it ran in-process, under the
    caller's BLAS threads; the workers run one thread each), and the sha256
    of every artifact.
    Re-running the same config (and fast flag) in the same environment
    reproduces the artifact bytes.

    The recipe gets the config with its defaults filled in, and in fast
    mode at most its first two seeds, and only computes: it returns its
    files in manifest order, each CSV as (header, rows) and the gnuplot
    script as its lines, and the settings it derived.  The manifest's
    ``resolved`` holds every field the recipe reads that has a value,
    merged with those settings.  ``run`` refuses an ``output_dir`` that is
    not a directory or lies under a file, then runs the recipe and only then writes under the
    directory, the only code that does: a recipe that raises leaves it as
    it was.  It removes an earlier manifest, writes each file and writes
    ``manifest.json`` last, so a failed write leaves no manifest.
    """
    config.validate()
    out = config.output_dir
    # the directory itself, or else its nearest existing ancestor, must be a directory
    nearest = os.path.abspath(out)
    while not os.path.exists(nearest):
        nearest = os.path.dirname(nearest)
    if not os.path.isdir(nearest):
        raise ValueError("output_dir %r cannot be made: %r is not a directory" % (out, nearest))
    recipe, reads, _ = _RUNNERS[config.name]
    cfg = replace(config, **{k: v for k, v in reads.items() if getattr(config, k) is None})
    if fast:
        cfg = replace(cfg, seeds=cfg.seeds[:2])
    started = time.perf_counter()
    with _scanpool.tally() as served:
        files, seeds, derived = recipe(cfg, fast)
    manifest_path = os.path.join(out, "manifest.json")
    try:
        os.makedirs(out, exist_ok=True)
        if os.path.exists(manifest_path):
            os.remove(manifest_path)
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
    manifest = {
        "config": config.to_dict(),
        "version": __version__,
        "experiment": config.name,
        "fast": bool(fast),
        "seeds": [int(s) for s in seeds],
        "resolved": dict(echo, **derived),
        "wall_clock_s": round(time.perf_counter() - started, 3),
        "environment": dict(_environment(), workers=len(served)),
        "files": [
            {"path": name, "sha256": _sha256(os.path.join(out, name))} for name in files
        ],
    }
    write_json(manifest_path, manifest)
    return manifest
