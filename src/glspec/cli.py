"""Command-line front end: generate point clouds, run named experiments,
select bandwidth quantiles, and dump spectra."""

import click
import numpy as np

from .bandwidth import (
    DEFAULT_GRID,
    omega_grid,
    quantile_bandwidth,
    ratio_window,
    resample_threshold,
    select_omega,
)
from .datagen import (
    gen_circle,
    gen_curve_m1,
    gen_klein_bottle,
    gen_spiked,
    load_cloud_csv,
    load_cloud_npz,
    save_cloud_csv,
    save_cloud_npz,
    write_csv,
    write_json,
)
from .experiments import (
    EXPERIMENT_NAMES,
    ExperimentConfig,
    parse_config_file,
    run as run_experiment,
)
from .kernels import affinity, gram, off_diagonal, pairwise_sq_dists
from .spectrum import sym_eigs, transition_eigs


class _Positive(click.FloatRange):
    """A finite number > 0: ``FloatRange`` alone lets nan and inf through."""

    def convert(self, value, param, ctx):
        number = super().convert(value, param, ctx)
        if not np.isfinite(number):
            self.fail("%r is not a finite number." % number, param, ctx)
        return number


POSITIVE = _Positive(min=0, min_open=True)


def _load_cloud(path):
    """The cloud stored at ``path``; a file the loaders reject (wrong
    layout, mismatched shapes, NaN or inf) is a usage error."""
    try:
        return (load_cloud_npz if path.endswith(".npz") else load_cloud_csv)(path)
    except ValueError as err:
        raise click.BadParameter(str(err), param_hint="--cloud") from None


def _strengths(kind, n, p, lam, alpha, alpha_base, scale):
    """Signal strengths from ``--lam`` or ``--alpha`` (base**alpha, base n,
    or p when ``--alpha-base`` is not given): exactly one of them for
    spiked, one value of it for the circle, neither for m1/kb, whose
    strength is ``--scale``."""
    if alpha_base is not None and alpha is None:
        raise click.UsageError("--alpha-base applies only with --alpha")
    if kind in ("m1", "kb"):
        if lam is not None or alpha is not None:
            raise click.UsageError("%s takes --scale, not --lam or --alpha" % kind)
        return None
    if scale is not None:
        raise click.UsageError("%s takes --lam or --alpha, not --scale" % kind)
    if (lam is None) == (alpha is None):
        raise click.UsageError("%s needs exactly one of --lam or --alpha" % kind)
    name, text = ("--lam", lam) if alpha is None else ("--alpha", alpha)
    try:
        values = tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError:
        values = ()
    if not values or (kind == "circle" and len(values) != 1):
        count = "one number" if kind == "circle" else "comma-separated numbers"
        raise click.BadParameter("%s takes %s, got %r" % (kind, count, text), param_hint=name)
    if name == "--alpha":
        base = float(n if alpha_base == "n" else p)
        try:
            values = tuple(base ** a for a in values)
        except OverflowError:
            raise click.BadParameter(
                "%g**alpha overflows for %r" % (base, text), param_hint=name
            ) from None
    return values


def _parse_grid(ctx, param, value):
    """``--grid omega_L,omega_U,T`` as (float, float, int), checked by
    ``bandwidth.omega_grid`` before any work starts."""
    try:
        lo, hi, t = value.split(",")
        grid = float(lo), float(hi), int(t)
    except ValueError:
        raise click.BadParameter(
            "expected omega_L,omega_U,T (two numbers and an integer), got %r" % value
        ) from None
    try:
        omega_grid(grid)
    except ValueError as err:
        raise click.BadParameter(str(err)) from None
    return grid


@click.group()
def main():
    """Kernel-affinity spectra for noisy high-dimensional point clouds."""


@main.command()
@click.option("--kind", type=click.Choice(["spiked", "circle", "m1", "kb"]),
              default="spiked", show_default=True)
@click.option("--n", type=int, required=True, help="Points.")
@click.option("--p", type=int, required=True, help="Ambient dimension.")
@click.option("--lam", default=None,
              help="Comma-separated signal strengths (spiked/circle).")
@click.option("--alpha", default=None,
              help="Comma-separated exponents; strengths are base**alpha.")
@click.option("--alpha-base", type=click.Choice(["n", "p"]), default=None,
              show_default="p")
@click.option("--scale", type=float, default=None,
              help="Manifold scale a (m1/kb); default 20*sqrt(p).")
@click.option("--rotate/--no-rotate", default=None,
              help="Random orthogonal map (not circle); default on for manifolds.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", required=True, type=click.Path(dir_okay=False),
              help="Output path (.csv or .npz).")
def gen(kind, n, p, lam, alpha, alpha_base, scale, rotate, seed, out):
    """Generate a point cloud and write it to disk."""
    if kind == "circle" and rotate is not None:
        raise click.UsageError("circle takes no --rotate or --no-rotate: it is never rotated")
    lams = _strengths(kind, n, p, lam, alpha, alpha_base, scale)
    try:
        if kind == "spiked":
            cloud = gen_spiked(n, p, lams, seed, rotate=bool(rotate))
        elif kind == "circle":
            cloud = gen_circle(n, p, lams[0], seed)
        else:
            a = scale if scale is not None else 20.0 * np.sqrt(p)
            maker = gen_curve_m1 if kind == "m1" else gen_klein_bottle
            kwargs = {} if rotate is None else {"rotate": rotate}
            cloud = maker(n, p, a, seed, **kwargs)
    except ValueError as err:
        # the generators check their arguments before drawing anything
        raise click.UsageError(str(err)) from None
    if out.endswith(".npz"):
        save_cloud_npz(cloud, out)
    else:
        save_cloud_csv(cloud, out)
    click.echo("wrote %s cloud (n=%d, p=%d) to %s" % (cloud.kind, n, p, out))


@main.command(name="run")
@click.option("--experiment", "experiment",
              type=click.Choice(EXPERIMENT_NAMES),
              default=None, help="Experiment name (or set it in the config).")
@click.option("--config", "config_path", type=click.Path(exists=True),
              default=None, help="Flat key = value config file.")
@click.option("--out", default=None, type=click.Path(),
              help="Output directory (overrides the config).")
@click.option("--fast", is_flag=True, help="Reduced grids and repetitions.")
def run_cmd(experiment, config_path, out, fast):
    """Run a named experiment and write CSV + gnuplot artifacts."""
    if config_path is None:
        if experiment is None:
            raise click.UsageError("give --experiment or --config")
        cfg = ExperimentConfig(name=experiment)
    else:
        # a refused config is a usage error, raised before anything is written
        try:
            cfg = parse_config_file(config_path, name=experiment)
        except ValueError as err:
            raise click.BadParameter(str(err), param_hint="--config") from None
    if out is not None:
        cfg.output_dir = out
    # a config that run() cannot carry out fails before anything is written
    try:
        manifest = run_experiment(cfg, fast=fast)
    except ValueError as err:
        raise click.UsageError(str(err)) from None
    click.echo(
        "%s finished in %.1fs; %d artifacts in %s"
        % (manifest["experiment"], manifest["wall_clock_s"], len(manifest["files"]), cfg.output_dir)
    )


@main.command()
@click.option("--cloud", "cloud_path", required=True,
              type=click.Path(exists=True), help="Cloud file from 'gen'.")
@click.option("--upsilon", type=POSITIVE, default=0.5, show_default=True)
@click.option("--s", "threshold", type=POSITIVE, default=None,
              help="Outlier-ratio threshold; resampled when omitted.")
@click.option("--grid", default="%g,%g,%d" % DEFAULT_GRID, show_default=True,
              callback=_parse_grid, help="omega_L,omega_U,T.")
@click.option("--matrix", type=click.Choice(["affinity", "transition"]),
              default="affinity", show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True,
              help="Resampling seed.")
@click.option("--out", default=None, type=click.Path(dir_okay=False),
              help="Write the selection as JSON.")
def omega(cloud_path, upsilon, threshold, grid, matrix, seed, out):
    """Pick the bandwidth quantile that maximizes the outlier count."""
    cloud = _load_cloud(cloud_path)
    D2 = pairwise_sq_dists(cloud.noisy())
    try:
        # the count needs a ratio window; the bandwidth is least at the grid's bottom
        ratio_window(cloud.n, cloud.p)
        quantile_bandwidth(D2, grid[0])
    except ValueError as err:
        where = "n = %d, p = %d, omega_L = %g" % (cloud.n, cloud.p, grid[0])
        raise click.BadParameter("%s (%s)" % (err, where), param_hint="--cloud") from None
    if threshold is None:
        threshold = resample_threshold(
            cloud.n / float(cloud.p), cloud.n, upsilon, seed=seed
        )
        click.echo("resampled s = %.4f" % threshold)
    sel = select_omega(cloud, upsilon, threshold, grid=grid, matrix=matrix, D2=D2)
    click.echo(
        "omega = %.4f, h = %.6g (h/p = %.4g), outliers = %d"
        % (sel.omega, sel.h, sel.h / cloud.p, int(sel.k_per_omega.max()))
    )
    if out is not None:
        grid_levels = sel.grid.tolist()
        write_json(out, {
            "omega": sel.omega,
            "h": sel.h,
            "s": sel.s,
            "grid": grid_levels,
            "k_profile": list(zip(grid_levels, sel.k_per_omega.tolist())),
        })
        click.echo("selection written to %s" % out)


@main.command()
@click.option("--cloud", "cloud_path", required=True,
              type=click.Path(exists=True), help="Cloud file from 'gen'.")
@click.option("--matrix", "which",
              type=click.Choice(
                  ["affinity", "transition", "laplacian", "zeroed", "gram"]
              ),
              default="affinity", show_default=True)
@click.option("--upsilon", type=POSITIVE, default=0.5, show_default=True)
@click.option("--h", "bandwidth", type=POSITIVE, default=None,
              help="Bandwidth; default p.")
@click.option("--clean", is_flag=True, help="Use the clean rows instead.")
@click.option("--top", type=int, default=5, show_default=True,
              help="Eigenvalues to print.")
@click.option("--out", default=None, type=click.Path(dir_okay=False),
              help="Write the full descending spectrum as CSV.")
def spectra(cloud_path, which, upsilon, bandwidth, clean, top, out):
    """Eigenvalues of a kernel matrix built from a stored cloud."""
    cloud = _load_cloud(cloud_path)
    X = cloud.clean if clean else cloud.noisy()
    h = bandwidth if bandwidth is not None else float(cloud.p)
    if which == "gram":
        eigs = sym_eigs(gram(X))
    else:
        W = affinity(pairwise_sq_dists(X), upsilon, h)
        if which == "zeroed":
            try:
                W = off_diagonal(W)
            except ValueError as err:
                raise click.BadParameter("%s at h = %g" % (err, h), param_hint="--h") from None
        eigs = sym_eigs(W) if which == "affinity" else transition_eigs(W)
    if which == "laplacian":
        eigs = (1.0 - eigs[::-1]) / h
    shown = ", ".join("%.6g" % v for v in eigs[: max(1, top)])
    click.echo("%s spectrum (n=%d): %s, ..." % (which, cloud.n, shown))
    if out is not None:
        write_csv(out, ["index", "eigenvalue"], enumerate(eigs, start=1))
        click.echo("spectrum written to %s" % out)


if __name__ == "__main__":
    main()
