"""The three workloads: inputs from the seed, one round of operations, and
the checks of the round's outputs.

A workload object is built in the set-up phase (``import glspec`` has
happened, its inputs are made, ``warm_up`` runs one small call), then the
timed phase calls ``run_round`` one or more times, and ``check`` looks at
the outputs of the last round.  Sizes are arguments so the benchmark's own
tests can run every workload at a toy size; the defaults are the measured
sizes.  The program is reached only through its public functions, looked
up on their modules at call time so a traced run sees every call.
"""

import os
import sys
import time

import numpy as np

UPSILON = 0.5


def _timed(fn, op_times, *args, **kwargs):
    """Call fn, append its wall time to op_times; None if it raised."""
    started = time.perf_counter()
    try:
        result = fn(*args, **kwargs)
    except Exception as err:  # an operation that fails is counted, not fatal
        print("operation failed: %r" % (err,), file=sys.stderr, flush=True)
        return None
    op_times.append(time.perf_counter() - started)
    return result


class SelectCircle:
    """Criterion 9's setting with both count variants: calibrate s for
    each aspect c, then select omega on noisy circles of strength n**alpha.
    One operation is one ``select_omega`` call."""

    def __init__(self, seed, out_dir, n=300, cs=(0.5, 1.0, 2.0),
                 alphas=(0.2, 0.6, 1.0, 1.5, 2.0, 2.5, 3.0), reps=50):
        from glspec import datagen

        self.seed, self.n, self.cs, self.alphas, self.reps = seed, n, cs, alphas, reps
        self.clouds = {}
        for c in cs:
            p = int(round(n / c))
            for alpha in alphas:
                self.clouds[(c, alpha)] = datagen.gen_circle(n, p, float(n) ** alpha, seed)
        self.ops_per_round = 2 * len(self.clouds)

    def warm_up(self):
        from glspec import bandwidth, datagen

        bandwidth.select_omega(datagen.gen_circle(40, 40, 40.0, self.seed), UPSILON, 0.2)

    def run_round(self, op_times):
        from glspec import bandwidth

        thresholds = {
            c: bandwidth.resample_threshold(c, self.n, UPSILON, reps=self.reps, seed=self.seed)
            for c in self.cs
        }
        selections = {}
        for (c, alpha), cloud in self.clouds.items():
            for matrix in ("affinity", "transition"):
                selections[(c, alpha, matrix)] = _timed(
                    bandwidth.select_omega, op_times, cloud, UPSILON, thresholds[c], matrix=matrix
                )
        return thresholds, selections

    def artifact_dirs(self, outputs):
        return []

    def check(self, outputs):
        import bench_checks as checks  # scipy stays out of the set-up phase

        thresholds, selections = outputs
        found = {}
        for c, s in thresholds.items():
            ref = checks.null_threshold(c, self.n, self.reps, self.seed)
            found["threshold c=%g" % c] = checks.check_threshold(s, ref)
        done = {key: sel for key, sel in selections.items() if sel is not None}
        for (c, alpha, matrix), sel in done.items():
            X = self.clouds[(c, alpha)].noisy()
            tag = "c=%g alpha=%g %s" % (c, alpha, matrix)
            found["maximiser " + tag] = checks.check_largest_maximiser(sel)
            found["order statistic " + tag] = checks.check_order_statistic(X, sel.omega, sel.h)
            found["count " + tag] = checks.check_count(X, sel, UPSILON, matrix)
        if min(self.alphas) == 0.2 and max(self.alphas) == 3.0:
            found["weak/strong omega"] = checks.check_weak_strong(done, self.alphas)
        return found


BULK_EXPERIMENTS = (
    "PhaseSweep",
    "AccuracyLowSNR",
    "AccuracyModerate",
    "AccuracyLarge",
    "DimensionSweep",
    "HistogramBulk",
    "StieltjesCompare",
    "D2Comparison",
)


class BulkLaws:
    """The bulk-law recipes at their default (non-fast) sizes, seeds
    seed..seed+4, HistogramBulk cut to ``hist_reps`` repetitions.  One
    operation is one ``experiments.run`` call."""

    def __init__(self, seed, out_dir, n=None, fast=False, hist_reps=400, names=BULK_EXPERIMENTS):
        from glspec import experiments

        self.seed, self.n, self.out_dir = seed, n, out_dir
        self.configs = [
            experiments.ExperimentConfig(
                name=name,
                n=n,
                seeds=tuple(seed + i for i in range(5)),
                reps=hist_reps if name == "HistogramBulk" else None,
                output_dir=os.path.join(out_dir, name),
            ).validate()
            for name in names
        ]
        self.fast = fast
        self.ops_per_round = len(self.configs)

    def warm_up(self):
        from glspec import experiments

        cfg = experiments.ExperimentConfig(
            name="AccuracyLarge", n=40, seeds=(self.seed,),
            output_dir=os.path.join(self.out_dir, "warm_up"),
        )
        experiments.run(cfg, fast=True)

    def run_round(self, op_times):
        from glspec import experiments

        return {
            cfg.name: _timed(experiments.run, op_times, cfg, fast=self.fast)
            for cfg in self.configs
        }

    def artifact_dirs(self, outputs):
        return [cfg.output_dir for cfg in self.configs if outputs[cfg.name] is not None]

    def check(self, outputs):
        import bench_checks as checks  # scipy stays out of the set-up phase

        found = {}
        for out_dir in self.artifact_dirs(outputs):
            found["digests " + os.path.basename(out_dir)] = checks.check_digests(out_dir)
        dirs = {cfg.name: cfg.output_dir for cfg in self.configs if outputs[cfg.name] is not None}
        n = self.n if self.n is not None else 200
        if "AccuracyLowSNR" in dirs:
            found["typical locations"] = checks.check_typical_locations(
                os.path.join(dirs["AccuracyLowSNR"], "accuracy_low_curves.csv"), n, UPSILON
            )
        if "HistogramBulk" in dirs:
            found["limit density"] = checks.check_limit_density(
                os.path.join(dirs["HistogramBulk"], "histogram_bulk.csv"), UPSILON
            )
        if "PhaseSweep" in dirs:
            found["gram eigenvalues"] = checks.check_gram_eigs(
                os.path.join(dirs["PhaseSweep"], "phase_tracked.csv"), self.seed
            )
        if "StieltjesCompare" in dirs:
            found["stieltjes sup"] = checks.check_stieltjes_sup(
                os.path.join(dirs["StieltjesCompare"], "stieltjes_sup.csv"), self.seed, n, UPSILON
            )
        return found


class ManifoldRmse:
    """ManifoldRmse at c = 1 with ``reps`` repetitions: M1 at n = 400 and
    the Klein bottle at n = 800 (or both at ``n``).  One operation is one
    ``experiments.run`` call."""

    def __init__(self, seed, out_dir, n=None, reps=2):
        from glspec import experiments

        self.seed, self.n, self.reps = seed, n, reps
        self.config = experiments.ExperimentConfig(
            name="ManifoldRmse", n=n, c_grid=(1.0,), seeds=(seed,), reps=reps,
            output_dir=os.path.join(out_dir, "ManifoldRmse"),
        ).validate()
        self.warm_config = experiments.ExperimentConfig(
            name="ManifoldRmse", n=40, c_grid=(1.0,), seeds=(seed,), reps=1,
            output_dir=os.path.join(out_dir, "warm_up"),
        ).validate()
        self.ops_per_round = 1

    def warm_up(self):
        from glspec import experiments

        experiments.run(self.warm_config)

    def run_round(self, op_times):
        from glspec import experiments

        return _timed(experiments.run, op_times, self.config)

    def artifact_dirs(self, outputs):
        return [self.config.output_dir] if outputs is not None else []

    def sizes(self):
        from glspec import experiments

        return {kind: self.n or n for kind, n in experiments.MANIFOLD_RMSE_SIZES.items()}

    def clouds(self):
        """The clouds of every repetition, regenerated from their seeds."""
        from glspec import datagen

        make = {"m1": datagen.gen_curve_m1, "kb": datagen.gen_klein_bottle}
        out = {}
        for kind, n in self.sizes().items():
            p = n  # c = 1
            for rep in range(self.reps):
                seed = self.seed + rep
                out[(kind, seed)] = make[kind](n, p, 20.0 * np.sqrt(p), seed)
        return out

    def check(self, outputs):
        import bench_checks as checks  # scipy stays out of the set-up phase

        if outputs is None:
            return {}
        out_dir = self.config.output_dir
        clouds = self.clouds()
        by_kind = {}
        for (kind, _), cloud in sorted(clouds.items()):
            by_kind.setdefault(kind, []).append(cloud)
        rmse_csv = os.path.join(out_dir, "manifold_rmse.csv")
        return {
            "digests": checks.check_digests(out_dir),
            "selections": checks.check_manifold_selections(
                os.path.join(out_dir, "manifold_omegas.csv"), clouds
            ),
            "fixed-bandwidth rmse": checks.check_fixed_rmse(rmse_csv, by_kind, UPSILON),
            "rmse range": checks.check_rmse_range(rmse_csv, self.sizes()),
        }


WORKLOADS = {
    "select_circle": SelectCircle,
    "bulk_laws": BulkLaws,
    "manifold_rmse": ManifoldRmse,
}
