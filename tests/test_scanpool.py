"""The worker processes: at n >= ``POOL_MIN_N`` a scan counts its levels,
a null draws its repetitions and ``_seed_major`` runs its seeds (or the
shapes of one seed) in ``_scanpool`` workers, and each must return exactly
what the in-process loop returns under one BLAS thread."""

import json
import os
import subprocess
import sys
import threading
from functools import partial

import numpy as np
import pytest

import glspec
from glspec import _scanpool, bandwidth, experiments
from glspec.bandwidth import POOL_MIN_N, resample_threshold, select_omega
from glspec.datagen import gen_circle, gen_spiked
from glspec.experiments import ExperimentConfig

pytestmark = pytest.mark.skipif(
    _scanpool.usable_cpus() < 2, reason="the scan runs in-process on one CPU"
)

N = 150


@pytest.fixture(scope="module")
def cloud():
    assert N >= POOL_MIN_N
    return gen_circle(N, 2 * N, N**1.5, 0)


def _in_process(monkeypatch, *args, **kwargs):
    with monkeypatch.context() as m:
        m.setattr(bandwidth, "POOL_MIN_N", N + 1)
        return select_omega(*args, **kwargs)


@pytest.mark.parametrize("matrix", ["affinity", "transition"])
def test_pooled_scan_selects_what_the_in_process_scan_selects(monkeypatch, cloud, matrix):
    here = _in_process(monkeypatch, cloud, 0.5, 0.2, matrix=matrix)
    pooled = select_omega(cloud, 0.5, 0.2, matrix=matrix)
    assert len(_scanpool._workers) == 2
    assert pooled.k_per_omega.max() > 0
    assert pooled.omega == here.omega and pooled.h == here.h
    assert pooled.k_per_omega.dtype == here.k_per_omega.dtype
    np.testing.assert_array_equal(pooled.k_per_omega, here.k_per_omega)


def test_a_worker_error_reaches_the_caller_and_the_pool_survives(monkeypatch, cloud):
    select_omega(cloud, 0.5, 0.2)
    pids = [proc.pid for proc in _scanpool._workers]
    with pytest.raises(ValueError, match="^need s > 0$"):
        select_omega(cloud, 0.5, 0.0)
    sel = select_omega(cloud, 0.5, 0.2)
    assert [proc.pid for proc in _scanpool._workers] == pids
    assert sel.omega == _in_process(monkeypatch, cloud, 0.5, 0.2).omega


def test_an_interrupt_mid_scan_discards_the_pool(monkeypatch, cloud):
    select_omega(cloud, 0.5, 0.2)
    workers = list(_scanpool._workers)

    class Interrupted:
        dump = staticmethod(_scanpool.pickle.dump)

        @staticmethod
        def load(stream):
            raise KeyboardInterrupt

    with monkeypatch.context() as m:
        m.setattr(_scanpool, "pickle", Interrupted)
        with pytest.raises(KeyboardInterrupt):
            select_omega(cloud, 0.5, 0.2)
    assert _scanpool._workers == []
    assert all(proc.poll() is not None for proc in workers)
    # the next scan starts fresh workers and reads no stale reply
    sel = select_omega(cloud, 0.5, 0.2)
    assert {proc.pid for proc in _scanpool._workers}.isdisjoint(proc.pid for proc in workers)
    np.testing.assert_array_equal(
        sel.k_per_omega, _in_process(monkeypatch, cloud, 0.5, 0.2).k_per_omega
    )


def test_the_exit_handler_stops_every_worker(cloud):
    select_omega(cloud, 0.5, 0.2)
    workers = list(_scanpool._workers)
    assert workers
    _scanpool.shutdown()
    assert all(proc.poll() is not None for proc in workers)
    assert _scanpool._workers == []


def test_a_pool_that_cannot_start_leaves_the_scan_in_process(monkeypatch, cloud):
    expected = _in_process(monkeypatch, cloud, 0.5, 0.2)
    _scanpool.shutdown()
    monkeypatch.setattr(_scanpool, "_broken", False)
    monkeypatch.setattr(_scanpool.sys, "executable", os.devnull + "/no-python")
    sel = select_omega(cloud, 0.5, 0.2)
    assert _scanpool._broken and _scanpool._workers == []
    np.testing.assert_array_equal(sel.k_per_omega, expected.k_per_omega)


def test_only_the_workers_get_one_blas_thread(cloud):
    before = dict(os.environ)
    select_omega(cloud, 0.5, 0.2)
    assert dict(os.environ) == before
    env = _scanpool._environment()
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        assert env[key] == "1"
    src = os.path.dirname(os.path.dirname(os.path.abspath(bandwidth.__file__)))
    assert env["PYTHONPATH"].split(os.pathsep)[0] == src


def test_threads_sharing_the_pool_each_get_their_own_counts(monkeypatch):
    # more calling threads than CPUs, on clouds whose profiles differ
    clouds = [gen_circle(N, N, N ** (0.5 + k / 2), k) for k in range(4)]
    expected = [_in_process(monkeypatch, cl, 0.5, 0.2).k_per_omega for cl in clouds]
    got = [None] * len(clouds)

    def scan(k):
        for _ in range(2):
            got[k] = select_omega(clouds[k], 0.5, 0.2).k_per_omega

    threads = [threading.Thread(target=scan, args=(k,)) for k in range(len(clouds))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    assert len({tuple(e) for e in expected}) > 1
    for k in range(len(clouds)):
        np.testing.assert_array_equal(got[k], expected[k])


SRC = os.path.dirname(os.path.dirname(os.path.abspath(glspec.__file__)))
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _child(code, threads, *args):
    """Run ``code`` with ``args`` in a fresh interpreter that imports this
    ``glspec``, under one BLAS thread (``threads`` "1") or under the default
    threads (``threads`` None); return its standard output."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


NULL_CASES = [(c, reps) for c in (0.5, 2.0) for reps in (7, 50)]


@pytest.fixture(scope="module")
def null_in_process():
    """``resample_threshold``'s hex for each case of ``NULL_CASES``,
    computed in-process under one BLAS thread."""
    code = (
        "import json, sys\n"
        "from glspec import _scanpool\n"
        "from glspec.bandwidth import resample_threshold\n"
        "_scanpool.usable_cpus = lambda: 1\n"
        "cases = json.loads(sys.argv[1])\n"
        "print(json.dumps([resample_threshold(c, %d, 0.5, reps=r, seed=1).hex()"
        " for c, r in cases]))" % N
    )
    hexes = json.loads(_child(code, "1", json.dumps(NULL_CASES)))
    return dict(zip(NULL_CASES, hexes))


@pytest.mark.parametrize("c, reps", NULL_CASES)
def test_pooled_null_returns_the_in_process_threshold(null_in_process, c, reps):
    with _scanpool.tally() as served:
        pooled = resample_threshold(c, N, 0.5, reps=reps, seed=1)
    assert len(served) == 2
    assert pooled.hex() == null_in_process[(c, reps)]


def _noisy(grouped):
    return [[(cloud.seed, cloud.noisy()) for cloud in block] for block in grouped]


def _assert_same_clouds(pooled, here):
    assert [len(block) for block in pooled] == [len(block) for block in here]
    for block_p, block_h in zip(_noisy(pooled), _noisy(here)):
        for (seed_p, x_p), (seed_h, x_h) in zip(block_p, block_h):
            assert seed_p == seed_h
            np.testing.assert_array_equal(x_p, x_h)


@pytest.mark.parametrize(
    "seeds, shapes",
    [
        # five seeds dealt unevenly to two workers, three shapes each
        ((0, 1, 2, 3, 4), [(N, N // 2, (2.0,)), (N, 2 * N, (3.0,)), (20, 10, (1.0,))]),
        # one seed: its five shapes are dealt, each worker draws its own widest
        ((7,), [(20, 10, (1.0,)), (N, 2 * N, (2.0,)), (N, N, (4.0,)), (40, 40, (1.0,)),
                (N, N // 2, (3.0,))]),
    ],
    ids=["seeds", "shapes"],
)
def test_pooled_seed_loop_returns_the_in_process_results(monkeypatch, seeds, shapes):
    with _scanpool.tally() as served:
        pooled = experiments._seed_major(seeds, shapes, gen_spiked)
    assert len(served) == 2
    with monkeypatch.context() as m:
        m.setattr(_scanpool, "usable_cpus", lambda: 1)
        with _scanpool.tally() as served:
            here = experiments._seed_major(seeds, shapes, gen_spiked)
        assert not served
    _assert_same_clouds(pooled, here)


def test_an_error_in_a_seed_worker_reaches_the_caller():
    with pytest.raises(ValueError, match="^signal strengths must be nonnegative$"):
        with _scanpool.tally() as served:
            experiments._seed_major([0, 1], [(N, N, (-1.0,))], gen_spiked)
    assert len(served) == 2
    # the pool survives a worker's error
    experiments._seed_major([0, 1], [(N, N, (1.0,))], gen_spiked)
    assert {proc.pid for proc in _scanpool._workers} == served


def _children(pid):
    with open("/proc/%d/task/%d/children" % (pid, pid)) as fh:
        return fh.read().split()


@pytest.mark.skipif(
    not os.path.exists("/proc/%d/task/%d/children" % (os.getpid(), os.getpid())),
    reason="needs /proc/<pid>/task/<pid>/children",
)
def test_a_scan_inside_a_seed_worker_starts_no_process(monkeypatch):
    cfg = ExperimentConfig(name="OmegaSweep", alpha_base="n")
    one = partial(experiments._omega_point, cfg)
    shapes = [(N, N, 1.0, 0.2, 1.0), (N, N, 1.0, 0.2, 2.0)]
    with _scanpool.tally() as served:
        pooled = experiments._seed_major([0, 1], shapes, one)
    assert len(served) == 2
    for pid in served:
        assert _children(pid) == []
    with monkeypatch.context() as m:
        m.setattr(_scanpool, "usable_cpus", lambda: 1)
        here = experiments._seed_major([0, 1], shapes, one)
    # c, alpha, s, then each scan's omega
    picks = [[row[:4] + [row[5]] for row in block] for block in pooled]
    assert picks == [[row[:4] + [row[5]] for row in block] for block in here]


ARTIFACTS = """
import os, sys
from glspec.cli import main
for name in ("DimensionSweep", "PhaseSweep"):
    out = os.path.join(sys.argv[1], name)
    main(["run", "--experiment", name, "--out", out, "--fast"], standalone_mode=False)
"""


def _artifacts(out):
    found = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name, "manifest.json")) as fh:
            manifest = json.load(fh)
        assert manifest["environment"]["workers"] == 2
        for entry in manifest["files"]:
            with open(os.path.join(out, name, entry["path"]), "rb") as fh:
                found[entry["path"]] = fh.read()
    return found


def test_pooled_artifacts_do_not_depend_on_the_blas_threads(tmp_path):
    # in-process, dimension_sweep*.csv and phase_eigencurves.csv differ
    # between these two settings
    default, single = str(tmp_path / "default"), str(tmp_path / "single")
    _child(ARTIFACTS, None, default)
    _child(ARTIFACTS, "1", single)
    found = _artifacts(default)
    assert "phase_eigencurves.csv" in found and "dimension_sweep_mean.csv" in found
    assert found == _artifacts(single)
