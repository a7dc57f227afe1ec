"""The bandwidth scan's worker processes: a scan of n >= ``POOL_MIN_N``
points counts its levels in ``_scanpool`` workers, and must select exactly
what the in-process scan selects."""

import os
import threading

import numpy as np
import pytest

from glspec import _scanpool, bandwidth
from glspec.bandwidth import POOL_MIN_N, select_omega
from glspec.datagen import gen_circle

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
