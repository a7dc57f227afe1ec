import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import glspec.bandwidth as bandwidth
from glspec.bandwidth import (
    OmegaSelection,
    quantile_bandwidth,
    ratio_window,
    resample_threshold,
    select_omega,
    window_outliers,
)
from glspec.datagen import gen_circle, gen_spiked
from glspec.kernels import pairwise_sq_dists


def _d2_from_offdiag(vals):
    # build a distance matrix whose upper off-diagonal entries are vals
    n = int((1 + np.sqrt(1 + 8 * len(vals))) / 2)
    D2 = np.zeros((n, n))
    iu = np.triu_indices(n, k=1)
    D2[iu] = vals
    return D2 + D2.T


def test_quantile_bandwidth_order_statistic():
    D2 = _d2_from_offdiag([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    # m = 6: ceil(0.5 * 6) = 3rd smallest
    assert quantile_bandwidth(D2, 0.5) == 3.0
    assert quantile_bandwidth(D2, 1.0) == 6.0
    assert quantile_bandwidth(D2, 1e-9) == 1.0


def test_quantile_bandwidth_four_distance_example():
    D2 = _d2_from_offdiag([1.0, 2.0, 3.0, 4.0, 4.0, 4.0])
    # the printed four-distance case: values {1,2,3,4}, median -> 2
    vals = np.array([1.0, 2.0, 3.0, 4.0])
    rank = int(np.ceil(0.5 * vals.size))
    assert vals[rank - 1] == 2.0
    # and through the matrix path with repeated top values
    assert quantile_bandwidth(D2, 0.5) == 3.0


def test_quantile_bandwidth_errors():
    D2 = _d2_from_offdiag([1.0])
    with pytest.raises(ValueError):
        quantile_bandwidth(D2, 0.0)
    with pytest.raises(ValueError):
        quantile_bandwidth(D2, 1.5)
    with pytest.raises(ValueError):
        quantile_bandwidth(np.zeros((1, 1)), 0.5)
    with pytest.raises(ValueError):
        quantile_bandwidth(np.zeros((3, 3)), 0.5)  # all-zero distances


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=3, max_value=12), st.integers(min_value=0, max_value=2 ** 31))
def test_quantile_bandwidth_nondecreasing_in_omega(n, key):
    rng = np.random.Generator(np.random.Philox(key=key))
    X = rng.standard_normal((n, 4))
    D2 = pairwise_sq_dists(X)
    omegas = np.linspace(0.05, 1.0, 17)
    hs = [quantile_bandwidth(D2, w) for w in omegas]
    assert all(type(h) is float for h in hs)
    assert np.all(np.diff(hs) >= 0.0)
    # an array of levels reads the same order statistics off one sort,
    # on this grid and on select_omega's default one
    default_grid = 0.05 + (np.arange(92) / 91) * (0.95 - 0.05)
    for grid in (omegas, default_grid):
        assert np.array_equal(
            quantile_bandwidth(D2, grid), [quantile_bandwidth(D2, w) for w in grid]
        )


def test_window_outliers_printed_examples():
    eigs = np.array([10.0, 1.0, 0.9, 0.5, 0.49])
    assert window_outliers(eigs, 0.1, eigs.size - 1) == 3
    assert window_outliers(np.ones(6), 0.1, 5) == 0
    eigs = np.array([10.0, 5.0, 1.0, 0.99])
    assert window_outliers(eigs, 0.1, eigs.size - 1) == 2


def test_window_outliers_errors():
    with pytest.raises(ValueError):
        window_outliers(np.array([2.0, 1.0]), 0.0, 1)


def _literal_window_count(eigs, s, k_hi):
    # the scan spelled out: ratios k = 1 .. k_hi above the round-off floor
    floor = eigs.size * np.finfo(float).eps * abs(eigs[0])
    best = 0
    for k in range(1, min(k_hi, eigs.size - 1) + 1):
        if eigs[k] <= floor:
            break
        if eigs[k - 1] / eigs[k] >= 1.0 + s:
            best = k
    return best


def test_window_outliers_matches_literal_scan():
    rng = np.random.Generator(np.random.Philox(key=7))
    for _ in range(300):
        n = int(rng.integers(2, 60))
        m = int(rng.integers(1, n + 1))
        # m decaying values with random multiplicative gaps, then a tail of
        # round-off values of either sign
        head = np.cumprod(rng.uniform(0.3, 1.0, m)) * rng.uniform(0.5, 5.0)
        tail = rng.uniform(-1.0, 1.0, n - m) * n * np.finfo(float).eps * head[0]
        eigs = np.sort(np.concatenate([head, tail]))[::-1]
        s = float(rng.uniform(0.01, 1.5))
        k_hi = int(rng.integers(0, n + 2))
        assert window_outliers(eigs, s, k_hi) == _literal_window_count(eigs, s, k_hi)


def _bottom_gap_spectrum(n, k_gap):
    # slow geometric decay (ratio 1.0101) with one wide drop after index k_gap
    eigs = 0.99 ** np.arange(n)
    eigs[k_gap:] /= 3.0
    return eigs


def test_ratio_window_edges():
    # off-critical aspect: drop the last two ratios; critical: the bottom tenth
    assert ratio_window(40, 80) == 38
    assert ratio_window(80, 40) == 38
    assert ratio_window(40, 40) == 36
    with pytest.raises(ValueError):
        ratio_window(4, 100)


def test_window_outliers_ignores_gap_below_window():
    n = 40
    k_hi = ratio_window(n, n)
    eigs = _bottom_gap_spectrum(n, k_hi + 2)
    assert window_outliers(eigs, 0.1, n - 1) == k_hi + 2
    assert window_outliers(eigs, 0.1, k_hi) == 0
    # the same drop inside the window still counts
    assert window_outliers(_bottom_gap_spectrum(n, 5), 0.1, k_hi) == 5


def test_window_outliers_roundoff_tail_leaves_scan():
    # eigenvalues at round-off level, of either sign, are not a gap
    eigs = np.concatenate([0.99 ** np.arange(10), [1e-17, 3e-18, -2e-18, -1e-17]])
    assert window_outliers(eigs, 0.1, 12) == 0
    eigs[1:] /= 2.0
    assert window_outliers(eigs, 0.1, 12) == 1
    assert window_outliers(np.array([1.0, 0.0, 0.0]), 0.1, 2) == 0


def test_select_omega_counts_only_inside_window(monkeypatch):
    # every scanned matrix has a spectrum whose only wide ratio sits below
    # the calibration window: the selection path must count nothing
    n = 40
    eigs = _bottom_gap_spectrum(n, ratio_window(n, n) + 2)
    monkeypatch.setattr(bandwidth, "affinity", lambda D2, upsilon, h: np.diag(eigs))
    cloud = gen_spiked(n, n, (2.0,), 0)
    sel = select_omega(cloud, 0.5, s=0.1, grid=(0.1, 0.9, 4))
    assert np.all(sel.k_per_omega == 0)
    assert sel.omega == sel.grid[-1]


@pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
def test_select_omega_and_resample_threshold_share_window(monkeypatch, c):
    seen = []

    def spy(n, p):
        seen.append(ratio_window(n, p))
        return seen[-1]

    monkeypatch.setattr(bandwidth, "ratio_window", spy)
    n = 40
    p = int(round(n / c))
    s = resample_threshold(c, n, 0.5, reps=2)
    cloud = gen_spiked(n, p, (20.0,), 0)
    sel = select_omega(cloud, 0.5, s, grid=(0.1, 0.9, 4))
    assert len(seen) == 2 and seen[0] == seen[1]
    assert np.all(sel.k_per_omega <= seen[0])


def test_resample_threshold_matches_printed_values():
    # the Fig-caption thresholds, reproduced by the null calibration
    s_c1 = resample_threshold(1.0, 300, 0.5)
    assert abs(s_c1 - 0.17) <= 0.08
    s_c05 = resample_threshold(0.5, 300, 0.5)
    assert abs(s_c05 - 0.24) <= 0.08


def test_resample_threshold_deterministic_and_decreasing_in_n():
    a = resample_threshold(1.0, 200, 0.5, reps=50, seed=3)
    b = resample_threshold(1.0, 200, 0.5, reps=50, seed=3)
    assert a == b
    # the gap criterion must vanish as n grows for the selection step to
    # remain consistent
    s300 = resample_threshold(1.0, 300, 0.5)
    s800 = resample_threshold(1.0, 800, 0.5)
    assert s800 < s300
    with pytest.raises(ValueError):
        resample_threshold(1.0, 300, 0.5, reps=0)
    with pytest.raises(ValueError):
        resample_threshold(100.0, 300, 0.5)


@pytest.mark.parametrize("seed", [1.5, 2.0, -1, "3"])
def test_resample_threshold_refuses_a_bad_seed_before_drawing(monkeypatch, seed):
    def no_draw(*args, **kwargs):
        raise AssertionError("drew before checking the seed")

    monkeypatch.setattr(bandwidth.np.random, "Philox", no_draw)
    with pytest.raises(ValueError, match="integer seed >= 0"):
        resample_threshold(1.0, 20, 0.5, reps=2, seed=seed)


def test_select_omega_constant_profile_returns_upper_end():
    # a huge threshold makes every count zero, so the tie rule must pick
    # the largest grid point
    cloud = gen_spiked(40, 30, (2.0,), 1)
    sel = select_omega(cloud, 0.5, s=1e6, grid=(0.1, 0.9, 8))
    assert_allclose(sel.omega, 0.9, rtol=1e-12)
    assert np.all(sel.k_per_omega == 0)
    assert sel.grid.size == 9
    assert sel.s == 1e6


def test_select_omega_grid_layout_and_monotone_h():
    cloud = gen_spiked(50, 40, (5.0,), 2)
    sel = select_omega(cloud, 0.5, s=0.2, grid=(0.05, 0.95, 10))
    assert_allclose(sel.grid, 0.05 + np.arange(11) / 10.0 * 0.9, rtol=1e-12)
    hs = [quantile_bandwidth(pairwise_sq_dists(cloud.noisy()), w) for w in sel.grid]
    assert np.all(np.diff(hs) >= 0.0)
    assert sel.h == hs[list(sel.grid).index(sel.omega)]


def test_select_omega_validates_arguments():
    cloud = gen_spiked(20, 10, (1.0,), 0)
    with pytest.raises(ValueError):
        select_omega(cloud, 0.5, s=0.2, grid=(0.0, 0.9, 5))
    with pytest.raises(ValueError):
        select_omega(cloud, 0.5, s=0.2, grid=(0.5, 0.2, 5))
    with pytest.raises(ValueError):
        select_omega(cloud, 0.5, s=0.2, matrix="laplacian")


@pytest.mark.parametrize("matrix", ["affinity", "transition"])
def test_select_omega_takes_the_callers_distances(matrix):
    cloud = gen_circle(n=60, p=60, lam=60.0, seed=4)
    own = select_omega(cloud, 0.5, 0.3, matrix=matrix)
    given = select_omega(
        cloud, 0.5, 0.3, matrix=matrix, D2=pairwise_sq_dists(cloud.noisy())
    )
    assert given.omega.hex() == own.omega.hex()
    assert given.h.hex() == own.h.hex()
    assert np.array_equal(given.k_per_omega, own.k_per_omega)
    assert np.array_equal(given.grid, own.grid)


def test_select_omega_rejects_distances_of_another_size():
    cloud = gen_circle(n=30, p=30, lam=30.0, seed=4)
    D2 = pairwise_sq_dists(cloud.noisy()[:-1])
    with pytest.raises(ValueError, match="D2"):
        select_omega(cloud, 0.5, 0.3, grid=(0.1, 0.9, 4), D2=D2)


def test_select_omega_transition_variant_runs():
    cloud = gen_circle(n=60, p=60, lam=60.0, seed=4)
    s = 0.3
    a = select_omega(cloud, 0.5, s, grid=(0.1, 0.9, 8), matrix="affinity")
    b = select_omega(cloud, 0.5, s, grid=(0.1, 0.9, 8), matrix="transition")
    assert isinstance(a, OmegaSelection)
    assert isinstance(b, OmegaSelection)
    assert 0.1 <= b.omega <= 0.9


def test_selected_bandwidth_scale_small_alpha():
    # weak signal keeps the selected bandwidth on the noise scale h ~ p
    n, p = 200, 200
    lam = float(p) ** 0.2
    cloud = gen_spiked(n, p, (lam,), 0)
    s = resample_threshold(1.0, n, 0.5)
    sel = select_omega(cloud, 0.5, s)
    assert 1.0 <= sel.h / p <= 4.0


def test_selected_bandwidth_scale_large_alpha():
    # strong signal pushes h onto the signal scale, within the pinned
    # two-sided envelope
    n = 300
    for alpha in (1.5, 2.0):
        lam = float(n) ** alpha
        cloud = gen_spiked(n, n, (lam,), 0)
        s = resample_threshold(1.0, n, 0.5)
        sel = select_omega(cloud, 0.5, s)
        log_n = np.log(n)
        assert 0.1 * (lam / log_n + n) <= sel.h <= 10.0 * lam * log_n ** 2

