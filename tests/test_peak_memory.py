"""Peak traced allocations of the n x n kernel steps and of ``noisy()``.

Each bound is the step's measured peak plus a small slack, in units of one
float64 result: n^2 * 8 bytes for the n x n steps, n * p * 8 for ``noisy()``.
A bound that fails means the step builds another full-size scratch array.
"""

import tracemalloc

import pytest

from glspec.bandwidth import quantile_bandwidth
from glspec.datagen import gen_spiked
from glspec.kernels import affinity, pairwise_sq_dists, sym_normalized
from glspec.spectrum import op_norm_diff

N, P = 300, 200


def _peak(fn, *args):
    """Peak bytes traced while ``fn(*args)`` runs, above what was live."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def cloud():
    return gen_spiked(N, P, (3.0,), 5)


@pytest.fixture(scope="module")
def d2(cloud):
    return pairwise_sq_dists(cloud.noisy())


def test_noisy_builds_one_n_by_p_array(cloud):
    assert _peak(cloud.noisy) <= 1.05 * N * P * 8


def test_affinity_exponentiates_in_place(d2):
    assert _peak(affinity, d2, 0.5, P) <= 1.05 * N * N * 8


def test_sym_normalized_divides_into_its_outer_product(d2):
    W = affinity(d2, 0.5, P)
    assert _peak(sym_normalized, W) <= 1.25 * N * N * 8


def test_op_norm_diff_symmetrizes_only_through_sym_eigs(d2):
    # the difference, sym_eigs's two boolean masks and small vectors
    Wa, Wb = affinity(d2, 0.5, P), affinity(d2, 0.5, 2 * P)
    assert _peak(op_norm_diff, Wa, Wb) <= 1.3 * N * N * 8


def test_quantile_bandwidth_selects_with_a_mask_and_sorts_in_place(d2):
    # a boolean triu mask and the n(n-1)/2 selected values
    assert _peak(quantile_bandwidth, d2, 0.5) <= 0.7 * N * N * 8
