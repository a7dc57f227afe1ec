import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from glspec.datagen import GeneratorConfig, gen_spiked
from glspec.kernels import (
    KernelParams,
    affinity,
    degree,
    factor_matrices,
    gram,
    laplacian,
    load_matrix_csv,
    off_diagonal,
    pairwise_sq_dists,
    save_matrix_csv,
    sym_normalized,
    transition,
    zeroed_transition,
)


def _cloud(n=20, p=10, lam=4.0, seed=0, d=1):
    lams = tuple([lam] * d)
    return gen_spiked(GeneratorConfig(n=n, p=p, d=d, lambdas=lams, seed=seed))


def test_pairwise_sq_dists_against_double_loop():
    rng = np.random.Generator(np.random.Philox(key=1))
    X = rng.standard_normal((13, 7))
    D2 = pairwise_sq_dists(X)
    ref = np.empty((13, 13))
    for i in range(13):
        for j in range(13):
            ref[i, j] = np.sum((X[i] - X[j]) ** 2)
    assert_allclose(D2, ref, atol=1e-10)
    assert_array_equal(np.diag(D2), np.zeros(13))
    assert_array_equal(D2, D2.T)
    assert np.all(D2 >= 0.0)


def test_pairwise_sq_dists_rotation_invariant():
    from glspec.datagen import random_rotation

    rng = np.random.Generator(np.random.Philox(key=2))
    X = rng.standard_normal((15, 9))
    R = random_rotation(9, seed=5)
    assert_allclose(pairwise_sq_dists(X @ R.T), pairwise_sq_dists(X), atol=1e-9)


def test_affinity_two_point_example():
    # the two rows sit at squared distance 25; at upsilon=1, h=25 the
    # off-diagonal weight is exactly exp(-1)
    X = np.array([[0.0, 0.0], [3.0, 4.0]])
    W = affinity(pairwise_sq_dists(X), KernelParams(upsilon=1.0, h=25.0))
    assert_allclose(W, np.array([[1.0, np.exp(-1.0)], [np.exp(-1.0), 1.0]]), rtol=1e-15)


def test_affinity_entrywise_formula():
    rng = np.random.Generator(np.random.Philox(key=3))
    X = rng.standard_normal((11, 6))
    D2 = pairwise_sq_dists(X)
    params = KernelParams(upsilon=0.5, h=6.0)
    W = affinity(D2, params)
    ref = np.exp(-params.upsilon * D2 / params.h)
    assert_allclose(W, ref, atol=1e-12)
    assert_array_equal(np.diag(W), np.ones(11))


def test_kernel_params_validation():
    with pytest.raises(ValueError):
        KernelParams(upsilon=0.0, h=1.0).validate()
    with pytest.raises(ValueError):
        KernelParams(upsilon=0.5, h=0.0).validate()
    with pytest.raises(ValueError):
        affinity(np.zeros((3, 3)), KernelParams(upsilon=-1.0, h=2.0))


def test_scaling_coords_and_bandwidth_leaves_affinity_unchanged():
    rng = np.random.Generator(np.random.Philox(key=4))
    X = rng.standard_normal((10, 5))
    s = 3.7
    W = affinity(pairwise_sq_dists(X), KernelParams(0.5, 2.0))
    Ws = affinity(pairwise_sq_dists(s * X), KernelParams(0.5, 2.0 * s * s))
    assert_allclose(Ws, W, atol=1e-12)


def test_transition_rows_sum_to_one():
    cloud = _cloud(n=30)
    W = affinity(pairwise_sq_dists(cloud.noisy()), KernelParams(0.5, float(cloud.p)))
    A = transition(W)
    assert_allclose(A.sum(axis=1), np.ones(30), atol=1e-12)
    assert np.all(A > 0.0)


def test_transition_spectrum_matches_symmetrized_form():
    cloud = _cloud(n=25, seed=2)
    W = affinity(pairwise_sq_dists(cloud.noisy()), KernelParams(0.5, float(cloud.p)))
    A = transition(W)
    deg = degree(W)
    S = W / np.sqrt(np.outer(deg, deg))
    eigs_a = np.sort(np.linalg.eigvals(A).real)
    eigs_s = np.sort(np.linalg.eigvalsh(S))
    assert_allclose(eigs_a, eigs_s, atol=1e-9)


def test_transition_top_eigenvalue_is_one():
    cloud = _cloud(n=40, seed=6)
    W = affinity(pairwise_sq_dists(cloud.noisy()), KernelParams(0.5, float(cloud.p)))
    A = transition(W)
    top = np.max(np.linalg.eigvals(A).real)
    assert abs(top - 1.0) <= 1e-10


def test_laplacian_identity():
    cloud = _cloud(n=12, seed=1)
    h = float(cloud.p)
    W = affinity(pairwise_sq_dists(cloud.noisy()), KernelParams(0.5, h))
    L = laplacian(W, h)
    assert_allclose(L, (np.eye(12) - transition(W)) / h, atol=1e-14)


def test_zeroed_transition_all_ones_case():
    # with W = 11^T every zeroed row has n-1 unit weights, so the n=3 case
    # is (1/2)(11^T - I) exactly
    A0 = zeroed_transition(np.ones((3, 3)))
    assert_allclose(A0, 0.5 * (np.ones((3, 3)) - np.eye(3)), atol=1e-15)


def test_zeroed_transition_rows_sum_to_one():
    cloud = _cloud(n=18, seed=3)
    W = affinity(pairwise_sq_dists(cloud.noisy()), KernelParams(0.5, float(cloud.p)))
    A0 = zeroed_transition(W)
    assert_array_equal(np.diag(A0), np.zeros(18))
    assert_allclose(A0.sum(axis=1), np.ones(18), atol=1e-12)


def test_sym_normalized_formula_and_spectrum():
    cloud = _cloud(n=16, seed=5)
    W = affinity(pairwise_sq_dists(cloud.noisy()), KernelParams(0.5, float(cloud.p)))
    root = np.sqrt(W.sum(axis=1))
    assert_array_equal(sym_normalized(W), W / np.outer(root, root))
    off = W.copy()
    np.fill_diagonal(off, 0.0)
    root = np.sqrt(off.sum(axis=1))
    S0 = sym_normalized(off_diagonal(W))
    assert_array_equal(S0, off / np.outer(root, root))
    eigs_a = np.sort(np.linalg.eigvals(zeroed_transition(W)).real)
    assert_allclose(eigs_a, np.sort(np.linalg.eigvalsh(S0)), atol=1e-12)


def test_zero_diagonal_rejects_degenerate_row():
    # point 2 is far from the others: its zeroed row has no weight left
    W = np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(ValueError, match="degenerate row"):
        zeroed_transition(W)
    with pytest.raises(ValueError, match="degenerate row"):
        sym_normalized(off_diagonal(W))
    # without zeroing, the unit diagonal keeps that row's degree positive
    assert np.all(np.isfinite(sym_normalized(W)))
    with pytest.raises(ValueError):
        sym_normalized(off_diagonal(np.ones((1, 1))))


def test_affinity_factorizes_over_signal_noise_cross():
    # W = W1 o Wy o Wc entrywise, the three factors built from the clean
    # part, the noise part, and the cross term
    cloud = _cloud(n=16, p=12, lam=6.0, seed=5)
    params = KernelParams(0.5, float(cloud.p))
    W = affinity(pairwise_sq_dists(cloud.noisy()), params)
    W1, Wy, Wc = factor_matrices(cloud, params)
    assert_allclose(W1 * Wy * Wc, W, atol=1e-12)
    # the clean and noise factors are themselves affinities
    assert_allclose(W1, affinity(pairwise_sq_dists(cloud.clean), params), atol=1e-14)
    assert_allclose(Wy, affinity(pairwise_sq_dists(cloud.noise), params), atol=1e-14)


def test_cross_factor_has_unit_diagonal():
    cloud = _cloud(n=9, seed=8)
    _, _, Wc = factor_matrices(cloud, KernelParams(0.5, float(cloud.p)))
    assert_allclose(np.diag(Wc), np.ones(9), atol=1e-15)
    assert_allclose(Wc, Wc.T, atol=1e-14)


def test_gram_matches_definition():
    rng = np.random.Generator(np.random.Philox(key=9))
    X = rng.standard_normal((8, 5))
    assert_allclose(gram(X), X @ X.T / 5.0, atol=1e-14)


def test_affinity_never_indefinite_beyond_roundoff():
    cloud = _cloud(n=60, p=40, lam=2.0, seed=10)
    W = affinity(pairwise_sq_dists(cloud.noisy()), KernelParams(0.5, 40.0))
    eigs = np.linalg.eigvalsh(W)
    assert eigs[0] >= -1e-9 * 60


def test_matrix_csv_roundtrip(tmp_path):
    cloud = _cloud(n=6, seed=12)
    params = KernelParams(0.5, float(cloud.p))
    W = affinity(pairwise_sq_dists(cloud.noisy()), params)
    path = tmp_path / "w.csv"
    save_matrix_csv(W, path, "affinity", params)
    back, kind, back_params = load_matrix_csv(path)
    assert kind == "affinity"
    assert back_params.upsilon == params.upsilon
    assert back_params.h == params.h
    assert_array_equal(back, W)
