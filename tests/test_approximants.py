import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import eval_hermitenorm, factorial

from glspec.approximants import (
    kd_matrix,
    mehler_matrix,
    mehler_t0,
    phi_vector,
    scaled_hermite,
    w_a1,
    w_b1,
)
from glspec.datagen import gen_spiked, load_cloud_csv, save_cloud_csv
from glspec.kernels import affinity, factor_matrices, gram, pairwise_sq_dists


def _cloud(n=15, p=10, lam=4.0, seed=0):
    return gen_spiked(n, p, (lam,), seed)


def test_phi_vector_definition():
    cloud = _cloud()
    phi = phi_vector(cloud)
    X = cloud.noisy()
    ref = np.array([x @ x for x in X]) / cloud.p - (1.0 + 4.0 / cloud.p)
    assert_allclose(phi, ref, atol=1e-12)


def test_w_a1_formula():
    cloud = _cloud(seed=3)
    W1, _, _ = factor_matrices(cloud, 0.5, float(cloud.p))
    got = w_a1(W1, 0.5)
    scale = np.exp(-1.0)
    ref = scale * W1 + (1.0 - scale) * np.eye(cloud.n)
    assert_allclose(got, ref, atol=1e-14)
    # diagonal stays exactly one (W1 has unit diagonal)
    assert_allclose(np.diag(got), np.ones(cloud.n), atol=1e-14)


def test_w_b1_formula():
    cloud = _cloud(seed=5)
    W1, _, _ = factor_matrices(cloud, 0.5, float(cloud.p))
    Gy = gram(cloud.noise)
    got = w_b1(W1, Gy, 0.5)
    ups = 0.5
    inner = 2.0 * ups * np.exp(-2.0 * ups) * Gy + 2.0 * ups * np.exp(-4.0 * ups) * np.eye(cloud.n)
    assert_allclose(got, inner * W1, atol=1e-14)
    with pytest.raises(ValueError):
        w_b1(W1, Gy[:3, :3], 0.5)


def test_w_a2_scale_at_adaptive_bandwidth():
    # the surrogate at h = lam + p is w_a1 at the rescaled decay upsilon p/h
    cloud = _cloud(lam=30.0, seed=7)
    p = float(cloud.p)
    lam = 30.0
    h = lam + p
    W1_h = affinity(pairwise_sq_dists(cloud.clean), 0.5, h)
    got = w_a1(W1_h, 0.5 * p / h)
    scale = np.exp(-2.0 * p * 0.5 / h)
    ref = scale * W1_h + (1.0 - scale) * np.eye(cloud.n)
    assert_allclose(got, ref, atol=1e-14)


def test_kd_matrix_scalar_reconstruction():
    # rebuild one entry with plain floats, term by term
    cloud = _cloud(n=6, p=8, lam=2.0, seed=8)
    K = kd_matrix(cloud, 0.5)
    X = cloud.noisy()
    p, ups = 8, 0.5
    tau = 2.0 * (2.0 / p + 1.0)
    f = np.exp(-ups * tau)
    fp = -ups * f
    fpp = ups * ups * f
    phi = [float(x @ x) / p - (1.0 + 2.0 / p) for x in X]
    mom = (2.0 + 1.0) ** 2 + p
    for (i, j) in ((0, 1), (2, 5), (3, 3)):
        g = float(X[i] @ X[j]) / p
        val = -2.0 * fp * g + f
        if i == j:
            val += 1.0 + 2.0 * fp - f
        val += fp * (phi[i] + phi[j])
        val += 0.5 * fpp * (
            phi[i] ** 2 + phi[j] ** 2 + 2.0 * phi[i] * phi[j] + 4.0 / p ** 2 * mom
        )
        assert_allclose(K[i, j], val, rtol=1e-12)


def test_kd_matrix_tracks_affinity_at_unit_strength():
    # at lam of order one the second-order expansion tracks W itself
    cloud = _cloud(n=200, p=200, lam=1.0, seed=9)
    W = affinity(pairwise_sq_dists(cloud.noisy()), 0.5, 200.0)
    K = kd_matrix(cloud, 0.5)
    from glspec.spectrum import op_norm_diff

    assert op_norm_diff(W, K) / 200.0 <= 0.05


def test_kd_matrix_needs_signal_strengths(tmp_path):
    # a CSV cloud carries no strengths, and the expansion is centred on them
    path = str(tmp_path / "cloud.csv")
    save_cloud_csv(_cloud(n=6, p=8, lam=2.0, seed=8), path)
    cloud = load_cloud_csv(path)
    for build in (lambda: kd_matrix(cloud, 0.5), lambda: phi_vector(cloud)):
        with pytest.raises(ValueError, match="no signal-strength metadata"):
            build()


def test_scaled_hermite_matches_scipy():
    xs = np.linspace(-4.0, 4.0, 41)
    for m in range(21):
        ref = eval_hermitenorm(m, xs)
        got = scaled_hermite(m, xs)
        assert_allclose(got, ref, rtol=1e-9, atol=1e-9)
    with pytest.raises(ValueError):
        scaled_hermite(-1, xs)


def test_scaled_hermite_scalar_input():
    assert scaled_hermite(0, 2.0) == 1.0
    assert scaled_hermite(1, 2.0) == 2.0
    assert scaled_hermite(2, 2.0) == 3.0  # x^2 - 1
    assert scaled_hermite(3, 2.0) == 2.0  # x^3 - 3x


def test_mehler_t0_defining_equation():
    # t0 solves beta (1 - t0^2) = (upsilon^2 / 2) t0 within (0, 1)
    for beta in (0.25, 1.0, 3.0):
        for ups in (0.5, 1.0, 2.0):
            t0 = mehler_t0(beta, ups)
            assert 0.0 < t0 < 1.0
            assert_allclose(beta * (1.0 - t0 * t0), 0.5 * ups * ups * t0, rtol=1e-12)
    with pytest.raises(ValueError):
        mehler_t0(0.0, 1.0)


def test_mehler_t0_closed_form_at_unit():
    assert_allclose(mehler_t0(1.0, 1.0), (np.sqrt(17.0) - 1.0) / 4.0, rtol=1e-14)


def test_mehler_coefficient_log_space():
    # the order-m term that mehler_matrix adds carries the coefficient t0^m / m!
    z = np.array([-1.3, -0.4, 0.9, 1.7])
    t0 = mehler_t0(0.7, 1.0)
    w = np.exp((3.0 * t0 * t0 - 2.0) / (2.0 * (1.0 - t0 * t0)) * z * z)
    for m in (0, 1, 5, 20):
        term = mehler_matrix(z, 0.7, 1.0, m) - (mehler_matrix(z, 0.7, 1.0, m - 1) if m else 0.0)
        h = w * eval_hermitenorm(m, z)
        ref = np.sqrt(1.0 - t0 * t0) * t0 ** m / factorial(m) * np.outer(h, h)
        # the recurrence and scipy's Hermite values part by ~2e-11 at m = 20
        assert_allclose(term, ref, rtol=1e-10)
    # large order stays finite where the naive ratio t0^m / m! would overflow
    beta = 0.99 / (2.0 * (1.0 - 0.99 ** 2))  # t0 = 0.99 at upsilon = 1
    assert_allclose(mehler_t0(beta, 1.0), 0.99, rtol=1e-12)
    assert np.all(np.isfinite(mehler_matrix(z, beta=beta, upsilon=1.0, M=400)))


def test_mehler_expansion_exact_at_unit_parameters():
    # at upsilon = beta = 1 the expansion converges to the one-coordinate
    # clean affinity exp(-(z_i - z_j)^2)
    rng = np.random.Generator(np.random.Philox(key=11))
    z = rng.standard_normal(40)
    target = np.exp(-np.subtract.outer(z, z) ** 2)
    got = mehler_matrix(z, beta=1.0, upsilon=1.0, M=80)
    assert np.max(np.abs(got - target)) <= 1e-8


def test_mehler_expansion_error_decreases_in_order():
    rng = np.random.Generator(np.random.Philox(key=12))
    z = rng.standard_normal(30)
    target = np.exp(-np.subtract.outer(z, z) ** 2)
    errs = [
        np.max(np.abs(mehler_matrix(z, beta=1.0, upsilon=1.0, M=M) - target))
        for M in (5, 15, 30, 60)
    ]
    assert errs[0] > errs[1] > errs[2] > errs[3]


def test_mehler_diagonal_converges_to_one():
    # the diagonal truncation tail decays like t0^M / sqrt(M); at unit
    # parameters that floor is ~3e-8 at order 60 (even for z = 0) and
    # drops below 1e-8 by order 70 on the bulk of the Gaussian
    rng = np.random.Generator(np.random.Philox(key=13))
    z = np.clip(rng.standard_normal(25), -2.0, 2.0)
    got60 = mehler_matrix(z, beta=1.0, upsilon=1.0, M=60)
    assert np.max(np.abs(np.diag(got60) - 1.0)) <= 1e-7
    got80 = mehler_matrix(z, beta=1.0, upsilon=1.0, M=80)
    assert np.max(np.abs(np.diag(got80) - 1.0)) <= 1e-8


def test_mehler_matrix_matches_printed_coefficients():
    # the orthonormalized assembly must agree with the printed form
    # prefactor * sum_m (t0^m / m!) H_m H_m^T at small orders, where
    # H_m = w o H~_m(z) with w = exp(((3 t0^2 - 2)/(2 (1 - t0^2))) z^2)
    rng = np.random.Generator(np.random.Philox(key=14))
    z = rng.standard_normal(12)
    t0 = mehler_t0(0.8, 1.2)
    w = np.exp((3.0 * t0 * t0 - 2.0) / (2.0 * (1.0 - t0 * t0)) * z * z)
    direct = np.zeros((12, 12))
    for m in range(13):
        term = w * eval_hermitenorm(m, z)
        direct += t0 ** m / factorial(m) * np.outer(term, term)
    direct *= np.sqrt(1.0 - t0 * t0)
    assert_allclose(mehler_matrix(z, beta=0.8, upsilon=1.2, M=12), direct, atol=1e-12)
    with pytest.raises(ValueError):
        mehler_matrix(z, beta=0.8, upsilon=1.2, M=-1)
    with pytest.raises(ValueError):
        mehler_matrix(np.zeros((3, 3)), beta=0.8, upsilon=1.2, M=2)
