import gc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from glspec import datagen
from glspec.datagen import (
    CIRCLE,
    CURVE_M1,
    KB_COV_EIGS,
    KLEIN_BOTTLE,
    M1_COV_EIGS,
    SPIKED,
    GeneratorConfig,
    gen_circle,
    gen_curve_m1,
    gen_klein_bottle,
    gen_spiked,
    load_cloud_csv,
    load_cloud_npz,
    random_rotation,
    save_cloud_csv,
    save_cloud_npz,
)


def test_spiked_shapes_and_metadata():
    cfg = GeneratorConfig(n=40, p=30, d=2, lambdas=(5.0, 2.0), seed=7)
    cloud = gen_spiked(cfg)
    assert cloud.clean.shape == (40, 30)
    assert cloud.noise.shape == (40, 30)
    assert cloud.kind == SPIKED
    assert cloud.lambdas == (5.0, 2.0)
    assert cloud.lambda_total() == 7.0
    assert_array_equal(cloud.noisy(), cloud.clean + cloud.noise)


def test_spiked_zero_strength_is_pure_noise():
    cloud = gen_spiked(GeneratorConfig(n=10, p=6, d=1, lambdas=(0.0,), seed=1))
    assert_array_equal(cloud.clean, np.zeros((10, 6)))
    assert_array_equal(cloud.noisy(), cloud.noise)


def test_spiked_tail_coordinates_zero_without_rotation():
    cloud = gen_spiked(GeneratorConfig(n=25, p=12, d=3, lambdas=(4.0, 2.0, 1.0), seed=3))
    assert_array_equal(cloud.clean[:, 3:], np.zeros((25, 9)))


def test_spiked_sample_variance_matches_strength():
    # one spike of strength 4: the sample variance of the spiked coordinate
    # concentrates around 4 with standard error lam*sqrt(2/n)
    n, lam = 1000, 4.0
    cloud = gen_spiked(GeneratorConfig(n=n, p=1000, d=1, lambdas=(lam,), seed=0))
    v = np.var(cloud.clean[:, 0])
    assert abs(v - lam) <= 4.0 * np.sqrt(2.0 / n) * lam


def test_spiked_clean_covariance_monte_carlo():
    n = 10000
    cloud = gen_spiked(GeneratorConfig(n=n, p=5, d=2, lambdas=(4.0, 2.0), seed=11))
    emp = cloud.clean.T @ cloud.clean / n
    se = np.sqrt(2.0 / n)
    assert abs(emp[0, 0] - 4.0) <= 5.0 * se * 4.0
    assert abs(emp[1, 1] - 2.0) <= 5.0 * se * 2.0
    # cross term has variance lam1*lam2/n
    assert abs(emp[0, 1]) <= 5.0 * np.sqrt(4.0 * 2.0 / n)
    assert_array_equal(emp[2:, 2:], np.zeros((3, 3)))


def test_noise_variance_is_unit():
    cloud = gen_spiked(GeneratorConfig(n=300, p=300, d=1, lambdas=(1.0,), seed=5))
    v = np.var(cloud.noise)
    assert abs(v - 1.0) <= 5.0 * np.sqrt(2.0 / cloud.noise.size)


def test_alpha_resolution_base_p_and_n():
    cfg = GeneratorConfig(n=100, p=400, d=2, alphas=(0.5, 1.0), alpha_base="p")
    assert cfg.resolve_lambdas() == (20.0, 400.0)
    cfg = GeneratorConfig(n=100, p=400, d=2, alphas=(0.5, 1.0), alpha_base="n")
    assert cfg.resolve_lambdas() == (10.0, 100.0)


def test_noise_reused_across_signal_strengths():
    # the same seed must draw the same noise whatever the signal strength,
    # so sweeps over lambda vary only the clean part
    a = gen_spiked(GeneratorConfig(n=30, p=20, d=1, lambdas=(1.0,), seed=9))
    b = gen_spiked(GeneratorConfig(n=30, p=20, d=1, lambdas=(900.0,), seed=9))
    assert_array_equal(a.noise, b.noise)
    assert not np.array_equal(a.clean, b.clean)


# Each generator as (seed, n, p, strength) -> cloud; p >= 4 suits all four.
GENERATORS = {
    "spiked": lambda seed, n, p, lam: gen_spiked(
        GeneratorConfig(n=n, p=p, d=1, lambdas=(lam,), rotate=True, seed=seed)
    ),
    "circle": lambda seed, n, p, lam: gen_circle(n, p, lam, seed),
    "curve_m1": lambda seed, n, p, lam: gen_curve_m1(n, p, lam, seed),
    "klein_bottle": lambda seed, n, p, lam: gen_klein_bottle(n, p, lam, seed),
}


@pytest.mark.parametrize("make", GENERATORS.values(), ids=GENERATORS.keys())
def test_strength_sweep_shares_one_read_only_noise_draw(make):
    seed, n, p = 7341, 12, 6
    a, b = make(seed, n, p, 1.0), make(seed, n, p, 50.0)
    assert a.noise is b.noise
    assert not np.array_equal(a.clean, b.clean)
    with pytest.raises(ValueError):
        a.noise[0, 0] = 1.0
    fresh = np.random.Generator(np.random.Philox(key=seed)).standard_normal((n, p))
    assert_array_equal(a.noise, fresh)
    for other in (make(seed + 1, n, p, 1.0), make(seed, n, p + 1, 1.0)):
        assert not np.array_equal(other.noise, a.noise)


@pytest.mark.parametrize("make", GENERATORS.values(), ids=GENERATORS.keys())
def test_shared_noise_goes_with_its_last_cloud(make):
    seed, n, p = 7342, 10, 5
    key = (seed, n, p)
    a, b = make(seed, n, p, 1.0), make(seed, n, p, 2.0)
    assert key in datagen._NOISE
    del a
    gc.collect()
    assert datagen._NOISE[key] is b.noise
    del b
    gc.collect()
    assert key not in datagen._NOISE


def test_determinism_same_seed():
    cfg = GeneratorConfig(n=15, p=8, d=1, lambdas=(2.0,), rotate=True, seed=42)
    a, b = gen_spiked(cfg), gen_spiked(cfg)
    assert_array_equal(a.clean, b.clean)
    assert_array_equal(a.noise, b.noise)


def test_config_validation_errors():
    with pytest.raises(ValueError):
        gen_spiked(GeneratorConfig(n=1, p=4, d=1, lambdas=(1.0,)))
    with pytest.raises(ValueError):
        gen_spiked(GeneratorConfig(n=5, p=2, d=3, lambdas=(1.0, 1.0, 1.0)))
    with pytest.raises(ValueError):
        GeneratorConfig(n=5, p=4, d=1).resolve_lambdas()
    with pytest.raises(ValueError):
        GeneratorConfig(n=5, p=4, d=1, lambdas=(1.0,), alphas=(1.0,)).resolve_lambdas()
    with pytest.raises(ValueError):
        GeneratorConfig(n=5, p=4, d=2, lambdas=(1.0,)).resolve_lambdas()
    with pytest.raises(ValueError):
        GeneratorConfig(n=5, p=4, d=1, lambdas=(-1.0,)).resolve_lambdas()
    with pytest.raises(ValueError):
        GeneratorConfig(n=5, p=4, d=1, alphas=(1.0,), alpha_base="q").resolve_lambdas()


def test_random_rotation_is_orthogonal():
    R = random_rotation(17, seed=3)
    assert_allclose(R.T @ R, np.eye(17), atol=1e-12)


def test_rotation_preserves_row_norms():
    plain = gen_spiked(GeneratorConfig(n=20, p=10, d=2, lambdas=(3.0, 1.0), rotate=False, seed=2))
    spun = gen_spiked(GeneratorConfig(n=20, p=10, d=2, lambdas=(3.0, 1.0), rotate=True, seed=2))
    assert_allclose(
        np.linalg.norm(spun.clean, axis=1), np.linalg.norm(plain.clean, axis=1), rtol=1e-9
    )
    assert_array_equal(spun.noise, plain.noise)


def test_circle_geometry():
    lam = 9.0
    cloud = gen_circle(n=50, p=6, lam=lam, seed=4)
    assert cloud.kind == CIRCLE
    assert cloud.d == 2
    assert cloud.lambdas == (4.5, 4.5)
    assert cloud.lambda_total() == lam
    radii = np.linalg.norm(cloud.clean[:, :2], axis=1)
    assert_allclose(radii, np.full(50, 3.0), rtol=1e-12)
    assert_array_equal(cloud.clean[:, 2:], np.zeros((50, 4)))


def test_circle_mean_concentrates():
    n = 4000
    cloud = gen_circle(n=n, p=3, lam=1.0, seed=0)
    # each coordinate of the clean part has mean 0 and variance 1/2
    sd = np.sqrt(0.5 / n)
    assert np.all(np.abs(cloud.clean[:, :2].mean(axis=0)) <= 5.0 * sd)


def test_circle_rejects_bad_arguments():
    with pytest.raises(ValueError):
        gen_circle(n=10, p=1, lam=1.0, seed=0)
    with pytest.raises(ValueError):
        gen_circle(n=10, p=4, lam=0.0, seed=0)


def test_m1_covariance_constants_match_quadrature():
    # the pinned covariance spectrum of the unit-scale curve, recomputed by
    # trapezoid quadrature (the integrand is smooth and 2*pi periodic, so
    # the rule converges faster than any power of the step)
    from glspec.datagen import _m1_embedding

    u = np.linspace(0.0, 2.0 * np.pi, 1 << 16, endpoint=False)
    phi = _m1_embedding(u)
    mu = phi.mean(axis=0)
    cov = phi.T @ phi / u.size - np.outer(mu, mu)
    eigs = np.sort(np.linalg.eigvalsh(cov))[::-1]
    assert_allclose(eigs, M1_COV_EIGS, rtol=1e-8)


def test_m1_cloud_lies_on_scaled_curve():
    a = 5.0
    cloud = gen_curve_m1(n=64, p=10, a=a, seed=8, rotate=False)
    assert cloud.kind == CURVE_M1
    assert cloud.d == 3
    assert_allclose(cloud.lambdas, tuple(a * a * v for v in M1_COV_EIGS), rtol=1e-15)
    assert_array_equal(cloud.clean[:, 3:], np.zeros((64, 7)))
    # each row is a * Phi(u) for some u: check the first-coordinate bound
    assert np.all(np.abs(cloud.clean[:, 0]) <= 2.0 * a + 1e-12)


def test_klein_bottle_cloud_structure():
    a = 2.0
    cloud = gen_klein_bottle(n=128, p=9, a=a, seed=6, rotate=False)
    assert cloud.kind == KLEIN_BOTTLE
    assert cloud.d == 4
    assert cloud.lambdas == tuple(a * a * v for v in KB_COV_EIGS)
    assert cloud.lambda_total() == a * a * 5.0
    assert_array_equal(cloud.clean[:, 4:], np.zeros((128, 5)))
    # the ring radius (2 cos u1 + 1) bounds the first two coordinates
    assert np.all(np.linalg.norm(cloud.clean[:, :2], axis=1) <= 3.0 * a + 1e-12)


def test_klein_bottle_covariance_monte_carlo():
    n = 200000
    cloud = gen_klein_bottle(n=n, p=4, a=1.0, seed=0, rotate=False)
    emp = np.cov(cloud.clean, rowvar=False)
    assert_allclose(np.diag(emp), KB_COV_EIGS, atol=0.05)
    off = emp - np.diag(np.diag(emp))
    assert np.max(np.abs(off)) <= 0.05


def test_manifold_rotation_reproducible():
    cloud = gen_curve_m1(n=12, p=7, a=3.0, seed=21, rotate=True)
    plain = gen_curve_m1(n=12, p=7, a=3.0, seed=21, rotate=False)
    R = random_rotation(7, seed=21)
    assert_allclose(cloud.clean, plain.clean @ R.T, atol=1e-12)


def test_cloud_csv_roundtrip(tmp_path):
    cloud = gen_spiked(GeneratorConfig(n=9, p=5, d=2, lambdas=(2.5, 0.5), seed=13))
    path = tmp_path / "cloud.csv"
    save_cloud_csv(cloud, path)
    back = load_cloud_csv(path)
    assert_array_equal(back.clean, cloud.clean)
    assert_array_equal(back.noise, cloud.noise)
    assert back.noise.flags.writeable  # a loaded cloud owns its arrays
    assert (back.n, back.p, back.d, back.seed, back.kind) == (9, 5, 2, 13, SPIKED)
    assert back.lambdas is None  # the CSV format has no strength column
    with pytest.raises(ValueError):
        back.lambda_total()


def test_cloud_npz_roundtrip(tmp_path):
    cloud = gen_circle(n=7, p=4, lam=2.0, seed=3)
    path = tmp_path / "cloud.npz"
    save_cloud_npz(cloud, path)
    back = load_cloud_npz(path)
    assert_array_equal(back.clean, cloud.clean)
    assert_array_equal(back.noise, cloud.noise)
    assert back.noise.flags.writeable
    assert back.lambdas == cloud.lambdas
    assert back.kind == CIRCLE


def test_load_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        load_cloud_csv(path)
