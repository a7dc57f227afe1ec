import dataclasses
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
    cloud = gen_spiked(40, 30, (5.0, 2.0), 7)
    assert cloud.clean.shape == (40, 30)
    assert cloud.noise.shape == (40, 30)
    assert cloud.kind == SPIKED
    assert cloud.lambdas == (5.0, 2.0)
    assert cloud.lambda_total() == 7.0
    assert_array_equal(cloud.noisy(), cloud.clean + cloud.noise)


def test_spiked_zero_strength_is_pure_noise():
    cloud = gen_spiked(10, 6, (0.0,), 1)
    assert_array_equal(cloud.clean, np.zeros((10, 6)))
    assert_array_equal(cloud.noisy(), cloud.noise)


def test_spiked_tail_coordinates_zero_without_rotation():
    cloud = gen_spiked(25, 12, (4.0, 2.0, 1.0), 3)
    assert_array_equal(cloud.clean[:, 3:], np.zeros((25, 9)))


def test_spiked_sample_variance_matches_strength():
    # one spike of strength 4: the sample variance of the spiked coordinate
    # concentrates around 4 with standard error lam*sqrt(2/n)
    n, lam = 1000, 4.0
    cloud = gen_spiked(n, 1000, (lam,), 0)
    v = np.var(cloud.clean[:, 0])
    assert abs(v - lam) <= 4.0 * np.sqrt(2.0 / n) * lam


def test_spiked_clean_covariance_monte_carlo():
    n = 10000
    cloud = gen_spiked(n, 5, (4.0, 2.0), 11)
    emp = cloud.clean.T @ cloud.clean / n
    se = np.sqrt(2.0 / n)
    assert abs(emp[0, 0] - 4.0) <= 5.0 * se * 4.0
    assert abs(emp[1, 1] - 2.0) <= 5.0 * se * 2.0
    # cross term has variance lam1*lam2/n
    assert abs(emp[0, 1]) <= 5.0 * np.sqrt(4.0 * 2.0 / n)
    assert_array_equal(emp[2:, 2:], np.zeros((3, 3)))


def test_noise_variance_is_unit():
    cloud = gen_spiked(300, 300, (1.0,), 5)
    v = np.var(cloud.noise)
    assert abs(v - 1.0) <= 5.0 * np.sqrt(2.0 / cloud.noise.size)


def test_noise_reused_across_signal_strengths():
    # the same seed must draw the same noise whatever the signal strength,
    # so sweeps over lambda vary only the clean part
    a = gen_spiked(30, 20, (1.0,), 9)
    b = gen_spiked(30, 20, (900.0,), 9)
    assert_array_equal(a.noise, b.noise)
    assert not np.array_equal(a.clean, b.clean)


# Each generator as (seed, n, p, strength) -> cloud; p >= 4 suits all four.
GENERATORS = {
    "spiked": lambda seed, n, p, lam: gen_spiked(n, p, (lam,), seed, rotate=True),
    "circle": lambda seed, n, p, lam: gen_circle(n, p, lam, seed),
    "curve_m1": lambda seed, n, p, lam: gen_curve_m1(n, p, lam, seed),
    "klein_bottle": lambda seed, n, p, lam: gen_klein_bottle(n, p, lam, seed),
}


def _fresh_noise(seed, n, p):
    """The seed's own n x p draw of its noise substream."""
    return np.random.Generator(np.random.Philox(key=seed)).standard_normal((n, p))


def _record_substreams(monkeypatch):
    """The substream index of every generator ``datagen`` builds from here on."""
    asked = []
    build = datagen._substream

    def record(seed, k):
        asked.append(k)
        return build(seed, k)

    monkeypatch.setattr(datagen, "_substream", record)
    return asked


@pytest.mark.parametrize("make", GENERATORS.values(), ids=GENERATORS.keys())
def test_strength_sweep_shares_one_read_only_noise_draw(monkeypatch, make):
    asked = _record_substreams(monkeypatch)
    seed, n, p = 7341, 12, 6
    a, b = make(seed, n, p, 1.0), make(seed, n, p, 50.0)
    assert np.shares_memory(a.noise, b.noise)
    assert asked.count(0) == 1
    assert not np.array_equal(a.clean, b.clean)
    with pytest.raises(ValueError):
        a.noise[0, 0] = 1.0
    assert a.noise.tobytes() == _fresh_noise(seed, n, p).tobytes()
    for other in (make(seed + 1, n, p, 1.0), make(seed, n, p + 1, 1.0)):
        assert not np.array_equal(other.noise, a.noise)


@pytest.mark.parametrize("make", GENERATORS.values(), ids=GENERATORS.keys())
def test_shared_noise_goes_with_its_last_cloud(make):
    seed, n, p = 7342, 10, 5
    a, b = make(seed, n, p, 1.0), make(seed, n, p, 2.0)
    assert seed in datagen._NOISE
    del a
    gc.collect()
    assert np.shares_memory(datagen._NOISE[seed], b.noise)
    del b
    gc.collect()
    assert seed not in datagen._NOISE


@pytest.mark.parametrize("wide_shape", [(15, 12), (30, 6), (16, 9)])
def test_noise_is_a_read_only_prefix_view_of_a_longer_live_draw(monkeypatch, wide_shape):
    asked = _record_substreams(monkeypatch)
    seed, n, p = 7344, 15, 6
    wide = gen_spiked(*wide_shape, (1.0,), seed)
    narrow = gen_spiked(n, p, (1.0,), seed)
    # the narrow cloud drew no noise of its own
    assert asked == [0, 1, 1]
    assert np.shares_memory(narrow.noise, wide.noise)
    with pytest.raises(ValueError):
        narrow.noise[0, 0] = 1.0
    assert narrow.noise.tobytes() == _fresh_noise(seed, n, p).tobytes()
    # a repeated request reads the same draw again
    again = gen_spiked(n, p, (2.0,), seed)
    assert np.shares_memory(again.noise, narrow.noise)
    assert asked.count(0) == 1


def test_a_prefix_view_holds_its_draw_and_a_shorter_draw_serves_nothing_longer(monkeypatch):
    asked = _record_substreams(monkeypatch)
    seed, n, p = 7345, 10, 4
    narrow = gen_spiked(n, p, (1.0,), seed)
    wide = gen_spiked(n, 2 * p, (1.0,), seed)
    assert asked.count(0) == 2
    assert not np.shares_memory(narrow.noise, wide.noise)
    assert wide.noise.tobytes() == _fresh_noise(seed, n, 2 * p).tobytes()
    view = gen_spiked(n, p + 1, (1.0,), seed)
    assert np.shares_memory(view.noise, wide.noise)
    del wide
    gc.collect()
    # the view holds the draw it reads, so that draw still serves its shape
    again = gen_spiked(n, 2 * p, (3.0,), seed)
    assert np.shares_memory(again.noise, view.noise)
    assert asked.count(0) == 2


def test_a_substream_is_built_only_when_it_is_read(monkeypatch):
    asked = _record_substreams(monkeypatch)
    seed, n, p = 7343, 10, 5
    first = gen_spiked(n, p, (1.0,), seed)
    assert asked == [0, 1]
    del asked[:]
    again = gen_spiked(n, p, (2.0,), seed)
    assert np.shares_memory(again.noise, first.noise)
    assert asked == [1]
    del asked[:]
    gen_curve_m1(n, p + 1, 1.0, seed)
    assert asked == [0, 1, 2]


def test_write_json_sorts_keys_and_unwraps_numpy_scalars(tmp_path):
    path = tmp_path / "a.json"
    assert datagen.write_json(path, {"b": np.int64(3), "a": [np.float64(0.5)]}) == path
    assert path.read_text() == '{\n  "a": [\n    0.5\n  ],\n  "b": 3\n}\n'


def test_write_json_keeps_the_old_file_when_the_payload_does_not_serialise(tmp_path):
    path = tmp_path / "a.json"
    path.write_bytes(b"old\n")
    with pytest.raises(TypeError, match="ndarray"):
        datagen.write_json(path, {"grid": np.arange(3)})
    assert path.read_bytes() == b"old\n"
    assert [f.name for f in tmp_path.iterdir()] == ["a.json"]


def test_determinism_same_seed():
    a = gen_spiked(15, 8, (2.0,), 42, rotate=True)
    b = gen_spiked(15, 8, (2.0,), 42, rotate=True)
    assert_array_equal(a.clean, b.clean)
    assert_array_equal(a.noise, b.noise)


def test_spiked_rejects_bad_arguments():
    with pytest.raises(ValueError, match="n >= 2"):
        gen_spiked(1, 4, (1.0,), 0)
    with pytest.raises(ValueError, match="p >= d >= 1"):
        gen_spiked(5, 2, (1.0, 1.0, 1.0), 0)
    with pytest.raises(ValueError, match="p >= d >= 1"):
        gen_spiked(5, 4, (), 0)
    with pytest.raises(ValueError, match="nonnegative"):
        gen_spiked(5, 4, (1.0, -1.0), 0)


def _no_draw(seed, k):
    raise AssertionError("drew from substream %d of seed %r" % (k, seed))


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("make", GENERATORS.values(), ids=GENERATORS.keys())
def test_generators_refuse_fewer_than_two_points_before_drawing(monkeypatch, make, n):
    monkeypatch.setattr(datagen, "_substream", _no_draw)
    with pytest.raises(ValueError, match="n >= 2, got %d" % n):
        make(0, n, 6, 2.0)


@pytest.mark.parametrize("seed", [-1, 1.5], ids=["negative", "fractional"])
@pytest.mark.parametrize("make", GENERATORS.values(), ids=GENERATORS.keys())
def test_generators_refuse_a_bad_seed_before_drawing(monkeypatch, make, seed):
    monkeypatch.setattr(datagen, "_substream", _no_draw)
    with pytest.raises(ValueError, match="integer seed >= 0, got %r" % seed):
        make(seed, 10, 6, 2.0)


def test_random_rotation_is_orthogonal():
    R = random_rotation(17, seed=3)
    assert_allclose(R.T @ R, np.eye(17), atol=1e-12)


def test_rotation_preserves_row_norms():
    plain = gen_spiked(20, 10, (3.0, 1.0), 2, rotate=False)
    spun = gen_spiked(20, 10, (3.0, 1.0), 2, rotate=True)
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
    cloud = gen_spiked(9, 5, (2.5, 0.5), 13)
    path = tmp_path / "cloud.csv"
    save_cloud_csv(cloud, path)
    back = load_cloud_csv(path)
    assert back.clean.tobytes() == cloud.clean.tobytes()
    assert back.noise.tobytes() == cloud.noise.tobytes()
    assert back.noisy().tobytes() == cloud.noisy().tobytes()
    # a loaded cloud owns its arrays, stored at full width
    assert back.clean.flags.writeable and back.noise.flags.writeable
    assert back.clean is back.clean_cols
    assert (back.n, back.p, back.d, back.seed, back.kind) == (9, 5, 2, 13, SPIKED)
    assert back.lambdas is None  # the CSV format has no strength column
    with pytest.raises(ValueError):
        back.lambda_total()


def test_cloud_npz_roundtrip(tmp_path):
    cloud = gen_circle(n=7, p=4, lam=2.0, seed=3)
    path = tmp_path / "cloud.npz"
    save_cloud_npz(cloud, path)
    back = load_cloud_npz(path)
    assert back.clean.tobytes() == cloud.clean.tobytes()
    assert back.noise.tobytes() == cloud.noise.tobytes()
    assert back.noisy().tobytes() == cloud.noisy().tobytes()
    assert back.clean.flags.writeable and back.noise.flags.writeable
    assert back.clean is back.clean_cols
    assert back.lambdas == cloud.lambdas
    assert back.kind == CIRCLE


def test_load_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        load_cloud_csv(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_loaders_reject_non_finite_values(tmp_path, bad):
    cloud = gen_spiked(6, 4, (2.0,), 1)
    noise = cloud.noise.copy()
    noise[2, 3] = bad
    cloud = dataclasses.replace(cloud, noise=noise)
    csv_path = tmp_path / "cloud.csv"
    save_cloud_csv(cloud, csv_path)
    with pytest.raises(ValueError, match="NaN or infinite"):
        load_cloud_csv(csv_path)
    npz_path = tmp_path / "cloud.npz"
    save_cloud_npz(cloud, npz_path)
    with pytest.raises(ValueError, match="NaN or infinite"):
        load_cloud_npz(npz_path)


def test_npz_loader_rejects_mismatched_noise(tmp_path):
    path = tmp_path / "cloud.npz"
    np.savez(path, clean=np.zeros((6, 4)), noise=np.zeros((6, 3)), d=1, lambdas=[2.0],
             seed=1, kind=SPIKED)
    with pytest.raises(ValueError, match="shape"):
        load_cloud_npz(path)


# The generator bodies as they were before the four generators shared one
# body: the bit-for-bit reference for every generated array.
def _ref_streams(seed):
    root = np.random.Philox(key=int(seed))
    return (
        np.random.Generator(root),
        np.random.Generator(root.jumped(1)),
        np.random.Generator(root.jumped(2)),
    )


def _ref_haar_orthogonal(rng, p):
    m = rng.standard_normal((p, p))
    q, r = np.linalg.qr(m)
    sign = np.sign(np.diag(r))
    sign[sign == 0] = 1.0
    return q * sign


def _ref_spiked(n, p, lams, seed, rotate):
    d = len(lams)
    noise_rng, signal_rng, rot_rng = _ref_streams(seed)
    noise = noise_rng.standard_normal((n, p))
    xi = signal_rng.standard_normal((n, d))
    clean = np.zeros((n, p))
    clean[:, :d] = xi * np.sqrt(lams)
    if rotate:
        clean = clean @ _ref_haar_orthogonal(rot_rng, p).T
    return clean, noise


def _ref_circle(n, p, lam, seed):
    noise_rng, signal_rng, _ = _ref_streams(seed)
    noise = noise_rng.standard_normal((n, p))
    theta = signal_rng.uniform(0.0, 2.0 * np.pi, n)
    clean = np.zeros((n, p))
    clean[:, 0] = np.sqrt(lam) * np.cos(theta)
    clean[:, 1] = np.sqrt(lam) * np.sin(theta)
    return clean, noise


def _ref_curve_m1(n, p, a, seed, rotate):
    noise_rng, signal_rng, rot_rng = _ref_streams(seed)
    noise = noise_rng.standard_normal((n, p))
    u = signal_rng.uniform(0.0, 2.0 * np.pi, n)
    g = 1.0 - 0.8 * np.exp(-8.0 * np.cos(u) ** 2)
    phi = np.empty((n, 3))
    phi[:, 0] = 2.0 * np.cos(u)
    phi[:, 1] = 3.0 * g * np.cos(u ** 2 / (2.0 * np.pi))
    phi[:, 2] = g * np.sin(u)
    clean = np.zeros((n, p))
    clean[:, :3] = a * phi
    if rotate:
        clean = clean @ _ref_haar_orthogonal(rot_rng, p).T
    return clean, noise


def _ref_klein_bottle(n, p, a, seed, rotate):
    noise_rng, signal_rng, rot_rng = _ref_streams(seed)
    noise = noise_rng.standard_normal((n, p))
    u1 = signal_rng.uniform(0.0, 2.0 * np.pi, n)
    u2 = signal_rng.uniform(0.0, 2.0 * np.pi, n)
    clean = np.zeros((n, p))
    ring = 2.0 * np.cos(u1) + 1.0
    clean[:, 0] = ring * np.cos(u2)
    clean[:, 1] = ring * np.sin(u2)
    clean[:, 2] = 2.0 * np.sin(u1) * np.cos(u2 / 2.0)
    clean[:, 3] = 2.0 * np.sin(u1) * np.sin(u2 / 2.0)
    clean[:, :4] *= a
    if rotate:
        clean = clean @ _ref_haar_orthogonal(rot_rng, p).T
    return clean, noise


# (generator call, reference call), each as (n, p, seed) -> arrays
REFERENCE_CASES = {
    "spiked_d1": (lambda n, p, s: gen_spiked(n, p, (7.5,), s),
                  lambda n, p, s: _ref_spiked(n, p, (7.5,), s, False)),
    "spiked_d1_rotated": (lambda n, p, s: gen_spiked(n, p, (7.5,), s, rotate=True),
                          lambda n, p, s: _ref_spiked(n, p, (7.5,), s, True)),
    "spiked_d3": (lambda n, p, s: gen_spiked(n, p, (40.0, 3.0, 0.25), s),
                  lambda n, p, s: _ref_spiked(n, p, (40.0, 3.0, 0.25), s, False)),
    "spiked_d3_rotated": (lambda n, p, s: gen_spiked(n, p, (40.0, 3.0, 0.25), s, rotate=True),
                          lambda n, p, s: _ref_spiked(n, p, (40.0, 3.0, 0.25), s, True)),
    "circle": (lambda n, p, s: gen_circle(n, p, 13.0, s),
               lambda n, p, s: _ref_circle(n, p, 13.0, s)),
    "curve_m1": (lambda n, p, s: gen_curve_m1(n, p, 2.5, s),
                 lambda n, p, s: _ref_curve_m1(n, p, 2.5, s, True)),
    "klein_bottle": (lambda n, p, s: gen_klein_bottle(n, p, 1.5, s),
                     lambda n, p, s: _ref_klein_bottle(n, p, 1.5, s, True)),
    "klein_bottle_flat": (lambda n, p, s: gen_klein_bottle(n, p, 1.5, s, rotate=False),
                          lambda n, p, s: _ref_klein_bottle(n, p, 1.5, s, False)),
}


@pytest.mark.parametrize("make, reference", REFERENCE_CASES.values(), ids=REFERENCE_CASES.keys())
def test_generators_match_their_reference_bodies_bit_for_bit(make, reference):
    # p >= 40 with n = 6, and p = 150 with n = 120: shapes at which a thin
    # rotation product z @ R[:, :d].T rounds differently for d >= 3
    for n, p, seed in ((6, 4, 0), (31, 17, 5), (6, 64, 123), (120, 150, 2**31 + 9)):
        cloud = make(n, p, seed)
        clean, noise = reference(n, p, seed)
        assert cloud.clean.tobytes() == clean.tobytes()
        assert cloud.noise.tobytes() == noise.tobytes()
        assert cloud.noisy().tobytes() == (clean + noise).tobytes()


# (generator call as (n, p, seed) -> cloud, stored clean columns)
STORAGE_CASES = {
    "spiked_d3": (lambda n, p, s: gen_spiked(n, p, (4.0, 2.0, 1.0), s), 3),
    "spiked_d3_rotated": (lambda n, p, s: gen_spiked(n, p, (4.0, 2.0, 1.0), s, rotate=True), None),
    "circle": (lambda n, p, s: gen_circle(n, p, 5.0, s), 2),
    "curve_m1_flat": (lambda n, p, s: gen_curve_m1(n, p, 2.0, s, rotate=False), 3),
    "curve_m1": (lambda n, p, s: gen_curve_m1(n, p, 2.0, s), None),
    "klein_bottle_flat": (lambda n, p, s: gen_klein_bottle(n, p, 1.5, s, rotate=False), 4),
    "klein_bottle": (lambda n, p, s: gen_klein_bottle(n, p, 1.5, s), None),
}


@pytest.mark.parametrize("make, width", STORAGE_CASES.values(), ids=STORAGE_CASES.keys())
def test_unrotated_cloud_stores_only_its_nonzero_clean_columns(make, width):
    n, p = 20, 12
    cloud = make(n, p, 4)
    # n*d floats unrotated, n*p rotated
    assert cloud.clean_cols.size == n * (p if width is None else width)
    assert cloud.clean.shape == (n, p)
    assert_array_equal(cloud.clean[:, : cloud.clean_cols.shape[1]], cloud.clean_cols)


@pytest.mark.parametrize("make", [make for make, _ in STORAGE_CASES.values()],
                         ids=STORAGE_CASES.keys())
def test_generated_clean_is_read_only(make):
    cloud = make(10, 6, 1)
    for block in (cloud.clean_cols, cloud.clean):
        with pytest.raises(ValueError):
            block[0, 0] = 1.0
