import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from glspec.datagen import gen_spiked
from glspec.kernels import (
    affinity,
    off_diagonal,
    pairwise_sq_dists,
    transition,
    zeroed_transition,
)
from glspec.mplaw import MpMeasure, mp_cdf, nu0, typical_location
from glspec.spectrum import (
    bulk_rigidity,
    eigvec_rmse,
    op_norm_diff,
    stieltjes,
    stieltjes_grid,
    sym_eigs,
    transition_eigs,
)


def _symmetric(n, key):
    rng = np.random.Generator(np.random.Philox(key=key))
    M = rng.standard_normal((n, n))
    return 0.5 * (M + M.T)


def test_sym_eigs_descending_and_orthonormal():
    M = _symmetric(12, 1)
    vals, vecs = sym_eigs(M, want_vectors=4)
    assert vals.size == 12
    assert np.all(np.diff(vals) <= 0)
    assert vecs.shape == (12, 4)
    assert_allclose(vecs.T @ vecs, np.eye(4), atol=1e-12)
    for k in range(4):
        v = vecs[:, k]
        assert_allclose(M @ v, vals[k] * v, atol=1e-10)


def test_sym_eigs_rejects_asymmetric_input():
    M = _symmetric(6, 2)
    # exactly symmetric input is solved as it is
    assert_array_equal(sym_eigs(M), np.linalg.eigvalsh(M)[::-1])
    # round-off asymmetry is symmetrized, anything larger is rejected
    M[0, 1] += 1e-12
    assert_array_equal(
        sym_eigs(M), np.linalg.eigvalsh(0.5 * (M + M.T))[::-1]
    )
    M[0, 1] += 1.0
    with pytest.raises(ValueError, match="not symmetric"):
        sym_eigs(M)
    with pytest.raises(ValueError, match="not symmetric"):
        sym_eigs(M, want_vectors=2)


@pytest.mark.parametrize("zeroed", [False, True], ids=["plain", "zeroed"])
def test_transition_eigs_match_the_dense_transition_matrix(zeroed):
    cloud = gen_spiked(40, 20, (3.0,), 5)
    W = affinity(pairwise_sq_dists(cloud.noisy()), 0.5, 20.0)
    A = zeroed_transition(W) if zeroed else transition(W)
    if zeroed:
        W = off_diagonal(W)
    vals = transition_eigs(W)
    assert_allclose(vals, np.sort(np.linalg.eigvals(A).real)[::-1], atol=1e-10)
    k = 4
    vals_k, vecs = transition_eigs(W, want_vectors=k)
    assert_allclose(vals_k, vals, atol=1e-12)
    assert vecs.shape == (40, k)
    for lam, v in zip(vals_k, vecs.T):
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        assert_allclose(A @ v, lam * v, atol=1e-10)


def test_op_norm_diff_against_power_iteration():
    Ma = _symmetric(30, 3)
    Mb = _symmetric(30, 4)
    got = op_norm_diff(Ma, Mb)
    diff = Ma - Mb
    v = np.ones(30) / np.sqrt(30.0)
    for _ in range(5000):
        w = diff @ v
        v = w / np.linalg.norm(w)
    ref = abs(v @ (diff @ v))
    assert abs(got - ref) <= 1e-7 * ref
    with pytest.raises(ValueError):
        op_norm_diff(np.zeros((2, 2)), np.zeros((3, 3)))


def test_op_norm_diff_zero_for_equal():
    M = _symmetric(9, 5)
    assert op_norm_diff(M, M) == 0.0


def test_op_norm_diff_takes_sym_eigs_contract():
    Ma, Mb = _symmetric(25, 6), _symmetric(25, 7)
    # the earlier formula: symmetrize the difference, then solve
    diff = Ma - Mb
    vals = sym_eigs(0.5 * (diff + diff.T))
    assert op_norm_diff(Ma, Mb) == float(max(vals[0], -vals[-1]))
    # beyond sym_eigs's 1e-9 relative tolerance the difference is refused
    Mb[0, 1] += 1e-6
    with pytest.raises(ValueError, match="not symmetric"):
        op_norm_diff(Ma, Mb)


def test_bulk_rigidity_zero_at_typical_locations():
    m = nu0(1.0, 0.5)
    n = 120
    eigs = np.array([typical_location(m, j, n) for j in range(1, n + 1)])
    assert bulk_rigidity(eigs, m) <= 1e-8


def test_bulk_rigidity_detects_displacement():
    m = nu0(1.0, 0.5)
    n = 120
    eigs = np.array([typical_location(m, j, n) for j in range(1, n + 1)])
    eigs[50] += 0.3
    dev = bulk_rigidity(eigs, m)
    assert abs(dev - 0.3) <= 1e-8
    # indices 1 .. 9 are ignored
    eigs2 = np.array([typical_location(m, j, n) for j in range(1, n + 1)])
    eigs2[:9] += 100.0
    assert bulk_rigidity(eigs2, m) <= 1e-8
    # the window ends at i = 0.9 n = 108
    eigs2[107] += 0.25
    eigs2[108:] -= 5.0
    assert abs(bulk_rigidity(eigs2, m) - 0.25) <= 1e-8
    # n = 10 leaves no index in 9 < i <= 0.9 n
    assert bulk_rigidity(eigs[:10], m) == 0.0


def test_bulk_rigidity_rejects_nine_or_fewer_eigenvalues():
    m = nu0(1.0, 0.5)
    for n in (0, 1, 9):
        with pytest.raises(ValueError, match="more than 9 eigenvalues"):
            bulk_rigidity(np.ones(n), m)


def test_stieltjes_single_atom():
    z = 0.3 + 0.7j
    got = stieltjes(np.array([2.0]), z)
    assert_allclose(got, 1.0 / (2.0 - z), rtol=1e-14)
    with pytest.raises(ValueError):
        stieltjes(np.array([1.0]), 1.0 - 0.1j)


def test_stieltjes_imaginary_part_positive():
    eigs = np.linspace(0.0, 4.0, 50)
    for z in (0.5 + 0.1j, 2.0 + 1.0j):
        assert stieltjes(eigs, z).imag > 0.0


def test_stieltjes_array_matches_per_point_loop():
    # the per-point loop and Python's complex abs are the reference: the
    # array form must reproduce both bit for bit
    for n, key in ((57, 3), (200, 4), (300, 5)):
        ea = np.sort(sym_eigs(_symmetric(n, key)))
        eb = np.sort(sym_eigs(_symmetric(n, key + 10)))
        points = stieltjes_grid(n, 1.0, 0.2)
        loop = [complex(np.mean(1.0 / (ea - z))) for z in points]
        got = stieltjes(ea, points)
        assert got.shape == points.shape
        assert np.array_equal(got, loop)
        assert stieltjes(ea, points[0]) == loop[0]
        # hypot of the difference is Python's complex abs, bit for bit
        diff = got - stieltjes(eb, points)
        worst = [abs(complex(np.mean(1.0 / (ea - z))) - complex(np.mean(1.0 / (eb - z))))
                 for z in points]
        assert np.array_equal(np.hypot(diff.real, diff.imag), worst)
    with pytest.raises(ValueError):
        stieltjes(ea, np.array([1.0 + 0.1j, 2.0 - 0.1j]))


def test_stieltjes_grid_build():
    n, alpha, a = 200, 1.0, 0.2
    points = stieltjes_grid(n, alpha, a)
    assert points.shape == (16 * 8,)
    ref_eta_min = float(n) ** (-0.5 + alpha / 4.0 + a)
    assert_allclose(points.imag.min(), ref_eta_min, rtol=1e-12)
    assert_allclose(points.imag.max(), 1.0 / a, rtol=1e-12)
    assert_allclose(points.real.min(), a, rtol=1e-12)
    assert_allclose(points.real.max(), 1.0 / a, rtol=1e-12)
    # energy-major: each of the 16 energies takes the 8 eta values in turn
    box = points.reshape(16, 8)
    assert_array_equal(box.real, np.linspace(a, 1.0 / a, 16)[:, None] + np.zeros(8))
    assert_array_equal(box.imag, box.imag[:1] + np.zeros((16, 1)))
    for bad_a in (0.0, 1.0, 1.5):
        with pytest.raises(ValueError, match="need a in"):
            stieltjes_grid(200, 1.0, bad_a)
    with pytest.raises(ValueError, match="empty eta range"):
        # eta_min above 1/a leaves an empty eta range
        stieltjes_grid(2, 3.9, 0.9)


def test_eigvec_rmse_sign_alignment():
    rng = np.random.Generator(np.random.Philox(key=9))
    U = rng.standard_normal((50, 3))
    U /= np.linalg.norm(U, axis=0)
    flipped = U * np.array([1.0, -1.0, 1.0])
    assert_allclose(eigvec_rmse(U, flipped), np.zeros(3), atol=1e-15)
    with pytest.raises(ValueError):
        eigvec_rmse(U, U[:, :2])


def test_eigvec_rmse_orthogonal_columns():
    n = 16
    u = np.zeros((n, 1))
    v = np.zeros((n, 1))
    u[0, 0] = 1.0
    v[1, 0] = 1.0
    # min(||u - v||, ||u + v||) = sqrt(2) for orthonormal u, v
    assert_allclose(eigvec_rmse(u, v)[0], np.sqrt(2.0 / n), rtol=1e-14)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=30), st.integers(min_value=0, max_value=2 ** 31))
def test_eigvec_rmse_bounded_for_unit_columns(n, key):
    rng = np.random.Generator(np.random.Philox(key=key))
    U = rng.standard_normal((n, 2))
    V = rng.standard_normal((n, 2))
    U /= np.linalg.norm(U, axis=0)
    V /= np.linalg.norm(V, axis=0)
    vals = eigvec_rmse(U, V)
    # sign alignment caps the distance at sqrt(2) for unit vectors
    assert np.all(vals >= 0.0)
    assert np.all(vals <= np.sqrt(2.0 / n) + 1e-12)
    assert_allclose(eigvec_rmse(U, -U), np.zeros(2), atol=1e-12)


@pytest.mark.slow
def test_esd_density_matches_limit_in_probability():
    # 1000 pure-noise spectra at n = 300: binned density within 0.05 of the
    # limiting bulk density over the 50-bin grid, except the two bins at
    # the lower edge where the c = 1 density diverges like u^{-1/2} and
    # finite-size smearing dominates
    from glspec.datagen import gen_spiked
    from glspec.kernels import affinity, pairwise_sq_dists

    n = 300
    m = nu0(1.0, 0.5)
    lo = m.shift + m.bulk_lo
    hi = m.shift + m.bulk_hi
    bins = np.linspace(lo, hi, 51)
    reps = 1000
    total = np.zeros(50)
    for rep in range(reps):
        cloud = gen_spiked(n, n, (0.0,), 500000 + rep)
        W = affinity(pairwise_sq_dists(cloud.noisy()), 0.5, float(n))
        eigs = np.linalg.eigvalsh(W)
        counts, _ = np.histogram(eigs, bins=bins)
        total += counts
    width = bins[1] - bins[0]
    emp = total / (reps * n * width)
    theory = np.diff(mp_cdf(bins, m)) / width
    assert np.max(np.abs(emp - theory)[2:]) <= 0.05
    # nearly all mass stays inside the bulk window (the only systematic
    # escape is the smeared lower edge plus the one top spike)
    assert total.sum() >= 0.9 * reps * n
