import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from glspec.mplaw import MpMeasure, mp_cdf, nu0, typical_location
from glspec.spectrum import (
    StieltjesGrid,
    bulk_rigidity,
    eigvec_rmse,
    esd_histogram,
    gap_instability_flags,
    op_norm_diff,
    save_histogram_csv,
    save_spectrum_csv,
    stieltjes,
    stieltjes_compare,
    sym_eigs,
)


def _symmetric(n, key):
    rng = np.random.Generator(np.random.Philox(key=key))
    M = rng.standard_normal((n, n))
    return 0.5 * (M + M.T)


def test_sym_eigs_descending_and_orthonormal():
    M = _symmetric(12, 1)
    res = sym_eigs(M, want_vectors=4)
    assert res.n == 12
    assert np.all(np.diff(res.eigenvalues) <= 0)
    assert res.eigenvectors.shape == (12, 4)
    assert_allclose(res.eigenvectors.T @ res.eigenvectors, np.eye(4), atol=1e-12)
    for k in range(4):
        v = res.eigenvectors[:, k]
        assert_allclose(M @ v, res.eigenvalues[k] * v, atol=1e-10)


def test_sym_eigs_rejects_asymmetric_input():
    M = _symmetric(6, 2)
    # exactly symmetric input is solved as it is
    assert_array_equal(sym_eigs(M).eigenvalues, np.linalg.eigvalsh(M)[::-1])
    # round-off asymmetry is symmetrized, anything larger is rejected
    M[0, 1] += 1e-12
    assert_array_equal(
        sym_eigs(M).eigenvalues, np.linalg.eigvalsh(0.5 * (M + M.T))[::-1]
    )
    M[0, 1] += 1.0
    with pytest.raises(ValueError, match="not symmetric"):
        sym_eigs(M)
    with pytest.raises(ValueError, match="not symmetric"):
        sym_eigs(M, want_vectors=2)


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


def test_bulk_rigidity_zero_at_typical_locations():
    m = nu0(1.0, 0.5)
    n = 120
    eigs = np.array([typical_location(m, j, n) for j in range(1, n + 1)])
    assert bulk_rigidity(eigs, m, skip=9, eps=0.1) <= 1e-8


def test_bulk_rigidity_detects_displacement():
    m = nu0(1.0, 0.5)
    n = 120
    eigs = np.array([typical_location(m, j, n) for j in range(1, n + 1)])
    eigs[50] += 0.3
    dev = bulk_rigidity(eigs, m, skip=9, eps=0.1)
    assert abs(dev - 0.3) <= 1e-8
    # indices at or below skip are ignored
    eigs2 = np.array([typical_location(m, j, n) for j in range(1, n + 1)])
    eigs2[:9] += 100.0
    assert bulk_rigidity(eigs2, m, skip=9, eps=0.1) <= 1e-8
    with pytest.raises(ValueError):
        bulk_rigidity(eigs, m, skip=-1)
    with pytest.raises(ValueError):
        bulk_rigidity(eigs, m, eps=1.0)
    # n = 10 leaves no index in 9 < i <= 0.9 n
    assert bulk_rigidity(eigs[:10], m, skip=9, eps=0.1) == 0.0


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


def test_stieltjes_grid_build():
    n, alpha, a = 200, 1.0, 0.2
    grid = StieltjesGrid.build(n, alpha, a, n_e=16, n_eta=8)
    assert grid.points.size == 16 * 8
    ref_eta_min = float(n) ** (-0.5 + alpha / 4.0 + a)
    assert_allclose(grid.eta_min, ref_eta_min, rtol=1e-12)
    assert grid.points.real.min() >= a - 1e-12
    assert grid.points.real.max() <= 1.0 / a + 1e-12
    assert grid.points.imag.max() <= 1.0 / a + 1e-12
    with pytest.raises(ValueError):
        StieltjesGrid.build(200, 1.0, 1.5)
    with pytest.raises(ValueError):
        # eta_min above 1/a leaves an empty eta range
        StieltjesGrid.build(2, 3.9, 0.9)


def test_stieltjes_compare_identical_is_zero():
    M = _symmetric(20, 6)
    grid = StieltjesGrid.build(20, 1.0, 0.2)
    assert stieltjes_compare(M, M, grid) == 0.0


def test_stieltjes_compare_tracks_perturbation():
    M = _symmetric(20, 7)
    E = 1e-3 * _symmetric(20, 8)
    grid = StieltjesGrid.build(20, 1.0, 0.2)
    dev = stieltjes_compare(M, M + E, grid)
    assert 0.0 < dev <= 1e-3 * 20 / grid.eta_min ** 2


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


def test_gap_instability_flags():
    eigs = np.array([3.0, 2.0, 2.0 + 1e-12, 1.0])
    flags = gap_instability_flags(eigs, tol=1e-8)
    assert_array_equal(flags, np.array([False, True, True, False]))
    assert not gap_instability_flags(np.array([3.0, 2.0, 1.0])).any()


def test_esd_histogram_counts_and_atom():
    eigs = np.array([0.0, 0.0, 1.0, 2.0, 3.0])
    edges, counts = esd_histogram(eigs, bins=3)
    assert counts.sum() == 5


def test_esd_density_matches_limit_in_probability():
    # 1000 pure-noise spectra at n = 300: binned density within 0.05 of the
    # limiting bulk density over the 50-bin grid, except the two bins at
    # the lower edge where the c = 1 density diverges like u^{-1/2} and
    # finite-size smearing dominates
    from glspec.datagen import GeneratorConfig, gen_spiked
    from glspec.kernels import KernelParams, affinity, pairwise_sq_dists

    n = 300
    m = nu0(1.0, 0.5)
    lo = m.shift + m.bulk_lo
    hi = m.shift + m.bulk_hi
    bins = np.linspace(lo, hi, 51)
    reps = 1000
    total = np.zeros(50)
    for rep in range(reps):
        cloud = gen_spiked(GeneratorConfig(n=n, p=n, d=1, lambdas=(0.0,), seed=500000 + rep))
        W = affinity(pairwise_sq_dists(cloud.noisy()), KernelParams(0.5, float(n)))
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


def test_save_spectrum_csv(tmp_path):
    path = tmp_path / "spec.csv"
    save_spectrum_csv(np.array([3.0, 1.0]), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "index,eigenvalue"
    assert lines[1] == "1,3"
    assert lines[2] == "2,1"


def test_save_histogram_csv(tmp_path):
    path = tmp_path / "hist.csv"
    edges, counts = esd_histogram(np.array([0.5, 1.5, 1.6]), bins=2)
    save_histogram_csv(edges, counts, path)
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    assert rows.shape == (2, 3)
    assert rows[:, 2].sum() == 3
