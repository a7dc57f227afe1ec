import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate

from glspec.mplaw import (
    MpMeasure,
    mp_cdf,
    mp_density,
    nu0,
    nu_lambda,
    spiked_gram_outlier,
    typical_location,
)


def test_edges_scaled_convention():
    m = MpMeasure(c=0.5, sigma2=2.0)
    root = np.sqrt(0.5)
    assert_allclose(m.bulk_lo, 2.0 * (1.0 - root) ** 2, rtol=1e-15)
    assert_allclose(m.bulk_hi, 2.0 * (1.0 + root) ** 2, rtol=1e-15)


def test_construction_rejects_bad_parameters():
    with pytest.raises(ValueError):
        MpMeasure(c=0.0, sigma2=1.0)
    with pytest.raises(ValueError):
        MpMeasure(c=1.0, sigma2=-1.0)
    # the point mass follows from c; it is not a constructor argument
    with pytest.raises(TypeError):
        MpMeasure(2.0, 1.0, 0.0, 0.25)


def test_construction_refuses_an_underflowing_scale():
    # tau = 1202 gives sigma2 = e^{-601} ~ 9.75e-262: the bulk integrand's
    # numerator and denominator would both underflow to zero
    with pytest.raises(ValueError, match="sigma2 = 9.7"):
        nu_lambda(0.5, 600, 600 ** 2, 0.5)


@pytest.mark.parametrize("c", [0.25, 0.5, 1.0, 2.0, 4.0])
def test_total_mass_is_one(c):
    m = MpMeasure(c=c, sigma2=1.0)
    bulk = m._bulk_cdf_raw(m.bulk_hi)
    atom = m.point_mass_at_zero
    assert abs(bulk + atom - 1.0) <= 1e-8
    assert abs(m.total_mass() - 1.0) <= 1e-8
    assert atom == max(0.0, 1.0 - 1.0 / c)


@pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
def test_cdf_against_adaptive_quadrature(c):
    m = MpMeasure(c=c, sigma2=1.0)

    def dens(x):
        return mp_density(x, m)

    for x in np.linspace(m.bulk_lo + 1e-6, m.bulk_hi, 7):
        ref, err = integrate.quad(dens, m.bulk_lo, x, limit=200)
        assert err < 1e-7
        got = mp_cdf(x, m) - m.point_mass_at_zero
        assert abs(got - ref) <= 1e-8 + err


def test_cdf_shift_and_monotonicity():
    m = MpMeasure(c=1.0, sigma2=np.exp(-1.0), shift=0.25)
    xs = np.linspace(-0.5, m.shift + m.bulk_hi + 0.5, 301)
    cdf = mp_cdf(xs, m)
    assert np.all(np.diff(cdf) >= -1e-12)
    assert cdf[0] == 0.0
    assert abs(cdf[-1] - 1.0) <= 1e-8
    # the whole law is a translate: F(x) = F0(x - shift)
    base = MpMeasure(c=1.0, sigma2=np.exp(-1.0))
    assert_allclose(mp_cdf(xs, m), mp_cdf(xs - 0.25, base), atol=1e-12)


def test_density_vanishes_off_bulk():
    m = MpMeasure(c=1.0, sigma2=1.0)
    assert mp_density(m.bulk_lo - 0.1, m) == 0.0
    assert mp_density(m.bulk_hi + 0.1, m) == 0.0
    inside = mp_density(2.0, m)
    assert inside > 0.0
    # closed form at c = sigma2 = 1: density = sqrt((4 - x) x) / (2 pi x)
    assert_allclose(inside, np.sqrt((4.0 - 2.0) * 2.0) / (2.0 * np.pi * 2.0), rtol=1e-12)


def test_typical_location_monotone_and_bounded():
    m = nu0(c=1.0, upsilon=0.5)
    n = 200
    gammas = [typical_location(m, j, n) for j in range(1, n + 1)]
    assert np.all(np.diff(gammas) <= 1e-12)
    assert gammas[0] <= m.shift + m.bulk_hi + 1e-8
    assert gammas[-1] >= m.shift + m.bulk_lo - 1e-8


def test_typical_location_median_against_quadrature_inverse():
    from scipy.optimize import brentq

    m = MpMeasure(c=1.0, sigma2=1.0)

    def dens(x):
        return mp_density(x, m)

    def tail(x):
        val, _ = integrate.quad(dens, x, m.bulk_hi, limit=200)
        return val - 0.5

    ref = brentq(tail, m.bulk_lo + 1e-12, m.bulk_hi - 1e-12, xtol=1e-10)
    got = typical_location(m, 1, 2)
    assert abs(got - ref) <= 1e-6


def test_typical_location_atom_conventions():
    # c = 2 carries an atom of mass 1/2 at the shift; quantiles inside the
    # atom all sit at the shift, the bulk/atom boundary at the lower edge
    m = MpMeasure(c=2.0, sigma2=1.0, shift=0.3)
    assert m.point_mass_at_zero == 0.5
    n = 1000
    j_bulk_end = int(round(n * m.bulk_mass))
    assert_allclose(typical_location(m, j_bulk_end, n), m.shift + m.bulk_lo, atol=1e-6)
    assert typical_location(m, n, n) == m.shift
    assert typical_location(m, n - 100, n) == m.shift
    with pytest.raises(ValueError):
        typical_location(m, 0, n)
    with pytest.raises(ValueError):
        typical_location(m, n + 1, n)
    # an array takes each index through the same conventions, and one index
    # out of range rejects the whole array
    js = np.array([[j_bulk_end, n], [n - 100, 1]])
    got = typical_location(m, js, n)
    assert got.shape == js.shape
    assert np.array_equal(got, [[typical_location(m, j, n) for j in row] for row in js])
    assert got[0, 1] == got[1, 0] == m.shift
    with pytest.raises(ValueError):
        typical_location(m, np.array([1, n + 1]), n)
    with pytest.raises(ValueError):
        typical_location(m, np.array([0, 5]), n)


def _scalar_typical_location(measure, j, n):
    # one bisection per index, stopping as soon as that index is resolved
    q = j / float(n)
    if q >= measure.bulk_mass:
        if q <= measure.bulk_mass + 1e-9:
            return measure.shift + measure.bulk_lo
        return measure.shift
    target = measure.bulk_mass - q
    lo, hi = measure.bulk_lo, measure.bulk_hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid = measure._bulk_cdf_raw(mid)
        if abs(fmid - target) < 1e-9 and hi - lo < 1e-8:
            return measure.shift + mid
        if fmid < target:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12:
            break
    return measure.shift + 0.5 * (lo + hi)


@pytest.mark.parametrize(
    "c, ns",
    [(0.5, (200,)), (1.0, (50, 100, 150, 200, 250, 300, 400)), (2.0, (200,))],
)
def test_typical_location_array_matches_scalar_bisection(c, ns):
    m = nu0(c, 0.5)
    for n in ns:
        js = np.arange(1, n + 1)
        ref = [_scalar_typical_location(m, j, n) for j in js]
        assert np.array_equal(typical_location(m, js, n), ref)
        assert [typical_location(m, int(j), n) for j in js[::37]] == ref[::37]


def _scalar_cdf(measure, x):
    # one point at a time, each partial panel summed with np.dot
    from glspec.mplaw import _CACHE_INTERVALS, _GL_NODES, _GL_WEIGHTS

    u = x - measure.shift
    atom = measure.point_mass_at_zero if u >= 0.0 else 0.0
    if u <= measure.bulk_lo:
        return atom
    if u >= measure.bulk_hi:
        return atom + measure.bulk_mass
    t = np.arcsin(np.clip((u - measure._center) / measure._radius, -1.0, 1.0))
    k = int(np.searchsorted(measure._cache_t, t, side="right")) - 1
    k = min(max(k, 0), _CACHE_INTERVALS - 1)
    a = measure._cache_t[k]
    mid, half = 0.5 * (a + t), 0.5 * (t - a)
    panel = half * np.dot(_GL_WEIGHTS, measure._integrand(mid + half * _GL_NODES))
    return atom + (measure._cache_cum[k] + panel)


def test_cdf_array_matches_scalar_reference_at_the_edges():
    m = nu0(1.0, 0.5)
    lo, hi = m.shift + m.bulk_lo, m.shift + m.bulk_hi
    rng = np.random.Generator(np.random.Philox(key=11))
    xs = np.concatenate(
        [
            [lo - 1.0, np.nextafter(lo, -np.inf), lo, hi, np.nextafter(hi, np.inf), hi + 1.0],
            np.linspace(lo, hi, 257),
            rng.uniform(lo - 0.1, hi + 0.1, 2000),
        ]
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = mp_cdf(xs, m)
    ref = np.array([_scalar_cdf(m, x) for x in xs])
    np.testing.assert_array_max_ulp(got, ref, maxulp=4)
    assert got[0] == got[1] == got[2] == 0.0
    assert got[3] == got[4] == got[5] == m.bulk_mass
    assert mp_cdf(lo, m) == 0.0 and mp_cdf(hi, m) == m.bulk_mass
    # c = 1 unshifted: x(t) rounds to the lower edge 0 next to it, and the
    # cdf keeps to the small-x law 2 sqrt(x) / pi instead of turning NaN
    unit = MpMeasure(1.0, 1.0)
    near = np.array([5e-324, 1e-17, 1e-16, 2e-16, 1e-15, 1e-14, 1e-13])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = mp_cdf(near, unit)
        assert mp_cdf(1e-17, unit) == 0.0
    assert np.all(np.diff(got) >= 0.0)
    assert np.max(np.abs(got - 2.0 * np.sqrt(near) / np.pi)) <= 1e-8
    np.testing.assert_array_max_ulp(got, [_scalar_cdf(unit, x) for x in near], maxulp=4)


def test_typical_location_matches_large_sample_spectrum():
    # Monte Carlo oracle: the j/n upper quantile of nu_0 should match the
    # corresponding order statistic of a large pure-noise kernel spectrum
    from glspec.datagen import gen_spiked
    from glspec.kernels import affinity, pairwise_sq_dists

    n_big = 2000
    cloud = gen_spiked(n_big, n_big, (0.0,), 0)
    W = affinity(pairwise_sq_dists(cloud.noisy()), 0.5, float(n_big))
    eigs = np.sort(np.linalg.eigvalsh(W))[::-1]
    m = nu0(c=1.0, upsilon=0.5)
    # skip the top eigenvalue (the row-sum spike detaches from the bulk)
    for j in (10, 20, 100, 400, 1000):
        # index scaled to the reference size n = 200
        gamma = typical_location(m, j // 10, 200)
        assert abs(eigs[j - 1] - gamma) <= 0.05


def test_nu_lambda_parameters():
    c, p, lam, ups = 1.0, 100.0, 50.0, 0.5
    tau = 2.0 * (lam / p + 1.0)
    m = nu_lambda(c, p, lam, ups)
    assert_allclose(m.sigma2, 2.0 * ups * np.exp(-ups * tau), rtol=1e-15)
    assert_allclose(m.shift, 1.0 - 2.0 * ups * np.exp(-ups * tau) - np.exp(-ups * tau), rtol=1e-14)
    with pytest.raises(ValueError):
        nu_lambda(c, p, -1.0, ups)


def test_nu0_frozen_constants():
    m = nu0(c=1.0, upsilon=0.5)
    assert_allclose(m.sigma2, np.exp(-1.0), rtol=1e-15)
    assert_allclose(m.shift, 1.0 - 2.0 * np.exp(-1.0), rtol=1e-14)
    assert_allclose(m.sigma2, 0.36787944117144233, rtol=1e-15)
    assert_allclose(m.shift, 0.26424111765711533, rtol=1e-13)


def test_nu_lambda_converges_to_nu0():
    ups = 0.5
    base = nu0(1.0, ups)
    for lam_over_p in (1e-3, 1e-5):
        m = nu_lambda(1.0, 1.0, lam_over_p, ups)
        assert abs(m.sigma2 - base.sigma2) <= 2.0 * ups * lam_over_p * 2.0
        assert abs(m.shift - base.shift) <= 4.0 * lam_over_p
    far = nu_lambda(1.0, 1.0, 1.0, ups)
    assert abs(far.sigma2 - base.sigma2) > 0.1


def test_spiked_gram_outlier_value_and_threshold():
    assert_allclose(spiked_gram_outlier(4.0, 1.0), 6.25, rtol=1e-15)
    assert_allclose(spiked_gram_outlier(2.0, 0.5), 3.0 * 1.0, rtol=1e-15)
    with pytest.raises(ValueError):
        spiked_gram_outlier(1.0, 1.0)
    with pytest.raises(ValueError):
        spiked_gram_outlier(0.5, 1.0)
