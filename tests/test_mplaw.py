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


def test_construction_takes_a_tiny_scale():
    # tau = 1202 gives sigma2 = e^{-601} ~ 9.75e-262; the closed-form bulk
    # CDF has no integrand to underflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = nu_lambda(0.5, 600, 600 ** 2, 0.5)
        assert m.sigma2 < 1e-261
        assert m.bulk_mass == 1.0
        # the shift 1 - 3e-261 rounds to 1, so query the unshifted bulk
        base = MpMeasure(m.c, m.sigma2)
        median = typical_location(base, 1, 2)
        assert base.bulk_lo < median < base.bulk_hi
        assert abs(mp_cdf(median, base) - 0.5) <= 1e-15


@pytest.mark.parametrize("c", [0.25, 0.5, 1.0, 2.0, 4.0])
def test_total_mass_is_one(c):
    m = MpMeasure(c=c, sigma2=1.0)
    atom = m.point_mass_at_zero
    top = mp_cdf(m.bulk_hi, m)
    assert top == atom + m.bulk_mass
    assert abs(top - 1.0) <= 1e-15
    assert atom == max(0.0, 1.0 - 1.0 / c)
    assert abs(m.bulk_mass - min(1.0, 1.0 / c)) <= 1e-15
    # nothing inside the bulk overshoots the mass at the top edge
    assert np.all(mp_cdf(np.linspace(m.bulk_lo, m.bulk_hi, 4001), m) <= top)


def _quad_cdf(measure, x):
    # atom plus the bulk mass below x by scipy quad of mp_density, taken on
    # the unshifted measure in s = sqrt(u - bulk_lo): the 1/sqrt(u) edge of
    # c = 1 becomes a bounded integrand
    base = MpMeasure(measure.c, measure.sigma2)
    u = x - measure.shift
    atom = measure.point_mass_at_zero if u >= 0.0 else 0.0
    if u <= base.bulk_lo:
        return atom

    def integrand(s):
        return 2.0 * s * mp_density(base.bulk_lo + s * s, base)

    top = np.sqrt(min(u, base.bulk_hi) - base.bulk_lo)
    val, _ = integrate.quad(integrand, 0.0, top, limit=200, epsabs=1e-13, epsrel=1e-13)
    return atom + val


@pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
def test_cdf_against_adaptive_quadrature(c):
    m = nu0(c, 0.5)
    xs = m.shift + np.linspace(m.bulk_lo, m.bulk_hi, 65)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ref = np.array([_quad_cdf(m, x) for x in xs])
    assert np.max(np.abs(mp_cdf(xs, m) - ref)) <= 1e-12


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


def _quad_typical_location(measure, j, n):
    # brentq on the quadrature of the density above x
    from scipy.optimize import brentq

    lo, hi = measure.shift + measure.bulk_lo, measure.shift + measure.bulk_hi

    def tail(x):
        val, _ = integrate.quad(
            mp_density, x, hi, args=(measure,), limit=200, epsabs=1e-13, epsrel=1e-13
        )
        return val - j / float(n)

    return brentq(tail, lo, hi, xtol=1e-15)


@pytest.mark.parametrize(
    "c, ns",
    [(0.5, (200,)), (1.0, (50, 100, 150, 200, 250, 300, 400)), (2.0, (200,))],
)
def test_typical_location_array_matches_scalar_bisection(c, ns):
    m = nu0(c, 0.5)
    for n in ns:
        js = np.arange(1, n + 1)
        got = typical_location(m, js, n)
        assert np.array_equal(got, [typical_location(m, int(j), n) for j in js])
        inside = js[js < n * m.bulk_mass][::37]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ref = [_quad_typical_location(m, j, n) for j in inside]
        assert np.max(np.abs(got[inside - 1] - ref)) <= 1e-12


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
        ref = np.array([_quad_cdf(m, x) for x in xs])
    assert np.max(np.abs(got - ref)) <= 1e-12
    assert np.array_equal(got, [mp_cdf(x, m) for x in xs])
    assert got[0] == got[1] == got[2] == 0.0
    assert got[3] == got[4] == got[5] == m.bulk_mass
    assert mp_cdf(lo, m) == 0.0 and mp_cdf(hi, m) == m.bulk_mass
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert mp_cdf(-np.inf, m) == 0.0 and mp_cdf(np.inf, m) == 1.0
    # c = 1 unshifted: the lower edge is 0, and the cdf follows the small-x
    # law 2 sqrt(x) / pi to round-off, down to the smallest subnormal
    unit = MpMeasure(1.0, 1.0)
    near = np.array([5e-324, 1e-17, 1e-16, 2e-16, 4.4e-16, 5e-16, 1e-15, 1e-14, 1e-13])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = mp_cdf(near, unit)
        assert mp_cdf(0.0, unit) == 0.0 and mp_cdf(-1e-300, unit) == 0.0
    assert np.all(np.diff(got) > 0.0)
    assert_allclose(got, 2.0 * np.sqrt(near) / np.pi, rtol=1e-12)


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


def test_nu_lambda_names_an_underflowed_scale():
    # at alpha = 2.1 the scale is tiny but representable
    assert 0.0 < nu_lambda(1.0, 300, 300.0 ** 2.1, 0.5).sigma2 <= 2e-231
    with pytest.raises(ValueError, match=r"sigma2 .* underflows to 0 at lam = 281622 \(tau = 1879\.48"):
        nu_lambda(1.0, 300, 300.0 ** 2.2, 0.5)


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
