"""Analytic spectral measures: the Marchenko-Pastur family with a point
mass, shifted to describe kernel-matrix bulks, typical eigenvalue
locations, and the spiked-Gram outlier location.

A measure is ``point_mass_at_zero * delta_0 + bulk`` pushed forward by the
shift ``x -> x + shift``.  The point mass is the rank-consistent
``(1 - 1/c)_+`` (an n x n companion Gram matrix with n > p has exactly
n - p zero eigenvalues).  The bulk is supported on
``sigma2 * (1 +/- sqrt(c))^2``, the pushforward of the unit MP law under
``x -> sigma2 * x``, so the total mass is one for every sigma2.
"""

from dataclasses import dataclass

import numpy as np

# 5-point Gauss-Legendre rule on [-1, 1]
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(5)

_CACHE_INTERVALS = 4096


@dataclass
class MpMeasure:
    """Shifted Marchenko-Pastur law with variance scale sigma2.

    ``mp_density`` / ``mp_cdf`` / ``typical_location`` below are the query
    operations.  The cumulative table over the bulk is built eagerly at
    construction, so instances are immutable and safe to share.
    """

    c: float
    sigma2: float
    shift: float = 0.0

    def __post_init__(self):
        if self.c <= 0 or self.sigma2 <= 0:
            raise ValueError("need c > 0 and sigma2 > 0")
        self.point_mass_at_zero = max(0.0, 1.0 - 1.0 / self.c)
        self.bulk_lo = lo = self.sigma2 * (1.0 - np.sqrt(self.c)) ** 2
        self.bulk_hi = hi = self.sigma2 * (1.0 + np.sqrt(self.c)) ** 2
        self._center = 0.5 * (lo + hi)
        self._radius = 0.5 * (hi - lo)
        if self._radius ** 2 < np.finfo(float).tiny:
            # the integrand's numerator and denominator would both underflow
            raise ValueError("sigma2 = %g is too small to integrate" % self.sigma2)
        self._build_cdf_cache()

    # -- bulk integration ------------------------------------------------

    def _integrand(self, t):
        # After x = center + radius*sin t the bulk density integrates as
        # radius^2 cos^2 t / (2 pi sigma2 c x(t)) dt, smooth on [-pi/2, pi/2]
        # (the edge square-root singularities cancel against dx).
        # x(t) rounds to 0 only beside a lower edge at 0 (c = 1); there
        # (radius cos t)^2 / x = radius (1 - sin t), which tends to 2 radius.
        x = self._center + self._radius * np.sin(t)
        edge = x == 0.0
        num = np.where(edge, 2.0 * self._radius, (self._radius * np.cos(t)) ** 2)
        return num / (2.0 * np.pi * self.sigma2 * self.c * np.where(edge, 1.0, x))

    def _panels(self, a, b):
        # 5-point Gauss-Legendre integral of the integrand over each panel
        # [a, b], elementwise
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        nodes = mid[..., None] + half[..., None] * _GL_NODES
        return (self._integrand(nodes) * _GL_WEIGHTS).sum(axis=-1) * half

    def _build_cdf_cache(self):
        ts = np.linspace(-0.5 * np.pi, 0.5 * np.pi, _CACHE_INTERVALS + 1)
        panel = self._panels(ts[:-1], ts[1:])
        self._cache_t = ts
        self._cache_cum = np.concatenate([[0.0], np.cumsum(panel)])
        self.bulk_mass = float(self._cache_cum[-1])

    def total_mass(self):
        return self.point_mass_at_zero + self.bulk_mass

    def _bulk_cdf_raw(self, x):
        """Bulk mass of (-inf, x] in unshifted coordinates, elementwise;
        a scalar x gives a float."""
        x = np.asarray(x, dtype=float)
        out = np.where(x >= self.bulk_hi, self.bulk_mass, 0.0)
        inside = (x > self.bulk_lo) & (x < self.bulk_hi)
        t = np.arcsin(np.clip((x[inside] - self._center) / self._radius, -1.0, 1.0))
        k = np.searchsorted(self._cache_t, t, side="right") - 1
        k = np.clip(k, 0, _CACHE_INTERVALS - 1)
        out[inside] = self._cache_cum[k] + self._panels(self._cache_t[k], t)
        return out if out.ndim else float(out)


def mp_density(x, measure):
    """Bulk density of the (shifted) measure at x; zero outside the bulk."""
    x = np.asarray(x, dtype=float)
    u = x - measure.shift
    inside = (u > measure.bulk_lo) & (u < measure.bulk_hi)
    out = np.zeros_like(u)
    uu = u[inside]
    out[inside] = np.sqrt((measure.bulk_hi - uu) * (uu - measure.bulk_lo)) / (
        2.0 * np.pi * measure.sigma2 * measure.c * uu
    )
    return out if out.ndim else float(out)


def mp_cdf(x, measure):
    """Full CDF (point mass plus bulk integral), monotone in x.  Elementwise
    over an array x; a scalar x gives a float."""
    u = np.asarray(x, dtype=float) - measure.shift
    out = np.where(u >= 0.0, measure.point_mass_at_zero, 0.0) + measure._bulk_cdf_raw(u)
    return out if out.ndim else float(out)


def typical_location(measure, j, n):
    """Location gamma with mass j/n above it (upper-quantile convention).

    Elementwise over an array of indices j; a scalar j gives a float.
    Bisection on the cached bulk CDF, tolerance 1e-9 in mass and 1e-8 in
    location, each element stopping on its own.  When j/n exceeds the bulk
    mass the answer is the atom location (the largest admissible gamma,
    right-continuous convention).
    """
    j = np.asarray(j)
    if np.any((j < 1) | (j > n)):
        raise ValueError("need 1 <= j <= n")
    q = np.ravel(j / float(n))
    total = measure.total_mass()
    if np.any(q > total + 1e-9):
        raise ValueError(
            "tail mass %g exceeds total mass %g (non-normalized convention?)"
            % (np.max(q), total)
        )
    # inside or below the atom: the supremum of admissible locations is the
    # bulk's lower edge exactly at q = bulk mass, the atom beyond.
    out = np.where(
        q <= measure.bulk_mass + 1e-9, measure.shift + measure.bulk_lo, measure.shift
    )
    todo = np.flatnonzero(q < measure.bulk_mass)
    target = measure.bulk_mass - q[todo]  # bulk CDF values sought
    lo = np.full(todo.size, measure.bulk_lo)
    hi = np.full(todo.size, measure.bulk_hi)
    for _ in range(200):
        if not todo.size:
            break
        mid = 0.5 * (lo + hi)
        fmid = measure._bulk_cdf_raw(mid)
        hit = (np.abs(fmid - target) < 1e-9) & (hi - lo < 1e-8)
        out[todo[hit]] = measure.shift + mid[hit]
        below = fmid < target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
        busy = ~hit & (hi - lo >= 1e-12)
        done = ~hit & ~busy
        out[todo[done]] = measure.shift + 0.5 * (lo[done] + hi[done])
        todo, target, lo, hi = todo[busy], target[busy], lo[busy], hi[busy]
    out[todo] = measure.shift + 0.5 * (lo + hi)
    return out.reshape(j.shape) if j.ndim else float(out[0])


# -- the paper-specific shifted measures ---------------------------------


def nu_lambda(c, p, lam, upsilon):
    """Bulk law of W at bandwidth h=p and signal strength lam.

    tau = 2(lam/p + 1); with f(x) = exp(-upsilon x) the scale is
    -2 f'(tau) = 2 upsilon e^{-upsilon tau} and the shift is
    1 - 2 upsilon e^{-upsilon tau} - e^{-upsilon tau}.
    """
    if lam < 0:
        raise ValueError("need lam >= 0")
    tau = 2.0 * (lam / p + 1.0)
    decay = np.exp(-upsilon * tau)
    sigma2 = 2.0 * upsilon * decay
    shift = 1.0 - 2.0 * upsilon * decay - decay
    return MpMeasure(c, sigma2, shift)


def nu0(c, upsilon):
    """nu_lambda at lam = 0 (p drops out)."""
    return nu_lambda(c, 1.0, 0.0, upsilon)


def spiked_gram_outlier(lam, c):
    """Limit of the detached eigenvalue of the companion Gram (1/p) X X^T.

    Valid above the detection threshold lam > 1/sqrt(c) (below it the top
    eigenvalue sticks to the bulk edge).  With c = n/p the location is
    (1 + lam)(c + 1/lam); the transposed-aspect form (1+lam)(1+c/lam)
    printed elsewhere corresponds to reading c as p/n and agrees at c = 1.
    """
    if lam <= 1.0 / np.sqrt(c):
        raise ValueError("lam = %g is at or below the detection threshold %g" % (lam, c ** -0.5))
    return (1.0 + lam) * (c + 1.0 / lam)
