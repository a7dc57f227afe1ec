"""Analytic spectral measures: the Marchenko-Pastur family with a point
mass, shifted to describe kernel-matrix bulks, typical eigenvalue
locations, and the spiked-Gram outlier location.

A measure is ``point_mass_at_zero * delta_0 + bulk`` pushed forward by the
shift ``x -> x + shift``.  The point mass is the rank-consistent
``(1 - 1/c)_+`` (an n x n companion Gram matrix with n > p has exactly
n - p zero eigenvalues).  The bulk is supported on
``sigma2 * (1 +/- sqrt(c))^2``, the pushforward of the unit MP law under
``x -> sigma2 * x``, so the total mass is one for every sigma2.  The bulk's
mass ``min(1, 1/c)`` and its CDF are closed forms.
"""

from dataclasses import dataclass

import numpy as np


@dataclass
class MpMeasure:
    """Shifted Marchenko-Pastur law with variance scale sigma2.

    ``mp_density`` / ``mp_cdf`` / ``typical_location`` below are the query
    operations; instances are immutable and safe to share.
    """

    c: float
    sigma2: float
    shift: float = 0.0

    def __post_init__(self):
        if self.c <= 0 or self.sigma2 <= 0:
            raise ValueError("need c > 0 and sigma2 > 0")
        self.point_mass_at_zero = max(0.0, 1.0 - 1.0 / self.c)
        self.bulk_lo = self.sigma2 * (1.0 - np.sqrt(self.c)) ** 2
        self.bulk_hi = self.sigma2 * (1.0 + np.sqrt(self.c)) ** 2
        self.bulk_mass = min(1.0, 1.0 / self.c)

    def _bulk_cdf(self, u):
        """Bulk mass of (-inf, u] in unshifted coordinates, elementwise.

        The exact antiderivative of the density, in a = sqrt(u - lo) and
        b = sqrt(hi - u) so that it keeps its relative accuracy at both
        edges; the arctan term drops out at c = 1 without a branch.
        """
        c, root = self.c, np.sqrt(self.c)
        u = np.clip(u, self.bulk_lo, self.bulk_hi)
        a, b = np.sqrt(u - self.bulk_lo), np.sqrt(self.bulk_hi - u)
        mass = (
            2.0 * (1.0 + c) * np.arctan2(a, b)
            + a * b / self.sigma2
            - 2.0 * abs(1.0 - c) * np.arctan2((1.0 + root) * a, abs(1.0 - root) * b)
        ) / (2.0 * np.pi * c)
        return np.where(u == self.bulk_hi, self.bulk_mass, np.clip(mass, 0.0, self.bulk_mass))


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
    """Full CDF (point mass plus bulk mass), monotone in x.  Elementwise
    over an array x; a scalar x gives a float."""
    u = np.asarray(x, dtype=float) - measure.shift
    out = np.where(u >= 0.0, measure.point_mass_at_zero, 0.0) + measure._bulk_cdf(u)
    return out if out.ndim else float(out)


def typical_location(measure, j, n):
    """Location gamma with mass j/n above it (upper-quantile convention).

    Elementwise over an array of indices j; a scalar j gives a float.
    Inside the bulk, 60 halvings of [bulk_lo, bulk_hi] invert the exact
    bulk CDF.  When j/n exceeds the bulk mass the answer is the atom
    location (the largest admissible gamma, right-continuous convention).
    """
    j = np.asarray(j)
    if np.any((j < 1) | (j > n)):
        raise ValueError("need 1 <= j <= n")
    q = np.ravel(j / float(n))
    # inside or below the atom: the supremum of admissible locations is the
    # bulk's lower edge exactly at q = bulk mass, the atom beyond.
    out = np.where(
        q <= measure.bulk_mass + 1e-9, measure.shift + measure.bulk_lo, measure.shift
    )
    todo = q < measure.bulk_mass
    target = measure.bulk_mass - q[todo]  # bulk CDF values sought
    lo = np.full(target.size, measure.bulk_lo)
    hi = np.full(target.size, measure.bulk_hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        below = measure._bulk_cdf(mid) < target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    out[todo] = measure.shift + 0.5 * (lo + hi)
    return out.reshape(j.shape) if j.ndim else float(out[0])


# -- the paper-specific shifted measures ---------------------------------


def nu_lambda(c, p, lam, upsilon):
    """Bulk law of W at bandwidth h=p and signal strength lam.

    tau = 2(lam/p + 1); with f(x) = exp(-upsilon x) the scale is
    -2 f'(tau) = 2 upsilon e^{-upsilon tau} and the shift is
    1 - 2 upsilon e^{-upsilon tau} - e^{-upsilon tau}.  A strength at which
    that scale underflows to 0 (upsilon tau beyond about 745) has no law and
    raises ValueError naming sigma2, lam and tau.
    """
    if lam < 0:
        raise ValueError("need lam >= 0")
    tau = 2.0 * (lam / p + 1.0)
    decay = np.exp(-upsilon * tau)
    sigma2 = 2.0 * upsilon * decay
    if sigma2 == 0.0 and upsilon > 0:
        raise ValueError(
            "sigma2 = 2 upsilon e^{-upsilon tau} underflows to 0 at lam = %g "
            "(tau = %g, upsilon = %g)" % (lam, tau, upsilon)
        )
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
