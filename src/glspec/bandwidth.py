"""Data-driven bandwidth selection.

The bandwidth is chosen among quantiles of the pairwise squared distances:
for each candidate quantile level omega on a grid, build the affinity at
the corresponding bandwidth, count the outlier eigenvalues separated from
the bulk by a relative gap s, and keep the omega maximizing that count.
The gap threshold s itself is calibrated by resampling pure-noise clouds.

Calibration and counting share one ratio window, ``ratio_window(n, p)``,
and read their ratios from one array, ``_bulk_ratios``: a ratio
lam_k/lam_{k+1} takes part only for k <= k_hi, so a gap at the bottom of
the spectrum, where the null calibration never looked, cannot be counted
as an outlier gap.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .kernels import affinity, gram, pairwise_sq_dists
from .spectrum import sym_eigs, transition_eigs


def quantile_bandwidth(D2, omega):
    """Order-statistic bandwidth: the ceil(omega * m)-th smallest of the
    m = n(n-1)/2 off-diagonal squared distances.

    A scalar ``omega`` gives a float.  An array of levels gives the array
    of bandwidths, read off one sort of the distances.
    """
    omega = np.asarray(omega, dtype=float)
    if not np.all((0.0 < omega) & (omega <= 1.0)):
        raise ValueError("need 0 < omega <= 1")
    D2 = np.asarray(D2, dtype=float)
    n = D2.shape[0]
    if D2.shape != (n, n) or n < 2:
        raise ValueError("need a square distance matrix with n >= 2")
    vals = D2[np.triu(np.ones((n, n), dtype=bool), k=1)]
    vals.sort()
    ranks = np.ceil(omega * vals.size).astype(int)
    h = vals[ranks - 1]
    if np.any(h <= 0.0):
        raise ValueError("selected bandwidth is not positive")
    return float(h) if h.ndim == 0 else h


def ratio_window(n, p):
    """Upper end k_hi of the bulk ratio window for n points in dimension p:
    ratios lam_k/lam_{k+1} with k <= k_hi take part.

    With m = min(n, p) and gamma = m/max(n, p), the bottom of the nonzero
    null spectrum is a soft edge at (1 - sqrt(gamma))^2 > 0 whenever the
    aspect is off-critical, and only the last two ratios (the extreme edge
    spacing and the rank boundary) are dropped: k_hi = m - 2.  Near the
    critical aspect the edge degenerates to zero, consecutive ratios
    diverge there, and the bottom tenth is masked instead: k_hi =
    int(0.9 m).  ``resample_threshold`` calibrates on this window and
    ``select_omega`` counts on it.
    """
    m = min(n, p)
    if m < 5:
        raise ValueError("bulk ratio window is empty: need min(n, p) >= 5, got %d" % m)
    gamma = m / max(n, p)
    if (1.0 - math.sqrt(gamma)) ** 2 < 0.02:
        return int(0.9 * m)
    return m - 2


def _bulk_ratios(eigs, k_hi):
    """Consecutive ratios lam_k/lam_{k+1} of a descending spectrum, for
    1 <= k <= min(k_hi, m - 1), where m counts the eigenvalues above the
    round-off floor n * eps * |eigs[0]|; entry i holds k = i + 1.

    Eigenvalues at or below the floor leave the scan: they are numerically
    zero, so neither their mutual ratios nor the step down to them is a
    spectral gap.  Calibration and counting both read this array.
    """
    eigs = np.asarray(eigs, dtype=float)
    floor = eigs.size * np.finfo(float).eps * abs(eigs[0])
    above = int(np.count_nonzero(eigs > floor))
    top = eigs[: max(min(k_hi, above - 1), 0) + 1]
    return top[:-1] / top[1:]


def window_outliers(eigs, s, k_hi):
    """Largest k with lam_k/lam_{k+1} >= 1 + s among the ratios of
    ``_bulk_ratios(eigs, k_hi)``; 0 when none reaches the threshold.

    ``eigs`` is taken in descending order.  This is the count
    ``select_omega`` takes, on the window of ``ratio_window``.
    """
    if s <= 0:
        raise ValueError("need s > 0")
    wide = np.flatnonzero(_bulk_ratios(eigs, k_hi) >= 1.0 + s)
    return int(wide[-1]) + 1 if wide.size else 0


def resample_threshold(c, n, upsilon, reps=50, seed=0):
    """Calibrate the relative-gap threshold s on pure-noise clouds.

    Draws ``reps`` standard Gaussian n x p clouds with p = round(n/c) and
    records, for each, the largest consecutive eigenvalue ratio
    lam_k/lam_{k+1} of the Gram matrix (1/p) X X^T over bulk indices
    2 <= k <= k_hi, with k_hi = ``ratio_window(n, p)``: the bottom edge of
    the spectrum is left out, and ``select_omega`` counts on the same
    ``_bulk_ratios`` window.  The top ratio k = 1 is an edge spacing of the
    null, not a bulk one, so the calibration starts at k = 2 while the count
    starts at the top.  Returns the 0.99 quantile of the per-rep maxima,
    minus one.

    At n >= ``POOL_MIN_N`` the repetitions are split into contiguous
    ranges, one per ``_scanpool`` worker with one BLAS thread; each worker
    redraws the clouds before its range from the one ``Philox(key=seed)``
    stream, and the maxima are joined in repetition order.

    ``upsilon`` is unused: the null is kernel-free.  It stays only because
    ``perfbench`` passes it by position (ROADMAP open item 1).  A seed that
    is not an integer >= 0 is refused before anything is drawn.
    """
    if reps < 1:
        raise ValueError("need reps >= 1")
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError("need an integer seed >= 0, got %r" % (seed,))
    p = int(round(n / c))
    task = (n, p, ratio_window(n, p), seed)
    shares = None
    if n >= POOL_MIN_N:
        from . import _scanpool  # a small null neither imports nor starts it

        count = _scanpool.size(reps)
        if count:
            bounds = [reps * k // count for k in range(count + 1)]
            shares = _scanpool.call(
                [(_null_maxima, task + (bounds[k], bounds[k + 1])) for k in range(count)]
            )
    if shares is None:
        shares = [_null_maxima(*task, 0, reps)]
    maxima = [m for share in shares for m in share]
    return float(np.quantile(maxima, 0.99)) - 1.0


def _null_maxima(n, p, k_hi, seed, start, stop):
    """The largest bulk ratio of each null repetition start..stop-1 of
    ``resample_threshold``, as a list; the clouds of the repetitions before
    ``start`` are drawn and dropped, so each repetition reads its own part
    of the seed's stream."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    for _ in range(start):
        rng.standard_normal((n, p))
    maxima = []
    for _ in range(start, stop):
        eigs = sym_eigs(gram(rng.standard_normal((n, p))))
        maxima.append(float(np.max(_bulk_ratios(eigs, k_hi)[1:])))
    return maxima


def omega_grid(grid):
    """Quantile levels omega_i = omega_L + (i/T)(omega_U - omega_L),
    i = 0..T, of ``grid`` = (omega_L, omega_U, T); raises ValueError
    unless 0 < omega_L <= omega_U <= 1 and T >= 1."""
    omega_lo, omega_hi, T = grid
    if not (0.0 < omega_lo <= omega_hi <= 1.0 and T >= 1):
        raise ValueError(
            "need 0 < omega_L <= omega_U <= 1 and T >= 1, got %r" % (tuple(grid),)
        )
    return omega_lo + (np.arange(T + 1) / T) * (omega_hi - omega_lo)


# (omega_L, omega_U, T) of the default scan: T + 1 = 92 levels, 0.05 to 0.95.
DEFAULT_GRID = (0.05, 0.95, 91)


# Scans, nulls and seed loops (``experiments._seed_major``) of at least this
# many points run in worker processes (``_scanpool``) when two or more CPUs
# are usable; one eigensolve takes about 1 ms at this size, so smaller ones
# stay in-process.
POOL_MIN_N = 128


def _level_counts(D2, hs, upsilon, s, k_hi, matrix):
    """The outlier count ``window_outliers`` at each bandwidth of ``hs``, as
    a list of ints: the scan's per-level work, run in-process or by the
    ``_scanpool`` workers."""
    counts = []
    for h in hs:
        W = affinity(D2, upsilon, h)
        eigs = transition_eigs(W) if matrix == "transition" else sym_eigs(W)
        counts.append(window_outliers(eigs, s, k_hi))
    return counts


@dataclass
class OmegaSelection:
    """Outcome of the quantile-grid bandwidth search."""

    omega: float
    h: float
    k_per_omega: np.ndarray
    s: float
    grid: np.ndarray


def select_omega(cloud, upsilon, s, grid=DEFAULT_GRID, matrix="affinity", D2=None):
    """Scan the quantile levels of ``omega_grid(grid)`` and return the
    largest omega maximizing the outlier count.

    ``grid`` is (omega_L, omega_U, T).  With ``matrix="transition"`` the
    outlier counts are taken from ``transition_eigs``, the spectrum of
    D^{-1} W, instead (same scan).

    ``D2`` is ``pairwise_sq_dists(cloud.noisy())`` when the caller already
    holds it; otherwise the scan builds it.

    Each count is ``window_outliers`` on k <= k_hi = ``ratio_window(n, p)``,
    the window ``resample_threshold`` calibrates s on, with eigenvalues
    below the round-off floor left out of the scan.  At n >= ``POOL_MIN_N``
    the levels are counted by worker processes, one per usable CPU with one
    BLAS thread each, and only the counts come back (see ``_scanpool``); a
    scan that runs inside a worker counts in-process.
    """
    if matrix not in ("affinity", "transition"):
        raise ValueError("matrix must be 'affinity' or 'transition'")
    omegas = omega_grid(grid)
    k_hi = ratio_window(cloud.n, cloud.p)
    if D2 is None:
        D2 = pairwise_sq_dists(cloud.noisy())
    elif np.shape(D2) != (cloud.n, cloud.n):
        raise ValueError(
            "D2 has shape %s, need (%d, %d)" % (np.shape(D2), cloud.n, cloud.n)
        )
    hs = quantile_bandwidth(D2, omegas)
    task = (upsilon, s, k_hi, matrix)
    counts = None
    if cloud.n >= POOL_MIN_N:
        from . import _scanpool  # a small scan neither imports nor starts it

        counts = _scanpool.level_counts(D2, hs, *task)
    if counts is None:
        counts = _level_counts(D2, hs, *task)
    counts = np.array(counts, dtype=int)
    best = int(np.flatnonzero(counts == counts.max())[-1])
    return OmegaSelection(
        float(omegas[best]), float(hs[best]), counts, float(s), omegas
    )
