"""Eigen-decompositions and spectral diagnostics: descending spectra,
operator-norm differences, bulk rigidity against analytic measures,
Stieltjes transforms over a spectral-parameter box, eigenvector RMSE, and
ESD histograms."""

from dataclasses import dataclass

import numpy as np

from .mplaw import typical_location


@dataclass
class SpectrumResult:
    """Descending eigenvalues and (optionally) the matching eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray = None

    @property
    def n(self):
        return self.eigenvalues.size


def sym_eigs(M, want_vectors=0):
    """Full descending spectrum of a symmetric matrix.

    ``want_vectors`` asks for that many leading eigenvectors (0 = none).
    An exactly symmetric input is solved as it is; any other input is
    symmetrized as (M + M^T)/2 first, and asymmetry beyond 1e-9 relative
    is rejected.  This is the package's only call into an eigensolver.
    """
    M = np.asarray(M, dtype=float)
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix has non-finite entries")
    if not np.array_equal(M, M.T):
        scale = max(1.0, np.abs(M).max())
        if np.abs(M - M.T).max() > 1e-9 * scale:
            raise ValueError("matrix is not symmetric")
        M = 0.5 * (M + M.T)
    if want_vectors:
        vals, vecs = np.linalg.eigh(M)
        order = np.argsort(vals)[::-1]
        k = min(int(want_vectors), vals.size)
        return SpectrumResult(vals[order], vecs[:, order[:k]])
    return SpectrumResult(np.linalg.eigvalsh(M)[::-1].copy())


def op_norm_diff(Ma, Mb):
    """Spectral norm of Ma - Mb (largest |eigenvalue| of the symmetrized
    difference)."""
    Ma = np.asarray(Ma, dtype=float)
    Mb = np.asarray(Mb, dtype=float)
    if Ma.shape != Mb.shape:
        raise ValueError("shape mismatch: %s vs %s" % (Ma.shape, Mb.shape))
    diff = Ma - Mb
    vals = sym_eigs(0.5 * (diff + diff.T)).eigenvalues
    return float(max(vals[0], -vals[-1]))


def bulk_rigidity(eigs, measure, skip=9, eps=0.1):
    """Sup deviation of bulk eigenvalues from the measure's typical locations.

    Compares the 1-indexed descending eigenvalues over skip < i <= (1-eps) n
    with typical_location(measure, i, n) and returns the largest absolute
    gap, 0.0 when the window is empty.
    """
    eigs = np.asarray(eigs, dtype=float)
    n = eigs.size
    if not 0 <= skip < n:
        raise ValueError("need 0 <= skip < n")
    if not 0 < eps < 1:
        raise ValueError("need 0 < eps < 1")
    idx = np.arange(skip + 1, int(np.floor((1.0 - eps) * n)) + 1)
    gaps = np.abs(eigs[idx - 1] - typical_location(measure, idx, n))
    return float(np.max(gaps, initial=0.0))


def stieltjes(eigs, z):
    """m(z) = (1/n) sum 1/(lambda_i - z) for Im z > 0."""
    if np.imag(z) <= 0:
        raise ValueError("need Im z > 0")
    eigs = np.asarray(eigs, dtype=float)
    return complex(np.mean(1.0 / (eigs - z)))


@dataclass
class StieltjesGrid:
    """Spectral-parameter box: E linear in [a, 1/a], eta log-spaced in
    [n^{-1/2 + alpha/4 + a}, 1/a]."""

    a: float
    alpha: float
    points: np.ndarray

    @classmethod
    def build(cls, n, alpha, a, n_e=16, n_eta=8):
        if not 0 < a < 1:
            raise ValueError("need a in (0, 1)")
        eta_min = float(n) ** (-0.5 + alpha / 4.0 + a)
        eta_max = 1.0 / a
        if eta_min >= eta_max:
            raise ValueError("empty eta range: eta_min %g >= 1/a" % eta_min)
        es = np.linspace(a, 1.0 / a, n_e)
        etas = np.geomspace(eta_min, eta_max, n_eta)
        pts = (es[:, None] + 1j * etas[None, :]).ravel()
        return cls(a, alpha, pts)

    @property
    def eta_min(self):
        return float(self.points.imag.min())


def stieltjes_compare(Ma, Mb, grid):
    """Sup over the grid of |m_Ma(z) - m_Mb(z)|."""
    if len(grid.points) == 0:
        raise ValueError("empty grid")
    ea = sym_eigs(Ma).eigenvalues
    eb = sym_eigs(Mb).eigenvalues
    if ea.size != eb.size:
        raise ValueError("matrices have different sizes")
    worst = 0.0
    for z in grid.points:
        worst = max(worst, abs(stieltjes(ea, z) - stieltjes(eb, z)))
    return worst


def eigvec_rmse(U, V):
    """Per-column RMSE min(||u - v||, ||u + v||)/sqrt(n) (sign-aligned)."""
    U = np.asarray(U, dtype=float)
    V = np.asarray(V, dtype=float)
    if U.shape != V.shape:
        raise ValueError("shape mismatch: %s vs %s" % (U.shape, V.shape))
    minus = np.linalg.norm(U - V, axis=0)
    plus = np.linalg.norm(U + V, axis=0)
    return np.minimum(minus, plus) / np.sqrt(U.shape[0])


def gap_instability_flags(eigs, tol=1e-8):
    """True at index j when the eigenvalue gap around j falls below tol
    (eigenvector comparison is ill-posed there)."""
    eigs = np.asarray(eigs, dtype=float)
    gaps = np.abs(np.diff(eigs))
    flags = np.zeros(eigs.size, dtype=bool)
    flags[:-1] |= gaps < tol
    flags[1:] |= gaps < tol
    return flags


def esd_histogram(eigs, bins):
    """Histogram of an empirical spectrum.  Returns (edges, counts)."""
    eigs = np.asarray(eigs, dtype=float)
    counts, edges = np.histogram(eigs, bins=bins)
    return edges, counts


def save_spectrum_csv(eigs, path):
    with open(path, "w") as fh:
        fh.write("index,eigenvalue\n")
        for i, v in enumerate(np.asarray(eigs), start=1):
            fh.write("%d,%.17g\n" % (i, v))


def save_histogram_csv(edges, counts, path):
    with open(path, "w") as fh:
        fh.write("bin_left,bin_right,count\n")
        for lo, hi, c in zip(edges[:-1], edges[1:], counts):
            fh.write("%.17g,%.17g,%d\n" % (lo, hi, c))
