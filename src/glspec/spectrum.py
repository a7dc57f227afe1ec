"""Eigen-decompositions and spectral diagnostics: descending spectra of
symmetric and transition matrices, operator-norm differences, bulk rigidity
against analytic measures, Stieltjes transforms over a spectral-parameter
box, and eigenvector RMSE."""

import numpy as np

from .kernels import degree, sym_normalized
from .mplaw import typical_location


def sym_eigs(M, want_vectors=0):
    """Full descending spectrum of a symmetric matrix, as an array.

    ``want_vectors`` = k > 0 returns the pair (eigenvalues, the k leading
    eigenvectors as columns) instead, as ``np.linalg.eigh`` does.
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
        return vals[order], vecs[:, order[:k]]
    return np.linalg.eigvalsh(M)[::-1].copy()


def transition_eigs(W, want_vectors=0):
    """Descending spectrum of the transition matrix D^{-1} W, solved on its
    similar symmetric form ``sym_normalized(W)`` (Coifman & Lafon 2006).
    ``want_vectors`` = k > 0 returns the pair (eigenvalues, the k leading unit
    right eigenvectors of D^{-1} W as columns): each is the symmetric
    eigenvector over sqrt(degree).  For the zeroed form, pass ``off_diagonal(W)``."""
    if not want_vectors:
        return sym_eigs(sym_normalized(W))
    vals, vecs = sym_eigs(sym_normalized(W), want_vectors)
    root = np.sqrt(degree(W))
    cols = [vecs[:, j] / root for j in range(vecs.shape[1])]
    return vals, np.column_stack([v / np.linalg.norm(v) for v in cols])


def op_norm_diff(Ma, Mb):
    """Spectral norm of Ma - Mb for symmetric Ma and Mb: the largest
    |eigenvalue| of the difference, through ``sym_eigs``, so a difference
    asymmetric beyond its 1e-9 relative tolerance raises ValueError and a
    smaller asymmetry is symmetrized as (M + M^T)/2."""
    Ma = np.asarray(Ma, dtype=float)
    Mb = np.asarray(Mb, dtype=float)
    if Ma.shape != Mb.shape:
        raise ValueError("shape mismatch: %s vs %s" % (Ma.shape, Mb.shape))
    vals = sym_eigs(Ma - Mb)
    return float(max(vals[0], -vals[-1]))


def bulk_rigidity(eigs, measure):
    """Sup deviation of bulk eigenvalues from the measure's typical locations.

    Compares the 1-indexed descending eigenvalues over 9 < i <= 0.9 n with
    typical_location(measure, i, n) and returns the largest absolute gap,
    0.0 when the window is empty (n = 10 or 11).  Fewer than 10 eigenvalues
    are refused.
    """
    eigs = np.asarray(eigs, dtype=float)
    n = eigs.size
    if n <= 9:
        raise ValueError("need more than 9 eigenvalues, got %d" % n)
    idx = np.arange(10, int(np.floor(0.9 * n)) + 1)
    gaps = np.abs(eigs[idx - 1] - typical_location(measure, idx, n))
    return float(np.max(gaps, initial=0.0))


def stieltjes(eigs, z):
    """m(z) = (1/n) sum 1/(lambda_i - z) for Im z > 0, summed in the order
    of ``eigs``.  Elementwise over an array z; a scalar z gives a complex."""
    z = np.asarray(z)
    if np.any(np.imag(z) <= 0):
        raise ValueError("need Im z > 0")
    eigs = np.asarray(eigs, dtype=float)
    m = np.mean(1.0 / (eigs - z[..., None]), axis=-1)
    return m if m.ndim else complex(m)


def stieltjes_grid(n, alpha, a):
    """Spectral-parameter box as a flat complex array: 16 values of E linear
    in [a, 1/a] by 8 of eta log-spaced in [n^{-1/2 + alpha/4 + a}, 1/a]."""
    if not 0 < a < 1:
        raise ValueError("need a in (0, 1)")
    eta_min = float(n) ** (-0.5 + alpha / 4.0 + a)
    eta_max = 1.0 / a
    if eta_min >= eta_max:
        raise ValueError("empty eta range: eta_min %g >= 1/a" % eta_min)
    es = np.linspace(a, 1.0 / a, 16)
    etas = np.geomspace(eta_min, eta_max, 8)
    return (es[:, None] + 1j * etas[None, :]).ravel()


def eigvec_rmse(U, V):
    """Per-column RMSE min(||u - v||, ||u + v||)/sqrt(n) (sign-aligned)."""
    U = np.asarray(U, dtype=float)
    V = np.asarray(V, dtype=float)
    if U.shape != V.shape:
        raise ValueError("shape mismatch: %s vs %s" % (U.shape, V.shape))
    minus = np.linalg.norm(U - V, axis=0)
    plus = np.linalg.norm(U + V, axis=0)
    return np.minimum(minus, plus) / np.sqrt(U.shape[0])
