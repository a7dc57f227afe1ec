"""Kernel matrices for a point cloud: affinity W, degrees, transition A,
its symmetric form D^{-1/2} W D^{-1/2}, graph Laplacian L, the
zeroed-diagonal variant, and the clean/noise/cross factor matrices."""

from dataclasses import dataclass

import numpy as np


@dataclass
class KernelParams:
    """Kernel decay upsilon and bandwidth h for W(i,j) = exp(-upsilon d2/h)."""

    upsilon: float
    h: float

    def validate(self):
        if self.upsilon <= 0:
            raise ValueError("need upsilon > 0")
        if self.h <= 0:
            raise ValueError("need h > 0")


def pairwise_sq_dists(X):
    """Matrix of squared Euclidean distances ||x_i - x_j||^2.

    Uses the inner-product expansion (BLAS-3 shaped) with a clamp at zero to
    remove negative round-off; the diagonal is exactly zero.
    """
    X = np.asarray(X, dtype=float)
    sq = np.einsum("ij,ij->i", X, X)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, 0.0)
    return d2


def affinity(D2, params):
    """W(i,j) = exp(-upsilon * D2(i,j) / h); unit diagonal."""
    params.validate()
    return np.exp(D2 * (-params.upsilon / params.h))


def degree(W):
    return W.sum(axis=1)


def transition(W):
    """Row-stochastic A = D^{-1} W."""
    return W / degree(W)[:, None]


def laplacian(W, h):
    """Graph Laplacian L = (1/h)(I - A)."""
    n = W.shape[0]
    return (np.eye(n) - transition(W)) / h


def off_diagonal(W):
    """Copy of W with its diagonal nulled; rejects a row left with no weight."""
    if W.shape[0] < 2:
        raise ValueError("need n >= 2")
    off = W.copy()
    np.fill_diagonal(off, 0.0)
    if np.any(off.sum(axis=1) < 1e-300):
        raise ValueError("zeroed kernel has a degenerate row (all weights ~ 0)")
    return off


def zeroed_transition(W):
    """Transition matrix of W with its diagonal nulled before normalizing."""
    return transition(off_diagonal(W))


def sym_normalized(W):
    """Symmetric normalization D^{-1/2} W D^{-1/2}, similar to the
    transition matrix D^{-1} W and so sharing its (real) spectrum.

    For the zeroed form, pass ``off_diagonal(W)``.
    """
    root = np.sqrt(W.sum(axis=1))
    return W / np.outer(root, root)


def factor_matrices(cloud, params):
    """Clean, noise and cross factors (W1, Wy, Wc) with W = W1 o Wy o Wc.

    W1 and Wy are plain affinity matrices of the clean and noise parts; the
    cross factor is Wc(i,j) = exp(-2 upsilon (z_i-z_j)^T (y_i-y_j) / h).
    """
    params.validate()
    w1 = affinity(pairwise_sq_dists(cloud.clean), params)
    wy = affinity(pairwise_sq_dists(cloud.noise), params)
    z, y = cloud.clean, cloud.noise
    zy = z @ y.T
    # (z_i - z_j)^T (y_i - y_j) = zy(i,i) + zy(j,j) - zy(i,j) - zy(j,i)
    dzy = np.diag(zy)
    cross = dzy[:, None] + dzy[None, :] - zy - zy.T
    wc = np.exp(cross * (-2.0 * params.upsilon / params.h))
    return w1, wy, wc


def gram(X):
    """Companion Gram matrix (1/p) X X^T (n x n, observations in rows)."""
    X = np.asarray(X, dtype=float)
    return (X @ X.T) / X.shape[1]


def save_matrix_csv(M, path, kind, params):
    """Row-major CSV dump with a `n,kind,upsilon,h` metadata header."""
    M = np.asarray(M)
    with open(path, "w") as fh:
        fh.write("n,kind,upsilon,h\n")
        fh.write("%d,%s,%.17g,%.17g\n" % (M.shape[0], kind, params.upsilon, params.h))
        for row in M:
            fh.write(",".join("%.17g" % v for v in row))
            fh.write("\n")


def load_matrix_csv(path):
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "n,kind,upsilon,h":
            raise ValueError("not a matrix CSV: %r" % header)
        n_s, kind, ups_s, h_s = fh.readline().strip().split(",")
        M = np.loadtxt(fh, delimiter=",", ndmin=2)
    if M.shape != (int(n_s), int(n_s)):
        raise ValueError("matrix CSV body has shape %s, expected square %s" % (M.shape, n_s))
    return M, kind, KernelParams(float(ups_s), float(h_s))
