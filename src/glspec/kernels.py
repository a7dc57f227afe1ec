"""Kernel matrices for a point cloud: affinity W, degrees, transition A,
its symmetric form D^{-1/2} W D^{-1/2}, graph Laplacian L, the
zeroed-diagonal variant, and the clean/noise/cross factor matrices."""

import numpy as np


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


def affinity(D2, upsilon, h):
    """W(i,j) = exp(-upsilon * D2(i,j) / h); unit diagonal."""
    if upsilon <= 0:
        raise ValueError("need upsilon > 0")
    if h <= 0:
        raise ValueError("need h > 0")
    W = D2 * (-upsilon / h)
    return np.exp(W, out=W)


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
    scale = np.outer(root, root)
    return np.divide(W, scale, out=scale)


def factor_matrices(cloud, upsilon, h):
    """Clean, noise and cross factors (W1, Wy, Wc) with W = W1 o Wy o Wc.

    W1 and Wy are plain affinity matrices of the clean and noise parts; the
    cross factor is Wc(i,j) = exp(-2 upsilon (z_i-z_j)^T (y_i-y_j) / h).
    """
    z, y = cloud.clean, cloud.noise
    w1 = affinity(pairwise_sq_dists(z), upsilon, h)
    wy = affinity(pairwise_sq_dists(y), upsilon, h)
    zy = z @ y.T
    # (z_i - z_j)^T (y_i - y_j) = zy(i,i) + zy(j,j) - zy(i,j) - zy(j,i)
    dzy = np.diag(zy)
    cross = dzy[:, None] + dzy[None, :] - zy - zy.T
    wc = np.exp(cross * (-2.0 * upsilon / h))
    return w1, wy, wc


def gram(X):
    """Companion Gram matrix (1/p) X X^T (n x n, observations in rows)."""
    X = np.asarray(X, dtype=float)
    return (X @ X.T) / X.shape[1]

