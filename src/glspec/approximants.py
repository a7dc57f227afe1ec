"""Theory-predicted matrices the kernel affinity W is compared against:
the second-order kernel expansion K_d, the clean-signal surrogates W_a1 and
W_b1, and the Mehler rank-one expansion of the clean affinity matrix
(exponential kernel, one signal coordinate).

At the adaptive bandwidth h = lam + p the clean-signal surrogate is
``w_a1(W1_h, upsilon * p / h)``: the same form at the rescaled decay.
"""

import numpy as np

from .kernels import gram


def phi_vector(cloud):
    """Centered squared-norm profile phi_i = ||x_i||^2/p - (1 + sum_l lambda_l/p)."""
    X = cloud.noisy()
    return np.einsum("ij,ij->i", X, X) / cloud.p - (1.0 + cloud.lambda_total() / cloud.p)


def kd_matrix(cloud, upsilon):
    """Second-order expansion of W around the typical squared distance.

    Built for the fixed bandwidth h = p, the regime where the expansion is
    stated.  With tau = 2(sum_l lambda_l/p + 1) and f = exp(-upsilon x):

        K = -2 f'(tau) G + varsigma I + f(tau) 11^T
            + f'(tau)(1 Phi^T + Phi 1^T)
            + (f''(tau)/2)[1 (Phi o Phi)^T + (Phi o Phi) 1^T + 2 Phi Phi^T
                           + (4/p^2)(sum_l (lambda_l+1)^2 + p) 11^T]

    where G = (1/p) X X^T and varsigma = f(0) + 2 f'(tau) - f(tau).
    """
    if upsilon <= 0:
        raise ValueError("need upsilon > 0")
    p = cloud.p
    lam_sum = cloud.lambda_total()
    tau = 2.0 * (lam_sum / p + 1.0)
    f_tau = np.exp(-upsilon * tau)
    fp_tau = -upsilon * f_tau
    fpp_tau = upsilon * upsilon * f_tau
    varsigma = 1.0 + 2.0 * fp_tau - f_tau

    X = cloud.noisy()
    G = gram(X)
    phi = phi_vector(cloud)
    n = cloud.n
    ones = np.ones(n)
    phi2 = phi * phi
    mom = sum((l + 1.0) ** 2 for l in cloud.lambdas) + p

    K = -2.0 * fp_tau * G
    K += varsigma * np.eye(n)
    K += f_tau * np.outer(ones, ones)
    K += fp_tau * (np.outer(ones, phi) + np.outer(phi, ones))
    K += 0.5 * fpp_tau * (
        np.outer(ones, phi2)
        + np.outer(phi2, ones)
        + 2.0 * np.outer(phi, phi)
        + (4.0 / p ** 2) * mom * np.outer(ones, ones)
    )
    return K


def w_a1(W1, upsilon):
    """Scaled clean affinity e^{-2 upsilon} W1 + (1 - e^{-2 upsilon}) I."""
    scale = np.exp(-2.0 * upsilon)
    out = scale * np.asarray(W1, dtype=float)
    out[np.diag_indices_from(out)] += 1.0 - scale
    return out


def w_b1(W1, noise_gram, upsilon):
    """Clean affinity modulated by the noise Gram fluctuation."""
    if np.shape(W1) != np.shape(noise_gram):
        raise ValueError("shape mismatch")
    scale = 2.0 * upsilon * np.exp(-2.0 * upsilon)
    inner = scale * np.asarray(noise_gram, dtype=float)
    inner[np.diag_indices_from(inner)] += 2.0 * upsilon * np.exp(-4.0 * upsilon)
    return inner * np.asarray(W1, dtype=float)


# -- Mehler expansion ------------------------------------------------------


def scaled_hermite(m, x):
    """Monic-normalized Hermite value by the probabilist recurrence
    H~_{m+1}(x) = x H~_m(x) - m H~_{m-1}(x), H~_0 = 1, H~_1 = x."""
    if m < 0:
        raise ValueError("need m >= 0")
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if m == 0:
        return prev if prev.ndim else float(prev)
    cur = x.copy()
    for k in range(1, m):
        prev, cur = cur, x * cur - k * prev
    return cur if cur.ndim else float(cur)


def mehler_t0(beta, upsilon):
    """Expansion ratio t0 in (0, 1) for signal-to-bandwidth ratio beta."""
    if beta <= 0:
        raise ValueError("need beta > 0")
    q = beta / upsilon
    return (-upsilon + np.sqrt(upsilon ** 2 + 16.0 * q * q)) / (4.0 * q)


def mehler_matrix(clean_coords, beta, upsilon, M):
    """Order-M truncation of the clean affinity's Mehler expansion in one
    standardized signal coordinate z (unit variance), beta = lambda/h:
    sqrt(1 - t0^2) sum_{m <= M} (t0^m / m!) H_m H_m^T with
    t0 = mehler_t0(beta, upsilon), H_m = w o H~_m(z) and
    w = exp(((3 t0^2 - 2)/(2 (1 - t0^2))) z^2).  It tends to
    exp(-upsilon beta (z_i - z_j)^2) only at upsilon = beta = 1, where
    callers test it.  Each term is summed as t0^{m/2} w o H~_m(z)/sqrt(m!)
    by the orthonormalized recurrence, which never overflows.
    """
    if M < 0:
        raise ValueError("need M >= 0")
    z = np.asarray(clean_coords, dtype=float)
    if z.ndim != 1:
        raise ValueError("expansion takes one signal coordinate (d = 1)")
    t0 = float(mehler_t0(beta, upsilon))
    w = np.exp((3.0 * t0 * t0 - 2.0) / (2.0 * (1.0 - t0 * t0)) * z * z)
    root_t = np.sqrt(t0)
    prev, cur = 0.0, np.ones_like(z)
    out = np.zeros((z.size, z.size))
    for m in range(M + 1):
        g = w * cur
        out += np.outer(g, g)
        # orthonormalized step, with t0^{1/2} folded into each order
        prev, cur = cur, (z * cur * root_t - np.sqrt(m) * t0 * prev) / np.sqrt(m + 1)
    return float(np.sqrt(1.0 - t0 * t0)) * out
