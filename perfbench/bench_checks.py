"""Output checks that do not copy the program's answers.

Each check recomputes a result from the regenerated inputs with scipy and
numpy routines the program does not use (``pdist``, ``np.partition``,
``scipy.linalg.eigvalsh``/``eigh``/``svdvals``, ``quad``/``brentq``), or
tests a property the method must have.  Every check returns a list of
failure messages; an empty list is a pass.  The rules they restate (the
quantile grid, the ratio window, the round-off floor, the upper-quantile
convention) are the documented ones, written out here a second time.
"""

import csv
import hashlib
import json
import math
import os

import numpy as np
from scipy import integrate, linalg, optimize
from scipy.spatial.distance import pdist, squareform

EPS = np.finfo(float).eps


# -- shared pieces -------------------------------------------------------


def scan_grid(lo=0.05, hi=0.95, T=91):
    """omega_i = omega_L + (i/T)(omega_U - omega_L), i = 0..T."""
    return np.array([lo + (i / T) * (hi - lo) for i in range(T + 1)])


def window_end(n, p):
    """Documented ratio window: k_hi = m - 2, or int(0.9 m) when the
    aspect is within (1 - sqrt(gamma))^2 < 0.02 of critical."""
    m, big = min(n, p), max(n, p)
    if (1.0 - math.sqrt(m / big)) ** 2 < 0.02:
        return int(0.9 * m)
    return m - 2


def order_statistic(d, omega):
    """The ceil(omega m)-th smallest of the m off-diagonal distances d."""
    rank = math.ceil(omega * d.size)
    return float(np.partition(d, rank - 1)[rank - 1])


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_digests(out_dir):
    """Every file the manifest lists exists and has the recorded digest."""
    path = os.path.join(out_dir, "manifest.json")
    if not os.path.exists(path):
        return ["%s: no manifest" % out_dir]
    with open(path) as fh:
        files = json.load(fh)["files"]
    if not files:
        return ["%s: manifest lists no files" % out_dir]
    bad = []
    for entry in files:
        target = os.path.join(out_dir, entry["path"])
        if not os.path.exists(target):
            bad.append("%s: missing" % target)
        elif sha256(target) != entry["sha256"]:
            bad.append("%s: digest does not match the manifest" % target)
    return bad


# -- select_circle -------------------------------------------------------


def check_largest_maximiser(sel):
    """The chosen omega is the largest maximiser of k_per_omega on the
    documented default grid."""
    grid = scan_grid()
    k = np.asarray(sel.k_per_omega)
    if k.size != grid.size or not np.allclose(sel.grid, grid, rtol=0, atol=1e-15):
        return ["grid is not the default scan grid"]
    best = int(np.flatnonzero(k == k.max())[-1])
    if sel.omega != grid[best]:
        return ["omega %.6g is not the largest maximiser %.6g" % (sel.omega, grid[best])]
    return []


def check_order_statistic(X, omega, h, scale=1.0):
    """h / scale is the ceil(omega m)-th smallest squared distance / scale."""
    ref = order_statistic(pdist(X, "sqeuclidean"), omega) / scale
    if not abs(h - ref) <= 1e-9 * ref:
        return ["h %.17g is not the order statistic %.17g at omega %.6g" % (h, ref, omega)]
    return []


def check_count(X, sel, upsilon, matrix):
    """The count at the chosen omega, recomputed on the ratio window.

    Each eigenvalue carries an absolute round-off of a few n eps |lam_1|,
    so a ratio that lies within that reach of 1 + s, or an eigenvalue that
    lies within it of the floor, is held against neither side: the
    program's count must lie between the counts taken with the tie
    resolved each way.
    """
    n, p = X.shape
    best = int(np.argmin(np.abs(sel.grid - sel.omega)))
    if abs(sel.grid[best] - sel.omega) > 1e-12:
        return ["omega %.17g is off the scan grid" % sel.omega]
    k_prog = int(sel.k_per_omega[best])
    W = np.exp(squareform(pdist(X, "sqeuclidean")) * (-upsilon / sel.h))
    if matrix == "transition":
        root = np.sqrt(W.sum(axis=1))
        W = W / root[:, None] / root[None, :]
    eigs = linalg.eigvalsh(W)[::-1]
    floor = n * EPS * abs(eigs[0])
    reach = 4.0 * floor
    k_hi = window_end(n, p)
    threshold = 1.0 + sel.s

    def count(sign):
        above = int(np.count_nonzero(eigs > floor - sign * reach))
        k_max = min(k_hi, above - 1)
        best_k = 0
        for k in range(1, k_max + 1):
            top, nxt = eigs[k - 1], eigs[k]
            if nxt <= 0.0:
                continue
            slack = threshold * reach * (1.0 / abs(top) + 1.0 / abs(nxt))
            if top / nxt >= threshold - sign * slack:
                best_k = k
        return best_k

    lo, hi = count(-1), count(+1)
    if not lo <= k_prog <= hi:
        return ["count %d at omega %.6g, recomputed %d..%d" % (k_prog, sel.omega, lo, hi)]
    return []


def null_threshold(c, n, reps, seed, level=0.99):
    """s from the same Philox draws: the level quantile (linear rule) of
    the per-rep largest bulk ratio of (1/p) X X^T, minus one, with the
    spectrum taken from singular values."""
    p = int(round(n / c))
    k_hi = window_end(n, p)
    rng = np.random.Generator(np.random.Philox(key=seed))
    maxima = []
    for _ in range(reps):
        X = rng.standard_normal((n, p))
        eigs = np.zeros(n)
        sv = linalg.svdvals(X)
        eigs[: sv.size] = sv**2 / p
        seg = eigs[1 : k_hi + 1]
        maxima.append(np.max(seg[:-1] / seg[1:]))
    maxima.sort()
    pos = level * (reps - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, reps - 1)
    return maxima[lo] + (pos - lo) * (maxima[hi] - maxima[lo]) - 1.0


def check_threshold(s, ref):
    if not abs(s - ref) <= 1e-9 * abs(ref):
        return ["s %.17g against %.17g recomputed" % (s, ref)]
    return []


def check_weak_strong(selections, alphas):
    """The weakest signal selects omega >= 0.8, the strongest omega <= 0.3."""
    bad = []
    for (c, alpha, matrix), sel in selections.items():
        if alpha == min(alphas) and sel.omega < 0.8:
            bad.append("c=%g alpha=%g %s: omega %.3f < 0.8" % (c, alpha, matrix, sel.omega))
        if alpha == max(alphas) and sel.omega > 0.3:
            bad.append("c=%g alpha=%g %s: omega %.3f > 0.3" % (c, alpha, matrix, sel.omega))
    return bad


# -- bulk laws -----------------------------------------------------------


def spiked_cloud(n, p, lams, seed):
    """The spiked cloud regenerated from its documented Philox substreams:
    key ``seed`` for the noise, the same key jumped once for the signal."""
    root = np.random.Philox(key=int(seed))
    signal_rng = np.random.Generator(root.jumped(1))  # jumped before root draws
    noise = np.random.Generator(root).standard_normal((n, p))
    xi = signal_rng.standard_normal((n, len(lams)))
    clean = np.zeros((n, p))
    clean[:, : len(lams)] = xi * np.sqrt(lams)
    return clean, noise


class ShiftedMp:
    """nu_0(c, upsilon) in closed form: density sqrt((b-x)(x-a)) /
    (2 pi sigma2 c x) on [a, b] = sigma2 (1 -/+ sqrt c)^2, sigma2 =
    2 upsilon e^{-2 upsilon}, the atom (1 - 1/c)_+ at 0, everything
    shifted by 1 - 2 upsilon e^{-2 upsilon} - e^{-2 upsilon}."""

    def __init__(self, c, upsilon):
        decay = math.exp(-2.0 * upsilon)
        self.c = c
        self.sigma2 = 2.0 * upsilon * decay
        self.shift = 1.0 - 2.0 * upsilon * decay - decay
        self.a = self.sigma2 * (1.0 - math.sqrt(c)) ** 2
        self.b = self.sigma2 * (1.0 + math.sqrt(c)) ** 2
        self.bulk_mass = self.mass(self.a, self.b)

    def density(self, x):
        if x <= self.a or x >= self.b:
            return 0.0
        return math.sqrt((self.b - x) * (x - self.a)) / (2.0 * math.pi * self.sigma2 * self.c * x)

    def mass(self, lo, hi):
        lo, hi = max(lo, self.a), min(hi, self.b)
        if hi <= lo:
            return 0.0
        return integrate.quad(self.density, lo, hi, epsabs=1e-13, epsrel=1e-12, limit=200)[0]

    def typical_location(self, j, n):
        """gamma with mass j/n above it; at or past the bulk mass, the
        lower edge (within 1e-9) or the atom."""
        q = j / n
        if q >= self.bulk_mass - 1e-12:
            if q <= self.bulk_mass + 1e-9:
                return self.shift + self.a
            return self.shift
        u = optimize.brentq(
            lambda x: self.bulk_mass - self.mass(self.a, x) - q,
            self.a, self.b, xtol=1e-13, rtol=1e-13,
        )
        return self.shift + u


def sampled_indices(n):
    return sorted({1, 2, 3, n // 10, n // 4, n // 3, n // 2, 2 * n // 3, 3 * n // 4, 9 * n // 10, n - 1, n})


def check_typical_locations(curves_csv, n, upsilon):
    """Sampled ``limit_mean`` typical locations of AccuracyLowSNR against
    brentq on the quadrature of the closed-form density."""
    rows = read_csv(curves_csv)
    bad = []
    by_c = {}
    for row in rows:
        by_c.setdefault(float(row["c"]), {})[int(row["index"])] = float(row["limit_mean"])
    if not by_c:
        return ["%s: no rows" % curves_csv]
    for c, limits in by_c.items():
        law = ShiftedMp(c, upsilon)
        for j in sampled_indices(n):
            ref = law.typical_location(j, n)
            if not abs(limits[j] - ref) <= 1e-7:
                bad.append("c=%g j=%d: limit %.12g, quadrature %.12g" % (c, j, limits[j], ref))
    return bad


def check_limit_density(hist_csv, upsilon):
    """``limit_density`` of every HistogramBulk bin against the quadrature
    of the density over the bin, divided by its width."""
    bad = []
    rows = read_csv(hist_csv)
    if not rows:
        return ["%s: no rows" % hist_csv]
    laws = {}
    for row in rows:
        c = float(row["c"])
        law = laws.setdefault(c, ShiftedMp(c, upsilon))
        lo, hi = float(row["bin_lo"]), float(row["bin_hi"])
        ref = law.mass(lo - law.shift, hi - law.shift) / (hi - lo)
        got = float(row["limit_density"])
        if not abs(got - ref) <= 1e-8 * max(1.0, abs(ref)):
            bad.append("c=%g bin [%.6g, %.6g]: %.12g against %.12g" % (c, lo, hi, got, ref))
    return bad


def check_gram_eigs(tracked_csv, seed, n=200, samples=2):
    """``gram_eig1``/``gram_eig2`` of sampled PhaseSweep rows (the first
    and last ``samples`` rows per aspect) against singular values of the
    regenerated cloud; strengths are p**alpha."""
    rows = read_csv(tracked_csv)
    by_c = {}
    for row in rows:
        by_c.setdefault(float(row["c"]), []).append(row)
    if not by_c:
        return ["%s: no rows" % tracked_csv]
    bad = []
    for c, block in by_c.items():
        p = int(round(n / c))
        for row in block[:samples] + block[-samples:]:
            lam = float(p) ** float(row["alpha"])
            clean, noise = spiked_cloud(n, p, (lam,), seed)
            sv = linalg.svdvals(clean + noise)
            ref = sv[:2] ** 2 / p
            got = np.array([float(row["gram_eig1"]), float(row["gram_eig2"])])
            if not np.all(np.abs(got - ref) <= 1e-9 * np.abs(ref)):
                bad.append("c=%g alpha=%s: gram eigs %s against %s" % (c, row["alpha"], got, ref))
    return bad


def stieltjes_sup(n, p, upsilon, seed, a=0.2, alpha=1.0):
    """sup |m_W(z) - m_Wb1(z)| over the spectral box, vectorised over z."""
    lam = float(p) ** alpha
    clean, noise = spiked_cloud(n, p, (lam,), seed)
    W = np.exp(squareform(pdist(clean + noise, "sqeuclidean")) * (-upsilon / p))
    W1 = np.exp(squareform(pdist(clean, "sqeuclidean")) * (-upsilon / p))
    inner = 2.0 * upsilon * math.exp(-2.0 * upsilon) * (noise @ noise.T) / p
    inner[np.diag_indices(n)] += 2.0 * upsilon * math.exp(-4.0 * upsilon)
    ew = linalg.eigvalsh(W)
    eb = linalg.eigvalsh(inner * W1)
    es = np.linspace(a, 1.0 / a, 16)
    etas = np.geomspace(float(n) ** (-0.5 + alpha / 4.0 + a), 1.0 / a, 8)
    z = (es[:, None] + 1j * etas[None, :]).ravel()
    mw = np.mean(1.0 / (ew[:, None] - z[None, :]), axis=0)
    mb = np.mean(1.0 / (eb[:, None] - z[None, :]), axis=0)
    return float(np.max(np.abs(mw - mb)))


def check_stieltjes_sup(sup_csv, seed, n, upsilon):
    """The first seed's ``sup_absdiff`` against a vectorised recomputation."""
    rows = [r for r in read_csv(sup_csv) if int(r["seed"]) == seed]
    if len(rows) != 1:
        return ["%s: no single row for seed %d" % (sup_csv, seed)]
    got = float(rows[0]["sup_absdiff"])
    ref = stieltjes_sup(n, n, upsilon, seed)
    if not abs(got - ref) <= 1e-8 * abs(ref):
        return ["seed %d: sup %.12g against %.12g" % (seed, got, ref)]
    return []


# -- manifold_rmse -------------------------------------------------------


def check_manifold_selections(omegas_csv, clouds):
    """Every selected omega lies on the scan grid, and its ``h_over_p`` is
    the order statistic at that omega divided by p."""
    grid = scan_grid()
    rows = read_csv(omegas_csv)
    if len(rows) != len(clouds):
        return ["%s: %d rows for %d clouds" % (omegas_csv, len(rows), len(clouds))]
    bad = []
    for row in rows:
        cloud = clouds[(row["manifold"], int(row["seed"]))]
        omega = float(row["omega"])
        if np.min(np.abs(grid - omega)) > 1e-12:
            bad.append("%s seed %s: omega %.17g is off the grid" % (row["manifold"], row["seed"], omega))
            continue
        bad += check_order_statistic(cloud.noisy(), omega, float(row["h_over_p"]), cloud.p)
    return bad


def top_vectors(W, k):
    """Leading k + 1 eigenpairs in descending order (one extra for the gap)."""
    n = W.shape[0]
    vals, vecs = linalg.eigh(W, subset_by_index=[n - k - 1, n - 1])
    return vals[::-1], vecs[:, ::-1]


def fixed_bandwidth_rmse(cloud, upsilon, top=9):
    """Per-index RMSE of the noisy top vectors against the clean reference
    at h = p and h = p + lambda_total, with per-index tolerances that grow
    as the eigenvalue gaps shrink towards round-off (inf where a gap is at
    or below it)."""
    n, p = cloud.n, cloud.p
    h_ref = p + sum(cloud.lambdas)
    D_clean = squareform(pdist(cloud.clean, "sqeuclidean"))
    D = squareform(pdist(cloud.noisy(), "sqeuclidean"))
    ref_vals, ref_vecs = top_vectors(np.exp(D_clean * (-upsilon / h_ref)), top)
    out = {}
    for tag, h in (("hp", float(p)), ("theory", h_ref)):
        vals, vecs = top_vectors(np.exp(D * (-upsilon / h)), top)
        rmse = np.minimum(
            np.linalg.norm(ref_vecs[:, :top] - vecs[:, :top], axis=0),
            np.linalg.norm(ref_vecs[:, :top] + vecs[:, :top], axis=0),
        ) / math.sqrt(n)
        tol = np.empty(top)
        for j in range(top):
            worst = np.inf
            for spectrum in (ref_vals, vals):
                gaps = [spectrum[j] - spectrum[j + 1]]
                if j > 0:
                    gaps.append(spectrum[j - 1] - spectrum[j])
                roundoff = n * EPS * abs(spectrum[0])
                gap = min(gaps)
                worst = min(worst, gap / roundoff) if gap > roundoff else 0.0
            tol[j] = np.inf if worst == 0.0 else 1e-9 + 100.0 / worst
        out[tag] = (rmse, tol)
    return out


def check_fixed_rmse(rmse_csv, clouds_by_manifold, upsilon, top=9):
    """The ``hp`` and ``theory`` rows against an independent recomputation;
    indices whose gap is at or below round-off are skipped."""
    rows = read_csv(rmse_csv)
    bad = []
    for kind, clouds in clouds_by_manifold.items():
        per_rep = [fixed_bandwidth_rmse(cl, upsilon, top) for cl in clouds]
        for tag in ("hp", "theory"):
            stack = np.array([r[tag][0] for r in per_rep])
            tol = np.max([r[tag][1] for r in per_rep], axis=0)
            mean, std = stack.mean(axis=0), stack.std(axis=0)
            got = {
                int(r["vec_index"]): (float(r["rmse_mean"]), float(r["rmse_std"]))
                for r in rows
                if r["manifold"] == kind and r["variant"] == tag
            }
            if sorted(got) != list(range(1, top + 1)):
                bad.append("%s %s: rows for indices %s" % (kind, tag, sorted(got)))
                continue
            for j in range(top):
                if not np.isfinite(tol[j]):
                    continue
                g_mean, g_std = got[j + 1]
                if abs(g_mean - mean[j]) > tol[j] or abs(g_std - std[j]) > tol[j]:
                    bad.append(
                        "%s %s index %d: rmse %.10g/%.10g against %.10g/%.10g"
                        % (kind, tag, j + 1, g_mean, g_std, mean[j], std[j])
                    )
    return bad


def check_rmse_range(rmse_csv, sizes):
    """Every sign-aligned RMSE of unit vectors lies in [0, sqrt(2/n)]:
    min(|u - v|, |u + v|)^2 <= (|u - v|^2 + |u + v|^2) / 2 = 2 (with
    round-off allowed at the top)."""
    bad = []
    rows = read_csv(rmse_csv)
    if not rows:
        return ["%s: no rows" % rmse_csv]
    for row in rows:
        bound = math.sqrt(2.0 / sizes[row["manifold"]]) * (1.0 + 1e-12)
        mean, std = float(row["rmse_mean"]), float(row["rmse_std"])
        if not (0.0 <= mean <= bound and std >= 0.0):
            bad.append("%s %s index %s: rmse %.6g outside [0, %.6g]" % (
                row["manifold"], row["variant"], row["vec_index"], mean, bound))
    return bad
