"""Synthetic point clouds: the spiked Gaussian model and noisy manifolds.

Every generator is deterministic given (parameters, seed).  A single Philox
counter splits into three fixed substreams per seed: noise draws, the
standardized signal draws, and the random rotation.  Because noise and
standardized signal live on their own substreams, the same seed reuses one
noise realization across a whole grid of signal strengths.

A generated cloud's ``noise`` is a read-only view of the first n*p values
of its seed's longest live noise draw: an n x p draw is that prefix of the
seed's noise substream, so the noise is drawn only when the seed has no live
draw that long, and freed with the last cloud that reads it.  Its ``clean``
is read-only too, and an unrotated cloud stores only its d
nonzero leading columns.  Callers copy them before writing.  Clouds loaded
from CSV or NPZ own their arrays.

``write_csv`` here is the one CSV writer of the package: clouds, spectra
and experiment artifacts all share its number format.  ``write_json`` is
the one JSON writer: run manifests and bandwidth selections.
"""

import json
import numbers
import os
import weakref
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi

SPIKED = "spiked"
CIRCLE = "circle"
CURVE_M1 = "curve_m1"
KLEIN_BOTTLE = "klein_bottle"

# Centered covariance spectrum of the M1 curve parametrization (unit scale),
# frozen from an adaptive quadrature of its second moments over one period.
M1_COV_EIGS = (4.111805200191003, 1.2132851412757304, 0.04452553286536444)

# Centered covariance spectrum of the Klein bottle parametrization (unit
# scale): diag(3/2, 3/2, 1, 1) by direct trigonometric moments, trace 5.
KB_COV_EIGS = (1.5, 1.5, 1.0, 1.0)


@dataclass
class PointCloud:
    """A noisy point cloud split into its clean and noise parts.

    The observed data is always ``clean + noise`` (see :meth:`noisy`); it is
    never stored redundantly, and ``clean_cols`` holds only the leading
    columns of ``clean`` before its zero ones: d for an unrotated generated
    cloud, else p.  ``lambdas`` holds the spectrum of the clean part's
    population covariance (the signal strengths), ``d`` its rank.  Loaded
    clouds may carry ``lambdas=None`` when the source format has no strength
    metadata.  A generated cloud's ``clean`` and ``noise`` are read-only, and
    its ``noise`` is a view of its seed's longest live noise draw, shared
    with every live cloud of the same seed.
    """

    clean_cols: np.ndarray
    noise: np.ndarray
    n: int
    p: int
    d: int
    lambdas: tuple
    seed: int
    kind: str

    @property
    def clean(self):
        """The n x p clean part: ``clean_cols`` itself when it has p columns,
        else a fresh copy zero-padded to p, writeable only when it is."""
        cols = self.clean_cols
        if cols.shape[1] == self.p:
            return cols
        clean = np.zeros((self.n, self.p))
        clean[:, :cols.shape[1]] = cols
        clean.flags.writeable = cols.flags.writeable
        return clean

    def noisy(self):
        """Observed matrix x = z + y, one observation per row: a fresh copy
        of the noise with the ``clean_cols`` added to its leading columns
        (the other columns of z are zero, so this is z + y to the bit)."""
        x = self.noise.copy()
        x[:, :self.clean_cols.shape[1]] += self.clean_cols
        return x

    def lambda_total(self):
        """Total signal strength (trace of the clean covariance)."""
        if self.lambdas is None:
            raise ValueError("cloud carries no signal-strength metadata")
        return float(sum(self.lambdas))


def _substream(seed, k):
    """Generator of substream ``k`` of ``seed``; callers build one only
    when they draw from it.  Layout: 0 = noise, 1 = signal, 2 = rotation."""
    root = np.random.Philox(key=int(seed))
    return np.random.Generator(root.jumped(k) if k else root)


# The longest live noise draw of each seed, flat.  Values are held weakly,
# so an entry lasts only as long as some cloud's noise reads it.
_NOISE = weakref.WeakValueDictionary()


def _shared_noise(seed, n, p):
    """The standard Gaussian n x p draw of the noise substream of ``seed``:
    a read-only view of the first n*p values of the seed's live draw, which
    is drawn afresh, flat and read-only, when it is gone or shorter."""
    draw = _NOISE.get(seed)
    if draw is None or draw.size < n * p:
        draw = _NOISE[seed] = _substream(seed, 0).standard_normal(n * p)
        draw.flags.writeable = False
    return draw[: n * p].reshape(n, p)


def random_rotation(p, seed):
    """Haar-distributed orthogonal p x p matrix drawn from the rotation
    substream of ``seed``: the rotation the generators apply with ``rotate``.
    """
    if p < 1:
        raise ValueError("need p >= 1")
    q, r = np.linalg.qr(_substream(seed, 2).standard_normal((p, p)))
    sign = np.sign(np.diag(r))
    sign[sign == 0] = 1.0
    return q * sign


def _generate(kind, n, p, seed, lambdas, coords, rotate=False):
    """The one body behind every generator: the noise of ``seed`` and the
    n x d array ``coords(signal_rng)`` drawn from its signal substream, kept
    as is, or zero-padded to n x p and rotated by ``random_rotation(p, seed)``
    when ``rotate`` (the dense product, to the last bit).  Refuses n < 2 and
    a seed that is not an integer >= 0 before anything is drawn."""
    if n < 2:
        raise ValueError("need n >= 2, got %r" % (n,))
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError("need an integer seed >= 0, got %r" % (seed,))
    noise = _shared_noise(seed, n, p)
    z = coords(_substream(seed, 1))
    d = z.shape[1]
    if rotate:
        padded = np.zeros((n, p))
        padded[:, :d] = z
        z = padded @ random_rotation(p, seed).T
    z.flags.writeable = False
    return PointCloud(z, noise, n, p, d, lambdas, seed, kind)


def gen_spiked(n, p, lambdas, seed, rotate=False):
    """Spiked model: x_i = z_i + y_i with cov(z) = diag(lambdas, 0..) and
    standard Gaussian noise; the signal dimension d is len(lambdas)."""
    lams = tuple(float(l) for l in lambdas)
    d = len(lams)
    if not (p >= d >= 1):
        raise ValueError("need p >= d >= 1")
    if any(l < 0 for l in lams):
        raise ValueError("signal strengths must be nonnegative")
    return _generate(
        SPIKED, n, p, seed, lams,
        lambda rng: rng.standard_normal((n, d)) * np.sqrt(lams), rotate,
    )


def gen_circle(n, p, lam, seed):
    """Circle of radius sqrt(lam) in the first two coordinates plus noise."""
    if p < 2:
        raise ValueError("need p >= 2 for the circle")
    if lam <= 0:
        raise ValueError("need lam > 0")

    def coords(rng):
        theta = rng.uniform(0.0, TWO_PI, n)
        return np.sqrt(lam) * np.stack([np.cos(theta), np.sin(theta)], axis=1)

    # clean covariance is (lam/2) I on the circle plane
    return _generate(CIRCLE, n, p, seed, (lam / 2.0, lam / 2.0), coords)


def _m1_embedding(u):
    g = 1.0 - 0.8 * np.exp(-8.0 * np.cos(u) ** 2)
    out = np.empty((u.size, 3))
    out[:, 0] = 2.0 * np.cos(u)
    out[:, 1] = 3.0 * g * np.cos(u ** 2 / TWO_PI)
    out[:, 2] = g * np.sin(u)
    return out


def gen_curve_m1(n, p, a, seed, rotate=True):
    """Closed curve M1: a * R * Phi(u) with u uniform on (0, 2pi]."""
    if p < 3:
        raise ValueError("need p >= 3 for the M1 curve")
    if a <= 0:
        raise ValueError("need a > 0")
    lams = tuple(a * a * v for v in M1_COV_EIGS)
    return _generate(
        CURVE_M1, n, p, seed, lams,
        lambda rng: a * _m1_embedding(rng.uniform(0.0, TWO_PI, n)), rotate,
    )


def gen_klein_bottle(n, p, a, seed, rotate=True):
    """Klein bottle sample: a * R * Psi(u1, u2) with u uniform on [0, 2pi]^2."""
    if p < 4:
        raise ValueError("need p >= 4 for the Klein bottle")
    if a <= 0:
        raise ValueError("need a > 0")

    def coords(rng):
        u1 = rng.uniform(0.0, TWO_PI, n)
        u2 = rng.uniform(0.0, TWO_PI, n)
        ring = 2.0 * np.cos(u1) + 1.0
        psi = np.stack([
            ring * np.cos(u2),
            ring * np.sin(u2),
            2.0 * np.sin(u1) * np.cos(u2 / 2.0),
            2.0 * np.sin(u1) * np.sin(u2 / 2.0),
        ], axis=1)
        return a * psi

    lams = tuple(a * a * v for v in KB_COV_EIGS)
    return _generate(KLEIN_BOTTLE, n, p, seed, lams, coords, rotate)


def _fmt(value):
    """One CSV field: booleans as 1/0, integers in full, floats round-trip
    exact, anything else as its str."""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return "%d" % value
    if isinstance(value, (float, np.floating)):
        return "%.17g" % value
    return str(value)


def write_csv(path, header, rows):
    """Write a header line and one comma-separated line per row; every CSV
    the package writes goes through here.  Returns ``path``."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    return path


def _json_scalar(value):
    """``json.dumps`` hook: a numpy scalar (an ``np.int64`` n, say) as the
    Python scalar it holds; anything else stays unserialisable."""
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError("Object of type %s is not JSON serializable" % type(value).__name__)


def write_json(path, payload):
    """Write ``payload`` as JSON, indented and with sorted keys; every JSON
    file the package writes goes through here.  The text is serialised
    first and the finished file swapped in, so a failed write never leaves
    a partial file at ``path``.  Returns ``path``."""
    text = json.dumps(payload, indent=2, sort_keys=True, default=_json_scalar)
    tmp = os.fspath(path) + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text + "\n")
    os.replace(tmp, path)
    return path


def save_cloud_csv(cloud, path):
    """Dump a cloud: header row `n,p,d,kind,seed`, a value row, then n clean
    rows and n noise rows of p values each."""
    meta = [cloud.n, cloud.p, cloud.d, cloud.kind, cloud.seed]
    write_csv(path, ["n", "p", "d", "kind", "seed"], [meta, *cloud.clean, *cloud.noise])


def _check_loaded(clean, noise):
    """Reject a stored cloud whose noise and clean parts differ in shape or
    that holds a NaN or infinite value."""
    if noise.shape != clean.shape:
        raise ValueError(
            "cloud noise has shape %s, clean has %s" % (noise.shape, clean.shape)
        )
    if not (np.isfinite(clean).all() and np.isfinite(noise).all()):
        raise ValueError("cloud holds NaN or infinite values")


def load_cloud_csv(path):
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "n,p,d,kind,seed":
            raise ValueError("not a cloud CSV: %r" % header)
        n_s, p_s, d_s, kind, seed_s = fh.readline().strip().split(",")
        n, p, d, seed = int(n_s), int(p_s), int(d_s), int(seed_s)
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape != (2 * n, p):
        raise ValueError("cloud CSV body has shape %s, expected %s" % (data.shape, (2 * n, p)))
    _check_loaded(data[:n], data[n:])
    return PointCloud(data[:n], data[n:], n, p, d, None, seed, kind)


def save_cloud_npz(cloud, path):
    """Binary dump; unlike the CSV it keeps the signal-strength metadata."""
    np.savez(
        path,
        clean=cloud.clean,
        noise=cloud.noise,
        d=cloud.d,
        lambdas=np.asarray(cloud.lambdas, dtype=float),
        seed=cloud.seed,
        kind=cloud.kind,
    )


def load_cloud_npz(path):
    with np.load(path) as z:
        clean = z["clean"]
        noise = z["noise"]
        _check_loaded(clean, noise)
        n, p = clean.shape
        return PointCloud(
            clean,
            noise,
            n,
            p,
            int(z["d"]),
            tuple(float(v) for v in z["lambdas"]),
            int(z["seed"]),
            str(z["kind"]),
        )
