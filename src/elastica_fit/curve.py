"""Input plane curves: cubic Bezier chains and polylines.

Provides point/derivative evaluation on a common [0, 1] parameter domain,
uniform sampling with arclength, tangent angle and curvature, composite
Simpson line integrals, and parameter-interval trimming (used by the
recursive segmentation).  Every line integral over the samples is a dot
product with one weight vector, CurveSamples.weights.

Curve JSON schema (consumed by the CLI):
    {"bezier": [[[x,y],[x,y],[x,y],[x,y]], ...]}   cubic pieces, or
    {"polyline": [[x,y], [x,y], ...]}
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, DomainError

DEFAULT_SAMPLES = 1024


@dataclass(frozen=True)
class CurveSamples:
    """Uniform-in-t discretization of a curve with derived quantities.

    The node count is odd (even number of intervals) so composite Simpson
    applies directly.  theta is unwrapped; s is nondecreasing with s[-1] = L.
    """

    t: np.ndarray
    points: np.ndarray
    speeds: np.ndarray
    s: np.ndarray
    theta: np.ndarray
    kappa: np.ndarray

    @property
    def length(self) -> float:
        return float(self.s[-1])

    @property
    def n_intervals(self) -> int:
        return len(self.t) - 1

    @property
    def weights(self) -> np.ndarray:
        """Composite Simpson weights in t times the speed ||x'(t)||, so that
        f @ weights is the line integral of per-node values f over ds."""
        n = self.n_intervals
        w = np.full(n + 1, 2.0)
        w[1::2] = 4.0
        w[0] = w[-1] = 1.0
        return w * (1.0 / n) / 3.0 * self.speeds

    def reversed(self) -> "CurveSamples":
        """Samples of the same curve traversed in the opposite direction."""
        L = self.length
        return CurveSamples(
            t=self.t.copy(),
            points=self.points[::-1].copy(),
            speeds=self.speeds[::-1].copy(),
            s=L - self.s[::-1],
            theta=np.unwrap(self.theta[::-1] + math.pi),
            kappa=-self.kappa[::-1],
        )


def _locate(t, m):
    """Piece index and local parameter of global t on m equal pieces."""
    x = min(max(t, 0.0), 1.0) * m
    i = min(int(x), m - 1)
    return i, x - i


class BezierChain:
    """A chain of cubic Bezier pieces on a shared [0, 1] parameter domain."""

    def __init__(self, pieces):
        pieces = np.asarray(pieces, dtype=float)
        if pieces.ndim != 3 or pieces.shape[1:] != (4, 2):
            raise DomainError(
                f"bezier pieces must have shape (m, 4, 2), got {pieces.shape}")
        if not np.all(np.isfinite(pieces)):
            raise DomainError("non-finite control point")
        self.pieces = pieces
        self.m = len(pieces)

    def point(self, t):
        i, u = _locate(t, self.m)
        b = self.pieces[i]
        v = 1 - u
        return (v ** 3 * b[0] + 3 * v ** 2 * u * b[1]
                + 3 * v * u ** 2 * b[2] + u ** 3 * b[3])

    def derivative(self, t):
        i, u = _locate(t, self.m)
        b = self.pieces[i]
        v = 1 - u
        d = 3 * (v ** 2 * (b[1] - b[0]) + 2 * v * u * (b[2] - b[1])
                 + u ** 2 * (b[3] - b[2]))
        return d * self.m

    def second_derivative(self, t):
        i, u = _locate(t, self.m)
        b = self.pieces[i]
        d = 6 * ((1 - u) * (b[2] - 2 * b[1] + b[0]) + u * (b[3] - 2 * b[2] + b[1]))
        return d * self.m ** 2

    def trimmed(self, t0, t1):
        """Exact sub-curve on [t0, t1] via de Casteljau subdivision."""
        if not 0.0 <= t0 < t1 <= 1.0:
            raise DomainError(f"invalid trim interval [{t0}, {t1}]")
        i0, u0 = _locate(t0, self.m)
        i1, u1 = _locate(t1, self.m)
        if i1 > i0 and u1 == 0.0:
            i1, u1 = i1 - 1, 1.0
        out = []
        for i in range(i0, i1 + 1):
            b = self.pieces[i]
            lo = u0 if i == i0 else 0.0
            hi = u1 if i == i1 else 1.0
            out.append(_decasteljau_sub(b, lo, hi))
        return BezierChain(np.array(out))


def _split(b, u):
    """de Casteljau split of a cubic at u: control points of [0, u] and
    of [u, 1]."""
    p01 = (1 - u) * b[0] + u * b[1]
    p12 = (1 - u) * b[1] + u * b[2]
    p23 = (1 - u) * b[2] + u * b[3]
    p012 = (1 - u) * p01 + u * p12
    p123 = (1 - u) * p12 + u * p23
    p = (1 - u) * p012 + u * p123
    return np.array([b[0], p01, p012, p]), np.array([p, p123, p23, b[3]])


def _decasteljau_sub(b, lo, hi):
    """Control points of a cubic restricted to [lo, hi] (reparameterized)."""
    if lo > 0.0:
        b = _split(b, lo)[1]
        hi = (hi - lo) / (1 - lo)
    if hi < 1.0:
        b = _split(b, hi)[0]
    return b


class Polyline:
    """Ordered point list, parameterized uniformly over the vertex index."""

    def __init__(self, points):
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != 2 or len(points) < 2:
            raise DomainError(
                f"polyline must have shape (n>=2, 2), got {points.shape}")
        if not np.all(np.isfinite(points)):
            raise DomainError("non-finite polyline point")
        self.points = points
        self.m = len(points) - 1

    def point(self, t):
        i, u = _locate(t, self.m)
        return (1 - u) * self.points[i] + u * self.points[i + 1]

    def derivative(self, t):
        i, _ = _locate(t, self.m)
        return (self.points[i + 1] - self.points[i]) * self.m

    def second_derivative(self, t):
        return np.zeros(2)

    def trimmed(self, t0, t1):
        if not 0.0 <= t0 < t1 <= 1.0:
            raise DomainError(f"invalid trim interval [{t0}, {t1}]")
        i0, _ = _locate(t0, self.m)
        i1, _ = _locate(t1, self.m)
        pts = [self.point(t0)]
        for i in range(i0 + 1, i1 + 1):
            pts.append(self.points[i])
        pts.append(self.point(t1))
        pts = np.array(pts)
        keep = np.ones(len(pts), dtype=bool)
        keep[1:] = np.linalg.norm(np.diff(pts, axis=0), axis=1) > 1e-14
        return Polyline(pts[keep])


def _circumcircle_curvature(a, b, c):
    """Signed curvature of the circle through three points (0 if collinear)."""
    ab = b - a
    bc = c - b
    ac = c - a
    cross = ab[0] * bc[1] - ab[1] * bc[0]
    denom = np.linalg.norm(ab) * np.linalg.norm(bc) * np.linalg.norm(ac)
    if denom == 0:
        return 0.0
    return 2.0 * cross / denom


def sample(curve, n: int = DEFAULT_SAMPLES) -> CurveSamples:
    """Discretize a curve at n uniform parameter intervals (n rounded up to
    even, n >= 16), computing arclength, tangent angle and curvature."""
    if n < 16:
        raise DomainError(f"need at least 16 sample intervals, got {n}")
    if n % 2:
        n += 1
    t = np.linspace(0.0, 1.0, n + 1)
    pts = np.array([curve.point(ti) for ti in t])

    if isinstance(curve, Polyline):
        # chord-based quantities; curvature from the three-point circumcircle
        chords = np.diff(pts, axis=0)
        seglen = np.linalg.norm(chords, axis=1)
        s = np.concatenate([[0.0], np.cumsum(seglen)])
        d = np.empty_like(pts)
        d[1:-1] = (pts[2:] - pts[:-2]) * 0.5 * n
        d[0] = chords[0] * n
        d[-1] = chords[-1] * n
        speeds = np.linalg.norm(d, axis=1)
        kap = np.zeros(n + 1)
        for i in range(1, n):
            kap[i] = _circumcircle_curvature(pts[i - 1], pts[i], pts[i + 1])
        kap[0] = kap[1]
        kap[-1] = kap[-2]
    else:
        d = np.array([curve.derivative(ti) for ti in t])
        dd = np.array([curve.second_derivative(ti) for ti in t])
        speeds = np.linalg.norm(d, axis=1)
        if np.any(speeds == 0):
            raise DegenerateInputError("curve has a stationary point (cusp)")
        kap = (d[:, 0] * dd[:, 1] - d[:, 1] * dd[:, 0]) / speeds ** 3
        # cumulative arclength by 3-point Gauss-Legendre per interval
        g = np.array([-math.sqrt(3.0 / 5.0), 0.0, math.sqrt(3.0 / 5.0)])
        wgt = np.array([5.0, 8.0, 5.0]) / 18.0
        seg = np.empty(n)
        h = 1.0 / n
        for i in range(n):
            mid = t[i] + 0.5 * h
            acc = 0.0
            for gj, wj in zip(g, wgt):
                dv = curve.derivative(mid + 0.5 * h * gj)
                acc += wj * math.hypot(dv[0], dv[1])
            seg[i] = acc * h
        s = np.concatenate([[0.0], np.cumsum(seg)])

    if s[-1] <= 0:
        raise DegenerateInputError("curve has zero length")
    theta = np.unwrap(np.arctan2(d[:, 1], d[:, 0]))
    return CurveSamples(t=t, points=pts, speeds=speeds, s=s, theta=theta,
                        kappa=kap)


def integrate_ds(samples: CurveSamples, f) -> float:
    """Line integral of per-node values f over the curve: f @ weights, the
    composite Simpson rule."""
    f = np.asarray(f, dtype=float)
    if f.shape[0] != len(samples.t):
        raise DomainError(
            f"value array length {f.shape[0]} != node count {len(samples.t)}")
    return float(f @ samples.weights)


def load_curve(source):
    """Build a curve from a JSON file path, JSON string, or parsed dict."""
    if isinstance(source, dict):
        doc = source
    else:
        text = source if str(source).lstrip().startswith("{") else \
            open(source, encoding="utf-8").read()
        doc = json.loads(text)
    if "bezier" in doc:
        return BezierChain(doc["bezier"])
    if "polyline" in doc:
        return Polyline(doc["polyline"])
    raise DomainError("curve JSON needs a 'bezier' or 'polyline' key")
