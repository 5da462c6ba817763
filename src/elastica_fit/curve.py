"""Input plane curves: cubic Bezier chains and polylines.

Provides point/derivative evaluation on a common [0, 1] parameter domain,
uniform sampling with arclength, tangent angle and curvature, and
parameter-interval trimming (used by the recursive segmentation).
Sampling passes whole t arrays to a BezierChain or Polyline, calls any
other curve at one scalar t at a time, and derives everything else with
array expressions.  An exact elastica (ElasticaCurve) runs at the constant
speed |ell|*w, so it is sampled at its exact arclength |ell|*w*t.  Every
line integral over the samples is a dot product with one weight vector:
f @ samples.weights, the composite Simpson rule times the speed.

Curve JSON schema (consumed by the CLI):
    {"bezier": [[[x,y],[x,y],[x,y],[x,y]], ...]}   cubic pieces, or
    {"polyline": [[x,y], [x,y], ...]}
"""

import json
import math
import sys
from dataclasses import dataclass, fields, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .elastica import ElasticaCurve
from .errors import DegenerateInputError, DomainError

DEFAULT_SAMPLES = 1024


@dataclass(frozen=True)
class CurveSamples:
    """Uniform-in-t discretization of a curve with derived quantities.

    The node count is odd (even number of intervals) so composite Simpson
    applies directly.  theta is unwrapped; s is nondecreasing with s[-1] = L.
    The arrays a fit reads at every iteration, the integration weights, the
    normalized arclength tau = s / L, the complex points x + iy and their
    centring, their end_pose and the set's unit-length copy unit, are
    cached properties: computed once per sample set.
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

    @cached_property
    def weights(self) -> np.ndarray:
        """Composite Simpson weights in t times the speed ||x'(t)||, so that
        f @ weights is the line integral of per-node values f over ds.

        Computed on first access and kept with this sample set, read-only;
        a set made by dataclasses.replace computes its own."""
        n = self.n_intervals
        w = np.full(n + 1, 2.0)
        w[1::2] = 4.0
        w[0] = w[-1] = 1.0
        w = w * (1.0 / n) / 3.0 * self.speeds
        w.flags.writeable = False
        return w

    @cached_property
    def tau(self) -> np.ndarray:
        """Normalized arclength s / L at the nodes, from 0 to 1: where a
        fitted segment is evaluated.  Kept and read-only, as weights."""
        tau = self.s / self.length
        tau.flags.writeable = False
        return tau

    @cached_property
    def complex_points(self) -> np.ndarray:
        """The points as complex x + iy, (n,): a view of points where their
        layout allows, else a copy.  Kept and read-only, as weights."""
        z = np.ascontiguousarray(self.points, dtype=float).view(complex)[:, 0]
        z.flags.writeable = False
        return z

    @cached_property
    def centring(self) -> tuple:
        """(W, xbar, x - xbar) for the similarity alignment: the weights'
        sum, the weighted mean of the complex points x (0 unless W > 0) and
        x centred on it.  Kept and read-only, as weights."""
        tot, x = float(self.weights.sum()), self.complex_points
        xbar = complex(self.weights @ x) / tot if tot > 0 else 0j
        xc = x - xbar
        xc.flags.writeable = False
        return tot, xbar, xc

    @cached_property
    def end_pose(self) -> tuple:
        """(points, theta) at the first and last node, (2, 2) and (2,), that
        a pinned fit holds its segment's ends to.  Kept and read-only."""
        pose = self.points[[0, -1]], self.theta[[0, -1]]
        pose[0].flags.writeable = pose[1].flags.writeable = False
        return pose

    @cached_property
    def unit(self) -> "CurveSamples":
        """The samples moved to start at 0 and scaled to length 1, which fit,
        initial_guess and residual_r4 solve on.  Kept and read-only, as
        weights; its t and theta are views of this set's."""
        L, o = self.length, self.points[0]
        unit = replace(self, t=self.t.view(), points=(self.points - o) / L,
                       s=self.s / L, speeds=self.speeds / L,
                       theta=self.theta.view(), kappa=self.kappa * L)
        for f in fields(unit):
            getattr(unit, f.name).flags.writeable = False
        return unit

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
    """Piece indices and local parameters of global t (a scalar or an array)
    on m equal pieces.  Finite t outside [0, 1] is clamped.  The local
    parameter gets a trailing unit axis, so it scales (..., 2) points."""
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise DomainError(f"non-finite curve parameter: {t!r}")
    x = np.clip(t, 0.0, 1.0) * m
    i = np.minimum(x.astype(int), m - 1)
    return i, (x - i)[..., None]


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
        b = np.moveaxis(self.pieces[i], -2, 0)
        v = 1 - u
        return (v * v * v * b[0] + 3 * v * v * u * b[1]
                + 3 * v * u * u * b[2] + u * u * u * b[3])

    def derivative(self, t):
        i, u = _locate(t, self.m)
        b = np.moveaxis(self.pieces[i], -2, 0)
        v = 1 - u
        d = 3 * (v * v * (b[1] - b[0]) + 2 * v * u * (b[2] - b[1])
                 + u * u * (b[3] - b[2]))
        return d * self.m

    def second_derivative(self, t):
        i, u = _locate(t, self.m)
        b = np.moveaxis(self.pieces[i], -2, 0)
        d = 6 * ((1 - u) * (b[2] - 2 * b[1] + b[0]) + u * (b[3] - 2 * b[2] + b[1]))
        return d * self.m ** 2

    def trimmed(self, t0, t1):
        """Exact sub-curve on [t0, t1]: the control points of a kept piece
        on its [lo, hi] are the cubic's blossom values at (lo, lo, lo),
        (lo, lo, hi), (lo, hi, hi) and (hi, hi, hi)."""
        if not 0.0 <= t0 < t1 <= 1.0:
            raise DomainError(f"invalid trim interval [{t0}, {t1}]")
        i0, u0 = _locate(t0, self.m)
        i1, u1 = _locate(t1, self.m)
        if i1 > i0 and u1 == 0.0:
            i1, u1 = i1 - 1, 1.0
        out = []
        for i in range(i0, i1 + 1):
            lo = u0 if i == i0 else 0.0
            hi = u1 if i == i1 else 1.0
            args = (lo, lo, lo), (lo, lo, hi), (lo, hi, hi), (hi, hi, hi)
            out.append([_blossom(self.pieces[i], us) for us in args])
        return BezierChain(np.array(out))


def _blossom(b, us):
    """Blossom (polar form) of the Bezier curve with control points b at us,
    one parameter per degree: a de Casteljau step per parameter, and the one
    point left.  A step at u = 0 or 1 keeps control points bit for bit."""
    for u in us:
        b = (1 - u) * b[:-1] + u * b[1:]
    return b[0]


class Polyline:
    """Ordered point list, parameterized uniformly over the index of its
    kept vertices: one within 1e-14 of the extent (the bounding box's larger
    side) of the previous kept vertex is dropped, but a polyline whose
    points all coincide keeps two, and sample reports its zero length."""

    def __init__(self, points):
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != 2 or len(points) < 2:
            raise DomainError(
                f"polyline must have shape (n>=2, 2), got {points.shape}")
        if not np.all(np.isfinite(points)):
            raise DomainError("non-finite polyline point")
        tol = 1e-14 * _extent(points)
        kept = [0]
        for i in range(1, len(points)):
            if math.dist(points[i], points[kept[-1]]) > tol:
                kept.append(i)
        self.points = points[kept if len(kept) > 1 else [0, -1]]
        self.m = len(self.points) - 1

    def point(self, t):
        i, u = _locate(t, self.m)
        return (1 - u) * self.points[i] + u * self.points[i + 1]

    def derivative(self, t):
        i, _ = _locate(t, self.m)
        return (self.points[i + 1] - self.points[i]) * self.m

    def second_derivative(self, t):
        return np.zeros_like(self.derivative(t))

    def trimmed(self, t0, t1):
        if not 0.0 <= t0 < t1 <= 1.0:
            raise DomainError(f"invalid trim interval [{t0}, {t1}]")
        i0, _ = _locate(t0, self.m)
        i1, _ = _locate(t1, self.m)
        return Polyline([self.point(t0), *self.points[i0 + 1:i1 + 1],
                         self.point(t1)])


def _extent(points) -> float:
    """The larger side of the points' bounding box: inf if it overflows."""
    x, y = points.T
    with np.errstate(over="ignore"):
        return float(max(x.max() - x.min(), y.max() - y.min()))


def _evaluate(f, t):
    """(len(t), 2) array of the scalar protocol call f at every t, passed
    as a Python float."""
    return np.fromiter(map(f, t.tolist()), dtype=(float, 2), count=len(t))


@np.errstate(over="raise")
def sample(curve, n: int = DEFAULT_SAMPLES) -> CurveSamples:
    """Discretize a curve at n uniform parameter intervals (n rounded up to
    even, n >= 16), computing arclength, tangent angle and curvature.

    A BezierChain or Polyline is called once per method with a t array; any
    other curve is called at one scalar t at a time.  A Polyline gets chord
    arclength and circumcircle curvature, an ElasticaCurve its exact
    arclength |ell|*w*t, any other curve 3-point Gauss-Legendre arclength.

    Its arithmetic runs on values scaled exactly by 2^-e, 2^e the points'
    extent within a factor 2, so no power of a length leaves the double
    range.  A subnormal or infinite extent, or an overflow, raises
    FloatingPointError."""
    if n < 16:
        raise DomainError(f"need at least 16 sample intervals, got {n}")
    if n % 2:
        n += 1
    t = np.linspace(0.0, 1.0, n + 1)
    whole = isinstance(curve, (BezierChain, Polyline))
    evaluate = (lambda f, t: f(t)) if whole else _evaluate
    pts = evaluate(curve.point, t)
    extent = _extent(pts)
    if extent and not sys.float_info.min <= extent <= sys.float_info.max:
        raise FloatingPointError(
            f"curve extent {extent!r} is not a normal double")
    e = math.frexp(extent)[1]
    x = np.ldexp(pts, -e)

    if isinstance(curve, Polyline):
        chords = np.diff(x, axis=0)
        seglen = np.linalg.norm(chords, axis=1)
        s = np.concatenate([[0.0], np.cumsum(seglen)])
        d = np.gradient(x, axis=0) * n
        speeds = np.linalg.norm(d, axis=1)
        # circumcircle through (a, b, c): 2 (ab x bc) / (|ab| |bc| |ac|),
        # and 0 where two of the nodes coincide
        ab, bc = chords[:-1], chords[1:]
        cross = ab[:, 0] * bc[:, 1] - ab[:, 1] * bc[:, 0]
        denom = (seglen[:-1] * seglen[1:]
                 * np.linalg.norm(x[2:] - x[:-2], axis=1))
        kap = np.zeros(n + 1)
        np.divide(2.0 * cross, denom, out=kap[1:-1], where=denom != 0)
        kap[0] = kap[1]
        kap[-1] = kap[-2]
    else:
        d = np.ldexp(evaluate(curve.derivative, t), -e)
        dd = np.ldexp(evaluate(curve.second_derivative, t), -e)
        speeds = np.linalg.norm(d, axis=1)
        if np.any(speeds == 0):
            raise DegenerateInputError("curve has a stationary point (cusp)")
        # cross / speeds^3, one division per factor
        cross = d[:, 0] * dd[:, 1] - d[:, 1] * dd[:, 0]
        kap = cross / speeds / speeds / speeds
        if isinstance(curve, ElasticaCurve):
            s = math.ldexp(curve.params.length, -e) * t
        else:
            # cumulative arclength by 3-point Gauss-Legendre per interval
            g = np.array([-math.sqrt(3.0 / 5.0), 0.0, math.sqrt(3.0 / 5.0)])
            w0, w1, w2 = np.array([5.0, 8.0, 5.0]) / 18.0
            h = 1.0 / n
            tq = (t[:-1] + 0.5 * h)[:, None] + 0.5 * h * g
            dq = np.ldexp(evaluate(curve.derivative, tq.ravel()), -e)
            sp = np.hypot(dq[:, 0], dq[:, 1]).reshape(n, 3)
            seg = (w0 * sp[:, 0] + w1 * sp[:, 1] + w2 * sp[:, 2]) * h
            s = np.concatenate([[0.0], np.cumsum(seg)])

    if s[-1] <= 0:
        raise DegenerateInputError("curve has zero length")
    theta = np.unwrap(np.arctan2(d[:, 1], d[:, 0]))
    return CurveSamples(t=t, points=pts, speeds=np.ldexp(speeds, e),
                        s=np.ldexp(s, e), theta=theta,
                        kappa=np.ldexp(kap, -e))


def load_curve(source):
    """Build a curve from a JSON file path, JSON string, or parsed dict."""
    if isinstance(source, dict):
        doc = source
    else:
        text = source if str(source).lstrip().startswith("{") else \
            Path(source).read_text(encoding="utf-8")
        doc = json.loads(text)
    if "bezier" in doc:
        return BezierChain(doc["bezier"])
    if "polyline" in doc:
        return Polyline(doc["polyline"])
    raise DomainError("curve JSON needs a 'bezier' or 'polyline' key")
