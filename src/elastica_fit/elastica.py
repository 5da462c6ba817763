"""Closed-form evaluation of elastica segments and their derivatives.

The basic elastica through the origin with tangent angle 0 and initial
curvature 2k is

    zeta_k(s) = (2*E(s,k) - s,  2*k*(1 - cn(s,k))),

and every elastica segment is a scaled, rotated, translated piece of it:

    y(t) = w * R_phi * zeta_k(s0 + ell*t) + (x0, y0),   t in [0, 1].

All first and second derivatives with respect to arclength and the seven
parameters (k, s0, ell, w, phi, x0, y0) are available in closed form; the
second k-derivative divides by k and is undefined at k = 0.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .elliptic import _check_modulus, _jacobi_E, _jacobi_E_arr
from .errors import DomainError

#: parameter order used for gradient / Hessian indexing
PARAM_NAMES = ("k", "s0", "ell", "w", "phi", "x0", "y0")

#: smallest modulus for which the second k-derivative is evaluated
K_MIN = 1e-6

#: strict upper triangle of the 7 x 7 parameter Hessian
_UPPER = np.triu_indices(7, 1)


@dataclass(frozen=True)
class ElasticaParams:
    """The seven control parameters of an elastica segment."""

    k: float
    s0: float
    ell: float
    w: float
    phi: float
    x0: float
    y0: float

    def __post_init__(self):
        vals = (self.k, self.s0, self.ell, self.w, self.phi, self.x0, self.y0)
        if not all(math.isfinite(v) for v in vals):
            raise DomainError(f"non-finite parameter in {vals}")
        _check_modulus(self.k)
        if self.w <= 0:
            raise DomainError(f"scale w must be positive, got {self.w}")
        if self.ell == 0:
            raise DomainError("parameter extent ell must be nonzero")

    @property
    def length(self) -> float:
        return abs(self.ell) * self.w

    def as_array(self) -> np.ndarray:
        return np.array([self.k, self.s0, self.ell, self.w, self.phi,
                         self.x0, self.y0])

    @classmethod
    def from_array(cls, a) -> "ElasticaParams":
        return cls(*(float(v) for v in a))


class BasicDerivatives(NamedTuple):
    """Derivative blocks of the basic elastica at one (s, k)."""

    ds: np.ndarray
    dss: np.ndarray
    dk: np.ndarray
    dsk: np.ndarray
    dkk: np.ndarray


# ---------------------------------------------------------------------------
# kernels

def _zeta_blocks(s, k, with_kk):
    """zeta and its five derivative blocks at an array of arclengths s,
    packed as (n, 6, 2): value, d/ds, d2/ds2, d/dk, d2/dsdk, d2/dk2 (the
    last left zero unless with_kk), and the (sn, cn, dn, E) they came from."""
    S, C, D, E = jacobi_E = _jacobi_E_arr(s, k)
    kp2 = 1.0 - k * k
    out = np.zeros((len(s), 6, 2))
    out[:, 0, 0] = 2.0 * E - s
    out[:, 0, 1] = 2.0 * k * (1.0 - C)
    out[:, 1, 0] = 2.0 * D * D - 1.0
    out[:, 1, 1] = 2.0 * k * S * D
    out[:, 2, 0] = 2.0 * k * C * (-2.0 * k * S * D)
    out[:, 2, 1] = 2.0 * k * C * (2.0 * D * D - 1.0)
    out[:, 3, 0] = (2.0 / kp2) * k * (S * C * D - E * C * C - s * kp2 * S * S)
    out[:, 3, 1] = (2.0 / kp2) * (kp2 + C * (k * k - D * D) - S * D * (E - s * kp2))
    f = (2.0 / kp2) * (S * D - C * (E - s * kp2))
    out[:, 4, 0] = f * (-2.0 * k * S * D)
    out[:, 4, 1] = f * (2.0 * D * D - 1.0)
    if with_kk:
        a0 = 2.0 * S * D * C * (D * D - k * k * E * E
                                + kp2 * (s * s * k * k - (E - s) ** 2 - 0.5))
        a1 = (1.0 / k) * ((1.0 - 2.0 * k * k * S * S) * (E - s)
                          * (2.0 * s * k * k + E - s) * C
                          + D * S * (s * kp2 - E) * (4.0 * k * k * C * C + kp2))
        b0 = ((E - s) * (C * C + D * D - 4.0 * C * C * D * D)
              + 2.0 * s * k * k * (2.0 * S * S - 1.0) * D * D - s * kp2)
        b1 = (-s * k * kp2 * D * S + s * s * k ** 3 * C
              + k * C * S * S * (2.0 - 2.0 * s * s * k ** 4
                                 - 2.0 * k * k * S * S + k * k))
        out[:, 5, 0] = (2.0 / (kp2 * kp2)) * (a0 + b0)
        out[:, 5, 1] = (2.0 / (kp2 * kp2)) * (a1 + b1)
    return out, jacobi_E


def _rotate(phi, v):
    """R_phi applied to the last axis of v (vectors as (..., 2))."""
    c = math.cos(phi)
    s = math.sin(phi)
    out = np.empty_like(v)
    out[..., 0] = c * v[..., 0] - s * v[..., 1]
    out[..., 1] = s * v[..., 0] + c * v[..., 1]
    return out


def _segment_eval_arr(p, t):
    """Points of the parameterized segment at an array of t values.

    p is the 7-vector (k, s0, ell, w, phi, x0, y0); returns an (n, 2) array.
    """
    k, s0, ell, w, phi, x0, y0 = p
    z = _zeta_blocks(s0 + ell * t, k, False)[0][:, 0]
    return w * _rotate(phi, z) + (x0, y0)


def _segment_partials_arr(p, t, with_second):
    """Segment points with first (and optionally second) parameter partials.

    Returns (y, dy, d2y, jacobi_E) with y, dy, d2y of shapes (n, 2),
    (n, 7, 2), (n, 7, 7, 2) and jacobi_E = (sn, cn, dn, E) at the
    arclengths s0 + ell*t.  d2y is all zero unless with_second, and its k-k
    entry, which divides by k, is left zero for k < K_MIN.
    """
    k, s0, ell, w, phi, x0, y0 = p
    n = len(t)
    # rotated blocks: rb = R_phi @ block, qb = R_{phi+pi/2} @ block
    blocks, jacobi_E = _zeta_blocks(s0 + ell * t, k,
                                    with_second and k >= K_MIN)
    rb = _rotate(phi, blocks)
    qb = np.stack([-rb[..., 1], rb[..., 0]], axis=-1)
    tc = t[:, None]
    y = w * rb[:, 0] + (x0, y0)
    dy = np.zeros((n, 7, 2))
    dy[:, 0] = w * rb[:, 3]                 # k
    dy[:, 1] = w * rb[:, 1]                 # s0
    dy[:, 2] = tc * w * rb[:, 1]            # ell
    dy[:, 3] = rb[:, 0]                     # w
    dy[:, 4] = w * qb[:, 0]                 # phi
    dy[:, 5, 0] = 1.0                       # x0
    dy[:, 6, 1] = 1.0                       # y0
    d2y = np.zeros((n, 7, 7, 2))
    if with_second:
        d2y[:, 0, 0] = w * rb[:, 5]             # k k
        d2y[:, 0, 1] = w * rb[:, 4]             # k s0
        d2y[:, 0, 2] = tc * w * rb[:, 4]        # k ell
        d2y[:, 0, 3] = rb[:, 3]                 # k w
        d2y[:, 0, 4] = w * qb[:, 3]             # k phi
        d2y[:, 1, 1] = w * rb[:, 2]             # s0 s0
        d2y[:, 1, 2] = tc * w * rb[:, 2]        # s0 ell
        d2y[:, 1, 3] = rb[:, 1]                 # s0 w
        d2y[:, 1, 4] = w * qb[:, 1]             # s0 phi
        d2y[:, 2, 2] = tc * tc * w * rb[:, 2]   # ell ell
        d2y[:, 2, 3] = tc * rb[:, 1]            # ell w
        d2y[:, 2, 4] = tc * w * qb[:, 1]        # ell phi
        d2y[:, 3, 4] = qb[:, 0]                 # w phi
        d2y[:, 4, 4] = -w * rb[:, 0]            # phi phi
        d2y[:, _UPPER[1], _UPPER[0]] = d2y[:, _UPPER[0], _UPPER[1]]
    return y, dy, d2y, jacobi_E


# ---------------------------------------------------------------------------
# public surface

def basic_point(s: float, k: float) -> np.ndarray:
    """Point of the basic elastica zeta_k at arclength s."""
    _check_modulus(k)
    if not math.isfinite(s):
        raise DomainError(f"non-finite arclength {s}")
    _, cn, _, e = _jacobi_E(s, k)
    return np.array([2.0 * e - s, 2.0 * k * (1.0 - cn)])


def basic_derivatives(s: float, k: float) -> BasicDerivatives:
    """All derivative blocks of zeta_k at (s, k); requires k >= K_MIN."""
    _check_modulus(k)
    if k < K_MIN:
        raise DomainError(
            f"second k-derivative undefined for k < {K_MIN} (got {k})")
    b = _zeta_blocks(np.array([float(s)]), k, True)[0][0]
    return BasicDerivatives(ds=b[1], dss=b[2], dk=b[3], dsk=b[4], dkk=b[5])


def segment_eval(p: ElasticaParams, t: float) -> np.ndarray:
    """Point of the transformed segment at parameter t (constant speed |ell|*w)."""
    s = p.s0 + p.ell * float(t)
    _, cn, _, e = _jacobi_E(s, p.k)
    z = np.array([2.0 * e - s, 2.0 * p.k * (1.0 - cn)])
    return p.w * _rotate(p.phi, z) + (p.x0, p.y0)


def segment_eval_many(p: ElasticaParams, t: np.ndarray) -> np.ndarray:
    """Vectorized ``segment_eval`` over an array of parameter values."""
    return _segment_eval_arr(p.as_array(), np.asarray(t, dtype=float))


def segment_curvature(p: ElasticaParams, t: float) -> float:
    """Signed curvature (2k/w) * cn(s0 + ell*t, k)."""
    if p.k == 0:
        return 0.0
    cn = _jacobi_E(p.s0 + p.ell * float(t), p.k)[1]
    return 2.0 * p.k / p.w * cn


class ElasticaCurve:
    """Curve-protocol adapter exposing an elastica segment as a plane curve,
    so exact elastica can be sampled, fitted, and used as test targets."""

    def __init__(self, params: ElasticaParams):
        self.params = params

    def point(self, t):
        return segment_eval(self.params, t)

    def derivative(self, t):
        p = self.params
        S, _, D, _ = _jacobi_E(p.s0 + p.ell * t, p.k)
        zs = np.array([2.0 * D * D - 1.0, 2.0 * p.k * S * D])
        return p.ell * p.w * _rotate(p.phi, zs)

    def second_derivative(self, t):
        p = self.params
        S, C, D, _ = _jacobi_E(p.s0 + p.ell * t, p.k)
        zss = 2.0 * p.k * C * np.array([-2.0 * p.k * S * D, 2.0 * D * D - 1.0])
        return p.ell ** 2 * p.w * _rotate(p.phi, zss)

    def trimmed(self, t0, t1):
        p = self.params
        return ElasticaCurve(ElasticaParams(
            k=p.k, s0=p.s0 + p.ell * t0, ell=p.ell * (t1 - t0),
            w=p.w, phi=p.phi, x0=p.x0, y0=p.y0))


def segment_partials(p: ElasticaParams, t: float, second: bool = True):
    """First (and second) partials of segment_eval with respect to the seven
    parameters: arrays of shape (7, 2) and (7, 7, 2)."""
    if second and p.k < K_MIN:
        raise DomainError(f"second partials need k >= {K_MIN} (got {p.k})")
    _, dy, d2y, _ = _segment_partials_arr(p.as_array(), np.array([float(t)]),
                                          second)
    if second:
        return dy[0], d2y[0]
    return dy[0], None
