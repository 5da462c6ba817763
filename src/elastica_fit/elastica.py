"""Closed-form evaluation of elastica segments and their derivatives.

The basic elastica through the origin with tangent angle 0 and initial
curvature 2k is

    zeta_k(s) = (2*E(s,k) - s,  2*k*(1 - cn(s,k))),

and every elastica segment is a scaled, rotated, translated piece of it:

    y(t) = w * R_phi * zeta_k(s0 + ell*t) + (x0, y0),   t in [0, 1].

All first and second derivatives with respect to arclength and the seven
parameters (k, s0, ell, w, phi, x0, y0) are available in closed form; the
second k-derivative divides by k and is undefined at k = 0.  Second
parameter partials are used only contracted with vectors at the nodes
(_second_partials_dot); the (7, 7, 2) tensor is assembled only by the
one-node oracle segment_partials.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .elliptic import K_GUARD_BAND, _check_modulus, _jacobi_E, _jacobi_E_arr
from .errors import DomainError

#: parameter order used for gradient / Hessian indexing
PARAM_NAMES = ("k", "s0", "ell", "w", "phi", "x0", "y0")

#: smallest modulus for which the second k-derivative is evaluated
K_MIN = 1e-6

#: upper clamp for the modulus during optimization
K_MAX = 10.0


def _chart_modulus(k, above_one, k_max=K_MAX):
    """k moved into its side of 1: [K_MIN, 1 - 2 g] below, [1 + 2 g, k_max]
    above, with g = K_GUARD_BAND the singular band.  A NaN k is returned
    unchanged."""
    if above_one:
        return max(min(k, k_max), 1.0 + 2 * K_GUARD_BAND)
    return max(min(k, 1.0 - 2 * K_GUARD_BAND), K_MIN)


@dataclass(frozen=True)
class ElasticaParams:
    """The seven control parameters of an elastica segment.  ell is any
    nonzero number: ell < 0 runs the segment toward decreasing arclength
    of the basic elastica, so the same shape traversed backwards is
    (s0 + ell, -ell)."""

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

def _zeta_blocks(s, k, second, jacobi_E=None):
    """zeta and its five derivative blocks at an array of arclengths s,
    packed as (n, 6, 2): value, d/ds, d2/ds2, d/dk, d2/dsdk, d2/dk2, and
    the (sn, cn, dn, E) they came from: jacobi_E, the (4, n)
    _jacobi_E_arr(s, k), if the caller has it.  The second-derivative
    blocks are left zero unless second; d2/dk2, which divides by k, also
    unless k >= K_MIN."""
    if jacobi_E is None:
        jacobi_E = _jacobi_E_arr(s, k)
    S, C, D, E = jacobi_E
    kp2 = 1.0 - k * k
    out = np.zeros((len(s), 6, 2))
    out[:, 0, 0] = 2.0 * E - s
    out[:, 0, 1] = 2.0 * k * (1.0 - C)
    out[:, 1, 0] = 2.0 * D * D - 1.0
    out[:, 1, 1] = 2.0 * k * S * D
    out[:, 3, 0] = (2.0 / kp2) * k * (S * C * D - E * C * C - s * kp2 * S * S)
    out[:, 3, 1] = (2.0 / kp2) * (kp2 + C * (k * k - D * D) - S * D * (E - s * kp2))
    if not second:
        return out, jacobi_E
    out[:, 2, 0] = 2.0 * k * C * (-2.0 * k * S * D)
    out[:, 2, 1] = 2.0 * k * C * (2.0 * D * D - 1.0)
    f = (2.0 / kp2) * (S * D - C * (E - s * kp2))
    out[:, 4, 0] = f * (-2.0 * k * S * D)
    out[:, 4, 1] = f * (2.0 * D * D - 1.0)
    if k >= K_MIN:
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


def _segment_eval_arr(p, t, jacobi_E=None):
    """Points of the parameterized segment at an array of t values.

    p is the 7-vector (k, s0, ell, w, phi, x0, y0); returns an (n, 2) array.
    jacobi_E is _jacobi_E_arr(s0 + ell*t, k), if the caller has it.
    """
    k, s0, ell, w, phi, x0, y0 = p
    s = s0 + ell * t
    _, C, _, E = _jacobi_E_arr(s, k) if jacobi_E is None else jacobi_E
    z = np.stack([2.0 * E - s, 2.0 * k * (1.0 - C)], axis=-1)
    return w * _rotate(phi, z) + (x0, y0)


def _segment_partials_arr(p, t, with_second, jacobi_E=None):
    """Segment points with their first parameter partials, and the zeta
    blocks the second partials are made of.

    Returns (y, dy, blocks, jacobi_E): y (n, 2), dy (7, n, 2) indexed by
    parameter first, the (n, 6, 2) blocks of _zeta_blocks at the
    arclengths s0 + ell*t, and jacobi_E = (sn, cn, dn, E) there (the one
    passed in, if any).  The second-derivative blocks are left zero unless
    with_second (see _zeta_blocks).
    """
    k, s0, ell, w, phi, x0, y0 = p
    blocks, jacobi_E = _zeta_blocks(s0 + ell * t, k, with_second, jacobi_E)
    rb = _rotate(phi, blocks[:, [0, 1, 3]])     # R_phi @ value, d/ds, d/dk
    y = w * rb[:, 0] + (x0, y0)
    dy = np.zeros((7, len(t), 2))
    dy[0] = w * rb[:, 2]                        # k
    dy[1] = w * rb[:, 1]                        # s0
    dy[2] = t[:, None] * w * rb[:, 1]           # ell
    dy[3] = rb[:, 0]                            # w
    dy[4, :, 0] = -w * rb[:, 0, 1]              # phi: R_(phi + pi/2) @ zeta
    dy[4, :, 1] = w * rb[:, 0, 0]
    dy[5, :, 0] = 1.0                           # x0
    dy[6, :, 1] = 1.0                           # y0
    return y, dy, blocks, jacobi_E


def _second_partials_dot(v, t, blocks, w, phi):
    """sum_i v_i . d2y_i / dp dp': the second parameter partials of the
    segment at the nodes t, contracted with vectors v of shape (..., n, 2),
    as a symmetric (..., 7, 7) array; blocks are _zeta_blocks at the nodes.

    Every second partial is w * R_phi or w * R_(phi + pi/2) applied to one
    zeta block, times 1, t or t^2 (w-partials drop the factor w), so the
    sum takes v back by R_-phi once and needs only the dot products of the
    blocks with it and its quarter turn, summed against 1, t and t^2.  This
    table is the only statement of the second partials.
    """
    u = _rotate(-phi, v)
    ub = u[..., None, 0] * blocks[..., 0] + u[..., None, 1] * blocks[..., 1]
    qb = u[..., None, 1] * blocks[..., 0] - u[..., None, 0] * blocks[..., 1]
    powers = np.stack([np.ones_like(t), t, t * t])
    D = powers @ ub     # D[..., j, m] = sum_i t_i^j u_i . block_m
    Q = powers @ qb     # the same for R_(phi + pi/2)
    h = np.zeros(D.shape[:-2] + (7, 7))
    for (i, j), val in {
        (0, 0): w * D[..., 0, 5],       # k k
        (0, 1): w * D[..., 0, 4],       # k s0
        (0, 2): w * D[..., 1, 4],       # k ell
        (0, 3): D[..., 0, 3],           # k w
        (0, 4): w * Q[..., 0, 3],       # k phi
        (1, 1): w * D[..., 0, 2],       # s0 s0
        (1, 2): w * D[..., 1, 2],       # s0 ell
        (1, 3): D[..., 0, 1],           # s0 w
        (1, 4): w * Q[..., 0, 1],       # s0 phi
        (2, 2): w * D[..., 2, 2],       # ell ell
        (2, 3): D[..., 1, 1],           # ell w
        (2, 4): w * Q[..., 1, 1],       # ell phi
        (3, 4): Q[..., 0, 0],           # w phi
        (4, 4): -w * D[..., 0, 0],      # phi phi
    }.items():
        h[..., i, j] = h[..., j, i] = val
    return h


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
    parameters: arrays of shape (7, 2) and (7, 7, 2).  The (7, 7, 2)
    tensor is assembled only here, for this one-node oracle, by contracting
    the second partials with the two unit vectors."""
    if second and p.k < K_MIN:
        raise DomainError(f"second partials need k >= {K_MIN} (got {p.k})")
    t = np.array([float(t)])
    _, dy, blocks, _ = _segment_partials_arr(p.as_array(), t, second)
    if second:
        d2y = _second_partials_dot(np.eye(2)[:, None], t, blocks, p.w, p.phi)
        return dy[:, 0], np.moveaxis(d2y, 0, -1)
    return dy[:, 0], None
