"""Closed-form evaluation of elastica segments and their derivatives.

The basic elastica through the origin with tangent angle 0 and initial
curvature 2k is zeta_k(s) = (2*E(s,k) - s) + i*2*k*(1 - cn(s,k)), a point
x + iy of the complex plane, and every elastica segment is a similarity of
it, one complex multiply-add:

    y(t) = w e^(i phi) zeta_k(s0 + ell*t) + x0 + i y0,   t in [0, 1].

The kernels keep points and vectors complex, so a quarter turn is a
multiply by i; the public functions return float (..., 2) pairs.  All
first and second derivatives with respect to arclength and the seven
parameters (k, s0, ell, w, phi, x0, y0) are in closed form; the second
k-derivative divides by k and is undefined at k = 0.  Second parameter
partials are used only contracted with vectors at the nodes
(_second_partials_dot), as the real and imaginary parts of one product;
the (7, 7, 2) tensor is assembled only by the one-node oracle
segment_partials.
"""

import cmath
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
    complex (n, 6), as float (n, 6, 2): value, d/ds, d2/ds2, d/dk, d2/dsdk,
    d2/dk2, and the (sn, cn, dn, E) they came from: jacobi_E, the (4, n)
    _jacobi_E_arr(s, k), if the caller has it.  The second-derivative
    blocks are left zero unless second; d2/dk2, which divides by k, also
    unless k >= K_MIN."""
    if jacobi_E is None:
        jacobi_E = _jacobi_E_arr(s, k)
    S, C, D, E = jacobi_E
    k2, kp2 = k * k, 1.0 - k * k
    SD, CC, DD, SS, Es, G = S * D, C * C, D * D, S * S, E - s, E - s * kp2
    out = np.zeros((len(s), 6), complex)
    v = out.view(float)     # column 2m is block m's x, 2m + 1 its y
    v[:, 0] = 2.0 * E - s
    v[:, 1] = (2.0 * k) * (1.0 - C)
    v[:, 2] = 2.0 * DD - 1.0
    v[:, 3] = (2.0 * k) * SD
    v[:, 6] = (2.0 * k / kp2) * (SD * C - E * CC - (s * kp2) * SS)
    v[:, 7] = (2.0 / kp2) * (kp2 + C * (k2 - DD) - SD * G)
    if not second:
        return out, jacobi_E
    # the tangent zeta_s turns at rate 2k cn along s and f along k
    out[:, 2] = (2j * k) * C * out[:, 1]
    out[:, 4] = (2j / kp2) * (SD - C * G) * out[:, 1]
    if k >= K_MIN:
        ss = s * s
        a0 = (2.0 * SD * C) * (DD - k2 * E * E
                               + kp2 * (k2 * ss - Es * Es - 0.5))
        a1 = (1.0 / k) * ((1.0 - 2.0 * k2 * SS) * Es * (2.0 * k2 * s + Es) * C
                          - SD * G * (4.0 * k2 * CC + kp2))
        b0 = (Es * (CC + DD - 4.0 * CC * DD)
              + (2.0 * k2) * s * (2.0 * SS - 1.0) * DD - s * kp2)
        b1 = k * (C * (k2 * ss + SS * (2.0 + k2 - (2.0 * k2 * k2) * ss
                                       - (2.0 * k2) * SS))
                  - kp2 * s * SD)
        v[:, 10] = (2.0 / (kp2 * kp2)) * (a0 + b0)
        v[:, 11] = (2.0 / (kp2 * kp2)) * (a1 + b1)
    return out, jacobi_E


def _segment_eval_arr(p, t, jacobi_E=None):
    """Points x + iy, (n,), of the segment p = (k, s0, ell, w, phi, x0, y0)
    at an array of t values, from jacobi_E = _jacobi_E_arr(s0 + ell*t, k)
    if the caller has it."""
    k, s0, ell, w, phi, x0, y0 = p
    s = s0 + ell * t
    _, C, _, E = _jacobi_E_arr(s, k) if jacobi_E is None else jacobi_E
    z = (2.0 * E - s) + 2j * k * (1.0 - C)
    return cmath.rect(w, phi) * z + complex(x0, y0)


def _segment_partials_arr(p, t, with_second, jacobi_E=None):
    """(y, dy, blocks, jacobi_E): the segment points y (n,) and their first
    parameter partials dy (7, n), complex, the (n, 6) _zeta_blocks at the
    arclengths s0 + ell*t, and (sn, cn, dn, E) there (jacobi_E, if passed).
    Viewed as float, dy is the (7, 2n) Jacobian of x_0, y_0, x_1, ...  The
    second-derivative blocks are left zero unless with_second."""
    k, s0, ell, w, phi, x0, y0 = p
    blocks, jacobi_E = _zeta_blocks(s0 + ell * t, k, with_second, jacobi_E)
    rot, wrot = cmath.rect(1.0, phi), cmath.rect(w, phi)
    wz = wrot * blocks[:, 0]
    dy = np.empty((7, len(t)), complex)
    dy[0] = wrot * blocks[:, 3]                 # k
    dy[1] = wrot * blocks[:, 1]                 # s0
    dy[2] = t * dy[1]                           # ell
    dy[3] = rot * blocks[:, 0]                  # w
    dy[4] = 1j * wz                             # phi: the quarter turn
    dy[5] = 1.0                                 # x0
    dy[6] = 1j                                  # y0
    return wz + complex(x0, y0), dy, blocks, jacobi_E


#: The second partial d2y/dp_i dp_j of y = w e^(i phi) zeta(s0 + ell t, k)
#: + x0 + i y0 is w e^(i phi) zeta differentiated along k for each k and
#: along s for each s0 or ell, times t per ell and i per phi, and without w
#: if p_i or p_j is w: rows (i, j, power of t, zeta block, power of i,
#: factor w) for i <= j, the only statement of the second partials.
_SECOND_PARTIALS = np.array([
    (i, j, (i, j).count(2),
     (0, 3, 5)[(i, j).count(0)] + (i, j).count(1) + (i, j).count(2),
     (i, j).count(4), 3 not in (i, j))
    for i in range(5) for j in range(i, 5) if (i, j) != (3, 3)]).T


def _second_partials_dot(v, t, blocks, w, phi):
    """sum_i v_i . d2y_i / dp dp', the second parameter partials at the
    nodes t contracted with complex vectors v (..., n), as a symmetric
    (..., 7, 7) array; blocks are _zeta_blocks at the nodes.  As
    v . z = Re(conj(v) z), each row of _SECOND_PARTIALS is the real part
    of i^q (w) P[..., a, m] from one product P[..., a, m] = sum_i t_i^a
    conj(v_i) e^(i phi) block_m(i): the real and minus the imaginary part.
    """
    i, j, a, m, q, wf = _SECOND_PARTIALS
    u = np.conj(v) * cmath.rect(1.0, phi)
    X = u[..., None] * blocks           # (..., n, 6)
    P = (t ** np.arange(3.0)[:, None] @ X.view(float)).view(complex)
    vals = (P[..., a, m] * np.array([1.0, 1j, -1.0])[q]).real \
        * np.where(wf, w, 1.0)
    h = np.zeros(P.shape[:-2] + (7, 7))
    h[..., i, j] = vals
    h[..., j, i] = vals
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
    b = _zeta_blocks(np.array([s], float), k, True)[0].view(float).reshape(6, 2)
    return BasicDerivatives(ds=b[1], dss=b[2], dk=b[3], dsk=b[4], dkk=b[5])


def segment_eval(p: ElasticaParams, t: float) -> np.ndarray:
    """Point of the transformed segment at parameter t (constant speed |ell|*w)."""
    s = p.s0 + p.ell * float(t)
    _, cn, _, e = _jacobi_E(s, p.k)
    y = cmath.rect(p.w, p.phi) * complex(2.0 * e - s, 2.0 * p.k * (1.0 - cn))
    return np.array([y.real + p.x0, y.imag + p.y0])


def segment_eval_many(p: ElasticaParams, t: np.ndarray) -> np.ndarray:
    """Vectorized ``segment_eval`` over an array of parameter values."""
    return _segment_eval_arr(p.as_array(), np.asarray(t, dtype=float)) \
        .view(float).reshape(-1, 2)


def _finite_t(t) -> float:
    """t clamped to [0, 1], as curve._locate does; non-finite t raises."""
    if not math.isfinite(t):
        raise DomainError(f"non-finite curve parameter: {t!r}")
    return t if 0.0 <= t <= 1.0 else min(max(t, 0.0), 1.0)


class ElasticaCurve:
    """Curve-protocol adapter exposing an elastica segment as a plane curve,
    so exact elastica can be sampled, fitted, and used as test targets.
    Its methods take one scalar t, clamped to [0, 1], and its speed is the
    constant |ell|*w, so sample takes its exact arclength |ell|*w*t."""

    def __init__(self, params: ElasticaParams):
        self.params = params

    def point(self, t):
        return segment_eval(self.params, _finite_t(t))

    def derivative(self, t):
        p = self.params
        S, _, D, _ = _jacobi_E(p.s0 + p.ell * _finite_t(t), p.k)
        y = cmath.rect(p.ell * p.w, p.phi) * complex(2.0 * D * D - 1.0,
                                                     2.0 * p.k * S * D)
        return np.array([y.real, y.imag])

    def second_derivative(self, t):
        p = self.params
        S, C, D, _ = _jacobi_E(p.s0 + p.ell * _finite_t(t), p.k)
        y = cmath.rect(p.ell ** 2 * p.w, p.phi) * 2j * p.k * C * complex(
            2.0 * D * D - 1.0, 2.0 * p.k * S * D)   # i 2k cn zeta_s
        return np.array([y.real, y.imag])

    def trimmed(self, t0, t1):
        if not 0.0 <= t0 < t1 <= 1.0:
            raise DomainError(f"invalid trim interval [{t0}, {t1}]")
        p = self.params
        return ElasticaCurve(ElasticaParams(
            k=p.k, s0=p.s0 + p.ell * t0, ell=p.ell * (t1 - t0),
            w=p.w, phi=p.phi, x0=p.x0, y0=p.y0))


def segment_partials(p: ElasticaParams, t: float, second: bool = True):
    """First (and second) partials of segment_eval with respect to the seven
    parameters: arrays of shape (7, 2) and (7, 7, 2).  The (7, 7, 2)
    tensor is assembled only here, for this one-node oracle, by contracting
    the second partials with the two unit vectors 1 and i."""
    if second and p.k < K_MIN:
        raise DomainError(f"second partials need k >= {K_MIN} (got {p.k})")
    t = np.array([float(t)])
    _, dy, blocks, _ = _segment_partials_arr(p.as_array(), t, second)
    if second:
        d2y = _second_partials_dot(np.eye(2).view(complex), t, blocks,
                                   p.w, p.phi)
        return dy.view(float), np.moveaxis(d2y, 0, -1)
    return dy.view(float), None
