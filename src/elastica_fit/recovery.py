"""Canonical initial-guess recovery of the seven elastica parameters from an
arbitrary sampled plane curve.

Pipeline: least-squares affine-curvature fit (lambda1, lambda2, alpha), the
parabola offset beta, the modulus k in fitting's chart (inflectional below
1), amplitude case analysis recovering (s0, ell), then the similarity
(w, phi, x0, y0) for that shape by the fit's closed-form alignment
(fitting._align_similarity), and the residuals R1..R4.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .curve import CurveSamples
from .elastica import ElasticaParams
from .elliptic import incomplete_F
from .errors import DegenerateInputError
from .fitting import _align_similarity, _chart_modulus, _jacobi_E_at, \
    _unit_map, residual_r4

# not called here: perfbench's tracer test checks that the tracer patches
# segment_eval_many in this module's namespace too
from .elastica import segment_eval_many  # noqa: F401

#: below lambda_min * (1/L^2) the curve is treated as constant-curvature
LAMBDA_MIN_REL = 1e-8

#: oscillation height threshold, as a fraction of u_max - u_min
OSCILLATION_HEIGHT_FRACTION = 0.5


@dataclass(frozen=True)
class AffineCurvatureFit:
    """Result of fitting kappa = lambda*u + alpha and P(u) = sin(theta_u)."""

    lambda1: float
    lambda2: float
    alpha: float
    beta: float
    lam: float
    w: Optional[float]
    phi: Optional[float]
    R1: float
    R2: float
    u: np.ndarray


@dataclass(frozen=True)
class RecoveryReport:
    """The outcome of initial_guess.  params describe the samples as given;
    n_segments the monotone runs of u that recover_arc_interval counts.
    reversed_input is always False and kept only for callers that still
    read it: a curve traversed backwards is described by ell < 0 instead."""

    params: ElasticaParams
    inflectional: bool
    n_segments: int
    R1: float
    R2: float
    R3: float
    R4: float
    degenerate: Optional[str] = None
    reversed_input: bool = False


def affine_curvature_fit(samples: CurveSamples) -> AffineCurvatureFit:
    """Solve the 3x3 normal equations for (lambda1, lambda2, alpha), then the
    mean-defect formula for beta, with the normalized residuals R1 and R2.
    It expects samples of about unit length, as initial_guess passes: its
    moment matrix holds lengths cubed, which overflow or vanish far from 1."""
    x = samples.points[:, 0]
    y = samples.points[:, 1]
    kap = samples.kappa
    L = samples.length
    wts = samples.weights

    if np.max(np.abs(kap)) * L > LAMBDA_MIN_REL:
        # normal equations M^T diag(w) M (lambda1, lambda2, alpha) =
        # M^T diag(w) kappa for kappa = -lambda1 y + lambda2 x + alpha
        M = np.stack([-y, x, np.ones_like(x)], axis=1)
        Mw = M.T * samples.weights
        try:
            lam1, lam2, alpha = np.linalg.solve(Mw @ M, Mw @ kap)
        except np.linalg.LinAlgError as exc:
            raise DegenerateInputError(
                f"singular curvature moment system: {exc}")
    else:
        # straight, at any scale: kappa = 0 is fitted to rounding, and the
        # moment matrix is singular when the points are collinear
        lam1 = lam2 = alpha = 0.0
    lam = math.hypot(lam1, lam2)

    kap_sq = kap * kap @ wts
    defect1 = (kap + lam1 * y - lam2 * x - alpha) ** 2 @ wts
    R1 = math.sqrt(max(defect1, 0.0) / kap_sq) if kap_sq > 0 else 0.0

    if lam > 0:
        u = (lam2 * x - lam1 * y) / lam
        sin_tu = (lam1 * np.cos(samples.theta)
                  + lam2 * np.sin(samples.theta)) / lam
        defect2 = sin_tu - 0.5 * lam * u * u - alpha * u
        beta = defect2 @ wts / L
        R2 = math.sqrt(max((defect2 - beta) ** 2 @ wts, 0.0) / L)
        w = 1.0 / math.sqrt(lam)
        phi = math.atan2(lam2, lam1)
    else:
        u = np.zeros_like(x)
        beta, R2, w, phi = 0.0, 0.0, None, None
    if lam <= LAMBDA_MIN_REL / L ** 2:
        w, phi = None, None
    return AffineCurvatureFit(lambda1=float(lam1), lambda2=float(lam2),
                              alpha=float(alpha), beta=float(beta),
                              lam=float(lam), w=w, phi=phi, R1=R1, R2=R2,
                              u=u)


def classify_and_modulus(fit: AffineCurvatureFit):
    """Charted k of the delta- formula; inflectional is k < 1: min P >= -1."""
    lam, alpha, beta = fit.lam, fit.alpha, fit.beta
    delta_minus_sq = max(alpha ** 2 - 2 * lam * (beta - 1.0), 0.0)
    return _chart_modulus(math.sqrt(delta_minus_sq) / (2 * math.sqrt(lam)))


def _monotone_runs(u):
    """Maximal monotone runs of the sampled u-values, as a list of
    (start_index, end_index, increasing) with end inclusive."""
    signs = np.sign(np.diff(u))
    nonzero = np.flatnonzero(signs)
    if nonzero.size:
        # zero differences take the last nonzero direction before them,
        # leading ones the first nonzero direction
        fill = np.where(signs != 0, np.arange(len(signs)), nonzero[0])
        signs = signs[np.maximum.accumulate(fill)]
    cuts = np.flatnonzero(signs[1:] != signs[:-1]) + 1
    starts = np.concatenate([[0], cuts])
    ends = np.append(cuts, len(u) - 1)
    return list(zip(starts.tolist(), ends.tolist(),
                    (signs[starts] > 0).tolist()))


def recover_arc_interval(samples: CurveSamples, fit: AffineCurvatureFit,
                         k: float):
    """(s0, ell, n_segments, R3) by the amplitude case analysis on the
    monotone runs of u, inflectional for k < 1.  The start direction is
    the first counted run's, and one half-period rule places both ends.

    A non-inflectional curve of negative mean curvature is read backwards,
    alpha -> -alpha and u -> -u[::-1] as its reversed samples' fit has
    them, and mapped back by (s0, ell) -> (s0 + ell, -ell), so ell < 0."""
    lam, alpha, beta = fit.lam, fit.alpha, fit.beta
    w = fit.w
    u = fit.u
    L = samples.length
    wts = samples.weights
    backwards = k > 1.0 and samples.kappa @ wts < 0
    if backwards:
        alpha, u, wts = -alpha, -u[::-1], wts[::-1]

    # u's range, and the amplitude of a drop du below u_max on a half-period
    # P; non-inflectional curves run on the reciprocal modulus
    delta_minus = math.sqrt(max(alpha ** 2 - 2 * lam * (beta - 1.0), 0.0))
    u_max = (-alpha + delta_minus) / lam
    if k < 1.0:
        u_min = (-alpha - delta_minus) / lam
        P, k_am, scale = math.pi, k, 1.0

        def amplitude(du):
            return math.acos(min(max(1.0 - du / (2 * k * w), -1.0), 1.0))
    else:
        delta_plus = math.sqrt(max(alpha ** 2 - 2 * lam * (beta + 1.0), 0.0))
        u_min = (-alpha + delta_plus) / lam
        P, k_am, scale = math.pi / 2, 1.0 / k, k
        cn_floor = math.sqrt(max(1.0 - 1.0 / k ** 2, 0.0))

        def amplitude(du):
            du = min(max(du, 0.0), 2 * k * w * (1.0 - cn_floor))
            return math.asin(
                min(math.sqrt(max(du / w * (k - du / (4 * w)), 0.0)), 1.0))

    # oscillation counting with the minimal-height rule; the first and last
    # runs contain the curve endpoints and are genuinely partial, so the
    # height rule is applied to interior runs only
    runs = _monotone_runs(u)
    height_min = OSCILLATION_HEIGHT_FRACTION * (u_max - u_min)
    counted = [r for i, r in enumerate(runs)
               if i in (0, len(runs) - 1)
               or abs(u[r[1]] - u[r[0]]) >= height_min]
    n = len(counted)
    increasing = counted[0][2]

    # out-of-range measure: u within rounding of a range end is inside
    tol = 64 * np.finfo(float).eps * max(abs(u_min), abs(u_max))
    outside = (u < u_min - tol) | (u > u_max + tol)
    R3 = float(outside @ wts) / L

    def arclength(j, a):
        """Arclength of amplitude a on half-period j, where u falls from
        u_max for even j and rises back to it for odd j."""
        am = j * P + a if j % 2 == 0 else (j + 1) * P - a
        return incomplete_F(am, k_am) / scale

    j0 = int(increasing)
    s0 = arclength(j0, amplitude(u_max - u[0]))
    ell = arclength(j0 + n - 1, amplitude(u_max - u[-1])) - s0
    if ell <= 0:
        # clamping collapsed the interval; fall back to the arclength extent
        ell = L / w
    if backwards:
        s0, ell = s0 + ell, -ell
    return s0, ell, n, R3


def _degenerate_report(samples: CurveSamples, fit: AffineCurvatureFit):
    """Line / circular-arc outcome for lambda below the threshold."""
    L = samples.length
    mean_kappa = samples.kappa @ samples.weights / L
    kind = "line" if abs(mean_kappa) * L < 1e-6 else "circle"
    p0 = samples.points[0]
    params = ElasticaParams(k=0.0, s0=0.0, ell=L, w=1.0,
                            phi=float(samples.theta[0]),
                            x0=float(p0[0]), y0=float(p0[1]))
    return RecoveryReport(
        params=params, inflectional=True, n_segments=1, R1=fit.R1,
        R2=fit.R2, R3=0.0, R4=residual_r4(params, samples), degenerate=kind)


def initial_guess(samples: CurveSamples) -> RecoveryReport:
    """Full parameter recovery producing a canonical initial guess.

    The affine curvature fit and the amplitude case analysis give the shape
    (k, s0, ell); the similarity (w, phi, x0, y0) is the one that minimizes
    the L2 objective for that shape, by the weighted similarity Procrustes
    of fitting._align_similarity.  So w and phi may differ from those of
    the affine curvature fit, which recover_arc_interval reads.

    The parameters describe the samples as given: recover_arc_interval
    reads a non-inflectional curve of negative curvature backwards.

    It runs on the unit-length copy of the samples that fit solves on,
    CurveSamples.unit, mapped back by fitting._unit_map, so the guess is
    the same at any scale and place.
    """
    unit = samples.unit
    fit = affine_curvature_fit(unit)
    if fit.w is None:
        return _degenerate_report(samples, fit)
    k = classify_and_modulus(fit)
    s0, ell, n, R3 = recover_arc_interval(unit, fit, k)
    q = np.array([k, s0, ell, fit.w, fit.phi, 0.0, 0.0])
    # the alignment keeps (k, s0, ell), so its zeta values also give R4
    q, z = _align_similarity(q, unit, _jacobi_E_at(q, unit.tau))
    params = ElasticaParams.from_array(_unit_map(q, samples, inverse=True))
    return RecoveryReport(
        params=params, inflectional=k < 1.0, n_segments=n, R1=fit.R1,
        R2=fit.R2, R3=R3, R4=residual_r4(params, samples, z))
