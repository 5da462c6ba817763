"""Canonical initial-guess recovery of the seven elastica parameters from an
arbitrary sampled plane curve.

Pipeline: least-squares affine-curvature fit (lambda1, lambda2, alpha), the
parabola offset beta, classification into inflectional / non-inflectional,
modulus k, amplitude case analysis recovering (s0, ell), then the similarity
(w, phi, x0, y0) for that shape by the fit's closed-form alignment
(fitting._align_similarity), and the residuals R1..R4.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .curve import CurveSamples, integrate_ds
from .elastica import ElasticaParams, _chart_modulus
from .elliptic import incomplete_F
from .errors import DegenerateInputError
from .fitting import _align_similarity, _jacobi_E_nodes, _unit_map, \
    _unit_target, residual_r4

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
    cos_theta_u: np.ndarray


@dataclass(frozen=True)
class RecoveryReport:
    """The outcome of initial_guess.  params describe the samples as given;
    n_segments and u_increasing_at_start describe the traversal whose
    curvature the shape was recovered on.  reversed_input is always False
    and kept only for callers that still read it: a curve traversed
    backwards is described by ell < 0 instead."""

    params: ElasticaParams
    inflectional: bool
    n_segments: int
    u_increasing_at_start: bool
    R1: float
    R2: float
    R3: float
    R4: float
    clamped_fraction: float
    degenerate: Optional[str] = None
    reversed_input: bool = False


def affine_curvature_fit(samples: CurveSamples) -> AffineCurvatureFit:
    """Solve the 3x3 normal equations for (lambda1, lambda2, alpha), then the
    mean-defect formula for beta, with the normalized residuals R1 and R2."""
    x = samples.points[:, 0]
    y = samples.points[:, 1]
    kap = samples.kappa
    L = samples.length

    def I(f):
        return integrate_ds(samples, f)

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

    kap_sq = I(kap * kap)
    defect1 = I((kap + lam1 * y - lam2 * x - alpha) ** 2)
    R1 = math.sqrt(max(defect1, 0.0) / kap_sq) if kap_sq > 0 else 0.0

    if lam > 0:
        u = (lam2 * x - lam1 * y) / lam
        sin_tu = (lam1 * np.cos(samples.theta)
                  + lam2 * np.sin(samples.theta)) / lam
        cos_tu = (lam2 * np.cos(samples.theta)
                  - lam1 * np.sin(samples.theta)) / lam
        beta = I(sin_tu - 0.5 * lam * u * u - alpha * u) / L
        R2 = math.sqrt(max(
            I((sin_tu - 0.5 * lam * u * u - alpha * u - beta) ** 2), 0.0) / L)
        w = 1.0 / math.sqrt(lam)
        phi = math.atan2(lam2, lam1)
    else:
        u = np.zeros_like(x)
        cos_tu = np.zeros_like(x)
        beta, R2, w, phi = 0.0, 0.0, None, None
    if lam <= LAMBDA_MIN_REL / L ** 2:
        w, phi = None, None
    return AffineCurvatureFit(lambda1=float(lam1), lambda2=float(lam2),
                              alpha=float(alpha), beta=float(beta),
                              lam=float(lam), w=w, phi=phi, R1=R1, R2=R2,
                              u=u, cos_theta_u=cos_tu)


def classify_and_modulus(fit: AffineCurvatureFit):
    """(inflectional, k) from the parabola minimum and the delta- formula."""
    lam, alpha, beta = fit.lam, fit.alpha, fit.beta
    min_p = beta - alpha ** 2 / (2 * lam)
    inflectional = min_p >= -1.0
    delta_minus_sq = max(alpha ** 2 - 2 * lam * (beta - 1.0), 0.0)
    k = math.sqrt(delta_minus_sq) / (2 * math.sqrt(lam))
    # keep the modulus on the classification's side of 1; no K_MAX cap, so
    # that an exact elastica of larger modulus is still recovered exactly
    return inflectional, _chart_modulus(k, not inflectional, math.inf)


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
                         inflectional: bool, k: float):
    """(s0, ell, n_segments, u_increasing_at_start, clamped_fraction, R3) by
    the amplitude case analysis on the monotone runs of u."""
    lam, alpha, beta = fit.lam, fit.alpha, fit.beta
    w = fit.w
    u = fit.u
    L = samples.length

    delta_minus = math.sqrt(max(alpha ** 2 - 2 * lam * (beta - 1.0), 0.0))
    u_max = (-alpha + delta_minus) / lam
    if inflectional:
        u_min = (-alpha - delta_minus) / lam
    else:
        delta_plus = math.sqrt(max(alpha ** 2 - 2 * lam * (beta + 1.0), 0.0))
        u_min = (-alpha + delta_plus) / lam

    # direction of u at the start: first sample with a significant du/ds,
    # tie broken toward decreasing
    dus = fit.cos_theta_u
    significant = np.flatnonzero(np.abs(dus) > 1e-6 * np.max(np.abs(dus)))
    increasing = bool(significant.size) and bool(dus[significant[0]] > 0)

    # oscillation counting with the minimal-height rule; the first and last
    # runs contain the curve endpoints and are genuinely partial, so the
    # height rule is applied to interior runs only
    runs = _monotone_runs(u)
    height_min = OSCILLATION_HEIGHT_FRACTION * (u_max - u_min)
    counted = [r for i, r in enumerate(runs)
               if i in (0, len(runs) - 1)
               or abs(u[r[1]] - u[r[0]]) >= height_min]
    if not counted:
        counted = [max(runs, key=lambda r: abs(u[r[1]] - u[r[0]]))]
    n = len(counted)

    # out-of-range measure
    outside = (u < u_min) | (u > u_max)
    R3 = integrate_ds(samples, outside.astype(float)) / L
    clamped_fraction = float(np.mean(outside))

    # amplitude of a drop du below u_max, on a half-period P of the
    # amplitude; non-inflectional curves run on the reciprocal modulus
    if inflectional:
        P, k_am, scale = math.pi, k, 1.0

        def amplitude(du):
            return math.acos(min(max(1.0 - du / (2 * k * w), -1.0), 1.0))
    else:
        P, k_am, scale = math.pi / 2, 1.0 / k, k
        cn_floor = math.sqrt(max(1.0 - 1.0 / k ** 2, 0.0))

        def amplitude(du):
            du = min(max(du, 0.0), 2 * k * w * (1.0 - cn_floor))
            return math.asin(
                min(math.sqrt(max(du / w * (k - du / (4 * w)), 0.0)), 1.0))
    a0 = amplitude(u_max - u[0])
    a1 = amplitude(u_max - u[-1])
    if not increasing:
        am0 = a0
        am1 = (n - 1) * P + a1 if n % 2 else n * P - a1
    else:
        am0 = 2 * P - a0
        am1 = (n + 1) * P - a1 if n % 2 else n * P + a1
    s0 = incomplete_F(am0, k_am) / scale
    s1 = incomplete_F(am1, k_am) / scale
    ell = s1 - s0
    if ell <= 0:
        # clamping collapsed the interval; fall back to the arclength extent
        ell = L / w
    return s0, ell, n, increasing, clamped_fraction, R3


def _degenerate_report(samples: CurveSamples, fit: AffineCurvatureFit):
    """Line / circular-arc outcome for lambda below the threshold."""
    L = samples.length
    mean_kappa = integrate_ds(samples, samples.kappa) / L
    kind = "line" if abs(mean_kappa) * L < 1e-6 else "circle"
    p0 = samples.points[0]
    params = ElasticaParams(k=0.0, s0=0.0, ell=L, w=1.0,
                            phi=float(samples.theta[0]),
                            x0=float(p0[0]), y0=float(p0[1]))
    return RecoveryReport(
        params=params, inflectional=True, n_segments=1,
        u_increasing_at_start=False, R1=fit.R1, R2=fit.R2, R3=0.0,
        R4=residual_r4(params, samples), clamped_fraction=0.0,
        degenerate=kind)


def initial_guess(samples: CurveSamples) -> RecoveryReport:
    """Full parameter recovery producing a canonical initial guess.

    The affine curvature fit and the amplitude case analysis give the shape
    (k, s0, ell); the similarity (w, phi, x0, y0) is the one that minimizes
    the L2 objective for that shape, by the weighted similarity Procrustes
    of fitting._align_similarity.  So w and phi may differ from those of
    the affine curvature fit, which recover_arc_interval reads.

    The parameters describe the samples as given.  A non-inflectional
    curve of negative curvature has its shape recovered on the samples
    traversed the other way, and mapped back by (s0, ell) ->
    (s0 + ell, -ell): ell < 0 runs the segment toward decreasing arclength.

    It runs on fit's unit-length copy of the samples, mapped back by
    fitting._unit_map, so the guess is the same at any scale and place.
    """
    unit = _unit_target(samples)
    fit = affine_curvature_fit(unit)
    if fit.w is None:
        return _degenerate_report(samples, fit)
    inflectional, k = classify_and_modulus(fit)
    shape = unit
    if not inflectional and integrate_ds(unit, unit.kappa) < 0:
        shape = unit.reversed()
        fit = affine_curvature_fit(shape)
        inflectional, k = classify_and_modulus(fit)
    s0, ell, n, increasing, clamped, R3 = recover_arc_interval(
        shape, fit, inflectional, k)
    if shape is not unit:
        s0, ell = s0 + ell, -ell
    q = np.array([k, s0, ell, fit.w, fit.phi, 0.0, 0.0])
    # the alignment keeps (k, s0, ell), so its evaluation also gives R4
    jacobi_E = _jacobi_E_nodes(q, unit)
    params = ElasticaParams.from_array(
        _unit_map(_align_similarity(q, unit, jacobi_E), samples, inverse=True))
    return RecoveryReport(
        params=params, inflectional=inflectional, n_segments=n,
        u_increasing_at_start=increasing, R1=fit.R1, R2=fit.R2, R3=R3,
        R4=residual_r4(params, samples, jacobi_E), clamped_fraction=clamped)
