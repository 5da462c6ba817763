"""Canonical initial-guess recovery of the seven elastica parameters from an
arbitrary sampled plane curve.

Pipeline: least-squares affine-curvature fit (lambda1, lambda2, alpha), the
parabola offset beta, classification into inflectional / non-inflectional,
modulus k, amplitude case analysis recovering (s0, ell), least-squares
translation, and the residuals R1..R4.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .curve import CurveSamples, integrate_ds
from .elastica import K_MIN, ElasticaParams, segment_eval_many
from .elliptic import K_GUARD_BAND, incomplete_F, quarter_period
from .errors import DegenerateInputError
from .fitting import residual_r4

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
    sin_theta_u: np.ndarray
    cos_theta_u: np.ndarray


@dataclass(frozen=True)
class RecoveryReport:
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

    if np.any(kap):
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
        # straight: kappa = 0 is fitted exactly, and the moment matrix is
        # singular when the points are collinear
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
        sin_tu = np.zeros_like(x)
        cos_tu = np.zeros_like(x)
        beta, R2, w, phi = 0.0, 0.0, None, None
    if lam <= LAMBDA_MIN_REL / L ** 2:
        w, phi = None, None
    return AffineCurvatureFit(lambda1=float(lam1), lambda2=float(lam2),
                              alpha=float(alpha), beta=float(beta),
                              lam=float(lam), w=w, phi=phi, R1=R1, R2=R2,
                              u=u, sin_theta_u=sin_tu, cos_theta_u=cos_tu)


def classify_and_modulus(fit: AffineCurvatureFit):
    """(inflectional, k) from the parabola minimum and the delta- formula."""
    lam, alpha, beta = fit.lam, fit.alpha, fit.beta
    min_p = beta - alpha ** 2 / (2 * lam)
    inflectional = min_p >= -1.0
    delta_minus_sq = max(alpha ** 2 - 2 * lam * (beta - 1.0), 0.0)
    k = math.sqrt(delta_minus_sq) / (2 * math.sqrt(lam))
    # keep the classification and the modulus consistent, outside the guard
    # band and above the k = 0 chart boundary
    if inflectional:
        k = min(k, 1.0 - 2 * K_GUARD_BAND)
    else:
        k = max(k, 1.0 + 2 * K_GUARD_BAND)
    return inflectional, max(k, K_MIN)


def _monotone_runs(u):
    """Maximal monotone runs of the sampled u-values, as a list of
    (start_index, end_index, increasing) with end inclusive."""
    du = np.diff(u)
    signs = np.sign(du)
    # zero differences inherit the previous direction
    for i in range(1, len(signs)):
        if signs[i] == 0:
            signs[i] = signs[i - 1]
    for i in range(len(signs) - 2, -1, -1):
        if signs[i] == 0:
            signs[i] = signs[i + 1]
    runs = []
    start = 0
    for i in range(1, len(signs)):
        if signs[i] != signs[i - 1]:
            runs.append((start, i, signs[i - 1] > 0))
            start = i
    runs.append((start, len(u) - 1, signs[-1] > 0))
    return runs


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

    # direction of u at the start: first sample with a significant du/ds
    dus = fit.cos_theta_u
    thresh = 1e-6 * float(np.max(np.abs(dus))) if np.max(np.abs(dus)) > 0 else 0.0
    increasing = False  # tie broken toward decreasing
    for v in dus:
        if abs(v) > thresh:
            increasing = v > 0
            break

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

    du0 = u_max - u[0]
    du1 = u_max - u[-1]
    if inflectional:
        def cn_of(du):
            return min(max(1.0 - du / (2 * k * w), -1.0), 1.0)

        a0 = math.acos(cn_of(du0))
        a1 = math.acos(cn_of(du1))
        if not increasing:
            am0 = a0
            am1 = (n - 1) * math.pi + a1 if n % 2 else n * math.pi - a1
        else:
            am0 = 2 * math.pi - a0
            am1 = (n + 1) * math.pi - a1 if n % 2 else n * math.pi + a1
        s0 = incomplete_F(am0, k)
        s1 = incomplete_F(am1, k)
    else:
        cn_floor = math.sqrt(max(1.0 - 1.0 / k ** 2, 0.0))

        def arg_of(du):
            du = min(max(du, 0.0), 2 * k * w * (1.0 - cn_floor))
            return min(math.sqrt(max(du / w * (k - du / (4 * w)), 0.0)), 1.0)

        a0 = math.asin(arg_of(du0))
        a1 = math.asin(arg_of(du1))
        if not increasing:
            am0 = a0
            am1 = ((n - 1) / 2.0) * math.pi + a1 if n % 2 \
                else (n / 2.0) * math.pi - a1
        else:
            am0 = math.pi - a0
            am1 = ((n + 1) / 2.0) * math.pi - a1 if n % 2 \
                else (n / 2.0) * math.pi + a1
        ki = 1.0 / k
        s0 = incomplete_F(am0, ki) / k
        s1 = incomplete_F(am1, ki) / k
    ell = s1 - s0
    if ell <= 0:
        # clamping collapsed the interval; fall back to the arclength extent
        ell = L / w
    return s0, ell, n, increasing, clamped_fraction, R3


def recover_translation(samples: CurveSamples, partial: ElasticaParams):
    """Least-squares translation: the mean of (target - untranslated elastica)
    over the common normalized-arclength parameter."""
    tau = samples.s / samples.length
    y0 = segment_eval_many(partial, tau)
    diff = samples.points - y0
    L = samples.length
    x0 = integrate_ds(samples, diff[:, 0]) / L
    y0t = integrate_ds(samples, diff[:, 1]) / L
    return float(x0), float(y0t)


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

    For non-inflectional curves with negative curvature the input
    parameterization is reversed first (reported via ``reversed_input``);
    the returned parameters then describe the reversed curve.
    """
    fit = affine_curvature_fit(samples)
    L = samples.length
    if fit.lam <= LAMBDA_MIN_REL / L ** 2 or fit.w is None:
        return _degenerate_report(samples, fit)
    inflectional, k = classify_and_modulus(fit)
    reversed_input = False
    if not inflectional and integrate_ds(samples, samples.kappa) < 0:
        samples = samples.reversed()
        reversed_input = True
        fit = affine_curvature_fit(samples)
        inflectional, k = classify_and_modulus(fit)
    s0, ell, n, increasing, clamped, R3 = recover_arc_interval(
        samples, fit, inflectional, k)
    partial = ElasticaParams(k=k, s0=s0, ell=ell, w=fit.w, phi=fit.phi,
                             x0=0.0, y0=0.0)
    x0, y0 = recover_translation(samples, partial)
    params = ElasticaParams(k=k, s0=s0, ell=ell, w=fit.w, phi=fit.phi,
                            x0=x0, y0=y0)
    return RecoveryReport(
        params=params, inflectional=inflectional, n_segments=n,
        u_increasing_at_start=increasing, R1=fit.R1, R2=fit.R2, R3=R3,
        R4=residual_r4(params, samples), clamped_fraction=clamped,
        reversed_input=reversed_input)
