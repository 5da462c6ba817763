"""L2 distance objective between an elastica segment and a target curve,
its analytic gradient and Hessian, and the second-order optimizer.

The objective matches curve points by normalized arclength:

    F(p) = 1/2 * int_0^1 || y_p(s(t)/L) - x(t) ||^2 ||x'(t)|| dt.

Both optimizers share one trust-region step: -(A + mu I)^-1 b for the first
shift mu of a doubling sequence that fits the radius, in closed form from one
eigendecomposition of A.  Trust-region Newton applies it to the Hessian; the
endpoint / end-tangent SQP (exact Lagrangian Hessian W, l1 merit function)
applies it to W on the null space of the constraint Jacobian J, after a
normal step from one SVD of J.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .curve import CurveSamples
from .elastica import (
    K_MIN,
    ElasticaParams,
    _rotate,
    _segment_eval_arr,
    _segment_partials_arr,
)
from .elliptic import K_GUARD_BAND, _jacobi_E_arr
from .errors import DomainError

#: upper clamp for the modulus during optimization
K_MAX = 10.0

_IDX = {"k": 0, "s0": 1, "ell": 2, "w": 3, "phi": 4, "x0": 5, "y0": 6}

CONSTRAINT_MODES = ("none", "endpoints", "endpoints+tangents")


@dataclass
class FitProblem:
    target: CurveSamples
    init: ElasticaParams
    constraints: str = "none"
    grad_tol: float = 1e-8
    step_tol: float = 1e-14
    max_iter: int = 1000

    def __post_init__(self):
        if self.constraints not in CONSTRAINT_MODES:
            raise DomainError(f"unknown constraint mode {self.constraints!r}")
        if self.max_iter < 1 or self.grad_tol <= 0:
            raise DomainError("max_iter >= 1 and grad_tol > 0 required")


@dataclass
class FitResult:
    params: ElasticaParams
    objective: float
    grad_norm: float
    iterations: int
    converged: bool
    constraint_violation: float = 0.0
    message: str = ""


def _simpson_weights(samples: CurveSamples) -> np.ndarray:
    n = samples.n_intervals
    w = np.full(n + 1, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return w * (1.0 / n) / 3.0 * samples.speeds


def _tau(samples: CurveSamples) -> np.ndarray:
    return samples.s / samples.length


def objective(p: ElasticaParams, target: CurveSamples) -> float:
    """F(p): half the squared L2 distance to the target, arclength-matched."""
    y = _segment_eval_arr(p.as_array(), _tau(target))
    diff = y - target.points
    f = 0.5 * np.sum(diff * diff, axis=1)
    return float(np.dot(f, _simpson_weights(target)))


def residual_r4(p: ElasticaParams, target: CurveSamples) -> float:
    """Normalized L2 distance sqrt(2 F(p) / L^3)."""
    L = target.length
    return math.sqrt(max(2.0 * objective(p, target), 0.0) / L ** 3)


def gradient_hessian(p: ElasticaParams, target: CurveSamples):
    """Analytic gradient (7,) and symmetric Hessian (7, 7) of the objective."""
    if p.k < K_MIN:
        raise DomainError(f"Hessian needs k >= {K_MIN}")
    y, dy, d2y = _segment_partials_arr(p.as_array(), _tau(target), True)
    diff = y - target.points
    wts = _simpson_weights(target)
    grad = np.einsum("nc,nic,n->i", diff, dy, wts)
    hess = (np.einsum("nic,njc,n->ij", dy, dy, wts)
            + np.einsum("nc,nijc,n->ij", diff, d2y, wts))
    hess = 0.5 * (hess + hess.T)
    return grad, hess


# ---------------------------------------------------------------------------
# constraints

def _wrap_angle(a):
    return (a + math.pi) % (2 * math.pi) - math.pi


_ENDS = np.array([0.0, 1.0])


def _constraint_values(pvec, target: CurveSamples, mode: str):
    """Equality constraints c(p) = 0, from one elliptic evaluation at the
    end nodes t = 0, 1.

    Position rows: y_p(t) - x(t).  Tangent rows: wrapped difference of
    tangent angles, the angle of y_s = dy/ds0 being phi + 2 atan2(k sn, dn)
    (ell > 0 assumed).
    """
    k, s0, ell, w, phi, x0, y0 = pvec
    s = s0 + ell * _ENDS
    S, C, D, E = _jacobi_E_arr(s, k)
    z = np.stack([2.0 * E - s, 2.0 * k * (1.0 - C)], axis=-1)
    c = (w * _rotate(phi, z) + (x0, y0) - target.points[[0, -1]]).ravel()
    if mode == "endpoints+tangents":
        ang = phi + 2.0 * np.arctan2(k * S, D)
        c = np.concatenate([c, _wrap_angle(ang - target.theta[[0, -1]])])
    return c


def _angle_partials(s, k):
    """The basic elastica's tangent angle theta = 2 atan2(k sn, dn) at
    arclengths s, and its partials: (theta, theta_s, theta_ss, theta_k,
    theta_sk, theta_kk).

    The k-derivatives of sn, cn, dn and E at fixed s are those of Byrd &
    Friedman 710.00; theta_kk divides by k.
    """
    S, C, D, E = _jacobi_E_arr(s, k)
    kp2 = 1.0 - k * k
    G = E - kp2 * s
    Q = S * D - C * G
    P = k * k * S * C - D * G
    Q_k = P * (C * D + S * G) / (k * kp2) - k * Q / kp2 - k * s * C
    return (2.0 * np.arctan2(k * S, D),
            2.0 * k * C,
            -2.0 * k * S * D,
            2.0 * Q / kp2,
            (2.0 / kp2) * (C * (kp2 - k * k * S * S) + S * D * G),
            2.0 * Q_k / kp2 + 4.0 * k * Q / (kp2 * kp2))


def _constraint_values_jacobian(pvec, target: CurveSamples, mode: str,
                                with_hessians=False):
    """c(p), its Jacobian (m, 7) and, if with_hessians, the Hessian of each
    constraint (m, 7, 7), from one evaluation of each kind at t = 0, 1.

    Position rows take their values and derivatives from the segment
    partials.  A tangent row is phi + theta(s0 + ell*t, k), so its gradient
    is (theta_k, theta_s, t*theta_s, 0, 1, 0, 0) and its Hessian lives in
    the (k, s0, ell) block.  c equals _constraint_values bit for bit.
    """
    y, dy, d2y = _segment_partials_arr(pvec, _ENDS, with_hessians)
    c = (y - target.points[[0, -1]]).ravel()
    jac = dy.transpose(0, 2, 1).reshape(4, 7)
    hess = d2y.transpose(0, 3, 1, 2).reshape(4, 7, 7)
    if mode == "endpoints+tangents":
        t = _ENDS
        th, th_s, th_ss, th_k, th_sk, th_kk = _angle_partials(
            pvec[1] + pvec[2] * t, pvec[0])
        c = np.concatenate(
            [c, _wrap_angle(pvec[4] + th - target.theta[[0, -1]])])
        grad = np.zeros((2, 7))
        grad[:, 0] = th_k
        grad[:, 1] = th_s
        grad[:, 2] = t * th_s
        grad[:, 4] = 1.0
        h = np.zeros((2, 7, 7))
        h[:, 0, 0] = th_kk
        h[:, 0, 1] = h[:, 1, 0] = th_sk
        h[:, 0, 2] = h[:, 2, 0] = t * th_sk
        h[:, 1, 1] = th_ss
        h[:, 1, 2] = h[:, 2, 1] = t * th_ss
        h[:, 2, 2] = t * t * th_ss
        jac = np.vstack([jac, grad])
        hess = np.concatenate([hess, h])
    if with_hessians:
        return c, jac, hess
    return c, jac


# ---------------------------------------------------------------------------
# optimizer

def _project(pvec, L):
    q = pvec.copy()
    k = q[0]
    if k < K_MIN:
        k = K_MIN
    elif K_MIN <= k <= 1.0:
        k = min(k, 1.0 - 2 * K_GUARD_BAND)
    elif 1.0 < k:
        k = max(min(k, K_MAX), 1.0 + 2 * K_GUARD_BAND)
    q[0] = k
    q[3] = max(q[3], 1e-9 * L)
    if q[2] == 0.0:
        q[2] = 1e-12
    return q


def _shifted_step(A, b, radius):
    """(y, mu) with y = -(A + mu I)^-1 b for the first shift of
    mu_j + 1e-10 = 2^j (max(0, -lambda_min(A)) + 1e-12 + 1e-10), j < 100,
    with ||y|| <= radius (else the last).  A shift that leaves A + mu I
    singular to rounding gives an infinite candidate, which never fits."""
    lam, V = np.linalg.eigh(A)
    mus = np.ldexp(max(0.0, -float(lam[0])) + 1e-12 + 1e-10,
                   np.arange(100)) - 1e-10
    with np.errstate(divide="ignore", invalid="ignore"):
        coef = (V.T @ b) / (lam + mus[:, None])
    fits = np.flatnonzero(np.linalg.norm(coef, axis=1) <= radius)
    j = fits[0] if fits.size else -1
    return -V @ coef[j], float(mus[j])


def _align_similarity(pvec, target: CurveSamples):
    """Optimal (w, phi, x0, y0) for fixed (k, s0, ell), by weighted
    similarity Procrustes; never increases the objective."""
    base = pvec.copy()
    base[3:] = (1.0, 0.0, 0.0, 0.0)
    z = _segment_eval_arr(base, _tau(target))
    wts = _simpson_weights(target)
    tot = float(np.sum(wts))
    if tot <= 0:
        return pvec
    zbar = wts @ z / tot
    xbar = wts @ target.points / tot
    zc = z - zbar
    xc = target.points - xbar
    denom = float(wts @ np.sum(zc * zc, axis=1))
    if denom <= 0:
        return pvec
    a = float(wts @ np.sum(xc * zc, axis=1)) / denom
    b = float(wts @ (zc[:, 0] * xc[:, 1] - zc[:, 1] * xc[:, 0])) / denom
    scale = math.hypot(a, b)
    if scale <= 0:
        return pvec
    q = pvec.copy()
    q[3] = scale
    q[4] = math.atan2(b, a)
    q[5] = xbar[0] - (a * zbar[0] - b * zbar[1])
    q[6] = xbar[1] - (b * zbar[0] + a * zbar[1])
    return q


def _fit_unconstrained(problem: FitProblem) -> FitResult:
    L = problem.target.length
    p = _project(problem.init.as_array(), L)
    p = _project(_align_similarity(p, problem.target), L)
    f = objective(ElasticaParams.from_array(p), problem.target)
    delta = 1.0
    it = 0
    msg = "max_iter reached"
    converged = False
    g = np.zeros(7)
    while it < problem.max_iter:
        it += 1
        g, H = gradient_hessian(ElasticaParams.from_array(p), problem.target)
        gnorm = np.linalg.norm(g)
        if gnorm <= problem.grad_tol:
            converged = True
            msg = "gradient tolerance reached"
            break
        d, _ = _shifted_step(H, g, delta)
        if np.linalg.norm(d) <= problem.step_tol * (1 + np.linalg.norm(p)):
            msg = "step tolerance reached"
            converged = gnorm <= 1e3 * problem.grad_tol
            break
        trial = _project(p + d, L)
        step = trial - p
        pred = -(g @ step + 0.5 * step @ H @ step)
        try:
            f_trial = objective(ElasticaParams.from_array(trial), problem.target)
        except (DomainError, FloatingPointError, OverflowError):
            f_trial = math.inf
        if not math.isfinite(f_trial):
            delta *= 0.25
            continue
        rho = (f - f_trial) / pred if pred > 0 else -1.0
        if rho > 1e-4 and f_trial <= f:
            # re-solve the similarity block in closed form; this never
            # increases F and keeps the search out of the similarity valley
            aligned = _project(_align_similarity(trial, problem.target), L)
            try:
                f_aligned = objective(ElasticaParams.from_array(aligned),
                                      problem.target)
            except (DomainError, FloatingPointError, OverflowError):
                f_aligned = math.inf
            if f_aligned <= f_trial:
                trial, f_trial = aligned, f_aligned
            p, f = trial, f_trial
            if rho > 0.75:
                delta = min(delta * 2.0, 1e3)
        else:
            delta = max(delta * 0.25, 1e-14)
            if delta <= 1e-13:
                msg = "trust region collapsed"
                break
    gnorm = float(np.linalg.norm(g))
    return FitResult(params=ElasticaParams.from_array(p), objective=f,
                     grad_norm=gnorm, iterations=it, converged=converged,
                     constraint_violation=0.0, message=msg)


def _row_space(J):
    """J = U diag(sv) Y^T over its numerical rank (the cut lstsq makes), and
    an orthonormal basis Z of its null space: (U, sv, Y, Z)."""
    U, sv, Vt = np.linalg.svd(J)
    r = int(np.sum(sv > max(J.shape) * np.finfo(float).eps * sv[0]))
    return U[:, :r], sv[:r], Vt[:r].T, Vt[r:].T


def _null_space_step(W, g, c, bases, delta):
    """(d, nu, sigma) solving [[W + sigma I, J^T], [J, 0]] (d, nu) =
    (-g, -gamma c) with ||d|| <= delta.  gamma shrinks the normal step
    dn = -gamma J^+ c to at most 0.8 delta, as no shift can shrink it; the
    null-space part takes the rest of the radius, and nu solves the range
    equation."""
    U, sv, Y, Z = bases
    cn = (U.T @ c) / sv
    nd = float(np.linalg.norm(cn))
    gamma = min(1.0, 0.8 * delta / nd) if nd > 0 else 1.0
    dn = -gamma * (Y @ cn)
    y, sigma = _shifted_step(Z.T @ W @ Z, Z.T @ (g + W @ dn),
                             math.sqrt(delta * delta - (gamma * nd) ** 2))
    d = dn + Z @ y
    nu = -U @ ((Y.T @ (g + W @ d + sigma * d)) / sv)
    return d, nu, sigma


def _fit_constrained(problem: FitProblem) -> FitResult:
    L = problem.target.length
    p = _project(problem.init.as_array(), L)
    mode = problem.constraints
    f = objective(ElasticaParams.from_array(p), problem.target)
    mu_merit = 10.0
    delta = 1.0
    it = 0
    converged = False
    msg = "max_iter reached"
    while it < problem.max_iter:
        it += 1
        par = ElasticaParams.from_array(p)
        g, H = gradient_hessian(par, problem.target)
        c, J, Hc = _constraint_values_jacobian(p, problem.target, mode, True)
        U, sv, Y, Z = bases = _row_space(J)
        pg = float(np.linalg.norm(Z.T @ g))
        cviol = float(np.max(np.abs(c)))
        if pg <= problem.grad_tol and cviol <= 1e-10:
            converged = True
            msg = "KKT tolerances reached"
            break
        # least-squares multipliers -J^+T g weight the constraint Hessians
        W = H + np.einsum("m,mij->ij", -U @ ((Y.T @ g) / sv), Hc)
        step, nu_new, _ = _null_space_step(W, g, c, bases, delta)
        mu_needed = 2.0 * float(np.max(np.abs(nu_new))) + 1.0
        # raise mu immediately when needed, let it decay slowly otherwise so
        # one early multiplier spike cannot stall later objective progress
        mu_merit = mu_needed if mu_needed > mu_merit \
            else max(mu_needed, 0.5 * mu_merit)

        def merit(vec):
            """(merit, objective, c) at vec."""
            fv = objective(ElasticaParams.from_array(vec), problem.target)
            cv = _constraint_values(vec, problem.target, mode)
            return fv + mu_merit * float(np.sum(np.abs(cv))), fv, cv

        phi0 = f + mu_merit * float(np.sum(np.abs(c)))
        pred = (-(g @ step + 0.5 * step @ W @ step)
                + mu_merit * (np.sum(np.abs(c)) - np.sum(np.abs(c + J @ step))))
        trial = _project(p + step, L)
        try:
            phi_trial, f_trial, c_t = merit(trial)
        except (DomainError, FloatingPointError, OverflowError):
            phi_trial = math.inf
        if not math.isfinite(phi_trial):
            delta *= 0.25
            continue
        rho = (phi0 - phi_trial) / pred if pred > 0 else \
            (1.0 if phi_trial < phi0 else -1.0)
        if not (phi_trial <= phi0 + 1e-14 and rho > 1e-4):
            # second-order correction: re-land on the constraint manifold
            # (avoids the Maratos effect rejecting good steps near optimum)
            trial2 = _project(p + step - Y @ ((U.T @ c_t) / sv), L)
            try:
                phi2, f2, _ = merit(trial2)
            except (DomainError, FloatingPointError, OverflowError):
                phi2 = math.inf
            if phi2 <= phi0 + 1e-14 and (pred <= 0 or
                                         (phi0 - phi2) / pred > 1e-4):
                trial, phi_trial, f_trial = trial2, phi2, f2
                rho = (phi0 - phi2) / pred if pred > 0 else 1.0
        if phi_trial <= phi0 + 1e-14 and rho > 1e-4:
            p, f = trial, f_trial
            if rho > 0.75:
                delta = min(delta * 2.0, 1e3)
        else:
            delta = max(delta * 0.25, 1e-14)
            if delta <= 1e-13:
                msg = "trust region collapsed"
                break
    # feasibility polish: Gauss-Newton on c alone, so joins stay tight even
    # when the objective stalls short of full KKT convergence
    c, J = _constraint_values_jacobian(p, problem.target, mode)
    for _ in range(20):
        if np.max(np.abs(c)) <= 1e-12:
            break
        d, *_ = np.linalg.lstsq(J, -c, rcond=None)
        trial = _project(p + d, L)
        ct = _constraint_values(trial, problem.target, mode)
        if np.max(np.abs(ct)) >= np.max(np.abs(c)):
            break
        p = trial
        c, J = _constraint_values_jacobian(p, problem.target, mode)
    f = objective(ElasticaParams.from_array(p), problem.target)
    g, _ = gradient_hessian(ElasticaParams.from_array(p), problem.target)
    pg = float(np.linalg.norm(_row_space(J)[3].T @ g))
    return FitResult(params=ElasticaParams.from_array(p), objective=f,
                     grad_norm=pg, iterations=it, converged=converged,
                     constraint_violation=float(np.max(np.abs(c))),
                     message=msg)


def fit(problem: FitProblem) -> FitResult:
    """Minimize the L2 objective from the initial guess, optionally with
    endpoint / end-tangent equality constraints."""
    if problem.constraints == "none":
        return _fit_unconstrained(problem)
    return _fit_constrained(problem)
