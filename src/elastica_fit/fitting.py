"""L2 distance objective between an elastica segment and a target curve,
its analytic gradient and Hessian, and the second-order optimizer.

The objective matches curve points by normalized arclength:

    F(p) = 1/2 * int_0^1 || y_p(s(t)/L) - x(t) ||^2 ||x'(t)|| dt.

Unconstrained problems use trust-region Newton with eigenvalue-shift
regularization; endpoint / end-tangent constrained problems a trust-region
SQP on the same Hessian with an l1 merit function.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .curve import CurveSamples
from .elastica import (
    K_MIN,
    ElasticaParams,
    _segment_eval_arr,
    _segment_partials_arr,
)
from .elliptic import K_GUARD_BAND
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


def _constraint_values_jacobian(pvec, target: CurveSamples, mode: str):
    """Equality constraints c(p) = 0 and their Jacobian.

    Position rows: y_p(t) - x(t) at t = 0, 1.  Tangent rows: wrapped
    difference of tangent angles at the ends (ell > 0 assumed); the angle
    is that of y_s = dy/ds0, whose gradient is cross(y_s, d(y_s)/dp) / |y_s|^2.
    """
    tangents = mode == "endpoints+tangents"
    y, dy, d2y = _segment_partials_arr(pvec, np.array([0.0, 1.0]), tangents)
    c = (y - target.points[[0, -1]]).ravel()
    jac = dy.transpose(0, 2, 1).reshape(4, 7)
    if tangents:
        ys, ysp = dy[:, 1], d2y[:, 1]
        ang = np.arctan2(ys[:, 1], ys[:, 0])
        cross = ys[:, None, 0] * ysp[..., 1] - ys[:, None, 1] * ysp[..., 0]
        c = np.concatenate([c, _wrap_angle(ang - target.theta[[0, -1]])])
        jac = np.vstack([jac, cross / np.sum(ys * ys, axis=1)[:, None]])
    return c, jac


def _constraint_hessians(pvec, target, mode, h=1e-6):
    """Second derivatives of each constraint, by central differences of the
    analytic Jacobian."""
    c0, J0 = _constraint_values_jacobian(pvec, target, mode)
    m = len(c0)
    H = np.zeros((m, 7, 7))
    for i in range(7):
        e = np.zeros(7)
        e[i] = h
        _, Jp = _constraint_values_jacobian(pvec + e, target, mode)
        _, Jm = _constraint_values_jacobian(pvec - e, target, mode)
        H[:, :, i] = (Jp - Jm) / (2 * h)
    H = 0.5 * (H + np.swapaxes(H, 1, 2))
    return H


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


def _shifted_solve(H, g, delta):
    """Newton/Levenberg step: solve (H + mu I) d = -g with the smallest shift
    that makes the system positive definite and ||d|| <= delta."""
    evals = np.linalg.eigvalsh(H)
    mu = max(0.0, -float(evals[0])) + 1e-12
    for _ in range(100):
        try:
            d = np.linalg.solve(H + mu * np.eye(7), -g)
        except np.linalg.LinAlgError:
            mu = 2 * mu + 1e-10
            continue
        if np.linalg.norm(d) <= delta:
            return d, mu
        mu = 2 * mu + 1e-10
    return d, mu


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
        d, mu = _shifted_solve(H, g, delta)
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


def _projected_grad_norm(g, J):
    """Norm of g minus its best approximation in the row space of J."""
    nu, *_ = np.linalg.lstsq(J.T, -g, rcond=None)
    return float(np.linalg.norm(g + J.T @ nu)), nu


def _fit_constrained(problem: FitProblem) -> FitResult:
    L = problem.target.length
    p = _project(problem.init.as_array(), L)
    mode = problem.constraints
    f = objective(ElasticaParams.from_array(p), problem.target)
    c, J = _constraint_values_jacobian(p, problem.target, mode)
    m = len(c)
    nu = np.zeros(m)
    mu_merit = 10.0
    delta = 1.0
    it = 0
    converged = False
    msg = "max_iter reached"
    pg = math.inf
    while it < problem.max_iter:
        it += 1
        par = ElasticaParams.from_array(p)
        g, H = gradient_hessian(par, problem.target)
        c, J = _constraint_values_jacobian(p, problem.target, mode)
        pg, nu_ls = _projected_grad_norm(g, J)
        cviol = float(np.max(np.abs(c))) if m else 0.0
        if pg <= problem.grad_tol and cviol <= 1e-10:
            converged = True
            msg = "KKT tolerances reached"
            break
        Hc = _constraint_hessians(p, problem.target, mode)
        W = H + np.einsum("m,mij->ij", nu_ls, Hc)
        # regularize W on the whole space (simple and robust for 7 dims)
        evals = np.linalg.eigvalsh(W)
        sigma = max(0.0, -float(evals[0])) + 1e-10
        # relax the linearized constraint target so the feasibility step
        # fits in the trust region (otherwise no shift can shrink the step)
        dn, *_ = np.linalg.lstsq(J, -c, rcond=None)
        nd = float(np.linalg.norm(dn))
        gamma = min(1.0, 0.8 * delta / nd) if nd > 0 else 1.0
        step = None
        for _ in range(60):
            KKT = np.zeros((7 + m, 7 + m))
            KKT[:7, :7] = W + sigma * np.eye(7)
            KKT[:7, 7:] = J.T
            KKT[7:, :7] = J
            rhs = np.concatenate([-g, -gamma * c])
            try:
                sol = np.linalg.solve(KKT, rhs)
            except np.linalg.LinAlgError:
                sigma = 2 * sigma + 1e-8
                continue
            d = sol[:7]
            if np.linalg.norm(d) <= delta:
                step = d
                nu_new = sol[7:]
                break
            sigma = 2 * sigma + 1e-8
        if step is None:
            delta = max(delta * 0.5, 1e-14)
            if delta <= 1e-13:
                msg = "trust region collapsed"
                break
            continue
        mu_needed = 2.0 * float(np.max(np.abs(nu_new))) + 1.0
        # raise mu immediately when needed, let it decay slowly otherwise so
        # one early multiplier spike cannot stall later objective progress
        mu_merit = mu_needed if mu_needed > mu_merit \
            else max(mu_needed, 0.5 * mu_merit)

        def merit(vec):
            cc, _ = _constraint_values_jacobian(vec, problem.target, mode)
            return (objective(ElasticaParams.from_array(vec), problem.target)
                    + mu_merit * float(np.sum(np.abs(cc))))

        phi0 = f + mu_merit * float(np.sum(np.abs(c)))
        pred = (-(g @ step + 0.5 * step @ W @ step)
                + mu_merit * (np.sum(np.abs(c)) - np.sum(np.abs(c + J @ step))))
        trial = _project(p + step, L)
        try:
            phi_trial = merit(trial)
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
            try:
                c_t, _ = _constraint_values_jacobian(trial, problem.target,
                                                     mode)
                soc, *_ = np.linalg.lstsq(J, -c_t, rcond=None)
                trial2 = _project(p + step + soc, L)
                phi2 = merit(trial2)
            except (DomainError, FloatingPointError, OverflowError,
                    np.linalg.LinAlgError):
                phi2 = math.inf
            if phi2 <= phi0 + 1e-14 and (pred <= 0 or
                                         (phi0 - phi2) / pred > 1e-4):
                trial, phi_trial = trial2, phi2
                rho = (phi0 - phi2) / pred if pred > 0 else 1.0
        if phi_trial <= phi0 + 1e-14 and rho > 1e-4:
            p = trial
            nu = nu_new
            f = objective(ElasticaParams.from_array(p), problem.target)
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
        ct, Jt = _constraint_values_jacobian(trial, problem.target, mode)
        if np.max(np.abs(ct)) >= np.max(np.abs(c)):
            break
        p, c, J = trial, ct, Jt
    f = objective(ElasticaParams.from_array(p), problem.target)
    g, _ = gradient_hessian(ElasticaParams.from_array(p), problem.target)
    pg, _ = _projected_grad_norm(g, J)
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
