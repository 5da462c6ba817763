"""L2 distance objective between an elastica segment and a target curve,
its analytic gradient and Hessian, and the second-order optimizer.

The objective matches curve points by normalized arclength:

    F(p) = 1/2 * int_0^1 || y_p(s(t)/L) - x(t) ||^2 ||x'(t)|| dt.

One trust-region loop fits all three constraint modes, and every iterate
lies on the fit's manifold.  Free fits keep the similarity block
(w, phi, x0, y0) at its closed-form optimum for the shape (k, s0, ell), so
the model is the reduced Hessian of variable projection.  Pinned fits keep
c(p) = 0, and the model is the exact Lagrangian Hessian W on the null space
of the constraint Jacobian J.  The step -(A + mu I)^-1 b takes the first
shift mu of a doubling sequence that fits the radius, in closed form from
one eigendecomposition of A.  Each trial is restored onto the manifold
before F is evaluated, so F alone judges it: free fits re-solve the
similarity block, pinned fits run capped Gauss-Newton steps on c.

c, J and the constraint Hessians come from one elliptic evaluation at the
end nodes.  One SVD of J (_row_space) gives both the null-space basis of
the model and the Gauss-Newton step -J^+ c, with the same rank cut.
Every integral over the target is a dot product with its Simpson weights
(CurveSamples.weights).
"""

import math
from dataclasses import dataclass

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

CONSTRAINT_MODES = ("none", "endpoints", "endpoints+tangents")


@dataclass
class FitProblem:
    target: CurveSamples
    init: ElasticaParams
    constraints: str = "none"
    grad_tol: float = 1e-8
    max_iter: int = 1000

    def __post_init__(self):
        if self.constraints not in CONSTRAINT_MODES:
            raise DomainError(f"unknown constraint mode {self.constraints!r}")
        if self.max_iter < 1 or self.grad_tol <= 0:
            raise DomainError("max_iter >= 1 and grad_tol > 0 required")


@dataclass
class FitResult:
    """The outcome of fit.  grad_norm is ||g|| for a free fit and ||Z^T g||
    for a pinned one, and constraint_violation is max|c|.  message is one
    of the loop's four stops:

    - "gradient tolerance reached" (converged);
    - "predicted decrease below rounding": the model promises less than
      1e-15 F, converged if grad_norm <= 1e3 * grad_tol;
    - "trust region collapsed";
    - "max_iter reached";

    or "constraints not restored" when Gauss-Newton cannot bring the
    initial guess onto the constraints (0 iterations, unconverged).
    """

    params: ElasticaParams
    objective: float
    grad_norm: float
    iterations: int
    converged: bool
    constraint_violation: float = 0.0
    message: str = ""


def _tau(samples: CurveSamples) -> np.ndarray:
    return samples.s / samples.length


def objective(p: ElasticaParams, target: CurveSamples) -> float:
    """F(p): half the squared L2 distance to the target, arclength-matched."""
    y = _segment_eval_arr(p.as_array(), _tau(target))
    diff = y - target.points
    f = 0.5 * np.sum(diff * diff, axis=1)
    return float(np.dot(f, target.weights))


def residual_r4(p: ElasticaParams, target: CurveSamples) -> float:
    """Normalized L2 distance sqrt(2 F(p) / L^3)."""
    L = target.length
    return math.sqrt(max(2.0 * objective(p, target), 0.0) / L ** 3)


def gradient_hessian(p: ElasticaParams, target: CurveSamples):
    """Analytic gradient (7,) and symmetric Hessian (7, 7) of the objective."""
    if p.k < K_MIN:
        raise DomainError(f"Hessian needs k >= {K_MIN}")
    y, dy, d2y, _ = _segment_partials_arr(p.as_array(), _tau(target), True)
    diff = y - target.points
    wts = target.weights
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


def _angle_partials(s, k, S, C, D, E):
    """The basic elastica's tangent angle theta = 2 atan2(k sn, dn) at
    arclengths s, and its partials: (theta, theta_s, theta_ss, theta_k,
    theta_sk, theta_kk), from sn, cn, dn and E at s.

    The k-derivatives of sn, cn, dn and E at fixed s are those of Byrd &
    Friedman 710.00; theta_kk divides by k.
    """
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
    """The equality constraints c(p) = 0, their Jacobian (m, 7) and, if
    with_hessians, the Hessian of each constraint (m, 7, 7), from one
    elliptic evaluation at the end nodes t = 0, 1.

    Position rows are y_p(t) - x(t), from the segment partials.  Tangent
    rows are the wrapped difference of tangent angles, the angle of
    y_s = dy/ds0 being phi + theta(s0 + ell*t, k) (ell > 0 assumed), so
    their gradient is (theta_k, theta_s, t*theta_s, 0, 1, 0, 0) and their
    Hessian lives in the (k, s0, ell) block.
    """
    y, dy, d2y, jacobi_E = _segment_partials_arr(pvec, _ENDS, with_hessians)
    c = (y - target.points[[0, -1]]).ravel()
    jac = dy.transpose(0, 2, 1).reshape(4, 7)
    hess = d2y.transpose(0, 3, 1, 2).reshape(4, 7, 7)
    if mode == "endpoints+tangents":
        t = _ENDS
        th, th_s, th_ss, th_k, th_sk, th_kk = _angle_partials(
            pvec[1] + pvec[2] * t, pvec[0], *jacobi_E)
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
    wts = target.weights
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


def _row_space(J):
    """J = U diag(sv) Y^T over its numerical rank (the cut lstsq makes), and
    an orthonormal basis Z of its null space: (U, sv, Y, Z)."""
    U, sv, Vt = np.linalg.svd(J)
    r = int(np.sum(sv > max(J.shape) * np.finfo(float).eps * sv[0]))
    return U[:, :r], sv[:r], Vt[:r].T, Vt[r:].T


def _restore(q, target: CurveSamples, mode: str):
    """(q moved onto the fit's manifold, its constraint violation).

    Free: the similarity block re-solved in closed form.  Pinned:
    Gauss-Newton on c over all seven parameters, each step -J^+ c from
    _row_space capped at length 0.5, until max|c| <= 1e-12 or for 20
    steps."""
    L = target.length
    q = _project(q, L)
    if mode == "none":
        return _project(_align_similarity(q, target), L), 0.0
    c, J = _constraint_values_jacobian(q, target, mode)
    for _ in range(20):
        if np.max(np.abs(c)) <= 1e-12:
            break
        U, sv, Y, _ = _row_space(J)
        d = -Y @ ((U.T @ c) / sv)
        size = np.linalg.norm(d)
        q = _project(q + (d if size <= 0.5 else d * (0.5 / size)), L)
        c, J = _constraint_values_jacobian(q, target, mode)
    return q, float(np.max(np.abs(c)))


def _reduced_model(q, target: CurveSamples, mode: str):
    """(grad_norm, B^T g, B^T W B, B) at a point q on the fit's manifold,
    B a basis of the directions along it.

    Free: W = H and B = [I; -H_ll^-1 H_ln] over the similarity block l.  As
    F is minimal over l at q, B^T g and B^T H B are the gradient and Hessian
    of (k, s0, ell) -> F(., l*(.)); grad_norm is ||g||.  Pinned: B = Z, the
    null space of J, and W = H + sum_i lambda_i Hess c_i with the
    least-squares multipliers lambda = -J^+T g; grad_norm is ||Z^T g||."""
    g, H = gradient_hessian(ElasticaParams.from_array(q), target)
    if mode == "none":
        lift, *_ = np.linalg.lstsq(H[3:, 3:], H[3:, :3], rcond=None)
        B = np.vstack([np.eye(3), -lift])
        return float(np.linalg.norm(g)), B.T @ g, B.T @ H @ B, B
    _, J, Hc = _constraint_values_jacobian(q, target, mode, True)
    U, sv, Y, Z = _row_space(J)
    W = H + np.einsum("m,mij->ij", -U @ ((Y.T @ g) / sv), Hc)
    gz = Z.T @ g
    return float(np.linalg.norm(gz)), gz, Z.T @ W @ Z, Z


def fit(problem: FitProblem) -> FitResult:
    """Minimize the L2 objective from the initial guess, optionally with
    endpoint / end-tangent equality constraints, by trust-region steps
    along the fit's manifold; every trial is restored onto it before F is
    evaluated, so F alone judges each step."""
    target, mode = problem.target, problem.constraints
    p, cviol = _restore(problem.init.as_array(), target, mode)
    f = objective(ElasticaParams.from_array(p), target)
    gnorm, gr, A, B = _reduced_model(p, target, mode)
    delta = 1.0
    it = 0
    converged = False
    msg = "max_iter reached"
    while True:
        if cviol > 1e-10:
            msg = "constraints not restored"
            break
        if gnorm <= problem.grad_tol:
            converged = True
            msg = "gradient tolerance reached"
            break
        if it >= problem.max_iter:
            break
        it += 1
        y, _ = _shifted_step(A, gr, delta)
        pred = -(gr @ y + 0.5 * y @ A @ y)
        if pred <= 1e-15 * f:
            # no step can lower F measurably: at F's rounding floor unless
            # the gradient says otherwise
            converged = gnorm <= 1e3 * problem.grad_tol
            msg = "predicted decrease below rounding"
            break
        trial, cv = _restore(p + B @ y, target, mode)
        try:
            f_trial = objective(ElasticaParams.from_array(trial), target) \
                if cv <= 1e-10 else math.inf
        except (DomainError, FloatingPointError, OverflowError):
            f_trial = math.inf
        rho = (f - f_trial) / pred
        if rho > 1e-4:
            p, f, cviol = trial, f_trial, cv
            gnorm, gr, A, B = _reduced_model(p, target, mode)
            if rho > 0.75:
                delta = min(delta * 2.0, 1e3)
        else:
            delta = max(delta * 0.25, 1e-14)
            if delta <= 1e-13:
                msg = "trust region collapsed"
                break
    return FitResult(params=ElasticaParams.from_array(p), objective=f,
                     grad_norm=gnorm, iterations=it, converged=converged,
                     constraint_violation=cviol, message=msg)
