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

Each point the loop visits carries one elliptic evaluation: sn, cn, dn and
E at the arclengths s0 + ell*tau of the target's nodes (_jacobi_E_nodes),
made when _restore puts it on the manifold.  The free alignment's zeta
values, the trial's F and the accepted point's gradient and Hessian read
from it; in pinned modes the model's constraint Jacobian and Hessians are
rows tau = 0, 1 of the partials that gradient and Hessian are built from.
Only the Gauss-Newton iterates inside _restore and the mapped-back result
evaluate at the two end nodes on their own (_jacobi_E_ends), for c alone
(_constraint_values, the one place c is computed); J is built from that
evaluation only for a step that is taken.

The step for a radius that a rejected step still fits is that step again,
so a rejection quarters the radius until the rejected step no longer fits:
every iteration restores and evaluates a new trial.

The Hessian of F is a Gauss-Newton term, one (7, 2n) matrix product of
the first partials, plus sum_i omega_i diff_i . d2y_i from
elastica._second_partials_dot, which rotates the weighted residual back by
-phi once and dots it with the zeta blocks against 1, t and t^2.  The same
contraction with unit vectors at t = 0, 1 gives the position constraints'
Hessians in the Lagrangian Hessian W; no per-node tensor is built.

One SVD of J (_row_space) gives both the null-space basis of
the model and the Gauss-Newton step -J^+ c, with the same rank cut.
Every integral over the target is a dot product with its Simpson weights
(CurveSamples.weights).
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .curve import CurveSamples
from .elastica import (
    K_MIN,
    ElasticaParams,
    _chart_modulus,
    _second_partials_dot,
    _segment_eval_arr,
    _segment_partials_arr,
)
from .elliptic import _jacobi_E_arr
from .errors import DomainError

CONSTRAINT_MODES = ("none", "endpoints", "endpoints+tangents")
_GRAD_TOL = 1e-10  # the stop ||g|| <= _GRAD_TOL, on the unit-length problem


@dataclass
class FitProblem:
    """Solved on the unit-length problem to ||g|| <= _GRAD_TOL (1e-10)."""

    target: CurveSamples
    init: ElasticaParams
    constraints: str = "none"
    max_iter: int = 1000

    def __post_init__(self):
        if self.constraints not in CONSTRAINT_MODES:
            raise DomainError(f"unknown constraint mode {self.constraints!r}")
        if self.max_iter < 1:
            raise DomainError("max_iter >= 1 required")


@dataclass
class FitResult:
    """The outcome of fit.  grad_norm is ||g|| (free) or ||Z^T g|| (pinned)
    on the unit-length problem; params, objective and constraint_violation
    (max|c|) are in the target's units.  iterations counts the trials
    restored and evaluated (capped by max_iter), plus one for a step that
    stops at "predicted decrease below rounding".  message is one of five
    stops:

    - "gradient tolerance reached" (converged);
    - "predicted decrease below rounding": the model promises less than
      1e-15 F, converged if grad_norm <= 1e3 * _GRAD_TOL;
    - "model not finite": the gradient or Hessian overflowed, as at a
      guess whose shape is nearly one point (unconverged);
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


def _jacobi_E_nodes(pvec, target: CurveSamples) -> np.ndarray:
    """sn, cn, dn and E, as a (4, n) array, at the arclengths s0 + ell*tau
    of the target's nodes: the one elliptic evaluation of a point of fit."""
    return _jacobi_E_arr(pvec[1] + pvec[2] * _tau(target), pvec[0])


def objective(p: ElasticaParams, target: CurveSamples,
              _jacobi_E=None) -> float:
    """F(p): half the squared L2 distance to the target, arclength-matched.
    fit passes p's _jacobi_E_nodes as _jacobi_E."""
    y = _segment_eval_arr(p.as_array(), _tau(target), _jacobi_E)
    diff = y - target.points
    f = 0.5 * np.sum(diff * diff, axis=1)
    return float(np.dot(f, target.weights))


def residual_r4(p: ElasticaParams, target: CurveSamples) -> float:
    """Normalized L2 distance sqrt(2 F(p) / L^3)."""
    L = target.length
    return math.sqrt(max(2.0 * objective(p, target), 0.0) / L ** 3)


def gradient_hessian(p: ElasticaParams, target: CurveSamples,
                     _jacobi_E=None, _partials=False):
    """Analytic gradient (7,) and symmetric Hessian (7, 7) of the objective.
    fit passes p's _jacobi_E_nodes as _jacobi_E, and asks with _partials
    for the _segment_partials_arr at the nodes as a third value."""
    if p.k < K_MIN:
        raise DomainError(f"Hessian needs k >= {K_MIN}")
    t = _tau(target)
    partials = _segment_partials_arr(p.as_array(), t, True, _jacobi_E)
    y, dy, blocks, _ = partials
    wts = target.weights[:, None]
    v = wts * (y - target.points)
    jac = dy.reshape(7, -1)
    grad = jac @ v.ravel()
    hess = ((dy * wts).reshape(7, -1) @ jac.T
            + _second_partials_dot(v, t, blocks, p.w, p.phi))
    if _partials:
        return grad, 0.5 * (hess + hess.T), partials
    return grad, 0.5 * (hess + hess.T)


# ---------------------------------------------------------------------------
# constraints

def _wrap_angle(a):
    return (a + math.pi) % (2 * math.pi) - math.pi


_ENDS = np.array([0.0, 1.0])


def _angle_partials(s, k, S, C, D, E, second=True):
    """The partials of the basic elastica's tangent angle
    theta = 2 atan2(k sn, dn) at arclengths s, from sn, cn, dn and E at s:
    (theta_s, theta_k) and, if second, theta_ss, theta_sk, theta_kk.

    The k-derivatives of sn, cn, dn and E at fixed s are those of Byrd &
    Friedman 710.00; theta_kk divides by k.
    """
    kp2 = 1.0 - k * k
    G = E - kp2 * s
    Q = S * D - C * G
    first = (2.0 * k * C, 2.0 * Q / kp2)
    if not second:
        return first
    P = k * k * S * C - D * G
    Q_k = P * (C * D + S * G) / (k * kp2) - k * Q / kp2 - k * s * C
    return first + (-2.0 * k * S * D,
                    (2.0 / kp2) * (C * (kp2 - k * k * S * S) + S * D * G),
                    2.0 * Q_k / kp2 + 4.0 * k * Q / (kp2 * kp2))


def _jacobi_E_ends(pvec) -> np.ndarray:
    """sn, cn, dn and E, (4, 2), at the end nodes t = 0, 1."""
    return _jacobi_E_arr(pvec[1] + pvec[2] * _ENDS, pvec[0])


def _constraint_values(pvec, target: CurveSamples, mode: str, jacobi_E):
    """The constraints c(p) from _jacobi_E_ends: positions y_p(t) - x(t) at
    the end nodes t = 0, 1, then the wrapped tangent-angle differences, the
    angle of y_s = dy/ds0 being phi + theta(s0 + ell*t, k),
    theta = 2 atan2(k sn, dn), ell > 0."""
    y = _segment_eval_arr(pvec, _ENDS, jacobi_E)
    c = (y - target.points[[0, -1]]).ravel()
    if mode == "endpoints+tangents":
        S, _, D, _ = jacobi_E
        th = 2.0 * np.arctan2(pvec[0] * S, D)
        c = np.concatenate(
            [c, _wrap_angle(pvec[4] + th - target.theta[[0, -1]])])
    return c


def _constraint_jacobian(pvec, mode: str, with_hessians=False, ends=None):
    """The Jacobian (m, 7) of the constraints c(p) = 0 and, if
    with_hessians, the Hessian of each constraint (m, 7, 7), from the
    _segment_partials_arr (y, dy, blocks, jacobi_E) at the end nodes
    t = 0, 1: ends, if the caller has them, else one 2-node evaluation.

    Position rows come from the segment partials.  The tangent rows'
    gradient is (theta_k, theta_s, t*theta_s, 0, 1, 0, 0) and their Hessian
    lives in the (k, s0, ell) block.
    """
    if ends is None:
        ends = _segment_partials_arr(pvec, _ENDS, with_hessians)
    _, dy, blocks, jacobi_E = ends
    jac = dy.reshape(7, 4).T
    if with_hessians:
        # row 2e + j is coordinate j at end e: the unit vector e_j there
        hess = _second_partials_dot(np.eye(4).reshape(4, 2, 2), _ENDS,
                                    blocks, pvec[3], pvec[4])
    if mode == "endpoints+tangents":
        t = _ENDS
        th_s, th_k, *second = _angle_partials(
            pvec[1] + pvec[2] * t, pvec[0], *jacobi_E, with_hessians)
        grad = np.zeros((2, 7))
        grad[:, 0] = th_k
        grad[:, 1] = th_s
        grad[:, 2] = t * th_s
        grad[:, 4] = 1.0
        jac = np.vstack([jac, grad])
        if with_hessians:
            th_ss, th_sk, th_kk = second
            h = np.zeros((2, 7, 7))
            h[:, 0, 0] = th_kk
            h[:, 0, 1] = h[:, 1, 0] = th_sk
            h[:, 0, 2] = h[:, 2, 0] = t * th_sk
            h[:, 1, 1] = th_ss
            h[:, 1, 2] = h[:, 2, 1] = t * th_ss
            h[:, 2, 2] = t * t * th_ss
            hess = np.concatenate([hess, h])
    if with_hessians:
        return jac, hess
    return jac


# ---------------------------------------------------------------------------
# optimizer

def _project(pvec):
    q = pvec.copy()
    q[0] = _chart_modulus(q[0], q[0] > 1.0)
    q[3] = max(q[3], 1e-9)
    return q


def _shifted_step(A, b, radius):
    """(y, mu) with y = -(A + mu I)^-1 b for the first shift of
    mu_j + 1e-10 = 2^j (max(0, -lambda_min(A)) + 1e-12 + 1e-10), j < 100,
    with ||y|| <= radius (else the last).  A shift that leaves A + mu I
    singular to rounding gives an infinite candidate, which never fits."""
    lam, V = np.linalg.eigh(A)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        mus = np.ldexp(max(0.0, -float(lam[0])) + 1e-12 + 1e-10,
                       np.arange(100)) - 1e-10
        coef = (V.T @ b) / (lam + mus[:, None])
    fits = np.flatnonzero(np.linalg.norm(coef, axis=1) <= radius)
    j = fits[0] if fits.size else -1
    return -V @ coef[j], float(mus[j])


def _align_similarity(pvec, target: CurveSamples, jacobi_E):
    """Optimal (w, phi, x0, y0) for fixed (k, s0, ell), by weighted
    similarity Procrustes, from pvec's _jacobi_E_nodes; never increases
    the objective.  The free fit's restoration and recovery.initial_guess
    both take their similarity from it."""
    base = pvec.copy()
    base[3:] = (1.0, 0.0, 0.0, 0.0)
    z = _segment_eval_arr(base, _tau(target), jacobi_E)
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
    """(q moved onto the fit's manifold, its constraint violation, its
    _jacobi_E_nodes).

    Free: the similarity block re-solved in closed form, which leaves
    (k, s0, ell) and so the evaluation as they are.  Pinned: Gauss-Newton
    on c over all seven parameters, each step -J^+ c from _row_space
    capped at length 0.5, until max|c| <= 1e-12 or for 20 steps.  Each
    iterate evaluates c alone at the end nodes, and builds J from that
    evaluation only for a step it takes."""
    q = _project(q)
    if mode == "none":
        jacobi_E = _jacobi_E_nodes(q, target)
        return (_project(_align_similarity(q, target, jacobi_E)), 0.0,
                jacobi_E)
    for step in range(21):
        ends = _jacobi_E_ends(q)
        c = _constraint_values(q, target, mode, ends)
        if step == 20 or np.max(np.abs(c)) <= 1e-12:
            break
        U, sv, Y, _ = _row_space(_constraint_jacobian(
            q, mode, False, _segment_partials_arr(q, _ENDS, False, ends)))
        d = -Y @ ((U.T @ c) / sv)
        size = np.linalg.norm(d)
        q = _project(q + (d if size <= 0.5 else d * (0.5 / size)))
    return q, float(np.max(np.abs(c))), _jacobi_E_nodes(q, target)


@np.errstate(over="ignore", invalid="ignore")
def _reduced_model(q, target: CurveSamples, mode: str, jacobi_E):
    """(grad_norm, B^T g, B^T W B, B) at a point q on the fit's manifold,
    B a basis of the directions along it, from q's _jacobi_E_nodes; one
    that overflows has infinite or NaN entries, without a warning.

    Free: W = H and B = [I; -H_ll^-1 H_ln] over the similarity block l.  As
    F is minimal over l at q, B^T g and B^T H B are the gradient and Hessian
    of (k, s0, ell) -> F(., l*(.)); grad_norm is ||g||.  If H_ll is
    singular, B = [I; 0]: the model along a fixed l, which restoring the
    trial re-aligns.  Pinned: B = Z, the null space of J, and
    W = H + sum_i lambda_i Hess c_i with the least-squares multipliers
    lambda = -J^+T g, J and Hess c_i from the partials of g and H at the
    end nodes; grad_norm is ||Z^T g||."""
    g, H, (y, dy, blocks, _) = gradient_hessian(
        ElasticaParams.from_array(q), target, jacobi_E, True)
    if mode == "none":
        try:
            lift = np.linalg.solve(H[3:, 3:], H[3:, :3])
        except np.linalg.LinAlgError:
            lift = np.zeros((4, 3))
        B = np.vstack([np.eye(3), -lift])
        return float(np.linalg.norm(g)), B.T @ g, B.T @ H @ B, B
    # tau[0] = 0 and tau[-1] = 1 exactly, so these rows are the end nodes
    ends = [0, -1]
    J, Hc = _constraint_jacobian(
        q, mode, True, (y[ends], dy[:, ends], blocks[ends], jacobi_E[:, ends]))
    U, sv, Y, Z = _row_space(J)
    W = H + np.einsum("m,mij->ij", -U @ ((Y.T @ g) / sv), Hc)
    gz = Z.T @ g
    return float(np.linalg.norm(gz)), gz, Z.T @ W @ Z, Z


def _unit_problem(p: ElasticaParams, target: CurveSamples):
    """(p, target) with the target moved to start at 0 and of length 1."""
    L, (x, y) = target.length, target.points[0]
    return replace(p, w=p.w / L, x0=(p.x0 - x) / L, y0=(p.y0 - y) / L), \
        replace(target, points=(target.points - (x, y)) / L, s=target.s / L,
                speeds=target.speeds / L, kappa=target.kappa * L)


def fit(problem: FitProblem) -> FitResult:
    """Minimize the L2 objective from the initial guess, optionally with
    endpoint / end-tangent constraints, by trust-region steps along the
    fit's manifold; each trial is restored onto it, so F alone judges it."""
    mode = problem.constraints
    init, target = _unit_problem(problem.init, problem.target)
    p, cviol, jacobi_E = _restore(init.as_array(), target, mode)
    f = objective(ElasticaParams.from_array(p), target, jacobi_E)
    gnorm, gr, A, B = _reduced_model(p, target, mode, jacobi_E)
    delta = 1.0
    it = 0
    converged = False
    msg = "max_iter reached"
    while True:
        if cviol > 1e-10:
            msg = "constraints not restored"
            break
        if gnorm <= _GRAD_TOL:
            converged = True
            msg = "gradient tolerance reached"
            break
        if not (math.isfinite(gnorm) and np.isfinite(A).all()):
            msg = "model not finite"
            break
        if it >= problem.max_iter:
            break
        it += 1
        y, _ = _shifted_step(A, gr, delta)
        pred = -(gr @ y + 0.5 * y @ A @ y)
        if pred <= 1e-15 * f:
            # no step can lower F measurably: at F's rounding floor unless
            # the gradient says otherwise
            converged = gnorm <= 1e3 * _GRAD_TOL
            msg = "predicted decrease below rounding"
            break
        trial, cv, trial_E = _restore(p + B @ y, target, mode)
        try:
            f_trial = objective(ElasticaParams.from_array(trial), target,
                                trial_E) if cv <= 1e-10 else math.inf
        except (DomainError, FloatingPointError, OverflowError):
            f_trial = math.inf
        rho = (f - f_trial) / pred
        if rho > 1e-4:
            p, f, cviol, jacobi_E = trial, f_trial, cv, trial_E
            gnorm, gr, A, B = _reduced_model(p, target, mode, jacobi_E)
            if rho > 0.75:
                delta = min(delta * 2.0, 1e3)
        else:
            # a radius that the rejected step still fits gives the same
            # step again, so quarter past it
            delta *= 0.25
            while delta > 1e-13 and np.linalg.norm(y) <= delta:
                delta *= 0.25
            if delta <= 1e-13:
                msg = "trust region collapsed"
                break
    L, origin = problem.target.length, problem.target.points[0]
    p[3] *= L
    p[5:] = L * p[5:] + origin
    if mode != "none":
        cviol = float(np.max(np.abs(
            _constraint_values(p, problem.target, mode, _jacobi_E_ends(p)))))
    return FitResult(params=ElasticaParams.from_array(p), objective=f * L ** 3,
                     grad_norm=gnorm, iterations=it, converged=converged,
                     constraint_violation=cviol, message=msg)
