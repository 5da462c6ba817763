"""L2 distance objective between an elastica segment and a target curve,
its analytic gradient and Hessian, and the second-order optimizer.

The objective matches curve points by normalized arclength:

    F(p) = 1/2 * int_0^1 || y_p(s(t)/L) - x(t) ||^2 ||x'(t)|| dt.

One trust-region loop fits all three constraint modes, and every iterate
lies on the fit's manifold.  Free fits keep the similarity block
(w, phi, x0, y0) at its closed-form optimum for the shape (k, s0, ell), so
the model is the reduced Hessian of variable projection.  Pinned fits keep
c(p) = 0, and the model is the exact Lagrangian Hessian W on the null space
of the constraint Jacobian J.  The step y = -(A + mu I)^-1 b is the Newton
step (mu = 0) when A is positive definite and that step fits the radius,
else the step on the boundary ||y|| = radius, its shift mu found by
Newton's method on the secular equation from one eigendecomposition of A.
Each trial is restored onto the manifold before F is evaluated, so F
alone judges it: free fits re-solve the similarity block, pinned fits run
capped Gauss-Newton steps on c.  A rejection sets the radius to a quarter
of min(radius, ||y||), which the rejected step no longer fits, so every
iteration restores and evaluates a new trial; a good step (rho > 0.75)
doubles it only if the radius held that step back (mu > 0).  A fit has
converged when A is positive definite and its Newton decrement
1/2 b^T A^-1 b, free of the chart, is below what F (f, unit length) can
resolve: 1e-10 f, the target; 1e-15 sqrt(2 f), F's rounding; and for a
point restored to max|c| with multipliers lambda, ||lambda||_1 max|c|.

Each point the loop visits carries one elliptic evaluation, sn, cn, dn and
E at the arclengths s0 + ell*tau of the target's nodes (_jacobi_E_nodes),
made when _restore puts it on the manifold; the alignment, F, gradient and
Hessian, and in pinned modes the model's constraint rows (tau = 0, 1 of
the same partials) read from it.  Only the Gauss-Newton iterates inside
_restore and the mapped-back result evaluate at the two end nodes on their
own (_jacobi_E_ends), for c alone: the _end_pose that segmentation's join
gaps read too, minus the target's (_constraint_values, the one place c is
computed).  J is built from that evaluation only for a step that is taken.

Points, residuals and partials are complex x + iy, as in elastica, and
the free alignment is one complex weighted ratio.  fitting states no
formula of the elastica: it only contracts elastica's partials.  The
Hessian of F is a Gauss-Newton term, one real matrix product of the (7, n)
complex partials viewed as (7, 2n) floats, plus sum_i omega_i diff_i .
d2y_i from elastica._second_partials_dot.  The same contraction with the
unit vectors 1 and i at t = 0, 1 gives the position constraints' Hessians
in W, and the tangent rows read the same table's (k, s0, ell) rows against
elastica._angle_partials.  Every integral over the target is a dot product
with its Simpson weights (CurveSamples.weights); its normalized arclengths
tau and its complex points are CurveSamples.tau and .complex_points, all
three computed once per sample set.
"""

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .curve import CurveSamples
from .elastica import (
    _SECOND_PARTIALS,
    ElasticaParams,
    _angle_partials,
    _chart_modulus,
    _second_partials_dot,
    _segment_eval_arr,
    _segment_partials_arr,
    _tangent_angle,
)
from .elliptic import _jacobi_E_arr
from .errors import DomainError

CONSTRAINT_MODES = ("none", "endpoints", "endpoints+tangents")


@dataclass
class FitProblem:
    """Solved on the unit-length problem to the module docstring's stop."""

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
    """The outcome of fit.  r4 = sqrt(2 f) and grad_norm, ||g|| (free) or
    ||Z^T g|| (pinned), are taken on the unit-length problem, where F is f,
    so they hold at any scale.  params, objective and constraint_violation
    (max|c|) are in the target's units; objective is F = f L^3, and reads
    inf or 0 where that leaves the double range.  iterations counts the
    trials restored and evaluated (at most max_iter).  message is one of
    five stops, and only the first is converged:

    - "decrement below resolution";
    - "model not finite": the gradient or Hessian overflowed, as at a
      guess whose shape is nearly one point;
    - "trust region collapsed";
    - "max_iter reached";
    - "constraints not restored": Gauss-Newton cannot bring the initial
      guess onto the constraints (0 iterations).
    """

    params: ElasticaParams
    objective: float
    r4: float
    grad_norm: float
    iterations: int
    converged: bool
    constraint_violation: float = 0.0
    message: str = ""


def _jacobi_E_nodes(pvec, target: CurveSamples) -> np.ndarray:
    """sn, cn, dn and E, as a (4, n) array, at the arclengths s0 + ell*tau
    of the target's nodes: the one elliptic evaluation of a point of fit."""
    return _jacobi_E_arr(pvec[1] + pvec[2] * target.tau, pvec[0])


def objective(p: ElasticaParams, target: CurveSamples,
              _jacobi_E=None) -> float:
    """F(p): half the squared L2 distance to the target, arclength-matched.
    fit and initial_guess pass p's _jacobi_E_nodes as _jacobi_E."""
    diff = (_segment_eval_arr(p.as_array(), target.tau, _jacobi_E)
            - target.complex_points)
    f = 0.5 * (diff.real * diff.real + diff.imag * diff.imag)
    return float(np.dot(f, target.weights))


def residual_r4(p: ElasticaParams, target: CurveSamples,
                _jacobi_E=None) -> float:
    """Normalized L2 distance sqrt(2 F(p) / L^3), at any scale: evaluated
    on the _unit_problem, where L = 1.  initial_guess passes _jacobi_E."""
    return math.sqrt(max(
        2.0 * objective(*_unit_problem(p, target), _jacobi_E), 0.0))


def gradient_hessian(p, target: CurveSamples, _jacobi_E=None,
                     _partials=False):
    """Analytic gradient (7,) and symmetric Hessian (7, 7) of the objective
    at p, an ElasticaParams or fit's (7,) parameter array.  fit passes p's
    _jacobi_E_nodes as _jacobi_E, and asks with _partials for the
    _segment_partials_arr at the nodes as a third value."""
    pvec = p.as_array() if isinstance(p, ElasticaParams) else p
    t = target.tau
    partials = _segment_partials_arr(pvec, t, True, _jacobi_E)
    y, dy, blocks, _ = partials
    wts = target.weights
    v = wts * (y - target.complex_points)
    jac = dy.view(float)    # the real (7, 2n) Jacobian
    grad = jac @ v.view(float)
    hess = ((dy * wts).view(float) @ jac.T
            + _second_partials_dot(v, t, blocks, pvec[3], pvec[4]))
    if _partials:
        return grad, 0.5 * (hess + hess.T), partials
    return grad, 0.5 * (hess + hess.T)


# ---------------------------------------------------------------------------
# constraints

def _wrap_angle(a):
    return (a + math.pi) % (2 * math.pi) - math.pi


_ENDS = np.array([0.0, 1.0])
#: the _SECOND_PARTIALS rows (i, j, power of t, block) in (k, s0, ell)
_SHAPE_PARTIALS = _SECOND_PARTIALS[:4, _SECOND_PARTIALS[1] < 3]


def _jacobi_E_ends(pvec) -> np.ndarray:
    """sn, cn, dn and E, (4, 2), at the end nodes t = 0, 1."""
    return _jacobi_E_arr(pvec[1] + pvec[2] * _ENDS, pvec[0])


def _end_pose(pvec, jacobi_E):
    """The segment's points (2, 2) and unwrapped tangent angles (2,) at the
    end nodes t = 0, 1, from its _jacobi_E_ends.  The angle of
    y_s = dy/ds0 is phi + the _tangent_angle at s0 + ell*t, and
    dy/dt = ell * y_s adds pi when ell < 0."""
    th = _tangent_angle(pvec[0], jacobi_E) + math.pi * (pvec[2] < 0)
    return (_segment_eval_arr(pvec, _ENDS, jacobi_E).view(float)
            .reshape(2, 2), pvec[4] + th)


def _constraint_values(pvec, target: CurveSamples, mode: str, jacobi_E):
    """The constraints c(p) from _jacobi_E_ends: the _end_pose points minus
    the target's at t = 0, 1, then the wrapped tangent-angle differences."""
    y, angles = _end_pose(pvec, jacobi_E)
    c = (y - target.points[[0, -1]]).ravel()
    if mode == "endpoints+tangents":
        c = np.concatenate(
            [c, _wrap_angle(angles - target.theta[[0, -1]])])
    return c


def _constraint_jacobian(pvec, mode: str, with_hessians=False, ends=None):
    """The Jacobian (m, 7) of the constraints c(p) = 0 and, if
    with_hessians, the Hessian of each constraint (m, 7, 7), from the
    _segment_partials_arr (y, dy, blocks, jacobi_E) at the end nodes
    t = 0, 1: ends, if the caller has them, else one 2-node evaluation.

    Position rows come from the segment partials.  A tangent row,
    phi + theta(s0 + ell*t, k), reads the _angle_partials as dy reads the
    zeta blocks: its gradient is (theta_k, theta_s, t*theta_s, 0, 1, 0, 0),
    its Hessian the _SECOND_PARTIALS rows in (k, s0, ell).
    """
    if ends is None:
        ends = _segment_partials_arr(pvec, _ENDS, with_hessians)
    _, dy, blocks, jacobi_E = ends
    jac = np.ascontiguousarray(dy).view(float).T
    if with_hessians:
        # row 2e + j is coordinate j at end e: the unit vector 1 or i there
        hess = _second_partials_dot(np.eye(4).view(complex), _ENDS,
                                    blocks, pvec[3], pvec[4])
    if mode == "endpoints+tangents":
        t = _ENDS
        th = _angle_partials(pvec[1] + pvec[2] * t, pvec[0], jacobi_E,
                             with_hessians)
        grad = np.zeros((2, 7))
        grad[:, 0], grad[:, 1], grad[:, 2] = th[:, 3], th[:, 1], t * th[:, 1]
        grad[:, 4] = 1.0
        jac = np.vstack([jac, grad])
        if with_hessians:
            i, j, a, m = _SHAPE_PARTIALS
            h = np.zeros((2, 7, 7))
            h[:, i, j] = h[:, j, i] = t[:, None] ** a * th[:, m]
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
    """(y, mu, decrement): the trust-region step y = -(A + mu I)^-1 b, from
    one eigendecomposition A = V diag(lambda) V^T, and the model's Newton
    decrement 1/2 b^T A^-1 b = 1/2 sum c_i^2 / lambda_i, c = V^T b (inf
    unless A is positive definite).

    mu = 0 if A is positive definite and its Newton step fits the radius.
    Otherwise y lies on the boundary ||y|| = radius: Newton's method on
    1/||y(mu)|| - 1/radius, concave and increasing for
    mu > max(0, -lambda_min) (More & Sorensen, SIAM J. Sci. Stat. Comput.
    4, 1983), climbs to its root from mu0 = max(0, -lambda_min) + 1e-12,
    each iterate's step longer than the radius until one fits.  A shift
    that leaves A + mu I singular to rounding, or y infinite, is never
    taken: it becomes 2 mu + 1e-10.  When y(mu0) fits already, no
    admissible shift reaches the radius (the hard case, b orthogonal to
    the lowest eigenvectors, or a y that underflows), and y(mu0) is the
    step.  After a rejected step fit sets the radius to
    min(radius, ||y||) / 4, which no step of this one's length fits."""
    lam, V = np.linalg.eigh(A)
    lam, c = lam.tolist(), (V.T @ b).tolist()
    mu = 0.0 if lam[0] > 0 else 1e-12 - lam[0]
    decrement = (0.5 * sum(ci * ci / li for ci, li in zip(c, lam))
                 if lam[0] > 0 else math.inf)
    for _ in range(100):
        if lam[0] + mu > 0:
            y = [ci / (li + mu) for ci, li in zip(c, lam)]
            norm = math.hypot(*y)
            if norm <= radius:
                break
            if norm < math.inf:
                # Newton's step: 1/||y|| has slope slope/||y||
                slope = sum((yi / norm) ** 2 / (li + mu)
                            for yi, li in zip(y, lam))
                mu = max(mu + (norm - radius) / radius / slope,
                         math.nextafter(mu, math.inf))
                continue
        mu = 2.0 * mu + 1e-10
    return -V @ np.array(y), mu, decrement


def _align_similarity(pvec, target: CurveSamples, jacobi_E):
    """Optimal (w, phi, x0, y0) for fixed (k, s0, ell), by weighted
    similarity Procrustes, from pvec's _jacobi_E_nodes; never increases
    the objective.  The free fit's restoration and recovery.initial_guess
    both take their similarity from it: with z the basic zeta values and x
    the target's points, complex and centred by their weighted means,
    w e^(i phi) = m = sum omega conj(z) x / sum omega |z|^2 and
    x0 + i y0 = xbar - m zbar."""
    wts = target.weights
    tot = float(np.sum(wts))
    if tot <= 0:
        return pvec
    z = _segment_eval_arr(np.concatenate([pvec[:3], (1.0, 0.0, 0.0, 0.0)]),
                          target.tau, jacobi_E)
    x = target.complex_points
    zbar = complex(wts @ z) / tot
    xbar = complex(wts @ x) / tot
    zc = z - zbar
    wzc = wts * zc.conj()
    denom = float((wzc @ zc).real)
    if denom <= 0:
        return pvec
    m = complex(wzc @ (x - xbar)) / denom
    if m == 0:
        return pvec
    c = xbar - m * zbar
    return np.concatenate([pvec[:3], (abs(m), cmath.phase(m), c.real, c.imag)])


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
    """((grad_norm, ||lambda||_1), B^T g, B^T W B, B) at a point q on the
    fit's manifold, B a basis of the directions along it, from q's
    _jacobi_E_nodes; one that overflows has infinite or NaN entries,
    without a warning.

    Free: W = H and B = [I; -H_ll^-1 H_ln] over the similarity block l.  As
    F is minimal over l at q, B^T g and B^T H B are the gradient and Hessian
    of (k, s0, ell) -> F(., l*(.)); grad_norm is ||g||, and there are no
    multipliers (0).  If H_ll is singular, B = [I; 0]: the model along a
    fixed l, which restoring the trial re-aligns.  Pinned: B = Z, the null
    space of J, and W = H + sum_i lambda_i Hess c_i with the least-squares
    multipliers lambda = -J^+T g, J and Hess c_i from the partials of g and
    H at the end nodes; grad_norm is ||Z^T g||."""
    g, H, (y, dy, blocks, _) = gradient_hessian(q, target, jacobi_E, True)
    if mode == "none":
        try:
            lift = np.linalg.solve(H[3:, 3:], H[3:, :3])
        except np.linalg.LinAlgError:
            lift = np.zeros((4, 3))
        B = np.vstack([np.eye(3), -lift])
        return (float(np.linalg.norm(g)), 0.0), B.T @ g, B.T @ H @ B, B
    # tau[0] = 0 and tau[-1] = 1 exactly, so these rows are the end nodes
    ends = [0, -1]
    J, Hc = _constraint_jacobian(
        q, mode, True, (y[ends], dy[:, ends], blocks[ends], jacobi_E[:, ends]))
    U, sv, Y, Z = _row_space(J)
    lam = -U @ ((Y.T @ g) / sv)
    gz = Z.T @ g
    return ((float(np.linalg.norm(gz)), float(np.sum(np.abs(lam)))), gz,
            Z.T @ (H + np.einsum("m,mij->ij", lam, Hc)) @ Z, Z)


def _unit_target(target: CurveSamples) -> CurveSamples:
    """The target moved to start at 0 and scaled to length 1."""
    L, o = target.length, target.points[0]
    return replace(target, points=(target.points - o) / L, s=target.s / L,
                   speeds=target.speeds / L, kappa=target.kappa * L)


def _unit_map(pvec, target: CurveSamples, inverse=False) -> np.ndarray:
    """pvec moved onto _unit_target(target), w / L and ((x0, y0) - origin)
    / L with origin its first point; or with inverse back from it."""
    L, origin = target.length, target.points[0]
    q = np.array(pvec, dtype=float)
    q[3], q[5:] = ((q[3] * L, L * q[5:] + origin) if inverse
                   else (q[3] / L, (q[5:] - origin) / L))
    return q


def _unit_problem(p: ElasticaParams, target: CurveSamples):
    """(p, target) on the unit-length problem."""
    return (ElasticaParams.from_array(_unit_map(p.as_array(), target)),
            _unit_target(target))


def _target_objective(f: float, target: CurveSamples) -> float:
    """The unit problem's F, f, in the target's units: f L^3, one factor of
    L at a time, so inf or 0 where it leaves the double range."""
    L = target.length
    return f * L * L * L


def fit(problem: FitProblem) -> FitResult:
    """Minimize the L2 objective from the initial guess, optionally with
    endpoint / end-tangent constraints, by trust-region steps along the
    fit's manifold; each trial is restored onto it, so F alone judges it."""
    mode = problem.constraints
    init, target = _unit_problem(problem.init, problem.target)
    p, cviol, jacobi_E = _restore(init.as_array(), target, mode)
    f = objective(ElasticaParams.from_array(p), target, jacobi_E)
    (gnorm, lam), gr, A, B = _reduced_model(p, target, mode, jacobi_E)
    delta, it = 1.0, 0
    converged = False
    msg = "max_iter reached"
    while True:
        if cviol > 1e-10:
            msg = "constraints not restored"
            break
        if not (math.isfinite(gnorm) and np.isfinite(A).all()):
            msg = "model not finite"
            break
        y, mu, decrement = _shifted_step(A, gr, delta)
        if decrement <= (1e-10 * f + 1e-15 * math.sqrt(2.0 * f)
                         + lam * cviol):
            converged = True
            msg = "decrement below resolution"
            break
        if it >= problem.max_iter:
            break
        it += 1
        pred = -(gr @ y + 0.5 * y @ A @ y)
        trial, cv, trial_E = _restore(p + B @ y, target, mode)
        try:
            f_trial = objective(ElasticaParams.from_array(trial), target,
                                trial_E) if cv <= 1e-10 else math.inf
        except (DomainError, FloatingPointError, OverflowError):
            f_trial = math.inf
        rho = (f - f_trial) / pred if pred > 0 else 0.0
        if rho > 1e-4:
            p, f, cviol, jacobi_E = trial, f_trial, cv, trial_E
            (gnorm, lam), gr, A, B = _reduced_model(p, target, mode, jacobi_E)
            if rho > 0.75 and mu > 0:
                # only a step that the radius held back asks for more
                delta = min(delta * 2.0, 1e3)
        else:
            # a radius that the rejected step still fits gives the same
            # step again, so quarter the shorter of the two
            delta = 0.25 * min(delta, float(np.linalg.norm(y)))
            if delta <= 1e-13:
                msg = "trust region collapsed"
                break
    p = _unit_map(p, problem.target, inverse=True)
    if mode != "none":
        cviol = float(np.max(np.abs(
            _constraint_values(p, problem.target, mode, _jacobi_E_ends(p)))))
    return FitResult(params=ElasticaParams.from_array(p),
                     objective=_target_objective(f, problem.target),
                     r4=math.sqrt(max(2.0 * f, 0.0)), grad_norm=gnorm,
                     iterations=it, converged=converged,
                     constraint_violation=cviol, message=msg)
