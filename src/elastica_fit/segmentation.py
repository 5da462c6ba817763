"""Recursive split-and-fit driver producing piecewise elastica.

This is the one path from a curve to reported pieces: the CLI's fit mode is
the depth-0 case, and its guess mode is the guess step alone: sample a
piece and take its initial guess, whose parameters describe the piece as
sampled (ell < 0 for a piece the guess runs backwards).  A degenerate guess
is kept as its own result (_guess_result, the CLI's guess mode too); any
other is fitted.  A piece's R4 is its result's r4, which fitting states
on the unit-length problem: its guess's R4, or its fit's.
A piece whose R4 is at or below the threshold becomes a leaf; otherwise it
is split at the arclength midpoint of its samples, mapped linearly back to
the curve's parameter, and both halves are processed, up to max_depth.  The
recursion returns its leaves in curve order.  Joins are made continuous by
fitting every piece with endpoint constraints (the default; end-tangent
constraints too when requested); the join tangent direction comes from the
target curve at the breakpoint, so the pieces decouple.  Join gaps are
read from each leaf's fitting._end_pose, as its pinned constraints are.
"""

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from .curve import DEFAULT_SAMPLES, sample
from .errors import DomainError
from .fitting import FitProblem, FitResult, _end_pose, _jacobi_E_ends, \
    _target_objective, _unit_problem, _wrap_angle, fit, gradient_hessian
from .recovery import RecoveryReport, initial_guess


@dataclass(frozen=True)
class JoinContinuity:
    """Gaps at one interior breakpoint between the two pieces' _end_pose:
    point distance and wrapped tangent-angle difference."""

    position_gap: float
    tangent_gap: float


@dataclass(frozen=True)
class PiecewiseFit:
    """Result of fit_piecewise.

    breakpoints is the increasing list of global parameter values bounding
    the pieces (starting at 0, ending at 1); segments[i] covers
    [breakpoints[i], breakpoints[i+1]] in the curve's direction.
    threshold_met is False when some leaf hit max_depth with R4 above the
    threshold.
    """

    breakpoints: List[float]
    segments: List[FitResult]
    guesses: List[RecoveryReport]
    join_continuity: List[JoinContinuity]
    threshold_met: bool

    @property
    def n_segments(self) -> int:
        return len(self.segments)

    @property
    def r4(self) -> List[float]:
        return [res.r4 for res in self.segments]

    @property
    def max_r4(self) -> float:
        return max(self.r4)


def _guess_result(rep: RecoveryReport, target) -> FitResult:
    """A guess as a converged 0-iteration fit of target: r4 its R4, F from
    the unit problem's R4^2 / 2, grad_norm as fit reports it (0 for a
    degenerate guess, whose k is 0), and a degenerate guess's kind as the
    message."""
    grad_norm = 0.0
    if rep.degenerate is None:
        g, _ = gradient_hessian(*_unit_problem(rep.params, target))
        grad_norm = float(np.linalg.norm(g))
    return FitResult(params=rep.params,
                     objective=_target_objective(0.5 * rep.R4 * rep.R4,
                                                 target),
                     r4=rep.R4, grad_norm=grad_norm, iterations=0,
                     converged=True,
                     message=(f"degenerate {rep.degenerate}"
                              if rep.degenerate else ""))


def _arclength_midpoint(smp, t0, t1):
    """Global parameter at which the sampled piece's arclength is halved."""
    t_loc = float(np.interp(0.5 * smp.length, smp.s, smp.t))
    t_loc = min(max(t_loc, 1e-6), 1.0 - 1e-6)
    return t0 + t_loc * (t1 - t0)


def fit_piecewise(curve, r4_threshold: float, max_depth: int,
                  constraints: str = "endpoints",
                  n_samples: int = DEFAULT_SAMPLES,
                  max_iter: int = 200) -> PiecewiseFit:
    """Approximate a curve by a chain of elastica segments, splitting at
    arclength midpoints until R4 meets the threshold or depth runs out."""
    if r4_threshold <= 0:
        raise DomainError("r4_threshold must be positive")
    if max_depth < 0:
        raise DomainError("max_depth must be nonnegative")

    def process(t0, t1, depth):
        """The leaves of [t0, t1] in order, each as (t0, guess, fit)."""
        piece = curve.trimmed(t0, t1) if (t0, t1) != (0.0, 1.0) else curve
        smp = sample(piece, n_samples)
        rep = initial_guess(smp)
        if rep.degenerate is not None:
            res = _guess_result(rep, smp)
        else:
            res = fit(FitProblem(target=smp, init=rep.params,
                                 constraints=constraints, max_iter=max_iter))
        if res.r4 <= r4_threshold or depth >= max_depth:
            return [(t0, rep, res)]
        tm = _arclength_midpoint(smp, t0, t1)
        return process(t0, tm, depth + 1) + process(tm, t1, depth + 1)

    starts, guesses, segments = map(list, zip(*process(0.0, 1.0, 0)))

    poses = [_end_pose(q, _jacobi_E_ends(q))
             for q in (res.params.as_array() for res in segments)]
    joins = [JoinContinuity(
        position_gap=math.hypot(*(y_l[1] - y_r[0])),
        tangent_gap=float(abs(_wrap_angle(a_l[1] - a_r[0]))))
        for (y_l, a_l), (y_r, a_r) in zip(poses, poses[1:])]

    return PiecewiseFit(
        breakpoints=starts + [1.0], segments=segments, guesses=guesses,
        join_continuity=joins,
        threshold_met=all(res.r4 <= r4_threshold for res in segments))
