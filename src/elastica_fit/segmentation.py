"""Recursive split-and-fit driver producing piecewise elastica.

This is the one path from a curve to reported pieces: the CLI's fit mode is
the depth-0 case, and its guess mode is the guess step alone.  The guess
step (_guess) samples a piece and gets its initial guess and the samples
that the guess's parameters describe.  A degenerate guess is kept as its
own result (_guess_result, the CLI's guess mode too); any other is fitted.
A piece's R4 is its guess's R4, or sqrt(2 F / L^3) from its fit's F.
A piece whose R4 is at or below the threshold becomes a leaf; otherwise it
is split at the arclength midpoint of its samples, mapped linearly back to
the curve's parameter, and both halves are processed, up to max_depth.  The
recursion returns its leaves in curve order.  Joins are made continuous by
fitting every piece with endpoint constraints (the default; end-tangent
constraints too when requested); the join tangent direction comes from the
target curve at the breakpoint, so the pieces decouple.
"""

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from .curve import DEFAULT_SAMPLES, sample
from .elastica import K_MIN, ElasticaCurve
from .errors import DomainError
from .fitting import FitProblem, FitResult, _unit_problem, fit, \
    gradient_hessian
from .recovery import RecoveryReport, initial_guess


@dataclass(frozen=True)
class JoinContinuity:
    """Measured gaps at one interior breakpoint."""

    position_gap: float
    tangent_gap: float


@dataclass(frozen=True)
class PiecewiseFit:
    """Result of fit_piecewise.

    breakpoints is the increasing list of global parameter values bounding
    the pieces (starting at 0, ending at 1); segments[i] covers
    [breakpoints[i], breakpoints[i+1]].  reversed_flags marks pieces whose
    parameters describe the piece traversed backwards.  threshold_met is
    False when some leaf hit max_depth with R4 above the threshold.
    """

    breakpoints: List[float]
    segments: List[FitResult]
    guesses: List[RecoveryReport]
    r4: List[float]
    reversed_flags: List[bool]
    join_continuity: List[JoinContinuity]
    threshold_met: bool

    @property
    def n_segments(self) -> int:
        return len(self.segments)

    @property
    def max_r4(self) -> float:
        return max(self.r4)


def _guess(piece, n_samples):
    """(samples, guess, target): the piece sampled, its initial guess, and
    the samples its parameters describe, reversed when reversed_input."""
    smp = sample(piece, n_samples)
    rep = initial_guess(smp)
    return smp, rep, smp.reversed() if rep.reversed_input else smp


def _guess_result(rep: RecoveryReport, target) -> FitResult:
    """A guess as a converged 0-iteration fit of target: F = R4^2 L^3 / 2,
    grad_norm as fit reports it (0 below K_MIN), and a degenerate guess's
    kind as the message."""
    grad_norm = 0.0
    if rep.params.k >= K_MIN:
        g, _ = gradient_hessian(*_unit_problem(rep.params, target))
        grad_norm = float(np.linalg.norm(g))
    return FitResult(params=rep.params,
                     objective=0.5 * rep.R4 ** 2 * target.length ** 3,
                     grad_norm=grad_norm, iterations=0, converged=True,
                     message=(f"degenerate {rep.degenerate}"
                              if rep.degenerate else ""))


def _arclength_midpoint(smp, t0, t1):
    """Global parameter at which the sampled piece's arclength is halved."""
    t_loc = float(np.interp(0.5 * smp.length, smp.s, smp.t))
    t_loc = min(max(t_loc, 1e-6), 1.0 - 1e-6)
    return t0 + t_loc * (t1 - t0)


def _segment_endpoint(res, reversed_flag, end):
    """Point and unit tangent of a fitted piece at its start (end=0) or
    finish (end=1), in the orientation of the original curve."""
    cur = ElasticaCurve(res.params)
    t = 1.0 - end if reversed_flag else end
    pt = cur.point(t)
    d = cur.derivative(t)
    if reversed_flag:
        d = -d
    return pt, math.atan2(d[1], d[0])


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
        """The leaves of [t0, t1] in order, each as (t0, guess, fit, r4)."""
        piece = curve.trimmed(t0, t1) if (t0, t1) != (0.0, 1.0) else curve
        smp, rep, target = _guess(piece, n_samples)
        if rep.degenerate is not None:
            res, r4 = _guess_result(rep, target), rep.R4
        else:
            res = fit(FitProblem(target=target, init=rep.params,
                                 constraints=constraints, max_iter=max_iter))
            r4 = math.sqrt(max(2.0 * res.objective, 0.0) / target.length ** 3)
        if r4 <= r4_threshold or depth >= max_depth:
            return [(t0, rep, res, r4)]
        tm = _arclength_midpoint(smp, t0, t1)
        return process(t0, tm, depth + 1) + process(tm, t1, depth + 1)

    starts, guesses, segments, r4s = map(list, zip(*process(0.0, 1.0, 0)))
    rev = [rep.reversed_input for rep in guesses]

    joins = []
    for i in range(len(segments) - 1):
        p_left, a_left = _segment_endpoint(segments[i], rev[i], 1)
        p_right, a_right = _segment_endpoint(segments[i + 1], rev[i + 1], 0)
        gap = float(np.linalg.norm(p_left - p_right))
        dth = (a_left - a_right + math.pi) % (2 * math.pi) - math.pi
        joins.append(JoinContinuity(position_gap=gap, tangent_gap=abs(dth)))

    return PiecewiseFit(
        breakpoints=starts + [1.0], segments=segments, guesses=guesses,
        r4=r4s, reversed_flags=rev, join_continuity=joins,
        threshold_met=all(r <= r4_threshold for r in r4s))
