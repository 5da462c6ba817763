"""Input checks of the public constructors and functions: each rejects its
bad input with its documented error type."""

import math

import numpy as np
import pytest

from elastica_fit.curve import BezierChain, CurveSamples, Polyline
from elastica_fit.elastica import ElasticaParams, basic_point
from elastica_fit.elliptic import jacobi
from elastica_fit.errors import DegenerateInputError, DomainError
from elastica_fit.recovery import affine_curvature_fit
from elastica_fit.svg import render_svg

CUBIC = [[0.0, 0.0], [1.0, 1.0], [2.0, 1.0], [3.0, 0.0]]
GOOD = dict(k=0.8, s0=0.2, ell=3.0, w=1.5, phi=0.7, x0=2.0, y0=-1.0)


def _coincident_samples():
    """17 nodes at one point with curvature 1: the curvature moment
    system has rank one."""
    n = 17
    return CurveSamples(t=np.linspace(0.0, 1.0, n), points=np.zeros((n, 2)),
                        speeds=np.ones(n), s=np.linspace(0.0, 1.0, n),
                        theta=np.zeros(n), kappa=np.ones(n))


CASES = {
    "bezier_shape": (lambda: BezierChain([CUBIC[:3]]), DomainError),
    "bezier_nonfinite": (
        lambda: BezierChain([CUBIC[:3] + [[3.0, math.nan]]]), DomainError),
    "polyline_shape": (lambda: Polyline([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]),
                       DomainError),
    "polyline_nonfinite": (lambda: Polyline([[0.0, 0.0], [math.inf, 1.0]]),
                           DomainError),
    "params_nonfinite": (lambda: ElasticaParams(**{**GOOD, "phi": math.nan}),
                         DomainError),
    "params_w_zero": (lambda: ElasticaParams(**{**GOOD, "w": 0.0}),
                      DomainError),
    "params_w_negative": (lambda: ElasticaParams(**{**GOOD, "w": -1.0}),
                          DomainError),
    "basic_point_nonfinite": (lambda: basic_point(math.inf, 0.8),
                              DomainError),
    "jacobi_negative_modulus": (lambda: jacobi(0.5, -0.3), DomainError),
    "svg_no_layers": (lambda: render_svg([]), DomainError),
    "svg_nonfinite": (
        lambda: render_svg([(np.array([[0.0, 0.0], [math.nan, 1.0]]),
                             "target")]), DomainError),
    "singular_moments": (lambda: affine_curvature_fit(_coincident_samples()),
                         DegenerateInputError),
}


@pytest.mark.parametrize("name", CASES)
def test_bad_input_raises_documented_error(name):
    call, error = CASES[name]
    with pytest.raises(error):
        call()
