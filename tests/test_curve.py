"""Tests for curve sampling and line integrals."""

import math
import warnings

import numpy as np
import pytest

from elastica_fit.curve import (
    BezierChain,
    Polyline,
    integrate_ds,
    load_curve,
    sample,
)
from elastica_fit.errors import DomainError

# 4-piece cubic Bezier approximation of the unit circle (tangent-matching
# constant 4/3*tan(pi/8)); its true length, frozen from adaptive quadrature
# of the speed, exceeds 2*pi by 8.815e-4
_C = 4.0 / 3.0 * math.tan(math.pi / 8.0)
CIRCLE_TRUE_LENGTH = 6.284066792295423
CIRCLE = BezierChain([
    [[1, 0], [1, _C], [_C, 1], [0, 1]],
    [[0, 1], [-_C, 1], [-1, _C], [-1, 0]],
    [[-1, 0], [-1, -_C], [-_C, -1], [0, -1]],
    [[0, -1], [_C, -1], [1, -_C], [1, 0]],
])


def test_circle_length():
    smp = sample(CIRCLE, 1024)
    assert smp.length == pytest.approx(CIRCLE_TRUE_LENGTH, abs=1e-10)
    assert smp.length == pytest.approx(2 * math.pi, abs=1e-3)


def test_straight_segment():
    line = Polyline([[0, 0], [1.5, 0], [3, 0]])
    smp = sample(line, 16)
    assert smp.length == pytest.approx(3.0, abs=1e-12)
    assert np.max(np.abs(smp.kappa)) == 0.0
    assert np.max(np.abs(smp.theta)) == 0.0


def test_inflection_bracketing():
    # S-shaped cubic: curvature changes sign exactly once
    cur = BezierChain([[[0, 0], [1, 1], [2, -1], [3, 0]]])
    smp = sample(cur, 256)
    signs = np.sign(smp.kappa)
    signs = signs[signs != 0]  # the midpoint node sits exactly on the inflection
    changes = np.sum(np.abs(np.diff(signs)) > 0)
    assert changes == 1


def test_integrate_constant_is_length():
    smp = sample(CIRCLE, 512)
    assert integrate_ds(smp, np.ones(len(smp.t))) == pytest.approx(
        smp.length, abs=1e-8)


def test_total_turning_on_circle():
    smp = sample(CIRCLE, 1024)
    total = integrate_ds(smp, smp.kappa)
    assert total == pytest.approx(2 * math.pi, abs=1e-4)


def test_refinement_convergence():
    cur = BezierChain([[[0, 0], [1, 2], [3, -1], [4, 1]]])
    L1 = sample(cur, 256).length
    L2 = sample(cur, 512).length
    assert abs(L1 - L2) < 1e-10


def test_kappa_squared_refinement_oracle():
    cur = BezierChain([[[0, 0], [1, 2], [3, -1], [4, 1]]])
    lo = sample(cur, 256)
    hi = sample(cur, 1024)
    a = integrate_ds(lo, lo.kappa ** 2)
    b = integrate_ds(hi, hi.kappa ** 2)
    assert a == pytest.approx(b, rel=1e-6)


def test_theta_unwrapped():
    smp = sample(CIRCLE, 512)
    assert np.max(np.abs(np.diff(smp.theta))) < math.pi
    assert smp.theta[-1] - smp.theta[0] == pytest.approx(2 * math.pi, abs=1e-6)


def test_kappa_vs_dtheta_ds():
    cur = BezierChain([[[0, 0], [1, 2], [3, -1], [4, 1]]])
    smp = sample(cur, 2048)
    dtheta = np.gradient(smp.theta, smp.s)
    interior = slice(10, -10)
    assert np.max(np.abs(dtheta[interior] - smp.kappa[interior])) < 1e-5


def test_polyline_circle_curvature():
    # vertices exactly on a circle and sample nodes on the vertices, so the
    # three-point circumcircle estimator is exact up to roundoff
    ang = np.linspace(0, math.pi, 129)
    r = 2.5
    poly = Polyline(np.column_stack([r * np.cos(ang), r * np.sin(ang)]))
    smp = sample(poly, 128)
    assert np.max(np.abs(smp.kappa - 1 / r)) < 1e-10


def _circumcircle_loop(pts):
    """Polyline curvature node by node: the loop that sample's circumcircle
    expression replaced, kept as its reference."""
    def circumcircle_curvature(a, b, c):
        ab = b - a
        bc = c - b
        ac = c - a
        cross = ab[0] * bc[1] - ab[1] * bc[0]
        denom = np.linalg.norm(ab) * np.linalg.norm(bc) * np.linalg.norm(ac)
        if denom == 0:
            return 0.0
        return 2.0 * cross / denom

    n = len(pts) - 1
    kap = np.zeros(n + 1)
    for i in range(1, n):
        kap[i] = circumcircle_curvature(pts[i - 1], pts[i], pts[i + 1])
    kap[0] = kap[1]
    kap[-1] = kap[-2]
    return kap


@pytest.mark.parametrize("verts, n", [
    (np.random.default_rng(3).normal(size=(9, 2)), 64),
    (np.random.default_rng(4).normal(size=(17, 2)), 16),
    (np.random.default_rng(5).uniform(-1e3, 1e3, size=(40, 2)), 200),
    ([[0, 0], [1, 0.5], [3, 1.5], [4, 2]], 32),
    ([[0, 0], [1, 0], [1, 0], [2, 1], [2, 1], [3, 0]], 30),
], ids=["random", "random_vertex_nodes", "random_large", "collinear",
        "repeated_vertex"])
def test_polyline_curvature_matches_loop(verts, n):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        smp = sample(Polyline(verts), n)
    np.testing.assert_allclose(smp.kappa, _circumcircle_loop(smp.points),
                               rtol=1e-14, atol=0.0)


def test_polyline_degenerate_curvature_is_zero():
    smp = sample(Polyline([[0, 0], [1, 0.5], [3, 1.5], [4, 2]]), 32)
    assert np.all(np.abs(smp.kappa) < 1e-12)
    # nodes 10..20 sit on the repeated vertex: a zero chord on either side
    smp = sample(Polyline([[0, 0], [1, 0], [1, 0], [2, 1]]), 30)
    assert np.all(smp.kappa[10:21] == 0.0)


def test_trim_bezier_exact():
    cur = BezierChain([[[0, 0], [1, 2], [3, -1], [4, 1]],
                       [[4, 1], [5, 3], [6, 0], [7, 1]]])
    sub = cur.trimmed(0.2, 0.8)
    for u in np.linspace(0, 1, 23):
        t = 0.2 + 0.6 * u
        assert sub.point(u) == pytest.approx(cur.point(t), abs=1e-12)


def test_trim_polyline():
    poly = Polyline([[0, 0], [1, 0], [2, 1], [3, 1]])
    sub = poly.trimmed(0.25, 0.9)
    assert sub.point(0.0) == pytest.approx(poly.point(0.25), abs=1e-12)
    assert sub.point(1.0) == pytest.approx(poly.point(0.9), abs=1e-12)


def test_sample_validation():
    with pytest.raises(DomainError):
        sample(CIRCLE, 8)
    with pytest.raises(DomainError):
        integrate_ds(sample(CIRCLE, 64), np.ones(3))


def test_load_curve_roundtrip(tmp_path):
    doc = {"bezier": [[[0, 0], [1, 1], [2, 1], [3, 0]]]}
    path = tmp_path / "c.json"
    path.write_text(__import__("json").dumps(doc))
    cur = load_curve(str(path))
    assert isinstance(cur, BezierChain)
    cur2 = load_curve({"polyline": [[0, 0], [1, 1]]})
    assert isinstance(cur2, Polyline)
    with pytest.raises(DomainError):
        load_curve({"nope": []})


def test_reversed_samples():
    cur = BezierChain([[[0, 0], [1, 2], [3, -1], [4, 1]]])
    smp = sample(cur, 256)
    rev = smp.reversed()
    assert rev.points[0] == pytest.approx(smp.points[-1], abs=1e-14)
    assert rev.length == pytest.approx(smp.length, abs=1e-12)
    assert rev.kappa[5] == pytest.approx(-smp.kappa[-6], abs=1e-14)
    assert np.max(np.abs(np.diff(rev.theta))) < math.pi
