"""Tests for curve sampling and line integrals."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elastica_fit.curve import (
    BezierChain,
    Polyline,
    integrate_ds,
    load_curve,
    sample,
)
from elastica_fit.elastica import ElasticaCurve, ElasticaParams
from elastica_fit.errors import DegenerateInputError, DomainError
from elastica_fit.fitting import FitProblem, fit, residual_r4
from elastica_fit.recovery import initial_guess

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


@pytest.mark.parametrize("scale", [1e-105, 1e103])
def test_kappa_scales_over_the_double_range(scale):
    """kappa of a copy scaled by c is kappa / c, also where the cubed speed
    would go subnormal (1e-105) or overflow (1e103)."""
    pieces = np.array([[[0, 0], [1, 2], [3, -1], [4, 1]]], dtype=float)
    ref = sample(BezierChain(pieces), 64).kappa
    got = sample(BezierChain(scale * pieces), 64).kappa
    assert got * scale == pytest.approx(ref, rel=1e-12)


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
    # a hairpin: nodes 15 and 17 coincide on either side of the turn at
    # node 16, so node 16's circumcircle has a zero chord
    smp = sample(Polyline([[0, 0], [1, 0], [0, 0]]), 32)
    assert np.array_equal(smp.points[15], smp.points[17])
    assert np.all(smp.kappa == 0.0)


PLAIN = [[0, 0], [1, 1], [2, 0]]
REPEATS = {"leading": [[0, 0], [0, 0], [1, 1], [2, 0]],
           "interior": [[0, 0], [1, 1], [1, 1], [2, 0]],
           "trailing": [[0, 0], [1, 1], [2, 0], [2, 0]]}


@pytest.mark.parametrize("where", REPEATS)
def test_repeated_vertex_samples_like_plain(where):
    """Polyline drops a repeated vertex, so the nodes, theta and kappa are
    those of the polyline without it, bit for bit, and every fit mode
    reaches the same R4 in as many iterations."""
    a = sample(Polyline(REPEATS[where]), 256)
    b = sample(Polyline(PLAIN), 256)
    for f in dataclasses.fields(a):
        assert np.array_equal(getattr(a, f.name), getattr(b, f.name))
    for mode in ("none", "endpoints", "endpoints+tangents"):
        res_a, res_b = [fit(FitProblem(target=smp,
                                       init=initial_guess(smp).params,
                                       constraints=mode, max_iter=200))
                        for smp in (a, b)]
        assert res_a.converged and res_b.converged
        assert res_a.iterations == res_b.iterations
        assert residual_r4(res_a.params, a) == residual_r4(res_b.params, b)


@pytest.mark.parametrize("scale", [1e-300, 1e-16, 1.0, 1e16, 1e300])
def test_polyline_repeat_tolerance_is_relative(scale):
    """A vertex within 1e-14 of the extent of the previous kept one is a
    repeat at every scale; one 1e-13 away is kept."""
    pts = np.array([[0, 0], [1e-15, 0], [1, 1], [1, 1 + 1e-13], [2, 0]])
    poly = Polyline(scale * pts)
    assert np.array_equal(poly.points, scale * pts[[0, 2, 3, 4]])


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


def test_weights_are_kept_read_only_and_follow_the_samples():
    """weights is computed once per sample set and cannot be written; a
    reversed or replaced set gets weights of its own that agree with it."""
    smp = sample(BezierChain([[[0, 0], [1, 2], [3, -1], [4, 1]]]), 64)
    w = smp.weights
    assert smp.weights is w
    assert not w.flags.writeable
    with pytest.raises(ValueError):
        w[0] = 1.0
    assert np.array_equal(smp.reversed().weights, w[::-1])
    doubled = dataclasses.replace(smp, speeds=2.0 * smp.speeds)
    assert doubled.weights is not w
    assert np.array_equal(doubled.weights, 2.0 * w)


def _bernstein_reference(pieces, t):
    """point and derivative of a chain at one t, from the Bernstein forms
    written as products of Python floats."""
    m = len(pieces)
    x = min(max(t, 0.0), 1.0) * m
    i = min(int(x), m - 1)
    u = x - i
    v = 1 - u
    b = pieces[i].tolist()
    point = [v * v * v * b[0][j] + 3 * v * v * u * b[1][j]
             + 3 * v * u * u * b[2][j] + u * u * u * b[3][j] for j in (0, 1)]
    deriv = [3 * (v * v * (b[1][j] - b[0][j]) + 2 * v * u * (b[2][j] - b[1][j])
                  + u * u * (b[3][j] - b[2][j])) * m for j in (0, 1)]
    return point, deriv


def test_chain_powers_are_products():
    """At random non-dyadic t, a chain's points and derivatives equal the
    Bernstein products in Python floats bit for bit, in array and scalar
    calls, so they do not depend on how numpy raises to a power."""
    rng = np.random.default_rng(53)
    pieces = rng.normal(size=(3, 4, 2))
    cur = BezierChain(pieces)
    t = rng.uniform(0.0, 1.0, 400)
    pts, ders = cur.point(t), cur.derivative(t)
    for ti, pt, d in zip(t.tolist(), pts, ders):
        point, deriv = _bernstein_reference(pieces, ti)
        assert pt.tolist() == point and cur.point(ti).tolist() == point
        assert d.tolist() == deriv and cur.derivative(ti).tolist() == deriv


_METHODS = ["point", "derivative", "second_derivative"]
_TWO_PIECES = BezierChain([[[0, 0], [1, 2], [3, -1], [4, 1]],
                           [[4, 1], [5, 3], [6, 0], [7, 1]]])
_ZIGZAG = Polyline([[0, 0], [1, 0], [2, 1], [3, 1]])
_ARC = ElasticaCurve(ElasticaParams(0.8, 0.3, 2.0, 1.5, math.pi / 4,
                                    1.0, -2.0))


@pytest.mark.parametrize("method", _METHODS)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "cur, shape",
    [(_TWO_PIECES, "scalar"), (_TWO_PIECES, "array"), (_ZIGZAG, "scalar"),
     (_ZIGZAG, "array"), (_ARC, "scalar")],
    ids=["bezier-scalar", "bezier-array", "polyline-scalar",
         "polyline-array", "elastica-scalar"])
def test_non_finite_t_raises_domain_error(cur, shape, bad, method):
    t = bad if shape == "scalar" else np.array([0.0, 0.5, bad, 1.0])
    with pytest.raises(DomainError, match="non-finite"):
        getattr(cur, method)(t)


@pytest.mark.parametrize("cur", [_TWO_PIECES, _ZIGZAG, _ARC],
                         ids=["bezier", "polyline", "elastica"])
def test_trim_interval_is_validated(cur):
    """Every curve kind trims only 0 <= t0 < t1 <= 1: a backwards, empty,
    overhanging or non-finite interval raises instead of returning a
    reversed or extended piece."""
    for t0, t1 in [(0.7, 0.2), (0.4, 0.4), (-0.5, 2.0), (-0.1, 0.5),
                   (0.5, 1.5), (math.nan, 0.5), (0.0, math.inf)]:
        with pytest.raises(DomainError, match="invalid trim interval"):
            cur.trimmed(t0, t1)
    sub = cur.trimmed(0.25, 1.0)
    assert sub.point(0.0) == pytest.approx(cur.point(0.25), abs=1e-12)
    assert sub.point(1.0) == pytest.approx(cur.point(1.0), abs=1e-12)


@pytest.mark.parametrize("cur", [_TWO_PIECES, _ZIGZAG, _ARC],
                         ids=["bezier", "polyline", "elastica"])
def test_finite_t_outside_unit_interval_is_clamped(cur):
    """Every curve kind clamps a finite t to its end; BezierChain and
    Polyline also take t arrays."""
    for method in _METHODS:
        f = getattr(cur, method)
        assert np.array_equal(f(-3.5), f(0.0))
        assert np.array_equal(f(1e300), f(1.0))
        if cur is not _ARC:
            assert np.array_equal(f(np.array([-3.5, 1e300])),
                                  np.array([f(0.0), f(1.0)]))


class _Delegate:
    """Forwards the protocol calls, so sample sees an object outside the
    package and runs its per-node loop."""

    def __init__(self, cur):
        self.cur = cur

    def point(self, t):
        return self.cur.point(t)

    def derivative(self, t):
        return self.cur.derivative(t)

    def second_derivative(self, t):
        return self.cur.second_derivative(t)


class _PerNodePolyline(Polyline):
    """A Polyline evaluated one scalar t at a time, stacked with
    np.fromiter: sample's chord and circumcircle math on the per-node
    points."""

    def point(self, t):
        f = super().point
        return np.fromiter((f(ti) for ti in t), dtype=(float, 2),
                           count=len(t))


_coord = st.floats(-10.0, 10.0, allow_nan=False)


@st.composite
def _curves_and_ts(draw):
    """A 1-4-piece chain or a 2-40-vertex polyline, and t values at piece
    boundaries, at the ends, outside [0, 1], and anywhere in between."""
    if draw(st.booleans()):
        m = draw(st.integers(1, 4))
        ctrl = draw(st.lists(_coord, min_size=8 * m, max_size=8 * m))
        cur = BezierChain(np.reshape(ctrl, (m, 4, 2)))
        ref = _Delegate(cur)
    else:
        m = draw(st.integers(1, 39))
        verts = draw(st.lists(_coord, min_size=2 * m + 2,
                              max_size=2 * m + 2))
        cur = Polyline(np.reshape(verts, (m + 1, 2)))
        ref = _PerNodePolyline(cur.points)
    t = st.one_of(st.integers(0, m).map(lambda i: i / m),
                  st.sampled_from([0.0, 1.0]),
                  st.floats(-1e6, 0.0, exclude_max=True),
                  st.floats(1.0, 1e6, exclude_min=True),
                  st.floats(0.0, 1.0))
    ts = draw(st.lists(t, min_size=1, max_size=20))
    return cur, ref, ts, draw(st.integers(16, 300))


@settings(derandomize=True, deadline=None, max_examples=80, database=None)
@given(_curves_and_ts())
def test_array_evaluation_matches_scalar_calls(case):
    """An array call equals its scalar calls stacked, bit for bit, and
    sample equals the per-node loop: bitwise on a BezierChain, to rounding
    on a Polyline, whose points are also checked against scalar calls at
    the sample nodes."""
    cur, ref, ts, n = case
    for method in _METHODS:
        f = getattr(cur, method)
        scalars = [f(ti) for ti in ts]
        assert all(v.shape == (2,) for v in scalars)
        arr = f(np.array(ts))
        assert arr.shape == (len(ts), 2)
        assert arr.tobytes() == np.stack(scalars).tobytes()

    def sampled(c):
        try:
            return sample(c, n)
        except DegenerateInputError as exc:
            return str(exc)

    got, want = sampled(cur), sampled(ref)
    if isinstance(want, str):
        assert got == want
        return
    fields = ["t", "points", "speeds", "s", "theta", "kappa"]
    if isinstance(cur, BezierChain):
        for name in fields:
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    else:
        nodes = np.linspace(0.0, 1.0, n + n % 2 + 1)
        np.testing.assert_allclose(
            got.points, np.stack([cur.point(ti) for ti in nodes]),
            rtol=1e-12, atol=0)
        for name in fields[:-1]:
            np.testing.assert_allclose(getattr(got, name),
                                       getattr(want, name), rtol=1e-12, atol=0)
        np.testing.assert_allclose(got.kappa, want.kappa, rtol=0, atol=1e-8)


class _CircularArc:
    """A curve written to the scalar protocol alone: math.cos and math.sin
    reject an array t with TypeError."""

    def __init__(self, r, sweep):
        self.r, self.sweep = r, sweep

    def point(self, t):
        a = self.sweep * t
        return np.array([self.r * math.cos(a), self.r * math.sin(a)])

    def derivative(self, t):
        a = self.sweep * t
        return self.r * self.sweep * np.array([-math.sin(a), math.cos(a)])

    def second_derivative(self, t):
        return -self.sweep ** 2 * self.point(t)

    def trimmed(self, t0, t1):
        raise NotImplementedError


def test_scalar_protocol_curve_still_samples():
    arc = _CircularArc(2.5, 1.75 * math.pi)
    with pytest.raises(TypeError):
        arc.point(np.linspace(0.0, 1.0, 5))
    smp = sample(arc, 256)
    assert smp.length == pytest.approx(2.5 * 1.75 * math.pi, abs=1e-10)
    assert np.max(np.abs(smp.kappa - 1 / 2.5)) < 1e-12


def test_elastica_curve_samples_on_the_per_node_loop():
    """ElasticaCurve keeps the scalar protocol: its points, speeds, theta and
    kappa are bitwise those of the per-node loop, and its arclength is the
    exact L t, within 2e-13 L of the loop's Gauss-Legendre sum.  At these
    parameters the two arclengths differ, so the test tells them apart."""
    p = ElasticaParams(1.4, -0.3, -1.7, 0.9, 2.0, 0.5, 0.25)
    cur = ElasticaCurve(p)
    got, want = sample(cur, 256), sample(_Delegate(cur), 256)
    for name in ["t", "points", "speeds", "theta", "kappa"]:
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    assert np.array_equal(got.s, p.length * got.t)
    assert not np.array_equal(got.s, want.s)
    assert np.max(np.abs(got.s - want.s)) <= 2e-13 * p.length


class _CountingElastica(ElasticaCurve):
    calls = 0

    def derivative(self, t):
        self.calls += 1
        return super().derivative(t)


@pytest.mark.parametrize("n", [16, 256])
def test_elastica_curve_derivative_calls(n):
    """sample calls an ElasticaCurve's derivative once per node; a curve
    outside the package still gets three more per interval for its
    Gauss-Legendre arclength."""
    cur = _CountingElastica(_ARC.params)
    sample(cur, n)
    assert cur.calls == n + 1
    cur.calls = 0
    sample(_Delegate(cur), n)
    assert cur.calls == 4 * n + 1
