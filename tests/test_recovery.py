"""Tests for canonical initial-guess recovery."""

import dataclasses
import importlib
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from elastica_fit.curve import (
    BezierChain,
    Polyline,
    load_curve,
    sample,
)
from elastica_fit import elastica, fitting, recovery
from elastica_fit.elastica import ElasticaCurve, ElasticaParams
from elastica_fit.elliptic import _jacobi_E, quarter_period
from elastica_fit.fitting import FitProblem, _align_similarity, \
    _jacobi_E_at, fit, residual_r4
from elastica_fit.recovery import (
    _monotone_runs,
    affine_curvature_fit,
    classify_and_modulus,
    initial_guess,
    recover_arc_interval,
)

ROOT = Path(__file__).resolve().parent.parent
ARC_ASYM = ROOT / "corpus" / "arc_asym.json"

REFERENCE = ElasticaParams(k=0.8, s0=0.2, ell=3.0, w=1.5, phi=0.7,
                           x0=2.0, y0=-1.0)


def elastica_samples(p, n=2048):
    return sample(ElasticaCurve(p), n)


def transformed(p, rho, c, shift=(0.0, 0.0)):
    """Samples of the elastica p after rotation rho, scale c, translation."""
    smp = elastica_samples(p)
    R = np.array([[math.cos(rho), -math.sin(rho)],
                  [math.sin(rho), math.cos(rho)]])
    pts = c * smp.points @ R.T + np.asarray(shift)
    return dataclasses.replace(
        smp, points=pts, speeds=c * smp.speeds, s=c * smp.s,
        theta=smp.theta + rho, kappa=smp.kappa / c)


class TestAffineCurvatureFit:
    def test_exact_elastica_reference(self):
        fit = affine_curvature_fit(elastica_samples(REFERENCE))
        assert fit.lam == pytest.approx(1.0 / 2.25, abs=1e-6)
        assert fit.phi == pytest.approx(0.7, abs=1e-5)
        assert fit.w == pytest.approx(1.5, abs=1e-5)
        assert fit.R1 <= 1e-5
        assert fit.R2 <= 1e-5

    def test_full_circle_symmetry(self):
        ang = np.linspace(0.0, 2 * math.pi, 2049)
        r = 2.0
        poly = Polyline(np.column_stack([r * np.cos(ang), r * np.sin(ang)]))
        fit = affine_curvature_fit(sample(poly, 2048))
        assert abs(fit.lambda1) < 1e-6
        assert abs(fit.lambda2) < 1e-6
        assert fit.alpha == pytest.approx(1.0 / r, abs=1e-4)

    def test_rotation_scale_equivariance(self):
        base = affine_curvature_fit(elastica_samples(REFERENCE))
        rho, c = 0.9, 1.7
        fit = affine_curvature_fit(transformed(REFERENCE, rho, c))
        assert fit.lam == pytest.approx(base.lam / c ** 2, rel=1e-8)
        dphi = (fit.phi - base.phi - rho + math.pi) % (2 * math.pi) - math.pi
        assert abs(dphi) < 1e-8
        assert fit.R1 == pytest.approx(base.R1, abs=1e-10)

    def test_delta_minus_real(self):
        fit = affine_curvature_fit(elastica_samples(REFERENCE))
        assert fit.alpha ** 2 - 2 * fit.lam * (fit.beta - 1.0) >= 0.0


class TestClassifyAndModulus:
    @pytest.mark.parametrize("k_true", [0.3, 0.8, 1.3, 1.8])
    def test_modulus_roundtrip(self, k_true):
        p = ElasticaParams(k=k_true, s0=0.2, ell=2.0, w=1.0, phi=0.4,
                           x0=0.0, y0=0.0)
        fit = affine_curvature_fit(elastica_samples(p))
        k = classify_and_modulus(fit)
        assert (k < 1.0) == (k_true < 1.0)
        assert k == pytest.approx(k_true, abs=1e-4)

    @pytest.mark.parametrize("k_true", [0.3, 0.8, 0.99, 1.01, 1.3, 1.8])
    def test_side_of_one_is_the_parabola_test(self, k_true):
        """The paper's shape test, min P = beta - alpha^2 / (2 lambda) >= -1
        for an inflectional curve, and the charted k < 1 agree on affine
        fits of exact elastica on both sides of 1."""
        p = ElasticaParams(k=k_true, s0=0.2, ell=2.0, w=1.0, phi=0.4,
                           x0=0.0, y0=0.0)
        fit = affine_curvature_fit(elastica_samples(p))
        min_p = fit.beta - fit.alpha ** 2 / (2 * fit.lam)
        assert (classify_and_modulus(fit) < 1.0) == (min_p >= -1.0)
        assert (min_p >= -1.0) == (k_true < 1.0)

    def test_modulus_identity(self):
        # alpha^2 - 2 lambda (beta - 1) = 4 k^2 / w^2
        fit = affine_curvature_fit(elastica_samples(REFERENCE))
        lhs = fit.alpha ** 2 - 2 * fit.lam * (fit.beta - 1.0)
        assert lhs == pytest.approx(4 * 0.8 ** 2 / 1.5 ** 2, rel=1e-6)


class TestRecoverArcInterval:
    def test_reference_roundtrip(self):
        smp = elastica_samples(REFERENCE)
        fit = affine_curvature_fit(smp)
        k = classify_and_modulus(fit)
        s0, ell, n, R3 = recover_arc_interval(smp, fit, k)
        assert s0 == pytest.approx(0.2, abs=1e-3)
        assert ell == pytest.approx(3.0, abs=1e-3)
        assert R3 == 0.0

    def test_out_of_range_measure(self):
        # push u beyond u_max on roughly 10% of the arclength and check that
        # R3 reports that fraction (verified by direct measurement)
        smp = elastica_samples(REFERENCE)
        fit = affine_curvature_fit(smp)
        k = classify_and_modulus(fit)
        delta = math.sqrt(fit.alpha ** 2 - 2 * fit.lam * (fit.beta - 1.0))
        u_max = (-fit.alpha + delta) / fit.lam
        u = fit.u.copy()
        m = len(u) // 10
        u[:m] = u_max + 1.0
        doctored = dataclasses.replace(fit, u=u)
        _, _, _, R3 = recover_arc_interval(smp, doctored, k)
        expected = (u > u_max) @ smp.weights / smp.length
        assert R3 == pytest.approx(expected, abs=1e-12)
        assert 0.05 < R3 < 0.2


ROUNDTRIP_CASES = [
    ElasticaParams(0.8, 0.2, 3.0, 1.5, 0.7, 2.0, -1.0),
    ElasticaParams(0.6, 2.5 * quarter_period(0.6), 5.0, 0.7, -0.4, 0.0, 0.0),
    ElasticaParams(0.9, 0.5, 6.0, 1.3, 1.0, 2.0, 1.0),
    ElasticaParams(1.3, 0.2, 1.5, 1.0, 0.3, 0.5, 0.5),
    ElasticaParams(1.4, 0.3, 6 * quarter_period(1.4), 0.8, 1.2, -1.0, 0.5),
    ElasticaParams(1.2, 0.6, 2.2, 1.1, -0.7, 0.3, -0.4),
]


class TestInitialGuess:
    @pytest.mark.parametrize("p", ROUNDTRIP_CASES,
                             ids=lambda p: f"k{p.k:g}_l{p.ell:.2g}")
    def test_roundtrip(self, p):
        rep = initial_guess(elastica_samples(p))
        q = rep.params
        assert rep.inflectional == (p.k < 1.0)
        assert q.k == pytest.approx(p.k, abs=1e-4)
        assert q.w == pytest.approx(p.w, abs=1e-4)
        assert q.phi == pytest.approx(p.phi, abs=1e-4)
        assert q.s0 == pytest.approx(p.s0, abs=1e-3)
        assert q.ell == pytest.approx(p.ell, abs=1e-3)
        L = p.length
        assert q.x0 == pytest.approx(p.x0, abs=1e-4 * L)
        assert q.y0 == pytest.approx(p.y0, abs=1e-4 * L)
        assert rep.R1 <= 1e-5
        assert rep.R2 <= 1e-5
        assert rep.R3 == 0.0
        assert rep.R4 <= 1e-4

    def test_translation_linearity(self):
        q0 = initial_guess(elastica_samples(REFERENCE)).params
        q1 = initial_guess(transformed(REFERENCE, 0.0, 1.0,
                                       shift=(0.3, -0.7))).params
        assert q1.x0 - q0.x0 == pytest.approx(0.3, abs=1e-12)
        assert q1.y0 - q0.y0 == pytest.approx(-0.7, abs=1e-12)

    def test_reference_translation(self):
        q = initial_guess(elastica_samples(REFERENCE)).params
        assert q.x0 == pytest.approx(2.0, abs=1e-10)
        assert q.y0 == pytest.approx(-1.0, abs=1e-10)

    def test_full_similarity_equivariance(self):
        p = ElasticaParams(0.75, 0.4, 2.8, 1.2, 0.5, 0.6, -0.3)
        base = initial_guess(elastica_samples(p))
        rho, c, v = -1.1, 0.8, np.array([1.5, 2.5])
        rep = initial_guess(transformed(p, rho, c, shift=v))
        q0, q1 = base.params, rep.params
        assert q1.k == pytest.approx(q0.k, abs=1e-6)
        assert q1.s0 == pytest.approx(q0.s0, abs=1e-6)
        assert q1.ell == pytest.approx(q0.ell, abs=1e-6)
        assert q1.w == pytest.approx(c * q0.w, abs=1e-6)
        dphi = (q1.phi - q0.phi - rho + math.pi) % (2 * math.pi) - math.pi
        assert abs(dphi) < 1e-6
        R = np.array([[math.cos(rho), -math.sin(rho)],
                      [math.sin(rho), math.cos(rho)]])
        want = c * R @ np.array([q0.x0, q0.y0]) + v
        assert q1.x0 == pytest.approx(want[0], abs=1e-6)
        assert q1.y0 == pytest.approx(want[1], abs=1e-6)

    def test_negatively_curved_reversal(self):
        # a non-inflectional arc traversed so its curvature is negative:
        # the segment s in [0.4, 2.2] run backwards, s0 = 2.2, ell = -1.8
        p = ElasticaParams(1.3, 2.2, -1.8, 1.0, 0.2, 0.0, 0.0)
        rev = elastica_samples(p)
        rep = initial_guess(rev)
        assert not rep.inflectional
        assert rep.params.k == pytest.approx(1.3, abs=1e-4)
        assert rep.params.ell == pytest.approx(-1.8, abs=1e-3)
        assert rep.params.s0 == pytest.approx(2.2, abs=1e-3)
        assert rep.R4 <= 1e-4
        assert residual_r4(rep.params, rev) <= 1e-4

    def test_backwards_guess_is_one_pass(self, monkeypatch):
        """arc_asym's guess runs its segment backwards (ell < 0) from the
        one affine curvature fit of the samples as given."""
        calls = []

        def counted(smp):
            calls.append(smp)
            return affine_curvature_fit(smp)

        monkeypatch.setattr(recovery, "affine_curvature_fit", counted)
        rep = initial_guess(sample(load_curve(str(ARC_ASYM)), 256))
        assert rep.params.ell < 0
        assert len(calls) == 1

    def test_reversed_chain_is_the_same_segment(self):
        """arc_asym and its reversed chain, at 256 samples, are guessed as
        the one segment run both ways: (s0, ell) -> (s0 + ell, -ell)."""
        cur = load_curve(str(ARC_ASYM))
        bwd = initial_guess(sample(cur, 256))
        fwd = initial_guess(sample(BezierChain(cur.pieces[::-1, ::-1]), 256))
        q, q0 = bwd.params, fwd.params
        assert q.ell < 0 < q0.ell
        assert q.k == pytest.approx(q0.k, abs=1e-10)
        assert (q.s0 + q.ell, -q.ell) == pytest.approx((q0.s0, q0.ell),
                                                        abs=1e-9)
        assert bwd.R4 == pytest.approx(fwd.R4, rel=1e-8)

    def test_one_node_evaluation(self, monkeypatch):
        """A non-degenerate guess evaluates sn, cn, dn and E on the nodes
        once: R4 reads the alignment's evaluation, bitwise as
        residual_r4 evaluates it again."""
        smp = elastica_samples(REFERENCE, 256)
        calls = []

        def counted(s, k):
            calls.append(np.size(s))
            return _jacobi_E(s, k)

        for mod in (fitting, elastica):
            monkeypatch.setattr(mod, "_jacobi_E", counted)
        rep = initial_guess(smp)
        assert rep.degenerate is None
        assert [n for n in calls if n > 2] == [len(smp.t)]
        assert rep.R4 == residual_r4(rep.params, smp)

    def test_collinear_is_line(self):
        # kappa is identically zero on an axis and at 45 degrees, where the
        # moment system is exactly singular; at 30 degrees it is rounding
        # noise, max|kappa| L <= LAMBDA_MIN_REL, and kappa = 0 is fitted
        curves = [Polyline([[0.0, 0.0], [2.0, 1.0], [4.0, 2.0]])]
        ts = np.array([0.0, 0.3, 1.1, 2.0, 3.0])
        for d in ([1.0, 0.0], [0.0, -1.0], [1.0, 1.0], [-1.0, 1.0],
                  [math.cos(math.pi / 6), math.sin(math.pi / 6)], [2.0, 1.0]):
            d = np.array(d)
            curves += [Polyline(1.5 + ts[:, None] * d),
                       BezierChain([ts[[0, 2, 3, 4], None] * d])]
        for cur in curves:
            rep = initial_guess(sample(cur, 64))
            assert rep.degenerate == "line"
            assert rep.params.k == 0.0
            assert rep.R4 <= 1e-6

    def test_degenerate_line(self):
        # nearly straight: max|kappa| L = 2e-9 <= LAMBDA_MIN_REL, so
        # kappa = 0 is fitted
        cur = BezierChain([[[0, 0], [1, 1e-9], [2, 1e-9], [3, 0]]])
        rep = initial_guess(sample(cur, 256))
        assert rep.degenerate == "line"
        assert rep.params.k == 0.0
        assert rep.R4 <= 1e-6

    def test_degenerate_line_after_solve(self):
        # max|kappa| L = 2e-7: the moment system solves, and lambda is
        # negligible
        cur = BezierChain([[[0, 0], [1, 1e-7], [2, 1e-7], [3, 0]]])
        smp = sample(cur, 256)
        assert affine_curvature_fit(smp).lam > 0
        rep = initial_guess(smp)
        assert rep.degenerate == "line"
        assert rep.R4 <= 1e-6

    @pytest.mark.parametrize("scale", [1e-100, 1e-20, 1.0, 1e20, 1e100])
    def test_straight_is_line_at_every_scale(self, scale):
        """A straight polyline off the axes and diagonals, whose
        circumcircle kappa is rounding noise, is a line at every scale."""
        pts = scale * np.array([[0, 0], [1, 0.6], [3, 1.8], [3.5, 2.1]])
        smp = sample(Polyline(pts), 256)
        assert np.any(smp.kappa)
        rep = initial_guess(smp)
        assert rep.degenerate == "line"
        assert rep.R4 <= 1e-14

    @pytest.mark.parametrize("e", [-200, -150, -110, -103, 0, 103, 150,
                                   200])
    def test_guess_at_every_scale(self, e):
        """The CLI tests' S_CURVE and a curved polyline scaled by 10^e get
        the scale-1 guess: sample works on the points scaled to unit
        extent, and the recovery on the unit-length copy, so neither the
        polyline's circumcircle curvature nor the curvature moments go
        subnormal or overflow.  No floating-point exception is raised on
        the way, not even an underflow.  The polyline's curvature spikes at
        its vertices, so its guess moves more with rounding."""
        for cls, pts, tol in (
                (BezierChain, [[[0, 0], [1, 1.2], [2.2, 1.1], [3, 0.2]]],
                 6e-14),
                (Polyline, [[0, 0], [1, 0.6], [2, 0.8], [3, 0.5], [4, -0.1]],
                 1e-12)):
            pts = np.array(pts, float)
            ref = initial_guess(sample(cls(pts), 256))
            c = 10.0 ** e
            with np.errstate(all="raise"):
                rep = initial_guess(sample(cls(c * pts), 256))
            assert rep.degenerate is None
            for name in ("R1", "R2", "R3", "R4"):
                assert getattr(rep, name) == pytest.approx(
                    getattr(ref, name), rel=tol)
            q, q0 = rep.params, ref.params
            for name in ("k", "s0", "ell"):
                assert getattr(q, name) == pytest.approx(getattr(q0, name),
                                                         rel=tol)
            assert q.w / c == pytest.approx(q0.w, rel=tol)
            assert q.phi == pytest.approx(q0.phi, abs=tol)
            assert (q.x0 / c, q.y0 / c) == pytest.approx((q0.x0, q0.y0),
                                                         abs=tol)

    @pytest.mark.parametrize("name", ["wave_multi_lobe", "s_curve_deep"])
    @pytest.mark.parametrize("v", [(2.6, -3.0), (1e3, 1e3)])
    def test_guess_does_not_depend_on_position(self, name, v):
        """The same samples moved by v get the same shape and similarity,
        moved by v: the recovery's moments are taken about the first
        sample, not about the origin of the coordinates."""
        smp = sample(load_curve(str(ROOT / "corpus" / f"{name}.json")), 256)
        ref = initial_guess(smp)
        rep = initial_guess(dataclasses.replace(smp, points=smp.points + v))
        assert rep.R4 == pytest.approx(ref.R4, rel=1e-12)
        q, q0 = rep.params.as_array(), ref.params.as_array()
        assert q[:5] == pytest.approx(q0[:5], rel=1e-12, abs=1e-12)
        assert q[5:] - v == pytest.approx(q0[5:], abs=1e-12 * max(v))

    def test_degenerate_circle(self):
        ang = np.linspace(0.0, 2 * math.pi, 1025)
        pts = np.column_stack([3 * np.cos(ang), 3 * np.sin(ang)])
        rep = initial_guess(sample(Polyline(pts), 1024))
        assert rep.degenerate == "circle"

    def test_non_elastic_input_is_finite(self):
        cur = BezierChain([[[0, 0], [1, 1], [2, -1], [3, 0.5]]])
        rep = initial_guess(sample(cur, 512))
        for v in (rep.R1, rep.R2, rep.R3, rep.R4):
            assert math.isfinite(v)
        assert rep.R4 > 0
        assert np.all(np.isfinite(rep.params.as_array()))

    def test_r3_ignores_rounding_at_range_end(self):
        """An exact elastica guessed to rounding has R3 = 0: one node's u
        lies 6 ulps above u_max, which is rounding, not leaving the
        range."""
        p = ElasticaParams(k=1.5452585767925986, s0=1.4808507970867386,
                           ell=0.9165888659651883, w=1.4045607151006962,
                           phi=-0.6045101345197192, x0=-0.9170124241590223,
                           y0=-1.1867196892137652)
        rep = initial_guess(elastica_samples(p, 1024))
        assert rep.R4 <= 1e-13
        assert rep.R3 == 0.0


def _monotone_runs_loop(u):
    """The element-by-element loop that _monotone_runs replaced, kept as its
    reference."""
    du = np.diff(u)
    signs = np.sign(du)
    # zero differences inherit the previous direction
    for i in range(1, len(signs)):
        if signs[i] == 0:
            signs[i] = signs[i - 1]
    for i in range(len(signs) - 2, -1, -1):
        if signs[i] == 0:
            signs[i] = signs[i + 1]
    runs = []
    start = 0
    for i in range(1, len(signs)):
        if signs[i] != signs[i - 1]:
            runs.append((start, i, signs[i - 1] > 0))
            start = i
    runs.append((start, len(u) - 1, signs[-1] > 0))
    return runs


def _walk(seed, n, step_set):
    return np.cumsum(np.random.default_rng(seed).choice(step_set, size=n))


MONOTONE_RUN_INPUTS = {
    "walk": _walk(1, 200, [-1.0, 1.0]),
    "walk_long_runs": np.cumsum(
        np.repeat(np.random.default_rng(2).choice([-1.0, 1.0], 30), 7)),
    "plateaus": _walk(3, 300, [-1.0, 0.0, 0.0, 1.0]),
    "float_walk": np.round(np.random.default_rng(4).normal(size=500)
                           .cumsum(), 1),
    "leading_zeros": np.array([2.0, 2.0, 2.0, 3.0, 4.0, 1.0, 0.0]),
    "leading_zeros_down": np.array([2.0, 2.0, 1.0, 1.0, 3.0]),
    "trailing_zeros": np.array([0.0, 1.0, 0.5, 0.2, 0.2, 0.2]),
    "inner_plateau_turn": np.array([0.0, 1.0, 1.0, 1.0, 0.0, 0.0, 2.0]),
    "all_equal": np.full(9, 1.5),
    "length2_up": np.array([0.0, 1.0]),
    "length2_down": np.array([1.0, 0.0]),
    "length2_equal": np.array([1.0, 1.0]),
    "sine": np.sin(np.linspace(0.0, 7.0 * math.pi, 1025)),
}


@pytest.mark.parametrize("name", MONOTONE_RUN_INPUTS)
def test_monotone_runs_match_loop(name):
    u = MONOTONE_RUN_INPUTS[name]
    assert _monotone_runs(u) == _monotone_runs_loop(u)


def _drawn_elastica(i, k_frac, f0, f1, w, phi, x0, y0):
    """Elastica as drawn by acceptance criterion 4: k below 1 for even i and
    above 1 for odd i, 1 + i % 4 monotone runs of u."""
    k = 0.2 + 0.75 * k_frac if i % 2 == 0 else 1.05 + 0.85 * k_frac
    half = 2.0 * quarter_period(k)
    ell = (i % 4 + f1 - f0) * half
    if ell < 0.1 * half:
        ell += half
    return ElasticaParams(k=k, s0=(i % 2 + f0) * half, ell=ell, w=w,
                          phi=phi, x0=x0, y0=y0)


_unit = st.floats(0.0, 1.0)
_frac = st.floats(0.05, 0.95)


@settings(derandomize=True, deadline=None, max_examples=25, database=None)
@given(i=st.integers(0, 3), k_frac=_unit, f0=_frac, f1=_frac,
       w=st.floats(0.5, 2.0), phi=st.floats(-math.pi, math.pi),
       x0=st.floats(-2.0, 2.0), y0=st.floats(-2.0, 2.0),
       rho=st.floats(-math.pi, math.pi), log_c=st.floats(-0.7, 0.7),
       vx=st.floats(-3.0, 3.0), vy=st.floats(-3.0, 3.0))
def test_initial_guess_similarity_equivariance(i, k_frac, f0, f1, w, phi, x0,
                                               y0, rho, log_c, vx, vy):
    """initial_guess commutes with translation, rotation and scaling: the
    posed elastica (c w, phi + rho, c R (x0, y0) + v) gets the posed guess."""
    p = _drawn_elastica(i, k_frac, f0, f1, w, phi, x0, y0)
    c = math.exp(log_c)
    R = np.array([[math.cos(rho), -math.sin(rho)],
                  [math.sin(rho), math.cos(rho)]])
    xy = c * R @ np.array([x0, y0]) + (vx, vy)
    posed = dataclasses.replace(p, w=c * w, phi=phi + rho,
                                x0=float(xy[0]), y0=float(xy[1]))
    base = initial_guess(sample(ElasticaCurve(p), 512))
    rep = initial_guess(sample(ElasticaCurve(posed), 512))
    assert rep.degenerate is base.degenerate is None
    assert (rep.inflectional, rep.n_segments) == \
        (base.inflectional, base.n_segments)
    q0, q1 = base.params, rep.params
    assert q1.k == pytest.approx(q0.k, abs=1e-6)
    assert q1.s0 == pytest.approx(q0.s0, abs=1e-6)
    assert q1.ell == pytest.approx(q0.ell, abs=1e-6)
    assert q1.w == pytest.approx(c * q0.w, abs=1e-6)
    dphi = (q1.phi - q0.phi - rho + math.pi) % (2 * math.pi) - math.pi
    assert abs(dphi) < 1e-6
    want = c * R @ np.array([q0.x0, q0.y0]) + (vx, vy)
    assert q1.x0 == pytest.approx(want[0], abs=1e-6)
    assert q1.y0 == pytest.approx(want[1], abs=1e-6)


def _guess_mix_fixed_set(monkeypatch, seed):
    """The curves of perfbench's guess_mix fixed input set at seed, without
    its known defects."""
    monkeypatch.syspath_prepend(str(ROOT))
    workloads = importlib.import_module("perfbench.workloads")
    mix = workloads.GuessMix()
    blocks = mix.blocks(seed)
    return [case.curve for _ in range(mix.min_blocks)
            for case in next(blocks) if case.known_defect is None]


def test_guess_similarity_is_aligned(monkeypatch):
    """initial_guess ends with the fit's closed-form alignment: aligning its
    guess again moves (w, phi, x0, y0) by at most 1e-12 relative, for every
    non-degenerate guess of the corpus curves (256 samples) and of
    guess_mix's fixed set at seed 201 (1024 samples)."""
    corpus = ROOT / "corpus"
    curves = [(load_curve(str(path)), 256)
              for path in sorted(corpus.glob("*.json"))]
    curves += [(cur, 1024)
               for cur in _guess_mix_fixed_set(monkeypatch, 201)]
    aligned = 0
    for cur, n in curves:
        smp = sample(cur, n)
        rep = initial_guess(smp)
        if rep.degenerate is not None:
            continue
        aligned += 1
        assert rep.R4 == residual_r4(rep.params, smp)
        q = rep.params.as_array()
        a, _ = _align_similarity(q, smp, _jacobi_E_at(q, smp.tau))
        assert np.array_equal(a[:3], q[:3])
        assert abs(a[3] - q[3]) <= 1e-12 * q[3]
        assert abs((a[4] - q[4] + math.pi) % (2 * math.pi) - math.pi) <= 1e-12
        assert np.linalg.norm(a[5:] - q[5:]) <= 1e-12 * max(
            np.linalg.norm(q[5:]), smp.length)
    assert aligned >= 100


def _check_exact_roundtrip(p):
    """ROADMAP item 5's property: an exact elastica (256 samples) gets a
    recovered guess, and a free fit that converges from it to rounding
    without making it worse."""
    smp = sample(ElasticaCurve(p), 256)
    rep = initial_guess(smp)
    assert rep.degenerate is None
    assert rep.R4 <= 5e-3
    res = fit(FitProblem(target=smp, init=rep.params, max_iter=200))
    assert res.converged, res.message
    assert res.r4 <= 1e-8
    assert res.r4 <= rep.R4 + 1e-12


@st.composite
def _regular_chart_elastica(draw):
    """k away from 1 and at most 10; |ell| log-uniform in [0.05, 6]
    half-periods of either sign, s0 in [0, 4] half-periods, w log-uniform
    in [e^-3, e^3], any pose."""
    k = draw(st.one_of(st.floats(0.05, 0.99), st.floats(1.01, 10.0)))
    half = 2.0 * quarter_period(k)
    ell = math.exp(draw(st.floats(math.log(0.05), math.log(6.0)))) * half
    return ElasticaParams(
        k=k, s0=draw(st.floats(0.0, 4.0)) * half,
        ell=ell if draw(st.booleans()) else -ell,
        w=math.exp(draw(st.floats(-3.0, 3.0))),
        phi=draw(st.floats(-math.pi, math.pi)),
        x0=draw(st.floats(-5.0, 5.0)), y0=draw(st.floats(-5.0, 5.0)))


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(p=_regular_chart_elastica())
# u turns within the first sample interval, where a start direction read
# from du/ds disagrees with the counted runs and puts both ends of the
# guess a half-period off (guess R4 8.5e-2, 8.0e-2 and 1.2e-2 that way)
@example(p=ElasticaParams(0.980711, 24.287416, 22.806063, 1.954213,
                          -1.22326, 0.768859, -0.910741))
@example(p=ElasticaParams(0.930751, 14.680285, -14.126802, 5.870639,
                          2.649425, 0.318228, 1.150355))
@example(p=ElasticaParams(1.543323, 2.381542, -2.382595, 2.438448,
                          -1.865249, 2.411225, 2.928244))
def test_exact_elastica_roundtrip_regular_chart(p):
    _check_exact_roundtrip(p)


@pytest.mark.parametrize("p", [
    pytest.param(ElasticaParams(12.0, 0.1, 0.9, 1.0, 0.3, 0.0, 0.0),
                 id="k12"),
    pytest.param(ElasticaParams(1 - 1.45e-7, 0.5, -3.7294, 1.0, 0.3, 0.0,
                                0.0),
                 marks=pytest.mark.xfail(strict=True, reason=(
                     "k near 1 (ROADMAP item 4): guessed at R4 9e-16, the "
                     "fit ends unconverged at 'trust region collapsed'")),
                 id="k1-1.45e-7"),
])
def test_exact_elastica_roundtrip_outside_regular_chart(p):
    _check_exact_roundtrip(p)


@pytest.mark.parametrize("mode", fitting.CONSTRAINT_MODES)
@pytest.mark.parametrize("k", [12.0, 20.0, 50.0])
def test_exact_elastica_beyond_k10_fits_in_every_mode(k, mode, request):
    """The guess and every fit iterate share one modulus chart with no
    upper bound, so an exact elastica at k > 10 (256 samples) is guessed
    to rounding and every mode keeps it there: converged, R4 <= 1e-11.
    (With the fit capped at k = 10, the free fit at k = 12 ended at R4
    1.09e-4, "trust region collapsed", and every tangent fit at 0
    iterations, "constraints not restored".)"""
    if k == 50.0 and mode == "none":
        request.applymarker(pytest.mark.xfail(
            strict=True, raises=AssertionError, reason=(
                "cancellation at large k (ROADMAP item 9): F's evaluation "
                "noise, about 30% of f at R4 5e-13, exceeds the stop's "
                "rounding term, and the fit ends at R4 4.8e-13 with 'trust "
                "region collapsed'")))
    smp = sample(ElasticaCurve(ElasticaParams(k, 1 / k, 9 / k, 1.0, 0.3,
                                              0.0, 0.0)), 256)
    rep = initial_guess(smp)
    assert rep.degenerate is None and rep.R4 <= 1e-12
    res = fit(FitProblem(target=smp, init=rep.params, constraints=mode))
    assert res.r4 <= 1e-11
    assert res.converged, res.message
