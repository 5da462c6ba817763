"""Tests for elastica evaluation and its derivative blocks.

Oracles: RK4 integration of the pendulum system, central finite
differences for every analytic derivative, and mpmath derivatives of the
zeta k-blocks on the regular chart and, with the tangent angle's, near
k = 1.
"""

import functools
import math

import mpmath as mp
import numpy as np
import pytest

from elastica_fit import fitting
from elastica_fit.curve import sample
from elastica_fit.elastica import (
    K_MIN,
    ElasticaCurve,
    ElasticaParams,
    _angle_partials,
    _segment_eval_arr,
    _zeta_blocks,
    basic_derivatives,
    basic_point,
    segment_eval,
    segment_eval_many,
    segment_partials,
)
from elastica_fit.elliptic import (
    K_GUARD_BAND,
    _jacobi_E,
    incomplete_E,
    quarter_period,
)
from elastica_fit.errors import DomainError
from elastica_fit.fitting import _chart_modulus
from test_elliptic import _mp_jacobi_E


def rk4_pendulum_curve(s_end, k, h=1e-4):
    """Integrate theta'' = -sin(theta), theta(0)=0, theta'(0)=2k together
    with the position (x', y') = (cos theta, sin theta)."""
    def deriv(y):
        th, om, _, _ = y
        return np.array([om, -math.sin(th), math.cos(th), math.sin(th)])

    n = int(round(abs(s_end) / h))
    h = s_end / n
    y = np.array([0.0, 2.0 * k, 0.0, 0.0])
    for _ in range(n):
        k1 = deriv(y)
        k2 = deriv(y + 0.5 * h * k1)
        k3 = deriv(y + 0.5 * h * k2)
        k4 = deriv(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return y[2], y[3]


def random_params(rng, n=1):
    out = []
    for _ in range(n):
        k = rng.uniform(0.1, 0.9) if rng.random() < 0.5 else rng.uniform(1.1, 1.9)
        out.append(ElasticaParams(
            k=k,
            s0=rng.uniform(-2, 2),
            ell=rng.uniform(0.5, 4.0),
            w=rng.uniform(0.3, 3.0),
            phi=rng.uniform(-math.pi, math.pi),
            x0=rng.uniform(-2, 2),
            y0=rng.uniform(-2, 2),
        ))
    return out


class TestBasicPoint:
    def test_k0_is_line(self):
        for s in (-2.0, 0.5, 3.7):
            assert basic_point(s, 0.0) == pytest.approx([s, 0.0], abs=1e-14)

    def test_periodicity(self):
        for k in (0.4, 0.8, 1.3):
            K = quarter_period(k)
            shift = 2 * incomplete_E(4 * K, k) - 4 * K
            for s in (-1.0, 0.7, 2.5):
                d = basic_point(s + 4 * K, k) - basic_point(s, k)
                assert d == pytest.approx([shift, 0.0], abs=1e-10)

    def test_pendulum_ode_oracle(self):
        x, y = rk4_pendulum_curve(1.2, 0.8)
        assert basic_point(1.2, 0.8) == pytest.approx([x, y], abs=1e-8)

    def test_pendulum_ode_oracle_noninflectional(self):
        x, y = rk4_pendulum_curve(2.0, 1.4)
        assert basic_point(2.0, 1.4) == pytest.approx([x, y], abs=1e-8)

    def test_unit_speed_identity(self):
        # (2 dn^2 - 1)^2 + 4 k^2 sn^2 dn^2 = 1
        for k in (0.0, 0.3, 0.85, 1.2, 1.9):
            for s in np.linspace(-6, 6, 121):
                h = 1e-6
                d = (basic_point(s + h, k) - basic_point(s - h, k)) / (2 * h)
                assert np.hypot(d[0], d[1]) == pytest.approx(1.0, abs=1e-7)


class TestBasicDerivatives:
    def test_tangent_at_origin(self):
        d = basic_derivatives(0.0, 0.6)
        assert d.ds == pytest.approx([1.0, 0.0], abs=1e-14)

    def test_second_derivative_at_origin(self):
        k = 0.6
        d = basic_derivatives(0.0, k)
        assert d.dss == pytest.approx([0.0, 2 * k], abs=1e-14)

    @pytest.mark.parametrize("s,k", [(0.9, 0.65), (2.2, 0.3), (1.1, 1.5)])
    def test_all_blocks_vs_finite_differences(self, s, k):
        h = 1e-6
        h2 = 1e-4
        d = basic_derivatives(s, k)

        def zeta(ss, kk):
            return basic_point(ss, kk)

        fd_ds = (zeta(s + h, k) - zeta(s - h, k)) / (2 * h)
        fd_dk = (zeta(s, k + h) - zeta(s, k - h)) / (2 * h)
        fd_dss = (zeta(s + h2, k) - 2 * zeta(s, k) + zeta(s - h2, k)) / h2 ** 2
        fd_dkk = (zeta(s, k + h2) - 2 * zeta(s, k) + zeta(s, k - h2)) / h2 ** 2
        fd_dsk = (zeta(s + h2, k + h2) - zeta(s + h2, k - h2)
                  - zeta(s - h2, k + h2) + zeta(s - h2, k - h2)) / (4 * h2 ** 2)
        for got, want in [(d.ds, fd_ds), (d.dk, fd_dk), (d.dss, fd_dss),
                          (d.dkk, fd_dkk), (d.dsk, fd_dsk)]:
            denom = max(1.0, float(np.max(np.abs(want))))
            assert np.max(np.abs(got - want)) / denom < 1e-5

    def test_k0_rejected(self):
        with pytest.raises(DomainError):
            basic_derivatives(1.0, 0.0)


class TestSegmentEval:
    def test_origin(self):
        p = ElasticaParams(0.7, 0.0, 2.0, 1.0, 0.0, 0.0, 0.0)
        assert segment_eval(p, 0.0) == pytest.approx([0.0, 0.0], abs=1e-14)

    def test_constant_speed(self):
        p = ElasticaParams(0.8, 0.3, 2.0, 1.5, math.pi / 4, 1.0, -2.0)
        h = 1e-6
        for t in (0.1, 0.45, 0.9):
            d = (segment_eval(p, t + h) - segment_eval(p, t - h)) / (2 * h)
            assert np.hypot(d[0], d[1]) == pytest.approx(abs(p.ell) * p.w, rel=1e-7)

    def test_composition(self):
        p = ElasticaParams(0.8, 0.3, 2.0, 1.5, math.pi / 4, 1.0, -2.0)
        z = basic_point(1.3, 0.8)
        R = np.array([[math.cos(p.phi), -math.sin(p.phi)],
                      [math.sin(p.phi), math.cos(p.phi)]])
        want = p.w * R @ z + np.array([1.0, -2.0])
        assert segment_eval(p, 0.5) == pytest.approx(want, abs=1e-12)

    def test_many_matches_scalar(self):
        p = ElasticaParams(1.3, -0.5, 3.0, 0.8, 1.0, 0.5, 0.25)
        t = np.linspace(0, 1, 17)
        pts = segment_eval_many(p, t)
        for i, ti in enumerate(t):
            assert pts[i] == pytest.approx(segment_eval(p, ti), abs=1e-14)


class TestSegmentCurvature:
    """The sampled curvature of a segment is (2k/w) cn(s0 + ell*t, k), with
    the sign of ell: a segment run backwards turns the other way."""

    def test_k0(self):
        p = ElasticaParams(0.0, 0.0, 2.0, 1.0, 0.3, 0.0, 0.0)
        assert np.all(sample(ElasticaCurve(p), 16).kappa == 0.0)

    def test_at_cn_one(self):
        # s0 + ell*t = 0 at t = 0.5, the middle node
        for s0, ell in ((-1.0, 2.0), (1.0, -2.0)):
            p = ElasticaParams(0.7, s0, ell, 1.5, 0.0, 0.0, 0.0)
            kappa = sample(ElasticaCurve(p), 16).kappa[8]
            assert kappa == pytest.approx(math.copysign(2 * 0.7 / 1.5, ell),
                                          abs=1e-12)

    def test_finite_difference_oracle(self):
        p = ElasticaParams(0.8, 0.3, 2.0, 1.5, 0.7, 1.0, -2.0)
        h = 1e-4
        kappas = sample(ElasticaCurve(p), 20).kappa
        for i, t in ((4, 0.2), (12, 0.6), (17, 0.85)):
            pm = segment_eval(p, t - h)
            p0 = segment_eval(p, t)
            pp = segment_eval(p, t + h)
            d1 = (pp - pm) / (2 * h)
            d2 = (pp - 2 * p0 + pm) / h ** 2
            speed = np.hypot(d1[0], d1[1])
            kappa = (d1[0] * d2[1] - d1[1] * d2[0]) / speed ** 3
            assert kappas[i] == pytest.approx(kappa, abs=1e-6)


class TestSegmentPartials:
    def test_translation_partials(self):
        p = ElasticaParams(0.8, 0.2, 2.0, 1.0, 0.4, 1.0, 2.0)
        dy, _ = segment_partials(p, 0.3)
        assert dy[5] == pytest.approx([1.0, 0.0], abs=1e-15)
        assert dy[6] == pytest.approx([0.0, 1.0], abs=1e-15)

    def test_rotation_partial(self):
        p = ElasticaParams(0.8, 0.2, 2.0, 1.5, 0.4, 1.0, 2.0)
        dy, _ = segment_partials(p, 0.3)
        z = basic_point(p.s0 + p.ell * 0.3, p.k)
        a = p.phi + math.pi / 2
        R = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
        assert dy[4] == pytest.approx(p.w * R @ z, abs=1e-12)

    def test_full_blocks_vs_finite_differences(self):
        rng = np.random.default_rng(42)
        h = 1e-5
        for p in random_params(rng, 20):
            t = rng.uniform(0, 1)
            a = p.as_array()
            dy, d2y = segment_partials(p, t)

            def eval_at(vec):
                return segment_eval(ElasticaParams.from_array(vec), t)

            def grad_at(vec):
                g, _ = segment_partials(ElasticaParams.from_array(vec), t,
                                        second=False)
                return g

            for i in range(7):
                e = np.zeros(7)
                e[i] = h
                fd = (eval_at(a + e) - eval_at(a - e)) / (2 * h)
                denom = max(1.0, float(np.max(np.abs(fd))))
                assert np.max(np.abs(dy[i] - fd)) / denom < 1e-5
                fd2 = (grad_at(a + e) - grad_at(a - e)) / (2 * h)
                denom = max(1.0, float(np.max(np.abs(fd2))))
                assert np.max(np.abs(d2y[i] - fd2)) / denom < 1e-5

    def test_hessian_symmetry(self):
        p = ElasticaParams(1.4, 0.1, 2.5, 0.9, -0.6, 0.3, 0.8)
        _, d2y = segment_partials(p, 0.37)
        assert np.max(np.abs(d2y - np.swapaxes(d2y, 0, 1))) == 0.0


def basic_tangent_angle(s, k):
    """atan2 of the closed-form dzeta/ds = (2 dn^2 - 1, 2 k sn dn)."""
    from elastica_fit.elliptic import jacobi
    sn, cn, dn = jacobi(s, k)
    return math.atan2(2 * k * sn * dn, 2 * dn * dn - 1)


class TestPendulumEquation:
    @pytest.mark.parametrize("k", [0.2, 0.5, 0.8, 0.95, 1.2, 1.8])
    def test_tangent_angle_defect(self, k):
        # theta'' + sin(theta) = 0 with second-order finite differences
        h = 1e-4
        worst = 0.0
        for si in np.linspace(-3, 3, 61):
            th = np.unwrap([basic_tangent_angle(si + d, k) for d in (-h, 0.0, h)])
            defect = (th[2] - 2 * th[1] + th[0]) / h ** 2 + math.sin(th[1])
            worst = max(worst, abs(defect))
        assert worst < 1e-6

    def test_general_segment_euler_lagrange(self):
        p = ElasticaParams(0.75, 0.4, 2.5, 1.3, 0.9, 0.7, -0.2)
        lam1 = math.cos(p.phi) / p.w ** 2
        lam2 = math.sin(p.phi) / p.w ** 2
        L = p.length
        h = 1e-4
        for sigma in np.linspace(0.2 * L, 0.8 * L, 13):
            # unit-speed reparameterization: angle at arclength sigma is the
            # basic tangent angle at s0 + sigma/w, rotated by phi
            th = np.unwrap([
                basic_tangent_angle(p.s0 + (sigma + d) / p.w, p.k) + p.phi
                for d in (-h, 0.0, h)])
            defect = ((th[2] - 2 * th[1] + th[0]) / h ** 2
                      + lam1 * math.sin(th[1]) - lam2 * math.cos(th[1]))
            assert abs(defect) < 1e-6


def test_chart_modulus_restates_both_clamps():
    """The optimizer's projection and the guess's modulus clamp are one
    rule, with no upper bound, and k alone names its side of 1: k > 1
    moved to [1 + 2 g, inf), any other k to [K_MIN, 1 - 2 g], bit for bit,
    as Python and numpy floats; NaN passes through.  fitting._project
    applies it to every k that is not finite and negative."""
    g = K_GUARD_BAND
    ks = [math.nan, -math.inf, -1.0, 0.0, 1e-7, K_MIN, 0.5, 1 - 3 * g,
          1 - 2 * g, 1 - g, 1.0, 1 + g, 1 + 2 * g, 1 + 3 * g, 2.0, 10.0,
          11.0, 1e6, 1e300, math.inf]

    def bits(x):
        return np.float64(x).tobytes()

    for k in ks + [np.float64(k) for k in ks]:
        if math.isnan(k):
            want = k
        elif k > 1.0:
            want = k if k > 1 + 2 * g else 1 + 2 * g
        else:
            want = min(max(k, K_MIN), 1 - 2 * g)
        assert bits(_chart_modulus(k)) == bits(want)
        if not -math.inf < k < 0.0:
            q = fitting._project(np.array([k, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0]))
            assert bits(q[0]) == bits(want)


@pytest.mark.parametrize("k", [-0.999, -0.8, -0.3, -1e-3, -K_MIN])
def test_project_mirrors_a_negative_modulus(k):
    """fitting._project maps a finite k < 0 to (-k, -s0, -ell, w, phi + pi,
    x0, y0), the same segment as zeta_-k(s) = -zeta_k(-s): every point and
    both end tangents agree to 1e-14.  -inf is clamped to K_MIN and NaN
    passes through, with the other parameters as given."""
    p = np.array([k, 0.7, -2.3, 1.3, 0.4, 0.2, -0.1])
    q = fitting._project(p)
    want = np.array([-k, -0.7, 2.3, 1.3, 0.4 + math.pi, 0.2, -0.1])
    assert q.tobytes() == want.tobytes()
    t = np.linspace(0.0, 1.0, 65)
    gap = np.abs(_segment_eval_arr(q, t) - _segment_eval_arr(p, t))
    assert np.max(gap) <= 1e-14
    ends = fitting._ENDS
    turn = (fitting._end_pose(q, fitting._jacobi_E_at(q, ends))[1]
            - fitting._end_pose(p, fitting._jacobi_E_at(p, ends))[1])
    assert np.max(np.abs(fitting._wrap_angle(turn))) <= 1e-14
    for bad, k_to in ((-math.inf, K_MIN), (math.nan, math.nan)):
        q = fitting._project(np.array([bad, *p[1:]]))
        assert np.float64(q[0]).tobytes() == np.float64(k_to).tobytes()
        assert q[1:].tobytes() == p[1:].tobytes()


#: the arclengths and moduli of the k-block check near k = 1, and the
#: relative error the blocks meet away from it; s = 6 and 9 lie past
#: ks = K(1/k) at k = 1 + 1e-4, where dn < 0 for k > 1
NEAR_ONE_S = (0.3, 1.0, 2.5, 4.0, 6.0, 9.0)
NEAR_ONE_K = (1 - 1e-4, 1 + 1e-4, 1 - 1e-6, 1 + 1e-6, 1 - 1e-8, 1 + 1e-8)
NEAR_ONE_RTOL = 1e-9

#: (block, k) -> the largest relative error over NEAR_ONE_S, measured
#: against mpmath, of each block that misses NEAR_ONE_RTOL: the k-blocks
#: divide by 1 - k^2, and their numerators cancel as k -> 1
NEAR_ONE_MISSES = {
    ("zeta_k", 1 + 1e-6): 1.6e-9, ("zeta_k", 1 - 1e-8): 2.1e-7,
    ("zeta_k", 1 + 1e-8): 1.9e-7,
    ("zeta_sk", 1 - 1e-8): 1.3e-8, ("zeta_sk", 1 + 1e-8): 2.0e-8,
    ("zeta_kk", 1 - 1e-4): 1.3e-7, ("zeta_kk", 1 + 1e-4): 8.8e-8,
    ("zeta_kk", 1 - 1e-6): 5.1e-4, ("zeta_kk", 1 + 1e-6): 1.7e-3,
    ("zeta_kk", 1 - 1e-8): 20.0, ("zeta_kk", 1 + 1e-8): 39.0,
    ("theta_k", 1 - 1e-8): 1.3e-8, ("theta_k", 1 + 1e-8): 2.0e-8,
    ("theta_sk", 1 - 1e-8): 9.3e-9, ("theta_sk", 1 + 1e-8): 9.8e-9,
    ("theta_kk", 1 - 1e-4): 3.6e-6, ("theta_kk", 1 + 1e-4): 4.1e-7,
    ("theta_kk", 1 - 1e-6): 4.1e-2, ("theta_kk", 1 + 1e-6): 2.9e-2,
    ("theta_kk", 1 - 1e-8): 480.0, ("theta_kk", 1 + 1e-8): 1.2e3,
}


def _mp_zeta(u, k):
    """(zeta_k(u), zeta_s(u)) in mpmath, at any u and, by the A&S 16.11
    transfer of test_elliptic's _mp_jacobi_E, for k > 1."""
    sn, cn, dn, e = _mp_jacobi_E(u, k)
    return mp.mpc(2 * e - u, 2 * k * (1 - cn)), mp.mpc(2 * dn * dn - 1,
                                                        2 * k * sn * dn)


def _mp_theta(u, k):
    """theta(u) = 2 atan2(k sn, dn) in mpmath; for k > 1, dn = cn(ku, 1/k)
    turns negative past ku = K(1/k), so it is taken from _mp_jacobi_E."""
    sn, _, dn, _ = _mp_jacobi_E(u, k)
    return 2 * mp.atan2(k * sn, dn)


@functools.lru_cache(maxsize=None)
def _near_one_reference(k):
    """{block: complex (3,)} of the k-blocks at NEAR_ONE_S by mpmath
    differentiation at 40 digits; zeta_sk is d/dk of zeta_s = e^(i theta),
    which needs no E."""
    ref = {}
    with mp.workdps(40):
        kk = mp.mpf(k)
        for name, f, f_sk in (
                ("zeta", lambda u, x: _mp_zeta(u, x)[0],
                 lambda u: mp.diff(lambda x: mp.expj(_mp_theta(u, x)), kk)),
                ("theta", _mp_theta,
                 lambda u: mp.diff(_mp_theta, (u, kk), (1, 1)))):
            rows = [(mp.diff(lambda x: f(u, x), kk), f_sk(u),
                     mp.diff(lambda x: f(u, x), kk, 2))
                    for u in map(mp.mpf, NEAR_ONE_S)]
            for b, d in enumerate(("k", "sk", "kk")):
                ref[f"{name}_{d}"] = np.array([complex(r[b]) for r in rows])
    return ref


@pytest.mark.parametrize("block, k", [
    pytest.param(block, k, marks=pytest.mark.xfail(
        strict=True, reason=f"relative error {NEAR_ONE_MISSES[block, k]:.2g}")
        if (block, k) in NEAR_ONE_MISSES else ())
    for block in ("zeta_k", "zeta_sk", "zeta_kk",
                  "theta_k", "theta_sk", "theta_kk")
    for k in NEAR_ONE_K])
def test_k_blocks_near_one_mpmath(block, k):
    """d/dk, d2/dsdk and d2/dk2 of zeta (_zeta_blocks) and of the tangent
    angle (_angle_partials) near k = 1, on both sides, against mpmath."""
    s = np.array(NEAR_ONE_S)
    column = 3 + ("k", "sk", "kk").index(block.split("_")[1])
    if block.startswith("zeta"):
        got = _zeta_blocks(s, k, True)[0][:, column]
    else:
        got = _angle_partials(s, k, _jacobi_E(s, k))[:, column]
    ref = _near_one_reference(k)[block]
    assert np.max(np.abs(got - ref) / np.abs(ref)) <= NEAR_ONE_RTOL


#: moduli of the regular-chart check of the zeta k-blocks, on both sides
#: of 1, and its arclengths as multiples of the quarter period K: both
#: signs, spanning 7.2 K, more than the period 4 K of cn
REGULAR_K = (1e-4, 0.05, 0.3, 0.68, 0.95, 1.05, 1.5, 3.0, 9.0)
REGULAR_S_OVER_K = (-2.6, -1.3, -0.4, 0.25, 0.9, 1.7, 3.1, 4.6)


@pytest.mark.parametrize("k", REGULAR_K)
def test_zeta_k_blocks_regular_chart_mpmath(k):
    """zeta_k, zeta_sk and zeta_kk of _zeta_blocks against mpmath's
    derivatives in k at 40 digits, away from k = 1: to 1e-12 of each
    block's largest value over the arclengths, 1e-10 at k = 1e-4, where
    zeta_kk divides by k."""
    s = quarter_period(k) * np.array(REGULAR_S_OVER_K)
    got = _zeta_blocks(s, k, True)[0][:, 3:]
    with mp.workdps(40):
        kk = mp.mpf(k)
        ref = np.array([[complex(mp.diff(
            lambda x: _mp_zeta(u, x)[i], kk, n))
            for i, n in ((0, 1), (1, 1), (0, 2))] for u in map(mp.mpf, s)])
    err = np.max(np.abs(got - ref), axis=0) / np.max(np.abs(ref), axis=0)
    assert np.all(err <= (1e-10 if k < 1e-3 else 1e-12)), err
